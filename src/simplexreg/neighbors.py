"""Exact Euclidean nearest-neighbor search with deterministic tie handling.

Two interchangeable strategies produce identical output: a vectorized
brute-force scan and a kd-tree accelerated path.  "auto" uses the kd-tree
for every training set above AUTO_KDTREE_THRESHOLD rows; brute force is
kept as the reference oracle and for tiny n.  Neighbors are ordered by
(distance, row index), so exact distance ties always resolve to the lower
training row.  The kd-tree path re-evaluates candidate distances with the
same floating point kernel the brute path uses, then widens the candidate
set whenever a tie could straddle the cut, which keeps the two strategies
bit-identical.
"""

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError
from .simplex import as_predictor_matrix

# Above this row count "auto" uses the kd-tree, below it brute force.  The
# measured crossover grows with k: n ~ 32-192 at k <= 10, n ~ 192-384 at
# k = 50.  At n = 20,000 and k = 10 the kd-tree is 8-1000x faster.
AUTO_KDTREE_THRESHOLD = 128

_STRATEGIES = ("auto", "brute", "kdtree")

# Memory budget for one block of query-by-candidate distances.
_CHUNK_BYTES = 64 * 2**20

# Distances within this relative window of the k-th neighbor distance are
# treated as potential ties and re-resolved exactly.
_TIE_RTOL = 1e-9


def _distances_to(X, q):
    # Rows of X against broadcast queries q; the one distance kernel of
    # every code path, so that distances agree bitwise between strategies.
    diff = X - q
    return np.sqrt((diff * diff).sum(axis=-1))


def _check_magnitude(A, what):
    # p squared differences of at most (2 * limit)^2 sum to half the float
    # maximum, so squared distances within the bound stay finite.
    limit = np.sqrt(np.finfo(float).max / (8 * A.shape[1]))
    big = np.flatnonzero(np.abs(A).max(axis=1) > limit)
    if big.size:
        raise ValidationError(
            f"{what} row {int(big[0])} exceeds magnitude {limit:.4g}, "
            "beyond which squared distances overflow"
        )
    return A


def pairwise_distances(A, B):
    """Dense (m, n) Euclidean distance matrix, computed in chunks."""
    A = as_predictor_matrix(A)
    B = as_predictor_matrix(B)
    if A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"predictor widths differ: {A.shape[1]} vs {B.shape[1]}"
        )
    m, p = A.shape
    n = B.shape[0]
    out = np.empty((m, n))
    step = max(1, _CHUNK_BYTES // max(1, n * p * 8))
    for s in range(0, m, step):
        out[s : s + step] = _distances_to(B[None, :, :], A[s : s + step, None, :])
    return out


class NeighborIndex:
    """Queryable snapshot of a fixed predictor matrix.

    Parameters
    ----------
    X : array_like, shape (n, p)
        Training predictors; held by reference.
    strategy : {"auto", "brute", "kdtree"}
        "auto" picks the kd-tree once n exceeds AUTO_KDTREE_THRESHOLD.
    """

    def __init__(self, X, strategy="auto"):
        if strategy not in _STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        self._X = _check_magnitude(as_predictor_matrix(X), "training")
        if strategy == "auto":
            strategy = "kdtree" if self._X.shape[0] > AUTO_KDTREE_THRESHOLD else "brute"
        self.strategy = strategy
        self._tree = cKDTree(self._X) if strategy == "kdtree" else None

    @property
    def n(self):
        return self._X.shape[0]

    @property
    def p(self):
        return self._X.shape[1]

    @property
    def predictors(self):
        return self._X

    def query(self, q, k):
        """Nearest neighbors of one query point.

        Returns (indices, distances), each of length min(k, n), ordered by
        (distance, row index).
        """
        q = np.asarray(q, dtype=float)
        if q.ndim != 1:
            raise ValidationError(f"query point must be 1-D, got ndim={q.ndim}")
        idx, dist = self.query_batch(q[None, :], k)
        return idx[0], dist[0]

    def query_batch(self, Q, k):
        """Nearest neighbors of each row of Q.

        Returns (indices, distances) arrays of shape (m, min(k, n)).
        """
        Q = as_predictor_matrix(Q)
        if Q.shape[1] != self.p:
            raise ValidationError(
                f"query width {Q.shape[1]} does not match index width {self.p}"
            )
        _check_magnitude(Q, "query")
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise ValidationError(f"k must be an integer, got {k!r}")
        if k < 1:
            raise ValidationError(f"k must be at least 1, got {k}")
        kk = min(int(k), self.n)
        if self._tree is None:
            return self._query_brute(Q, kk)
        return self._query_kdtree(Q, kk)

    def _query_brute(self, Q, kk):
        m = Q.shape[0]
        n, p = self._X.shape
        out_idx = np.empty((m, kk), dtype=np.int64)
        out_dist = np.empty((m, kk))
        step = max(1, _CHUNK_BYTES // max(1, n * p * 8))
        for s in range(0, m, step):
            d = _distances_to(self._X[None, :, :], Q[s : s + step, None, :])
            # Stable sort on distance keeps ties in ascending index order.
            order = np.argsort(d, axis=1, kind="stable")[:, :kk]
            out_idx[s : s + step] = order
            out_dist[s : s + step] = np.take_along_axis(d, order, axis=1)
        return out_idx, out_dist

    def _query_kdtree(self, Q, kk):
        m = Q.shape[0]
        k_probe = min(kk + 1, self.n)
        out_idx = np.empty((m, kk), dtype=np.int64)
        out_dist = np.empty((m, kk))
        # A block keeps several (rows, k_probe, p) temporaries alive; small
        # blocks keep them out of the peak footprint at no cost in time.
        step = max(1, _CHUNK_BYTES // 64 // (k_probe * self.p * 8))
        for s in range(0, m, step):
            Qs = Q[s : s + step]
            ii = self._tree.query(Qs, k=k_probe)[1].reshape(len(Qs), k_probe)
            # Re-derive candidate distances with the shared kernel; the
            # tree's own values may differ in the last ulp.
            d = _distances_to(self._X[ii], Qs[:, None, :])
            order = np.lexsort((ii, d))
            ii = np.take_along_axis(ii, order, axis=1)
            d = np.take_along_axis(d, order, axis=1)
            out_idx[s : s + step] = ii[:, :kk]
            out_dist[s : s + step] = d[:, :kk]
            # Rows whose probe neighbor may tie the k-th are re-resolved.
            tied = d[:, kk] <= d[:, kk - 1] * (1.0 + _TIE_RTOL) if k_probe > kk else []
            for r in np.flatnonzero(tied):
                out_idx[s + r], out_dist[s + r] = self._resolve_row(Qs[r], kk, d[r, kk - 1])
        return out_idx, out_dist

    def _resolve_row(self, q, kk, d_edge):
        # Tie suspected at the cut: collect every point within the widened
        # radius and redo the selection exactly.
        radius = d_edge * (1.0 + _TIE_RTOL)
        cand = np.asarray(self._tree.query_ball_point(q, radius), dtype=np.int64)
        if cand.size < kk:
            # Radius-zero corner case (duplicate points at the query); a
            # full scan is exact and this branch is rare.
            cand = np.arange(self.n, dtype=np.int64)
        d = _distances_to(self._X[cand], q)
        order = np.lexsort((cand, d))[:kk]
        return cand[order], d[order]


def build_index(X, strategy="auto"):
    """Build a NeighborIndex over the rows of X."""
    return NeighborIndex(X, strategy=strategy)
