"""Exact Euclidean nearest-neighbor search with deterministic tie handling.

Two interchangeable strategies produce identical output: a vectorized
brute-force scan and a kd-tree accelerated path.  "auto" uses the kd-tree
for every training set above AUTO_KDTREE_THRESHOLD rows; brute force is
kept as the reference oracle and for tiny n.  The tree (scipy's cKDTree)
is built on the first kd-tree query, and scipy is loaded only then, so a
command that never searches pays for neither.  Only the tree's compiled
extension is loaded, not the `scipy.spatial` package around it (see
`_ckdtree`).  With one predictor column a kd-tree reduces to the sorted
column, so there the index is the column's stable argsort and its sorted
values, and scipy is never loaded: a query's k nearest rows are a run of
the sorted column around its insertion point (`_search_sorted`).
Neighbors are ordered by (distance, row index), so exact distance ties
always resolve to the lower training row.  Both kd-tree paths re-evaluate
candidate distances with the same floating point kernel the brute path
uses, then widen the candidate set whenever a tie could straddle the cut,
which keeps the strategies bit-identical.  They sort candidates by
distance alone and sort again by (distance, row index) only the rows
whose sorted distances hold an equal pair: a row without one has a single
order (`_by_distance`).

That kernel, `_distances_to`, is predictor-major: it sums the p squared
coordinate differences as p whole-array adds, not as a short reduction
per row.  For p <= 7 the result equals `sqrt(((X - q) ** 2).sum(-1))`
bitwise, since numpy sums fewer than eight terms left to right; for
p >= 8 the summation order differs from that formula, but every search
path shares the kernel, so the strategies still agree bitwise.

`query_batch` runs the one block loop of both strategies: `_search_brute`
and `_search_kdtree` each answer one block, and the kd-tree's rare full
scan is `_search_brute` on one row.  `_row_blocks` is the package's
byte-budget block rule; every such loop passes it its own budget (the
kernel family's GEMM blocks are sized by rows instead).  Rows pass
`simplex._predictor_gate`, whose bound keeps squared distances finite.
"""

import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np

from .errors import ValidationError
from .simplex import _as_floats, _check_count, _predictor_gate

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

# scipy's kd-tree extension, loaded once per process under the lock;
# sys.modules is its only cache.
_CKDTREE_MODULE = "scipy.spatial._ckdtree"
_ckdtree_lock = threading.Lock()


def _ckdtree():
    # The extension file alone costs about half of `import scipy.spatial`.
    # It is registered under its real name before it runs, so a later
    # `import scipy.spatial` reuses it and the two share one cKDTree class.
    with _ckdtree_lock:
        module = sys.modules.get(_CKDTREE_MODULE)
        if module is not None:
            return module.cKDTree
        import scipy

        folder = os.path.join(os.path.dirname(scipy.__file__), "spatial")
        paths = [os.path.join(folder, "_ckdtree" + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        try:
            path = next(filter(os.path.isfile, paths))
            spec = importlib.util.spec_from_file_location(_CKDTREE_MODULE, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_CKDTREE_MODULE] = module
            spec.loader.exec_module(module)
            return module.cKDTree
        except Exception:
            # The file is private to scipy; if it is not where it was, or
            # does not load, drop any partial entry and take the public
            # import, which registers the extension itself.
            if module is not None and sys.modules.get(_CKDTREE_MODULE) is module:
                del sys.modules[_CKDTREE_MODULE]
            from scipy.spatial import cKDTree

            return cKDTree


def _distances_to(X, q, out=None):
    # Rows of X against broadcast queries q; the one distance kernel of
    # every code path, so that distances agree bitwise between strategies.
    total = np.subtract(X[..., 0], q[..., 0], out=out)
    total *= total
    for j in range(1, X.shape[-1]):
        t = X[..., j] - q[..., j]
        t *= t
        total += t
    return np.sqrt(total, out=total)


def _by_distance(ii, d):
    # Candidates ii with distances d, each row ordered by (distance, row
    # index).  Only rows holding equal distances need the row index as
    # second key; reordering their ties leaves the sorted distances as they are.
    order = np.argsort(d, axis=1, kind="stable")
    d_sorted = np.take_along_axis(d, order, axis=1)
    equal = np.flatnonzero((d_sorted[:, 1:] == d_sorted[:, :-1]).any(axis=1))
    order[equal] = np.lexsort((ii[equal], d[equal]))
    return np.take_along_axis(ii, order, axis=1), d_sorted


def _row_blocks(m, row_bytes, budget):
    # Equal slices of at most budget // row_bytes rows (at least one); not
    # full blocks plus a short tail, so two or more are each >= half the budget.
    blocks = -(-m // max(1, budget // max(1, row_bytes)))
    return [slice(i * m // blocks, (i + 1) * m // blocks) for i in range(blocks)]


def _check_k(k):
    """The package's one neighborhood-size rule: an integer >= 1."""
    return _check_count("k", k, 1)


def pairwise_distances(A, B):
    """Dense (m, n) Euclidean distance matrix, computed in chunks."""
    B = _predictor_gate(B, "training")
    A = _predictor_gate(A, "query", B.shape[1])
    out = np.empty((A.shape[0], B.shape[0]))
    for b in _row_blocks(A.shape[0], B.size * 8, _CHUNK_BYTES):
        out[b] = _distances_to(B[None, :, :], A[b, None, :])
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
        self._X = _predictor_gate(X, "training")
        if strategy == "auto":
            strategy = "kdtree" if self._X.shape[0] > AUTO_KDTREE_THRESHOLD else "brute"
        self.strategy = strategy
        self._tree = None

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
        q = _as_floats(q, "query point")
        if q.ndim != 1:
            raise ValidationError(f"query point must be 1-D, got ndim={q.ndim}")
        idx, dist = self.query_batch(q[None, :], k)
        return idx[0], dist[0]

    def query_batch(self, Q, k):
        """Nearest neighbors of each row of Q.

        Returns (indices, distances) arrays of shape (m, min(k, n)).
        """
        Q = _predictor_gate(Q, "query", self.p)
        kk = min(_check_k(k), self.n)
        if self.strategy == "brute":
            search, row_bytes, budget = self._search_brute, self._X.size * 8, _CHUNK_BYTES
        else:
            # A block keeps several (rows, k + 1, p) temporaries alive; small
            # blocks keep them out of the peak footprint at no cost in time.
            row_bytes = min(kk + 1, self.n) * self.p * 8
            search = self._search_sorted if self.p == 1 else self._search_kdtree
            budget = _CHUNK_BYTES // 64
        out_idx = np.empty((Q.shape[0], kk), dtype=np.int64)
        out_dist = np.empty((Q.shape[0], kk))
        for b in _row_blocks(Q.shape[0], row_bytes, budget):
            out_idx[b], out_dist[b] = search(Q[b], kk)
        return out_idx, out_dist

    def _kdtree(self):
        # Two threads making the first query at once each build an
        # identical tree, and either one is kept: harmless.  The class
        # itself is loaded once per process (`_ckdtree`).  At p = 1 the
        # tree is the stable argsort of the column and its sorted values.
        if self._tree is None:
            if self.p == 1:
                perm = np.argsort(self._X[:, 0], kind="stable")
                self._tree = perm, self._X[perm, 0]
            else:
                self._tree = _ckdtree()(self._X)
        return self._tree

    def _search_brute(self, Qb, kk):
        d = _distances_to(self._X[None, :, :], Qb[:, None, :])
        # Stable sort on distance keeps ties in ascending index order.
        order = np.argsort(d, axis=1, kind="stable")[:, :kk]
        return order, np.take_along_axis(d, order, axis=1)

    def _search_kdtree(self, Qb, kk):
        k_probe = min(kk + 1, self.n)
        ii = self._kdtree().query(Qb, k=k_probe)[1].reshape(len(Qb), k_probe)
        # Re-derive candidate distances with the shared kernel; the
        # tree's own values may differ in the last ulp.
        ii, d = _by_distance(ii, _distances_to(self._X[ii], Qb[:, None, :]))
        idx, dist = ii[:, :kk], d[:, :kk]
        # Rows whose probe neighbor may tie the k-th are re-resolved.
        tied = d[:, kk] <= d[:, kk - 1] * (1.0 + _TIE_RTOL) if k_probe > kk else []
        for r in np.flatnonzero(tied):
            idx[r], dist[r] = self._resolve_row(Qb[r], kk, d[r, kk - 1])
        return idx, dist

    def _search_sorted(self, Qb, kk):
        # p = 1: a window of w sorted rows around each query's insertion
        # point.  Distances grow away from the query on either side, fl
        # included, so a window whose end rows (where it stops short of the
        # column's ends) lie strictly beyond the k-th distance holds the
        # exact answer; any other row doubles its window and goes again.
        perm, xs = self._kdtree()
        n, pos = self.n, np.searchsorted(xs, Qb[:, 0])
        idx, dist = np.empty((len(Qb), kk), dtype=np.int64), np.empty((len(Qb), kk))
        rows, w = np.arange(len(Qb)), min(2 * kk, n)
        while rows.size:
            wider = []
            for b in _row_blocks(rows.size, w * 8, _CHUNK_BYTES // 64):
                r = rows[b]
                lo = np.clip(pos[r] - w // 2, 0, n - w)
                ii = perm[lo[:, None] + np.arange(w)]
                d = _distances_to(self._X[ii], Qb[r, None, :])
                edge = np.minimum(np.where(lo > 0, d[:, 0], np.inf),
                                  np.where(lo < n - w, d[:, -1], np.inf))
                ii, d_sorted = _by_distance(ii, d)
                idx[r], dist[r] = ii[:, :kk], d_sorted[:, :kk]
                wider.append(r[edge <= d_sorted[:, kk - 1]])
            rows, w = np.concatenate(wider), min(2 * w, n)
        return idx, dist

    def _resolve_row(self, q, kk, d_edge):
        # Tie suspected at the cut: collect every point within the widened
        # radius and redo the selection exactly.
        radius = d_edge * (1.0 + _TIE_RTOL)
        cand = np.asarray(self._kdtree().query_ball_point(q, radius), dtype=np.int64)
        if cand.size < kk:
            # Radius-zero corner case (duplicate points at the query); a
            # full scan is exact and this branch is rare.
            return tuple(a[0] for a in self._search_brute(q[None, :], kk))
        d = _distances_to(self._X[cand], q)
        order = np.lexsort((cand, d))[:kk]
        return cand[order], d[order]


def build_index(X, strategy="auto"):
    """Build a NeighborIndex over the rows of X."""
    return NeighborIndex(X, strategy=strategy)
