"""Exact Euclidean nearest-neighbor search with deterministic tie handling.

Two interchangeable strategies give identical output: a cache-blocked
scan ("brute", `_search_brute`), which orders each row's cut set (every
distance at or below its k-th) with one stable lexsort, and a kd-tree.
"auto" names the kd-tree above AUTO_KDTREE_THRESHOLD rows, but at p >= 2
it scans until the process has scanned `_SCAN_BUDGET` distances, about
the cost of loading the tree's extension, and only then loads it.  The
tree (scipy's cKDTree) is built on the first kd-tree search; only its
compiled extension is loaded, not `scipy.spatial` (see `_ckdtree`).  With
one predictor column the kd-tree is the sorted column (stable argsort and
sorted values) and scipy is never loaded: a query's k nearest rows are a
run of it around the insertion point (`_search_sorted`).  Neighbors are
ordered by (distance, row index), so exact ties resolve to the lower
training row.  Both kd-tree paths re-evaluate candidate distances with
the scan's kernel and widen the candidates whenever a tie could straddle
the cut, which keeps the strategies bit-identical; they sort again by
(distance, row index) only rows holding an equal pair (`_by_distance`).

That kernel, `_distances_to`, is predictor-major: it sums the p squared
coordinate differences as p whole-array adds, not as a short reduction
per row.  For p <= 7 the result equals `sqrt(((X - q) ** 2).sum(-1))`
bitwise, since numpy sums fewer than eight terms left to right; for
p >= 8 the summation order differs from that formula, but every search
path shares the kernel, so the strategies still agree bitwise.

`query_batch` runs the one block loop of every strategy; the kd-tree's
rare full scan is `_search_brute` on one row.  `_row_blocks` is the
package's byte-budget block rule; every such loop passes it its own
budget (the kernel family's GEMM blocks are sized by rows instead).  Rows
pass `simplex._predictor_gate`, whose bound keeps squared distances finite.
"""

import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np

from .errors import ValidationError
from .simplex import _as_floats, _check_count, _predictor_gate

# Above this row count "auto" names the kd-tree, below it the scan.  A loaded
# tree is 1.0-1.8x faster than the scan at n = 32-128 (p = 2, 3, k = 5-50, 2,000
# queries: under 3 ms of its ~0.25 s load), 2-12x at n = 3,000.
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

# Distances an auto index at p >= 2 scans per process (counted under the
# lock) before it loads the tree: its 0.14-0.25 s load at 75-100 M/s scanned.
_SCAN_BUDGET = 2**24
_scanned = 0


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


def _distances_to(X, q, out=None, tmp=None):
    # Rows of X against broadcast queries q; the one distance kernel of
    # every code path, so that distances agree bitwise between strategies.
    total = np.subtract(X[..., 0], q[..., 0], out=out)
    total *= total
    for j in range(1, X.shape[-1]):
        t = np.subtract(X[..., j], q[..., j], out=tmp)
        t *= t
        total += t
    return np.sqrt(total, out=total)


def _by_distance(ii, d):
    # Candidates ii with distances d, each row ordered by (distance, row
    # index).  Only rows holding equal distances need the row index as
    # second key; reordering their ties leaves the sorted distances as they are.
    # Gathers go through flat offsets: far faster than take_along_axis.
    order = np.argsort(d, axis=1, kind="stable")
    offsets = np.arange(0, d.size, d.shape[1])[:, None]
    order += offsets
    d_sorted = np.take(d, order)
    equal = np.flatnonzero((d_sorted[:, 1:] == d_sorted[:, :-1]).any(axis=1))
    order[equal] = np.lexsort((ii[equal], d[equal])) + offsets[equal]
    return np.take(ii, order), d_sorted


def _equal_slices(total, count):
    # The package's one equal-slice rule: count slices whose lengths differ by at most one.
    return [slice(i * total // count, (i + 1) * total // count) for i in range(count)]


def _row_blocks(m, row_bytes, budget):
    # Equal slices of at most budget // row_bytes rows (at least one); not
    # full blocks plus a short tail, so two or more are each >= half the budget.
    return _equal_slices(m, -(-m // max(1, budget // max(1, row_bytes))))


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
        "auto" picks the kd-tree once n exceeds AUTO_KDTREE_THRESHOLD; at
        p >= 2 it scans while the process is within `_SCAN_BUDGET`.
    """

    def __init__(self, X, strategy="auto"):
        if strategy not in _STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        self._X = _predictor_gate(X, "training")
        self._scan_first = strategy == "auto" and self.p > 1
        if strategy == "auto":
            strategy = "kdtree" if self.n > AUTO_KDTREE_THRESHOLD else "brute"
        self.strategy = strategy
        self._tree = self._columns = None

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
        if self.strategy == "brute" or self._scan_first and self._scans(Q.shape[0]):
            # Cache-sized blocks of distances in scratch made once per call:
            # fresh arrays would fault their pages in again in every block.
            blocks = _row_blocks(Q.shape[0], self.n * 8, _CHUNK_BYTES // 256)
            scratch = np.empty((2, -(-Q.shape[0] // len(blocks)), self.n))
            search = lambda Qb, kk: self._search_brute(Qb, kk, scratch)  # noqa: E731
        elif self.p == 1:
            # A block keeps about six arrays of a window's min(2k, n) words
            # alive per row (window indices, gathered values, distances,
            # order, sorted distances, taken indices); small blocks keep
            # them out of the peak footprint at no cost in time.  The
            # widening rounds share this rule, so a first round is one block.
            search = self._search_sorted
            blocks = _row_blocks(Q.shape[0], min(2 * kk, self.n) * 8, _CHUNK_BYTES // 64 // 6)
        else:
            # The tree keeps (k + 1) candidates of p gathered coordinates and
            # about five more words (tree indices, distances, order, sorted
            # distances, taken indices) alive per row.
            search = self._search_kdtree
            row_bytes = min(kk + 1, self.n) * (self.p + 5) * 8
            blocks = _row_blocks(Q.shape[0], row_bytes, _CHUNK_BYTES // 64)
        out_idx = np.empty((Q.shape[0], kk), dtype=np.int64)
        out_dist = np.empty((Q.shape[0], kk))
        for b in blocks:
            out_idx[b], out_dist[b] = search(Q[b], kk)
        return out_idx, out_dist

    def _scans(self, m):
        # True, counting the scan, until the extension is loaded or the
        # process's scans would pass _SCAN_BUDGET distances.
        global _scanned
        with _ckdtree_lock:
            if _CKDTREE_MODULE in sys.modules or _scanned + m * self.n > _SCAN_BUDGET:
                return False
            _scanned += m * self.n
            return True

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

    def _search_brute(self, Qb, kk, scratch=None):
        # The cut set (distances at or below the row's kk-th) in one stable
        # lexsort by (row, distance): each row's first kk are the stable
        # argsort's.  Contiguous columns give the same distances, faster.
        if self._columns is None:
            self._columns = np.asfortranarray(self._X)
        d, part = np.empty((2, len(Qb), self.n)) if scratch is None else scratch[:, :len(Qb)]
        d = _distances_to(self._columns[None, :, :], Qb[:, None, :], out=d, tmp=part)
        part[...] = d
        part.partition(kk - 1, axis=1)
        cut = d <= part[:, kk - 1:kk]
        flat = np.flatnonzero(cut)  # far faster than a 2-D nonzero
        (rows, cols), d = np.divmod(flat, self.n), d.ravel()[flat]
        order = np.lexsort((d, rows))
        take = order[np.searchsorted(rows, np.arange(len(Qb)))[:, None] + np.arange(kk)]
        return cols[take], d[take]

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
            for b in _row_blocks(rows.size, w * 8, _CHUNK_BYTES // 64 // 6):  # see query_batch
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
