"""Exact nearest-neighbor search.

The brute-force scan is the reference; the kd-tree backend must return
bit-identical indices and distances on every problem, including exact
ties, which both backends break toward the lower training index.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from simplexreg import NeighborIndex, ValidationError, build_index, neighbors
from simplexreg.neighbors import AUTO_KDTREE_THRESHOLD, pairwise_distances


# Runs in a fresh interpreter: four threads, more than most CI cores, make
# the process's first kd-tree queries at once, each on its own index, with
# a short switch interval; each must match the brute oracle.
_RACE_PROBE = """
import sys, threading
import numpy as np
from simplexreg import build_index

rng = np.random.default_rng(7)
X = np.round(rng.normal(size=(3000, 3)), 1)
Q = np.round(rng.normal(size=(400, 3)), 1)
expected = build_index(X, strategy="brute").query_batch(Q, 7)
if "scipy" in sys.modules:
    sys.exit("scipy loaded before the first kd-tree query")
indexes = [build_index(X, strategy="kdtree") for _ in range(4)]
barrier = threading.Barrier(len(indexes))
results = [None] * len(indexes)

def first_query(slot):
    barrier.wait()
    results[slot] = indexes[slot].query_batch(Q, 7)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_query, args=(i,)) for i in range(len(indexes))]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
    if t.is_alive():
        sys.exit("a query thread did not finish")
for got in results:
    ok = np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
    print("ok" if ok else "differs")
"""


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestPairwiseDistances:
    def test_known_values(self):
        A = np.array([[0.0, 0.0], [3.0, 4.0]])
        B = np.array([[0.0, 0.0]])
        d = pairwise_distances(A, B)
        assert np.array_equal(d, [[0.0], [5.0]])

    def test_matches_direct_formula(self, rng):
        A = rng.normal(size=(40, 3))
        B = rng.normal(size=(25, 3))
        d = pairwise_distances(A, B)
        direct = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1))
        assert np.allclose(d, direct, atol=1e-12)

    def test_width_mismatch(self, rng):
        with pytest.raises(ValidationError):
            pairwise_distances(rng.normal(size=(4, 2)), rng.normal(size=(4, 3)))


class TestRowBlocks:
    @pytest.mark.parametrize("m, row_bytes, budget", [
        (25, 8, 32), (1, 8, 8), (7, 100, 1), (1000, 8000, 2**20), (10, 8, 2**30),
    ])
    def test_equal_blocks_within_budget(self, m, row_bytes, budget):
        blocks = neighbors._row_blocks(m, row_bytes, budget)
        sizes = [b.stop - b.start for b in blocks]
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == m
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= max(1, budget // row_bytes)
        assert len(blocks) == -(-m // max(1, budget // row_bytes))

    def test_pairwise_blocks_equal_one_block(self, monkeypatch, rng):
        A = rng.normal(size=(37, 3))
        B = rng.normal(size=(50, 3))
        whole = pairwise_distances(A, B)
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 50 * 3 * 8 * 4)
        assert len(neighbors._row_blocks(37, 50 * 3 * 8, neighbors._CHUNK_BYTES)) == 10
        assert np.array_equal(pairwise_distances(A, B), whole)

    def test_brute_blocks_equal_one_block(self, monkeypatch, rng):
        X = np.round(rng.normal(size=(60, 2)), 1)
        Q = np.round(rng.normal(size=(23, 2)), 1)
        whole = build_index(X, strategy="brute").query_batch(Q, 6)
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 60 * 2 * 8 * 3)
        blocked = build_index(X, strategy="brute").query_batch(Q, 6)
        assert np.array_equal(whole[0], blocked[0])
        assert np.array_equal(whole[1], blocked[1])


class TestQueryBasics:
    def test_single_point(self):
        idx = build_index(np.array([[1.0, 2.0]]))
        i, d = idx.query(np.array([1.0, 2.0]), 5)
        assert np.array_equal(i, [0])
        assert np.array_equal(d, [0.0])

    def test_collinear_ordering(self):
        X = np.array([0.0, 1.0, 2.0, 3.0])
        idx = build_index(X)
        i, d = idx.query([1.1], 2)
        assert list(i) == [1, 2]
        assert d[0] <= d[1]

    def test_self_query_zero_distance(self, rng):
        X = rng.normal(size=(30, 2))
        idx = build_index(X)
        i, d = idx.query(X[7], 1)
        assert i[0] == 7
        assert d[0] == 0.0

    def test_k_clamped_to_n(self, rng):
        X = rng.normal(size=(4, 2))
        idx = build_index(X)
        i, d = idx.query(X[0], 10)
        assert i.shape == (4,)
        assert sorted(i) == [0, 1, 2, 3]

    def test_batch_shape_and_row_agreement(self, rng):
        X = rng.normal(size=(50, 3))
        Q = rng.normal(size=(8, 3))
        idx = build_index(X)
        I, D = idx.query_batch(Q, 5)
        assert I.shape == (8, 5) and D.shape == (8, 5)
        for r in range(8):
            i, d = idx.query(Q[r], 5)
            assert np.array_equal(i, I[r])
            assert np.array_equal(d, D[r])

    def test_distances_nondecreasing(self, rng):
        X = rng.normal(size=(100, 4))
        idx = build_index(X)
        _, D = idx.query_batch(rng.normal(size=(20, 4)), 10)
        assert np.all(np.diff(D, axis=1) >= 0)

    def test_repeat_queries_identical(self, rng):
        X = rng.normal(size=(60, 2))
        Q = rng.normal(size=(10, 2))
        idx = build_index(X)
        I1, D1 = idx.query_batch(Q, 7)
        I2, D2 = idx.query_batch(Q, 7)
        assert np.array_equal(I1, I2) and np.array_equal(D1, D2)


class TestTieBreaking:
    def test_symmetric_pair(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0]])
        for strategy in ("brute", "kdtree"):
            idx = build_index(X, strategy=strategy)
            i, _ = idx.query([0.0, 0.0], 1)
            assert i[0] == 0

    def test_duplicate_rows(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        for strategy in ("brute", "kdtree"):
            idx = build_index(X, strategy=strategy)
            i, d = idx.query([1.0], 2)
            assert list(i) == [0, 1]
            assert np.array_equal(d, [0.0, 0.0])

    def test_lattice_ties_match(self):
        # queries at cell centers of an integer grid are equidistant from
        # four training points each
        g = np.arange(8.0)
        X = np.array([(a, b) for a in g for b in g])
        Q = X[:32] + 0.5
        brute = build_index(X, strategy="brute")
        tree = build_index(X, strategy="kdtree")
        Ib, Db = brute.query_batch(Q, 4)
        It, Dt = tree.query_batch(Q, 4)
        assert np.array_equal(Ib, It)
        assert np.array_equal(Db, Dt)
        # within each run of equal distances the indices must ascend
        tied = Db[:, :-1] == Db[:, 1:]
        assert np.all(Ib[:, :-1][tied] < Ib[:, 1:][tied])
        assert np.any(tied)


class TestBackendAgreement:
    def test_random_problems(self, rng):
        for trial in range(30):
            n = int(rng.integers(2, 400))
            p = int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            Q = rng.normal(size=(10, p))
            brute = build_index(X, strategy="brute")
            tree = build_index(X, strategy="kdtree")
            for k in (1, min(5, n), n):
                Ib, Db = brute.query_batch(Q, k)
                It, Dt = tree.query_batch(Q, k)
                assert np.array_equal(Ib, It), f"trial {trial} k={k}"
                assert np.array_equal(Db, Dt), f"trial {trial} k={k}"

    def test_quantized_coordinates(self, rng):
        # coarse rounding produces many duplicate rows and genuine ties
        X = np.round(rng.normal(size=(500, 2)) * 2) / 2
        Q = np.round(rng.normal(size=(40, 2)) * 2) / 2
        brute = build_index(X, strategy="brute")
        tree = build_index(X, strategy="kdtree")
        Ib, Db = brute.query_batch(Q, 9)
        It, Dt = tree.query_batch(Q, 9)
        assert np.array_equal(Ib, It)
        assert np.array_equal(Db, Dt)


class TestConstruction:
    def test_auto_strategy_small_uses_brute(self, rng):
        idx = build_index(rng.normal(size=(10, 2)))
        assert idx.strategy == "brute"

    def test_auto_strategy_large_uses_kdtree(self, rng):
        n = AUTO_KDTREE_THRESHOLD + 1
        idx = build_index(rng.normal(size=(n, 1)))
        assert idx.strategy == "kdtree"

    def test_properties(self, rng):
        X = rng.normal(size=(12, 3))
        idx = NeighborIndex(X)
        assert idx.n == 12 and idx.p == 3
        assert idx.predictors is X

    def test_invalid_strategy(self, rng):
        with pytest.raises(ValidationError):
            build_index(rng.normal(size=(5, 2)), strategy="ball")

    def test_query_width_mismatch(self, rng):
        idx = build_index(rng.normal(size=(5, 2)))
        with pytest.raises(ValidationError):
            idx.query([1.0, 2.0, 3.0], 1)

    def test_bad_k(self, rng):
        idx = build_index(rng.normal(size=(5, 2)))
        for bad in (0, -1):
            with pytest.raises(ValidationError):
                idx.query([0.0, 0.0], bad)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_index(np.empty((0, 2)))

    @pytest.mark.parametrize("strategy", ["brute", "kdtree", "auto"])
    def test_overflowing_training_rows_rejected(self, strategy):
        # squared distances between these rows overflow to inf; the
        # kd-tree would report a missing neighbor as index n
        X = [[1e300 * (i + 1)] for i in range(200)]
        with pytest.raises(ValidationError, match="training row 0"):
            build_index(X, strategy).query_batch([[0.0]], 1)

    @pytest.mark.parametrize("strategy", ["brute", "kdtree", "auto"])
    def test_overflowing_query_rows_rejected(self, rng, strategy):
        idx = build_index(rng.normal(size=(200, 2)), strategy)
        with pytest.raises(ValidationError, match="query row 1"):
            idx.query_batch([[0.0, 0.0], [0.0, -1e300]], 1)

    @pytest.mark.parametrize("strategy", ["brute", "kdtree"])
    def test_magnitude_bound(self, strategy):
        # opposite corners at the bound are still a finite distance apart
        p = 2
        limit = np.sqrt(np.finfo(float).max / (8 * p))
        X = np.array([[limit, limit], [-limit, -limit]])
        idx, dist = build_index(X, strategy).query_batch(X, 2)
        assert np.all(np.isfinite(dist))
        assert idx.tolist() == [[0, 1], [1, 0]]
        with pytest.raises(ValidationError, match="training row 1"):
            build_index(np.array([[0.0, 0.0], [0.0, 1.01 * limit]]), strategy)


def _assert_matches_brute(X, Q, k, strategy="kdtree"):
    Ib, Db = build_index(X, strategy="brute").query_batch(Q, k)
    I, D = build_index(X, strategy=strategy).query_batch(Q, k)
    assert np.array_equal(Ib, I)
    assert np.array_equal(Db, D)


class TestKdtreeEdgeCases:
    """The vectorised kd-tree pass against the brute oracle, bit for bit."""

    def test_single_training_row(self, rng):
        X = rng.normal(size=(1, 3))
        Q = np.vstack([X, rng.normal(size=(5, 3))])
        for k in (1, 4):
            _assert_matches_brute(X, Q, k)

    def test_k_equals_n_has_no_tie_probe(self, rng):
        # k_probe == kk: every candidate is returned, only re-sorted.
        X = np.round(rng.normal(size=(40, 2)), 1)
        Q = np.round(rng.normal(size=(15, 2)), 1)
        _assert_matches_brute(X, Q, 40)

    def test_k_equals_n_minus_one(self, rng):
        X = np.round(rng.normal(size=(40, 2)), 1)
        Q = np.round(rng.normal(size=(15, 2)), 1)
        _assert_matches_brute(X, Q, 39)

    def test_queries_on_training_rows(self, rng):
        # d_edge = 0 for duplicated rows, so ties resolve at radius 0.
        X = np.round(rng.normal(size=(60, 2)), 1)
        X = np.vstack([X, X[:20]])
        for k in (1, 2, 3, 7):
            _assert_matches_brute(X, X, k)

    def test_full_scan_fallback(self, rng):
        # A radius that captures fewer than kk points forces the full scan.
        X = np.round(rng.normal(size=(50, 2)), 1)
        q = np.array([10.0, 10.0])
        idx = build_index(X, strategy="kdtree")
        i, d = idx._resolve_row(q, 5, 0.0)
        ib, db = build_index(X, strategy="brute").query(q, 5)
        assert np.array_equal(i, ib)
        assert np.array_equal(d, db)

    def test_tree_built_on_first_kdtree_query(self, rng):
        X = rng.normal(size=(300, 2))
        idx = build_index(X, strategy="kdtree")
        assert idx._tree is None
        idx.query_batch(X[:3], 2)
        tree = idx._tree
        assert tree is not None
        idx.query_batch(X[:3], 2)
        assert idx._tree is tree

    def test_first_query_from_two_threads(self, rng):
        # Both threads may build the tree; either build answers alike.
        X = np.round(rng.normal(size=(3000, 3)), 1)
        Q = np.round(rng.normal(size=(400, 3)), 1)
        expected = build_index(X, strategy="kdtree").query_batch(Q, 7)
        for _ in range(5):
            idx = build_index(X, strategy="kdtree")
            barrier = threading.Barrier(2)
            results = [None, None]

            def first_query(slot):
                barrier.wait()
                results[slot] = idx.query_batch(Q, 7)

            threads = [threading.Thread(target=first_query, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for got in results:
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])

    def test_loader_raced_by_the_first_query_of_a_process(self):
        # A fresh interpreter, so the two threads race the kd-tree loader
        # itself, not only the tree build.
        src = os.path.dirname(os.path.dirname(os.path.abspath(neighbors.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", _RACE_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok"] * 4

    @pytest.mark.parametrize("fault", ["missing file", "failing module"])
    def test_public_import_when_the_extension_does_not_load(self, monkeypatch, rng, fault):
        import importlib.machinery
        import importlib.util

        import scipy.spatial

        class PublicTree(scipy.spatial.cKDTree):
            pass

        class FailingLoader:
            def create_module(self, spec):
                return None

            def exec_module(self, module):
                assert sys.modules[neighbors._CKDTREE_MODULE] is module
                raise ImportError("extension failed to load")

        monkeypatch.setattr(scipy.spatial, "cKDTree", PublicTree)
        monkeypatch.delitem(sys.modules, neighbors._CKDTREE_MODULE)
        if fault == "missing file":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        else:
            monkeypatch.setattr(importlib.util, "spec_from_file_location", lambda name, path:
                                importlib.machinery.ModuleSpec(name, FailingLoader()))
        X = np.round(rng.normal(size=(500, 2)), 1)
        Q = np.round(rng.normal(size=(60, 2)), 1)
        idx = build_index(X, strategy="kdtree")
        got = idx.query_batch(Q, 6)
        assert type(idx._tree) is PublicTree
        assert neighbors._CKDTREE_MODULE not in sys.modules  # no partial entry left
        expected = build_index(X, strategy="brute").query_batch(Q, 6)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_duplicated_query_rows(self, rng):
        X = np.round(rng.normal(size=(300, 3)), 1)
        Q = np.repeat(np.round(rng.normal(size=(10, 3)), 1), 3, axis=0)
        _assert_matches_brute(X, Q, 6)
        I, _ = build_index(X, strategy="kdtree").query_batch(Q, 6)
        assert np.array_equal(I[0::3], I[1::3])
        assert np.array_equal(I[0::3], I[2::3])

    def test_rounded_predictors_tie_inside_k(self, rng):
        # Predictors rounded to 0.1 repeat rows and distances, so equal
        # distances fall inside the first k, not only at the cut, and the
        # tree's own order among them is not always the row order.
        X = np.round(rng.normal(size=(300, 2)), 1)
        Q = np.round(rng.normal(size=(40, 2)), 1)
        _assert_matches_brute(X, Q, 7)
        _, D = build_index(X, strategy="kdtree").query_batch(Q, 7)
        assert (D[:, :5] == D[:, 1:6]).any()

    def test_query_blocks(self, monkeypatch, rng):
        # Blocks of a few rows give the same answer as one block.
        X = np.round(rng.normal(size=(200, 2)), 1)
        Q = np.round(rng.normal(size=(25, 2)), 1)
        whole = build_index(X, strategy="kdtree").query_batch(Q, 5)
        # Budget for 4 query rows of (k + 1) candidates in p = 2 columns.
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 64 * 4 * 6 * 2 * 8)
        blocked = build_index(X, strategy="kdtree").query_batch(Q, 5)
        assert np.array_equal(whole[0], blocked[0])
        assert np.array_equal(whole[1], blocked[1])
        _assert_matches_brute(X, Q, 5)

    @pytest.mark.parametrize("n, expected", [
        (AUTO_KDTREE_THRESHOLD, "brute"),
        (AUTO_KDTREE_THRESHOLD + 1, "kdtree"),
    ])
    def test_auto_at_threshold(self, rng, n, expected):
        X = np.round(rng.normal(size=(n, 3)), 1)
        Q = np.round(rng.normal(size=(30, 3)), 1)
        assert build_index(X).strategy == expected
        for k in (1, 5, 25):
            _assert_matches_brute(X, Q, k, strategy="auto")
            _assert_matches_brute(X, Q, k, strategy="kdtree")


class TestOnePredictor:
    """At p = 1 the kd-tree strategy searches the sorted column: a window of
    2 * k sorted rows around each query, doubled while its end rows are not
    strictly beyond the k-th distance.  Bit for bit the brute oracle."""

    @pytest.fixture
    def widths(self, monkeypatch):
        # (window width, block sizes) of each row-block call of a kd-tree
        # search: the sorted search passes 8 bytes per window row.
        seen = []
        blocks = neighbors._row_blocks

        def recording(m, row_bytes, budget):
            out = blocks(m, row_bytes, budget)
            seen.append((row_bytes // 8, [b.stop - b.start for b in out]))
            return out

        monkeypatch.setattr(neighbors, "_row_blocks", recording)
        return seen

    def test_index_is_the_sorted_column(self, rng):
        X = np.round(rng.normal(size=(300, 1)), 1)
        idx = build_index(X, strategy="kdtree")
        idx.query_batch(X[:3], 2)
        perm, xs = idx._tree
        assert np.array_equal(perm, np.argsort(X[:, 0], kind="stable"))
        assert np.array_equal(xs, np.sort(X[:, 0]))

    def test_continuous(self, rng):
        X = rng.normal(size=(2000, 1))
        Q = rng.normal(size=(300, 1))
        for k in (1, 7, 50):
            _assert_matches_brute(X, Q, k)
            _assert_matches_brute(X, Q, k, strategy="auto")

    def test_cut_ties_spill_past_the_window_on_both_sides(self, widths):
        # Values 0 and 1, 40 rows each; a query at 0.5 is 0.5 from all 80.
        # The 0s hold the lowest rows, and the stable sort puts them on the
        # far left, so the answer lies beyond the first window's left end
        # while the tie also runs past its right end.
        X = np.r_[np.zeros(40), np.ones(40)][:, None]
        Q = np.array([[0.5], [0.4], [0.6], [1.5]])
        for k in (1, 5, 39, 40, 41):
            _assert_matches_brute(X, Q, k)
        widths.clear()
        I, _ = build_index(X, strategy="kdtree").query_batch(Q[:1], 5)
        assert I.tolist() == [[0, 1, 2, 3, 4]]
        assert [w for w, _ in widths[1:]] == [10, 20, 40, 80]

    def test_integer_rounded_columns(self, rng):
        X = np.round(rng.normal(size=(600, 1)) * 3)
        Q = np.round(rng.normal(size=(200, 1)) * 6) / 2  # integers and half-integers
        for k in (1, 2, 9, 30, 200):
            _assert_matches_brute(X, Q, k)

    def test_queries_beyond_both_ends(self, rng):
        X = np.round(rng.normal(size=(500, 1)), 1)
        Q = np.array([[-1e6], [-50.0], [X.min() - 0.05], [X.max() + 0.05], [50.0], [1e6]])
        for k in (1, 8, 499, 500):
            _assert_matches_brute(X, Q, k)

    @pytest.mark.parametrize("n", [AUTO_KDTREE_THRESHOLD + 1, 300])
    def test_k_one_and_k_n(self, rng, n):
        X = np.round(rng.normal(size=(n, 1)), 1)
        Q = np.vstack([X[:20], np.round(rng.normal(size=(20, 1)), 2)])
        assert build_index(X).strategy == "kdtree"
        for k in (1, n - 1, n, n + 5):
            _assert_matches_brute(X, Q, k, strategy="auto")

    def test_signed_zeros(self):
        X = np.array([0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 2.0] * 30)[:, None]
        Q = np.array([[0.0], [-0.0], [0.5], [-0.5], [5e-324], [-5e-324]])
        for k in (1, 3, 60, 120, 210):
            _assert_matches_brute(X, Q, k)
        _, D = build_index(X, strategy="kdtree").query_batch(Q, 3)
        _, Db = build_index(X, strategy="brute").query_batch(Q, 3)
        assert np.array_equal(np.signbit(D), np.signbit(Db))

    def test_widening_reaches_n_in_row_blocks(self, monkeypatch, widths):
        # One distinct value in 300 rows: every window doubles until it is
        # the whole column; a budget of one 300-row window sends each
        # widened row through its own block.
        X = np.r_[np.full(297, 2.0), [0.0, 1.0, 3.0]][:, None]
        Q = np.array([[2.0], [2.4], [1.6], [2.0], [-1.0], [9.0]])
        expected = build_index(X, strategy="brute").query_batch(Q, 4)
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 64 * 300 * 8)
        widths.clear()
        got = build_index(X, strategy="kdtree").query_batch(Q, 4)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        # After the query block itself: 8, 16, ..., 256, then all 300 rows,
        # every row of the last round in a block of its own.
        assert [w for w, _ in widths[1:]] == [8, 16, 32, 64, 128, 256, 300]
        assert widths[-1] == (300, [1] * len(Q))


def test_one_predictor_search_beats_brute():
    # Ratio gate, never absolute seconds (measured ~0.004 on 2 vCPUs).
    rng = np.random.default_rng(7)
    X = rng.normal(size=(3000, 1))
    Q = rng.normal(size=(2000, 1))

    def best_of_3(index):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            index.query_batch(Q, 10)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_of_3(build_index(X)) <= 0.25 * best_of_3(build_index(X, strategy="brute"))


class TestTieRowCounter:
    """_resolve_row runs once per row whose (k+1)-th distance ties the k-th."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        resolve = NeighborIndex._resolve_row

        def counting(self, q, kk, d_edge):
            seen.append(kk)
            return resolve(self, q, kk, d_edge)

        monkeypatch.setattr(NeighborIndex, "_resolve_row", counting)
        return seen

    def test_continuous_predictors_make_no_calls(self, rng, calls):
        X = rng.normal(size=(500, 3))
        build_index(X, strategy="kdtree").query_batch(rng.normal(size=(100, 3)), 5)
        assert calls == []

    def test_lattice_calls_equal_tied_rows(self, calls):
        g = np.arange(8.0)
        X = np.array([(a, b) for a in g for b in g])
        Q = X[:32] + 0.5
        k = 4
        _, D = build_index(X, strategy="brute").query_batch(Q, k + 1)
        tied_rows = int(np.count_nonzero(D[:, k] == D[:, k - 1]))
        build_index(X, strategy="kdtree").query_batch(Q, k)
        assert 0 < tied_rows < len(Q)
        assert len(calls) == tied_rows


def test_auto_search_beats_brute_on_rounded_data():
    # Ratio gate, never absolute seconds, in a fresh interpreter: auto's
    # first query, a scan, against an explicit kd-tree's first query, which
    # loads the extension, at a size the benchmark's tie-heavy workload uses
    # (measured ~0.3 on 2 vCPUs).
    src = os.path.dirname(os.path.dirname(os.path.abspath(neighbors.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FIRST_QUERY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    auto_s, kdtree_s = map(float, proc.stdout.split())
    assert auto_s <= 0.5 * kdtree_s


# Runs in a fresh interpreter: times the first query of an auto index and
# then of an explicit kd-tree index on the same rounded data; the two
# answers must be equal bitwise.
_FIRST_QUERY_PROBE = """
import sys, time
import numpy as np
from simplexreg import build_index

rng = np.random.default_rng(7)
X = np.round(rng.normal(size=(3000, 3)), 1)
Q = np.round(rng.normal(size=(2000, 3)), 1)
times, answers = [], []
for strategy in ("auto", "kdtree"):
    index = build_index(X, strategy=strategy)
    t0 = time.perf_counter()
    answers.append(index.query_batch(Q, 10))
    times.append(time.perf_counter() - t0)
if "scipy" not in sys.modules:
    sys.exit("the kd-tree query did not load scipy")
for a, b in zip(*answers):
    if not np.array_equal(a, b):
        sys.exit("auto and kd-tree answers differ")
print(*times)
"""


def _stable_argsort_oracle(X, Q, k):
    # The full stable argsort of every query's distances: the search the
    # cut-set scan replaced, kept here as its reference.
    X, Q = np.asarray(X, dtype=float), np.asarray(Q, dtype=float)
    d = neighbors._distances_to(X[None, :, :], Q[:, None, :])
    order = np.argsort(d, axis=1, kind="stable")[:, :min(k, len(X))]
    return order, np.take_along_axis(d, order, axis=1)


def _assert_brute_is_the_oracle(X, Q, k):
    got = build_index(X, strategy="brute").query_batch(Q, k)
    expected = _stable_argsort_oracle(X, Q, k)
    assert got[0].dtype == np.int64
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


class TestBruteAgainstTheOracle:
    """The cut-set scan (partition, the cut set with every tie at the k-th
    distance, one stable lexsort) is the stable argsort, bit for bit."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 10, 45])
    def test_rounded_data_with_heavy_cut_ties(self, rng, p, k):
        # A coarse lattice: most rows share their k-th distance with others.
        X = np.round(rng.normal(size=(400, p)) * 2) / 2
        Q = np.round(rng.normal(size=(120, p)) * 2) / 2
        _assert_brute_is_the_oracle(X, Q, k)
        d = _stable_argsort_oracle(X, Q, k + 1)[1]
        assert np.count_nonzero(d[:, k] == d[:, k - 1]) > len(Q) // 2

    @pytest.mark.parametrize("k", [1, 3, 20, 25])
    def test_all_training_rows_duplicate(self, rng, k):
        # Every row ties with every other: each answer is rows 0..k-1.
        X = np.tile([0.3, -1.2, 2.0], (20, 1))
        Q = rng.normal(size=(9, 3))
        _assert_brute_is_the_oracle(X, Q, k)
        idx, _ = build_index(X, strategy="brute").query_batch(Q, k)
        assert np.array_equal(idx, np.tile(np.arange(min(k, 20)), (9, 1)))

    @pytest.mark.parametrize("k", [1, 57, 58, 90])
    def test_k_one_n_and_beyond(self, rng, k):
        X = np.round(rng.normal(size=(57, 2)), 1)
        Q = np.round(rng.normal(size=(31, 2)), 1)
        _assert_brute_is_the_oracle(X, Q, k)

    def test_one_row_queries(self, rng):
        X = np.round(rng.normal(size=(300, 3)), 1)
        for q in np.round(rng.normal(size=(6, 3)), 1):
            _assert_brute_is_the_oracle(X, q[None, :], 9)
            i, d = build_index(X, strategy="brute").query(q, 9)
            expected = _stable_argsort_oracle(X, q[None, :], 9)
            assert np.array_equal(i, expected[0][0]) and np.array_equal(d, expected[1][0])

    def test_one_row_blocks(self, monkeypatch, rng):
        X = np.round(rng.normal(size=(200, 3)), 1)
        Q = np.round(rng.normal(size=(17, 3)), 1)
        blocks = []
        search = NeighborIndex._search_brute
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 8)
        monkeypatch.setattr(NeighborIndex, "_search_brute",
                            lambda self, Qb, *args: blocks.append(len(Qb)) or search(self, Qb, *args))
        _assert_brute_is_the_oracle(X, Q, 12)
        assert blocks == [1] * len(Q)


class TestAutoRouting:
    """An auto index at p >= 2 scans until the process's scans would pass
    `_SCAN_BUDGET` distances or the kd-tree extension is loaded; then it
    uses the tree.  Explicit "kdtree" never scans; p = 1 never scans."""

    @pytest.fixture
    def spy(self, monkeypatch):
        # A stand-in extension name that is not loaded yet; "loading" it
        # registers the name and returns the real tree class.
        tree_class = neighbors._ckdtree()
        absent = "simplexreg-test-absent-extension"
        seen = {"loads": 0, "scans": 0}

        def load():
            seen["loads"] += 1
            monkeypatch.setitem(sys.modules, absent, sys.modules[__name__])
            return tree_class

        search, lock = NeighborIndex._search_brute, threading.Lock()

        def scan(self, Qb, *args):
            with lock:
                seen["scans"] += len(Qb)
            return search(self, Qb, *args)

        monkeypatch.setattr(neighbors, "_CKDTREE_MODULE", absent)
        monkeypatch.setattr(neighbors, "_ckdtree", load)
        monkeypatch.setattr(NeighborIndex, "_search_brute", scan)
        monkeypatch.setattr(neighbors, "_scanned", 0)
        return seen

    def test_scans_until_the_budget_then_loads_the_tree(self, monkeypatch, rng, spy):
        X = np.round(rng.normal(size=(500, 3)), 1)
        Q = np.round(rng.normal(size=(40, 3)), 1)
        expected = _stable_argsort_oracle(X, Q, 7)
        cost = len(Q) * len(X)
        monkeypatch.setattr(neighbors, "_scanned", neighbors._SCAN_BUDGET - 2 * cost)
        index = build_index(X)
        assert index.strategy == "kdtree"
        for scans in (1, 2):
            index.query_batch(Q, 7)
            assert spy == {"loads": 0, "scans": scans * len(Q)}
            assert index._tree is None
        assert neighbors._scanned == neighbors._SCAN_BUDGET
        # The query that would cross the budget loads the tree ...
        index.query_batch(Q, 7)
        assert spy == {"loads": 1, "scans": 2 * len(Q)}
        assert index._tree is not None
        # ... and every later query uses it, even one that would still fit.
        monkeypatch.setattr(neighbors, "_scanned", 0)
        got = index.query_batch(Q, 7)
        assert spy == {"loads": 1, "scans": 2 * len(Q)}
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
        # Once loaded the extension serves every new auto index too.
        got = build_index(X).query_batch(Q, 7)
        assert spy["scans"] == 2 * len(Q)
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])

    def test_scan_and_tree_agree_bitwise(self, rng, spy):
        X = np.round(rng.normal(size=(600, 2)), 1)
        Q = np.round(rng.normal(size=(80, 2)), 1)
        scanned = build_index(X).query_batch(Q, 11)
        assert spy == {"loads": 0, "scans": len(Q)}
        tree = build_index(X, strategy="kdtree").query_batch(Q, 11)
        assert spy["loads"] == 1
        assert np.array_equal(scanned[0], tree[0]) and np.array_equal(scanned[1], tree[1])

    def test_scan_count_from_many_threads(self, rng, spy):
        # More threads than cores, a short switch interval: every scan is
        # counted once under the lock, so no update is lost.
        X = np.round(rng.normal(size=(200, 2)), 1)
        Q = np.round(rng.normal(size=(1, 2)), 1)
        expected = _stable_argsort_oracle(X, Q, 4)
        barrier, wrong = threading.Barrier(8), []

        def queries():
            barrier.wait()
            for _ in range(400):
                got = build_index(X).query_batch(Q, 4)
                if not (np.array_equal(got[0], expected[0])
                        and np.array_equal(got[1], expected[1])):
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=queries) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert neighbors._scanned == 8 * 400 * len(Q) * len(X)
        assert spy == {"loads": 0, "scans": 8 * 400 * len(Q)}

    def test_explicit_kdtree_never_scans(self, rng, spy):
        X = np.round(rng.normal(size=(500, 3)), 1)
        build_index(X, strategy="kdtree").query_batch(X[:30], 5)
        assert spy == {"loads": 1, "scans": 0}
        assert neighbors._scanned == 0

    def test_one_predictor_never_scans(self, rng, spy):
        X = np.round(rng.normal(size=(500, 1)), 1)
        build_index(X).query_batch(X[:30], 5)
        assert spy == {"loads": 0, "scans": 0}
        assert neighbors._scanned == 0
