"""Exact nearest-neighbor search.

The brute-force scan is the reference; the kd-tree backend must return
bit-identical indices and distances on every problem, including exact
ties, which both backends break toward the lower training index.
"""

import time

import numpy as np
import pytest

from simplexreg import NeighborIndex, ValidationError, build_index, neighbors
from simplexreg.neighbors import AUTO_KDTREE_THRESHOLD, pairwise_distances


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

    def test_duplicated_query_rows(self, rng):
        X = np.round(rng.normal(size=(300, 3)), 1)
        Q = np.repeat(np.round(rng.normal(size=(10, 3)), 1), 3, axis=0)
        _assert_matches_brute(X, Q, 6)
        I, _ = build_index(X, strategy="kdtree").query_batch(Q, 6)
        assert np.array_equal(I[0::3], I[1::3])
        assert np.array_equal(I[0::3], I[2::3])

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
    # Ratio gate, never absolute seconds: auto must pick the faster backend
    # at a size the benchmark's tie-heavy workload uses (measured 10-20x).
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(size=(3000, 3)), 1)
    Q = np.round(rng.normal(size=(2000, 3)), 1)

    def best_of_3(index):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            index.query_batch(Q, 10)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_of_3(build_index(X)) <= 0.5 * best_of_3(build_index(X, strategy="brute"))
