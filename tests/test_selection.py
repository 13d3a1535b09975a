"""Divergence metrics, fold assignment, and grid tuning.

The tie-break tests construct data whose held-out divergence is exactly
0.0 in several cells at once (dyadic compositions keep every power mean
bit-exact), so the lexicographic preference for smaller alpha and
smaller k is observable without relying on float coincidences.
"""

import json
import math

import numpy as np
import pytest

from simplexreg import (
    AlphaKnnSpec,
    DivergenceScore,
    KldSpec,
    TuningError,
    TuningGrid,
    ValidationError,
    closure,
    cross_validated_score,
    default_alpha_grid,
    default_h_grid,
    default_k_grid,
    js_divergence,
    kl_divergence,
    make_folds,
    tune,
)


class TestKlDivergence:
    def test_identity_is_exact_zero(self):
        y = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(y, y) == 0.0

    def test_known_value(self):
        # 0.5 log(0.5/0.25) + 0.5 log(0.5/0.75)
        expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        got = kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert abs(got - expect) <= 1e-15

    def test_zero_truth_component_contributes_nothing(self):
        got = kl_divergence([0.0, 1.0], [0.3, 0.7])
        assert abs(got - math.log(1.0 / 0.7)) <= 1e-15

    def test_zero_prediction_infinite_without_clamp(self):
        assert kl_divergence([0.5, 0.5], [0.0, 1.0]) == np.inf

    def test_clamp_floors_prediction(self):
        got = kl_divergence([0.5, 0.5], [0.0, 1.0], clamp=1e-12)
        expect = 0.5 * math.log(0.5 / 1e-12) + 0.5 * math.log(0.5 / 1.0)
        assert abs(got - expect) <= 1e-12
        assert np.isfinite(got)

    def test_rowwise_matrix_form(self):
        Y = np.array([[0.5, 0.5], [0.2, 0.8]])
        out = kl_divergence(Y, Y)
        assert out.shape == (2,)
        assert np.array_equal(out, [0.0, 0.0])

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        Y = closure(rng.random((100, 4)) + 0.01)
        Q = closure(rng.random((100, 4)) + 0.01)
        assert np.all(kl_divergence(Y, Q) >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_negative_clamp_rejected(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.5, 0.5], [0.5, 0.5], clamp=-1.0)


class TestJsDivergence:
    def test_identity_is_exact_zero(self):
        y = np.array([0.1, 0.4, 0.5])
        assert js_divergence(y, y) == 0.0

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(2)
        Y = closure(rng.random((50, 5)) + 0.01)
        Q = closure(rng.random((50, 5)) + 0.01)
        assert np.array_equal(js_divergence(Y, Q), js_divergence(Q, Y))

    def test_disjoint_support_attains_maximum(self):
        got = js_divergence([1.0, 0.0], [0.0, 1.0])
        assert abs(got - 2.0 * math.log(2.0)) <= 1e-12

    def test_bounded_by_maximum(self):
        rng = np.random.default_rng(3)
        Y = closure(rng.random((200, 3)) + 1e-6)
        Q = closure(rng.random((200, 3)) + 1e-6)
        assert np.all(js_divergence(Y, Q) <= 2.0 * math.log(2.0) + 1e-12)

    def test_finite_on_zero_predictions(self):
        assert np.isfinite(js_divergence([0.5, 0.5], [0.0, 1.0]))


class TestMakeFolds:
    def test_partition_and_balance(self):
        labels = make_folds(103, folds=10, seed=0)
        counts = np.bincount(labels, minlength=10)
        assert counts.sum() == 103
        assert counts.max() - counts.min() <= 1
        assert set(labels) == set(range(10))

    def test_deterministic_in_seed(self):
        a = make_folds(50, folds=5, seed=7)
        b = make_folds(50, folds=5, seed=7)
        c = make_folds(50, folds=5, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_folds(5, folds=10)
        with pytest.raises(ValidationError):
            make_folds(10, folds=1)
        with pytest.raises(ValidationError):
            make_folds(0, folds=2)


class TestGrids:
    def test_tuning_grid_needs_exactly_one_axis(self):
        with pytest.raises(ValidationError):
            TuningGrid(alphas=(0.5,), ks=(3,), hs=(1.0,))
        with pytest.raises(ValidationError):
            TuningGrid(alphas=(0.5,))

    def test_tuning_grid_validates_members(self):
        with pytest.raises(ValidationError):
            TuningGrid(alphas=(1.5,), ks=(3,))
        with pytest.raises(ValidationError):
            TuningGrid(alphas=(0.5,), ks=(0,))
        with pytest.raises(ValidationError):
            TuningGrid(alphas=(0.5,), hs=(-1.0,))
        with pytest.raises(ValidationError):
            TuningGrid(alphas=(0.5,), ks=(3,), folds=1)

    def test_default_alpha_grid(self):
        full = default_alpha_grid(zero_free=True)
        assert len(full) == 21
        assert full[0] == -1.0 and full[-1] == 1.0
        assert 0.0 in full
        pos = default_alpha_grid(zero_free=False)
        assert len(pos) == 10
        assert min(pos) > 0
        assert pos[0] == pytest.approx(0.1) and pos[-1] == 1.0

    def test_default_k_grid(self):
        ks = default_k_grid()
        assert ks[:9] == tuple(range(2, 11))
        assert ks[9:] == (15, 20, 25, 30, 35, 40, 45, 50)
        assert len(ks) == 17

    def test_default_h_grid(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 2))
        hs = default_h_grid(X, seed=0)
        assert len(hs) == 10
        assert all(h > 0 for h in hs)
        assert all(a < b for a, b in zip(hs, hs[1:]))
        assert hs == default_h_grid(X, seed=0)

    def test_default_h_grid_constant_data_rejected(self):
        X = np.zeros((50, 2))
        with pytest.raises(ValidationError):
            default_h_grid(X)


def quadruplet_data():
    """30 distinct predictor values, each repeated four times with an
    identical dyadic response; 1-NN prediction of a held-out row is its
    twin, bit-exact for alpha = 1."""
    rng = np.random.default_rng(12)
    base_x = np.linspace(0.0, 29.0, 30)
    rows = [
        [0.25, 0.25, 0.5],
        [0.5, 0.25, 0.25],
        [0.25, 0.5, 0.25],
        [0.125, 0.375, 0.5],
        [0.5, 0.375, 0.125],
    ]
    X = np.repeat(base_x, 4)
    U = np.array([rows[i % len(rows)] for i in np.repeat(np.arange(30), 4)])
    order = rng.permutation(120)
    return X[order], U[order]


class TestTuneKnn:
    def test_memorization_selects_k1(self):
        X, U = quadruplet_data()
        labels = make_folds(120, folds=10, seed=0)
        # precondition for the oracle: every quadruplet leaves at least
        # one twin in each training split
        for fold in range(10):
            train_x = set(X[labels != fold])
            assert set(X) == train_x
        grid = TuningGrid(alphas=(0.5, 1.0), ks=(1, 5, 25), folds=10, seed=0)
        report = tune(X, U, "alpha-knn", grid)
        assert report.selected_k == 1
        assert report.selected_score <= 1e-10

    def test_exact_tie_prefers_smaller_k(self):
        # identical dyadic responses: every (1.0, k) cell scores exactly
        # 0.0, so the listed-first larger k must lose the tie
        X = np.arange(40.0)
        U = np.tile([0.25, 0.25, 0.5], (40, 1))
        grid = TuningGrid(alphas=(1.0,), ks=(5, 2), folds=10, seed=3)
        report = tune(X, U, "alpha-knn", grid)
        assert report.mean_divergence[0][0] == 0.0
        assert report.mean_divergence[0][1] == 0.0
        assert report.selected_k == 2

    def test_exact_tie_prefers_smaller_alpha(self):
        # reciprocal powers of dyadic parts are exact too, so alpha = -1
        # and alpha = 1 both score 0.0; the smaller exponent wins
        X = np.arange(40.0)
        U = np.tile([0.25, 0.25, 0.5], (40, 1))
        grid = TuningGrid(alphas=(1.0, -1.0), ks=(2,), folds=10, seed=3)
        report = tune(X, U, "alpha-knn", grid)
        assert report.mean_divergence[0][0] == 0.0
        assert report.mean_divergence[1][0] == 0.0
        assert report.selected_alpha == -1.0

    def test_score_beats_tiebreak(self):
        # a strictly better score at a larger alpha must win over a
        # smaller alpha with a worse score
        X, U = quadruplet_data()
        grid = TuningGrid(alphas=(0.5, 1.0), ks=(1,), folds=10, seed=0)
        report = tune(X, U, "alpha-knn", grid)
        s05, s10 = report.mean_divergence[0][0], report.mean_divergence[1][0]
        if s10 < s05:
            assert report.selected_alpha == 1.0
        else:
            assert report.selected_alpha == 0.5

    def test_infeasible_cells_reported_null(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=60)
        U = closure(rng.random((60, 3)) + 0.05)
        # training folds hold 54 rows, so k = 60 is never feasible
        grid = TuningGrid(alphas=(1.0,), ks=(5, 60), folds=10, seed=0)
        report = tune(X, U, "alpha-knn", grid)
        assert report.mean_divergence[0][1] is None
        assert report.selected_k == 5
        payload = json.loads(report.to_json())
        assert payload["mean_divergence"][0][1] is None

    def test_all_infeasible_raises(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=30)
        U = closure(rng.random((30, 3)) + 0.05)
        grid = TuningGrid(alphas=(1.0,), ks=(29,), folds=10, seed=0)
        with pytest.raises(TuningError):
            tune(X, U, "alpha-knn", grid)

    def test_zeros_demand_positive_grid(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=40)
        U = closure(rng.random((40, 4)) + 0.05)
        U = U.copy()
        U[3, 0] = 0.0
        U = closure(U)
        grid = TuningGrid(alphas=(0.0, 0.5), ks=(3,), folds=10, seed=0)
        with pytest.raises(ValidationError, match="strictly positive"):
            tune(X, U, "alpha-knn", grid)
        tune(X, U, "alpha-knn", TuningGrid(alphas=(0.5,), ks=(3,), folds=10, seed=0))

    def test_zero_threads_rejected(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=40)
        U = closure(rng.random((40, 3)) + 0.05)
        grid = TuningGrid(alphas=(1.0,), ks=(3,), folds=10, seed=0)
        for bad in (0, -1):
            with pytest.raises(ValidationError, match="threads must be >= 1"):
                tune(X, U, "alpha-knn", grid, threads=bad)

    def test_thread_count_does_not_change_report(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 2))
        U = closure(rng.random((120, 4)) + 0.02)
        grid = TuningGrid(alphas=(0.0, 0.5, 1.0), ks=(2, 5, 10), folds=10, seed=1)
        r1 = tune(X, U, "alpha-knn", grid, threads=1)
        r4 = tune(X, U, "alpha-knn", grid, threads=4)
        assert r1.to_json() == r4.to_json()

    def test_metric_js(self):
        X, U = quadruplet_data()
        grid = TuningGrid(alphas=(1.0,), ks=(1, 5), folds=10, seed=0)
        report = tune(X, U, "alpha-knn", grid, metric="js")
        assert report.metric == "js"
        assert report.selected_k == 1

    def test_family_and_grid_validation(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=30)
        U = closure(rng.random((30, 3)) + 0.05)
        kgrid = TuningGrid(alphas=(1.0,), ks=(3,), folds=10, seed=0)
        hgrid = TuningGrid(alphas=(1.0,), hs=(1.0,), folds=10, seed=0)
        with pytest.raises(ValidationError):
            tune(X, U, "kld", kgrid)
        with pytest.raises(ValidationError):
            tune(X, U, "alpha-knn", hgrid)
        with pytest.raises(ValidationError):
            tune(X, U, "alpha-kernel", kgrid)
        with pytest.raises(ValidationError):
            tune(X, U, "alpha-kernel", hgrid, kernel="box")
        with pytest.raises(ValidationError):
            tune(X, U, "alpha-knn", kgrid, metric="l2")


class TestTuneKernel:
    def test_report_structure(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(100, 2))
        U = closure(rng.random((100, 3)) + 0.05)
        grid = TuningGrid(alphas=(0.5, 1.0), hs=(0.5, 1.0, 2.0), folds=10, seed=0)
        report = tune(X, U, "alpha-kernel", grid, kernel="gaussian")
        assert report.family == "alpha-kernel"
        assert report.selected_h in grid.hs
        assert report.selected_k is None
        payload = json.loads(report.to_json())
        assert payload["kernel"] == "gaussian"
        assert payload["selected"]["h"] == report.selected_h
        assert "ks" not in payload
        assert len(payload["mean_divergence"]) == 2
        assert len(payload["mean_divergence"][0]) == 3

    def test_underflow_bandwidth_column_infeasible(self):
        # far-apart clusters: a vanishing bandwidth zeroes every weight
        # for held-out rows from the other cluster
        rng = np.random.default_rng(11)
        X = np.concatenate([rng.normal(size=30), rng.normal(size=30) + 1e4])
        U = closure(rng.random((60, 3)) + 0.05)
        grid = TuningGrid(alphas=(1.0,), hs=(1e-8, 50.0), folds=10, seed=0)
        report = tune(X, U, "alpha-kernel", grid)
        assert report.mean_divergence[0][0] is None
        assert report.selected_h == 50.0

    def test_laplacian_kernel_runs(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 1))
        U = closure(rng.random((60, 3)) + 0.05)
        grid = TuningGrid(alphas=(1.0,), hs=(0.5, 1.0), folds=10, seed=0)
        report = tune(X, U, "alpha-kernel", grid, kernel="laplacian")
        assert report.kernel == "laplacian"


class TestCrossValidatedScore:
    def test_memorization_is_exact(self):
        X, U = quadruplet_data()
        score = cross_validated_score(X, U, AlphaKnnSpec(alpha=1.0, k=1), seed=0)
        assert score.kl == 0.0
        assert score.js == 0.0
        assert score.rows == 120
        assert len(score.fold_kl) == 10

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(80, 2))
        U = closure(rng.random((80, 3)) + 0.05)
        s1 = cross_validated_score(X, U, KldSpec(), seed=3)
        s2 = cross_validated_score(X, U, KldSpec(), seed=3)
        assert s1 == s2

    def test_same_folds_for_different_specs(self):
        # paired comparisons need identical partitions, which the shared
        # seed guarantees; a 1-NN memorizer and the parametric baseline
        # then see the same test rows
        X, U = quadruplet_data()
        knn = cross_validated_score(X, U, AlphaKnnSpec(alpha=1.0, k=1), seed=5)
        kld = cross_validated_score(X, U, KldSpec(), seed=5)
        assert knn.rows == kld.rows
        assert knn.kl <= kld.kl

    def test_score_is_mean_of_row_divergences(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 1))
        U = closure(rng.random((40, 3)) + 0.05)
        spec = AlphaKnnSpec(alpha=1.0, k=40 - 4)
        score = cross_validated_score(X, U, spec, folds=10, seed=0)
        assert score.kl >= 0
        assert np.isfinite(score.js)
