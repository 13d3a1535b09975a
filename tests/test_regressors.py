"""Regression model families.

Each family is checked against closed-form special cases (global means,
memorization, exact recovery on noiseless data), its validation gates,
and the agreements that tie the families together.
"""

import numpy as np
import pytest

from simplexreg import (
    AlphaKernelSpec,
    AlphaKnnSpec,
    ConvergenceError,
    DegenerateWeightsError,
    KldSpec,
    LogRatioOlsSpec,
    ValidationError,
    ZeroNotAllowedError,
    alr,
    alr_inverse,
    build_index,
    closure,
    clr,
    clr_inverse,
    fit_alpha_kernel,
    fit_alpha_knn,
    fit_kld,
    fit_logratio_ols,
    predict_alpha_kernel,
    predict_alpha_knn,
    predict_kld,
    predict_logratio_ols,
)
from simplexreg.regressors import (
    KERNELS,
    iter_kernel_grid_predictions,
    iter_knn_grid_predictions,
)
from simplexreg.selection import TuningGrid, tune


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def make_data(rng, n=80, p=2, D=4):
    X = rng.normal(size=(n, p))
    U = closure(rng.random((n, D)) + 0.05)
    return X, U


class TestAlphaKnn:
    def test_two_point_average(self):
        # both training rows are the neighborhood, alpha = 1 averages them
        X = np.array([0.0, 1.0])
        U = np.array([[0.2, 0.8], [0.4, 0.6]])
        model = fit_alpha_knn(X, U, 1.0, 2)
        pred = predict_alpha_knn(model, [0.1])
        assert np.allclose(pred[0], [0.3, 0.7], atol=1e-15)

    def test_k_equals_n_is_global_mean(self, rng):
        X, U = make_data(rng)
        model = fit_alpha_knn(X, U, 1.0, X.shape[0])
        pred = model.predict(rng.normal(size=(6, 2)))
        assert np.max(np.abs(pred - U.mean(axis=0))) <= 1e-12

    def test_k1_memorizes_training_points(self, rng):
        X, U = make_data(rng, n=40)
        model = fit_alpha_knn(X, U, 1.0, 1)
        pred = predict_alpha_knn(model, X[:10])
        assert np.max(np.abs(pred - U[:10])) <= 1e-12

    def test_small_alpha_matches_log_ratio_pipeline(self, rng):
        # alpha near 0 must agree with averaging centered log ratios
        X, U = make_data(rng, n=200, p=2, D=5)
        Q = rng.normal(size=(50, 2))
        k = 10
        model = fit_alpha_knn(X, U, 1e-6, k)
        pred = predict_alpha_knn(model, Q)
        idx, _ = model.index.query_batch(Q, k)
        ref = np.vstack([clr_inverse(clr(U[row]).mean(axis=0)) for row in idx])
        assert np.max(np.abs(pred - ref)) <= 1e-5

    def test_predictions_on_simplex(self, rng):
        X, U = make_data(rng)
        for a in (-1.0, 0.0, 0.5, 1.0):
            pred = fit_alpha_knn(X, U, a, 7).predict(rng.normal(size=(9, 2)))
            assert np.all(pred > 0)
            assert np.max(np.abs(pred.sum(axis=1) - 1.0)) <= 1e-12

    def test_deterministic(self, rng):
        X, U = make_data(rng)
        Q = rng.normal(size=(15, 2))
        m = fit_alpha_knn(X, U, 0.5, 5)
        assert np.array_equal(m.predict(Q), m.predict(Q))

    def test_zeros_need_positive_alpha(self, rng):
        X, U = make_data(rng, n=30)
        U = U.copy()
        U[4, 0] = 0.0
        U = closure(U)
        fit_alpha_knn(X, U, 0.5, 3)
        for a in (0.0, -0.5):
            with pytest.raises(ZeroNotAllowedError):
                fit_alpha_knn(X, U, a, 3)

    def test_k_bounds(self, rng):
        X, U = make_data(rng, n=20)
        for bad in (0, 21, -3):
            with pytest.raises(ValidationError):
                fit_alpha_knn(X, U, 1.0, bad)
        with pytest.raises(ValidationError):
            fit_alpha_knn(X, U, 1.0, 2.5)

    def test_row_count_mismatch(self, rng):
        with pytest.raises(ValidationError):
            fit_alpha_knn(rng.normal(size=(5, 1)), closure(rng.random((6, 3))), 1.0, 2)


class TestKnnGridIterator:
    def test_matches_direct_predictions(self, rng):
        X, U = make_data(rng, n=60, p=2, D=4)
        Q = rng.normal(size=(12, 2))
        index = build_index(X)
        alphas = (-1.0, 0.0, 0.5, 1.0)
        ks = (1, 4, 9)
        cells = {}
        for ai, ki, pred in iter_knn_grid_predictions(index, U, Q, alphas, ks):
            cells[ai, ki] = pred
        assert len(cells) == len(alphas) * len(ks)
        for ai, a in enumerate(alphas):
            for ki, k in enumerate(ks):
                direct = fit_alpha_knn(X, U, a, k).predict(Q)
                assert np.allclose(cells[ai, ki], direct, atol=1e-12)

    def test_infeasible_cells_are_none(self, rng):
        X, U = make_data(rng, n=10)
        index = build_index(X)
        out = list(iter_knn_grid_predictions(index, U, X, (1.0,), (5, 11)))
        assert out[0][2] is not None
        assert out[1][2] is None

    @pytest.mark.parametrize("strategy", ["brute", "kdtree"])
    def test_cells_equal_predict_bitwise(self, rng, strategy):
        # predict is the single-cell grid, so the bits agree exactly
        X, U = make_data(rng, n=200, p=2, D=4)
        Q = rng.normal(size=(30, 2))
        index = build_index(X, strategy=strategy)
        alphas = (-1.0, -0.3, 0.0, 0.5, 1.0)
        ks = (1, 3, 10, 40)
        for ai, ki, pred in iter_knn_grid_predictions(index, U, Q, alphas, ks):
            model = fit_alpha_knn(X, U, alphas[ai], ks[ki], strategy=strategy)
            assert np.array_equal(pred, model.predict(Q))


class TestKernelGridIterator:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_cells_equal_predict_bitwise(self, rng, kernel):
        X, U = make_data(rng, n=70, p=2, D=4)
        Q = rng.normal(size=(15, 2))
        alphas = (-1.0, 0.0, 0.5, 1.0)
        hs = (0.3, 1.0, 5.0)
        cells = list(iter_kernel_grid_predictions(X, U, Q, alphas, hs, kernel))
        assert len(cells) == len(alphas) * len(hs)
        for ai, hi, pred in cells:
            model = fit_alpha_kernel(X, U, alphas[ai], hs[hi], kernel)
            assert np.array_equal(pred, model.predict(Q))

    def test_underflowing_bandwidth(self, rng):
        # two far-apart clusters: at h = 1e-8 a query from one cluster
        # gives zero weight to every training row of the other
        X = np.concatenate([rng.normal(size=30), rng.normal(size=30) + 1e4])[:, None]
        U = closure(rng.random((60, 3)) + 0.05)
        Q = np.array([[0.0], [5e3], [1e4]])
        cells = list(
            iter_kernel_grid_predictions(X, U, Q, (0.5, 1.0), (1e-8, 1e4), "gaussian")
        )
        dead = [pred for _, hi, pred in cells if hi == 0]
        assert len(dead) == 2
        assert all(isinstance(e, DegenerateWeightsError) for e in dead)
        assert all(e.query_index == 0 for e in dead)
        with pytest.raises(DegenerateWeightsError, match="query row 0") as err:
            fit_alpha_kernel(X, U, 0.5, 1e-8).predict(Q)
        assert err.value.query_index == 0
        grid = TuningGrid(alphas=(0.5, 1.0), hs=(1e-8, 1e4), folds=5, seed=0)
        report = tune(X, U, "alpha-kernel", grid)
        assert [row[0] for row in report.mean_divergence] == [None, None]
        assert all(row[1] is not None for row in report.mean_divergence)


class TestAlphaKernel:
    def test_huge_bandwidth_is_global_mean(self, rng):
        X, U = make_data(rng)
        span = np.max(X) - np.min(X)
        model = fit_alpha_kernel(X, U, 1.0, 1e9 * span)
        pred = model.predict(rng.normal(size=(5, 2)))
        assert np.max(np.abs(pred - U.mean(axis=0))) <= 1e-6

    def test_tiny_bandwidth_memorizes(self, rng):
        X = np.arange(10.0)
        U = closure(rng.random((10, 3)) + 0.1)
        model = fit_alpha_kernel(X, U, 1.0, 1e-3)
        pred = predict_alpha_kernel(model, X[:4])
        assert np.max(np.abs(pred - U[:4])) <= 1e-12

    def test_kernel_formulas(self):
        # frozen shapes: gaussian exp(-d^2 / 2h^2), exponential
        # exp(-d / 2h^2), laplacian exp(-d / h)
        d = np.array([1.0])
        h = 2.0
        assert np.allclose(KERNELS["gaussian"](d, h), np.exp(-1 / 8))
        assert np.allclose(KERNELS["exponential"](d, h), np.exp(-1 / 8))
        assert np.allclose(KERNELS["laplacian"](d, h), np.exp(-1 / 2))
        d0 = np.array([0.0])
        for name in KERNELS:
            assert KERNELS[name](d0, h) == 1.0

    def test_kernels_agree_at_matched_scales(self, rng):
        # gaussian and exponential coincide when d equals d^2, i.e. d = 1
        d = np.array([1.0])
        assert KERNELS["gaussian"](d, 1.5) == KERNELS["exponential"](d, 1.5)

    def test_matches_knn_full_neighborhood(self, rng):
        X, U = make_data(rng, n=50)
        knn = fit_alpha_knn(X, U, 1.0, 50)
        ker = fit_alpha_kernel(X, U, 1.0, 1e9)
        Q = rng.normal(size=(8, 2))
        assert np.max(np.abs(knn.predict(Q) - ker.predict(Q))) <= 1e-6

    def test_degenerate_weights_named(self, rng):
        X = np.zeros((5, 1))
        U = closure(rng.random((5, 3)) + 0.1)
        model = fit_alpha_kernel(X, U, 1.0, 1e-3)
        with pytest.raises(DegenerateWeightsError) as err:
            predict_alpha_kernel(model, np.array([[0.0], [100.0]]))
        assert err.value.query_index == 1
        assert "query row 1" in str(err.value)

    def test_bandwidth_validation(self, rng):
        X, U = make_data(rng, n=10)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                fit_alpha_kernel(X, U, 1.0, bad)

    def test_kernel_name_validation(self, rng):
        X, U = make_data(rng, n=10)
        with pytest.raises(ValidationError):
            fit_alpha_kernel(X, U, 1.0, 1.0, kernel="tricube")

    def test_zeros_need_positive_alpha(self, rng):
        X, U = make_data(rng, n=20)
        U = closure(np.where(U < 0.1, 0.0, U))
        assert np.any(U == 0)
        fit_alpha_kernel(X, U, 0.5, 1.0)
        with pytest.raises(ZeroNotAllowedError):
            fit_alpha_kernel(X, U, 0.0, 1.0)


class TestKld:
    def test_intercept_only_recovers_sample_mean(self, rng):
        U = closure(rng.random((300, 3)) + 0.02)
        model = fit_kld(None, U, tol=1e-10)
        assert np.max(np.abs(predict_kld(model, np.zeros((2, 0)))[0] - U.mean(axis=0))) <= 1e-8

    def test_recovers_generating_coefficients(self, rng):
        # noiseless multinomial-logit data: the fit must recover the
        # exact coefficients
        n, p, D = 2000, 2, 3
        X = rng.normal(size=(n, p))
        B = np.vstack([[0.4, -0.2], [1.0, 0.5], [-0.7, 0.9]])
        U = alr_inverse(B[0] + X @ B[1:])
        model = fit_kld(X, U)
        assert np.max(np.abs(model.coef - B)) <= 1e-4

    def test_objective_monotone(self, rng):
        X, U = make_data(rng, n=150, p=3, D=4)
        model = fit_kld(X, U)
        path = np.array(model.objective_path)
        assert np.all(np.diff(path) <= 0)
        assert model.objective == path[-1]
        assert model.iterations == len(path) - 1

    def test_handles_zero_components(self, rng):
        X = rng.normal(size=(100, 1))
        U = closure(rng.random((100, 4)) + 0.05)
        U = U.copy()
        U[::7, 0] = 0.0
        U = closure(U)
        model = fit_kld(X, U)
        pred = model.predict(X[:5])
        assert np.all(pred > 0)
        assert np.max(np.abs(pred.sum(axis=1) - 1.0)) <= 1e-12

    def test_zero_coefficients_predict_uniform(self):
        from simplexreg.regressors import KldModel

        coef = np.zeros((3, 2))
        coef.flags.writeable = False
        model = KldModel(
            coef=coef, iterations=0, objective=0.0,
            objective_path=(0.0,), hessian_damped=False,
        )
        pred = predict_kld(model, np.ones((4, 2)))
        assert np.allclose(pred, 1 / 3, atol=1e-15)

    def test_convergence_error_carries_last_iterate(self, rng):
        X, U = make_data(rng, n=200, p=2, D=5)
        with pytest.raises(ConvergenceError) as err:
            fit_kld(X, U, tol=1e-16, max_iter=1)
        model = err.value.model
        assert model is not None
        assert model.coef.shape == (3, 4)
        assert len(model.objective_path) == 2

    def test_too_few_rows(self, rng):
        X = rng.normal(size=(3, 2))
        U = closure(rng.random((3, 3)) + 0.1)
        with pytest.raises(ValidationError):
            fit_kld(X, U)

    def test_tol_validation(self, rng):
        X, U = make_data(rng, n=20)
        with pytest.raises(ValidationError):
            fit_kld(X, U, tol=0.0)
        with pytest.raises(ValidationError):
            fit_kld(X, U, max_iter=0)

    def test_predict_width_check(self, rng):
        X, U = make_data(rng, n=30, p=2)
        model = fit_kld(X, U)
        with pytest.raises(ValidationError):
            model.predict(np.ones((2, 3)))

    def test_coefficients_frozen(self, rng):
        X, U = make_data(rng, n=30)
        model = fit_kld(X, U)
        with pytest.raises(ValueError):
            model.coef[0, 0] = 1.0


class TestLogRatioOls:
    def test_alr_ilr_predictions_agree(self, rng):
        X, U = make_data(rng, n=120, p=3, D=5)
        Q = rng.normal(size=(20, 3))
        pa = fit_logratio_ols(X, U, "alr").predict(Q)
        pi = fit_logratio_ols(X, U, "ilr").predict(Q)
        assert np.max(np.abs(pa - pi)) <= 1e-10

    def test_exact_fit_on_linear_data(self, rng):
        n, p, D = 300, 2, 4
        X = rng.normal(size=(n, p))
        B = rng.normal(size=(p + 1, D - 1))
        U = alr_inverse(B[0] + X @ B[1:])
        model = fit_logratio_ols(X, U, "alr")
        assert np.max(np.abs(model.coef - B)) <= 1e-10
        pred = model.predict(X[:15])
        assert np.max(np.abs(pred - U[:15])) <= 1e-10

    def test_constant_responses_give_zero_slopes(self, rng):
        X = rng.normal(size=(50, 2))
        U = np.tile([0.2, 0.3, 0.5], (50, 1))
        model = fit_logratio_ols(X, U)
        assert np.max(np.abs(model.coef[1:])) <= 1e-12
        assert np.allclose(model.predict([[9.0, -9.0]])[0], [0.2, 0.3, 0.5], atol=1e-12)

    def test_zeros_rejected(self, rng):
        X = rng.normal(size=(20, 1))
        U = closure(rng.random((20, 3)) + 0.1)
        U = U.copy()
        U[3, 1] = 0.0
        U = closure(U)
        with pytest.raises(ZeroNotAllowedError):
            fit_logratio_ols(X, U)

    def test_rank_deficient_design_named(self, rng):
        x = rng.normal(size=50)
        X = np.column_stack([x, x])  # duplicated column
        U = closure(rng.random((50, 3)) + 0.1)
        with pytest.raises(ValidationError, match="rank"):
            fit_logratio_ols(X, U)

    def test_transform_name_validation(self, rng):
        X, U = make_data(rng, n=20)
        with pytest.raises(ValidationError):
            fit_logratio_ols(X, U, transform="clr")


class TestSpecs:
    def test_specs_fit(self, rng):
        X, U = make_data(rng, n=60)
        Q = rng.normal(size=(4, 2))
        for spec in (
            AlphaKnnSpec(alpha=0.5, k=3),
            AlphaKernelSpec(alpha=1.0, h=2.0),
            KldSpec(),
            LogRatioOlsSpec(transform="ilr"),
        ):
            pred = spec.fit(X, U).predict(Q)
            assert pred.shape == (4, 4)
            assert np.max(np.abs(pred.sum(axis=1) - 1.0)) <= 1e-12

    def test_specs_hashable(self):
        assert len({AlphaKnnSpec(1.0, 3), AlphaKnnSpec(1.0, 3), AlphaKnnSpec(0.5, 3)}) == 2
