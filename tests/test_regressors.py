"""Regression model families.

Each family is checked against closed-form special cases (global means,
memorization, exact recovery on noiseless data), its validation gates,
and the agreements that tie the families together.
"""

import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from simplexreg import (
    AlphaKernelSpec,
    AlphaKnnSpec,
    ConvergenceError,
    DegenerateInputError,
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
    frechet_mean,
    frechet_path,
    predict_alpha_kernel,
    predict_alpha_knn,
    predict_kld,
    predict_logratio_ols,
    weighted_frechet_mean,
)
from simplexreg import neighbors, regressors, transforms
from simplexreg.regressors import (
    _STACK_MULADDS,
    KERNELS,
    iter_kernel_grid_predictions,
    iter_knn_grid_predictions,
)
from simplexreg.selection import TuningGrid, default_alpha_grid, tune


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

    def test_negative_zero_part_kept_at_alpha_one(self):
        # -0.0 passes the composition gate.  At alpha = 1, a cell whose
        # neighbors all hold -0.0 in a part predicts -0.0 there, on both
        # power routes (n < m * k powers the training rows first).
        X = np.array([0.0, 1.0, 5.0])
        U = np.array([[0.5, 0.5, -0.0], [0.3, 0.7, -0.0], [0.2, 0.3, 0.5]])
        for k, Q in ((1, [0.0, 1.0]), (1, [0.0, 1.0, 0.1, 0.9]), (2, [0.5, 0.4])):
            pred = predict_alpha_knn(fit_alpha_knn(X, U, 1.0, k), Q)
            assert np.all(np.signbit(pred[:, 2]))
            assert not np.any(np.signbit(pred[:, :2]))

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

    def test_query_error_names_a_row_of_the_whole_matrix(self, rng):
        # 3,000 queries at k = 50 run in several search blocks; the row
        # named is the caller's, not one of the block holding it.
        X, U = make_data(rng, n=200, p=1, D=3)
        Q = rng.normal(size=(3000, 1))
        Q[1500, 0] = np.nan
        with pytest.raises(ValidationError, match="^row 1500: non-finite predictor value$"):
            next(iter_knn_grid_predictions(build_index(X), U, Q, (0.5,), (50,)))

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


class TestKnnRowIndependence:
    """A query row's k-NN prediction does not depend on the other rows of
    the call: the whole batch equals its 7-row chunks stacked, bit for bit,
    on tied (rounded) and continuous predictors.  The kernel family has
    this property only when every block's GEMM has at least
    `_STACK_MULADDS` multiply-adds (TestKernelRowIndependence)."""

    @pytest.fixture
    def resolved(self, monkeypatch):
        from simplexreg.neighbors import NeighborIndex

        seen = []
        resolve = NeighborIndex._resolve_row

        def counting(self, q, kk, d_edge):
            seen.append(kk)
            return resolve(self, q, kk, d_edge)

        monkeypatch.setattr(NeighborIndex, "_resolve_row", counting)
        return seen

    @pytest.mark.parametrize("rounded", [True, False])
    @pytest.mark.parametrize("strategy", ["kdtree", "brute"])
    def test_chunks_equal_whole_batch(self, strategy, rounded, resolved):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(300, 2))
        Q = rng.normal(size=(60, 2))
        if rounded:
            X, Q = np.round(X, 1), np.round(Q, 1)
        U = closure(rng.random((300, 4)) + 0.05)
        for a in (0.1, 0.5, 1.0):
            for k in (2, 10, 45):
                model = fit_alpha_knn(X, U, a, k, strategy=strategy)
                chunks = [model.predict(Q[i:i + 7]) for i in range(0, len(Q), 7)]
                assert np.array_equal(model.predict(Q), np.vstack(chunks)), (a, k)
        if strategy == "kdtree" and rounded:
            assert resolved  # the tie path ran
        elif strategy == "kdtree":
            assert not resolved


class TestKnnPowerOrder:
    """The grid iterator powers the smaller set: the n training rows, then
    gathers them (a tune fold, n < m * k_max), or the gathered neighbours
    (a one-row predict).  The power is elementwise, so both orders give the
    same bits."""

    @pytest.mark.parametrize("rounded", [True, False])
    @pytest.mark.parametrize("D", [2, 4, 7])
    def test_batch_equals_rows_one_at_a_time(self, D, rounded):
        rng = np.random.default_rng(46)
        n, m, k = 90, 12, 9  # the batch asks m * k = 108 > n neighbours
        X, Q = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
        if rounded:
            X, Q = np.round(X, 1), np.round(Q, 1)
        # Parts over many magnitudes; the 21 default alphas include the
        # +-0.5 and +-1 that numpy may power by its own scalar fast paths.
        U = closure(rng.random((n, D)) ** 6 + 1e-12)
        index = build_index(X)
        alphas = default_alpha_grid()
        for ai, _, batch in iter_knn_grid_predictions(index, U, Q, alphas, (k,)):
            rows = [next(iter_knn_grid_predictions(index, U, Q[i:i + 1], (alphas[ai],), (k,)))[2]
                    for i in range(m)]
            assert np.array_equal(batch, np.vstack(rows)), alphas[ai]

    def test_values_powered(self, monkeypatch):
        sizes = []
        power = regressors._power

        def counted(values, a, out=None):
            sizes.append(values.size)
            return power(values, a, out=out)

        monkeypatch.setattr(regressors, "_power", counted)
        rng = np.random.default_rng(47)
        n, D, alphas = 300, 4, (-0.5, 0.0, 1.0)
        X, U = rng.normal(size=(n, 1)), closure(rng.random((n, D)) + 0.05)
        tune(X, U, "alpha-knn", TuningGrid(alphas=alphas, ks=(5, 50), folds=3, seed=1))
        # Each fold's 100 queries ask 50 neighbours among its 200 training rows.
        assert sizes == [200 * D] * (3 * len(alphas))
        sizes.clear()
        fit_alpha_knn(X, U, 0.5, 7).predict(X[:1])
        assert sizes == [7 * D]


class TestDegenerateClosing:
    """At alpha = -1 each part 1e-308 powers to 1e308, which is finite; two
    of them in one column sum to inf, so the mean of the four rows would
    unpower to (0, 0).  Every public path sums four such powers, so each
    refuses row 0 up front, naming alpha; only the unchecked grid iterator
    still reaches the degenerate closing and raises there."""

    t = 1e-308
    U = np.array([[t, 1 - t], [t, 1 - t], [1 - t, t], [1 - t, t]])
    message = "^closure: a slice sums to zero$"
    refusal = r"row 0: part 1e-308 overflows when raised to alpha, got alpha=-1\.0$"

    def test_every_public_path_refuses_up_front(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ZeroNotAllowedError, match="^fit_alpha_knn: " + self.refusal):
            fit_alpha_knn(X, self.U, -1.0, 4)
        with pytest.raises(ValidationError, match="^tune: responses: " + self.refusal):
            tune(np.zeros((12, 1)), np.tile(self.U, (3, 1)), "alpha-knn",
                 TuningGrid(alphas=(-1.0,), ks=(4,), folds=2, seed=0))
        with pytest.raises(ZeroNotAllowedError, match="^frechet_mean: " + self.refusal):
            frechet_mean(self.U, -1.0)
        # The overflow is the case under test; pytest would raise its warning.
        with np.errstate(over="ignore"):
            for Q in ([[0.5]], [[0.5], [0.2]]):  # neighbours first, training rows first
                with pytest.raises(DegenerateInputError, match=self.message):
                    list(iter_knn_grid_predictions(build_index(X), self.U, np.array(Q),
                                                   (-1.0,), (4,)))


class TestOverflowingSumRefused:
    """Each power is bounded by finfo.max over the terms one sum adds: n rows
    for the Frechet mean, k neighbours for the k-NN fit, the largest grid k
    for its tune, 1 for the weighted means.  A part whose power stays finite
    but whose column sum would overflow is refused up front, naming the row
    and alpha, with no RuntimeWarning (the suite turns those into errors)."""

    t = 1e-308
    U = np.array([[t, 1 - t], [t, 1 - t], [0.5, 0.5]])
    X = np.arange(3.0)[:, None]
    refusal = r"row 0: part 1e-308 overflows when raised to alpha, got alpha=-1\.0$"

    def test_mean_and_fit_refuse(self):
        with pytest.raises(ZeroNotAllowedError, match="^frechet_mean: " + self.refusal):
            frechet_mean(self.U, -1.0)
        with pytest.raises(ZeroNotAllowedError, match="^fit_alpha_knn: " + self.refusal):
            fit_alpha_knn(self.X, self.U, -1.0, 3)
        with pytest.raises(ValidationError, match="^tune: responses: " + self.refusal):
            tune(np.tile(self.X, (2, 1)), np.tile(self.U, (2, 1)), "alpha-knn",
                 TuningGrid(alphas=(0.5, -1.0), ks=(1, 2), folds=2, seed=0))

    def test_one_term_sums_are_accepted(self):
        # One neighbour, or weights summing to 1, never add two powers.
        pred = fit_alpha_knn(self.X, self.U, -1.0, 1).predict(self.X)
        assert np.allclose(pred, self.U, rtol=1e-12, atol=0)
        assert np.all(np.isfinite(weighted_frechet_mean(self.U, [1.0, 0.0, 1.0], -1.0)))
        fit_alpha_kernel(self.X, self.U, -1.0, 0.5)

    def test_bound_scales_with_the_terms(self):
        # At alpha = -1 the bound on a part is terms / finfo.max: about
        # 1.7e-304 at 30,000 rows.
        n = 30_000
        edge = n / np.finfo(float).max
        U = closure(np.tile([[0.5, 0.5]], (n, 1)))
        U[7] = [edge * 0.99, 1 - edge * 0.99]
        with pytest.raises(ZeroNotAllowedError, match="^frechet_mean: row 7: "):
            frechet_mean(U, -1.0)
        U[7] = [edge * 1.01, 1 - edge * 1.01]
        assert np.all(np.isfinite(frechet_mean(U, -1.0)))


class TestOverflowingPowerRefused:
    """A part whose alpha-th power overflows (alpha < 0, part below
    finfo.max ** (1 / alpha)) is refused like a zero at alpha <= 0, naming
    the row and alpha, by every fit, by tune at its smallest grid alpha and
    by the Frechet means; a part just above the bound is accepted."""

    @staticmethod
    def data(part):
        U = closure(np.array([[0.3, 0.7], [0.5, 0.5], [1.0, part], [0.6, 0.4]] * 2))
        return np.arange(8.0)[:, None], U

    @pytest.mark.parametrize("part", [5e-324, 5e-309])
    def test_fits_and_means_refuse(self, part):
        X, U = self.data(part)
        message = rf"row 2: part {part!r} overflows when raised to alpha, got alpha=-1\.0$"
        for fit in (lambda: fit_alpha_knn(X, U, -1.0, 1),
                    lambda: fit_alpha_kernel(X, U, -1.0, 0.5),
                    lambda: frechet_mean(U, -1.0),
                    lambda: weighted_frechet_mean(U, np.ones(8), -1.0),
                    lambda: frechet_path(U, (0.5, -1.0))):
            with pytest.raises(ZeroNotAllowedError, match=message):
                fit()

    def test_part_at_the_bound_is_accepted(self):
        limit = np.finfo(float).max ** -1.0  # 1 / max: its power is max itself
        X, U = self.data(np.nextafter(limit, 1.0))
        assert np.isfinite(U[2, 1] ** -1.0)
        fit_alpha_knn(X, U, -1.0, 1)
        fit_alpha_kernel(X, U, -1.0, 0.5)
        # A milder alpha powers the refused part to a finite value.
        X, U = self.data(5e-324)
        model = fit_alpha_knn(X, U, -0.5, 1)
        assert model.predict(X[2:3])[0, 1] > 0
        assert frechet_mean(U, -0.5)[1] > 0

    @pytest.mark.parametrize("family, axis", [("alpha-knn", {"ks": (1,)}),
                                              ("alpha-kernel", {"hs": (0.5,)})])
    def test_tune_checks_the_smallest_grid_alpha(self, family, axis):
        X, U = self.data(5e-324)
        grid = TuningGrid(alphas=(1.0, -1.0, 0.5), folds=2, seed=0, **axis)
        with pytest.raises(ValidationError,
                           match=r"^tune: responses: row 2: .*overflows.*alpha=-1\.0$"):
            tune(X, U, family, grid)
        tune(X, U, family, TuningGrid(alphas=(1.0, -0.5, 0.5), folds=2, seed=0, **axis))


class TestKnnPredictBlocks:
    """`predict_alpha_knn` runs the grid iterator once per query block of
    `_row_blocks(m, row_bytes, _CHUNK_BYTES // 64)`, after validating the
    whole query matrix once."""

    @staticmethod
    def small_blocks(monkeypatch, rows, k, D):
        # A budget of `rows` query rows of k indices and distances plus
        # (D, k) gathered and running-sum arrays; returns the call count.
        monkeypatch.setattr(regressors, "_CHUNK_BYTES", 64 * rows * 16 * k * (1 + D))
        calls = []
        grid = regressors.iter_knn_grid_predictions

        def counted(index, U, Q, alphas, ks):
            calls.append(len(Q))
            return grid(index, U, Q, alphas, ks)

        monkeypatch.setattr(regressors, "iter_knn_grid_predictions", counted)
        return calls

    @pytest.mark.parametrize("rounded", [True, False])
    @pytest.mark.parametrize("strategy", ["kdtree", "brute"])
    def test_blocks_equal_one_block(self, monkeypatch, strategy, rounded):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(300, 2))
        Q = rng.normal(size=(61, 2))
        if rounded:
            X, Q = np.round(X, 1), np.round(Q, 1)
        U = closure(rng.random((300, 4)) + 0.05)
        cells = [(a, k) for a in (0.0, 0.5, 1.0) for k in (1, 10, 45)]
        whole = [fit_alpha_knn(X, U, a, k, strategy=strategy).predict(Q) for a, k in cells]
        for (a, k), expected in zip(cells, whole):
            calls = self.small_blocks(monkeypatch, 7, k, 4)
            got = fit_alpha_knn(X, U, a, k, strategy=strategy).predict(Q)
            assert len(calls) == 9 and sum(calls) == 61, calls
            assert got.shape == (61, 4) and np.array_equal(got, expected), (a, k)

    @pytest.mark.parametrize("row, value, message", [
        (37, np.nan, "^row 37: non-finite predictor value$"),
        (41, 1e200, "^query row 41 exceeds magnitude"),
    ])
    def test_errors_name_the_global_row(self, monkeypatch, rng, row, value, message):
        X, U = make_data(rng, n=50, p=2)
        Q = rng.normal(size=(60, 2))
        Q[row, 1] = value
        model = fit_alpha_knn(X, U, 0.5, 5)
        calls = self.small_blocks(monkeypatch, 7, 5, 4)
        with pytest.raises(ValidationError, match=message):
            model.predict(Q)
        assert calls == []  # rejected before the first block is searched

    def test_width_checked_once(self, monkeypatch, rng):
        X, U = make_data(rng, n=50, p=2)
        calls = self.small_blocks(monkeypatch, 7, 5, 4)
        with pytest.raises(ValidationError,
                           match="^query width 3 does not match the model's 2 predictors$"):
            fit_alpha_knn(X, U, 0.5, 5).predict(rng.normal(size=(60, 3)))
        assert calls == []

    def test_peak_memory_grows_by_inputs_outputs_and_one_block(self, monkeypatch):
        # Four times the query rows raise the traced peak by at most the
        # larger queries and predictions plus one block's budget; holding
        # every row's (D, k) neighbour arrays at once would add ~4 KB a row.
        import tracemalloc

        rng = np.random.default_rng(44)
        n, k, D, budget_rows = 2000, 50, 4, 40
        X = rng.normal(size=(n, 1))
        model = fit_alpha_knn(X, closure(rng.random((n, D)) + 0.05), 0.5, k, "kdtree")
        self.small_blocks(monkeypatch, budget_rows, k, D)
        model.predict(X[:3])  # builds the tree outside the measurement
        peaks = {}
        for m in (1000, 4000):
            Q = rng.normal(size=(m, 1))
            tracemalloc.start()
            try:
                model.predict(Q)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        growth = peaks[4000] - peaks[1000]
        allowed = 3000 * (1 + D) * 8 + regressors._CHUNK_BYTES // 64
        assert growth <= allowed, (peaks, allowed)


_SEARCHES = [("kdtree", 1), ("kdtree", 2), ("brute", 2)]


class TestKnnGridMemory:
    """`iter_knn_grid_predictions` keeps one (k_max, m) neighbour table,
    int32, filled by searches in query blocks, and closes its cells in
    chunks of ks under a fixed share of `_CHUNK_BYTES`."""

    @staticmethod
    def counted(monkeypatch):
        # Row counts of the searches and cell counts of the closures.
        seen = {"search": [], "close": []}
        query, unpower = neighbors.NeighborIndex.query_batch, regressors._unpower
        monkeypatch.setattr(neighbors.NeighborIndex, "query_batch", lambda self, Q, k: (
            seen["search"].append(len(Q)) or query(self, Q, k)))
        monkeypatch.setattr(regressors, "_unpower", lambda S, a: (
            seen["close"].append(len(S)) or unpower(S, a)))
        return seen

    @pytest.mark.parametrize("strategy, p", _SEARCHES)
    def test_unsorted_grid_in_small_chunks_equals_predict(self, monkeypatch, strategy, p):
        # Chunks of two cells: (10, 3), (10, 40), (3, 61).  The second goes on
        # from the ten ranks already summed, the third sums again from rank
        # 0, and k = 61 exceeds n.  Searches at k_max = 60 in blocks of five rows.
        rng = np.random.default_rng(17 + p)
        X = np.round(rng.normal(size=(60, p)), 1)
        U = closure(rng.random((60, 4)) + 0.05)
        Q = np.round(rng.normal(size=(40, p)), 1)
        alphas, ks = (-1.0, 0.0, 0.5), (10, 3, 10, 40, 3, 61)
        expected = [(ai, ki, fit_alpha_knn(X, U, a, k, strategy=strategy).predict(Q)
                     if k <= 60 else None) for ai, a in enumerate(alphas) for ki, k in enumerate(ks)]
        index = build_index(X, strategy=strategy)
        monkeypatch.setattr(regressors, "_CHUNK_BYTES", 128 * 2 * 40 * 4 * 8)
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 64 * 40 * 8)
        seen = self.counted(monkeypatch)
        got = list(iter_knn_grid_predictions(index, U, Q, alphas, ks))
        assert [c[:2] for c in got] == [c[:2] for c in expected]
        for (_, _, want), (_, _, cell) in zip(expected, got):
            assert cell is None if want is None else np.array_equal(cell, want)
        assert seen == {"search": [5] * 8, "close": [2, 2, 1] * len(alphas)}

    @pytest.mark.parametrize("strategy, p", _SEARCHES)
    def test_wide_grid_holds_its_table_and_a_few_blocks(self, strategy, p):
        # 2,000 query rows at ks 2..500: the int32 table is 4 MB.  Whole-fold
        # int64 indices and distances, a transposed copy and an alpha's 499
        # cells (32 MB) would hold several times the bound.
        rng = np.random.default_rng(5)
        n, m, D = 5000, 2000, 4
        X = rng.normal(size=(n, p))
        U = closure(rng.random((n, D)) + 0.05)
        Q = rng.normal(size=(m, p))
        index = build_index(X, strategy=strategy)
        index.query_batch(Q[:2], 2)  # builds the tree outside the measurement
        ks = range(2, 501)
        tracemalloc.start()
        try:
            for _, _, cell in iter_knn_grid_predictions(index, U, Q, (0.5, 1.0), ks):
                assert cell.shape == (m, D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 4 * m * max(ks)
        assert peak <= table + 4 * (regressors._CHUNK_BYTES // 64), (peak, table)

    def test_table_is_int32(self, monkeypatch, rng):
        X, U = make_data(rng, n=50, p=1)
        takes = []
        take = np.take
        monkeypatch.setattr(regressors.np, "take", lambda a, idx, **kw: (
            a is U and takes.append(idx.dtype)) or take(a, idx, **kw))
        # 3 x 7 < 50 gathers the neighbours' responses through the table.
        list(iter_knn_grid_predictions(build_index(X), U, X[:3], (0.5,), (7,)))
        assert takes == [np.dtype(np.int32)]


class TestPredictorGate:
    """Every family checks its predictor rows by one rule, with one width
    message and one magnitude bound."""

    @pytest.mark.parametrize("fit", [
        lambda X, U: fit_alpha_knn(X, U, 0.5, 5),
        lambda X, U: fit_alpha_kernel(X, U, 0.5, 1.0),
        lambda X, U: fit_kld(X, U),
        lambda X, U: fit_logratio_ols(X, U),
    ], ids=["knn", "kernel", "kld", "ols"])
    def test_one_width_message(self, rng, fit):
        model = fit(*make_data(rng, n=50, p=2))
        with pytest.raises(ValidationError,
                           match="^query width 3 does not match the model's 2 predictors$"):
            model.predict(rng.normal(size=(6, 3)))

    @pytest.mark.parametrize("fit", [
        lambda X, U: fit_alpha_kernel(X, U, 1.0, 1.0),
        lambda X, U: fit_kld(X, U),
        lambda X, U: fit_logratio_ols(X, U),
    ], ids=["kernel", "kld", "ols"])
    def test_oversized_training_row(self, rng, fit):
        X, U = make_data(rng, n=30, p=1)
        X[4, 0] = 1e200
        with pytest.raises(ValidationError, match="^training row 4 exceeds magnitude"):
            fit(X, U)

    def test_kernel_oversized_query_row(self, rng):
        model = fit_alpha_kernel(*make_data(rng, n=30, p=1), 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^query row 1 exceeds magnitude"):
                model.predict([[0.0], [1e200]])


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


class TestKernelGemmRoutes:
    """Tune's cells keep predict's bits on both sides of `_STACK_MULADDS`.
    A BLAS whose stacked columns round unlike the one-alpha GEMM at these
    shapes (say, a small-matrix cutoff moved past the constant) fails here."""

    @pytest.fixture
    def widths(self, monkeypatch):
        # Column counts of the GEMMs the kernel iterator runs.
        seen = []
        matmul = np.matmul

        def counting(a, b, *args, **kwargs):
            seen.append(b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        return seen

    # One block each.  rows * n * D = 6e5 (OpenBLAS's small-matrix kernel,
    # where stacking would change the bits), 1.2e6 and 2.88e6 (fewer rows
    # than the 84 stacked columns) run per alpha; 2.4e6 and 4.2e6 stack.
    @pytest.mark.parametrize("n, m, n_alphas, stacked", [
        (1500, 100, 5, False),
        (1500, 200, 5, False),
        (1500, 400, 5, True),
        (1500, 700, 5, True),
        (12000, 60, 21, False),
    ])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_cells_equal_predict_around_the_constant(self, widths, kernel, n, m,
                                                     n_alphas, stacked):
        rng = np.random.default_rng(n + m)
        X, U = make_data(rng, n=n, p=2, D=4)
        Q = rng.normal(size=(m, 2))
        alphas = tuple(np.linspace(-1.0, 1.0, n_alphas))
        hs = (0.5, 2.0)
        cells = list(iter_kernel_grid_predictions(X, U, Q, alphas, hs, kernel))
        assert (4 * n_alphas in widths) == stacked
        assert widths.count(4) == (0 if stacked else len(hs) * n_alphas)
        for ai, hi, pred in cells:
            model = fit_alpha_kernel(X, U, alphas[ai], hs[hi], kernel)
            assert np.array_equal(pred, model.predict(Q)), (ai, hi)


class TestKernelRowIndependence:
    """A query row's kernel prediction does not depend on the other rows of
    the call when every block's GEMM has at least `_STACK_MULADDS`
    multiply-adds: the whole batch (one 4.8e6 block) equals its two halves
    (2.4e6 each) stacked, bit for bit."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_halves_equal_whole_batch(self, kernel):
        rng = np.random.default_rng(43)
        X, U = make_data(rng, n=1500, p=2, D=4)
        Q = rng.normal(size=(800, 2))
        assert 400 * 1500 * 4 >= _STACK_MULADDS
        for a in (-0.5, 0.0, 0.5, 1.0):
            for h in (0.3, 1.0):
                model = fit_alpha_kernel(X, U, a, h, kernel)
                halves = [model.predict(Q[:400]), model.predict(Q[400:])]
                assert np.array_equal(model.predict(Q), np.vstack(halves)), (a, h)


class TestKernelBlockRule:
    """Kernel query blocks hold at least R = max(ceil(`_STACK_MULADDS` /
    (n * D)), A * D + 1) rows, so a large-n call stacks its alphas and the
    block buffers stay O(R * n) however many rows are queried."""

    def test_large_n_takes_the_stacked_route(self, monkeypatch):
        rng = np.random.default_rng(30)
        X, U = make_data(rng, n=30_000, p=2, D=4)
        Q = rng.normal(size=(200, 2))
        alphas = tuple(np.linspace(-1.0, 1.0, 21))
        hs = (0.5, 2.0)
        widths = []
        matmul = np.matmul

        def counting(a, b, *args, **kwargs):
            widths.append(b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        cells = list(iter_kernel_grid_predictions(X, U, Q, alphas, hs, "gaussian"))
        monkeypatch.undo()
        # R = 85: four 50-row blocks, each one width-84 GEMM of both
        # bandwidths (100 rows)
        assert widths == [84] * 2 * len(hs)
        for ai, hi, pred in cells:
            if alphas[ai] in (-1.0, 0.0, 1.0):
                model = fit_alpha_kernel(X, U, alphas[ai], hs[hi])
                assert np.array_equal(pred, model.predict(Q)), (ai, hi)

    def test_predict_memory_does_not_grow_with_queries(self):
        rng = np.random.default_rng(31)
        X, U = make_data(rng, n=3000, p=2, D=4)
        Q = rng.normal(size=(5000, 2))
        model = fit_alpha_kernel(X, U, 0.5, 0.7)
        tracemalloc.start()
        try:
            model.predict(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # R = 167: 29 blocks of 172-173 rows, two 4.1 MB buffers
        assert peak < 12 * 2**20


class TestKernelRouteBoundary:
    """The stacked route starts at exactly m = R query rows, whichever term
    of R = max(ceil(`_STACK_MULADDS` / (n * D)), A * D + 1) is larger, and
    the cells keep predict's bits on both sides."""

    @pytest.mark.parametrize("n, D, n_alphas, R", [
        (1500, 4, 5, 334),    # ceil(2e6 / 6000) = 334 > A * D + 1 = 21
        (12_000, 4, 21, 85),  # A * D + 1 = 85 > ceil(2e6 / 48000) = 42
        (20_000, 5, 11, 56),  # A * D + 1 = 56 > ceil(2e6 / 1e5) = 20
    ])
    def test_route_switches_at_R(self, monkeypatch, n, D, n_alphas, R):
        rng = np.random.default_rng(n + D)
        X, U = make_data(rng, n=n, p=2, D=D)
        alphas = tuple(np.linspace(-1.0, 1.0, n_alphas))
        hs = (0.5, 2.0)
        matmul = np.matmul
        for m, widths_want in ((R - 1, [D] * n_alphas * len(hs)),
                               (R, [n_alphas * D] * len(hs))):
            Q = rng.normal(size=(m, 2))
            widths = []

            def counting(a, b, *args, **kwargs):
                widths.append(b.shape[-1])
                return matmul(a, b, *args, **kwargs)

            monkeypatch.setattr(np, "matmul", counting)
            cells = list(iter_kernel_grid_predictions(X, U, Q, alphas, hs, "gaussian"))
            monkeypatch.undo()
            assert widths == widths_want, m
            for ai, hi, pred in cells:
                model = fit_alpha_kernel(X, U, alphas[ai], hs[hi])
                assert np.array_equal(pred, model.predict(Q)), (m, ai, hi)


class TestKernelBandwidthGroups:
    """A stacked call cuts its queries into blocks of b >= ceil(R / H) rows
    and runs groups of g = ceil(R / b) bandwidths as one GEMM of g * b >= R
    weight rows.  It holds fewer than 2R + H weight rows and b rows of
    exponent bases, not a base and a weight buffer of R to 2R - 1 rows
    each, and keeps predict's bits."""

    def test_peak_memory_at_a_tune_fold(self):
        # kernel-small's fold shape: 2,700 training and 300 held-out rows, the
        # default 21 alphas and 10 bandwidths; R = 186 rows.
        rng = np.random.default_rng(24)
        n, m, D = 2700, 300, 4
        X, U = make_data(rng, n=n, p=2, D=D)
        Q = rng.normal(size=(m, 2))
        hs = tuple(np.geomspace(0.05, 5.0, 10))
        alphas = default_alpha_grid()
        A, H = len(alphas), len(hs)
        R = max(-(-_STACK_MULADDS // (n * D)), A * D + 1)
        assert m >= R
        cells = iter_kernel_grid_predictions(X, U, Q, alphas, hs, "gaussian")
        tracemalloc.start()
        try:
            for _, _, pred in cells:
                assert isinstance(pred, np.ndarray)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        powered, S = n * A * D * 8, H * m * A * D * 8
        assert peak < powered + S + 2 * R * n * 8 + 2**20

    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian"])
    def test_groups_keep_predict_bits(self, monkeypatch, kernel):
        # A tune fold of 3,400 rows in ten: R = 164, blocks of b = 17 rows,
        # one group of all ten bandwidths per block.  Query row 200 lies far
        # from every training row, so h = 0.01 dies in block 11 and keeps
        # zero-filled rows in the later blocks' GEMMs.
        rng = np.random.default_rng(24)
        n, m, D = 3060, 340, 4
        X, U = make_data(rng, n=n, p=2, D=D)
        Q = rng.normal(size=(m, 2))
        Q[200] = (10.0, 10.0)
        alphas = (-1.0, 0.0, 0.5, 1.0)
        hs = (0.4, 0.6, 0.9, 1.3, 0.01, 2.0, 3.0, 4.5, 6.5, 10.0)
        R = max(-(-_STACK_MULADDS // (n * D)), len(alphas) * D + 1)
        b = m // (m // -(-R // len(hs)))
        assert m >= R and b < R / 2 and 200 // b < m // b - 1
        rows = []
        matmul = np.matmul

        def counting(a, w, *args, **kwargs):
            rows.append(a.shape[0])
            return matmul(a, w, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        cells = list(iter_kernel_grid_predictions(X, U, Q, alphas, hs, kernel))
        monkeypatch.undo()
        assert len(rows) == m // b and min(rows) >= R
        for ai, hi, pred in cells:
            model = fit_alpha_kernel(X, U, alphas[ai], hs[hi], kernel)
            if hs[hi] == 0.01:
                assert isinstance(pred, DegenerateWeightsError) and pred.query_index == 200
                with pytest.raises(DegenerateWeightsError, match="query row 200"):
                    model.predict(Q)
            else:
                assert np.array_equal(pred, model.predict(Q)), (ai, hi)


@pytest.fixture
def blas_threads():
    """The (get, set) pair the pin uses; the caller's count is restored."""
    pair = regressors._blas_threads()
    if pair is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count symbol")
    caller = pair[0]()
    yield pair
    pair[1](caller)


def _kernel_tune_case(n, m):
    # n training and m held-out rows in every fold
    rng = np.random.default_rng(n)
    X, U = make_data(rng, n=n + m, p=2, D=4)
    grid = TuningGrid(alphas=(-1.0, 0.0, 0.5, 1.0), hs=(0.3, 1.0), folds=(n + m) // m, seed=4)
    return X, U, grid


class TestOneBlasThread:
    """Kernel reports and predictions do not depend on the caller's BLAS
    thread count: the kernel grid iterator, which `tune` and
    `predict_alpha_kernel` run, holds one thread around its GEMMs and
    hands the caller's count back."""

    # Without the pin both reports differ at two threads on OpenBLAS 0.3.31
    # (SkylakeX kernel): (3000, 300) runs one stacked block per fold,
    # (1200, 300) one GEMM per alpha.
    @pytest.mark.parametrize("n, m", [(3000, 300), (1200, 300)])
    def test_forced_threads_give_the_one_thread_report(self, blas_threads, n, m):
        get, set_ = blas_threads
        X, U, grid = _kernel_tune_case(n, m)
        set_(1)
        want = tune(X, U, "alpha-kernel", grid).to_json()
        train = np.arange(n + m) >= m  # a fold of m held-out rows
        cells = list(iter_kernel_grid_predictions(
            X[train], U[train], X[~train], grid.alphas, grid.hs, "gaussian"))
        for threads in (2, 4, 8):
            set_(threads)
            # two fold workers each enter the iterator's pin and share its count
            assert tune(X, U, "alpha-kernel", grid, threads=2).to_json() == want, threads
            assert get() == threads
            for ai, hi, pred in cells[::3]:
                model = fit_alpha_kernel(X[train], U[train], grid.alphas[ai], grid.hs[hi])
                assert np.array_equal(model.predict(X[~train]), pred), (threads, ai, hi)
            assert get() == threads

    def test_caller_count_restored_after_exception(self, blas_threads):
        get, set_ = blas_threads
        set_(3)
        with pytest.raises(RuntimeError):
            with regressors._one_blas_thread():
                assert get() == 1
                with regressors._one_blas_thread():
                    assert get() == 1
                assert get() == 1
                raise RuntimeError
        assert get() == 3
        X, U, grid = _kernel_tune_case(80, 20)
        with pytest.raises(ValidationError):
            tune(X, U, "alpha-kernel", grid, metric="nope")
        assert get() == 3

    def test_concurrent_pins_share_one_count(self, blas_threads):
        get, set_ = blas_threads
        set_(3)
        seen = []

        def worker():
            for _ in range(200):
                with regressors._one_blas_thread():
                    time.sleep(0)  # let another worker enter or leave its pin
                    seen.append(get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        # a pin that restored the count while another was open would show here
        assert seen == [1] * 1600
        assert get() == 3

    def test_tune_runs_without_a_symbol(self, monkeypatch):
        X, U, grid = _kernel_tune_case(80, 20)
        want = tune(X, U, "alpha-kernel", grid).to_json()
        monkeypatch.setattr(regressors, "_blas_threads", lambda: None)
        assert tune(X, U, "alpha-kernel", grid).to_json() == want
        model = fit_alpha_kernel(X, U, 0.5, 1.0)
        assert model.predict(X).shape == U.shape


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

    @pytest.mark.parametrize("query, row", [
        ([[np.nan], [np.inf]], 0),
        ([[0.0, 1.0], [-np.inf, 0.0]], 1),
    ])
    def test_intercept_only_refuses_a_non_finite_query(self, rng, query, row):
        # Like every other family's predict; a query of no columns still counts rows.
        model = fit_kld(None, closure(rng.random((30, 3)) + 0.02))
        with pytest.raises(ValidationError, match=f"^row {row}: non-finite predictor value$"):
            predict_kld(model, query)
        assert predict_kld(model, np.zeros((4, 0))).shape == (4, 3)

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

    def test_collinear_predictors_damp_the_hessian(self, rng):
        # A duplicated column makes the Newton Hessian singular; the ridge
        # retry must fire, be recorded, and still give compositions.
        X, U = make_data(rng, n=80, p=1, D=3)
        assert not fit_kld(X, U).hessian_damped
        model = fit_kld(np.column_stack([X, X]), U)
        assert model.hessian_damped
        pred = model.predict(np.column_stack([X, X])[:5])
        assert np.all(np.isfinite(pred))
        assert np.max(np.abs(pred.sum(axis=1) - 1.0)) <= 1e-12

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


def _pair_loop_hessian(X1, W):
    # The Newton Hessian as fit_kld built it before the block form: one
    # weighted cross-product per class pair, mirrored into both blocks.
    d = W.shape[1]
    q = X1.shape[1]
    H = np.empty((d, q, d, q))
    for a in range(d):
        for b in range(a, d):
            w = W[:, a] * ((1.0 if a == b else 0.0) - W[:, b])
            block = (X1 * w[:, None]).T @ X1
            H[a, :, b, :] = block
            H[b, :, a, :] = block.T
    return H.reshape(d * q, d * q)


def _hessian_inputs(n, d, q):
    rng = np.random.default_rng([n, d, q])
    X1 = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
    return X1, alr_inverse(rng.normal(size=(n, d)))[:, 1:]


def _assert_close_to_pair_loop(H, X1, W):
    # Relative to the largest entry: an entry that sums terms of both signs
    # may cancel to far below its terms, and then only its absolute error
    # is small.
    want = _pair_loop_hessian(X1, W)
    assert H.shape == want.shape
    assert np.abs(H - want).max() <= 1e-13 * np.abs(want).max()


class TestKldHessian:
    """The logit Hessian in block form, blockdiag_a(X1' diag(W_a) X1) - Z'Z
    summed over row blocks, agrees with the class-pair loop it replaced and
    holds memory of one row block, not of n."""

    @pytest.mark.parametrize("n, d, q", [(1, 1, 1), (257, 1, 3), (5000, 4, 2), (20000, 9, 2)])
    def test_equals_pair_loop(self, n, d, q):
        X1, W = _hessian_inputs(n, d, q)
        _assert_close_to_pair_loop(regressors._kld_hessian(X1, W), X1, W)

    def test_many_row_blocks(self, monkeypatch):
        # Blocks of at most 100 rows; 1234 rows is no multiple of them.
        n, d, q = 1234, 3, 3
        monkeypatch.setattr(regressors, "_CHUNK_BYTES", 64 * 8 * d * q * 100)
        seen = []
        row_blocks = regressors._row_blocks

        def recorded(*args):
            seen.append(row_blocks(*args))
            return seen[-1]
        monkeypatch.setattr(regressors, "_row_blocks", recorded)
        X1, W = _hessian_inputs(n, d, q)
        _assert_close_to_pair_loop(regressors._kld_hessian(X1, W), X1, W)
        (blocks,) = seen
        assert len(blocks) == 13 and blocks[-1].stop == n
        assert {b.stop - b.start for b in blocks} == {94, 95}

    @pytest.mark.parametrize("intercept_only", [True, False])
    def test_fit_matches_pair_loop_fit(self, rng, monkeypatch, intercept_only):
        # The intercept-only fit runs the Hessian at q = 1.
        X, U = make_data(rng, n=400, p=2, D=5)
        X = None if intercept_only else X
        fit = fit_kld(X, U)
        monkeypatch.setattr(regressors, "_kld_hessian", _pair_loop_hessian)
        want = fit_kld(X, U)
        assert fit.iterations == want.iterations
        assert fit.hessian_damped == want.hessian_damped
        assert fit.coef.shape == want.coef.shape == (1 if intercept_only else 3, 4)
        assert np.abs(fit.coef - want.coef).max() <= 1e-13 * np.abs(want.coef).max()
        assert abs(fit.objective - want.objective) <= 1e-13 * abs(want.objective)

    def test_traced_peak_does_not_grow_with_n(self):
        d, q = 9, 2
        peaks = {}
        for n in (200_000, 400_000):
            X1, W = _hessian_inputs(n, d, q)
            tracemalloc.start()
            try:
                regressors._kld_hessian(X1, W)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del X1, W
        assert max(peaks.values()) < 3 * 2**20, peaks


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

    @pytest.mark.parametrize("transform", ["alr", "ilr"])
    def test_responses_checked_once(self, monkeypatch, rng, transform):
        # The fit's one part check passes the responses straight to the
        # coordinate kernel: no public map reads or checks them again.
        X, U = make_data(rng, n=40, p=2, D=4)
        expected = fit_logratio_ols(X, U, transform).coef
        calls = []

        def counted(module, name):
            inner = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append(name) or inner(*args))
        counted(regressors, "_check_alpha_parts")
        counted(transforms, "_check_alpha_parts")
        counted(transforms, "_as_rows")
        coef = fit_logratio_ols(X, U, transform).coef
        assert calls == ["_check_alpha_parts"]
        assert np.array_equal(coef, expected)


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
