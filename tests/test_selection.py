"""Divergence metrics, fold assignment, and grid tuning.

The tie-break tests construct data whose held-out divergence is exactly
0.0 in several cells at once (dyadic compositions keep every power mean
bit-exact), so the lexicographic preference for smaller alpha and
smaller k is observable without relying on float coincidences.
"""

import json
import math
import warnings

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
from simplexreg import neighbors, regressors, selection
from simplexreg.neighbors import build_index
from simplexreg.regressors import iter_knn_grid_predictions
from simplexreg.selection import DEFAULT_CLAMP, _scorer


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

    @pytest.mark.parametrize("divergence", [kl_divergence, js_divergence])
    @pytest.mark.parametrize("y, yhat, fault", [
        ([[0.5, 0.5], [1e308, 0.1]], [[0.5, 0.5], [0.5, 0.5]], r"y row 1: part 1e\+308"),
        ([0.5, 0.5], [-0.25, 1.25], r"yhat row 0: part -0\.25"),
        ([0.5, 0.5], [math.nan, 1.0], r"yhat row 0: part nan"),
    ])
    def test_part_outside_unit_interval_names_its_row(self, divergence, y, yhat, fault):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^{fault} lies outside \[0, 1\]$"):
                divergence(y, yhat)

    @pytest.mark.parametrize("clamp", [math.nan, math.inf, -math.inf])
    def test_nonfinite_clamp_rejected(self, clamp):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            kl_divergence([0.5, 0.5], [0.5, 0.5], clamp=clamp)


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


def _reference_terms(y, q):
    # The divergence terms as written before the per-fold scorer.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(y > 0, y * (np.log(y) - np.log(q)), 0.0)


def _reference_rows(metric, y, q, clamp):
    if metric == "kl":
        return _reference_terms(y, np.maximum(q, clamp) if clamp > 0 else q).sum(axis=1)
    m = 0.5 * (y + q)
    return (_reference_terms(y, m) + _reference_terms(q, m)).sum(axis=1)


class TestFoldScorer:
    """One scorer serves a fold's every cell; each cell's sum, and the
    public divergences' rows, keep the bits of the terms written out in
    full, for either prediction layout, with and without zero parts, at
    D = 9 too, where the sum over the parts of a Fortran-ordered row
    rounds unlike a C-ordered one."""

    @staticmethod
    def _cells(rng, m, D, zeros, order):
        y = closure(rng.random((m, D)) ** 3 + 1e-9)
        cells = [closure(rng.random((m, D)) ** 3 + 1e-9) for _ in range(4)]
        if zeros:
            y[::3, 0] = 0.0
            for c in cells:
                c[1::4, -1] = 0.0
            cells[0][::3, 0] = 0.0  # a zero facing a zero
        return np.array(y, order=order), [np.array(c, order=order) for c in cells]

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("m", [1, 300, 9000])
    @pytest.mark.parametrize("D", [3, 7, 9])
    @pytest.mark.parametrize("metric,clamp", [("kl", 0.0), ("kl", 1e-12), ("js", 0.0)])
    def test_sums_equal_reference(self, metric, clamp, D, m, zeros, order):
        rng = np.random.default_rng(D * m + zeros)
        y, cells = self._cells(rng, m, D, zeros, order)
        score = _scorer(metric, y, clamp)
        public = (lambda q: kl_divergence(y, q, clamp)) if metric == "kl" else (
            lambda q: js_divergence(y, q))
        for q in cells:
            want = _reference_rows(metric, y, q, clamp)
            got = score(q)
            assert np.array_equal(got, want) and got.sum() == want.sum()
            assert np.array_equal(public(q), want)

    @pytest.mark.parametrize("metric", ["kl", "js"])
    def test_public_rows_keep_mixed_layouts(self, metric):
        # A C-ordered truth against a Fortran-ordered prediction (a kernel
        # cell) sums its rows as numpy does for that pair.
        rng = np.random.default_rng(9)
        y, (q, *_) = self._cells(rng, 50, 9, True, "C")
        for yy, qq in ((y, np.asfortranarray(q)), (np.asfortranarray(y), q)):
            got = kl_divergence(yy, qq, 1e-12) if metric == "kl" else js_divergence(yy, qq)
            assert np.array_equal(got, _reference_rows(metric, yy, qq, 1e-12))

    @pytest.mark.parametrize("metric", ["kl", "js"])
    def test_tune_sums_equal_reference(self, metric):
        # Every cell's mean in the report, at D = 9 and with zeros.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 1))
        U = rng.random((120, 9)) ** 3 + 1e-6
        U[::5, 2] = 0.0
        U = closure(U)
        grid = TuningGrid(alphas=(0.3, 1.0), ks=(2, 9, 30), folds=4, seed=3)
        report = tune(X, U, "alpha-knn", grid, metric=metric)
        labels = make_folds(120, 4, 3)
        total = np.zeros((2, 3))
        for f in range(4):
            train, test = labels != f, labels == f
            y = np.asfortranarray(U[test])
            for i, j, pred in iter_knn_grid_predictions(
                    build_index(X[train]), U[train], X[test], grid.alphas, grid.ks):
                total[i, j] += _reference_rows(metric, y, pred, DEFAULT_CLAMP).sum()
        assert report.mean_divergence == tuple(tuple(float(v) for v in r) for r in total / 120)


class TestScorerKeepsNoState:
    """A scorer's rows for q are those of a fresh scorer, whatever layouts
    it scored before; at D >= 8 a sum over the parts of a Fortran-ordered
    row rounds unlike a C-ordered one, so a kept buffer would show."""

    @pytest.mark.parametrize("D", [4, 9, 12])
    @pytest.mark.parametrize("metric,clamp", [("kl", 0.0), ("kl", 1e-12), ("js", 0.0)])
    def test_rows_independent_of_earlier_layouts(self, metric, clamp, D):
        rng = np.random.default_rng(D)
        y = np.asfortranarray(closure(rng.random((300, D)) ** 3 + 1e-9))  # as in a tune fold
        q = closure(rng.random((300, D)) ** 3 + 1e-9)
        for first, then in ((np.asfortranarray(q), q), (q, np.asfortranarray(q))):
            score = _scorer(metric, y, clamp)
            score(first)
            assert np.array_equal(score(then), _scorer(metric, y, clamp)(then))


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

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="non-negative integer"):
            make_folds(10, folds=2, seed=seed)


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

    def test_default_h_grid_starts_at_smallest_positive_distance(self):
        # One predictor rounded to 0.1: a few percent of the sampled pairs
        # coincide, so the 1st percentile is 0 and the grid starts at the
        # smallest positive sampled distance instead.
        X = np.round(np.random.default_rng(3).normal(size=(2000, 1)), 1)
        rng = np.random.default_rng(0)
        i = rng.integers(0, len(X), size=1000)
        j = rng.integers(0, len(X) - 1, size=1000)
        d = np.abs(X[i, 0] - X[j + (j >= i), 0])
        assert 0.01 < np.mean(d == 0) < 0.05
        hs = default_h_grid(X, seed=0)
        assert hs[0] == d[d > 0].min() > 0
        assert hs[-1] == pytest.approx(np.percentile(d, 50), rel=1e-12)

    def test_negative_seeds_rejected(self):
        X = np.random.default_rng(4).normal(size=(20, 2))
        with pytest.raises(ValidationError, match="non-negative integer"):
            default_h_grid(X, seed=-1)
        with pytest.raises(ValidationError, match="non-negative integer"):
            TuningGrid(alphas=(0.5,), ks=(3,), seed=-1)


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
            with pytest.raises(ValidationError, match="threads must be an integer >= 1"):
                tune(X, U, "alpha-knn", grid, threads=bad)

    @pytest.mark.parametrize("clamp", [math.nan, math.inf])
    def test_nonfinite_clamp_rejected(self, clamp):
        # Either would reach the report as a bare NaN or -Infinity score.
        rng = np.random.default_rng(8)
        X = rng.normal(size=40)
        U = closure(rng.random((40, 3)) + 0.05)
        grid = TuningGrid(alphas=(1.0,), ks=(3,), folds=10, seed=0)
        for metric in ("kl", "js"):
            with pytest.raises(ValidationError, match="finite and nonnegative"):
                tune(X, U, "alpha-knn", grid, metric=metric, clamp=clamp)

    def test_per_fold_scores_are_fold_means(self):
        # Fold sizes differ (43 rows in 10 folds); each per-fold score is
        # that fold's summed divergence over its own row count.
        rng = np.random.default_rng(9)
        X = rng.normal(size=43)
        U = closure(rng.random((43, 3)) + 0.05)
        grid = TuningGrid(alphas=(0.5,), ks=(4,), folds=10, seed=2)
        report = tune(X, U, "alpha-knn", grid)
        assert sorted(set(report.fold_sizes)) == [4, 5]
        labels = make_folds(43, 10, 2)
        for f, score in enumerate(report.per_fold_selected_scores):
            test = labels == f
            model = AlphaKnnSpec(alpha=0.5, k=4).fit(X[~test], U[~test])
            rows = kl_divergence(U[test], model.predict(X[test]), clamp=1e-12)
            assert score == pytest.approx(rows.mean(), rel=1e-12)

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


class TestKnnTuneTable:
    """A k-NN fold keeps one int32 (k_max, held-out rows) neighbour table,
    searched in query blocks; tune refuses, before any fold runs, a grid
    whose table would exceed `_CHUNK_BYTES`."""

    @staticmethod
    def data(p):
        rng = np.random.default_rng(31 + p)
        X = np.round(rng.normal(size=(600, p)), 1)
        return X, closure(rng.random((600, 4)) + 0.02)

    GRID = TuningGrid(alphas=(-0.5, 0.5, 1.0), ks=(2, 9, 30, 4), folds=5, seed=4)

    @pytest.mark.parametrize("p", [1, 2])
    def test_blocked_search_writes_the_same_report(self, monkeypatch, p):
        # Folds of 120 held-out rows searched at k = 30 (480 bytes of indices
        # and distances a row) in blocks of ten rows.
        X, U = self.data(p)
        whole = tune(X, U, "alpha-knn", self.GRID).to_json()
        monkeypatch.setattr(regressors, "_CHUNK_BYTES", 64 * 480 * 10)
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 64 * 480)
        blocks, query = [], neighbors.NeighborIndex.query_batch
        monkeypatch.setattr(neighbors.NeighborIndex, "query_batch", lambda self, Q, k: (
            blocks.append(len(Q)) or query(self, Q, k)))
        assert tune(X, U, "alpha-knn", self.GRID).to_json() == whole
        assert blocks == [10] * 12 * self.GRID.folds

    def test_refuses_a_table_over_budget(self, monkeypatch):
        # Folds of 120 held-out and 480 training rows: 4 * 120 * 30 bytes.
        X, U = self.data(1)
        built = []
        monkeypatch.setattr(selection, "build_index", lambda *a, **kw: built.append(a))
        monkeypatch.setattr(selection, "_CHUNK_BYTES", 14399)
        with pytest.raises(ValidationError, match=(
                r"^tune: k = 30 over a fold of 120 held-out rows needs a 14400-byte "
                r"neighbour table, above the 14399-byte budget$")):
            tune(X, U, "alpha-knn", self.GRID)
        assert built == []
        # A k above the training rows needs a table of only those ranks.
        grid = TuningGrid(alphas=(1.0,), ks=(3, 5000), folds=5, seed=4)
        with pytest.raises(ValidationError, match=r"^tune: k = 5000 .* 230400-byte "):
            tune(X, U, "alpha-knn", grid)
        monkeypatch.undo()
        monkeypatch.setattr(selection, "_CHUNK_BYTES", 14400)
        tune(X, U, "alpha-knn", self.GRID)

    def test_kernel_grid_has_no_table(self, monkeypatch):
        X, U = self.data(1)
        monkeypatch.setattr(selection, "_CHUNK_BYTES", 1)
        tune(X[:100], U[:100], "alpha-kernel",
             TuningGrid(alphas=(1.0,), hs=(0.5,), folds=2, seed=0))


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

    def test_kernel_only_for_the_kernel_family(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 1))
        U = closure(rng.random((40, 3)) + 0.05)
        kgrid = TuningGrid(alphas=(1.0,), ks=(3,), folds=5, seed=0)
        for kernel in ("bogus", "gaussian"):
            with pytest.raises(ValidationError, match="takes no kernel"):
                tune(X, U, "alpha-knn", kgrid, kernel=kernel)
        assert tune(X, U, "alpha-knn", kgrid).kernel is None
        hgrid = TuningGrid(alphas=(1.0,), hs=(0.5, 1.0), folds=5, seed=0)
        default = tune(X, U, "alpha-kernel", hgrid)
        assert default.kernel == "gaussian"
        assert default.to_json() == tune(X, U, "alpha-kernel", hgrid,
                                         kernel="gaussian").to_json()

    def test_laplacian_kernel_runs(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 1))
        U = closure(rng.random((60, 3)) + 0.05)
        grid = TuningGrid(alphas=(1.0,), hs=(0.5, 1.0), folds=10, seed=0)
        report = tune(X, U, "alpha-kernel", grid, kernel="laplacian")
        assert report.kernel == "laplacian"


class TestPredictorGateBeforeFolds:
    """tune, cross_validated_score and default_h_grid check the whole
    predictor matrix before any fold split, so an error names its row."""

    @staticmethod
    def oversized(row=17):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 1))
        X[row, 0] = 1e200
        return X, closure(rng.random((40, 3)) + 0.05)

    @pytest.mark.parametrize("family, axis", [("alpha-knn", {"ks": (3,)}),
                                              ("alpha-kernel", {"hs": (0.5,)})])
    def test_tune_names_the_row_of_the_matrix(self, family, axis):
        grid = TuningGrid(alphas=(1.0,), folds=4, seed=0, **axis)
        with pytest.raises(ValidationError, match="^training row 17 exceeds magnitude"):
            tune(*self.oversized(), family, grid)

    def test_cross_validated_score_and_h_grid(self):
        X, U = self.oversized()
        with pytest.raises(ValidationError, match="^training row 17 exceeds magnitude"):
            cross_validated_score(X, U, AlphaKnnSpec(alpha=1.0, k=3), folds=4)
        with pytest.raises(ValidationError, match="^training row 17 exceeds magnitude"):
            default_h_grid(X)


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


class TestCrossValidatedScoreArguments:
    """A spec without a fit method and a bad clamp are refused before any
    fold is fitted."""

    def test_spec_without_fit(self):
        X, U = quadruplet_data()
        with pytest.raises(ValidationError, match="^model_spec needs a fit method, got function$"):
            cross_validated_score(X, U, lambda X, U: None)

    def test_clamp_checked_before_the_first_fit(self):
        X, U = quadruplet_data()
        fits = []

        class Spec:
            def fit(self, X, U):
                fits.append(len(X))
                return AlphaKnnSpec(alpha=1.0, k=1).fit(X, U)

        with pytest.raises(ValidationError, match="^clamp must be finite"):
            cross_validated_score(X, U, Spec(), clamp=1.0)
        assert fits == []
        cross_validated_score(X, U, Spec(), folds=2)
        assert len(fits) == 2


class TestSharedParameterRules:
    """A grid value is rejected exactly when fit rejects the same parameter."""

    @pytest.mark.parametrize("k", [2.7, True, 0, -3, np.bool_(True)])
    def test_bad_k_rejected_by_grid_and_fit(self, k):
        from simplexreg import fit_alpha_knn

        X, U = quadruplet_data()
        with pytest.raises(ValidationError, match="k must be an integer >= 1"):
            TuningGrid(alphas=(0.5,), ks=(3, k))
        with pytest.raises(ValidationError, match="k must be an integer >= 1"):
            fit_alpha_knn(X, U, 0.5, k)

    def test_integer_ks_kept(self):
        grid = TuningGrid(alphas=(0.5,), ks=(np.int64(4), 2))
        assert grid.ks == (4, 2) and all(type(k) is int for k in grid.ks)

    @pytest.mark.parametrize("h", [0.0, math.nan, -1.0, math.inf])
    def test_bad_h_rejected_by_grid_and_fit(self, h):
        from simplexreg import fit_alpha_kernel

        X, U = quadruplet_data()
        with pytest.raises(ValidationError, match="bandwidth h must be positive and finite"):
            TuningGrid(alphas=(0.5,), hs=(1.0, h))
        with pytest.raises(ValidationError, match="bandwidth h must be positive and finite"):
            fit_alpha_kernel(X, U, 0.5, h)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError, match="ks grid is empty"):
            TuningGrid(alphas=(0.5,), ks=())

    def test_unknown_kernel_same_message_in_tune_and_fit(self):
        from simplexreg import fit_alpha_kernel

        X, U = quadruplet_data()
        grid = TuningGrid(alphas=(1.0,), hs=(1.0,), folds=10, seed=0)
        for kernel in ("box", []):
            with pytest.raises(ValidationError) as from_tune:
                tune(X, U, "alpha-kernel", grid, kernel=kernel)
            with pytest.raises(ValidationError) as from_fit:
                fit_alpha_kernel(X, U, 1.0, 1.0, kernel=kernel)
            assert str(from_tune.value) == str(from_fit.value)


class TestClampBound:
    """A clamp of 1/D or more floors a uniform prediction in every part."""

    def test_kl_divergence_boundary(self):
        y = [0.1, 0.2, 0.3, 0.4]
        with pytest.raises(ValidationError, match="D = 4"):
            kl_divergence(y, [0.25] * 4, clamp=0.25)
        below = np.nextafter(0.25, 0.0)
        assert kl_divergence(y, [0.25] * 4, clamp=below) == kl_divergence(y, [0.25] * 4)
        # Below the bound two different predictions still score differently.
        assert (kl_divergence(y, [0.0, 0.0, 0.5, 0.5], clamp=0.2)
                != kl_divergence(y, [0.0, 0.0, 0.0, 1.0], clamp=0.2))

    def test_tune_boundary(self):
        X, U = quadruplet_data()
        D = U.shape[1]
        grid = TuningGrid(alphas=(1.0,), ks=(2, 3), folds=10, seed=0)
        with pytest.raises(ValidationError, match=f"D = {D}"):
            tune(X, U, "alpha-knn", grid, clamp=1.0 / D)
        with pytest.raises(ValidationError, match=f"D = {D}"):
            tune(X, U, "alpha-knn", grid, clamp=2.0)
        report = tune(X, U, "alpha-knn", grid, clamp=np.nextafter(1.0 / D, 0.0))
        assert report.clamp < 1.0 / D


class TestReportKeys:
    """The report's keys are TuningReport's fields, less the other family's."""

    COMMON = {"schema_version", "family", "metric", "clamp", "seed", "folds", "fold_sizes",
              "alphas", "mean_divergence", "selected", "per_fold_selected_scores"}

    def test_knn_keys(self):
        X, U = quadruplet_data()
        grid = TuningGrid(alphas=(0.5, 1.0), ks=(1, 3), folds=10, seed=0)
        payload = json.loads(tune(X, U, "alpha-knn", grid).to_json())
        assert set(payload) == self.COMMON | {"ks"}
        assert set(payload["selected"]) == {"alpha", "k", "score"}
        assert payload["schema_version"] == 1

    def test_kernel_keys(self):
        X, U = quadruplet_data()
        grid = TuningGrid(alphas=(0.5, 1.0), hs=(0.5, 2.0), folds=10, seed=0)
        payload = json.loads(tune(X, U, "alpha-kernel", grid).to_json())
        assert set(payload) == self.COMMON | {"hs", "kernel"}
        assert set(payload["selected"]) == {"alpha", "h", "score"}

    def test_infeasible_cells_stay_null(self):
        rng = np.random.default_rng(11)
        X = np.concatenate([rng.normal(size=30), rng.normal(size=30) + 1e4])
        U = closure(rng.random((60, 3)) + 0.05)
        grid = TuningGrid(alphas=(1.0,), hs=(1e-8, 50.0), folds=10, seed=0)
        payload = json.loads(tune(X, U, "alpha-kernel", grid).to_json())
        assert payload["mean_divergence"][0][0] is None
