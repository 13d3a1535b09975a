"""The package's scalar rules: one each for counts, real numbers, seeds and grid axes.

`simplex._check_count`, `simplex._check_real`, `simplex._check_seed` and
`simplex._grid_axis` are the only integer, real-number, seed and grid-axis
checks; every constructor and public entry point that takes a count, an
alpha, a bandwidth, a seed or a grid goes through them, so the same value
is accepted or rejected, with the parameter named, at every call site.
"""

import math

import numpy as np
import pytest

from simplexreg import closure, fit_alpha_kernel, fit_alpha_knn, fit_kld, frechet_path
from simplexreg.bench import BenchScenario
from simplexreg.datagen import SimSpec, generate, inject_zeros
from simplexreg.errors import ValidationError
from simplexreg.selection import TuningGrid, default_h_grid, kl_divergence, make_folds, tune
from simplexreg.simplex import _check_count, _check_real, _check_seed, _grid_axis
from simplexreg.transforms import check_alpha, helmert_submatrix


def data(n=40, seed=8):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 1)), closure(rng.random((n, 3)) + 0.05)


def bench(**kwargs):
    base = dict(n_grid=(60,), d_grid=(3,), queries=8, repeats=1, alphas=(1.0,), ks=(2,))
    base.update(kwargs)
    return BenchScenario(**base)


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 3.0, np.float32(3.0)])
    def test_integral_values_become_plain_ints(self, value):
        out = _check_count("n", value)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value", [True, np.bool_(False), 2.5, math.nan, math.inf, None,
                                       "3", 1 + 0j])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValidationError, match="n must be an integer, got "):
            _check_count("n", value)

    @pytest.mark.parametrize("minimum, rule", [
        (None, "an integer"), (0, "a non-negative integer"), (2, "an integer >= 2"),
    ])
    def test_message_states_the_rule(self, minimum, rule):
        with pytest.raises(ValidationError, match=f"^n must be {rule}, got 2.5$"):
            _check_count("n", 2.5, minimum)
        if minimum is not None:
            with pytest.raises(ValidationError, match=f"^n must be {rule}, got -1$"):
                _check_count("n", -1, minimum)
        else:
            assert _check_count("n", -1) == -1

    @pytest.mark.parametrize("value, shown", [(np.float64(2.5), "2.5"), (np.bool_(True), "True"),
                                              (np.int64(0), "0")])
    def test_numpy_values_print_as_plain_values(self, value, shown):
        with pytest.raises(ValidationError, match=f"^k must be an integer >= 1, got {shown}$"):
            _check_count("k", value, 1)

    def test_minimum_is_inclusive(self):
        assert _check_count("folds", 2, 2) == 2
        assert _check_count("seed", 0, 0) == 0


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.5, np.float32(0.5), 1, np.int64(-3), math.nan])
    def test_numbers_become_plain_floats(self, value):
        out = _check_real("x", value)
        assert type(out) is float and (out == float(value) or math.isnan(out))

    @pytest.mark.parametrize("value", [
        True, np.bool_(False), None, "abc", [1.0], 1 + 0j,
        pytest.param("2.5", id="str"), pytest.param(np.str_("2.5"), id="numpy-str"),
        pytest.param(b"2.5", id="bytes"), pytest.param(10**400, id="int-past-float"),
    ])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(ValidationError, match="^x must be a number, got "):
            _check_real("x", value)

    def test_numeric_strings_rejected_at_the_api(self):
        # As _check_count rejects "3" for k, the real-number rule rejects
        # "0.5" for alpha and "2" for h.
        X, U = data()
        with pytest.raises(ValidationError, match="^alpha must be a number, got '0.5'$"):
            check_alpha("0.5")
        with pytest.raises(ValidationError, match="^bandwidth h must be a number, got '2'$"):
            fit_alpha_kernel(X, U, 0.5, "2")
        with pytest.raises(ValidationError, match="^k must be an integer >= 1, got '3'$"):
            fit_alpha_knn(X, U, 0.5, "3")


    def test_numpy_values_print_as_plain_values(self):
        with pytest.raises(ValidationError, match="^x must be a number, got '2.5'$"):
            _check_real("x", np.str_("2.5"))


class TestRemainingRealParameters:
    """tol, clamp, the simulation's noise scale and zero fractions take the
    real-number rule, then keep their own range checks."""

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("name, call", [
        ("tol", lambda v: fit_kld(*data(), tol=v)),
        ("clamp", lambda v: kl_divergence([0.5, 0.5], [0.5, 0.5], clamp=v)),
        ("clamp", lambda v: tune(*data(), "alpha-knn", TuningGrid(alphas=(1.0,), ks=(3,)),
                                 clamp=v)),
        ("noise_scale", lambda v: SimSpec(n=10, D=3, noise_scale=v)),
        ("zero_fraction", lambda v: SimSpec(n=10, D=3, zero_fraction=v)),
        ("fraction", lambda v: inject_zeros(data()[1], v, 0)),
    ], ids=["tol", "kl-clamp", "tune-clamp", "noise_scale", "zero_fraction", "inject_zeros"])
    def test_non_numbers_rejected(self, name, call, value):
        with pytest.raises(ValidationError, match=f"^{name} must be a number, got {value!r}$"):
            call(value)

    def test_sim_spec_stores_plain_floats(self):
        spec = SimSpec(n=10, D=3, noise_scale=np.float32(0.5), zero_fraction=0)
        assert (spec.noise_scale, spec.zero_fraction) == (0.5, 0.0)
        assert type(spec.noise_scale) is float and type(spec.zero_fraction) is float
        with pytest.raises(ValidationError, match="^noise_scale must be nonnegative"):
            SimSpec(n=10, D=3, noise_scale=-1)
        with pytest.raises(ValidationError, match=r"^fraction must lie in \[0, 1\)"):
            inject_zeros(data()[1], math.nan, 0)


class TestCheckSeed:
    def test_seed_sequence_passes_unchanged(self):
        seq = np.random.SeedSequence(7)
        assert _check_seed(seq) is seq

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, [1, 2]])
    def test_other_seeds_are_counts(self, seed):
        with pytest.raises(ValidationError, match="data_seed must be a non-negative integer"):
            _check_seed(seed, "data_seed")

    def test_integral_float_seed_is_an_int(self):
        assert type(_check_seed(np.float64(5.0))) is int


class TestGridAxis:
    def test_values_checked_one_by_one(self):
        assert _grid_axis("alphas", [0, 0.5, np.float64(1)], check_alpha) == (0.0, 0.5, 1.0)
        assert _grid_axis("alphas", 0.5, check_alpha) == (0.5,)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="^xs grid is empty$"):
            _grid_axis("xs", (), check_alpha)

    def test_values_are_not_coerced_before_the_check(self):
        # A numeric array would turn (2, True) into (2, 1) and 2.7 into 2.
        with pytest.raises(ValidationError, match="got True"):
            _grid_axis("ks", (2, True), lambda v: _check_count("k", v, 1))


class TestCallSitesRejectWhatTheyUsedToMisread:
    """Each call here was accepted or ended in a numpy TypeError before."""

    @pytest.mark.parametrize("field", ["predictors", "degree"])
    def test_sim_spec_bool_counts(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be an integer >= 1, got True"):
            SimSpec(n=10, D=3, **{field: True})

    def test_non_integral_seeds(self):
        with pytest.raises(ValidationError, match="coef_seed must be a non-negative integer"):
            generate(SimSpec(n=10, D=3, coef_seed=1.5))
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            make_folds(10, 2, seed=1.5)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            TuningGrid(alphas=(1.0,), ks=(3,), seed=2.5)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            default_h_grid(data()[0], seed=True)

    def test_fractional_max_iter(self):
        X, U = data()
        with pytest.raises(ValidationError, match="max_iter must be an integer >= 1, got 2.5"):
            fit_kld(X, U, max_iter=2.5)

    @pytest.mark.parametrize("threads", [2.5, True, None])
    def test_tune_threads(self, threads):
        X, U = data()
        grid = TuningGrid(alphas=(1.0,), ks=(3,))
        with pytest.raises(ValidationError, match="threads must be an integer"):
            tune(X, U, "alpha-knn", grid, threads=threads)

    @pytest.mark.parametrize("h", ["abc", None, [1.0], True, np.bool_(True)])
    def test_bandwidth_must_be_a_number(self, h):
        X, U = data()
        with pytest.raises(ValidationError, match="^bandwidth h must be a number, got "):
            fit_alpha_kernel(X, U, 0.5, h)
        with pytest.raises(ValidationError, match="^bandwidth h must be a number, got "):
            TuningGrid(alphas=(0.5,), hs=(1.0, h))

    @pytest.mark.parametrize("alpha", [True, np.bool_(False)])
    def test_bool_alpha_rejected(self, alpha):
        X, U = data()
        with pytest.raises(ValidationError, match="^alpha must be a number, got "):
            fit_alpha_knn(X, U, alpha, 2)
        with pytest.raises(ValidationError, match="^alpha must be a number, got "):
            TuningGrid(alphas=(0.5, alpha), ks=(3,))

    @pytest.mark.parametrize("alpha, match", [(5.0, r"alpha must lie in \[-1, 1\]"),
                                              (math.nan, "alpha must be finite")])
    def test_bench_alphas_follow_the_alpha_rule(self, alpha, match):
        with pytest.raises(ValidationError, match=match):
            bench(alphas=(alpha,))

    @pytest.mark.parametrize("axis", ["alphas", "ks"])
    def test_bench_empty_axis(self, axis):
        with pytest.raises(ValidationError, match=f"^{axis} grid is empty$"):
            bench(**{axis: ()})

    def test_frechet_path_empty_grid(self):
        with pytest.raises(ValidationError, match="alphas grid is empty"):
            frechet_path(data()[1], [])

    @pytest.mark.parametrize("call", [
        lambda: SimSpec(n=None, D=3),
        lambda: make_folds(10, None),
        lambda: TuningGrid(alphas=(1.0,), ks=(3,), folds=None),
        lambda: helmert_submatrix(None),
        lambda: bench(queries=None),
        lambda: fit_alpha_knn(*data(), 0.5, None),
    ])
    def test_none_rejected(self, call):
        with pytest.raises(ValidationError, match="must be an integer"):
            call()


class TestIntegralFloatsAccepted:
    """A float of integral value means the same as the int everywhere."""

    def test_same_results_as_ints(self):
        X, U = data()
        assert np.array_equal(fit_alpha_knn(X, U, 0.5, 2.0).predict(X),
                              fit_alpha_knn(X, U, 0.5, 2).predict(X))
        assert np.array_equal(make_folds(20, 10.0, seed=3.0), make_folds(20, 10, seed=3))
        assert helmert_submatrix(3.0) is helmert_submatrix(3)
        a, b = SimSpec(n=10.0, D=3.0, coef_seed=4.0), SimSpec(n=10, D=3, coef_seed=4)
        assert a == b and type(a.n) is int and type(a.coef_seed) is int
        assert all(np.array_equal(u, v) for u, v in zip(generate(a), generate(b)))
        grid = TuningGrid(alphas=(1.0,), ks=(3.0,), folds=5.0, seed=1.0)
        assert (grid.ks, grid.folds, grid.seed) == ((3,), 5, 1)
        assert type(grid.folds) is int and type(grid.seed) is int
        report = tune(X, U, "alpha-knn", grid, threads=2.0)
        assert report.to_json() == tune(
            X, U, "alpha-knn", TuningGrid(alphas=(1.0,), ks=(3,), folds=5, seed=1)).to_json()
