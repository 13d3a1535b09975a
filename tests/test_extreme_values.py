"""The public API at extreme values: no warning escapes, every refusal names
its row or column.

Each case sets one seeded cell of otherwise ordinary input to +-1e308,
+-1e155, 1e-300, 5e-324, 0, nan or +-inf and calls an array-taking public
function under warnings-as-errors; a second sweep sets two cells of one
row, whose sum can overflow where one cell's does not.  A finite
nonnegative cell of a composition is also tried with its row re-closed, so
tiny parts get past the composition gate.
The call must return a finite result, closed for compositions, or raise a
SimplexRegError that names a row or column and prints plain numbers.  The
CSV writer instead must read back every float it was given, nan and inf
included.  `simplexreg` has no `__all__`, so the names are listed here, and
a guard fails for any public function that is neither swept nor listed as
taking no array.
"""

import inspect
import io
import re
import warnings

import numpy as np
import pytest

import simplexreg
from simplexreg import (
    AlphaKnnSpec,
    SimplexRegError,
    TuningGrid,
    alpha_inverse,
    alpha_transform,
    alr,
    alr_inverse,
    apply_standardization,
    as_composition,
    as_composition_matrix,
    as_predictor_matrix,
    build_index,
    closure,
    clr,
    clr_inverse,
    cross_validated_score,
    default_h_grid,
    fit_alpha_kernel,
    fit_alpha_knn,
    fit_kld,
    fit_logratio_ols,
    frechet_mean,
    frechet_path,
    ilr,
    ilr_inverse,
    inject_zeros,
    js_divergence,
    kl_divergence,
    latlon_to_euclidean,
    pairwise_distances,
    power_transform,
    predict_alpha_kernel,
    predict_alpha_knn,
    predict_kld,
    predict_logratio_ols,
    simplex_link,
    standardize,
    tune,
    validate_composition_matrix,
    weighted_frechet_mean,
    write_csv,
    write_dataset_csv,
)

EXTREMES = (1e308, -1e308, 1e155, -1e155, 1e-300, 5e-324, 0.0, np.nan, np.inf, -np.inf)
ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
N, D, P = 12, 4, 2

_rng = np.random.default_rng(27)
BASES = {
    "U": closure(_rng.random((N, D)) + 0.05),  # row compositions
    "X": _rng.normal(size=(N, P)),  # predictors
    "Z": 0.1 * _rng.normal(size=(N, D - 1)),  # inside every alpha's image
    "Y": _rng.normal(size=(N, D)),  # clr coordinates
    "W": _rng.random((N, 1)) + 0.1,  # weights, one column
    "L": 40 * _rng.uniform(-1, 1, size=(N, 2)),  # latitude, longitude
    "S": _rng.random((P, 1)) + 0.5,  # a center or scale, one per predictor
}
U0, X0 = BASES["U"], BASES["X"]


def _kl(y, q):
    # kl_divergence is +inf exactly where a zero of q faces a positive part
    # of y, as documented; every other row must be finite.
    out = kl_divergence(y, q)
    inf = ((q == 0) & (y > 0)).any(axis=1)
    assert np.array_equal(np.isinf(out), inf)
    return out[~inf]


def _read_back(write, expect=None):
    # What `write(stream)` wrote, as numbers.  With `expect`, the writer's own
    # contract is checked instead: every float reads back bit for bit, nan and
    # inf included, and nothing is left for the finiteness check.
    fh = io.StringIO()
    write(fh)
    back = np.loadtxt(io.StringIO(fh.getvalue()), delimiter=",", skiprows=1, ndmin=2)
    if expect is not None:
        assert np.array_equal(back, expect, equal_nan=True)
        return np.zeros(0)
    return back


def _cases():
    # (id, call, base, closed): closed results are checked as compositions.
    yield "closure", closure, "U", True
    yield "as_composition", lambda U: np.array([as_composition(u) for u in U]), "U", True
    yield "as_composition_matrix", as_composition_matrix, "U", True
    yield "validate_composition_matrix", (
        lambda U: np.array(validate_composition_matrix(U).column_zero_counts)), "U", False
    yield "as_predictor_matrix", as_predictor_matrix, "X", False
    for f in (alr, clr, ilr):
        yield f.__name__, f, "U", False
    for f, base in ((alr_inverse, "Z"), (clr_inverse, "Y"), (ilr_inverse, "Z"),
                    (simplex_link, "Z")):
        yield f.__name__, f, base, True
    yield "inject_zeros", lambda U: inject_zeros(U, 0.5, 0), "U", True
    for a in ALPHAS:
        yield f"power_transform({a})", lambda U, a=a: power_transform(U, a), "U", True
        yield f"alpha_transform({a})", lambda U, a=a: alpha_transform(U, a), "U", False
        yield f"alpha_inverse({a})", lambda Z, a=a: alpha_inverse(Z, a), "Z", True
        yield f"frechet_mean({a})", lambda U, a=a: frechet_mean(U, a), "U", True
        yield f"weighted_frechet_mean({a})", (
            lambda U, a=a: weighted_frechet_mean(U, np.arange(1.0, N + 1), a)), "U", True
        yield f"weighted_frechet_mean({a})-weights", (
            lambda W, a=a: weighted_frechet_mean(U0, W[:, 0], a)), "W", True
    yield "frechet_path", lambda U: np.array([m for _, m in frechet_path(U, ALPHAS)]), "U", True
    yield "kl_divergence-y", lambda U: _kl(U, U0[::-1]), "U", False
    yield "kl_divergence-yhat", lambda U: _kl(U0[::-1], U), "U", False
    yield "js_divergence-y", lambda U: js_divergence(U, U0[::-1]), "U", False
    yield "js_divergence-yhat", lambda U: js_divergence(U0[::-1], U), "U", False
    yield "standardize", lambda X: np.concatenate([a.ravel() for a in standardize(X)]), "X", False
    center, scale = X0.mean(axis=0), X0.std(axis=0)
    yield "apply_standardization-X", lambda X: apply_standardization(X, center, scale), "X", False
    yield "apply_standardization-center", (
        lambda S: apply_standardization(X0, S[:, 0], scale)), "S", False
    yield "apply_standardization-scale", (
        lambda S: apply_standardization(X0, center, S[:, 0])), "S", False
    yield "latlon_to_euclidean", lambda L: latlon_to_euclidean(L[:, 0], L[:, 1]), "L", False
    yield "write_csv", (
        lambda X: _read_back(lambda fh: write_csv(fh, X.T, ["a", "b"]), X)), "X", False
    yield "write_dataset_csv-X", (
        lambda X: _read_back(lambda fh: write_dataset_csv(fh, X, U0))), "X", False
    yield "write_dataset_csv-U", (
        lambda U: _read_back(lambda fh: write_dataset_csv(fh, X0, U))), "U", False
    yield "pairwise_distances-A", lambda X: pairwise_distances(X, X0), "X", False
    yield "pairwise_distances-B", lambda X: pairwise_distances(X0, X), "X", False
    yield "build_index", lambda X: build_index(X).query_batch(X0, 3)[1], "X", False
    yield "query_batch", lambda X: build_index(X0).query_batch(X, 3)[1], "X", False
    yield "default_h_grid", lambda X: np.array(default_h_grid(X)), "X", False
    fits = {
        "alpha_knn(0.5)": (lambda X, U: fit_alpha_knn(X, U, 0.5, 3), predict_alpha_knn),
        "alpha_knn(-0.5)": (lambda X, U: fit_alpha_knn(X, U, -0.5, 3), predict_alpha_knn),
        "alpha_kernel(0.5)": (lambda X, U: fit_alpha_kernel(X, U, 0.5, 1.0), predict_alpha_kernel),
        "alpha_kernel(-0.5)": (
            lambda X, U: fit_alpha_kernel(X, U, -0.5, 1.0), predict_alpha_kernel),
        "kld": (fit_kld, predict_kld),
        "logratio_ols(alr)": (lambda X, U: fit_logratio_ols(X, U, "alr"), predict_logratio_ols),
        "logratio_ols(ilr)": (lambda X, U: fit_logratio_ols(X, U, "ilr"), predict_logratio_ols),
    }
    for name, (fit, predict) in fits.items():
        yield f"fit_{name}-X", lambda X, f=fit, p=predict: p(f(X, U0), X0), "X", True
        yield f"fit_{name}-U", lambda U, f=fit, p=predict: p(f(X0, U), X0), "U", True
        yield f"predict_{name}-query", lambda Q, f=fit, p=predict: p(f(X0, U0), Q), "X", True
    grid = TuningGrid(alphas=(0.5,), ks=(2, 3), folds=3)
    yield "tune-X", lambda X: np.array([tune(X, U0, "alpha-knn", grid).selected_score]), "X", False
    yield "tune-U", lambda U: np.array([tune(X0, U, "alpha-knn", grid).selected_score]), "U", False
    spec = AlphaKnnSpec(0.5, 3)
    yield "cross_validated_score-X", (
        lambda X: np.array([cross_validated_score(X, U0, spec, folds=3).kl])), "X", False
    yield "cross_validated_score-U", (
        lambda U: np.array([cross_validated_score(X0, U, spec, folds=3).kl])), "U", False


CASES = list(_cases())
_PLACE = re.compile(r"\b(row|column) \d+\b")
_NUMPY_REPR = re.compile(r"\bnp\.\w+\(")


def _inputs(ci, vi, cells=1):
    case_id, _, base, _ = CASES[ci]
    value = EXTREMES[vi]
    arr = BASES[base].copy()
    if cells == 1:
        cell = tuple(int(i) for i in np.random.default_rng([ci, vi]).integers(arr.shape))
    else:
        rng = np.random.default_rng([ci, vi, cells])
        cell = (int(rng.integers(arr.shape[0])), rng.choice(arr.shape[1], cells, replace=False))
    arr[cell] = value
    yield arr
    if base == "U" and 0 <= value < np.inf:  # re-closing inf would divide inf by inf
        arr = arr.copy()
        if cells > 1:  # two parts of 1e308 sum past the float maximum
            arr[cell[0]] /= arr[cell[0]].max()
        arr[cell[0]] /= arr[cell[0]].sum()
        yield arr


@pytest.mark.parametrize("vi", range(len(EXTREMES)), ids=[repr(v) for v in EXTREMES])
@pytest.mark.parametrize("ci", range(len(CASES)), ids=[c[0] for c in CASES])
def test_finite_or_refused_by_place(ci, vi):
    _check_outcomes(ci, _inputs(ci, vi))


_WIDE = [ci for ci, c in enumerate(CASES) if BASES[c[2]].shape[1] > 1]


@pytest.mark.parametrize("vi", range(len(EXTREMES)), ids=[repr(v) for v in EXTREMES])
@pytest.mark.parametrize("ci", _WIDE, ids=[CASES[ci][0] for ci in _WIDE])
def test_two_extreme_cells_in_one_row(ci, vi):
    _check_outcomes(ci, _inputs(ci, vi, cells=2))


def test_closing_parts_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(closure([1e308, 1e308, 1.0]), [0.5, 0.5, 5e-309])
        assert np.array_equal(power_transform([1e308, 1e308], 1.0), [0.5, 0.5])
        # Only a slice whose sum would overflow is rescaled.
        ordinary = [0.1, 0.7, 0.3]
        assert np.array_equal(closure([ordinary, [1e308, 1e308, 1.0]])[0], closure(ordinary))


def _check_outcomes(ci, inputs):
    _, call, _, closed = CASES[ci]
    for arr in inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call(arr)
            except SimplexRegError as err:
                msg = str(err)
                assert not _NUMPY_REPR.search(msg), msg
                assert _PLACE.search(msg), msg
                continue
        out = np.asarray(out, dtype=float)
        assert np.all(np.isfinite(out))
        if closed:
            assert np.all(out >= 0)
            assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12


def test_sweep_reaches_both_outcomes():
    # The sweep is only a check if some extreme cells are accepted and some refused.
    outcomes = {}
    for ci, (case_id, call, _, _) in enumerate(CASES):
        for vi in range(len(EXTREMES)):
            for arr in _inputs(ci, vi):
                try:
                    call(arr)
                    outcomes.setdefault("returned", set()).add(case_id)
                except SimplexRegError:
                    outcomes.setdefault("refused", set()).add(case_id)
    assert len(outcomes["returned"]) == len(CASES)
    assert len(outcomes["refused"]) > len(CASES) / 2


# Public functions that take no array, so the sweep has no cell to set.
_NO_ARRAY = {"check_alpha", "default_alpha_grid", "default_k_grid", "gen_polynomial",
             "gen_segmented", "generate", "helmert_submatrix", "load_csv", "make_folds",
             "run_bench"}


def test_every_public_function_is_swept_or_takes_no_array():
    public = {name for name, value in vars(simplexreg).items()
              if not name.startswith("_") and inspect.isfunction(value)}
    swept = {re.match(r"\w+", case[0]).group() for case in CASES}
    assert public - swept - _NO_ARRAY == set()
    assert _NO_ARRAY <= public and not _NO_ARRAY & swept
