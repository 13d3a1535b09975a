"""Divergence metrics and cross-validated hyperparameter tuning.

Tuning evaluates a full (alpha, k) or (alpha, h) grid under seeded
k-fold cross-validation and picks the cell with the smallest mean
held-out divergence, breaking ties toward the smaller alpha and then the
smaller k or h.  Fold assignment, scoring, and the serialized report are
all deterministic functions of the inputs and the seed; the optional
thread pool only distributes folds, never reorders the reduction.

Folds score the cells of each family's grid iterator, whose single-cell
case is that family's `predict`, with one scorer per fold (`_scorer`,
which also serves both public divergences and keeps no buffers).  Cells
and the fold's held-out responses are parts-major (Fortran-ordered), so
a divergence's sum over the D parts is D - 1 whole-column adds.  For
D <= 7 that rounds exactly like a row-major sum; for D >= 8 the order
differs from one, but every fold and thread count shares it.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import TuningError, ValidationError
# pairwise_distances and closure stay bound for benchmark/tracing.py.
from .neighbors import (_CHUNK_BYTES, _check_k, _distances_to, build_index,
                        pairwise_distances)  # noqa: F401
from .regressors import (_check_bandwidth, _check_kernel, _fit_arrays,
                         iter_kernel_grid_predictions, iter_knn_grid_predictions)
from .simplex import (SUM_TOL, _as_floats, _check_count, _check_real, _check_seed, _grid_axis,
                      _plain, _predictor_gate, _refuse)
from .simplex import closure  # noqa: F401
from .transforms import _check_alpha_parts, check_alpha

REPORT_SCHEMA_VERSION = 1

METRICS = ("kl", "js")

DEFAULT_CLAMP = 1e-12


def _check_pair(y, yhat):
    y, yhat = _as_floats(y, "y"), _as_floats(yhat, "yhat")
    if y.shape != yhat.shape:
        raise ValidationError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    if y.ndim not in (1, 2):
        raise ValidationError(f"inputs must be 1-D or 2-D, got ndim={y.ndim}")
    single, y, yhat = y.ndim == 1, np.atleast_2d(y), np.atleast_2d(yhat)
    # No part of a composition lies outside [0, 1 + SUM_TOL], and within it no
    # term of either divergence overflows.
    for name, arr in (("y", y), ("yhat", yhat)):
        _refuse(~((arr >= 0) & (arr <= 1 + SUM_TOL)), lambda r, j: (
            f"{name} row {r}: part {_plain(arr[r, j])!r} lies outside [0, 1]"))
    return y, yhat, single


def _check_clamp(clamp, D):
    # A clamp >= 1/D floors a uniform prediction in all D parts, so that
    # different predictions score alike.
    clamp = _check_real("clamp", clamp)
    if not (np.isfinite(clamp) and 0 <= clamp < 1.0 / D):
        raise ValidationError(
            f"clamp must be finite and nonnegative and below 1/D for D = {D} parts, "
            f"got {clamp!r}"
        )
    return clamp


def _kl_terms(y, log_y, zero, log_q):
    # y log(y / q) as y (log y - log q); 0 where y = 0 (mask `zero`, or None).
    out = np.subtract(log_y, log_q)
    np.multiply(y, out, out=out)
    if zero is not None:
        np.copyto(out, 0.0, where=zero)
    return out


def _scorer(metric, y, clamp=0.0):
    """The rows' divergences of predictions q from fixed responses y (m, D).

    log y and y's zero mask are worked out once for a tune fold's cells.
    Each call's terms are fresh arrays laid out as numpy lays out (y, q),
    so a row's score depends on that call alone.  Both public divergences
    score through this one function.
    """
    positive = y > 0
    zero = None if positive.all() else ~positive
    with np.errstate(divide="ignore", invalid="ignore"):
        log_y = np.log(y)

    def rows(q):
        with np.errstate(divide="ignore", invalid="ignore"):
            if metric == "kl":
                t = _kl_terms(y, log_y, zero, np.log(np.maximum(q, clamp) if clamp > 0 else q))
            else:  # both halves against m = (y + q) / 2
                log_m = np.log(0.5 * (y + q))
                t = _kl_terms(y, log_y, zero, log_m)
                t += _kl_terms(q, np.log(q), ~(q > 0), log_m)
        return t.sum(axis=1)

    return rows


def kl_divergence(y, yhat, clamp=0.0):
    """Kullback-Leibler divergence of yhat from y, rowwise.

    Terms with y_i = 0 contribute zero.  With clamp = 0 a zero predicted
    component facing positive truth yields +inf; a positive clamp, which
    must be below 1/D for D parts, floors yhat at that value first.
    A part of y or yhat outside [0, 1] is refused, naming its row.
    Returns a scalar for vector inputs, a length-n array for matrix inputs.
    """
    y, yhat, single = _check_pair(y, yhat)
    out = _scorer("kl", y, _check_clamp(clamp, y.shape[1]))(yhat)
    return float(out[0]) if single else out


def js_divergence(y, yhat):
    """Jensen-Shannon divergence, rowwise; symmetric and always finite.

    Attains its maximum 2 log 2 on disjoint-support pairs.  Parts are
    checked as in `kl_divergence`.
    """
    y, yhat, single = _check_pair(y, yhat)
    out = _scorer("js", y)(yhat)
    return float(out[0]) if single else out


def make_folds(n, folds=10, seed=0):
    """Deterministic fold labels: a seeded permutation dealt round-robin.

    Returns an int array of length n with values in [0, folds); fold
    sizes differ by at most one.
    """
    n = _check_count("n", n, 1)
    folds = _check_count("folds", folds, 2)
    if n < folds:
        raise ValidationError(f"cannot split {n} rows into {folds} folds")
    perm = np.random.default_rng(_check_seed(seed)).permutation(n)
    labels = np.empty(n, dtype=np.int64)
    labels[perm] = np.arange(n, dtype=np.int64) % folds
    return labels


@dataclass(frozen=True)
class TuningGrid:
    """Search grid: exponents crossed with either ks or hs."""

    alphas: tuple
    ks: tuple = None
    hs: tuple = None
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if (self.ks is None) == (self.hs is None):
            raise ValidationError("exactly one of ks or hs must be given")
        # Each value passes the rule fit applies to the same parameter.
        axis = ("ks", _check_k) if self.hs is None else ("hs", _check_bandwidth)
        for name, check in (("alphas", check_alpha), axis):
            object.__setattr__(self, name, _grid_axis(name, getattr(self, name), check))
        object.__setattr__(self, "folds", _check_count("folds", self.folds, 2))
        # The seed is reported, so it is an int, never a SeedSequence.
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))


def default_alpha_grid(zero_free=True):
    """21 exponents -1..1 in steps of 0.1, or the 10 positive ones when
    the data carries zeros."""
    if zero_free:
        vals = np.round(np.linspace(-1.0, 1.0, 21), 10) + 0.0
    else:
        vals = np.round(np.linspace(0.1, 1.0, 10), 10) + 0.0
    return tuple(float(v) for v in vals)


def default_k_grid():
    """Neighborhood sizes 2..10 then 15, 20, 25, ..., 50."""
    return tuple(range(2, 11)) + (15,) + tuple(range(20, 51, 5))


def default_h_grid(X, seed=0):
    """Ten log-spaced bandwidths spanning the 1st to 50th percentile of
    the pairwise distance distribution, estimated from 1000 sampled
    pairs."""
    X = _predictor_gate(X, "training")
    n = X.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 rows to estimate bandwidths")
    rng = np.random.default_rng(_check_seed(seed))
    i = rng.integers(0, n, size=1000)
    j = rng.integers(0, n - 1, size=1000)
    j = j + (j >= i)  # uniform over off-diagonal pairs
    d = _distances_to(X[i], X[j])
    lo = float(np.percentile(d, 1))
    hi = float(np.percentile(d, 50))
    if hi <= 0:
        raise ValidationError("sampled pairwise distances are all zero")
    if lo <= 0:
        lo = float(d[d > 0].min())
    return tuple(float(v) for v in np.geomspace(lo, hi, 10))


@dataclass(frozen=True)
class DivergenceScore:
    """Pooled held-out divergences from one cross-validation run."""

    kl: float
    js: float
    rows: int
    fold_kl: tuple
    fold_js: tuple


@dataclass(frozen=True)
class TuningReport:
    family: str
    metric: str
    clamp: float
    seed: int
    folds: int
    fold_sizes: tuple
    alphas: tuple
    ks: tuple
    hs: tuple
    kernel: str
    mean_divergence: tuple  # rows: alphas, cols: ks or hs; None = infeasible
    selected_alpha: float
    selected_k: int
    selected_h: float
    selected_score: float
    per_fold_selected_scores: tuple

    def to_dict(self):
        """The fields, less the other family's (None); selected_* nest
        under "selected"."""
        out = {key: v for key, v in asdict(self).items() if v is not None}
        selected = {key[len("selected_"):]: out.pop(key) for key in list(out)
                    if key.startswith("selected_")}
        return {"schema_version": REPORT_SCHEMA_VERSION, **out, "selected": selected}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def tune(X, U, model_family, grid, metric="kl", clamp=DEFAULT_CLAMP,
         kernel=None, threads=1):
    """Cross-validated grid search for one model family.

    Parameters
    ----------
    X, U : array_like
        Predictors (n, p) and row compositions (n, D).
    model_family : {"alpha-knn", "alpha-kernel"}
        Which regressor the grid describes; "alpha-knn" needs grid.ks,
        "alpha-kernel" needs grid.hs.
    grid : TuningGrid
    metric : {"kl", "js"}
        Held-out divergence to minimize.
    clamp : float
        Floor applied to predicted components inside the kl metric; in
        [0, 1/D) for D parts.
    kernel : str or None
        Kernel name of the kernel family (None means "gaussian"); the
        k-NN family takes none.
    threads : int
        Worker threads across folds.  Results are byte-identical for any
        thread count.

    Returns
    -------
    TuningReport

    A k-NN grid whose fold neighbour table (4 bytes a held-out row and
    rank, up to the training rows) would pass `_CHUNK_BYTES` is refused
    with a ValidationError before any fold runs.
    """
    X, U = _fit_arrays(X, U)
    if model_family not in ("alpha-knn", "alpha-kernel"):
        raise ValidationError(
            f"model_family must be 'alpha-knn' or 'alpha-kernel', got {model_family!r}"
        )
    if not isinstance(grid, TuningGrid):
        raise ValidationError("grid must be a TuningGrid")
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    clamp = _check_clamp(clamp, U.shape[1])
    threads = _check_count("threads", threads, 1)
    if model_family == "alpha-knn":
        if grid.ks is None:
            raise ValidationError("alpha-knn tuning needs grid.ks")
        if kernel is not None:
            raise ValidationError(f"alpha-knn tuning takes no kernel, got {kernel!r}")
        axis2 = grid.ks
    else:
        if grid.hs is None:
            raise ValidationError("alpha-kernel tuning needs grid.hs")
        kernel = _check_kernel("gaussian" if kernel is None else kernel)
        axis2 = grid.hs
    # The smallest grid alpha powers every part to its largest value; a k-NN
    # cell sums up to k of them, a kernel cell averages them.
    terms = min(max(grid.ks), len(U)) if model_family == "alpha-knn" else 1
    _check_alpha_parts(U, min(grid.alphas), "tune: responses", terms, ValidationError)

    n = X.shape[0]
    labels = make_folds(n, grid.folds, grid.seed)
    counts = np.bincount(labels, minlength=grid.folds)
    if model_family == "alpha-knn":
        # A fold's neighbour table, 4 bytes a held-out row and rank, is its
        # one array that grows with m * k; it stays within one budget.
        table, m = max((4 * int(c) * min(max(grid.ks), n - int(c)), int(c)) for c in counts)
        if table > _CHUNK_BYTES:
            raise ValidationError(
                f"tune: k = {max(grid.ks)} over a fold of {m} held-out rows needs a "
                f"{table}-byte neighbour table, above the {_CHUNK_BYTES}-byte budget")
    shape = (len(grid.alphas), len(axis2))

    def run_fold(fold):
        # Summed held-out divergence per cell; a cell that yields anything
        # but predictions (None, or an error object) is infeasible.
        train = labels != fold
        test = ~train
        if model_family == "alpha-knn":
            index = build_index(X[train], strategy="auto")
            cells = iter_knn_grid_predictions(
                index, U[train], X[test], grid.alphas, grid.ks
            )
        else:
            cells = iter_kernel_grid_predictions(
                X[train], U[train], X[test], grid.alphas, grid.hs, kernel
            )
        score = _scorer(metric, np.asfortranarray(U[test]), clamp)  # parts-major, like the cells
        sums = np.zeros(shape)
        infeasible = np.zeros(shape, dtype=bool)
        for i, j, pred in cells:
            if isinstance(pred, np.ndarray):
                sums[i, j] = score(pred).sum()
            else:
                infeasible[i, j] = True
        return sums, infeasible

    fold_ids = list(range(grid.folds))
    if threads == 1:
        results = [run_fold(f) for f in fold_ids]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_fold, fold_ids))

    # Fixed-order reduction keeps totals identical for any thread count.
    total = np.zeros(shape)
    infeasible = np.zeros(shape, dtype=bool)
    for sums, bad in results:
        total += sums
        infeasible |= bad
    if infeasible.all():
        raise TuningError("no feasible grid cell")

    mean = total / n
    # Smallest mean divergence, ties to the smaller alpha, then k or h.
    score, best_alpha, best_b = min(
        (float(mean[ai, bi]), a, b)
        for ai, a in enumerate(grid.alphas) for bi, b in enumerate(axis2)
        if not infeasible[ai, bi]
    )
    ai = grid.alphas.index(best_alpha)
    bi = axis2.index(best_b)
    per_fold = tuple(float(results[f][0][ai, bi] / counts[f]) for f in fold_ids)
    cells = tuple(
        tuple(
            None if infeasible[i, j] else float(mean[i, j])
            for j in range(len(axis2))
        )
        for i in range(len(grid.alphas))
    )
    return TuningReport(
        family=model_family,
        metric=metric,
        clamp=clamp,
        seed=grid.seed,
        folds=grid.folds,
        fold_sizes=tuple(int(c) for c in counts),
        alphas=grid.alphas,
        ks=grid.ks,
        hs=grid.hs,
        kernel=kernel,
        mean_divergence=cells,
        selected_alpha=float(best_alpha),
        selected_k=int(best_b) if model_family == "alpha-knn" else None,
        selected_h=float(best_b) if model_family == "alpha-kernel" else None,
        selected_score=float(score),
        per_fold_selected_scores=per_fold,
    )


def cross_validated_score(X, U, model_spec, folds=10, seed=0, clamp=DEFAULT_CLAMP):
    """Pooled held-out divergences of one fixed model specification.

    Fits `model_spec` on each training split and scores its predictions
    on the held-out rows; both divergences are reported so families can
    be compared on identical folds.
    """
    X, U = _fit_arrays(X, U)
    if not callable(getattr(model_spec, "fit", None)):
        raise ValidationError(f"model_spec needs a fit method, got {type(model_spec).__name__}")
    clamp = _check_clamp(clamp, U.shape[1])
    n = X.shape[0]
    labels = make_folds(n, folds, seed)
    total_kl = 0.0
    total_js = 0.0
    fold_kl = []
    fold_js = []
    for fold in range(folds):
        train = labels != fold
        test = ~train
        model = model_spec.fit(X[train], U[train])
        pred = model.predict(X[test])
        kl_rows = kl_divergence(U[test], pred, clamp=clamp)
        js_rows = js_divergence(U[test], pred)
        total_kl += kl_rows.sum()
        total_js += js_rows.sum()
        fold_kl.append(float(kl_rows.mean()))
        fold_js.append(float(js_rows.mean()))
    return DivergenceScore(
        kl=float(total_kl / n),
        js=float(total_js / n),
        rows=n,
        fold_kl=tuple(fold_kl),
        fold_js=tuple(fold_js),
    )
