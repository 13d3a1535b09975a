"""Divergence metrics and cross-validated hyperparameter tuning.

Tuning evaluates a full (alpha, k) or (alpha, h) grid under seeded
k-fold cross-validation and picks the cell with the smallest mean
held-out divergence, breaking ties toward the smaller alpha and then the
smaller k or h.  Fold assignment, scoring, and the serialized report are
all deterministic functions of the inputs and the seed; the optional
thread pool only distributes folds, never reorders the reduction.

Folds score the cells of each family's grid iterator, whose single-cell
case is that family's `predict`.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import TuningError, ValidationError
# pairwise_distances and closure stay bound for benchmark/tracing.py.
from .neighbors import _distances_to, build_index, pairwise_distances  # noqa: F401
from .regressors import KERNELS, iter_kernel_grid_predictions, iter_knn_grid_predictions
from .simplex import as_composition_matrix, as_predictor_matrix, closure  # noqa: F401
from .transforms import check_alpha

REPORT_SCHEMA_VERSION = 1

METRICS = ("kl", "js")

DEFAULT_CLAMP = 1e-12


def _check_pair(y, yhat):
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise ValidationError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    if y.ndim == 1:
        return y[None, :], yhat[None, :], True
    if y.ndim != 2:
        raise ValidationError(f"inputs must be 1-D or 2-D, got ndim={y.ndim}")
    return y, yhat, False


def kl_divergence(y, yhat, clamp=0.0):
    """Kullback-Leibler divergence of yhat from y, rowwise.

    Terms with y_i = 0 contribute zero.  With clamp = 0 a zero predicted
    component facing positive truth yields +inf; a positive clamp floors
    yhat at that value first.  Returns a scalar for vector inputs, a
    length-n array for matrix inputs.
    """
    y, yhat, single = _check_pair(y, yhat)
    clamp = float(clamp)
    if clamp < 0:
        raise ValidationError(f"clamp must be nonnegative, got {clamp!r}")
    q = np.maximum(yhat, clamp) if clamp > 0 else yhat
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y > 0, y * (np.log(y) - np.log(q)), 0.0)
    out = terms.sum(axis=1)
    return float(out[0]) if single else out


def js_divergence(y, yhat):
    """Jensen-Shannon divergence, rowwise; symmetric and always finite.

    Attains its maximum 2 log 2 on disjoint-support pairs.
    """
    y, yhat, single = _check_pair(y, yhat)
    m = 0.5 * (y + yhat)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(y > 0, y * (np.log(y) - np.log(m)), 0.0)
        t2 = np.where(yhat > 0, yhat * (np.log(yhat) - np.log(m)), 0.0)
    out = (t1 + t2).sum(axis=1)
    return float(out[0]) if single else out


def _divergence_rows(metric, y, yhat, clamp):
    if metric == "kl":
        return kl_divergence(y, yhat, clamp=clamp)
    return js_divergence(y, yhat)


def make_folds(n, folds=10, seed=0):
    """Deterministic fold labels: a seeded permutation dealt round-robin.

    Returns an int array of length n with values in [0, folds); fold
    sizes differ by at most one.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if not isinstance(folds, (int, np.integer)) or folds < 2:
        raise ValidationError(f"folds must be an integer >= 2, got {folds!r}")
    if n < folds:
        raise ValidationError(f"cannot split {n} rows into {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
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
        alphas = tuple(check_alpha(a) for a in np.atleast_1d(self.alphas))
        if not alphas:
            raise ValidationError("alpha grid is empty")
        object.__setattr__(self, "alphas", alphas)
        if (self.ks is None) == (self.hs is None):
            raise ValidationError("exactly one of ks or hs must be given")
        if self.ks is not None:
            ks = tuple(int(k) for k in np.atleast_1d(self.ks))
            if not ks or any(k < 1 for k in ks):
                raise ValidationError(f"ks must be integers >= 1, got {self.ks!r}")
            object.__setattr__(self, "ks", ks)
        else:
            hs = tuple(float(h) for h in np.atleast_1d(self.hs))
            if not hs or any(not np.isfinite(h) or h <= 0 for h in hs):
                raise ValidationError(f"hs must be positive and finite, got {self.hs!r}")
            object.__setattr__(self, "hs", hs)
        if not isinstance(self.folds, (int, np.integer)) or self.folds < 2:
            raise ValidationError(f"folds must be an integer >= 2, got {self.folds!r}")


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


def default_h_grid(X, seed=0, size=10):
    """Ten log-spaced bandwidths spanning the 1st to 50th percentile of
    the pairwise distance distribution, estimated from 1000 sampled
    pairs."""
    X = as_predictor_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 rows to estimate bandwidths")
    rng = np.random.default_rng(seed)
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
    return tuple(float(v) for v in np.geomspace(lo, hi, size))


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
        out = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "family": self.family,
            "metric": self.metric,
            "clamp": self.clamp,
            "seed": self.seed,
            "folds": self.folds,
            "fold_sizes": list(self.fold_sizes),
            "alphas": list(self.alphas),
            "mean_divergence": [list(row) for row in self.mean_divergence],
            "selected": {"alpha": self.selected_alpha, "score": self.selected_score},
            "per_fold_selected_scores": list(self.per_fold_selected_scores),
        }
        if self.ks is not None:
            out["ks"] = list(self.ks)
            out["selected"]["k"] = self.selected_k
        if self.hs is not None:
            out["hs"] = list(self.hs)
            out["selected"]["h"] = self.selected_h
            out["kernel"] = self.kernel
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def tune(X, U, model_family, grid, metric="kl", clamp=DEFAULT_CLAMP,
         kernel="gaussian", threads=1):
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
        Floor applied to predicted components inside the kl metric.
    kernel : str
        Kernel name, used by the kernel family only.
    threads : int
        Worker threads across folds.  Results are byte-identical for any
        thread count.

    Returns
    -------
    TuningReport
    """
    X = as_predictor_matrix(X)
    U = as_composition_matrix(U)
    if X.shape[0] != U.shape[0]:
        raise ValidationError(
            f"predictors have {X.shape[0]} rows, responses {U.shape[0]}"
        )
    if model_family not in ("alpha-knn", "alpha-kernel"):
        raise ValidationError(
            f"model_family must be 'alpha-knn' or 'alpha-kernel', got {model_family!r}"
        )
    if not isinstance(grid, TuningGrid):
        raise ValidationError("grid must be a TuningGrid")
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    clamp = float(clamp)
    if clamp < 0:
        raise ValidationError(f"clamp must be nonnegative, got {clamp!r}")
    threads = int(threads)
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    if np.any(U == 0) and min(grid.alphas) <= 0:
        raise ValidationError(
            "responses contain zeros: every grid alpha must be strictly positive"
        )
    if model_family == "alpha-knn":
        if grid.ks is None:
            raise ValidationError("alpha-knn tuning needs grid.ks")
        axis2 = grid.ks
    else:
        if grid.hs is None:
            raise ValidationError("alpha-kernel tuning needs grid.hs")
        if kernel not in KERNELS:
            raise ValidationError(
                f"kernel must be one of {tuple(KERNELS)}, got {kernel!r}"
            )
        axis2 = grid.hs

    n = X.shape[0]
    labels = make_folds(n, grid.folds, grid.seed)
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
        U_test = U[test]
        sums = np.zeros(shape)
        infeasible = np.zeros(shape, dtype=bool)
        for i, j, pred in cells:
            if isinstance(pred, np.ndarray):
                sums[i, j] = _divergence_rows(metric, U_test, pred, clamp).sum()
            else:
                infeasible[i, j] = True
        return sums, infeasible, U_test.shape[0]

    fold_ids = list(range(grid.folds))
    if threads == 1:
        results = [run_fold(f) for f in fold_ids]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_fold, fold_ids))

    # Fixed-order reduction keeps totals identical for any thread count.
    total = np.zeros(shape)
    infeasible = np.zeros(shape, dtype=bool)
    fold_sums = []
    fold_counts = []
    for sums, bad, count in results:
        total += sums
        infeasible |= bad
        fold_sums.append(sums)
        fold_counts.append(count)
    if infeasible.all():
        raise TuningError("no feasible grid cell")

    mean = total / n
    best = None
    for ai, a in enumerate(grid.alphas):
        for bi, b in enumerate(axis2):
            if infeasible[ai, bi]:
                continue
            key = (float(mean[ai, bi]), a, b)
            if best is None or key < best:
                best = key
    score, best_alpha, best_b = best
    ai = grid.alphas.index(best_alpha)
    bi = axis2.index(best_b)
    per_fold = tuple(
        float(fold_sums[f][ai, bi] / fold_counts[f]) for f in fold_ids
    )
    cells = tuple(
        tuple(
            None if infeasible[i, j] else float(mean[i, j])
            for j in range(len(axis2))
        )
        for i in range(len(grid.alphas))
    )
    counts = np.bincount(labels, minlength=grid.folds)
    return TuningReport(
        family=model_family,
        metric=metric,
        clamp=clamp,
        seed=int(grid.seed),
        folds=int(grid.folds),
        fold_sizes=tuple(int(c) for c in counts),
        alphas=grid.alphas,
        ks=grid.ks,
        hs=grid.hs,
        kernel=kernel if model_family == "alpha-kernel" else None,
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
    X = as_predictor_matrix(X)
    U = as_composition_matrix(U)
    if X.shape[0] != U.shape[0]:
        raise ValidationError(
            f"predictors have {X.shape[0]} rows, responses {U.shape[0]}"
        )
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
