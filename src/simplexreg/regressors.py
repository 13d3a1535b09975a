"""Regression models for compositional responses.

Four families share one calling convention (fit returns a frozen model,
models expose predict):

* power-family k-nearest-neighbor regression: the prediction is the
  power mean of the k nearest responses;
* power-family kernel regression: a distance-kernel weighted power mean
  over every training response;
* multinomial logit fit by Newton-Raphson on the log-likelihood, the
  divergence-based parametric baseline, which tolerates zeros;
* ordinary least squares on log-ratio coordinates, the classical
  parametric baseline, which requires strictly positive responses.

Models hold their training arrays by reference and never copy or mutate
them.

Each power-mean family predicts through one grid iterator that tuning
also scores: `predict` is the single-cell grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    ValidationError,
    ZeroNotAllowedError,
)
from .frechet import _check_zero_alpha, _power, _unpower
from .neighbors import NeighborIndex, build_index, pairwise_distances
# closure stays bound for benchmark/tracing.py, which rebinds it by module.
from .simplex import as_composition_matrix, as_predictor_matrix, closure  # noqa: F401
from .transforms import alr, alr_inverse, check_alpha, ilr, ilr_inverse

KERNELS = {
    "gaussian": lambda d, h: np.exp(-(d * d) / (2.0 * h * h)),
    "exponential": lambda d, h: np.exp(-d / (2.0 * h * h)),
    "laplacian": lambda d, h: np.exp(-d / h),
}


def _fit_arrays(X, U):
    X = as_predictor_matrix(X)
    U = as_composition_matrix(U)
    if X.shape[0] != U.shape[0]:
        raise ValidationError(
            f"predictors have {X.shape[0]} rows, responses {U.shape[0]}"
        )
    return X, U


# ---------------------------------------------------------------------------
# k-nearest-neighbor family


@dataclass(frozen=True)
class AlphaKnnModel:
    index: NeighborIndex
    responses: np.ndarray
    alpha: float
    k: int

    def predict(self, X):
        return predict_alpha_knn(self, X)


def fit_alpha_knn(X, U, alpha, k, strategy="auto"):
    """Fit the k-nearest-neighbor power-mean regressor.

    Parameters
    ----------
    X : array_like, shape (n, p)
    U : array_like, shape (n, D)
        Row compositions; zeros allowed only when alpha > 0.
    alpha : float
        Power exponent in [-1, 1].
    k : int
        Neighborhood size, 1 <= k <= n.
    strategy : {"auto", "brute", "kdtree"}
        Search backend passed to the neighbor index.
    """
    X, U = _fit_arrays(X, U)
    a = check_alpha(alpha)
    _check_zero_alpha(U, a, "fit_alpha_knn")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValidationError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= X.shape[0]:
        raise ValidationError(f"k must satisfy 1 <= k <= {X.shape[0]}, got {k}")
    return AlphaKnnModel(
        index=build_index(X, strategy=strategy), responses=U, alpha=a, k=int(k)
    )


def predict_alpha_knn(model, Xnew):
    """Power mean of the k nearest training responses for each query row."""
    cells = iter_knn_grid_predictions(
        model.index, model.responses, Xnew, (model.alpha,), (model.k,)
    )
    return next(cells)[2]


def iter_knn_grid_predictions(index, U, Q, alphas, ks):
    """Predictions for every (alpha, k) cell from one neighbor search.

    Neighbors are fetched once at the largest k; running cumulative sums
    over the neighbor axis then produce each cell at constant extra cost.
    Yields (alpha_position, k_position, predictions) in grid order, with
    None predictions for cells whose k exceeds the index size.  Inputs are
    assumed validated (grid exponents in range, zeros only with positive
    alphas).
    """
    ks = [int(k) for k in ks]
    k_max = min(max(ks), index.n)
    idx, _ = index.query_batch(Q, k_max)
    nbr = U[idx]  # (m, k_max, D)
    cum = np.empty_like(nbr)  # reused by every alpha
    for ai, a in enumerate(alphas):
        a = float(a)
        np.cumsum(_power(nbr, a, out=cum), axis=1, out=cum)
        for ki, k in enumerate(ks):
            yield ai, ki, None if k > index.n else _unpower(cum[:, k - 1, :] / k, a)


# ---------------------------------------------------------------------------
# kernel family


@dataclass(frozen=True)
class AlphaKernelModel:
    predictors: np.ndarray
    responses: np.ndarray
    alpha: float
    h: float
    kernel: str

    def predict(self, X):
        return predict_alpha_kernel(self, X)


def fit_alpha_kernel(X, U, alpha, h, kernel="gaussian"):
    """Fit the kernel-weighted power-mean regressor.

    h is the bandwidth (> 0); kernel is one of "gaussian", "exponential",
    "laplacian".  Fitting only validates and stores references, all work
    happens at predict time.
    """
    X, U = _fit_arrays(X, U)
    a = check_alpha(alpha)
    _check_zero_alpha(U, a, "fit_alpha_kernel")
    h = float(h)
    if not np.isfinite(h) or h <= 0:
        raise ValidationError(f"bandwidth h must be positive and finite, got {h!r}")
    if kernel not in KERNELS:
        raise ValidationError(
            f"kernel must be one of {tuple(KERNELS)}, got {kernel!r}"
        )
    return AlphaKernelModel(predictors=X, responses=U, alpha=a, h=h, kernel=kernel)


def predict_alpha_kernel(model, Xnew):
    """Weighted power mean over all training responses for each query row.

    Raises DegenerateWeightsError, naming the first offending query row,
    when every kernel weight underflows to zero for some query.
    """
    cells = iter_kernel_grid_predictions(
        model.predictors, model.responses, Xnew, (model.alpha,), (model.h,), model.kernel
    )
    pred = next(cells)[2]
    if isinstance(pred, DegenerateWeightsError):
        raise pred
    return pred


def iter_kernel_grid_predictions(P, U, Q, alphas, hs, kernel):
    """Predictions for every (alpha, h) cell from one distance matrix.

    P (n, p) and U (n, D) are the training predictors and responses, Q
    the (m, p) queries.  Yields (alpha_position, h_position, predictions)
    one bandwidth at a time.  A bandwidth whose kernel weights all
    underflow for some query yields, for each of its cells, a
    DegenerateWeightsError naming the first such query row in place of
    predictions.  Inputs are assumed validated (grid exponents in range,
    zeros only with positive alphas, positive bandwidths, a known kernel).
    """
    dist = pairwise_distances(Q, P)
    powered = [_power(U, a) for a in alphas]
    for hi, h in enumerate(hs):
        W = KERNELS[kernel](dist, h)
        totals = W.sum(axis=1)
        dead = np.flatnonzero(~(totals > 0))
        if dead.size:
            err = DegenerateWeightsError(
                f"all kernel weights underflowed for query row {int(dead[0])} "
                f"(h={h!r}, kernel={kernel!r})",
                query_index=int(dead[0]),
            )
            for ai in range(len(alphas)):
                yield ai, hi, err
            continue
        W /= totals[:, None]
        for ai, a in enumerate(alphas):
            yield ai, hi, _unpower(W @ powered[ai], a)


# ---------------------------------------------------------------------------
# multinomial logit baseline

_NEWTON_RIDGE = 1e-8


@dataclass(frozen=True)
class KldModel:
    coef: np.ndarray  # (p + 1, D - 1), intercept row first
    iterations: int
    objective: float  # final negative log-likelihood
    objective_path: tuple
    hessian_damped: bool

    def predict(self, X):
        return predict_kld(self, X)


def _kld_forward(X1, U_tail, B):
    # Negative log-likelihood and fitted tail probabilities for logits
    # [0 | X1 @ B], evaluated with max-shifted exponentials.
    eta = X1 @ B
    shift = np.maximum(eta.max(axis=1), 0.0)
    expv = np.exp(eta - shift[:, None])
    base = np.exp(-shift)
    denom = base + expv.sum(axis=1)
    lse = shift + np.log(denom)
    nll = float(lse.sum() - (U_tail * eta).sum())
    W = expv / denom[:, None]
    return nll, W


def _kld_hessian(X1, W):
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


def fit_kld(X, U, tol=1e-7, max_iter=100):
    """Fit the multinomial logit by Newton-Raphson.

    Maximizes sum_i u_i . log(mu(x_i)) where mu is a softmax with the
    first component as reference; equivalently minimizes the total
    divergence of fitted from observed compositions.  Zeros in U are
    handled naturally.  X may be None for an intercept-only fit, whose
    fitted composition is the sample mean.  The objective is kept
    monotone by step halving; a singular Hessian is retried once with
    ridge damping 1e-8 and the model records that this happened.

    Raises ConvergenceError carrying the last iterate when max_iter is
    exhausted.
    """
    if X is None:
        U = as_composition_matrix(U)
        n, p = U.shape[0], 0
        X = np.empty((n, 0))
    else:
        X, U = _fit_arrays(X, U)
        n, p = X.shape
    if n <= p + 1:
        raise ValidationError(f"need more than p + 1 = {p + 1} rows, got {n}")
    tol = float(tol)
    if not np.isfinite(tol) or tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    X1 = np.column_stack([np.ones(n), X])
    U_tail = U[:, 1:]
    q = p + 1
    d = U.shape[1] - 1
    B = np.zeros((q, d))
    nll, W = _kld_forward(X1, U_tail, B)
    path = [nll]
    damped = False

    def finish(converged):
        coef = B.copy()
        coef.flags.writeable = False
        model = KldModel(
            coef=coef,
            iterations=len(path) - 1,
            objective=path[-1],
            objective_path=tuple(path),
            hessian_damped=damped,
        )
        if not converged:
            raise ConvergenceError(
                f"Newton-Raphson did not converge in {max_iter} iterations",
                model=model,
            )
        return model

    for _ in range(int(max_iter)):
        G = X1.T @ (W - U_tail)
        H = _kld_hessian(X1, W)
        g = G.T.reshape(-1)  # class-major layout matching the Hessian
        try:
            delta = np.linalg.solve(H, g)
            if not np.all(np.isfinite(delta)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            damped = True
            delta = np.linalg.solve(H + _NEWTON_RIDGE * np.eye(H.shape[0]), g)
        step_dir = delta.reshape(d, q).T
        step = 1.0
        while True:
            B_new = B - step * step_dir
            nll_new, W_new = _kld_forward(X1, U_tail, B_new)
            if nll_new <= nll or step < 2.0**-40:
                break
            step *= 0.5
        if nll_new > nll:
            # No step length improves the objective: numerically optimal.
            return finish(True)
        moved = float(np.max(np.abs(B_new - B)))
        drop = nll - nll_new
        B, nll, W = B_new, nll_new, W_new
        path.append(nll)
        if moved < tol or drop <= tol * max(1.0, abs(nll)):
            return finish(True)
    return finish(False)


def predict_kld(model, Xnew):
    """Fitted compositions: softmax of [1 | X] @ coef with leading zero."""
    if model.coef.shape[0] == 1:
        # Intercept-only model: only the number of query rows matters.
        arr = np.asarray(Xnew, dtype=float)
        if arr.ndim == 0 or arr.shape[0] < 1:
            raise ValidationError("predict needs at least one query row")
        return np.tile(alr_inverse(model.coef[0]), (arr.shape[0], 1))
    Q = as_predictor_matrix(Xnew)
    if Q.shape[1] != model.coef.shape[0] - 1:
        raise ValidationError(
            f"query width {Q.shape[1]} does not match model's "
            f"{model.coef.shape[0] - 1} predictors"
        )
    eta = model.coef[0] + Q @ model.coef[1:]
    return alr_inverse(eta)


# ---------------------------------------------------------------------------
# log-ratio least squares baseline


@dataclass(frozen=True)
class LogRatioOlsModel:
    coef: np.ndarray  # (p + 1, D - 1), intercept row first
    transform: str

    def predict(self, X):
        return predict_logratio_ols(self, X)


def fit_logratio_ols(X, U, transform="alr"):
    """Least squares on log-ratio coordinates of the responses.

    The two coordinate systems fit different coefficients but identical
    back-transformed predictions.  Requires strictly positive responses
    and a full-rank design.
    """
    X, U = _fit_arrays(X, U)
    if transform not in ("alr", "ilr"):
        raise ValidationError(
            f"transform must be 'alr' or 'ilr', got {transform!r}"
        )
    if np.any(U == 0):
        raise ZeroNotAllowedError(
            "fit_logratio_ols: responses contain zeros; log-ratio "
            "coordinates need strictly positive parts"
        )
    n, p = X.shape
    if n <= p + 1:
        raise ValidationError(f"need more than p + 1 = {p + 1} rows, got {n}")
    V = alr(U) if transform == "alr" else ilr(U)
    X1 = np.column_stack([np.ones(n), X])
    coef, _, rank, _ = np.linalg.lstsq(X1, V, rcond=None)
    if rank < X1.shape[1]:
        raise ValidationError(
            f"design matrix is rank-deficient: rank {rank} < {X1.shape[1]}"
        )
    coef.flags.writeable = False
    return LogRatioOlsModel(coef=coef, transform=transform)


def predict_logratio_ols(model, Xnew):
    """Back-transformed linear predictions."""
    Q = as_predictor_matrix(Xnew)
    if Q.shape[1] != model.coef.shape[0] - 1:
        raise ValidationError(
            f"query width {Q.shape[1]} does not match model's "
            f"{model.coef.shape[0] - 1} predictors"
        )
    eta = model.coef[0] + Q @ model.coef[1:]
    if model.transform == "alr":
        return alr_inverse(eta)
    return ilr_inverse(eta)


# ---------------------------------------------------------------------------
# uniform fit interface for cross-validation


@dataclass(frozen=True)
class AlphaKnnSpec:
    alpha: float
    k: int
    strategy: str = "auto"

    def fit(self, X, U):
        return fit_alpha_knn(X, U, self.alpha, self.k, strategy=self.strategy)


@dataclass(frozen=True)
class AlphaKernelSpec:
    alpha: float
    h: float
    kernel: str = "gaussian"

    def fit(self, X, U):
        return fit_alpha_kernel(X, U, self.alpha, self.h, kernel=self.kernel)


@dataclass(frozen=True)
class KldSpec:
    tol: float = 1e-7
    max_iter: int = 100

    def fit(self, X, U):
        return fit_kld(X, U, tol=self.tol, max_iter=self.max_iter)


@dataclass(frozen=True)
class LogRatioOlsSpec:
    transform: str = "alr"

    def fit(self, X, U):
        return fit_logratio_ols(X, U, transform=self.transform)
