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
also scores: `predict` is the single-cell grid.  Both iterators work
parts-major, so every reduction over the D parts is D - 1 whole-vector
adds; for D <= 7 the bits equal those of a row-major reduction.
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
from .neighbors import (_CHUNK_BYTES, NeighborIndex, _check_k, _distances_to, _row_blocks,
                        build_index)
# pairwise_distances and closure stay bound for benchmark/tracing.py, which
# rebinds them by module.
from .neighbors import pairwise_distances  # noqa: F401
from .simplex import _as_floats, _check_count, _check_real, _predictor_gate, as_composition_matrix
from .simplex import closure  # noqa: F401
from .transforms import alr, alr_inverse, check_alpha, ilr, ilr_inverse

# Per-alpha GEMM size (rows * n * D multiply-adds) from which a kernel block
# may run one GEMM over every alpha.  On OpenBLAS 0.3.31 the stacked columns
# differed from the one-alpha GEMM at up to 9.9e5 and matched from 1.08e6,
# so 2e6 leaves a 2x margin.
_STACK_MULADDS = 2_000_000


def _negative_square(d, out=None):
    return np.negative(np.multiply(d, d, out=out), out=out)


def _kernel_weights(base, scale, out=None):
    return np.exp(np.divide(base, scale, out=out), out=out)


# A kernel weight is exp(base(d) / scale(h)).  The base depends on the
# distance alone, so the kernel grid works it out once per query block and
# runs only the divide and the exp once per bandwidth.
_KERNEL_PARTS = {
    "gaussian": (_negative_square, lambda h: 2.0 * h * h),
    "exponential": (np.negative, lambda h: 2.0 * h * h),
    "laplacian": (np.negative, lambda h: h),
}


def _kernel(base, scale):
    return lambda d, h: _kernel_weights(base(d), scale(h))


KERNELS = {name: _kernel(*parts) for name, parts in _KERNEL_PARTS.items()}


def _check_bandwidth(h):
    h = _check_real("bandwidth h", h)
    if not np.isfinite(h) or h <= 0:
        raise ValidationError(f"bandwidth h must be positive and finite, got {h!r}")
    return h


def _check_kernel(kernel):
    if kernel not in KERNELS:
        raise ValidationError(f"kernel must be one of {tuple(KERNELS)}, got {kernel!r}")
    return kernel


def _fit_arrays(X, U):
    X = _predictor_gate(X, "training")
    U = as_composition_matrix(U)
    if X.shape[0] != U.shape[0]:
        raise ValidationError(
            f"predictors have {X.shape[0]} rows, responses {U.shape[0]}"
        )
    return X, U


def _design_matrix(X):
    """[1 | X] for the parametric baselines, which need n > p + 1 rows."""
    n, p = X.shape
    if n <= p + 1:
        raise ValidationError(f"need more than p + 1 = {p + 1} rows, got {n}")
    return np.column_stack([np.ones(n), X])


def _linear_predictor(coef, Xnew):
    """[1 | Xnew] @ coef for a (p + 1, D - 1) coefficient matrix."""
    return coef[0] + _predictor_gate(Xnew, "query", coef.shape[0] - 1) @ coef[1:]


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
    k = _check_k(k)
    if k > X.shape[0]:
        raise ValidationError(f"k must satisfy 1 <= k <= {X.shape[0]}, got {k}")
    return AlphaKnnModel(index=build_index(X, strategy=strategy), responses=U, alpha=a, k=k)


def predict_alpha_knn(model, Xnew):
    """Power mean of the k nearest training responses for each query row.

    The whole query matrix is validated first, so an error names its row.
    The grid iterator then runs once per equal block of queries, sized so
    that a block's k neighbor indices and distances and its (D, k)
    gathered and running-sum arrays per row stay within the kd-tree
    search's budget, `_CHUNK_BYTES // 64`.  Memory therefore grows with
    the queries and predictions only, not by k * D floats per query row.
    A row's prediction does not depend on the other rows of the call, so
    the blocks do not move a bit.
    """
    index, U, k = model.index, model.responses, model.k
    Q = _predictor_gate(Xnew, "query", index.p)
    pred = np.empty((Q.shape[0], U.shape[1]))
    for b in _row_blocks(Q.shape[0], 16 * k * (1 + U.shape[1]), _CHUNK_BYTES // 64):
        pred[b] = next(iter_knn_grid_predictions(index, U, Q[b], (model.alpha,), (k,)))[2]
    return pred


def iter_knn_grid_predictions(index, U, Q, alphas, ks):
    """Predictions for every (alpha, k) cell from one neighbor search.

    Neighbors are fetched once at the largest k; running cumulative sums
    over the neighbor axis then produce each cell at constant extra cost.
    Yields (alpha_position, k_position, predictions) in grid order, with
    None predictions for cells whose k exceeds the index size.  Inputs are
    assumed validated (grid exponents in range, zeros only with positive
    alphas).

    The neighbor responses are laid out parts-major, (D, k_max, m), so the
    running sums are k_max - 1 whole-slab adds and each cell is handed to
    `_unpower` as a Fortran-ordered (m, D) view, whose closure over the D
    parts is D - 1 whole-column adds.  For D <= 7 these adds round
    exactly like the row-major reductions they replace; for D >= 8 the
    summation order differs from a row-major sum, but predict and tune
    share this one path.
    """
    ks = [int(k) for k in ks]
    k_max = min(max(ks), index.n)
    idx = index.query_batch(Q, k_max)[0]
    nbr = np.take(U.T, idx.T, axis=1)  # (D, k_max, m)
    del idx  # only the gathered responses outlive the search
    cum = np.empty_like(nbr)  # reused by every alpha
    for ai, a in enumerate(alphas):
        a = float(a)
        _power(nbr, a, out=cum)
        for i in range(1, k_max):
            np.add(cum[:, i - 1], cum[:, i], out=cum[:, i])
        for ki, k in enumerate(ks):
            yield ai, ki, None if k > index.n else _unpower((cum[:, k - 1, :] / k).T, a)


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
    return AlphaKernelModel(predictors=X, responses=U, alpha=a, h=_check_bandwidth(h),
                            kernel=_check_kernel(kernel))


def predict_alpha_kernel(model, Xnew):
    """Weighted power mean over all training responses for each query row.

    Raises DegenerateWeightsError, naming the first offending query row,
    when every kernel weight underflows to zero for some query.

    A row's last ulp can depend on the other rows of the call: numpy sends
    a one-row `W @ U^alpha` to BLAS gemv, and OpenBLAS sends GEMMs under
    about 1e6 multiply-adds to a small-matrix kernel, each rounding
    differently from the blocked GEMM.  `tune` and `predict` still agree
    because they pass the same query rows; predicting a file in pieces
    can change the last ulp.
    """
    cells = iter_kernel_grid_predictions(
        model.predictors, model.responses, Xnew, (model.alpha,), (model.h,), model.kernel
    )
    pred = next(cells)[2]
    if isinstance(pred, DegenerateWeightsError):
        raise pred
    return pred


def _fill_weights(W, base, h, kernel, tiles):
    """Row-normalised kernel weights of one query block into W, tile by tile.

    base holds the block's exponent bases.  Returns the position in the
    block of the first row whose weights all underflow, leaving W partly
    filled, or None.
    """
    scale = _KERNEL_PARTS[kernel][1](h)
    for tile in tiles:
        w = _kernel_weights(base[tile], scale, out=W[tile])
        totals = w.sum(axis=1)
        dead = np.flatnonzero(~(totals > 0))
        if dead.size:
            return tile.start + int(dead[0])
        w /= totals[:, None]
    return None


def iter_kernel_grid_predictions(P, U, Q, alphas, hs, kernel):
    """Predictions for every (alpha, h) cell from one pass over the distances.

    P (n, p) and U (n, D) are the training predictors and responses, Q
    the (m, p) queries.  Yields (alpha_position, h_position, predictions)
    one bandwidth at a time.  A bandwidth whose kernel weights all
    underflow for some query yields, for each of its cells, a
    DegenerateWeightsError naming the first such query row in place of
    predictions.  Inputs are assumed validated (grid exponents in range,
    zeros only with positive alphas, positive bandwidths, a known kernel).

    Queries are processed in equal blocks whose (rows, n) exponent-base
    and weight matrices each stay under `_CHUNK_BYTES // 4` bytes; one
    buffer of each serves every block and bandwidth.  Only the GEMM runs
    on a whole block.  Everything else runs on row tiles of at most
    `_CHUNK_BYTES // 64` bytes, which stay in cache between passes: the
    distances and their kernel base once per block, and the divide, exp,
    row sums and normalising once per bandwidth.  The weights are
    elementwise and summed row by row, so the tiling does not move a bit.
    Only the (H, m, A, D) weighted sums, which do not grow with n, outlive
    a block, and the cells are yielded once the last block is done.  A
    bandwidth with a dead row is skipped in later blocks.  Each weighted
    sum is closed Fortran-ordered, so the closure over the D parts is
    D - 1 whole-column adds (bitwise a row-major sum for D <= 7).

    When every block's per-alpha GEMM has at least `_STACK_MULADDS`
    multiply-adds (rows * n * D) and more rows than the A * D columns of
    all alphas' powered responses side by side, each block runs one GEMM
    over those columns; otherwise it runs one GEMM per alpha.  Either way
    each cell has the bits of its one-alpha GEMM, and at A = 1 the two
    routes are the same call, so predict and tune agree bitwise.
    """
    Q = _predictor_gate(Q, "query", P.shape[1])
    m, (n, D), A = Q.shape[0], U.shape, len(alphas)
    blocks = _row_blocks(m, 8 * n, _CHUNK_BYTES // 4)
    # Equal blocks keep each GEMM at least half the budget.  OpenBLAS runs
    # GEMMs below ~1e6 multiply-adds through a small-matrix kernel, whose
    # stacked columns round differently from the narrow GEMM.  Threaded, it
    # also splits a GEMM with fewer rows than columns across its columns
    # (seen at two threads), which moves the bits too.  The smallest block
    # decides for all of them.
    rows = m // len(blocks)
    stack = rows * n * D >= _STACK_MULADDS and rows > A * D
    # (n, A, D) either way: alpha-minor so the stack is one (n, A * D)
    # matrix, or alpha-major so each narrow GEMM reads contiguous rows,
    # which at large n is much faster than a strided column block.
    powered = np.empty((n, A, D)) if stack else np.empty((A, n, D)).transpose(1, 0, 2)
    for ai, a in enumerate(alphas):
        _power(U, a, out=powered[:, ai])
    S = np.empty((len(hs), m, A, D))
    errors = [None] * len(hs)
    base_of = _KERNEL_PARTS[kernel][0]
    base_rows = np.empty((-(-m // len(blocks)), n))
    weight_rows = np.empty_like(base_rows)
    for block in blocks:
        Qb = Q[block]
        base, W = base_rows[:len(Qb)], weight_rows[:len(Qb)]
        tiles = _row_blocks(len(Qb), 8 * n, _CHUNK_BYTES // 64)
        for tile in tiles:
            d = _distances_to(P[None, :, :], Qb[tile, None, :], out=base[tile])
            base_of(d, out=d)
        for hi, h in enumerate(hs):
            if errors[hi] is not None:
                continue
            dead = _fill_weights(W, base, h, kernel, tiles)
            if dead is not None:
                row = block.start + dead
                errors[hi] = DegenerateWeightsError(
                    f"all kernel weights underflowed for query row {row} "
                    f"(h={h!r}, kernel={kernel!r})",
                    query_index=row,
                )
                continue
            if stack:
                np.matmul(W, powered.reshape(n, A * D), out=S[hi, block].reshape(-1, A * D))
            else:
                for ai in range(A):
                    np.matmul(W, powered[:, ai], out=S[hi, block, ai])
    for hi in range(len(hs)):
        for ai, a in enumerate(alphas):
            if errors[hi] is not None:
                yield ai, hi, errors[hi]
            else:
                yield ai, hi, _unpower(np.asfortranarray(S[hi, :, ai]), a)


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
        X = np.empty((U.shape[0], 0))
    else:
        X, U = _fit_arrays(X, U)
    X1 = _design_matrix(X)
    tol = _check_real("tol", tol)
    if not np.isfinite(tol) or tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    max_iter = _check_count("max_iter", max_iter, 1)
    U_tail = U[:, 1:]
    q = X1.shape[1]
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

    for _ in range(max_iter):
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
        arr = _as_floats(Xnew, "predictor matrix")
        if arr.ndim == 0 or arr.shape[0] < 1:
            raise ValidationError("predict needs at least one query row")
        return np.tile(alr_inverse(model.coef[0]), (arr.shape[0], 1))
    return alr_inverse(_linear_predictor(model.coef, Xnew))


# ---------------------------------------------------------------------------
# log-ratio least squares baseline


@dataclass(frozen=True)
class LogRatioOlsModel:
    coef: np.ndarray  # (p + 1, D - 1), intercept row first
    transform: str

    def predict(self, X):
        return predict_logratio_ols(self, X)


def _check_transform(transform):
    if transform not in ("alr", "ilr"):
        raise ValidationError(f"transform must be 'alr' or 'ilr', got {transform!r}")
    return transform


def fit_logratio_ols(X, U, transform="alr"):
    """Least squares on log-ratio coordinates of the responses.

    The two coordinate systems fit different coefficients but identical
    back-transformed predictions.  Requires strictly positive responses
    and a full-rank design.
    """
    X, U = _fit_arrays(X, U)
    _check_transform(transform)
    if np.any(U == 0):
        raise ZeroNotAllowedError(
            "fit_logratio_ols: responses contain zeros; log-ratio "
            "coordinates need strictly positive parts"
        )
    X1 = _design_matrix(X)
    V = alr(U) if transform == "alr" else ilr(U)
    coef, _, rank, _ = np.linalg.lstsq(X1, V, rcond=None)
    if rank < X1.shape[1]:
        raise ValidationError(
            f"design matrix is rank-deficient: rank {rank} < {X1.shape[1]}"
        )
    coef.flags.writeable = False
    return LogRatioOlsModel(coef=coef, transform=transform)


def predict_logratio_ols(model, Xnew):
    """Back-transformed linear predictions."""
    eta = _linear_predictor(model.coef, Xnew)
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
