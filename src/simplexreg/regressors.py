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
also scores: `predict` is the single-cell grid.  Both iterators yield
parts-major cells, so every reduction over the D parts is D - 1
whole-vector adds; for D <= 7 the bits equal those of a row-major
reduction.  The k-NN grid gathers its neighbors' rows row-major.
"""

import contextlib
import ctypes
import functools
import importlib
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateWeightsError, ValidationError
from .frechet import _power, _unpower
from .neighbors import (_CHUNK_BYTES, NeighborIndex, _check_k, _distances_to, _equal_slices,
                        _row_blocks, build_index)
# pairwise_distances and closure stay bound for benchmark/tracing.py, which
# rebinds them by module.
from .neighbors import pairwise_distances  # noqa: F401
from .simplex import _as_floats, _check_count, _check_real, _predictor_gate, as_composition_matrix
from .simplex import closure  # noqa: F401
from .transforms import (_alr, _check_alpha_parts, _ilr, _softmax, alr_inverse, check_alpha,
                         ilr_inverse)

# Per-alpha GEMM size (rows * n * D multiply-adds) from which one kernel
# GEMM may span every alpha.  On OpenBLAS 0.3.31 the stacked columns
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
    if not isinstance(kernel, str) or kernel not in KERNELS:
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
    k = _check_k(k)
    if k > X.shape[0]:
        raise ValidationError(f"k must satisfy 1 <= k <= {X.shape[0]}, got {k}")
    _check_alpha_parts(U, a, "fit_alpha_knn", k)
    return AlphaKnnModel(index=build_index(X, strategy=strategy), responses=U, alpha=a, k=k)


def predict_alpha_knn(model, Xnew):
    """Power mean of the k nearest training responses for each query row.

    The whole query matrix is validated first, so an error names its row.
    The grid iterator then runs once per equal block of queries, sized so
    that a block's k neighbor indices and distances, as the search returns
    them, and its k gathered and k powered neighbor rows of D parts per
    row stay within the search's budget, `_CHUNK_BYTES // 64`; each block
    is therefore one search block of the iterator.  Memory grows with the
    queries and predictions only, not by k * D floats per query row.  A
    row's prediction does not depend on the other rows of the call, so
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

    Neighbors are fetched once at the largest k; a running sum over the
    neighbor ranks then produces each cell at constant extra cost.  Yields
    (alpha_position, k_position, predictions) in grid order, with None
    predictions for cells whose k exceeds the index size.  Q passes the
    predictor gate whole, so an error names its row; the other inputs are
    assumed validated (grid exponents in range, zeros only with positive
    alphas).

    Memory: the one array that grows with m * k_max past the training set
    is the (k_max, m) neighbour table, rank-major, of int32 indices while
    n < 2**31 (intp beyond), which `tune` bounds by `_CHUNK_BYTES` a fold.
    The search fills it in query blocks whose indices and distances,
    16 * k_max bytes a row, stay within `_CHUNK_BYTES // 64`; no distance
    outlives its block.  Cells are closed and yielded in chunks of consecutive grid
    positions, a chunk's (chunk, D, m) cells within `_CHUNK_BYTES // 128`
    (at least one cell), so a call holds the table, the powered responses
    and two chunks (the one being filled and the caller's last), never an
    alpha's whole row of cells.

    The gather is row-major: each rank's m neighbor rows of D powered
    parts are taken into an (m, D) slab and added to the running sum, so
    every part sums its neighbors in rank order.  The cells are
    parts-major: a finished running sum is divided into its cell's (D, m)
    slot, and `_unpower` powers and closes a chunk's cells in place as
    Fortran-ordered (m, D) views, whose closure over the D parts is D - 1
    whole-column adds.  For D <= 7 these adds round exactly like a
    row-major reduction; for D >= 8 the order differs from one, but
    predict and tune share this one path.  The closure is decided per
    cell and row, so the chunks do not move a bit.  The running sum goes
    on across chunks; a chunk whose smallest k lies below the ranks
    already summed (an unsorted or repeated grid) sums again from -0.0,
    repeating the same adds, so every cell has the bits of its own sum.

    The power runs on the smaller of two sets: the n training responses,
    which are then gathered (a tune fold, where n < m * k_max), or the
    m * k_max <= n gathered neighbors (predict's blocks against a larger
    model, so one query row never powers all n rows).  The power is
    elementwise and both operands are contiguous, so the orders agree
    bitwise.
    """
    Q, ks = _predictor_gate(Q, "query", index.p), [int(k) for k in ks]
    m, D = Q.shape[0], U.shape[1]
    k_max = min(max(ks), index.n)
    table = np.empty((k_max, m), dtype=np.int32 if index.n < 2**31 else np.intp)
    for b in _row_blocks(m, 16 * k_max, _CHUNK_BYTES // 64):
        table[:, b] = index.query_batch(Q[b], k_max)[0].T
    per_chunk = max(1, _CHUNK_BYTES // 128 // (8 * D * m))
    chunks = [range(len(ks))[i:i + per_chunk] for i in range(0, len(ks), per_chunk)]
    train_first = index.n < table.size
    # (n, D) or (k_max, m, D), powered into one contiguous buffer per alpha
    source = np.ascontiguousarray(U) if train_first else np.take(U, table, axis=0)
    powered = np.empty_like(source)
    for ai, a in enumerate(alphas):
        a = float(a)
        _power(source, a, out=powered)
        run, summed = np.full((m, D), -0.0), 0  # -0.0 + x is x, signed zeros too
        for chunk in chunks:
            slots = [s for s in chunk if ks[s] <= index.n]
            cells = np.empty((len(slots), D, m))  # fresh: the yielded cells are views
            if slots and min(ks[s] for s in slots) < summed:  # the grid went back: sum again
                run[...], summed = -0.0, 0
            for k, c in sorted((ks[s], c) for c, s in enumerate(slots)):
                for i in range(summed, k):
                    run += powered.take(table[i], axis=0) if train_first else powered[i]
                summed = k
                np.divide(run.T, k, out=cells[c])
            closed = iter(_unpower(cells.transpose(0, 2, 1), a))
            for s in chunk:
                yield ai, s, next(closed) if ks[s] <= index.n else None


# ---------------------------------------------------------------------------
# kernel family


@functools.cache
def _blas_threads():
    """OpenBLAS's (get, set) thread-count pair, looked up once per process.

    numpy's multiarray extension links the BLAS numpy was built with.
    None without an OpenBLAS symbol (MKL, Accelerate, numpy < 2).
    """
    try:
        lib = ctypes.CDLL(importlib.import_module("numpy._core._multiarray_umath").__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if get is not None:
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_pin_lock = threading.Lock()
_pin = {"depth": 0, "caller": None}


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with one BLAS thread, then restore the caller's count.

    A GEMM's bits depend on how many threads OpenBLAS splits it across, so
    the kernel grid's GEMMs run pinned to keep their outputs independent of
    the core count.  The count is process-wide: nested or concurrent pins
    share it, and the last one out restores it.  Does nothing without an
    OpenBLAS symbol.
    """
    pair = _blas_threads()
    if pair is None:
        yield
        return
    get, set_ = pair
    with _pin_lock:
        if _pin["depth"] == 0:
            _pin["caller"] = get()
            set_(1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if _pin["depth"] == 0:
                set_(_pin["caller"])


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
    _check_alpha_parts(U, a, "fit_alpha_kernel", 1)
    return AlphaKernelModel(predictors=X, responses=U, alpha=a, h=_check_bandwidth(h),
                            kernel=_check_kernel(kernel))


def predict_alpha_kernel(model, Xnew):
    """Weighted power mean over all training responses for each query row.

    Raises DegenerateWeightsError, naming the first offending query row,
    when every kernel weight underflows to zero for some query.

    Runs through `iter_kernel_grid_predictions` as its one-cell grid,
    whose one bandwidth runs in query blocks of at least R rows: its
    docstring gives R, the memory bound and when a row's bits can depend
    on the other rows of the call.  `tune` and
    `predict` agree because they pass the same query rows.
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

    R is the larger of ceil(`_STACK_MULADDS` / (n * D)) and A * D + 1 (2
    at A = 1): the fewest rows a GEMM needs to run every alpha at once.  A
    call of m < R rows runs as one block, one GEMM per alpha and
    bandwidth.  A call of m >= R rows stacks: its queries run in
    max(1, m // ceil(R / H)) equal blocks of b >= ceil(R / H) rows, and
    its H bandwidths in max(1, H // g) equal groups of at least
    g = ceil(R / b) (so one bandwidth per group once b >= R, as in
    predict, where H = 1).  A group's weights fill one reused buffer,
    bandwidth after bandwidth, and run as one (g * b, n) @ (n, A * D)
    GEMM of at least R rows against all alphas' powered responses side by
    side, with at least `_STACK_MULADDS` multiply-adds per alpha
    (rows * n * D) and more rows than columns; its output, a fresh
    temporary of A * D columns, is taken apart into the (H, m, A, D) sums.

    Memory: one (b, n) exponent-base buffer and one weight buffer of fewer
    than 2R + H rows of n serve every block and group, so a call holds
    O(R * n) = O(n * A * D + `_STACK_MULADDS` / D) floats beyond its
    inputs and outputs, never O(m * n).  Only the GEMM runs on a whole
    group.  Everything else runs on row tiles of at most
    `_CHUNK_BYTES // 64` bytes, which stay in cache between passes: the
    distances (against a Fortran-ordered copy of P, one contiguous column
    per predictor) and their kernel base once per block, and the divide,
    exp, row sums and normalising once per bandwidth.  The weights are
    elementwise and summed row by row, so the tiling does not move a bit.
    Only the weighted sums, which do not grow with n, outlive a block, and
    the cells are yielded once the last block is done.  A bandwidth with a
    dead row is not evaluated in later blocks; its rows stay in its group's
    GEMM, zero-filled, so the GEMM keeps at least R rows.  Each weighted
    sum is closed Fortran-ordered, so the closure over the D parts is
    D - 1 whole-column adds (bitwise a row-major sum for D <= 7).

    Each cell has the bits of its one-alpha GEMM, and at A = 1 the two
    routes are the same call, so predict and tune agree bitwise.  The
    GEMMs run at one BLAS thread, and OpenBLAS's blocked kernel gives a
    row of a GEMM of at least R rows the bits it has in any other such
    GEMM, so a call of m >= R rows gives each row the bits it has in any
    other such call, whatever the core count and however its bandwidths
    are grouped.  Only a smaller call can move a row's last ulp: numpy
    sends a one-row GEMM to BLAS gemv, and OpenBLAS sends GEMMs under
    about 1e6 multiply-adds to a small-matrix kernel, each rounding unlike
    the blocked GEMM.  For the same reason a group is one 2-D GEMM: a
    batched (g, b, n) @ (n, A * D) matmul would run g GEMMs of b < R rows.
    """
    Q = _predictor_gate(Q, "query", P.shape[1])
    m, (n, D), A, H = Q.shape[0], U.shape, len(alphas), len(hs)
    R = max(-(-_STACK_MULADDS // (n * D)), A * D + 1 if A > 1 else 2)
    stack = m >= R
    count = max(1, m // -(-R // H)) if stack else 1
    g = -(-R // (m // count)) if stack else 1
    blocks = _equal_slices(m, count)
    groups = [range(H)[s] for s in _equal_slices(H, max(1, H // g))]
    rows, width = -(-m // count), max(map(len, groups))
    powered = np.empty((n, A, D))
    for ai, a in enumerate(alphas):
        _power(U, a, out=powered[:, ai])
    S = np.empty((H, m, A, D))
    errors = [None] * H
    base_of = _KERNEL_PARTS[kernel][0]
    columns = np.asfortranarray(P)[None, :, :]
    base_rows = np.empty((rows, n))
    weight_rows = np.empty((width * rows, n))
    with _one_blas_thread():
        for block in blocks:
            Qb = Q[block]
            b = len(Qb)
            base = base_rows[:b]
            tiles = _row_blocks(b, 8 * n, _CHUNK_BYTES // 64)
            for tile in tiles:
                d = _distances_to(columns, Qb[tile, None, :], out=base[tile])
                base_of(d, out=d)
            for his in groups:
                W = weight_rows[:len(his) * b].reshape(len(his), b, n)
                for j, hi in enumerate(his):
                    if errors[hi] is None:
                        dead = _fill_weights(W[j], base, hs[hi], kernel, tiles)
                        if dead is not None:
                            row = block.start + dead
                            errors[hi] = DegenerateWeightsError(
                                f"all kernel weights underflowed for query row {row} "
                                f"(h={hs[hi]!r}, kernel={kernel!r})",
                                query_index=row,
                            )
                    if errors[hi] is not None:
                        W[j] = 0.0  # keeps the group's GEMM at R rows or more
                live = [j for j, hi in enumerate(his) if errors[hi] is None]
                if live and stack:
                    T = np.matmul(W.reshape(-1, n), powered.reshape(n, A * D))
                    for j in live:
                        S[his[j], block] = T[j * b:(j + 1) * b].reshape(b, A, D)
                elif live:
                    for ai in range(A):
                        np.matmul(W[0], powered[:, ai], out=S[his[0], block, ai])
    for hi in range(H):
        for ai, a in enumerate(alphas):
            if errors[hi] is not None:
                yield ai, hi, errors[hi]
            else:  # a copy, as _unpower closes in place
                yield ai, hi, _unpower(np.array(S[hi, :, ai], order="F"), a)


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
    # [0 | X1 @ B], through alr_inverse's max-shifted softmax.
    eta = X1 @ B
    shift, denom, mu = _softmax(eta)
    return float((shift + np.log(denom)).sum() - (U_tail * eta).sum()), mu[:, 1:]


def _kld_hessian(X1, W):
    # blockdiag_a(X1' diag(W_a) X1) - Z'Z, row i of Z being W_i (x) X1_i
    # class-major, summed over row blocks so no temporary grows with n.
    (n, d), q = W.shape, X1.shape[1]
    H = np.zeros((d * q, d * q))
    H4 = H.reshape(d, q, d, q)
    for b in _row_blocks(n, 8 * d * q, _CHUNK_BYTES // 64):
        Z = (W[b, :, None] * X1[b, None, :]).reshape(-1, d * q)
        H -= Z.T @ Z
        H4[range(d), :, range(d), :] += Z.reshape(-1, d, q).transpose(1, 2, 0) @ X1[b]
    return H


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
        # Intercept-only model: the number of query rows matters, their values are gated.
        arr = _as_floats(Xnew, "predictor matrix")
        if arr.ndim == 0 or arr.shape[0] < 1:
            raise ValidationError("predict needs at least one query row")
        if arr.size:
            _predictor_gate(arr, "query")
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
    _check_alpha_parts(U, 0.0, "fit_logratio_ols", 1)
    X1 = _design_matrix(X)
    V = (_alr if transform == "alr" else _ilr)(U)
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
