"""Maps between the simplex and Euclidean coordinates.

Implements the additive, centered, and isometric log-ratio transforms, the
closed power transform, and the power-interpolated family indexed by an
exponent alpha in [-1, 1] that recovers the isometric log-ratio transform
in the limit alpha -> 0.  All transforms accept a single composition (1-D)
or a matrix of row compositions (2-D) and return matching shape.

Each public transform reads its input once (`_as_rows`), each forward one
checks its parts once (`_check_parts`, whose alpha = 0 case is the log-ratio
maps'), every refusal names the function and the row (`simplex._refuse`),
and no transform calls another: shared steps are private kernels, among
them `_softmax`, which `alr_inverse` and the multinomial logit fit share,
and `_alr` and `_ilr`, which the log-ratio fit runs after its part check.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import OutOfRangeError, ValidationError, ZeroNotAllowedError
from .neighbors import _CHUNK_BYTES, _row_blocks
from .simplex import _as_floats, _check_count, _check_real, _plain, _refuse, closure


def check_alpha(alpha):
    """Validate the power exponent: a finite float with |alpha| <= 1."""
    a = _check_real("alpha", alpha)
    if not math.isfinite(a):
        raise ValidationError("alpha must be finite")
    if abs(a) > 1.0:
        raise ValidationError(f"alpha must lie in [-1, 1], got {a!r}")
    return a


@lru_cache(maxsize=None)
def _helmert_cached(D):
    H = np.zeros((D - 1, D))
    for i in range(1, D):
        s = 1.0 / math.sqrt(i * (i + 1))
        H[i - 1, :i] = s
        H[i - 1, i] = -i * s
    H.flags.writeable = False
    return H


def helmert_submatrix(D):
    """Orthonormal (D-1, D) contrast matrix with rows orthogonal to ones.

    Row i (1-based) holds i copies of 1/sqrt(i(i+1)), then -i/sqrt(i(i+1)),
    then zeros.  The returned array is cached and read-only.
    """
    return _helmert_cached(_check_count("D", D, 2))


def _as_rows(u, op, min_cols=2, what="composition"):
    arr = _as_floats(u, what)
    if arr.ndim not in (1, 2):
        raise ValidationError(f"{what} must be 1-D or 2-D, got ndim={arr.ndim}")
    squeeze, arr = arr.ndim == 1, np.atleast_2d(arr)
    if arr.shape[0] < 1:
        raise ValidationError(f"{what} has no rows")
    if arr.shape[1] < min_cols:
        raise ValidationError(f"{what} needs at least {min_cols} columns, got {arr.shape[1]}")
    _refuse(~np.isfinite(arr), lambda r, _: f"{op}: row {r}: non-finite value")
    return arr, squeeze


def _check_parts(arr, op, a):
    # The transforms' one part rule: no negative part, then the alpha rule
    # over a row's D parts; the log-ratio maps are its alpha = 0 case.
    _refuse(arr < 0, lambda r, _: f"{op}: row {r}: negative component")
    _check_alpha_parts(arr, a, op, arr.shape[1])


def _fold_rows(ufunc, A):
    # Each row of A reduced by np.minimum or np.maximum as an elementwise
    # fold over its D columns, in row blocks that stay in cache.  On 400,000
    # rows (2 vCPUs, numpy 2.4) it takes 0.8, 4.3 and 15 ms at D = 3, 10 and
    # 30, against 18, 20 and 31 ms for ufunc.reduce(A, axis=1).  The values
    # are equal, NaN included; above seven parts a zero result may differ
    # in sign, which no rule here reads.
    out = np.empty(A.shape[0])
    for b in _row_blocks(A.shape[0], 8 * A.shape[1], _CHUNK_BYTES // 256):
        acc = out[b]
        acc[...] = A[b, 0]
        for j in range(1, A.shape[1]):
            ufunc(acc, A[b, j], out=acc)
    return out


def _check_alpha_parts(U, a, op, terms, error=ZeroNotAllowedError):
    # Refuses, naming the first row, a zero at alpha <= 0 or, at alpha < 0,
    # a part whose power exceeds finfo.max / terms, so no sum of `terms`
    # powers overflows.  Each row's smallest part has its largest power.
    # A zero is tested as one, whatever its sign: (-0.0)**-1 is -inf.
    if a > 0:
        return
    low = _fold_rows(np.minimum, U)
    with np.errstate(divide="ignore", over="ignore"):
        bad = (low == 0) | (low**a > np.finfo(float).max / terms)
    _refuse(bad, lambda r: f"{op}: row {r}: " + (
        "a zero part needs alpha strictly positive" if low[r] == 0 else
        f"part {float(low[r])!r} overflows when raised to alpha") + f", got alpha={a!r}", error)


def _maybe_squeeze(arr, squeeze):
    return arr[0] if squeeze else arr


def _softmax(eta):
    # Softmax of the logits [0 | eta] row by row, shifted by max(row max, 0)
    # so no exponential overflows; also returns the shift and denominator.
    shift = np.maximum(_fold_rows(np.maximum, eta), 0.0)  # +0.0, never -0.0, at a zero max
    out = np.empty((eta.shape[0], eta.shape[1] + 1))
    expv = np.subtract(eta, shift[:, None], out=out[:, 1:])
    np.exp(expv, out=expv)
    out[:, 0] = np.exp(-shift)
    denom = out[:, 0] + expv.sum(axis=1)
    out /= denom[:, None]
    return shift, denom, out


def _clr(arr):
    logs = np.log(arr)
    return logs - logs.mean(axis=1, keepdims=True)


def _alr(arr):
    logs = np.log(arr)
    return logs[:, 1:] - logs[:, :1]


def _ilr(arr):
    return _clr(arr) @ helmert_submatrix(arr.shape[1]).T


def _clr_inverse(arr):
    # Halves find where the shift would overflow; the exponential is 0 there anyway.
    top = arr.max(axis=1, keepdims=True)
    far = top / 2 - arr / 2 > np.finfo(float).max / 2
    return closure(np.exp(np.subtract(arr, top, out=np.full(arr.shape, -np.inf), where=~far)))


def _contrast(arr, op):
    # clr coordinates z @ H, refusing first a row with a coordinate above
    # finfo.max / sqrt(D): H's columns have norm below 1, so no clr
    # coordinate can then exceed (D - 1) / D of finfo.max.
    D = arr.shape[1] + 1
    _refuse(np.abs(arr) > np.finfo(float).max / math.sqrt(D), lambda r, j: f"{op}: row {r}: "
            f"coordinate {_plain(arr[r, j])!r} is too large to invert", OutOfRangeError)
    return arr @ helmert_submatrix(D)


def alr(u):
    """Additive log-ratio transform, first part as reference.

    Maps a strictly positive composition of D parts to the D-1 vector
    log(u_j / u_1) for j = 2..D.
    """
    arr, squeeze = _as_rows(u, "alr")
    _check_parts(arr, "alr", 0.0)
    return _maybe_squeeze(_alr(arr), squeeze)


def alr_inverse(v):
    """Inverse additive log-ratio: softmax with an implicit leading zero.

    Logits are shifted by the row maximum before exponentiation so large
    values cannot overflow.
    """
    arr, squeeze = _as_rows(v, "alr_inverse", min_cols=1, what="alr coordinates")
    return _maybe_squeeze(_softmax(arr)[2], squeeze)


def clr(u):
    """Centered log-ratio transform: log parts minus their row mean.

    Output coordinates sum to zero within float error.
    """
    arr, squeeze = _as_rows(u, "clr")
    _check_parts(arr, "clr", 0.0)
    return _maybe_squeeze(_clr(arr), squeeze)


def clr_inverse(y):
    """Inverse centered log-ratio: closure of the exponential.

    Invariant to adding a constant to every coordinate, so coordinates
    need not sum exactly to zero.
    """
    arr, squeeze = _as_rows(y, "clr_inverse", what="clr coordinates")
    return _maybe_squeeze(_clr_inverse(arr), squeeze)


def ilr(u):
    """Isometric log-ratio transform: Helmert rotation of clr coordinates."""
    arr, squeeze = _as_rows(u, "ilr")
    _check_parts(arr, "ilr", 0.0)
    return _maybe_squeeze(_ilr(arr), squeeze)


def ilr_inverse(z):
    """Inverse isometric log-ratio transform."""
    arr, squeeze = _as_rows(z, "ilr_inverse", min_cols=1, what="ilr coordinates")
    return _maybe_squeeze(_clr_inverse(_contrast(arr, "ilr_inverse")), squeeze)


def power_transform(u, alpha):
    """Closed power transform: closure of componentwise powers.

    alpha = 1 is the identity, alpha = 0 collapses every composition to
    the uniform one.  Negative alpha requires strictly positive parts.
    """
    a = check_alpha(alpha)
    arr, squeeze = _as_rows(u, "power_transform")
    _check_parts(arr, "power_transform", a)
    return _maybe_squeeze(closure(arr**a), squeeze)


def alpha_transform(u, alpha):
    """Power-interpolated contrast transform with exponent alpha.

    For alpha != 0 maps a composition u of D parts to
    (1/alpha) H (D * power_transform(u, alpha) - 1), an unconstrained
    vector of length D-1.  At alpha = 0 this is exactly `ilr`, which the
    family approaches as alpha -> 0.  Zeros are allowed only for
    alpha > 0.
    """
    a = check_alpha(alpha)
    arr, squeeze = _as_rows(u, "alpha_transform")
    _check_parts(arr, "alpha_transform", a)
    if a == 0.0:
        return _maybe_squeeze(_ilr(arr), squeeze)
    D = arr.shape[1]
    z = (D * closure(arr**a) - 1.0) @ helmert_submatrix(D).T / a
    return _maybe_squeeze(z, squeeze)


def alpha_inverse(z, alpha):
    """Inverse of `alpha_transform`.

    Requires every component of alpha * H^T z + 1 to be nonnegative
    (strictly positive for alpha < 0); values outside that preimage do
    not correspond to any composition.  For alpha > 0 a component within
    rounding of 0 is 0, so a zero part round-trips to an exact zero.
    """
    a = check_alpha(alpha)
    arr, squeeze = _as_rows(z, "alpha_inverse", min_cols=1, what="transform coordinates")
    y = _contrast(arr, "alpha_inverse")
    if a == 0.0:
        return _maybe_squeeze(_clr_inverse(y), squeeze)
    ay = a * y
    t = ay + 1.0
    if a > 0:
        # A zero part's component rounds to a few ulps of the row's scale
        # 1 + max|a * y| either side of 0; one within D such ulps is 0.
        scale = 1.0 + _fold_rows(np.maximum, np.abs(ay))[:, None]
        near = t.shape[1] * np.finfo(float).eps * scale
        t[np.abs(t) <= near] = 0.0
    low = _fold_rows(np.minimum, t)
    _refuse(low < 0 if a > 0 else low <= 0, lambda r: (
        f"alpha_inverse: row {r}: pre-image component {_plain(low[r])!r} " + (
            "is negative; the point lies outside the transform's range" if low[r] < 0 else
            "is zero, which a negative alpha cannot raise")), OutOfRangeError)
    # A row whose largest power could overflow the closure's sum is first divided
    # by the component that gives it: its largest at alpha > 0, else its smallest.
    top = _fold_rows(np.maximum, t) if a > 0 else low
    far = np.log(top) / a > np.log(np.finfo(float).max / (2 * t.shape[1]))
    t = np.divide(t, top[:, None], out=t, where=far[:, None])
    return _maybe_squeeze(closure(t ** (1.0 / a)), squeeze)
