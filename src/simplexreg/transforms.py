"""Maps between the simplex and Euclidean coordinates.

Implements the additive, centered, and isometric log-ratio transforms, the
closed power transform, and the power-interpolated family indexed by an
exponent alpha in [-1, 1] that recovers the isometric log-ratio transform
in the limit alpha -> 0.  All transforms accept a single composition (1-D)
or a matrix of row compositions (2-D) and return matching shape.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import OutOfRangeError, ValidationError, ZeroNotAllowedError
from .simplex import _as_floats, _check_count, _check_real, closure


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
    if arr.ndim == 1:
        arr = arr[None, :]
        squeeze = True
    elif arr.ndim == 2:
        squeeze = False
    else:
        raise ValidationError(f"{what} must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise ValidationError(f"{what} has no rows")
    if arr.shape[1] < min_cols:
        raise ValidationError(
            f"{what} needs at least {min_cols} columns, got {arr.shape[1]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{op}: input contains non-finite values")
    return arr, squeeze


def _check_parts(arr, op, positive):
    if np.any(arr < 0):
        raise ValidationError(f"{op}: input contains negative values")
    if positive and np.any(arr == 0):
        raise ZeroNotAllowedError(f"{op} requires strictly positive parts")


def _maybe_squeeze(arr, squeeze):
    return arr[0] if squeeze else arr


def alr(u):
    """Additive log-ratio transform, first part as reference.

    Maps a strictly positive composition of D parts to the D-1 vector
    log(u_j / u_1) for j = 2..D.
    """
    arr, squeeze = _as_rows(u, "alr")
    _check_parts(arr, "alr", positive=True)
    logs = np.log(arr)
    return _maybe_squeeze(logs[:, 1:] - logs[:, :1], squeeze)


def alr_inverse(v):
    """Inverse additive log-ratio: softmax with an implicit leading zero.

    Logits are shifted by the row maximum before exponentiation so large
    values cannot overflow.
    """
    arr, squeeze = _as_rows(v, "alr_inverse", min_cols=1, what="alr coordinates")
    shift = np.maximum(arr.max(axis=1), 0.0)
    expv = np.exp(arr - shift[:, None])
    denom = np.exp(-shift) + expv.sum(axis=1)
    out = np.empty((arr.shape[0], arr.shape[1] + 1))
    out[:, 0] = np.exp(-shift) / denom
    out[:, 1:] = expv / denom[:, None]
    return _maybe_squeeze(out, squeeze)


def clr(u):
    """Centered log-ratio transform: log parts minus their row mean.

    Output coordinates sum to zero within float error.
    """
    arr, squeeze = _as_rows(u, "clr")
    _check_parts(arr, "clr", positive=True)
    logs = np.log(arr)
    return _maybe_squeeze(logs - logs.mean(axis=1, keepdims=True), squeeze)


def clr_inverse(y):
    """Inverse centered log-ratio: closure of the exponential.

    Invariant to adding a constant to every coordinate, so coordinates
    need not sum exactly to zero.
    """
    arr, squeeze = _as_rows(y, "clr_inverse", what="clr coordinates")
    shifted = arr - arr.max(axis=1, keepdims=True)
    return _maybe_squeeze(closure(np.exp(shifted)), squeeze)


def ilr(u):
    """Isometric log-ratio transform: Helmert rotation of clr coordinates."""
    arr, squeeze = _as_rows(u, "ilr")
    _check_parts(arr, "ilr", positive=True)
    return _maybe_squeeze(clr(arr) @ helmert_submatrix(arr.shape[1]).T, squeeze)


def ilr_inverse(z):
    """Inverse isometric log-ratio transform."""
    arr, squeeze = _as_rows(z, "ilr_inverse", min_cols=1, what="ilr coordinates")
    return _maybe_squeeze(clr_inverse(arr @ helmert_submatrix(arr.shape[1] + 1)), squeeze)


def power_transform(u, alpha):
    """Closed power transform: closure of componentwise powers.

    alpha = 1 is the identity, alpha = 0 collapses every composition to
    the uniform one.  Negative alpha requires strictly positive parts.
    """
    a = check_alpha(alpha)
    arr, squeeze = _as_rows(u, "power_transform")
    _check_parts(arr, "power_transform", positive=a <= 0)
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
    if a == 0.0:
        return ilr(arr if not squeeze else arr[0])
    _check_parts(arr, "alpha_transform", positive=a < 0)
    D = arr.shape[1]
    H = helmert_submatrix(D)
    w = closure(arr**a)
    z = (D * w - 1.0) @ H.T / a
    return _maybe_squeeze(z, squeeze)


def alpha_inverse(z, alpha):
    """Inverse of `alpha_transform`.

    Requires every component of alpha * H^T z + 1 to be nonnegative
    (strictly positive for alpha < 0); values outside that preimage do
    not correspond to any composition.
    """
    a = check_alpha(alpha)
    arr, squeeze = _as_rows(z, "alpha_inverse", min_cols=1, what="transform coordinates")
    if a == 0.0:
        return ilr_inverse(arr if not squeeze else arr[0])
    H = helmert_submatrix(arr.shape[1] + 1)
    t = a * (arr @ H) + 1.0
    if np.any(t < 0):
        raise OutOfRangeError(
            f"alpha_inverse: pre-image component {t.min()!r} is negative; "
            "the point lies outside the transform's range"
        )
    if a < 0 and np.any(t == 0):
        raise OutOfRangeError(
            "alpha_inverse: zero pre-image component with negative alpha"
        )
    return _maybe_squeeze(closure(t ** (1.0 / a)), squeeze)
