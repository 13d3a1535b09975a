"""Power-family means of compositions: the engine behind both neighbor
regressors and the tuner.

The mean of compositions u_1..u_n under exponent alpha is the closure of
(sum_j u_j^alpha)^(1/alpha); its alpha -> 0 limit is the closed geometric
mean, which is what alpha = 0 computes directly.  alpha = 1 recovers the
arithmetic mean.  Weighted variants accept nonnegative weights with a
positive sum; `closure` normalizes them, which the outer closure makes
equivalent to leaving them raw.

All power paths average the powered parts instead of summing them (the
closure cancels the difference): with a raw sum the outer 1/alpha power
overflows for tiny exponents, where sum^(1/alpha) is roughly n^(1/alpha).

Every power mean in the package is `_unpower(<average of> _power(U, a), a)`;
only these two helpers know that alpha = 0 is the geometric limit.
"""

import numpy as np

from .errors import ValidationError, ZeroNotAllowedError
from .simplex import _as_floats, _grid_axis, as_composition_matrix, closure
from .transforms import check_alpha


def _check_zero_alpha(U, a, op):
    if a <= 0 and np.any(U == 0):
        raise ZeroNotAllowedError(
            f"{op}: zero components require alpha > 0, got alpha={a!r}"
        )


def _power(U, a, out=None):
    # U^a, or log U in the alpha -> 0 limit; assumes validated strictly
    # positive input whenever a <= 0.
    if a == 0.0:
        return np.log(U, out=out)
    return np.power(U, a, out=out)


def _unpower(S, a):
    # Inverse of _power applied to an average S of powered rows, closed.
    if a == 0.0:
        return closure(np.exp(S))
    return closure(S ** (1.0 / a))


def frechet_mean(U, alpha):
    """Mean composition of the rows of U under exponent alpha: the one-point path."""
    return frechet_path(U, (check_alpha(alpha),))[0][1]


def weighted_frechet_mean(U, weights, alpha):
    """Weighted mean composition of the rows of U.

    Parameters
    ----------
    U : array_like, shape (n, D)
        Row compositions.
    weights : array_like, shape (n,)
        Nonnegative finite weights with a positive sum.
    alpha : float
        Power exponent in [-1, 1].
    """
    a = check_alpha(alpha)
    arr = as_composition_matrix(U)
    w = _as_floats(weights, "weights")
    if w.ndim != 1 or w.shape[0] != arr.shape[0]:
        raise ValidationError(
            f"weights shape {w.shape} does not match {arr.shape[0]} rows"
        )
    w = closure(w)
    _check_zero_alpha(arr, a, "weighted_frechet_mean")
    return _unpower(w @ _power(arr, a), a)


def frechet_path(U, alphas):
    """Mean composition evaluated along a grid of exponents.

    Returns a list of (alpha, mean) pairs in grid order, one mean per
    requested exponent.  U passes the composition gate once for the grid.
    """
    arr = as_composition_matrix(U)
    path = []
    for a in _grid_axis("alphas", alphas, check_alpha):
        _check_zero_alpha(arr, a, "frechet_mean")
        path.append((a, _unpower(_power(arr, a).mean(axis=0), a)))
    return path
