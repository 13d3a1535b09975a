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
`_unpower` closes its result with `simplex._close` after one check, that
every sum is positive, in place on the fresh average it is given.  Its
input is built from compositions that already passed the gate, so
`closure`'s checks for caller input are not repeated;
a sum that is zero (every part of the mean is 0) or NaN raises
DegenerateInputError.  No sum of powers is infinite: `_check_alpha_parts`
refuses, naming the row, a part whose power exceeds finfo.max / terms (n
for the mean, 1 for weights summing to 1), as it refuses zeros at alpha <= 0.
"""

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .simplex import _as_floats, _close, _grid_axis, _refuse, as_composition_matrix, closure
from .transforms import _check_alpha_parts, check_alpha


def _power(U, a, out=None):
    # U^a, or log U in the alpha -> 0 limit; assumes validated strictly
    # positive input whenever a <= 0.
    if a == 0.0:
        return np.log(U, out=out)
    return np.power(U, a, out=out)


def _unpower(S, a):
    # Inverse of _power applied to an average S of powered rows, closed in
    # place: S is a fresh array of the caller's, and the result is S.
    # S averages powers of gated compositions, so no part is negative;
    # a sum that is not positive is a degenerate mean (see the docstring).
    if a == 0.0:
        np.exp(S, out=S)
    else:
        S **= 1.0 / a  # numpy's fast paths serve 1/a in {1, -1, 2} here too
    total = S.sum(axis=-1, keepdims=True)
    if not np.all(total > 0):
        raise DegenerateInputError("closure: a slice sums to zero")
    return _close(S, total, in_place=True)


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
        raise ValidationError(f"weights shape {w.shape} does not match {arr.shape[0]} rows")
    _refuse(~((w >= 0) & (w < np.inf)), lambda r: (
        f"weighted_frechet_mean: row {r}: weight {float(w[r])!r} must be finite and nonnegative"))
    if not w.any():
        raise DegenerateInputError("weighted_frechet_mean: every weight is zero")
    w = closure(w)
    _check_alpha_parts(arr, a, "weighted_frechet_mean", 1)
    return _unpower(w @ _power(arr, a), a)


def frechet_path(U, alphas):
    """Mean composition evaluated along a grid of exponents.

    Returns a list of (alpha, mean) pairs in grid order, one mean per
    requested exponent.  U passes the composition gate once for the grid.
    """
    arr = as_composition_matrix(U)
    path = []
    for a in _grid_axis("alphas", alphas, check_alpha):
        _check_alpha_parts(arr, a, "frechet_mean", len(arr))
        path.append((a, _unpower(_power(arr, a).mean(axis=0), a)))
    return path
