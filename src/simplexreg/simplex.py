"""Compositions on the simplex: closure, validation gates, zero accounting.

A composition is a vector of D >= 2 nonnegative parts summing to 1.  The
functions here are the single entry point for turning raw arrays into
validated compositions; downstream modules assume their inputs already
passed these gates.  The package's rules live here: one for compositions
(`_composition_fault` names a row that is not one; `_close`, the closing
step of `closure`, decides row by row which rows are already closed), run
once per matrix by `as_composition_matrix`, which closes what it checked
without repeating `closure`'s checks for caller input; one for predictor rows
(`_predictor_gate`: finite, of the model's width, and small enough that
squared distances stay finite), one for counts (`_check_count`), one for
real numbers (`_check_real`), one for seeds (`_check_seed`), one for grid
axes (`_grid_axis`) and one for refusals, by first offending row (`_refuse`).
Caller arrays become float arrays through `_as_floats`, naming what it rejects.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError

# Row sums may deviate from 1 by at most this much before rejection.
SUM_TOL = 1e-9


def _plain(value):
    # A numpy scalar prints as the value it holds: 2.5, not np.float64(2.5).
    return value.item() if isinstance(value, np.generic) else value


def _as_floats(data, what):
    """Caller data as a float array: the one conversion, naming `what` on failure."""
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numeric: {exc}") from None


def _first_hit(mask):
    """Index of the first True of `mask` as a tuple of plain ints, or None."""
    hits = np.flatnonzero(mask)  # one pass over the mask as computed, no per-row reduction
    return tuple(map(int, np.unravel_index(hits[0], mask.shape))) if hits.size else None


def _refuse(mask, message, error=ValidationError):
    """The package's one refusal rule: raise `error(message(*_first_hit(mask)))`, if any."""
    if (place := _first_hit(mask)) is not None:
        raise error(message(*place))


def _check_count(name, value, minimum=None):
    """The package's one integer rule: an int, numpy integer or integral
    float, never a bool, and at least `minimum`; returns a plain int."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if (not integral or isinstance(value, (bool, np.bool_))
            or (minimum is not None and value < minimum)):
        rule = ("an integer" if minimum is None else
                "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}")
        raise ValidationError(f"{name} must be {rule}, got {_plain(value)!r}")
    return int(value)


def _check_real(name, value):
    """The package's one real-number rule: anything `float` takes, never a
    bool or a string; returns a plain float, which may still be nan or
    infinite."""
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int past 1e308
            pass
    raise ValidationError(f"{name} must be a number, got {_plain(value)!r}")


def _check_seed(seed, what="seed"):
    """A numpy SeedSequence passes unchanged; any other seed is a count >= 0."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return _check_count(what, seed, 0)


def _grid_axis(name, values, check):
    """A non-empty grid axis as a tuple of `check(v)`."""
    # An object array keeps 2.7 and True from becoming ints before the check.
    values = np.atleast_1d(np.asarray(values, dtype=object))
    if not values.size:
        raise ValidationError(f"{name} grid is empty")
    return tuple(check(v) for v in values)


def closure(values, axis=-1):
    """Rescale nonnegative parts to unit sum along `axis`.

    Parameters
    ----------
    values : array_like
        Nonnegative, finite entries.  Any shape; each slice along `axis`
        is normalized independently.
    axis : int
        Axis holding the parts of one composition.  A refused entry is
        named by its row in a matrix, else by its index.

    Returns
    -------
    ndarray
        Same shape as `values`, slices summing to 1.
    """
    x = _as_floats(values, "closure input")
    axis, ndim = _check_count("axis", axis), max(x.ndim, 1)  # a scalar takes axis 0 or -1
    if x.size == 0:
        raise ValidationError("closure: input is empty")
    if not -ndim <= axis < ndim:
        raise ValidationError(f"closure: axis {axis} is out of range for {x.ndim}-D input")
    for bad, reason in ((~np.isfinite(x), "non-finite value"), (x < 0, "negative component")):
        _refuse(np.atleast_1d(bad), lambda *i: "closure: {} {}: {}".format(
            "row" if len(i) == 2 else "entry", i[0] if len(i) < 3 else i, reason))
    # A slice whose sum could overflow is first divided by its largest part;
    # closure is scale-invariant, and every other slice keeps its bits.
    top = x.max(axis=axis, keepdims=True)
    big = top > np.finfo(float).max / (x.size // top.size)
    if big.any():
        x = x / np.where(big, top, 1.0)
    total = x.sum(axis=axis, keepdims=True)
    if np.any(total <= 0):
        raise DegenerateInputError("closure: a slice sums to zero")
    return _close(x, total)


def _close(x, total, in_place=False):
    """`closure`'s closing step, for checked x whose slices sum to `total` > 0."""
    # A slice whose sum is within float noise of 1 is already closed;
    # leaving it undivided makes closure exactly idempotent.  The rule is
    # per slice, so no slice's bits depend on the others in the call.
    closed = np.abs(total - 1.0) <= 8e-15
    if not closed.any():
        return np.divide(x, total, out=x if in_place else None)
    if closed.all():
        return x
    if in_place:
        return np.divide(x, total, out=x, where=~closed)
    return np.where(closed, x, x / total)


def _composition_fault(U):
    """(row, reason) for the first row of the 2-D array U with a non-finite
    part, else the first with a negative part, else the first whose sum is
    more than `SUM_TOL` from 1; None when every row is a composition."""
    for bad, reason in ((~np.isfinite(U), "non-finite value"), (U < 0, "negative component")):
        if hit := _first_hit(bad):
            return hit[0], reason
    with np.errstate(over="ignore"):  # an infinite sum is refused like any other
        sums = U.sum(axis=1)
    if hit := _first_hit(np.abs(sums - 1.0) > SUM_TOL):
        return hit[0], f"sum {float(sums[hit[0]])!r} outside tolerance {SUM_TOL}"
    return None


def as_composition(values):
    """Validate a single composition vector: the one-row case of
    `as_composition_matrix`.  An already closed float64 vector is returned
    as itself."""
    x = _as_floats(values, "composition")
    if x.ndim != 1:
        raise ValidationError(f"composition must be 1-D, got ndim={x.ndim}")
    as_composition_matrix(x[None, :])
    return _close(x, x.sum(keepdims=True))


def as_composition_matrix(data):
    """Validate a matrix of row compositions.

    Rows failing `_composition_fault` are rejected with the offending row
    index; the rest are re-closed row by row under `closure`'s rule, so a
    row's bits never depend on the other rows.  Already closed float64
    input is returned by reference, not copied.
    """
    arr = np.ascontiguousarray(_as_floats(data, "composition matrix"))
    if arr.ndim != 2:
        raise ValidationError(f"composition matrix must be 2-D, got ndim={arr.ndim}")
    n, width = arr.shape
    if n < 1:
        raise ValidationError("composition matrix has no rows")
    if width < 2:
        raise ValidationError("composition matrix needs at least 2 columns")
    fault = _composition_fault(arr)
    if fault:
        raise ValidationError(f"row {fault[0]}: {fault[1]}")
    return _close(arr, arr.sum(axis=1, keepdims=True))


def as_predictor_matrix(data):
    """Validate an (n, p) matrix of finite Euclidean predictors.

    A 1-D vector is treated as a single predictor column.
    """
    arr = np.ascontiguousarray(_as_floats(data, "predictor matrix"))
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValidationError(f"predictor matrix must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"predictor matrix has empty shape {arr.shape}")
    _refuse(~np.isfinite(arr), lambda r, _: f"row {r}: non-finite predictor value")
    return arr


def _predictor_gate(data, what, width=None):
    """The package's one predictor rule: `as_predictor_matrix`, then, if
    given, the model's `width`, then a bound on every entry.  `what`
    ("training" or "query") names the rows; callers run it on the whole
    matrix they were handed, so an error names a row of it."""
    arr = as_predictor_matrix(data)
    if width is not None and arr.shape[1] != width:
        raise ValidationError(
            f"{what} width {arr.shape[1]} does not match the model's {width} predictors")
    # p squared differences of at most (2 * limit)^2 sum to half the float
    # maximum, so squared distances within the bound stay finite.
    limit = np.sqrt(np.finfo(float).max / (8 * arr.shape[1]))
    _refuse(np.abs(arr) > limit, lambda r, _: (
        f"{what} row {r} exceeds magnitude {limit:.4g}, beyond which squared distances overflow"))
    return arr


@dataclass(frozen=True)
class ZeroReport:
    """Zero pattern of a composition matrix."""

    rows: int
    zero_rows: int
    column_zero_counts: tuple

    @property
    def has_zeros(self):
        return self.zero_rows > 0


def validate_composition_matrix(data):
    """Validate a matrix and report its zero pattern without mutating it.

    Returns
    -------
    ZeroReport
        Row count, number of rows containing at least one zero, and the
        per-column zero counts.
    """
    arr = as_composition_matrix(data)
    zero_mask = arr == 0.0
    return ZeroReport(
        rows=arr.shape[0],
        zero_rows=int(zero_mask.any(axis=1).sum()),
        column_zero_counts=tuple(int(c) for c in zero_mask.sum(axis=0)),
    )
