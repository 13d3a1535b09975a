"""Synthetic datasets with known compositional regression structure.

Two generating links over D-1 latent coordinates f(z), pushed through a
softmax with an implicit leading zero:

* polynomial: f_j(z) = b0_j + (z^degree) . b_j + noise, with intercepts
  drawn from N(-3, 1) and slopes from N(2, 0.5);
* segmented: a single predictor equally spaced on [-1, 1] with
  f_j(z) = z^2 b1_j for z >= 0 and z^3 b2_j for z < 0, slopes from
  N(-1, 0.3) and N(1, 0.2).

Normal parameters are (mean, standard deviation).  Coefficients and data
come from two independent seeded generators so coefficient draws can be
held fixed while data is replicated.  Draw order is part of the
determinism contract: coefficients row by row, then predictors, then
noise, then zero injection.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .simplex import _as_floats, _check_count, _check_real, _check_seed, as_composition_matrix
from .transforms import alr_inverse

_LINKS = ("polynomial", "segmented")


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic dataset."""

    n: int
    D: int
    link: str = "polynomial"
    degree: int = 1
    predictors: int = 1
    noise_scale: float = 0.1
    zero_fraction: float = 0.0
    coef_seed: int = 0
    data_seed: int = 1

    def __post_init__(self):
        for name, minimum in (("n", 2), ("D", 2), ("degree", 1), ("predictors", 1)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), minimum))
        for name in ("noise_scale", "zero_fraction"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        if self.link not in _LINKS:
            raise ValidationError(f"link must be one of {_LINKS}, got {self.link!r}")
        if self.degree not in (1, 2, 3):
            raise ValidationError(f"degree must be 1, 2, or 3, got {self.degree!r}")
        if self.link == "segmented" and self.predictors != 1:
            raise ValidationError("segmented link uses exactly one predictor")
        if self.link == "segmented" and self.degree != 1:
            raise ValidationError("segmented link has no degree; leave degree at 1")
        if not 0.0 <= self.zero_fraction < 1.0:
            raise ValidationError(f"zero_fraction must lie in [0, 1), got {self.zero_fraction!r}")
        if 0 < self.zero_fraction * self.n < 1:
            raise ValidationError(
                f"zero_fraction {self.zero_fraction!r} zeroes no row of n = {self.n}: "
                "zeros go in floor(zero_fraction * n) rows"
            )
        if self.zero_fraction > 0 and self.D == 2:
            raise ValidationError(
                "zero_fraction needs D >= 3: zeros go in D // 3 parts, none when D = 2"
            )
        if not np.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise ValidationError(
                f"noise_scale must be nonnegative, got {self.noise_scale!r}"
            )
        for name in ("coef_seed", "data_seed"):
            object.__setattr__(self, name, _check_seed(getattr(self, name), name))


def simplex_link(F):
    """Latent coordinates to compositions: softmax with a leading zero.

    The all-zero row maps to the uniform composition; a coordinate much
    larger than the rest saturates its component toward 1.
    """
    F = _as_floats(F, "latent matrix")
    if F.ndim != 2:
        raise ValidationError(f"latent matrix must be 2-D, got ndim={F.ndim}")
    return alr_inverse(F)


def gen_polynomial(spec):
    """Polynomial-link dataset.

    Returns
    -------
    X : ndarray, shape (n, predictors)
        Standard normal predictors.
    U : ndarray, shape (n, D)
        Row compositions.
    coef : ndarray, shape (predictors + 1, D - 1)
        True coefficients, intercept row first.
    """
    if spec.link != "polynomial":
        raise ValidationError(f"spec.link is {spec.link!r}, not 'polynomial'")
    return generate(spec)


def gen_segmented(spec):
    """Segmented-link dataset on one equally spaced predictor.

    The z >= 0 branch is quadratic, the z < 0 branch cubic; both vanish
    at zero so the latent map is continuous.  coef stacks the two branch
    slope vectors, z >= 0 branch first.
    """
    if spec.link != "segmented":
        raise ValidationError(f"spec.link is {spec.link!r}, not 'segmented'")
    return generate(spec)


def generate(spec):
    """The dataset of spec.link: (predictors, compositions, coefficients)."""
    d = spec.D - 1
    rng_coef = np.random.default_rng(spec.coef_seed)
    rng_data = np.random.default_rng(spec.data_seed)
    if spec.link == "polynomial":
        intercepts = rng_coef.normal(-3.0, 1.0, size=d)
        slopes = rng_coef.normal(2.0, 0.5, size=(spec.predictors, d))
        X = rng_data.standard_normal((spec.n, spec.predictors))
        F = intercepts + (X**spec.degree) @ slopes
        coef = np.vstack([intercepts, slopes])
    else:
        b_pos = rng_coef.normal(-1.0, 0.3, size=d)
        b_neg = rng_coef.normal(1.0, 0.2, size=d)
        X = np.linspace(-1.0, 1.0, spec.n)[:, None]
        F = np.where(X >= 0, X**2 * b_pos, X**3 * b_neg)
        coef = np.vstack([b_pos, b_neg])
    F += rng_data.normal(0.0, spec.noise_scale, size=(spec.n, d))
    U = simplex_link(F)
    if spec.zero_fraction > 0:
        U = inject_zeros(U, spec.zero_fraction, rng_data)
    return X, U, coef


def inject_zeros(U, fraction, seed):
    """Zero out floor(D / 3) components in floor(fraction * n) rows.

    Selected rows are re-closed after zeroing; a component draw that
    would wipe out the whole row is redrawn.  Unselected rows are
    preserved bit for bit.  With D = 2 the component count floors to
    zero and the input is returned unchanged.

    `seed` is a seed under the package's seed rule, or a numpy Generator
    to draw from.
    """
    U = as_composition_matrix(U)
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(_check_seed(seed)))
    fraction = _check_real("fraction", fraction)
    if not 0.0 <= fraction < 1.0:
        raise ValidationError(f"fraction must lie in [0, 1), got {fraction!r}")
    n, D = U.shape
    n_rows = int(fraction * n)
    n_comps = D // 3
    if n_rows == 0 or n_comps == 0:
        return U
    rows = rng.choice(n, size=n_rows, replace=False)
    out = U.copy()
    for r in rows:
        while True:
            comps = rng.choice(D, size=n_comps, replace=False)
            row = U[r].copy()
            row[comps] = 0.0
            total = row.sum()
            if total > 0:
                out[r] = row / total
                break
    return out
