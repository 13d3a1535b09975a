"""Timing harness comparing model families on synthetic data.

Each cell of an (n, D) grid generates a degree-1 polynomial-link dataset,
then times three workloads: the log-ratio least squares baseline (fit and
predict), the multinomial logit baseline (fit and predict), and the
k-nearest-neighbor family producing predictions for the full default
tuning grid of 11 exponents by 99 neighborhood sizes.  Wall times are
medians over repeats on identical data.  Absolute numbers depend on the
machine and are reported next to a hardware descriptor; only ratios and
how times scale with n and D are meaningful.  Cells whose estimated
working set exceeds available memory are skipped with a reason instead
of thrashing.  The k-NN timing is `tune`'s own grid iterator over one
`query_batch` (one block loop, blocks from `neighbors._row_blocks`);
sampled cells pass `as_composition_matrix`, the package's composition
gate, and the report's JSON keys are the dataclass fields.
"""

import json
import os
import platform
import time
from dataclasses import asdict, dataclass

import numpy as np

from .datagen import SimSpec, gen_polynomial
from .errors import SimplexRegError, ValidationError
from .neighbors import _check_k, build_index
from .regressors import fit_kld, fit_logratio_ols, iter_knn_grid_predictions
from .simplex import _check_count, _grid_axis, as_composition_matrix
from .transforms import check_alpha

DEFAULT_ALPHAS = tuple(round(0.1 * i, 10) for i in range(11))
DEFAULT_KS = tuple(range(2, 101))

# Fraction of grid cells whose predictions get re-validated after timing.
_VALIDATE_EVERY = 100


@dataclass(frozen=True)
class BenchScenario:
    """Grid and sizing knobs for one harness run."""

    n_grid: tuple = (100_000, 200_000, 400_000, 800_000)
    d_grid: tuple = (3, 5)
    queries: int = 1000
    repeats: int = 3
    seed: int = 0
    predictors: int = 1
    alphas: tuple = DEFAULT_ALPHAS
    ks: tuple = DEFAULT_KS

    def __post_init__(self):
        for name in ("n_grid", "d_grid"):
            values = getattr(self, name)
            values = tuple(values) if np.ndim(values) else (values,)
            object.__setattr__(self, name, tuple(_check_count(name, v) for v in values))
        for name in ("queries", "repeats", "predictors"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), 1))
        # The seed is mixed into each cell's SeedSequence and reported: an int.
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))
        object.__setattr__(self, "alphas", _grid_axis("alphas", self.alphas, check_alpha))
        object.__setattr__(self, "ks", _grid_axis("ks", self.ks, _check_k))
        if not self.n_grid or min(self.n_grid) <= max(self.ks):
            raise ValidationError(
                f"every n must exceed the largest k ({max(self.ks)})"
            )
        if not self.d_grid or min(self.d_grid) < 2:
            raise ValidationError("every D must be at least 2")


@dataclass(frozen=True)
class BenchCell:
    n: int
    D: int
    ols_seconds: float = None
    kld_seconds: float = None
    aknn_seconds: float = None
    kld_over_ols: float = None
    aknn_over_ols: float = None
    skipped: bool = False
    reason: str = None


@dataclass(frozen=True)
class BenchReport:
    cells: tuple
    hardware: str
    threads: int  # always 1: the harness runs serially
    queries: int
    repeats: int
    seed: int
    alphas: tuple
    ks: tuple

    def to_dict(self):
        return {"schema_version": 1, **asdict(self)}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _available_memory_bytes():
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _estimate_cell_bytes(n, D, p, queries, k_max):
    train = n * (p + D) * 8
    # Newton forward pass temporaries dominate the logit fit.
    newton = n * (D + 4 * (D - 1) + 2) * 8
    gather = queries * k_max * D * 8 * 3
    return 2 * (train + newton) + gather


def _validate_sample(preds, D):
    for pred in preds:
        if pred.shape[1] != D:
            raise ValidationError("benchmark prediction has wrong width")
        as_composition_matrix(pred)


def _time_cell(scenario, n, D):
    ss = np.random.SeedSequence([scenario.seed, D, n])
    coef_seed, data_seed, query_seed = (int(s) for s in ss.generate_state(3))
    spec = SimSpec(
        n=n,
        D=D,
        link="polynomial",
        degree=1,
        predictors=scenario.predictors,
        noise_scale=0.1,
        coef_seed=coef_seed,
        data_seed=data_seed,
    )
    X, U, _ = gen_polynomial(spec)
    Q = np.random.default_rng(query_seed).standard_normal(
        (scenario.queries, scenario.predictors)
    )
    ols_times = []
    kld_times = []
    aknn_times = []
    sampled = []
    for _ in range(scenario.repeats):
        t0 = time.perf_counter()
        ols = fit_logratio_ols(X, U, transform="alr")
        ols.predict(Q)
        t1 = time.perf_counter()
        kld = fit_kld(X, U)
        kld.predict(Q)
        t2 = time.perf_counter()
        index = build_index(X, strategy="auto")
        sampled = []
        cell_no = 0
        for _ai, _ki, pred in iter_knn_grid_predictions(
            index, U, Q, scenario.alphas, scenario.ks
        ):
            if cell_no % _VALIDATE_EVERY == 0 and pred is not None:
                sampled.append(pred)
            cell_no += 1
        t3 = time.perf_counter()
        ols_times.append(t1 - t0)
        kld_times.append(t2 - t1)
        aknn_times.append(t3 - t2)
    _validate_sample(sampled, D)
    ols_s = float(np.median(ols_times))
    kld_s = float(np.median(kld_times))
    aknn_s = float(np.median(aknn_times))
    return BenchCell(
        n=n,
        D=D,
        ols_seconds=ols_s,
        kld_seconds=kld_s,
        aknn_seconds=aknn_s,
        kld_over_ols=kld_s / ols_s,
        aknn_over_ols=aknn_s / ols_s,
    )


def run_bench(scenario):
    """Run every (n, D) cell sequentially and return a BenchReport."""
    if not isinstance(scenario, BenchScenario):
        raise ValidationError("scenario must be a BenchScenario")
    k_max = max(scenario.ks)
    avail = _available_memory_bytes()
    cells = []
    for D in scenario.d_grid:
        for n in scenario.n_grid:
            est = _estimate_cell_bytes(
                n, D, scenario.predictors, scenario.queries, k_max
            )
            if avail is not None and est > 0.8 * avail:
                reason = f"estimated {est} bytes exceeds available {avail}"
            else:
                try:
                    cells.append(_time_cell(scenario, n, D))
                    continue
                except SimplexRegError as err:
                    reason = f"{type(err).__name__}: {err}"
            cells.append(BenchCell(n=n, D=D, skipped=True, reason=reason))
    hardware = (
        f"{platform.platform()} / "
        f"{platform.processor() or platform.machine()} / "
        f"cpus={os.cpu_count()}"
    )
    return BenchReport(
        cells=tuple(cells),
        hardware=hardware,
        threads=1,
        queries=scenario.queries,
        repeats=scenario.repeats,
        seed=scenario.seed,
        alphas=scenario.alphas,
        ks=scenario.ks,
    )
