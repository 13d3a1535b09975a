"""The benchmark's span recorder still finds every name it rebinds.

`benchmark/tracing.py` wraps package functions by rebinding them on the
modules that call them, so a module that stops binding one of those names
breaks `benchmark/run.py --trace 1`.  This guard fails first.
"""

import importlib.util
from pathlib import Path

from simplexreg import (cli, datagen, frechet, ingestion, neighbors, regressors, selection,
                        simplex)

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores():
    owners = (cli, datagen, frechet, ingestion, neighbors, regressors, selection)
    before = [dict(vars(m)) for m in owners]
    index_before = dict(vars(neighbors.NeighborIndex))
    kernels_before = dict(regressors.KERNELS)

    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # inside try: a failed install is still undone
        assert cli.load_csv is not ingestion.load_csv
        assert selection.closure is not simplex.closure
        assert regressors.KERNELS["gaussian"] is not kernels_before["gaussian"]
    finally:
        tracer.uninstall()

    assert cli.load_csv is ingestion.load_csv
    assert cli.fit_alpha_knn is regressors.fit_alpha_knn
    assert selection.closure is simplex.closure
    assert [dict(vars(m)) for m in owners] == before
    assert dict(vars(neighbors.NeighborIndex)) == index_before
    assert regressors.KERNELS == kernels_before
