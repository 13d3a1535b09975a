"""The composition rule runs once per matrix.

`as_composition_matrix` checks a matrix with `_composition_fault` and then
closes it without a second pass through `closure`'s checks; `load_csv`
runs that gate once on a clean file; `frechet_path` gates its matrix once
for the whole grid.  The closed results keep the bits `closure` gives.
"""

import numpy as np
import pytest

from simplexreg import (
    DatasetSchema,
    ZeroNotAllowedError,
    closure,
    frechet_mean,
    frechet_path,
    load_csv,
    power_transform,
)
from simplexreg import frechet, ingestion, simplex


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _no_closure(*args, **kwargs):
    raise AssertionError("closure called")


@pytest.fixture
def near_closed():
    # Row sums within SUM_TOL of 1 but not within closure's 8e-15, so the
    # gate divides every row.
    U = np.random.default_rng(8).dirichlet((1.0, 2.0, 3.0, 4.0), size=500)
    U[:, 0] += 1e-12
    return U


class TestGate:
    def test_one_fault_pass_and_no_closure(self, near_closed, monkeypatch):
        expect = closure(near_closed)
        calls = []
        _counting(monkeypatch, simplex, "_composition_fault", calls)
        monkeypatch.setattr(simplex, "closure", _no_closure)
        got = simplex.as_composition_matrix(near_closed)
        assert calls == ["_composition_fault"]
        assert got.tobytes() == expect.tobytes()

    def test_closed_input_returned_by_reference(self, near_closed):
        closed = closure(near_closed)
        assert simplex.as_composition_matrix(closed) is closed

    def test_single_vector_bits(self, near_closed, monkeypatch):
        expect = closure(near_closed[3])
        monkeypatch.setattr(simplex, "closure", _no_closure)
        assert simplex.as_composition(near_closed[3]).tobytes() == expect.tobytes()


class TestLoader:
    def test_clean_file_gated_once(self, near_closed, tmp_path, monkeypatch):
        path = tmp_path / "clean.csv"
        X = np.arange(len(near_closed), dtype=float)[:, None]
        ingestion.write_dataset_csv(path, X, near_closed)
        schema = DatasetSchema(response_cols=("y1", "y2", "y3", "y4"),
                               predictor_cols=("x1",))
        calls = []
        for module in (simplex, ingestion):
            _counting(monkeypatch, module, "_composition_fault", calls)
        monkeypatch.setattr(simplex, "closure", _no_closure)
        _, U = load_csv(path, schema)
        assert calls == ["_composition_fault"]
        assert U.tobytes() == closure(np.loadtxt(path, delimiter=",", skiprows=1,
                                                 usecols=(1, 2, 3, 4))).tobytes()

    def test_gate_failure_reads_the_file_again(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y1,y2\n0.5,0.5\n0.5,0.6\n")
        with pytest.raises(ValueError, match=r"line 3: response columns: sum"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))


class TestFrechetPath:
    def test_gated_once_for_the_grid(self, near_closed, monkeypatch):
        alphas = np.linspace(-1.0, 1.0, 21)
        expect = frechet_path(near_closed, alphas)
        calls = []
        _counting(monkeypatch, frechet, "as_composition_matrix", calls)
        got = frechet_path(near_closed, alphas)
        assert calls == ["as_composition_matrix"]
        assert [(a, m.tobytes()) for a, m in got] == [(a, m.tobytes()) for a, m in expect]

    def test_mean_is_the_one_point_path(self, near_closed):
        for a in (-1.0, 0.0, 0.25, 1.0):
            assert frechet_mean(near_closed, a).tobytes() == \
                frechet_path(near_closed, [a])[0][1].tobytes()

    def test_zeros_still_named_as_frechet_mean(self):
        U = np.array([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(ZeroNotAllowedError, match=r"^frechet_mean: .*alpha=0\.0"):
            frechet_path(U, [1.0, 0.0])


@pytest.mark.parametrize("D", range(2, 11))
def test_power_transform_at_zero_is_uniform(D):
    u = np.random.default_rng(D).dirichlet(np.ones(D), size=7)
    assert power_transform(u, 0).tobytes() == np.full((7, D), 1.0 / D).tobytes()
    assert power_transform(u[0], 0.0).tobytes() == np.full(D, 1.0 / D).tobytes()
