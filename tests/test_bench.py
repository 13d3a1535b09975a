"""Timing harness: scenario validation, report structure, memory guard."""

import json

import numpy as np
import pytest

from simplexreg.bench import BenchScenario, _validate_sample, run_bench
from simplexreg.errors import ValidationError


def tiny_scenario(**kwargs):
    base = dict(
        n_grid=(60, 120),
        d_grid=(3,),
        queries=8,
        repeats=1,
        seed=0,
        alphas=(0.0, 1.0),
        ks=(2, 5),
    )
    base.update(kwargs)
    return BenchScenario(**base)


class TestScenario:
    def test_grids_coerced_to_ints_and_floats(self):
        s = tiny_scenario(n_grid=(60.0, 120.0), alphas=(0, 1))
        assert s.n_grid == (60, 120)
        assert s.alphas == (0.0, 1.0)

    def test_n_must_exceed_largest_k(self):
        with pytest.raises(ValidationError, match="largest k"):
            tiny_scenario(n_grid=(5,), ks=(2, 5))

    def test_default_grid_sizes(self):
        s = BenchScenario()
        assert len(s.alphas) == 11
        assert s.ks == tuple(range(2, 101))
        assert s.n_grid == (100_000, 200_000, 400_000, 800_000)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(d_grid=(1,)), "at least 2"),
            (dict(d_grid=()), "at least 2"),
            (dict(queries=0), "queries"),
            (dict(repeats=0), "repeats"),
            (dict(predictors=0), "predictors"),
        ],
    )
    def test_invalid_knobs(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            tiny_scenario(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(n_grid=(200.9,)), "n_grid must be an integer, got 200.9"),
            (dict(n_grid=(200, True)), "n_grid must be an integer, got True"),
            (dict(d_grid=(3.5,)), "d_grid must be an integer"),
            (dict(ks=(2.7, True)), "k must be an integer >= 1, got 2.7"),
            (dict(ks=(2, True)), "k must be an integer >= 1, got True"),
            (dict(queries=True), "queries must be an integer"),
            (dict(repeats=2.5), "repeats must be an integer"),
            (dict(predictors=np.bool_(True)), "predictors must be an integer"),
        ],
    )
    def test_counts_not_truncated(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            tiny_scenario(**kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            tiny_scenario(seed=-1)

    def test_no_threads_knob(self):
        # The harness runs serially; the report records 1.
        assert "threads" not in BenchScenario.__dataclass_fields__
        with pytest.raises(TypeError):
            tiny_scenario(threads=2)
        assert run_bench(tiny_scenario(n_grid=(60,))).threads == 1


class TestRunBench:
    def test_report_structure(self):
        report = run_bench(tiny_scenario())
        assert len(report.cells) == 2
        for cell in report.cells:
            assert not cell.skipped
            assert cell.ols_seconds > 0
            assert cell.kld_seconds > 0
            assert cell.aknn_seconds > 0
            assert cell.kld_over_ols == cell.kld_seconds / cell.ols_seconds
            assert cell.aknn_over_ols == cell.aknn_seconds / cell.ols_seconds
        assert report.hardware
        assert report.queries == 8

    def test_cells_follow_grid_order(self):
        report = run_bench(tiny_scenario(n_grid=(60, 120), d_grid=(3, 4)))
        got = [(c.D, c.n) for c in report.cells]
        assert got == [(3, 60), (3, 120), (4, 60), (4, 120)]

    def test_json_round_trip(self):
        report = run_bench(tiny_scenario())
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert len(payload["cells"]) == 2
        assert payload["cells"][0]["n"] == 60
        assert "timestamp" not in json.dumps(payload)
        assert report.to_json().endswith("\n")

    def test_oversized_cell_is_skipped_with_reason(self):
        report = run_bench(tiny_scenario(n_grid=(60, 10**9), ks=(2,)))
        ok, big = report.cells
        assert not ok.skipped
        assert big.skipped
        assert big.n == 10**9
        assert big.ols_seconds is None
        assert "exceeds available" in big.reason

    def test_scenario_type_checked(self):
        with pytest.raises(ValidationError, match="BenchScenario"):
            run_bench({"n_grid": (60,)})

    def test_deterministic_data_per_cell(self):
        # Same seed must time identical data: predictions sampled inside the
        # harness are validated, so a repeat run just has to succeed and agree
        # on everything except wall times.
        r1 = run_bench(tiny_scenario())
        r2 = run_bench(tiny_scenario())
        assert [(c.n, c.D, c.skipped) for c in r1.cells] == [
            (c.n, c.D, c.skipped) for c in r2.cells
        ]


class TestReportAndSampleGate:
    def test_json_keys_are_the_fields(self):
        payload = json.loads(run_bench(tiny_scenario()).to_json())
        assert set(payload) == {"schema_version", "cells", "hardware", "threads",
                                "queries", "repeats", "seed", "alphas", "ks"}
        assert set(payload["cells"][0]) == {
            "n", "D", "ols_seconds", "kld_seconds", "aknn_seconds",
            "kld_over_ols", "aknn_over_ols", "skipped", "reason"}
        assert payload["alphas"] == [0.0, 1.0] and payload["ks"] == [2, 5]

    @pytest.mark.parametrize("bad, match", [
        ([[0.5, 0.5]], "wrong width"),
        ([[np.nan, 0.5, 0.5]], "non-finite"),
        ([[-0.1, 0.6, 0.5]], "negative"),
        ([[0.2, 0.2, 0.2]], "outside tolerance"),
    ])
    def test_sample_gate_rejects_non_compositions(self, bad, match):
        good = np.full((2, 3), 1 / 3)
        _validate_sample([good], 3)
        with pytest.raises(ValidationError, match=match):
            _validate_sample([good, np.array(bad)], 3)
