"""Command line interface, exercised through main(argv).

Data goes to --output or stdout; notes go to stderr; failures exit 2
with a single error line.  Reports must be byte-identical across runs
and thread counts.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import simplexreg
from simplexreg import DatasetSchema, load_csv
from simplexreg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def train_csv(tmp_path, capsys):
    path = tmp_path / "train.csv"
    code, _, _ = run(
        capsys,
        "simulate", "--n", "120", "--D", "3", "--seed", "5",
        "--output", str(path),
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_named_columns(self, tmp_path, capsys):
        path = tmp_path / "sim.csv"
        code, out, err = run(
            capsys,
            "simulate", "--n", "30", "--D", "4", "--predictors", "2",
            "--seed", "1", "--output", str(path),
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,y1,y2,y3,y4"
        X, U = load_csv(
            path,
            DatasetSchema(response_cols=("y1", "y2", "y3", "y4"),
                          predictor_cols=("x1", "x2")),
        )
        assert X.shape == (30, 2) and U.shape == (30, 4)

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "simulate", "--n", "25", "--D", "3", "--seed", "9",
                "--output", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_output(self, capsys):
        code, out, err = run(capsys, "simulate", "--n", "5", "--D", "3")
        assert code == 0
        assert out.splitlines()[0] == "x1,y1,y2,y3"
        assert len(out.splitlines()) == 6
        assert "simulate" in err and "simulate" not in out

    def test_truth_output(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        code, _, _ = run(
            capsys,
            "simulate", "--n", "40", "--D", "3", "--seed", "2",
            "--output", str(data), "--truth-output", str(truth),
        )
        assert code == 0
        payload = json.loads(truth.read_text())
        assert payload["link"] == "polynomial"
        assert payload["seed"] == 2
        assert len(payload["coefficients"]) == 2  # intercepts + one slope row

    def test_segmented_link(self, tmp_path, capsys):
        path = tmp_path / "seg.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--n", "50", "--D", "4", "--link", "segmented",
            "--output", str(path),
        )
        assert code == 0
        X, _ = load_csv(
            path,
            DatasetSchema(response_cols=("y1", "y2", "y3", "y4"),
                          predictor_cols=("x1",)),
        )
        assert X[0, 0] == -1.0 and X[-1, 0] == 1.0

    def test_zero_fraction(self, tmp_path, capsys):
        path = tmp_path / "z.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--n", "50", "--D", "5", "--zero-fraction", "0.2",
            "--seed", "3", "--output", str(path),
        )
        assert code == 0
        _, U = load_csv(
            path,
            DatasetSchema(response_cols=tuple(f"y{j}" for j in range(1, 6))),
        )
        assert int((U == 0).any(axis=1).sum()) == 10


class TestValidate:
    def test_reports_zeros(self, tmp_path, capsys):
        data = tmp_path / "z.csv"
        run(
            capsys,
            "simulate", "--n", "50", "--D", "5", "--zero-fraction", "0.2",
            "--seed", "3", "--output", str(data),
        )
        code, out, err = run(
            capsys,
            "validate", "--input", str(data),
            "--response-cols", "y1,y2,y3,y4,y5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == 50
        assert payload["zero_rows"] == 10
        assert sum(payload["column_zero_counts"]) == 10  # D=5 floors to 1 each

    def test_predictor_cols_counted_and_checked(self, tmp_path, capsys):
        data = tmp_path / "v.csv"
        run(capsys, "simulate", "--n", "30", "--D", "3", "--predictors", "2",
            "--seed", "3", "--output", str(data))
        argv = ("validate", "--input", str(data), "--response-cols", "y1,y2,y3")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        assert plain == ('{\n  "column_zero_counts": [\n    0,\n    0,\n    0\n  ],\n'
                         '  "predictor_cols": 0,\n  "rows": 30,\n  "zero_rows": 0\n}\n')
        code, out, _ = run(capsys, *argv, "--predictor-cols", "x1,x2")
        assert code == 0
        assert json.loads(out) == {**json.loads(plain), "predictor_cols": 2}
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y1,y2\n0.5,0.5,0.5\nnan,0.25,0.75\n")
        bad_argv = ("validate", "--input", str(bad), "--response-cols", "y1,y2")
        assert run(capsys, *bad_argv)[0] == 0
        code, _, err = run(capsys, *bad_argv, "--predictor-cols", "x1")
        assert code == 2
        assert "line 3: column 'x1': non-finite value 'nan'" in err

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "validate", "--input", "/nonexistent/х.csv", "--response-cols", "y1,y2",
        )
        assert code == 2
        assert err.startswith("error:")


class TestTune:
    def test_report_and_note(self, train_csv, capsys):
        code, out, err = run(
            capsys,
            "tune", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "aknn", "--alpha-grid", "0.5,1",
            "--k-grid", "2,5,10", "--seed", "0", "--threads", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "alpha-knn"
        assert payload["alphas"] == [0.5, 1.0]
        assert payload["ks"] == [2, 5, 10]
        assert payload["selected"]["k"] in (2, 5, 10)
        assert "tune: selected" in err

    def test_byte_identical_across_runs_and_threads(self, train_csv, tmp_path, capsys):
        outputs = []
        for name, threads in (("r1.json", "1"), ("r2.json", "1"), ("r4.json", "4")):
            out_path = tmp_path / name
            code, _, _ = run(
                capsys,
                "tune", "--input", str(train_csv),
                "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
                "--model", "aknn", "--alpha-grid", "0,0.5,1",
                "--k-grid", "2,5,10,20", "--seed", "7", "--threads", threads,
                "--output", str(out_path),
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_kernel_family(self, train_csv, capsys):
        code, out, _ = run(
            capsys,
            "tune", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "akernel", "--alpha-grid", "1",
            "--h-grid", "0.5,1,2", "--kernel", "laplacian", "--threads", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel"] == "laplacian"
        assert payload["selected"]["h"] in (0.5, 1.0, 2.0)

    def test_default_h_grid_is_data_driven(self, train_csv, capsys):
        code, out, _ = run(
            capsys,
            "tune", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "akernel", "--alpha-grid", "1", "--threads", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["hs"]) == 10

    def test_zero_data_with_nonpositive_grid_exits_2(self, tmp_path, capsys):
        data = tmp_path / "z.csv"
        run(
            capsys,
            "simulate", "--n", "60", "--D", "5", "--zero-fraction", "0.2",
            "--seed", "3", "--output", str(data),
        )
        code, out, err = run(
            capsys,
            "tune", "--input", str(data),
            "--response-cols", "y1,y2,y3,y4,y5", "--predictor-cols", "x1",
            "--model", "aknn", "--alpha-grid", "0,0.5", "--k-grid", "3",
            "--threads", "1",
        )
        assert code == 2
        assert "error: ValidationError" in err
        assert "strictly positive" in err

    def test_zero_threads_exits_2(self, train_csv, capsys):
        code, out, err = run(
            capsys,
            "tune", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "aknn", "--alpha-grid", "1", "--k-grid", "3",
            "--threads", "0",
        )
        assert code == 2
        assert out == ""
        assert "error: ValidationError: threads must be >= 1, got 0" in err

    @pytest.mark.parametrize("model", ["aknn", "akernel"])
    def test_oversized_predictor_names_the_file_row(self, tmp_path, capsys, model):
        # The row is checked before the fold split, and for akernel before
        # the default bandwidths are drawn from distances.
        data = tmp_path / "big.csv"
        run(capsys, "simulate", "--n", "40", "--D", "3", "--seed", "2", "--output", str(data))
        lines = data.read_text().splitlines()
        lines[1 + 17] = "1e200," + lines[1 + 17].split(",", 1)[1]
        data.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys,
            "tune", "--input", str(data), "--response-cols", "y1,y2,y3",
            "--predictor-cols", "x1", "--model", model, "--folds", "4",
        )
        assert code == 2
        assert err.startswith("error: ValidationError: training row 17 exceeds magnitude")

    def test_input_not_mutated(self, train_csv, capsys):
        before = train_csv.read_bytes()
        run(
            capsys,
            "tune", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "aknn", "--alpha-grid", "1", "--k-grid", "3",
            "--threads", "1",
        )
        assert train_csv.read_bytes() == before


class TestFitPredict:
    def test_kld_round_trip(self, train_csv, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        code, _, _ = run(
            capsys,
            "fit", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "kld", "--output", str(model_file),
        )
        assert code == 0
        payload = json.loads(model_file.read_text())
        assert payload["model"] == "kld"
        assert len(payload["coefficients"]) == 2

        pred_file = tmp_path / "pred.csv"
        code, _, err = run(
            capsys,
            "predict", "--input", str(train_csv),
            "--model-file", str(model_file),
            "--output", str(pred_file),
        )
        assert code == 0
        header = pred_file.read_text().splitlines()[0]
        assert header == "y1,y2,y3"
        P = np.loadtxt(pred_file, delimiter=",", skiprows=1)
        assert P.shape == (120, 3)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-9

    def test_predict_with_truth_adds_metric_column(self, train_csv, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        run(
            capsys,
            "fit", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "kld", "--output", str(model_file),
        )
        code, out, _ = run(
            capsys,
            "predict", "--input", str(train_csv),
            "--model-file", str(model_file),
            "--response-cols", "y1,y2,y3", "--metric", "js",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "y1,y2,y3,js"
        vals = np.loadtxt(lines[1:], delimiter=",")
        assert np.all(vals[:, 3] >= 0)

    def test_aknn_model_refits_from_training_file(self, train_csv, tmp_path, capsys):
        model_file = tmp_path / "aknn.json"
        code, _, _ = run(
            capsys,
            "fit", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "aknn", "--alpha", "0.5", "--k", "4",
            "--output", str(model_file),
        )
        assert code == 0
        payload = json.loads(model_file.read_text())
        assert "training_path" not in payload

        pred_file = tmp_path / "pred.csv"
        code, _, _ = run(
            capsys,
            "predict", "--input", str(train_csv),
            "--model-file", str(model_file), "--output", str(pred_file),
        )
        assert code == 0

        from simplexreg import fit_alpha_knn

        X, U = load_csv(
            train_csv,
            DatasetSchema(response_cols=("y1", "y2", "y3"), predictor_cols=("x1",)),
        )
        expect = fit_alpha_knn(X, U, 0.5, 4).predict(X)
        got = np.loadtxt(pred_file, delimiter=",", skiprows=1)
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_aknn_predict_fails_when_training_file_gone(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        run(capsys, "simulate", "--n", "30", "--D", "3", "--output", str(data))
        model_file = tmp_path / "m.json"
        run(
            capsys,
            "fit", "--input", str(data),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "aknn", "--alpha", "1", "--k", "2",
            "--output", str(model_file),
        )
        data.unlink()
        code, _, err = run(
            capsys,
            "predict", "--input", str(tmp_path / "missing.csv"),
            "--model-file", str(model_file),
        )
        assert code == 2
        assert "error:" in err

    def test_ols_transforms_agree(self, train_csv, tmp_path, capsys):
        preds = {}
        for transform in ("alr", "ilr"):
            model_file = tmp_path / f"ols_{transform}.json"
            code, _, _ = run(
                capsys,
                "fit", "--input", str(train_csv),
                "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
                "--model", "ols", "--transform", transform,
                "--output", str(model_file),
            )
            assert code == 0
            pred_file = tmp_path / f"pred_{transform}.csv"
            code, _, _ = run(
                capsys,
                "predict", "--input", str(train_csv),
                "--model-file", str(model_file), "--output", str(pred_file),
            )
            assert code == 0
            preds[transform] = np.loadtxt(pred_file, delimiter=",", skiprows=1)
        assert np.max(np.abs(preds["alr"] - preds["ilr"])) <= 1e-10

    def test_akernel_fit_validates_now(self, train_csv, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "fit", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "akernel", "--alpha", "1", "--h", "-2",
        )
        assert code == 2
        assert "error: ValidationError" in err

    def test_missing_hyperparameters_exit_2(self, train_csv, capsys):
        code, _, err = run(
            capsys,
            "fit", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "x1",
            "--model", "aknn",
        )
        assert code == 2
        assert "needs --alpha and --k" in err


class TestGeoAndStandardize:
    def make_geo_csv(self, tmp_path):
        rng = np.random.default_rng(17)
        n = 60
        lat = rng.uniform(-60, 60, size=n)
        lon = rng.uniform(-170, 170, size=n)
        extra = rng.normal(size=n)
        U = rng.dirichlet((2.0, 3.0, 4.0), size=n)
        path = tmp_path / "geo.csv"
        rows = ["lat,lon,depth,y1,y2,y3"]
        for i in range(n):
            rows.append(
                ",".join(
                    repr(float(v))
                    for v in (lat[i], lon[i], extra[i], U[i, 0], U[i, 1], U[i, 2])
                )
            )
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_fit_predict_with_preprocessing(self, tmp_path, capsys):
        path = self.make_geo_csv(tmp_path)
        model_file = tmp_path / "m.json"
        code, _, _ = run(
            capsys,
            "fit", "--input", str(path),
            "--response-cols", "y1,y2,y3",
            "--predictor-cols", "lat,lon,depth",
            "--geo-cols", "lat,lon", "--standardize",
            "--model", "kld", "--output", str(model_file),
        )
        assert code == 0
        payload = json.loads(model_file.read_text())
        prep = payload["preprocessing"]
        assert prep["geo_cols"] == ["lat", "lon"]
        assert prep["standardize"] is True
        # depth survives, then 3 sphere coordinates: 4 standardized columns
        assert len(prep["center"]) == 4
        assert len(payload["coefficients"]) == 5

        pred_file = tmp_path / "p.csv"
        code, _, _ = run(
            capsys,
            "predict", "--input", str(path),
            "--model-file", str(model_file), "--output", str(pred_file),
        )
        assert code == 0

        from simplexreg import (
            apply_standardization,
            fit_kld,
            latlon_to_euclidean,
            standardize,
        )

        X, U = load_csv(
            path,
            DatasetSchema(response_cols=("y1", "y2", "y3"),
                          predictor_cols=("lat", "lon", "depth")),
        )
        sphere = latlon_to_euclidean(X[:, 0], X[:, 1])
        Xg = np.column_stack([X[:, 2], sphere])
        Xs, center, scale = standardize(Xg)
        expect = fit_kld(Xs, U).predict(apply_standardization(Xg, center, scale))
        got = np.loadtxt(pred_file, delimiter=",", skiprows=1)
        assert np.max(np.abs(got - expect)) <= 1e-9

    def test_geo_cols_must_be_predictors(self, tmp_path, capsys):
        path = self.make_geo_csv(tmp_path)
        code, _, err = run(
            capsys,
            "fit", "--input", str(path),
            "--response-cols", "y1,y2,y3", "--predictor-cols", "depth",
            "--geo-cols", "lat,lon", "--model", "kld",
        )
        assert code == 2
        assert "geo column" in err

    @pytest.mark.parametrize("model,cell", [
        ("aknn", ("--alpha", "0.5", "--k", "5")),
        ("akernel", ("--alpha", "0.5", "--h", "0.7")),
    ])
    def test_neighbor_families_with_preprocessing_match_library(
        self, tmp_path, capsys, model, cell
    ):
        path = self.make_geo_csv(tmp_path)
        model_file = tmp_path / "m.json"
        code, _, _ = run(
            capsys,
            "fit", "--input", str(path),
            "--response-cols", "y1,y2,y3",
            "--predictor-cols", "lat,lon,depth",
            "--geo-cols", "lat,lon", "--standardize",
            "--model", model, *cell, "--output", str(model_file),
        )
        assert code == 0
        pred_file = tmp_path / "p.csv"
        code, _, _ = run(
            capsys,
            "predict", "--input", str(path),
            "--model-file", str(model_file), "--output", str(pred_file),
        )
        assert code == 0

        from simplexreg import (
            apply_standardization,
            fit_alpha_kernel,
            fit_alpha_knn,
            latlon_to_euclidean,
            standardize,
        )

        X, U = load_csv(
            path,
            DatasetSchema(response_cols=("y1", "y2", "y3"),
                          predictor_cols=("lat", "lon", "depth")),
        )
        Xg = np.column_stack([X[:, 2], latlon_to_euclidean(X[:, 0], X[:, 1])])
        Xs, center, scale = standardize(Xg)
        if model == "aknn":
            fitted = fit_alpha_knn(Xs, U, 0.5, 5)
        else:
            fitted = fit_alpha_kernel(Xs, U, 0.5, 0.7)
        expect = fitted.predict(apply_standardization(Xg, center, scale))
        got = np.loadtxt(pred_file, delimiter=",", skiprows=1)
        assert np.array_equal(got, expect)


COLS = ("--response-cols", "y1,y2,y3", "--predictor-cols", "x1")
AKNN_CELL = ("--alpha", "0.5", "--k", "4")


def sealed(payload):
    """JSON text of `payload` carrying a valid sha256 of its canonical form."""
    payload = {key: value for key, value in payload.items() if key != "sha256"}
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return json.dumps({**payload, "sha256": hashlib.sha256(canonical).hexdigest()})


def _edit_array(payload, key, **changes):
    return {**payload, key: {**payload[key], **changes}}


# kind -> (file text from a valid aknn payload and the training path,
#          fragment of the expected error message)
BAD_MODEL_FILES = {
    "not-json": (lambda p, train: "{not json", "not JSON"),
    "not-object": (lambda p, train: "[1, 2]", "not a JSON object"),
    "v1": (lambda p, train: json.dumps({
        **{k: v for k, v in p.items() if k not in ("predictors", "responses", "sha256")},
        "schema_version": 1, "delimiter": ",", "has_header": True,
        "training_path": str(train),
    }), "schema_version 1 is unsupported"),
    "unknown-version": (lambda p, train: sealed({**p, "schema_version": 99}),
                        "schema_version 99 is unsupported"),
    "missing-model-key": (lambda p, train: sealed(
        {k: v for k, v in p.items() if k != "model"}), "missing key 'model'"),
    "missing-digest": (lambda p, train: json.dumps(
        {k: v for k, v in p.items() if k != "sha256"}), "sha256"),
    "wrong-shape": (lambda p, train: sealed(_edit_array(p, "predictors", shape=[7, 1])),
                    "bad embedded array"),
    "wrong-byte-length": (lambda p, train: sealed(
        _edit_array(p, "responses", data=p["responses"]["data"][:-8])), "bad embedded array"),
    "bad-base64": (lambda p, train: sealed(
        _edit_array(p, "responses", data="!" + p["responses"]["data"][1:])),
        "bad embedded array"),
}


class TestModelFile:
    """Model files are self-contained, cwd-independent and integrity-checked."""

    def fit(self, capsys, train, model_file, model="aknn", cell=AKNN_CELL):
        code, _, err = run(
            capsys,
            "fit", "--input", str(train), *COLS, "--model", model, *cell,
            "--output", str(model_file),
        )
        assert code == 0, err

    def predict(self, capsys, query, model_file):
        code, out, err = run(
            capsys, "predict", "--input", str(query), "--model-file", str(model_file)
        )
        assert code == 0, err
        return out

    def test_predict_from_another_directory(self, train_csv, tmp_path, capsys, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        monkeypatch.chdir(sub)
        self.fit(capsys, "../train.csv", "m.json")
        monkeypatch.chdir(tmp_path)
        self.fit(capsys, "train.csv", "root.json")
        assert (sub / "m.json").read_bytes() == (tmp_path / "root.json").read_bytes()
        out = self.predict(capsys, "train.csv", "sub/m.json")

        from simplexreg import fit_alpha_knn

        X, U = load_csv(
            train_csv,
            DatasetSchema(response_cols=("y1", "y2", "y3"), predictor_cols=("x1",)),
        )
        expect = fit_alpha_knn(X, U, 0.5, 4).predict(X)
        got = np.loadtxt(out.splitlines()[1:], delimiter=",")
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("model,cell", [
        ("aknn", AKNN_CELL),
        ("akernel", ("--alpha", "0.5", "--h", "0.5")),
    ])
    def test_training_file_edited_or_deleted_after_fit(
        self, train_csv, tmp_path, capsys, model, cell
    ):
        query = tmp_path / "query.csv"
        run(capsys, "simulate", "--n", "40", "--D", "3", "--seed", "6",
            "--output", str(query))
        model_file = tmp_path / "m.json"
        self.fit(capsys, train_csv, model_file, model, cell)
        first = self.predict(capsys, query, model_file)
        with open(train_csv, "a", encoding="utf-8") as fh:
            fh.write("0.0,0.98,0.01,0.01\n" * 50)
        assert self.predict(capsys, query, model_file) == first
        train_csv.unlink()
        assert self.predict(capsys, query, model_file) == first

    @pytest.mark.parametrize("model,cell,marker", [
        ("aknn", AKNN_CELL, '"data": "'),
        ("kld", (), '"coefficients": [\n    [\n      '),
    ])
    def test_tampered_model_file_is_rejected(
        self, train_csv, tmp_path, capsys, model, cell, marker
    ):
        model_file = tmp_path / "m.json"
        self.fit(capsys, train_csv, model_file, model, cell)
        text = model_file.read_text()
        i = text.index(marker) + len(marker) + 3
        assert text[i] in "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
        model_file.write_text(text[:i] + ("7" if text[i] != "7" else "3") + text[i + 1:])
        code, _, err = run(
            capsys, "predict", "--input", str(train_csv), "--model-file", str(model_file)
        )
        assert code == 2
        assert err.startswith("error: ValidationError:")
        assert str(model_file) in err and "sha256" in err

    @pytest.mark.parametrize("kind", sorted(BAD_MODEL_FILES))
    def test_bad_model_file_exits_2(self, train_csv, tmp_path, capsys, kind):
        model_file = tmp_path / "m.json"
        self.fit(capsys, train_csv, model_file)
        make, expected = BAD_MODEL_FILES[kind]
        model_file.write_text(make(json.loads(model_file.read_text()), train_csv))
        code, _, err = run(
            capsys, "predict", "--input", str(train_csv), "--model-file", str(model_file)
        )
        assert code == 2
        assert err.startswith(f"error: ValidationError: model file {str(model_file)!r}: ")
        assert expected in err
        assert len(err.splitlines()) == 1

    def test_fit_errors_keep_their_type(self, tmp_path, capsys):
        train = tmp_path / "zeros.csv"
        run(capsys, "simulate", "--n", "60", "--D", "3", "--zero-fraction", "0.2",
            "--seed", "3", "--output", str(train))
        model_file = tmp_path / "m.json"
        self.fit(capsys, train, model_file)
        payload = json.loads(model_file.read_text())
        model_file.write_text(sealed({**payload, "alpha": 0.0}))
        code, _, err = run(
            capsys, "predict", "--input", str(train), "--model-file", str(model_file)
        )
        assert code == 2
        assert err.startswith("error: ZeroNotAllowedError:")


class TestFrechetPath:
    def test_constant_symmetric_data(self, tmp_path, capsys):
        path = tmp_path / "sym.csv"
        path.write_text("y1,y2\n" + "0.3,0.7\n0.7,0.3\n" * 5)
        code, out, _ = run(
            capsys,
            "frechet-path", "--input", str(path),
            "--response-cols", "y1,y2", "--alpha-grid=-1,0,1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,y1,y2"
        vals = np.loadtxt(lines[1:], delimiter=",")
        assert np.array_equal(vals[:, 0], [-1.0, 0.0, 1.0])
        assert np.all(vals[:, 1] == 0.5)

    def test_matches_library(self, train_csv, tmp_path, capsys):
        out_file = tmp_path / "path.csv"
        code, _, _ = run(
            capsys,
            "frechet-path", "--input", str(train_csv),
            "--response-cols", "y1,y2,y3", "--alpha-grid", "0,1",
            "--output", str(out_file),
        )
        assert code == 0
        from simplexreg import frechet_mean

        _, U = load_csv(
            train_csv, DatasetSchema(response_cols=("y1", "y2", "y3"))
        )
        vals = np.loadtxt(out_file, delimiter=",", skiprows=1)
        assert np.max(np.abs(vals[0, 1:] - frechet_mean(U, 0.0))) <= 1e-15
        assert np.max(np.abs(vals[1, 1:] - frechet_mean(U, 1.0))) <= 1e-15


class TestBench:
    def test_tiny_grid(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        code, _, err = run(
            capsys,
            "bench", "--n", "150,300", "--D", "3", "--queries", "10",
            "--repeats", "1", "--seed", "0", "--threads", "1",
            "--output", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert not cell["skipped"]
            assert cell["ols_seconds"] > 0
            assert cell["kld_seconds"] > 0
            assert cell["aknn_seconds"] > 0
        assert "hardware" in payload
        assert "timestamp" not in json.dumps(payload)

    def test_threads_default_is_serial(self, tmp_path, capsys):
        # The harness runs serially, so an omitted --threads records 1.
        out_file = tmp_path / "bench.json"
        code, _, _ = run(
            capsys,
            "bench", "--n", "150", "--D", "3", "--queries", "10",
            "--repeats", "1", "--seed", "0", "--output", str(out_file),
        )
        assert code == 0
        assert json.loads(out_file.read_text())["threads"] == 1


class TestThreadsDefault:
    def test_omitted_threads_follow_affinity(self, monkeypatch):
        # A process pinned to fewer cores than the machine has must not
        # start a worker per machine core.
        from simplexreg import cli

        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli._threads(None) == 2
        assert cli._threads(5) == 5

    def test_without_affinity_falls_back_to_cpu_count(self, monkeypatch):
        from simplexreg import cli

        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli._threads(None) == 3
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._threads(None) == 1


def _io(train_csv):
    return ("--input", str(train_csv), "--response-cols", "y1,y2,y3", "--predictor-cols", "x1")


def _exits_2_naming(capsys, argv, *needles):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ValidationError: ")
    assert len(err.splitlines()) == 1
    for needle in needles:
        assert needle in err


class TestRejectedArguments:
    """Bad values and flags exit 2 with one error line, never a traceback,
    a silently ignored flag or a report that is not valid JSON."""

    @pytest.mark.parametrize("model, axis", [("aknn", "--k-grid"), ("akernel", "--h-grid")])
    def test_negative_tune_seed(self, train_csv, capsys, model, axis):
        _exits_2_naming(capsys, ["tune", *_io(train_csv), "--model", model, "--seed", "-1",
                                 "--threads", "1"], "seed", "-1")
        # With an explicit grid the check comes from the tuning grid.
        _exits_2_naming(capsys, ["tune", *_io(train_csv), "--model", model, "--seed", "-1",
                                 axis, "3" if model == "aknn" else "0.5", "--threads", "1"],
                        "seed", "-1")

    def test_negative_simulate_seed(self, tmp_path, capsys):
        _exits_2_naming(capsys, ["simulate", "--n", "5", "--D", "3", "--seed", "-1",
                                 "--output", str(tmp_path / "never.csv")], "coef_seed", "-1")
        assert not (tmp_path / "never.csv").exists()

    def test_negative_bench_seed(self, capsys):
        _exits_2_naming(capsys, ["bench", "--n", "150", "--D", "3", "--queries", "5",
                                 "--repeats", "1", "--seed", "-1"], "seed", "-1")

    @pytest.mark.parametrize("clamp", ["nan", "inf", "-inf", "-1"])
    def test_bad_tune_clamp(self, train_csv, capsys, clamp):
        _exits_2_naming(capsys, ["tune", *_io(train_csv), "--model", "aknn", "--k-grid", "3",
                                 "--threads", "1", f"--clamp={clamp}"], "clamp")

    def test_bad_predict_clamp(self, train_csv, tmp_path, capsys):
        model_file = tmp_path / "kld.json"
        assert run(capsys, "fit", *_io(train_csv), "--model", "kld",
                   "--output", str(model_file))[0] == 0
        _exits_2_naming(capsys, ["predict", "--input", str(train_csv), "--model-file",
                                 str(model_file), "--response-cols", "y1,y2,y3",
                                 "--clamp", "nan"], "clamp")

    @pytest.mark.parametrize("model, flag, value", [
        ("akernel", "--k-grid", "2,3"),
        ("aknn", "--h-grid", "0.5"),
    ])
    def test_grid_of_the_other_family(self, train_csv, capsys, model, flag, value):
        _exits_2_naming(capsys, ["tune", *_io(train_csv), "--model", model, flag, value,
                                 "--threads", "1"], flag, model)

    @pytest.mark.parametrize("model, extra, flag", [
        ("kld", ["--alpha", "0.3", "--k", "5"], "--alpha"),
        ("kld", ["--h", "0.5"], "--h"),
        ("ols", ["--k", "5"], "--k"),
        ("aknn", ["--alpha", "0.5", "--k", "4", "--h", "0.5"], "--h"),
        ("akernel", ["--alpha", "0.5", "--h", "0.5", "--k", "4"], "--k"),
    ])
    def test_fit_flag_the_model_does_not_take(self, train_csv, tmp_path, capsys,
                                              model, extra, flag):
        out = tmp_path / "model.json"
        _exits_2_naming(capsys, ["fit", *_io(train_csv), "--model", model, *extra,
                                 "--output", str(out)], flag, model)
        assert not out.exists()

    def test_missing_kernel_hyperparameter(self, train_csv, capsys):
        _exits_2_naming(capsys, ["fit", *_io(train_csv), "--model", "akernel",
                                 "--alpha", "0.5"], "needs --alpha and --h")

    @pytest.mark.parametrize("threads", ["2", "0"])
    def test_bench_threads_other_than_one(self, tmp_path, capsys, threads):
        out = tmp_path / "bench.json"
        _exits_2_naming(capsys, ["bench", "--n", "150", "--D", "3", "--queries", "5",
                                 "--repeats", "1", "--threads", threads, "--output", str(out)],
                        "--threads does not apply to bench: the harness runs serially")
        assert not out.exists()

    @pytest.mark.parametrize("extra, needle", [
        (["--link", "segmented", "--degree", "3"], "segmented link has no degree"),
        (["--D", "2", "--zero-fraction", "0.4"], "zero_fraction needs D >= 3"),
        (["--n", "10", "--zero-fraction", "0.05"], "zeroes no row of n = 10"),
    ])
    def test_simulate_knob_the_data_never_reads(self, tmp_path, capsys, extra, needle):
        out = tmp_path / "never.csv"
        argv = ["simulate", "--n", "20", "--D", "3", "--seed", "1", "--output", str(out)]
        _exits_2_naming(capsys, argv + extra, needle)
        assert not out.exists()

    def test_field_over_the_csv_limit(self, tmp_path, capsys):
        # A quoted field sends the file to the csv.reader loop, whose field
        # limit (131,072 characters) used to end the run in a traceback.
        path = tmp_path / "long.csv"
        path.write_text('y1,y2,note\n0.5,0.5,"a"\n0.25,0.75,' + "x" * 200_000 + "\n")
        _exits_2_naming(capsys, ["validate", "--input", str(path), "--response-cols", "y1,y2"],
                        str(path), "line 3", "field larger than field limit")


class TestPredictTruthColumn:
    def test_default_kl_column_equals_library_bitwise(self, train_csv, tmp_path, capsys):
        # The default truth metric is KL at DEFAULT_CLAMP; the benchmark's
        # holdout_kl is the mean of this column.
        from simplexreg import DEFAULT_CLAMP, kl_divergence

        model_file = tmp_path / "aknn.json"
        pred_file = tmp_path / "pred.csv"
        assert run(capsys, "fit", *_io(train_csv), "--model", "aknn", "--alpha", "0.5",
                   "--k", "4", "--output", str(model_file))[0] == 0
        code, _, _ = run(capsys, "predict", "--input", str(train_csv), "--model-file",
                         str(model_file), "--response-cols", "y1,y2,y3",
                         "--output", str(pred_file))
        assert code == 0
        lines = pred_file.read_text().splitlines()
        assert lines[0] == "y1,y2,y3,kl"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        _, truth = load_csv(train_csv, DatasetSchema(response_cols=("y1", "y2", "y3")))
        want = kl_divergence(truth, table[:, :3], clamp=DEFAULT_CLAMP)
        assert np.array_equal(table[:, 3], want)
        assert np.any(want > 0)


class TestFlagsThatWouldNotAct:
    """A flag that would change nothing on this run exits 2 and writes
    nothing; the defaults of these flags are unchanged when they are absent."""

    @pytest.fixture
    def kld_file(self, train_csv, tmp_path, capsys):
        path = tmp_path / "kld.json"
        assert run(capsys, "fit", *_io(train_csv), "--model", "kld",
                   "--output", str(path))[0] == 0
        return path

    @pytest.mark.parametrize("extra, flag, why", [
        (["--metric", "kl"], "--metric", "without --response-cols"),
        (["--clamp", "0.01"], "--clamp", "without --response-cols"),
        (["--response-cols", "y1,y2,y3", "--metric", "js", "--clamp", "nan"],
         "--clamp", "to --metric js"),
    ])
    def test_predict(self, train_csv, kld_file, tmp_path, capsys, extra, flag, why):
        out = tmp_path / "pred.csv"
        _exits_2_naming(capsys, ["predict", "--input", str(train_csv), "--model-file",
                                 str(kld_file), *extra, "--output", str(out)],
                        f"{flag} does not apply {why}")
        assert not out.exists()

    @pytest.mark.parametrize("model, extra, flag, why", [
        ("aknn", ["--metric", "js", "--clamp", "0.01"], "--clamp", "to --metric js"),
        ("akernel", ["--metric", "js", "--clamp", "0.01"], "--clamp", "to --metric js"),
        ("aknn", ["--kernel", "laplacian"], "--kernel", "to --model aknn"),
    ])
    def test_tune(self, train_csv, tmp_path, capsys, model, extra, flag, why):
        out = tmp_path / "report.json"
        _exits_2_naming(capsys, ["tune", *_io(train_csv), "--model", model, *extra,
                                 "--threads", "1", "--output", str(out)],
                        f"{flag} does not apply {why}")
        assert not out.exists()

    @pytest.mark.parametrize("model, extra, flag", [
        ("aknn", ["--alpha", "0.5", "--k", "4", "--kernel", "gaussian"], "--kernel"),
        ("kld", ["--kernel", "laplacian"], "--kernel"),
        ("ols", ["--kernel", "gaussian"], "--kernel"),
        ("kld", ["--transform", "alr"], "--transform"),
        ("aknn", ["--alpha", "0.5", "--k", "4", "--transform", "ilr"], "--transform"),
        ("akernel", ["--alpha", "0.5", "--h", "0.5", "--transform", "alr"], "--transform"),
    ])
    def test_fit(self, train_csv, tmp_path, capsys, model, extra, flag):
        out = tmp_path / "model.json"
        _exits_2_naming(capsys, ["fit", *_io(train_csv), "--model", model, *extra,
                                 "--output", str(out)], f"{flag} does not apply to --model {model}")
        assert not out.exists()

    def test_tune_clamp_at_one_over_d(self, train_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        _exits_2_naming(capsys, ["tune", *_io(train_csv), "--model", "aknn", "--k-grid", "3",
                                 "--threads", "1", "--clamp", "2", "--output", str(out)],
                        "clamp", "D = 3")
        assert not out.exists()

    @pytest.mark.parametrize("command, given", [
        ("tune aknn", ["--metric", "kl", "--clamp", "1e-12"]),
        ("tune akernel", ["--kernel", "gaussian", "--metric", "kl", "--clamp", "1e-12"]),
        ("fit akernel", ["--kernel", "gaussian"]),
        ("fit ols", ["--transform", "alr"]),
        ("predict", ["--metric", "kl", "--clamp", "1e-12"]),
    ])
    def test_absent_flag_equals_its_default(self, train_csv, kld_file, tmp_path, capsys,
                                            command, given):
        argv = {
            "tune aknn": ["tune", *_io(train_csv), "--model", "aknn", "--k-grid", "2,5",
                          "--threads", "1"],
            "tune akernel": ["tune", *_io(train_csv), "--model", "akernel", "--h-grid", "0.5,1",
                             "--threads", "1"],
            "fit akernel": ["fit", *_io(train_csv), "--model", "akernel", "--alpha", "0.5",
                            "--h", "0.5"],
            "fit ols": ["fit", *_io(train_csv), "--model", "ols"],
            "predict": ["predict", "--input", str(train_csv), "--model-file", str(kld_file),
                        "--response-cols", "y1,y2,y3"],
        }[command]
        outputs = []
        for extra in ([], given):
            out = tmp_path / f"out{len(outputs)}"
            assert run(capsys, *argv, *extra, "--output", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestDerivedJsonKeys:
    def test_truth_json_keys(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        assert run(capsys, "simulate", "--n", "20", "--D", "3", "--seed", "4",
                   "--output", str(tmp_path / "d.csv"), "--truth-output", str(truth))[0] == 0
        payload = json.loads(truth.read_text())
        assert set(payload) == {"schema_version", "link", "degree", "n", "D", "predictors",
                                "noise_scale", "zero_fraction", "seed", "coefficients"}
        assert payload["seed"] == 4 and payload["schema_version"] == 1

    def test_validate_json_keys(self, train_csv, capsys):
        code, out, _ = run(capsys, "validate", "--input", str(train_csv),
                           "--response-cols", "y1,y2,y3")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"rows", "zero_rows", "column_zero_counts", "predictor_cols"}
        assert payload["column_zero_counts"] == [0, 0, 0]


# Runs in a fresh interpreter: records after each command whether scipy
# has been imported.
_SCIPY_PROBE = """
import json, sys
from simplexreg import cli

loaded = {"import": "scipy" in sys.modules}

def step(name, *argv):
    assert cli.main(list(argv)) == 0, name
    loaded[name] = "scipy" in sys.modules

step("simulate", "simulate", "--n", "200", "--D", "3", "--seed", "2", "--output", "train.csv")
io = ("--input", "train.csv", "--response-cols", "y1,y2,y3", "--predictor-cols", "x1")
step("fit aknn", "fit", *io, "--model", "aknn", "--alpha", "0.5", "--k", "5",
     "--output", "aknn.json")
step("fit akernel", "fit", *io, "--model", "akernel", "--alpha", "0.5", "--h", "0.3",
     "--output", "akernel.json")
step("predict akernel", "predict", "--input", "train.csv", "--model-file", "akernel.json",
     "--output", "p1.csv")
step("validate", "validate", "--input", "train.csv", "--response-cols", "y1,y2,y3",
     "--output", "v.json")
step("predict aknn", "predict", "--input", "train.csv", "--model-file", "aknn.json",
     "--output", "p2.csv")
print(json.dumps(loaded))
"""


# Runs in a fresh interpreter, like _SCIPY_PROBE, for a kernel-family tune.
_SCIPY_KERNEL_TUNE_PROBE = """
import json, sys
from simplexreg import cli

loaded = {}
for name, argv in (
        ("simulate", ["simulate", "--n", "200", "--D", "3", "--seed", "2",
                      "--output", "train.csv"]),
        ("tune akernel", ["tune", "--input", "train.csv", "--response-cols", "y1,y2,y3",
                          "--predictor-cols", "x1", "--model", "akernel", "--folds", "4",
                          "--output", "report.json"])):
    assert cli.main(argv) == 0, name
    loaded[name] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


# Runs in a fresh interpreter: predict aknn loads scipy's kd-tree extension
# but not the scipy.spatial package, and that package, imported later,
# hands out the same cKDTree class.
_KDTREE_EXTENSION_PROBE = """
import json, sys
from simplexreg import cli, neighbors

io = ("--input", "train.csv", "--response-cols", "y1,y2,y3", "--predictor-cols", "x1")
for argv in (["simulate", "--n", "200", "--D", "3", "--seed", "2", "--output", "train.csv"],
             ["fit", *io, "--model", "aknn", "--alpha", "0.5", "--k", "5",
              "--output", "aknn.json"],
             ["predict", "--input", "train.csv", "--model-file", "aknn.json",
              "--output", "p.csv"]):
    assert cli.main(argv) == 0, argv
loaded = {name: name in sys.modules for name in ("scipy", "scipy.spatial")}
tree_class = neighbors._ckdtree()
import scipy.spatial
loaded["same class"] = scipy.spatial.cKDTree is tree_class
print(json.dumps(loaded))
"""


def _fresh_probe(script, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(simplexreg.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyLoadedOnlyForKdtreeSearch:
    def test_commands_without_a_neighbor_search_skip_scipy(self, tmp_path):
        loaded = _fresh_probe(_SCIPY_PROBE, tmp_path)
        # 200 training rows: "auto" answers predict aknn with the kd-tree.
        assert loaded.pop("predict aknn") is True
        assert loaded == dict.fromkeys(loaded, False)
        assert set(loaded) == {"import", "simulate", "fit aknn", "fit akernel",
                               "predict akernel", "validate"}

    def test_kernel_tune_skips_scipy(self, tmp_path):
        # The kernel family's gate lives next to the kd-tree loader, in the
        # modules tune imports; neither the gate nor tune may load scipy.
        loaded = _fresh_probe(_SCIPY_KERNEL_TUNE_PROBE, tmp_path)
        assert loaded == {"simulate": False, "tune akernel": False}

    def test_kdtree_search_loads_only_the_extension(self, tmp_path):
        loaded = _fresh_probe(_KDTREE_EXTENSION_PROBE, tmp_path)
        assert loaded == {"scipy": True, "scipy.spatial": False, "same class": True}


class TestNotUtf8Input:
    """A byte that is not UTF-8 exits 2 naming the file and its line."""

    @pytest.mark.parametrize("command", ["validate", "tune", "fit", "predict"])
    @pytest.mark.parametrize("line", [1, 3])
    def test_exits_2_naming_the_line(self, train_csv, tmp_path, capsys, command, line):
        lines = train_csv.read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1].replace(b"1", b"\xe91", 1)
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"".join(lines))
        model_file = tmp_path / "m.json"
        run(capsys, "fit", *_io(train_csv), "--model", "kld", "--output", str(model_file))
        argv = {
            "validate": ["validate", "--input", str(bad), "--response-cols", "y1,y2,y3"],
            "tune": ["tune", *_io(bad), "--model", "aknn", "--k-grid", "3"],
            "fit": ["fit", *_io(bad), "--model", "kld"],
            "predict": ["predict", "--input", str(bad), "--model-file", str(model_file)],
        }[command]
        _exits_2_naming(capsys, argv, f"{bad}: line {line}: not UTF-8 text")


def _kld_or_ols_payload(capsys, train_csv, tmp_path, model):
    model_file = tmp_path / "m.json"
    code, _, err = run(capsys, "fit", *_io(train_csv), "--model", model,
                       "--output", str(model_file))
    assert code == 0, err
    return model_file, json.loads(model_file.read_text())


class TestHandEditedModelFields:
    """A sealed kld or ols file with a malformed field exits 2 naming it."""

    @pytest.mark.parametrize("model,edit,needle", [
        ("kld", {"coefficients": [[0.1, 0.2], [0.3]]}, "coefficients must be numeric"),
        ("ols", {"coefficients": [0.1, 0.2]}, "coefficients must be a non-empty 2-D"),
        ("kld", {"coefficients": [[]]}, "coefficients must be a non-empty 2-D"),
        ("kld", {"coefficients": [[float("nan"), 0.1], [0.2, 0.3]]}, "of finite numbers"),
        ("ols", {"transform": "foo"}, "transform must be 'alr' or 'ilr', got 'foo'"),
        ("kld", {"preprocessing": [1]}, "preprocessing must be a JSON object"),
        ("ols", {"preprocessing": "none"}, "preprocessing must be a JSON object"),
    ])
    def test_exits_2(self, train_csv, tmp_path, capsys, model, edit, needle):
        model_file, payload = _kld_or_ols_payload(capsys, train_csv, tmp_path, model)
        model_file.write_text(sealed({**payload, **edit}))
        _exits_2_naming(
            capsys, ["predict", "--input", str(train_csv), "--model-file", str(model_file)],
            f"model file {str(model_file)!r}: ", needle)


class TestRefusedAllocation:
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        from simplexreg import cli

        def refuse(spec):
            raise MemoryError("Unable to allocate 22.4 GiB for an array with shape "
                              "(1000000000, 3) and data type float64")

        monkeypatch.setattr(cli, "generate", refuse)
        code, out, err = run(capsys, "simulate", "--n", "1000000000", "--D", "3",
                             "--output", str(tmp_path / "big.csv"))
        assert code == 2
        assert out == ""
        assert err == ("error: MemoryError: Unable to allocate 22.4 GiB for an array with "
                       "shape (1000000000, 3) and data type float64\n")


class TestRepeatedGeoColumn:
    @pytest.mark.parametrize("argv", [
        ("fit", "--model", "kld"),
        ("tune", "--model", "aknn", "--k-grid", "3"),
    ])
    def test_rejected(self, tmp_path, capsys, argv):
        path = TestGeoAndStandardize().make_geo_csv(tmp_path)
        _exits_2_naming(
            capsys,
            [*argv, "--input", str(path), "--response-cols", "y1,y2,y3",
             "--predictor-cols", "lat,lon,depth", "--geo-cols", "lat,lat"],
            "--geo-cols names 'lat' as both lat and lon")
