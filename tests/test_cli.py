"""Command line interface, exercised through main(argv).

Data goes to --output or stdout; notes go to stderr; failures exit 2
with a single error line.  Reports must be byte-identical across runs
and thread counts.
"""

import json

import numpy as np
import pytest

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
        assert payload["training_path"] == str(train_csv)

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
