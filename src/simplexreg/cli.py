"""Command line interface.

Subcommands: tune, fit, predict, simulate, frechet-path, bench, validate.
Reports and predictions go to --output (or stdout when omitted) so data
streams stay clean for piping; human-readable progress and summaries go
to stderr.  All randomness is controlled by --seed and every report is a
deterministic function of its inputs; reports carry no timestamps.
Failures exit nonzero with a single-line `error: <kind>: <message>`;
so does a flag that would not act on the run, such as `--kernel` on a
model without a kernel or `--clamp` with `--metric js`.

A model file from `fit` is one self-contained JSON document holding the
coefficients (kld, ols) or the preprocessed training arrays (aknn,
akernel; base64 little-endian float64) and the sha256 of its canonical
content; `predict` verifies it and parses only the query CSV.
"""

import argparse
import base64
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .bench import BenchScenario, run_bench
from .datagen import SimSpec, generate
from .errors import SimplexRegError, ValidationError
from .frechet import frechet_path
from .ingestion import (
    DatasetSchema,
    apply_standardization,
    latlon_to_euclidean,
    load_csv,
    standardize,
    write_csv,
    write_dataset_csv,
)
from .regressors import (
    KERNELS,
    KldModel,
    LogRatioOlsModel,
    _check_transform,
    fit_alpha_kernel,
    fit_alpha_knn,
    fit_kld,
    fit_logratio_ols,
)
from .selection import (
    DEFAULT_CLAMP,
    METRICS,
    TuningGrid,
    default_alpha_grid,
    default_h_grid,
    default_k_grid,
    js_divergence,
    kl_divergence,
    tune,
)
from .simplex import _as_floats, validate_composition_matrix

MODEL_SCHEMA_VERSION = 2

_FAMILIES = {"aknn": "alpha-knn", "akernel": "alpha-kernel"}


def _split_list(text):
    return [t.strip() for t in str(text).split(",") if t.strip()]


def _number_list(text, kind=float):
    try:
        return [kind(t) for t in _split_list(text)]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValidationError(f"cannot parse {text!r} as comma-separated {what}") from None


def _threads(value):
    if value is None:
        # The cores this process may run on; an affinity mask or cpuset
        # can allow fewer than os.cpu_count() reports.
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return value


def _schema_from_args(args, need_predictors=True):
    resp = _split_list(args.response_cols)
    pred = _split_list(args.predictor_cols) if getattr(args, "predictor_cols", None) else []
    if not resp:
        raise ValidationError("--response-cols is required here")
    if need_predictors and not pred:
        raise ValidationError("--predictor-cols is required here")
    return DatasetSchema(
        response_cols=tuple(resp),
        predictor_cols=tuple(pred),
        delimiter=args.delimiter,
        has_header=not args.no_header,
    )


def _reject_flags(args, flags, why=None):
    # A flag that would not act on this run is an error, not a no-op.
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is not None:
            raise ValidationError(f"--{flag} does not apply {why or f'to --model {args.model}'}")


def _fill_defaults(args, **defaults):
    # These flags default to None so that _reject_flags can tell a given
    # flag from an absent one; the ones that act get their values here.
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _resolve_metric_args(args):
    # The clamp floors KL's predicted parts; JS has no use for it.
    if args.metric == "js":
        _reject_flags(args, ("clamp",), "to --metric js")
    _fill_defaults(args, metric="kl", clamp=DEFAULT_CLAMP)


def _geo_convert(X, predictor_cols, geo_cols):
    if len(geo_cols) != 2:
        raise ValidationError("--geo-cols needs exactly two columns: lat,lon")
    if geo_cols[0] == geo_cols[1]:
        raise ValidationError(f"--geo-cols names {geo_cols[0]!r} as both lat and lon")
    positions = []
    for name in geo_cols:
        if name not in predictor_cols:
            raise ValidationError(
                f"geo column {name!r} is not among the predictor columns"
            )
        positions.append(predictor_cols.index(name))
    keep = [j for j in range(X.shape[1]) if j not in positions]
    sphere = latlon_to_euclidean(X[:, positions[0]], X[:, positions[1]])
    return np.column_stack([X[:, keep], sphere]) if keep else sphere


def _build_preprocess(X, predictor_cols, geo_cols, do_standardize):
    prep = {"geo_cols": None, "standardize": bool(do_standardize),
            "center": None, "scale": None}
    if geo_cols:
        geo = _split_list(geo_cols)
        X = _geo_convert(X, list(predictor_cols), geo)
        prep["geo_cols"] = geo
    if do_standardize:
        X, center, scale = standardize(X)
        prep["center"] = [float(v) for v in center]
        prep["scale"] = [float(v) for v in scale]
    return X, prep


def _apply_preprocess(X, predictor_cols, prep):
    if prep.get("geo_cols"):
        X = _geo_convert(X, list(predictor_cols), list(prep["geo_cols"]))
    if prep.get("standardize"):
        X = apply_standardization(X, prep["center"], prep["scale"])
    return X


def _write_text(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(message):
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_tune(args):
    knn = args.model == "aknn"
    _reject_flags(args, ("h-grid", "kernel") if knn else ("k-grid",))
    _resolve_metric_args(args)
    schema = _schema_from_args(args)
    X, U = load_csv(args.input, schema)
    X, _prep = _build_preprocess(X, schema.predictor_cols, args.geo_cols,
                                 args.standardize)
    zero_free = not np.any(U == 0)
    alphas = _number_list(args.alpha_grid) if args.alpha_grid else default_alpha_grid(zero_free)
    ks = hs = None
    if knn:
        ks = _number_list(args.k_grid, int) if args.k_grid else default_k_grid()
    else:
        hs = _number_list(args.h_grid) if args.h_grid else default_h_grid(X, seed=args.seed)
    grid = TuningGrid(alphas=tuple(alphas), ks=ks, hs=hs, folds=args.folds, seed=args.seed)
    report = tune(
        X, U, _FAMILIES[args.model], grid,
        metric=args.metric, clamp=args.clamp, kernel=args.kernel,
        threads=_threads(args.threads),
    )
    _write_text(args, report.to_json())
    chosen = f"k={report.selected_k}" if knn else f"h={report.selected_h:.6g}"
    _note(
        f"tune: selected alpha={report.selected_alpha} {chosen} "
        f"with mean {args.metric} divergence {report.selected_score:.6g}"
    )
    return 0


def _model_error(path, why):
    return ValidationError(f"model file {path!r}: {why}")


def _encode_array(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(obj, path):
    try:
        n, c = (int(v) for v in obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
        if min(n, c) < 0 or len(raw) != 8 * n * c:
            raise ValueError(f"{len(raw)} bytes do not make shape [{n}, {c}]")
    except (KeyError, TypeError, ValueError) as err:
        raise _model_error(path, f"bad embedded array ({err})") from None
    return np.frombuffer(raw, dtype="<f8").reshape(n, c)


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def cmd_fit(args):
    takes = {"aknn": ("alpha", "k"), "akernel": ("alpha", "h", "kernel"),
             "ols": ("transform",)}.get(args.model, ())
    _reject_flags(args, [f for f in ("alpha", "k", "h", "kernel", "transform") if f not in takes])
    params = [name for name in takes if name in ("alpha", "k", "h")]
    if any(getattr(args, name) is None for name in params):
        raise ValidationError(f"fit {args.model} needs --{params[0]} and --{params[1]}")
    _fill_defaults(args, kernel="gaussian", transform="alr")
    schema = _schema_from_args(args)
    X, U = load_csv(args.input, schema)
    X, prep = _build_preprocess(X, schema.predictor_cols, args.geo_cols,
                                args.standardize)
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "model": args.model,
        "response_cols": list(schema.response_cols),
        "predictor_cols": list(schema.predictor_cols),
        "preprocessing": prep,
    }
    if args.model in _FAMILIES:
        payload.update({name: getattr(args, name) for name in params},
                       predictors=_encode_array(X), responses=_encode_array(U))
        if args.model == "akernel":
            payload["kernel"] = args.kernel
        _rebuild_model(payload, args.output)  # validates now, as predict will rebuild it
    elif args.model == "kld":
        model = fit_kld(X, U)
        payload.update(iterations=model.iterations, objective=model.objective,
                       hessian_damped=model.hessian_damped, coefficients=model.coef.tolist())
    else:  # ols
        model = fit_logratio_ols(X, U, transform=args.transform)
        payload.update(transform=model.transform, coefficients=model.coef.tolist())
    payload["sha256"] = _digest(payload)
    _write_text(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _note(f"fit: {args.model} model written")
    return 0


def _rebuild_model(payload, path):
    kind = payload["model"]
    if not isinstance(payload["preprocessing"], dict):
        raise _model_error(path, "preprocessing must be a JSON object")
    if kind in _FAMILIES:
        X, U = (_decode_array(payload[key], path) for key in ("predictors", "responses"))
        if kind == "aknn":
            return fit_alpha_knn(X, U, payload["alpha"], payload["k"])
        return fit_alpha_kernel(X, U, payload["alpha"], payload["h"], kernel=payload["kernel"])
    if kind not in ("kld", "ols"):
        raise _model_error(path, f"unknown model kind {kind!r}")
    try:
        coef = _as_floats(payload["coefficients"], "coefficients")
        if coef.ndim != 2 or 0 in coef.shape or not np.isfinite(coef).all():
            raise ValidationError("coefficients must be a non-empty 2-D array of finite "
                                  f"numbers, got shape {list(coef.shape)}")
        coef.flags.writeable = False
        if kind == "ols":
            return LogRatioOlsModel(coef=coef, transform=_check_transform(payload["transform"]))
    except ValidationError as err:
        raise _model_error(path, str(err)) from None
    return KldModel(coef=coef, iterations=payload["iterations"], objective=payload["objective"],
                    objective_path=(), hessian_damped=payload["hessian_damped"])


def _load_model(path):
    """The model `fit` saved in `path`, with its stored predictor names,
    response names and preprocessing.  A file that is not an intact model
    file of this schema version raises a ValidationError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as err:  # not UTF-8 or not JSON
            raise _model_error(path, f"not JSON ({err})") from None
    if not isinstance(payload, dict):
        raise _model_error(path, "not a JSON object")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise _model_error(path, f"schema_version {version!r} is unsupported; re-run fit")
    if payload.pop("sha256", None) != _digest(payload):
        raise _model_error(path, "sha256 does not match the content")
    try:
        return (_rebuild_model(payload, path), payload["predictor_cols"],
                payload["response_cols"], payload["preprocessing"])
    except KeyError as err:
        raise _model_error(path, f"missing key {err}") from None


def cmd_predict(args):
    if not args.response_cols:
        _reject_flags(args, ("metric", "clamp"), "without --response-cols")
    _resolve_metric_args(args)
    model, predictor_cols, response_cols, prep = _load_model(args.model_file)
    truth_cols = _split_list(args.response_cols) if args.response_cols else []
    schema = DatasetSchema(
        response_cols=tuple(truth_cols),
        predictor_cols=tuple(predictor_cols),
        delimiter=args.delimiter,
        has_header=not args.no_header,
    )
    X, truth = load_csv(args.input, schema)
    X = _apply_preprocess(X, schema.predictor_cols, prep)
    pred = model.predict(X)
    names = list(response_cols)
    columns = [pred[:, j] for j in range(pred.shape[1])]
    if truth is not None:
        if truth.shape[1] != pred.shape[1]:
            raise ValidationError(
                f"truth has {truth.shape[1]} components, predictions "
                f"{pred.shape[1]}"
            )
        if args.metric == "kl":
            rows = kl_divergence(truth, pred, clamp=args.clamp)
        else:
            rows = js_divergence(truth, pred)
        columns.append(rows)
        names.append(args.metric)
    write_csv(args.output or sys.stdout, columns, names, delimiter=args.delimiter)
    _note(f"predict: wrote {pred.shape[0]} rows")
    return 0


def cmd_simulate(args):
    spec = SimSpec(
        n=args.n,
        D=args.D,
        link=args.link,
        degree=args.degree,
        predictors=args.predictors,
        noise_scale=args.noise_scale,
        zero_fraction=args.zero_fraction,
        coef_seed=args.seed,
        data_seed=args.seed + 1,
    )
    X, U, coef = generate(spec)
    write_dataset_csv(args.output or sys.stdout, X, U)
    if args.truth_output:
        truth = {key: v for key, v in asdict(spec).items() if not key.endswith("_seed")}
        truth.update(schema_version=1, seed=args.seed,
                     coefficients=[[float(v) for v in row] for row in coef])
        with open(args.truth_output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    _note(f"simulate: wrote {spec.n} rows (link={spec.link}, D={spec.D})")
    return 0


def cmd_frechet_path(args):
    schema = _schema_from_args(args, need_predictors=False)
    _, U = load_csv(args.input, schema)
    zero_free = not np.any(U == 0)
    alphas = _number_list(args.alpha_grid) if args.alpha_grid else default_alpha_grid(zero_free)
    path = frechet_path(U, alphas)
    names = ["alpha"] + list(schema.response_cols)
    columns = [np.array([a for a, _ in path])]
    means = np.vstack([m for _, m in path])
    columns += [means[:, j] for j in range(means.shape[1])]
    write_csv(args.output or sys.stdout, columns, names)
    _note(f"frechet-path: {len(path)} grid points")
    return 0


def cmd_bench(args):
    if args.threads != 1:
        raise ValidationError("--threads does not apply to bench: the harness runs serially")
    scenario = BenchScenario(
        n_grid=tuple(_number_list(args.n, int)),
        d_grid=tuple(_number_list(args.D, int)),
        queries=args.queries,
        repeats=args.repeats,
        seed=args.seed,
    )
    report = run_bench(scenario)
    _write_text(args, report.to_json())
    for cell in report.cells:
        if cell.skipped:
            _note(f"bench: n={cell.n} D={cell.D} skipped ({cell.reason})")
        else:
            _note(
                f"bench: n={cell.n} D={cell.D} ols={cell.ols_seconds:.3f}s "
                f"kld={cell.kld_seconds:.3f}s aknn={cell.aknn_seconds:.3f}s"
            )
    return 0


def cmd_validate(args):
    schema = _schema_from_args(args, need_predictors=False)
    X, U = load_csv(args.input, schema)
    report = validate_composition_matrix(U)
    out = {**asdict(report), "predictor_cols": len(schema.predictor_cols)}
    _write_text(args, json.dumps(out, indent=2, sort_keys=True) + "\n")
    _note(
        f"validate: {report.rows} rows, {report.zero_rows} with zeros"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_io_args(sp, predictors=True):
    sp.add_argument("--input", required=True, help="input CSV path")
    sp.add_argument(
        "--response-cols",
        required=True,
        help="comma-separated response column names "
        "(0-based indices with --no-header)",
    )
    if predictors:
        sp.add_argument(
            "--predictor-cols",
            required=True,
            help="comma-separated predictor column names",
        )
    sp.add_argument("--delimiter", default=",", help="field delimiter")
    sp.add_argument(
        "--no-header",
        action="store_true",
        help="file has no header row; columns are 0-based indices",
    )


def _add_preprocess_args(sp):
    sp.add_argument(
        "--geo-cols",
        default=None,
        help="lat,lon predictor columns to convert to unit-sphere "
        "coordinates before fitting",
    )
    sp.add_argument(
        "--standardize",
        action="store_true",
        help="center and scale predictors by sample standard deviation",
    )


def _add_metric_args(sp):
    sp.add_argument("--metric", default=None, choices=METRICS, help="default: kl")
    sp.add_argument("--clamp", type=float, default=None,
                    help=f"kl only: floor for predicted parts, below 1/D (default: {DEFAULT_CLAMP})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simplexreg",
        description="Regression for compositional responses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tune", help="cross-validated grid search")
    _add_io_args(sp)
    _add_preprocess_args(sp)
    sp.add_argument("--model", required=True, choices=("aknn", "akernel"))
    sp.add_argument("--alpha-grid", default=None, help="comma-separated exponents")
    sp.add_argument("--k-grid", default=None, help="comma-separated neighborhood sizes")
    sp.add_argument("--h-grid", default=None, help="comma-separated bandwidths")
    sp.add_argument("--kernel", default=None, choices=tuple(KERNELS),
                    help="akernel only (default: gaussian)")
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    _add_metric_args(sp)
    sp.add_argument("--threads", type=int, default=None,
                    help="fold worker threads (default: available cores)")
    sp.add_argument("--output", default=None, help="report JSON path (default stdout)")
    sp.set_defaults(func=cmd_tune)

    sp = sub.add_parser("fit", help="fit one model and save it")
    _add_io_args(sp)
    _add_preprocess_args(sp)
    sp.add_argument("--model", required=True, choices=("aknn", "akernel", "kld", "ols"))
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--kernel", default=None, choices=tuple(KERNELS),
                    help="akernel only (default: gaussian)")
    sp.add_argument("--transform", default=None, choices=("alr", "ilr"),
                    help="log-ratio coordinates for the ols model (default: alr)")
    sp.add_argument("--output", default=None, help="model JSON path (default stdout)")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("predict", help="predict with a saved model")
    sp.add_argument("--input", required=True, help="query CSV path")
    sp.add_argument("--model-file", required=True, help="model JSON from fit")
    sp.add_argument("--response-cols", default=None,
                    help="truth columns in the query file; adds a "
                    "per-row divergence column")
    sp.add_argument("--delimiter", default=",")
    sp.add_argument("--no-header", action="store_true")
    _add_metric_args(sp)
    sp.add_argument("--output", default=None, help="predictions CSV (default stdout)")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("simulate", help="generate a synthetic dataset")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--D", type=int, required=True)
    sp.add_argument("--link", default="polynomial", choices=("polynomial", "segmented"))
    sp.add_argument("--degree", type=int, default=1, choices=(1, 2, 3))
    sp.add_argument("--predictors", type=int, default=1)
    sp.add_argument("--noise-scale", type=float, default=0.1)
    sp.add_argument("--zero-fraction", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0,
                    help="coefficient seed; the data stream uses seed + 1")
    sp.add_argument("--output", default=None, help="dataset CSV (default stdout)")
    sp.add_argument("--truth-output", default=None,
                    help="also write true coefficients as JSON")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("frechet-path", help="mean composition along an exponent grid")
    _add_io_args(sp, predictors=False)
    sp.add_argument("--alpha-grid", default=None, help="comma-separated exponents")
    sp.add_argument("--output", default=None, help="path CSV (default stdout)")
    sp.set_defaults(func=cmd_frechet_path)

    sp = sub.add_parser("bench", help="timing grid over synthetic datasets")
    sp.add_argument("--n", default="100000,200000,400000,800000",
                    help="comma-separated training sizes")
    sp.add_argument("--D", default="3,5", help="comma-separated composition sizes")
    sp.add_argument("--queries", type=int, default=1000)
    sp.add_argument("--repeats", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1,
                    help="only 1 is accepted: the harness runs serially")
    sp.add_argument("--output", default=None, help="report JSON path (default stdout)")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("validate", help="check a composition table, report zeros")
    _add_io_args(sp, predictors=False)
    sp.add_argument("--predictor-cols", default=None,
                    help="comma-separated predictor column names, parsed and "
                    "checked as fit does; the report counts them")
    sp.add_argument("--output", default=None, help="report JSON path (default stdout)")
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimplexRegError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # an allocation the OS refused
        print(f"error: MemoryError: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
