"""Seeded end-to-end benchmark of the simplexreg user session.

Run from the root of a checkout:

    python3 benchmark/run.py --workload knn-large --seed 1 --seconds 40 --trace 0

The benchmark writes the workload's training and query CSVs from the seed,
then repeats the session `tune` -> `fit` at the tuned cell -> `predict`
with truth columns until the time is up.  With `--trace 0` each command
runs as a fresh `python -m simplexreg.cli` process, which is what a user
pays for: interpreter start, import, CSV parsing and the work itself.
With `--trace 1` the same argv runs in process, alternately untraced and
with spans around the public functions of every layer (see tracing.py).

Every command gets `--threads 1` and a one-thread BLAS pool, the plain
single-threaded baseline.  Every output is checked; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  WORKLOADS.md records why each workload exists and
which end-to-end metric each per-layer metric should move.
"""

import os

# Pinned before numpy is imported, here and in every child process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

STARTED = time.monotonic()
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

# Fresh `simplexreg --help` processes per traced run; import time is their median.
IMPORT_REPEATS = 5
# Children still running this long after the benchmark started are
# killed, so a run ends inside its 180 s limit even if a command hangs.
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s", "tune_s": "s", "fit_s": "s", "predict_s": "s",
    "tune_rss_mb": "MiB", "predict_rss_mb": "MiB",
    "holdout_kl": "nats", "success_ratio": "ratio",
}


def _load_package():
    """Import simplexreg from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "simplexreg", "__init__.py")):
        sys.exit(f"error: {SRC}/simplexreg not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import simplexreg

    if os.path.dirname(os.path.dirname(os.path.abspath(simplexreg.__file__))) != SRC:
        sys.exit(f"error: imported simplexreg from {simplexreg.__file__}, not {SRC}")


def _child_env():
    return dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def summarize(values):
    """Median, sample count, and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{pct:g}"] = cuts[int(round(pct * 10)) - 1]
            break
    return out


# ---------------------------------------------------------------------------
# commands and their checks


@dataclass
class Command:
    name: str
    wall_s: float
    rss_mb: float
    ok: bool
    problem: str = ""


def run_child(argv, cwd, env, log_prefix):
    """One fresh CLI process: wall time and peak RSS from wait4."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "simplexreg.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, DEADLINE_S - (time.monotonic() - STARTED)),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0
    problem = ""
    if not ok:
        with open(log_prefix + ".err", encoding="utf-8", errors="replace") as fh:
            problem = f"exit {proc.returncode}: {fh.read().strip()[-300:]}"
    return Command(argv[0], wall, usage.ru_maxrss / 1024.0, ok, problem)


def run_in_process(argv):
    """The same argv through cli.main in this process."""
    from simplexreg import cli

    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    return Command(argv[0], wall, 0.0, code == 0, "" if code == 0 else f"exit {code}")


def check_report(path, workload):
    """The tune report parses and selects the best feasible cell of its grid."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    sel = report["selected"]
    axis = "ks" if workload.model == "aknn" else "hs"
    key = "k" if workload.model == "aknn" else "h"
    if sel["alpha"] not in report["alphas"] or sel[key] not in report[axis]:
        return None, f"selected cell {sel} is not in the grid"
    cells = [v for row in report["mean_divergence"] for v in row if v is not None]
    if sel["score"] != min(cells):
        return None, f"selected score {sel['score']} is not the grid minimum {min(cells)}"
    cell = report["mean_divergence"][report["alphas"].index(sel["alpha"])][
        report[axis].index(sel[key])]
    if cell != sel["score"]:
        return None, "selected score differs from its grid cell"
    return report, ""


def check_predictions(path, workload):
    """Rows, finiteness, nonnegativity and unit sums; returns the mean KL."""
    import numpy as np
    from simplexreg.simplex import SUM_TOL

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    expected = [f"y{j + 1}" for j in range(workload.D)] + ["kl"]
    if header != expected:
        return None, f"prediction header {header} != {expected}"
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (workload.n_query, workload.D + 1):
        return None, f"prediction table has shape {table.shape}"
    if not np.all(np.isfinite(table)):
        return None, "non-finite prediction or divergence"
    pred, kl = table[:, :-1], table[:, -1]
    if np.any(pred < 0):
        return None, "negative predicted component"
    worst = float(np.max(np.abs(pred.sum(axis=1) - 1.0)))
    if worst > SUM_TOL:
        return None, f"a predicted row sums {worst:.3g} away from 1"
    if np.any(kl < 0):
        return None, "negative KL divergence"
    return float(kl.mean()), ""


class Session:
    """One tune -> fit -> predict pass and the outputs it left."""

    def __init__(self):
        self.commands = []
        self.problems = []
        self.outputs = {}  # file name -> sha256
        self.holdout_kl = None

    @property
    def failed(self):
        return sum(not c.ok for c in self.commands)

    @property
    def wall_s(self):
        return sum(c.wall_s for c in self.commands)


def run_session(workload, workdir, execute, reference):
    """Run the session through `execute(argv)`; checks mark commands failed.

    `reference` maps each output file to the sha256 the run's first
    session wrote; every later session must write the same bytes.
    """
    s = Session()

    def step(argv, output, check=None):
        cmd = execute(argv)
        s.commands.append(cmd)
        path = os.path.join(workdir, output)
        if cmd.ok and not os.path.isfile(path):
            cmd.ok, cmd.problem = False, f"{output} was not written"
        result = None
        if cmd.ok and check is not None:
            result, problem = check(path, workload)
            if result is None:
                cmd.ok, cmd.problem = False, problem
        if cmd.ok:
            digest = s.outputs[output] = _sha256(path)
            if reference.setdefault(output, digest) != digest:
                cmd.ok, cmd.problem = False, f"{output} differs from the first session's"
        if not cmd.ok:
            s.problems.append(f"{cmd.name}: {cmd.problem}")
        return cmd.ok, result

    ok, report = step(workload.tune_argv("train.csv", "report.json"), "report.json",
                      check_report)
    if not ok:
        return s
    ok, _ = step(workload.fit_argv("train.csv", report["selected"], "model.json"),
                 "model.json")
    if not ok:
        return s
    _, s.holdout_kl = step(workload.predict_argv("query.csv", "model.json", "pred.csv"),
                           "pred.csv", check_predictions)
    return s


# ---------------------------------------------------------------------------
# set-up and the measurement loop


class Inputs:
    """The workload's CSVs, written once before every session.

    Writing them again between sessions times set-up across the whole
    run, as the sessions are; every repetition must write the same bytes.
    """

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.times = []
        self.digests = None
        self.problems = []

    def write(self, tracer=None):
        from workloads import write_inputs

        rep = len(self.times)
        names = ("train.csv", "query.csv") if rep == 0 else ("train.again.csv", "query.again.csv")
        train, query = (os.path.join(self.workdir, name) for name in names)
        if tracer is not None:
            tracer.session = f"setup-{rep}"
        start = time.perf_counter()
        write_inputs(self.workload, self.seed, train, query)
        self.times.append(time.perf_counter() - start)
        digests = (_sha256(train), _sha256(query))
        if rep == 0:
            self.digests = digests
            return
        if digests != self.digests:
            self.problems.append(f"set-up {rep} wrote different inputs for the same seed")
        os.remove(train)
        os.remove(query)


def measure(seconds, one_session):
    """Repeat `one_session` while another one still fits in `seconds`."""
    results, took = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results.append(one_session())
        took.append(time.perf_counter() - begun)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return results


def environment():
    """What the figures were measured on, read-only from /proc and /sys."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc_kib = None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for entry in os.listdir(cache_dir):
            if entry.startswith("index"):
                with open(os.path.join(cache_dir, entry, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(cache_dir, entry, "size")) as fh:
                    size = fh.read().strip()
                levels.append((level, int(size.rstrip("K"))))
        llc_kib = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    mem_available_mib = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    mem_available_mib = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": BLAS_ENV,
        "cli_threads": 1,
        "llc_kib": llc_kib,
        "mem_available_mib": mem_available_mib,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, args, workdir):
    inputs = Inputs(workload, args.seed, workdir)
    env = _child_env()
    reference = {}

    def execute(argv):
        return run_child(argv, workdir, env, os.path.join(workdir, argv[0]))

    def one_session():
        inputs.write()
        return run_session(workload, workdir, execute, reference)

    sessions = measure(args.seconds, one_session)
    problems = inputs.problems + [p for s in sessions for p in s.problems]
    good = [c for s in sessions for c in s.commands if c.ok]
    by_name = {name: [c for c in good if c.name == name] for name in ("tune", "fit", "predict")}
    if not all(by_name.values()):
        return None, problems
    attempted = sum(len(s.commands) for s in sessions)
    failed = sum(s.failed for s in sessions)
    samples = {
        "setup_s": inputs.times,
        "tune_s": [c.wall_s for c in by_name["tune"]],
        "fit_s": [c.wall_s for c in by_name["fit"]],
        "predict_s": [c.wall_s for c in by_name["predict"]],
        "tune_rss_mb": [c.rss_mb for c in by_name["tune"]],
        "predict_rss_mb": [c.rss_mb for c in by_name["predict"]],
        "holdout_kl": [s.holdout_kl for s in sessions if s.holdout_kl is not None],
    }
    summaries = {name: summarize(v) for name, v in samples.items()}
    metrics = {name: _metric(summaries[name]["median"], E2E_UNITS[name]) for name in samples}
    metrics["success_ratio"] = _metric((attempted - failed) / attempted, "ratio")
    detail = {
        "sessions": len(sessions),
        "summaries": summaries,
        "samples": samples,
        "sha256": reference,
    }
    return (metrics, attempted, failed, detail), problems


LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "ingestion.load_csv_s": "s", "ingestion.rows_parsed": "count",
    "ingestion.rows_per_s": "1/s", "ingestion.write_csv_s": "s",
    "datagen.generate_s": "s",
    "simplex.closure_s": "s", "simplex.closure_calls": "count",
    "simplex.rows_closed": "count", "simplex.validate_s": "s",
    "neighbors.build_s": "s", "neighbors.kdtree_query_s": "s",
    "neighbors.brute_query_s": "s", "neighbors.query_rows": "count",
    "neighbors.tie_rows": "count", "neighbors.tie_ratio": "ratio",
    "neighbors.pairwise_s": "s", "neighbors.pairwise_bytes": "B",
    "regressors.knn_grid_self_s": "s", "regressors.grid_cells": "count",
    "regressors.kernel_weights_s": "s", "regressors.predict_s": "s",
    "regressors.fit_s": "s",
    "selection.tune_self_s": "s", "selection.divergence_s": "s",
    "selection.divergence_rows": "count", "selection.infeasible_cells": "count",
    "selection.h_grid_s": "s",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}

COMMANDS = ("tune", "fit", "predict")


def layer_metrics(tracer, sid, session, report):
    """Per-layer figures of one traced session; times are self times."""
    ids = [f"{sid}.{name}" for name in COMMANDS]
    selfs = tracer.self_times(ids)
    counts = tracer.count_totals(ids)
    tune_root = tracer.self_times([ids[0]])["cli.tune"]
    kd_rows = counts["neighbors.kdtree_query_rows"]
    return {
        "cli.self_s": sum(selfs[f"cli.{name}"] for name in COMMANDS),
        "ingestion.load_csv_s": selfs["ingestion.load_csv"],
        "ingestion.rows_parsed": counts["ingestion.rows_parsed"],
        "ingestion.rows_per_s": counts["ingestion.rows_parsed"] / selfs["ingestion.load_csv"],
        "ingestion.write_csv_s": selfs["ingestion.write_csv"],
        "simplex.closure_s": selfs["simplex.closure"],
        "simplex.closure_calls": counts["simplex.closure_calls"],
        "simplex.rows_closed": counts["simplex.rows_closed"],
        "simplex.validate_s": selfs["simplex.validate"],
        "neighbors.build_s": selfs["neighbors.build"],
        "neighbors.kdtree_query_s": selfs["neighbors.kdtree_query"],
        "neighbors.brute_query_s": selfs["neighbors.brute_query"],
        "neighbors.query_rows": counts["neighbors.query_rows"],
        "neighbors.tie_rows": counts["neighbors.tie_rows"],
        "neighbors.tie_ratio": counts["neighbors.tie_rows"] / kd_rows if kd_rows else 0.0,
        "neighbors.pairwise_s": selfs["neighbors.pairwise"],
        "neighbors.pairwise_bytes": counts["neighbors.pairwise_bytes"],
        "regressors.knn_grid_self_s": selfs["regressors.knn_grid"],
        "regressors.grid_cells": counts["regressors.grid_cells"],
        "regressors.kernel_weights_s": selfs["regressors.kernel_weights"],
        "regressors.predict_s": selfs["regressors.predict"],
        "regressors.fit_s": selfs["regressors.fit"],
        "selection.tune_self_s": selfs["selection.tune"],
        "selection.divergence_s": selfs["selection.divergence"],
        "selection.divergence_rows": counts["selection.divergence_rows"],
        "selection.infeasible_cells": sum(
            v is None for row in report["mean_divergence"] for v in row),
        "selection.h_grid_s": selfs["selection.h_grid"],
        # Share of the in-process tune wall time that a layer below the
        # CLI dispatch accounts for.
        "trace.coverage": 1.0 - tune_root / session.commands[0].wall_s,
    }


def traced(workload, args, workdir):
    import tracing

    tracer = tracing.Tracer()
    inputs = Inputs(workload, args.seed, workdir)
    problems = []
    env = _child_env()
    helps = [run_child(["--help"], workdir, env, os.path.join(workdir, "help"))
             for _ in range(IMPORT_REPEATS)]
    problems += [f"simplexreg --help: {c.problem}" for c in helps if not c.ok]
    reference = {}
    pairs = []

    def pair():
        """The session untraced and traced, in alternating order; set-up
        is traced too."""
        tracing.install(tracer)
        try:
            inputs.write(tracer)
        finally:
            tracer.uninstall()
        sid = f"session-{len(pairs)}"

        def execute(argv):
            tracer.session = f"{sid}.{argv[0]}"
            return tracer.call(f"cli.{argv[0]}", run_in_process, argv)

        def plain_session():
            return run_session(workload, workdir, run_in_process, reference)

        def spanned_session():
            tracing.install(tracer)
            try:
                return run_session(workload, workdir, execute, reference)
            finally:
                tracer.uninstall()

        if len(pairs) % 2:
            spanned, plain = spanned_session(), plain_session()
        else:
            plain, spanned = plain_session(), spanned_session()
        report = None
        if not spanned.failed:
            with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        pairs.append((plain, spanned, sid, report))

    os.chdir(workdir)
    try:
        measure(args.seconds, pair)
    finally:
        os.chdir(ROOT)

    sessions = [s for p in pairs for s in p[:2]]
    problems += inputs.problems + [p for s in sessions for p in s.problems]
    attempted = len(helps) + sum(len(s.commands) for s in sessions)
    failed = sum(not c.ok for c in helps) + sum(s.failed for s in sessions)
    rows = [layer_metrics(tracer, sid, spanned, report)
            for _, spanned, sid, report in pairs if report is not None]
    if not rows or not any(c.ok for c in helps):
        return None, problems
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["cli.import_s"] = statistics.median(c.wall_s for c in helps if c.ok)
    metrics["datagen.generate_s"] = statistics.median(
        tracer.self_times([f"setup-{rep}"])["datagen.generate"]
        for rep in range(len(inputs.times)))
    metrics["trace.overhead_s"] = (statistics.median(p[1].wall_s for p in pairs)
                                   - statistics.median(p[0].wall_s for p in pairs))
    metrics = {name: _metric(metrics[name], LAYER_UNITS[name]) for name in LAYER_UNITS}
    detail = {
        "sessions": len(pairs),
        "traced_outputs_identical": all(p[1].outputs == reference for p in pairs),
        "sha256": reference,
        "setup_s": summarize(inputs.times),
    }
    return (metrics, attempted, failed, detail), problems


def main(argv=None):
    _load_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced if args.trace else end_to_end
        outcome, problems = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
        except OSError:
            pass
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if outcome is None:
        print("error: no complete session; nothing to report", file=sys.stderr)
        return 1
    metrics, attempted, failed, detail = outcome
    detail.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=problems, environment=environment())
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
