"""In-process span recorder that wraps the package's public functions.

Nothing inside `src/` is instrumented.  `install(tracer)` rebinds the
names that callers look up (for example `cli.load_csv` or
`selection.build_index`) to wrappers that open a span around the call,
and `tracer.uninstall()` puts the originals back.  Spans stay in memory
until the run ends; a span's self time is its duration minus the time
its child spans cover.
"""

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, session]
        self.counts = defaultdict(lambda: defaultdict(int))  # session -> name -> count
        self.session = None
        self._local = threading.local()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name):
        stack = self._stack()
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else None, self.session])
        stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack().pop()][2] = time.perf_counter()

    def count(self, name, amount=1):
        self.counts[self.session][name] += int(amount)

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, counter=None):
        """Span around each call; `counter(tracer, args, result)` may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name if isinstance(name, str) else name(args), fn,
                               *args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name, count_name):
        """Span around each `next` of the generator `fn` returns; each
        item adds one to `count_name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.count(count_name)
                yield item

        return wrapper

    def patch(self, owner, attr, wrapper):
        """Rebind `owner.attr` (or `owner[attr]` for a dict) to `wrapper`."""
        if isinstance(owner, dict):
            self._saved.append((owner.__setitem__, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._saved.append((functools.partial(setattr, owner), attr,
                                getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            put, attr, original = self._saved.pop()
            put(attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self, sessions):
        """Total self time per span name over the given sessions."""
        sessions = set(sessions)
        child = defaultdict(float)
        for name, start, end, parent, sess in self.spans:
            if sess in sessions and parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, sess) in enumerate(self.spans):
            if sess in sessions:
                out[name] += (end - start) - child[i]
        return out

    def count_totals(self, sessions):
        out = defaultdict(int)
        for sess in sessions:
            for name, value in self.counts[sess].items():
                out[name] += value
        return out


def _rows(result):
    return result[0].shape[0] if result[0] is not None else result[1].shape[0]


def install(tracer):
    """Wrap the public functions of every layer on the tune/fit/predict path."""
    from simplexreg import cli, datagen, frechet, ingestion, neighbors, regressors, selection

    def count_rows(name, pick):
        return lambda t, args, result: t.count(name, pick(args, result))

    # cli -> ingestion, selection, regressors
    tracer.patch(cli, "load_csv", tracer.wrap(
        cli.load_csv, "ingestion.load_csv",
        count_rows("ingestion.rows_parsed", lambda a, r: _rows(r))))
    tracer.patch(cli, "write_csv", tracer.wrap(cli.write_csv, "ingestion.write_csv"))
    tracer.patch(cli, "tune", tracer.wrap(cli.tune, "selection.tune"))
    tracer.patch(cli, "default_h_grid", tracer.wrap(cli.default_h_grid, "selection.h_grid"))
    for attr in ("fit_alpha_knn", "fit_alpha_kernel"):
        tracer.patch(cli, attr, tracer.wrap(getattr(cli, attr), "regressors.fit"))

    # divergence scoring, from tune and from predict's truth column
    for module in (cli, selection):
        for attr in ("kl_divergence", "js_divergence"):
            tracer.patch(module, attr, tracer.wrap(
                getattr(module, attr), "selection.divergence",
                count_rows("selection.divergence_rows",
                           lambda a, r: getattr(r, "size", 1))))

    # neighbors
    for module in (selection, regressors):
        tracer.patch(module, "build_index",
                     tracer.wrap(module.build_index, "neighbors.build"))
        tracer.patch(module, "pairwise_distances", tracer.wrap(
            module.pairwise_distances, "neighbors.pairwise",
            count_rows("neighbors.pairwise_bytes",
                       lambda a, r: r.shape[0] * r.shape[1] * 8)))
    index_cls = neighbors.NeighborIndex
    tracer.patch(index_cls, "query_batch", tracer.wrap(
        index_cls.query_batch,
        lambda args: f"neighbors.{args[0].strategy}_query",
        lambda t, args, result: (
            t.count("neighbors.query_rows", result[0].shape[0]),
            t.count(f"neighbors.{args[0].strategy}_query_rows", result[0].shape[0]),
        )))
    resolve = index_cls._resolve_row

    def counted_resolve(*args, **kwargs):
        tracer.count("neighbors.tie_rows")
        return resolve(*args, **kwargs)

    tracer.patch(index_cls, "_resolve_row", counted_resolve)

    # regressors
    tracer.patch(selection, "iter_knn_grid_predictions", tracer.wrap_generator(
        selection.iter_knn_grid_predictions, "regressors.knn_grid", "regressors.grid_cells"))
    for attr in ("predict_alpha_knn", "predict_alpha_kernel"):
        tracer.patch(regressors, attr,
                     tracer.wrap(getattr(regressors, attr), "regressors.predict"))
    # KERNELS is one dict shared by regressors and selection.
    for kernel_name, fn in list(regressors.KERNELS.items()):
        tracer.patch(regressors.KERNELS, kernel_name,
                     tracer.wrap(fn, "regressors.kernel_weights"))

    # simplex gates, bound by name in every consumer
    for module in (selection, regressors, frechet):
        tracer.patch(module, "closure", tracer.wrap(
            module.closure, "simplex.closure",
            lambda t, args, r: (t.count("simplex.closure_calls"),
                                t.count("simplex.rows_closed", r.size // r.shape[-1]))))
    for module in (selection, regressors, neighbors, ingestion, frechet):
        for attr in ("as_predictor_matrix", "as_composition_matrix"):
            if hasattr(module, attr):
                tracer.patch(module, attr,
                             tracer.wrap(getattr(module, attr), "simplex.validate"))

    # set-up
    tracer.patch(datagen, "generate", tracer.wrap(datagen.generate, "datagen.generate"))
