"""In-memory span tracer that wraps sapgp's public functions from outside.

The tracer replaces each traced function at the module or class attribute its
callers look up (``sapgp.solvers.col_dist_matmul`` for the solvers' calls,
``KernelOracle.tile`` for every oracle, ...), records one span per call and
restores the originals on exit. Nothing inside the package changes.

A span holds its name, layer, start, end, parent span and thread. Spans of
worker-pool threads, whose own stack is empty, take as parent the innermost
open span of the caller thread: the benchmark drives the package from a
single caller, which blocks in the pooled product while the pool runs. Spans
go to a lock-protected list and stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time

# (module, attribute path, span name). The span name's prefix is the layer.
TARGETS = (
    ("sapgp.kernels", "KernelOracle.tile", "kernels.tile"),
    ("sapgp.kernels", "KernelOracle.block", "kernels.block"),
    ("sapgp.kernels", "KernelOracle.matmul", "kernels.matmul"),
    ("sapgp.kernels", "DenseOracle.matmul", "kernels.matmul"),
    ("sapgp.kernels", "KernelOracle.cross_matmul", "kernels.cross_matmul"),
    ("sapgp.dist", "check_indices", "dist.check_indices"),
    ("sapgp.solvers", "col_dist_matmul", "dist.col_dist_matmul"),
    ("sapgp.solvers", "row_dist_matmul", "dist.row_dist_matmul"),
    ("sapgp.randnla", "rand_nystrom", "randnla.rand_nystrom"),
    ("sapgp.solvers", "rand_nystrom_retry", "randnla.rand_nystrom_retry"),
    ("sapgp.solvers", "rand_power_stepsize", "randnla.rand_power_stepsize"),
    ("sapgp.randnla", "apply_inv_sqrt", "randnla.apply_inv_sqrt"),
    ("sapgp.solvers", "apply_inv", "randnla.apply_inv"),
    ("sapgp.randnla", "apply_inv_plain", "randnla.apply_inv_plain"),
    ("sapgp.solvers", "solve", "solvers.solve"),
    ("sapgp.cli", "solve", "solvers.solve"),
    ("sapgp.solvers", "sap_solve", "solvers.sap_solve"),
    ("sapgp.theory", "sap_solve", "solvers.sap_solve"),
    ("sapgp.solvers", "adasap_solve", "solvers.adasap_solve"),
    ("sapgp.solvers", "sap_step", "solvers.sap_step"),
    ("sapgp.solvers", "adasap_step", "solvers.adasap_step"),
    ("sapgp.solvers", "nesterov_update", "solvers.nesterov_update"),
    ("sapgp.cli", "pathwise_sample", "gp.pathwise_sample"),
    ("sapgp.gp", "RandomFeatureMap.sample", "gp.prior"),
    ("sapgp.gp", "RandomFeaturePrior.__init__", "gp.prior"),
    ("sapgp.gp", "RandomFeaturePrior.draw_state", "gp.prior"),
    ("sapgp.cli", "rmse", "gp.metrics"),
    ("sapgp.cli", "mean_nll", "gp.metrics"),
    ("sapgp.cli", "load_csv", "data.load_csv"),
    ("sapgp.cli", "train_test_split", "data.train_test_split"),
    ("sapgp.cli", "main", "cli.main"),
    ("sapgp.cli", "cmd_infer", "cli.cmd_infer"),
    ("sapgp.cli", "load_config", "cli.load_config"),
    ("sapgp.cli", "kernel_from_dict", "cli.kernel_from_dict"),
    ("sapgp.dpp", "DppModel.sample", "dpp.sample"),
    ("sapgp.dpp", "expected_projection_mc", "dpp.expected_projection_mc"),
    ("sapgp.theory", "verify_theorem1", "theory.verify_theorem1"),
    ("sapgp.solvers", "substream", "rng.substream"),
    ("sapgp.gp", "substream", "rng.substream"),
    ("sapgp.data", "substream", "rng.substream"),
    ("sapgp.theory", "substream", "rng.substream"),
    ("sapgp.cli", "substream", "rng.substream"),
)

LAYERS = ("kernels", "dist", "randnla", "solvers", "gp", "data", "cli", "dpp", "theory", "rng")

# Percentiles tried for a span's high-percentile duration, highest first.
HIGH_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "work")

    def __init__(self, name, parent, thread, work):
        self.name = name
        self.layer = name.partition(".")[0]
        self.parent = parent
        self.thread = thread
        self.work = work
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start


def _tile_entries(args, kwargs):
    return len(args[1]) * len(args[2])


def _pool_workers(args, kwargs):
    pool = args[3] if len(args) > 3 else kwargs.get("pool")
    return pool.num_workers if pool is not None else 1


# Per-span work figures: kernel entries of a tile, workers behind a product.
WORK = {
    "kernels.tile": _tile_entries,
    "dist.col_dist_matmul": _pool_workers,
    "dist.row_dist_matmul": _pool_workers,
}


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller = threading.get_ident()
        self._caller_stack = []
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self._caller:
            return self._caller_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                caller = self._caller_stack
                parent = caller[-1] if caller else None
            span = Span(name, parent, threading.get_ident(),
                        work(args, kwargs) if work else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return traced

    def __enter__(self):
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, name))
                else:
                    replacement = self._wrap(original, name)
            else:
                original = getattr(owner, attr)
                replacement = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _union(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Map each span to its duration minus the union of its children's."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    return {
        id(span): span.duration - _union(
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(id(span), ()) if hi > span.start and lo < span.end
        )
        for span in spans
    }


def high_percentile(values):
    """(value, percentile) at the highest listed percentile that leaves at
    least ten samples beyond it; (0, 0) with fewer than twenty samples."""
    for pct in HIGH_PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return cuts[round(pct * 10) - 1], pct
    return 0.0, 0.0


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced call that took ``wall_s`` seconds."""
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name, parent_names=None):
        return [s for s in by_name.get(name, ()) if parent_names is None
                or (s.parent is not None and s.parent.name in parent_names)]

    def total(name, parent_names=None):
        return sum(s.duration for s in named(name, parent_names))

    def p50(items):
        return statistics.median(s.duration for s in items) if items else 0.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    tiles = named("kernels.tile")
    entries = sum(s.work for s in tiles)
    tile_s = sum(s.duration for s in tiles)
    products = named("dist.col_dist_matmul") + named("dist.row_dist_matmul")
    busy = total("kernels.tile", {"dist.col_dist_matmul", "dist.row_dist_matmul"})
    capacity = sum(s.work * s.duration for s in products)
    steps = named("solvers.sap_step") + named("solvers.adasap_step")
    step_hi, step_hi_pct = high_percentile([s.duration for s in steps])
    loops = {"solvers.sap_solve", "solvers.adasap_solve"}
    residuals = named("kernels.matmul", loops)
    trials = named("solvers.sap_solve", {"theory.verify_theorem1"})
    nystrom_calls = len(named("randnla.rand_nystrom_retry"))
    nystrom_attempts = len(named("randnla.rand_nystrom"))
    samples = named("dpp.sample")
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer_self[span.layer] += selfs[id(span)]

    metrics = {
        "kernels.tile_calls": len(tiles),
        "kernels.tile_entries": entries,
        "kernels.tile_s": tile_s,
        "kernels.entries_per_s": ratio(entries, tile_s),
        "kernels.block_s": total("kernels.block"),
        "kernels.matmul_calls": len(named("kernels.matmul")),
        "kernels.matmul_s": total("kernels.matmul"),
        "kernels.cross_matmul_s": total("kernels.cross_matmul"),
        "dist.col_calls": len(named("dist.col_dist_matmul")),
        "dist.col_s": total("dist.col_dist_matmul"),
        "dist.row_s": total("dist.row_dist_matmul"),
        "dist.check_indices_s": total("dist.check_indices"),
        "dist.pool_busy_ratio": ratio(busy, capacity),
        "randnla.nystrom_calls": nystrom_calls,
        "randnla.nystrom_attempts": nystrom_attempts,
        "randnla.nystrom_useful_ratio": ratio(nystrom_calls, nystrom_attempts),
        "randnla.nystrom_s": total("randnla.rand_nystrom_retry"),
        "randnla.power_s": total("randnla.rand_power_stepsize"),
        "randnla.inv_sqrt_s": total("randnla.apply_inv_sqrt"),
        "randnla.woodbury_s": total("randnla.apply_inv"),
        "randnla.woodbury_fallbacks": len(named("randnla.apply_inv_plain", {"randnla.apply_inv"})),
        "solvers.steps": len(steps),
        "solvers.step_s_p50": p50(steps),
        "solvers.step_s_hi": step_hi,
        "solvers.step_s_hi_pct": step_hi_pct,
        "solvers.residual_checks": len(residuals),
        "solvers.residual_s": sum(s.duration for s in residuals),
        "solvers.update_s": total("solvers.nesterov_update"),
        "gp.prior_s": total("gp.prior"),
        "gp.pathwise_s": total("gp.pathwise_sample"),
        "gp.cross_s": total("kernels.cross_matmul", {"gp.pathwise_sample"}),
        "data.load_csv_s": total("data.load_csv"),
        "data.split_s": total("data.train_test_split"),
        "dpp.sample_calls": len(samples),
        "dpp.sample_s": sum(s.duration for s in samples),
        "dpp.sample_s_p50": p50(samples),
        "dpp.projection_mc_s": total("dpp.expected_projection_mc"),
        "theory.trials": len(trials),
        "theory.trial_s_p50": p50(trials),
        "rng.substream_calls": len(named("rng.substream")),
        "rng.substream_s": total("rng.substream"),
        "trace.spans": len(spans),
        "trace.wall_s": wall_s,
        "trace.self_sum_s": sum(layer_self.values()),
        "trace.unattributed_s": wall_s - _union(roots),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


def write_spans(spans, path):
    """Write spans as CSV: name, start and end relative to the first span,
    parent row (-1 for a root) and a thread number."""
    spans = sorted(spans, key=lambda s: s.start)
    row = {id(s): i for i, s in enumerate(spans)}
    threads = {}
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as handle:
        handle.write("row,name,start_s,end_s,parent,thread\n")
        for i, s in enumerate(spans):
            parent = row[id(s.parent)] if s.parent is not None else -1
            thread = threads.setdefault(s.thread, len(threads))
            handle.write(f"{i},{s.name},{s.start - origin!r},{s.end - origin!r},"
                         f"{parent},{thread}\n")
