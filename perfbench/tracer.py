"""Outside-in tracer for fracsde: spans around calls into each layer.

The tracer changes no program file.  It replaces a function by a
wrapper in every ``fracsde`` module that holds it (``hermite_all`` is
patched in ``fracsde.chaos``, where the chaos sum looks it up), and wraps
``RngStreamSpec.generator`` so that each generator comes back inside a
counting proxy.  Spans stay in memory; ``Tracer.dump`` writes them out.

A span is a dict with ``id``, ``name``, ``start``, ``end``, ``parent``,
``thread`` and ``run``, plus counts recorded at the same boundary
(``normals``, ``replicas``, ``threads``, ``bytes``, ``peak_alloc_mb``).
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs wrapped in a traced run; the span name is the
# module's last component and the function name, e.g. "chaos.chaos_sum_1d".
LAYER_FUNCTIONS = (
    ("fracsde.special", "hermite_all"),
    ("fracsde.special", "h0_array"),
    ("fracsde.special", "calibrate_d_alpha"),
    ("fracsde.quad", "integrate_graded"),
    ("fracsde.fields", "factor_covariance"),
    ("fracsde.fields", "sample_fbm_batch"),
    ("fracsde.fields", "sample_sheet_batch"),
    ("fracsde.chaos", "chaos_sum_1d"),
    ("fracsde.chaos", "exact_solution_1d"),
    ("fracsde.chaos", "wick_euler_paths"),
    ("fracsde.chaos", "solve_sheet_chaos_batch"),
    ("fracsde.operators", "rkhs_norm_sq_separable"),
    ("fracsde.operators", "kinv_norm_sq_discrete"),
    ("fracsde.operators", "kstar_indicator_norm_sq"),
    ("fracsde.operators", "kinv_apply_F"),
    ("fracsde.experiments", "cmd_exact_vs_chaos"),
    ("fracsde.experiments", "cmd_euler_study"),
    ("fracsde.experiments", "cmd_negativity"),
    ("fracsde.experiments", "cmd_girsanov_check"),
    ("fracsde.experiments", "cmd_operator_check"),
    ("fracsde.experiments", "cmd_simulate"),
)

MAP_SPAN = "experiments._map_chunks"
CHUNK_SPAN = "experiments.chunk"
DRAW_SPAN = "model.rng.draw"
WRITE_SPAN = "cli.write"


def patch_everywhere(original, replacement) -> None:
    """Point every reference to ``original`` in a fracsde module at ``replacement``.

    Module attributes and the values of module-level dicts (the CLI's
    command table) are both searched.
    """
    for name, module in list(sys.modules.items()):
        if not (name == "fracsde" or name.startswith("fracsde.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record one span; the yielded dict takes counts made inside it.

        ``parent`` defaults to the innermost open span of this thread; pass
        it explicitly for work handed to another thread.
        """
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        rec = {
            "id": span_id,
            "name": name,
            "parent": parent if parent is not None else (stack[-1] if stack else None),
            "thread": threading.get_ident(),
            "run": self.run_id,
            **attrs,
        }
        stack.append(span_id)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- hooks --------------------------------------------------------------

    def install_map_clock(self, chunks: bool) -> None:
        """Span every chunk map; with ``chunks``, every chunk inside it too."""
        import fracsde.experiments as ex

        original = ex._map_chunks
        tracer = self

        def map_chunks(work, total, threads):
            with tracer.span(MAP_SPAN, replicas=int(total), threads=int(threads)) as rec:
                if chunks:
                    map_id = rec["id"]
                    inner = work

                    def work(idx, count):
                        with tracer.span(CHUNK_SPAN, parent=map_id, replicas=int(count)):
                            return inner(idx, count)

                return original(work, total, threads)

        patch_everywhere(original, map_chunks)

    def install_layers(self) -> None:
        """Wrap every layer function, the generator, the sheet solver's
        allocation peak and the report writer."""
        import importlib

        import fracsde.cli as cli
        from fracsde.model import RngStreamSpec

        for module_name, fn_name in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, fn_name)
            name = f"{module_name.rsplit('.', 1)[1]}.{fn_name}"
            if fn_name == "solve_sheet_chaos_batch":
                wrapper = self._wrap_peak_alloc(name, original)
            else:
                wrapper = self.wrap(name, original)
            patch_everywhere(original, wrapper)

        tracer = self
        make_generator = RngStreamSpec.generator

        def generator(spec):
            return CountingGenerator(make_generator(spec), tracer)

        RngStreamSpec.generator = generator

        write = cli._write_outputs

        def write_outputs(report, out_dir):
            with tracer.span(WRITE_SPAN) as rec:
                write(report, out_dir)
                rec["bytes"] = sum(p.stat().st_size for p in Path(out_dir).iterdir())

        patch_everywhere(write, write_outputs)

    def _wrap_peak_alloc(self, name: str, fn):
        # tracemalloc runs only inside this call, and numpy reports its
        # buffers to it, so the peak is the most memory the call held at
        # once.  Calls must not overlap in time; the workload that runs this
        # function (negativity) uses one thread.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class CountingGenerator:
    """Proxy around ``numpy.random.Generator`` that spans each normal draw.

    It forwards every call unchanged, so the draws and the program's
    outputs are the same as without it.
    """

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span(DRAW_SPAN) as rec:
            out = self._generator.standard_normal(*args, **kwargs)
            rec["normals"] = int(getattr(out, "size", 1))
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


# -- derived numbers -----------------------------------------------------------

def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover.

    Children running in other threads (the chunks of a threaded map)
    overlap each other; only the union of their intervals is taken off.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        clipped = [(max(a, lo), min(b, hi)) for a, b in children[s["id"]] if b > lo and a < hi]
        out[s["id"]] = (hi - lo) - covered_length(clipped)
    return out


def _outermost(spans, name: str) -> list[dict]:
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def _busy(spans, name: str) -> float:
    return sum(s["end"] - s["start"] for s in _outermost(spans, name))


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans, calibration_hits: int, calibration_misses: int) -> dict[str, float]:
    """Per-layer numbers of one traced workload process.

    Times summed over threads, so in a threaded map they can exceed the
    map's wall time.  ``busy_s`` counts only a function's outermost spans.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    names = {s["name"] for s in spans} | {
        f"{m.rsplit('.', 1)[1]}.{f}" for m, f in LAYER_FUNCTIONS
    }
    for name in sorted(names):
        out[f"{name}.busy_s"] = _busy(spans, name)
        out[f"{name}.self_s"] = sum(selfs[s["id"]] for s in spans if s["name"] == name)
        out[f"{name}.calls"] = sum(1 for s in spans if s["name"] == name)

    draws = [s for s in spans if s["name"] == DRAW_SPAN]
    out["model.rng.normals"] = sum(s["normals"] for s in draws)
    out["model.rng.draw_s"] = sum(s["end"] - s["start"] for s in draws)

    maps = [s for s in spans if s["name"] == MAP_SPAN]
    chunk_ms = sorted(1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == CHUNK_SPAN)
    map_capacity = sum(s["threads"] * (s["end"] - s["start"]) for s in maps)
    out["experiments.chunks"] = len(chunk_ms)
    out["experiments.chunk_p50_ms"] = _quantile(chunk_ms, 0.5)
    out["experiments.chunk_p90_ms"] = _quantile(chunk_ms, 0.9)
    out["experiments.map_s"] = sum(s["end"] - s["start"] for s in maps)
    out["experiments.self_s"] = sum(
        selfs[s["id"]] for s in spans if s["name"].startswith("experiments.")
    )
    out["experiments.worker_busy_share"] = (
        sum(chunk_ms) / 1e3 / map_capacity if map_capacity > 0 else 0.0
    )

    peaks = [s["peak_alloc_mb"] for s in spans if "peak_alloc_mb" in s]
    out["chaos.solve_sheet_chaos_batch.peak_alloc_mb"] = max(peaks, default=0.0)

    lookups = calibration_hits + calibration_misses
    out["special.calibrate_d_alpha.cache_hit_share"] = (
        calibration_hits / lookups if lookups else 0.0
    )

    writes = [s for s in spans if s["name"] == WRITE_SPAN]
    out["cli.write_s"] = sum(s["end"] - s["start"] for s in writes)
    out["cli.bytes_written"] = sum(s["bytes"] for s in writes)
    return out
