"""Span recording for the traced benchmark run, and the per-layer numbers.

The child process of a traced repetition calls :func:`install`, which
replaces the package's public functions at the module globals where the
callers look them up (``cli.run_scenario``, ``scenario.sample_batch``, ...)
with wrappers that record one span per call: name, start, end, parent span,
thread id, the rise of ``ru_maxrss`` across the call, and work counts
computed from the call's arguments and result. No program file changes.

Each thread keeps its own span stack. A thread whose stack is empty (a
sweep worker) takes the innermost open span of the main thread as its
parent, which is where the pool that runs it was started.

The parent process reads the spans back and turns them into per-layer
metrics with :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import resource
import sys
import threading
import time
from collections import defaultdict


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them as JSON lines."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counts=None):
        """Return ``fn`` recording a span per call; ``counts(args, result)``
        adds work counts computed from the bound arguments and the result."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            rss_before = _maxrss_kb()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rss_after = _maxrss_kb()
                stack.pop()
            span = {"id": span_id, "name": name, "parent": parent,
                    "thread": threading.get_ident(), "start": start, "end": end,
                    "rss_growth_kb": rss_after - rss_before}
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counts(bound.arguments, result))
            self.spans.append(span)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Work counts, labelled "computed": they come from argument and result
# sizes, not from hardware counters.

def _sample_counts(args, batch):
    # standard-normal draws, their product with the covariance factor and
    # the output batch: three n x 4 float64 arrays
    return {"events": batch.n, "bytes_computed": 3 * batch.data.nbytes}


def _synth_counts(args, record):
    return {"samples": int(record.channels.size)}


def _demod_counts(args, batch):
    return {"points_out": batch.n}


def _select_counts(args, result):
    return {"rows_in": args["batch"].n, "kept": result.kept_count,
            "finite_window": math.isfinite(args["cfg"].bandwidth_delta)}


def _bootstrap_counts(args, interval):
    n = int(len(args["values"]))
    resamples = int(args["resamples"])
    return {"n": n, "resamples": resamples, "values_resampled": n * resamples}


# (module, global, span name, counts): the name is the layer that owns the
# function, the module is where its caller looks it up
WRAP_POINTS = (
    ("twinbeam_transfer.cli", "run_scenario", "scenario.run_scenario", None),
    ("twinbeam_transfer.cli", "run_sweep", "scenario.run_sweep", None),
    ("twinbeam_transfer.scenario", "sample_batch", "model.sample_batch", _sample_counts),
    ("twinbeam_transfer.scenario", "synthesize", "dsp_chain.synthesize", _synth_counts),
    ("twinbeam_transfer.scenario", "demodulate", "dsp_chain.demodulate", _demod_counts),
    ("twinbeam_transfer.scenario", "select", "selection.select", _select_counts),
    ("twinbeam_transfer.scenario", "conditional_statistics",
     "selection.conditional_statistics", None),
    ("twinbeam_transfer.scenario", "predict_transfer", "oracle.predict_transfer", None),
    ("twinbeam_transfer.scenario", "histogram", "stats.histogram", None),
    ("twinbeam_transfer.selection", "bootstrap_ci", "stats.bootstrap_ci", _bootstrap_counts),
)


def install(tracer: Tracer) -> None:
    """Wrap every wrap point that exists; report the ones that do not."""
    for module_name, attr, span_name, counts in WRAP_POINTS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {module_name}.{attr} not found; {span_name} not traced",
                  file=sys.stderr)
            continue
        setattr(module, attr, tracer.wrap(span_name, fn, counts))


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(span: dict, children: list[dict]) -> float:
    """Length of the part of ``span`` that the union of its children covers."""
    intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                       for c in children)
    covered, cursor = 0.0, -math.inf
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``<name>.s`` sums the inclusive durations of the spans with that name
    (across threads, so it can exceed the wall time); ``self_s`` is the
    span time not covered by child spans.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        children[span["parent"]].append(span)

    def seconds(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(*names):
        return sum(s["end"] - s["start"] - _covered(s, children[s["id"]])
                   for name in names for s in by_name[name])

    def total(name, key, finite_window_only=False):
        return sum(s.get(key, 0) for s in by_name[name]
                   if s.get("finite_window", True) or not finite_window_only)

    sample_s = seconds("model.sample_batch")
    events = total("model.sample_batch", "events")
    cond_rows = total("selection.select", "rows_in", finite_window_only=True)
    return {
        "model.sample_batch.s": sample_s,
        "model.sample_batch.events": events,
        "model.sample_batch.ns_per_event": 1e9 * sample_s / events if events else 0.0,
        "model.sample_batch.bytes_computed": total("model.sample_batch", "bytes_computed"),
        "dsp_chain.synthesize.s": seconds("dsp_chain.synthesize"),
        "dsp_chain.synthesize.samples": total("dsp_chain.synthesize", "samples"),
        "dsp_chain.synthesize.rss_growth_mb":
            total("dsp_chain.synthesize", "rss_growth_kb") / 1024.0,
        "dsp_chain.demodulate.s": seconds("dsp_chain.demodulate"),
        "dsp_chain.demodulate.points_out": total("dsp_chain.demodulate", "points_out"),
        "dsp_chain.demodulate.rss_growth_mb":
            total("dsp_chain.demodulate", "rss_growth_kb") / 1024.0,
        "stats.bootstrap_ci.s": seconds("stats.bootstrap_ci"),
        "stats.bootstrap_ci.calls": len(by_name["stats.bootstrap_ci"]),
        "stats.bootstrap_ci.values_resampled":
            total("stats.bootstrap_ci", "values_resampled"),
        "stats.histogram.s": seconds("stats.histogram"),
        "selection.select.s": seconds("selection.select"),
        "selection.select.rows_in": total("selection.select", "rows_in"),
        "selection.select.kept": total("selection.select", "kept"),
        "selection.keep_ratio":
            total("selection.select", "kept", True) / cond_rows if cond_rows else 0.0,
        "selection.conditional_statistics.self_s":
            self_s("selection.conditional_statistics"),
        "oracle.predict_transfer.s": seconds("oracle.predict_transfer"),
        "scenario.self_s": self_s("scenario.run_scenario", "scenario.run_sweep"),
        "cli.self_s": self_s("cli.main"),
    }
