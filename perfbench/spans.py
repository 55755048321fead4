"""Span recorder for the traced run, and the per-layer metrics it yields.

Every public name a layer boundary crosses is wrapped in each module that
imports it, because the modules bind names at import time.  A span records
its name, start, end, thread and parent, the parent taken from a per-thread
stack of open spans.  A span opened on a thread with no open span (a
real-mode scale worker) takes the innermost open span of the thread that
installed the recorder as its parent, which is the ``run_scalable`` call
that started the worker.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import pathlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (module, attribute, span name).  The span name is ``<layer>.<function>``
#: with the layer being the module that defines the function.
WRAPPED = (
    ("cli", "scan", "scanner.scan"),
    ("cli", "place_cameras", "scanner.place_cameras"),
    ("cli", "read_stream", "stream.read_stream"),
    ("cli", "make_seed_cloud", "predictors.make_seed_cloud"),
    ("cli", "run_scalable", "pipeline.run_scalable"),
    ("cli", "run_baseline", "pipeline.run_baseline"),
    ("cli", "latency_metrics", "metrics.latency_metrics"),
    ("cli", "miou", "metrics.miou"),
    ("cli", "coverage_curve", "metrics.coverage_curve"),
    ("cli", "cumulative_csv", "assemble.cumulative_csv"),
    ("cli", "miou_plot", "plots.miou_plot"),
    ("cli", "timeline_plot", "plots.timeline_plot"),
    ("pipeline", "partition", "partition.partition"),
    ("pipeline", "predict", "predictors.predict"),
    ("pipeline", "predict_full", "predictors.predict_full"),
    ("pipeline", "cascade_step", "update.cascade_step"),
    ("pipeline", "assemble", "assemble.assemble"),
    ("update", "knn_batch", "update.knn_batch"),
    ("predictors", "knn_batch", "predictors.knn_batch"),
)
#: Every file the CLI writes goes through ``Path.write_text``.
WRITE_SPAN = "cli.write_text"
JOB_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    #: Counts taken at the boundary: points, rows, bytes, cloud identities.
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one recorder per traced job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.threads_started = 0
        self._home = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if tid != self._home and home else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               thread=tid))
        idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()
        return span


def _array_key(a) -> tuple:
    """Identity of a cloud: its buffer address and shape.

    Partitions are views of the stream, so the same scale pair searched
    again (as in every run of a sweep) yields the same key.
    """
    iface = a.__array_interface__
    return (iface["data"][0], tuple(iface["shape"]))


def _note(span: Span, name: str, args: tuple, result) -> None:
    """Boundary counts; runs after the span has closed."""
    if name.endswith(".knn_batch"):
        q, ref = args[0], args[1]
        span.info["query"] = len(q)
        span.info["reference"] = len(ref)
        span.info["pair"] = (_array_key(q), _array_key(ref))
    elif name == "scanner.scan":
        span.info["points"] = len(result)
    elif name == "predictors.predict":
        span.info["context_rows"] = len(result[1])
    elif name == "update.cascade_step":
        span.info["arrived"] = args[1].scale
    elif name == "assemble.assemble":
        span.info["rows"] = len(result)
    elif name == "assemble.cumulative_csv":
        span.info["rows"] = len(args[0])
    elif name == "pipeline.run_scalable":
        span.info["outputs"], span.info["timeline"] = result
    elif name == WRITE_SPAN:
        span.info["bytes"] = result  # characters; every output is ASCII


def _wrap(rec: Recorder, fn, name: str):
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = rec.close(idx)
        _note(span, name, args, result)
        return result
    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(rec: Recorder, modules: dict, missing: list):
    """Wrap every name in :data:`WRAPPED` for the duration of the block.

    ``modules`` maps the short module names to the imported modules.  A
    name that does not exist is appended to ``missing`` and left alone.
    """
    saved = []
    for mod_name, attr, span_name in WRAPPED:
        mod = modules[mod_name]
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        saved.append((mod, attr, fn))
        setattr(mod, attr, _wrap(rec, fn, span_name))
    write_text = pathlib.Path.write_text
    thread_start = threading.Thread.start
    pathlib.Path.write_text = _wrap(rec, write_text, WRITE_SPAN)

    def counted_start(thread):
        rec.threads_started += 1
        return thread_start(thread)

    threading.Thread.start = counted_start
    try:
        yield rec
    finally:
        threading.Thread.start = thread_start
        pathlib.Path.write_text = write_text
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> tuple[list[float], list[str]]:
    """Each span's duration minus the part of it its children cover.

    Also returns one message per span whose children's durations sum to more
    than its own duration (allowing 1 µs of clock granularity).
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    selfs, problems = [], []
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        selfs.append(s.duration - _covered([(k.start, k.end) for k in kids],
                                           s.start, s.end))
        child_sum = sum(k.duration for k in kids)
        if child_sum > s.duration + 1e-6:
            problems.append(f"{s.name}: children sum {child_sum:.6f} s "
                            f"exceeds its {s.duration:.6f} s")
    return selfs, problems


#: name -> unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "scanner.scan_s": "s",
    "scanner.place_cameras_s": "s",
    "scanner.points": "count",
    "stream.read_s": "s",
    "partition.partition_s": "s",
    "predictors.predict_s": "s",
    "predictors.predict_calls": "count",
    "predictors.predict_full_s": "s",
    "predictors.seed_cloud_s": "s",
    "predictors.knn_s": "s",
    "predictors.knn_calls": "count",
    "predictors.knn_query_points": "count",
    "predictors.knn_reference_points": "count",
    "predictors.context_rows": "count",
    "update.cascade_step_s": "s",
    "update.refines": "count",
    "update.knn_s": "s",
    "update.knn_calls": "count",
    "update.knn_query_points": "count",
    "update.knn_reference_points": "count",
    "update.vote_s": "s",
    "update.distinct_search_ratio": "ratio",
    "update.final_cascade_s": "s",
    "pipeline.run_scalable_s": "s",
    "pipeline.run_scalable_calls": "count",
    "pipeline.run_baseline_s": "s",
    "pipeline.self_s": "s",
    "pipeline.wait_s": "s",
    "pipeline.threads_started": "count",
    "assemble.assemble_s": "s",
    "assemble.rows": "count",
    "assemble.csv_s": "s",
    "assemble.csv_rows": "count",
    "metrics.miou_s": "s",
    "metrics.coverage_s": "s",
    "metrics.latency_s": "s",
    "plots.svg_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "B",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
}


def job_metrics(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced job (every metric but the two the
    caller supplies: ``cli.cpu_s`` and ``trace.overhead_ratio``)."""
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def total(name, key=None):
        idx = by.get(name, [])
        if key is None:
            return sum(spans[i].duration for i in idx)
        return sum(spans[i].info[key] for i in idx)

    def count(name):
        return len(by.get(name, []))

    upd = by.get("update.knn_batch", [])
    pairs = {spans[i].info["pair"] for i in upd}
    steps = [spans[i] for i in by.get("update.cascade_step", [])]
    top = max((s.info["arrived"] for s in steps), default=0)
    runs = [spans[i] for i in by.get("pipeline.run_scalable", [])]
    wait = 0.0
    for r in runs:
        events = r.info["timeline"].events
        ready = {e.scale: e.instant for e in events if e.kind == "partition_ready"}
        wait += sum(e.instant - ready[e.scale] for e in events
                    if e.kind == "scale_start")
    job = by[JOB_SPAN][0]
    return {
        "scanner.scan_s": total("scanner.scan"),
        "scanner.place_cameras_s": total("scanner.place_cameras"),
        "scanner.points": total("scanner.scan", "points"),
        "stream.read_s": total("stream.read_stream"),
        "partition.partition_s": total("partition.partition"),
        "predictors.predict_s": total("predictors.predict"),
        "predictors.predict_calls": count("predictors.predict"),
        "predictors.predict_full_s": total("predictors.predict_full"),
        "predictors.seed_cloud_s": total("predictors.make_seed_cloud"),
        "predictors.knn_s": total("predictors.knn_batch"),
        "predictors.knn_calls": count("predictors.knn_batch"),
        "predictors.knn_query_points": total("predictors.knn_batch", "query"),
        "predictors.knn_reference_points": total("predictors.knn_batch", "reference"),
        "predictors.context_rows": total("predictors.predict", "context_rows"),
        "update.cascade_step_s": total("update.cascade_step"),
        "update.refines": sum(max(s.info["arrived"] - 1, 0) for s in steps),
        "update.knn_s": total("update.knn_batch"),
        "update.knn_calls": len(upd),
        "update.knn_query_points": total("update.knn_batch", "query"),
        "update.knn_reference_points": total("update.knn_batch", "reference"),
        "update.vote_s": total("update.cascade_step") - total("update.knn_batch"),
        "update.distinct_search_ratio": len(pairs) / len(upd) if upd else 0.0,
        "update.final_cascade_s": sum(s.duration for s in steps
                                      if s.info["arrived"] == top),
        "pipeline.run_scalable_s": total("pipeline.run_scalable"),
        "pipeline.run_scalable_calls": len(runs),
        "pipeline.run_baseline_s": total("pipeline.run_baseline"),
        "pipeline.self_s": sum(selfs[i] for i in by.get("pipeline.run_scalable", [])),
        "pipeline.wait_s": wait,
        "assemble.assemble_s": total("assemble.assemble"),
        "assemble.rows": total("assemble.assemble", "rows"),
        "assemble.csv_s": total("assemble.cumulative_csv"),
        "assemble.csv_rows": total("assemble.cumulative_csv", "rows"),
        "metrics.miou_s": total("metrics.miou"),
        "metrics.coverage_s": total("metrics.coverage_curve"),
        "metrics.latency_s": total("metrics.latency_metrics"),
        "plots.svg_s": total("plots.miou_plot") + total("plots.timeline_plot"),
        "cli.write_s": total(WRITE_SPAN),
        "cli.output_bytes": total(WRITE_SPAN, "bytes"),
        "cli.self_s": selfs[job],
    }


def zero_call_names(spans: list[Span]) -> list[str]:
    """Wrapped names that recorded no call in this job."""
    seen = {s.name for s in spans}
    return [name for _, _, name in WRAPPED if name not in seen]


def to_records(spans: list[Span], job: int) -> list[dict]:
    """JSON-ready spans (the large objects noted for checks are dropped)."""
    out = []
    for i, s in enumerate(spans):
        info = {k: v for k, v in s.info.items()
                if k in ("query", "reference", "points", "context_rows",
                         "arrived", "rows", "bytes")}
        out.append({"job": job, "id": i, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "thread": s.thread,
                    **info})
    return out
