"""Joint acquisition and processing: scheduling, timelines, latency metrics.

A scalable run launches each scale's predictor as soon as its partition has
been acquired (and, under the fused schedules, as soon as the previous
scale's cumulative output exists).  When a scale completes, the
update cascade refines every lower scale before the cumulative output for
that scale is published.  The non-scalable baseline can only start once the
whole cloud is acquired.

One in-order loop does the label work in every mode: per scale the
predictor reads the previous cumulative output as its context and returns
the labels of the prefix through this scale as a new array; the cascade
refines its lower scales in place; the same array is published as the
cumulative output.  The schedules, ``MODES``, differ only in the timeline:

* ``"sim"``, ``"sim-unfused"`` and ``"sim-serial"``: the simulator derives
  the timeline in closed form from the partition sizes and the
  ``TimingModel``.  "sim" (unlimited workers) starts scale ``i`` at
  ``max(ready_i, avail_{i-1})``, "sim-unfused" drops the fusion dependency
  ``avail_{i-1}`` and "sim-serial" reads the acquisition end as ``ready_i``.
* ``"real"``, the only mode that reads a clock: the loop sleeps until each
  partition is acquired and records wall-clock instants on the calling
  thread, so scale ``i`` starts at ``max(ready_i, avail_{i-1})``.

Label outputs are bit-identical across all backends and timing parameters;
scheduling only ever affects the timeline.  So inside ``one_label_pass``
simulated runs over the same input make one label pass, and with it one
neighbor search per scale pair: a simulated sweep labels for its first
tick duration and reuses those outputs for the others.  Neighbors depend on
positions alone, so a run's unrefined pass votes through its refined
pass's context tables: a seeded-knn ``run`` searches each context once.
"""

from __future__ import annotations

import math
import operator
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields

from .assemble import CumulativeOutput, assemble
from .partition import PartitionSpec, partition
from .predictors import PredictorConfig, PredictorError, predict, predict_full
from .stream import PointStream
from .update import UpdateConfig, UpdateError, cascade_step

PARTITION_READY = "partition_ready"
SCALE_START = "scale_start"
SCALE_DONE = "scale_done"
REFINE_DONE = "refine_done"
CUMULATIVE_AVAILABLE = "cumulative_available"
_EVENT_KINDS = (PARTITION_READY, SCALE_START, SCALE_DONE, CUMULATIVE_AVAILABLE)

MODES = ("sim", "sim-unfused", "sim-serial", "real")


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class TimingModel:
    """Acquisition speed and stage-cost model.

    ``tick_duration`` converts stream ticks to seconds.  Stage costs are an
    affine function of point count.  The baseline's per-point cost carries a
    ``baseline_factor`` because the non-scalable reference runs one large
    model over the full cloud while the scales run small per-branch jobs.
    ``mode`` is the schedule, one of ``MODES``; only "real" reads a clock.
    All but "sim-unfused" start scale ``i`` no earlier than scale ``i-1``'s
    output, for predictors that consume it.  Labels never read ``mode``.
    """

    tick_duration: float = 1e-5
    predict_fixed: float = 0.005
    predict_per_point: float = 1e-5
    baseline_factor: float = 2.0
    refine_fixed: float = 0.001
    refine_per_point: float = 2e-7
    mode: str = "sim"

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise PipelineError(f"{f.name} must be finite, got "
                                    f"{getattr(self, f.name)}")
        if self.tick_duration <= 0:
            raise PipelineError("tick_duration must be positive")
        for v in (self.predict_fixed, self.predict_per_point,
                  self.baseline_factor, self.refine_fixed, self.refine_per_point):
            if v < 0:
                raise PipelineError("stage durations must be non-negative")
        if self.mode not in MODES:
            raise PipelineError(f"mode must be one of {MODES}")

    def predict_duration(self, n_points: int) -> float:
        """Synthetic duration of one scale's predictor job; a job over no
        points costs nothing."""
        if n_points == 0:
            return 0.0
        return self.predict_fixed + self.predict_per_point * n_points

    def baseline_duration(self, n_points: int) -> float:
        """Synthetic duration of the baseline's full-cloud prediction; an
        empty stream costs nothing."""
        if n_points == 0:
            return 0.0
        return (self.predict_fixed
                + self.baseline_factor * self.predict_per_point * n_points)

    def refine_duration(self, n_lower: int, n_upper: int) -> float:
        """Synthetic duration of one refinement; zero when either side is
        empty, because the cascade then passes the lower scale through."""
        if n_lower == 0 or n_upper == 0:
            return 0.0
        return self.refine_fixed + self.refine_per_point * (n_lower + n_upper)


@dataclass(frozen=True)
class TimelineEvent:
    kind: str
    scale: int
    instant: float             # seconds from scan start


def _is_number(v) -> bool:
    """Whether a value read from JSON is a number: an int or a float, never
    a bool (a Python int) or a string."""
    return type(v) in (int, float)


def _json_list(data: dict, key: str) -> list:
    """``data[key]``, once it is a JSON list."""
    if type(data[key]) is not list:
        raise TypeError(f"{key} is {data[key]!r}, not a list")
    return data[key]


def _checked(instant: float, what: str) -> float:
    try:
        finite = math.isfinite(instant)
    except OverflowError:  # an int past the largest float
        raise OverflowError(f"{what} is not a number a float can hold") from None
    if not finite:
        raise PipelineError(f"non-finite instant for {what}: {instant}")
    if instant < 0:
        raise PipelineError(f"negative instant for {what}: {instant}")
    return float(instant)


@dataclass
class Timeline:
    events: list[TimelineEvent] = field(default_factory=list, init=False)
    # every refinement's end instant, in execution order (arrival-major)
    refines: list[float] = field(default_factory=list, init=False)
    # (kind, scale) -> its event's instant; add events through ``add``
    _instants: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def add(self, kind: str, scale: int, instant: float):
        """Append an event of a known kind, which the timeline does not hold
        yet, at a finite, non-negative instant."""
        if kind not in _EVENT_KINDS:  # a kind read from JSON may hold a newline
            name = kind if str(kind).isprintable() else repr(kind)
            raise PipelineError(f"unknown event {name}({scale})")
        if (kind, scale) in self._instants:
            raise PipelineError(f"repeated event {kind}({scale})")
        self.events.append(TimelineEvent(kind, scale,
                                         _checked(instant, f"{kind}({scale})")))
        self._instants[kind, scale] = self.events[-1].instant

    def refine(self, instant: float):
        """Append the next refinement's finite, non-negative end instant."""
        self.refines.append(_checked(instant,
                                     f"{REFINE_DONE}[{len(self.refines)}]"))

    def instant(self, kind: str, scale: int) -> float:
        if (kind, scale) in self._instants:
            return self._instants[kind, scale]
        raise PipelineError(f"timeline has no {kind} event for scale {scale}")

    def scales(self) -> list[int]:
        return sorted({e.scale for e in self.events if e.kind == SCALE_START})

    def to_dict(self) -> dict:
        return {"events": [asdict(e) for e in self.events],
                REFINE_DONE: list(self.refines)}

    @classmethod
    def from_dict(cls, data: dict) -> "Timeline":
        """The timeline that ``to_dict`` gave ``data``."""
        tl = cls()
        for e in _json_list(data, "events"):
            scale, instant = e["scale"], e["instant"]
            if type(scale) is not int or not _is_number(instant):
                raise TypeError(f"{e!r} needs an integer scale and a numeric "
                                "instant")
            tl.add(e["kind"], scale, instant)
        for instant in _json_list(data, REFINE_DONE):
            if not _is_number(instant):
                raise TypeError(f"{REFINE_DONE} entry {instant!r} is not a number")
            tl.refine(instant)
        return tl


@dataclass(frozen=True)
class LatencyMetrics:
    """Post-acquisition latency bounds and derived ratios.

    ``post_acq_lower`` assumes every stage except the last scale's job and
    final cascade hides under acquisition; ``post_acq_upper`` is the serial
    sum of all stage durations (nothing hidden).  Any real run lands between
    the two.  ``speedup`` compares the run's own post-acquisition residual
    against the baseline's processing time; ``first_prediction_fraction`` is
    the instant of the first cumulative output over that same baseline time.
    """

    acquisition_end: float
    post_acq: float
    post_acq_lower: float
    post_acq_upper: float
    baseline_processing: float
    speedup: float
    first_prediction_fraction: float
    scale_available: tuple[float, ...]
    predict_durations: tuple[float, ...]
    refine_total: float


# What the innermost ``one_label_pass`` keeps, () until filled: "outputs",
# the first sim-mode pass's ((stream, spec, predictor_cfg, update_cfg), parts,
# outputs), and "tables", the first pass's ((stream, spec, predictor_cfg), tables).
_kept: ContextVar[dict | None] = ContextVar("_kept", default=None)


@contextmanager
def one_label_pass(tables: bool = False):
    """Label once for every simulated run of the block over the same input.

    Labels never depend on the timing.  Inside the block the first sim-mode
    ``run_scalable`` call keeps its partitions and outputs, and a later
    sim-mode call given the same ``stream``, ``spec``, ``predictor_cfg``
    and ``update_cfg`` objects returns those outputs, in a new list, with
    its own simulated timeline.  The calls share the outputs, so each kept
    ``pred_labels`` array is made read-only.  Real calls neither read nor
    fill the outputs: their timeline times the label work.  With ``tables``
    the block's first call, real or not, keeps its predictor tables, and a
    later sim-mode call given the same ``stream``, ``spec`` and
    ``predictor_cfg``, refining or not, votes through them, searching no
    context.  Nothing is kept after the block.
    """
    token = _kept.set({"outputs": (), "tables": () if tables else None})
    try:
        yield
    finally:
        _kept.reset(token)


def run_scalable(stream: PointStream, spec: PartitionSpec,
                 predictor_cfg: PredictorConfig,
                 update_cfg: UpdateConfig | None,
                 timing: TimingModel,
                 ) -> tuple[list[CumulativeOutput], Timeline]:
    """Execute the resolution-scalable pipeline over a stream.

    Returns one cumulative output per scale plus the event timeline.
    ``update_cfg=None`` disables the refinement cascade (predictions keep
    their original labels, as in a pipeline without an update module).
    A predictor or update failure is re-raised as a ``PipelineError`` that
    names the scale.  Inside ``one_label_pass`` a sim-mode call may reuse
    an earlier call's outputs or predictor tables.
    """
    if predictor_cfg.variant == "seeded-knn" and timing.mode == "sim-unfused":
        raise PipelineError(
            "seeded-knn consumes previous-scale context; it needs the fusion "
            "dependency that mode='sim-unfused' drops")
    real = timing.mode == "real"
    ready = [cut * timing.tick_duration for cut in spec.cuts]
    key = (stream, spec, predictor_cfg, update_cfg)
    kept = _kept.get() or {}

    def kept_for(name):  # whether the scope kept ``name`` for these objects
        return bool(kept.get(name)) and all(map(operator.is_, kept[name][0], key))

    if not real and kept_for("outputs"):
        _, parts, outputs = kept["outputs"]
        return list(outputs), _sim_timeline([len(p) for p in parts], ready,
                                            timing, update_cfg is not None)
    context_tables = None  # each scale's search is dropped, unless kept
    if kept.get("tables") == ():  # the scope's first pass keeps them
        kept["tables"] = (key[:3], context_tables := [])
    elif not real and kept_for("tables"):
        context_tables = kept["tables"][1]
    parts = partition(stream, spec)
    if real:  # the clock's zero comes after partitioning
        tl, base = Timeline(), time.monotonic()
        for i, r in enumerate(ready, start=1):
            tl.add(PARTITION_READY, i, r)

    def clock(kind: str, scale: int):
        # real mode: record the wall instant of an event of ``scale`` once
        # its partition is acquired (only a start still has to wait for it)
        while real and (now := time.monotonic() - base) < ready[scale - 1]:
            time.sleep(ready[scale - 1] - now)
        if real and kind == REFINE_DONE:
            tl.refine(now)
        elif real:
            tl.add(kind, scale, now)

    outputs: list[CumulativeOutput] = []
    tables: list = []  # each scale pair's neighbor table, searched once per pass
    for i, part in enumerate(parts, start=1):
        clock(SCALE_START, i)
        try:
            # the labels of scales 1..i, published below as output i
            _, labels = predict(part, outputs[-1] if outputs else None,
                                predictor_cfg, stream.class_count,
                                context_tables)
            clock(SCALE_DONE, i)
            if update_cfg is not None:
                cascade_step(parts[:i - 1], part, labels, update_cfg, tables,
                             (lambda j: clock(REFINE_DONE, j)) if real else None)
        except (PredictorError, UpdateError) as exc:
            raise PipelineError(f"scale {i}: {exc}") from exc
        outputs.append(assemble(stream, parts[:i], labels))
        clock(CUMULATIVE_AVAILABLE, i)
    if real:
        return outputs, tl
    if kept.get("outputs") == ():  # the scope's first sim-mode pass
        for o in outputs:
            o.pred_labels.flags.writeable = False
        kept["outputs"] = key, parts, list(outputs)
    return outputs, _sim_timeline([len(p) for p in parts], ready, timing,
                                 refining=update_cfg is not None)


def _sim_timeline(counts: list[int], ready: list[float], timing: TimingModel,
                 refining: bool) -> Timeline:
    """The simulated schedule, from partition sizes and ready instants alone.

    Scale ``i`` starts at ``max(ready_i, avail_{i-1})``, reading the
    acquisition end as ``ready_i`` when serial and 0 as ``avail_{i-1}`` when
    unfused; its cascade starts at ``max(done_i, avail_{i-1})``.  The
    arrival of scale ``i`` refines scales ``i-1, ..., 1`` in that order;
    refining scale ``j`` votes its ``counts[j-1]`` points against the
    ``counts[j]`` points of scale ``j+1``.
    """
    tl = Timeline()
    for i, r in enumerate(ready, start=1):
        tl.add(PARTITION_READY, i, r)
    serial, fused = timing.mode == "sim-serial", timing.mode != "sim-unfused"
    prev_avail = 0.0
    for i, count in enumerate(counts, start=1):
        start = max(ready[-1] if serial else ready[i - 1],
                    prev_avail if fused else 0.0)
        done = start + timing.predict_duration(count)
        tl.add(SCALE_START, i, start)
        tl.add(SCALE_DONE, i, done)
        t = max(done, prev_avail)
        if refining:
            for j in range(i - 1, 0, -1):
                t += timing.refine_duration(counts[j - 1], counts[j])
                tl.refine(t)
        tl.add(CUMULATIVE_AVAILABLE, i, t)
        prev_avail = t
    return tl


def baseline_timeline(stream: PointStream, timing: TimingModel,
                      duration: float) -> tuple[float, float]:
    """The baseline's ``(start, done)`` instants: it starts at the
    acquisition end (max timestamp times tick duration), or at 0 for an
    empty stream, and runs for ``duration``.  A simulated baseline needs no
    labels for it: ``timing.baseline_duration(len(stream))`` is its duration."""
    start = max(stream.max_timestamp, 0) * timing.tick_duration
    return (_checked(start, "baseline_start"),
            _checked(start + duration, "baseline_done"))


def run_baseline(stream: PointStream, predictor_cfg: PredictorConfig,
                 timing: TimingModel) -> tuple[CumulativeOutput, tuple[float, float]]:
    """Non-scalable reference: wait for the full cloud, predict once.

    Under ``real`` the baseline's duration is the wall-clock time of the
    full-cloud prediction, otherwise the synthetic cost model's value; see
    ``baseline_timeline`` for its schedule.  An empty stream completes
    immediately.  A predictor failure is re-raised as a ``PipelineError``.
    """
    t0 = time.perf_counter() if timing.mode == "real" else None
    try:
        labels = predict_full(stream.positions, stream.labels, predictor_cfg,
                              stream.class_count)
    except (PredictorError, UpdateError) as exc:
        raise PipelineError(f"baseline: {exc}") from exc
    if t0 is not None and len(stream):
        duration = time.perf_counter() - t0
    else:
        duration = timing.baseline_duration(len(stream))

    output = CumulativeOutput(
        scale=1,
        positions=stream.positions,
        pred_labels=labels,
        gt_labels=stream.labels,
        bounds=(0, len(stream)),
        timestamps=stream.timestamps,
        class_count=stream.class_count,
    )
    return output, baseline_timeline(stream, timing, duration)


def refine_intervals(tl: Timeline) -> dict[int, list[tuple[float, float]]]:
    """Each arrival's refine jobs as ``(start, end)`` pairs, in run order.

    Arrival ``a`` owns the ``a-1`` instants of ``tl.refines`` from offset
    ``(a-1)(a-2)/2``.  Its cascade starts once scale ``a`` is predicted and
    the previous cumulative output is available; each later refine starts
    where the one before it ended.
    """
    k, ends = len(tl.scales()), tl.refines
    if len(ends) not in (0, k * (k - 1) // 2):
        raise PipelineError(f"{len(ends)} {REFINE_DONE} instants for {k} "
                            f"scales, which refine 0 or {k * (k - 1) // 2} times")
    intervals = {}
    for a in range(2, k + 1):
        own = ends[(a - 1) * (a - 2) // 2:a * (a - 1) // 2]
        first = max(tl.instant(SCALE_DONE, a),
                    tl.instant(CUMULATIVE_AVAILABLE, a - 1))
        intervals[a] = list(zip([first, *own[:-1]], own))
    return intervals


def latency_metrics(scalable: Timeline,
                    baseline: tuple[float, float]) -> LatencyMetrics:
    """Derive the latency report from a timeline and the baseline's instants."""
    scales = scalable.scales()
    if not scales:
        raise PipelineError("scalable timeline contains no scale events")
    K = scales[-1]
    if scales != list(range(1, len(scales) + 1)):
        raise PipelineError(f"timeline is missing scales: found {scales}")
    try:
        ready = {i: scalable.instant(PARTITION_READY, i) for i in scales}
        start = {i: scalable.instant(SCALE_START, i) for i in scales}
        done = {i: scalable.instant(SCALE_DONE, i) for i in scales}
        avail = {i: scalable.instant(CUMULATIVE_AVAILABLE, i) for i in scales}
    except PipelineError as exc:
        raise PipelineError(f"incomplete timeline: {exc}") from exc
    b_start, b_done = baseline
    if b_done < b_start:
        raise PipelineError(f"baseline_done {b_done} is before baseline_start "
                            f"{b_start}")

    pd = tuple(done[i] - start[i] for i in scales)
    refines = {a: [end - begin for begin, end in pairs]
               for a, pairs in refine_intervals(scalable).items()}
    refine_total = sum(sum(v) for v in refines.values())
    acq_end = ready[K]
    post_acq = avail[K] - acq_end
    lower = pd[K - 1] + sum(refines.get(K, []))
    upper = sum(pd) + refine_total
    baseline_processing = b_done - b_start
    if baseline_processing > 0:
        speedup = 1.0 - post_acq / baseline_processing
        first_fraction = avail[1] / baseline_processing
    elif post_acq == 0.0:
        speedup = 0.0
        first_fraction = 0.0
    else:
        raise PipelineError("baseline processing time is zero but the "
                            "scalable run has nonzero residual latency")
    lat = LatencyMetrics(
        acquisition_end=acq_end,
        post_acq=post_acq,
        post_acq_lower=lower,
        post_acq_upper=upper,
        baseline_processing=baseline_processing,
        speedup=speedup,
        first_prediction_fraction=first_fraction,
        scale_available=tuple(avail[i] for i in scales),
        predict_durations=pd,
        refine_total=refine_total,
    )
    for f in fields(lat):
        if f.type == "float" and not math.isfinite(getattr(lat, f.name)):
            raise PipelineError(f"latency {f.name} is not finite: "
                                f"{getattr(lat, f.name)}")
    return lat
