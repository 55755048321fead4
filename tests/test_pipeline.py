import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalestream.pipeline as pipeline
import scalestream.predictors as predictors
import scalestream.update as update
from scalestream import (DEFAULT_CUTS, PartitionSpec, PipelineError, PointStream,
                         PredictorConfig, PredictorError, TimingModel,
                         UpdateConfig, UpdateError,
                         latency_metrics, make_seed_cloud, run_baseline,
                         run_scalable)
from scalestream.pipeline import (_EVENT_KINDS as EVENT_KINDS,
                                  CUMULATIVE_AVAILABLE, MODES, SCALE_DONE,
                                  SCALE_START, Timeline, baseline_timeline,
                                  refine_intervals)
from scalestream.plots import timeline_plot

from conftest import make_counted_stream, make_random_stream, random_schedule

RATES = (0.4, 0.3, 0.2, 0.12, 0.05)


def small_stream(seed=0, n=800, t_max=1000):
    return make_random_stream(np.random.default_rng(seed), n, class_count=5,
                              t_max=t_max)


SPEC = PartitionSpec((200, 400, 600, 800, 1000))


def test_closed_form_timeline_slow_acquisition():
    """Hand-computed schedule: cuts at ticks 10/20/30 with one-second ticks,
    scales of 192/128/64 points at 2 s + 1/64 s per point (predicts of
    5/4/3 s), every refine 2 s, fusion on, full overlap."""
    spec = PartitionSpec((10, 20, 30))
    stream = make_counted_stream(np.random.default_rng(1), (192, 128, 64),
                                 spec.cuts)
    timing = TimingModel(tick_duration=1.0, predict_fixed=2.0,
                         predict_per_point=2**-6, refine_fixed=2.0,
                         refine_per_point=0.0, mode="sim")
    cfg = PredictorConfig(error_rates=RATES, seed=3)
    _, tl = run_scalable(stream, spec, cfg, UpdateConfig(k=3), timing)

    assert tl.ready[0] == 10.0
    assert tl.start[0] == 10.0
    assert tl.done[0] == 15.0
    assert tl.avail[0] == 15.0
    assert tl.start[1] == 20.0
    assert tl.done[1] == 24.0
    assert tl.avail[1] == 26.0
    assert tl.start[2] == 30.0
    assert tl.done[2] == 33.0
    assert tl.avail[2] == 37.0

    lat = latency_metrics(tl, (30.0, 40.0))
    assert lat.acquisition_end == 30.0
    assert lat.post_acq == 7.0
    assert lat.post_acq_lower == 7.0   # slow acquisition reaches full overlap
    assert lat.post_acq_upper == 18.0  # 5+4+3 predict + 3 refines of 2 s
    assert lat.speedup == pytest.approx(1 - 7.0 / 10.0)
    assert lat.first_prediction_fraction == pytest.approx(15.0 / 10.0)


def test_speedup_sixty_percent_example():
    """Baseline processing 10 s with a 4 s scalable residual is a 60% speedup."""
    tl = Timeline(ready=[30.0], start=[30.0], done=[34.0], avail=[34.0])
    lat = latency_metrics(tl, (30.0, 40.0))
    assert lat.post_acq == 4.0
    assert lat.speedup == pytest.approx(0.60)


def test_identical_residual_gives_zero_speedup():
    tl = Timeline(ready=[5.0], start=[5.0], done=[15.0], avail=[15.0])
    assert latency_metrics(tl, (5.0, 15.0)).speedup == 0.0


def test_instant_acquisition_equals_no_overlap_bound():
    stream = small_stream(2)
    cfg = PredictorConfig(error_rates=RATES, seed=1)
    timing = TimingModel(tick_duration=1e-12, mode="sim")
    _, tl = run_scalable(stream, spec=SPEC, predictor_cfg=cfg,
                         update_cfg=UpdateConfig(k=3), timing=timing)
    base_out, base_tl = run_baseline(stream, cfg, timing)
    lat = latency_metrics(tl, base_tl)
    assert lat.post_acq == pytest.approx(lat.post_acq_upper, rel=1e-6)


def test_bound_ordering_across_configs():
    stream = small_stream(3)
    cfg = PredictorConfig(error_rates=RATES, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(12):
        timing = TimingModel(
            tick_duration=float(rng.uniform(1e-6, 2e-2)),
            predict_fixed=float(rng.uniform(0, 0.1)),
            predict_per_point=float(rng.uniform(0, 1e-3)),
            refine_fixed=float(rng.uniform(0, 0.01)),
            refine_per_point=float(rng.uniform(0, 1e-5)),
            mode=random_schedule(rng),
        )
        _, tl = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), timing)
        _, base_tl = run_baseline(stream, cfg, timing)
        lat = latency_metrics(tl, base_tl)
        assert lat.post_acq_lower <= lat.post_acq + 1e-9
        assert lat.post_acq <= lat.post_acq_upper + 1e-9


def test_causality_invariants():
    stream = small_stream(4)
    cfg = PredictorConfig(error_rates=RATES, seed=5)
    for mode in ("sim", "sim-unfused"):
        timing = TimingModel(tick_duration=1e-4, mode=mode)
        _, tl = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), timing)
        avail_prev = 0.0
        for i in range(1, 6):
            ready = tl.ready[i - 1]
            start = tl.start[i - 1]
            avail = tl.avail[i - 1]
            assert start >= ready
            if mode == "sim" and i > 1:
                assert start >= avail_prev
            assert avail >= avail_prev  # publication ordered by scale
            assert ready == SPEC.cuts[i - 1] * timing.tick_duration
            avail_prev = avail


def test_labels_identical_across_timing_models():
    stream = small_stream(5)
    cfg = PredictorConfig(error_rates=RATES, seed=9)
    update = UpdateConfig(k=3)
    reference = None
    models = [
        TimingModel(tick_duration=1e-6),
        TimingModel(tick_duration=5.0, mode="sim-serial"),
        TimingModel(tick_duration=1e-3, mode="sim-unfused"),
        TimingModel(tick_duration=1e-6, mode="real"),
    ]
    for timing in models:
        outputs, _ = run_scalable(stream, SPEC, cfg, update, timing)
        labels = [o.pred_labels for o in outputs]
        if reference is None:
            reference = labels
        else:
            for a, b in zip(reference, labels):
                assert np.array_equal(a, b)


SWEEP_TIMINGS = [TimingModel(tick_duration=1e-6),
                 TimingModel(tick_duration=5.0, mode="sim-serial"),
                 TimingModel(tick_duration=1e-3),
                 TimingModel(tick_duration=1e-4, predict_fixed=0.5,
                             refine_per_point=0.0),
                 TimingModel(tick_duration=2e-5, mode="sim-serial")]


@pytest.mark.parametrize("variant", ["noisy-oracle", "seeded-knn"])
@pytest.mark.parametrize("update_cfg", [UpdateConfig(k=3), None])
def test_one_label_pass_equals_a_fresh_pass_per_timing(label_calls, variant,
                                                       update_cfg):
    """Inside ``one_label_pass`` only the first sim-mode call labels.  Every
    call returns, bit for bit, what a standalone call with its timing
    returns, in a list of its own, and no caller can write a shared label
    array."""
    stream = small_stream(23, n=600)
    cfg = PredictorConfig(variant=variant, error_rates=RATES, seed=5,
                          seed_cloud=make_seed_cloud(stream, 0.1, 1))
    fresh = [run_scalable(stream, SPEC, cfg, update_cfg, t)
             for t in SWEEP_TIMINGS]
    label_calls["predict"] = 0
    with pipeline.one_label_pass():
        reused = [run_scalable(stream, SPEC, cfg, update_cfg, t)
                  for t in SWEEP_TIMINGS]
    assert label_calls["predict"] == 5
    for (outputs, tl), (ref_outputs, ref_tl) in zip(reused, fresh):
        assert tl == ref_tl
        assert len(outputs) == len(ref_outputs) == 5
        for out, ref in zip(outputs, ref_outputs):
            assert out.scale == ref.scale
            assert out.class_count == ref.class_count
            assert out.bounds == ref.bounds
            for name in ("positions", "pred_labels", "gt_labels", "timestamps"):
                a, b = getattr(out, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len({id(outputs) for outputs, _ in reused}) == len(reused)
    for out in reused[0][0]:
        assert out is reused[-1][0][out.scale - 1]
        with pytest.raises(ValueError, match="read-only"):
            out.pred_labels[0] = 0


class _NoClock:
    """Stands in for the ``time`` module: any clock read or sleep raises."""

    def __getattr__(self, name):
        raise AssertionError(f"clock read: time.{name}")


@pytest.mark.parametrize("update_cfg", [UpdateConfig(k=3), None])
def test_simulated_calls_read_no_clock(monkeypatch, update_cfg):
    """A simulated call, fresh or reused inside ``one_label_pass``, and a
    simulated baseline neither read the clock nor sleep, and return what
    they return with the clock in place."""
    stream = small_stream(25, n=600)
    cfg = PredictorConfig(error_rates=RATES, seed=8)
    timings = [TimingModel(tick_duration=td, mode=mode)
               for mode in MODES if mode != "real" for td in (1e-6, 5.0)]

    def calls():
        return [(*run_scalable(stream, SPEC, cfg, update_cfg, t),
                 run_baseline(stream, cfg, t)) for t in timings]

    expected = calls()
    monkeypatch.setattr(pipeline, "time", _NoClock())
    fresh = calls()
    with pipeline.one_label_pass():
        reused = calls()
    for got in (fresh, reused):
        for (outputs, tl, base), (ref_outputs, ref_tl, ref_base) in zip(
                got, expected):
            assert tl == ref_tl and base[1] == ref_base[1]
            assert np.array_equal(base[0].pred_labels, ref_base[0].pred_labels)
            assert [o.bounds for o in outputs] == [o.bounds for o in ref_outputs]
            for out, ref in zip(outputs, ref_outputs, strict=True):
                assert np.array_equal(out.pred_labels, ref.pred_labels)


def test_one_label_pass_keeps_nothing_for_measured_calls_or_other_inputs(
        label_calls):
    """A real call neither reads nor fills the scope; a call given
    other objects, even equal ones, labels afresh; and nothing is kept
    after the block."""
    stream = small_stream(24, n=400)
    cfg = PredictorConfig(error_rates=RATES, seed=6)
    update_cfg = UpdateConfig(k=3)
    real = TimingModel(tick_duration=1e-7, mode="real")
    with pipeline.one_label_pass():
        run_scalable(stream, SPEC, cfg, update_cfg, real)
        assert label_calls["predict"] == 5  # real: labelled, nothing kept
        kept, _ = run_scalable(stream, SPEC, cfg, update_cfg, TimingModel())
        assert label_calls["predict"] == 10  # the first sim-mode call labels
        outputs, _ = run_scalable(stream, SPEC, cfg, update_cfg, real)
        assert label_calls["predict"] == 15  # real: not a lookup
        assert outputs[0] is not kept[0]
        outputs[0].pred_labels[0] = outputs[0].pred_labels[0]  # its own
        run_scalable(stream, SPEC, replace(cfg), update_cfg, TimingModel())
        run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), TimingModel())
        assert label_calls["predict"] == 25  # equal, other objects: afresh
        again, _ = run_scalable(stream, SPEC, cfg, update_cfg,
                                TimingModel(tick_duration=1.0))
        assert label_calls["predict"] == 25 and again[0] is kept[0]
    run_scalable(stream, SPEC, cfg, update_cfg, TimingModel())
    assert label_calls["predict"] == 30


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unrefined_pass_through_kept_tables_equals_a_fresh_one(data):
    """Inside ``one_label_pass(tables=True)``, an unrefined simulated call
    after a refined call, simulated or real, searches no context and
    returns what a fresh unrefined call returns, bit for bit.  Scales may be
    empty or smaller than ``k_cls``; an empty first scale leaves scale 2 to
    vote against the seed cloud."""
    k = data.draw(st.integers(1, 5), label="scales")
    counts = data.draw(st.lists(st.integers(0, 12), min_size=k, max_size=k),
                       label="counts")
    counts[-1] += sum(counts) == 0  # the seed cloud needs a point
    cuts = sorted(data.draw(st.sets(st.integers(0, 400), min_size=k,
                                    max_size=k), label="cuts"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    stream = make_counted_stream(rng, counts, cuts)
    spec = PartitionSpec(tuple(cuts))
    cfg = PredictorConfig(
        variant="seeded-knn", k_cls=data.draw(st.integers(1, 8), label="k_cls"),
        seed_cloud=make_seed_cloud(stream, data.draw(st.floats(0.01, 1.0),
                                                     label="fraction"), 0))
    refine = UpdateConfig(data.draw(st.integers(1, 6), label="update_k"))
    first = TimingModel(tick_duration=1e-9, mode=data.draw(
        st.sampled_from(["sim", "sim-serial", "real"]), label="first_mode"))
    timing = TimingModel(tick_duration=1e-5, mode=data.draw(
        st.sampled_from(["sim", "sim-serial"]), label="mode"))

    fresh, fresh_tl = run_scalable(stream, spec, cfg, None, timing)
    with pipeline.one_label_pass(tables=True):
        run_scalable(stream, spec, cfg, refine, first)
        with mock.patch.object(predictors, "knn_batch",
                               wraps=predictors.knn_batch) as search:
            outputs, tl = run_scalable(stream, spec, cfg, None, timing)
    assert search.call_count == 0
    assert tl == fresh_tl
    assert [o.bounds for o in outputs] == [o.bounds for o in fresh]
    for out, ref in zip(outputs, fresh, strict=True):
        assert out.pred_labels.astype("<i8").tobytes() == (
            ref.pred_labels.astype("<i8").tobytes())


def test_real_executor_timeline_is_causal():
    """Measured runs handle the scales in order: scale i starts once its
    partition is acquired and scale i-1's cumulative output is published."""
    stream = small_stream(6, n=400)
    cfg = PredictorConfig(error_rates=RATES, seed=4)
    timing = TimingModel(tick_duration=2e-6, mode="real")
    _, tl = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), timing)
    avail_prev = 0.0
    for i in range(1, 6):
        start = tl.start[i - 1]
        assert start >= max(tl.ready[i - 1], avail_prev)
        assert tl.done[i - 1] >= start
        avail = tl.avail[i - 1]
        assert avail >= tl.done[i - 1]
        avail_prev = avail


@pytest.mark.parametrize("tick", [1e300, 1e306], ids=["past-clock", "inf"])
def test_a_measured_run_refuses_to_wait_past_the_clock(tick):
    """A partition due past what the platform's clock can sleep until, or
    at an infinite instant, is refused naming it, before any label work."""
    with mock.patch.object(pipeline, "predict", side_effect=AssertionError):
        with pytest.raises(PipelineError,
                           match=r"cannot wait .* s for partition_ready\(1\)$"):
            run_scalable(small_stream(6, n=100), SPEC,
                         PredictorConfig(error_rates=RATES), None,
                         TimingModel(tick_duration=tick, mode="real"))


def test_k1_degenerates_to_baseline_shape():
    stream = small_stream(7, n=200, t_max=500)
    spec = PartitionSpec((500,))
    cfg = PredictorConfig(error_rates=(0.1,), seed=2)
    # baseline_factor 1: the single scale and the baseline cost the same
    timing = TimingModel(tick_duration=1e-3, baseline_factor=1.0)
    outputs, tl = run_scalable(stream, spec, cfg, UpdateConfig(k=3), timing)
    assert len(outputs) == 1
    assert len(outputs[0]) == len(stream)
    _, base_tl = run_baseline(stream, cfg, timing)
    lat = latency_metrics(tl, base_tl)
    # same cloud, same cost model: the single scale equals the baseline stage
    assert lat.post_acq == pytest.approx(lat.baseline_processing)
    assert lat.speedup == pytest.approx(0.0)


def test_baseline_empty_stream_completes_immediately():
    stream = make_random_stream(np.random.default_rng(0), 0)
    out, baseline = run_baseline(stream, PredictorConfig(), TimingModel())
    assert len(out) == 0
    assert baseline == (0.0, 0.0)


def test_baseline_cardinality_and_duration():
    """256 points at 0.5 s + 2 x 1/256 s per point take 2.5 s; every value
    is dyadic, so the instants are exact."""
    stream = small_stream(8, n=256)
    timing = TimingModel(tick_duration=2**-10, predict_fixed=0.5,
                         predict_per_point=2**-8, baseline_factor=2.0)
    out, (start, done) = run_baseline(stream, PredictorConfig(error_rates=RATES),
                                      timing)
    assert len(out) == len(stream)
    assert done - start == 2.5
    assert start == stream.max_timestamp * 2**-10


@pytest.mark.parametrize("n", [0, 800])
@pytest.mark.parametrize("mode", ["sim", "sim-serial"], ids=["full", "none"])
def test_closed_form_baseline_timeline_equals_run_baseline(n, mode):
    """The modelled baseline schedule, from the point count alone, is the
    simulated ``run_baseline`` instants to the bit, at every tick duration."""
    stream = small_stream(12, n=n, t_max=977)
    for td in (1e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 0.1):
        timing = TimingModel(tick_duration=td, mode=mode)
        _, baseline = run_baseline(stream, PredictorConfig(error_rates=RATES),
                                   timing)
        closed = baseline_timeline(stream, timing,
                                   timing.baseline_duration(len(stream)))
        assert closed == baseline


def test_final_scalable_output_matches_baseline_points():
    stream = small_stream(9)
    cfg = PredictorConfig(error_rates=RATES, seed=0)
    timing = TimingModel()
    outputs, _ = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), timing)
    base_out, _ = run_baseline(stream, cfg, timing)
    assert np.array_equal(outputs[-1].positions, base_out.positions)
    assert np.array_equal(outputs[-1].gt_labels, base_out.gt_labels)


def test_seeded_knn_requires_fusion_dependency():
    stream = small_stream(10)
    from scalestream import make_seed_cloud
    cloud = make_seed_cloud(stream, 0.1, 0)
    cfg = PredictorConfig(variant="seeded-knn", seed_cloud=cloud)
    with pytest.raises(PipelineError, match="fusion"):
        run_scalable(stream, SPEC, cfg, UpdateConfig(),
                     TimingModel(mode="sim-unfused"))


def events_of(k: int, instant=0.5, **instants) -> list[dict]:
    """Every event of a ``k``-scale timeline in dict form, each at
    ``instant`` but those that ``instants`` names as ``kind_scale``."""
    return [{"kind": kind, "scale": i,
             "instant": instants.get(f"{kind}_{i}", instant)}
            for kind in EVENT_KINDS for i in range(1, k + 1)]


def test_incomplete_timeline_rejected():
    """A timeline without the cumulative_available instant of its scale is
    refused when built, and so is its dict form."""
    with pytest.raises(PipelineError, match="incomplete|no cumulative"):
        Timeline(ready=[1.0], start=[1.0], done=[2.0], avail=[])
    events = [e for e in events_of(1) if e["kind"] != CUMULATIVE_AVAILABLE]
    with pytest.raises(PipelineError, match="incomplete|no cumulative"):
        Timeline.from_dict({"events": events, "refine_done": []})


@pytest.mark.parametrize("instant", [float("inf"), float("nan")])
def test_timeline_refuses_a_non_finite_instant(instant):
    with pytest.raises(PipelineError,
                       match=r"non-finite instant for scale_done\(2\)"):
        Timeline([0.5, 0.5], [0.5, 0.5], [1.0, instant], [1.0, 1.0])


@pytest.mark.parametrize("kind, scale, instant, message", [
    ("refine_dne", 1, 0.5, r"unknown event refine_dne\(1\)"),
    # a refinement is an entry of ``refines``, never an event
    ("refine_done", 1, 0.5, r"unknown event refine_done\(1\)"),
    (SCALE_START, 1, -0.5, r"negative instant for scale_start\(1\): -0.5"),
    (SCALE_START, 1, float("nan"), r"non-finite instant for scale_start\(1\)"),
    # an error is one line, whatever the kind holds
    ("\n", 1, 0.5, r"^unknown event '\\n'\(1\)$"),
], ids=["unknown-kind", "refine-event", "negative-instant", "nan-instant",
        "newline-kind"])
def test_every_event_rule_holds_for_added_and_given_events(kind, scale, instant,
                                                           message):
    """An instant given to the constructor in its kind's list and an event
    given in a timeline's dict form pass the same rules: a known kind and a
    finite, non-negative instant.  The constructor takes a list for each of
    the four known kinds and no other."""
    if kind in EVENT_KINDS:
        columns = {k: [instant if k == kind else 0.5] for k in EVENT_KINDS}
        with pytest.raises(PipelineError, match=message):
            Timeline(*columns.values())
        events = events_of(1, **{f"{kind}_{scale}": instant})
    else:
        events = [*events_of(1), {"kind": kind, "scale": scale,
                                  "instant": instant}]
    with pytest.raises(PipelineError, match=message):
        Timeline.from_dict({"events": events, "refine_done": []})


@pytest.mark.parametrize("instant, message", [
    (-0.5, r"negative instant for refine_done\[1\]: -0.5"),
    (float("nan"), r"non-finite instant for refine_done\[1\]: nan"),
    (float("-inf"), r"non-finite instant for refine_done\[1\]: -inf"),
], ids=["negative", "nan", "minus-inf"])
def test_every_refine_rule_holds_for_added_and_given_instants(instant, message):
    """A refinement's end instant, built or given, is finite and
    non-negative; the message names its position in ``refines``.  Which
    scale and arrival it belongs to follows from that position alone.  A
    3-scale timeline refines 3 times."""
    tl = Timeline(*[[0.5] * 3] * 4, [0.25, 0.5, 0.75])
    with pytest.raises(PipelineError, match=message):
        replace(tl, refines=[0.25, instant, 0.75])
    assert tl.refines == [0.25, 0.5, 0.75]
    with pytest.raises(PipelineError, match=message):
        Timeline.from_dict({"events": events_of(3),
                            "refine_done": [0.25, instant, 0.75]})


def test_an_instant_past_the_largest_float_names_its_entry():
    """An integer instant too large for a float is refused naming the event
    or the refine entry, built or given."""
    event = r"scale_start\(1\) is not a number a float can hold"
    with pytest.raises(OverflowError, match=event):
        Timeline([0.5], [10**400], [0.5], [0.5])
    with pytest.raises(OverflowError, match=event):
        Timeline.from_dict({"events": events_of(1, scale_start_1=10**400),
                            "refine_done": []})
    entry = r"refine_done\[1\] is not a number a float can hold"
    with pytest.raises(OverflowError, match=entry):
        Timeline.from_dict({"events": events_of(3),
                            "refine_done": [0.5, 10**400, 0.5]})


@pytest.mark.parametrize("key, value", [("events", {}), ("events", ""),
                                        ("refine_done", {}),
                                        ("refine_done", "")])
def test_timeline_lists_must_be_lists(key, value):
    """``events`` and ``refine_done`` are JSON lists, not any iterable."""
    data = {"events": [], "refine_done": [], key: value}
    with pytest.raises(TypeError, match=f"^{key} is {value!r}, not a list$"):
        Timeline.from_dict(data)


def test_sim_timeline_deterministic():
    stream = small_stream(11)
    cfg = PredictorConfig(error_rates=RATES, seed=5)
    timing = TimingModel(tick_duration=3e-4)
    _, tl1 = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), timing)
    _, tl2 = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), timing)
    assert tl1.to_dict() == tl2.to_dict()


def test_timeline_holds_each_event_once():
    """A timeline and its dict form's round trip answer alike; a second
    event of a kind and scale is refused, its ``events`` are derived and
    read-only, and equality and the dict form see the instants and the
    refines alone."""
    built = Timeline([0.0, 0.0], [0.5, 0.25], [1.0, 1.0], [1.0, 1.5], [1.25])
    data = built.to_dict()
    repeated = {**data, "events": [*data["events"], {
        "kind": SCALE_START, "scale": 1, "instant": 0.75}]}
    with pytest.raises(PipelineError, match=r"repeated event scale_start\(1\)"):
        Timeline.from_dict(repeated)
    assert len(built.events) == 8
    with pytest.raises(AttributeError):
        built.events = []
    with pytest.raises(TypeError):
        Timeline(events=list(built.events))
    for tl in (built, Timeline.from_dict(data)):
        assert tl == built
        assert tl.start[0] == 0.5
        assert tl.start[1] == 0.25
    no_done = [e for e in data["events"]
               if (e["kind"], e["scale"]) != (SCALE_DONE, 1)]
    with pytest.raises(PipelineError,
                       match="timeline has no scale_done event for scale 1"):
        Timeline.from_dict({**data, "events": no_done})


@pytest.mark.parametrize("mode", ["sim", "real"])
def test_a_run_timeline_survives_its_dict_form(mode):
    """The timeline of a simulated and of a measured run equals its own
    dict form read back, instant for instant."""
    stream = small_stream(13, n=400)
    cfg = PredictorConfig(error_rates=RATES, seed=1)
    _, tl = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3),
                         TimingModel(tick_duration=2e-6, mode=mode))
    assert len(tl.refines) == 10
    assert Timeline.from_dict(tl.to_dict()) == tl


def test_a_measured_run_lists_its_events_in_the_simulated_order():
    """A measured and a simulated run write their events in one order: the
    K partition_ready events, then each scale's start, done and
    cumulative_available events in turn."""
    stream = small_stream(14, n=400)
    cfg = PredictorConfig(error_rates=RATES, seed=2)
    order = {}
    for mode in ("sim", "real"):
        _, tl = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3),
                             TimingModel(tick_duration=2e-6, mode=mode))
        order[mode] = [(e.kind, e.scale) for e in tl.events]
    assert order["real"] == order["sim"]
    assert order["sim"] == [*((EVENT_KINDS[0], i) for i in range(1, 6)),
                            *((kind, i) for i in range(1, 6)
                              for kind in EVENT_KINDS[1:])]


class CountingList(list):
    """A list that counts the loops over it."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


def test_reading_a_timeline_loops_over_it_a_fixed_number_of_times():
    """``latency_metrics`` and ``timeline_plot`` loop over a timeline's
    per-kind lists and its refines as often at 200 scales as at 10, so
    reading a K-scale timeline of about K^2/2 refines costs O(K^2), not
    O(K^3)."""
    loops = []
    names = ("ready", "start", "done", "avail", "refines")
    for k in (10, 200):
        tl = pipeline._sim_timeline([20] * k, [i * 1e-3 for i in range(1, k + 1)],
                                    TimingModel(), refining=True)
        for name in names:  # a built timeline is frozen: instrument it anyway
            object.__setattr__(tl, name, CountingList(getattr(tl, name)))
        base = (k * 1e-3, k * 1e-3 + 1.0)
        lat = latency_metrics(tl, base)
        timeline_plot(tl, base, lat)
        loops.append([getattr(tl, name).loops for name in names])
    assert loops[0] == loops[1], loops


def test_timing_model_validation():
    with pytest.raises(PipelineError):
        TimingModel(tick_duration=0)
    with pytest.raises(PipelineError):
        TimingModel(predict_fixed=-1)
    with pytest.raises(PipelineError):
        TimingModel(mode="sometimes")
    for field in ("tick_duration", "predict_fixed", "predict_per_point",
                  "baseline_factor", "refine_fixed", "refine_per_point"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(PipelineError, match=f"{field} must be finite"):
                TimingModel(**{field: value})


def test_update_disabled_keeps_raw_labels():
    stream = small_stream(12)
    cfg = PredictorConfig(error_rates=RATES, seed=6)
    outputs, _ = run_scalable(stream, SPEC, cfg, None, TimingModel())
    refined, _ = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), TimingModel())
    # raw predictor output for the newest scale is shared; earlier scales differ
    n_last = len(outputs[-1]) - outputs[-1].bounds[4]
    assert np.array_equal(outputs[-1].pred_labels[-n_last:],
                          refined[-1].pred_labels[-n_last:])
    assert not np.array_equal(outputs[-1].pred_labels, refined[-1].pred_labels)


def test_outputs_hold_little_beside_their_labels():
    """Each cumulative output keeps its scales as prefix offsets, not as a
    per-point array: the 200 outputs of a 4,000-point stream cut into 200
    scales hold under 1.6 times their labels' bytes (an int64 origin scale
    per point would make it about 2.1 times)."""
    rng = np.random.default_rng(0)
    n = 4000
    stream = PointStream(rng.integers(0, 16, size=(n, 3)) / 8.0,
                         rng.integers(0, 4, size=n), np.arange(n) // 2, 4)
    spec = PartitionSpec(range(10, 2001, 10))
    cfg = PredictorConfig(error_rates=(0.1,) * 200, seed=0)
    tracemalloc.start()
    try:
        outputs, _ = run_scalable(stream, spec, cfg, None, TimingModel())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    labels = sum(o.pred_labels.nbytes for o in outputs)
    assert held < 1.6 * labels, held / labels
    assert [o.bounds for o in outputs[:2]] == [(0, 22), (0, 22, 42)]


def test_empty_stream_has_zero_residual():
    stream = make_random_stream(np.random.default_rng(0), 0)
    cfg = PredictorConfig(error_rates=RATES)
    timing = TimingModel()
    _, tl = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), timing)
    _, base_tl = run_baseline(stream, cfg, timing)
    lat = latency_metrics(tl, base_tl)
    assert lat.post_acq == 0.0
    assert lat.speedup == 0.0


def test_empty_scale_costs_nothing():
    s = small_stream(13, n=400, t_max=700)
    # every point after the first cut: scale 1 is empty
    stream = PointStream(s.positions, s.labels, s.timestamps + 300, s.class_count)
    cfg = PredictorConfig(error_rates=RATES)
    timing = TimingModel()
    outputs, tl = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3), timing)
    assert len(outputs[0]) == 0
    _, base_tl = run_baseline(stream, cfg, timing)
    lat = latency_metrics(tl, base_tl)
    assert lat.predict_durations[0] == 0.0
    assert lat.predict_durations[1] > 0.0


def test_measured_run_keeps_scales_on_the_calling_thread(monkeypatch):
    """A real run predicts, refines and assembles every scale on the
    caller's thread.  With one search worker it starts no thread at all;
    with two, each neighbor search of ``_THREAD_ROWS`` rows or more runs at
    most two threads and joins them before it returns, and the labels are
    the same."""
    stream = small_stream(14, n=40 * update._THREAD_ROWS * 5 // 4, t_max=4000)
    spec = PartitionSpec(tuple(range(100, 4001, 100)))
    cfg = PredictorConfig(error_rates=(0.2,) * 40, seed=1)
    caller = threading.get_ident()
    callers, started, alive = set(), [], []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)
        alive.append(threading.active_count())

    def on_caller(fn):
        def wrapped(*args, **kwargs):
            callers.add((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(threading.Thread, "start", counted)
    for name in ("predict", "cascade_step", "assemble"):
        monkeypatch.setattr(pipeline, name, on_caller(getattr(pipeline, name)))
    before = threading.active_count()
    labels = {}
    for workers in (1, 2):
        monkeypatch.setattr(update, "_WORKERS", workers)
        started.clear()
        outputs, _ = run_scalable(stream, spec, cfg, UpdateConfig(k=3),
                                  TimingModel(tick_duration=1e-7, mode="real"))
        assert len(outputs) == 40
        labels[workers] = [o.pred_labels for o in outputs]
        if workers == 1:
            assert started == []
    assert started
    assert max(alive) - before <= 2
    assert threading.active_count() == before
    assert callers == {(n, caller) for n in ("predict", "cascade_step", "assemble")}
    for one, two in zip(labels[1], labels[2]):
        np.testing.assert_array_equal(one, two)


def test_each_scale_pair_is_searched_once(monkeypatch):
    """A refining run searches each scale pair once, when its upper scale
    arrives, not again on every later arrival; a pair with an empty side
    gets no search."""
    searched = []
    real = update.knn_batch

    def spy(queries, reference, k):
        searched.append((len(queries), len(reference)))
        return real(queries, reference, k)

    monkeypatch.setattr(update, "knn_batch", spy)
    full = make_random_stream(np.random.default_rng(21), 2000, class_count=5,
                              t_max=DEFAULT_CUTS[-1])
    # the same stream with no point in scale 3, (6000, 15000]
    keep = (full.timestamps <= 6000) | (full.timestamps > 15000)
    gapped = PointStream(full.positions[keep], full.labels[keep],
                         full.timestamps[keep], full.class_count)
    spec = PartitionSpec(DEFAULT_CUTS)
    cfg = PredictorConfig(error_rates=RATES, seed=4)
    for stream, pairs in ((full, [(1, 2), (2, 3), (3, 4), (4, 5)]),
                          (gapped, [(1, 2), (4, 5)])):
        counts = [len(p) for p in pipeline.partition(stream, spec)]
        assert (counts[2] == 0) == (stream is gapped) and counts.count(0) <= 1
        searched.clear()
        run_scalable(stream, spec, cfg, UpdateConfig(k=3), TimingModel())
        assert searched == [(counts[lo - 1], counts[up - 1]) for lo, up in pairs]


@pytest.mark.parametrize("target", ["predict", "cascade_step"])
def test_real_executor_failure_surfaces_without_leaks(monkeypatch, target):
    """A predictor or update failure at scale 3 ends the run, as a
    PipelineError that names the scale and keeps the failure as its cause,
    and leaves no thread behind."""
    boom = (PredictorError if target == "predict" else UpdateError)("boom")
    real = getattr(pipeline, target)

    def failing(*args, **kwargs):
        # predict(part, ...) and cascade_step(lowers, arrived, ...)
        scale = args[0].scale if target == "predict" else args[1].scale
        if scale == 3:
            raise boom
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, target, failing)
    raised = []

    def call():
        try:
            run_scalable(small_stream(15, n=400), SPEC,
                         PredictorConfig(error_rates=RATES, seed=2),
                         UpdateConfig(k=3),
                         TimingModel(tick_duration=1e-6, mode="real"))
        except PipelineError as exc:
            raised.append(exc)

    before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=5.0)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["scale 3: boom"]
    assert raised[0].__cause__ is boom
    assert threading.active_count() == before


def test_baseline_failure_names_the_baseline():
    stream = small_stream(17, n=50)
    with pytest.raises(PipelineError, match="^baseline: seeded-knn") as info:
        run_baseline(stream, PredictorConfig(variant="seeded-knn"), TimingModel())
    assert isinstance(info.value.__cause__, PredictorError)


@pytest.mark.parametrize("variant", ["noisy-oracle", "seeded-knn"])
def test_each_output_is_the_refined_context_and_stays_as_published(
        monkeypatch, variant):
    """The cascade refines the label array that the predictor returned, that
    array is published as the output, and no later arrival writes into an
    output published before it."""
    stream = small_stream(18, n=600)
    cfg = PredictorConfig(variant=variant, error_rates=RATES, seed=3,
                          seed_cloud=make_seed_cloud(stream, 0.1, 0))
    returned, refined, published = [], [], []
    real_predict, real_cascade = pipeline.predict, pipeline.cascade_step
    real_assemble = pipeline.assemble

    def spy_predict(*args):
        labels, cumulative = real_predict(*args)
        returned.append(cumulative)
        return labels, cumulative

    def spy_cascade(lowers, arrived, labels, *rest):
        refined.append(labels)
        return real_cascade(lowers, arrived, labels, *rest)

    def spy_assemble(stream, parts, labels):
        published.append(labels.copy())
        return real_assemble(stream, parts, labels)

    monkeypatch.setattr(pipeline, "predict", spy_predict)
    monkeypatch.setattr(pipeline, "cascade_step", spy_cascade)
    monkeypatch.setattr(pipeline, "assemble", spy_assemble)
    outputs, _ = run_scalable(stream, SPEC, cfg, UpdateConfig(k=3),
                              TimingModel())
    assert len(outputs) == len(returned) == len(refined) == 5
    for out, cumulative, labels, snapshot in zip(outputs, returned, refined,
                                                 published):
        assert out.pred_labels is cumulative and labels is cumulative
        assert np.array_equal(out.pred_labels, snapshot)


@pytest.mark.parametrize("variant", ["noisy-oracle", "seeded-knn"])
def test_each_scale_reads_the_previous_output(monkeypatch, variant):
    """Scale i's context is output i-1 itself, whose positions are a view of
    the stream, not a copy of its prefix."""
    stream = small_stream(19, n=600)
    cfg = PredictorConfig(variant=variant, error_rates=RATES, seed=4,
                          seed_cloud=make_seed_cloud(stream, 0.1, 0))
    received = []
    real_predict = pipeline.predict

    def spy_predict(part, prev, *rest):
        received.append(prev)
        return real_predict(part, prev, *rest)

    monkeypatch.setattr(pipeline, "predict", spy_predict)
    for update_cfg in (UpdateConfig(k=3), None):
        received.clear()
        outputs, _ = run_scalable(stream, SPEC, cfg, update_cfg, TimingModel())
        assert len(received) == len(outputs) == 5 and received[0] is None
        for prev, out in zip(received[1:], outputs):
            assert prev is out
            assert np.shares_memory(prev.positions, stream.positions)


def test_seeded_knn_labels_identical_across_backends():
    stream = small_stream(16)
    cloud = make_seed_cloud(stream, 0.1, 0)
    cfg = PredictorConfig(variant="seeded-knn", k_cls=3, seed_cloud=cloud)
    models = [
        TimingModel(tick_duration=1e-6),
        TimingModel(tick_duration=5.0, mode="sim-serial"),
        TimingModel(tick_duration=1e-6, mode="real"),
    ]
    finals = []
    for update in (UpdateConfig(k=3), None):
        reference = None
        for timing in models:
            outputs, _ = run_scalable(stream, SPEC, cfg, update, timing)
            labels = [o.pred_labels.astype("<i8").tobytes() for o in outputs]
            if reference is None:
                reference = labels
            else:
                assert labels == reference
        finals.append(reference[-1])
    # the published context differs with the update module on and off
    assert finals[0] != finals[1]


def assert_causal(tl: Timeline, spec: PartitionSpec, timing: TimingModel,
                  refining: bool):
    """Each scale starts once its partition is acquired, and once the previous
    output is published wherever the schedule waits for it; predict, refine
    and publication follow in that order, and outputs publish in scale order."""
    waits = timing.mode != "sim-unfused"
    intervals = refine_intervals(tl)
    prev = 0.0
    for i, (cut, ready, start, done, avail) in enumerate(zip(
            spec.cuts, tl.ready, tl.start, tl.done, tl.avail, strict=True),
            start=1):
        assert ready == cut * timing.tick_duration
        assert ready <= start <= done <= avail and prev <= avail
        assert start >= prev or not waits
        assert len(intervals.get(i, [])) == (i - 1 if refining else 0)
        for begin, end in intervals.get(i, []):
            assert max(done, prev) <= begin <= end <= avail
        prev = avail


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_run_scalable_properties(data):
    """Random streams, cuts (empty scales and a last cut past the last
    timestamp included), predictors, update settings and affine costs: the
    labels are the same under every schedule, every timeline is causal, and
    a simulated residual lies within its bounds and does not grow when
    acquisition slows."""
    n = data.draw(st.integers(1, 200), label="points")
    classes = data.draw(st.integers(1, 5), label="classes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    stream = make_random_stream(rng, n, class_count=classes, t_max=400)
    cuts = sorted(data.draw(st.sets(st.integers(0, 400), min_size=1, max_size=6),
                            label="cuts"))
    cuts[-1] = max(cuts[-1], stream.max_timestamp) + data.draw(
        st.integers(0, 50), label="past_last")
    spec = PartitionSpec(tuple(cuts))
    seed = data.draw(st.integers(0, 3), label="seed")
    if data.draw(st.booleans(), label="seeded_knn"):
        fraction = data.draw(st.floats(0.01, 1.0), label="seed_fraction")
        cfg = PredictorConfig(
            variant="seeded-knn", k_cls=data.draw(st.integers(1, 8), label="k_cls"),
            seed=seed, seed_cloud=make_seed_cloud(stream, fraction, seed))
    else:
        rates = data.draw(st.lists(st.floats(0, 1), min_size=len(cuts),
                                   max_size=len(cuts)), label="rates")
        cfg = PredictorConfig(error_rates=tuple(rates), seed=seed)
    k = data.draw(st.integers(0, 6), label="update_k")
    update_cfg = UpdateConfig(k) if k else None
    # costs in ticks, so that acquisition is sometimes the slower side; a
    # positive predict_fixed keeps the baseline's processing time positive
    tick = data.draw(st.floats(1e-7, 1e-5), label="tick")
    costs = {name: tick * data.draw(st.floats(lo, hi), label=name)
             for name, lo, hi in (("predict_fixed", 1, 200),
                                  ("predict_per_point", 0, 2),
                                  ("refine_fixed", 0, 200),
                                  ("refine_per_point", 0, 2))}
    base = TimingModel(tick_duration=tick, **costs, baseline_factor=data.draw(
        st.floats(0, 4), label="baseline_factor"))
    _, base_tl = run_baseline(stream, cfg, base)
    slowdown = data.draw(st.floats(1, 1e4), label="slowdown")

    reference = None
    for mode in MODES:
        if cfg.variant == "seeded-knn" and mode == "sim-unfused":
            continue
        timing = replace(base, mode=mode)
        outputs, tl = run_scalable(stream, spec, cfg, update_cfg, timing)
        labels = [o.pred_labels.astype("<i8").tobytes() for o in outputs]
        if reference is None:
            reference = labels
        assert labels == reference
        assert_causal(tl, spec, timing, update_cfg is not None)
        if mode != "real":
            lat = latency_metrics(tl, base_tl)
            slack = 1e-9 * (1.0 + lat.post_acq_upper)
            assert lat.post_acq_lower <= lat.post_acq + slack
            assert lat.post_acq <= lat.post_acq_upper + slack
            # the residual is max_i(ready_i - ready_K + S_i), where S_i
            # sums modelled costs alone, so slower ticks cannot raise
            # it; the slack scales with the largest instant
            slow = replace(timing, tick_duration=tick * slowdown)
            slow_lat = latency_metrics(
                run_scalable(stream, spec, cfg, update_cfg, slow)[1], base_tl)
            assert slow_lat.post_acq <= lat.post_acq + 1e-9 * (
                1.0 + slow_lat.acquisition_end + slow_lat.post_acq_upper)
