"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line (visible with ``pytest -s`` or in failure output).
Oracles are independent re-implementations: linear scans, explicit vote
counting, closed-form timelines, set-based metrics.
"""

import io
import time

import numpy as np
import pytest

from scalestream import (DEFAULT_CUTS, LissajousConfig, PartitionSpec,
                         PredictorConfig, TimingModel, UpdateConfig,
                         coverage_curve, default_room, latency_metrics, miou,
                         partition, place_cameras, read_stream, run_baseline,
                         run_scalable, scan, slab_distances, write_stream)
from scalestream.pipeline import (CUMULATIVE_AVAILABLE, SCALE_DONE,
                                  SCALE_START, Timeline)
from scalestream.update import knn_batch

from conftest import make_counted_stream, make_random_stream, random_schedule
from test_geometry import slab_oracle, unit
from test_partition import brute_force_split
from test_update import (arrivals, brute_knn, brute_refine_labels,
                         random_prediction, two_scale)


def _report(num, label, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    print(f"\n[PASS] criterion {num}: {label} ({time.perf_counter() - t0:.1f}s)")


# -- shared fixtures (built once; several criteria reuse the default scan) --

@pytest.fixture(scope="module")
def default_scan():
    room = default_room()
    pose = place_cameras(room, seed=0)[0]
    return scan(room, pose, LissajousConfig())


def test_criterion_1_partition_losslessness():
    def check():
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(0, 80))
            stream = make_random_stream(rng, n, class_count=5, t_max=600)
            k = int(rng.integers(1, 7))
            cuts = np.sort(rng.choice(np.arange(1, 800), size=k, replace=False))
            cuts[-1] = max(int(cuts[-1]), stream.max_timestamp)
            spec = PartitionSpec(tuple(int(c) for c in cuts))
            parts = partition(stream, spec)
            if n:
                cat = np.concatenate([p.timestamps for p in parts])
                assert np.array_equal(cat, stream.timestamps)
                cat_pos = np.concatenate([p.positions for p in parts])
                assert np.array_equal(cat_pos, stream.positions)
            assert sum(len(p) for p in parts) == n
            for p, idx in zip(parts, brute_force_split(stream, spec.cuts)):
                assert np.array_equal(p.timestamps, stream.timestamps[idx])
                assert np.array_equal(p.labels, stream.labels[idx])

    _report(1, "partition losslessness, 1000 random streams vs interval oracle",
            check)


def test_criterion_2_knn_exactness():
    def check():
        def linear_scan_oracle(queries, ref):
            # full distance matrix + stable sort = ascending d2, ties by index
            d2 = ((ref[None, :, :] - queries[:, None, :]) ** 2).sum(axis=-1)
            return np.argsort(d2, axis=1, kind="stable")

        rng = np.random.default_rng(202)
        ref = rng.uniform(-1, 1, size=(5000, 3))
        queries = rng.uniform(-1, 1, size=(1000, 3))
        order = linear_scan_oracle(queries, ref)
        for k in (1, 3, 5, 16):
            assert np.array_equal(knn_batch(queries, ref, k), order[:, :k])
        # tie-heavy grid coordinates exercise the stated tie rule; the scalar
        # per-query oracle double-checks the vectorized one on a sample
        ref_g = rng.integers(0, 4, size=(500, 3)).astype(float)
        q_g = rng.integers(0, 4, size=(200, 3)).astype(float)
        order_g = linear_scan_oracle(q_g, ref_g)
        for k in (1, 3, 5, 16):
            got = knn_batch(q_g, ref_g, k)
            assert np.array_equal(got, order_g[:, :k])
        for i in range(0, 200, 10):
            assert np.array_equal(order_g[i, :16], brute_knn(q_g[i], ref_g, 16))

    _report(2, "knn exact vs linear-scan oracle, K in {1,3,5,16}", check)


def test_criterion_3_update_module_fidelity():
    def check():
        rng = np.random.default_rng(303)
        cfg_ks = (1, 3, 5)
        # a two-scale cascade step against the brute-force vote oracle
        for trial in range(200):
            grid = 4 if trial % 2 else None
            lower = random_prediction(rng, 1, int(rng.integers(1, 50)), grid=grid)
            upper = random_prediction(rng, 2, int(rng.integers(1, 50)), grid=grid)
            k = cfg_ks[trial % 3]
            got = two_scale(lower, upper, UpdateConfig(k=k))
            want = brute_refine_labels(lower.positions, upper.positions,
                                       upper.labels, k)
            assert np.array_equal(got, want)

        # the cascade equals the literal nested composition for m=3
        for _ in range(50):
            y1 = random_prediction(rng, 1, int(rng.integers(1, 40)))
            y2 = random_prediction(rng, 2, int(rng.integers(1, 40)))
            y3 = random_prediction(rng, 3, int(rng.integers(1, 40)))
            k = 3
            y2_s3 = brute_refine_labels(y2.positions, y3.positions, y3.labels, k)
            y1_s2 = brute_refine_labels(y1.positions, y2.positions, y2.labels, k)
            y1_s3 = brute_refine_labels(y1.positions, y2.positions, y2_s3, k)
            got = arrivals([y1, y2, y3], UpdateConfig(k=k), [])[-1]
            assert np.array_equal(got[0], y1_s3)
            assert np.array_equal(got[1], y2_s3)

        # one table list kept across the arrivals equals a fresh list on
        # each arrival, for 5 scales
        for _ in range(30):
            preds = [random_prediction(rng, s, int(rng.integers(0, 40)))
                     for s in range(1, 6)]
            persistent = arrivals(preds, UpdateConfig(k=5), [])
            fresh = arrivals(preds, UpdateConfig(k=5), None)
            for after_p, after_f in zip(persistent, fresh):
                for a, b in zip(after_p, after_f):
                    assert np.array_equal(a, b)

    _report(3, "update module: cascade steps vs brute-force oracles", check)


def test_criterion_4_accuracy_lift(default_scan):
    def check():
        stream = default_scan
        spec = PartitionSpec(DEFAULT_CUTS)
        timing = TimingModel()
        update = UpdateConfig(k=5)
        wins = 0
        gaps_refined, gaps_unrefined = [], []
        for seed in range(50):
            cfg = PredictorConfig(error_rates=(0.40, 0.30, 0.20, 0.12, 0.05),
                                  seed=seed)
            refined, _ = run_scalable(stream, spec, cfg, update, timing)
            raw, _ = run_scalable(stream, spec, cfg, None, timing)
            base, _ = run_baseline(stream, cfg, timing)
            m_ref = miou(refined[-1])[1]
            m_raw = miou(raw[-1])[1]
            m_base = miou(base)[1]
            if m_ref > m_raw:
                wins += 1
            gaps_refined.append(m_base - m_ref)
            gaps_unrefined.append(m_base - m_raw)
        assert wins >= 48, f"refined beat unrefined in only {wins}/50 seeds"
        assert np.mean(gaps_refined) < np.mean(gaps_unrefined), (
            f"refined gap {np.mean(gaps_refined):.4f} not smaller than "
            f"unrefined gap {np.mean(gaps_unrefined):.4f}")

    _report(4, "accuracy lift: refined beats unrefined in >=95% of 50 seeds "
               "and shrinks the baseline gap", check)


def test_criterion_5_timing_model_correctness():
    def check():
        # closed-form construction: ticks 10/20/30 at 1 s/tick, scales of
        # 192/128/64 points at 2 s + 1/64 s per point (predicts 5/4/3 s),
        # every refine 2 s, fusion on, full overlap
        spec = PartitionSpec((10, 20, 30))
        stream = make_counted_stream(np.random.default_rng(7), (192, 128, 64),
                                     spec.cuts)
        timing = TimingModel(tick_duration=1.0, predict_fixed=2.0,
                             predict_per_point=2**-6, refine_fixed=2.0,
                             refine_per_point=0.0)
        cfg = PredictorConfig(error_rates=(0.3, 0.2, 0.1), seed=0)
        _, tl = run_scalable(stream, spec, cfg, UpdateConfig(k=3), timing)
        expect = {
            (SCALE_START, 1): 10.0, (SCALE_DONE, 1): 15.0,
            (CUMULATIVE_AVAILABLE, 1): 15.0,
            (SCALE_START, 2): 20.0, (SCALE_DONE, 2): 24.0,
            (CUMULATIVE_AVAILABLE, 2): 26.0,
            (SCALE_START, 3): 30.0, (SCALE_DONE, 3): 33.0,
            (CUMULATIVE_AVAILABLE, 3): 37.0,
        }
        instants = {(e.kind, e.scale): e.instant for e in tl.events}
        for (kind, scale), instant in expect.items():
            assert instants[kind, scale] == instant, (kind, scale)

        # speedup / first-prediction formulas on the constructed example:
        # baseline 10 s processing vs 4 s residual -> 60% speedup
        tl_s = Timeline(ready=[30.0], start=[30.0], done=[34.0], avail=[34.0])
        tl_b = (30.0, 40.0)  # the baseline's start and done instants
        lat = latency_metrics(tl_s, tl_b)
        assert lat.speedup == pytest.approx(0.60)
        assert lat.post_acq == 4.0
        assert lat.first_prediction_fraction == pytest.approx(34.0 / 10.0)

        # bound ordering on every run across a grid of timing parameters
        stream2 = make_random_stream(np.random.default_rng(8), 500,
                                     class_count=5, t_max=1000)
        spec2 = PartitionSpec((200, 400, 600, 800, 1000))
        cfg2 = PredictorConfig(seed=1)
        rng = np.random.default_rng(55)
        for _ in range(20):
            tm = TimingModel(
                tick_duration=float(rng.uniform(1e-6, 1e-2)),
                predict_fixed=float(rng.uniform(0, 0.05)),
                predict_per_point=float(rng.uniform(0, 1e-3)),
                refine_fixed=float(rng.uniform(0, 0.01)),
                refine_per_point=float(rng.uniform(0, 1e-5)),
                mode=random_schedule(rng),
            )
            _, tl_i = run_scalable(stream2, spec2, cfg2, UpdateConfig(k=3), tm)
            _, tb_i = run_baseline(stream2, cfg2, tm)
            li = latency_metrics(tl_i, tb_i)
            assert li.post_acq_lower <= li.post_acq + 1e-9
            assert li.post_acq <= li.post_acq_upper + 1e-9

    _report(5, "timing model: closed-form timeline exact, 60% speedup "
               "example, bounds ordered on every run", check)


def test_criterion_6_timing_independence_of_labels():
    def check():
        room = default_room()
        pose = place_cameras(room, seed=0)[0]
        stream = scan(room, pose, LissajousConfig(ticks=12000))
        spec = PartitionSpec((1200, 2600, 4800, 8000, 12000))
        cfg = PredictorConfig(seed=77)
        update = UpdateConfig(k=5)
        rng = np.random.default_rng(606)
        models = [TimingModel(tick_duration=float(rng.uniform(1e-7, 1e-3)),
                              predict_fixed=float(rng.uniform(0, 0.01)),
                              predict_per_point=float(rng.uniform(0, 1e-4)),
                              mode=random_schedule(rng))
                  for _ in range(8)]
        models.append(TimingModel(tick_duration=1e-6, mode="real"))
        models.append(TimingModel(tick_duration=5e-7, mode="real"))
        reference = None
        for tm in models:
            outputs, _ = run_scalable(stream, spec, cfg, update, tm)
            labels = [o.pred_labels.tobytes() for o in outputs]
            if reference is None:
                reference = labels
            else:
                assert labels == reference

    _report(6, "bit-identical labels across 10 timing models incl. the "
               "real concurrent executor", check)


def test_criterion_7_scanner_physical_soundness(default_scan):
    def check():
        room = default_room()
        stream = default_scan
        pos = stream.positions.astype(float)
        labels = stream.labels
        dmin = np.full(len(stream), np.inf)
        label_ok = np.zeros(len(stream), dtype=bool)
        for p in room.primitives:
            lo, hi = p.corners()
            gap = np.maximum(np.maximum(lo - pos, 0.0), pos - hi)
            d = np.linalg.norm(gap, axis=1)
            label_ok |= (d < 1e-6) & (labels == p.label)
            dmin = np.minimum(dmin, d)
        assert dmin.max() < 1e-6
        assert label_ok.all()

        # 10k random ray/box cases vs the slab oracle
        rng = np.random.default_rng(707)
        for _ in range(10_000):
            lo = rng.uniform(-5, 4, size=3)
            hi = lo + rng.uniform(0.1, 5, size=3)
            if rng.random() < 0.3:
                axis = int(rng.integers(3))
                hi[axis] = lo[axis]  # rectangle case
            origin = rng.uniform(-8, 8, size=3)
            if rng.random() < 0.6:
                direction = unit(rng.uniform(lo, hi) - origin + rng.normal(scale=0.4, size=3))
            else:
                direction = unit(rng.normal(size=3))
            got = slab_distances(origin, direction[None], lo, hi)[0]
            want = slab_oracle(origin, direction, lo, hi)
            if want is None:
                assert got == np.inf
            else:
                assert abs(got - want) < 1e-9

        # coverage: non-decreasing, and early completeness above the frozen
        # regression constant (measured 1.0 at first build, expected > 0.5)
        curve = dict(coverage_curve(stream, (0, 300, 1000, 2000, 15000, 65535), 16))
        values = list(curve.values())
        assert all(b >= a for a, b in zip(values, values[1:]))
        ratio = curve[2000] / curve[65535]
        assert ratio > 0.95

    _report(7, "scanner soundness: on-surface points, slab oracle x10k, "
               "coverage regression", check)


def test_criterion_8_metric_fidelity():
    def check():
        from test_metrics import make_output
        per_class, m = miou(make_output([0, 0, 1, 1], [0, 1, 1, 1], 2))
        assert per_class[0] == 0.5
        assert per_class[1] == pytest.approx(2 / 3, rel=1e-15)
        assert m == pytest.approx(7 / 12, rel=1e-15)

        rng = np.random.default_rng(808)
        gt = rng.integers(0, 6, size=500)
        pred = rng.integers(0, 6, size=500)
        _, base = miou(make_output(gt, pred, 6))
        for _ in range(100):
            perm = rng.permutation(500)
            _, shuffled = miou(make_output(gt[perm], pred[perm], 6))
            assert shuffled == base

    _report(8, "metric fidelity: 7/12 hand case exact, permutation-invariant "
               "over 100 shuffles", check)


def test_criterion_9_serialization():
    def check():
        rng = np.random.default_rng(909)
        for _ in range(100):
            stream = make_random_stream(rng, int(rng.integers(0, 300)),
                                        with_label_map=bool(rng.integers(2)))
            buf = io.BytesIO()
            write_stream(stream, buf)
            data = buf.getvalue()
            assert read_stream(data) == stream
            buf2 = io.BytesIO()
            write_stream(read_stream(data), buf2)
            assert buf2.getvalue() == data  # byte-exact round trip

        stream = make_random_stream(rng, 10, with_label_map=True)
        buf = io.BytesIO()
        write_stream(stream, buf)
        data = buf.getvalue()
        for cut in range(len(data)):
            try:
                read_stream(data[:cut])
            except Exception as exc:
                from scalestream import StreamFormatError
                assert isinstance(exc, StreamFormatError)
            else:
                raise AssertionError(f"truncation at {cut} parsed")

    _report(9, "serialization: byte-exact round trip x100, truncation fuzz "
               "never yields a partial parse", check)
