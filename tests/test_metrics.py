import tracemalloc

import numpy as np
import pytest

from scalestream import (CumulativeOutput, LissajousConfig, MetricsError,
                         cost_of_scalability, coverage_curve, miou,
                         miou_by_origin, scan)


def make_output(gt, pred, class_count, bounds=None):
    n = len(gt)
    bounds = (0, n) if bounds is None else tuple(bounds)
    return CumulativeOutput(
        scale=len(bounds) - 1,
        positions=np.zeros((n, 3), dtype=np.float32),
        pred_labels=np.asarray(pred, dtype=np.int64),
        gt_labels=np.asarray(gt, dtype=np.int64),
        bounds=bounds,
        timestamps=np.arange(n, dtype=np.int64),
        class_count=class_count,
    )


def brute_iou(gt, pred, class_count):
    """Set-based per-class IoU, independent of the confusion-matrix path."""
    out = {}
    for c in range(class_count):
        p = {i for i, v in enumerate(pred) if v == c}
        g = {i for i, v in enumerate(gt) if v == c}
        union = p | g
        if union:
            out[c] = len(p & g) / len(union)
    return out


def test_perfect_predictions():
    gt = [0, 1, 2, 1, 0]
    per_class, m = miou(make_output(gt, gt, 3))
    assert m == 1.0
    assert all(per_class[c] == 1.0 for c in (0, 1, 2))


def test_hand_computed_seven_twelfths():
    # gt [A,A,B,B], pred [A,B,B,B]: IoU_A = 1/2, IoU_B = 2/3, mIoU = 7/12
    per_class, m = miou(make_output([0, 0, 1, 1], [0, 1, 1, 1], 2))
    assert per_class[0] == pytest.approx(0.5, abs=0)
    assert per_class[1] == pytest.approx(2 / 3, rel=1e-15)
    assert m == pytest.approx(7 / 12, rel=1e-15)


def test_single_class_scene():
    per_class, m = miou(make_output([3, 3, 3], [3, 3, 3], 11))
    assert m == 1.0
    included = ~np.isnan(per_class)
    assert included.sum() == 1 and included[3]


def test_zero_union_classes_excluded():
    # class 2 never appears on either side
    per_class, m = miou(make_output([0, 1], [1, 0], 3))
    assert np.isnan(per_class[2])
    assert m == 0.0


def test_empty_output_errors():
    with pytest.raises(MetricsError):
        miou(make_output([], [], 3))


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    gt = rng.integers(0, 5, size=300)
    pred = rng.integers(0, 5, size=300)
    _, base = miou(make_output(gt, pred, 5))
    for _ in range(100):
        perm = rng.permutation(300)
        _, m = miou(make_output(gt[perm], pred[perm], 5))
        assert m == base


def test_matches_brute_force_set_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 80))
        gt = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        per_class, m = miou(make_output(gt, pred, c))
        want = brute_iou(gt.tolist(), pred.tolist(), c)
        for cls, v in want.items():
            assert per_class[cls] == pytest.approx(v, rel=1e-12)
        assert m == pytest.approx(np.mean(list(want.values())), rel=1e-12)


def test_miou_of_asymmetric_counts_hand_computed():
    # ground truth counts 3, 2, 1 per class, predictions 2, 2, 2: each union
    # needs both; IoU = 2/3, 1/3, 1/2 either way round
    gt, pred = [0, 0, 0, 1, 1, 2], [0, 0, 1, 1, 2, 2]
    for a, b in ((gt, pred), (pred, gt)):
        per_class, m = miou(make_output(a, b, 3))
        assert per_class.tolist() == [2 / 3, 1 / 3, 1 / 2]
        assert m == pytest.approx(0.5, rel=1e-15)


def test_iou_memory_is_linear_in_the_class_count():
    """65,535 classes, the stream format's limit, with labels near the top:
    the counts take a few length-C arrays, under 8 MB (a C x C table took
    32 GiB), and the classes present score as they do numbered from 0."""
    c = 65535
    rng = np.random.default_rng(5)
    gt = rng.integers(0, 4, size=1000)
    pred = np.where(rng.random(1000) < 0.3, rng.integers(0, 4, size=1000), gt)
    tracemalloc.start()
    try:
        per_class, m = miou(make_output(gt + c - 4, pred + c - 4, c))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    low_per_class, low_m = miou(make_output(gt, pred, 4))
    assert np.isnan(per_class[:c - 4]).all()
    assert per_class[c - 4:].tolist() == low_per_class.tolist()
    assert m == low_m


def test_miou_by_origin():
    out = make_output([0, 0, 1, 1], [0, 1, 1, 1], 2, bounds=(0, 2, 4))
    by = miou_by_origin(out)
    assert by[1] == pytest.approx(0.25)  # IoU_A=1/2, IoU_B=0 within scale 1
    assert by[2] == 1.0


def test_miou_by_origin_skips_an_empty_scale():
    out = make_output([0, 0, 1, 1], [0, 1, 1, 1], 2, bounds=(0, 2, 2, 4))
    assert miou_by_origin(out) == {1: pytest.approx(0.25), 3: 1.0}


def test_miou_by_origin_matches_the_mask_definition():
    """On random bounds, empty scales among them, each scale's entry is the
    mIoU of the points whose origin scale is that scale, selected by mask
    from a per-point origin array, and the keys come in the same order."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, k = int(rng.integers(1, 200)), int(rng.integers(1, 12))
        bounds = (0, *np.sort(rng.integers(0, n + 1, size=k - 1)).tolist(), n)
        gt = rng.integers(0, 5, size=n)
        pred = np.where(rng.random(n) < 0.3, rng.integers(0, 5, size=n), gt)
        origins = np.repeat(np.arange(1, k + 1), np.diff(bounds))
        want = {int(s): miou(make_output(gt[origins == s], pred[origins == s], 5))[1]
                for s in np.unique(origins)}
        got = miou_by_origin(make_output(gt, pred, 5, bounds))
        assert list(got.items()) == list(want.items())


def test_cost_of_scalability():
    assert cost_of_scalability(0.70, 0.698) == pytest.approx(0.2, abs=1e-9)
    assert cost_of_scalability(0.5, 0.5) == 0.0
    assert cost_of_scalability(0.65, 0.67) == pytest.approx(-2.0, abs=1e-9)
    with pytest.raises(MetricsError):
        cost_of_scalability(1.2, 0.5)


def test_coverage_basics(room, default_pose):
    stream = scan(room, default_pose, LissajousConfig(ticks=8000))
    assert coverage_curve(stream, [-1, stream.max_timestamp], 16) == [
        (-1, 0.0), (stream.max_timestamp, 1.0)]
    ticks = [0, 100, 400, 1000, 4000, 7999]
    curve = coverage_curve(stream, ticks, 16)
    assert [t for t, _ in curve] == ticks
    values = [c for _, c in curve]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_coverage_regression_constant(room, default_pose):
    """Frozen at first build: the default room scan covers its full 16x16
    angular grid by tick 2000 (measured value 1.0)."""
    stream = scan(room, default_pose, LissajousConfig())
    assert coverage_curve(stream, [2000], 16)[0][1] > 0.99


def test_coverage_requires_scanner_meta():
    from conftest import make_random_stream
    stream = make_random_stream(np.random.default_rng(0), 10)
    with pytest.raises(ValueError, match="meta"):
        coverage_curve(stream, [5], 4)


def test_coverage_grid_validation(room, default_pose):
    stream = scan(room, default_pose, LissajousConfig(ticks=100))
    with pytest.raises(MetricsError):
        coverage_curve(stream, [5], 0)
