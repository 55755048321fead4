import numpy as np
import pytest

from scalestream import (CumulativeOutput, Partition, PartitionSpec,
                         PointStream, PredictorConfig, PredictorError, assemble,
                         make_seed_cloud, partition, predict, predict_full)
from scalestream.predictors import DEFAULT_ERROR_RATES

from conftest import make_counted_stream


def make_partition(rng, scale, n, classes=11):
    pos = rng.uniform(-2, 2, size=(n, 3))
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    ts = np.sort(rng.integers(0, 1000, size=n))
    return Partition(scale, pos, labels, ts)


def test_default_rates_decrease():
    assert DEFAULT_ERROR_RATES == (0.40, 0.30, 0.20, 0.12, 0.05)
    assert all(b < a for a, b in zip(DEFAULT_ERROR_RATES, DEFAULT_ERROR_RATES[1:]))


def test_zero_error_rate_is_ground_truth():
    rng = np.random.default_rng(0)
    part = make_partition(rng, 1, 500)
    cfg = PredictorConfig(error_rates=(0.0,), seed=1)
    labels, ctx = predict(part, None, cfg, class_count=11)
    assert np.array_equal(labels, part.labels)
    assert len(ctx) == 500


def test_full_error_rate_never_matches_ground_truth():
    rng = np.random.default_rng(1)
    part = make_partition(rng, 1, 1000)
    cfg = PredictorConfig(error_rates=(1.0,), seed=3)
    labels, _ = predict(part, None, cfg, class_count=11)
    assert not np.any(labels == part.labels)
    assert labels.min() >= 0 and labels.max() < 11


def test_error_rate_converges():
    # binomial 5-sigma bound: p=0.3 over 100k points
    rng = np.random.default_rng(2)
    part = make_partition(rng, 1, 100_000)
    cfg = PredictorConfig(error_rates=(0.3,), seed=7)
    labels, _ = predict(part, None, cfg, class_count=11)
    acc = float(np.mean(labels == part.labels))
    assert 0.69 <= acc <= 0.71


def test_deterministic_per_seed_and_scale():
    rng = np.random.default_rng(3)
    part1 = make_partition(rng, 1, 200)
    cfg = PredictorConfig(seed=42)
    a, _ = predict(part1, None, cfg, class_count=11)
    b, _ = predict(part1, None, cfg, class_count=11)
    assert np.array_equal(a, b)
    # a different scale draws from a different stream
    part2 = Partition(2, part1.positions, part1.labels, part1.timestamps)
    c, _ = predict(part2, None, PredictorConfig(seed=42, error_rates=(0.4, 0.4)),
                   class_count=11)
    assert not np.array_equal(a, c)


def test_missing_rate_for_scale_errors():
    rng = np.random.default_rng(4)
    part = make_partition(rng, 3, 10)
    with pytest.raises(PredictorError, match="scale 3"):
        predict(part, None, PredictorConfig(error_rates=(0.1, 0.2)), class_count=11)


def test_empty_partition_gives_empty_labels():
    part = Partition(1, np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                     np.zeros(0, dtype=np.int64))
    labels, ctx = predict(part, None, PredictorConfig(), class_count=11)
    assert len(labels) == 0 and len(ctx) == 0


def test_context_accumulates():
    """The second value is the labels of scales 1..i: the previous output's
    labels, then this scale's, in an array that shares no memory with it."""
    rng = np.random.default_rng(5)
    stream = make_counted_stream(rng, (50, 70), (100, 200), class_count=11)
    p1, p2 = partition(stream, PartitionSpec((100, 200)))
    cfg = PredictorConfig(seed=0)
    _, labels1 = predict(p1, None, cfg, class_count=11)
    prev = assemble(stream, [p1], labels1)
    labels2, cumulative = predict(p2, prev, cfg, class_count=11)
    assert len(cumulative) == 120
    assert np.array_equal(cumulative[:50], prev.pred_labels)
    assert np.array_equal(cumulative[50:], labels2)
    assert not np.shares_memory(cumulative, prev.pred_labels)


def test_seeded_knn_votes_from_reference():
    # left half labeled 0, right half labeled 1
    ref_pos = np.array([[-1.0, 0, 0], [-1.1, 0, 0], [1.0, 0, 0], [1.1, 0, 0]])
    ref = PointStream(ref_pos, [0, 0, 1, 1], np.zeros(4), class_count=2)
    rng = np.random.default_rng(6)
    part = make_partition(rng, 1, 40, classes=2)
    part.positions[:20, 0] = -np.abs(part.positions[:20, 0]) - 0.5
    part.positions[20:, 0] = np.abs(part.positions[20:, 0]) + 0.5
    cfg = PredictorConfig(variant="seeded-knn", k_cls=2, seed_cloud=ref)
    labels, _ = predict(part, None, cfg, class_count=2)
    assert np.array_equal(labels[:20], np.zeros(20))
    assert np.array_equal(labels[20:], np.ones(20))


def output_at_origin(count, label):
    """A cumulative output of ``count`` points at the origin, all ``label``."""
    return CumulativeOutput(1, np.zeros((count, 3)), np.full(count, label),
                            np.zeros(count, dtype=np.int64), (0, count),
                            np.zeros(count, dtype=np.int64), class_count=11)


def test_seeded_knn_uses_ctx_when_present():
    """Scale 2 votes against the previous output, and against the seed cloud
    only when that output is empty."""
    ref = PointStream(np.zeros((1, 3)), [3], [0], class_count=11)
    part = Partition(2, np.array([[0.1, 0, 0]]),
                     np.array([0], dtype=np.int64), np.array([1]))
    cfg = PredictorConfig(variant="seeded-knn", k_cls=1, seed_cloud=ref)
    labels, _ = predict(part, output_at_origin(1, 5), cfg, class_count=11)
    assert labels.tolist() == [5]
    labels, _ = predict(part, output_at_origin(0, 5), cfg, class_count=11)
    assert labels.tolist() == [3]


def test_seeded_knn_empty_reference_errors():
    part = Partition(1, np.array([[0.0, 0, 0]]),
                     np.array([0], dtype=np.int64), np.array([1]))
    cfg = PredictorConfig(variant="seeded-knn")
    with pytest.raises(PredictorError, match="reference"):
        predict(part, None, cfg, class_count=11)


def test_predict_full_uses_final_rate():
    rng = np.random.default_rng(7)
    gt = rng.integers(0, 11, size=50_000)
    pos = rng.uniform(size=(50_000, 3))
    cfg = PredictorConfig(error_rates=(0.9, 0.05), seed=9)
    labels = predict_full(pos, gt, cfg, class_count=11)
    acc = float(np.mean(labels == gt))
    assert 0.93 <= acc <= 0.97


def test_predict_full_is_one_partition_over_the_stream():
    """Seeded-knn's baseline labels equal those of one scale-1 partition
    that covers the whole stream, predicted without a previous output."""
    rng = np.random.default_rng(9)
    stream = make_counted_stream(rng, (300,), (1000,), class_count=7)
    cfg = PredictorConfig(variant="seeded-knn", k_cls=3,
                          seed_cloud=make_seed_cloud(stream, 0.1, seed=1))
    (whole,) = partition(stream, PartitionSpec((1000,)))
    labels, _ = predict(whole, None, cfg, class_count=7)
    assert np.array_equal(predict_full(stream.positions, stream.labels, cfg, 7),
                          labels)


def test_make_seed_cloud():
    rng = np.random.default_rng(8)
    stream = PointStream(rng.uniform(size=(1000, 3)), rng.integers(0, 5, size=1000),
                         np.arange(1000), class_count=5)
    cloud = make_seed_cloud(stream, fraction=0.1, seed=4)
    assert len(cloud) == 100 and cloud.class_count == 5
    # rows of the stream, in stream order (each timestamp is its index)
    idx = cloud.timestamps
    assert np.all(np.diff(idx) > 0)
    assert np.array_equal(cloud.positions, stream.positions[idx])
    assert np.array_equal(cloud.labels, stream.labels[idx])
    again = make_seed_cloud(stream, fraction=0.1, seed=4)
    assert np.array_equal(again.timestamps, idx)
    with pytest.raises(PredictorError):
        make_seed_cloud(stream, fraction=0.0, seed=4)


def test_config_validation():
    with pytest.raises(PredictorError):
        PredictorConfig(variant="magic")
    with pytest.raises(PredictorError):
        PredictorConfig(error_rates=(0.5, 1.5))
    with pytest.raises(PredictorError):
        PredictorConfig(k_cls=0)
