import numpy as np
import pytest

from scalestream import (AssembleError, PartitionSpec, PredictorConfig,
                         ScalePrediction, UpdateConfig, assemble, cascade_step,
                         cumulative_csv, partition, predict)

from conftest import make_random_stream


def predictions_at_level(stream, spec, seed=0, level=None):
    parts = partition(stream, spec)
    preds = []
    ctx = None
    for p in parts:
        labels, ctx = predict(p, ctx, PredictorConfig(seed=seed,
                                                      error_rates=(0.3,) * len(spec.cuts)),
                              class_count=stream.class_count)
        preds.append(ScalePrediction(p.scale, p.positions, labels, p.scale))
    return parts, preds


def test_single_scale_is_that_prediction():
    rng = np.random.default_rng(1)
    stream = make_random_stream(rng, 100, t_max=500)
    spec = PartitionSpec((500,))
    parts, preds = predictions_at_level(stream, spec)
    out = assemble(stream, parts[:1], preds[0].labels)
    assert np.array_equal(out.pred_labels, preds[0].labels)
    assert np.array_equal(out.gt_labels, stream.labels)
    assert out.scale == 1


def test_perfect_predictions_reproduce_stream_labels():
    rng = np.random.default_rng(2)
    stream = make_random_stream(rng, 200, t_max=999)
    spec = PartitionSpec((300, 600, 999))
    parts = partition(stream, spec)
    preds = [ScalePrediction(p.scale, p.positions, p.labels.copy(), 3)
             for p in parts]
    out = assemble(stream, parts, np.concatenate([p.labels for p in preds]))
    assert np.array_equal(out.pred_labels, stream.labels)
    assert np.array_equal(out.positions, stream.positions)


def test_cumulative_cardinality_matches_prefix_counts():
    rng = np.random.default_rng(3)
    stream = make_random_stream(rng, 500, t_max=2000)
    spec = PartitionSpec((100, 400, 900, 1500, 2000))
    parts, raw = predictions_at_level(stream, spec)
    cfg = UpdateConfig(k=3)
    state = []
    for i, p in enumerate(raw, start=1):
        state = cascade_step(state, p, cfg)
        out = assemble(stream, parts[:i],
                       np.concatenate([p.labels for p in state]))
        want = int(np.sum(stream.timestamps <= spec.cuts[i - 1]))
        assert len(out) == want
        assert np.array_equal(out.timestamps, stream.timestamps[:want])
        # origin scales count back to partition sizes
        for j in range(1, i + 1):
            assert int(np.sum(out.origin_scales == j)) == parts[j - 1].count


def test_cardinality_mismatch_rejected():
    rng = np.random.default_rng(5)
    stream = make_random_stream(rng, 60, t_max=500)
    spec = PartitionSpec((200, 500))
    parts, _ = predictions_at_level(stream, spec)
    with pytest.raises(AssembleError, match="labels"):
        assemble(stream, parts[:1], np.array([0]))


def test_csv_layout():
    rng = np.random.default_rng(6)
    stream = make_random_stream(rng, 10, t_max=100)
    spec = PartitionSpec((100,))
    parts, preds = predictions_at_level(stream, spec)
    out = assemble(stream, parts, preds[0].labels)
    lines = cumulative_csv(out).splitlines()
    assert lines[0] == "x,y,z,t,origin_scale,pred,gt"
    assert len(lines) == 11
    cells = lines[1].split(",")
    assert len(cells) == 7
    assert np.float32(cells[0]) == stream.positions[0, 0]
