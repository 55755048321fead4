import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalestream import (AssembleError, PartitionSpec, PointStream,
                         PredictorConfig, TimingModel,
                         UpdateConfig, assemble, cascade_step, cumulative_csv,
                         partition, predict, run_scalable)
from scalestream.assemble import row_heads
from scalestream.stream import format_rows

from conftest import make_random_stream


def raw_predictions(stream, spec, seed=0):
    parts = partition(stream, spec)
    cfg = PredictorConfig(seed=seed, error_rates=(0.3,) * len(spec.cuts))
    raw, prev = [], None
    for i, p in enumerate(parts, start=1):
        labels, cumulative = predict(p, prev, cfg, class_count=stream.class_count)
        raw.append(labels)
        prev = assemble(stream, parts[:i], cumulative)
    return parts, raw


def test_single_scale_is_that_prediction():
    rng = np.random.default_rng(1)
    stream = make_random_stream(rng, 100, t_max=500)
    spec = PartitionSpec((500,))
    parts, raw = raw_predictions(stream, spec)
    out = assemble(stream, parts[:1], raw[0])
    assert np.array_equal(out.pred_labels, raw[0])
    assert np.array_equal(out.gt_labels, stream.labels)
    assert out.scale == 1


def test_perfect_predictions_reproduce_stream_labels():
    rng = np.random.default_rng(2)
    stream = make_random_stream(rng, 200, t_max=999)
    spec = PartitionSpec((300, 600, 999))
    parts = partition(stream, spec)
    out = assemble(stream, parts, np.concatenate([p.labels for p in parts]))
    assert np.array_equal(out.pred_labels, stream.labels)
    assert np.array_equal(out.positions, stream.positions)


def test_cumulative_cardinality_matches_prefix_counts():
    rng = np.random.default_rng(3)
    stream = make_random_stream(rng, 500, t_max=2000)
    spec = PartitionSpec((100, 400, 900, 1500, 2000))
    parts, raw = raw_predictions(stream, spec)
    cfg = UpdateConfig(k=3)
    labels, tables = np.zeros(0, dtype=np.int64), []
    for i, p in enumerate(parts, start=1):
        labels = np.concatenate([labels, raw[i - 1]])
        cascade_step(parts[:i - 1], p, labels, cfg, tables)
        out = assemble(stream, parts[:i], labels)
        want = int(np.sum(stream.timestamps <= spec.cuts[i - 1]))
        assert len(out) == want
        assert np.array_equal(out.timestamps, stream.timestamps[:want])
        # origin scales count back to partition sizes
        for j in range(1, i + 1):
            assert int(np.sum(out.origin_scales == j)) == len(parts[j - 1])


def test_cardinality_mismatch_rejected():
    rng = np.random.default_rng(5)
    stream = make_random_stream(rng, 60, t_max=500)
    spec = PartitionSpec((200, 500))
    parts, _ = raw_predictions(stream, spec)
    with pytest.raises(AssembleError, match="labels"):
        assemble(stream, parts[:1], np.array([0]))


def test_csv_layout():
    rng = np.random.default_rng(6)
    stream = make_random_stream(rng, 10, t_max=100)
    spec = PartitionSpec((100,))
    parts, raw = raw_predictions(stream, spec)
    out = assemble(stream, parts, raw[0])
    lines = cumulative_csv(out, row_heads(out)).splitlines()
    assert lines[0] == "x,y,z,t,origin_scale,pred,gt"
    assert len(lines) == 11
    cells = lines[1].split(",")
    assert len(cells) == 7
    assert np.float32(cells[0]) == stream.positions[0, 0]


def reference_fmt(v) -> str:
    return np.format_float_positional(v, trim="-")


def reference_csv(output) -> str:
    """The per-point loop ``cumulative_csv`` ran before it shared row heads."""
    lines = ["x,y,z,t,origin_scale,pred,gt"]
    pos = output.positions
    for r in range(len(output)):
        coords = ",".join(reference_fmt(pos[r, a]) for a in range(3))
        lines.append(f"{coords},{int(output.timestamps[r])},"
                     f"{int(output.origin_scales[r])},"
                     f"{int(output.pred_labels[r])},{int(output.gt_labels[r])}")
    return "\n".join(lines) + "\n"


EDGE_COORDS = np.array([-0.0, 0.0, 1e-5, 9.99e-5, 1e-4, 123456.0, 1e16,
                        np.float32(1e-45), np.finfo(np.float32).max],
                       dtype=np.float32)


def test_csv_matches_reference_loop_on_every_scale():
    """Row heads shared from the final output give, on every scale, the
    bytes of the per-point loop; scale 1 is empty and renders the header."""
    rng = np.random.default_rng(8)
    n = 600
    positions = (rng.uniform(-1, 1, size=(n, 3))
                 * 10.0 ** rng.integers(-6, 18, size=(n, 3))).astype(np.float32)
    edges = np.concatenate([EDGE_COORDS, -EDGE_COORDS])
    rows = rng.choice(n, size=len(edges), replace=False)
    for a in range(3):
        positions[rows, a] = np.roll(edges, a)
    stream = PointStream(positions, rng.integers(0, 11, size=n),
                         np.sort(rng.integers(10, 5000, size=n)), class_count=11)
    spec = PartitionSpec((5, 400, 1500, 3000, 5000))
    outputs, _ = run_scalable(stream, spec,
                              PredictorConfig(seed=3, error_rates=(0.4,) * 5),
                              UpdateConfig(k=3), TimingModel())
    heads = row_heads(outputs[-1])
    assert len(outputs[0]) == 0
    assert cumulative_csv(outputs[0], heads) == "x,y,z,t,origin_scale,pred,gt\n"
    for out in outputs:
        want = reference_csv(out)
        assert cumulative_csv(out, row_heads(out)) == want
        assert cumulative_csv(out, heads) == want


def test_csv_with_uint16_class_ids():
    rng = np.random.default_rng(10)
    n = 50
    stream = PointStream(rng.uniform(-1, 1, size=(n, 3)),
                         rng.integers(0, 65535, size=n), np.arange(n),
                         class_count=65535)
    out = assemble(stream, partition(stream, PartitionSpec((n,))),
                   stream.labels[::-1].copy())
    assert cumulative_csv(out, row_heads(out)) == reference_csv(out)


def test_csv_rejects_too_few_heads():
    rng = np.random.default_rng(9)
    stream = make_random_stream(rng, 20, t_max=100)
    parts, raw = raw_predictions(stream, PartitionSpec((100,)))
    out = assemble(stream, parts, raw[0])
    with pytest.raises(AssembleError, match="row heads"):
        cumulative_csv(out, row_heads(out)[:-1])


float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(float32s, float32s, float32s), min_size=1,
                max_size=40))
def test_csv_rows_match_reference_and_parse_back(coords):
    """The CSV writer and the row formatter under it format any finite
    float32 as the reference does, and the text parses back to the same
    float32 bits."""
    positions = np.array(coords, dtype=np.float32)
    n = len(positions)
    stream = PointStream(positions, np.arange(n) % 3, np.arange(n),
                         class_count=3)
    out = assemble(stream, partition(stream, PartitionSpec((n,))),
                   stream.labels)
    csv_rows = cumulative_csv(out, row_heads(out)).splitlines()[1:]
    stream_rows = list(format_rows("{},{},{}", positions))
    for i, (csv_row, stream_row) in enumerate(zip(csv_rows, stream_rows,
                                                  strict=True)):
        want = [reference_fmt(v) for v in positions[i]]
        assert csv_row.split(",")[:3] == want
        assert stream_row.split(",")[:3] == want
        parsed = np.array([np.float32(c) for c in want], dtype=np.float32)
        assert parsed.tobytes() == positions[i].tobytes()
