import numpy as np
import pytest

from scalestream import (DEFAULT_CUTS, LissajousConfig, PartitionError,
                         PartitionSpec, PointStream, partition, scan)

from conftest import make_random_stream


def brute_force_split(stream, cuts):
    """Independent per-point interval filter."""
    buckets = [[] for _ in cuts]
    for i, t in enumerate(stream.timestamps):
        for s, cut in enumerate(cuts):
            lo = -1 if s == 0 else cuts[s - 1]
            if lo < t <= cut:
                buckets[s].append(i)
                break
    return buckets


def test_default_spec_is_paper_cuts():
    spec = PartitionSpec(DEFAULT_CUTS)
    assert spec.cuts == (2000, 6000, 15000, 35000, 65536)
    assert all(b > a for a, b in zip(spec.cuts, spec.cuts[1:]))


def test_five_partitions_on_full_scan(room, default_pose):
    stream = scan(room, default_pose, LissajousConfig())
    parts = partition(stream, PartitionSpec(DEFAULT_CUTS))
    assert len(parts) == 5
    assert sum(len(p) for p in parts) == len(stream)
    # increasing cardinality with interval length, as for a real scan
    assert all(len(parts[i]) < len(parts[i + 1]) for i in range(4))


def test_empty_stream_gives_empty_partitions():
    stream = PointStream(np.zeros((0, 3)), [], [], class_count=3)
    parts = partition(stream, PartitionSpec((10, 20, 30)))
    assert len(parts) == 3
    assert all(len(p) == 0 for p in parts)


def test_cut_timestamp_belongs_to_exactly_one_partition():
    ts = [0, 5, 10, 10, 11, 20, 25]
    stream = PointStream(np.zeros((7, 3)), [0] * 7, ts, class_count=1)
    spec = PartitionSpec((10, 20, 30))
    parts = partition(stream, spec)
    assert parts[0].timestamps.tolist() == [0, 5, 10, 10]   # t=10 in scale 1
    assert parts[1].timestamps.tolist() == [11, 20]          # t=20 in scale 2
    assert parts[2].timestamps.tolist() == [25]
    assert spec.interval(1) == (-1, 10)
    assert spec.interval(2) == (10, 20)


def test_short_spec_reports_dropped_points():
    stream = PointStream(np.zeros((4, 3)), [0] * 4, [1, 2, 50, 60], class_count=1)
    with pytest.raises(PartitionError, match="2 points"):
        partition(stream, PartitionSpec((10, 40)))


def test_spec_validation():
    with pytest.raises(PartitionError):
        PartitionSpec(())
    with pytest.raises(PartitionError):
        PartitionSpec((5, 5))
    with pytest.raises(PartitionError):
        PartitionSpec((10, 5))
    # a timestamp is never negative, so neither is a cut
    with pytest.raises(PartitionError, match="non-negative"):
        PartitionSpec((-5, 8000))


def test_random_streams_lossless_and_match_oracle():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(0, 120))
        stream = make_random_stream(rng, n, class_count=4, t_max=1000)
        k = int(rng.integers(1, 6))
        cuts = np.sort(rng.choice(np.arange(1, 1200), size=k, replace=False))
        cuts[-1] = max(cuts[-1], stream.max_timestamp)
        spec = PartitionSpec(tuple(int(c) for c in cuts))
        parts = partition(stream, spec)

        # concatenation equals the stream, order preserved
        if n:
            cat_t = np.concatenate([p.timestamps for p in parts])
            cat_p = np.concatenate([p.positions for p in parts])
            assert np.array_equal(cat_t, stream.timestamps)
            assert np.array_equal(cat_p, stream.positions)
        # brute-force interval filter agrees
        want = brute_force_split(stream, spec.cuts)
        for p, idx in zip(parts, want):
            assert len(p) == len(idx)
            assert np.array_equal(p.timestamps, stream.timestamps[idx])
        # every point inside its interval
        for p in parts:
            if len(p):
                lo, hi = spec.interval(p.scale)
                assert p.timestamps.min() > lo and p.timestamps.max() <= hi


def test_partitions_are_consecutive_stream_slices():
    rng = np.random.default_rng(77)
    stream = make_random_stream(rng, 300, t_max=500)
    parts = partition(stream, PartitionSpec((100, 200, 500)))
    start = 0
    for p in parts:
        end = start + len(p)
        for got, whole in ((p.positions, stream.positions),
                           (p.labels, stream.labels),
                           (p.timestamps, stream.timestamps)):
            assert np.array_equal(got, whole[start:end])
            assert np.shares_memory(got, whole)  # a view, not a copy
        start = end
    assert start == len(stream)
