import numpy as np
import pytest

from scalestream import LabelMap, PointStream, default_room, place_cameras


def make_random_stream(rng: np.random.Generator, n: int, class_count: int = 11,
                       with_label_map: bool = False, t_max: int = 100000) -> PointStream:
    positions = rng.uniform(-10, 10, size=(n, 3)).astype(np.float32)
    labels = rng.integers(0, class_count, size=n)
    timestamps = np.sort(rng.integers(0, t_max, size=n))
    label_map = None
    if with_label_map:
        label_map = LabelMap(tuple(f"c{i}" for i in range(class_count)))
    meta = {"origin": "test", "n": str(n)} if rng.random() < 0.5 else None
    return PointStream(positions, labels, timestamps, class_count, label_map, meta)


def make_counted_stream(rng: np.random.Generator, counts, cuts,
                        class_count: int = 5) -> PointStream:
    """A random stream whose scale ``i`` holds exactly ``counts[i-1]``
    points, with timestamps drawn from ``(cuts[i-2], cuts[i-1]]``."""
    lows = (-1, *cuts[:-1])
    timestamps = np.sort(np.concatenate([
        rng.integers(lo + 1, hi + 1, size=n)
        for lo, hi, n in zip(lows, cuts, counts)]))
    base = make_random_stream(rng, len(timestamps), class_count)
    return PointStream(base.positions, base.labels, timestamps, class_count)


@pytest.fixture(scope="session")
def room():
    return default_room()


@pytest.fixture(scope="session")
def default_pose(room):
    return place_cameras(room, seed=0)[0]
