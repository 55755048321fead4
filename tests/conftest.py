import numpy as np
import pytest
from hypothesis import strategies as st

import scalestream.pipeline as pipeline
import scalestream.predictors as predictors
import scalestream.update as update
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


def random_schedule(rng: np.random.Generator) -> str:
    """A simulated ``TimingModel.mode`` from two coin flips: serial or
    overlapped, then, when overlapped, fused with the previous scale or
    not."""
    serial, fused = int(rng.integers(2)), int(rng.integers(2))
    return "sim-serial" if serial else ("sim" if fused else "sim-unfused")


def old_event_list(timeline: dict) -> list[dict]:
    """The events of a timeline's dict form in the layout that kept each
    refinement as an event naming its scale and arrival: arrival ``i``'s
    refinements of scales ``i-1, ..., 1`` follow ``scale_done(i)``."""
    events, ends = [], iter(timeline["refine_done"])
    for e in timeline["events"]:
        events.append(e)
        if e["kind"] == "scale_done" and timeline["refine_done"]:
            events += [{"kind": "refine_done", "scale": j, "instant": next(ends),
                        "arrival": e["scale"]} for j in range(e["scale"] - 1, 0, -1)]
    assert next(ends, None) is None
    return events


def mutate_one_line(data: st.DataObject, text: str, tokens) -> str:
    """``text`` with one line dropped, repeated or moved, or with one of
    ``tokens`` put in place of, or before, one of its tokens."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    op = data.draw(st.sampled_from(["drop", "repeat", "move", "replace", "insert"]),
                   label="op")
    if op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, lines[i])
    elif op == "move":
        lines.insert(data.draw(st.integers(0, len(lines) - 1), label="to"),
                     lines.pop(i))
    else:
        words = lines[i].split()
        j = data.draw(st.integers(0, max(len(words) - (op == "replace"), 0)),
                      label="token")
        words[j:j + (op == "replace")] = [data.draw(st.sampled_from(tokens),
                                                    label="with")]
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def room():
    return default_room()


@pytest.fixture(scope="session")
def default_pose(room):
    return place_cameras(room, seed=0)[0]


@pytest.fixture
def label_calls(monkeypatch):
    """Counts the scale predictions and the neighbour searches, those of the
    seeded-knn predictor and those of the update cascade alike."""
    calls = {"predict": 0, "knn_batch": 0}

    def counted(module, name):
        real = getattr(module, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, spy)

    counted(pipeline, "predict")
    counted(update, "knn_batch")
    counted(predictors, "knn_batch")
    return calls
