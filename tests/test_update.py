import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scalestream import (LissajousConfig, Partition, UpdateConfig, UpdateError,
                         cascade_step, default_spec, knn_batch, partition, scan)


# ---------------------------------------------------------------------------
# independent brute-force oracles
# ---------------------------------------------------------------------------

def brute_knn(query, reference, k):
    """Linear scan with the stated tie rule: ascending squared distance,
    lower index first."""
    reference = np.asarray(reference, dtype=float)
    d2 = ((reference - np.asarray(query, dtype=float)) ** 2).sum(axis=1)
    order = sorted(range(len(reference)), key=lambda i: (d2[i], i))
    return np.array(order[:min(k, len(reference))], dtype=np.int64)


def brute_refine_labels(lower_pos, upper_pos, upper_labels, k):
    """Explicit vote counting per point, ties to the nearest tied-class
    neighbor."""
    out = []
    for q in lower_pos:
        idx = brute_knn(q, upper_pos, k)
        votes = {}
        for i in idx:
            lab = int(upper_labels[i])
            votes[lab] = votes.get(lab, 0) + 1
        top = max(votes.values())
        tied = {lab for lab, c in votes.items() if c == top}
        for i in idx:
            if int(upper_labels[i]) in tied:
                out.append(int(upper_labels[i]))
                break
    return np.array(out, dtype=np.int64)


def nested_oracle(preds, k):
    """Labels of every scale after each arrival, by the literal recursion
    ``Y_i(j) = UM(Y_i(j-1), Y_i+1(j))`` for ``i = j-1 .. 1`` with
    brute-force votes; a pair with an empty side keeps the lower labels."""
    labels, states = [], []
    for j, arrived in enumerate(preds, start=1):
        labels.append(arrived.labels)
        for i in range(j - 1, 0, -1):
            lower, upper = preds[i - 1], preds[i]
            if len(lower) and len(upper):
                labels[i - 1] = brute_refine_labels(
                    lower.positions, upper.positions, labels[i], k)
        states.append(list(labels))
    return states


def scale_part(scale, positions, labels):
    """A partition of ``scale`` whose ``labels`` stand for its raw
    prediction; the cascade reads only its positions and size."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    return Partition(scale, (scale - 1, scale), positions,
                     np.asarray(labels, dtype=np.int64),
                     np.full(len(positions), scale))


def two_scale(lower, upper, cfg):
    """Scale 1's labels refined by the arrival of scale 2."""
    labels = np.concatenate([lower.labels, upper.labels])
    cascade_step([lower], upper, labels, cfg, [])
    assert np.array_equal(labels[len(lower):], upper.labels)
    return labels[:len(lower)]


def arrivals(parts, cfg, tables, raw=None):
    """Each scale's labels after each arrival, as ``run_scalable`` computes
    them: the label array of scales ``1..j`` is that of ``1..j-1`` extended
    by ``raw[j-1]``, the raw prediction of scale ``j`` (by default the
    partition's own labels), and the arrival of ``j`` refines it in place.
    ``tables=None`` passes a fresh table list to every arrival."""
    raw = [p.labels for p in parts] if raw is None else raw
    labels = np.zeros(0, dtype=np.int64)
    states = []
    for j, part in enumerate(parts, start=1):
        labels = np.concatenate([labels, raw[j - 1]])
        cascade_step(parts[:j - 1], part, labels, cfg,
                     [] if tables is None else tables)
        states.append(np.split(labels, np.cumsum([len(p) for p in parts[:j]])[:-1]))
    return states


def random_prediction(rng, scale, n, classes=4, grid=None):
    if grid:
        pos = rng.integers(0, grid, size=(n, 3)) / 2.0  # exact ties likely
    else:
        pos = rng.uniform(-1, 1, size=(n, 3))
    return scale_part(scale, pos, rng.integers(0, classes, size=n))


# ---------------------------------------------------------------------------
# knn
# ---------------------------------------------------------------------------

def test_knn_exact_match_is_first():
    ref = np.array([[1.0, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])
    idx = knn_batch([[0, 1, 0]], ref, 2)[0]
    assert idx[0] == 1


def test_knn_k_larger_than_reference():
    ref = np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    idx = knn_batch([[0, 0, 0]], ref, 10)[0]
    assert idx.tolist() == [1, 2, 0]


def test_knn_empty_reference_errors():
    with pytest.raises(UpdateError):
        knn_batch([[0, 0, 0]], np.zeros((0, 3)), 3)


def test_knn_tie_breaks_by_lower_index():
    # four reference points all at distance 1 from the origin
    ref = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
    assert knn_batch([[0, 0, 0]], ref, 3)[0].tolist() == [0, 1, 2]
    # duplicated reference points
    ref = np.array([[1.0, 1, 1]] * 5)
    assert knn_batch([[0, 0, 0]], ref, 3)[0].tolist() == [0, 1, 2]


def test_knn_matches_linear_scan_oracle():
    rng = np.random.default_rng(99)
    ref = rng.uniform(-1, 1, size=(5000, 3))
    queries = rng.uniform(-1, 1, size=(1000, 3))
    got = knn_batch(queries, ref, 5)
    for i in range(0, 1000, 7):  # spot-check a subset at module-test speed
        assert np.array_equal(got[i], brute_knn(queries[i], ref, 5))


def test_knn_matches_oracle_with_ties():
    rng = np.random.default_rng(100)
    ref = rng.integers(0, 3, size=(60, 3)).astype(float)  # heavy duplicates
    queries = rng.integers(0, 3, size=(40, 3)).astype(float)
    for k in (1, 3, 5, 16):
        got = knn_batch(queries, ref, k)
        for i in range(len(queries)):
            assert np.array_equal(got[i], brute_knn(queries[i], ref, k)), (i, k)


def test_knn_periodic_scan_ties_match_oracle_quickly(room, default_pose):
    """A trajectory that repeats its directions puts 53k points on 536
    positions, so the tree ties nearly every row of scale pair (3, 4).  Tied
    rows are answered from their neighborhoods, not by a sort of the whole
    reference per row (which took 13 s on a 2-vCPU host)."""
    stream = scan(room, default_pose, LissajousConfig(ticks_per_period=64.0))
    lower, upper = partition(stream, default_spec())[2:4]
    t0 = time.perf_counter()
    got = knn_batch(lower.positions, upper.positions, 5)
    elapsed = time.perf_counter() - t0
    ref = np.asarray(upper.positions, dtype=float)
    for row in range(0, len(lower), 25):  # a stable sort is the tie rule
        d2 = ((ref - np.asarray(lower.positions[row], dtype=float)) ** 2).sum(axis=1)
        assert np.array_equal(got[row], np.argsort(d2, kind="stable")[:5]), row
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# refine: scale 1 voted by the arrival of scale 2
# ---------------------------------------------------------------------------

def test_refine_unanimous_vote():
    lower = scale_part(1, np.zeros((3, 3)), [0, 1, 2])
    upper = scale_part(2, np.random.default_rng(0).uniform(size=(8, 3)),
                       np.full(8, 7))
    out = two_scale(lower, upper, UpdateConfig(k=5))
    assert out.tolist() == [7, 7, 7]
    assert lower.labels.tolist() == [0, 1, 2]  # the partition is only read


def test_refine_k1_adopts_nearest():
    lower = scale_part(1, [[0.0, 0, 0], [10.0, 0, 0]], [0, 0])
    upper = scale_part(2, [[1.0, 0, 0], [9.0, 0, 0]], [3, 5])
    out = two_scale(lower, upper, UpdateConfig(k=1))
    assert out.tolist() == [3, 5]


def test_refine_vote_tie_goes_to_nearest_tied_class():
    lower = scale_part(1, [[0.0, 0, 0]], [9])
    upper = scale_part(2, [[1.0, 0, 0], [2.0, 0, 0]], [5, 3])
    out = two_scale(lower, upper, UpdateConfig(k=2))
    assert out.tolist() == [5]


def test_refine_empty_upper_passes_through():
    lower = scale_part(1, [[0.0, 0, 0]], [4])
    upper = scale_part(2, np.zeros((0, 3)), [])
    tables, labels = [], np.array([4])
    cascade_step([lower], upper, labels, UpdateConfig(k=3), tables)
    assert labels.tolist() == [4]
    assert tables == [None]


def test_refine_scale_mismatch_errors():
    lower = scale_part(1, np.zeros((1, 3)), [0])
    upper = scale_part(3, np.zeros((1, 3)), [0])
    with pytest.raises(UpdateError):
        two_scale(lower, upper, UpdateConfig())


def test_refine_matches_brute_force_oracle():
    rng = np.random.default_rng(2025)
    for trial in range(100):
        use_grid = trial % 2 == 0
        nl, nu = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        lower = random_prediction(rng, 1, nl, grid=4 if use_grid else None)
        upper = random_prediction(rng, 2, nu, grid=4 if use_grid else None)
        for k in (1, 3, 5):
            got = two_scale(lower, upper, UpdateConfig(k=k))
            want = brute_refine_labels(lower.positions, upper.positions,
                                       upper.labels, k)
            assert np.array_equal(got, want), (trial, k)


def test_refine_labels_come_from_upper_neighborhoods():
    rng = np.random.default_rng(31)
    lower = random_prediction(rng, 1, 40)
    upper = random_prediction(rng, 2, 60, classes=6)
    out = two_scale(lower, upper, UpdateConfig(k=5))
    assert set(out.tolist()) <= set(upper.labels.tolist())


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def test_cascade_single_scale_is_identity():
    p = scale_part(1, np.zeros((2, 3)), [1, 2])
    tables, labels = [], np.array([1, 2])
    assert cascade_step([], p, labels, UpdateConfig(), tables) is None
    assert labels.tolist() == [1, 2]
    assert tables == []


def test_cascade_equals_nested_composition():
    """Three scales: the cascade must equal the literal nested form
    UM(UM(Y1, Y2), UM(Y2, Y3)) evaluated with the brute-force oracle."""
    rng = np.random.default_rng(8)
    cfg = UpdateConfig(k=3)
    for _ in range(60):
        y1 = random_prediction(rng, 1, int(rng.integers(1, 30)))
        y2 = random_prediction(rng, 2, int(rng.integers(1, 30)))
        y3 = random_prediction(rng, 3, int(rng.integers(1, 30)))

        def um(lo_pos, lo_lab, up_pos, up_lab):
            if len(up_pos) == 0:
                return lo_lab
            return brute_refine_labels(lo_pos, up_pos, up_lab, cfg.k)

        y2_s3 = um(y2.positions, y2.labels, y3.positions, y3.labels)
        y1_s2 = um(y1.positions, y1.labels, y2.positions, y2.labels)
        y1_s3 = um(y1.positions, y1_s2, y2.positions, y2_s3)

        tables = []
        after_1, after_2, after_3 = arrivals([y1, y2, y3], cfg, tables)
        assert np.array_equal(after_2[0], y1_s2)
        assert np.array_equal(after_3[0], y1_s3)
        assert np.array_equal(after_3[1], y2_s3)
        assert np.array_equal(after_3[2], y3.labels)
        assert len(tables) == 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cascade_step_matches_nested_oracle(data):
    """Arrivals fed through one persistent table list, or through a fresh
    list each time, give the nested brute-force oracle's labels."""
    k = data.draw(st.integers(1, 6), label="k")
    on_grid = data.draw(st.booleans(), label="on_grid")
    coords = (st.integers(0, 3).map(lambda v: v / 2.0) if on_grid
              else st.floats(-1, 1))
    preds = []
    for scale in range(1, data.draw(st.integers(1, 6), label="scales") + 1):
        n = data.draw(st.integers(0, 30))
        preds.append(scale_part(
            scale, data.draw(arrays(np.float64, (n, 3), elements=coords)),
            data.draw(arrays(np.int64, n, elements=st.integers(0, 3)))))
    cfg = UpdateConfig(k=k)
    tables = []
    persistent = arrivals(preds, cfg, tables)
    fresh = arrivals(preds, cfg, None)
    for a, b, want in zip(persistent, fresh, nested_oracle(preds, k)):
        for x, y, w in zip(a, b, want):
            assert np.array_equal(x, w)
            assert np.array_equal(y, w)
    assert len(tables) == len(preds) - 1


def test_cascade_reads_no_ground_truth():
    """Partitions whose labels are poisoned with -1 give the nested oracle's
    labels: the cascade votes with the label array it is given alone."""
    rng = np.random.default_rng(4242)
    for trial in range(40):
        grid = 4 if trial % 2 else None
        preds = [random_prediction(rng, s, int(rng.integers(0, 25)), grid=grid)
                 for s in range(1, 6)]
        poisoned = [scale_part(p.scale, p.positions, np.full(len(p), -1))
                    for p in preds]
        k = (1, 3, 5)[trial % 3]
        states = arrivals(poisoned, UpdateConfig(k=k), [],
                          raw=[p.labels for p in preds])
        for got, want in zip(states, nested_oracle(preds, k)):
            for g, w in zip(got, want):
                assert np.array_equal(g, w), trial


def test_cascade_validation():
    p1, p2, p3 = (scale_part(s, np.zeros((1, 3)), [0]) for s in (1, 2, 3))
    with pytest.raises(UpdateError, match="scale"):
        cascade_step([p1, p3], p3, np.zeros(3, dtype=np.int64), UpdateConfig(), [])
    with pytest.raises(UpdateError):
        cascade_step([p1], p3, np.zeros(2, dtype=np.int64), UpdateConfig(), [])
    # one label per point of scales 1..j
    with pytest.raises(UpdateError, match="3 labels for the 2 points"):
        cascade_step([p1], p2, np.zeros(3, dtype=np.int64), UpdateConfig(), [])
    # tables from further up than the arrival reaches
    with pytest.raises(UpdateError, match="tables"):
        cascade_step([p1], p2, np.zeros(2, dtype=np.int64), UpdateConfig(),
                     [None, None])


def test_cascade_reports_each_refinement_top_down():
    parts = [scale_part(s, np.eye(3) * s, [s] * 3) for s in (1, 2, 3, 4)]
    seen = []
    cascade_step(parts[:3], parts[3], np.arange(12), UpdateConfig(k=1), [],
                 seen.append)
    assert seen == [3, 2, 1]


def test_update_config_validation():
    with pytest.raises(UpdateError):
        UpdateConfig(k=0)


def test_refine_matches_oracle_on_scanner_data():
    # float32 scan positions exercise the same casting path as production
    from scalestream import (LissajousConfig, PartitionSpec, default_room,
                             partition, place_cameras, scan)
    room = default_room()
    pose = place_cameras(room, seed=0)[0]
    stream = scan(room, pose, LissajousConfig(ticks=900))
    parts = partition(stream, PartitionSpec((300, 900)))
    lower, upper = parts
    got = two_scale(lower, upper, UpdateConfig(k=5))
    want = brute_refine_labels(np.asarray(lower.positions, dtype=float),
                               np.asarray(upper.positions, dtype=float),
                               upper.labels, 5)
    assert np.array_equal(got, want)
