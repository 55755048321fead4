import numpy as np
import pytest

from scalestream import (ScalePrediction, UpdateConfig, UpdateError, cascade,
                         cascade_step, knn_batch, refine)


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


def random_prediction(rng, scale, n, classes=4, grid=None, level=None):
    if grid:
        pos = rng.integers(0, grid, size=(n, 3)) / 2.0  # exact ties likely
    else:
        pos = rng.uniform(-1, 1, size=(n, 3))
    labels = rng.integers(0, classes, size=n)
    return ScalePrediction(scale, pos.astype(float), labels.astype(np.int64),
                           level if level is not None else scale)


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


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def test_refine_unanimous_vote():
    lower = ScalePrediction(1, np.zeros((3, 3)), np.array([0, 1, 2]), 1)
    upper = ScalePrediction(2, np.random.default_rng(0).uniform(size=(8, 3)),
                            np.full(8, 7), 2)
    out = refine(lower, upper, UpdateConfig(k=5))
    assert out.labels.tolist() == [7, 7, 7]
    assert out.level == 2 and out.scale == 1
    assert out.positions is lower.positions


def test_refine_k1_adopts_nearest():
    lower = ScalePrediction(1, np.array([[0.0, 0, 0], [10.0, 0, 0]]),
                            np.array([0, 0]), 1)
    upper = ScalePrediction(2, np.array([[1.0, 0, 0], [9.0, 0, 0]]),
                            np.array([3, 5]), 2)
    out = refine(lower, upper, UpdateConfig(k=1))
    assert out.labels.tolist() == [3, 5]


def test_refine_vote_tie_goes_to_nearest_tied_class():
    lower = ScalePrediction(1, np.array([[0.0, 0, 0]]), np.array([9]), 1)
    upper = ScalePrediction(2, np.array([[1.0, 0, 0], [2.0, 0, 0]]),
                            np.array([5, 3]), 2)
    out = refine(lower, upper, UpdateConfig(k=2))
    assert out.labels.tolist() == [5]


def test_refine_empty_upper_passes_through():
    lower = ScalePrediction(1, np.array([[0.0, 0, 0]]), np.array([4]), 1)
    upper = ScalePrediction(2, np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2)
    out = refine(lower, upper, UpdateConfig(k=3))
    assert out.labels.tolist() == [4]
    assert out.level == 2


def test_refine_scale_mismatch_errors():
    lower = ScalePrediction(1, np.zeros((1, 3)), np.array([0]), 1)
    upper = ScalePrediction(3, np.zeros((1, 3)), np.array([0]), 3)
    with pytest.raises(UpdateError):
        refine(lower, upper, UpdateConfig())


def test_refine_matches_brute_force_oracle():
    rng = np.random.default_rng(2025)
    for trial in range(100):
        use_grid = trial % 2 == 0
        nl, nu = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        lower = random_prediction(rng, 1, nl, grid=4 if use_grid else None)
        upper = random_prediction(rng, 2, nu, grid=4 if use_grid else None)
        for k in (1, 3, 5):
            got = refine(lower, upper, UpdateConfig(k=k))
            want = brute_refine_labels(lower.positions, upper.positions,
                                       upper.labels, k)
            assert np.array_equal(got.labels, want), (trial, k)
            assert np.array_equal(got.positions, lower.positions)


def test_refine_labels_come_from_upper_neighborhoods():
    rng = np.random.default_rng(31)
    lower = random_prediction(rng, 1, 40)
    upper = random_prediction(rng, 2, 60, classes=6)
    out = refine(lower, upper, UpdateConfig(k=5))
    assert set(out.labels.tolist()) <= set(upper.labels.tolist())


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def test_cascade_single_scale_is_identity():
    p = ScalePrediction(1, np.zeros((2, 3)), np.array([1, 2]), 1)
    out = cascade([p], UpdateConfig())
    assert len(out) == 1
    assert np.array_equal(out[0].labels, p.labels)


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

        got = cascade([y1, y2, y3], cfg)
        assert np.array_equal(got[0].labels, y1_s3)
        assert np.array_equal(got[1].labels, y2_s3)
        assert np.array_equal(got[2].labels, y3.labels)
        assert [p.level for p in got] == [3, 3, 3]


def test_incremental_equals_batch_cascade():
    rng = np.random.default_rng(17)
    cfg = UpdateConfig(k=5)
    for _ in range(20):
        preds = [random_prediction(rng, s, int(rng.integers(0, 40)))
                 for s in range(1, 6)]
        batch = cascade(preds, cfg)
        state: list = []
        for p in preds:
            state = cascade_step(state, p, cfg)
        for a, b in zip(batch, state):
            assert np.array_equal(a.labels, b.labels)
            assert a.level == b.level == 5


def test_cascade_resumes_partially_refined_state():
    rng = np.random.default_rng(23)
    cfg = UpdateConfig(k=3)
    preds = [random_prediction(rng, s, 20) for s in range(1, 5)]
    full = cascade(preds, cfg)
    half = cascade_step(cascade_step([], preds[0], cfg), preds[1], cfg)
    resumed = cascade(half + preds[2:], cfg)
    for a, b in zip(full, resumed):
        assert np.array_equal(a.labels, b.labels)


def test_cascade_validation():
    p1 = ScalePrediction(1, np.zeros((1, 3)), np.array([0]), 1)
    p3 = ScalePrediction(3, np.zeros((1, 3)), np.array([0]), 3)
    with pytest.raises(UpdateError, match="scale"):
        cascade([p1, p3], UpdateConfig())
    with pytest.raises(UpdateError):
        cascade_step([p1], p3, UpdateConfig())
    # inconsistent levels
    p2_stale = ScalePrediction(2, np.zeros((1, 3)), np.array([0]), 3)
    with pytest.raises(UpdateError, match="level|state"):
        cascade([p1, p2_stale], UpdateConfig())


def test_update_config_validation():
    with pytest.raises(UpdateError):
        UpdateConfig(k=0)
    with pytest.raises(UpdateError):
        ScalePrediction(2, np.zeros((1, 3)), np.array([0]), 1)


def test_refine_matches_oracle_on_scanner_data():
    # float32 scan positions exercise the same casting path as production
    from scalestream import (LissajousConfig, PartitionSpec, default_room,
                             partition, place_cameras, scan)
    room = default_room()
    pose = place_cameras(room, seed=0)[0]
    stream = scan(room, pose, LissajousConfig(ticks=900))
    parts = partition(stream, PartitionSpec((300, 900)))
    lower = ScalePrediction(1, parts[0].positions, parts[0].labels, 1)
    upper = ScalePrediction(2, parts[1].positions, parts[1].labels, 2)
    got = refine(lower, upper, UpdateConfig(k=5))
    want = brute_refine_labels(np.asarray(lower.positions, dtype=float),
                               np.asarray(upper.positions, dtype=float),
                               upper.labels, 5)
    assert np.array_equal(got.labels, want)
