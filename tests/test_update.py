import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

import scalestream.update as update
from scalestream import (DEFAULT_CUTS, LissajousConfig, Partition,
                         PartitionSpec, PointStream, PredictorConfig,
                         TimingModel, UpdateConfig, UpdateError, cascade_step,
                         knn_batch, miou, partition, run_scalable, scan)
from scalestream.predictors import predict_full


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


def brute_vote(labels):
    """Explicit vote counting over one row of labels, nearest first; a tie
    goes to the tied label that comes first."""
    votes = {}
    for lab in labels:
        votes[lab] = votes.get(lab, 0) + 1
    top = max(votes.values())
    return next(lab for lab in labels if votes[lab] == top)


def brute_refine_labels(lower_pos, upper_pos, upper_labels, k):
    """Explicit vote counting per point, ties to the nearest tied-class
    neighbor."""
    return np.array([brute_vote([int(upper_labels[i])
                                 for i in brute_knn(q, upper_pos, k)])
                     for q in lower_pos], dtype=np.int64)


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
    return Partition(scale, positions, np.asarray(labels, dtype=np.int64),
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


@pytest.fixture(scope="module")
def periodic_pair(room, default_pose):
    """Scale pair (3, 4) of a trajectory that repeats its directions: 53k
    points on 536 positions, so the tree ties nearly every row."""
    stream = scan(room, default_pose, LissajousConfig(ticks_per_period=64.0))
    lower, upper = partition(stream, PartitionSpec(DEFAULT_CUTS))[2:4]
    return lower.positions, upper.positions


def test_knn_periodic_scan_ties_match_oracle_quickly(periodic_pair):
    """Tied rows are answered from their neighborhoods, not by a sort of the
    whole reference per row (which took 13 s on a 2-vCPU host)."""
    queries, ref = periodic_pair
    t0 = time.perf_counter()
    got = knn_batch(queries, ref, 5)
    elapsed = time.perf_counter() - t0
    ref = np.asarray(ref, dtype=float)
    for row in range(0, len(queries), 25):  # a stable sort is the tie rule
        d2 = ((ref - np.asarray(queries[row], dtype=float)) ** 2).sum(axis=1)
        assert np.array_equal(got[row], np.argsort(d2, kind="stable")[:5]), row
    assert elapsed < 2.0


def test_knn_repeated_point_costs_k_candidates_per_row():
    """Every row of one repeated point ties; its ball holds each copy, but
    only the k lowest indices are candidates (the whole reference per row
    took 8-11 s at n = 8,000 on a 2-vCPU host)."""
    cloud = np.ones((8000, 3))
    t0 = time.perf_counter()
    got = knn_batch(cloud, cloud, 5)
    elapsed = time.perf_counter() - t0
    assert (got == np.arange(5)).all()
    assert elapsed < 2.0


def test_knn_table_does_not_depend_on_worker_count(monkeypatch, periodic_pair):
    """Each query row is answered on its own, so one search worker and two
    give the same table, tied rows included, and both follow the tie rule."""
    rng = np.random.default_rng(7)
    cases = [periodic_pair,
             (rng.uniform(-1, 1, size=(1000, 3)), rng.uniform(-1, 1, size=(5000, 3))),
             (np.ones((1000, 3)), np.ones((1000, 3)))]
    for queries, ref in cases:
        tables = []
        for workers in (1, 2):
            monkeypatch.setattr(update, "_WORKERS", workers)
            tables.append(knn_batch(queries, ref, 5))
        np.testing.assert_array_equal(tables[0], tables[1])
        for row in range(0, len(queries), max(1, len(queries) // 20)):
            assert np.array_equal(tables[0][row], brute_knn(queries[row], ref, 5)), row


def test_knn_blocks_are_invisible(monkeypatch):
    """With 7-row blocks, tied rows on both sides of a block boundary and
    the one-repeated-point cloud still give the oracle's table.  The tie
    path's sort and tree are built once per search, not once per tied
    block, and a block below ``_THREAD_ROWS`` starts no thread."""
    monkeypatch.setattr(update, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(update, "_WORKERS", 2)
    prepared, started = [], []
    real = update._tie_breaker
    monkeypatch.setattr(update, "_tie_breaker",
                        lambda *args: prepared.append(1) or real(*args))
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread))
    rng = np.random.default_rng(12)
    ref = rng.integers(0, 3, size=(60, 3)).astype(float)  # heavy duplicates
    queries = rng.integers(0, 3, size=(30, 3)).astype(float)
    queries[5:9] = queries[0]  # the same tied row at rows 5-8, across rows 6|7
    for q, r in [(queries, ref), (np.ones((40, 3)), np.ones((40, 3)))]:
        prepared.clear()
        got = knn_batch(q, r, 5)
        assert got.dtype == np.int32
        for i in range(len(q)):
            assert np.array_equal(got[i], brute_knn(q[i], r, 5)), i
        assert prepared == [1]
    assert started == []


def morton_keys(queries):
    """Each row's Morton key, bit by bit: axis ``a``'s cell on a grid of
    1,024 cells over the rows' bounds gives bits ``3b + a``; a flat axis
    gives none."""
    q = np.asarray(queries, dtype=float)
    lo, hi = q.min(axis=0), q.max(axis=0)
    keys = []
    for row in q:
        key = 0
        for axis in range(3):
            span = hi[axis] - lo[axis]
            cell = min(int((row[axis] - lo[axis]) / span * 1024), 1023) if span > 0 else 0
            key |= sum(((cell >> b) & 1) << (3 * b + axis) for b in range(10))
        keys.append(key)
    return np.array(keys)


def capture_order(queries):
    return np.arange(len(queries), dtype=np.int32)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_knn_space_order_is_invisible(data):
    """With 7-row blocks and one worker or two, a search in space order
    gives the table of the same search in capture order, on clouds with
    duplicate rows and heavy ties."""
    k = data.draw(st.integers(1, 6), label="k")
    on_grid = data.draw(st.booleans(), label="on_grid")
    coords = (st.integers(0, 3).map(lambda v: v / 2.0) if on_grid
              else st.floats(-1, 1))
    ref = data.draw(arrays(np.float64, (data.draw(st.integers(1, 40)), 3),
                           elements=coords), label="ref")
    queries = data.draw(arrays(np.float64, (data.draw(st.integers(0, 40)), 3),
                               elements=coords), label="queries")
    if len(queries) and data.draw(st.booleans(), label="duplicates"):
        queries[len(queries) // 2:] = queries[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(update, "_BLOCK_ROWS", 7)
        mp.setattr(update, "_WORKERS", data.draw(st.sampled_from([1, 2])))
        mp.setattr(update, "_THREAD_ROWS", 1)
        got = knn_batch(queries, ref, k)
        mp.setattr(update, "_space_order", capture_order)
        want = knn_batch(queries, ref, k)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("queries", [
    np.zeros((0, 3)),
    np.array([[0.5, -0.5, 0.25]]),
    np.ones((20, 3)),
    np.c_[np.linspace(-1, 1, 20), np.full(20, 0.3), np.linspace(1, -1, 20)],
    np.array([[-3e38, 3e38, 0], [3e38, -3e38, 1], [0, 0, 0.5]], dtype=np.float32),
    np.random.default_rng(15).uniform(-1e3, 1e3, size=(30, 3)),
], ids=["empty", "one-row", "all-equal", "flat-axis", "float32-span-overflow",
        "float64"])
def test_knn_space_order_edge_cases(monkeypatch, queries):
    """Empty, single and all-equal queries, a flat axis, and float32 rows
    whose span overflows float32 keep the capture-order table and the
    oracle's rows, with no warning; the order is a permutation."""
    monkeypatch.setattr(update, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(16)
    ref = np.r_[rng.uniform(-1, 1, size=(25, 3)), queries[:3].astype(float)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order = update._space_order(queries)
        got = knn_batch(queries, ref, 4)
    assert order.dtype == np.int32
    assert sorted(order.tolist()) == list(range(len(queries)))
    assert got.shape == (len(queries), 4)
    for i in range(len(queries)):
        assert np.array_equal(got[i], brute_knn(queries[i], ref, 4)), i
    monkeypatch.setattr(update, "_space_order", capture_order)
    np.testing.assert_array_equal(knn_batch(queries, ref, 4), got)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_non_finite_query_is_refused_by_the_tree(bad):
    """A non-finite query row still meets scipy's ``'x' must be finite``
    error, and ordering the rows raises no warning of its own."""
    queries = np.random.default_rng(17).uniform(-1, 1, size=(40, 3))
    queries[23, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="'x' must be finite"):
            knn_batch(queries, np.zeros((5, 3)), 3)


def test_knn_tree_receives_rows_in_key_order(monkeypatch):
    """The tree is asked for the rows in non-decreasing Morton key order,
    block after block, and each row once."""
    monkeypatch.setattr(update, "_BLOCK_ROWS", 64)
    asked = []

    class Spy:
        def __init__(self, data):
            self.tree = cKDTree(data)

        def query(self, q, **kwargs):
            asked.append(np.array(q))
            return self.tree.query(q, **kwargs)

    monkeypatch.setattr(update, "cKDTree", Spy)
    rng = np.random.default_rng(18)
    queries = rng.uniform(-1, 1, size=(500, 3))
    knn_batch(queries, rng.uniform(-1, 1, size=(300, 3)), 5)
    rows = np.concatenate(asked)
    assert len(asked) == 8
    assert sorted(map(tuple, rows)) == sorted(map(tuple, queries))
    keys = morton_keys(queries)[[np.flatnonzero((queries == r).all(axis=1))[0]
                                 for r in rows]]
    assert (np.diff(keys) >= 0).all()
    assert (np.diff(morton_keys(queries)) < 0).any()  # capture order is not


def test_knn_refuses_a_reference_past_the_int32_table():
    """A reference of 2**31 points would overflow the table's int32 indices
    (a zero-stride view: nothing is allocated)."""
    huge = np.broadcast_to(np.zeros(3), (2**31, 3))
    with pytest.raises(UpdateError, match="int32"):
        knn_batch(np.zeros((1, 3)), huge, 5)


def test_vote_blocks_are_invisible(monkeypatch):
    """With 7-row blocks, ``vote`` gives ``_majority_vote(labels[table])``
    row for row, in the labels' dtype."""
    monkeypatch.setattr(update, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(13)
    labels = rng.integers(0, 4, size=50)
    table = rng.integers(0, 50, size=(37, 5)).astype(np.int32)
    got = update.vote(labels, table)
    assert got.dtype == labels.dtype
    np.testing.assert_array_equal(got, update._majority_vote(labels[table]))


def test_predict_full_memory_follows_the_block_not_the_rows(monkeypatch):
    """Seeded-knn's baseline searches and votes 1,024-row blocks: at 4N
    query rows it peaks above N by at most its int32 table and its labels,
    plus 64 KiB (2.0 MB above when every stage held N-row temporaries)."""
    monkeypatch.setattr(update, "_BLOCK_ROWS", 1024)
    rng = np.random.default_rng(14)
    cloud = PointStream(rng.uniform(-1, 1, (2000, 3)), rng.integers(0, 5, 2000),
                        np.arange(2000), 5)
    cfg = PredictorConfig(variant="seeded-knn", k_cls=5, seed_cloud=cloud)
    peaks = []
    for n in (4096, 4 * 4096):
        positions = rng.uniform(-1, 1, (n, 3)).astype(np.float32)
        gt = rng.integers(0, 5, n)
        tracemalloc.start()
        try:
            predict_full(positions, gt, cfg, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 3 * 4096 * (4 * 5 + 8) + 2**16, peaks


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_majority_vote_matches_counting_oracle(data):
    """Up to 16 neighbors and 40 classes, with rows whose labels all differ,
    rows that repeat one label and every tie in between: each row's winner
    is the per-row count's.  Half the tables keep their class ids and half
    spread them 1,638 ids apart, up to 63,882."""
    n = data.draw(st.integers(1, 30), label="rows")
    k = data.draw(st.integers(1, 16), label="k")
    classes = data.draw(st.integers(1, 40), label="classes")
    if data.draw(st.booleans(), label="distinct") and k <= classes:
        rows = [data.draw(st.permutations(range(classes)))[:k] for _ in range(n)]
        table = np.array(rows, dtype=np.int64)
    else:
        table = data.draw(arrays(np.int64, (n, k),
                                 elements=st.integers(0, classes - 1)))
    table *= data.draw(st.sampled_from([1, 65534 // 40]), label="spread")
    got = update._majority_vote(table)
    assert got.tolist() == [brute_vote(row) for row in table.tolist()]


def test_majority_vote_memory_follows_the_labels_it_holds():
    """A 100 x 5 table of labels 65,532-65,534, near the stream format's
    class limit, compares its columns pairwise: it peaks under 1 MB
    (52 MB when the counts ran up to the largest label), and each row's
    winner is the counting oracle's."""
    table = np.random.default_rng(3).integers(65532, 65535, size=(100, 5))
    tracemalloc.start()
    try:
        got = update._majority_vote(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert got.tolist() == [brute_vote(row) for row in table.tolist()]


def test_majority_vote_memory_follows_k_not_the_class_ids():
    """A 200 x 5 table of labels spread over 0-65,534 compares its columns
    pairwise: it peaks under 1 MB (104.7 MB when the counts ran over the
    span of ids), and each row's winner is the counting oracle's."""
    table = np.random.default_rng(5).integers(0, 65535, size=(200, 5))
    table[::2, 1] = table[::2, 3]  # a repeated label in every other row
    tracemalloc.start()
    try:
        got = update._majority_vote(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert got.tolist() == [brute_vote(row) for row in table.tolist()]


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


@pytest.fixture(scope="module")
def uniform_scan(room, default_pose):
    """20,000 ticks of the default room from pose 0, sweeping the field of
    view as often per tick as the default scan does."""
    return scan(room, default_pose,
                LissajousConfig(ticks=20000, ticks_per_period=20000 / 983))


@pytest.mark.parametrize("scales, sign", [(5, 1), (50, -1)],
                         ids=["5-scales-lift", "50-scales-loss"])
def test_cascade_lift_turns_into_a_loss_at_many_scales(uniform_scan, scales,
                                                       sign):
    """At 5 uniform scales the cascade lifts the noisy oracle's final mIoU
    by at least 5 points; at 50 it loses at least 5.  Each arrival re-votes
    every lower scale, so scale 1 is filtered K-1 times and the labels drift
    towards a local consensus.  This test documents that loss; it does not
    bless it (README, "Accuracy against the number of scales")."""
    spec = PartitionSpec(tuple(20000 * i // scales for i in range(1, scales + 1)))
    for seed in range(3):
        cfg = PredictorConfig(error_rates=(0.1,) * scales, seed=seed)
        refined, _ = run_scalable(uniform_scan, spec, cfg, UpdateConfig(k=5),
                                  TimingModel())
        unrefined, _ = run_scalable(uniform_scan, spec, cfg, None, TimingModel())
        gain = miou(refined[-1])[1] - miou(unrefined[-1])[1]
        assert sign * gain >= 0.05, (seed, gain)
