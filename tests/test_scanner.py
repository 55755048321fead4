import io
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

import scalestream.scanner as scanner
from scalestream import (CameraPose, LissajousConfig, Primitive, Scene,
                         SceneError, coverage_curve, lissajous_direction,
                         place_cameras, scan, write_stream)
from scalestream.scanner import deflection_angles


def test_direction_at_zero_is_forward():
    cfg = LissajousConfig(phase=0.0)
    d = lissajous_direction(cfg, 0)
    assert np.allclose(d, [0, 0, 1], atol=1e-15)


def test_direction_periodic_for_integer_frequencies():
    cfg = LissajousConfig(fx=2.0, fy=3.0, ticks_per_period=100.0)
    assert np.allclose(lissajous_direction(cfg, 100),
                       lissajous_direction(cfg, 0), atol=1e-12)


def test_default_ratio_closes_after_ten_slow_units():
    # fx:fy = 1.1:1.8 = 11:18, so the pattern closes after 10 period units
    cfg = LissajousConfig(fx=1.1, fy=1.8, ticks_per_period=100.0, phase=0.3)
    t = np.linspace(0.0, 100.0, 973)
    ax0, ay0 = deflection_angles(cfg, t)
    ax1, ay1 = deflection_angles(cfg, t + 10 * cfg.ticks_per_period)
    assert np.allclose(ax0, ax1, atol=1e-9)
    assert np.allclose(ay0, ay1, atol=1e-9)
    # and not earlier
    ax2, _ = deflection_angles(cfg, t + 5 * cfg.ticks_per_period)
    assert not np.allclose(ax0, ax2, atol=1e-3)


def test_directions_unit_length():
    cfg = LissajousConfig()
    d = lissajous_direction(cfg, np.arange(1000))
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        LissajousConfig(fx=0)
    with pytest.raises(ValueError):
        LissajousConfig(amp_x=2.0)
    with pytest.raises(ValueError):
        LissajousConfig(ticks=0)
    for field in ("fx", "fy", "phase", "amp_x", "amp_y", "ticks_per_period"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                LissajousConfig(**{field: value})


@pytest.mark.parametrize("fields", [
    {"fx": 1e308, "ticks": 1000},
    {"ticks_per_period": 1e-308, "ticks": 1000},
    {"fx": 1e300, "ticks_per_period": 1e-10, "ticks": 1000},
    {"phase": 1.7e308, "fy": 1e300, "ticks_per_period": 1e-8},
    {"ticks": 10**400},
], ids=["fx", "ticks-per-period", "fx-and-ticks-per-period", "phase",
        "ticks-past-float"])
def test_config_refuses_a_scan_phase_that_overflows(fields):
    """A trajectory whose last tick's phase is past the largest float would
    scan rays of NaN; the config refuses it, whether one field or several
    together take it there."""
    with pytest.raises(ValueError, match=r"scan phase .* overflows$"):
        LissajousConfig(**fields)


def test_largest_accepted_phase_scans_finite_rays():
    """Just inside the bound every ray is finite and of unit length."""
    cfg = LissajousConfig(fx=1e300, ticks_per_period=1e-3, ticks=1000)
    d = lissajous_direction(cfg, np.arange(cfg.ticks))
    assert np.isfinite(d).all()
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


def test_place_cameras_constraints(room):
    poses = place_cameras(room, max_poses=50, seed=3)
    assert len(poses) == 50
    lo, hi = np.asarray(room.room_lo), np.asarray(room.room_hi)
    for pose in poses:
        p = np.asarray(pose.position)
        assert p[2] >= lo[2] + 1.5 - 1e-9
        on_plane = (abs(p[0] - (lo[0] + 0.05)) < 1e-9
                    or abs(p[0] - (hi[0] - 0.05)) < 1e-9
                    or abs(p[1] - (lo[1] + 0.05)) < 1e-9
                    or abs(p[1] - (hi[1] - 0.05)) < 1e-9)
        assert on_plane
        assert np.all(p > lo) and np.all(p < hi)
        assert pose.target == tuple(room.center)


def test_place_cameras_deterministic(room):
    assert place_cameras(room, seed=11) == place_cameras(room, seed=11)
    assert place_cameras(room, seed=11) != place_cameras(room, seed=12)


def test_place_cameras_uniform_chi2(room):
    # 10k poses across many seeds: grid-cell occupancy should be uniform
    counts: dict = {}
    total = 0
    for seed in range(200):
        for pose in place_cameras(room, max_poses=50, seed=seed):
            counts[pose.position] = counts.get(pose.position, 0) + 1
            total += 1
    assert total == 10_000
    n_candidates = len(place_cameras(room, max_poses=10**9, seed=0))
    observed = np.zeros(n_candidates)
    observed[:len(counts)] = sorted(counts.values(), reverse=True)
    _, p_value = chisquare(observed)
    assert p_value > 0.01


def test_place_cameras_too_low_room_errors():
    squat = Scene("squat", (0, 0, 0), (4, 4, 1.2), ())
    with pytest.raises(SceneError, match="altitude"):
        place_cameras(squat)


def test_place_cameras_counts_its_candidates_before_the_grid(room, monkeypatch):
    """The walls of the built-in room hold 2 x (40 + 40) x 15 = 2,400
    candidates, the 60 on its vertical edges counted twice: a cap of 2,400
    places them all, a cap of 2,399 refuses the room."""
    monkeypatch.setattr(scanner, "_MAX_CANDIDATES", 2400)
    assert len(place_cameras(room, max_poses=10**9)) == 2340
    monkeypatch.setattr(scanner, "_MAX_CANDIDATES", 2399)
    with pytest.raises(SceneError, match="a 4 x 4 x 3 m room has 2,400 camera "
                                         "candidates, more than the 2,399 "):
        place_cameras(room)


def test_scan_blocks_are_invisible(room, default_pose, monkeypatch):
    """Scanned in 5-tick blocks, with dropout drawn block by block, the
    stream is the same bytes as in the default blocks."""
    cfg = LissajousConfig(ticks=1003)
    streams = []
    for block in (scanner._BLOCK_TICKS, 5):
        monkeypatch.setattr(scanner, "_BLOCK_TICKS", block)
        data = io.BytesIO()
        write_stream(scan(room, default_pose, cfg, dropout=0.3, seed=8), data)
        streams.append(data.getvalue())
    assert streams[0] == streams[1]


def test_scan_memory_follows_the_block_not_the_ticks(room, default_pose,
                                                     monkeypatch):
    """In 1,024-tick blocks, a scan of 4N ticks peaks above one of N by at
    most its 28 bytes of per-tick output, plus 64 KiB (1.7 MB above when
    the scan held every tick's directions and distances at once)."""
    monkeypatch.setattr(scanner, "_BLOCK_TICKS", 1024)
    peaks = []
    for ticks in (4096, 4 * 4096):
        tracemalloc.start()
        try:
            scan(room, default_pose, LissajousConfig(ticks=ticks), dropout=0.2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 3 * 4096 * 28 + 2**16, peaks


def test_scan_empty_scene_is_empty():
    pose = CameraPose((2, 2, 2), (1, 1, 1))
    empty = Scene("empty-room", (0, 0, 0), (4, 4, 3), ())
    stream = scan(empty, pose, LissajousConfig(ticks=500))
    assert len(stream) == 0


def test_scan_full_wall_hits_every_tick():
    # a wall wide enough to catch the whole deflection range
    wall = Primitive((6, -50, -50), (6, 50, 50), label=1, name="big-wall")
    scene = Scene("wall-world", (0, -50, -50), (6.5, 50, 50), (wall,))
    pose = CameraPose((0.5, 0, 0), (6, 0, 0))
    cfg = LissajousConfig(ticks=2000)
    stream = scan(scene, pose, cfg)
    assert len(stream) == cfg.ticks
    assert np.all(stream.labels == 1)
    assert np.array_equal(stream.timestamps, np.arange(2000))


@pytest.mark.parametrize("position,outside", [
    ((1.5, 1.5, 0.5), (1.5, 1.5, 1.25)),
    ((1, 1.5, 0.5), (0.999, 1.5, 0.5)),
    ((2, 2, 1), (2, 2, 1.001))], ids=["inside", "face", "corner"])
def test_scan_from_on_or_inside_a_primitive_is_a_scene_error(position, outside):
    """A camera in a primitive's closed box is refused before any ray is
    cast; just outside it, the scan runs."""
    box = Primitive((1, 1, 0), (2, 2, 1), label=0, name="crate")
    scene = Scene("crate-room", (0, 0, 0), (4, 4, 3), (box,))
    cfg = LissajousConfig(ticks=10)
    with pytest.raises(SceneError, match=r"^camera position \(.*\) lies on or "
                                         r"inside primitive 'crate'$"):
        scan(scene, CameraPose(position, (3, 3, 3)), cfg)
    scan(scene, CameraPose(outside, (3, 3, 3)), cfg)


def test_scan_points_on_surface_with_matching_label(room, default_pose):
    stream = scan(room, default_pose, LissajousConfig(ticks=4096))
    prims = room.primitives
    pos = stream.positions.astype(float)
    # distance of each point to its primitive's box must be tiny
    labels = stream.labels
    dmin = np.full(len(stream), np.inf)
    match = np.zeros(len(stream), dtype=bool)
    for p in prims:
        lo, hi = p.corners()
        gap = np.maximum(np.maximum(lo - pos, 0), pos - hi)
        d = np.linalg.norm(gap, axis=1)
        on_this = d < 1e-6
        match |= on_this & (labels == p.label)
        dmin = np.minimum(dmin, d)
    assert np.all(dmin < 1e-6)
    assert np.all(match)


def test_scan_deterministic(room, default_pose):
    cfg = LissajousConfig(ticks=3000)
    a = scan(room, default_pose, cfg)
    b = scan(room, default_pose, cfg)
    assert a == b


def test_scan_timestamps_strictly_increasing(room, default_pose):
    stream = scan(room, default_pose, LissajousConfig(ticks=5000), dropout=0.2, seed=5)
    assert len(stream) < 5000  # dropout removed some ticks
    assert np.all(np.diff(stream.timestamps) >= 1)


def test_scan_prefix_property(room, default_pose):
    # points up to t1 are a prefix of points up to t2 > t1
    stream = scan(room, default_pose, LissajousConfig(ticks=4000))
    t1, t2 = 1000, 3000
    n1 = int(np.sum(stream.timestamps <= t1))
    sub2 = stream.positions[stream.timestamps <= t2]
    assert np.array_equal(stream.positions[:n1], sub2[:n1])


def test_scan_coverage_regression(room, default_pose):
    """Regression guard: the default scan is spatially complete early.

    Measured at first build on the default room/pose: the coverage at tick
    2000 equals the coverage at full duration on a 16x16 grid (ratio 1.0), comfortably above
    the expected >0.5; the frozen guard leaves margin only for genuine
    regressions.
    """
    stream = scan(room, default_pose, LissajousConfig())
    (_, early), (_, full) = coverage_curve(stream, [2000, stream.max_timestamp], 16)
    assert early / full > 0.95
    ticks = [0, 200, 650, 2000, 6000, 65535]
    values = [c for _, c in coverage_curve(stream, ticks, 16)]
    assert all(b >= a for a, b in zip(values, values[1:]))  # non-decreasing


def test_scan_dropout_validation(room, default_pose):
    with pytest.raises(ValueError):
        scan(room, default_pose, LissajousConfig(ticks=10), dropout=1.5)


def test_camera_pose_validation():
    with pytest.raises(ValueError):
        CameraPose((1, 1, 1), (1, 1, 1))
