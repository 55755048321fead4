import itertools
import math

import numpy as np
import pytest

from scalestream import Primitive, camera_basis, slab_distances


def slab_oracle(origin, direction, lo, hi):
    """Textbook per-axis interval intersection, written independently of the
    implementation: returns the hit distance or None."""
    tmin, tmax = -math.inf, math.inf
    for a in range(3):
        o, d = origin[a], direction[a]
        if d == 0.0:
            if not (lo[a] <= o <= hi[a]):
                return None
            continue
        t1 = (lo[a] - o) / d
        t2 = (hi[a] - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
    if tmax < tmin or tmax < 0.0:
        return None
    return tmin if tmin >= 0.0 else tmax


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def hit_distance(origin, direction, prim):
    """Distance along one ray to a primitive; inf on a miss."""
    lo, hi = prim.corners()
    return slab_distances(origin, np.asarray(direction, dtype=float)[None],
                          lo, hi)[0]


def test_axis_aligned_plane_hit():
    plane = Primitive((5, -10, -10), (5, 10, 10), label=0, name="px")
    assert hit_distance((0, 0, 0), (1, 0, 0), plane) == pytest.approx(5.0, abs=1e-12)


def test_parallel_ray_misses_plane():
    plane = Primitive((5, -10, -10), (5, 10, 10), label=0)
    assert hit_distance((0, 0, 0), (0, 1, 0), plane) == np.inf


def test_ray_behind_box_misses():
    box = Primitive((1, 1, 1), (2, 2, 2), label=0)
    assert hit_distance((0, 0, 0), unit((-1, -1, -1)), box) == np.inf


def test_origin_inside_box_hits_exit_face():
    box = Primitive((-1, -1, -1), (1, 1, 1), label=0)
    assert hit_distance((0, 0, 0), (1, 0, 0), box) == pytest.approx(1.0)


def test_random_rays_match_slab_oracle():
    rng = np.random.default_rng(2024)
    hits = misses = 0
    for _ in range(10_000):
        lo = rng.uniform(-5, 4, size=3)
        hi = lo + rng.uniform(0.1, 5, size=3)
        if rng.random() < 0.3:
            axis = rng.integers(3)
            hi[axis] = lo[axis]  # rectangle case
        origin = rng.uniform(-8, 8, size=3)
        if rng.random() < 0.6:
            # aim at (roughly) the box so hits are plentiful
            target = rng.uniform(lo, hi) + rng.normal(scale=0.5, size=3)
            direction = unit(target - origin)
        else:
            direction = unit(rng.normal(size=3))
        prim = Primitive(tuple(lo), tuple(hi), label=0)
        got = hit_distance(origin, direction, prim)
        want = slab_oracle(origin, direction, lo, hi)
        if want is None:
            misses += 1
            assert got == np.inf
        else:
            hits += 1
            assert got == pytest.approx(want, abs=1e-9)
    assert hits > 1000 and misses > 1000  # the mix exercises both outcomes


def test_integer_lattice_rays_match_slab_oracle():
    """Every box from (0, 0, 0) to an integer corner in [0, 2]^3, origins on
    the integer lattice around it and the directions with components in
    {-1, -0, 0, 1}: rays start on face planes, run parallel to them, or both
    (a ray parallel to an axis whose origin lies on a face plane of it counts
    as inside that slab).  The divisions are exact, so the distances must
    agree exactly."""
    directions = np.array([d for d in itertools.product(
        (-1.0, -0.0, 0.0, 1.0), repeat=3) if any(d)])
    origins = list(itertools.product(range(-1, 4), repeat=3))
    hits = checked = 0
    for hi in itertools.product(range(3), repeat=3):
        if hi.count(0) > 1:
            continue  # flat on two axes is not a primitive
        lo = np.zeros(3)
        hi = np.asarray(hi, dtype=float)
        for origin in origins:
            got = slab_distances(np.asarray(origin, dtype=float), directions,
                                 lo, hi)
            for g, d in zip(got, directions):
                want = slab_oracle(origin, d, lo, hi)
                assert g == (np.inf if want is None else want), (lo, hi,
                                                                 origin, d)
                hits += want is not None
                checked += 1
    assert checked == 20 * 125 * 56 and hits > 10000


def test_degenerate_primitive_rejected():
    with pytest.raises(ValueError):
        Primitive((0, 0, 0), (0, 0, 1), label=0)  # flat on two axes
    with pytest.raises(ValueError):
        Primitive((0, 0, 0), (-1, 1, 1), label=0)


def test_camera_basis_orthonormal():
    rng = np.random.default_rng(9)
    for _ in range(100):
        pos = rng.uniform(-5, 5, size=3)
        tgt = rng.uniform(-5, 5, size=3)
        if np.allclose(pos, tgt):
            continue
        r, u, f = camera_basis(pos, tgt)
        for v in (r, u, f):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert abs(r @ u) < 1e-12 and abs(r @ f) < 1e-12 and abs(u @ f) < 1e-12
        assert np.allclose(np.cross(r, f), u, atol=1e-12)
        assert f @ (tgt - pos) > 0
        assert u[2] >= 0  # camera-up never points below the horizon


def test_camera_basis_vertical_view():
    r, u, f = camera_basis((0, 0, 0), (0, 0, 5))
    assert np.allclose(f, [0, 0, 1])
    assert abs(r @ u) < 1e-12


def test_camera_basis_rejects_zero_view():
    with pytest.raises(ValueError):
        camera_basis((1, 2, 3), (1, 2, 3))
