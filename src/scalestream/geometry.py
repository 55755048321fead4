"""Axis-aligned scene primitives and analytic ray intersection.

Primitives are axis-aligned boxes given by two corners; a rectangle is a box
that is flat along exactly one axis (``lo[k] == hi[k]``).  Intersection uses
the slab method, vectorized over rays so a whole scan's worth of directions
can be tested against a primitive at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Primitive:
    """Labeled axis-aligned box or rectangle."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    label: int
    name: str = ""

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("corners must be 3-vectors")
        if np.any(hi < lo):
            raise ValueError(f"hi corner below lo corner for primitive {self.name!r}")
        flat = int(np.sum(hi == lo))
        if flat > 1:
            raise ValueError(f"primitive {self.name!r} is degenerate in {flat} axes")
        if self.label < 0:
            raise ValueError("label must be non-negative")

    @property
    def is_rectangle(self) -> bool:
        return any(a == b for a, b in zip(self.lo, self.hi))

    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


def slab_distances(origin: np.ndarray, directions: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Ray/box hit distances for many unit rays from a common origin.

    Returns an (N,) array of distances; misses are +inf.  A ray starting
    inside a box hits its exit face.  Degenerate (rectangle) axes fall out
    of the same arithmetic: the slab there collapses to a single plane.
    """
    directions = np.atleast_2d(directions)
    o = np.asarray(origin, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / directions
        t2 = (hi - o) / directions
    # Parallel axes (direction component 0) produce +-inf or NaN; a NaN means
    # the origin coordinate sits exactly on the slab boundary.  Replace NaN by
    # the no-constraint pair so max/min below ignore that axis, and handle
    # out-of-slab parallel rays explicitly.
    lo_t = np.fmin(t1, t2)
    hi_t = np.fmax(t1, t2)
    lo_t = np.where(np.isnan(lo_t), -np.inf, lo_t)
    hi_t = np.where(np.isnan(hi_t), np.inf, hi_t)
    tmin = lo_t.max(axis=1)
    tmax = hi_t.min(axis=1)
    parallel_miss = ((directions == 0.0) & ((o < lo) | (o > hi))).any(axis=1)
    hit = (tmax >= tmin) & (tmax >= 0.0) & ~parallel_miss
    dist = np.where(tmin >= 0.0, tmin, tmax)
    return np.where(hit, dist, np.inf)


def camera_basis(position, target) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right/up/forward orthonormal basis for a camera looking at ``target``.

    World +z is up; if the view direction is (nearly) vertical the x axis is
    used as the up reference instead.
    """
    position = np.asarray(position, dtype=float)
    target = np.asarray(target, dtype=float)
    forward = target - position
    norm = np.linalg.norm(forward)
    if norm == 0.0:
        raise ValueError("camera position equals its target")
    forward = forward / norm
    up_ref = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up_ref) > 1.0 - 1e-9:
        up_ref = np.array([1.0, 0.0, 0.0])
    right = np.cross(forward, up_ref)
    right /= np.linalg.norm(right)
    up = np.cross(right, forward)
    return right, up, forward
