"""Axis-aligned scene primitives and analytic ray intersection.

Primitives are axis-aligned boxes given by two corners; a rectangle is a box
that is flat along exactly one axis (``lo[k] == hi[k]``).  Intersection uses
the slab method (Kay and Kajiya, SIGGRAPH 1986; Williams et al., JGT 2005),
evaluated one axis at a time and vectorized over rays, so a whole scan's
worth of directions can be tested against a primitive at once.  A ray
parallel to an axis is inside that axis's slab when its origin lies between
the two face planes, on either plane included.
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

    The slabs are tested one axis at a time: each axis's entry and exit
    distances fold into running ``tmin``/``tmax`` arrays, and the ray hits
    if ``tmin <= tmax`` and ``tmax >= 0``.  A ray parallel to an axis is
    unconstrained by it when ``lo[a] <= origin[a] <= hi[a]`` (a ray in a
    face plane counts as inside that slab) and misses otherwise.
    """
    directions = np.atleast_2d(directions)
    o = np.asarray(origin, dtype=float)
    n = len(directions)
    tmin = np.full(n, -np.inf)
    tmax = np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(3):
            d = directions[:, a]
            t1 = (lo[a] - o[a]) / d
            t2 = (hi[a] - o[a]) / d
            near = np.fmin(t1, t2)
            far = np.fmax(t1, t2, out=t2)
            # A parallel ray (d == 0) lies inside the slab iff
            # lo[a] <= o[a] <= hi[a].  Off the face planes the signed
            # infinities of x/0 say so: they empty the interval outside the
            # slab and leave it unconstrained inside.  On a face plane one
            # of them is 0/0 = NaN, so set the no-constraint pair there.
            if o[a] == lo[a] or o[a] == hi[a]:
                parallel = d == 0.0
                near[parallel] = -np.inf
                far[parallel] = np.inf
            np.maximum(tmin, near, out=tmin)
            np.minimum(tmax, far, out=tmax)
    miss = tmax < tmin
    miss |= tmax < 0.0
    # a ray starting inside the box exits at tmax
    np.copyto(tmin, tmax, where=tmin < 0.0)
    tmin[miss] = np.inf
    return tmin


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
