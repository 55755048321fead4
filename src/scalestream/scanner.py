"""Lissajous-scanning depth sensor over synthetic scenes.

The sensor deflects a ray sinusoidally on two axes with different relative
frequencies, one ray per clock tick.  Because the two frequencies are close
in magnitude, the trajectory sweeps the whole field of view within a few
hundred ticks and then keeps revisiting it, so the emitted stream is
spatially complete early and densifies for the rest of the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import camera_basis, slab_distances
from .scene import Scene, SceneError
from .stream import PointStream

# ~98.3 slow cycles per default scan.  The divisor is prime, which makes the
# deflection sequence aperiodic over the full 65536 ticks: no two ticks ever
# repeat a direction, so later ticks densify instead of re-sampling old points.
DEFAULT_TICKS_PER_PERIOD = 65536 / 983


@dataclass(frozen=True)
class LissajousConfig:
    """Scan trajectory parameters.

    ``fx``/``fy`` are relative frequencies (only their ratio and the tick
    period matter), ``amp_x``/``amp_y`` the angular half-field-of-view, and
    ``ticks_per_period`` how many clock ticks span one unit frequency cycle.
    """

    fx: float = 1.1
    fy: float = 1.8
    phase: float = 0.0
    amp_x: float = 0.6
    amp_y: float = 0.6
    ticks: int = 65536
    ticks_per_period: float = DEFAULT_TICKS_PER_PERIOD

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got "
                                 f"{getattr(self, f.name)}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("scan frequencies must be positive")
        for amp in (self.amp_x, self.amp_y):
            if not 0 < amp <= math.pi / 2:
                raise ValueError(f"amplitude {amp} outside (0, pi/2]")
        if self.ticks < 1:
            raise ValueError("ticks must be >= 1")
        if self.ticks_per_period <= 0:
            raise ValueError("ticks_per_period must be positive")


@dataclass(frozen=True)
class CameraPose:
    position: tuple[float, float, float]
    target: tuple[float, float, float]

    def __post_init__(self):
        if tuple(self.position) == tuple(self.target):
            raise ValueError("camera position equals its look-at target")


def deflection_angles(cfg: LissajousConfig, t) -> tuple[np.ndarray, np.ndarray]:
    """Yaw/pitch deflection at tick(s) ``t``."""
    u = 2.0 * math.pi * np.asarray(t, dtype=float) / cfg.ticks_per_period
    return cfg.amp_x * np.sin(cfg.fx * u), cfg.amp_y * np.sin(cfg.fy * u + cfg.phase)


def lissajous_direction(cfg: LissajousConfig, t) -> np.ndarray:
    """Unit ray direction at tick ``t`` in the camera frame.

    Camera frame axes: x = right, y = up, z = forward.  The forward axis is
    yawed by the x-deflection and then pitched by the y-deflection, i.e. the
    standard azimuth/elevation parametrization, so the result is always unit
    length.
    """
    thx, thy = deflection_angles(cfg, t)
    return np.stack([np.cos(thy) * np.sin(thx),
                     np.sin(thy),
                     np.cos(thy) * np.cos(thx)], axis=-1)


_GRID_PITCH = 0.1
_WALL_INSET = 0.05
_MIN_ALTITUDE = 1.5


def place_cameras(scene: Scene, max_poses: int = 50,
                  seed: int = 0) -> list[CameraPose]:
    """Sample camera poses on planes just inside the room's outer walls.

    Candidate positions form a ``_GRID_PITCH`` grid on each of the four
    vertical planes ``_WALL_INSET`` metres inward, restricted to at least
    ``_MIN_ALTITUDE`` above the floor; up to ``max_poses`` are drawn
    uniformly without replacement.  Every pose looks at the room center.
    """
    if max_poses < 1:
        raise SceneError(f"max_poses must be >= 1, got {max_poses}")
    lo = np.asarray(scene.room_lo, dtype=float)
    hi = np.asarray(scene.room_hi, dtype=float)
    z_lo = lo[2] + _MIN_ALTITUDE
    z_hi = hi[2] - _WALL_INSET
    if z_lo > z_hi:
        raise SceneError(
            f"room height {hi[2] - lo[2]:.2f} m leaves no camera positions "
            f"above the {_MIN_ALTITUDE} m minimum altitude")

    def axis(a, b):
        return np.arange(a, b + 1e-9, _GRID_PITCH)

    zs = axis(z_lo, z_hi)
    xs = axis(lo[0] + _WALL_INSET, hi[0] - _WALL_INSET)
    ys = axis(lo[1] + _WALL_INSET, hi[1] - _WALL_INSET)
    candidates = []
    for x in (lo[0] + _WALL_INSET, hi[0] - _WALL_INSET):
        for y in ys:
            for z in zs:
                candidates.append((x, y, z))
    for y in (lo[1] + _WALL_INSET, hi[1] - _WALL_INSET):
        for x in xs:
            for z in zs:
                candidates.append((x, y, z))
    # the four vertical edges appear on two planes each
    candidates = sorted(set((round(x, 9), round(y, 9), round(z, 9))
                            for x, y, z in candidates))
    if not candidates:
        raise SceneError("no camera candidate satisfies the placement constraints")

    rng = np.random.default_rng(seed)
    k = min(max_poses, len(candidates))
    chosen = rng.choice(len(candidates), size=k, replace=False)
    target = tuple(scene.center)
    return [CameraPose(candidates[i], target) for i in chosen]


def scan(scene: Scene, pose: CameraPose, cfg: LissajousConfig,
         dropout: float = 0.0, seed: int = 0) -> PointStream:
    """Scan a scene from one pose; one ray per tick, nearest hit wins.

    Ticks whose ray misses every primitive (or is dropped by the optional
    ``dropout`` probability) emit nothing, so timestamps in the output are a
    strictly increasing subsequence of ``[0, cfg.ticks)``.  The full scan
    configuration is recorded in the stream's meta so downstream metrics can
    reconstruct the angular field of view.
    """
    if not 0.0 <= dropout <= 1.0:
        raise ValueError("dropout must be a probability")
    right, up, forward = camera_basis(pose.position, pose.target)
    ts = np.arange(cfg.ticks, dtype=np.int64)
    d = lissajous_direction(cfg, ts)
    dirs = d[:, :1] * right + d[:, 1:2] * up + d[:, 2:] * forward

    origin = np.asarray(pose.position, dtype=float)
    n = cfg.ticks
    best = np.full(n, np.inf)
    owner = np.full(n, -1, dtype=np.int64)
    for pi, prim in enumerate(scene.primitives):
        lo, hi = prim.corners()
        dist = slab_distances(origin, dirs, lo, hi)
        closer = dist < best  # strict: ties keep the lower primitive index
        best = np.where(closer, dist, best)
        owner = np.where(closer, pi, owner)

    emit = np.isfinite(best)
    if dropout > 0.0:
        rng = np.random.default_rng(seed)
        emit &= rng.random(n) >= dropout
    idx = np.flatnonzero(emit)
    points = origin + best[idx, None] * dirs[idx]
    prim_labels = np.array([p.label for p in scene.primitives], dtype=np.int64)
    labels = prim_labels[owner[idx]] if len(idx) else np.zeros(0, dtype=np.int64)

    meta = {
        "scene": scene.name,
        "camera_position": _vec(pose.position),
        "camera_target": _vec(pose.target),
        "fx": repr(cfg.fx), "fy": repr(cfg.fy), "phase": repr(cfg.phase),
        "amp_x": repr(cfg.amp_x), "amp_y": repr(cfg.amp_y),
        "ticks": str(cfg.ticks), "ticks_per_period": repr(cfg.ticks_per_period),
        "dropout": repr(dropout), "dropout_seed": str(seed),
    }
    return PointStream(points.astype(np.float32), labels, ts[idx],
                       scene.class_count, scene.label_map, meta)


def scan_meta_fov(meta: dict) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Recover (camera position, target, amp_x, amp_y) from stream meta."""
    try:
        pos = np.array([float(v) for v in meta["camera_position"].split()])
        tgt = np.array([float(v) for v in meta["camera_target"].split()])
        return pos, tgt, float(meta["amp_x"]), float(meta["amp_y"])
    except KeyError as exc:
        raise ValueError(f"stream meta lacks scanner key {exc}") from exc


def _vec(v) -> str:
    return " ".join(repr(float(c)) for c in v)
