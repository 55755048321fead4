"""Synthetic labeled scenes: parametric rooms and the scene description file.

Scenes are collections of labeled axis-aligned primitives inside a room
bounding box.  The built-in room builder emits a desk-scale office (floor,
walls, furniture, wall fixtures) that exercises all 11 indoor classes, so
accuracy experiments get nontrivial class structure without external data.

Scene files are line-oriented text (see docs/FORMATS.md):

    scene <name>
    classes <comma-separated class names>      # optional, defaults to indoor-11
    room <x0> <y0> <z0> <x1> <y1> <z1>
    box  <class> <x0> <y0> <z0> <x1> <y1> <z1> [instance-name]
    rect <class> <x0> <y0> <z0> <x1> <y1> <z1> [instance-name]

``rect`` primitives must be flat along exactly one axis, ``box`` along none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Primitive
from .stream import LabelMap, indoor_label_map


class SceneError(ValueError):
    """Raised for invalid scene definitions or unparsable scene files."""


@dataclass(frozen=True)
class Scene:
    name: str
    room_lo: tuple[float, float, float]
    room_hi: tuple[float, float, float]
    primitives: tuple[Primitive, ...]
    label_map: LabelMap = field(default_factory=indoor_label_map)

    def __post_init__(self):
        lo = np.asarray(self.room_lo, dtype=float)
        hi = np.asarray(self.room_hi, dtype=float)
        if not np.all(hi > lo):
            raise SceneError(f"degenerate room box {self.room_lo}..{self.room_hi}")
        for p in self.primitives:
            if p.label >= len(self.label_map):
                raise SceneError(
                    f"primitive {p.name!r} label {p.label} outside class map "
                    f"of size {len(self.label_map)}")

    @property
    def class_count(self) -> int:
        return len(self.label_map)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.room_lo, dtype=float)
                + np.asarray(self.room_hi, dtype=float)) / 2.0


# Offset separating wall fixtures (window, door, board) from their wall so the
# nearest-hit rule resolves in favor of the fixture.
_FIXTURE_INSET = 0.005


def default_room(width: float = 4.0, depth: float = 4.0,
                 height: float = 3.0) -> Scene:
    """Parametric office: floor, 4 walls, and furniture covering all classes.

    The room is open at the top (the indoor class set has no ceiling), so
    steeply upward rays can miss; the scanner records nothing for those
    ticks, which keeps partition cardinality variable.
    """
    if width < 2.0 or depth < 2.0 or height < 2.0:
        raise SceneError("default room needs at least 2 m in every dimension")
    lm = indoor_label_map()
    c = {name: i for i, name in enumerate(lm.names)}
    w, d, h = width, depth, height
    e = _FIXTURE_INSET

    prims = [
        Primitive((0, 0, 0), (w, d, 0), c["floor"], "floor"),
        Primitive((0, 0, 0), (0, d, h), c["wall"], "wall-west"),
        Primitive((w, 0, 0), (w, d, h), c["wall"], "wall-east"),
        Primitive((0, 0, 0), (w, 0, h), c["wall"], "wall-south"),
        Primitive((0, d, 0), (w, d, h), c["wall"], "wall-north"),
        Primitive((0.80 * w - 0.15, 0.20 * d - 0.15, 0),
                  (0.80 * w + 0.15, 0.20 * d + 0.15, h), c["column"], "column"),
        Primitive((w - e, 0.25 * d, 0.4 * h), (w - e, 0.55 * d, 0.8 * h), c["window"], "window"),
        Primitive((0.15 * w, e, 0), (0.375 * w, e, 0.7 * h), c["door"], "door"),
        Primitive((0.35 * w, 0.4 * d, 0.70), (0.65 * w, 0.6 * d, 0.76), c["table"], "table"),
        Primitive((0.40 * w, 0.28 * d, 0), (0.51 * w, 0.39 * d, 0.45), c["chair"], "chair-1"),
        Primitive((0.54 * w, 0.61 * d, 0), (0.65 * w, 0.72 * d, 0.45), c["chair"], "chair-2"),
        Primitive((0.12 * w, 0.86 * d, 0), (0.50 * w, 0.99 * d, 0.80), c["sofa"], "sofa"),
        # stays below the 1.5 m camera band that runs along the walls
        Primitive((0.02 * w, 0.55 * d, 0), (0.10 * w, 0.90 * d, 1.40), c["bookcase"], "bookcase"),
        Primitive((0.60 * w, d - e, 0.37 * h), (0.90 * w, d - e, 0.70 * h), c["board"], "board"),
        Primitive((0.44 * w, 0.47 * d, 0.76), (0.52 * w, 0.53 * d, 0.95), c["clutter"], "clutter-box"),
        Primitive((0.04 * w, 0.04 * d, 0), (0.16 * w, 0.16 * d, 0.35), c["clutter"], "clutter-crate"),
    ]
    return Scene("default-room", (0.0, 0.0, 0.0), (w, d, h), tuple(prims), lm)


def parse_scene(text: str, name_hint: str = "scene") -> Scene:
    """Parse the scene description format; raises SceneError with the line
    number on any malformed entry."""
    scene_name = name_hint
    label_map = indoor_label_map()
    room = None
    prims: list[Primitive] = []

    def fail(lineno, msg):
        raise SceneError(f"line {lineno}: {msg}")

    def corners(lineno, texts):
        """The two corners of six coordinate texts, each a finite number."""
        try:
            vals = [float(v) for v in texts]
            finite = all(map(math.isfinite, vals))
        except ValueError:
            finite = False
        if not finite:
            fail(lineno, "coordinates must be finite numbers, got "
                         + " ".join(texts))
        return tuple(vals[:3]), tuple(vals[3:])

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        if kind == "scene":
            if len(parts) != 2:
                fail(lineno, "scene takes exactly one name")
            scene_name = parts[1]
        elif kind == "classes":
            if prims:
                fail(lineno, "classes must precede all primitives")
            names = tuple(n.strip() for n in " ".join(parts[1:]).split(",") if n.strip())
            if not names:
                fail(lineno, "classes needs at least one name")
            label_map = LabelMap(names)
        elif kind == "room":
            if len(parts) != 7:
                fail(lineno, "room needs 6 coordinates")
            room = corners(lineno, parts[1:])
        elif kind in ("box", "rect"):
            if len(parts) not in (8, 9):
                fail(lineno, f"{kind} needs a class name, 6 coordinates and an "
                             "optional instance name")
            cls = parts[1]
            if cls not in label_map.names:
                fail(lineno, f"unknown class {cls!r}")
            lo, hi = corners(lineno, parts[2:8])
            inst = parts[8] if len(parts) == 9 else f"{cls}-{len(prims)}"
            flat = sum(a == b for a, b in zip(lo, hi))
            if kind == "rect" and flat != 1:
                fail(lineno, f"rect must be flat along exactly one axis, got {flat}")
            if kind == "box" and flat != 0:
                fail(lineno, "box must have positive extent on every axis")
            try:
                prims.append(Primitive(lo, hi, label_map.index(cls), inst))
            except ValueError as exc:
                fail(lineno, str(exc))
        else:
            fail(lineno, f"unknown directive {parts[0]!r}")

    if room is None:
        raise SceneError("scene file has no room line")
    return Scene(scene_name, room[0], room[1], tuple(prims), label_map)


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scene(text, name_hint=str(path))


def scene_text(scene: Scene) -> str:
    """Serialize a scene back to the description format."""
    lines = [f"scene {scene.name}",
             "classes " + ",".join(scene.label_map.names),
             "room " + " ".join(_num(v) for v in (*scene.room_lo, *scene.room_hi))]
    for p in scene.primitives:
        kind = "rect" if p.is_rectangle else "box"
        coords = " ".join(_num(v) for v in (*p.lo, *p.hi))
        lines.append(f"{kind} {scene.label_map[p.label]} {coords} {p.name}")
    return "\n".join(lines) + "\n"


def _num(v: float) -> str:
    return np.format_float_positional(float(v), trim="-")
