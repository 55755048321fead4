"""Timestamped labeled point streams and their bit-exact binary format.

A stream is the capture-ordered output of a scanning sensor: one record per
detection, each carrying a position, a semantic class id and an integer
timestamp in scan-clock ticks.  Timestamps are dimensionless here; converting
ticks to seconds is the job of the pipeline timing model, which keeps the
file format independent of any particular sensor rate.

Binary layout (all little-endian), documented in docs/FORMATS.md:

    magic     4 bytes   b"PSTR"
    version   uint16    1
    C         uint16    class count
    count     uint32    number of point records
    labels    uint16 n, then n * (uint16 len + utf-8 name)
    meta      uint16 n, then n * (uint16 len + utf-8 key, uint32 len + utf-8 value)
    records   count * (float32 x, y, z, uint16 label, uint32 t)   -- 18 bytes each

Identical streams always serialize to identical bytes (meta is written in
sorted key order).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

MAGIC = b"PSTR"
FORMAT_VERSION = 1
RECORD_DTYPE = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                         ("label", "<u2"), ("t", "<u4")])
RECORD_SIZE = RECORD_DTYPE.itemsize  # 18 bytes

#: The 11 indoor semantic classes used by the synthetic scenes.
INDOOR_CLASSES = ("floor", "wall", "column", "window", "door", "table",
                  "chair", "sofa", "bookcase", "board", "clutter")


class StreamFormatError(ValueError):
    """Raised for malformed stream files (bad magic, version, truncation)."""


class StreamValidationError(ValueError):
    """Raised when stream content violates an invariant (labels, timestamps)."""


@dataclass(frozen=True)
class LabelMap:
    """Ordered class names; a label id is an index into this tuple."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not all(isinstance(name, str) for name in self.names):
            raise StreamValidationError("class names must be strings")
        if len(set(self.names)) != len(self.names):
            raise StreamValidationError("class names must be unique")

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, label: int) -> str:
        return self.names[label]

    def index(self, name: str) -> int:
        return self.names.index(name)


def indoor_label_map() -> LabelMap:
    return LabelMap(INDOOR_CLASSES)


class PointStream:
    """Capture-ordered sequence of timed points.

    Stored column-wise: ``positions`` is an (N, 3) float32 array, ``labels``
    and ``timestamps`` are (N,) int64 arrays.  Coordinates are float32 by
    construction so that serialization is lossless for every representable
    stream.  Instances are immutable after construction and safe to share
    across threads.
    """

    __slots__ = ("positions", "labels", "timestamps", "class_count", "label_map", "meta")

    def __init__(self, positions, labels, timestamps, class_count: int,
                 label_map: LabelMap | None = None,
                 meta: Mapping[str, str] | None = None):
        positions = np.asarray(positions, dtype=np.float32).reshape(-1, 3)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        timestamps = np.asarray(timestamps, dtype=np.int64).reshape(-1)
        if not (len(positions) == len(labels) == len(timestamps)):
            raise StreamValidationError("positions, labels and timestamps must have equal length")
        if class_count < 1:
            raise StreamValidationError(f"class_count must be >= 1, got {class_count}")
        if not np.all(np.isfinite(positions)):
            bad = int(np.flatnonzero(~np.isfinite(positions).all(axis=1))[0])
            raise StreamValidationError(f"non-finite coordinates at index {bad}")
        if labels.size and (labels.min() < 0 or labels.max() >= class_count):
            bad = int(np.flatnonzero((labels < 0) | (labels >= class_count))[0])
            raise StreamValidationError(
                f"label {int(labels[bad])} at index {bad} outside [0, {class_count})")
        if timestamps.size and timestamps.min() < 0:
            bad = int(np.flatnonzero(timestamps < 0)[0])
            raise StreamValidationError(f"negative timestamp at index {bad}")
        steps = np.diff(timestamps)
        if steps.size and steps.min() < 0:
            bad = int(np.flatnonzero(steps < 0)[0]) + 1
            raise StreamValidationError(f"decreasing timestamp at index {bad}")
        if label_map is not None and len(label_map) != class_count:
            raise StreamValidationError(
                f"label map has {len(label_map)} names for class_count {class_count}")
        meta = dict(meta) if meta else {}
        for k, v in meta.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise StreamValidationError("meta keys and values must be strings")
        positions.setflags(write=False)
        labels.setflags(write=False)
        timestamps.setflags(write=False)
        self.positions = positions
        self.labels = labels
        self.timestamps = timestamps
        self.class_count = int(class_count)
        self.label_map = label_map
        self.meta = meta

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointStream):
            return NotImplemented
        return (self.class_count == other.class_count
                and self.label_map == other.label_map
                and self.meta == other.meta
                and np.array_equal(self.positions, other.positions)
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.timestamps, other.timestamps))

    def __repr__(self) -> str:
        return (f"PointStream({len(self)} points, C={self.class_count}, "
                f"t=[{self.timestamps[0] if len(self) else '-'}"
                f"..{self.timestamps[-1] if len(self) else '-'}])")

    @property
    def max_timestamp(self) -> int:
        """Largest timestamp, or -1 for an empty stream."""
        return int(self.timestamps[-1]) if len(self) else -1


def _pack(fmt: str, value: int, field: str) -> bytes:
    """``value`` packed as ``fmt``, or a StreamValidationError naming ``field``."""
    try:
        return struct.pack(fmt, value)
    except struct.error as exc:
        raise StreamValidationError(f"{field} does not fit the stream format: {exc}") from None


def _text(fmt: str, text: str, field: str) -> bytes:
    """``text`` as its UTF-8 length packed as ``fmt``, then the bytes."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise StreamValidationError(f"{field} cannot be encoded as UTF-8: {exc}") from None
    return _pack(fmt, len(data), f"{field} ({len(data)} UTF-8 bytes)") + data


def write_stream(stream: PointStream, destination) -> int:
    """Serialize a stream to ``destination`` (path or binary file object) in
    one write and return its byte count.  A value that the format cannot hold
    raises StreamValidationError naming the field before anything is written."""
    if len(stream) and int(stream.timestamps.max()) > 0xFFFFFFFF:
        raise StreamValidationError("timestamp exceeds uint32 range")
    names = stream.label_map.names if stream.label_map is not None else ()
    items = sorted(stream.meta.items())
    parts = [MAGIC, _pack("<H", FORMAT_VERSION, "version"),
             _pack("<H", stream.class_count, "class count"),
             _pack("<I", len(stream), "point count"),
             _pack("<H", len(names), "class name count"),
             *(_text("<H", name, f"class name {i}") for i, name in enumerate(names)),
             _pack("<H", len(items), "meta entry count")]
    for i, (key, value) in enumerate(items):
        parts += [_text("<H", key, f"meta key {i}"), _text("<I", value, f"meta value {i}")]
    parts.append(np.rec.fromarrays([*stream.positions.T, stream.labels, stream.timestamps],
                                   dtype=RECORD_DTYPE).tobytes())
    data = b"".join(parts)
    if isinstance(destination, (str, Path)):
        Path(destination).write_bytes(data)
    else:
        destination.write(data)
    return len(data)


def read_stream(source) -> PointStream:
    """Parse stream bytes, or the file at path ``source``, written by
    :func:`write_stream`.  A malformed file (wrong magic/version, truncation,
    a name that is not UTF-8, meta keys out of order or repeated, trailing
    bytes) raises StreamFormatError naming the field, never a partial
    stream; content violations (label range, decreasing timestamps) raise
    StreamValidationError naming the offending index.  Read from a path,
    either message starts with the path."""
    if isinstance(source, (bytes, bytearray)):
        return _parse_stream(source)
    try:
        return _parse_stream(Path(source).read_bytes())
    except (StreamFormatError, StreamValidationError) as exc:
        raise type(exc)(f"{source}: {exc}") from None


def _parse_stream(data: bytes) -> PointStream:
    """The stream that ``data`` holds, read with one cursor ``pos``."""
    pos = 0

    def take(fmt: str, what: str) -> tuple:
        nonlocal pos
        try:
            values = struct.unpack_from(fmt, data, pos)
        except struct.error:
            raise StreamFormatError(f"truncated stream file while reading {what}") from None
        pos += struct.calcsize(fmt)
        return values

    def text(lenfmt: str, what: str) -> str:
        (raw,) = take(f"{take(lenfmt, what)[0]}s", what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StreamFormatError(f"{what} is not UTF-8: {exc}") from None

    (magic,) = take("4s", "magic")
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, class_count, count = take("<HHI", "header")
    if version != FORMAT_VERSION:
        raise StreamFormatError(f"unsupported format version {version}")
    (n_names,) = take("<H", "label map")
    names = tuple(text("<H", "class name") for _ in range(n_names))
    (n_meta,) = take("<H", "meta")
    meta = [(text("<H", "meta key"), text("<I", "meta value")) for _ in range(n_meta)]
    if any(a >= b for (a, _), (b, _) in zip(meta, meta[1:])):  # written sorted, once each
        raise StreamFormatError("meta keys not strictly increasing")
    if len(data) - pos != count * RECORD_SIZE:
        raise StreamFormatError(
            f"expected {count * RECORD_SIZE} record bytes, found {len(data) - pos}")
    records = np.frombuffer(data, dtype=RECORD_DTYPE, offset=pos)
    return PointStream(np.column_stack([records[a] for a in "xyz"]), records["label"],
                       records["t"], class_count, LabelMap(names) if n_names else None, dict(meta))


#: Rows formatted per numpy call by :func:`format_rows`; bounds each of its
#: scratch arrays (32 characters per value) to about 0.4 MB.
_FORMAT_CHUNK = 1024


def format_rows(template: str, positions: np.ndarray,
                *columns: np.ndarray) -> Iterator[str]:
    """Yield ``template.format(x, y, z, *values)`` for each row of an (N, 3)
    position array and the matching values of ``columns``.

    Each coordinate is written as ``np.format_float_positional(v, trim="-")``
    does: the shortest decimal form that parses back to the same float32,
    positional, without trailing zeros or a trailing dot.  The values are
    formatted by numpy's string cast, which yields the same shortest digits
    but keeps a trailing ``.0`` and writes very large and very small
    magnitudes in scientific notation; the ``.0`` is stripped, and the rare
    scientific values are formatted one by one.  Rows are formatted a chunk
    at a time, so no temporary spans the whole array.
    """
    for lo in range(0, len(positions), _FORMAT_CHUNK):
        block = positions[lo:lo + _FORMAT_CHUNK]
        text = np.char.rstrip(np.char.rstrip(block.astype(str), "0"), ".")
        scientific = np.argwhere(np.char.find(text, "e") >= 0)
        axes = text.T.tolist()
        for r, a in scientific:
            axes[a][r] = np.format_float_positional(block[r, a], trim="-")
        yield from map(template.format, *axes,
                       *(c[lo:lo + _FORMAT_CHUNK].tolist() for c in columns))
