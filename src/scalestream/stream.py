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

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping

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


def _write_str(buf: BinaryIO, s: str, lenfmt: str) -> int:
    data = s.encode("utf-8")
    buf.write(struct.pack(lenfmt, len(data)))
    buf.write(data)
    return struct.calcsize(lenfmt) + len(data)


def _read_exact(buf: BinaryIO, n: int, what: str) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise StreamFormatError(f"truncated stream file while reading {what}")
    return data


def _read_str(buf: BinaryIO, lenfmt: str, what: str) -> str:
    (n,) = struct.unpack(lenfmt, _read_exact(buf, struct.calcsize(lenfmt), what))
    return _read_exact(buf, n, what).decode("utf-8")


def write_stream(stream: PointStream, destination) -> int:
    """Serialize a stream to ``destination`` (path or binary file object).

    Returns the number of bytes written.  Raises StreamValidationError if a
    label does not fit the header's class count (checked again here because
    the file encodes labels as uint16).
    """
    if stream.class_count > 0xFFFF:
        raise StreamValidationError("class_count exceeds uint16 range")
    if len(stream) and int(stream.timestamps.max()) > 0xFFFFFFFF:
        raise StreamValidationError("timestamp exceeds uint32 range")

    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fh:
            return write_stream(stream, fh)

    buf = destination
    n = 0
    buf.write(MAGIC)
    buf.write(struct.pack("<HHI", FORMAT_VERSION, stream.class_count, len(stream)))
    n += 4 + 8
    names = stream.label_map.names if stream.label_map is not None else ()
    buf.write(struct.pack("<H", len(names)))
    n += 2
    for name in names:
        n += _write_str(buf, name, "<H")
    items = sorted(stream.meta.items())
    buf.write(struct.pack("<H", len(items)))
    n += 2
    for key, value in items:
        n += _write_str(buf, key, "<H")
        n += _write_str(buf, value, "<I")
    records = np.empty(len(stream), dtype=RECORD_DTYPE)
    records["x"] = stream.positions[:, 0]
    records["y"] = stream.positions[:, 1]
    records["z"] = stream.positions[:, 2]
    records["label"] = stream.labels
    records["t"] = stream.timestamps
    data = records.tobytes()
    buf.write(data)
    return n + len(data)


def read_stream(source) -> PointStream:
    """Parse a stream file produced by :func:`write_stream`.

    A malformed file (wrong magic/version, truncated header or records,
    trailing bytes) raises StreamFormatError without returning a partial
    stream; content violations (label range, decreasing timestamps) raise
    StreamValidationError naming the offending index.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return read_stream(fh)
    if isinstance(source, (bytes, bytearray)):
        return read_stream(io.BytesIO(source))

    buf = source
    magic = _read_exact(buf, 4, "magic")
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, class_count, count = struct.unpack("<HHI", _read_exact(buf, 8, "header"))
    if version != FORMAT_VERSION:
        raise StreamFormatError(f"unsupported format version {version}")
    (n_names,) = struct.unpack("<H", _read_exact(buf, 2, "label map"))
    names = tuple(_read_str(buf, "<H", "label map") for _ in range(n_names))
    label_map = LabelMap(names) if n_names else None
    (n_meta,) = struct.unpack("<H", _read_exact(buf, 2, "meta"))
    meta = {}
    for _ in range(n_meta):
        key = _read_str(buf, "<H", "meta key")
        meta[key] = _read_str(buf, "<I", "meta value")
    data = buf.read()
    if len(data) != count * RECORD_SIZE:
        raise StreamFormatError(
            f"expected {count * RECORD_SIZE} record bytes, found {len(data)}")
    records = np.frombuffer(data, dtype=RECORD_DTYPE)
    positions = np.column_stack([records["x"], records["y"], records["z"]]).astype(np.float32)
    return PointStream(positions, records["label"].astype(np.int64),
                       records["t"].astype(np.int64), class_count, label_map, meta)


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


def export_csv(stream: PointStream) -> str:
    """Render a stream as CSV text: header plus one ``x,y,z,label,t`` line
    per point, floats in round-trip-exact form."""
    return "x,y,z,label,t\n" + "".join(format_rows(
        "{},{},{},{},{}\n", stream.positions, stream.labels, stream.timestamps))
