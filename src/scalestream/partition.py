"""Timestamp partitioning of point streams into resolution scales.

Scale ``i`` owns the points whose timestamp falls in the half-open interval
``(cuts[i-2], cuts[i-1]]`` (with an implicit -1 before the first cut), so
every cut timestamp belongs to exactly one scale and the scales concatenate
losslessly back to the stream.  Partitioning by time rather than by count
means a scale is a resolution level: its cardinality varies with how many
ticks actually produced detections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stream import PointStream

#: Cut timestamps used throughout: five scales on a 65536-tick scan.
DEFAULT_CUTS = (2000, 6000, 15000, 35000, 65536)


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionSpec:
    """Strictly increasing, non-negative cut timestamps; one scale per cut."""

    cuts: tuple[int, ...]

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if len(cuts) < 1:
            raise PartitionError("need at least one cut timestamp")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise PartitionError(f"cuts must be strictly increasing, got {cuts}")
        if cuts[0] < 0:  # a timestamp is never negative
            raise PartitionError(f"cuts must be non-negative, got {cuts}")

    def interval(self, scale: int) -> tuple[int, int]:
        """(exclusive lower, inclusive upper) tick bounds of a 1-based scale."""
        lo = -1 if scale == 1 else self.cuts[scale - 2]
        return lo, self.cuts[scale - 1]


@dataclass(frozen=True)
class Partition:
    """The points of one resolution scale, in capture order: a contiguous
    stream slice, because timestamps are non-decreasing."""

    scale: int
    positions: np.ndarray
    labels: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)


def partition(stream: PointStream, spec: PartitionSpec) -> list[Partition]:
    """Split a stream at the spec's cut timestamps.

    The final cut must reach the stream's maximum timestamp; silently
    dropping late points would corrupt downstream accuracy accounting, so a
    short spec is an error that reports how many points it would lose.
    """
    ts = stream.timestamps
    if len(stream) and spec.cuts[-1] < stream.max_timestamp:
        dropped = int(np.sum(ts > spec.cuts[-1]))
        raise PartitionError(
            f"final cut {spec.cuts[-1]} is below the stream maximum "
            f"{stream.max_timestamp}; {dropped} points would be dropped")

    bounds = np.searchsorted(ts, spec.cuts, side="right")
    parts = []
    start = 0
    for i, end in enumerate(bounds, start=1):
        end = int(end)
        parts.append(Partition(
            scale=i,
            positions=stream.positions[start:end],
            labels=stream.labels[start:end],
            timestamps=ts[start:end],
        ))
        start = end
    return parts
