"""Cumulative outputs: per-scale predictions merged back into capture order.

The cumulative output at scale ``i`` concatenates the (refined) predictions
of scales ``1..i``.  Because partitions are contiguous stream slices, that
concatenation is exactly the stream prefix with ``t <= cuts[i-1]``; each
point also carries its ground-truth label, origin scale and timestamp so
reports can decompose accuracy by scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import Partition
from .stream import PointStream


class AssembleError(ValueError):
    pass


@dataclass(frozen=True)
class CumulativeOutput:
    scale: int
    positions: np.ndarray
    pred_labels: np.ndarray
    gt_labels: np.ndarray
    origin_scales: np.ndarray
    timestamps: np.ndarray
    class_count: int

    def __len__(self) -> int:
        return len(self.pred_labels)


def assemble(stream: PointStream, partitions: Sequence[Partition],
             labels: np.ndarray) -> CumulativeOutput:
    """Build the cumulative output of scale ``i = len(partitions)``.

    ``partitions`` are scales ``1..i`` and ``labels`` their predicted labels
    in capture order, one per point of the stream prefix they cover.
    Positions, ground truth and timestamps are views of that prefix.
    """
    if not partitions:
        raise AssembleError("need at least one partition")
    counts = [p.count for p in partitions]
    n = sum(counts)
    if len(labels) != n:
        raise AssembleError(
            f"{len(labels)} labels for the {n} points of scales "
            f"1..{len(partitions)}")
    return CumulativeOutput(
        scale=len(partitions),
        positions=stream.positions[:n],
        pred_labels=labels,
        gt_labels=stream.labels[:n],
        origin_scales=np.repeat(np.arange(1, len(counts) + 1, dtype=np.int64),
                                counts),
        timestamps=stream.timestamps[:n],
        class_count=stream.class_count,
    )


def cumulative_csv(output: CumulativeOutput) -> str:
    """CSV rendering: ``x,y,z,t,origin_scale,pred,gt`` per point."""
    lines = ["x,y,z,t,origin_scale,pred,gt"]
    pos = output.positions
    for r in range(len(output)):
        coords = ",".join(np.format_float_positional(pos[r, a], trim="-")
                          for a in range(3))
        lines.append(f"{coords},{int(output.timestamps[r])},"
                     f"{int(output.origin_scales[r])},"
                     f"{int(output.pred_labels[r])},{int(output.gt_labels[r])}")
    return "\n".join(lines) + "\n"
