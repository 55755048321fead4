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
from .stream import PointStream, format_rows


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


#: Header line of every cumulative CSV.
_CSV_HEADER = "x,y,z,t,origin_scale,pred,gt\n"


def row_heads(output: CumulativeOutput) -> list[str]:
    """The ``x,y,z,t,origin_scale,`` text of each point of ``output``.

    Every cumulative output is a prefix of the final one and a point's
    position, timestamp and origin scale are the same in each, so the final
    output's heads serve the CSV of every scale.
    """
    return list(format_rows("{},{},{},{},{},", output.positions,
                            output.timestamps, output.origin_scales))


def cumulative_csv(output: CumulativeOutput, heads: Sequence[str]) -> str:
    """CSV rendering: ``x,y,z,t,origin_scale,pred,gt`` per point.

    ``heads`` is :func:`row_heads` of this output or of an output it is a
    prefix of; only the ``pred,gt`` text is rendered here, once per distinct
    pair, and rows with the same pair share that string.
    """
    n = len(output)
    if len(heads) < n:
        raise AssembleError(f"{len(heads)} row heads for {n} rows")
    if n == 0:
        return _CSV_HEADER
    pieces = [""] * (2 * n)
    pieces[0::2] = heads[:n]
    c = output.class_count
    pairs, row_pair = np.unique(
        np.asarray(output.pred_labels, dtype=np.int64) * c + output.gt_labels,
        return_inverse=True)
    tails = [f"{pair // c},{pair % c}\n" for pair in pairs.tolist()]
    pieces[1::2] = map(tails.__getitem__, row_pair.tolist())
    pieces[0] = _CSV_HEADER + pieces[0]
    return "".join(pieces)
