"""Cumulative outputs: per-scale predictions merged back into capture order.

The cumulative output at scale ``i`` concatenates the (refined) predictions
of scales ``1..i``.  Because partitions are contiguous stream slices, that
concatenation is exactly the stream prefix with ``t <= cuts[i-1]``; each
point keeps its ground-truth label and timestamp, and ``i + 1`` prefix offsets
give every point's origin scale, so reports can decompose accuracy by scale.

A run keeps its cumulative outputs in one binary file, ``labels.npz``
(:func:`write_labels`); :func:`read_labels` rebuilds them from it, and
:func:`cumulative_csv` renders each as text on request.
"""

from __future__ import annotations

import io
import zipfile
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .partition import Partition
from .stream import PointStream, format_rows


class AssembleError(ValueError):
    pass


@dataclass(frozen=True)
class CumulativeOutput:
    """Scales ``1..scale`` in capture order: scale ``s`` owns rows
    ``bounds[s-1]:bounds[s]`` of the prefix offsets ``(0, n_1, n_1 + n_2,
    ..., len(self))``."""

    scale: int
    positions: np.ndarray
    pred_labels: np.ndarray
    gt_labels: np.ndarray
    bounds: tuple[int, ...]
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
    bounds = (0, *accumulate(len(p) for p in partitions))
    n = bounds[-1]
    if len(labels) != n:
        raise AssembleError(
            f"{len(labels)} labels for the {n} points of scales "
            f"1..{len(partitions)}")
    return CumulativeOutput(
        scale=len(partitions),
        positions=stream.positions[:n],
        pred_labels=labels,
        gt_labels=stream.labels[:n],
        bounds=bounds,
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
    origins = np.repeat(np.arange(1, len(output.bounds)), np.diff(output.bounds))
    return list(format_rows("{},{},{},{},{},", output.positions,
                            output.timestamps, origins))


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


#: The members of ``labels.npz`` that come before ``pred_1`` ... ``pred_K``,
#: and the dtype of each; every ``pred_i`` is ``<i8`` too.
_POINT_MEMBERS = {"positions": "<f4", "timestamps": "<i8", "gt": "<i8"}
#: Labels are class ids below this bound, so ``cumulative_csv``'s pair codes
#: fit in int64.
_LABEL_BOUND = 2 ** 31


def write_labels(path, outputs: Sequence[CumulativeOutput]) -> None:
    """Write the cumulative outputs of one run to ``path`` with ``np.savez``.

    The file is a stored (uncompressed) zip of ``.npy`` members, in this
    order: ``positions`` (N x 3 float32), ``timestamps`` and ``gt`` (N
    int64) of the final output's points, then ``pred_1`` ... ``pred_K``
    (int64), the predicted labels of each cumulative output.  ``pred_i``
    covers the points of scales 1..i, so the lengths give each point's
    origin scale.  Each member has ``ZipInfo``'s fixed date, not the clock's.
    """
    final = outputs[-1]
    members = {"positions": final.positions, "timestamps": final.timestamps,
               "gt": final.gt_labels,
               **{f"pred_{o.scale}": o.pred_labels for o in outputs}}
    np.savez(path, **{name: np.asarray(a, dtype=_POINT_MEMBERS.get(name, "<i8"))
                      for name, a in members.items()})


def _member_arrays(zf: zipfile.ZipFile) -> dict[str, np.ndarray]:
    """Each member's array by member name, ``.npy`` dropped, once the
    names are those :func:`write_labels` writes, in its order."""
    names = zf.namelist()
    want = [*_POINT_MEMBERS,
            *(f"pred_{i}" for i in range(1, max(len(names) - 3, 1) + 1))]
    for i, name in enumerate(want):
        if i == len(names):
            raise ValueError(f"lacks the member {name}.npy")
        if names[i] != f"{name}.npy":
            raise ValueError(f"member {i + 1} is {names[i]!r}, not {name}.npy")
    arrays = {}
    for name, info in zip(want, zf.infolist()):
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(f"{info.filename} is compressed, not stored")
        data = zf.read(info)  # the whole member, so that its CRC-32 is checked
        buf = io.BytesIO(data)
        arrays[name] = np.lib.format.read_array(buf, allow_pickle=False)
        if buf.tell() != len(data):
            raise ValueError(f"{info.filename} holds {len(data) - buf.tell()} "
                             "bytes past its array")
    return arrays


def _check_labels(arrays: dict[str, np.ndarray]) -> list[CumulativeOutput]:
    """The cumulative outputs that the member arrays of ``labels.npz`` hold,
    once each has its dtype and shape and every label is in range."""
    for name, a in arrays.items():
        dtype = np.dtype(_POINT_MEMBERS.get(name, "<i8"))
        if a.dtype != dtype:
            raise ValueError(f"{name} has dtype {a.dtype.str}, not {dtype.str}")
        if a.ndim != (2 if name == "positions" else 1):
            raise ValueError(f"{name} has shape {a.shape}")
    positions, timestamps, gt = (arrays.pop(name) for name in _POINT_MEMBERS)
    n = len(positions)
    if positions.shape[1] != 3 or len(timestamps) != n or len(gt) != n:
        raise ValueError(f"positions {positions.shape}, timestamps "
                         f"{timestamps.shape} and gt {gt.shape} are not "
                         "(N, 3), (N,) and (N,)")
    lengths = [len(p) for p in arrays.values()]
    if lengths[-1] != n or any(b < a for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"pred_1 ... pred_{len(lengths)} hold {lengths} labels, "
                         f"which must not decrease and must end at the {n} points")
    if not np.isfinite(positions).all():
        raise ValueError("positions holds a value that is not finite")
    class_count = 1
    for name, a in {"gt": gt, **arrays}.items():
        if len(a):
            lo, hi = int(a.min()), int(a.max())
            if lo < 0 or hi >= _LABEL_BOUND:
                raise ValueError(f"{name} holds the label {lo if lo < 0 else hi}, "
                                 f"not a class id in [0, {_LABEL_BOUND})")
            class_count = max(class_count, hi + 1)
    return [CumulativeOutput(scale=i, positions=positions[:m], pred_labels=p,
                             gt_labels=gt[:m], bounds=(0, *lengths[:i]),
                             timestamps=timestamps[:m], class_count=class_count)
            for i, (p, m) in enumerate(zip(arrays.values(), lengths), start=1)]


def read_labels(path) -> list[CumulativeOutput]:
    """The cumulative outputs that :func:`write_labels` wrote to ``path``.

    Every fault is a ValueError whose message starts with ``path``: bytes
    that are not a zip or fail its CRC-32 check, a member missing, extra,
    out of order or compressed, a member that is not a ``.npy`` array of its
    dtype and shape (an object array is refused, never unpickled), a
    position that is not finite, a label outside ``[0, 2**31)``, and
    ``pred_i`` lengths that decrease or do not end at the point count.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            arrays = _member_arrays(zf)
        return _check_labels(arrays)
    except EOFError:  # zipfile raises it without a message
        raise ValueError(f"{path}: a member ends past the end of the file") from None
    # RuntimeError: an encrypted member; MemoryError: a header that claims
    # an array larger than memory
    except (zipfile.BadZipFile, OSError, RuntimeError, ValueError,
            MemoryError) as exc:
        raise ValueError(f"{path}: {exc}") from None
