"""Accuracy and coverage metrics: IoU per class and mIoU, spatial coverage,
and the ``metrics.csv`` rows that ``report`` renders from ``metrics.json``.

mIoU follows the common convention of excluding classes with zero union
(neither predicted nor present) from the mean.  Coverage measures how much
of the scanner's angular field of view has received at least one detection
by a given tick, normalized by the cells occupied over the full scan, which
is what makes a stream "spatially complete" long before it is dense.
"""

from __future__ import annotations

import numpy as np

from .assemble import CumulativeOutput
from .geometry import camera_basis
from .scanner import scan_meta_fov
from .stream import PointStream


class MetricsError(ValueError):
    pass


def _iou(gt, pred, class_count: int) -> tuple[np.ndarray, float]:
    """Per-class IoU (NaN where the union is empty) and their mean, from
    three length-C counts: true positives, ground truth and predictions."""
    gt = np.asarray(gt, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gt.shape != pred.shape:
        raise MetricsError("ground truth and prediction lengths differ")
    if len(gt) and (gt.min() < 0 or gt.max() >= class_count
                    or pred.min() < 0 or pred.max() >= class_count):
        raise MetricsError("labels outside [0, class_count)")
    tp = np.bincount(gt[gt == pred], minlength=class_count).astype(float)
    union = (np.bincount(pred, minlength=class_count)
             + np.bincount(gt, minlength=class_count) - tp)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(union > 0, tp / union, np.nan)
    included = ~np.isnan(per_class)
    if not included.any():
        raise MetricsError("no class has a nonzero union")
    return per_class, float(per_class[included].mean())


def miou(output: CumulativeOutput) -> tuple[np.ndarray, float]:
    """Per-class IoU and mIoU of a cumulative output (error when empty)."""
    if len(output) == 0:
        raise MetricsError("cannot evaluate an empty output")
    return _iou(output.gt_labels, output.pred_labels, output.class_count)


def miou_by_origin(output: CumulativeOutput) -> dict[int, float]:
    """Scale-local mIoU of each scale that holds a point, over its points."""
    b = output.bounds
    return {s: _iou(output.gt_labels[lo:hi], output.pred_labels[lo:hi],
                    output.class_count)[1]
            for s, (lo, hi) in enumerate(zip(b, b[1:]), start=1) if hi > lo}


def cost_of_scalability(baseline_miou: float, scalable_final_miou: float) -> float:
    """Baseline minus scalable mIoU, in percentage points (negative when the
    scalable method wins)."""
    if not (0.0 <= baseline_miou <= 1.0 and 0.0 <= scalable_final_miou <= 1.0):
        raise MetricsError("mIoU operands must lie in [0, 1]")
    return (baseline_miou - scalable_final_miou) * 100.0


def coverage_curve(stream: PointStream, ticks,
                   grid_resolution: int = 16) -> list[tuple[int, float]]:
    """``(tick, coverage)`` for each of ``ticks``.

    Cells are an equally spaced grid over the scanner's deflection range,
    reconstructed from the stream's scanner metadata.  Normalization is
    against the cells occupied over the whole stream, so the value reaches
    1.0 at the final timestamp regardless of rays that never hit anything.
    Each tick counts the cells first hit within its stream prefix.
    """
    if grid_resolution < 1:
        raise MetricsError("grid_resolution must be >= 1")
    ticks = [int(t) for t in ticks]
    if len(stream) == 0:
        return [(t, 0.0) for t in ticks]
    _, first = np.unique(_occupied_cells(stream, grid_resolution),
                         return_index=True)
    first.sort()
    ends = np.searchsorted(stream.timestamps, ticks, side="right")
    return [(t, int(np.searchsorted(first, n)) / len(first))
            for t, n in zip(ticks, ends.tolist())]


def _occupied_cells(stream: PointStream, g: int) -> np.ndarray:
    position, target, amp_x, amp_y = scan_meta_fov(stream.meta)
    right, up, forward = camera_basis(position, target)
    rel = stream.positions.astype(float) - position
    rel /= np.linalg.norm(rel, axis=1, keepdims=True)
    thy = np.arcsin(np.clip(rel @ up, -1.0, 1.0))
    thx = np.arctan2(rel @ right, rel @ forward)
    ix = np.clip(((thx + amp_x) / (2 * amp_x) * g).astype(np.int64), 0, g - 1)
    iy = np.clip(((thy + amp_y) / (2 * amp_y) * g).astype(np.int64), 0, g - 1)
    return ix * g + iy


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, each ``"`` doubled, when it
    holds a comma, a quote, a CR or an LF; otherwise as it is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def metrics_csv(metrics: dict) -> str:
    """``metrics.csv``: the numbers of the dict that ``metrics.json`` holds
    as ``metric,scale,value`` rows, ``iou_*`` in ``per_class_iou``'s order
    (class names, sorted, as read back); a None mIoU is an empty value, and
    a class name is quoted where RFC 4180 needs it."""
    rows = ["metric,scale,value"]
    for name, key in (("miou", "scale_miou"),
                      ("miou_unrefined", "scale_miou_unrefined")):
        for i, v in enumerate(metrics[key] or (), start=1):
            rows.append(f"{name},{i},{'' if v is None else repr(v)}")
    for name, v in metrics["per_class_iou"].items():
        rows.append(f"{_csv_field(f'iou_{name}')},,{v!r}")
    rows.append(f"baseline_miou,,{metrics['baseline_miou']!r}")
    rows.append(f"cost_of_scalability_pct,,{metrics['cost_of_scalability_pct']!r}")
    for key, v in sorted(metrics["latency"].items()):
        if isinstance(v, (int, float)):
            rows.append(f"latency_{key},,{v!r}")
    for t, c in metrics["coverage_curve"]:
        rows.append(f"coverage,{t},{c!r}")
    return "\n".join(rows) + "\n"
