"""Dependency-free SVG report plots.

Two figures: accuracy per scale (refined vs. unrefined vs. baseline) and a
timeline Gantt whose shaded band marks the post-acquisition latency zone
between the full-overlap and no-overlap bounds.  The SVG structure is
deliberately minimal and stable (fixed canvas, one ``<g>`` per series) so
the files are diffable; see docs/FORMATS.md.  ``report`` draws both, the
accuracy chart from the dict that ``metrics.json`` holds.
"""

from __future__ import annotations

from .pipeline import (BASELINE_DONE, BASELINE_START, CUMULATIVE_AVAILABLE,
                       PARTITION_READY, SCALE_DONE, SCALE_START,
                       LatencyMetrics, Timeline, refine_intervals)

W, H = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 50


def _f(v: float) -> str:
    return f"{v:.2f}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W // 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0, x1, y1 = MARGIN_L, H - MARGIN_B, W - MARGIN_R, MARGIN_T
    return [
        f'<g id="axes" stroke="black" fill="none">'
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}"/></g>',
        f'<text x="{(x0 + x1) // 2}" y="{H - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{x_label}</text>',
        f'<text x="14" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 14 {(y0 + y1) // 2})">'
        f'{y_label}</text>',
    ]


def miou_plot(metrics: dict) -> str:
    """Accuracy-per-scale line chart of the ``scale_miou``,
    ``scale_miou_unrefined`` and ``baseline_miou`` of ``metrics``, the
    baseline as a dashed rule; a scale without an mIoU (empty prefix) has
    no point."""
    k = len(metrics["scale_miou"])
    x0, y0, x1, y1 = MARGIN_L, H - MARGIN_B, W - MARGIN_R, MARGIN_T

    def px(scale: int) -> float:
        return x0 + (scale - 1) / max(k - 1, 1) * (x1 - x0)

    def py(v: float) -> float:
        return y0 - max(0.0, min(v, 1.0)) * (y0 - y1)

    parts = _header("mIoU per scale") + _axes("scale", "mIoU")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(f'<line x1="{x0}" y1="{_f(y)}" x2="{x1}" y2="{_f(y)}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{x0 - 6}" y="{_f(y + 4)}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{frac:.2f}</text>')
    for i in range(1, k + 1):
        parts.append(f'<text x="{_f(px(i))}" y="{y0 + 16}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{i}</text>')

    yb = py(metrics["baseline_miou"])
    parts.append(f'<g id="baseline"><line x1="{x0}" y1="{_f(yb)}" x2="{x1}" '
                 f'y2="{_f(yb)}" stroke="#555555" stroke-dasharray="6 3"/>'
                 f'<text x="{x1 - 4}" y="{_f(yb - 4)}" text-anchor="end" '
                 f'font-size="10" font-family="sans-serif">baseline</text></g>')

    def series(gid: str, values, color: str) -> str:
        xy = [(_f(px(i)), _f(py(v)))
              for i, v in enumerate(values, start=1) if v is not None]
        pts = " ".join(f"{x},{y}" for x, y in xy)
        dots = "".join(f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>'
                       for x, y in xy)
        return (f'<g id="{gid}"><polyline points="{pts}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>{dots}</g>')

    if metrics["scale_miou_unrefined"] is not None:
        parts.append(series("unrefined", metrics["scale_miou_unrefined"],
                            "#cc6633"))
    parts.append(series("refined", metrics["scale_miou"], "#336699"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def timeline_plot(scalable: Timeline, baseline: Timeline,
                  lat: LatencyMetrics) -> str:
    """Gantt chart of the run with the latency zone shaded."""
    scales = scalable.scales()
    k = scales[-1] if scales else 0
    t_max = max(lat.acquisition_end + lat.post_acq_upper,
                baseline.instant(BASELINE_DONE, 0)) or 1.0
    x0, x1 = MARGIN_L, W - MARGIN_R
    rows = k + 2  # acquisition + scales + baseline
    row_h = (H - MARGIN_T - MARGIN_B) / rows

    def px(t: float) -> float:
        return x0 + (t / t_max) * (x1 - x0)

    def ry(row: int) -> float:
        return MARGIN_T + row * row_h

    def bar(row: int, t_a: float, t_b: float, color: str) -> str:
        wpx = max(px(t_b) - px(t_a), 0.5)
        return (f'<rect x="{_f(px(t_a))}" y="{_f(ry(row) + row_h * 0.2)}" '
                f'width="{_f(wpx)}" height="{_f(row_h * 0.6)}" fill="{color}"/>')

    def label(row: int, text: str) -> str:
        return (f'<text x="{x0 - 6}" y="{_f(ry(row) + row_h * 0.65)}" '
                f'text-anchor="end" font-size="10" font-family="sans-serif">'
                f'{text}</text>')

    parts = _header("pipeline timeline") + _axes("seconds", "")
    zone_a = lat.acquisition_end + lat.post_acq_lower
    zone_b = lat.acquisition_end + lat.post_acq_upper
    parts.append(f'<g id="latency-zone"><rect x="{_f(px(zone_a))}" '
                 f'y="{MARGIN_T}" width="{_f(max(px(zone_b) - px(zone_a), 0.5))}" '
                 f'height="{_f(H - MARGIN_T - MARGIN_B)}" fill="#f6d96b" '
                 f'opacity="0.45"/></g>')

    parts.append(f'<g id="acquisition">{label(0, "acquire")}'
                 f'{bar(0, 0.0, lat.acquisition_end, "#bbbbbb")}</g>')
    refines = refine_intervals(scalable)
    for i in scales:
        pieces = [label(i, f"scale {i}")]
        pieces.append(bar(i, scalable.instant(SCALE_START, i),
                          scalable.instant(SCALE_DONE, i), "#336699"))
        pieces += [bar(i, a, b, "#66aa66") for a, b in refines.get(i, [])]
        avail = scalable.instant(CUMULATIVE_AVAILABLE, i)
        pieces.append(f'<line x1="{_f(px(avail))}" y1="{_f(ry(i))}" '
                      f'x2="{_f(px(avail))}" y2="{_f(ry(i) + row_h)}" '
                      f'stroke="#222222"/>')
        ready = scalable.instant(PARTITION_READY, i)
        pieces.append(f'<line x1="{_f(px(ready))}" y1="{_f(ry(i))}" '
                      f'x2="{_f(px(ready))}" y2="{_f(ry(i) + row_h)}" '
                      f'stroke="#999999" stroke-dasharray="2 2"/>')
        parts.append(f'<g id="scale-{i}">{"".join(pieces)}</g>')

    row_b = k + 1
    parts.append(f'<g id="baseline">{label(row_b, "baseline")}'
                 f'{bar(row_b, baseline.instant(BASELINE_START, 0), baseline.instant(BASELINE_DONE, 0), "#aa5555")}</g>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
