"""KNN majority-vote refinement of lower-scale predictions.

When a higher scale finishes predicting, each lower-scale point gathers its
K nearest neighbors among the next scale's points and adopts their majority
label.  Refinements cascade: the arrival of scale ``j`` first refines scale
``j-1`` with ``j``, then ``j-2`` with the freshly refined ``j-1``, and so on
down to scale 1, so every step votes with the most up-to-date labels.

Everything here is exact and deterministic: neighbor ties are broken by the
lower reference index and vote ties by the label of the nearest neighbor in
a tied class.  Determinism is what lets the tests compare against brute-force
oracles bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree


class UpdateError(ValueError):
    pass


@dataclass(frozen=True)
class UpdateConfig:
    """Neighbor count for majority voting (Euclidean metric)."""

    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise UpdateError(f"update neighbor count must be >= 1, got {self.k}")


@dataclass(frozen=True)
class ScalePrediction:
    """Predicted labels for one scale's points.

    ``level`` records how far the refinement has progressed: level ``j``
    means all predictions up to scale ``j`` have been incorporated.
    """

    scale: int
    positions: np.ndarray
    labels: np.ndarray
    level: int

    def __post_init__(self):
        if len(self.labels) != len(self.positions):
            raise UpdateError("one label per position required")
        if self.level < self.scale:
            raise UpdateError(f"level {self.level} below scale {self.scale}")

    def __len__(self) -> int:
        return len(self.labels)


def knn_batch(queries, reference, k: int) -> np.ndarray:
    """Indices of the ``min(k, n)`` nearest reference points per query row.

    Results are ordered by ascending Euclidean distance with exact ties
    broken by the lower reference index.  A k-d tree answers the bulk of the
    queries; rows where the tree reports any equal consecutive distances are
    re-answered by a stable brute-force sort, which pins down the tie order
    the tree does not guarantee.
    """
    ref = np.asarray(reference, dtype=float).reshape(-1, 3)
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    n = len(ref)
    if n == 0:
        raise UpdateError("empty reference cloud")
    k_eff = min(k, n)
    kq = min(k_eff + 1, n)  # one spare neighbor to spot ties at the boundary
    dist, idx = cKDTree(ref).query(q, k=kq)
    if kq == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    out = np.ascontiguousarray(idx[:, :k_eff]).astype(np.int64)
    if kq > 1:
        suspect = np.flatnonzero((dist[:, :-1] == dist[:, 1:]).any(axis=1))
        for row in suspect:
            d2 = ((ref - q[row]) ** 2).sum(axis=1)
            out[row] = np.argsort(d2, kind="stable")[:k_eff]
    return out


def _majority_vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Most frequent label per row; ties go to the earliest (nearest) column
    holding a tied label."""
    nq, k_eff = neighbor_labels.shape
    span = int(neighbor_labels.max()) + 1
    offsets = neighbor_labels + span * np.arange(nq)[:, None]
    counts = np.bincount(offsets.ravel(), minlength=nq * span).reshape(nq, span)
    top = counts.max(axis=1)
    rows = np.arange(nq)
    winner = np.full(nq, -1, dtype=np.int64)
    for col in range(k_eff):
        lab = neighbor_labels[:, col]
        take = (winner < 0) & (counts[rows, lab] == top)
        winner[take] = lab[take]
    return winner


def refine(lower: ScalePrediction, upper: ScalePrediction,
           cfg: UpdateConfig) -> ScalePrediction:
    """Refine ``lower`` by majority vote among its neighbors in ``upper``.

    Positions, cardinality and order never change; only labels do.  An empty
    upper scale passes the lower prediction through with its level advanced.
    """
    if upper.scale != lower.scale + 1:
        raise UpdateError(
            f"refine needs consecutive scales, got {lower.scale} and {upper.scale}")
    if len(upper) == 0 or len(lower) == 0:
        return replace(lower, level=upper.level)
    neighbors = knn_batch(lower.positions, upper.positions, cfg.k)
    new_labels = _majority_vote(upper.labels[neighbors])
    return ScalePrediction(lower.scale, lower.positions, new_labels, upper.level)


def _check_contiguous(predictions: Sequence[ScalePrediction]) -> None:
    for i, p in enumerate(predictions, start=1):
        if p.scale != i:
            raise UpdateError(
                f"predictions must cover scales 1..{len(predictions)} in order; "
                f"position {i} holds scale {p.scale}")


def cascade_step(lowers: Sequence[ScalePrediction], arrived: ScalePrediction,
                 cfg: UpdateConfig,
                 on_refine: Callable[[int, int, int, float], None] | None = None,
                 ) -> list[ScalePrediction]:
    """Incorporate a newly arrived scale: refine every lower scale, top-down.

    ``lowers`` must hold scales ``1..j-1`` at level ``j-1`` and ``arrived``
    scale ``j`` at level ``j``.  Returns scales ``1..j`` at level ``j``.  The
    optional ``on_refine(lower_scale, n_lower, n_upper, seconds)`` hook fires
    after each refinement, in execution order, for timing instrumentation.
    """
    _check_contiguous(lowers)
    j = arrived.scale
    if j != len(lowers) + 1:
        raise UpdateError(f"arrived scale {j} does not follow {len(lowers)} lower scales")
    if arrived.level != j:
        raise UpdateError(f"arrived scale {j} must be at its own level, got {arrived.level}")
    for p in lowers:
        if p.level != j - 1:
            raise UpdateError(
                f"scale {p.scale} is at level {p.level}, expected {j - 1}")

    out = list(lowers) + [arrived]
    for i in range(j - 1, 0, -1):
        t0 = time.perf_counter()
        out[i - 1] = refine(out[i - 1], out[i], cfg)
        if on_refine is not None:
            on_refine(i, len(out[i - 1]), len(out[i]), time.perf_counter() - t0)
    return out


def cascade(predictions: Sequence[ScalePrediction],
            cfg: UpdateConfig) -> list[ScalePrediction]:
    """Bring every scale up to the level of the highest one provided.

    Accepts either fresh per-scale outputs (scale ``i`` at level ``i``) or a
    partially refined state (scales ``1..a`` already at level ``a``); replays
    the remaining arrivals in order.  Applying this once at the end equals
    applying :func:`cascade_step` on every arrival as it happens.
    """
    preds = list(predictions)
    _check_contiguous(preds)
    m = len(preds)
    if m == 0:
        return []
    base = preds[0].level
    for p in preds:
        if p.level != max(p.scale, base):
            raise UpdateError(
                f"inconsistent refinement state: scale {p.scale} at level "
                f"{p.level}, expected {max(p.scale, base)}")
    if base > m:
        raise UpdateError(f"level {base} exceeds highest provided scale {m}")
    current = preds[:base]
    for j in range(base + 1, m + 1):
        current = cascade_step(current, preds[j - 1], cfg)
    return current
