"""KNN majority-vote refinement of lower-scale predictions.

When a higher scale finishes predicting, each lower-scale point gathers its
K nearest neighbors among the next scale's points and adopts their majority
label.  Refinements cascade: the arrival of scale ``j`` first refines scale
``j-1`` with ``j``, then ``j-2`` with the freshly refined ``j-1``, and so on
down to scale 1, so every step votes with the most up-to-date labels.

The labels of scales ``1..j`` are one array (in a run, the labels of the
predictor's context) that the cascade refines in place; of the partitions
it reads only positions and sizes, never the ground truth.

The neighbors depend on positions alone, so each scale pair is searched
once per run: the arrival of scale ``j`` searches pair ``(j-1, j)`` and
appends the index table to the run's list, and every later vote of that
pair gathers labels through the same table.

Everything here is exact and deterministic: neighbor ties are broken by the
lower reference index and vote ties by the label of the nearest neighbor in
a tied class.  Determinism is what lets the tests compare against brute-force
oracles bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .partition import Partition


class UpdateError(ValueError):
    pass


@dataclass(frozen=True)
class UpdateConfig:
    """Neighbor count for majority voting (Euclidean metric)."""

    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise UpdateError(f"update neighbor count must be >= 1, got {self.k}")


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


def cascade_step(lowers: Sequence[Partition], arrived: Partition,
                 labels: np.ndarray, cfg: UpdateConfig,
                 tables: list[np.ndarray | None],
                 on_refine: Callable[[int], None] | None = None) -> None:
    """Incorporate a newly arrived scale: refine every lower scale, top-down.

    ``lowers`` are the partitions of scales ``1..j-1`` and ``arrived`` that
    of scale ``j``; only their positions and sizes are read.  ``labels``
    holds one label per point of scales ``1..j`` in capture order: scales
    ``1..j-1`` as the arrival of scale ``j-1`` left them, then the raw
    prediction of scale ``j``.  Scales ``j-1..1`` of it are refined in place.

    ``tables[s-1]`` is the :func:`knn_batch` index table from scale ``s``
    into scale ``s+1``, or ``None`` when either side is empty and the pair
    passes its labels through.  The tables missing for pairs up to
    ``(j-1, j)`` are searched and appended, bottom up: a caller that keeps
    one list for a run searches each pair once, one that passes ``[]``
    searches every pair.

    The optional ``on_refine(lower_scale)`` hook fires after each
    refinement, in execution order.
    """
    parts = [*lowers, arrived]
    j = len(parts)
    for i, p in enumerate(parts, start=1):
        if p.scale != i:
            raise UpdateError(
                f"partitions must cover scales 1..{j} in order; "
                f"position {i} holds scale {p.scale}")
    bounds = [0, *accumulate(len(p) for p in parts)]
    if len(labels) != bounds[-1]:
        raise UpdateError(f"{len(labels)} labels for the {bounds[-1]} points "
                          f"of scales 1..{j}")
    if len(tables) > j - 1:
        raise UpdateError(f"{len(tables)} neighbor tables given for the "
                          f"{j - 1} scale pairs below scale {j}")

    for s in range(len(tables) + 1, j):
        lower, upper = parts[s - 1], parts[s]
        tables.append(knn_batch(lower.positions, upper.positions, cfg.k)
                      if len(lower) and len(upper) else None)
    for i in range(j - 1, 0, -1):
        if tables[i - 1] is not None:
            upper = labels[bounds[i]:bounds[i + 1]]
            labels[bounds[i - 1]:bounds[i]] = _majority_vote(upper[tables[i - 1]])
        if on_refine is not None:
            on_refine(i)
