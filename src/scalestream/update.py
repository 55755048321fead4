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
once per label pass: the arrival of scale ``j`` searches pair ``(j-1, j)``
and appends the index table to the pass's list, and every later vote of
that pair gathers labels through the same table.  A simulated sweep makes
one label pass for all its tick durations.

Everything here is exact and deterministic: neighbor ties are broken by the
lower reference index and vote ties by the label of the nearest neighbor in
a tied class.  Determinism is what lets the tests compare against brute-force
oracles bit for bit.  A tied search costs what its neighborhood holds, not a
pass over the whole reference, so a scan that revisits directions stays fast.

The cascade runs on the calling thread.  Memory follows a block, not the
stream: a search answers row blocks against one tree into an int32 table,
sorting for ties at most once, and a vote gathers row blocks.  A block's
threads are joined before the next, and every query row is answered on its
own, so the labels depend neither on the block size nor on the CPU count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .partition import Partition

# scipy's workers=-1 counts the host's CPUs, not the ones this process may use
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_BLOCK_ROWS = 2**15  # rows per search and vote block
_THREAD_ROWS = 512  # on 2 vCPUs one worker beat two below 256-1,024 rows


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
    """int32 indices of the ``min(k, n)`` nearest reference points per query row.

    Results are ordered by ascending Euclidean distance with exact ties
    broken by the lower reference index.  A k-d tree answers the bulk of the
    queries; rows where the tree reports any equal consecutive distances are
    re-answered exactly, since the tree guarantees no tie order: a ball
    query gathers every reference point out to the row's ``k``-th tree
    distance, widened by a relative 1e-9 that can only add candidates, and
    the candidates are ordered by (squared distance, index).

    One tree answers ``_BLOCK_ROWS`` rows at a time, and the tie path's
    sort and tree are made at most once.  Blocks of ``_THREAD_ROWS`` rows or
    more are split across the CPUs the process may run on.  Each row is
    answered on its own, so neither the block size nor the CPU count shows.
    """
    ref = np.asarray(reference, dtype=float).reshape(-1, 3)
    queries = np.atleast_2d(np.asarray(queries))
    n = len(ref)
    if n == 0:
        raise UpdateError("empty reference cloud")
    if n >= 2**31:
        raise UpdateError(f"{n} reference points overflow the int32 neighbor table")
    k_eff = min(k, n)
    kq = min(k_eff + 1, n)  # one spare neighbor to spot ties at the boundary
    tree, break_ties = cKDTree(ref), None
    out = np.empty((len(queries), k_eff), dtype=np.int32)
    for lo in range(0, len(out), _BLOCK_ROWS):
        q = np.asarray(queries[lo:lo + _BLOCK_ROWS], dtype=float)
        workers = _WORKERS if len(q) >= _THREAD_ROWS else 1
        dist, idx = tree.query(q, k=kq, workers=workers)
        dist, idx = dist.reshape(len(q), kq), idx.reshape(len(q), kq)  # k=1 comes back 1-D
        out[lo:lo + len(q)] = idx[:, :k_eff]
        tied = np.flatnonzero((dist[:, :-1] == dist[:, 1:]).any(axis=1))
        if len(tied):
            break_ties = break_ties or _tie_breaker(ref, k_eff)
            out[lo + tied] = break_ties(q[tied], dist[tied, k_eff - 1] * (1 + 1e-9))
        del q, dist, idx  # before the next block's are made
    return out


def _tie_breaker(ref: np.ndarray, k: int) -> Callable:
    """The tie path of one search, ``tied_neighbors(q, radius)``: per row,
    the first ``k`` reference indices within its radius by (squared
    distance, index), in batches of at most 2**18 candidates.

    The balls are gathered over the distinct reference positions, sorted
    once here, and each stands for at most ``k`` of its lowest indices: no
    more of them can be among a row's first ``k``.  A cloud of one repeated
    point thus costs ``k`` candidates per row, not the whole reference."""
    order = np.lexsort(ref.T[::-1])  # stable: equal positions keep index order
    first = np.flatnonzero(np.r_[True, (np.diff(ref[order], axis=0) != 0).any(axis=1)])
    kept = np.minimum(np.diff(np.r_[first, len(ref)]), k)
    tree = cKDTree(ref[order[first]])

    def tied_neighbors(q: np.ndarray, radius: np.ndarray) -> np.ndarray:
        workers = _WORKERS if len(q) >= _THREAD_ROWS else 1
        sizes = tree.query_ball_point(q, radius, return_length=True, workers=workers)
        batch = (np.cumsum(sizes) - sizes) * int(kept.max()) >> 18
        out = np.empty((len(q), k), dtype=np.int64)
        for rows in np.split(np.arange(len(q)), np.flatnonzero(np.diff(batch)) + 1):
            balls = tree.query_ball_point(q[rows], radius[rows], workers=workers)
            groups = np.fromiter(chain.from_iterable(balls), np.int64, int(sizes[rows].sum()))
            # each position's lowest indices, at most k of them
            n_kept = kept[groups]
            rank = np.arange(int(n_kept.sum())) - np.repeat(np.cumsum(n_kept) - n_kept, n_kept)
            cand = order[np.repeat(first[groups], n_kept) + rank]
            row = np.repeat(np.repeat(np.arange(len(rows)), sizes[rows]), n_kept)
            d2 = ((ref[cand] - q[rows[row]]) ** 2).sum(axis=1)
            n = np.bincount(row, minlength=len(rows))
            heads = (np.cumsum(n) - n)[:, None] + np.arange(k)
            out[rows] = cand[np.lexsort((cand, d2, row))][heads]
        return out
    return tied_neighbors


def _majority_vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Most frequent label per row; ties go to the earliest (nearest) column
    holding a tied label.

    Each column counts the columns of its row that hold its label, by
    comparing every pair of columns once: rows x k^2 comparisons, and
    rows x k integers whatever the class ids."""
    columns = np.ascontiguousarray(neighbor_labels.T)  # contiguous k x rows
    counts = np.ones(columns.shape, dtype=np.int32)
    for d in range(1, len(columns)):  # columns d apart, counted on both sides
        same = columns[d:] == columns[:-d]
        counts[d:] += same
        counts[:-d] += same
    rows = np.arange(len(neighbor_labels))
    return neighbor_labels[rows, counts.argmax(axis=0)]  # the first top column


def vote(labels: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``_majority_vote(labels[table])``, gathered and voted in row blocks."""
    out = np.empty(len(table), dtype=labels.dtype)
    for lo in range(0, len(table), _BLOCK_ROWS):
        out[lo:lo + _BLOCK_ROWS] = _majority_vote(labels[table[lo:lo + _BLOCK_ROWS]])
    return out


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
    one list for a label pass searches each pair once per pass, one that
    passes ``[]`` searches every pair.

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
            labels[bounds[i - 1]:bounds[i]] = vote(upper, tables[i - 1])
        if on_refine is not None:
            on_refine(i)
