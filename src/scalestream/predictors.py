"""Per-scale semantic predictors behind a uniform interface.

These stand in for trained per-scale network branches.  Two reference
implementations are provided:

* ``noisy-oracle`` corrupts the ground-truth label of each point with a
  per-scale error probability, mirroring the usual pattern that coarse
  scales predict worse than fine ones.
* ``seeded-knn`` labels each point by majority vote among its nearest
  neighbors in the previous scale's cumulative output (scale 1 votes
  against a seed cloud, a labeled sample of the stream).

Both are pure functions of their inputs and the seed, so results never
depend on scheduling.  The baseline is scale 0 of the same rule, run once
over the whole cloud.  The context of scale ``i`` is the cumulative output
that scale ``i-1`` published; ``predict`` returns the labels of scales
``1..i`` in capture order as a new array, which the pipeline refines in
place and publishes as the next output, so a learned backbone that replaces
these must return the same.  Seeded-knn's neighbors depend on positions alone:
a run's unrefined pass votes through its refined pass's context tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assemble import CumulativeOutput
from .partition import Partition
from .stream import PointStream
from .update import _majority_vote, knn_batch

#: Per-scale error probabilities for the noisy oracle, coarsest scale worst.
DEFAULT_ERROR_RATES = (0.40, 0.30, 0.20, 0.12, 0.05)

VARIANTS = ("noisy-oracle", "seeded-knn")


class PredictorError(ValueError):
    pass


@dataclass(frozen=True)
class PredictorConfig:
    variant: str = "noisy-oracle"
    error_rates: tuple[float, ...] = DEFAULT_ERROR_RATES
    k_cls: int = 5
    seed: int = 0
    seed_cloud: PointStream | None = None  # seeded-knn reference for scale 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise PredictorError(f"unknown predictor variant {self.variant!r}")
        if any(not 0.0 <= p <= 1.0 for p in self.error_rates):
            raise PredictorError(f"error rates must be probabilities: {self.error_rates}")
        if self.k_cls < 1:
            raise PredictorError("k_cls must be >= 1")


def _corrupt(gt: np.ndarray, p: float, class_count: int,
             rng: np.random.Generator) -> np.ndarray:
    """Keep each label with probability 1-p, else pick a uniformly random
    wrong class."""
    flip = rng.random(len(gt)) < p
    if class_count == 1:
        return gt.copy()  # no wrong class exists to flip to
    offset = rng.integers(1, class_count, size=len(gt))
    return np.where(flip, (gt + offset) % class_count, gt)


def _labels(scale: int, positions: np.ndarray, gt: np.ndarray,
            prev: CumulativeOutput | None, cfg: PredictorConfig,
            class_count: int, tables: list | None = None) -> np.ndarray:
    """The one labelling rule; scale 0 is the baseline over the whole cloud.

    Seeded-knn votes against ``prev``; an absent or empty one (the baseline,
    scale 1, or all earlier partitions missed) degrades to the seed cloud.
    """
    if cfg.variant == "noisy-oracle":
        # scale 0 reads error_rates[-1], the final (best) rate, and draws
        # from RNG tag 0, which no real (1-based) scale uses
        rng = np.random.default_rng([cfg.seed, scale])
        return _corrupt(gt, cfg.error_rates[scale - 1], class_count, rng)
    if prev is not None and len(prev):
        ref_positions, ref_labels = prev.positions, prev.pred_labels
    elif cfg.seed_cloud is not None and len(cfg.seed_cloud):
        ref_positions, ref_labels = cfg.seed_cloud.positions, cfg.seed_cloud.labels
    else:
        raise PredictorError("seeded-knn predictor needs a nonempty reference cloud")
    if tables is not None and len(tables) >= scale:
        table = tables[scale - 1]
    else:
        table = knn_batch(positions, ref_positions, cfg.k_cls) if len(positions) else None
        if tables is not None:
            tables.append(table)
    if table is None:
        return np.zeros(0, dtype=np.int64)
    neighbor_labels = ref_labels[table]
    del table  # a table that no list keeps is freed before the vote
    return _majority_vote(neighbor_labels)


def predict(part: Partition, prev: CumulativeOutput | None,
            cfg: PredictorConfig, class_count: int,
            tables: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Predict labels for one partition, given the previous scale's output.

    ``prev`` is the cumulative output of scale ``i-1`` (``None`` at scale
    1).  Returns one int64 label per partition point, order-aligned, plus
    the labels of scales ``1..i`` in capture order: ``prev.pred_labels``
    followed by those labels, in a new array that shares no memory with
    ``prev``, so the caller may refine it in place.  Deterministic for a
    fixed config seed: each scale draws from its own seeded RNG stream.
    As in ``update.cascade_step``, seeded-knn's ``tables[i-1]`` is scale
    ``i``'s :func:`knn_batch` table into its context (``None`` for an empty
    scale); a missing one is searched and appended, a given one only voted
    through: it depends on positions alone, so two passes can share it.
    """
    if part.scale < 1:
        raise PredictorError(f"partition has invalid scale {part.scale}")
    if cfg.variant == "noisy-oracle" and part.scale > len(cfg.error_rates):
        raise PredictorError(
            f"no error rate configured for scale {part.scale} "
            f"(got {len(cfg.error_rates)} rates)")
    labels = _labels(part.scale, part.positions, part.labels, prev, cfg,
                     class_count, tables)
    return labels, labels if prev is None else np.concatenate([prev.pred_labels, labels])


def predict_full(positions: np.ndarray, gt_labels: np.ndarray,
                 cfg: PredictorConfig, class_count: int) -> np.ndarray:
    """Non-scalable baseline: scale 0, one prediction over the complete
    cloud.  The noisy oracle runs at its final (best) error rate, matching a
    model that always sees full-resolution input."""
    return _labels(0, positions, np.asarray(gt_labels, dtype=np.int64), None,
                   cfg, class_count)


def make_seed_cloud(stream: PointStream, fraction: float, seed: int) -> PointStream:
    """A labeled random sample of the stream, in stream order, to serve as
    the seeded-knn reference of scale 1 and of the baseline."""
    if not 0.0 < fraction <= 1.0:
        raise PredictorError("seed cloud fraction must be in (0, 1]")
    n = len(stream)
    if n == 0:
        raise PredictorError("cannot build a seed cloud from an empty cloud")
    rng = np.random.default_rng(seed)
    k = max(1, int(round(fraction * n)))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return PointStream(stream.positions[idx], stream.labels[idx],
                       stream.timestamps[idx], stream.class_count)
