"""Per-scale semantic predictors behind a uniform interface.

These stand in for trained per-scale network branches.  Two reference
implementations are provided:

* ``noisy-oracle`` corrupts the ground-truth label of each point with a
  per-scale error probability, mirroring the usual pattern that coarse
  scales predict worse than fine ones.
* ``seeded-knn`` labels each point by majority vote among its nearest
  neighbors in the context cloud handed down from the previous scale
  (scale 1 votes against a user-provided labeled seed cloud).

Both are pure functions of their inputs and the seed, so results never
depend on scheduling.  The context is not opaque: it is the labeled cloud
of scales ``1..i`` in capture order, whose labels the pipeline refines in
place and publishes as the cumulative output, so a learned backbone that
replaces these must return the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Partition
from .update import _majority_vote, knn_batch

#: Per-scale error probabilities for the noisy oracle, coarsest scale worst.
DEFAULT_ERROR_RATES = (0.40, 0.30, 0.20, 0.12, 0.05)

VARIANTS = ("noisy-oracle", "seeded-knn")

#: Scale tag used when deriving the baseline's RNG stream (real scales are 1-based).
BASELINE_SCALE = 0


class PredictorError(ValueError):
    pass


@dataclass(frozen=True)
class ScaleContext:
    """Labeled cloud carried from one scale to the next.

    For the reference predictors this holds the cumulative labeled points of
    all scales processed so far (refined labels, when the update module is
    active).
    """

    positions: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.positions) != len(self.labels):
            raise PredictorError("context positions and labels must align")

    def __len__(self) -> int:
        return len(self.labels)

    def extended(self, positions, labels) -> "ScaleContext":
        return ScaleContext(np.concatenate([self.positions, positions]),
                            np.concatenate([self.labels, labels]))


@dataclass(frozen=True)
class PredictorConfig:
    variant: str = "noisy-oracle"
    error_rates: tuple[float, ...] = DEFAULT_ERROR_RATES
    k_cls: int = 5
    seed: int = 0
    seed_cloud: ScaleContext | None = None  # seeded-knn reference for scale 1

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


def _vote_labels(positions: np.ndarray, reference: ScaleContext, k: int) -> np.ndarray:
    if reference is None or len(reference) == 0:
        raise PredictorError("seeded-knn predictor needs a nonempty reference cloud")
    if len(positions) == 0:
        return np.zeros(0, dtype=np.int64)
    neighbors = knn_batch(positions, reference.positions, k)
    return _majority_vote(np.asarray(reference.labels, dtype=np.int64)[neighbors])


def predict(part: Partition, ctx: ScaleContext | None, cfg: PredictorConfig,
            class_count: int) -> tuple[np.ndarray, ScaleContext]:
    """Predict labels for one partition and hand a context to the next scale.

    Returns one int64 label per partition point, order-aligned, plus the
    cumulative labeled cloud through this scale, which shares no memory
    with ``ctx``, so the caller may refine its labels in place.
    Deterministic for a fixed config seed: each scale draws from its own
    seeded RNG stream.
    """
    if part.scale < 1:
        raise PredictorError(f"partition has invalid scale {part.scale}")
    if cfg.variant == "noisy-oracle":
        if part.scale > len(cfg.error_rates):
            raise PredictorError(
                f"no error rate configured for scale {part.scale} "
                f"(got {len(cfg.error_rates)} rates)")
        rng = np.random.default_rng([cfg.seed, part.scale])
        labels = _corrupt(part.labels, cfg.error_rates[part.scale - 1], class_count, rng)
    else:
        # an empty context (all earlier partitions missed) degrades to the
        # seed cloud, same as scale 1
        reference = ctx if ctx is not None and len(ctx) else cfg.seed_cloud
        labels = _vote_labels(part.positions, reference, cfg.k_cls)

    return labels, (ScaleContext(part.positions, labels) if ctx is None
                    else ctx.extended(part.positions, labels))


def predict_full(positions: np.ndarray, gt_labels: np.ndarray,
                 cfg: PredictorConfig, class_count: int) -> np.ndarray:
    """Non-scalable baseline: one prediction over the complete cloud.

    The noisy oracle runs at its final (best) error rate, matching a model
    that always sees full-resolution input.
    """
    if cfg.variant == "noisy-oracle":
        rng = np.random.default_rng([cfg.seed, BASELINE_SCALE])
        return _corrupt(np.asarray(gt_labels, dtype=np.int64),
                        cfg.error_rates[-1], class_count, rng)
    return _vote_labels(np.asarray(positions, dtype=float), cfg.seed_cloud, cfg.k_cls)


def make_seed_cloud(positions, labels, fraction: float, seed: int) -> ScaleContext:
    """Subsample a labeled cloud to serve as the seeded-knn scale-1 reference."""
    if not 0.0 < fraction <= 1.0:
        raise PredictorError("seed cloud fraction must be in (0, 1]")
    n = len(labels)
    if n == 0:
        raise PredictorError("cannot build a seed cloud from an empty cloud")
    rng = np.random.default_rng(seed)
    k = max(1, int(round(fraction * n)))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return ScaleContext(np.asarray(positions, dtype=float)[idx],
                        np.asarray(labels, dtype=np.int64)[idx])
