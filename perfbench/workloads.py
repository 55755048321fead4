"""Workload definitions: the CLI argument lists each benchmark job runs.

A workload seed is turned into program inputs here and nowhere else.  The
seed draws the Lissajous phase of the scan and, for the two workloads that
read a stream file, the program's own ``--seed`` (noisy-oracle corruption
and the seeded-knn reference sample).  The camera stays pose 0 of the
default placement: a seed-chosen pose would change the point count by up to
±15% (46k–61.5k points at 1×), which would swamp the timings, while a
seed-chosen phase changes it by under 0.3%.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Ticks of the default 1× scan; sizes of the other workloads derive from it.
BASE_TICKS = 65536
#: Default partition cuts of the 1× scan (``scalestream.partition.DEFAULT_CUTS``).
BASE_CUTS = (2000, 6000, 15000, 35000, 65536)
#: Slow Lissajous cycles per scan, as in ``DEFAULT_TICKS_PER_PERIOD``.
CYCLES = 983
#: Camera placement seed; pose 0 of this placement is scanned by every job.
POSE_SEED = 0
#: Update-module voting neighbours for every workload.
UM_K = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Multiple of the 1× scan size (ticks, ticks per period and cuts).
    size: int
    #: The job reads a stream file made by ``scalestream scan`` before timing.
    needs_stream: bool
    #: ``--mode real``: the residual is ``latency.post_acq`` of the job's
    #: ``metrics.json``.  A sim-mode job starts after acquisition has ended
    #: and overlaps nothing, so its residual is the wall time of its
    #: refining ``run_scalable`` calls.
    real_mode: bool

    def cuts(self, base_ticks: int) -> tuple[int, ...]:
        return tuple(round(c * self.size * base_ticks / BASE_TICKS)
                     for c in BASE_CUTS)


WORKLOADS = {w.name: w for w in (
    Workload("oracle-real-1x",
             "1x scan, noisy-oracle, --mode real: the threaded backend and the "
             "measured post-acquisition residual; CSV writing dominates compute",
             size=1, needs_stream=True, real_mode=True),
    Workload("knn-sweep-1x",
             "1x scan, seeded-knn sweep over five tick durations: neighbour "
             "searches dominate and identical label work repeats five times",
             size=1, needs_stream=True, real_mode=False),
    Workload("knn-inline-4x",
             "4x scan, seeded-knn, scanned inline: the scanner, O(K*N) prefix "
             "copies, peak memory and 402k CSV rows grow with N",
             size=4, needs_stream=False, real_mode=False),
)}


def phase(seed: int) -> float:
    """Lissajous phase drawn from the workload seed."""
    return random.Random(seed).uniform(0.0, 2.0 * math.pi)


def _scan_args(size: int, base_ticks: int, seed: int) -> list[str]:
    ticks = size * base_ticks
    return ["--ticks", str(ticks),
            "--ticks-per-period", repr(ticks / CYCLES),
            "--phase", repr(phase(seed))]


def scan_argv(base_ticks: int, seed: int, out_dir: str) -> list[str]:
    """``scalestream scan`` arguments that make the 1× stream file."""
    return (["scan", "--out-dir", out_dir, "--seed", str(POSE_SEED)]
            + _scan_args(1, base_ticks, seed))


def job_argv(w: Workload, base_ticks: int, seed: int, stream: str | None,
             out_dir: str) -> list[str]:
    """Arguments of one CLI job of workload ``w``."""
    cuts = " ".join(map(str, w.cuts(base_ticks)))
    common = ["--out-dir", out_dir, "--cuts", cuts, "--um-k", str(UM_K)]
    if w.name == "oracle-real-1x":
        return ["run", "--stream", stream, *common, "--seed", str(seed),
                "--predictor", "noisy-oracle", "--mode", "real",
                "--skip-unrefined"]
    if w.name == "knn-sweep-1x":
        return ["sweep", "--stream", stream, *common, "--seed", str(seed),
                "--predictor", "seeded-knn"]
    if w.name == "knn-inline-4x":
        # --seed also picks the camera placement when scanning inline, so it
        # stays at the pose seed; the workload seed reaches the job through
        # the phase.
        return ["run", "--scan-inline", *common, "--seed", str(POSE_SEED),
                "--predictor", "seeded-knn",
                *_scan_args(w.size, base_ticks, seed)]
    raise KeyError(w.name)
