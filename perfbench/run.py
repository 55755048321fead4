"""scalestream benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the program from
the checkout's ``src`` directory and writes only under ``.perfbench/`` at the
checkout's root.  One run:

1. times ``--setup-samples`` fresh interpreters from start until
   ``scalestream.cli`` is imported (``setup_s``);
2. makes the workload's input from ``--seed`` with ``scalestream scan``
   (untimed);
3. runs the workload's CLI jobs in a closed loop in one fresh process
   (``worker.py``) for ``--seconds``, checking every job's outputs;
4. prints one line per metric with its unit and sample count, then, as the
   last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
   ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
   metrics of a traced second half with ``--trace 1``).

A run record (versions, CPU count, git SHA, seed, input sizes, every job)
and, when traced, the spans are written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from workloads import BASE_TICKS, WORKLOADS, scan_argv  # noqa: E402

#: name -> unit of every end-to-end metric, in report order.
END_TO_END = {"job_s": "s", "residual_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
#: Seconds the worker's calibration kernel takes on an idle host of the
#: reference machine (2-core Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
#: Job times are reported in seconds of that host: each job's compute time is
#: scaled by CAL_REF over the kernel's time measured just before the job.
#: Neighbouring virtual machines change this host's speed by up to ±15% over
#: minutes.  Over ten runs of the sweep the quartile spread of ``job_s`` was
#: 0.173 raw and 0.039 scaled; on the 4x workload, 0.080 and 0.077.  Raw wall
#: times stay in the run record.
CAL_REF = 0.120
#: A run must end well inside the 180 s every run is allowed.
RUN_BUDGET_S = 170.0
REFERENCES = HERE / "references.json"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remaining(t_start: float) -> float:
    left = RUN_BUDGET_S - (time.monotonic() - t_start)
    if left <= 0:
        raise TimeoutError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
    return left


def setup_samples(n: int, t_start: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``scalestream.cli``
    is imported; CLOCK_MONOTONIC is shared by all processes of the host."""
    code = "import scalestream.cli, time; print(repr(time.monotonic()))"
    out = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True,
                              timeout=remaining(t_start))
        if proc.returncode != 0:
            raise RuntimeError(f"importing scalestream.cli failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip()) - t0)
    return out


def make_stream(base_ticks: int, seed: int, work: Path, t_start: float) -> Path:
    argv = scan_argv(base_ticks, seed, str(work / "input"))
    proc = subprocess.run([sys.executable, "-m", "scalestream.cli", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=remaining(t_start))
    stream = work / "input" / "stream.bin"
    if proc.returncode != 0 or not stream.exists():
        raise RuntimeError(f"scalestream scan failed ({proc.returncode}):\n"
                           f"{proc.stderr}")
    return stream


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def reference_for(name: str, seed: int, base_ticks: int) -> dict | None:
    """Digests recorded from the seed commit, if this seed has any."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if base_ticks != refs["base_ticks"]:
        return None
    return refs["entries"].get(f"{name}/{seed}")


def check_jobs(jobs: list[dict], ref: dict | None) -> list[str]:
    """Mark each job ``ok`` and return one message per failed check.

    With a recorded reference every job must match it bit for bit; without
    one every job must match the run's warm-up job.
    """
    warm = jobs[0]
    expect = ref or {"fields": warm.get("fields_digest"),
                     "labels": warm.get("labels_digest")}
    messages = []
    for i, job in enumerate(jobs):
        why = []
        if job["error"]:
            why.append(job["error"].strip().splitlines()[-1])
        elif job["rc"] != 0:
            why.append(f"exit status {job['rc']}")
        else:
            if job["fields_digest"] != expect["fields"]:
                why.append("checked metrics differ from the reference")
            if "labels_digest" in job and job["labels_digest"] != expect["labels"]:
                why.append("predicted labels differ from the reference")
            why.extend(job.get("causality", []))
        job["ok"] = not why
        messages.extend(f"job {i} ({job['phase']}): {m}" for m in why)
    return messages


def host_scaled(job: dict, seconds: float) -> float:
    return seconds * CAL_REF / job["calib_s"]


def job_seconds(job: dict) -> float:
    """A job's time in reference-host seconds.  A real-mode job sleeps
    through acquisition in wall time, which no host speed changes, so only
    the rest of the job is scaled."""
    acquisition = job.get("acquisition_s", 0.0)
    return acquisition + host_scaled(job, job["wall_s"] - acquisition)


def end_to_end(jobs, setup):
    timed = [j for j in jobs if j["phase"] == "timed" and j["ok"]]
    residuals = [host_scaled(j, r) for j in timed for r in j["residual_s"]]
    return {
        "job_s": (statistics.median(job_seconds(j) for j in timed), len(timed)),
        "residual_s": (statistics.median(residuals), len(residuals)),
        "peak_rss_mb": (jobs[0]["peak_rss_mb"], 1),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def per_layer(jobs):
    timed = [j for j in jobs if j["phase"] == "timed" and j["ok"]]
    traced = [j for j in jobs if j["phase"] == "traced" and j["ok"]]
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            value = (statistics.median(job_seconds(j) for j in traced)
                     / statistics.median(job_seconds(j) for j in timed) - 1.0)
        else:
            value = statistics.median(j["layer"][name] for j in traced)
        out[name] = (value, len(traced))
    return out


def run(args, t_start: float, work: Path, results: Path) -> int:
    w = WORKLOADS[args.workload]
    setup = setup_samples(args.setup_samples, t_start)
    stream = (make_stream(args.base_ticks, args.seed, work, t_start)
              if w.needs_stream else None)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    result_path = work / "worker.json"
    spans_path = results / f"{stem}-spans.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--base-ticks", str(args.base_ticks),
           "--work-dir", str(work), "--result", str(result_path),
           "--spans", str(spans_path)]
    if stream is not None:
        cmd += ["--stream", str(stream)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=remaining(t_start))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with {proc.returncode}")
    worker = json.loads(result_path.read_text(encoding="utf-8"))
    jobs = worker["jobs"]

    ref = reference_for(w.name, args.seed, args.base_ticks)
    problems = check_jobs(jobs, ref)
    for j in jobs:
        problems.extend(f"trace: {p}" for p in j.get("trace_problems", []))
    failed = sum(not j["ok"] for j in jobs)
    traced = [j for j in jobs if j["phase"] == "traced"]
    zero_calls = sorted({n for j in traced for n in j.get("zero_call_names", [])})

    timed = [j for j in jobs if j["phase"] == "timed" and j["ok"]]
    if not jobs[0]["ok"] or not timed or (
            args.trace and not any(j["ok"] for j in traced)):
        metrics = {}
    elif args.trace:
        metrics = per_layer(jobs)
    else:
        metrics = end_to_end(jobs, setup)
    units = LAYER_METRICS if args.trace else END_TO_END
    correct = not problems and len(metrics) == len(units)

    warm = jobs[0]
    cumulative = warm.get("cumulative_points", [])
    record = {
        "workload": w.name, "why": w.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "argv": worker["argv"],
        "versions": worker["versions"],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "input": {"stream_points": cumulative[-1] if cumulative else None,
                  "partition_points": [b - a for a, b in
                                       zip([0] + cumulative, cumulative)]},
        "reference": ("seed commit" if ref else
                      "none recorded for this seed; jobs checked against the "
                      "run's warm-up job"),
        "correct": correct, "attempted": len(jobs), "failed": failed,
        "problems": problems,
        "missing_names": worker["missing_names"],
        "zero_call_names": zero_calls,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "setup_samples_s": setup,
        "calibration": {
            "reference_s": CAL_REF,
            "median_s": statistics.median(j["calib_s"] for j in timed) if timed else None,
            "raw_job_wall_median_s": (statistics.median(j["wall_s"] for j in timed)
                                      if timed else None)},
        "jobs": jobs,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name in worker["missing_names"]:
        print(f"trace: wrapped name {name} does not exist", file=sys.stderr)
    if zero_calls:
        print(f"trace: no calls recorded for {', '.join(zero_calls)}")
    print(f"workload {w.name} seed {args.seed}: {len(jobs)} jobs, "
          f"{failed} failed, fail_ratio {failed / len(jobs):.4f} "
          f"(reference: {record['reference']})")
    cal = record["calibration"]
    if timed:
        print(f"host: calibration kernel {cal['median_s']:.4f} s against "
              f"{CAL_REF} s on the reference host; raw job wall median "
              f"{cal['raw_job_wall_median_s']:.4f} s")
    for name, (value, n) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (median of {n})")
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, _n) in metrics.items()},
    }))
    return 0


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base-ticks", type=int, default=BASE_TICKS,
                    help="ticks of the 1x scan (smaller for a smoke test)")
    ap.add_argument("--setup-samples", type=int, default=7,
                    help="fresh interpreters timed for setup_s")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.setup_samples < 1:
        ap.error("--seed must be >= 0, --seconds and --setup-samples positive")
    if not (ROOT / "src" / "scalestream" / "cli.py").is_file():
        print(f"no scalestream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, t_start, work, results)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
