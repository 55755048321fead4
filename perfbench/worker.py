"""Job loop of one benchmark run: CLI jobs of one workload, in this process.

``run.py`` starts this script in a fresh interpreter, so the peak resident
memory after the first job is that of a CLI process that ran one job.  Jobs
run in a closed loop, one ``scalestream.cli.main(argv)`` call after another,
on inputs made before timing started.  The result is written as JSON to ``--result``; the
program's own console output goes wherever the caller sent stdout.

Phases: one warm-up job (checked, not timed), then timed jobs for
``--seconds``; with ``--trace 1`` the timed jobs take the first half and
traced jobs, with every layer boundary wrapped, the second half.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import scalestream  # noqa: E402
from scalestream import cli, pipeline, predictors, update  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, job_argv  # noqa: E402

#: metrics.json fields that must be bit-equal to the seed commit's; sim-mode
#: runs add the modelled ``latency`` block.
CHECKED_FIELDS = ("scale_miou", "scale_miou_unrefined", "baseline_miou",
                  "per_class_iou", "origin_miou")
MODULES = {"cli": cli, "pipeline": pipeline, "update": update,
           "predictors": predictors}


class PipelineProbe:
    """Times the CLI's ``run_scalable`` calls in untraced jobs.

    This is the only wrapper an untraced job runs under: two clock reads per
    call.  With ``capture`` set it also keeps the returned outputs so the
    caller can digest the labels after the job.
    """

    def __init__(self):
        self.fn = cli.run_scalable
        self.calls: list[tuple[float, bool]] = []
        self.outputs: list = []
        self.capture = False

    def __call__(self, stream, spec, predictor_cfg, update_cfg, timing):
        t0 = time.perf_counter()
        result = self.fn(stream, spec, predictor_cfg, update_cfg, timing)
        self.calls.append((time.perf_counter() - t0, update_cfg is not None))
        if self.capture:
            self.outputs.append(result[0])
        return result

    def reset(self, capture: bool) -> None:
        self.calls, self.outputs, self.capture = [], [], capture


def labels_digest(calls: list) -> str:
    """sha256 over the predicted labels of every cumulative output that each
    ``run_scalable`` call returned, in call and scale order."""
    h = hashlib.sha256()
    for outputs in calls:
        for o in outputs:
            h.update(f"{o.scale}:{len(o)};".encode())
            h.update(np.ascontiguousarray(o.pred_labels, dtype="<i8"))
    return h.hexdigest()


def fields_digest(out_dir: Path, command: str, w) -> str:
    """sha256 of what a job's modelled and accuracy outputs must reproduce:
    all of ``sweep.csv`` (every column is modelled), or the checked
    ``metrics.json`` fields."""
    if command == "sweep":
        return hashlib.sha256((out_dir / "sweep.csv").read_bytes()).hexdigest()
    data = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    fields = {k: data[k] for k in CHECKED_FIELDS}
    if not w.real_mode:
        fields["latency"] = data["latency"]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def causality_problems(out_dir: Path) -> list[str]:
    """partition_ready <= scale_start <= scale_done <= cumulative_available."""
    data = json.loads((out_dir / "timeline.json").read_text(encoding="utf-8"))
    at: dict[tuple[str, int], float] = {}
    for e in data["events"]:
        at.setdefault((e["kind"], e["scale"]), e["instant"])
    order = ("partition_ready", "scale_start", "scale_done", "cumulative_available")
    problems = []
    for scale in sorted({s for _, s in at}):
        try:
            t = [at[(kind, scale)] for kind in order]
        except KeyError as exc:
            problems.append(f"scale {scale} lacks a {exc.args[0][0]} event")
            continue
        if any(b < a for a, b in zip(t, t[1:])):
            problems.append(f"scale {scale} is not causal: {dict(zip(order, t))}")
    return problems


_CAL = np.random.default_rng(0).random((20000, 3))


def calibrate() -> float:
    """Seconds a fixed kernel takes right now: float formatting in Python, a
    k-d tree build and query, and array copies: the kinds of work the jobs
    do.  It never touches scalestream, so it measures only the host."""
    t0 = time.perf_counter()
    ",".join(np.format_float_positional(v, trim="-") for v in _CAL[:, 0])
    cKDTree(_CAL).query(_CAL, k=6)
    for _ in range(10):  # 2.9 MB at a time, so the peak memory stays put
        np.concatenate([_CAL] * 6).sum()
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_job(argv: list[str], w, out_dir: Path, probe: PipelineProbe,
            phase: str, recorder: spans.Recorder | None = None,
            missing: list | None = None) -> dict:
    """One CLI job plus its output checks (the checks are not timed).

    The calibration kernel runs just before each timed or traced job, so
    the two see the same host speed.
    """
    shutil.rmtree(out_dir, ignore_errors=True)  # no stale file can pass a check
    gc.collect()
    probe.reset(capture=phase == "warmup")
    rec = {"phase": phase, "rc": None, "error": None,
           "calib_s": None if phase == "warmup" else calibrate()}
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        if recorder is None:
            rec["rc"] = cli.main(argv)
        else:
            with spans.installed(recorder, MODULES, missing):
                job = recorder.open(spans.JOB_SPAN)
                try:
                    rec["rc"] = cli.main(argv)
                finally:
                    recorder.close(job)
    except SystemExit as exc:  # argparse rejects the arguments
        rec["rc"] = exc.code
    except Exception:  # a crash is a failed job, reported with its traceback
        rec["error"] = traceback.format_exc()
    rec["wall_s"] = time.perf_counter() - t0
    rec["cpu_s"] = cpu_seconds() - cpu0
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec["rc"] != 0 or rec["error"]:
        return rec
    try:
        rec["fields_digest"] = fields_digest(out_dir, argv[0], w)
        if w.real_mode:
            data = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
            rec["residual_s"] = [data["latency"]["post_acq"]]
            rec["acquisition_s"] = data["latency"]["acquisition_end"]
            rec["causality"] = causality_problems(out_dir)
        else:
            rec["residual_s"] = [dt for dt, refining in probe.calls if refining]
        if probe.capture:
            rec["labels_digest"] = labels_digest(probe.outputs)
            first = probe.outputs[0]
            rec["cumulative_points"] = [len(o) for o in first]
    except (OSError, KeyError, ValueError) as exc:
        rec["error"] = f"output check could not read the job's outputs: {exc!r}"
    return rec


def traced_job(argv, w, out_dir, probe, missing, index, all_spans) -> dict:
    recorder = spans.Recorder()
    rec = run_job(argv, w, out_dir, probe, "traced", recorder, missing)
    if rec["rc"] != 0 or rec["error"]:
        return rec
    runs = [s for s in recorder.spans if s.name == "pipeline.run_scalable"]
    rec["labels_digest"] = labels_digest([s.info["outputs"] for s in runs])
    selfs, problems = spans.self_times(recorder.spans)
    layer = spans.job_metrics(recorder.spans, selfs)
    layer["pipeline.threads_started"] = recorder.threads_started
    layer["cli.cpu_s"] = rec["cpu_s"]
    if layer["cli.self_s"] < 0:
        problems.append(f"cli.self_s is negative: {layer['cli.self_s']}")
    rec["layer"] = layer
    rec["trace_problems"] = problems
    rec["zero_call_names"] = spans.zero_call_names(recorder.spans)
    all_spans.extend(spans.to_records(recorder.spans, index))
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--base-ticks", type=int, required=True)
    ap.add_argument("--stream", default=None)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(scalestream.__file__).resolve().parents:
        print(f"scalestream was imported from {scalestream.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    out_dir = Path(args.work_dir) / "out"
    argv = job_argv(w, args.base_ticks, args.seed, args.stream, str(out_dir))
    probe = PipelineProbe()
    cli.run_scalable = probe

    jobs = [run_job(argv, w, out_dir, probe, "warmup")]
    timed_seconds = args.seconds / 2 if args.trace else args.seconds
    deadline = time.perf_counter() + timed_seconds
    while True:
        jobs.append(run_job(argv, w, out_dir, probe, "timed"))
        if time.perf_counter() >= deadline:
            break
    missing: list[str] = []
    all_spans: list[dict] = []
    if args.trace:
        cli.run_scalable = probe.fn  # the recorder wraps the real function
        deadline = time.perf_counter() + args.seconds / 2
        while True:
            jobs.append(traced_job(argv, w, out_dir, probe, missing,
                                   len(jobs), all_spans))
            if time.perf_counter() >= deadline:
                break

    result = {
        "jobs": jobs,
        "missing_names": sorted(set(missing)),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "argv": argv,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    if args.trace:
        Path(args.spans).write_text(json.dumps(all_spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
