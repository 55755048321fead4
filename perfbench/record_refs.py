"""Record the output digests that benchmark jobs are checked against.

    python3 perfbench/record_refs.py [--first 0] [--count 100]

Run it on the commit whose outputs are the reference (the seed commit of
the benchmark).  For each workload and each seed ``first .. first+count-1``
it runs one full-size job and keeps two sha256 digests: the checked
``metrics.json`` fields (or ``sweep.csv``) and the predicted labels of every
cumulative output.  The entries are merged into ``references.json`` next to
this file under a file lock, so several seed ranges can be recorded at once.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import sys
import tempfile
from pathlib import Path

import worker
from workloads import BASE_TICKS, WORKLOADS, job_argv, scan_argv

OUT = Path(__file__).resolve().parent / "references.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, default=100)
    args = ap.parse_args()
    entries = {}
    probe = worker.PipelineProbe()
    worker.cli.run_scalable = probe
    scratch = worker.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        for seed in range(args.first, args.first + args.count):
            stream = tmp / "input"
            if worker.cli.main(scan_argv(BASE_TICKS, seed, str(stream))) != 0:
                raise SystemExit(f"scan failed for seed {seed}")
            for w in WORKLOADS.values():
                argv = job_argv(w, BASE_TICKS, seed, str(stream / "stream.bin"),
                                str(tmp / "out"))
                job = worker.run_job(argv, w, tmp / "out", probe, "warmup")
                if job["rc"] != 0 or job["error"] or job.get("causality"):
                    raise SystemExit(f"{w.name} seed {seed} failed: {job}")
                entries[f"{w.name}/{seed}"] = {"fields": job["fields_digest"],
                                               "labels": job["labels_digest"]}
            print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    OUT.touch()
    with OUT.open("r+", encoding="utf-8") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        text = f.read()
        refs = json.loads(text) if text.strip() else {"entries": {}}
        refs["base_ticks"] = BASE_TICKS
        refs["entries"].update(entries)
        f.seek(0)
        f.truncate()
        f.write(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
