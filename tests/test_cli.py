import contextlib
import csv
import io
import json
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalestream.cli as cli
import scalestream.pipeline as pipeline
from conftest import make_counted_stream, mutate_one_line, old_event_list
from scalestream import (LabelMap, LissajousConfig, PartitionSpec, PointStream,
                         PredictorConfig, PredictorError, Timeline, TimingModel,
                         UpdateConfig, latency_metrics, make_seed_cloud,
                         read_stream, run_baseline, run_scalable, scan,
                         write_stream)
from scalestream.partition import MAX_CUTS
from scalestream.plots import MARGIN_L, MARGIN_R, W
from scalestream.stream import RECORD_SIZE


def run_cli(*argv):
    return cli.main(list(argv))


#: What ``run`` writes: the facts of a run, and nothing rendered from them.
RUN_FILES = ("labels.npz", "metrics.json", "run_manifest.json",
             "timeline.json")
#: What ``report`` renders from them, without ``--csv``.
VIEWS = ("metrics.csv", "miou_vs_scale.svg", "timeline.svg")


def no_view(run_dir) -> bool:
    return not any((Path(run_dir) / view).exists() for view in VIEWS)


def run_and_report(*argv):
    """``run *argv`` and then ``report`` on its ``--out-dir``."""
    out = argv[argv.index("--out-dir") + 1]
    assert run_cli("run", *argv) == 0
    assert run_cli("report", "--run-dir", out) == 0


def exit_code(*argv):
    """The exit status of ``main``, also where the parser exits."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


class Reached(Exception):
    """Raised by a patched scan or stream read: the command passed its checks."""


def _reached(*args, **kwargs):
    raise Reached


@pytest.fixture
def no_work(monkeypatch):
    """Any scan or stream read fails the test."""
    monkeypatch.setattr(cli, "scan", _reached)
    monkeypatch.setattr(cli, "read_stream", _reached)


# fast pipeline flags reused by most sweep and run tests
FAST_SWEEP = ["--scan-inline", "--ticks", "6000",
              "--cuts", "500 1200 2500 4200 6000"]
FAST = [*FAST_SWEEP, "--tick-duration", "1e-5"]


def test_scan_default_room_regression(tmp_path):
    """Frozen at first build: the default scan of the built-in room from the
    seed-0 pose emits 53315 points over 65536 ticks."""
    out = tmp_path / "scan"
    assert run_cli("scan", "--out-dir", str(out), "--seed", "0") == 0
    manifest = json.loads((out / "scan_manifest.json").read_text())
    assert manifest["points"] == 53315
    assert manifest["config"]["ticks"] == 65536
    assert manifest["max_timestamp"] < 65536
    stream = read_stream(out / "stream.bin")
    assert len(stream) == 53315


def test_scan_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("scan", "--out-dir", str(out), "--seed", "5",
                       "--ticks", "2000") == 0
    assert (a / "stream.bin").read_bytes() == (b / "stream.bin").read_bytes()
    assert (a / "scan_manifest.json").read_text() == (b / "scan_manifest.json").read_text()


def test_scan_missing_scene_exits_2(tmp_path, capsys):
    rc = run_cli("scan", "--scene", "does/not/exist.scene",
                 "--out-dir", str(tmp_path))
    assert rc == 2
    assert "does/not/exist.scene" in capsys.readouterr().err


def test_scan_custom_scene_file(tmp_path):
    scene = tmp_path / "mini.scene"
    scene.write_text("""
        scene mini
        room 0 0 0 4 4 3
        rect floor 0 0 0 4 4 0
        rect wall 0 0 0 0 4 3
        rect wall 4 0 0 4 4 3
        rect wall 0 0 0 4 0 3
        rect wall 0 4 0 4 4 3
        box table 1.5 1.5 0 2.5 2.5 0.8
    """)
    out = tmp_path / "scan"
    assert run_cli("scan", "--scene", str(scene), "--out-dir", str(out),
                   "--ticks", "1000") == 0
    stream = read_stream(out / "stream.bin")
    assert len(stream) > 0


def test_run_default_shape(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--seed", "3") == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["scale_miou"]) == 5
    assert isinstance(metrics["cost_of_scalability_pct"], float)
    assert len(metrics["scale_miou_unrefined"]) == 5
    assert metrics["latency"]["speedup"] <= 1.0
    timeline = json.loads((out / "timeline.json").read_text())
    assert 0 < timeline["baseline_start"] < timeline["baseline_done"]
    assert (out / "labels.npz").exists()
    assert not list(out.glob("cumulative_scale_*.csv"))


def test_run_writes_only_facts_and_report_renders_the_views(tmp_path):
    """``run`` leaves exactly its four data files; ``report`` adds the three
    views and touches none of the four."""
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out)) == 0
    data = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(data) == list(RUN_FILES)
    assert run_cli("report", "--run-dir", str(out)) == 0
    assert sorted(f.name for f in out.iterdir()) == sorted(RUN_FILES + VIEWS)
    for name, content in data.items():
        assert (out / name).read_bytes() == content, name


def test_run_sim_deterministic_byte_for_byte(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        run_and_report(*FAST, "--mode", "sim", "--out-dir", str(out),
                       "--seed", "11")
        outs.append(out)
    for fname in RUN_FILES + VIEWS:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_run_umk_zero_exits_2(tmp_path, capsys):
    rc = run_cli("run", *FAST, "--um-k", "0", "--out-dir", str(tmp_path))
    assert rc == 2
    assert "--um-k" in capsys.readouterr().err


def test_run_lists_all_config_errors(tmp_path, capsys):
    rc = run_cli("run", *FAST, "--um-k", "0", "--k-cls", "0",
                 "--tick-duration", "-1", "--predict-fixed", "-1",
                 "--refine-fixed", "-1", "--out-dir", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "--um-k" in err and "--k-cls" in err and "--tick-duration" in err
    assert "--predict-fixed" in err and "--refine-fixed" in err


@pytest.mark.parametrize("command, flag, value", [
    *((command, flag, value) for command in ("scan", "run", "sweep")
      for flag, value in (("--ticks", "0"), ("--ticks-per-period", "0"),
                          ("--fx", "0"), ("--fy", "-1"), ("--amp-x", "0"),
                          ("--amp-y", "2"), ("--dropout", "2"))),
    *((command, flag, value) for command in ("partition", "run", "sweep")
      for flag, value in (("--cuts", "a"), ("--stream", "missing.bin"))),
    *((command, flag, "-1") for command in ("run", "sweep")
      for flag in ("--predict-fixed", "--predict-per-point", "--baseline-factor",
                   "--refine-fixed", "--refine-per-point")),
    ("sweep", "--tick-durations", "1e-5 -1"),
    *((command, flag, value) for command in ("scan", "run", "sweep")
      for flag, value in (("--fx", "nan"), ("--phase", "inf"),
                          ("--amp-y", "nan"), ("--ticks-per-period", "inf"),
                          ("--room", "4 4"), ("--room", "4 4 nan"),
                          ("--room", "4 -4 3"), ("--room", "1 1 1"),
                          ("--room", "4 x 3"))),
    *((command, cli._flag(flag), value)
      for command, flags in (("run", cli.TIMING_FLAGS),
                             ("sweep", cli.TIMING_FLAGS[1:]))
      for flag in flags for value in ("nan", "inf")),
    ("sweep", "--tick-durations", "1e-5 nan"),
    *((command, "--config", name) for command in ("scan", "run")
      for name in ("missing.json", "bad.json", "list.json")),
    *((command, "--seed", "-1") for command in ("scan", "run", "sweep")),
    *((command, "--seed-ref-fraction", value) for command in ("run", "sweep")
      for value in ("0", "1.5")),
    *(pytest.param(command, "--mode", ["sim-unfused", "--predictor", "seeded-knn"],
                   id=f"{command}---mode-sim-unfused-seeded-knn")
      for command in ("run", "sweep")),
    *((command, "--error-rates", "0.1 0.1") for command in ("run", "sweep")),
    ("scan", "--camera-index", "50"),
    *((command, cli._flag(flag), ["1", "--mode", "real"])
      for command in ("run", "sweep") for flag in cli.TIMING_FLAGS[1:]),
    *((command, "--cuts", "-5 8000") for command in ("partition", "run", "sweep")),
    *(pytest.param(command, "--stream", ["stream.bin", "--scan-inline"],
                   id=f"{command}---stream-scan-inline")
      for command in ("run", "sweep")),
    # the last tick's phase overflows
    *((command, flag, value) for command in ("scan", "run", "sweep")
      for flag, value in (("--fx", "1e308"), ("--ticks-per-period", "1e-308"))),
])
def test_bad_flag_exits_2_before_any_scan_or_read(tmp_path, monkeypatch, capsys,
                                                  no_work, command, flag, value):
    """Each flag that a config object or a CLI rule checks, on every command
    that takes it: the command exits 2 and names the flag before any scan
    or read.  A config file that is missing, not JSON or not a JSON object
    is refused the same way."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stream.bin").write_bytes(b"")
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[]")
    base = {"scan": [], "partition": ["--stream", "stream.bin"]}.get(
        command, [] if flag == "--stream" else ["--scan-inline"])
    values = [value] if isinstance(value, str) else value
    assert run_cli(command, *base, flag, *values, "--out-dir", "out") == 2
    assert f"config error: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["partition", "run", "sweep"])
def test_cuts_past_the_cap_exit_2_at_once(tmp_path, monkeypatch, capsys,
                                          no_work, command):
    """More than ``MAX_CUTS`` cuts exit 2 naming --cuts before any scan or
    read, in well under a second, writing nothing; ``MAX_CUTS`` cuts pass
    every check."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stream.bin").write_bytes(b"")
    base = (["--stream", "stream.bin"] if command == "partition"
            else ["--scan-inline", "--error-rates", "0.1 " * (MAX_CUTS + 1)])
    cuts = " ".join(map(str, range(1, MAX_CUTS + 2)))
    start = time.perf_counter()
    assert run_cli(command, *base, "--cuts", cuts, "--out-dir", "out") == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"config error: --cuts: need 1 to {MAX_CUTS} cut timestamps, got "
        f"{MAX_CUTS + 1}\n")
    assert not (tmp_path / "out").exists()
    with pytest.raises(Reached):
        run_cli(command, *base, "--cuts", cuts.rsplit(" ", 1)[0],
                "--out-dir", "out")


@pytest.mark.parametrize("command, flag, durations", [
    ("run", "--tick-duration", ["1000"]),
    ("sweep", "--tick-durations", ["1e-7 1000 1e-6"]),
])
def test_real_wait_past_the_cap_exits_2_at_once(tmp_path, monkeypatch, capsys,
                                                no_work, command, flag, durations):
    """A real-mode acquisition past ``_MAX_REAL_WAIT`` (the last cut times
    a tick duration, any of a sweep's) exits 2 naming the flag before any
    scan or read, writing nothing, rather than sleeping for 23 days; a wait
    at the cap, and a simulated one past it, pass every check."""
    monkeypatch.chdir(tmp_path)
    base = [command, "--scan-inline", "--cuts", "500 2000", "--out-dir", "out"]
    start = time.perf_counter()
    assert run_cli(*base, "--mode", "real", flag, *durations) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"config error: {flag}: --mode real would sleep 2e+06 s until cut 2000 "
        f"is acquired, past the {cli._MAX_REAL_WAIT:g} s cap\n")
    assert not (tmp_path / "out").exists()
    at_cap = repr(cli._MAX_REAL_WAIT / 2000)
    for mode, duration in (("real", at_cap), ("sim", "1000")):
        with pytest.raises(Reached):
            run_cli(*base, "--mode", mode, flag, duration)


@pytest.mark.parametrize("command", ["scan", "run", "sweep"])
def test_scan_flags_that_overflow_only_together_exit_2_naming_them(
        tmp_path, monkeypatch, capsys, no_work, command):
    """Scan flags that each pass alone but together put the last tick's
    phase past the largest float exit 2 on one line naming every flag off
    its default, before any scan, writing nothing, rather than scanning
    rays of NaN."""
    monkeypatch.chdir(tmp_path)
    base = [] if command == "scan" else ["--scan-inline"]
    flags = ["--fx", "1e300", "--ticks-per-period", "1e-10", "--ticks", "1000"]
    assert run_cli(command, *base, *flags, "--out-dir", "out") == 2
    assert capsys.readouterr().err == (
        "config error: --fx, --ticks, --ticks-per-period: the scan phase "
        "max(fx, fy) * 2 pi * (ticks - 1) / ticks_per_period + |phase| "
        "overflows\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--tick-duration", "1e-5", "--scan-inline"],
    ["sweep", "--skip-unrefined", "--scan-inline"],
    ["sweep", "--coverage-grid", "7", "--scan-inline"],
    ["partition", "--seed", "1", "--stream", "stream.bin"],
])
def test_flag_the_command_does_not_take_exits_2(tmp_path, monkeypatch, capsys,
                                                 no_work, argv):
    """sweep takes no --tick-duration (--tick-durations sets every tick
    duration), no --skip-unrefined and no --coverage-grid, which only run
    reads; partition draws nothing at random, so it takes no --seed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stream.bin").write_bytes(b"")
    assert exit_code(*argv, "--out-dir", "out") == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_poses", [0, -1])
def test_max_poses_below_one_exits_2(tmp_path, capsys, no_work, max_poses):
    assert run_cli("scan", "--max-poses", str(max_poses),
                   "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"config error: max_poses must be >= 1, got {max_poses}\n")


def test_coverage_grid_zero_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "run"
    rc = run_cli("run", *FAST, "--coverage-grid", "0", "--um-k", "0",
                 "--out-dir", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: --coverage-grid must be >= 1, got 0" in err
    assert "--um-k" in err
    assert not out.exists()


def test_run_requires_stream_or_inline(tmp_path, capsys):
    rc = run_cli("run", "--out-dir", str(tmp_path))
    assert rc == 2
    assert "--scan-inline" in capsys.readouterr().err


def test_run_seeded_knn(tmp_path, capsys):
    out = tmp_path / "knn"
    assert run_cli("run", *FAST, "--predictor", "seeded-knn",
                   "--seed-ref-fraction", "0.05",
                   "--out-dir", str(out), "--seed", "1") == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert all(0 <= m <= 1 for m in metrics["scale_miou"])
    assert "warning" not in capsys.readouterr().err
    assert "warnings" not in json.loads((out / "run_manifest.json").read_text())


def run_capped(*argv):
    """``scalestream *argv`` in a process capped at 3,000,000 KiB of address
    space, where a large allocation fails at once instead of paging."""
    cap = 3_000_000 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-m", "scalestream.cli", *argv],
        capture_output=True, text=True, preexec_fn=limit, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})


def test_many_declared_classes_run_under_a_memory_cap(tmp_path, room,
                                                      default_pose):
    """A 3,252-point stream that declares 40,000 classes, every label below
    13: run exits 0 without a traceback in a process capped at 3,000,000 KiB
    of address space, where a large allocation fails at once instead of
    paging.  The mIoU counts once took a 40,000 x 40,000 table (11.9 GiB)."""
    scanned = scan(room, default_pose, LissajousConfig(ticks=4000))
    stream = tmp_path / "classes.bin"
    write_stream(PointStream(scanned.positions, scanned.labels,
                             scanned.timestamps, 40000), stream)
    proc = run_capped("run", "--stream", str(stream),
                      "--cuts", "500 1000 2000 4000",
                      "--error-rates", "0.3 0.2 0.1 0.05",
                      "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_scene_of_65535_classes_runs_under_a_memory_cap(tmp_path):
    """A scene that declares 65,535 classes and puts its floor and walls on
    classes 65,532-65,534: the noisy oracle flips labels over every class,
    so the cascade's vote tables span nearly all ids.  run exits 0 without
    a traceback under the 3,000,000 KiB cap; its vote once counted over
    that span and asked for 3.53 GiB."""
    names = ",".join(f"c{i}" for i in range(65535))
    scene = tmp_path / "wide.scene"
    scene.write_text(f"classes {names}\nroom 0 0 0 4 4 3\n"
                     "rect c65532 0 0 0 4 4 0\n"
                     "rect c65533 0 0 0 0 4 3\nrect c65533 4 0 0 4 4 3\n"
                     "rect c65534 0 0 0 4 0 3\nrect c65534 0 4 0 4 4 3\n")
    proc = run_capped("run", "--scan-inline", "--scene", str(scene),
                      "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["scan", "--ticks", "10000000000"],              # 112 GiB of per-tick points
], ids=["ticks"])
def test_out_of_memory_is_one_error_line(tmp_path, argv):
    """An input whose arrays cannot be allocated under the 3,000,000 KiB
    cap: the command exits 1 with one ``error: out of memory`` line, no
    traceback and no output directory.  The scan allocates its per-tick
    outputs before its first block, so it fails at once."""
    out = tmp_path / "out"
    proc = run_capped(*argv, "--out-dir", str(out))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: out of memory: Unable to allocate ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["scan", "--room", "1e6,1e6,1e6"], "--room"),
    (["scan", "--room", "1e7 1e7 3"], "--room"),
    (["run", "--scan-inline", "--room", "4 4 1e7"], "--room"),
    (["scan", "--scene", "wide.scene"], "--scene"),
], ids=["cube", "room-camera-grid", "tall-room", "wide-scene"])
def test_room_past_the_camera_cap_exits_2_naming_it(tmp_path, argv, flag):
    """A room whose walls hold more camera candidates than ``place_cameras``
    takes (the cube once asked for 1.42 PiB, the others for 22.4-59.6 GiB)
    is refused before any grid is built, under the 3,000,000 KiB cap: one
    config error line naming the flag and the count, and nothing written."""
    (tmp_path / "wide.scene").write_text("room 0 0 0 1e8 4 3\n")
    argv = [str(tmp_path / a) if a.endswith(".scene") else a for a in argv]
    if flag == "--scene":
        flag = f"--scene: {argv[-1]}"
    out = tmp_path / "out"
    proc = run_capped(*argv, "--out-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert re.match(f"config error: {re.escape(flag)}: a .* m room has [0-9,]+ "
                    "camera candidates, more than the 1,048,576 placed\n", proc.stderr)
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_run_real_mode(tmp_path):
    out = tmp_path / "real"
    assert run_cli("run", *FAST, "--mode", "real", "--tick-duration", "1e-6",
                   "--out-dir", str(out), "--seed", "2") == 0
    metrics = json.loads((out / "metrics.json").read_text())
    lat = metrics["latency"]
    assert lat["post_acq"] > 0


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flags, flag", [
    ([cli._flag(flag), "1"], cli._flag(flag)) for flag in cli.TIMING_FLAGS[1:]
], ids=[f"flags{i}-{cli._flag(flag)}"  # flags0 and flags1 were schedule flags
        for i, flag in enumerate(cli.TIMING_FLAGS[1:], start=2)])
def test_real_mode_refuses_simulated_schedule_flags(tmp_path, capsys, monkeypatch,
                                                    command, flags, flag):
    """Real mode measures its schedule, so a stage cost, which shapes only
    the simulated one, exits 2 naming it, before any scan."""
    monkeypatch.setattr(cli, "scan", None)  # a scan would fail with exit 1
    out = tmp_path / "out"
    assert run_cli(command, *FAST_SWEEP, "--mode", "real", *flags,
                   "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        f"config error: {flag} shapes only the simulated schedule; "
        "--mode real measures its own\n")
    assert not out.exists()


def test_real_mode_unrefined_comparison_does_not_sleep(tmp_path, monkeypatch):
    """Only the refined run of a real-mode ``run`` waits for the acquisition;
    the unrefined comparison keeps no timeline, so it is simulated."""
    refining, slept = [], []
    run, sleep = cli.run_scalable, pipeline.time.sleep

    def spy_run(stream, spec, predictor_cfg, update_cfg, timing):
        refining.append(update_cfg is not None)
        return run(stream, spec, predictor_cfg, update_cfg, timing)

    def spy_sleep(dt):
        slept.append(refining[-1])
        sleep(dt)

    monkeypatch.setattr(cli, "run_scalable", spy_run)
    monkeypatch.setattr(pipeline.time, "sleep", spy_sleep)
    assert run_cli("run", *FAST, "--mode", "real",
                   "--out-dir", str(tmp_path / "real")) == 0
    assert refining == [True, False]
    assert slept and all(slept)


@pytest.mark.parametrize("flags, passes", [
    ([], 2),
    (["--mode", "real", "--tick-duration", "1e-7"], 2),
    (["--skip-unrefined"], 1),
], ids=["sim", "real", "skip-unrefined"])
def test_seeded_knn_run_searches_each_context_once(tmp_path, label_calls,
                                                   flags, passes):
    """A seeded-knn ``run`` over K scales makes 2K neighbor searches: K
    context searches, K-1 scale pairs and the baseline.  The unrefined pass
    votes through the refined pass's context tables, so whether it runs,
    and the mode, change no count."""
    assert run_cli("run", *FAST_SWEEP, "--predictor", "seeded-knn", *flags,
                   "--out-dir", str(tmp_path)) == 0
    assert label_calls == {"predict": 5 * passes, "knn_batch": 5 + 4 + 1}


def test_scan_scene_that_is_not_utf8_exits_2(tmp_path, capsys):
    """A scene file whose bytes are not UTF-8 is a scene fault: one config
    error line that names the file, and nothing written."""
    scene = tmp_path / "bad.scene"
    scene.write_bytes(b"\xff\xferoom 0 0 0 4 4 3\n")
    out = tmp_path / "scan"
    assert run_cli("scan", "--scene", str(scene), "--ticks", "100",
                   "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        f"config error: --scene: {scene} is not UTF-8 text: invalid start "
        "byte at byte 0\n")
    assert not out.exists()


def test_scan_scene_with_bad_coordinate_exits_2(tmp_path, capsys):
    scene = tmp_path / "bad.scene"
    scene.write_text("room 0 0 0 4 4 3\nbox chair 1 1 0 nan 2 1\n")
    out = tmp_path / "scan"
    assert run_cli("scan", "--scene", str(scene), "--ticks", "4000",
                   "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        "config error: line 2: coordinates must be finite numbers, "
        "got 1 1 0 nan 2 1\n")
    assert not out.exists()


def test_scan_scene_with_second_room_exits_2(tmp_path, capsys):
    scene = tmp_path / "twice.scene"
    scene.write_text("room 0 0 0 4 4 3\nroom 0 0 0 5 5 3\n")
    out = tmp_path / "scan"
    assert run_cli("scan", "--scene", str(scene), "--ticks", "100",
                   "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        "config error: line 2: second room line (the first is line 1)\n")
    assert not out.exists()


def test_scan_the_stream_format_cannot_hold_exits_1_making_nothing(tmp_path, capsys):
    """A class name past the format's uint16 length is refused by the
    writer: one error line, exit 1, and no output directory."""
    scene = tmp_path / "long-name.scene"
    scene.write_text(f"classes floor,{'x' * 70000}\nroom 0 0 0 4 4 3\n"
                     "rect floor 0 0 0 4 4 0\n")
    out = tmp_path / "scan" / "long-name"
    assert run_cli("scan", "--scene", str(scene), "--ticks", "100",
                   "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: class name 1 (70000 UTF-8 bytes) does not fit")
    assert err.count("\n") == 1
    assert not out.parent.exists()


def test_scan_scene_with_repeated_class_exits_2(tmp_path, capsys):
    scene = tmp_path / "repeat.scene"
    scene.write_text("scene repeat\nclasses a,b,a\nroom 0 0 0 4 4 3\n")
    out = tmp_path / "scan"
    assert run_cli("scan", "--scene", str(scene), "--ticks", "100",
                   "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        "config error: line 2: class names must be unique\n")
    assert not out.exists()


@pytest.mark.parametrize("index,position", [
    (7, "(2.05, 0.05, 1.7)"), (37, "(2.95, 0.05, 1.5)"),
    (48, "(2.45, 0.05, 1.7)")])
@pytest.mark.parametrize("command", ["scan", "run"])
def test_camera_on_a_primitive_exits_2(tmp_path, capsys, command, index,
                                       position):
    """Poses 7, 37 and 48 of the seed-0 placement lie on the board in the
    camera's wall plane, where every ray would hit at distance 0."""
    scene = tmp_path / "board.scene"
    scene.write_text("room 0 0 0 4 4 3\nrect floor 0 0 0 4 4 0\n"
                     "rect board 2 0.05 1 3.5 0.05 2 board-at-camera\n")
    out = tmp_path / "out"
    args = ["--scan-inline", "--cuts", "500 2000", "--error-rates", "0.1 0.1"]
    assert run_cli(command, "--scene", str(scene), "--camera-index", str(index),
                   "--ticks", "2000", *(args if command == "run" else []),
                   "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        f"config error: camera position {position} lies on or inside "
        "primitive 'board-at-camera'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_predictor_failure_in_the_run_exits_1_naming_the_scale(
        tmp_path, monkeypatch, capsys, command):
    """A failure inside the label loop is a runtime error of that scale, not
    a configuration error."""
    real = pipeline.predict

    def failing(part, *args):
        if part.scale == 3:
            raise PredictorError("no labels today")
        return real(part, *args)

    monkeypatch.setattr(pipeline, "predict", failing)
    out = tmp_path / "out"
    argv = FAST if command == "run" else FAST_SWEEP
    assert run_cli(command, *argv, "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "error: scale 3: no labels today\n"
    assert not out.exists()


def test_baseline_failure_exits_1_naming_the_baseline(tmp_path, monkeypatch,
                                                       capsys):
    def failing(*args):
        raise PredictorError("no labels today")

    monkeypatch.setattr(pipeline, "predict_full", failing)
    assert run_cli("run", *FAST, "--out-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: baseline: no labels today\n"


def test_run_from_stream_file(tmp_path):
    scan_dir = tmp_path / "scan"
    assert run_cli("scan", "--out-dir", str(scan_dir), "--ticks", "6000") == 0
    out = tmp_path / "run"
    assert run_cli("run", "--stream", str(scan_dir / "stream.bin"),
                   "--cuts", "500 1200 2500 4200 6000",
                   "--out-dir", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["coverage_curve"]) == 5
    assert metrics["coverage_curve"][-1][1] == 1.0


def test_partition_command(tmp_path):
    scan_dir = tmp_path / "scan"
    assert run_cli("scan", "--out-dir", str(scan_dir), "--ticks", "4000") == 0
    out = tmp_path / "parts"
    assert run_cli("partition", "--stream", str(scan_dir / "stream.bin"),
                   "--cuts", "1000 2500 4000", "--out-dir", str(out)) == 0
    summary = json.loads((out / "partitions.json").read_text())
    assert len(summary["scales"]) == 3
    assert sum(s["count"] for s in summary["scales"]) == summary["total"]


def test_sweep_rows_and_monotone_bounds(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("sweep", *FAST_SWEEP, "--tick-durations", "1e-6 1e-4 1e-2",
                   "--out-dir", str(out), "--seed", "4") == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 rows
    rows = [line.split(",") for line in lines[1:]]
    speedups = [float(r[5]) for r in rows]
    assert all(0 <= s < 1 for s in speedups)
    post = [float(r[2]) for r in rows]  # ordered by increasing tick duration
    assert all(b <= a + 1e-12 for a, b in zip(post, post[1:]))


def test_sweep_two_point(tmp_path):
    out = tmp_path / "sweep2"
    assert run_cli("sweep", *FAST_SWEEP, "--tick-durations", "1e-5 1e-3",
                   "--out-dir", str(out)) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def test_sweep_slow_ticks_give_a_row_each(tmp_path):
    """Slow ticks put the instants near 1e4 s, where two residuals equal in
    the model differ in their last bits; every duration still gets its
    row."""
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--scan-inline", "--ticks", "8000",
                   "--tick-durations", "0.1 0.3", "--out-dir", str(out)) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.1, 0.3]


@pytest.fixture
def predict_full_calls(monkeypatch):
    """Each full-cloud baseline prediction appends its point count."""
    calls, predict_full = [], pipeline.predict_full

    def spy(positions, *args):
        calls.append(len(positions))
        return predict_full(positions, *args)

    monkeypatch.setattr(pipeline, "predict_full", spy)
    return calls


@pytest.mark.parametrize("predictor", ["noisy-oracle", "seeded-knn"])
@pytest.mark.parametrize("mode", ["sim", "sim-serial"], ids=["full", "none"])
def test_sim_sweep_predicts_no_baseline_labels(tmp_path, predict_full_calls,
                                               predictor, mode):
    assert run_cli("sweep", *FAST_SWEEP, "--predictor", predictor,
                   "--mode", mode, "--tick-durations", "1e-6 1e-4",
                   "--out-dir", str(tmp_path)) == 0
    assert predict_full_calls == []


def test_sim_sweep_labels_once_per_command(tmp_path, label_calls):
    """A simulated seeded-knn sweep over five tick durations at the default
    cuts makes one label pass: 5 predictions, and 9 searches (one per scale
    for the predictor, one per scale pair for the cascade).  A second sweep
    in the same process makes its own pass, so nothing outlives a command.
    """
    assert run_cli("scan", "--out-dir", str(tmp_path / "scan")) == 0
    for n in (1, 2):
        assert run_cli("sweep", "--stream", str(tmp_path / "scan" / "stream.bin"),
                       "--predictor", "seeded-knn",
                       "--tick-durations", "1e-6 3e-6 1e-5 3e-5 1e-4",
                       "--out-dir", str(tmp_path / f"sweep{n}")) == 0
        assert label_calls == {"predict": 5 * n, "knn_batch": 9 * n}
    assert ((tmp_path / "sweep1" / "sweep.csv").read_bytes()
            == (tmp_path / "sweep2" / "sweep.csv").read_bytes())


def test_real_sweep_measures_each_baseline(tmp_path, predict_full_calls,
                                           label_calls):
    """A real sweep times real work: it labels and predicts the baseline
    once per tick duration."""
    assert run_cli("sweep", *FAST_SWEEP, "--mode", "real",
                   "--tick-durations", "1e-7 1e-6 1e-7",
                   "--out-dir", str(tmp_path)) == 0
    assert len(predict_full_calls) == 3
    assert len(set(predict_full_calls)) == 1
    assert label_calls["predict"] == 3 * 5


@pytest.mark.parametrize("predictor", ["noisy-oracle", "seeded-knn"])
def test_sweep_csv_equals_run_baseline_reference(tmp_path, predictor):
    """The modelled baseline gives the bytes that predicting the full cloud
    with ``run_baseline`` gives."""
    assert run_cli("scan", "--ticks", "6000", "--out-dir", str(tmp_path)) == 0
    stream = read_stream(tmp_path / "stream.bin")
    tds = (1e-6, 3e-6, 1e-5, 1e-4)
    assert run_cli("sweep", "--stream", str(tmp_path / "stream.bin"),
                   "--cuts", "500 1200 2500 4200 6000", "--seed", "2",
                   "--predictor", predictor,
                   "--tick-durations", " ".join(map(repr, tds)),
                   "--out-dir", str(tmp_path / "sweep")) == 0
    cfg = PredictorConfig(variant=predictor, seed=2)
    if predictor == "seeded-knn":
        cfg = PredictorConfig(variant=predictor, seed=2, seed_cloud=make_seed_cloud(
            stream, fraction=0.02, seed=2))
    lines = ["tick_duration,acquisition_end,post_acq,post_acq_lower,"
             "post_acq_upper,speedup,first_prediction_fraction"]
    for td in tds:
        timing = TimingModel(tick_duration=td)
        _, tl = run_scalable(stream, PartitionSpec((500, 1200, 2500, 4200, 6000)),
                             cfg, UpdateConfig(), timing)
        _, base_tl = run_baseline(stream, cfg, timing)
        lat = latency_metrics(tl, base_tl)
        lines.append(",".join(repr(v) for v in (
            td, lat.acquisition_end, lat.post_acq, lat.post_acq_lower,
            lat.post_acq_upper, lat.speedup, lat.first_prediction_fraction)))
    assert (tmp_path / "sweep" / "sweep.csv").read_text() == "\n".join(lines) + "\n"


def test_sweep_empty_range_exits_2(tmp_path, capsys):
    rc = run_cli("sweep", *FAST_SWEEP, "--tick-durations", "",
                 "--out-dir", str(tmp_path))
    assert rc == 2


def test_report_regenerates_plots(tmp_path, capsys):
    """Report draws the same views each time, and it prints the cost of
    scalability and the speedup that run stored, recomputed from the mIoUs
    and the timelines: corrupting the stored copies changes neither its
    summary nor its views, metrics.csv included."""
    for mode in ("sim", "real"):
        out = tmp_path / mode
        run_and_report(*FAST, "--mode", mode, "--out-dir", str(out),
                       "--seed", "6")
        metrics = json.loads((out / "metrics.json").read_text())
        cost, speedup = (metrics["cost_of_scalability_pct"],
                         metrics["latency"]["speedup"])
        lines = (f"cost of scalability: {cost:+.2f} pp\n",
                 f"speedup: {speedup:.1%}\n")
        views = {name: (out / name).read_bytes() for name in VIEWS}
        assert f"cost_of_scalability_pct,,{cost!r}\n".encode() in views["metrics.csv"]
        assert f"latency_speedup,,{speedup!r}\n".encode() in views["metrics.csv"]
        corrupt = {**metrics, "cost_of_scalability_pct": float("inf"),
                   "latency": {"speedup": float("-inf")}}
        summaries = []
        for stored in (metrics, corrupt):
            (out / "metrics.json").write_text(json.dumps(stored))
            for name in views:
                (out / name).unlink()
            capsys.readouterr()
            assert run_cli("report", "--run-dir", str(out)) == 0
            for name, data in views.items():
                assert (out / name).read_bytes() == data, (mode, name)
            summaries.append(capsys.readouterr().out)
        assert "mIoU@scale5" in summaries[0]
        assert all(line in summaries[0] for line in lines), (mode, summaries[0])
        assert summaries[1] == summaries[0], mode


def _drop_scale_done_2(run_dir):
    path = run_dir / "timeline.json"
    data = json.loads(path.read_text())
    data["events"] = [e for e in data["events"]
                      if (e["kind"], e["scale"]) != ("scale_done", 2)]
    path.write_text(json.dumps(data))
    return path


def _set_timeline(**changes):
    """A break that sets ``timeline.json``'s top-level keys to ``changes``'
    values, each a value or a function of the timeline; None drops a key."""
    def break_timeline(run_dir):
        path = run_dir / "timeline.json"
        data = json.loads(path.read_text())
        for key, change in changes.items():
            if change is None:
                del data[key]
            else:
                data[key] = change(data) if callable(change) else change
        path.write_text(json.dumps(data))
        return path
    return break_timeline


def _negative_instant(run_dir):
    path = run_dir / "timeline.json"
    data = json.loads(path.read_text())
    data["events"][0]["instant"] = -1
    path.write_text(json.dumps(data))
    return path


def _old_format(run_dir):
    """``timeline.json`` as it was before a run's refinements became one
    list: a ``refine_done`` event in ``events`` for each of them."""
    path = run_dir / "timeline.json"
    data = json.loads(path.read_text())
    path.write_text(json.dumps({"events": old_event_list(data)}))
    return path


def _misspelled_kind(run_dir):
    path = run_dir / "timeline.json"
    data = json.loads(path.read_text())
    done = next(e for e in data["events"] if e["kind"] == "scale_done")
    done["kind"] = "scale_dne"
    path.write_text(json.dumps(data))
    return path


def _numeric_kind(run_dir):
    path = run_dir / "timeline.json"
    data = json.loads(path.read_text())
    data["events"].append({"kind": 5, "scale": 1, "instant": 0.0})
    path.write_text(json.dumps(data))
    return path


def _repeated_event(run_dir):
    path = run_dir / "timeline.json"
    data = json.loads(path.read_text())
    data["events"].append({"kind": "scale_start", "scale": 2, "instant": 999.0})
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("break_timeline, message", [
    (_drop_scale_done_2, "incomplete timeline: timeline has no scale_done "
                         "event for scale 2"),
    (_set_timeline(baseline_start=None, baseline_done=None),
     "lacks the key 'baseline_start'"),
    (_negative_instant, "negative instant for partition_ready(1): -1"),
    (_old_format, "unknown event refine_done(1)"),
    (_misspelled_kind, "unknown event scale_dne(1)"),
    (_numeric_kind, "unknown event 5(1)"),
    (_repeated_event, "repeated event scale_start(2)"),
    (_set_timeline(events=[]), "scalable timeline contains no scale events"),
    (_set_timeline(baseline_done=lambda data: data["baseline_start"]),
     "baseline processing time is zero but the scalable run has nonzero "
     "residual latency"),
], ids=["no-scale-done-2", "empty-baseline", "negative-instant",
        "old-format", "misspelled-kind", "numeric-kind", "repeated-event",
        "no-events", "zero-length-baseline"])
def test_report_malformed_timeline_names_the_file_and_writes_nothing(
        tmp_path, capsys, break_timeline, message):
    """A timeline that lacks an event or the baseline, holds a negative
    instant, is in the layout that kept refinements as events, holds an
    event of a kind other than the four that a run writes, holds an event
    twice, holds no event, or whose baseline takes no time while the run
    has a residual: report exits 1 naming the file and writes no view."""
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    broken = break_timeline(out)
    capsys.readouterr()
    assert run_cli("report", "--run-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert str(broken) in err
    assert err.count("\n") == 1
    assert sorted(f.name for f in out.iterdir()) == list(RUN_FILES)


@pytest.mark.parametrize("command, flags, message", [
    ("run", ["--predict-fixed", "1e308"],
     "non-finite instant for scale_done(2): inf"),
    ("run", ["--predict-fixed", "1e308", "--mode", "sim-unfused"],
     "latency post_acq_upper is not finite: inf"),
    ("sweep", ["--predict-fixed", "1e308", "--tick-durations", "1e-5"],
     "non-finite instant for scale_done(2): inf"),
    ("run", ["--error-rates", "0.2 0.1", "--baseline-factor", "1e308",
             "--predict-per-point", "1"],
     "non-finite instant for baseline_done: inf"),
], ids=["run", "run-no-fusion", "sweep", "run-baseline"])
def test_timing_overflow_exits_1_writing_nothing(tmp_path, capsys, command,
                                                 flags, message):
    """Modelled instants past the largest float are an error naming the
    event, the baseline instant or the field, not Infinity in the
    outputs."""
    out = tmp_path / "out"
    rc = run_cli(command, "--scan-inline", "--ticks", "2000",
                 "--cuts", "1000 2000", *flags, "--out-dir", str(out))
    assert rc == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not out.exists()


def test_report_missing_dir_exits_2(tmp_path):
    assert run_cli("report", "--run-dir", str(tmp_path / "nope")) == 2


@pytest.mark.parametrize("name", ["timeline.json"])
def test_report_missing_timeline_exits_2_writing_nothing(tmp_path, capsys, name):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    (out / name).unlink()
    capsys.readouterr()
    assert run_cli("report", "--run-dir", str(out)) == 2
    assert capsys.readouterr().err == f"config error: no {name} under {out}\n"
    assert no_view(out)


REPORT_INPUTS = ("metrics.json", "timeline.json")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The two JSON files that report reads, from one small sim run."""
    out = tmp_path_factory.mktemp("small") / "run"
    assert run_cli("run", "--scan-inline", "--ticks", "4000",
                   "--cuts", "500 1000 2000 4000",
                   "--error-rates", "0.3 0.2 0.1 0.05", "--out-dir", str(out)) == 0
    return {name: json.loads((out / name).read_text()) for name in REPORT_INPUTS}


def _write_run_dir(path, docs):
    path.mkdir()
    for name, doc in docs.items():
        (path / name).write_text(json.dumps(doc))
    return path


def _report(run_dir, *flags):
    """Exit code, stdout and stderr of ``report`` on ``run_dir``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli("report", "--run-dir", str(run_dir), *flags)
    return code, out.getvalue(), err.getvalue()


#: Strings and bools in place of an mIoU, which report refuses, not coerces.
COERCIBLE = {"str": "0.5", "padded-str": " 0.25 ", "true": True, "false": False}


@pytest.mark.parametrize("field, value, message", [
    ("scale_miou", [7.5, -3, 0.5], "scale_miou holds 7.5, not an mIoU in [0, 1]"),
    ("scale_miou", [None, -3], "scale_miou holds -3.0, not an mIoU in [0, 1]"),
    ("scale_miou_unrefined", [0.5, float("nan")],
     "scale_miou_unrefined holds nan, not an mIoU in [0, 1]"),
    ("baseline_miou", float("nan"), "baseline_miou holds nan, not an mIoU in [0, 1]"),
    ("baseline_miou", 1.5, "baseline_miou holds 1.5, not an mIoU in [0, 1]"),
    *[(field, v if field == "baseline_miou" else [v, 0.5],
       f"{field} holds {v!r}, not an mIoU in [0, 1]")
      for field in ("scale_miou", "scale_miou_unrefined", "baseline_miou")
      for v in COERCIBLE.values()],
    ("per_class_iou", {"floor": 0.5, "wall": "0.5"},
     "per_class_iou holds '0.5', not an IoU in [0, 1]"),
    ("per_class_iou", {"floor": True}, "per_class_iou holds True, not an IoU in [0, 1]"),
    ("coverage_curve", [[500, 0.5], [4000, float("nan")]],
     "coverage_curve holds nan, not a fraction in [0, 1]"),
    ("coverage_curve", [[500, 2]], "coverage_curve holds 2.0, not a fraction in [0, 1]"),
], ids=["miou-above-1", "miou-below-0", "unrefined-nan", "baseline-nan",
        "baseline-above-1",
        *[f"{field}-{name}"
          for field in ("scale_miou", "scale_miou_unrefined", "baseline_miou")
          for name in COERCIBLE],
        "iou-str", "iou-true", "coverage-nan", "coverage-above-1"])
def test_report_refuses_impossible_metrics(tmp_path, small_run, field, value,
                                           message):
    """An mIoU, IoU or coverage fraction outside [0, 1], or a string or a
    bool in its place, exits 1 naming the file and the field, and no view
    is written."""
    metrics = {**small_run["metrics.json"], field: value}
    run_dir = _write_run_dir(tmp_path / "run",
                             {**small_run, "metrics.json": metrics})
    code, _, err = _report(run_dir)
    assert code == 1
    assert err == f"error: {run_dir / 'metrics.json'}: {message}\n"
    assert sorted(f.name for f in run_dir.iterdir()) == sorted(REPORT_INPUTS)


@pytest.mark.parametrize("field, count", [
    ("scale_miou", 7), ("scale_miou", 3), ("scale_miou_unrefined", 5)])
def test_report_refuses_metrics_of_another_scale_count(tmp_path, small_run,
                                                       field, count):
    """A ``scale_miou``, or a non-null ``scale_miou_unrefined``, that holds
    another count of mIoUs than the timeline has scales exits 1 on one line
    naming both files, and no view is written."""
    metrics = {**small_run["metrics.json"], field: [0.5] * count}
    run_dir = _write_run_dir(tmp_path / "run",
                             {**small_run, "metrics.json": metrics})
    code, _, err = _report(run_dir)
    assert code == 1
    assert err == (f"error: {run_dir / 'metrics.json'} and "
                   f"{run_dir / 'timeline.json'}: {field} holds {count} mIoUs "
                   "for the 4 scales of the timeline\n")
    assert no_view(run_dir)


def _field_paths(doc, path=()):
    """Every key path into a JSON document, the root's ``()`` included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _field_paths(value, (*path, key))


def _is_miou(v):
    return type(v) in (int, float) and 0 <= v <= 1


_DROP = object()
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308]),
    st.sampled_from(["0.5", "1", " 0.25 ", ""]), st.text(max_size=4))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_report_survives_any_single_field_mutation(small_run, data):
    """Set one field of one input file to any JSON value, or drop it: report
    exits 0 with every mIoU, IoU and coverage fraction a JSON number in
    [0, 1] (an mIoU null for an empty prefix), or exits 1 or 2 with one line that names the file and writes
    no view.  Never a traceback."""
    docs = json.loads(json.dumps(small_run))
    name = data.draw(st.sampled_from(REPORT_INPUTS))
    path = data.draw(st.sampled_from(list(_field_paths(docs[name]))))
    value = data.draw(st.just(_DROP) | _json_values if path else _json_values)
    if not path:
        docs[name] = value
    else:
        container = docs[name]
        for key in path[:-1]:
            container = container[key]
        if value is _DROP:
            del container[path[-1]]
        else:
            container[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = _write_run_dir(Path(tmp) / "run", docs)
        code, _, err = _report(run_dir)
        assert code in (0, 1, 2)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert str(run_dir / name) in err, err
            assert no_view(run_dir)
            return
    metrics = docs["metrics.json"]
    scale, unrefined = metrics["scale_miou"], metrics["scale_miou_unrefined"]
    assert type(scale) is list and _is_miou(scale[-1])
    assert unrefined is None or type(unrefined) is list
    for v in [*scale, *(unrefined or [])]:
        assert v is None or _is_miou(v)
    assert _is_miou(metrics["baseline_miou"])
    assert all(map(_is_miou, metrics["per_class_iou"].values()))
    assert all(type(t) is int and _is_miou(c) for t, c in metrics["coverage_curve"])


POINT_MEMBERS = ("positions", "timestamps", "gt")


@pytest.fixture(scope="module")
def labels_run(tmp_path_factory):
    """A run of 24 points over four scales, so that zip and ``.npy`` headers
    are most of its ``labels.npz``: every file of the run directory and the
    CSVs that ``report --csv`` writes from it, by name."""
    tmp = tmp_path_factory.mktemp("labels")
    stream = make_counted_stream(np.random.default_rng(4), (4, 6, 6, 8),
                                 (10, 20, 30, 40))
    write_stream(stream, tmp / "stream.bin")
    out = tmp / "run"
    assert run_cli("run", "--stream", str(tmp / "stream.bin"),
                   "--cuts", "10 20 30 40", "--error-rates", "0.3 0.2 0.1 0.05",
                   "--out-dir", str(out)) == 0
    files = {f.name: f.read_bytes() for f in out.iterdir()}
    code, _, err = _report(out, "--csv")
    assert code == 0, err
    csvs = {f.name: f.read_bytes() for f in out.glob("cumulative_scale_*.csv")}
    assert sorted(csvs) == [f"cumulative_scale_{i}.csv" for i in range(1, 5)]
    return files, csvs


def _labels_dir(path, files, labels):
    """A run directory of ``files`` whose ``labels.npz`` holds ``labels``,
    and no plot or CSV."""
    path.mkdir()
    for name, data in files.items():
        if name.endswith((".json", ".csv")):
            (path / name).write_bytes(data)
    (path / "labels.npz").write_bytes(labels)
    return path


def _members(labels: bytes) -> dict:
    with np.load(io.BytesIO(labels), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _npz(members: dict, padded: str | None = None) -> bytes:
    """A stored zip of ``.npy`` members, object arrays allowed; the member
    ``padded`` holds one byte past its array."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, array in members.items():
            with zf.open(f"{name}.npy", "w") as fh:
                np.lib.format.write_array(fh, np.asarray(array), allow_pickle=True)
                if name == padded:
                    fh.write(b"\0")
    return buf.getvalue()


def _compressed(labels: bytes) -> bytes:
    buf = io.BytesIO()
    np.savez_compressed(buf, **_members(labels))
    return buf.getvalue()


def _past_end(labels: bytes) -> bytes:
    """``labels`` with the central directory's sizes of its last member
    raised to the file's length, so that the member ends past the file."""
    blob = bytearray(labels)
    entry = blob.rindex(b"PK\x01\x02")
    struct.pack_into("<II", blob, entry + 20, len(blob), len(blob))
    return bytes(blob)


def _flip(labels: bytes, member: str) -> bytes:
    """``labels`` with the last byte of ``member``'s data flipped."""
    blob = bytearray(labels)
    with zipfile.ZipFile(io.BytesIO(labels)) as zf:
        info = zf.getinfo(f"{member}.npy")
    header = 30 + len(info.filename) + len(info.extra)  # the local header
    blob[info.header_offset + header + info.compress_size - 1] ^= 0x55
    return bytes(blob)


def _edit(**changes):
    """A labels file built from the run's members with ``changes`` applied:
    a member name to an array (None drops it), or to a function of it."""
    def make(labels):
        members = _members(labels)
        for name, change in changes.items():
            if change is None:
                del members[name]
            else:
                members[name] = change(members[name]) if callable(change) else change
        return _npz(members)
    return make


def _set(index, value):
    def change(a):
        a = a.copy()
        a[index] = value
        return a
    return change


@pytest.mark.parametrize("make, message", [
    (lambda b: b[:len(b) // 2], "File is not a zip file"),
    (lambda b: b[:-1], "File is not a zip file"),
    (lambda b: _flip(b, "pred_2"), "Bad CRC-32 for file 'pred_2.npy'"),
    (_edit(gt=None), "member 3 is 'pred_1.npy', not gt.npy"),
    (_edit(pred_1=None, pred_2=None, pred_3=None, pred_4=None),
     "lacks the member pred_1.npy"),
    (_edit(extra=np.zeros(3)), "member 8 is 'extra.npy', not pred_5.npy"),
    (_edit(gt=lambda a: a.astype(np.int32)), "gt has dtype <i4, not <i8"),
    (_edit(positions=lambda a: a.astype(np.float64)),
     "positions has dtype <f8, not <f4"),
    (_edit(pred_3=lambda a: a.astype(">i8")), "pred_3 has dtype >i8, not <i8"),
    (_edit(timestamps=lambda a: a[:, None]), "timestamps has shape (24, 1)"),
    (_edit(positions=lambda a: a[:, :2]), "positions (24, 2), timestamps (24,)"),
    (_edit(gt=lambda a: a[:-1]), "gt (23,) are not (N, 3), (N,) and (N,)"),
    (_edit(pred_2=lambda a: np.array(a.tolist(), dtype=object)),
     "Object arrays cannot be loaded when allow_pickle=False"),
    (_edit(gt=_set(5, -1)), "gt holds the label -1, not a class id in [0, "),
    (_edit(pred_4=_set(0, 2 ** 40)), "pred_4 holds the label 1099511627776, "),
    (_edit(positions=_set((3, 1), np.nan)),
     "positions holds a value that is not finite"),
    (_edit(positions=_set((0, 2), -np.inf)),
     "positions holds a value that is not finite"),
    (_edit(pred_2=lambda a: np.zeros(20, np.int64)),
     "hold [4, 20, 16, 24] labels, which must not decrease"),
    (_edit(pred_4=lambda a: a[:-1]),
     "hold [4, 10, 16, 23] labels, which must not decrease and must end at "
     "the 24 points"),
    (_compressed, "positions.npy is compressed, not stored"),
    (lambda b: _npz(_members(b), padded="pred_2"),
     "pred_2.npy holds 1 bytes past its array"),
    (_past_end, "a member ends past the end of the file"),
], ids=["truncated-half", "truncated-last-byte", "flipped-byte", "missing-gt",
        "no-pred", "extra-member", "gt-int32", "positions-float64",
        "big-endian", "timestamps-2d", "positions-2-columns", "gt-short",
        "object-array", "negative-gt", "huge-pred", "nan-position",
        "inf-position", "decreasing-lengths", "short-final", "compressed",
        "bytes-past-array", "past-the-end"])
def test_report_csv_refuses_a_bad_labels_file(tmp_path, labels_run, make,
                                              message):
    """Each fault exits 1 on one line naming labels.npz, with no traceback,
    and writes neither a CSV nor a view."""
    files, _ = labels_run
    run_dir = _labels_dir(tmp_path / "run", files, make(files["labels.npz"]))
    code, out, err = _report(run_dir, "--csv")
    assert code == 1
    assert err.startswith(f"error: {run_dir / 'labels.npz'}: "), err
    assert message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not list(run_dir.glob("cumulative_*.csv")) and no_view(run_dir)


def test_report_csv_without_labels_exits_2(tmp_path, labels_run):
    files, _ = labels_run
    run_dir = _labels_dir(tmp_path / "run", files, b"")
    (run_dir / "labels.npz").unlink()
    code, _, err = _report(run_dir, "--csv")
    assert code == 2
    assert err == f"config error: no labels.npz under {run_dir}\n"
    assert not list(run_dir.glob("cumulative_*.csv")) and no_view(run_dir)


def test_report_reads_labels_only_for_csv(tmp_path, labels_run):
    """Without --csv, report neither reads labels.npz nor writes a CSV; with
    it, a second export rewrites the same bytes."""
    files, csvs = labels_run
    run_dir = _labels_dir(tmp_path / "run", files, b"not a zip")
    assert _report(run_dir)[0] == 0
    assert not list(run_dir.glob("cumulative_*.csv"))
    (run_dir / "labels.npz").write_bytes(files["labels.npz"])
    for _ in range(2):
        code, out, _ = _report(run_dir, "--csv")
        assert code == 0
        assert out.endswith("wrote cumulative_scale_1.csv ... "
                            "cumulative_scale_4.csv\n")
        assert {f.name: f.read_bytes()
                for f in run_dir.glob("cumulative_scale_*.csv")} == csvs


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_report_csv_survives_any_one_byte_mutation(labels_run, data):
    """Flip, insert or delete one byte of labels.npz, or cut it short: report
    --csv exits 1 on one line naming the file and writes no CSV, or writes
    the CSVs of the unmutated file."""
    files, csvs = labels_run
    blob = bytearray(files["labels.npz"])
    i = data.draw(st.integers(0, len(blob)), label="at")
    op = data.draw(st.sampled_from(["flip", "insert", "delete", "truncate"]),
                   label="op")
    if op == "insert":
        blob.insert(i, data.draw(st.integers(0, 255), label="byte"))
    elif op == "truncate":
        del blob[i:]
    elif i < len(blob):
        if op == "flip":
            blob[i] ^= data.draw(st.integers(1, 255), label="mask")
        else:
            del blob[i]
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = _labels_dir(Path(tmp) / "run", files, bytes(blob))
        code, _, err = _report(run_dir, "--csv")
        written = {f.name: f.read_bytes()
                   for f in run_dir.glob("cumulative_scale_*.csv")}
    if code:
        assert code == 1
        assert err.startswith(f"error: {run_dir / 'labels.npz'}: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert not written
    else:
        assert written == csvs


def test_labels_npz_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    """Every member of labels.npz carries one fixed date, so runs under two
    clocks write the same bytes; the file is a plain npz that np.load reads
    without unpickling."""
    blobs = []
    for clock in (1e9, 2e9):
        monkeypatch.setattr(time, "time", lambda: clock)
        out = tmp_path / f"run-{clock:.0f}"
        assert run_cli("run", *FAST, "--out-dir", str(out)) == 0
        blobs.append((out / "labels.npz").read_bytes())
        with zipfile.ZipFile(out / "labels.npz") as zf:
            infos = zf.infolist()
        assert [i.date_time for i in infos] == [(1980, 1, 1, 0, 0, 0)] * 8
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)
    assert blobs[0] == blobs[1]
    members = _members(blobs[0])
    assert list(members) == [*POINT_MEMBERS, *(f"pred_{i}" for i in range(1, 6))]
    n = len(members["gt"])
    assert members["positions"].shape == (n, 3)
    assert members["positions"].dtype == np.float32
    assert all(a.dtype == np.int64 for name, a in members.items()
               if name != "positions")
    assert len(members["pred_5"]) == n


def test_report_partial_metrics_exits_1(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"baseline_miou": 0.5,
                                   "cost_of_scalability_pct": 0.0}))
    assert run_cli("report", "--run-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        f"error: {metrics} lacks the key 'scale_miou'\n")


def test_report_metrics_list_exits_1(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text("[]")
    assert run_cli("report", "--run-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        f"error: {metrics} does not hold a JSON object\n")


def test_report_invalid_json_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    capsys.readouterr()
    timeline = out / "timeline.json"
    timeline.write_text("{not json")
    assert run_cli("report", "--run-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {timeline} is not valid JSON: ")
    assert err.count("\n") == 1


def test_report_timeline_without_events_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    capsys.readouterr()
    timeline = out / "timeline.json"
    timeline.write_text("{}")
    assert run_cli("report", "--run-dir", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {timeline} lacks the key 'events'\n")


@pytest.mark.parametrize("name, field, value", [
    ("timeline.json", "events", [1]),
    ("metrics.json", "scale_miou", 5),
    # the cost of scalability needs the final scale's mIoU, and the final
    # prefix, the whole stream, is never empty
    ("metrics.json", "scale_miou", [0.5, None]),
    ("metrics.json", "scale_miou", []),
    ("timeline.json", "events", {}),
    ("metrics.json", "per_class_iou", [0.5, 0.25]),
    ("metrics.json", "coverage_curve", [[500, 0.5, 1]]),
    ("metrics.json", "coverage_curve", [[True, 0.5]]),
    ("metrics.json", "coverage_curve", {"500": 0.5}),
    ("metrics.json", "scale_miou_unrefined", 0.5),
])
def test_report_wrongly_typed_field_exits_1(tmp_path, small_run, name, field,
                                            value):
    """A field of the wrong JSON type exits 1 on one line naming the file,
    and no view is written."""
    run_dir = _write_run_dir(tmp_path / "run", {
        **small_run, name: {**small_run[name], field: value}})
    code, _, err = _report(run_dir)
    assert code == 1
    assert err.startswith(f"error: {run_dir / name} holds a wrongly typed ")
    assert err.count("\n") == 1
    assert sorted(f.name for f in run_dir.iterdir()) == sorted(REPORT_INPUTS)


def test_report_refuses_non_integer_event_values(tmp_path, capsys):
    """A scale that is not a JSON integer, or an instant that is a bool, is
    refused naming the file, not coerced or left to crash."""
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    path = out / "timeline.json"
    good = json.loads(path.read_text())
    for index, key, value in [(0, "scale", float("inf")), (0, "scale", 1.5),
                              (0, "scale", True), (0, "scale", "1"),
                              (0, "instant", True)]:
        data = json.loads(json.dumps(good))
        data["events"][index][key] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_cli("report", "--run-dir", str(out)) == 1, (key, value)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} holds a wrongly typed event: ")
        assert err.count("\n") == 1
        assert no_view(out)


@pytest.mark.parametrize("edit, message", [
    (lambda ends: ends[:-1],
     "5 refine_done instants for 4 scales, which refine 0 or 6 times"),
    (lambda ends: [-1, *ends[1:]], "negative instant for refine_done[0]: -1"),
    (lambda ends: [*ends[:2], "0.5", *ends[3:]],
     "wrongly typed event: refine_done entry '0.5' is not a number"),
    (lambda ends: [*ends[:2], True, *ends[3:]],
     "wrongly typed event: refine_done entry True is not a number"),
    (lambda ends: [10**400, *ends[1:]],
     "wrongly typed event: refine_done[0] is not a number a float can hold"),
    (lambda ends: {}, "wrongly typed event: refine_done is {}, not a list"),
    (lambda ends: "", "wrongly typed event: refine_done is '', not a list"),
], ids=["one-short", "negative", "string", "bool", "400-digit", "object",
        "empty-string"])
def test_report_refuses_a_malformed_refine_list(tmp_path, small_run, edit,
                                                message):
    """A 4-scale run refines 6 times.  A ``refine_done`` list of another
    length, or holding an entry that is negative or not a JSON number that
    a float can hold, or a ``refine_done`` that is not a JSON list, exits 1
    naming the file, with no traceback and no view."""
    timeline = small_run["timeline.json"]
    assert len(timeline["refine_done"]) == 6
    run_dir = _write_run_dir(tmp_path / "run", {**small_run, "timeline.json": {
        **timeline, "refine_done": edit(timeline["refine_done"])}})
    code, _, err = _report(run_dir)
    assert code == 1
    assert err.startswith(f"error: {run_dir / 'timeline.json'}")
    assert err.endswith(f"{message}\n") and err.count("\n") == 1, err
    assert no_view(run_dir)


@pytest.mark.parametrize("changes, message", [
    ({"baseline_start": "0.5"},
     "wrongly typed event: baseline_start '0.5' is not a number"),
    ({"baseline_done": True},
     "wrongly typed event: baseline_done True is not a number"),
    ({"baseline_start": 10**400},
     "wrongly typed event: baseline_start is not a number a float can hold"),
    ({"baseline_start": -1}, "negative instant for baseline_start: -1"),
    ({"baseline_done": float("inf")},
     "non-finite instant for baseline_done: inf"),
    ({"baseline_start": 1.0, "baseline_done": 0.5},
     "baseline_done 0.5 is before baseline_start 1.0"),
], ids=["string", "bool", "400-digit", "negative", "inf", "ends-before-start"])
def test_report_refuses_a_malformed_baseline(tmp_path, small_run, changes,
                                             message):
    """The baseline's two instants in ``timeline.json`` are JSON numbers,
    finite and non-negative, and the baseline ends no earlier than it
    starts; any other pair exits 1 naming the file, and no view is
    written."""
    run_dir = _write_run_dir(tmp_path / "run", {
        **small_run, "timeline.json": {**small_run["timeline.json"], **changes}})
    code, _, err = _report(run_dir)
    assert code == 1
    assert err.startswith(f"error: {run_dir / 'timeline.json'}")
    assert err.endswith(f"{message}\n") and err.count("\n") == 1, err
    assert no_view(run_dir)


def test_fusion_off_refine_bar_spans_its_duration(tmp_path):
    """Without the fusion dependency scale 2 is predicted long before scale
    1's output is available; its cascade waits for that output, and its
    refine bar covers only the refine itself."""
    out = tmp_path / "run"
    run_and_report("--scan-inline", "--ticks", "3020", "--cuts", "3000 3020",
                   "--error-rates", "0.3 0.2", "--mode", "sim-unfused",
                   "--out-dir", str(out))
    data = json.loads((out / "timeline.json").read_text())
    tl = Timeline.from_dict(data)
    lat = latency_metrics(tl, (data["baseline_start"], data["baseline_done"]))
    assert tl.done[1] < tl.avail[0]  # scale 2 predicted, scale 1 unpublished
    t_max = max(lat.acquisition_end + lat.post_acq_upper, data["baseline_done"])
    px_per_s = (W - MARGIN_L - MARGIN_R) / t_max
    root = ET.fromstring((out / "timeline.svg").read_text())
    row = next(g for g in root.iter("{http://www.w3.org/2000/svg}g")
               if g.get("id") == "scale-2")
    bars = [r for r in row if r.get("fill") == "#66aa66"]
    assert len(bars) == 1
    x, width = float(bars[0].get("x")), float(bars[0].get("width"))
    assert abs(width - lat.refine_total * px_per_s) <= 0.02
    start = tl.avail[0]
    assert abs(x - (MARGIN_L + start * px_per_s)) <= 0.02


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ticks": 3000, "seed": 9}))
    out = tmp_path / "scan"
    assert run_cli("scan", "--config", str(cfg), "--out-dir", str(out)) == 0
    manifest = json.loads((out / "scan_manifest.json").read_text())
    assert manifest["config"]["ticks"] == 3000
    assert manifest["config"]["seed"] == 9


def test_config_file_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ticks": 3000}))
    out = tmp_path / "scan"
    assert run_cli("scan", "--config", str(cfg), "--ticks", "1500",
                   "--out-dir", str(out)) == 0
    manifest = json.loads((out / "scan_manifest.json").read_text())
    assert manifest["config"]["ticks"] == 1500


def test_run_manifest_records_every_flag(tmp_path):
    """A scanning command's manifest config holds every flag destination of
    the command except --config and --out-dir, so flags that change the
    outputs, such as --skip-unrefined, change the config hash."""
    _, subparsers, _ = cli.build_parser()
    manifests = {}
    for name, argv in (("scan", ["scan", "--ticks", "2000"]),
                       ("run", ["run", *FAST]),
                       ("skip", ["run", *FAST, "--skip-unrefined"])):
        out = tmp_path / name
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        manifests[name] = json.loads(
            (out / f"{argv[0]}_manifest.json").read_text())
    for command, unread in (("scan", set()),
                            ("run", {"k_cls", "seed_ref_fraction"})):
        dests = {a.dest for a in subparsers[command]._actions} - {
            "help", "config", "out_dir", *unread}
        assert set(manifests[command]["config"]) == dests
    assert manifests["run"]["config"]["skip_unrefined"] is False
    assert manifests["skip"]["config"]["skip_unrefined"] is True
    assert manifests["run"]["config_hash"] != manifests["skip"]["config_hash"]


def _strict_json(text: str):
    """``json.loads`` that rejects NaN and infinities, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_run_from_stream_neither_checks_nor_records_scan_flags(tmp_path):
    """A run that reads a stream file reads no scan flag: bad values pass,
    the manifest records none of them, and every output, the manifest and
    its hash included, equals the run's without them."""
    scan_dir = tmp_path / "scan"
    assert run_cli("scan", "--ticks", "6000", "--out-dir", str(scan_dir)) == 0
    base = ["run", "--stream", str(scan_dir / "stream.bin"),
            "--cuts", "500 1200 2500 4200 6000", "--skip-unrefined"]
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert run_cli(*base, "--out-dir", str(plain)) == 0
    assert run_cli(*base, "--fx", "nan", "--dropout", "2", "--room", "9 9 9",
                   "--max-poses", "3", "--camera-index", "99",
                   "--out-dir", str(flagged)) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in flagged.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (flagged / name).read_bytes(), name
    config = _strict_json((flagged / "run_manifest.json").read_text())["config"]
    scan_flags = {"scene", "room", *cli.SCAN_FLAGS, "dropout", "max_poses",
                  "camera_index"}
    assert not scan_flags & set(config)
    assert config["seed"] == 0 and config["scan_inline"] is False


@pytest.mark.parametrize("predictor, flags, unread", [
    ("noisy-oracle", (["--k-cls", "3"], ["--k-cls", "5", "--seed-ref-fraction",
                                         "0.5"]),
     {"k_cls", "seed_ref_fraction"}),
    ("seeded-knn", (["--error-rates", "0.3 0.2"], ["--error-rates", "0.1 0.05"]),
     {"error_rates"}),
], ids=["noisy-oracle", "seeded-knn"])
def test_run_neither_records_nor_hashes_the_other_predictors_flags(
        tmp_path, predictor, flags, unread):
    """Each predictor ignores the other's flags: two runs that differ only
    in them write byte-identical directories, manifest included, and the
    manifest records none of them."""
    assert run_cli("scan", "--ticks", "8000", "--out-dir", str(tmp_path)) == 0
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out, extra in zip(dirs, flags):
        assert run_cli("run", "--stream", str(tmp_path / "stream.bin"),
                       "--cuts", "1000 8000", "--predictor", predictor,
                       *extra, "--skip-unrefined", "--out-dir", str(out)) == 0
    for name in RUN_FILES:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    config = json.loads((dirs[0] / "run_manifest.json").read_text())["config"]
    assert not unread & set(config)
    assert config["predictor"] == predictor


def test_one_config_file_serves_every_command(tmp_path):
    """A config file holding seed, tick_duration, skip_unrefined and
    coverage_grid gives each command the outputs of the flags among them
    that it takes; the others are skipped."""
    assert run_cli("scan", "--ticks", "6000", "--out-dir",
                   str(tmp_path / "scan")) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "tick_duration": 2e-5,
                               "skip_unrefined": True, "coverage_grid": 7}))
    base = ["--stream", str(tmp_path / "scan" / "stream.bin"),
            "--cuts", "500 1200 2500 4200 6000"]
    for command, flags in (
            ("partition", []),
            ("run", ["--seed", "3", "--tick-duration", "2e-5",
                     "--skip-unrefined", "--coverage-grid", "7"]),
            ("sweep", ["--seed", "3"])):
        by_file, by_flags = tmp_path / f"{command}-file", tmp_path / command
        assert run_cli(command, *base, "--config", str(cfg),
                       "--out-dir", str(by_file)) == 0
        assert run_cli(command, *base, *flags, "--out-dir", str(by_flags)) == 0
        names = sorted(p.name for p in by_flags.iterdir())
        assert names == sorted(p.name for p in by_file.iterdir())
        for name in names:
            assert ((by_file / name).read_bytes()
                    == (by_flags / name).read_bytes()), (command, name)
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert manifest["config"]["coverage_grid"] == 7
    assert json.loads((tmp_path / "run" / "metrics.json").read_text())[
        "scale_miou_unrefined"] is None


def test_config_file_manifest_equals_explicit_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scan_inline": True, "ticks": 6000, "cuts": "500 1200 2500 4200 6000",
        "tick_duration": 1e-5, "skip_unrefined": True, "predict_fixed": 0.01,
        "um_k": 3}))
    a, b = tmp_path / "file", tmp_path / "flags"
    assert run_cli("run", "--config", str(cfg), "--out-dir", str(a)) == 0
    assert run_cli("run", *FAST, "--skip-unrefined", "--predict-fixed", "0.01",
                   "--um-k", "3", "--out-dir", str(b)) == 0
    assert ((a / "run_manifest.json").read_bytes()
            == (b / "run_manifest.json").read_bytes())


@pytest.mark.parametrize("values, named", [
    ({"no_update": "false"}, "no_update"),
    ({"mode": "fast"}, "--mode"),
    ({"ticks": 3000.5}, "--ticks"),
    ({"um_k": 2.5}, "--um-k"),
    ({"cuts": [1, 2]}, "--cuts"),
])
def test_config_value_is_parsed_as_its_flag(tmp_path, capsys, no_work,
                                            values, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert exit_code("run", "--scan-inline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")) == 2
    assert named in capsys.readouterr().err


def test_partition_stream_from_config(tmp_path):
    stream_path = tmp_path / "stream.bin"
    write_stream(make_counted_stream(np.random.default_rng(0), (3, 4), (10, 20)),
                 stream_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stream": str(stream_path), "cuts": "10 20"}))
    out = tmp_path / "parts"
    assert run_cli("partition", "--config", str(cfg), "--out-dir", str(out)) == 0
    summary = json.loads((out / "partitions.json").read_text())
    assert [s["count"] for s in summary["scales"]] == [3, 4]


FLOATS = st.floats(-1.0, 1.0, allow_nan=False)

#: What PartitionSpec, PredictorConfig, UpdateConfig and TimingModel accept,
#: restated: config key -> (values on both sides of the bound, whether a
#: value is accepted, and for a text flag the text of a value).  The five
#: error rates are equal.
BOUNDS = {
    "cuts": (st.tuples(st.integers(0, 3), st.integers(0, 3)),
             lambda c: c[0] < c[1], lambda c: f"{c[0]} {c[1]}"),
    "error_rates": (st.floats(-0.5, 1.5, allow_nan=False),
                    lambda r: 0 <= r <= 1, lambda r: " ".join([repr(r)] * 5)),
    "k_cls": (st.integers(-1, 2), lambda k: k >= 1, None),
    "um_k": (st.integers(-1, 2), lambda k: k >= 1, None),
    "tick_duration": (FLOATS, lambda t: t > 0, None),
    **{name: (FLOATS, lambda v: v >= 0, None)
       for name in ("predict_fixed", "predict_per_point", "baseline_factor",
                    "refine_fixed", "refine_per_point")},
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _verdict(*argv) -> list[str] | None:
    """The flags a ``run`` names in its config errors, or None when it
    reaches the stream read."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            assert run_cli(*argv) == 2
        except Reached:
            return None
    return re.findall(r"^config error: (--[a-z-]+): ", err.getvalue(), re.M)


@pytest.fixture(scope="module")
def prop_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("prop")
    (path / "stream.bin").write_bytes(b"")
    return path


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_config_file_and_flags_agree(prop_dir, data):
    """Values on both sides of every object-checked bound, given once as
    flags and once in a config file: both runs reject exactly the flags out
    of bounds, or both reach the stream read."""
    keys = data.draw(st.lists(st.sampled_from(sorted(BOUNDS)), unique=True),
                     label="keys")
    drawn = {k: data.draw(BOUNDS[k][0], label=k) for k in keys}
    bad = sorted(_flag(k) for k, v in drawn.items() if not BOUNDS[k][1](v))
    config = {k: BOUNDS[k][2](v) if BOUNDS[k][2] else v for k, v in drawn.items()}
    cfg = prop_dir / "cfg.json"
    cfg.write_text(json.dumps(config))
    flags = [f"{_flag(k)}={v if isinstance(v, str) else repr(v)}"
             for k, v in config.items()]
    base = ["run", "--stream", str(prop_dir / "stream.bin"),
            "--out-dir", str(prop_dir / "out")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "read_stream", _reached)
        by_flags = _verdict(*base, *flags)
        by_file = _verdict(*base, "--config", str(cfg))
    assert by_flags == by_file
    if bad:
        assert sorted(by_flags) == bad
    else:
        assert by_flags is None


#: A valid run config file, one key per line and one token per key and
#: per value.
RUN_CONFIG = json.dumps({
    "cuts": "500,1200,2500,4200,6000", "error_rates": "0.3,0.2,0.1,0.05,0.02",
    "predictor": "noisy-oracle", "k_cls": 5, "um_k": 3, "seed": 2,
    "seed_ref_fraction": 0.05, "no_update": False, "skip_unrefined": True,
    "mode": "sim", "tick_duration": 1e-5,
    "predict_fixed": 0.01, "coverage_grid": 8}, indent=0)

#: Tokens that a hand edit may leave in a config file, bare and as a value
#: followed by the comma that JSON needs between members.
CONFIG_TOKENS = tuple(token + comma for comma in ("", ",") for token in (
    "null", "true", "false", "0", "-1", "2.5", "1e308", "-1e308", "1e999",
    "NaN", "Infinity", '"x"', '""', '"0 0"', "[]", "{}", '"seeded-knn"',
    '"real"', '"none"', '"scan_inline":', '"ticks":', '"um_k":', '"config":',
    "}", "{"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_survives_any_single_line_config_mutation(prop_dir, data):
    """Drop, repeat or move one line of a valid config file, or replace or
    insert one token: run exits 2 writing nothing, on one config error line
    per problem or on argparse's usage error, or it reaches the stream
    read.  Never a traceback."""
    cfg = prop_dir / "mutated.json"
    cfg.write_text(mutate_one_line(data, RUN_CONFIG, CONFIG_TOKENS))
    out = prop_dir / "mutated-out"
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(cli, "scan", _reached)
        mp.setattr(cli, "read_stream", _reached)
        try:
            code = exit_code("run", "--stream", str(prop_dir / "stream.bin"),
                             "--config", str(cfg), "--out-dir", str(out))
        except Reached:
            return
    assert code == 2, err.getvalue()
    lines = err.getvalue().splitlines()
    assert lines and (all(line.startswith("config error: ") for line in lines)
                      or lines[-1].startswith("scalestream run: error: ")), lines
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (None, "no cfg.json under {dir}\n"),
    ("{not json", "{path} is not valid JSON: Expecting property name enclosed "
                  "in double quotes: line 1 column 2 (char 1)\n"),
    ("[]", "{path} does not hold a JSON object\n"),
    (b"\xff{}", "{path} is not valid JSON: "),
    ("[" * 100000 + "]" * 100000, "{path} is not valid JSON: "),
], ids=["missing", "not-json", "list", "not-utf8", "too-deep"])
def test_config_file_fault_is_one_line_naming_the_file(tmp_path, capsys, no_work,
                                                       text, message):
    """The reader that reads report's inputs reads the config file too; each
    of its faults is one exit-2 line that names the file."""
    cfg = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli("run", "--scan-inline", "--config", str(cfg),
                   "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --config: "
                          + message.format(dir=tmp_path, path=cfg))
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--scan-inline", "--config"], "--config"),
    (["scan", "--scene"], "--scene"),
], ids=["config", "scene"])
def test_directory_path_is_one_config_error_line(tmp_path, capsys, argv, flag):
    """A config file or scene path that names a directory exits 2 on one
    config error line that names the path, and writes nothing."""
    out = tmp_path / "out"
    assert run_cli(*argv, str(tmp_path), "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {flag}: {tmp_path} cannot be read: "
                   "Is a directory\n")
    assert not out.exists()


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tiks": 3000}))
    rc = run_cli("scan", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert rc == 2
    assert "tiks" in capsys.readouterr().err


def test_svgs_are_wellformed_xml(tmp_path):
    out = tmp_path / "run"
    run_and_report(*FAST, "--out-dir", str(out), "--seed", "8")
    for name in ("miou_vs_scale.svg", "timeline.svg"):
        root = ET.fromstring((out / name).read_text())
        assert root.tag.endswith("svg")
    svg = (out / "timeline.svg").read_text()
    assert 'id="latency-zone"' in svg
    assert 'id="baseline"' in svg
    svg = (out / "miou_vs_scale.svg").read_text()
    assert 'id="refined"' in svg and 'id="unrefined"' in svg


@pytest.mark.parametrize("key, value", [("overlap", "none"),
                                        ("no_fusion_dependency", True)])
def test_config_file_schedule_keys_are_unknown(tmp_path, capsys, no_work,
                                               key, value):
    """``mode`` alone sets the schedule."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--config", str(cfg), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"config error: unknown config keys: {key}\n"
    assert not out.exists()


def test_config_file_dotted_update_k_is_unknown(tmp_path, capsys):
    """Each setting has one spelling: ``update.k`` is not ``um_k``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"um_k": 3, "update.k": 7}))
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--config", str(cfg), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: update.k\n"
    assert not out.exists()


def test_corrupt_stream_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a stream at all")
    rc = run_cli("partition", "--stream", str(bad), "--out-dir", str(tmp_path))
    assert rc == 1
    assert "magic" in capsys.readouterr().err


def _nan_coordinate(data: bytearray, n: int) -> str:
    """Point 5's x coordinate set to NaN."""
    struct.pack_into("<f", data, len(data) - (n - 5) * RECORD_SIZE, float("nan"))
    return "non-finite coordinates at index 5"


def _twelve_classes(data: bytearray, n: int) -> str:
    """The header's class count set to 12 for the 11 class names."""
    struct.pack_into("<H", data, 6, 12)
    return "label map has 11 names for class_count 12"


@pytest.mark.parametrize("corrupt", [_nan_coordinate, _twelve_classes],
                         ids=["nan-coordinate", "class-count"])
def test_run_on_an_invalid_stream_file_exits_1(tmp_path, capsys, corrupt):
    """A stream file whose records or header break a stream's rules: run
    exits 1 naming the file and the fault, and writes nothing."""
    assert run_cli("scan", "--ticks", "2000", "--out-dir", str(tmp_path)) == 0
    path = tmp_path / "stream.bin"
    data = bytearray(path.read_bytes())
    message = corrupt(data, len(read_stream(path)))
    path.write_bytes(data)
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("run", "--stream", str(path), "--cuts", "1000 2000",
                   "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_run_no_update(tmp_path):
    out = tmp_path / "noup"
    run_and_report(*FAST, "--no-update", "--out-dir", str(out))
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["scale_miou_unrefined"] is None
    assert (out / "miou_vs_scale.svg").exists()


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    """Three runs through ``main`` in one process, the second without the
    update module, build no parser after the first call, and the first and
    third write byte-identical directories: nothing of one call's flags
    stays behind for the next."""
    assert run_cli("scan", "--ticks", "6000", "--out-dir", str(tmp_path / "scan")) == 0
    built = []
    add_scan_args = cli._add_scan_args
    monkeypatch.setattr(cli, "_add_scan_args",
                        lambda p: built.append(p) or add_scan_args(p))
    base = ["run", "--stream", str(tmp_path / "scan" / "stream.bin"),
            "--cuts", "500 1200 2500 4200 6000"]
    dirs = [tmp_path / name for name in ("first", "no-update", "third")]
    for out, flags in zip(dirs, ([], ["--no-update"], [])):
        assert run_cli(*base, *flags, "--out-dir", str(out)) == 0
    assert built == []
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[2].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[2] / name).read_bytes(), name
    manifests = [json.loads((d / "run_manifest.json").read_text()) for d in dirs]
    assert [m["config"]["no_update"] for m in manifests] == [False, True, False]


def test_empty_stream_exits_2(tmp_path, capsys):
    for command in ("run", "sweep"):
        rc = run_cli(command, "--scan-inline", "--dropout", "1.0",
                     "--ticks", "4096", "--cuts", "1000 4096",
                     "--out-dir", str(tmp_path / command))
        assert rc == 2
        assert "config error: stream has no points" in capsys.readouterr().err


def test_metrics_csv_quotes_class_names(tmp_path):
    """Class names that hold a comma, an LF or a double quote are quoted
    fields of ``metrics.csv``: every row reads back through ``csv.reader``
    as ``metric,scale,value``, each class under its own name."""
    names = ("a,b", "c\nd", 'e"f')
    rng = np.random.default_rng(0)
    stream = PointStream(rng.uniform(-1, 1, size=(200, 3)),
                         np.arange(200) % 3, np.sort(rng.integers(0, 65537, 200)),
                         3, LabelMap(names))
    write_stream(stream, tmp_path / "names.bin")
    out = tmp_path / "run"
    run_and_report("--stream", str(tmp_path / "names.bin"), "--out-dir", str(out))
    with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "scale", "value"]
    assert all(len(row) == 3 for row in rows), rows
    iou = {row[0]: row for row in rows if row[0].startswith("iou_")}
    assert sorted(iou) == sorted(f"iou_{name}" for name in names)
    per_class = json.loads((out / "metrics.json").read_text())["per_class_iou"]
    for name in names:
        assert iou[f"iou_{name}"][1:] == ["", repr(per_class[name])]


def test_empty_prefix_reports_null_miou(tmp_path, capsys):
    """Dropout leaves 51 points and scale 1 empty: that scale's mIoU is
    null, and the run and the report, its CSV and its plot, still complete."""
    out = tmp_path / "sparse"
    assert run_cli("run", "--scan-inline", "--dropout", "0.999",
                   "--out-dir", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("scale_miou", "scale_miou_unrefined"):
        assert metrics[key][0] is None
        assert all(0 <= m <= 1 for m in metrics[key][1:])
    capsys.readouterr()
    assert run_cli("report", "--run-dir", str(out)) == 0
    assert "mIoU@scale1: n/a" in capsys.readouterr().out
    rows = (out / "metrics.csv").read_text().splitlines()
    assert "miou,1," in rows and "miou_unrefined,1," in rows
    svg = (out / "miou_vs_scale.svg").read_text()
    assert svg.count('fill="#336699"/>') == 4  # no point for scale 1


def test_tiny_seeded_knn_references_warn(tmp_path, capsys):
    """A seed cloud or a scale context smaller than --k-cls is reported on
    stderr and in the run manifest, and the labels stay the pipeline's."""
    cases = [
        (["--dropout", "0.999"], "2000 6000 15000 35000 65536",
         ["the seed cloud holds 1 point(s), fewer than --k-cls 5",
          "scale 3 votes against a context of 2 point(s), fewer than --k-cls 5"]),
        (["--ticks", "6000"], "1 2 3 6000",
         [f"scale {i} votes against a context of {i} point(s), fewer than "
          f"--k-cls 5" for i in (2, 3, 4)]
         + [f"scale {i} ({n} points) is refined against scale {i + 1}, which "
            "holds only 1 point(s)" for i, n in ((1, 2), (2, 1))]),
    ]
    for n, (scan_flags, cuts, warnings) in enumerate(cases):
        scan_dir, out = tmp_path / f"scan{n}", tmp_path / f"run{n}"
        assert run_cli("scan", "--out-dir", str(scan_dir), *scan_flags) == 0
        capsys.readouterr()
        for command, out_dir in (("sweep", tmp_path / f"sweep{n}"),
                                 ("run", out)):
            assert run_cli(command, "--stream", str(scan_dir / "stream.bin"),
                           "--predictor", "seeded-knn", "--cuts", cuts,
                           "--out-dir", str(out_dir)) == 0
            err = capsys.readouterr().err
            assert err.splitlines() == [f"warning: {w}" for w in warnings]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["warnings"] == warnings

        stream = read_stream(scan_dir / "stream.bin")
        spec = PartitionSpec(tuple(int(c) for c in cuts.split()))
        cfg = PredictorConfig(variant="seeded-knn", seed_cloud=make_seed_cloud(
            stream, fraction=0.02, seed=0))
        outputs, _ = run_scalable(stream, spec, cfg, UpdateConfig(k=5),
                                  TimingModel())
        with np.load(out / "labels.npz", allow_pickle=False) as labels:
            assert labels.files == ["positions", "timestamps", "gt", *(
                f"pred_{o.scale}" for o in outputs)]
            for o in outputs:
                assert np.array_equal(labels[f"pred_{o.scale}"], o.pred_labels)


def test_tiny_upper_scale_warns(tmp_path, capsys):
    """A scale refined against a next scale under half its size is reported
    on stderr and in the run manifest; its labels stay what the cascade
    makes them.  Scales that grow or keep half their size give no
    warning."""
    out = tmp_path / "tiny"
    assert run_cli("run", "--scan-inline", "--ticks", "3020",
                   "--cuts", "3000 3020", "--error-rates", "0.3 0.2",
                   "--out-dir", str(out)) == 0
    warning = ("scale 1 (2439 points) is refined against scale 2, which "
               "holds only 12 point(s)")
    assert capsys.readouterr().err == f"warning: {warning}\n"
    assert json.loads((out / "run_manifest.json").read_text())["warnings"] == [
        warning]
    metrics = json.loads((out / "metrics.json").read_text())
    assert round(metrics["scale_miou"][-1], 4) == 0.0255
    assert round(metrics["scale_miou_unrefined"][-1], 4) == 0.3579

    # sweep warns alike; without the update module nothing is refined
    tiny = ["--scan-inline", "--ticks", "3020", "--cuts", "3000 3020",
            "--error-rates", "0.3 0.2", "--out-dir", str(tmp_path / "sweep")]
    assert run_cli("sweep", *tiny) == 0
    assert capsys.readouterr().err == f"warning: {warning}\n"
    assert run_cli("sweep", *tiny, "--no-update") == 0
    assert capsys.readouterr().err == ""

    # the quick-start stream: 1625/3254/1627/0/0 points, exactly half
    assert run_cli("sweep", "--scan-inline", "--ticks", "8000",
                   "--out-dir", str(tmp_path / "sweep")) == 0
    assert capsys.readouterr().err == ""

    # the default 1x scan's scales grow: 1625/3254/7323/16270/24843 points
    out = tmp_path / "default"
    assert run_cli("run", "--scan-inline", "--skip-unrefined",
                   "--out-dir", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert "warnings" not in json.loads(
        (out / "run_manifest.json").read_text())


@pytest.mark.parametrize("lower, upper, k, warns", [
    (44, 43, 5, False),  # one point of noise between uniform cuts
    (40, 19, 5, True),   # under half the lower scale's points
    (2, 3, 5, True),     # fewer points than a vote takes
], ids=["44-vs-43", "40-vs-19", "3-points-k5"])
def test_refine_warning_rule(capsys, lower, upper, k, warns):
    """A scale is flagged when its next scale holds fewer than ``--um-k``
    points or under half as many as it does, and not for a point or two of
    difference."""
    stream = PointStream(np.arange(3 * (lower + upper)).reshape(-1, 3),
                         np.zeros(lower + upper, np.int64),
                         [1] * lower + [2] * upper, 1)
    warnings = cli._run_warnings(stream, PartitionSpec((1, 2)),
                                 PredictorConfig(), UpdateConfig(k=k))
    want = [f"scale 1 ({lower} points) is refined against scale 2, which "
            f"holds only {upper} point(s)"] if warns else []
    assert warnings == want
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in want)
