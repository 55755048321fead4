import contextlib
import io
import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalestream.cli as cli
import scalestream.pipeline as pipeline
from conftest import make_counted_stream
from scalestream import (PartitionSpec, PredictorConfig, PredictorError,
                         Timeline, TimingModel, UpdateConfig, latency_metrics,
                         make_seed_cloud, read_stream, run_baseline,
                         run_scalable, write_stream)
from scalestream.plots import MARGIN_L, MARGIN_R, W


def run_cli(*argv):
    return cli.main(list(argv))


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
    assert (out / "timeline.json").exists()
    assert (out / "baseline_timeline.json").exists()
    for i in range(1, 6):
        assert (out / f"cumulative_scale_{i}.csv").exists()
    assert (out / "miou_vs_scale.svg").exists()
    assert (out / "timeline.svg").exists()


def test_run_sim_deterministic_byte_for_byte(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli("run", *FAST, "--mode", "sim", "--out-dir", str(out),
                       "--seed", "11") == 0
        outs.append(out)
    for fname in ("metrics.json", "timeline.json", "metrics.csv",
                  "miou_vs_scale.svg", "cumulative_scale_3.csv"):
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
])
def test_bad_flag_exits_2_before_any_scan_or_read(tmp_path, monkeypatch, capsys,
                                                  no_work, command, flag, value):
    """Each flag that a config object checks, on every command that takes
    it: the command exits 2 and names the flag before any scan or read."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stream.bin").write_bytes(b"")
    base = {"scan": [], "partition": ["--stream", "stream.bin"]}.get(
        command, [] if flag == "--stream" else ["--scan-inline"])
    assert run_cli(command, *base, flag, value, "--out-dir", "out") == 2
    assert f"config error: {flag}" in capsys.readouterr().err
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


def test_run_real_mode(tmp_path):
    out = tmp_path / "real"
    assert run_cli("run", *FAST, "--mode", "real", "--tick-duration", "1e-6",
                   "--out-dir", str(out), "--seed", "2") == 0
    metrics = json.loads((out / "metrics.json").read_text())
    lat = metrics["latency"]
    assert lat["post_acq"] > 0


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flags, flag", [
    (["--overlap", "none"], "--overlap"),
    (["--no-fusion-dependency"], "--no-fusion-dependency"),
])
def test_real_mode_refuses_simulated_schedule_flags(tmp_path, capsys, monkeypatch,
                                                    command, flags, flag):
    """Real mode measures its schedule, so a flag that shapes only the
    simulated one exits 2 naming it, before any scan."""
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
@pytest.mark.parametrize("overlap", ["full", "none"])
def test_sim_sweep_predicts_no_baseline_labels(tmp_path, predict_full_calls,
                                               predictor, overlap):
    assert run_cli("sweep", *FAST_SWEEP, "--predictor", predictor,
                   "--overlap", overlap, "--tick-durations", "1e-6 1e-4",
                   "--out-dir", str(tmp_path)) == 0
    assert predict_full_calls == []


def test_real_sweep_measures_each_baseline(tmp_path, predict_full_calls):
    assert run_cli("sweep", *FAST_SWEEP, "--mode", "real",
                   "--tick-durations", "1e-7 1e-6 1e-7",
                   "--out-dir", str(tmp_path)) == 0
    assert len(predict_full_calls) == 3
    assert len(set(predict_full_calls)) == 1


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
    """The plots that report draws equal the run's, byte for byte."""
    for mode in ("sim", "real"):
        out = tmp_path / mode
        assert run_cli("run", *FAST, "--mode", mode, "--out-dir", str(out),
                       "--seed", "6") == 0
        svgs = {}
        for name in ("miou_vs_scale.svg", "timeline.svg"):
            svgs[name] = (out / name).read_bytes()
            (out / name).unlink()
        capsys.readouterr()
        assert run_cli("report", "--run-dir", str(out)) == 0
        for name, data in svgs.items():
            assert (out / name).read_bytes() == data, (mode, name)
        assert "mIoU@scale5" in capsys.readouterr().out


def _drop_scale_done_2(run_dir):
    path = run_dir / "timeline.json"
    data = json.loads(path.read_text())
    data["events"] = [e for e in data["events"]
                      if (e["kind"], e["scale"]) != ("scale_done", 2)]
    path.write_text(json.dumps(data))
    return path


def _empty_baseline(run_dir):
    path = run_dir / "baseline_timeline.json"
    path.write_text(json.dumps({"events": []}))
    return path


def _negative_instant(run_dir):
    path = run_dir / "timeline.json"
    data = json.loads(path.read_text())
    data["events"][0]["instant"] = -1
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("break_timeline, message", [
    (_drop_scale_done_2, "incomplete timeline: timeline has no scale_done "
                         "event for scale 2"),
    (_empty_baseline, "incomplete timeline: timeline has no baseline_start "
                      "event for scale 0"),
    (_negative_instant, "negative instant for partition_ready(1): -1"),
], ids=["no-scale-done-2", "empty-baseline", "negative-instant"])
def test_report_malformed_timeline_names_the_file_and_writes_nothing(
        tmp_path, capsys, break_timeline, message):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    broken = break_timeline(out)
    (out / "miou_vs_scale.svg").unlink()
    capsys.readouterr()
    assert run_cli("report", "--run-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert str(broken) in err
    assert err.count("\n") == 1
    assert not (out / "miou_vs_scale.svg").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("run", [], "non-finite instant for scale_done(2): inf"),
    ("run", ["--no-fusion-dependency"],
     "latency post_acq_upper is not finite: inf"),
    ("sweep", ["--tick-durations", "1e-5"],
     "non-finite instant for scale_done(2): inf"),
], ids=["run", "run-no-fusion", "sweep"])
def test_timing_overflow_exits_1_writing_nothing(tmp_path, capsys, command,
                                                 flags, message):
    """Modelled instants past the largest float are an error naming the
    event or the field, not Infinity in the outputs."""
    out = tmp_path / "out"
    rc = run_cli(command, "--scan-inline", "--ticks", "2000",
                 "--cuts", "1000 2000", "--predict-fixed", "1e308", *flags,
                 "--out-dir", str(out))
    assert rc == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not out.exists()


def test_report_missing_dir_exits_2(tmp_path):
    assert run_cli("report", "--run-dir", str(tmp_path / "nope")) == 2


@pytest.mark.parametrize("name", ["timeline.json", "baseline_timeline.json"])
def test_report_missing_timeline_exits_2_writing_nothing(tmp_path, capsys, name):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    for svg in out.glob("*.svg"):
        svg.unlink()
    (out / name).unlink()
    capsys.readouterr()
    assert run_cli("report", "--run-dir", str(out)) == 2
    assert capsys.readouterr().err == f"config error: no {name} under {out}\n"
    assert not list(out.glob("*.svg"))


@pytest.mark.parametrize("field, value, message", [
    ("scale_miou", [7.5, -3, 0.5], "scale_miou holds 7.5, not an mIoU in [0, 1]"),
    ("scale_miou", [None, -3], "scale_miou holds -3.0, not an mIoU in [0, 1]"),
    ("scale_miou_unrefined", [0.5, float("nan")],
     "scale_miou_unrefined holds nan, not an mIoU in [0, 1]"),
    ("baseline_miou", float("nan"), "baseline_miou holds nan, not an mIoU in [0, 1]"),
    ("baseline_miou", 1.5, "baseline_miou holds 1.5, not an mIoU in [0, 1]"),
    ("cost_of_scalability_pct", float("inf"),
     "cost_of_scalability_pct is not finite: inf"),
    ("latency", {"speedup": float("-inf")}, "latency.speedup is not finite: -inf"),
], ids=["miou-above-1", "miou-below-0", "unrefined-nan", "baseline-nan",
        "baseline-above-1", "cost-inf", "speedup-inf"])
def test_report_refuses_impossible_metrics(tmp_path, capsys, field, value, message):
    """An mIoU outside [0, 1] or a non-finite figure exits 1 naming the file
    and the field, and no plot is written."""
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out)) == 0
    for svg in out.glob("*.svg"):
        svg.unlink()
    path = out / "metrics.json"
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("report", "--run-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not list(out.glob("*.svg"))


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
])
def test_report_wrongly_typed_field_exits_1(tmp_path, capsys, name, field, value):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    capsys.readouterr()
    path = out / name
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    assert run_cli("report", "--run-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} holds a wrongly typed ")
    assert err.count("\n") == 1


def test_report_refuses_non_integer_event_values(tmp_path, capsys):
    """A scale or arrival that is not a JSON integer, or an instant that is
    a bool, is refused naming the file, not coerced or left to crash."""
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--skip-unrefined") == 0
    for svg in out.glob("*.svg"):
        svg.unlink()
    path = out / "timeline.json"
    good = json.loads(path.read_text())
    refine = next(i for i, e in enumerate(good["events"]) if "arrival" in e)
    for index, key, value in [(0, "scale", float("inf")), (0, "scale", 1.5),
                              (0, "scale", True), (0, "scale", "1"),
                              (0, "instant", True), (refine, "arrival", 1.5),
                              (refine, "arrival", True),
                              (refine, "arrival", float("inf"))]:
        data = json.loads(json.dumps(good))
        data["events"][index][key] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_cli("report", "--run-dir", str(out)) == 1, (key, value)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} holds a wrongly typed event: ")
        assert err.count("\n") == 1
        assert not list(out.glob("*.svg"))


def test_fusion_off_refine_bar_spans_its_duration(tmp_path):
    """Without the fusion dependency scale 2 is predicted long before scale
    1's output is available; its cascade waits for that output, and its
    refine bar covers only the refine itself."""
    out = tmp_path / "run"
    assert run_cli("run", "--scan-inline", "--ticks", "3020",
                   "--cuts", "3000 3020", "--error-rates", "0.3 0.2",
                   "--no-fusion-dependency", "--out-dir", str(out)) == 0
    tl = Timeline.from_dict(json.loads((out / "timeline.json").read_text()))
    base = Timeline.from_dict(
        json.loads((out / "baseline_timeline.json").read_text()))
    lat = latency_metrics(tl, base)
    assert tl.instant("scale_done", 2) < tl.instant("cumulative_available", 1)
    t_max = max(lat.acquisition_end + lat.post_acq_upper,
                base.instant("baseline_done"))
    px_per_s = (W - MARGIN_L - MARGIN_R) / t_max
    root = ET.fromstring((out / "timeline.svg").read_text())
    row = next(g for g in root.iter("{http://www.w3.org/2000/svg}g")
               if g.get("id") == "scale-2")
    bars = [r for r in row if r.get("fill") == "#66aa66"]
    assert len(bars) == 1
    x, width = float(bars[0].get("x")), float(bars[0].get("width"))
    assert abs(width - lat.refine_total * px_per_s) <= 0.02
    start = tl.instant("cumulative_available", 1)
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
    _, subparsers = cli.build_parser()
    manifests = {}
    for name, argv in (("scan", ["scan", "--ticks", "2000"]),
                       ("run", ["run", *FAST]),
                       ("skip", ["run", *FAST, "--skip-unrefined"])):
        out = tmp_path / name
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        manifests[name] = json.loads(
            (out / f"{argv[0]}_manifest.json").read_text())
    for command in ("scan", "run"):
        dests = {a.dest for a in subparsers[command]._actions} - {
            "help", "config", "out_dir"}
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


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tiks": 3000}))
    rc = run_cli("scan", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert rc == 2
    assert "tiks" in capsys.readouterr().err


def test_svgs_are_wellformed_xml(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--seed", "8") == 0
    for name in ("miou_vs_scale.svg", "timeline.svg"):
        root = ET.fromstring((out / name).read_text())
        assert root.tag.endswith("svg")
    svg = (out / "timeline.svg").read_text()
    assert 'id="latency-zone"' in svg
    assert 'id="baseline"' in svg
    svg = (out / "miou_vs_scale.svg").read_text()
    assert 'id="refined"' in svg and 'id="unrefined"' in svg


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


def test_run_no_update(tmp_path):
    out = tmp_path / "noup"
    assert run_cli("run", *FAST, "--no-update", "--out-dir", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["scale_miou_unrefined"] is None
    assert (out / "miou_vs_scale.svg").exists()


def test_empty_stream_exits_2(tmp_path, capsys):
    for command in ("run", "sweep"):
        rc = run_cli(command, "--scan-inline", "--dropout", "1.0",
                     "--ticks", "4096", "--cuts", "1000 4096",
                     "--out-dir", str(tmp_path / command))
        assert rc == 2
        assert "config error: stream has no points" in capsys.readouterr().err


def test_empty_prefix_reports_null_miou(tmp_path, capsys):
    """Dropout leaves 51 points and scale 1 empty: that scale's mIoU is
    null, and the run, its CSV, its plot and the report still complete."""
    out = tmp_path / "sparse"
    assert run_cli("run", "--scan-inline", "--dropout", "0.999",
                   "--out-dir", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("scale_miou", "scale_miou_unrefined"):
        assert metrics[key][0] is None
        assert all(0 <= m <= 1 for m in metrics[key][1:])
    rows = (out / "metrics.csv").read_text().splitlines()
    assert "miou,1," in rows and "miou_unrefined,1," in rows
    svg = (out / "miou_vs_scale.svg").read_text()
    assert svg.count('fill="#336699"/>') == 4  # no point for scale 1
    capsys.readouterr()
    assert run_cli("report", "--run-dir", str(out)) == 0
    assert "mIoU@scale1: n/a" in capsys.readouterr().out


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
         + ["scale 1 (2 points) is refined against scale 2, which holds "
            "only 1 point(s)"]),
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
        for o in outputs:
            csv = (out / f"cumulative_scale_{o.scale}.csv").read_text()
            pred = [int(row.split(",")[5]) for row in csv.splitlines()[1:]]
            assert np.array_equal(pred, o.pred_labels)


def test_tiny_upper_scale_warns(tmp_path, capsys):
    """A scale refined against a smaller next scale is reported on stderr
    and in the run manifest; its labels stay what the cascade makes them.
    Scales that grow give no warning."""
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

    # the quick-start stream: 1625/3254/1627/0/0 points, one warning
    assert run_cli("sweep", "--scan-inline", "--ticks", "8000",
                   "--out-dir", str(tmp_path / "sweep")) == 0
    assert capsys.readouterr().err == (
        "warning: scale 2 (3254 points) is refined against scale 3, which "
        "holds only 1627 point(s)\n")
    # without the update module nothing is refined
    assert run_cli("sweep", "--scan-inline", "--ticks", "8000", "--no-update",
                   "--out-dir", str(tmp_path / "sweep")) == 0
    assert capsys.readouterr().err == ""

    # the default 1x scan's scales grow: 1625/3254/7323/16270/24843 points
    out = tmp_path / "default"
    assert run_cli("run", "--scan-inline", "--skip-unrefined",
                   "--out-dir", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert "warnings" not in json.loads(
        (out / "run_manifest.json").read_text())
