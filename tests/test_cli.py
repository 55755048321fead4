import json
import xml.etree.ElementTree as ET

import numpy as np

import scalestream.cli as cli
import scalestream.pipeline as pipeline
from scalestream import (PartitionSpec, PredictorConfig, Timeline, TimingModel,
                         UpdateConfig, latency_metrics, make_seed_cloud,
                         read_stream, run_scalable)
from scalestream.plots import MARGIN_L, MARGIN_R, W


def run_cli(*argv):
    return cli.main(list(argv))


# fast pipeline flags reused by most run/sweep tests
FAST = ["--scan-inline", "--ticks", "6000",
        "--cuts", "500 1200 2500 4200 6000",
        "--tick-duration", "1e-5"]


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
                 "--tick-duration", "-1", "--out-dir", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "--um-k" in err and "--k-cls" in err and "--tick-duration" in err


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
    assert run_cli("sweep", *FAST, "--tick-durations", "1e-6 1e-4 1e-2",
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
    assert run_cli("sweep", *FAST, "--tick-durations", "1e-5 1e-3",
                   "--out-dir", str(out)) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def test_sweep_empty_range_exits_2(tmp_path, capsys):
    rc = run_cli("sweep", *FAST, "--tick-durations", "",
                 "--out-dir", str(tmp_path))
    assert rc == 2


def test_report_regenerates_plots(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--out-dir", str(out), "--seed", "6") == 0
    (out / "miou_vs_scale.svg").unlink()
    (out / "timeline.svg").unlink()
    assert run_cli("report", "--run-dir", str(out)) == 0
    assert (out / "miou_vs_scale.svg").exists()
    assert (out / "timeline.svg").exists()
    assert "mIoU@scale5" in capsys.readouterr().out


def test_report_missing_dir_exits_2(tmp_path):
    assert run_cli("report", "--run-dir", str(tmp_path / "nope")) == 2


def test_report_partial_metrics_exits_1(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"baseline_miou": 0.5,
                                   "cost_of_scalability_pct": 0.0}))
    assert run_cli("report", "--run-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        f"error: {metrics} lacks the key 'scale_miou'\n")


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


def test_config_file_update_k_alias(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"update.k": 7}))
    out = tmp_path / "run"
    assert run_cli("run", *FAST, "--config", str(cfg), "--out-dir", str(out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["um_k"] == 7


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
          f"--k-cls 5" for i in (2, 3, 4)]),
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
            stream.positions, stream.labels, fraction=0.02, seed=0))
        outputs, _ = run_scalable(stream, spec, cfg, UpdateConfig(k=5),
                                  TimingModel())
        for o in outputs:
            csv = (out / f"cumulative_scale_{o.scale}.csv").read_text()
            pred = [int(row.split(",")[5]) for row in csv.splitlines()[1:]]
            assert np.array_equal(pred, o.pred_labels)
