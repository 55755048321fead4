"""Command-line interface: scan, partition, run, sweep, report.

Every command is deterministic given ``--seed``; manifests embed a hash of
the exact configuration so any output file can be traced back to its inputs.
Flags can also be supplied through ``--config FILE`` (a JSON object keyed by
flag destination names); explicit flags win over config-file values.

Exit codes: 0 success, 2 usage/configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .assemble import cumulative_csv, row_heads
from .metrics import (MetricsReport, cost_of_scalability, coverage_curve,
                      miou, miou_by_origin)
from .partition import DEFAULT_CUTS, PartitionError, PartitionSpec, partition
from .pipeline import (PipelineError, TimingModel, Timeline, latency_metrics,
                       run_baseline, run_scalable)
from .plots import miou_plot, timeline_plot
from .predictors import (DEFAULT_ERROR_RATES, PredictorConfig, PredictorError,
                         make_seed_cloud)
from .scanner import (DEFAULT_TICKS_PER_PERIOD, LissajousConfig, place_cameras,
                      scan)
from .scene import SceneError, default_room, load_scene
from .stream import PointStream, read_stream, write_stream
from .update import UpdateConfig, UpdateError


#: Flag destinations that define a scan, in manifest order.
_SCAN_KEYS = ("scene", "room", "ticks", "ticks_per_period", "fx", "fy", "phase",
              "amp_x", "amp_y", "dropout", "max_poses", "camera_index", "seed")
#: Additional destinations that define a pipeline run.
_RUN_KEYS = _SCAN_KEYS + (
    "stream", "scan_inline", "cuts", "predictor", "error_rates", "k_cls",
    "seed_ref_fraction", "um_k", "no_update", "tick_duration", "mode",
    "overlap", "no_fusion_dependency", "predict_fixed", "predict_per_point",
    "baseline_factor", "refine_fixed", "refine_per_point", "coverage_grid")


def config_hash(config: dict) -> str:
    """Hash of a command's flat flag record, so that outputs are traceable
    to their exact inputs."""
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults for any flag (by dest name)")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--out-dir", type=str, default="out", help="output directory")


def _add_scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", type=str, default="builtin",
                   help="scene file path, or 'builtin' for the default room")
    p.add_argument("--room", type=str, default="4 4 3",
                   help="builtin room width depth height (m)")
    p.add_argument("--ticks", type=int, default=65536)
    p.add_argument("--ticks-per-period", type=float, default=DEFAULT_TICKS_PER_PERIOD)
    p.add_argument("--fx", type=float, default=1.1)
    p.add_argument("--fy", type=float, default=1.8)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--amp-x", type=float, default=0.6)
    p.add_argument("--amp-y", type=float, default=0.6)
    p.add_argument("--dropout", type=float, default=0.0,
                   help="per-tick miss probability")
    p.add_argument("--max-poses", type=int, default=50)
    p.add_argument("--camera-index", type=int, default=0,
                   help="which sampled camera pose to scan from")


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cuts", type=str, default=" ".join(map(str, DEFAULT_CUTS)),
                   help="partition cut timestamps")
    p.add_argument("--predictor", type=str, default="noisy-oracle",
                   choices=["noisy-oracle", "seeded-knn"])
    p.add_argument("--error-rates", type=str,
                   default=" ".join(map(str, DEFAULT_ERROR_RATES)),
                   help="noisy-oracle per-scale error probabilities")
    p.add_argument("--k-cls", type=int, default=5,
                   help="seeded-knn classifier neighbor count")
    p.add_argument("--seed-ref-fraction", type=float, default=0.02,
                   help="fraction of the cloud sampled as the seeded-knn reference")
    p.add_argument("--um-k", type=int, default=5,
                   help="update-module voting neighbor count")
    p.add_argument("--no-update", action="store_true",
                   help="disable the refinement cascade")
    p.add_argument("--tick-duration", type=float, default=1e-5,
                   help="acquisition seconds per tick")
    p.add_argument("--mode", type=str, default="sim", choices=["sim", "real"])
    p.add_argument("--overlap", type=str, default="full", choices=["full", "none"],
                   help="simulated scheduling policy (sim mode)")
    p.add_argument("--no-fusion-dependency", action="store_true",
                   help="sim schedule: let scale i start before i-1 is published")
    p.add_argument("--predict-fixed", type=float, default=0.005)
    p.add_argument("--predict-per-point", type=float, default=1e-5)
    p.add_argument("--baseline-factor", type=float, default=2.0,
                   help="baseline per-point cost multiplier vs a scale branch")
    p.add_argument("--refine-fixed", type=float, default=0.001)
    p.add_argument("--refine-per-point", type=float, default=2e-7)
    p.add_argument("--skip-unrefined", action="store_true",
                   help="skip the no-update comparison run")
    p.add_argument("--coverage-grid", type=int, default=16)


class ConfigError(ValueError):
    pass


#: Dotted config-file spellings accepted alongside flag destination names.
CONFIG_ALIASES = {"update.k": "um_k"}


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="scalestream",
        description="Resolution-scalable point-stream scanning, processing "
                    "and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="scan a scene into a stream file")
    _add_common(p_scan)
    _add_scan_args(p_scan)

    p_part = sub.add_parser("partition", help="split a stream into scales")
    _add_common(p_part)
    p_part.add_argument("--stream", type=str, required=True)
    p_part.add_argument("--cuts", type=str,
                        default=" ".join(map(str, DEFAULT_CUTS)))

    p_run = sub.add_parser("run", help="scalable + baseline pipeline runs")
    _add_common(p_run)
    p_run.add_argument("--stream", type=str, default=None,
                       help="input stream file (or use --scan-inline)")
    p_run.add_argument("--scan-inline", action="store_true",
                       help="scan the scene in-process instead of reading a file")
    _add_scan_args(p_run)
    _add_pipeline_args(p_run)

    p_sweep = sub.add_parser("sweep", help="trace latency across acquisition speeds")
    _add_common(p_sweep)
    p_sweep.add_argument("--stream", type=str, default=None)
    p_sweep.add_argument("--scan-inline", action="store_true")
    p_sweep.add_argument("--tick-durations", type=str,
                         default="1e-6 3e-6 1e-5 3e-5 1e-4",
                         help="tick durations to sweep (seconds)")
    _add_scan_args(p_sweep)
    _add_pipeline_args(p_sweep)

    p_rep = sub.add_parser("report", help="re-render plots and a summary from a run directory")
    p_rep.add_argument("--run-dir", type=str, required=True)
    subparsers = {"scan": p_scan, "partition": p_part, "run": p_run,
                  "sweep": p_sweep, "report": p_rep}
    return parser, subparsers


def _apply_config_file(subparsers: dict, argv: list[str]) -> None:
    """Pre-scan for --config and install its values as parser defaults."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=str, default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return
    path = Path(known.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        values = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    values = {CONFIG_ALIASES.get(k, k): v for k, v in values.items()}
    known_keys = set()
    for sp in subparsers.values():
        valid = {a.dest for a in sp._actions}
        known_keys |= valid
        sp.set_defaults(**{k: v for k, v in values.items() if k in valid})
    unknown = sorted(set(values) - known_keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _validate_pipeline_args(args) -> list[str]:
    """Collect every configuration problem instead of stopping at the first."""
    errors = []
    if args.seed < 0:
        errors.append(f"--seed must be non-negative, got {args.seed}")
    try:
        cuts = _parse_ints(args.cuts)
        if any(b <= a for a, b in zip(cuts, cuts[1:])) or not cuts:
            errors.append(f"--cuts must be strictly increasing, got {args.cuts!r}")
    except ValueError:
        errors.append(f"--cuts must be integers, got {args.cuts!r}")
        cuts = ()
    try:
        rates = _parse_floats(args.error_rates)
        if any(not 0 <= r <= 1 for r in rates):
            errors.append(f"--error-rates must be probabilities, got {args.error_rates!r}")
        if args.predictor == "noisy-oracle" and cuts and len(rates) < len(cuts):
            errors.append(f"--error-rates supplies {len(rates)} rates for "
                          f"{len(cuts)} scales")
    except ValueError:
        errors.append(f"--error-rates must be numbers, got {args.error_rates!r}")
    if args.um_k < 1:
        errors.append(f"--um-k must be >= 1, got {args.um_k}")
    if args.k_cls < 1:
        errors.append(f"--k-cls must be >= 1, got {args.k_cls}")
    if not 0 < args.seed_ref_fraction <= 1:
        errors.append(f"--seed-ref-fraction must be in (0, 1], got {args.seed_ref_fraction}")
    if args.tick_duration <= 0:
        errors.append(f"--tick-duration must be positive, got {args.tick_duration}")
    if not 0 <= args.dropout <= 1:
        errors.append(f"--dropout must be a probability, got {args.dropout}")
    if args.coverage_grid < 1:
        errors.append(f"--coverage-grid must be >= 1, got {args.coverage_grid}")
    if args.predictor == "seeded-knn" and args.no_fusion_dependency:
        errors.append("--no-fusion-dependency cannot be combined with the "
                      "seeded-knn predictor (it consumes previous-scale context)")
    return errors


def _build_scene(args):
    if args.scene == "builtin":
        w, d, h = _parse_floats(args.room)
        return default_room(w, d, h)
    path = Path(args.scene)
    if not path.exists():
        raise ConfigError(f"scene file not found: {path}")
    return load_scene(path)


def _scan_config(args) -> LissajousConfig:
    return LissajousConfig(fx=args.fx, fy=args.fy, phase=args.phase,
                           amp_x=args.amp_x, amp_y=args.amp_y,
                           ticks=args.ticks,
                           ticks_per_period=args.ticks_per_period)


def _do_scan(args) -> PointStream:
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    scene = _build_scene(args)
    cfg = _scan_config(args)
    poses = place_cameras(scene, max_poses=args.max_poses, seed=args.seed)
    if not 0 <= args.camera_index < len(poses):
        raise ConfigError(f"--camera-index {args.camera_index} outside the "
                          f"{len(poses)} sampled poses")
    return scan(scene, poses[args.camera_index], cfg,
                dropout=args.dropout, seed=args.seed)


def cmd_scan(args) -> int:
    stream = _do_scan(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stream_path = out / "stream.bin"
    n_bytes = write_stream(stream, stream_path)
    cfg = {k: getattr(args, k) for k in _SCAN_KEYS}
    _write_json(out / "scan_manifest.json", {
        "command": "scan",
        "config": cfg,
        "config_hash": config_hash(cfg),
        "stream": stream_path.name,
        "points": len(stream),
        "bytes": n_bytes,
        "max_timestamp": stream.max_timestamp,
    })
    print(f"scanned {len(stream)} points over {args.ticks} ticks "
          f"-> {stream_path}")
    return 0


def cmd_partition(args) -> int:
    stream = read_stream(args.stream)
    spec = PartitionSpec(_parse_ints(args.cuts))
    parts = partition(stream, spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "cuts": list(spec.cuts),
        "total": len(stream),
        "scales": [{"scale": p.scale, "interval": list(p.interval),
                    "count": p.count} for p in parts],
    }
    _write_json(out / "partitions.json", summary)
    for p in parts:
        print(f"scale {p.scale}: ({p.interval[0]}, {p.interval[1]}] "
              f"-> {p.count} points")
    return 0


def _load_or_scan(args) -> PointStream:
    if args.scan_inline:
        stream = _do_scan(args)
    else:
        if args.stream is None:
            raise ConfigError("either --stream or --scan-inline is required")
        path = Path(args.stream)
        if not path.exists():
            raise ConfigError(f"stream file not found: {path}")
        stream = read_stream(path)
    if len(stream) == 0:
        raise ConfigError("stream has no points")
    return stream


def _build_run_pieces(args, stream: PointStream):
    spec = PartitionSpec(_parse_ints(args.cuts))
    rates = _parse_floats(args.error_rates)
    seed_cloud = None
    if args.predictor == "seeded-knn":
        seed_cloud = make_seed_cloud(stream.positions, stream.labels,
                                     fraction=args.seed_ref_fraction,
                                     seed=args.seed)
    predictor_cfg = PredictorConfig(variant=args.predictor, error_rates=rates,
                                    k_cls=args.k_cls, seed=args.seed,
                                    seed_cloud=seed_cloud)
    update_cfg = None if args.no_update else UpdateConfig(k=args.um_k)
    timing = TimingModel(
        tick_duration=args.tick_duration,
        predict_fixed=args.predict_fixed,
        predict_per_point=args.predict_per_point,
        baseline_factor=args.baseline_factor,
        refine_fixed=args.refine_fixed,
        refine_per_point=args.refine_per_point,
        overlap="measured" if args.mode == "real" else args.overlap,
        fusion_dependency=not args.no_fusion_dependency,
    )
    return spec, predictor_cfg, update_cfg, timing


def _reference_warnings(stream: PointStream, spec: PartitionSpec,
                        predictor_cfg: PredictorConfig) -> list[str]:
    """Where seeded-knn votes against fewer than ``--k-cls`` points.

    Scale 1, a scale after an empty prefix and the baseline vote against
    the seed cloud; every other scale votes against the points of the
    scales before it.  Each warning is printed on stderr.
    """
    if predictor_cfg.seed_cloud is None:
        return []
    k = predictor_cfg.k_cls
    warnings = []
    if len(predictor_cfg.seed_cloud) < k:
        warnings.append(f"the seed cloud holds {len(predictor_cfg.seed_cloud)} "
                        f"point(s), fewer than --k-cls {k}")
    context = 0
    for part in partition(stream, spec):
        if 0 < context < k and part.count:
            warnings.append(f"scale {part.scale} votes against a context of "
                            f"{context} point(s), fewer than --k-cls {k}")
        context += part.count
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return warnings


def _scale_miou(output) -> float | None:
    """mIoU of a cumulative output, or None when its prefix is empty."""
    return miou(output)[1] if len(output) else None


def cmd_run(args) -> int:
    problems = _validate_pipeline_args(args)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    stream = _load_or_scan(args)
    spec, predictor_cfg, update_cfg, timing = _build_run_pieces(args, stream)
    warnings = _reference_warnings(stream, spec, predictor_cfg)

    outputs, timeline = run_scalable(stream, spec, predictor_cfg, update_cfg, timing)
    base_out, base_tl = run_baseline(stream, predictor_cfg, timing)
    lat = latency_metrics(timeline, base_tl)

    unrefined_miou = None
    if not args.skip_unrefined and update_cfg is not None:
        # labels do not depend on timing and this timeline is dropped, so
        # simulate it rather than sleep through the acquisition again
        raw_outputs, _ = run_scalable(stream, spec, predictor_cfg, None,
                                      replace(timing, overlap="full"))
        unrefined_miou = [_scale_miou(o) for o in raw_outputs]

    scale_mious = [_scale_miou(o) for o in outputs]
    final = outputs[-1]
    class_iou, _final_miou = miou(final)
    names = (stream.label_map.names if stream.label_map is not None
             else tuple(f"class_{c}" for c in range(stream.class_count)))
    per_class = {names[c]: float(class_iou[c])
                 for c in range(stream.class_count) if not np.isnan(class_iou[c])}
    base_miou = miou(base_out)[1]

    curve = []
    if "camera_position" in stream.meta:
        curve = coverage_curve(stream, spec.cuts, args.coverage_grid)

    report = MetricsReport(
        scale_miou=scale_mious,
        scale_miou_unrefined=unrefined_miou,
        origin_miou=miou_by_origin(final),
        per_class_iou=per_class,
        baseline_miou=base_miou,
        cost_of_scalability_pct=cost_of_scalability(base_miou, scale_mious[-1]),
        latency=asdict(lat),
        coverage_curve=curve,
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = {k: getattr(args, k) for k in _RUN_KEYS}
    manifest = {"command": "run", "config": cfg,
                "config_hash": config_hash(cfg), "points": len(stream)}
    if warnings:
        manifest["warnings"] = warnings
    _write_json(out / "run_manifest.json", manifest)
    _write_json(out / "metrics.json", report.to_dict())
    (out / "metrics.csv").write_text(report.to_csv(), encoding="utf-8")
    _write_json(out / "timeline.json", timeline.to_dict())
    _write_json(out / "baseline_timeline.json", base_tl.to_dict())
    heads = row_heads(final)
    for o in outputs:
        (out / f"cumulative_scale_{o.scale}.csv").write_text(
            cumulative_csv(o, heads), encoding="utf-8")
    (out / "miou_vs_scale.svg").write_text(miou_plot(report), encoding="utf-8")
    (out / "timeline.svg").write_text(timeline_plot(timeline, base_tl, lat),
                                      encoding="utf-8")

    print(f"final mIoU {scale_mious[-1]:.4f} vs baseline {base_miou:.4f} "
          f"(cost of scalability {report.cost_of_scalability_pct:+.2f} pp)")
    print(f"speedup {lat.speedup:.1%}, first prediction at "
          f"{lat.first_prediction_fraction:.1%} of baseline inference")
    return 0


def cmd_sweep(args) -> int:
    problems = _validate_pipeline_args(args)
    try:
        durations = _parse_floats(args.tick_durations)
        if not durations:
            problems.append("--tick-durations must list at least one value")
        elif any(d <= 0 for d in durations):
            problems.append("--tick-durations must be positive")
    except ValueError:
        problems.append(f"--tick-durations must be numbers, got {args.tick_durations!r}")
        durations = ()
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2

    stream = _load_or_scan(args)
    spec, predictor_cfg, update_cfg, timing = _build_run_pieces(args, stream)
    _reference_warnings(stream, spec, predictor_cfg)
    rows = []
    for td in durations:
        td_timing = replace(timing, tick_duration=td)
        _, timeline = run_scalable(stream, spec, predictor_cfg, update_cfg, td_timing)
        _, base_tl = run_baseline(stream, predictor_cfg, td_timing)
        rows.append((td, latency_metrics(timeline, base_tl)))

    if timing.overlap == "full":
        ordered = sorted(rows, key=lambda r: r[0])
        post = [lat.post_acq for _, lat in ordered]
        if any(b > a + 1e-12 for a, b in zip(post, post[1:])):
            raise PipelineError(
                "post-acquisition latency increased with slower acquisition "
                "under full overlap; timing model is inconsistent")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["tick_duration,acquisition_end,post_acq,post_acq_lower,"
             "post_acq_upper,speedup,first_prediction_fraction"]
    for td, lat in rows:
        lines.append(f"{td!r},{lat.acquisition_end!r},{lat.post_acq!r},"
                     f"{lat.post_acq_lower!r},{lat.post_acq_upper!r},"
                     f"{lat.speedup!r},{lat.first_prediction_fraction!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    metrics_path = run_dir / "metrics.json"
    if not metrics_path.exists():
        raise ConfigError(f"no metrics.json under {run_dir}")
    data = json.loads(metrics_path.read_text(encoding="utf-8"))
    try:
        report = MetricsReport(
            scale_miou=data["scale_miou"],
            scale_miou_unrefined=data.get("scale_miou_unrefined"),
            origin_miou={int(k): v for k, v in data.get("origin_miou", {}).items()},
            per_class_iou=data.get("per_class_iou", {}),
            baseline_miou=data["baseline_miou"],
            cost_of_scalability_pct=data["cost_of_scalability_pct"],
            latency=data.get("latency", {}),
            coverage_curve=[tuple(x) for x in data.get("coverage_curve", [])],
        )
    except KeyError as exc:
        raise ValueError(f"{metrics_path} lacks the key {exc}") from None
    (run_dir / "miou_vs_scale.svg").write_text(miou_plot(report), encoding="utf-8")
    tl_path = run_dir / "timeline.json"
    base_path = run_dir / "baseline_timeline.json"
    if tl_path.exists() and base_path.exists():
        tl = Timeline.from_dict(json.loads(tl_path.read_text(encoding="utf-8")))
        base_tl = Timeline.from_dict(json.loads(base_path.read_text(encoding="utf-8")))
        lat = latency_metrics(tl, base_tl)
        (run_dir / "timeline.svg").write_text(timeline_plot(tl, base_tl, lat),
                                              encoding="utf-8")
    print(f"scales: {len(report.scale_miou)}")
    for i, v in enumerate(report.scale_miou, start=1):
        print(f"  mIoU@scale{i}: {'n/a' if v is None else f'{v:.4f}'}")
    print(f"baseline mIoU: {report.baseline_miou:.4f}")
    print(f"cost of scalability: {report.cost_of_scalability_pct:+.2f} pp")
    if report.latency:
        print(f"speedup: {report.latency.get('speedup', float('nan')):.1%}")
    return 0


COMMANDS = {
    "scan": cmd_scan,
    "partition": cmd_partition,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        _apply_config_file(subparsers, argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, SceneError, PartitionError, PredictorError,
            UpdateError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
