"""Command-line interface: scan, partition, run, sweep, report.

Every command is deterministic given ``--seed``; manifests embed a hash of
the exact configuration so any output file can be traced back to its inputs.
Flags can also be supplied through ``--config FILE`` (a JSON object keyed by
flag destination names); explicit flags win over config-file values.

Exit codes: 0 success, 2 usage/configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .assemble import cumulative_csv, read_labels, row_heads, write_labels
from .metrics import (cost_of_scalability, coverage_curve, metrics_csv, miou,
                      miou_by_origin)
from .partition import DEFAULT_CUTS, PartitionError, PartitionSpec, partition
from .pipeline import (MODES, PipelineError, TimingModel, Timeline, _checked,
                       _is_number, _json_list, baseline_timeline, latency_metrics,
                       one_label_pass, run_baseline, run_scalable)
from .plots import miou_plot, timeline_plot
from .predictors import (DEFAULT_ERROR_RATES, VARIANTS, PredictorConfig,
                         make_seed_cloud)
from .scanner import LissajousConfig, place_cameras, scan
from .scene import SceneError, default_room, load_scene
from .stream import PointStream, read_stream, write_stream
from .update import UpdateConfig


def _scans(args: argparse.Namespace) -> bool:
    """Whether the command scans a scene, and so reads the scan flags."""
    return args.command == "scan" or getattr(args, "scan_inline", False)


def _manifest_config(args: argparse.Namespace) -> dict:
    """Every flag destination of a command that it reads, except
    ``--config`` and ``--out-dir``, which say where values come from and
    outputs go but not what the command computes.  A command that reads a
    stream file instead of scanning leaves out the scan flags, and each
    predictor the other predictor's flags."""
    skip = {"command", "config", "out_dir"}
    if not _scans(args):
        skip |= build_parser()[2]  # the scan flags' destinations
    if "predictor" in args:
        skip |= ({"error_rates"} if args.predictor == "seeded-knn"
                 else {"k_cls", "seed_ref_fraction"})
    return {k: v for k, v in vars(args).items() if k not in skip}


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


def _parse_room(text: str) -> tuple[float, float, float]:
    room = _parse_floats(text)
    if len(room) != 3 or not all(map(math.isfinite, room)):
        raise ValueError(f"need three finite sizes (width depth height), "
                         f"got {text!r}")
    return room


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults for any flag (by dest name)")
    p.add_argument("--out-dir", type=str, default="out", help="output directory")


#: Flags that set the same-named field of a config class.  Each tuple
#: declares its flags, with the field's type and default, checks them and
#: builds the object.
SCAN_FLAGS = ("fx", "fy", "phase", "amp_x", "amp_y", "ticks", "ticks_per_period")
TIMING_FLAGS = ("tick_duration", "predict_fixed", "predict_per_point",
                "baseline_factor", "refine_fixed", "refine_per_point")
#: ``timeline.json``'s keys of the baseline's ``(start, done)`` instants.
BASELINE_KEYS = ("baseline_start", "baseline_done")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_field_flags(p: argparse.ArgumentParser, cls, names: tuple,
                     **helps) -> None:
    for name in names:
        default = getattr(cls, name)
        p.add_argument(_flag(name), type=type(default), default=default,
                       help=helps.get(name))


def _add_scan_args(p: argparse.ArgumentParser) -> frozenset[str]:
    n = len(p._actions)
    p.add_argument("--scene", type=str, default="builtin",
                   help="scene file path, or 'builtin' for the default room")
    p.add_argument("--room", type=str, default="4 4 3",
                   help="builtin room width depth height (m)")
    _add_field_flags(p, LissajousConfig, SCAN_FLAGS)
    p.add_argument("--dropout", type=float, default=0.0,
                   help="per-tick miss probability")
    p.add_argument("--max-poses", type=int, default=50)
    p.add_argument("--camera-index", type=int, default=0,
                   help="which sampled camera pose to scan from")
    return frozenset(a.dest for a in p._actions[n:])


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cuts", type=str, default=" ".join(map(str, DEFAULT_CUTS)),
                   help="partition cut timestamps")
    p.add_argument("--predictor", type=str, default="noisy-oracle",
                   choices=VARIANTS)
    p.add_argument("--error-rates", type=str,
                   default=" ".join(map(str, DEFAULT_ERROR_RATES)),
                   help="noisy-oracle per-scale error probabilities")
    p.add_argument("--k-cls", type=int, default=PredictorConfig.k_cls,
                   help="seeded-knn classifier neighbor count")
    p.add_argument("--seed-ref-fraction", type=float, default=0.02,
                   help="fraction of the cloud sampled as the seeded-knn reference")
    p.add_argument("--um-k", type=int, default=UpdateConfig.k,
                   help="update-module voting neighbor count")
    p.add_argument("--no-update", action="store_true",
                   help="disable the refinement cascade")
    p.add_argument("--mode", type=str, default="sim", choices=MODES,
                   help="schedule: sim overlaps acquisition and processing, "
                        "sim-unfused also drops the fusion dependency, "
                        "sim-serial processes after acquisition, real times it")
    _add_field_flags(p, TimingModel, TIMING_FLAGS[1:],
                     baseline_factor="baseline per-point cost multiplier vs "
                                     "a scale branch")


class ConfigError(ValueError):
    """One or more bad settings; ``main`` prints each argument on its own
    ``config error:`` line."""


@functools.cache  # one parser per process
def build_parser() -> tuple[argparse.ArgumentParser, dict, frozenset[str]]:
    parser = argparse.ArgumentParser(
        prog="scalestream",
        description="Resolution-scalable point-stream scanning, processing "
                    "and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # flags are spelled in full, so that a flag that a command lacks,
        # such as sweep's --tick-duration, never passes for a longer one
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p_scan = command("scan", help="scan a scene into a stream file")
    _add_common(p_scan)
    scan_dests = _add_scan_args(p_scan)

    p_part = command("partition", help="split a stream into scales")
    _add_common(p_part)
    p_part.add_argument("--stream", type=str, required=True)
    p_part.add_argument("--cuts", type=str,
                        default=" ".join(map(str, DEFAULT_CUTS)))

    p_run = command("run", help="scalable + baseline pipeline runs")
    _add_common(p_run)
    p_run.add_argument("--stream", type=str, default=None,
                       help="input stream file (or use --scan-inline)")
    p_run.add_argument("--scan-inline", action="store_true",
                       help="scan the scene in-process instead of reading a file")
    _add_scan_args(p_run)
    _add_pipeline_args(p_run)
    _add_field_flags(p_run, TimingModel, TIMING_FLAGS[:1],
                     tick_duration="acquisition seconds per tick")
    p_run.add_argument("--skip-unrefined", action="store_true",
                       help="skip the no-update comparison run")
    p_run.add_argument("--coverage-grid", type=int, default=16)

    p_sweep = command("sweep", help="trace latency across acquisition speeds")
    _add_common(p_sweep)
    p_sweep.add_argument("--stream", type=str, default=None)
    p_sweep.add_argument("--scan-inline", action="store_true")
    p_sweep.add_argument("--tick-durations", type=str,
                         default="1e-6 3e-6 1e-5 3e-5 1e-4",
                         help="tick durations to sweep (seconds)")
    _add_scan_args(p_sweep)
    _add_pipeline_args(p_sweep)

    for p in (p_scan, p_run, p_sweep):
        p.add_argument("--seed", type=int, default=0, help="master RNG seed")

    p_rep = command("report", help="render a run directory's views and summary")
    p_rep.add_argument("--run-dir", type=str, required=True)
    p_rep.add_argument("--csv", action="store_true",
                       help="also write cumulative_scale_<i>.csv from labels.npz")
    subparsers = {"scan": p_scan, "partition": p_part, "run": p_run,
                  "sweep": p_sweep, "report": p_rep}
    return parser, subparsers, scan_dests


def _config_argv(subparsers: dict, argv: list[str]) -> list[str]:
    """``argv`` with the values of its ``--config`` file inserted as flags
    right after the command, so that the parser applies each flag's type and
    choices, and explicit flags, which come later, win."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=str, default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config is None or not argv or argv[0] not in subparsers:
        return argv
    try:
        values = _read_json(Path(known.config), dict, "field")
    except ValueError as exc:  # ConfigError included: every fault exits 2
        raise ConfigError(f"--config: {exc}") from None
    unknown = sorted(set(values) - {a.dest for sp in subparsers.values()
                                    for a in sp._actions})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    actions = {a.dest: a for a in subparsers[argv[0]]._actions}
    tokens = []
    for key, value in values.items():
        action = actions.get(key)
        if action is None or key in ("config", "help") or value is None:
            continue  # another command's key, or the flag's default
        flag = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            raise ConfigError(f"config key {key} is a switch and takes true "
                              f"or false, got {value!r}")
        elif value:
            tokens.append(flag)
    return argv[:1] + tokens + argv[1:]


#: Text flags (a manifest records them as given), parsed when built.
_LIST_FLAGS = {"cuts": _parse_ints, "error_rates": _parse_floats}


def _build(problems: list[str], args, cls, flags: dict, **fixed):
    """``cls`` from ``fixed`` and the flags that ``flags`` maps to its fields,
    or None after adding a problem for each flag that ``cls`` rejects on its
    own, the other fields at their defaults, with the class's reason."""
    values, n = {}, len(problems)
    for field, dest in flags.items():
        try:
            values[field] = _LIST_FLAGS.get(dest, lambda v: v)(getattr(args, dest))
            cls(**{field: values[field]})
        except (ValueError, PipelineError) as exc:
            problems.append(f"{_flag(dest)}: {exc}")
    return cls(**fixed, **values) if len(problems) == n else None


def _settings(args) -> dict:
    """The config objects the command takes (``scan``, the builtin ``scene``,
    ``spec``, ``predictor``, ``update``, None without the update module,
    ``timing``, ``timings``), each flag that the command reads checked
    before any scan or read; a ConfigError lists every bad flag."""
    problems, built = [], {}
    if "seed" in args and args.seed < 0:
        problems.append(f"--seed must be non-negative, got {args.seed}")
    if _scans(args):
        if args.command != "scan" and args.stream is not None:
            problems.append("--stream cannot be combined with --scan-inline")
        if not 0 <= args.dropout <= 1:
            problems.append(f"--dropout must be a probability, got {args.dropout}")
        built["scan"] = _build(problems, args, LissajousConfig,
                               dict(zip(SCAN_FLAGS, SCAN_FLAGS)))
        if args.scene == "builtin":
            try:
                built["scene"] = default_room(*_parse_room(args.room))
            except ValueError as exc:  # SceneError included
                problems.append(f"--room: {exc}")
    elif args.stream is None:
        problems.append("either --stream or --scan-inline is required")
    elif not Path(args.stream).exists():
        problems.append(f"--stream: stream file not found: {args.stream}")
    if "cuts" in args:
        built["spec"] = _build(problems, args, PartitionSpec, {"cuts": "cuts"})
    if "coverage_grid" in args and args.coverage_grid < 1:
        problems.append(f"--coverage-grid must be >= 1, got {args.coverage_grid}")
    if "predictor" in args:
        if not 0 < args.seed_ref_fraction <= 1:
            problems.append("--seed-ref-fraction must be in (0, 1], "
                            f"got {args.seed_ref_fraction}")
        if args.predictor == "seeded-knn" and args.mode == "sim-unfused":
            problems.append("--mode sim-unfused cannot be combined with the "
                            "seeded-knn predictor (it consumes previous-scale context)")
        if args.mode == "real":
            problems += [f"{_flag(f)} shapes only the simulated schedule; "
                         "--mode real measures its own"
                         for f in TIMING_FLAGS[1:]  # the stage costs
                         if getattr(args, f) != getattr(TimingModel, f)]
        spec = built["spec"]
        built["predictor"] = predictor = _build(
            problems, args, PredictorConfig,
            {"error_rates": "error_rates", "k_cls": "k_cls"},
            variant=args.predictor, seed=args.seed)
        if (args.predictor == "noisy-oracle" and spec and predictor
                and len(predictor.error_rates) < len(spec.cuts)):
            problems.append(f"--error-rates supplies {len(predictor.error_rates)} "
                            f"rates for {len(spec.cuts)} scales")
        update = _build(problems, args, UpdateConfig, {"k": "um_k"})
        built["update"] = None if args.no_update else update
        built["timing"] = _build(problems, args, TimingModel,
                                 {f: f for f in TIMING_FLAGS if f in args},
                                 mode=args.mode)
    if "tick_durations" in args:
        try:
            durations = _parse_floats(args.tick_durations)
            # against the default costs, so that a bad cost is listed once
            built["timings"] = [replace(built["timing"] or TimingModel(),
                                        tick_duration=td) for td in durations]
            if not durations:
                problems.append("--tick-durations must list at least one value")
        except (ValueError, PipelineError) as exc:
            problems.append(f"--tick-durations: {exc}")
    if problems:
        raise ConfigError(*problems)
    return built


def _do_scan(args, settings: dict) -> PointStream:
    try:
        scene = settings.get("scene") or load_scene(Path(args.scene))
    except OSError as exc:  # a missing file, a directory, no permission
        raise ConfigError(f"--scene: {args.scene} cannot be read: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--scene: {args.scene} is not UTF-8 text: "
                          f"{exc.reason} at byte {exc.start}") from None
    try:
        poses = place_cameras(scene, max_poses=args.max_poses, seed=args.seed)
    except SceneError as exc:  # the room leaves no or too many camera positions
        if args.max_poses < 1:
            raise
        flag = "--room" if "scene" in settings else f"--scene: {args.scene}"
        raise ConfigError(f"{flag}: {exc}") from None
    if not 0 <= args.camera_index < len(poses):
        raise ConfigError(f"--camera-index {args.camera_index} outside the "
                          f"{len(poses)} sampled poses")
    return scan(scene, poses[args.camera_index], settings["scan"],
                dropout=args.dropout, seed=args.seed)


def cmd_scan(args) -> int:
    stream = _do_scan(args, _settings(args))
    data = io.BytesIO()
    n_bytes = write_stream(stream, data)  # refuses before the directory is made
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stream_path = out / "stream.bin"
    stream_path.write_bytes(data.getbuffer())
    cfg = _manifest_config(args)
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
    spec = _settings(args)["spec"]
    stream = read_stream(args.stream)
    parts = partition(stream, spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "cuts": list(spec.cuts),
        "total": len(stream),
        "scales": [{"scale": p.scale, "interval": list(spec.interval(p.scale)),
                    "count": len(p)} for p in parts],
    }
    _write_json(out / "partitions.json", summary)
    for p in parts:
        lo, hi = spec.interval(p.scale)
        print(f"scale {p.scale}: ({lo}, {hi}] -> {len(p)} points")
    return 0


def _load_or_scan(args, settings: dict) -> tuple[PointStream, PredictorConfig]:
    """The stream, and the predictor config with its seeded-knn cloud."""
    if args.scan_inline:
        stream = _do_scan(args, settings)
    else:
        stream = read_stream(args.stream)
    if len(stream) == 0:
        raise ConfigError("stream has no points")
    predictor_cfg = settings["predictor"]
    if args.predictor == "seeded-knn":
        predictor_cfg = replace(predictor_cfg, seed_cloud=make_seed_cloud(
            stream, fraction=args.seed_ref_fraction, seed=args.seed))
    return stream, predictor_cfg


def _run_warnings(stream: PointStream, spec: PartitionSpec,
                  predictor_cfg: PredictorConfig,
                  update_cfg: UpdateConfig | None) -> list[str]:
    """Where a scale's labels rest on fewer points than they should.

    With seeded-knn, where a vote runs against fewer than ``--k-cls``
    points: scale 1, a scale after an empty prefix and the baseline vote
    against the seed cloud; every other scale votes against the points of
    the scales before it.  With the update module, where a scale is refined
    against a next scale of fewer than ``--um-k`` points or under half its
    size, not a point or two smaller.  Each warning is printed on stderr.
    """
    counts = [len(p) for p in partition(stream, spec)]
    warnings = []
    if predictor_cfg.seed_cloud is not None:
        k = predictor_cfg.k_cls
        if len(predictor_cfg.seed_cloud) < k:
            warnings.append(f"the seed cloud holds {len(predictor_cfg.seed_cloud)} "
                            f"point(s), fewer than --k-cls {k}")
        context = 0
        for scale, count in enumerate(counts, start=1):
            if 0 < context < k and count:
                warnings.append(f"scale {scale} votes against a context of "
                                f"{context} point(s), fewer than --k-cls {k}")
            context += count
    if update_cfg is not None:
        for scale, (lower, upper) in enumerate(zip(counts, counts[1:]), start=1):
            if lower and upper and (upper < update_cfg.k or 2 * upper < lower):
                warnings.append(f"scale {scale} ({lower} points) is refined "
                                f"against scale {scale + 1}, which holds only "
                                f"{upper} point(s)")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return warnings


def _scale_miou(output) -> float | None:
    """mIoU of a cumulative output, or None when its prefix is empty."""
    return miou(output)[1] if len(output) else None


def cmd_run(args) -> int:
    settings = _settings(args)
    spec, update_cfg, timing = (settings[k] for k in ("spec", "update", "timing"))
    stream, predictor_cfg = _load_or_scan(args, settings)
    warnings = _run_warnings(stream, spec, predictor_cfg, update_cfg)

    unrefined = not args.skip_unrefined and update_cfg is not None
    unrefined_miou = None
    # the unrefined pass votes through the refined pass's context tables,
    # which are freed before the baseline's search
    with one_label_pass(tables=unrefined):
        outputs, timeline = run_scalable(stream, spec, predictor_cfg,
                                         update_cfg, timing)
        if unrefined:
            # labels do not depend on timing and this timeline is dropped, so
            # simulate it rather than sleep through the acquisition again
            unrefined_miou = [_scale_miou(o) for o in run_scalable(
                stream, spec, predictor_cfg, None,
                replace(timing, mode="sim") if timing.mode == "real" else timing)[0]]
    base_out, baseline = run_baseline(stream, predictor_cfg, timing)
    lat = latency_metrics(timeline, baseline)

    *early, final = outputs
    class_iou, final_miou = miou(final)
    scale_mious = [*map(_scale_miou, early), final_miou]
    names = (stream.label_map.names if stream.label_map is not None
             else tuple(f"class_{c}" for c in range(stream.class_count)))
    base_miou = miou(base_out)[1]

    curve = []
    if "camera_position" in stream.meta:
        curve = coverage_curve(stream, spec.cuts, args.coverage_grid)

    # per-scale mIoU is None where the scale's cumulative prefix is empty
    metrics = {
        "scale_miou": scale_mious,
        "scale_miou_unrefined": unrefined_miou,
        "origin_miou": {str(s): v for s, v in miou_by_origin(final).items()},
        "per_class_iou": {names[c]: float(class_iou[c])
                          for c in range(stream.class_count)
                          if not np.isnan(class_iou[c])},
        "baseline_miou": base_miou,
        "cost_of_scalability_pct": cost_of_scalability(base_miou, scale_mious[-1]),
        "latency": asdict(lat),
        "coverage_curve": [[t, c] for t, c in curve],
    }

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _manifest_config(args)
    manifest = {"command": "run", "config": cfg,
                "config_hash": config_hash(cfg), "points": len(stream)}
    if warnings:
        manifest["warnings"] = warnings
    _write_json(out / "run_manifest.json", manifest)
    _write_json(out / "metrics.json", metrics)
    _write_json(out / "timeline.json",
                {**timeline.to_dict(), **dict(zip(BASELINE_KEYS, baseline))})
    write_labels(out / "labels.npz", outputs)

    print(f"final mIoU {scale_mious[-1]:.4f} vs baseline {base_miou:.4f} "
          f"(cost of scalability {metrics['cost_of_scalability_pct']:+.2f} pp)")
    print(f"speedup {lat.speedup:.1%}, first prediction at "
          f"{lat.first_prediction_fraction:.1%} of baseline inference")
    return 0


def cmd_sweep(args) -> int:
    settings = _settings(args)
    spec, update_cfg, timing = (settings[k] for k in ("spec", "update", "timing"))
    stream, predictor_cfg = _load_or_scan(args, settings)
    _run_warnings(stream, spec, predictor_cfg, update_cfg)
    rows = []
    with one_label_pass():  # a simulated sweep labels once for every timing
        for td_timing in settings["timings"]:
            _, timeline = run_scalable(stream, spec, predictor_cfg, update_cfg,
                                       td_timing)
            if timing.mode == "real":
                _, baseline = run_baseline(stream, predictor_cfg, td_timing)
            else:  # the modelled baseline needs the point count, not labels
                baseline = baseline_timeline(
                    stream, td_timing, td_timing.baseline_duration(len(stream)))
            rows.append({"tick_duration": td_timing.tick_duration,
                         **asdict(latency_metrics(timeline, baseline))})

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = ("tick_duration", "acquisition_end", "post_acq", "post_acq_lower",
               "post_acq_upper", "speedup", "first_prediction_fraction")
    lines = [",".join(columns),
             *(",".join(repr(row[c]) for c in columns) for row in rows)]
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    return 0


def _read_json(path: Path, parse, what: str):
    """``parse`` of the JSON object that the file at ``path`` holds.

    A missing file is a ConfigError.  Every other fault is one error line
    that names the file: a path that cannot be read, a document that is not
    valid JSON or not an object, and, from ``parse``, a KeyError (a missing
    key), a TypeError or OverflowError (a wrongly typed ``what``, field or
    event) and a ValueError or PipelineError (an impossible value)."""
    if not path.exists():
        raise ConfigError(f"no {path.name} under {path.parent}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, or a file without read permission
        raise ValueError(f"{path} cannot be read: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad bytes, deep nesting
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    try:
        return parse(data)
    except KeyError as exc:
        raise ValueError(f"{path} lacks the key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path} holds a wrongly typed {what}: {exc}") from None
    except (ValueError, PipelineError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_report_metrics(metrics: dict) -> dict:
    """``metrics``, once ``scale_miou`` is a non-empty list ending in an
    mIoU, ``scale_miou_unrefined`` null or a list, ``per_class_iou`` an
    object, ``coverage_curve`` a list of ``[integer tick, fraction]`` pairs,
    and ``baseline_miou``, each list entry, IoU and fraction a JSON number
    in [0, 1] (NaN excluded); a null mIoU marks an empty prefix."""
    scale, unrefined = metrics["scale_miou"], metrics["scale_miou_unrefined"]
    per_class, curve = metrics["per_class_iou"], metrics["coverage_curve"]
    if type(scale) is not list or not scale or scale[-1] is None:
        raise TypeError(f"scale_miou is {scale!r}, not a non-empty list "
                        "ending in an mIoU")
    if unrefined is not None and type(unrefined) is not list:
        raise TypeError(f"scale_miou_unrefined is {unrefined!r}, not null "
                        "or a list")
    if type(per_class) is not dict:
        raise TypeError(f"per_class_iou is {per_class!r}, not an object")
    for pair in _json_list(metrics, "coverage_curve"):
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not int:
            raise TypeError(f"coverage_curve entry {pair!r} is not an "
                            "[integer tick, fraction] pair")
    values = {"baseline_miou": [metrics["baseline_miou"]],
              "scale_miou": [v for v in scale if v is not None],
              "scale_miou_unrefined": [v for v in unrefined or [] if v is not None],
              "per_class_iou": per_class.values(),
              "coverage_curve": [c for _, c in curve]}
    what = {"per_class_iou": "an IoU", "coverage_curve": "a fraction"}
    for field, field_values in values.items():
        for v in field_values:
            if not (_is_number(v) and 0 <= v <= 1):
                # an int is shown as a float, without converting one that
                # a float cannot hold
                shown = f"{v}.0" if type(v) is int else repr(v)
                raise ValueError(f"{field} holds {shown}, not "
                                 f"{what.get(field, 'an mIoU')} in [0, 1]")
    return metrics


def _read_timeline(data: dict) -> tuple:
    """The run's timeline, the baseline's instants once each is a JSON
    number, finite and non-negative, and the ``LatencyMetrics`` they give."""
    tl = Timeline.from_dict(data)
    for key in BASELINE_KEYS:
        if not _is_number(data[key]):
            raise TypeError(f"{key} {data[key]!r} is not a number")
    baseline = tuple(_checked(data[key], key) for key in BASELINE_KEYS)
    return tl, baseline, latency_metrics(tl, baseline)


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    metrics_path = run_dir / "metrics.json"
    metrics = _read_json(metrics_path, _check_report_metrics, "field")
    tl_path = run_dir / "timeline.json"
    tl, baseline, lat = _read_json(tl_path, _read_timeline, "event")
    k = len(lat.scale_available)
    for key in ("scale_miou", "scale_miou_unrefined"):
        if metrics[key] is not None and len(metrics[key]) != k:
            raise ValueError(f"{metrics_path} and {tl_path}: {key} holds "
                             f"{len(metrics[key])} mIoUs for the {k} scales "
                             "of the timeline")
    outputs = []
    if args.csv:
        labels_path = run_dir / "labels.npz"
        if not labels_path.exists():
            raise ConfigError(f"no labels.npz under {run_dir}")
        outputs = read_labels(labels_path)
    scale_mious, base_miou = metrics["scale_miou"], metrics["baseline_miou"]
    cost = cost_of_scalability(base_miou, scale_mious[-1])
    views = {"metrics.csv": metrics_csv({**metrics, "latency": asdict(lat),
                                         "cost_of_scalability_pct": cost}),
             "miou_vs_scale.svg": miou_plot(metrics),
             "timeline.svg": timeline_plot(tl, baseline, lat)}
    for name, view in views.items():  # every input read and checked first
        (run_dir / name).write_text(view, encoding="utf-8")
    if outputs:
        heads = row_heads(outputs[-1])
        for o in outputs:
            (run_dir / f"cumulative_scale_{o.scale}.csv").write_text(
                cumulative_csv(o, heads), encoding="utf-8")
    print(f"scales: {len(scale_mious)}")
    for i, v in enumerate(scale_mious, start=1):
        print(f"  mIoU@scale{i}: {'n/a' if v is None else f'{v:.4f}'}")
    print(f"baseline mIoU: {base_miou:.4f}")
    print(f"cost of scalability: {cost:+.2f} pp")
    print(f"speedup: {lat.speedup:.1%}")
    if outputs:
        print(f"wrote cumulative_scale_1.csv ... cumulative_scale_{len(outputs)}.csv")
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
    parser, subparsers, _ = build_parser()
    try:
        args = parser.parse_args(_config_argv(subparsers, argv))
        return COMMANDS[args.command](args)
    except (ConfigError, SceneError, PartitionError) as exc:
        for problem in exc.args:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
