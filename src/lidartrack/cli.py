"""Command line front end.

Subcommands: track, eval, synth, plot, bench.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 when an
input dataset or tracks file is missing or malformed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .config import PipelineConfig, config_to_dict, dump_config, load_config
from .dataset_io import load_ground_truth, load_sequence, load_tracks, write_tracks
from .detection import detect
from .errors import DatasetError, EvaluationError, LidartrackError
from .evaluation import gt_to_eval_frames, mota, tracks_to_eval_frames
from .geometry import transform_points
from .pipeline import run_tracking


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for
    data errors, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _effective_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(
            cfg, preprocess=dataclasses.replace(cfg.preprocess, rng_seed=args.seed)
        )
    return cfg


def _maybe_print_config(args, cfg: PipelineConfig) -> bool:
    if getattr(args, "print_config", False):
        print(dump_config(cfg))
        return True
    return False


def cmd_track(args) -> int:
    cfg = _effective_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    if args.dataset is None:
        raise SystemExit("track: dataset directory is required")
    seq = load_sequence(args.dataset)
    result = run_tracking(seq, cfg, workers=args.workers)

    out_path = Path(args.output) if args.output else Path(args.dataset) / "tracks.jsonl"
    write_tracks(out_path, result.records)

    header = f"{'frame':>6} {'raw':>7} {'sampled':>7} {'nogrnd':>7} {'driv':>7} {'mask':>7} {'clus':>5} {'det':>4} {'trk':>4}"
    print(header)
    for fr in result.frames:
        s = fr.stats
        print(
            f"{fr.frame_index:>6} {s.n_raw:>7} {s.n_downsampled:>7} {s.n_after_ground:>7} "
            f"{s.n_after_drivable:>7} {s.n_after_masks:>7} {fr.n_clusters:>5} "
            f"{fr.n_detections:>4} {fr.n_tracks:>4}"
        )
    print(
        f"frames={len(result.frames)} confirmed_tracks={len(result.confirmed_ids)} "
        f"records={len(result.records)} elapsed={result.total_seconds:.2f}s "
        f"-> {out_path}"
    )
    return 0


def _gt_path(arg: str) -> Path:
    p = Path(arg)
    return p / "gt.jsonl" if p.is_dir() else p


def cmd_eval(args) -> int:
    cfg = _effective_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    if args.gt is None or args.tracks is None:
        raise SystemExit("eval: gt and tracks paths are required")
    gt = load_ground_truth(_gt_path(args.gt))
    records = load_tracks(args.tracks)
    result, per_frame = mota(
        gt_to_eval_frames(gt),
        tracks_to_eval_frames(records),
        match_distance=cfg.eval.match_distance,
    )
    print(json.dumps(dataclasses.asdict(result), indent=2))
    if args.per_frame:
        with open(args.per_frame, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([fld.name for fld in dataclasses.fields(per_frame[0])] if per_frame
                            else ["frame", "n_gt", "n_hyp", "matches",
                                  "false_negatives", "false_positives", "id_switches"])
            for counts in per_frame:
                writer.writerow(dataclasses.astuple(counts))
    return 0


def cmd_synth(args) -> int:
    from .synth import SynthConfig, generate_to

    cfg = SynthConfig(
        n_cars=args.cars,
        n_frames=args.frames,
        ego_mode=args.ego_mode,
        rng_seed=args.seed if args.seed is not None else 0,
    )
    out = generate_to(args.output, cfg)
    print(f"wrote {cfg.n_frames} frames, {cfg.n_cars} cars -> {out}")
    return 0


def cmd_plot(args) -> int:
    from .plotting import render_frame_svg, view_bounds

    cfg = _effective_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    if args.dataset is None:
        raise SystemExit("plot: dataset directory is required")
    seq = load_sequence(args.dataset)
    tracks_by_frame: dict[int, list] = {}
    if args.tracks:
        for rec in load_tracks(args.tracks):
            tracks_by_frame.setdefault(rec.frame, []).append(
                (rec.track_id, rec.x, rec.y, rec.length, rec.width)
            )

    out_dir = Path(args.output) if args.output else Path(args.dataset) / "plots"
    out_dir.mkdir(parents=True, exist_ok=True)

    # A steady viewport makes frames comparable when flipping through them.
    bounds = view_bounds(None, None, seq.drivable) if seq.drivable is not None else None

    frames = seq.frames if args.max_frames is None else seq.frames[: args.max_frames]
    for frame in frames:
        found = detect(
            frame,
            cfg.preprocess,
            cfg.clustering,
            cfg.box_limits,
            cameras=seq.cameras,
            drivable=seq.drivable,
        )
        detections = [(d.center[0], d.center[1], d.length, d.width) for d in found.detections]
        svg = render_frame_svg(
            frame.index,
            transform_points(frame.ego_pose, found.points)[:, :2],
            detections,
            sorted(tracks_by_frame.get(frame.index, [])),
            drivable=seq.drivable,
            bounds=bounds,
        )
        (out_dir / f"frame_{frame.index:06d}.svg").write_text(svg)
    print(f"wrote {len(frames)} SVG files -> {out_dir}")
    return 0


def cmd_bench(args) -> int:
    from .bench import bench_cloud, bench_clustering, time_stages

    cfg = _effective_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    if args.dataset is None:
        raise SystemExit("bench: dataset directory is required")
    seq = load_sequence(args.dataset)
    print(f"{'stage':<16} {'median_ms':>10} {'runs':>5}")
    for st in time_stages(seq, cfg, max_frames=args.max_frames):
        print(f"{st.stage:<16} {st.median_ms:>10.3f} {st.runs:>5}")

    pts = bench_cloud(args.cluster_points, seed=args.seed if args.seed is not None else 0)
    print(f"\nclustering comparison on {args.cluster_points} uniform points:")
    print(f"{'method':<18} {'seconds':>9} {'clusters':>9} {'vs brute':>9}")
    for row in bench_clustering(pts):
        print(
            f"{row.method:<18} {row.seconds:>9.4f} {row.n_clusters:>9} "
            f"{row.speedup_vs_brute:>8.1f}x"
        )
    return 0


def _int_at_least(text: str, lowest: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < lowest:
        raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _add_config_flags(sub, with_workers: bool = False) -> None:
    sub.add_argument("--config", help="JSON pipeline config file")
    sub.add_argument("--seed", type=int, default=None, help="override the preprocessing RNG seed")
    sub.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective config as JSON and exit",
    )
    if with_workers:
        sub.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            help="detection worker threads (1 = serial)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lidartrack", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = subs.add_parser("track", help="run detection and tracking over a sequence")
    p.add_argument("dataset", nargs="?", help="sequence directory")
    p.add_argument("--output", help="tracks file to write (default: DATASET/tracks.jsonl)")
    _add_config_flags(p, with_workers=True)
    p.set_defaults(func=cmd_track)

    p = subs.add_parser("eval", help="score a tracks file against ground truth")
    p.add_argument("gt", nargs="?", help="gt.jsonl file or a sequence directory containing one")
    p.add_argument("tracks", nargs="?", help="tracks file produced by `track`")
    p.add_argument("--per-frame", help="also write per-frame counts to this CSV file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("synth", help="generate a synthetic sequence")
    p.add_argument("output", help="directory to create")
    p.add_argument("--cars", type=int, default=5)
    p.add_argument("--frames", type=int, default=50)
    p.add_argument("--ego-mode", choices=["line", "static"], default="line")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("plot", help="render per-frame BEV SVGs")
    p.add_argument("dataset", nargs="?", help="sequence directory")
    p.add_argument("tracks", nargs="?", help="optional tracks file to overlay")
    p.add_argument("--output", help="output directory (default: DATASET/plots)")
    p.add_argument("--max-frames", type=_non_negative_int, default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_plot)

    p = subs.add_parser("bench", help="time pipeline stages and DBSCAN on a KD-tree against brute force")
    p.add_argument("dataset", nargs="?", help="sequence directory")
    p.add_argument("--max-frames", type=_non_negative_int, default=None)
    p.add_argument("--cluster-points", type=_non_negative_int, default=20000)
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits for bad flags/choices (status 1 via _Parser) and
        # for --help (status 0); report that status instead of raising so
        # main() stays callable in-process.
        return exc.code if isinstance(exc.code, int) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("lidartrack: error: a command is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except SystemExit as exc:
        # Raised by command bodies for missing positionals.
        if isinstance(exc.code, str):
            print(f"lidartrack: error: {exc.code}", file=sys.stderr)
            return 1
        raise
    except (DatasetError, EvaluationError, FileNotFoundError) as exc:
        print(f"lidartrack: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"lidartrack: error: {exc}", file=sys.stderr)
        return 2
    except LidartrackError as exc:
        print(f"lidartrack: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"lidartrack: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
