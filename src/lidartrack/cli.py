"""Command line front end.

Subcommands: track, eval, synth, plot, bench.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 when an
input dataset or tracks file is missing or malformed (a repeated id or frame
index included). Only `eval` reads gt.jsonl.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import PipelineConfig, dump_config, load_config
from .dataset_io import load_ground_truth, load_sequence, load_tracks, write_tracks
from .errors import DatasetError, EvaluationError, LidartrackError
from .evaluation import FrameCounts, gt_to_eval_frames, mota, tracks_to_eval_frames
from .geometry import transform_points
from .pipeline import detect_frames, run_tracking


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for
    data errors, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _effective_config(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def cmd_track(args) -> int:
    cfg = _effective_config(args)
    if args.dataset is None:
        raise SystemExit("track: dataset directory is required")
    seq = load_sequence(args.dataset)
    result = run_tracking(seq, cfg, workers=args.workers)

    out_path = Path(args.output) if args.output else Path(args.dataset) / "tracks.jsonl"
    write_tracks(out_path, result.records)

    print(f"{'frame':>6} {'raw':>7} {'sampled':>7} {'nogrnd':>7} {'driv':>7} {'mask':>7} {'clus':>5} {'det':>4} {'trk':>4}")
    for s in result.frames:
        print(
            f"{s.frame_index:>6} {s.n_raw:>7} {s.n_downsampled:>7} {s.n_after_ground:>7} "
            f"{s.n_after_drivable:>7} {s.n_after_masks:>7} {s.n_clusters:>5} "
            f"{s.n_detections:>4} {s.n_tracks:>4}"
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
            writer.writerow([fld.name for fld in dataclasses.fields(FrameCounts)])
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
    for frame, found in detect_frames(dataclasses.replace(seq, frames=frames), cfg):
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
    from .bench import append_run, bench_entry

    cfg = _effective_config(args)
    if args.dataset is None:
        raise SystemExit("bench: dataset directory is required")
    entry = bench_entry(
        args.dataset,
        cfg,
        max_frames=args.max_frames,
        repeats=args.repeats,
        workers=args.workers,
        label=args.label,
    )
    print(f"{'step':<16} {'median_ms':>10}")
    for step, ms in (*entry["stage_ms"].items(), *entry["wall_ms"].items()):
        print(f"{step:<16} {ms:>10.3f}")
    print(f"frames={entry['frames']} repeats={entry['repeats']} workers={entry['workers']}")
    memory = {key: "n/a" if mb is None else f"{mb:.1f}" for key, mb in entry["memory_mb"].items()}
    faults = "n/a" if entry["minor_faults"] is None else f"{entry['minor_faults']:.0f}"
    print(f"clouds_mb={memory['clouds']} peak_rss_mb={memory['peak_rss']} minor_faults={faults}")
    if args.json:
        print(f"-> {append_run(args.json, entry)}")
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
    p.add_argument("--cars", type=_non_negative_int, default=5)
    p.add_argument("--frames", type=_positive_int, default=50)
    p.add_argument("--ego-mode", choices=["line", "static"], default="line")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("plot", help="render per-frame BEV SVGs")
    p.add_argument("dataset", nargs="?", help="sequence directory")
    p.add_argument("tracks", nargs="?", help="optional tracks file to overlay")
    p.add_argument("--output", help="output directory (default: DATASET/plots)")
    p.add_argument("--max-frames", type=_non_negative_int, default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_plot)

    p = subs.add_parser(
        "bench", help="print the median time of each pipeline stage and end-to-end step"
    )
    p.add_argument("dataset", nargs="?", help="sequence directory")
    p.add_argument("--max-frames", type=_non_negative_int, default=None)
    p.add_argument("--repeats", type=_positive_int, default=1, help="timed runs (default 1)")
    p.add_argument("--json", metavar="PATH", help="also add the timings to the runs list in PATH")
    p.add_argument("--label", help="free text stored with the --json entry")
    _add_config_flags(p, with_workers=True)
    p.set_defaults(func=cmd_bench)

    return parser


def _discard_stdout() -> None:
    """Point stdout at the null device, so that output still buffered for a
    closed pipe is not written to it again when the interpreter exits."""
    devnull = open(os.devnull, "w")
    try:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # stdout has no descriptor
        sys.stdout = devnull
    else:
        devnull.close()


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
        if getattr(args, "print_config", False):
            print(dump_config(_effective_config(args)))
            status = 0
        else:
            status = args.func(args)
        sys.stdout.flush()  # a reader that left early shows up here at the latest
        return status
    except BrokenPipeError:
        # The reader closed the pipe (`| head`); nothing is wrong with the data.
        _discard_stdout()
        return 0
    except SystemExit as exc:
        # Raised by command bodies for missing positionals.
        if isinstance(exc.code, str):
            print(f"lidartrack: error: {exc.code}", file=sys.stderr)
            return 1
        raise
    except (DatasetError, EvaluationError, OSError) as exc:
        print(f"lidartrack: error: {exc}", file=sys.stderr)
        return 2
    except (LidartrackError, ValueError) as exc:
        print(f"lidartrack: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
