"""One step of a benchmark run, in a fresh interpreter.

    python3 perfbench/child.py setup SPEC_JSON SEED SEQ_DIR
    python3 perfbench/child.py track SPEC_JSON SEQ_DIR TRACKS_PATH [TRACE_PATH]

`setup` imports lidartrack and generates and writes the workload's sequence;
its wall time is `setup_s`. `track` runs the public path a user of
`lidartrack track DIR` pays for (load_sequence -> run_tracking ->
write_tracks), then scores the written tracks file. With TRACE_PATH the run
is traced (see tracer.py) and the spans are written there. Either prints one
JSON object as the last line of stdout. lidartrack must be importable (run.py
puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
import warnings
from pathlib import Path


def setup(spec: dict, seed: int, seq_dir: str) -> dict:
    t0 = time.perf_counter()
    import lidartrack
    from lidartrack import config, dataset_io, evaluation, pipeline, synth  # noqa: F401

    cfg = synth.synth_config_from_dict({**spec["synth"], "rng_seed": seed})
    synth.generate_to(seq_dir, cfg)
    setup_s = time.perf_counter() - t0
    return {
        "setup_s": setup_s,
        "synth_config": dataclasses.asdict(cfg),
        "module": lidartrack.__file__,
    }


def score(seq_dir, tracks_path, match_distance: float) -> dict:
    """Digest and CLEAR-MOT score of a written tracks file against gt.jsonl."""
    from lidartrack import dataset_io, evaluation

    gt = dataset_io.load_ground_truth(Path(seq_dir) / "gt.jsonl")
    records = dataset_io.load_tracks(tracks_path)
    result, per_frame = evaluation.mota(
        evaluation.gt_to_eval_frames(gt),
        evaluation.tracks_to_eval_frames(records),
        match_distance,
    )
    return {
        "digest": hashlib.sha256(Path(tracks_path).read_bytes()).hexdigest(),
        "mota": result.mota,
        "id_switches": result.id_switches,
        "false_negatives": result.false_negatives,
        "false_positives": result.false_positives,
    }


def _environment() -> dict:
    import lidartrack
    import numpy
    import scipy

    try:
        from lidartrack._kernels import DEFAULT_BACKEND as backend
    except ImportError:
        backend = "unknown"
    return {
        "backend": backend,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "module": lidartrack.__file__,
    }


def _track_once(spec, cfg, seq_dir, tracks_path) -> float:
    from lidartrack import dataset_io, pipeline

    t0 = time.perf_counter()
    seq = dataset_io.load_sequence(seq_dir)
    out = pipeline.run_tracking(seq, cfg, workers=spec["workers"])
    dataset_io.write_tracks(tracks_path, out.records)
    return time.perf_counter() - t0


def track(spec: dict, seq_dir: str, tracks_path: str, trace_path: str | None) -> dict:
    from lidartrack import config

    cfg = config.config_from_dict(spec["pipeline"])
    report = {"pipeline_config": config.config_to_dict(cfg), **_environment()}
    if trace_path is None:
        report["track_s"] = _track_once(spec, cfg, seq_dir, tracks_path)
        # Taken before scoring, so only the tracking path is counted.
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report.update(score(seq_dir, tracks_path, cfg.eval.match_distance))
        return report

    import tracer as tracing
    from lidartrack import preprocess

    tracer = tracing.Tracer()
    tracing.install(tracer)
    ground_warning = getattr(preprocess, "GroundFitWarning", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report["track_s"] = _track_once(spec, cfg, seq_dir, tracks_path)
    if ground_warning is None:
        tracer.fail(tracing.GROUND_SKIPS, "preprocess.GroundFitWarning no longer exists")
    else:
        skips = sum(issubclass(w.category, ground_warning) for w in caught)
        tracer.count(tracing.GROUND_SKIPS, warnings=skips)
    for w in caught:
        if ground_warning is None or not issubclass(w.category, ground_warning):
            print(warnings.formatwarning(w.message, w.category, w.filename, w.lineno), file=sys.stderr)

    span = tracer.begin(tracing.SCORE_SPAN)
    try:
        report.update(score(seq_dir, tracks_path, cfg.eval.match_distance))
    finally:
        tracer.end(span)
    report["layers"], report["missing"] = tracing.layer_metrics(tracer)
    try:
        report["detect_tree_ratio"] = tracing.detect_tree_ratio(tracer)
    except tracing.Missing:
        pass  # the detection.* metrics are reported missing with the reason
    tracer.dump(trace_path, {"missing": report["missing"]})
    return report


def main(argv: list[str]) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    if mode == "setup":
        out = setup(spec, int(argv[2]), argv[3])
    elif mode == "track":
        out = track(spec, argv[2], argv[3], argv[4] if len(argv) > 4 else None)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
