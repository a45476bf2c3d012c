"""Timing harness: end-to-end and per-stage medians of the tracking run.

One call of `bench_entry` times `load_sequence`, `run_tracking` and
`write_tracks` over some repeats and takes the stage medians from the
timings every tracking run records per frame (`FrameStats.seconds`).
The entry also holds the memory one frame's cloud takes, the process's
peak resident set size, the minor page faults a tracking run takes and a
hash of the package source measured. It is plain JSON data; `append_run`
adds it to the `runs` list of a BENCH file, so one file holds a trajectory
of measurements.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig, config_to_dict
from .dataset_io import load_sequence, write_tracks
from .errors import DatasetError
from .pipeline import run_tracking
from .preprocess import STAGES


def git_commit(start: Path) -> str | None:
    """The commit checked out in the git work tree that holds start, read
    from its .git directory without running git; None outside a work tree,
    in a linked one (where .git is a file) or when .git cannot be read."""
    for folder in (start, *start.parents):
        git = folder / ".git"
        if not git.exists():
            continue
        try:
            head = (git / "HEAD").read_text().strip()
            if not head.startswith("ref: "):
                return head or None  # a detached HEAD holds the commit itself
            ref = head[len("ref: ") :]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            packed = git / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    commit, _, name = line.partition(" ")
                    if name == ref:
                        return commit
        except (OSError, UnicodeDecodeError):
            pass
        return None
    return None


def source_sha256(package: Path) -> str:
    """sha256 over the package's *.py files in name order: each file's name,
    a NUL, its size in decimal, a NUL and its bytes. It tells apart trees
    that share a commit, such as an uncommitted change and its parent."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py"), key=lambda p: p.name):
        data = path.read_bytes()
        digest.update(b"%s\0%d\0" % (path.name.encode(), len(data)))
        digest.update(data)
    return digest.hexdigest()


def bench_entry(
    dataset,
    cfg: PipelineConfig,
    max_frames: int | None = None,
    repeats: int = 1,
    workers: int = 1,
    label: str | None = None,
) -> dict:
    """Time the tracking path `repeats` times over the first max_frames
    frames of the sequence directory (all of them by default).

    `wall_ms` holds the median of each end-to-end step: load_sequence (the
    whole sequence's metadata; no cloud is read there), run_tracking (which
    reads each frame's cloud as it detects it) and write_tracks (to a
    temporary file). `stage_ms` holds the median of each pipeline stage over
    every frame of every repeat, in pipeline order, from each frame's
    `FrameStats.seconds`; above 1 worker a detection stage's time is
    wall time in its thread, waits for the interpreter lock included.
    `memory_mb` holds, in MiB, `clouds`: the stored size of the largest
    frame the run reads, 12 bytes per manifest point, which is what one
    detection worker holds, and `peak_rss`: the process's peak resident set
    size after the repeats, or None where the `resource` module is missing.
    `minor_faults` is the median over the repeats of the minor page faults
    the process took during run_tracking (pages the allocator handed back to
    the system and touched again count here), or None without `resource`.
    `source_sha256` identifies the package source measured, which `commit`
    does not for an uncommitted tree.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    walls: dict[str, list[float]] = {"load_sequence": [], "run_tracking": [], "write_tracks": []}
    stages: dict[str, list[float]] = {}
    faults: list[int] = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            seq = result = None  # the previous repeat's run is not kept through this one
            t0 = time.perf_counter()
            seq = load_sequence(dataset)
            t1 = time.perf_counter()
            if max_frames is not None:
                seq = replace(seq, frames=seq.frames[:max_frames])
            f1 = _minor_faults()
            result = run_tracking(seq, cfg, workers=workers)
            t2 = time.perf_counter()
            if f1 is not None:
                faults.append(_minor_faults() - f1)
            write_tracks(Path(tmp) / "tracks.jsonl", result.records)
            t3 = time.perf_counter()
            for step, seconds in zip(walls, (t1 - t0, t2 - t1, t3 - t2)):
                walls[step].append(seconds)
            for fr in result.frames:
                for stage, seconds in zip(STAGES, fr.seconds):
                    stages.setdefault(stage, []).append(seconds)
    clouds = 12 * max((len(fr.cloud) for fr in seq.frames), default=0)
    return {
        "label": label,
        "dataset": Path(dataset).resolve().name,
        "frames": len(seq.frames),
        "repeats": repeats,
        "workers": workers,
        "config": config_to_dict(cfg),
        "wall_ms": {step: _median_ms(runs) for step, runs in walls.items()},
        "stage_ms": {stage: _median_ms(runs) for stage, runs in stages.items()},
        "memory_mb": {"clouds": round(clouds / 2**20, 4), "peak_rss": _peak_rss_mb()},
        "minor_faults": statistics.median(faults) if faults else None,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count()
            ),
        },
        "commit": git_commit(Path(__file__).resolve().parent),
        "source_sha256": source_sha256(Path(__file__).resolve().parent),
    }


def _median_ms(seconds: list[float]) -> float:
    return round(statistics.median(seconds) * 1000.0, 4)


def _minor_faults() -> int | None:
    """Minor page faults the process has taken so far (all its threads),
    or None where the `resource` module is missing."""
    try:
        import resource
    except ImportError:  # not on Windows
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_mb() -> float | None:
    try:
        import resource
    except ImportError:  # not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB on Linux.
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 4)


def append_run(path, entry: dict) -> Path:
    """Add entry to the `runs` list of the JSON file at path, creating the
    file if it does not exist."""
    p = Path(path)
    doc: dict = {"runs": []}
    if p.exists():
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise DatasetError(p, f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            raise DatasetError(p, 'expected a JSON object with a "runs" list')
    doc["runs"].append(entry)
    p.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return p
