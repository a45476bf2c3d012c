"""Sequence-level tracking runs: per-frame detection feeding one tracker.

`detect_frames` is where `track` and `plot` take each frame's detections
from. It runs detection in the calling thread at 1 worker and on a thread
pool above that, and yields frames in order either way, which is what makes
worker count irrelevant to the output. A frame's points are read by the
detection that takes it and dropped after its downsample, so a run holds at
most one raw cloud per worker; the tracker reads only index and timestamp.
`run_tracking` adds the tracker's count and time to each frame's record.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterator

from .config import PipelineConfig
from .dataset_io import Frame, Sequence, TrackRecord
from .detection import FrameDetections, detect
from .preprocess import FrameStats
from .tracking import Tracker


@dataclass
class RunResult:
    frames: list[FrameStats]  # one complete record per frame, in order
    records: list[TrackRecord]
    total_seconds: float

    @property
    def confirmed_ids(self) -> set[int]:
        return {rec.track_id for rec in self.records}


def detect_frames(
    seq: Sequence, cfg: PipelineConfig, workers: int = 1
) -> Iterator[tuple[Frame, FrameDetections]]:
    """(frame, what `detect` found in it) for each frame of seq, in order. At 1
    worker a frame is detected only once the one before it has been taken."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # Bound here, not at import, so a wrapper installed at pipeline.detect runs.
    detect_one = partial(
        detect,
        preprocess_cfg=cfg.preprocess,
        cluster_params=cfg.clustering,
        limits=cfg.box_limits,
        cameras=seq.cameras,
        drivable=seq.drivable,
    )
    if workers == 1:
        yield from zip(seq.frames, map(detect_one, seq.frames))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from zip(seq.frames, pool.map(detect_one, seq.frames))


def run_tracking(seq: Sequence, cfg: PipelineConfig, workers: int = 1) -> RunResult:
    """Detect and track the whole sequence; workers only affects wall time."""
    t_start = time.perf_counter()
    tracker = Tracker(cfg.tracker)
    frames: list[FrameStats] = []
    records: list[TrackRecord] = []
    for frame, found in detect_frames(seq, cfg, workers):
        t0 = time.perf_counter()
        frame_records = tracker.step(found.detections, frame.timestamp, frame.index)
        seconds = found.stats.seconds + (time.perf_counter() - t0,)
        frames.append(replace(found.stats, n_tracks=len(frame_records), seconds=seconds))
        records.extend(frame_records)
    return RunResult(
        frames=frames, records=records, total_seconds=time.perf_counter() - t_start
    )
