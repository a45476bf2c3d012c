"""Sequence-level tracking runs: per-frame detection feeding one tracker.

`detect_frames` is where `track` and `plot` take each frame's detections
from. It runs detection in the calling thread at 1 worker and on a thread
pool above that, and yields frames in order either way, which is what makes
worker count irrelevant to the output. A frame's points are read by the
detection that takes it and dropped after its downsample, so a run holds at
most one raw cloud per worker; the tracker reads only index and timestamp.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from .config import PipelineConfig
from .dataset_io import Frame, Sequence, TrackRecord
from .detection import FrameDetections, detect
from .preprocess import PreprocessStats
from .tracking import Tracker


@dataclass
class FrameResult:
    frame_index: int
    timestamp: float
    stats: PreprocessStats
    n_clusters: int
    n_detections: int
    # downsample, ground_removal, drivable_filter, mask_filter, kdtree_build,
    # clustering, box_fit, tracker_step: wall time of each, in that order.
    # downsample includes reading a loaded frame's file; ground_removal
    # includes widening the float32 points it keeps to float64.
    stage_seconds: dict[str, float]
    n_tracks: int  # confirmed tracks reported this frame


@dataclass
class RunResult:
    frames: list[FrameResult]
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
    results: list[FrameResult] = []
    records: list[TrackRecord] = []
    for frame, found in detect_frames(seq, cfg, workers):
        t0 = time.perf_counter()
        frame_records = tracker.step(found.detections, frame.timestamp, frame.index)
        tracker_step = time.perf_counter() - t0
        results.append(
            FrameResult(
                frame_index=frame.index,
                timestamp=frame.timestamp,
                stats=found.stats,
                n_clusters=found.n_clusters,
                n_detections=len(found.detections),
                stage_seconds={**found.stage_seconds, "tracker_step": tracker_step},
                n_tracks=len(frame_records),
            )
        )
        records.extend(frame_records)
    return RunResult(
        frames=results, records=records, total_seconds=time.perf_counter() - t_start
    )
