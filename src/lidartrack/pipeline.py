"""Sequence-level tracking runs: per-frame detection feeding one tracker.

Detection is independent per frame, so with workers > 1 it fans out over a
thread pool. The tracker itself consumes frames strictly in order;
executor.map preserves input order, which is what makes worker count
irrelevant to the output. A loaded frame's points are read from its file by
the detection that takes it and dropped after its downsample, so a run
holds at most one raw cloud per worker; the tracker reads only a frame's
index and timestamp.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


def _detect_one(frame: Frame, seq: Sequence, cfg: PipelineConfig) -> FrameDetections:
    return detect(
        frame,
        cfg.preprocess,
        cfg.clustering,
        cfg.box_limits,
        cameras=seq.cameras,
        drivable=seq.drivable,
    )


def run_tracking(seq: Sequence, cfg: PipelineConfig, workers: int = 1) -> RunResult:
    """Detect and track the whole sequence; workers only affects wall time."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t_start = time.perf_counter()
    tracker = Tracker(cfg.tracker)
    results: list[FrameResult] = []
    records: list[TrackRecord] = []

    def consume(frame: Frame, found: FrameDetections) -> None:
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

    if workers == 1:
        for frame in seq.frames:
            consume(frame, _detect_one(frame, seq, cfg))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            payloads = pool.map(lambda fr: _detect_one(fr, seq, cfg), seq.frames)
            for frame, payload in zip(seq.frames, payloads):
                consume(frame, payload)

    return RunResult(
        frames=results, records=records, total_seconds=time.perf_counter() - t_start
    )
