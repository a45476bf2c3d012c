"""Timing harness: per-stage medians of the tracking run."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from .config import PipelineConfig
from .dataset_io import Sequence
from .pipeline import run_tracking


@dataclass(frozen=True)
class StageTiming:
    stage: str
    median_ms: float
    runs: int


def time_stages(seq: Sequence, cfg: PipelineConfig, max_frames: int | None = None) -> list[StageTiming]:
    """Per-stage median wall times of `run_tracking` over the first
    max_frames frames (all of them by default), in pipeline order."""
    if max_frames is not None:
        seq = replace(seq, frames=seq.frames[:max_frames])
    samples: dict[str, list[float]] = {}
    for fr in run_tracking(seq, cfg).frames:
        for stage, seconds in fr.stage_seconds.items():
            samples.setdefault(stage, []).append(seconds)
    return [
        StageTiming(stage, statistics.median(runs) * 1000.0, len(runs))
        for stage, runs in samples.items()
    ]

