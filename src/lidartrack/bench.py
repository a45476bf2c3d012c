"""Timing harness: per-stage medians of the tracking run, and DBSCAN on a
KD-tree against a linear-scan index."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .clustering import ClusterParams, dbscan
from .config import PipelineConfig
from .dataset_io import Sequence
from .pipeline import run_tracking
from .spatial_index import BruteForceIndex, KdTree


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


@dataclass(frozen=True)
class ClusterBenchRow:
    method: str
    seconds: float
    n_clusters: int
    speedup_vs_brute: float


def bench_cloud(n_points: int, seed: int = 0) -> np.ndarray:
    """Uniform cloud in a 50 m cube; every point becomes one radius query."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 50.0, size=(n_points, 3))


def bench_clustering(
    points: np.ndarray, params: ClusterParams | None = None
) -> list[ClusterBenchRow]:
    """Time one full DBSCAN pass per method: KD-tree, then the linear-scan
    baseline. Tree timings include the build; the comparison is end to end
    for one frame's clustering."""
    params = params or ClusterParams(eps=1.0, min_points=5)
    rows = []
    results = {}
    t0 = time.perf_counter()
    labels = dbscan(points, params, KdTree(points))
    results["kdtree"] = (time.perf_counter() - t0, labels)
    t0 = time.perf_counter()
    brute_labels = dbscan(points, params, BruteForceIndex(points))
    brute_dt = time.perf_counter() - t0
    results["brute"] = (brute_dt, brute_labels)

    for method, (dt, labels) in results.items():
        if not np.array_equal(labels.labels, brute_labels.labels):
            raise AssertionError(f"{method} labels diverge from the brute-force reference")
        rows.append(
            ClusterBenchRow(
                method=method,
                seconds=dt,
                n_clusters=labels.n_clusters,
                speedup_vs_brute=brute_dt / dt if dt > 0 else float("inf"),
            )
        )
    return rows
