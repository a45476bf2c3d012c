"""Timing harness for the pipeline stages and the clustering kernels."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .clustering import ClusterParams, dbscan
from .config import PipelineConfig
from .dataset_io import Sequence
from .detection import fit_box, passes_heuristics
from .geometry import transform_point
from .preprocess import downsample_stride, filter_by_masks, filter_drivable, remove_ground
from .spatial_index import BruteForceIndex, KdTree
from .tracking import Tracker


@dataclass(frozen=True)
class StageTiming:
    stage: str
    median_ms: float
    runs: int


def _med(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0 if samples else 0.0


def time_stages(seq: Sequence, cfg: PipelineConfig, max_frames: int | None = None) -> list[StageTiming]:
    """Per-stage median wall times over the frames of a sequence."""
    frames = seq.frames if max_frames is None else seq.frames[:max_frames]
    buckets: dict[str, list[float]] = {
        name: []
        for name in (
            "downsample",
            "ground_removal",
            "drivable_filter",
            "mask_filter",
            "kdtree_build",
            "clustering",
            "box_fit",
            "tracker_step",
        )
    }
    tracker = Tracker(cfg.tracker)
    pp = cfg.preprocess
    for frame in frames:
        rng = np.random.default_rng([pp.rng_seed, frame.index])
        t0 = time.perf_counter()
        cloud = downsample_stride(frame.cloud, pp.stride)
        t1 = time.perf_counter()
        cloud = remove_ground(cloud, pp, rng=rng)
        t2 = time.perf_counter()
        if pp.drivable_filter_enabled and seq.drivable is not None:
            cloud = filter_drivable(cloud, seq.drivable, frame.ego_pose)
        t3 = time.perf_counter()
        if pp.mask_filter_enabled:
            cloud = filter_by_masks(cloud, seq.cameras, frame.masks, strict=pp.mask_filter_strict)
        t4 = time.perf_counter()
        pts = cloud.points
        index = KdTree(pts) if len(pts) else None
        t5 = time.perf_counter()
        labels = dbscan(pts, cfg.clustering, index) if index is not None else None
        t6 = time.perf_counter()
        detections = []
        if labels is not None:
            for cid, idx in labels.iter_clusters():
                det = fit_box(pts[idx], frame_index=frame.index)
                if passes_heuristics(det, cfg.box_limits):
                    detections.append(det)
            detections = [
                replace(d, center=transform_point(frame.ego_pose, d.center)) for d in detections
            ]
            detections.sort(key=lambda d: (d.center[0], d.center[1]))
        t7 = time.perf_counter()
        tracker.step(detections, frame.timestamp)
        t8 = time.perf_counter()

        buckets["downsample"].append(t1 - t0)
        buckets["ground_removal"].append(t2 - t1)
        buckets["drivable_filter"].append(t3 - t2)
        buckets["mask_filter"].append(t4 - t3)
        buckets["kdtree_build"].append(t5 - t4)
        buckets["clustering"].append(t6 - t5)
        buckets["box_fit"].append(t7 - t6)
        buckets["tracker_step"].append(t8 - t7)
    return [StageTiming(name, _med(samples), len(samples)) for name, samples in buckets.items()]


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
