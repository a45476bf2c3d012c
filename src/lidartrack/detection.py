"""Axis-aligned box detection over clustered points.

A cluster becomes a detection when its bounding box looks like a car:
horizontal extents, height, and footprint area all inside configured
bounds. The box is axis-aligned in the frame the points are expressed in;
whichever horizontal extent is larger plays the role of length, so the
gate does not care how the car is oriented relative to the axes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .clustering import ClusterParams, dbscan
from .dataset_io import DrivableGrid, Frame
from .geometry import CameraModel, transform_point
from .preprocess import PreprocessConfig, PreprocessStats, preprocess_frame
from .spatial_index import KdTree


@dataclass(frozen=True)
class BoxLimits:
    """Car-sized gate on box dimensions; all bounds are inclusive."""

    min_length: float = 1.0
    max_length: float = 7.0
    min_width: float = 0.5
    max_width: float = 3.0
    min_height: float = 0.5
    max_height: float = 3.0
    min_area: float = 0.5
    max_area: float = 20.0

    def __post_init__(self):
        for dim in ("length", "width", "height", "area"):
            low, high = getattr(self, f"min_{dim}"), getattr(self, f"max_{dim}")
            if not 0 <= low <= high:  # else no box passes
                raise ValueError(f"'min_{dim}' ({low}) must be >= 0 and <= 'max_{dim}' ({high})")


@dataclass(frozen=True)
class Detection3D:
    center: np.ndarray  # (3,)
    length: float  # x extent of the fitted box
    width: float  # y extent
    height: float  # z extent
    n_points: int

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64).reshape(3)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        if self.n_points < 1:
            raise ValueError("a detection needs at least one point")
        if min(self.length, self.width, self.height) < 0:
            raise ValueError("box extents cannot be negative")


def fit_box(points) -> Detection3D:
    """Axis-aligned bounding box of a cluster: per-axis extremes, center at
    the midpoint. A single point yields a zero-size box."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError(f"expected non-empty (N, 3) points, got shape {pts.shape}")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    return Detection3D(
        center=(lo + hi) / 2.0,
        length=float(hi[0] - lo[0]),
        width=float(hi[1] - lo[1]),
        height=float(hi[2] - lo[2]),
        n_points=len(pts),
    )


def passes_heuristics(det: Detection3D, limits: BoxLimits) -> bool:
    """Car-size test, orientation agnostic in the horizontal plane."""
    horiz = sorted((det.length, det.width))
    short, long = horiz[0], horiz[1]
    area = det.length * det.width
    return (
        limits.min_length <= long <= limits.max_length
        and limits.min_width <= short <= limits.max_width
        and limits.min_height <= det.height <= limits.max_height
        and limits.min_area <= area <= limits.max_area
    )


class FrameDetections(NamedTuple):
    """What `detect` found in one frame."""

    detections: list[Detection3D]  # city frame, sorted by center x then y
    stats: PreprocessStats
    n_clusters: int
    points: np.ndarray  # (N, 3) ego-frame points that reached clustering
    # The preprocess stages, then kdtree_build, clustering and box_fit.
    stage_seconds: dict[str, float]


def detect(
    frame: Frame,
    preprocess_cfg: PreprocessConfig,
    cluster_params: ClusterParams,
    limits: BoxLimits,
    cameras: dict[str, CameraModel] | None = None,
    drivable: DrivableGrid | None = None,
) -> FrameDetections:
    """Full single-frame detection: preprocess, cluster, fit, gate.

    Detections are in the city frame, sorted by center x then y so
    downstream consumers see a stable order no matter how clusters were
    numbered. The box_fit stage covers the fit, the gate, the move to the
    city frame and the sort.
    """
    cloud, stats = preprocess_frame(frame, preprocess_cfg, cameras=cameras, drivable=drivable)
    pts = cloud.points
    seconds = dict(stats.stage_seconds)
    if len(pts) == 0:
        seconds.update(kdtree_build=0.0, clustering=0.0, box_fit=0.0)
        return FrameDetections([], stats, 0, pts, seconds)
    t0 = time.perf_counter()
    index = KdTree(pts)
    t1 = time.perf_counter()
    labels = dbscan(pts, cluster_params, index)
    t2 = time.perf_counter()
    detections = []
    for cid, idx in labels.iter_clusters():
        det = fit_box(pts[idx])
        if passes_heuristics(det, limits):
            detections.append(det)
    city = [
        replace(det, center=transform_point(frame.ego_pose, det.center)) for det in detections
    ]
    city.sort(key=lambda d: (d.center[0], d.center[1]))
    t3 = time.perf_counter()
    seconds.update(kdtree_build=t1 - t0, clustering=t2 - t1, box_fit=t3 - t2)
    return FrameDetections(city, stats, labels.n_clusters, pts, seconds)
