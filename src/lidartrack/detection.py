"""Axis-aligned box detection over clustered points.

A cluster becomes a detection when its box looks like a car: horizontal
extents, height, and footprint area all inside configured bounds, with
whichever horizontal extent is larger playing the role of length. The
reported box is axis-aligned in the frame the points are expressed in,
but the gate also takes the cluster's extents along every heading on a 1°
grid, so a car passes at any yaw to the sensor's axes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._frozen import check_shape, frozen
from .clustering import ClusterParams, dbscan
from .dataset_io import DrivableGrid, Frame
from .geometry import CameraModel, transform_point
from .preprocess import FrameStats, PreprocessConfig, preprocess_frame
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
        object.__setattr__(self, "center", frozen("center", self.center, np.float64, (3,)))
        if self.n_points < 1:
            raise ValueError("a detection needs at least one point")
        if min(self.length, self.width, self.height) < 0:
            raise ValueError("box extents cannot be negative")


def fit_box(points) -> Detection3D:
    """Axis-aligned bounding box of a cluster: per-axis extremes, center at
    the midpoint. A single point yields a zero-size box."""
    pts = np.asarray(points, dtype=np.float64)
    check_shape("points", pts, ("N", 3))
    if len(pts) == 0:
        raise ValueError("cannot fit a box to an empty cluster")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    return Detection3D(
        center=(lo + hi) / 2.0,
        length=float(hi[0] - lo[0]),
        width=float(hi[1] - lo[1]),
        height=float(hi[2] - lo[2]),
        n_points=len(pts),
    )


def _car_sized(a, b, height, limits: BoxLimits):
    """Whether a box with horizontal extents a and b, either way round, and
    this height passes the limits; elementwise over arrays of extents."""
    long, short = np.maximum(a, b), np.minimum(a, b)
    area = a * b
    return (
        (limits.min_length <= long) & (long <= limits.max_length)
        & (limits.min_width <= short) & (short <= limits.max_width)
        & (limits.min_height <= height) & (height <= limits.max_height)
        & (limits.min_area <= area) & (area <= limits.max_area)
    )


def passes_heuristics(det: Detection3D, limits: BoxLimits) -> bool:
    """Car-size test of the box as fitted, along the axes of its points."""
    return bool(_car_sized(det.length, det.width, det.height, limits))


# Unit vectors at 1° steps over a half turn: column k points along heading k°.
_HEADINGS = np.stack((np.cos(np.radians(np.arange(180))), np.sin(np.radians(np.arange(180)))))


def _car_sized_at_some_heading(xy: np.ndarray, height: float, limits: BoxLimits) -> bool:
    """Whether the (N, 2) cluster footprint, boxed along some heading k in
    1..89° (extents along k and k + 90°), passes the limits with this height."""
    along = xy @ _HEADINGS
    extents = along.max(axis=0) - along.min(axis=0)
    return bool(_car_sized(extents[1:90], extents[91:], height, limits).any())


class FrameDetections(NamedTuple):
    """What `detect` found in one frame."""

    detections: list[Detection3D]  # city frame, sorted by center x then y
    points: np.ndarray  # (N, 3) ego-frame points that reached clustering
    stats: FrameStats  # filled up to n_detections and box_fit


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
    numbered. The record gains n_clusters, n_detections and three stage times;
    box_fit covers the fit, the gate, the move to the city frame and the sort.
    """
    cloud, stats = preprocess_frame(frame, preprocess_cfg, cameras=cameras, drivable=drivable)
    pts = cloud.points
    t0 = time.perf_counter()
    index = KdTree(pts)
    t1 = time.perf_counter()
    labels = dbscan(index, cluster_params)
    t2 = time.perf_counter()
    detections = []
    for cid, idx in labels.iter_clusters():
        cluster = pts[idx]
        det = fit_box(cluster)
        if passes_heuristics(det, limits) or _car_sized_at_some_heading(
            cluster[:, :2], det.height, limits
        ):
            detections.append(det)
    city = [
        replace(det, center=transform_point(frame.ego_pose, det.center)) for det in detections
    ]
    city.sort(key=lambda d: (d.center[0], d.center[1]))
    t3 = time.perf_counter()
    stats = replace(
        stats,
        n_clusters=labels.n_clusters,
        n_detections=len(city),
        seconds=stats.seconds + (t1 - t0, t2 - t1, t3 - t2),
    )
    return FrameDetections(city, pts, stats)
