"""Point cloud reduction ahead of clustering.

Stage order is fixed: stride downsample, ground removal, drivable-area
filter, camera-mask filter. Every stage returns a subset of its input rows;
coordinates are never modified, so a point surviving to the end is the same
float triple that came off the sensor.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset_io import DrivableGrid, Frame, MaskRegion, PointCloud
from .errors import ConfigError, GroundPlaneError
from .geometry import CameraModel, RigidTransform, project_points, transform_points


class GroundFitWarning(UserWarning):
    """Raised as a warning when RANSAC cannot fit a ground plane."""


@dataclass(frozen=True)
class PreprocessConfig:
    stride: int = 10
    ground_split_height: float = 1.5
    ransac_iterations: int = 100
    ransac_inlier_tol: float = 0.15
    min_plane_points: int = 50
    drivable_filter_enabled: bool = True
    mask_filter_enabled: bool = False
    mask_filter_strict: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.ransac_iterations < 1:
            raise ValueError("ransac_iterations must be >= 1")
        if self.ransac_inlier_tol <= 0:
            raise ValueError("ransac_inlier_tol must be positive")
        if self.min_plane_points < 1:
            raise ValueError("min_plane_points must be >= 1")


@dataclass(frozen=True)
class Plane:
    """Plane normal . p + offset = 0 with unit normal, z component >= 0."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.normal + self.offset


@dataclass(frozen=True)
class PreprocessStats:
    n_raw: int
    n_downsampled: int
    n_after_ground: int
    n_after_drivable: int
    n_after_masks: int
    # Wall time of each stage, in stage order: downsample, ground_removal,
    # drivable_filter, mask_filter. A disabled filter still gets its entry.
    stage_seconds: dict[str, float]


def downsample_stride(cloud: PointCloud, stride: int) -> PointCloud:
    """Keep every stride-th point starting at index 0."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if stride == 1:
        return cloud
    return PointCloud(cloud.points[::stride], cloud.frame)


# Candidates every hypothesis is scored on before any full count: the half
# with the lowest z and the half with the highest z, where a plane that is
# not the ground leaves the most points off it.
_PROBE_POINTS = 1024


def _proven_outliers(pts: np.ndarray, planes: list[Plane], tol: float) -> np.ndarray:
    """Per plane, the probe points whose |distance| exceeds tol however the
    distance is rounded: a lower bound on the plane's outliers in pts."""
    n = len(pts)
    if n > _PROBE_POINTS:
        half = _PROBE_POINTS // 2
        order = np.argpartition(pts[:, 2], (half - 1, n - half))
        probe = pts[np.concatenate((order[:half], order[n - half :]))]
    else:
        probe = pts
    normals = np.array([p.normal for p in planes])
    offsets = np.array([p.offset for p in planes])
    # Any order of evaluating |n . p + offset| errs by a few ulps of
    # 3 max|p| + |offset|; the margin is some 1e6 times that.
    limit = tol + 1e-9 * (3.0 * float(np.abs(probe).max()) + np.abs(offsets) + tol)
    dist = probe @ normals.T
    dist += offsets
    np.abs(dist, out=dist)
    return np.count_nonzero(dist > limit, axis=0)


def fit_ground_plane(points, cfg: PreprocessConfig, rng=None) -> Plane:
    """RANSAC plane fit over candidate ground points.

    Returns the sample plane with the most inliers over cfg.ransac_iterations
    3-point draws (first-found wins ties); no least-squares refinement. The
    normal is oriented with a non-negative z component.

    The plane is the one a loop that counts every hypothesis's inliers over
    all points would pick, bit for bit, ties included, but most hypotheses
    are never counted in full. Each is first scored on a probe of at most
    _PROBE_POINTS candidates, where only proven outliers count: a point
    whose |distance| exceeds the tolerance by a rounding margin far larger
    than any difference between two evaluation orders of the same sum. So
    n minus the probe count bounds the hypothesis's inlier count from above.
    Hypotheses are counted in full in order of that bound, and one that
    cannot beat the best so far (a lower bound, or an equal bound and a
    later draw) is never counted. A full count is the loop's own expression,
    Plane.signed_distance over all candidates.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    n = len(pts)
    if n < max(3, cfg.min_plane_points):
        raise GroundPlaneError(
            f"insufficient ground candidates: {n} < {max(3, cfg.min_plane_points)}"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    tol = cfg.ransac_inlier_tol

    planes = []
    for _ in range(cfg.ransac_iterations):
        i, j, k = rng.integers(0, n, size=3).tolist()
        if i == j or i == k or j == k:
            continue
        xi, yi, zi = pts[i].tolist()
        xj, yj, zj = pts[j].tolist()
        xk, yk, zk = pts[k].tolist()
        ax, ay, az = xj - xi, yj - yi, zj - zi
        bx, by, bz = xk - xi, yk - yi, zk - zi
        # Each component rounds exactly as np.cross does; norm and the
        # offset stay on numpy's BLAS dot, which scalar sums do not match.
        normal = np.array((ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx))
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        offset = -float(normal @ pts[i])
        if normal[2] < 0:
            normal = -normal
            offset = -offset
        planes.append(Plane(normal, offset))
    if not planes:
        raise GroundPlaneError("no non-degenerate 3-point sample found")

    min_outliers = _proven_outliers(pts, planes, tol)
    best, best_count = -1, 0
    for h in np.argsort(min_outliers, kind="stable").tolist():
        bound = n - int(min_outliers[h])
        # Visited in falling bound, then rising h: nothing after this can win.
        if bound < best_count or (bound == best_count and h > best):
            break
        count = int(np.count_nonzero(np.abs(planes[h].signed_distance(pts)) <= tol))
        if count > best_count or (count == best_count and h < best):
            best, best_count = h, count
    if best < 0:
        raise GroundPlaneError("no non-degenerate 3-point sample found")
    return planes[best]


def remove_ground(cloud: PointCloud, cfg: PreprocessConfig, rng=None) -> PointCloud:
    """Drop ground points: fit a plane below the split height, remove its inliers.

    Points at or above z = -ground_split_height never count as ground. Lower
    points that sit off the fitted plane (walls, tires, curbs) are kept, in
    their original order. If the fit fails the cloud comes back unchanged and
    a GroundFitWarning is emitted.
    """
    pts = cloud.points
    lower = pts[:, 2] < -cfg.ground_split_height
    try:
        plane = fit_ground_plane(pts[lower], cfg, rng=rng)
    except (GroundPlaneError, ValueError) as exc:
        warnings.warn(f"ground fit skipped: {exc}", GroundFitWarning, stacklevel=2)
        return cloud
    keep = np.ones(len(pts), dtype=bool)
    lower_idx = np.nonzero(lower)[0]
    inlier = np.abs(plane.signed_distance(pts[lower_idx])) <= cfg.ransac_inlier_tol
    keep[lower_idx[inlier]] = False
    return PointCloud(pts[keep], cloud.frame)


def filter_drivable(cloud: PointCloud, grid: DrivableGrid, ego_pose: RigidTransform) -> PointCloud:
    """Keep ego-frame points whose city-frame x/y falls on a drivable cell."""
    if len(cloud) == 0:
        return cloud
    city = transform_points(ego_pose, cloud.points)
    keep = grid.contains(city[:, :2])
    return PointCloud(cloud.points[keep], cloud.frame)


def _points_in_polygon(uv: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd test for (N, 2) pixels against one polygon; edges count inside."""
    u = uv[:, 0]
    v = uv[:, 1]
    inside = np.zeros(len(uv), dtype=bool)
    on_edge = np.zeros(len(uv), dtype=bool)
    k = len(poly)
    for a in range(k):
        x1, y1 = poly[a]
        x2, y2 = poly[(a + 1) % k]
        cross = (x2 - x1) * (v - y1) - (y2 - y1) * (u - x1)
        bbox = (
            (u >= min(x1, x2))
            & (u <= max(x1, x2))
            & (v >= min(y1, y2))
            & (v <= max(y1, y2))
        )
        on_edge |= (cross == 0.0) & bbox
        straddles = (y1 > v) != (y2 > v)
        if np.any(straddles):
            with np.errstate(divide="ignore", invalid="ignore"):
                x_at_v = (x2 - x1) * (v - y1) / (y2 - y1) + x1
            inside ^= straddles & (u < x_at_v)
    return inside | on_edge


def filter_by_masks(
    cloud: PointCloud,
    cameras: dict[str, CameraModel],
    masks: list[MaskRegion],
    strict: bool = False,
) -> PointCloud:
    """Keep points that project inside at least one mask polygon.

    A point visible in some camera but inside no mask is dropped. A point
    visible in no camera is kept by default (the masks say nothing about
    it); strict=True drops those too, keeping only mask-confirmed points.
    """
    if len(cloud) == 0 or (not masks and not strict):
        return cloud
    by_camera: dict[str, list[MaskRegion]] = {}
    for region in masks:
        if region.camera_id not in cameras:
            raise ConfigError(
                f"mask references camera {region.camera_id!r} which is not in the calibration"
            )
        by_camera.setdefault(region.camera_id, []).append(region)

    n = len(cloud)
    visible_any = np.zeros(n, dtype=bool)
    in_mask = np.zeros(n, dtype=bool)
    for cam_id in sorted(cameras):
        cam = cameras[cam_id]
        uv, _, visible = project_points(cam, cloud.points)
        visible_any |= visible
        if not np.any(visible):
            continue
        for region in by_camera.get(cam_id, []):
            hit = _points_in_polygon(uv[visible], region.polygon)
            idx = np.nonzero(visible)[0][hit]
            in_mask[idx] = True
    keep = in_mask if strict else (in_mask | ~visible_any)
    return PointCloud(cloud.points[keep], cloud.frame)


def preprocess_frame(
    frame: Frame,
    cfg: PreprocessConfig,
    cameras: dict[str, CameraModel] | None = None,
    drivable: DrivableGrid | None = None,
    rng=None,
) -> tuple[PointCloud, PreprocessStats]:
    """Run the full reduction chain for one frame.

    The RANSAC stream defaults to a per-frame child of cfg.rng_seed so frames
    can be processed in any order (or in parallel) with identical results.
    """
    if rng is None:
        rng = np.random.default_rng([cfg.rng_seed, frame.index])
    cloud = frame.cloud
    n_raw = len(cloud)
    t0 = time.perf_counter()
    cloud = downsample_stride(cloud, cfg.stride)
    t1 = time.perf_counter()
    n_down = len(cloud)
    cloud = remove_ground(cloud, cfg, rng=rng)
    t2 = time.perf_counter()
    n_ground = len(cloud)
    if cfg.drivable_filter_enabled and drivable is not None:
        cloud = filter_drivable(cloud, drivable, frame.ego_pose)
    t3 = time.perf_counter()
    n_driv = len(cloud)
    if cfg.mask_filter_enabled:
        cloud = filter_by_masks(cloud, cameras or {}, frame.masks, strict=cfg.mask_filter_strict)
    t4 = time.perf_counter()
    n_mask = len(cloud)
    seconds = {
        "downsample": t1 - t0,
        "ground_removal": t2 - t1,
        "drivable_filter": t3 - t2,
        "mask_filter": t4 - t3,
    }
    return cloud, PreprocessStats(n_raw, n_down, n_ground, n_driv, n_mask, seconds)
