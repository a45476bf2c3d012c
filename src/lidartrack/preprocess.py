"""Point cloud reduction ahead of clustering.

Stage order is fixed: stride downsample, ground removal, drivable-area
filter, camera-mask filter. The downsample takes the frame's cloud, the
others a plain (N, 3) array, and each returns a C-contiguous (N, 3) array
of a subset of its input rows; coordinates are never modified, so a point
surviving to the end is the same float triple that came off the sensor. A
loaded frame's cloud is read from its file by the downsample, float32 as
stored, and the downsample keeps that dtype. Ground removal fits its plane
on the float32 rows and widens only the rows it keeps to float64, which is
exact. Every stage after the downsample returns float64 points, and one
called on float32 points gives the same answer as on the widened points.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._draws import FrameDraws
from ._frozen import FrozenRecord, check_shape, frozen
from .dataset_io import DrivableGrid, FileCloud, Frame, MaskRegion, PointCloud
from .errors import ConfigError
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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(frozen=True)
class Plane(FrozenRecord):
    """Plane normal . p + offset = 0 with unit normal, z component >= 0."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", frozen("normal", self.normal, np.float64, (3,)))


class GroundFit(NamedTuple):
    """The winning plane and its inlier mask over every row of the fitted
    array, False off the candidates."""

    plane: Plane
    inliers: np.ndarray


# The stages every frame goes through, in pipeline order.
STAGES = (
    "downsample", "ground_removal", "drivable_filter", "mask_filter",
    "kdtree_build", "clustering", "box_fit", "tracker_step",
)


@dataclass(frozen=True)
class FrameStats:
    """One frame's point counts and stage times: `preprocess_frame` fills it up
    to mask_filter, and detection and tracking add theirs with `replace`."""

    frame_index: int
    n_raw: int
    n_downsampled: int
    n_after_ground: int
    n_after_drivable: int
    n_after_masks: int
    # Wall time of the first len(seconds) of STAGES, a disabled filter's too.
    seconds: tuple[float, ...]
    n_clusters: int | None = None  # None until its stage has run
    n_detections: int | None = None
    n_tracks: int | None = None  # confirmed tracks reported this frame


def downsample_stride(cloud: PointCloud | FileCloud, stride: int) -> np.ndarray:
    """Every stride-th point of a frame's cloud, starting at index 0, as a
    C-contiguous array in the stored dtype.

    At stride 1 this is the cloud's own read-only array, with no copy: for
    a file-backed cloud, the array its file was read into. A file-backed
    cloud is read here, once, and at a larger stride its raw points are
    dropped on return.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return np.ascontiguousarray(cloud.points[::stride])


# Candidates every hypothesis is scored on before any full count: the half
# with the lowest z and the half with the highest z, where a plane that is
# not the ground leaves the most points off it. The probe is sized so that
# scoring every hypothesis on it costs about _PROBE_COUNTS full counts over
# the cloud, within _MIN_PROBE.._PROBE_POINTS candidates.
_PROBE_POINTS = 1024
_MIN_PROBE = 64
_PROBE_COUNTS = 4
# Above this many candidates the probe's z thresholds come from every
# (n // _SAMPLED_PROBE_ABOVE)-th candidate, not from all of them.
_SAMPLED_PROBE_ABOVE = 8192


def _probe_size(n_rows: int, iterations: int) -> int:
    """Probe candidates for a fit over n_rows rows with this many draws."""
    return min(_PROBE_POINTS, max(_MIN_PROBE, _PROBE_COUNTS * n_rows // iterations))


def _probe_rows(z: np.ndarray, cand: np.ndarray, firsts: np.ndarray, size: int) -> np.ndarray:
    """Candidate rows to score every hypothesis on: about `size` of those
    with the lowest and highest z, or all of them when there are no more
    than that. z is the cloud's z column, cand the candidate mask and
    firsts its `_block_firsts`. Any subset keeps the fit exact; the z
    extremes make it fast."""
    n = int(firsts[-1])
    if n <= size:
        return np.flatnonzero(cand)
    half = size // 2
    if n > _SAMPLED_PROBE_ABOVE:
        # The z of every step-th candidate, block by block: block b's first
        # candidate has rank firsts[b]. Copied, as a view would keep all of
        # each block's candidate z alive until the concatenate.
        step = n // _SAMPLED_PROBE_ABOVE
        blocks = zip(range(0, len(z), _COUNT_BLOCK), firsts.tolist())
        sample = np.concatenate([
            z[s : s + _COUNT_BLOCK][cand[s : s + _COUNT_BLOCK]][-first % step :: step].copy()
            for s, first in blocks
        ])
        k = -(-half * len(sample) // n)
        sample.partition((k - 1, len(sample) - k))
        near = z <= sample[k - 1]
        near |= z >= sample[len(sample) - k]
        near &= cand
        probe = np.flatnonzero(near)
        # Many candidates tied at a threshold make a large probe; pick exactly.
        if len(probe) <= 2 * size:
            return probe
    rows = np.flatnonzero(cand)
    order = np.argpartition(z[rows], (half - 1, n - half))
    return rows[np.concatenate((order[:half], order[n - half :]))]


# Probe rows scored against every hypothesis at a time.
_SCORE_ROWS = 256


def _proven_outliers(
    probe: np.ndarray, normals: np.ndarray, offsets: np.ndarray, tol: float
) -> np.ndarray:
    """Per plane (a row of normals and its offset), the probe points whose
    |distance| exceeds tol however the distance is rounded: a lower bound on
    the plane's outliers among the candidates the probe was taken from.
    Scored _SCORE_ROWS probe points at a time."""
    # Any order of evaluating |n . p + offset| errs by a few ulps of
    # 3 max|p| + |offset|; the margin is some 1e6 times that.
    limit = tol + 1e-9 * (3.0 * float(np.abs(probe).max()) + np.abs(offsets) + tol)
    outliers = np.zeros(len(normals), dtype=np.intp)
    dist = np.empty((min(len(probe), _SCORE_ROWS), len(normals)))
    for start in range(0, len(probe), _SCORE_ROWS):
        chunk = probe[start : start + _SCORE_ROWS]
        d = np.matmul(chunk, normals.T, out=dist[: len(chunk)])
        d += offsets
        np.abs(d, out=d)
        outliers += np.count_nonzero(d > limit, axis=0)
    return outliers


# Rows a full count widens at a time: one reused float64 buffer of this
# many rows (one more for the last block) stands in for a widened copy of a
# float32 cloud. The candidate mask is counted in blocks of as many rows.
_COUNT_BLOCK = 16384


def _block_firsts(cand: np.ndarray) -> np.ndarray:
    """The rank of the first candidate of each block of _COUNT_BLOCK rows
    (the last block may be short), and the candidate count last: block b
    holds the candidates of ranks firsts[b] to firsts[b + 1] - 1."""
    full = len(cand) // _COUNT_BLOCK * _COUNT_BLOCK
    counts = np.count_nonzero(cand[:full].reshape(-1, _COUNT_BLOCK), axis=1)
    if full < len(cand):
        counts = np.append(counts, np.count_nonzero(cand[full:]))
    return np.concatenate(([0], np.cumsum(counts)))


def _rank_rows(cand: np.ndarray, firsts: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """np.flatnonzero(cand)[ranks], without that list: only the blocks the
    ranks fall in (see `_block_firsts`) have their candidate rows listed,
    one block at a time."""
    blocks = np.searchsorted(firsts, ranks, side="right") - 1
    hit = np.zeros(len(firsts), dtype=bool)
    hit[blocks] = True
    rows = np.empty_like(ranks)
    for b in np.flatnonzero(hit).tolist():
        here = blocks == b
        start = b * _COUNT_BLOCK
        rows[here] = np.flatnonzero(cand[start : start + _COUNT_BLOCK])[ranks[here] - firsts[b]]
        rows[here] += start
    return rows


def _within_tol(pts: np.ndarray, normal: np.ndarray, offset, tol: float) -> np.ndarray:
    """|pts @ normal + offset| <= tol per row of the (N, 3) array pts, bit
    for bit as over pts widened to float64. Blocks of _COUNT_BLOCK rows are
    widened in turn into one buffer; a row's product with the normal does
    not depend on the rows around it, as long as it is not multiplied on
    its own: numpy takes a one-row product as a vector dot, which rounds
    differently. So a lone last row joins the block before it."""
    n = len(pts)
    block = np.empty((min(n, _COUNT_BLOCK + 1), 3))
    dist = np.empty(len(block))
    within = np.empty(n, dtype=bool)
    start = 0
    while start < n:
        stop = start + _COUNT_BLOCK
        if stop >= n - 1:
            stop = n
        m = stop - start
        np.copyto(block[:m], pts[start:stop])
        d = np.matmul(block[:m], normal, out=dist[:m])
        d += offset
        np.abs(d, out=d)
        np.less_equal(d, tol, out=within[start:stop])
        start = stop
    return within


def _ceil_in(dtype: np.dtype, below) -> np.floating:
    """The smallest value of the float dtype at or above `below`. For z of
    that dtype, z < it holds exactly where z < np.float64(below) does: no
    value of the dtype lies between the two."""
    below = np.float64(below)
    with np.errstate(over="ignore"):  # past the largest value is an infinity
        c = dtype.type(below)
        return np.nextafter(c, dtype.type(np.inf)) if c < below else c


def _ransac(pts: np.ndarray, below, cfg: PreprocessConfig, rng) -> GroundFit | str:
    """RANSAC plane fit over the candidate rows of the contiguous (N, 3)
    float32 or float64 array pts: the n rows whose z is below `below` in
    float64. Too few candidates, or no non-degenerate draw, returns the
    reason as a string instead of a fit.

    Returns the sample plane with the most inliers over cfg.ransac_iterations
    3-point draws (first-found wins ties); no least-squares refinement. The
    normal is oriented with a non-negative z component. The inlier mask
    covers all N rows: the winner's full count, |pts @ normal + offset| <=
    tol, under the candidate mask, so it is False off the candidates.

    All draws come from one rng.integers call of shape (iterations, 3),
    which yields the same triples, and leaves the generator in the same
    state, as one size-3 call per iteration. Draws with a repeated index
    or a cross product of norm below 1e-12 are dropped. Every hypothesis
    is built in whole-array steps that round as the per-draw loop does:
    the cross product column by column, and the norm and the offset with
    np.vecdot, the per-row BLAS dot that x.dot(x) and normal @ p also run.
    Only the 3 x iterations sample points are gathered. A draw is a rank
    among the candidates; the candidates are counted per block of
    _COUNT_BLOCK rows (`_block_firsts`), and only the blocks the ranks fall
    in have their rows listed (`_rank_rows`).

    The plane is the one a loop that counts every hypothesis's inliers over
    the gathered candidates would pick, bit for bit, ties included, but most
    hypotheses are never counted in full. Each is first scored on a probe of
    the candidates, where only proven outliers count: a point whose
    |distance| exceeds the tolerance by a rounding margin far larger than
    any difference between two evaluation orders of the same sum. So n minus
    the probe count bounds the hypothesis's inlier count from above, for a
    probe of any subset of the candidates. Hypotheses are counted in full in
    order of that bound, and one that cannot beat the best so far (a lower
    bound, or an equal bound and a later draw) is never counted. A full
    count is the loop's own expression, points @ normal + offset, taken over
    the whole array a block of rows at a time (`_within_tol`) and masked to
    the candidates: a row's product with the normal does not depend on the
    rows around it, so it has the bits of the count over the gathered
    candidates.

    The probe holds the candidates of lowest and highest z, where a plane
    that is not the ground leaves the most points off it. Its size is
    4 x N / iterations, so that scoring every hypothesis on it costs about
    four full counts, but at least 64 and at most 1,024 candidates
    (`_probe_size`). Up to _SAMPLED_PROBE_ABOVE candidates, np.argpartition
    picks the size / 2 lowest and highest (all candidates, if there are no
    more than size). Above that, a partition of every
    (n // _SAMPLED_PROBE_ABOVE)-th candidate's z, taken block by block,
    gives a low and a high threshold, and one comparison pass keeps the
    candidates at or beyond them, about size points. The probe is scored
    _SCORE_ROWS points at a time (`_proven_outliers`).

    No candidate is copied out of pts, and pts is never widened as a whole:
    the sample points and the probe are widened after they are gathered,
    and a full count widens a block of rows at a time. Beyond pts, a fit
    holds a copy of the z column (dropped once the probe is picked),
    the candidate mask, the mask of the probe's comparison pass, up to two
    inlier masks (the best so far and the one being counted), one count
    block and the probe: about 7 bytes a float32 row at most, and no list
    of the candidate rows unless the probe pick falls back to
    np.argpartition.
    """
    z = pts[:, 2].copy()  # comparisons over a strided column run 10x slower
    # The rows whose z is below it in float64, compared in z's own dtype: a
    # float64 bound would have numpy cast every float32 row first.
    cand = z < _ceil_in(z.dtype, below)
    firsts = _block_firsts(cand)
    n = int(firsts[-1])
    if n < max(3, cfg.min_plane_points):
        return f"insufficient ground candidates: {n} < {max(3, cfg.min_plane_points)}"
    tol = cfg.ransac_inlier_tol

    draws = rng.integers(0, n, size=(cfg.ransac_iterations, 3))
    i, j, k = draws.T
    draws = draws[(i != j) & (i != k) & (j != k)]
    sample = np.take(pts, _rank_rows(cand, firsts, draws), axis=0).astype(np.float64, copy=False)
    p0 = sample[:, 0]
    a = sample[:, 1] - p0
    b = sample[:, 2] - p0
    # Each component rounds exactly as np.cross does on one draw.
    normals = np.stack(
        (
            a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
            a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
            a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
        ),
        axis=1,
    )
    norms = np.sqrt(np.vecdot(normals, normals))
    keep = ~(norms < 1e-12)  # the loop's skip test: a NaN norm is kept, as there
    normals = normals[keep] / norms[keep, None]
    offsets = -np.vecdot(normals, p0[keep])
    down = normals[:, 2] < 0
    normals[down] = -normals[down]
    offsets[down] = -offsets[down]
    if not len(normals):
        return "no non-degenerate 3-point sample found"

    probe_rows = _probe_rows(z, cand, firsts, _probe_size(len(pts), cfg.ransac_iterations))
    del z  # the full counts read pts
    probe = np.take(pts, probe_rows, axis=0).astype(np.float64, copy=False)
    min_outliers = _proven_outliers(probe, normals, offsets, tol)
    best, best_count, best_inliers = -1, 0, None
    for h in np.argsort(min_outliers, kind="stable").tolist():
        bound = n - int(min_outliers[h])
        # Visited in falling bound, then rising h: nothing after this can win.
        if bound < best_count or (bound == best_count and h > best):
            break
        # Row by row, (pts @ normal)[cand] is bitwise pts[cand] @ normal.
        inliers = _within_tol(pts, normals[h], offsets[h], tol)
        inliers &= cand
        count = int(np.count_nonzero(inliers))
        if count > best_count or (count == best_count and h < best):
            best, best_count, best_inliers = h, count, inliers
    if best < 0:
        return "no non-degenerate 3-point sample found"
    return GroundFit(Plane(normals[best], float(offsets[best])), best_inliers)


def remove_ground(points: np.ndarray, cfg: PreprocessConfig, rng) -> np.ndarray:
    """Drop ground points: fit a plane below the split height, remove its inliers.

    The fit draws from rng, any object with numpy's
    integers(low, high, size); `preprocess_frame` passes each frame a
    FrameDraws([cfg.rng_seed, frame index]), the one seed rule the pipeline
    has: the draws np.random.default_rng of that seed would give.

    Points at or above z = -ground_split_height never count as ground. Lower
    points that sit off the fitted plane (walls, tires, curbs) are kept, in
    their original order, as float64. If _ransac returns a reason instead
    of a fit, all the points come back as float64, and a GroundFitWarning
    with that reason is emitted.

    The fit (_ransac) copies no candidate out of the points: its full counts
    run over all of them under the candidate mask, and the kept rows are
    gathered once.

    Float32 points are not widened as a whole. The fit runs on their rows and
    widens only what it computes with, exactly (see _ransac), and only the
    kept rows are widened on return, so the answer is the one on the points
    widened up front: on a stride-1 sweep frame, about 2% of the rows. Any
    other dtype is widened to float64 before the fit.
    """
    pts = np.asarray(points)
    pts = pts if pts.dtype == np.float32 else pts.astype(np.float64, copy=False)
    check_shape("points", pts, ("N", 3))
    fit = _ransac(pts, -cfg.ground_split_height, cfg, rng)
    if isinstance(fit, str):
        warnings.warn(f"ground fit skipped: {fit}", GroundFitWarning, stacklevel=2)
        return np.ascontiguousarray(pts, dtype=np.float64)
    kept = np.take(pts, np.flatnonzero(~fit.inliers), axis=0)
    return kept.astype(np.float64, copy=False)


def filter_drivable(points: np.ndarray, grid: DrivableGrid, ego_pose: RigidTransform) -> np.ndarray:
    """Keep ego-frame points whose city-frame x/y falls on a drivable cell."""
    points = np.asarray(points, dtype=np.float64)
    city = transform_points(ego_pose, points)  # checks the shape
    return points[grid.contains(city[:, :2])]


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
    points: np.ndarray,
    cameras: dict[str, CameraModel],
    masks: list[MaskRegion],
    strict: bool = False,
) -> np.ndarray:
    """Keep points that project inside at least one mask polygon.

    A point visible in some camera but inside no mask is dropped. A point
    visible in no camera is kept by default (the masks say nothing about
    it); strict=True drops those too, keeping only mask-confirmed points.
    """
    points = np.asarray(points, dtype=np.float64)
    check_shape("points", points, ("N", 3))
    if len(points) == 0 or (not masks and not strict):
        return points
    by_camera: dict[str, list[MaskRegion]] = {}
    for region in masks:
        if region.camera_id not in cameras:
            raise ConfigError(
                f"mask references camera {region.camera_id!r} which is not in the calibration"
            )
        by_camera.setdefault(region.camera_id, []).append(region)

    n = len(points)
    visible_any = np.zeros(n, dtype=bool)
    in_mask = np.zeros(n, dtype=bool)
    for cam_id in sorted(cameras):
        cam = cameras[cam_id]
        uv, _, visible = project_points(cam, points)
        visible_any |= visible
        if not np.any(visible):
            continue
        for region in by_camera.get(cam_id, []):
            hit = _points_in_polygon(uv[visible], region.polygon)
            idx = np.nonzero(visible)[0][hit]
            in_mask[idx] = True
    keep = in_mask if strict else (in_mask | ~visible_any)
    return points[keep]


def preprocess_frame(
    frame: Frame,
    cfg: PreprocessConfig,
    cameras: dict[str, CameraModel] | None = None,
    drivable: DrivableGrid | None = None,
) -> tuple[np.ndarray, FrameStats]:
    """Run the full reduction chain for one frame: its points and record.

    The RANSAC draws come from the package's own PCG64 stream, seeded
    [cfg.rng_seed, frame index]: the draws np.random.default_rng of that
    seed gives, without loading numpy.random. So frames can be processed in
    any order (or in parallel) with identical results. A loaded frame's
    file is read once, inside the downsample stage's time.
    """
    rng = FrameDraws([cfg.rng_seed, frame.index])
    n_raw = len(frame.cloud)
    t0 = time.perf_counter()
    points = downsample_stride(frame.cloud, cfg.stride)
    t1 = time.perf_counter()
    n_down = len(points)
    points = remove_ground(points, cfg, rng=rng)
    t2 = time.perf_counter()
    n_ground = len(points)
    if cfg.drivable_filter_enabled and drivable is not None:
        points = filter_drivable(points, drivable, frame.ego_pose)
    t3 = time.perf_counter()
    n_driv = len(points)
    if cfg.mask_filter_enabled:
        points = filter_by_masks(points, cameras or {}, frame.masks, strict=cfg.mask_filter_strict)
    t4 = time.perf_counter()
    n_mask = len(points)
    seconds = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
    return points, FrameStats(frame.index, n_raw, n_down, n_ground, n_driv, n_mask, seconds)
