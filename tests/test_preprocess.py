"""Downsampling, RANSAC ground removal, drivable and mask filters."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import quat_from_yaw

from lidartrack import dataset_io, preprocess
from lidartrack.clustering import dbscan
from lidartrack.config import PipelineConfig
from lidartrack.dataset_io import (
    DrivableGrid,
    Frame,
    MaskRegion,
    PointCloud,
    load_sequence,
    write_sequence,
)
from lidartrack.detection import detect
from lidartrack.spatial_index import KdTree
from lidartrack.errors import ConfigError
from lidartrack.synth import SynthConfig, generate
from lidartrack.geometry import (
    CameraModel,
    RigidTransform,
    identity_transform,
)
from lidartrack.preprocess import (
    _COUNT_BLOCK,
    _MIN_PROBE,
    _PROBE_POINTS,
    _SAMPLED_PROBE_ABOVE,
    _SCORE_ROWS,
    GroundFitWarning,
    Plane,
    PreprocessConfig,
    _block_firsts,
    _points_in_polygon,
    _probe_rows,
    _probe_size,
    _proven_outliers,
    _rank_rows,
    _within_tol,
    downsample_stride,
    filter_by_masks,
    filter_drivable,
    preprocess_frame,
    remove_ground,
)


def make_cloud(points):
    return PointCloud(np.asarray(points, dtype=np.float64))


def fit_all(pts, cfg, rng=None):
    """The ground fit over every row: a split above every point."""
    return preprocess._ransac(pts, np.inf, cfg, rng)


def flat_ground(rng, n, z=-1.8, extent=20.0, sigma=0.0):
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(-extent, extent, size=n)
    pts[:, 1] = rng.uniform(-extent, extent, size=n)
    pts[:, 2] = z + (rng.normal(scale=sigma, size=n) if sigma else 0.0)
    return pts


def test_downsample_keeps_every_stride_th_point():
    pts = np.arange(30, dtype=np.float64).reshape(10, 3)
    out = downsample_stride(make_cloud(pts), 3)
    assert np.array_equal(out, pts[[0, 3, 6, 9]])


def test_downsample_stride_one_is_identity():
    pts = np.random.default_rng(0).uniform(size=(11, 3))
    out = downsample_stride(make_cloud(pts), 1)
    assert np.array_equal(out, pts)


def test_downsample_rejects_bad_stride():
    with pytest.raises(ValueError):
        downsample_stride(make_cloud(np.zeros((5, 3))), 0)


def test_fit_recovers_flat_plane_exactly():
    rng = np.random.default_rng(300)
    pts = flat_ground(rng, 200, z=-1.8)
    cfg = PreprocessConfig(min_plane_points=50)
    plane = fit_all(pts, cfg, rng=np.random.default_rng(1)).plane
    assert np.allclose(plane.normal, [0, 0, 1], atol=1e-9)
    assert np.isclose(plane.offset, 1.8, atol=1e-9)


def test_fit_recovers_tilted_plane():
    rng = np.random.default_rng(301)
    # 3 degree slope along x.
    slope = np.tan(np.radians(3.0))
    pts = flat_ground(rng, 300, z=0.0)
    pts[:, 2] = -1.8 + slope * pts[:, 0] + rng.normal(scale=0.01, size=len(pts))
    cfg = PreprocessConfig()
    plane = fit_all(pts, cfg, rng=np.random.default_rng(2)).plane
    true_normal = np.array([-slope, 0.0, 1.0])
    true_normal /= np.linalg.norm(true_normal)
    angle = np.degrees(np.arccos(np.clip(plane.normal @ true_normal, -1, 1)))
    assert angle < 2.0


def test_fit_is_deterministic_for_a_seeded_rng():
    rng = np.random.default_rng(302)
    pts = flat_ground(rng, 150, sigma=0.02)
    cfg = PreprocessConfig()
    p1 = fit_all(pts, cfg, rng=np.random.default_rng(7)).plane
    p2 = fit_all(pts, cfg, rng=np.random.default_rng(7)).plane
    assert np.array_equal(p1.normal, p2.normal) and p1.offset == p2.offset


def test_fit_requires_minimum_candidates():
    pts = flat_ground(np.random.default_rng(303), 20)
    reason = fit_all(pts, PreprocessConfig(min_plane_points=50))
    assert reason == "insufficient ground candidates: 20 < 50"


def test_fit_normal_points_up():
    rng = np.random.default_rng(304)
    pts = flat_ground(rng, 120)
    plane = fit_all(pts, PreprocessConfig(), rng=np.random.default_rng(3)).plane
    assert plane.normal[2] >= 0


def test_remove_ground_drops_plane_keeps_objects():
    rng = np.random.default_rng(305)
    ground = flat_ground(rng, 500, z=-1.8)
    # A car-ish blob well above the split height and a low obstacle below it
    # but off the plane.
    car = rng.normal(scale=0.3, size=(60, 3)) + [5.0, 2.0, -0.5]
    curb = rng.normal(scale=0.02, size=(30, 3)) + [8.0, -3.0, -1.55 - 0.0]
    curb[:, 2] = -1.6  # 0.2 above the plane: outside the 0.15 tolerance
    pts = np.vstack([ground, car, curb])
    out = remove_ground(pts, PreprocessConfig(), rng=np.random.default_rng(4))
    assert len(out) == 90
    assert np.array_equal(out, np.vstack([car, curb]))


def test_remove_ground_ignores_points_above_split():
    rng = np.random.default_rng(306)
    # Ground just below the split height; the probe point at z = -1.45 is
    # within the plane tolerance (0.10 < 0.15) but above the split, so the
    # gate alone is what keeps it.
    ground = flat_ground(rng, 300, z=-1.55)
    high = np.array([[0.0, 0.0, -1.45], [1.0, 1.0, 0.5]])
    pts = np.vstack([ground, high])
    out = remove_ground(pts, PreprocessConfig(), rng=np.random.default_rng(5))
    assert len(out) == 2
    assert np.array_equal(out, high)


def test_remove_ground_preserves_order():
    rng = np.random.default_rng(307)
    ground = flat_ground(rng, 200, z=-1.8)
    objects = rng.uniform(-1.0, 1.0, size=(40, 3))
    objects[:, 2] = rng.uniform(-1.0, 0.5, size=40)
    mixed = np.empty((240, 3))
    mixed[0::6] = objects[:40]
    slots = np.ones(240, dtype=bool)
    slots[0::6] = False
    mixed[slots] = ground
    out = remove_ground(mixed, PreprocessConfig(), rng=np.random.default_rng(6))
    assert np.array_equal(out, objects)


def test_remove_ground_warns_and_passes_through_when_too_few():
    pts = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.3], [0.0, 1.0, 0.2]])
    reason = "ground fit skipped: insufficient ground candidates: 0 < 50"
    with pytest.warns(GroundFitWarning, match=f"^{reason}$"):
        out = remove_ground(pts, PreprocessConfig(), rng=np.random.default_rng(8))
    assert np.array_equal(out, pts)


# --- ground fit against the per-sample loop -------------------------------


def reference_fit_ground_plane(points, cfg, rng) -> Plane | str:
    """The plain RANSAC loop: every hypothesis counted over every point.
    A skipped fit returns its reason, as the fit under test does."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < max(3, cfg.min_plane_points):
        return f"insufficient ground candidates: {n} < {max(3, cfg.min_plane_points)}"
    best_count = 0
    best = None
    for _ in range(cfg.ransac_iterations):
        i, j, k = rng.integers(0, n, size=3)
        if i == j or i == k or j == k:
            continue
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        offset = -float(normal @ pts[i])
        if normal[2] < 0:
            normal = -normal
            offset = -offset
        count = int((np.abs(pts @ normal + offset) <= cfg.ransac_inlier_tol).sum())
        if count > best_count:
            best_count = count
            best = Plane(normal, offset)
    if best is None:
        return "no non-degenerate 3-point sample found"
    return best


def _ulps(x: float, steps: int) -> float:
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, toward))
    return x


@st.composite
def ground_case(draw):
    """Candidate points, a config and an RNG seed.

    One or two lattice layers, flat or sloped, stacked further apart than
    the tolerance: samples within a layer tie on inlier count, and so do two
    layers on the same lattice. Edge points sit tol off a layer along its
    normal: exactly, 1e-10 beyond (an outlier no probe can prove) or moved
    1-2 ulps, so rounding alone decides. They are the top and bottom of z,
    where the probe looks. Repeated points make degenerate samples. A noisy
    bulk takes the cloud to just at, just over or well over the probe size.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from((0.15, 0.25, 0.5)))
    z0 = draw(st.sampled_from((-2.0, -1.8, 0.0)))
    spacing = draw(st.sampled_from((0.3, 0.5, 1.0)))
    xy = rng.integers(-3, 4, size=(draw(st.sampled_from((8, 12, 20))), 2)) * spacing
    pts = []
    for layer in range(draw(st.sampled_from((1, 2)))):
        base = z0 + layer * 4 * tol
        sx = draw(st.sampled_from((0.0, 0.25, 0.7)))
        sy = draw(st.sampled_from((0.0, 0.2)))
        unit = np.array([-sx, -sy, 1.0])
        unit /= np.linalg.norm(unit)
        if layer and draw(st.booleans()):
            xy = rng.integers(-3, 4, size=xy.shape) * spacing
        pts += [(x, y, base + sx * x + sy * y) for x, y in xy]
        for _ in range(draw(st.sampled_from((0, 4, 8)))):
            x, y = rng.integers(-3, 4, size=2) * spacing
            off = rng.choice([-1.0, 1.0]) * (tol + rng.choice([0.0, 1e-10]))
            p = np.array([x, y, base + sx * x + sy * y]) + off * unit
            pts.append((p[0], p[1], _ulps(p[2], int(rng.integers(-2, 3)))))
    pts = np.array(pts)
    clutter = rng.uniform(-5.0, 5.0, size=(draw(st.sampled_from((0, 3))), 3))
    clutter[:, 2] = z0 + rng.uniform(-1.0, 1.0, size=len(clutter))
    pts = np.vstack([pts, clutter])
    pts = np.vstack([pts, pts[rng.integers(0, len(pts), size=draw(st.sampled_from((0, 5, 20))))]])
    target = draw(st.sampled_from((0, 0, 0, _PROBE_POINTS, _PROBE_POINTS + 1, _PROBE_POINTS + 500)))
    if target > len(pts):
        bulk = rng.uniform(-20.0, 20.0, size=(target - len(pts), 3))
        bulk[:, 2] = z0 + rng.normal(scale=tol, size=len(bulk))
        pts = rng.permutation(np.vstack([pts, bulk]))
    cfg = PreprocessConfig(
        ransac_iterations=draw(st.sampled_from((1, 10, 30, 100))),
        ransac_inlier_tol=tol,
        min_plane_points=3,
    )
    return pts, cfg, draw(st.integers(0, 2**16))


def assert_fit_matches_reference(pts, cfg, seed):
    """The fit remove_ground runs against the loop over its gathered
    candidates, bit for bit: the plane, the inlier mask over every row and
    the generator state, or the reason both give for a skipped fit. Once
    with a split above every point, and once with a split at the median
    distinct z, which leaves the rows at and above it out."""
    zs = np.unique(pts[:, 2])
    for below in (np.inf, zs[len(zs) // 2]):
        cand = pts[:, 2] < below
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = reference_fit_ground_plane(pts[cand], cfg, ref_rng)
        fit = preprocess._ransac(pts, below, cfg, rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if isinstance(want, str):
            assert fit == want
            continue
        got, inliers = fit
        assert got.normal.tobytes() == want.normal.tobytes()
        assert np.float64(got.offset).tobytes() == np.float64(want.offset).tobytes()
        want_inliers = np.zeros(len(pts), dtype=bool)
        want_inliers[cand] = np.abs(pts[cand] @ want.normal + want.offset) <= cfg.ransac_inlier_tol
        assert np.array_equal(inliers, want_inliers)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(ground_case())
def test_fit_matches_per_sample_loop_bit_for_bit(case):
    assert_fit_matches_reference(*case)


def tilted_edge_cloud(seed: int) -> np.ndarray:
    """A lattice on a plane sloped in x and y, plus points 0.15 off it along
    its normal, moved 0-2 ulps in z. Samples of the lattice differ in their
    last bits, so rounding alone makes an edge point an inlier of one sample
    and an outlier of another, and ties between them are common."""
    rng = np.random.default_rng(seed)
    unit = np.array([-0.7, -0.2, 1.0])
    unit /= np.linalg.norm(unit)
    pts = [(x, y, -1.8 + 0.7 * x + 0.2 * y) for x, y in rng.integers(-3, 4, size=(12, 2)) * 0.5]
    for _ in range(8):
        x, y = rng.integers(-3, 4, size=2) * 0.5
        p = np.array([x, y, -1.8 + 0.7 * x + 0.2 * y]) + rng.choice([-1, 1]) * 0.15 * unit
        pts.append((p[0], p[1], _ulps(p[2], int(rng.integers(-2, 3)))))
    return np.array(pts)


def test_fit_matches_per_sample_loop_on_tolerance_edges():
    cfg = PreprocessConfig(ransac_iterations=10, ransac_inlier_tol=0.15, min_plane_points=3)
    for seed in range(150):
        assert_fit_matches_reference(tilted_edge_cloud(seed), cfg, seed)


def test_fit_first_found_wins_a_tie_the_probe_ranks_second():
    # Two flat 16-point layers tie. The point just over tol above the upper
    # layer cannot be proven an outlier, so the probe ranks the upper layer
    # first; the lower layer, drawn first, must still win.
    grid = [(x, y) for x in range(4) for y in range(4)]
    pts = np.array(
        [(x, y, -2.0) for x, y in grid]
        + [(x, y, -1.0) for x, y in grid]
        + [(0.0, 0.0, -0.75 + 1e-10)]
    )
    cfg = PreprocessConfig(ransac_iterations=10, ransac_inlier_tol=0.25, min_plane_points=3)
    plane = fit_all(pts, cfg, rng=np.random.default_rng(2)).plane
    assert plane.offset == 2.0
    assert_fit_matches_reference(pts, cfg, 2)


@st.composite
def degenerate_case(draw):
    """3-6 candidates on one line, with up to two moved off it. On an
    integer line every collinear triple has a zero cross product; on a
    line through float points rounding leaves a cross product far below
    the 1e-12 norm floor but not zero. Repeated points and collinear
    triples make most draws, or all of them, degenerate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 6))
    if draw(st.booleans()):
        origin, direction = rng.integers(-5, 6, size=3), rng.integers(-2, 3, size=3)
    else:
        origin, direction = rng.uniform(-5.0, 5.0, size=3), rng.uniform(-1.0, 1.0, size=3)
    pts = (origin + np.outer(rng.integers(-3, 4, size=n), direction)).astype(np.float64)
    off = draw(st.sampled_from((0, 1, 1, 2)))
    pts[:off] = rng.uniform(-5.0, 5.0, size=(off, 3))
    cfg = PreprocessConfig(
        ransac_iterations=draw(st.sampled_from((1, 2, 5, 20, 100, 300))),
        ransac_inlier_tol=draw(st.sampled_from((0.15, 0.5))),
        min_plane_points=3,
    )
    return rng.permutation(pts), cfg, draw(st.integers(0, 2**16))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(degenerate_case())
def test_fit_matches_per_sample_loop_on_degenerate_draws(case):
    assert_fit_matches_reference(*case)


@pytest.mark.parametrize("iterations", [1, 7, 300])
def test_fit_with_only_degenerate_draws_returns_the_reason(iterations):
    # Three points on one line and a repeat of one of them: every triple
    # repeats an index or has a zero cross product.
    pts = np.array([[0.0, 0.0, -2.0], [1.0, 2.0, -2.0], [2.0, 4.0, -2.0], [1.0, 2.0, -2.0]])
    cfg = PreprocessConfig(ransac_iterations=iterations, min_plane_points=3)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    assert fit_all(pts, cfg, rng=rng) == "no non-degenerate 3-point sample found"
    assert reference_fit_ground_plane(pts, cfg, ref_rng) == "no non-degenerate 3-point sample found"
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# --- ground removal without copying the candidates out ---------------------


def remove_ground_by_gather(pts, cfg, rng):
    """Ground removal as the per-sample loop over the gathered candidates:
    what remove_ground must match bit for bit."""
    lower_idx = np.flatnonzero(pts[:, 2] < -cfg.ground_split_height)
    cand = pts[lower_idx]
    plane = reference_fit_ground_plane(cand, cfg, rng)
    keep = np.ones(len(pts), dtype=bool)
    keep[lower_idx[np.abs(cand @ plane.normal + plane.offset) <= cfg.ransac_inlier_tol]] = False
    return pts[keep]


@st.composite
def split_cloud(draw):
    """Ground, flat or sloped across the split height, with noise or on a
    coarse z grid (many ties at the probe thresholds). The candidates below
    the split are interleaved with rows at or above it: ground that the
    plane's tolerance covers but the split excludes, and clutter. The
    candidate count straddles the probe size and the sampled-probe
    threshold, and the total row count takes every value mod 8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cand = draw(st.sampled_from(
        [base + d for base in (_PROBE_POINTS, _SAMPLED_PROBE_ABOVE) for d in (-1, 0, 1)]
    ))
    n_high = 8 * draw(st.integers(1, 40)) + draw(st.integers(0, 7))
    ground = rng.uniform(-30.0, 30.0, size=(3 * n_cand, 3))
    sx, sy = draw(st.sampled_from(((0.0, 0.0), (0.02, -0.01))))
    ground[:, 2] = -1.8 + sx * ground[:, 0] + sy * ground[:, 1]
    if draw(st.booleans()):
        ground[:, 2] += rng.normal(scale=0.05, size=len(ground))
    else:
        ground[:, 2] = np.round(ground[:, 2], 1)
    below = ground[:, 2] < -1.5
    cand = ground[below][:n_cand]
    # Curbs, tires and walls below the split height: candidates off the plane.
    bumps = n_cand // 20
    cand[:bumps, 2] = np.minimum(cand[:bumps, 2] + 0.25, -1.5 - 1e-9)
    high = rng.uniform(-30.0, 30.0, size=(n_high, 3))
    high[:, 2] = rng.uniform(-1.5, 1.0, size=n_high)
    high[0, 2] = -1.5  # exactly at the split: never a candidate
    above = ground[~below][: n_high // 2]
    high[1 : 1 + len(above)] = above
    pts = np.vstack([cand, high])[rng.permutation(n_cand + n_high)]
    assert np.count_nonzero(pts[:, 2] < -1.5) == n_cand
    cfg = PreprocessConfig(ransac_iterations=draw(st.sampled_from((1, 30, 100))))
    return pts, cfg, draw(st.integers(0, 2**16))


def cut_candidate_blocks(mp, block):
    """Cut _COUNT_BLOCK to `block` rows for the candidate blocks the fit
    counts, draws from and samples the probe from, while each full count
    keeps the module's block. The full count's blocking is tested on its
    own, and at 2 rows a count over 20k rows is a loop of 10k steps."""

    def full_block_within_tol(*args):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(preprocess, "_COUNT_BLOCK", _COUNT_BLOCK)
            return _within_tol(*args)

    mp.setattr(preprocess, "_COUNT_BLOCK", block)
    mp.setattr(preprocess, "_within_tol", full_block_within_tol)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(split_cloud())
def test_remove_ground_matches_the_gather_path_bit_for_bit(case):
    # Also with the count block cut to 2, 7 and 64 rows: draws then fall on
    # block edges and in blocks between ones that hold no candidate.
    pts, cfg, seed = case
    ref_rng = np.random.default_rng(seed)
    want = remove_ground_by_gather(pts, cfg, ref_rng)
    for block in (2, 7, 64, _COUNT_BLOCK):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            cut_candidate_blocks(mp, block)
            got = remove_ground(pts, cfg, rng=rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def loop_hypotheses(cand, cfg, rng):
    """Every non-degenerate hypothesis plane, built one draw at a time."""
    for _ in range(cfg.ransac_iterations):
        i, j, k = rng.integers(0, len(cand), size=3)
        if i == j or i == k or j == k:
            continue
        normal = np.cross(cand[j] - cand[i], cand[k] - cand[i])
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        yield -normal if normal[2] < 0 else normal


@pytest.mark.parametrize("scene", ["golden-seed1-frame0", "stride1-frame0"])
def test_distances_over_the_cloud_equal_distances_over_the_candidates(scene):
    # remove_ground counts inliers over the whole cloud under the candidate
    # mask. That is exact only because a row's product with the normal does
    # not depend on the rows around it.
    if scene == "golden-seed1-frame0":
        frame, stride = generate(SynthConfig(rng_seed=1)).frames[0], 10
    else:
        frame = generate(SynthConfig(n_cars=3, n_frames=1, points_per_car=600,
                                     ground_density=18.0, ground_extent=40.0,
                                     clutter_points=200, rng_seed=1)).frames[0]
        stride = 1
    cfg = PreprocessConfig(stride=stride)
    pts = downsample_stride(frame.cloud, stride)
    rows = np.flatnonzero(pts[:, 2] < -cfg.ground_split_height)
    assert len(rows) > (_SAMPLED_PROBE_ABOVE if stride == 1 else _PROBE_POINTS)
    cand = pts[rows]
    normals = list(loop_hypotheses(cand, cfg, np.random.default_rng([cfg.rng_seed, 0])))
    assert len(normals) > 90
    for normal in normals:
        assert (pts @ normal)[rows].tobytes() == (cand @ normal).tobytes()


def probe_rows(z, cand, size):
    return _probe_rows(z, cand, _block_firsts(cand), size)


def test_probe_rows_samples_the_z_extremes_and_falls_back_on_ties():
    rng = np.random.default_rng(11)
    z0 = rng.normal(size=40_000)
    z0[::3] = 5.0  # not candidates
    cand = z0 < 4.0
    rows = np.flatnonzero(cand)
    for size in (_MIN_PROBE, 147, _PROBE_POINTS):
        z = z0
        probe = probe_rows(z, cand, size)
        assert np.isin(probe, rows).all() and np.all(np.diff(probe) > 0)
        assert size // 2 <= len(probe) <= 2 * size
        order = rows[np.argsort(z[rows])]
        assert np.isin(order[: size // 5], probe).all()
        assert np.isin(order[-(size // 5) :], probe).all()
        # On a z grid most candidates tie at the thresholds; the exact pick is used.
        z = np.round(z, 0)
        probe = probe_rows(z, cand, size)
        assert len(probe) == size // 2 * 2
        assert np.isin(probe, rows).all()
        # Up to the sampled-probe threshold the pick is always exact.
        few = rows[:_SAMPLED_PROBE_ABOVE]
        few_cand = np.isin(np.arange(len(z)), few)
        assert len(probe_rows(z, few_cand, size)) == size // 2 * 2
        few_cand[few[size:]] = False
        assert np.array_equal(probe_rows(z, few_cand, size), few[:size])


@pytest.mark.parametrize("block", [2, 7, 64, 1000, _COUNT_BLOCK])
def test_probe_rows_sample_every_step_th_candidate_for_every_count_block(monkeypatch, block):
    # The thresholds come from every step-th candidate from the first
    # (every 4th here), gathered block by block; blocks with no candidate
    # and a short last block must not shift which candidates those are.
    rng = np.random.default_rng(12)
    z = rng.normal(size=60_001)
    z[::3] = 5.0
    z[1000:1700] = 5.0  # blocks with no candidate at every size cut
    cand = z < 4.0
    rows = np.flatnonzero(cand)
    sample = np.sort(z[rows[:: len(rows) // _SAMPLED_PROBE_ABOVE]])
    monkeypatch.setattr(preprocess, "_COUNT_BLOCK", block)
    for size in (_MIN_PROBE, 147, _PROBE_POINTS):
        k = -(-(size // 2) * len(sample) // len(rows))
        want = np.flatnonzero(cand & ((z <= sample[k - 1]) | (z >= sample[-k])))
        assert len(want) <= 2 * size
        assert np.array_equal(probe_rows(z, cand, size), want)


@pytest.mark.parametrize("block", [2, 7, 64, _COUNT_BLOCK])
def test_rank_rows_index_the_candidate_rows_by_rank(block, monkeypatch):
    # Every rank, including each block's first and last candidate and those
    # of a short last block, maps to the row the whole candidate list gives;
    # runs of rows with no candidate leave blocks empty.
    monkeypatch.setattr(preprocess, "_COUNT_BLOCK", block)
    rng = np.random.default_rng(block)
    for n_rows in (3 * block, 3 * block + 1, 5 * block - 1, 40_001):
        cand = rng.random(n_rows) < 0.6
        cand[n_rows // 3 : n_rows // 3 + 2 * block] = False
        cand[-1] = True
        rows = np.flatnonzero(cand)
        firsts = _block_firsts(cand)
        assert len(firsts) == -(-n_rows // block) + 1 and firsts[-1] == len(rows)
        ranks = np.arange(len(rows))
        assert np.array_equal(_rank_rows(cand, firsts, ranks), rows)
        draws = rng.integers(0, len(rows), size=(300, 3))
        assert np.array_equal(_rank_rows(cand, firsts, draws), rows[draws])


def test_proven_outliers_do_not_depend_on_the_scoring_chunk(monkeypatch):
    # A probe of 1,000 points is 3 whole chunks of 256 and a short one.
    rng = np.random.default_rng(13)
    probe = rng.uniform(-30.0, 30.0, size=(1000, 3))
    probe[:, 2] = -1.8 + rng.normal(scale=0.3, size=1000)
    normals = rng.normal(size=(100, 3)) * [0.002, 0.002, 0.0] + [0.0, 0.0, 1.0]
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = rng.uniform(1.6, 2.0, size=100)
    limit = 0.15 + 1e-9 * (3.0 * np.abs(probe).max() + np.abs(offsets) + 0.15)
    want = np.count_nonzero(np.abs(probe @ normals.T + offsets) > limit, axis=0)
    assert 0 < want.min() and want.max() < 1000
    for chunk in (1, 7, _SCORE_ROWS, 1000, 4096):
        monkeypatch.setattr(preprocess, "_SCORE_ROWS", chunk)
        assert np.array_equal(_proven_outliers(probe, normals, offsets, 0.15), want)


def test_ground_fit_holds_a_few_bytes_a_row_beyond_its_input():
    # A float32 sweep of 300k rows, 95% of them ground candidates. Beyond
    # the cloud and the kept rows, a fit may hold its float32 z column, three
    # masks (candidates, and the probe's comparison pass or two inlier
    # masks), one widened count block with its distances, the widened probe
    # with one scoring chunk of distances and their mask, the z sample the
    # probe thresholds come from, and the draws and hypotheses. These are
    # never all alive at once, so their sum bounds the peak. The whole list
    # of candidate rows (8 bytes each) would break it.
    n = 300_000
    rng = np.random.default_rng(14)
    pts = rng.uniform(-40.0, 40.0, size=(n, 3)).astype(np.float32)
    pts[:, 2] = -1.8 + rng.normal(scale=0.03, size=n)
    pts[: n // 20, 2] = rng.uniform(-1.0, 2.0, size=n // 20)
    cfg = PreprocessConfig(stride=1)
    iterations = cfg.ransac_iterations
    remove_ground(pts, cfg, rng=np.random.default_rng(0))  # warm-up
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kept = remove_ground(pts, cfg, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    bound = (
        (4 + 3) * n
        + (_COUNT_BLOCK + 1) * (3 + 1) * 8
        + _PROBE_POINTS * 3 * 8 + _SCORE_ROWS * iterations * (8 + 1)
        + 2 * _SAMPLED_PROBE_ABOVE * 4
        + 64 * 1024
        + kept.nbytes
    )
    assert peak <= bound, (peak / n, bound / n)


def test_probe_size_follows_the_cloud_and_the_draws():
    # About four full counts' worth of probe scoring, within 64..1024.
    assert _probe_size(117_200, 100) == _PROBE_POINTS
    assert _probe_size(3_675, 100) == 147
    assert _probe_size(1_000, 100) == _MIN_PROBE
    assert _probe_size(10, 1) == _MIN_PROBE
    assert _probe_size(10**6, 1) == _PROBE_POINTS


def probe_size_cloud(seed: int, n_cand: int, iterations: int):
    """A noisy sloped ground under the split height with curbs off it, and
    clutter above; n_cand candidates among about 1.3 x n_cand rows."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-30.0, 30.0, size=(n_cand + n_cand // 3, 3))
    pts[:n_cand, 2] = -1.8 + 0.01 * pts[:n_cand, 0] + rng.normal(scale=0.05, size=n_cand)
    pts[: n_cand // 20, 2] += 0.2
    pts[n_cand:, 2] = rng.uniform(-1.4, 2.0, size=len(pts) - n_cand)
    pts[:n_cand, 2] = np.minimum(pts[:n_cand, 2], -1.5 - 1e-9)
    return rng.permutation(pts), PreprocessConfig(ransac_iterations=iterations)


@pytest.mark.parametrize("n_cand", [900, 5_000, 20_000])
@pytest.mark.parametrize("iterations", [30, 100])
def test_remove_ground_is_the_same_for_every_probe_size(monkeypatch, n_cand, iterations):
    # The probe only orders the full counts; the plane, the inlier mask, the
    # kept points and the generator state must not depend on its size.
    # Nor on the count block: cut to 2, 7 or 64 rows, the draws fall on
    # block edges and between blocks that hold no candidate. The probe
    # sizes take 1, 2 or 4 scoring chunks, some of them short.
    pts, cfg = probe_size_cloud(n_cand + iterations, n_cand, iterations)
    results = []
    cases = [(size, _COUNT_BLOCK) for size in (64, 100, 147, 256, 511, 1024)]
    for size, block in cases + [(511, block) for block in (2, 7, 64)]:
        monkeypatch.setattr(preprocess, "_probe_size", lambda n, it, size=size: size)
        cut_candidate_blocks(monkeypatch, block)
        fit_rng, rg_rng = np.random.default_rng(3), np.random.default_rng(3)
        plane, inliers = preprocess._ransac(pts, -cfg.ground_split_height, cfg, fit_rng)
        kept = remove_ground(pts, cfg, rng=rg_rng)
        assert fit_rng.bit_generator.state == rg_rng.bit_generator.state
        assert kept.tobytes() == pts[~inliers].tobytes()
        results.append((
            plane.normal.tobytes(), np.float64(plane.offset).tobytes(), inliers.tobytes(),
            kept.tobytes(), fit_rng.bit_generator.state,
        ))
    assert all(r == results[0] for r in results)
    assert np.count_nonzero(np.frombuffer(results[0][2], dtype=bool)) > n_cand // 2


@st.composite
def count_case(draw):
    """A cloud of a length at and around the count block (or any length up
    to three blocks), float32 or float64, a unit normal and an offset, and
    tolerances that put a row exactly on the edge: a random row's own
    |distance|, and the last row's and the float64 just below it (the last
    row is the one a short last block holds). The block is the module's or
    cut to 2, 7 or 64. (Not to 1: a one-row product rounds as a dot, not as
    a matrix row.)"""
    block = draw(st.sampled_from((2, 7, 64, _COUNT_BLOCK)))
    n = draw(st.one_of(
        st.sampled_from((0, 1, block - 1, block, block + 1)),
        st.integers(0, 3 * block + 2),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    pts = rng.uniform(-40.0, 40.0, size=(n, 3))
    pts[:, 2] = rng.normal(-1.8, 0.2, size=n)
    pts = pts.astype(dtype)
    normal = rng.normal(size=3) * [0.05, 0.05, 1.0]
    normal /= np.sqrt(normal @ normal)
    offset = np.float64(rng.uniform(1.5, 2.1))
    pts64 = pts.astype(np.float64)
    dist = np.abs(pts64 @ normal + offset)
    tols = [dist[rng.integers(n)], dist[-1], np.nextafter(dist[-1], 0.0)] if n else [0.15]
    return block, pts, pts64, normal, offset, [float(t) for t in tols]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(count_case())
def test_blocked_full_count_equals_the_count_over_the_widened_cloud(case):
    block, pts, pts64, normal, offset, tols = case
    for tol in tols:
        want = np.abs(pts64 @ normal + offset) <= tol
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(preprocess, "_COUNT_BLOCK", block)
            got = _within_tol(pts, normal, offset, tol)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def split_edge_cloud(draw):
    """Ground just below a split height that float32 cannot hold, and rows
    whose z is -h rounded to float32 or one float32 ulp either side of
    that, within the plane's tolerance. A float32 comparison with -h would
    move some of them across the split."""
    h = draw(st.sampled_from((1.3, 0.1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ground, n_edge = 3000, draw(st.integers(40, 400))
    ground = rng.uniform(-30.0, 30.0, size=(n_ground, 3))
    ground[:, 2] = -h - 0.05 + rng.normal(scale=0.02, size=n_ground)
    near = np.float32(-h)
    zs = np.array([near, np.nextafter(near, np.float32(-1)), np.nextafter(near, np.float32(1))])
    edge = rng.uniform(-30.0, 30.0, size=(n_edge, 3))
    edge[:, 2] = rng.choice(zs, size=n_edge)
    pts32 = np.vstack([ground, edge])[rng.permutation(n_ground + n_edge)].astype(np.float32)
    cfg = PreprocessConfig(ground_split_height=h, ransac_iterations=draw(st.sampled_from((30, 100))))
    return pts32, cfg, draw(st.integers(0, 2**16))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(split_edge_cloud())
def test_float32_and_float64_ground_removal_agree_at_an_unrepresentable_split(case):
    pts32, cfg, seed = case
    pts64 = pts32.astype(np.float64)
    z = pts32[:, 2]
    h = cfg.ground_split_height
    # Where float32 rounds -h down (as for h = 0.1), a float32 comparison
    # would drop the rows at that value from the candidates.
    if np.float64(np.float32(-h)) < -h:
        assert np.any((z < np.float32(-h)) != (pts64[:, 2] < -h))
    results = []
    for pts in (pts32, pts64):
        fit_rng, rg_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        plane, inliers = preprocess._ransac(pts, -cfg.ground_split_height, cfg, fit_rng)
        kept = remove_ground(pts, cfg, rng=rg_rng)
        assert kept.dtype == np.float64
        assert fit_rng.bit_generator.state == rg_rng.bit_generator.state
        results.append((
            plane.normal.tobytes(), np.float64(plane.offset).tobytes(), inliers.tobytes(),
            kept.tobytes(), fit_rng.bit_generator.state,
        ))
    assert results[0] == results[1]
    # The gather path, run on the widened cloud, drops the same rows.
    want = remove_ground_by_gather(pts64, cfg, np.random.default_rng(seed))
    assert results[0][3] == want.tobytes()


def square_grid(x0=0.0, y0=0.0, size=10, resolution=1.0, bits=None):
    if bits is None:
        bits = np.ones((size, size), dtype=bool)
    return DrivableGrid(origin_xy=np.array([x0, y0]), resolution=resolution, bits=bits)


def test_filter_drivable_keeps_inside_cells():
    grid = square_grid()
    pts = np.array(
        [
            [2.0, 2.0, 0.0],  # inside
            [9.9, 9.9, 0.0],  # inside, last cell
            [-0.1, 5.0, 0.0],  # outside west
            [10.1, 5.0, 0.0],  # outside east
        ]
    )
    out = filter_drivable(pts, grid, identity_transform())
    assert np.array_equal(out, pts[:2])


def test_filter_drivable_respects_ego_pose():
    grid = square_grid()
    # Ego sits at city (20, 0) looking along +y: ego +x maps to city +y.
    pose = RigidTransform(
        rotation=quat_from_yaw(np.pi / 2),
        translation=np.array([20.0, 0.0, 0.0]),
    )
    pts = np.array(
        [
            [5.0, 15.0, 0.0],  # city (20 - 15, 5) = (5, 5): inside
            [5.0, 5.0, 0.0],  # city (15, 5): outside
        ]
    )
    out = filter_drivable(pts, grid, pose)
    assert len(out) == 1
    assert np.array_equal(out, pts[:1])


def test_filter_drivable_false_cells_drop():
    bits = np.ones((10, 10), dtype=bool)
    bits[0:5, :] = False  # southern half off (rows index y)
    grid = square_grid(bits=bits)
    pts = np.array([[2.0, 2.0, 0.0], [2.0, 7.0, 0.0]])
    out = filter_drivable(pts, grid, identity_transform())
    assert np.array_equal(out, pts[1:])


def test_points_in_polygon_square():
    poly = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    uv = np.array(
        [
            [5.0, 5.0],  # inside
            [0.0, 5.0],  # on left edge: inside
            [10.0, 10.0],  # corner: inside
            [10.5, 5.0],  # outside
            [-0.01, 5.0],  # outside
        ]
    )
    got = _points_in_polygon(uv, poly)
    assert got.tolist() == [True, True, True, False, False]


def test_points_in_polygon_concave():
    # U shape: the notch between the arms is outside.
    poly = np.array(
        [[0, 0], [10, 0], [10, 10], [7, 10], [7, 3], [3, 3], [3, 10], [0, 10]],
        dtype=np.float64,
    )
    uv = np.array([[5.0, 6.0], [1.5, 6.0], [8.5, 6.0], [5.0, 1.5]])
    got = _points_in_polygon(uv, poly)
    assert got.tolist() == [False, True, True, True]


def camera_looking_forward(cam_id="cam_front"):
    # Camera at the ego origin looking along ego +x; ego y maps to image -u,
    # ego z to image -v.
    rot = np.array(
        [
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],
        ]
    )
    from lidartrack.geometry import quat_from_matrix

    ext = RigidTransform(
        rotation=quat_from_matrix(rot),
        translation=np.zeros(3),
    )
    return CameraModel(
        camera_id=cam_id, fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480,
        extrinsics=ext,
    )


def full_image_mask(cam_id="cam_front"):
    return MaskRegion(
        camera_id=cam_id,
        polygon=np.array([[0.0, 0.0], [639.0, 0.0], [639.0, 479.0], [0.0, 479.0]]),
    )


def test_mask_filter_keeps_masked_points():
    cam = camera_looking_forward()
    cams = {cam.camera_id: cam}
    pts = np.array(
        [
            [10.0, 0.0, 0.0],  # ahead: visible, inside the full-image mask
            [-10.0, 0.0, 0.0],  # behind the camera: not visible anywhere
        ]
    )
    out = filter_by_masks(pts, cams, [full_image_mask()])
    # Visible point kept by the mask, invisible point kept by default.
    assert len(out) == 2


def test_mask_filter_drops_visible_unmasked_points():
    cam = camera_looking_forward()
    cams = {cam.camera_id: cam}
    # Mask covering only the left half of the image.
    half = MaskRegion(
        camera_id=cam.camera_id,
        polygon=np.array([[0.0, 0.0], [319.0, 0.0], [319.0, 479.0], [0.0, 479.0]]),
    )
    pts = np.array(
        [
            [10.0, -2.0, 0.0],  # projects right of center (u > 320): dropped
            [10.0, 2.0, 0.0],  # projects left of center: kept
            [-10.0, 0.0, 0.0],  # invisible: kept
        ]
    )
    out = filter_by_masks(pts, cams, [half])
    assert len(out) == 2
    assert np.array_equal(out, pts[1:])


def test_mask_filter_passes_over_a_camera_that_sees_no_point():
    cam = camera_looking_forward()
    # Looking along ego +z from the ego origin: every point below sits at
    # depth 0, in no camera's view but the forward one's.
    blind = CameraModel(camera_id="cam_up", fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                        width=640, height=480, extrinsics=identity_transform())
    pts = np.array([[10.0, 0.0, 0.0], [-10.0, 0.0, 0.0]])
    masks = [full_image_mask(), full_image_mask("cam_up")]
    for strict, kept in ((False, pts), (True, pts[:1])):
        out = filter_by_masks(pts, {"cam_front": cam, "cam_up": blind}, masks, strict=strict)
        assert np.array_equal(out, kept)


def test_mask_filter_strict_drops_invisible_points():
    cam = camera_looking_forward()
    cams = {cam.camera_id: cam}
    pts = np.array([[10.0, 0.0, 0.0], [-10.0, 0.0, 0.0]])
    out = filter_by_masks(pts, cams, [full_image_mask()], strict=True)
    assert len(out) == 1
    assert np.array_equal(out, pts[:1])


def test_mask_filter_no_masks_is_identity_when_lenient():
    cam = camera_looking_forward()
    pts = np.random.default_rng(310).uniform(-5, 5, size=(20, 3))
    out = filter_by_masks(pts, {cam.camera_id: cam}, [])
    assert np.array_equal(out, pts)


def test_mask_filter_unknown_camera_rejected():
    cam = camera_looking_forward()
    bad = full_image_mask(cam_id="cam_rear")
    with pytest.raises(ConfigError):
        filter_by_masks(np.zeros((3, 3)), {cam.camera_id: cam}, [bad])


def build_frame(rng, index=0, n_ground=400, n_car=80):
    ground = flat_ground(rng, n_ground, z=-1.8)
    car = rng.normal(scale=0.4, size=(n_car, 3)) + [6.0, 1.0, -0.8]
    points = np.vstack([ground, car])
    return Frame(
        index=index,
        timestamp=0.1 * index,
        cloud=make_cloud(points),
        ego_pose=identity_transform(),
        masks=[],
    )


def test_preprocess_frame_stats_chain():
    rng = np.random.default_rng(311)
    frame = build_frame(rng)
    cfg = PreprocessConfig(stride=2)
    grid = DrivableGrid(
        origin_xy=np.array([-20.0, -20.0]), resolution=1.0, bits=np.ones((40, 40), bool)
    )
    points, stats = preprocess_frame(frame, cfg, cameras={}, drivable=grid)
    assert stats.n_raw == 480
    assert stats.n_downsampled == 240
    assert stats.n_after_ground <= stats.n_downsampled
    assert stats.n_after_drivable <= stats.n_after_ground
    assert stats.n_after_masks == stats.n_after_drivable == len(points)


def test_preprocess_frame_rng_depends_only_on_frame_index():
    rng = np.random.default_rng(312)
    frame_a = build_frame(rng, index=4, n_ground=4000, n_car=600)
    frame_b = build_frame(np.random.default_rng(313), index=9, n_ground=4000, n_car=600)
    cfg = PreprocessConfig()
    # Process in both orders: each frame's output must not change.
    a1, _ = preprocess_frame(frame_a, cfg)
    b1, _ = preprocess_frame(frame_b, cfg)
    b2, _ = preprocess_frame(frame_b, cfg)
    a2, _ = preprocess_frame(frame_a, cfg)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_preprocess_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(stride=0)
    with pytest.raises(ValueError):
        PreprocessConfig(ransac_iterations=0)
    with pytest.raises(ValueError):
        PreprocessConfig(ransac_inlier_tol=0.0)


# --- float32 clouds, as loaded ---------------------------------------------

# One frame of perfbench's sweep scene (117k points, run at stride 1).
SWEEP_FRAME = SynthConfig(n_cars=3, n_frames=1, points_per_car=600, ground_density=18.0,
                          ground_extent=40.0, clutter_points=200, rng_seed=1)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Golden seed 0 (its first two frames) and one sweep frame, written and
    loaded back, so every cloud is float32 as stored. Each frame gets a mask
    over the left half of the front camera's image."""
    scenes = {}
    for name, cfg in (("golden-seed0", SynthConfig(rng_seed=0)), ("sweep", SWEEP_FRAME)):
        seq = generate(cfg)
        root = tmp_path_factory.mktemp(name)
        write_sequence(root, seq.frames[:2], seq.cameras, drivable=seq.drivable)
        seq = load_sequence(root)
        cam = seq.cameras["cam_front"]
        half = MaskRegion("cam_front", [[0, 0], [cam.width / 2, 0],
                                        [cam.width / 2, cam.height], [0, cam.height]])
        scenes[name] = replace(seq, frames=[replace(fr, masks=[half]) for fr in seq.frames])
    return scenes


def widened(frame):
    """The frame as the float64 loader gave it: every point widened up front."""
    return replace(frame, cloud=PointCloud(frame.cloud.points.astype(np.float64)))


def counts(stats):
    """The stats without their timings."""
    return replace(stats, seconds=())


def assert_same_float64(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def assert_same_after_widening(got, want):
    """The downsample keeps the stored dtype; widened, the rows are the same."""
    assert got.dtype in (np.float32, np.float64)
    assert_same_float64(got.astype(np.float64), want.astype(np.float64))


@pytest.mark.parametrize(
    "scene, stride",
    [("golden-seed0", 1), ("golden-seed0", 2), ("golden-seed0", 10), ("sweep", 1)],
)
def test_loaded_float32_frame_detects_as_the_float64_frame(loaded, monkeypatch, scene, stride):
    """preprocess_frame and detect give the same bits on a loaded float32
    frame as on the frame widened up front: the points after every stage
    (the downsample's once widened, as it keeps the stored dtype), the
    stats, the DBSCAN labels and the detections."""
    seq = loaded[scene]
    cfg = PipelineConfig()
    pre = replace(cfg.preprocess, stride=stride, mask_filter_enabled=True)
    stages = []
    for name in ("downsample_stride", "remove_ground", "filter_drivable", "filter_by_masks"):
        def recorded(*args, _stage=getattr(preprocess, name), **kwargs):
            out = _stage(*args, **kwargs)
            stages.append(out)
            return out
        monkeypatch.setattr(preprocess, name, recorded)

    for frame in seq.frames:
        assert frame.cloud.points.dtype == np.float32
        runs = []
        for fr in (frame, widened(frame)):
            del stages[:]
            found = detect(fr, pre, cfg.clustering, cfg.box_limits,
                           cameras=seq.cameras, drivable=seq.drivable)
            runs.append((list(stages), found))
        (stages32, got), (stages64, want) = runs
        assert len(stages32) == len(stages64) == 4
        assert stages32[0].dtype == np.float32
        assert_same_after_widening(stages32[0], stages64[0])
        for a, b in zip(stages32[1:], stages64[1:]):
            assert_same_float64(a, b)
        assert counts(got.stats) == counts(want.stats)
        assert_same_float64(got.points, want.points)
        assert got.stats.n_clusters == want.stats.n_clusters
        labels = [dbscan(KdTree(f.points), cfg.clustering).labels for f in (got, want)]
        assert np.array_equal(*labels)
        assert got.detections.shape == want.detections.shape
        assert got.detections.tobytes() == want.detections.tobytes()

        points32, stats32 = preprocess.preprocess_frame(frame, pre, seq.cameras, seq.drivable)
        points64, stats64 = preprocess.preprocess_frame(widened(frame), pre, seq.cameras, seq.drivable)
        assert_same_float64(points32, points64)
        assert counts(stats32) == counts(stats64)


@pytest.mark.parametrize("scene", ["golden-seed0", "sweep"])
def test_stages_called_on_a_float32_cloud_give_the_float64_answers(loaded, scene):
    seq = loaded[scene]
    frame = seq.frames[0]
    c32 = frame.cloud
    c64 = widened(frame).cloud
    cfg = PreprocessConfig()

    for stride in (1, 2, 10):
        down32 = downsample_stride(c32, stride)
        assert down32.dtype == np.float32
        assert_same_after_widening(down32, downsample_stride(c64, stride))

    p32, p64 = c32.points, c64.points
    rngs = [np.random.default_rng(5) for _ in range(2)]
    out32, out64 = (remove_ground(p, cfg, rng=rng) for p, rng in zip((p32, p64), rngs))
    assert_same_float64(out32, out64)
    assert len(out32) < len(p32)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    below = -cfg.ground_split_height
    fit32 = preprocess._ransac(p32, below, cfg, np.random.default_rng(6))
    fit64 = preprocess._ransac(p64, below, cfg, np.random.default_rng(6))
    assert_same_float64(fit32.plane.normal, fit64.plane.normal)
    assert fit32.plane.offset == fit64.plane.offset
    assert np.array_equal(fit32.inliers, fit64.inliers)

    # A skipped fit hands back the points widened, not the float32 ones. A
    # split past float32's range is compared without an overflowing cast.
    for split in (1e3, 1e300):
        with warnings.catch_warnings(), pytest.warns(GroundFitWarning):
            warnings.simplefilter("error", RuntimeWarning)
            skipped = remove_ground(
                p32, replace(cfg, ground_split_height=split), rng=np.random.default_rng(7)
            )
        assert_same_float64(skipped, p64)

    assert_same_float64(filter_drivable(p32, seq.drivable, frame.ego_pose),
                        filter_drivable(p64, seq.drivable, frame.ego_pose))
    for strict in (False, True):
        kept = [filter_by_masks(p, seq.cameras, frame.masks, strict=strict) for p in (p32, p64)]
        assert_same_float64(*kept)
        assert 0 < len(kept[0]) < len(p32)


@st.composite
def candidate_bound_case(draw):
    """float32 or float64 z around a float32 value f, and a bound exactly at
    f, between f and the next float32 up, or out of float32's range."""
    f = np.float32(draw(st.floats(-(2.0**100), 2.0**100, width=32)))
    up = np.nextafter(f, np.float32(np.inf))
    kind = draw(st.sampled_from(("at", "between", "out")))
    if kind == "at":
        below = float(f)
    elif kind == "between":
        below = (float(f) + float(up)) / 2.0  # exact, and strictly between
    else:
        big = draw(st.one_of(st.floats(3.5e38, 1e308), st.sampled_from((np.inf, 1e300))))
        below = draw(st.sampled_from((1.0, -1.0))) * big
    near = [np.nextafter(f, np.float32(-np.inf)), f, up, 0.0, 1e300, -1e300]
    near += [np.nextafter(below, -np.inf), below, np.nextafter(below, np.inf)]
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    with np.errstate(over="ignore"):
        z = np.array(near + draw(st.lists(st.floats(allow_nan=False), max_size=8)))
        return z.astype(dtype), below


@settings(max_examples=300, derandomize=True, deadline=None)
@given(candidate_bound_case())
def test_candidate_test_in_zs_dtype_is_the_float64_one(case):
    z, below = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bound = preprocess._ceil_in(z.dtype, below)
        got = z < bound
    assert bound.dtype == z.dtype
    assert np.array_equal(got, z < np.float64(below))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2, 10])
@pytest.mark.parametrize("n", [0, 1, 25])
def test_downsample_keeps_the_stored_dtype(dtype, stride, n):
    # Ground removal widens the rows it keeps.
    pts = np.random.default_rng(n).uniform(-50, 50, size=(n, 3)).astype(dtype)
    cloud = PointCloud(pts)
    assert cloud.points.dtype == dtype
    out = downsample_stride(cloud, stride)
    assert out.dtype == dtype
    assert out.flags.c_contiguous
    assert_same_after_widening(out, pts[::stride])
    if stride == 1 and n:
        assert np.shares_memory(out, cloud.points)  # no copy
        assert not out.flags.writeable  # the frame's own read-only array


def test_downsample_at_stride_one_hands_on_the_read_array(loaded, monkeypatch):
    reads = []
    def read_cloud(*args, _read=dataset_io._read_cloud):
        reads.append(_read(*args))
        return reads[-1]
    monkeypatch.setattr(dataset_io, "_read_cloud", read_cloud)
    out = downsample_stride(loaded["sweep"].frames[0].cloud, 1)
    assert len(reads) == 1 and out.base is reads[0]
    assert out.dtype == np.float32


# --- the stage contract ----------------------------------------------------

def left_half_mask(cam_id="cam_front"):
    return MaskRegion(cam_id, np.array([[0.0, 0.0], [319.0, 0.0], [319.0, 479.0], [0.0, 479.0]]))


# Each stage called on an (N, 3) array; the downsample on an in-memory
# frame cloud of it, as a frame's cloud is what it takes.
STAGE_CALLS = {
    "downsample_stride": lambda pts: downsample_stride(PointCloud(pts), 2),
    "remove_ground": lambda pts: remove_ground(pts, PreprocessConfig(), rng=np.random.default_rng(0)),
    "filter_drivable": lambda pts: filter_drivable(
        pts, square_grid(-20.0, -20.0, size=30), identity_transform()
    ),
    "filter_by_masks": lambda pts: filter_by_masks(
        pts, {"cam_front": camera_looking_forward()}, [left_half_mask()]
    ),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stage", list(STAGE_CALLS))
def test_every_stage_takes_and_returns_an_n_by_3_array(stage, dtype):
    # Ground over 40 x 40 m, a car ahead and to the left; the grid covers
    # x and y below 10 m, the mask the left half of the forward image.
    rng = np.random.default_rng(320)
    car = rng.normal(scale=0.4, size=(80, 3)) + [6.0, 1.0, -0.8]
    pts = np.vstack([flat_ground(rng, 400, z=-1.8), car]).astype(dtype)
    out = STAGE_CALLS[stage](pts)
    assert type(out) is np.ndarray and out.flags.c_contiguous
    assert out.ndim == 2 and out.shape[1] == 3 and 0 < len(out) < len(pts)
    assert out.dtype == (dtype if stage == "downsample_stride" else np.float64)
    with pytest.raises(ValueError, match=r"^points must have shape \(N, 3\), got \(480, 2\)$"):
        STAGE_CALLS[stage](pts[:, :2].copy())
