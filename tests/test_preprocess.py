"""Downsampling, RANSAC ground removal, drivable and mask filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.dataset_io import DrivableGrid, Frame, MaskRegion, PointCloud
from lidartrack.errors import ConfigError, GroundPlaneError
from lidartrack.geometry import (
    CameraModel,
    RigidTransform,
    identity_transform,
    quat_from_yaw,
)
from lidartrack.preprocess import (
    _PROBE_POINTS,
    GroundFitWarning,
    Plane,
    PreprocessConfig,
    _points_in_polygon,
    downsample_stride,
    filter_by_masks,
    filter_drivable,
    fit_ground_plane,
    preprocess_frame,
    remove_ground,
)


def make_cloud(points):
    return PointCloud(np.asarray(points, dtype=np.float64), "ego")


def flat_ground(rng, n, z=-1.8, extent=20.0, sigma=0.0):
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(-extent, extent, size=n)
    pts[:, 1] = rng.uniform(-extent, extent, size=n)
    pts[:, 2] = z + (rng.normal(scale=sigma, size=n) if sigma else 0.0)
    return pts


def test_downsample_keeps_every_stride_th_point():
    pts = np.arange(30, dtype=np.float64).reshape(10, 3)
    out = downsample_stride(make_cloud(pts), 3)
    assert np.array_equal(out.points, pts[[0, 3, 6, 9]])


def test_downsample_stride_one_is_identity():
    pts = np.random.default_rng(0).uniform(size=(11, 3))
    out = downsample_stride(make_cloud(pts), 1)
    assert np.array_equal(out.points, pts)


def test_downsample_rejects_bad_stride():
    with pytest.raises(ValueError):
        downsample_stride(make_cloud(np.zeros((5, 3))), 0)


def test_fit_recovers_flat_plane_exactly():
    rng = np.random.default_rng(300)
    pts = flat_ground(rng, 200, z=-1.8)
    cfg = PreprocessConfig(min_plane_points=50)
    plane = fit_ground_plane(pts, cfg, rng=np.random.default_rng(1))
    assert np.allclose(plane.normal, [0, 0, 1], atol=1e-9)
    assert np.isclose(plane.offset, 1.8, atol=1e-9)


def test_fit_recovers_tilted_plane():
    rng = np.random.default_rng(301)
    # 3 degree slope along x.
    slope = np.tan(np.radians(3.0))
    pts = flat_ground(rng, 300, z=0.0)
    pts[:, 2] = -1.8 + slope * pts[:, 0] + rng.normal(scale=0.01, size=len(pts))
    cfg = PreprocessConfig()
    plane = fit_ground_plane(pts, cfg, rng=np.random.default_rng(2))
    true_normal = np.array([-slope, 0.0, 1.0])
    true_normal /= np.linalg.norm(true_normal)
    angle = np.degrees(np.arccos(np.clip(plane.normal @ true_normal, -1, 1)))
    assert angle < 2.0


def test_fit_is_deterministic_for_a_seeded_rng():
    rng = np.random.default_rng(302)
    pts = flat_ground(rng, 150, sigma=0.02)
    cfg = PreprocessConfig()
    p1 = fit_ground_plane(pts, cfg, rng=np.random.default_rng(7))
    p2 = fit_ground_plane(pts, cfg, rng=np.random.default_rng(7))
    assert np.array_equal(p1.normal, p2.normal) and p1.offset == p2.offset


def test_fit_requires_minimum_candidates():
    pts = flat_ground(np.random.default_rng(303), 20)
    with pytest.raises(GroundPlaneError):
        fit_ground_plane(pts, PreprocessConfig(min_plane_points=50))


def test_fit_normal_points_up():
    rng = np.random.default_rng(304)
    pts = flat_ground(rng, 120)
    plane = fit_ground_plane(pts, PreprocessConfig(), rng=np.random.default_rng(3))
    assert plane.normal[2] >= 0


def test_remove_ground_drops_plane_keeps_objects():
    rng = np.random.default_rng(305)
    ground = flat_ground(rng, 500, z=-1.8)
    # A car-ish blob well above the split height and a low obstacle below it
    # but off the plane.
    car = rng.normal(scale=0.3, size=(60, 3)) + [5.0, 2.0, -0.5]
    curb = rng.normal(scale=0.02, size=(30, 3)) + [8.0, -3.0, -1.55 - 0.0]
    curb[:, 2] = -1.6  # 0.2 above the plane: outside the 0.15 tolerance
    cloud = make_cloud(np.vstack([ground, car, curb]))
    out = remove_ground(cloud, PreprocessConfig(), rng=np.random.default_rng(4))
    assert len(out) == 90
    assert np.array_equal(out.points, np.vstack([car, curb]))


def test_remove_ground_ignores_points_above_split():
    rng = np.random.default_rng(306)
    # Ground just below the split height; the probe point at z = -1.45 is
    # within the plane tolerance (0.10 < 0.15) but above the split, so the
    # gate alone is what keeps it.
    ground = flat_ground(rng, 300, z=-1.55)
    high = np.array([[0.0, 0.0, -1.45], [1.0, 1.0, 0.5]])
    cloud = make_cloud(np.vstack([ground, high]))
    out = remove_ground(cloud, PreprocessConfig(), rng=np.random.default_rng(5))
    assert len(out) == 2
    assert np.array_equal(out.points, high)


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
    out = remove_ground(make_cloud(mixed), PreprocessConfig(), rng=np.random.default_rng(6))
    assert np.array_equal(out.points, objects)


def test_remove_ground_warns_and_passes_through_when_too_few():
    pts = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.3], [0.0, 1.0, 0.2]])
    cloud = make_cloud(pts)
    with pytest.warns(GroundFitWarning):
        out = remove_ground(cloud, PreprocessConfig(), rng=np.random.default_rng(8))
    assert np.array_equal(out.points, pts)


# --- ground fit against the per-sample loop -------------------------------


def reference_fit_ground_plane(points, cfg, rng) -> Plane:
    """The plain RANSAC loop: every hypothesis counted over every point."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < max(3, cfg.min_plane_points):
        raise GroundPlaneError("insufficient ground candidates")
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
        raise GroundPlaneError("no non-degenerate 3-point sample found")
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
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = reference_fit_ground_plane(pts, cfg, ref_rng)
    except GroundPlaneError:
        with pytest.raises(GroundPlaneError):
            fit_ground_plane(pts, cfg, rng=rng)
        return
    got = fit_ground_plane(pts, cfg, rng=rng)
    assert got.normal.tobytes() == want.normal.tobytes()
    assert np.float64(got.offset).tobytes() == np.float64(want.offset).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
    plane = fit_ground_plane(pts, cfg, rng=np.random.default_rng(2))
    assert plane.offset == 2.0
    assert_fit_matches_reference(pts, cfg, 2)


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
    out = filter_drivable(make_cloud(pts), grid, identity_transform("ego", "city"))
    assert np.array_equal(out.points, pts[:2])


def test_filter_drivable_respects_ego_pose():
    grid = square_grid()
    # Ego sits at city (20, 0) looking along +y: ego +x maps to city +y.
    pose = RigidTransform(
        rotation=quat_from_yaw(np.pi / 2),
        translation=np.array([20.0, 0.0, 0.0]),
        from_frame="ego",
        to_frame="city",
    )
    pts = np.array(
        [
            [5.0, 15.0, 0.0],  # city (20 - 15, 5) = (5, 5): inside
            [5.0, 5.0, 0.0],  # city (15, 5): outside
        ]
    )
    out = filter_drivable(make_cloud(pts), grid, pose)
    assert len(out) == 1
    assert np.array_equal(out.points, pts[:1])


def test_filter_drivable_false_cells_drop():
    bits = np.ones((10, 10), dtype=bool)
    bits[0:5, :] = False  # southern half off (rows index y)
    grid = square_grid(bits=bits)
    pts = np.array([[2.0, 2.0, 0.0], [2.0, 7.0, 0.0]])
    out = filter_drivable(make_cloud(pts), grid, identity_transform("ego", "city"))
    assert np.array_equal(out.points, pts[1:])


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
        from_frame="ego",
        to_frame="camera",
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
    out = filter_by_masks(make_cloud(pts), cams, [full_image_mask()])
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
    out = filter_by_masks(make_cloud(pts), cams, [half])
    assert len(out) == 2
    assert np.array_equal(out.points, pts[1:])


def test_mask_filter_strict_drops_invisible_points():
    cam = camera_looking_forward()
    cams = {cam.camera_id: cam}
    pts = np.array([[10.0, 0.0, 0.0], [-10.0, 0.0, 0.0]])
    out = filter_by_masks(make_cloud(pts), cams, [full_image_mask()], strict=True)
    assert len(out) == 1
    assert np.array_equal(out.points, pts[:1])


def test_mask_filter_no_masks_is_identity_when_lenient():
    cam = camera_looking_forward()
    pts = np.random.default_rng(310).uniform(-5, 5, size=(20, 3))
    out = filter_by_masks(make_cloud(pts), {cam.camera_id: cam}, [])
    assert np.array_equal(out.points, pts)


def test_mask_filter_unknown_camera_rejected():
    cam = camera_looking_forward()
    bad = full_image_mask(cam_id="cam_rear")
    with pytest.raises(ConfigError):
        filter_by_masks(make_cloud(np.zeros((3, 3))), {cam.camera_id: cam}, [bad])


def build_frame(rng, index=0, n_ground=400, n_car=80):
    ground = flat_ground(rng, n_ground, z=-1.8)
    car = rng.normal(scale=0.4, size=(n_car, 3)) + [6.0, 1.0, -0.8]
    points = np.vstack([ground, car])
    return Frame(
        index=index,
        timestamp=0.1 * index,
        cloud=make_cloud(points),
        ego_pose=identity_transform("ego", "city"),
        masks=[],
    )


def test_preprocess_frame_stats_chain():
    rng = np.random.default_rng(311)
    frame = build_frame(rng)
    cfg = PreprocessConfig(stride=2)
    grid = DrivableGrid(
        origin_xy=np.array([-20.0, -20.0]), resolution=1.0, bits=np.ones((40, 40), bool)
    )
    cloud, stats = preprocess_frame(frame, cfg, cameras={}, drivable=grid)
    assert stats.n_raw == 480
    assert stats.n_downsampled == 240
    assert stats.n_after_ground <= stats.n_downsampled
    assert stats.n_after_drivable <= stats.n_after_ground
    assert stats.n_after_masks == stats.n_after_drivable == len(cloud)


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
    assert np.array_equal(a1.points, a2.points)
    assert np.array_equal(b1.points, b2.points)


def test_preprocess_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(stride=0)
    with pytest.raises(ValueError):
        PreprocessConfig(ransac_iterations=0)
    with pytest.raises(ValueError):
        PreprocessConfig(ransac_inlier_tol=0.0)
