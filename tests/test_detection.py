"""Box fitting and the car-size gate."""

import numpy as np
import pytest

from lidartrack.clustering import ClusterParams
from lidartrack.dataset_io import Frame, PointCloud
from lidartrack.detection import BoxLimits, Detection3D, detect, fit_box, passes_heuristics
from lidartrack.geometry import RigidTransform, quat_from_yaw
from lidartrack.preprocess import PreprocessConfig


def test_fit_box_extremes_and_midpoint():
    pts = np.array(
        [
            [1.0, -2.0, 0.0],
            [5.0, 4.0, 1.0],
            [3.0, 1.0, 0.5],
        ]
    )
    det = fit_box(pts)
    assert np.allclose(det.center, [3.0, 1.0, 0.5])
    assert det.length == 4.0
    assert det.width == 6.0
    assert det.height == 1.0
    assert det.n_points == 3


def test_fit_box_single_point_is_degenerate():
    det = fit_box(np.array([[2.0, 3.0, 4.0]]))
    assert np.allclose(det.center, [2.0, 3.0, 4.0])
    assert det.length == det.width == det.height == 0.0


def test_fit_box_contains_all_points_randomized():
    rng = np.random.default_rng(500)
    for _ in range(50):
        pts = rng.uniform(-10, 10, size=(int(rng.integers(1, 200)), 3))
        det = fit_box(pts)
        half = np.array([det.length, det.width, det.height]) / 2.0
        assert np.all(pts >= det.center - half - 1e-12)
        assert np.all(pts <= det.center + half + 1e-12)


def test_fit_box_rejects_empty():
    with pytest.raises(ValueError):
        fit_box(np.zeros((0, 3)))


def car_box(length=4.4, width=1.9, height=1.6):
    return Detection3D(
        center=np.zeros(3), length=length, width=width, height=height, n_points=100
    )


def test_heuristics_accept_a_car():
    assert passes_heuristics(car_box(), BoxLimits())


def test_heuristics_orientation_agnostic():
    # The same car rotated 90 degrees swaps length and width.
    limits = BoxLimits()
    assert passes_heuristics(car_box(length=1.9, width=4.4), limits)


def test_heuristics_reject_walls_and_poles():
    limits = BoxLimits()
    wall = car_box(length=12.0, width=0.8, height=2.5)
    pole = car_box(length=0.3, width=0.3, height=2.8)
    assert not passes_heuristics(wall, limits)
    assert not passes_heuristics(pole, limits)


def test_heuristics_reject_too_tall_or_flat():
    limits = BoxLimits()
    truck = car_box(height=3.5)
    debris = car_box(height=0.2)
    assert not passes_heuristics(truck, limits)
    assert not passes_heuristics(debris, limits)


def test_heuristics_area_gate():
    limits = BoxLimits()
    # Extents individually fine, footprint too large: 6.5 x 3.2 exceeds
    # max_width though... use 6.9 x 2.95 = 20.355 > 20.
    big = car_box(length=6.9, width=2.95, height=1.5)
    assert not passes_heuristics(big, limits)


def test_heuristics_bounds_inclusive():
    limits = BoxLimits()
    edge = car_box(length=7.0, width=0.5, height=0.5)
    assert passes_heuristics(edge, limits)


def cluster_at(rng, center, n=120, size=(4.0, 1.8, 1.4)):
    half = np.array(size) / 2.0
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
    # Pin the extremes so the fitted box has the exact intended size.
    pts[0] = -half
    pts[1] = half
    return pts + np.asarray(center, dtype=np.float64)


def make_frame(points, yaw=0.0, shift=(0.0, 0.0)):
    pose = RigidTransform(
        rotation=quat_from_yaw(yaw),
        translation=np.array([shift[0], shift[1], 0.0]),
        from_frame="ego",
        to_frame="city",
    )
    return Frame(
        index=0, timestamp=0.0, cloud=PointCloud(points, "ego"), ego_pose=pose, masks=[]
    )


def detect_cfg():
    # No downsampling and no ground plane in these fixtures.
    return PreprocessConfig(stride=1, drivable_filter_enabled=False)


def test_detect_reports_city_frame_centers():
    rng = np.random.default_rng(501)
    pts = cluster_at(rng, [10.0, 2.0, 0.0])
    frame = make_frame(pts, yaw=np.pi / 2, shift=(100.0, 50.0))
    with pytest.warns(UserWarning):
        # No points below the ground split: the fit warns and passes through.
        # eps spans the whole cluster so the pinned corner points stay in.
        found = detect(
            frame, detect_cfg(), ClusterParams(eps=2.5, min_points=10), BoxLimits()
        )
    assert found.n_clusters == 1
    assert len(found.detections) == 1
    # Every point reaches clustering, still in the ego frame.
    assert np.array_equal(found.points, pts)
    # yaw 90: ego (10, 2) -> city (-2, 10) + (100, 50).
    (det,) = found.detections
    assert np.allclose(det.center[:2], [98.0, 60.0], atol=1e-9)
    # Only the center moves to the city frame; extents stay as fitted.
    ego = fit_box(pts)
    assert (det.length, det.width, det.height, det.n_points) == (
        ego.length, ego.width, ego.height, ego.n_points,
    )


def test_detect_sorts_by_city_position():
    rng = np.random.default_rng(502)
    # Two clusters whose ego order reverses under the ego pose.
    a = cluster_at(rng, [5.0, 0.0, 0.0])
    b = cluster_at(rng, [15.0, 0.0, 0.0])
    frame = make_frame(np.vstack([b, a]), yaw=np.pi)  # city x = -ego x
    with pytest.warns(UserWarning):
        dets = detect(
            frame, detect_cfg(), ClusterParams(eps=2.5, min_points=10), BoxLimits()
        ).detections
    assert len(dets) == 2
    assert dets[0].center[0] < dets[1].center[0]
    assert np.isclose(dets[0].center[0], -15.0)


def test_detect_gates_non_car_clusters():
    rng = np.random.default_rng(503)
    car = cluster_at(rng, [8.0, 0.0, 0.0])
    wall = cluster_at(rng, [0.0, 10.0, 0.0], n=400, size=(18.0, 0.6, 2.4))
    frame = make_frame(np.vstack([car, wall]))
    with pytest.warns(UserWarning):
        found = detect(
            frame, detect_cfg(), ClusterParams(eps=2.5, min_points=10), BoxLimits()
        )
    assert found.n_clusters == 2
    assert len(found.detections) == 1
    assert np.isclose(found.detections[0].center[0], 8.0)


def test_detect_empty_frame():
    frame = make_frame(np.zeros((0, 3)))
    with pytest.warns(UserWarning):
        found = detect(
            frame, detect_cfg(), ClusterParams(), BoxLimits()
        )
    assert found.detections == [] and found.n_clusters == 0
    assert found.stats.n_raw == 0
    assert len(found.points) == 0
