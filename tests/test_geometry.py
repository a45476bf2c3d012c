"""Rigid transforms, quaternions, and camera projection."""

import numpy as np
import pytest
from oracles import quat_from_yaw

from lidartrack.geometry import (
    CameraModel,
    RigidTransform,
    identity_transform,
    invert,
    project_points,
    quat_conjugate,
    quat_to_matrix,
    transform_points,
)


def random_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_transform(rng):
    return RigidTransform(rotation=random_quat(rng), translation=rng.uniform(-10, 10, size=3))


def test_quat_to_matrix_identity():
    R = quat_to_matrix(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(R, np.eye(3))


def test_quat_yaw_rotates_x_to_y():
    q = quat_from_yaw(np.pi / 2)
    R = quat_to_matrix(q)
    v = R @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-12)


def test_quat_matrix_roundtrip_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = random_quat(rng)
        R = quat_to_matrix(q)
        # Proper rotation: orthonormal, det +1.
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)


def test_quat_conjugate_inverts_rotation():
    rng = np.random.default_rng(13)
    for _ in range(50):
        q = random_quat(rng)
        assert np.allclose(quat_to_matrix(quat_conjugate(q)), quat_to_matrix(q).T, atol=1e-12)


def test_transform_points_of_one_row_matches_matrix_form():
    # detect moves each box centre to the city frame as one (1, 3) row.
    rng = np.random.default_rng(14)
    for _ in range(50):
        t = random_transform(rng)
        p = rng.uniform(-5, 5, size=3)
        expected = quat_to_matrix(t.rotation) @ p + t.translation
        assert np.allclose(transform_points(t, p[None])[0], expected, atol=1e-12)


def test_transform_points_vectorized_matches_row_by_row():
    rng = np.random.default_rng(15)
    t = random_transform(rng)
    pts = rng.uniform(-5, 5, size=(40, 3))
    batch = transform_points(t, pts)
    for i in range(len(pts)):
        assert np.allclose(batch[i], transform_points(t, pts[i : i + 1])[0], atol=1e-12)


def test_invert_roundtrip():
    rng = np.random.default_rng(18)
    for _ in range(50):
        t = random_transform(rng)
        inv = invert(t)
        p = rng.uniform(-5, 5, size=(1, 3))
        assert np.allclose(transform_points(inv, transform_points(t, p)), p, atol=1e-10)


def test_identity_transform_is_noop():
    t = identity_transform()
    p = np.array([[1.0, -2.0, 3.0]])
    assert np.array_equal(transform_points(t, p), p)


def test_rotation_is_normalized_on_construction():
    t = RigidTransform(rotation=np.array([2.0, 0.0, 0.0, 0.0]), translation=np.zeros(3))
    assert np.isclose(np.linalg.norm(t.rotation), 1.0)


@pytest.mark.parametrize(
    "rotation, translation, match",
    [
        pytest.param([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "zero-norm", id="zero-quaternion"),
        pytest.param([np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "finite", id="nan-rotation"),
        pytest.param([1.0, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0], "finite", id="inf-translation"),
    ],
)
def test_transform_rejected(rotation, translation, match):
    with pytest.raises(ValueError, match=match):
        RigidTransform(rotation=np.array(rotation), translation=np.array(translation))


def simple_camera(width=640, height=480, fx=500.0, fy=500.0):
    # Identity extrinsics: ego frame coincides with the camera frame,
    # so +z is straight ahead.
    return CameraModel(
        camera_id="cam_a",
        fx=fx,
        fy=fy,
        cx=width / 2,
        cy=height / 2,
        width=width,
        height=height,
        extrinsics=identity_transform(),
    )


def reference_project(cam, p_ego):
    """Scalar pinhole projection of one ego-frame point: (u, v, depth), or
    None when it lies behind the camera (depth <= 0) or off the image."""
    p_cam = quat_to_matrix(cam.extrinsics.rotation) @ p_ego + cam.extrinsics.translation
    depth = p_cam[2]
    if depth <= 0:
        return None
    u = cam.fx * p_cam[0] / depth + cam.cx
    v = cam.fy * p_cam[1] / depth + cam.cy
    if not (0.0 <= u < cam.width and 0.0 <= v < cam.height):
        return None
    return u, v, depth


def project_one(cam, p_ego):
    """project_points on a single point: (uv, depth, visible) of that point."""
    uv, depth, visible = project_points(cam, np.array([p_ego], dtype=np.float64))
    return uv[0], depth[0], visible[0]


def test_project_center_point():
    cam = simple_camera()
    uv, _, visible = project_one(cam, [0.0, 0.0, 10.0])
    assert visible
    assert np.isclose(uv[0], 320.0) and np.isclose(uv[1], 240.0)


def test_project_known_offset():
    cam = simple_camera()
    # x = 1 m right at z = 5 m: u = cx + fx * x / z = 320 + 100.
    uv, _, _ = project_one(cam, [1.0, 0.0, 5.0])
    assert np.isclose(uv[0], 420.0)
    assert np.isclose(uv[1], 240.0)


def test_projection_depth_is_camera_z():
    cam = simple_camera()
    _, depth, _ = project_one(cam, [1.0, 0.5, 7.5])
    assert np.isclose(depth, 7.5)


def test_project_behind_camera_is_not_visible():
    cam = simple_camera()
    assert not project_one(cam, [0.0, 0.0, -1.0])[2]
    assert not project_one(cam, [0.0, 0.0, 0.0])[2]


def test_project_outside_image_is_not_visible():
    cam = simple_camera()
    # u = 320 + 500 * 10 / 5 = 1320, far past the right edge.
    assert not project_one(cam, [10.0, 0.0, 5.0])[2]


def test_project_points_matches_the_scalar_reference():
    rng = np.random.default_rng(20)
    cam = simple_camera()
    pts_ego = rng.uniform(-8, 8, size=(200, 3))
    uv, depth, visible = project_points(cam, pts_ego)
    for i, p in enumerate(pts_ego):
        pix = reference_project(cam, p)
        if pix is None:
            assert not visible[i]
        else:
            assert visible[i]
            assert np.isclose(uv[i, 0], pix[0]) and np.isclose(uv[i, 1], pix[1])
    assert depth.shape == (200,)


def test_camera_rejects_bad_intrinsics():
    with pytest.raises(ValueError):
        simple_camera(fx=-1.0)
    with pytest.raises(ValueError):
        simple_camera(width=0)
