"""Rigid transforms and pinhole camera projection.

Rotations are unit quaternions in scalar-first order (w, x, y, z). A
transform is a rotation and a translation; which frames it maps between is
said by the name it is stored under, as in the sequence format: a frame's
`ego_pose` (`poses.json`) maps ego to city, and a camera's `extrinsics`
(`ego_to_camera` in `calibration.json`) maps ego to that camera.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._frozen import check_shape, frozen

_QUAT_NORM_TOL = 1e-9


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix for a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Quaternion (w, x, y, z) for a proper rotation matrix.

    Shepperd's method: pick the largest diagonal combination to stay away
    from the small-divisor cases.
    """
    m = np.asarray(m, dtype=np.float64)
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quat_from_yaw(yaw: float) -> np.ndarray:
    """Quaternion for a rotation of `yaw` radians about +z."""
    return np.array([np.cos(yaw / 2.0), 0.0, 0.0, np.sin(yaw / 2.0)])


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) map: p -> R(rotation) p + translation."""

    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        q = frozen("rotation", self.rotation, np.float64, (4,))
        t = frozen("translation", self.translation, np.float64, (3,))
        if not np.all(np.isfinite(q)) or not np.all(np.isfinite(t)):
            raise ValueError("transform components must be finite")
        norm = np.linalg.norm(q)
        if norm < 1e-12:
            raise ValueError("zero-norm quaternion")
        if abs(norm - 1.0) > _QUAT_NORM_TOL:
            q = frozen("rotation", q / norm, np.float64, (4,))
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)


def identity_transform() -> RigidTransform:
    return RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


def invert(t: RigidTransform) -> RigidTransform:
    q_inv = quat_conjugate(t.rotation)
    t_inv = -(quat_to_matrix(q_inv) @ t.translation)
    return RigidTransform(q_inv, t_inv)


def transform_point(t: RigidTransform, p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    check_shape("p", p, (3,))
    return quat_to_matrix(t.rotation) @ p + t.translation


def transform_points(t: RigidTransform, points: np.ndarray) -> np.ndarray:
    """Apply `t` to an (N, 3) array of points."""
    pts = np.asarray(points, dtype=np.float64)
    check_shape("points", pts, ("N", 3))
    return pts @ quat_to_matrix(t.rotation).T + t.translation


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the ego-to-camera extrinsic transform.

    Camera frame convention: +z looks out of the lens, +x right, +y down,
    so a point is in front of the camera iff its camera-frame z is positive.
    """

    camera_id: str
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    extrinsics: RigidTransform = field(default_factory=identity_transform)

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")


def project_points(cam: CameraModel, points: np.ndarray):
    """Vectorized projection of (N, 3) ego-frame points.

    Returns (uv, depth, visible): uv is (N, 2) pixel coordinates (valid only
    where visible), depth is camera-frame z, and visible flags points that
    land inside the image with positive depth.
    """
    p_cam = transform_points(cam.extrinsics, points)
    depth = p_cam[:, 2]
    uv = np.zeros((len(p_cam), 2))
    in_front = depth > 0
    safe = np.where(in_front, depth, 1.0)
    uv[:, 0] = cam.fx * p_cam[:, 0] / safe + cam.cx
    uv[:, 1] = cam.fy * p_cam[:, 1] / safe + cam.cy
    visible = (
        in_front
        & (uv[:, 0] >= 0.0)
        & (uv[:, 0] < cam.width)
        & (uv[:, 1] >= 0.0)
        & (uv[:, 1] < cam.height)
    )
    return uv, depth, visible
