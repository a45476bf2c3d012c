"""Synthetic LiDAR sequences with exact ground truth.

Scenes are built in the city frame: a flat ground plane, cars as boxes of
surface points translating at constant velocity along parallel lanes, and
uniform clutter. The ego vehicle either stands still or drives a straight
line; clouds are stored in the ego frame of each timestamp, so a moving ego
exercises the ego-motion compensation path end to end.

Everything is drawn from per-frame, per-stream seeded generators, which
makes regeneration byte-identical for a fixed config and lets any frame be
produced without generating the ones before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import build_section
from .dataset_io import (
    DrivableGrid,
    Frame,
    GroundTruthBox,
    PointCloud,
    Sequence,
    write_sequence,
)
from .geometry import (
    CameraModel,
    RigidTransform,
    identity_transform,
    invert,
    quat_from_matrix,
    transform_points,
)

GROUND_Z = -1.7

EGO_MODES = ("static", "line")


@dataclass(frozen=True)
class SynthConfig:
    n_cars: int = 5
    n_frames: int = 50
    dt: float = 0.1
    car_length: float = 4.4
    car_width: float = 1.9
    car_height: float = 1.6
    speed_min: float = 5.0
    speed_max: float = 15.0
    lane_spacing: float = 5.0
    ego_mode: str = "line"
    ego_speed: float = 8.0
    points_per_car: int = 3000
    ground_density: float = 6.0  # points per square meter, before downsampling
    ground_extent: float = 30.0  # half-size of the ground patch around the ego
    clutter_points: int = 150
    noise_sigma: float = 0.01
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.n_cars < 0:
            raise ValueError("n_cars must be >= 0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.ego_mode not in EGO_MODES:
            raise ValueError(f"ego_mode must be one of {EGO_MODES}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def synth_config_from_dict(data: dict) -> SynthConfig:
    return build_section("synth", SynthConfig, data)


def _car_speeds(cfg: SynthConfig) -> np.ndarray:
    return np.linspace(cfg.speed_min, cfg.speed_max, cfg.n_cars)


def _car_start(cfg: SynthConfig, car: int) -> np.ndarray:
    lane_y = (car - (cfg.n_cars - 1) / 2.0) * cfg.lane_spacing
    return np.array([-3.0 * car, lane_y, GROUND_Z + cfg.car_height / 2.0])


def car_center(cfg: SynthConfig, car: int, t: float) -> np.ndarray:
    """Exact constant-velocity ground truth center of one car at time t."""
    start = _car_start(cfg, car)
    speed = _car_speeds(cfg)[car]
    return start + np.array([speed * t, 0.0, 0.0])


def ego_pose(cfg: SynthConfig, t: float) -> RigidTransform:
    if cfg.ego_mode == "static":
        return identity_transform("ego", "city")
    return RigidTransform(
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.array([cfg.ego_speed * t, 0.0, 0.0]),
        "ego",
        "city",
    )


def _car_surface_points(cfg: SynthConfig, rng) -> np.ndarray:
    """Sample body-frame points on the five visible faces of a car box.

    Faces are weighted by area; the underside is skipped. The same body
    points are reused every frame (the car is rigid), per-frame jitter is
    added separately.
    """
    length, width, height = cfg.car_length, cfg.car_width, cfg.car_height
    areas = np.array(
        [width * height, width * height, length * height, length * height, length * width]
    )
    counts = rng.multinomial(cfg.points_per_car, areas / areas.sum())
    parts = []
    for face, count in enumerate(counts):
        if count == 0:
            continue
        ab = rng.uniform(-0.5, 0.5, size=(count, 2))
        if face == 0:
            p = np.column_stack([np.full(count, length / 2), ab[:, 0] * width, ab[:, 1] * height])
        elif face == 1:
            p = np.column_stack([np.full(count, -length / 2), ab[:, 0] * width, ab[:, 1] * height])
        elif face == 2:
            p = np.column_stack([ab[:, 0] * length, np.full(count, width / 2), ab[:, 1] * height])
        elif face == 3:
            p = np.column_stack([ab[:, 0] * length, np.full(count, -width / 2), ab[:, 1] * height])
        else:
            p = np.column_stack([ab[:, 0] * length, ab[:, 1] * width, np.full(count, height / 2)])
        parts.append(p)
    return np.concatenate(parts) if parts else np.zeros((0, 3))


def _clipped_noise(rng, sigma: float, shape) -> np.ndarray:
    """Gaussian jitter clipped to 3 sigma, so every car point stays inside
    its ground-truth box inflated by 3 * noise_sigma."""
    if sigma == 0:
        return np.zeros(shape)
    return np.clip(rng.normal(0.0, sigma, size=shape), -3.0 * sigma, 3.0 * sigma)


def _scene_bounds(cfg: SynthConfig):
    """xy bounding box of every car path over the whole sequence."""
    t_end = (cfg.n_frames - 1) * cfg.dt
    if cfg.n_cars == 0:
        ex = cfg.ego_speed * t_end if cfg.ego_mode == "line" else 0.0
        return np.array([min(0.0, ex) - 10.0, -10.0]), np.array([max(0.0, ex) + 10.0, 10.0])
    centers = []
    for car in range(cfg.n_cars):
        centers.append(car_center(cfg, car, 0.0)[:2])
        centers.append(car_center(cfg, car, t_end)[:2])
    centers = np.array(centers)
    half = np.array([cfg.car_length / 2, cfg.car_width / 2])
    return centers.min(axis=0) - half, centers.max(axis=0) + half


def make_drivable_grid(cfg: SynthConfig, margin: float = 3.0, resolution: float = 0.5) -> DrivableGrid:
    lo, hi = _scene_bounds(cfg)
    lo = lo - margin
    hi = hi + margin
    width = int(np.ceil((hi[0] - lo[0]) / resolution))
    height = int(np.ceil((hi[1] - lo[1]) / resolution))
    bits = np.ones((max(height, 1), max(width, 1)), dtype=bool)
    return DrivableGrid(origin_xy=lo, resolution=resolution, bits=bits)


def _default_camera() -> CameraModel:
    # Forward camera: x right (-ego y), y down (-ego z), z forward (+ego x).
    rot = quat_from_matrix(np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]))
    return CameraModel(
        camera_id="cam_front",
        fx=1000.0,
        fy=1000.0,
        cx=800.0,
        cy=600.0,
        width=1600,
        height=1200,
        extrinsics=RigidTransform(rot, np.zeros(3), "ego", "cam:cam_front"),
    )


def generate(cfg: SynthConfig) -> Sequence:
    """Build the scene in memory: frames, calibration, drivable grid, gt."""
    body_points = [
        _car_surface_points(cfg, np.random.default_rng([cfg.rng_seed, 1, car]))
        for car in range(cfg.n_cars)
    ]
    clutter_lo, clutter_hi = _scene_bounds(cfg)
    clutter_lo = clutter_lo - 10.0
    clutter_hi = clutter_hi + 10.0

    frames = []
    ground_truth: dict[int, list[GroundTruthBox]] = {}
    n_ground = int(round(cfg.ground_density * (2 * cfg.ground_extent) ** 2))

    for fi in range(cfg.n_frames):
        t = fi * cfg.dt
        pose = ego_pose(cfg, t)
        ego_xy = pose.translation[:2]

        parts = []
        g_rng = np.random.default_rng([cfg.rng_seed, 2, fi])
        if n_ground:
            gxy = g_rng.uniform(-cfg.ground_extent, cfg.ground_extent, size=(n_ground, 2)) + ego_xy
            gz = GROUND_Z + _clipped_noise(g_rng, cfg.noise_sigma, n_ground)
            parts.append(np.column_stack([gxy, gz]))

        boxes = []
        for car in range(cfg.n_cars):
            center = car_center(cfg, car, t)
            jitter = _clipped_noise(
                np.random.default_rng([cfg.rng_seed, 4, fi, car]),
                cfg.noise_sigma,
                body_points[car].shape,
            )
            parts.append(body_points[car] + center + jitter)
            boxes.append(
                GroundTruthBox(
                    track_id=f"car-{car}",
                    center=center,
                    length=cfg.car_length,
                    width=cfg.car_width,
                    height=cfg.car_height,
                )
            )
        ground_truth[fi] = boxes

        c_rng = np.random.default_rng([cfg.rng_seed, 3, fi])
        if cfg.clutter_points:
            cxy = c_rng.uniform(clutter_lo, clutter_hi, size=(cfg.clutter_points, 2))
            cz = c_rng.uniform(-1.2, 1.0, size=cfg.clutter_points)
            parts.append(np.column_stack([cxy, cz]))

        city = np.concatenate(parts) if parts else np.zeros((0, 3))
        ego_pts = transform_points(invert(pose), city)
        frames.append(
            Frame(
                index=fi,
                timestamp=t,
                cloud=PointCloud(ego_pts, frame="ego"),
                ego_pose=pose,
            )
        )

    return Sequence(
        frames=frames,
        cameras={"cam_front": _default_camera()},
        drivable=make_drivable_grid(cfg),
        ground_truth=ground_truth,
        path=None,
    )


def generate_to(path, cfg: SynthConfig) -> Path:
    """Generate and write a sequence directory; returns its path."""
    seq = generate(cfg)
    return write_sequence(
        path, seq.frames, seq.cameras, drivable=seq.drivable, ground_truth=seq.ground_truth
    )


def bake_ego_motion(seq: Sequence) -> Sequence:
    """Rewrite a sequence as seen by a motionless observer at the city origin.

    Each cloud is transformed by its ego pose and the poses are replaced
    with the identity. Tracking output in the city frame must not care
    which of the two representations it was fed.
    """
    frames = []
    for fr in seq.frames:
        city_pts = transform_points(fr.ego_pose, fr.cloud.points)
        frames.append(
            Frame(
                index=fr.index,
                timestamp=fr.timestamp,
                cloud=PointCloud(city_pts, frame="ego"),
                ego_pose=identity_transform("ego", "city"),
                masks=fr.masks,
            )
        )
    return Sequence(
        frames=frames,
        cameras=seq.cameras,
        drivable=seq.drivable,
        ground_truth=seq.ground_truth,
        path=None,
    )
