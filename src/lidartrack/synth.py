"""Synthetic LiDAR sequences with exact ground truth.

Scenes are built in the city frame: a flat ground plane, cars as boxes of
surface points translating at constant velocity along parallel lanes, and
uniform clutter. The ego vehicle drives a straight line at ego_speed (at 0
it stands still); clouds are stored in the ego frame of each timestamp, so
a moving ego exercises the ego-motion compensation path end to end.

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
from .geometry import CameraModel, RigidTransform, invert, transform_points

GROUND_Z = -1.7


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
        sizes = ("points_per_car", "clutter_points", "ground_density", "ground_extent")
        for key in ("n_cars", "noise_sigma") + sizes:
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be >= 0")
        for key in ("dt", "car_length", "car_width", "car_height"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")


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
    return RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.array([cfg.ego_speed * t, 0.0, 0.0]))


def _car_surface_points(cfg: SynthConfig, rng) -> np.ndarray:
    """Sample body-frame points on the five visible faces of a car box.

    Faces are weighted by area; the underside is skipped. The same body
    points are reused every frame (the car is rigid), per-frame jitter is
    added separately.
    """
    size = np.array([cfg.car_length, cfg.car_width, cfg.car_height])
    # Front, back, left, right, roof: each at side times the extent along axis.
    faces = ((0, 0.5), (0, -0.5), (1, 0.5), (1, -0.5), (2, 0.5))
    areas = np.array([np.prod(np.delete(size, axis)) for axis, _ in faces])
    counts = rng.multinomial(cfg.points_per_car, areas / areas.sum())
    parts = []
    for (axis, side), count in zip(faces, counts):
        if count == 0:
            continue
        ab = rng.uniform(-0.5, 0.5, size=(count, 2))
        parts.append(np.insert(ab, axis, side, axis=1) * size)
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
        ex = cfg.ego_speed * t_end
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
    # Forward camera: x right (-ego y), y down (-ego z), z forward (+ego x);
    # the quaternion of the rotation matrix [[0, -1, 0], [0, 0, -1], [1, 0, 0]].
    rot = np.array([0.5, 0.5, -0.5, 0.5])
    return CameraModel(
        camera_id="cam_front",
        fx=1000.0,
        fy=1000.0,
        cx=800.0,
        cy=600.0,
        width=1600,
        height=1200,
        extrinsics=RigidTransform(rot, np.zeros(3)),
    )


def ground_truth(cfg: SynthConfig) -> dict[int, list[GroundTruthBox]]:
    """Every car's exact box in every frame. The boxes follow from the scene
    layout alone, so rng_seed plays no part."""
    return {
        fi: [
            GroundTruthBox(
                track_id=f"car-{car}",
                center=car_center(cfg, car, fi * cfg.dt),
                length=cfg.car_length,
                width=cfg.car_width,
                height=cfg.car_height,
            )
            for car in range(cfg.n_cars)
        ]
        for fi in range(cfg.n_frames)
    }


def generate(cfg: SynthConfig) -> Sequence:
    """Build the scene in memory: frames, calibration, drivable grid.
    Its ground truth is `ground_truth(cfg)`."""
    body_points = [
        _car_surface_points(cfg, np.random.default_rng([cfg.rng_seed, 1, car]))
        for car in range(cfg.n_cars)
    ]
    clutter_lo, clutter_hi = _scene_bounds(cfg)
    clutter_lo = clutter_lo - 10.0
    clutter_hi = clutter_hi + 10.0

    frames = []
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

        for car in range(cfg.n_cars):
            jitter = _clipped_noise(
                np.random.default_rng([cfg.rng_seed, 4, fi, car]),
                cfg.noise_sigma,
                body_points[car].shape,
            )
            parts.append(body_points[car] + car_center(cfg, car, t) + jitter)

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
                cloud=PointCloud(ego_pts),
                ego_pose=pose,
            )
        )

    return Sequence(
        frames=frames, cameras={"cam_front": _default_camera()}, drivable=make_drivable_grid(cfg)
    )


def generate_to(path, cfg: SynthConfig) -> Path:
    """Generate and write a sequence directory with its gt.jsonl; returns its path."""
    seq = generate(cfg)
    return write_sequence(
        path, seq.frames, seq.cameras, drivable=seq.drivable, ground_truth=ground_truth(cfg)
    )

