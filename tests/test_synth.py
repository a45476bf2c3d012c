"""Synthetic sequence generator: determinism, kinematics, gt consistency."""

import dataclasses
import hashlib
import runpy
from pathlib import Path

import numpy as np
import pytest
from oracles import bake_ego_motion

from lidartrack.dataset_io import load_ground_truth, load_sequence
from lidartrack.errors import ConfigError
from lidartrack.geometry import identity_transform, transform_points
from lidartrack.synth import (
    GROUND_Z,
    SynthConfig,
    _scene_bounds,
    car_center,
    ego_pose,
    generate,
    generate_to,
    ground_truth,
    make_drivable_grid,
    synth_config_from_dict,
)


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


SMALL = SynthConfig(n_cars=2, n_frames=6, points_per_car=400, ground_density=1.0, clutter_points=40)


def test_regeneration_is_byte_identical(tmp_path):
    a = generate_to(tmp_path / "a", SMALL)
    b = generate_to(tmp_path / "b", SMALL)
    da, db = tree_digest(a), tree_digest(b)
    assert da == db
    assert len(da) >= SMALL.n_frames + 4  # clouds plus manifest/poses/calib/drivable/gt


def test_different_seed_changes_clouds(tmp_path):
    a = generate_to(tmp_path / "a", SMALL)
    b = generate_to(tmp_path / "b", SynthConfig(**{**vars(SMALL), "rng_seed": 9}))
    da, db = tree_digest(a), tree_digest(b)
    assert da["frames/000000.bin"] != db["frames/000000.bin"]
    assert da["gt.jsonl"] == db["gt.jsonl"]  # the boxes do not depend on the seed


def test_car_center_constant_velocity():
    cfg = SynthConfig(n_cars=3)
    for car in range(3):
        p0 = car_center(cfg, car, 0.0)
        p1 = car_center(cfg, car, 1.0)
        p2 = car_center(cfg, car, 2.0)
        assert np.allclose(p2 - p1, p1 - p0)
        assert p0[2] == GROUND_Z + cfg.car_height / 2.0
        assert p1[1] == p0[1]  # lanes are straight


def test_car_speeds_span_configured_range():
    cfg = SynthConfig(n_cars=3, speed_min=5.0, speed_max=15.0)
    v = [car_center(cfg, c, 1.0)[0] - car_center(cfg, c, 0.0)[0] for c in range(3)]
    assert np.allclose(v, [5.0, 10.0, 15.0])


def test_ego_pose_drives_a_line_at_ego_speed():
    p = ego_pose(SynthConfig(ego_speed=8.0), 2.0)
    assert np.allclose(p.translation, [16.0, 0.0, 0.0])
    assert np.array_equal(p.rotation, [1.0, 0.0, 0.0, 0.0])


def test_a_static_ego_is_ego_speed_zero():
    # The identity pose and the bounds around the origin, bit for bit.
    cfg = SynthConfig(n_cars=0, n_frames=20, ego_speed=0.0)
    for t in (0.0, 1.9):
        pose = ego_pose(cfg, t)
        for got, want in zip(
            (pose.rotation, pose.translation),
            (identity_transform().rotation, identity_transform().translation),
        ):
            assert got.tobytes() == want.tobytes()
    lo, hi = _scene_bounds(cfg)
    assert lo.tobytes() == np.array([-10.0, -10.0]).tobytes()
    assert hi.tobytes() == np.array([10.0, 10.0]).tobytes()


def test_gt_has_one_box_per_car_per_frame():
    cfg = SynthConfig(n_cars=4, n_frames=5, points_per_car=100, ground_density=0.5, clutter_points=0)
    gt = ground_truth(cfg)
    assert sorted(gt) == list(range(5))
    for fi, boxes in gt.items():
        assert len(boxes) == 4
        assert sorted(b.track_id for b in boxes) == [f"car-{c}" for c in range(4)]
        for c, box in enumerate(boxes):
            assert np.allclose(box.center, car_center(cfg, c, fi * cfg.dt))


# At 1 point a car, four of the five faces draw none.
@pytest.mark.parametrize("points_per_car", [500, 1])
def test_car_points_stay_inside_inflated_box(points_per_car):
    cfg = SynthConfig(
        n_cars=2, n_frames=4, points_per_car=points_per_car, ground_density=0.0,
        clutter_points=0, noise_sigma=0.01,
    )
    seq = generate(cfg)
    assert all(len(fr.cloud) == cfg.n_cars * points_per_car for fr in seq.frames)
    pad = 3.0 * cfg.noise_sigma + 1e-12
    half = np.array([cfg.car_length / 2, cfg.car_width / 2, cfg.car_height / 2]) + pad
    for fr in seq.frames:
        city = transform_points(fr.ego_pose, fr.cloud.points)
        covered = np.zeros(len(city), dtype=bool)
        for box in ground_truth(cfg)[fr.index]:
            inside = np.all(np.abs(city - box.center) <= half, axis=1)
            covered |= inside
        assert covered.all(), f"frame {fr.index}: {np.count_nonzero(~covered)} strays"


def test_ground_points_sit_on_the_plane():
    cfg = SynthConfig(n_cars=0, n_frames=2, ground_density=2.0, clutter_points=0, noise_sigma=0.005)
    seq = generate(cfg)
    for fr in seq.frames:
        city = transform_points(fr.ego_pose, fr.cloud.points)
        assert np.all(np.abs(city[:, 2] - GROUND_Z) <= 3 * cfg.noise_sigma + 1e-12)


def test_drivable_grid_covers_all_car_positions():
    cfg = SynthConfig(n_cars=3, n_frames=20)
    grid = make_drivable_grid(cfg)
    for car in range(cfg.n_cars):
        for fi in (0, cfg.n_frames - 1):
            xy = car_center(cfg, car, fi * cfg.dt)[:2]
            ix = int((xy[0] - grid.origin_xy[0]) / grid.resolution)
            iy = int((xy[1] - grid.origin_xy[1]) / grid.resolution)
            assert 0 <= iy < grid.bits.shape[0] and 0 <= ix < grid.bits.shape[1]
            assert grid.bits[iy, ix]


def test_bake_ego_motion_preserves_city_geometry():
    cfg = SynthConfig(n_cars=2, n_frames=4, points_per_car=200, ground_density=0.5,
                      clutter_points=20)
    seq = generate(cfg)
    baked = bake_ego_motion(seq)
    for orig, flat in zip(seq.frames, baked.frames):
        assert np.array_equal(flat.ego_pose.translation, np.zeros(3))
        want = transform_points(orig.ego_pose, orig.cloud.points)
        got = transform_points(flat.ego_pose, flat.cloud.points)
        assert np.allclose(got, want, atol=1e-12)


def test_moving_ego_shifts_stored_clouds():
    cfg = SynthConfig(n_cars=0, n_frames=3, ground_density=1.0, clutter_points=0,
                      ego_speed=10.0, noise_sigma=0.0)
    seq = generate(cfg)
    # Ground is sampled around the ego, so in the ego frame its xy mean
    # stays near zero even though the city-frame patch moves.
    for fr in seq.frames:
        assert np.all(np.abs(fr.cloud.points[:, :2].mean(axis=0)) < 2.0)


def test_written_sequence_loads_back(tmp_path):
    root = generate_to(tmp_path / "seq", SMALL)
    seq = load_sequence(root)
    assert len(seq.frames) == SMALL.n_frames
    assert seq.drivable is not None
    gt = load_ground_truth(root / "gt.jsonl")
    assert sorted(gt) == list(range(SMALL.n_frames))
    assert len(gt[0]) == SMALL.n_cars
    assert "cam_front" in seq.cameras
    for fr in seq.frames:
        # The cloud is read from its file each time its points are asked for.
        path = root / f"frames/{fr.index:06d}.bin"
        assert fr.cloud.path == path
        pts = fr.cloud.points
        assert len(pts) == len(fr.cloud) > 0
        # The file's float32 values, as stored, in an array of their own.
        assert pts.dtype == np.float32
        assert pts.flags.c_contiguous and not pts.flags.writeable
        assert pts.flags.owndata and pts.base is None  # not a view of the file's bytes
        assert pts.astype("<f4").tobytes() == path.read_bytes()
        assert pts.nbytes == 12 * len(fr.cloud)
        assert fr.cloud.points is not pts  # nothing keeps the array it returned


def test_zero_cars_yields_empty_gt_lists():
    cfg = SynthConfig(n_cars=0, n_frames=2, ground_density=0.5, clutter_points=5)
    assert ground_truth(cfg) == {0: [], 1: []}


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        synth_config_from_dict({"n_cars": 2, "car_count": 3})
    with pytest.raises(ConfigError):
        synth_config_from_dict({"n_frames": 0})
    cfg = synth_config_from_dict({"n_cars": 1, "rng_seed": 7})
    assert cfg.n_cars == 1 and cfg.rng_seed == 7


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_frames=0)
    with pytest.raises(ValueError):
        SynthConfig(dt=0.0)
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-0.1)


@pytest.mark.parametrize(
    "key, value",
    [
        ("points_per_car", -5),
        ("clutter_points", -5),
        ("ground_density", -0.5),
        ("ground_extent", -1.0),
        ("car_length", -4.4),
        ("car_length", 0.0),
        ("car_width", 0.0),
        ("car_height", -1.6),
    ],
)
def test_a_size_out_of_range_is_rejected_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"'synth'.*{key}"):
        synth_config_from_dict({key: value, "n_frames": 2})


def test_the_default_and_benchmark_synth_configs_load():
    assert synth_config_from_dict({}) == SynthConfig()
    workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
    for spec in workloads["WORKLOADS"].values():
        data = {**spec["synth"], "rng_seed": 3}
        assert dataclasses.asdict(synth_config_from_dict(data)).items() >= data.items()
