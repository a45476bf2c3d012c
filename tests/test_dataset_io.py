"""Sequence directory and tracks file round trips, plus malformed inputs."""

import json

import numpy as np
import pytest

from lidartrack.dataset_io import (
    DrivableGrid,
    Frame,
    GroundTruthBox,
    MaskRegion,
    PointCloud,
    TrackRecord,
    load_ground_truth,
    load_sequence,
    load_tracks,
    write_sequence,
    write_tracks,
)
from lidartrack.errors import DatasetError
from lidartrack.geometry import CameraModel, RigidTransform, quat_from_yaw


def make_camera(cam_id="cam_front"):
    ext = RigidTransform(
        rotation=np.array([0.5, -0.5, 0.5, -0.5]),
        translation=np.array([1.2, 0.0, 1.5]),
        from_frame="ego",
        to_frame=f"cam:{cam_id}",
    )
    return CameraModel(
        camera_id=cam_id, fx=900.0, fy=900.0, cx=640.0, cy=400.0, width=1280, height=800,
        extrinsics=ext,
    )


def make_frames(rng, n_frames=3, n_points=50, with_masks=False):
    frames = []
    for i in range(n_frames):
        pts = rng.uniform(-20, 20, size=(n_points, 3)).astype(np.float32).astype(np.float64)
        pose = RigidTransform(
            rotation=quat_from_yaw(0.02 * i),
            translation=np.array([2.0 * i, 0.5 * i, 0.0]),
            from_frame="ego",
            to_frame="city",
        )
        masks = []
        if with_masks:
            masks = [
                MaskRegion(
                    camera_id="cam_front",
                    polygon=np.array([[10.0, 10.0], [400.0, 10.0], [200.0, 300.0]]),
                )
            ]
        frames.append(
            Frame(
                index=i,
                timestamp=0.1 * i,
                cloud=PointCloud(pts, "ego"),
                ego_pose=pose,
                masks=masks,
            )
        )
    return frames


def make_gt():
    return {
        0: [GroundTruthBox("car_0", np.array([5.0, 1.0, -0.5]), 4.4, 1.9, 1.6)],
        1: [
            GroundTruthBox("car_0", np.array([6.0, 1.0, -0.5]), 4.4, 1.9, 1.6),
            GroundTruthBox("car_1", np.array([-3.0, 2.0, -0.5]), 4.2, 1.8, 1.5),
        ],
    }


def make_drivable():
    rng = np.random.default_rng(42)
    bits = rng.uniform(size=(12, 17)) > 0.3
    return DrivableGrid(origin_xy=np.array([-10.0, -5.0]), resolution=0.5, bits=bits)


def write_full(tmp_path, with_masks=True):
    rng = np.random.default_rng(400)
    frames = make_frames(rng, with_masks=with_masks)
    root = write_sequence(
        tmp_path / "seq",
        frames,
        {"cam_front": make_camera()},
        drivable=make_drivable(),
        ground_truth=make_gt(),
    )
    return root, frames


def test_sequence_roundtrip(tmp_path):
    root, frames = write_full(tmp_path)
    seq = load_sequence(root)
    assert len(seq) == 3
    for orig, got in zip(frames, seq.frames):
        assert got.index == orig.index
        assert got.timestamp == orig.timestamp
        # Already float32-quantized going in, so the trip is exact.
        assert np.array_equal(got.cloud.points, orig.cloud.points)
        assert np.allclose(got.ego_pose.rotation, orig.ego_pose.rotation)
        assert np.array_equal(got.ego_pose.translation, orig.ego_pose.translation)
    assert set(seq.cameras) == {"cam_front"}
    cam = seq.cameras["cam_front"]
    assert cam.fx == 900.0 and cam.width == 1280
    assert np.array_equal(seq.drivable.bits, make_drivable().bits)
    assert seq.drivable.resolution == 0.5
    assert set(seq.ground_truth) == {0, 1}
    assert seq.ground_truth[1][1].track_id == "car_1"


def test_masks_roundtrip(tmp_path):
    root, frames = write_full(tmp_path, with_masks=True)
    seq = load_sequence(root)
    assert len(seq.frames[0].masks) == 1
    got = seq.frames[0].masks[0]
    assert got.camera_id == "cam_front"
    assert np.array_equal(got.polygon, frames[0].masks[0].polygon)


def test_sequence_without_optional_parts(tmp_path):
    rng = np.random.default_rng(401)
    root = write_sequence(tmp_path / "bare", make_frames(rng), {"cam_front": make_camera()})
    seq = load_sequence(root)
    assert seq.drivable is None
    assert seq.ground_truth is None
    assert seq.frames[0].masks == []


def test_missing_directory():
    with pytest.raises(DatasetError, match="does not exist"):
        load_sequence("/no/such/place")


def test_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DatasetError, match="manifest"):
        load_sequence(tmp_path / "empty")


def test_wrong_format_tag(tmp_path):
    root, _ = write_full(tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["format"] = "something-else"
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="expected format"):
        load_sequence(root)


def test_non_increasing_timestamps(tmp_path):
    root, _ = write_full(tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["frames"][2]["timestamp"] = manifest["frames"][1]["timestamp"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="strictly increasing"):
        load_sequence(root)


def test_truncated_cloud_file(tmp_path):
    root, _ = write_full(tmp_path)
    bin_path = root / "frames" / "000001.bin"
    bin_path.write_bytes(bin_path.read_bytes()[:-5])
    with pytest.raises(DatasetError, match="multiple of 12"):
        load_sequence(root)


def test_point_count_mismatch(tmp_path):
    root, _ = write_full(tmp_path)
    bin_path = root / "frames" / "000001.bin"
    bin_path.write_bytes(bin_path.read_bytes()[:-12])
    with pytest.raises(DatasetError, match="promises"):
        load_sequence(root)


def test_non_finite_points_name_file_frame_and_count(tmp_path):
    root, _ = write_full(tmp_path)
    bin_path = root / "frames" / "000001.bin"
    pts = np.frombuffer(bin_path.read_bytes(), dtype="<f4").reshape(-1, 3).copy()
    pts[3, 0] = np.nan
    pts[7, 2] = np.inf
    pts[7, 1] = -np.inf
    bin_path.write_bytes(pts.astype("<f4").tobytes())
    with pytest.raises(DatasetError, match=r"frame 1: 2 point\(s\) have NaN") as err:
        load_sequence(root)
    assert err.value.path == str(bin_path)


def test_missing_cloud_file(tmp_path):
    root, _ = write_full(tmp_path)
    (root / "frames" / "000002.bin").unlink()
    with pytest.raises(DatasetError, match="missing"):
        load_sequence(root)


def test_missing_calibration_names_the_file(tmp_path):
    root, _ = write_full(tmp_path)
    (root / "calibration.json").unlink()
    with pytest.raises(DatasetError, match="calibration.json"):
        load_sequence(root)


def test_missing_pose_for_frame(tmp_path):
    root, _ = write_full(tmp_path)
    poses = json.loads((root / "poses.json").read_text())
    poses["frames"] = [p for p in poses["frames"] if p["index"] != 1]
    (root / "poses.json").write_text(json.dumps(poses))
    with pytest.raises(DatasetError, match="no ego pose for frame 1"):
        load_sequence(root)


def test_mask_referencing_unknown_camera(tmp_path):
    root, _ = write_full(tmp_path, with_masks=True)
    mask_path = root / "masks" / "000000.json"
    obj = json.loads(mask_path.read_text())
    obj["regions"][0]["camera_id"] = "cam_ghost"
    mask_path.write_text(json.dumps(obj))
    with pytest.raises(DatasetError, match="cam_ghost"):
        load_sequence(root)


def test_drivable_bit_length_check(tmp_path):
    root, _ = write_full(tmp_path)
    bin_path = root / "drivable.bin"
    bin_path.write_bytes(bin_path.read_bytes() + b"\x00\x00")
    with pytest.raises(DatasetError, match="packed bytes"):
        load_sequence(root)


def test_gt_error_carries_line_number(tmp_path):
    path = tmp_path / "gt.jsonl"
    good = {
        "frame": 0, "track_id": "a", "center": [0, 0, 0],
        "length": 4.0, "width": 2.0, "height": 1.5,
    }
    lines = [json.dumps(good), json.dumps({"frame": 1, "track_id": "b"})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError) as err:
        load_ground_truth(path)
    assert err.value.line == 2
    assert "gt.jsonl:2" in str(err.value)


def test_gt_blank_lines_ignored(tmp_path):
    path = tmp_path / "gt.jsonl"
    rec = {
        "frame": 3, "track_id": "z", "center": [1, 2, 3],
        "length": 4.0, "width": 2.0, "height": 1.5,
    }
    path.write_text("\n" + json.dumps(rec) + "\n\n")
    gt = load_ground_truth(path)
    assert list(gt) == [3]
    assert gt[3][0].track_id == "z"


def sample_records():
    return [
        TrackRecord(frame=0, track_id=0, x=1.0, y=2.0, z=-0.5, vx=5.0, vy=0.0,
                    length=4.4, width=1.9, height=1.6),
        TrackRecord(frame=1, track_id=0, x=1.5, y=2.0, z=-0.5, vx=5.0, vy=0.0,
                    length=4.4, width=1.9, height=1.6),
        TrackRecord(frame=1, track_id=3, x=-4.0, y=1.0, z=-0.4, vx=-2.0, vy=0.1,
                    length=4.1, width=1.8, height=1.5),
    ]


def test_tracks_roundtrip(tmp_path):
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, sample_records())
    got = load_tracks(path)
    assert got == sample_records()


def test_tracks_header_first_line(tmp_path):
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, sample_records())
    first = json.loads(path.read_text().splitlines()[0])
    assert first == {"format": "lidartrack-tracks", "version": 1}


def test_tracks_missing_header_rejected(tmp_path):
    path = tmp_path / "noheader.jsonl"
    rec = {
        "frame": 0, "track_id": 0, "x": 0, "y": 0, "z": 0, "vx": 0, "vy": 0,
        "length": 4, "width": 2, "height": 1.5,
    }
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DatasetError, match="header"):
        load_tracks(path)
    path.write_text("[1]\n")
    with pytest.raises(DatasetError, match="header"):
        load_tracks(path)


def test_tracks_bad_record_line_number(tmp_path):
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, sample_records())
    lines = path.read_text().splitlines()
    lines[2] = '{"frame": 1}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError) as err:
        load_tracks(path)
    assert err.value.line == 3


def test_tracks_empty_file_rejected(tmp_path):
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, [])
    assert load_tracks(path) == []
    path.write_text("")
    with pytest.raises(DatasetError):
        load_tracks(path)


def test_write_read_write_is_stable(tmp_path):
    """Second write of a loaded sequence is byte-identical to the first."""
    root, _ = write_full(tmp_path)
    seq = load_sequence(root)
    again = write_sequence(
        tmp_path / "copy", seq.frames, seq.cameras,
        drivable=seq.drivable, ground_truth=seq.ground_truth,
    )
    for rel in ["manifest.json", "poses.json", "calibration.json",
                "drivable.json", "drivable.bin", "gt.jsonl",
                "frames/000000.bin", "frames/000001.bin", "frames/000002.bin"]:
        a = (root / rel).read_bytes()
        b = (again / rel).read_bytes()
        assert a == b, f"{rel} differs after a load/write round trip"


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    cloud = PointCloud(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0
