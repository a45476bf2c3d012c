"""Sequence directory and tracks file round trips, plus malformed inputs."""

import copy
import dataclasses
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from oracles import quat_from_yaw

from lidartrack.dataset_io import (
    DrivableGrid,
    Frame,
    GroundTruthBox,
    MaskRegion,
    PointCloud,
    TrackRecord,
    _decode,
    _encode,
    load_calibration,
    load_drivable,
    load_ground_truth,
    load_sequence,
    load_tracks,
    write_sequence,
    write_tracks,
)
from lidartrack.config import PipelineConfig
from lidartrack.errors import DatasetError
from lidartrack.geometry import CameraModel, RigidTransform
from lidartrack.pipeline import run_tracking


def make_camera(cam_id="cam_front"):
    ext = RigidTransform(
        rotation=np.array([0.5, -0.5, 0.5, -0.5]),
        translation=np.array([1.2, 0.0, 1.5]),
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
                cloud=PointCloud(pts),
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
    gt = load_ground_truth(root / "gt.jsonl")
    want = make_gt()
    assert sorted(gt) == sorted(want)
    for frame, boxes in want.items():
        assert [b.track_id for b in gt[frame]] == [b.track_id for b in boxes]
        for got, box in zip(gt[frame], boxes):
            assert np.array_equal(got.center, box.center)
            assert (got.length, got.width, got.height) == (box.length, box.width, box.height)


def test_load_sequence_never_reads_gt(tmp_path):
    """Tracking input is everything but gt.jsonl, so a broken one cannot stop it."""
    root, _ = write_full(tmp_path)
    clean = load_sequence(root)
    with open(root / "gt.jsonl", "a") as fh:
        fh.write('{"frame": 0, "track_id": "car_0", "cen\n')
    seq = load_sequence(root)
    assert [f.index for f in seq.frames] == [f.index for f in clean.frames]
    assert [f.name for f in dataclasses.fields(seq)] == ["frames", "cameras", "drivable"]
    with pytest.raises(DatasetError, match="invalid JSON"):
        load_ground_truth(root / "gt.jsonl")


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
    assert not (root / "gt.jsonl").exists()
    assert seq.frames[0].masks == []


@pytest.mark.parametrize("line", [None, 3])
@pytest.mark.parametrize(
    "clone", [copy.copy, lambda e: pickle.loads(pickle.dumps(e))], ids=["copy", "pickle"]
)
def test_dataset_error_survives_copy_and_pickle(tmp_path, line, clone):
    # A worker process hands its error back to the parent through pickle.
    err = DatasetError(tmp_path / "gt.jsonl", "bad record", line=line)
    got = clone(err)
    assert type(got) is DatasetError
    assert (str(got), got.path, got.line) == (str(err), err.path, err.line)


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
    with pytest.raises(DatasetError, match="frame 1: size .* multiple of 12"):
        load_sequence(root)


def test_point_count_mismatch(tmp_path):
    root, _ = write_full(tmp_path)
    bin_path = root / "frames" / "000001.bin"
    bin_path.write_bytes(bin_path.read_bytes()[:-12])
    with pytest.raises(DatasetError, match="frame 1: manifest promises"):
        load_sequence(root)


@pytest.mark.filterwarnings("ignore::lidartrack.preprocess.GroundFitWarning")
def test_non_finite_points_name_file_frame_and_count(tmp_path):
    root, _ = write_full(tmp_path)
    bin_path = root / "frames" / "000001.bin"
    pts = np.frombuffer(bin_path.read_bytes(), dtype="<f4").reshape(-1, 3).copy()
    pts[3, 0] = np.nan
    pts[7, 2] = np.inf
    pts[7, 1] = -np.inf
    bin_path.write_bytes(pts.astype("<f4").tobytes())
    # The points are checked when the frame is read, not at load.
    seq = load_sequence(root)
    assert len(seq.frames[1].cloud) == len(pts)
    seq.frames[0].cloud.points
    with pytest.raises(DatasetError, match=r"frame 1: 2 point\(s\) have NaN") as err:
        seq.frames[1].cloud.points
    assert err.value.path == str(bin_path)
    with pytest.raises(DatasetError, match=r"frame 1: 2 point\(s\) have NaN") as err:
        run_tracking(seq, PipelineConfig())
    assert err.value.path == str(bin_path)


@pytest.mark.parametrize(
    "bad, count",
    [
        ({(2, 0): np.inf, (9, 1): -np.inf}, 2),  # the coordinates sum to NaN
        ({(5, 2): np.nan}, 1),
        ({(4, 0): 3.4e38, (4, 1): 3.4e38, (6, 2): -3.4e38, (8, 0): 3.4e38}, 0),
    ],
    ids=["inf-and-minus-inf", "lone-nan", "near-float32-max"],
)
def test_finiteness_check_finds_exactly_the_non_finite_rows(tmp_path, bad, count):
    root, _ = write_full(tmp_path)
    bin_path = root / "frames" / "000000.bin"
    pts = np.frombuffer(bin_path.read_bytes(), dtype="<f4").reshape(-1, 3).copy()
    for at, value in bad.items():
        pts[at] = value
    bin_path.write_bytes(pts.tobytes())
    cloud = load_sequence(root).frames[0].cloud
    if count:
        with pytest.raises(DatasetError, match=rf"frame 0: {count} point\(s\) have NaN"):
            cloud.points
    else:
        # Finite values as large as float32 holds are not reported.
        assert cloud.points.tobytes() == pts.tobytes()


@pytest.mark.parametrize("cut", [5, 12])
def test_cloud_file_truncated_after_load_names_it(tmp_path, cut):
    root, _ = write_full(tmp_path)
    seq = load_sequence(root)
    bin_path = root / "frames" / "000001.bin"
    bin_path.write_bytes(bin_path.read_bytes()[:-cut])
    assert len(seq.frames[1].cloud) == 50  # the manifest's count, nothing read
    with pytest.raises(DatasetError, match="multiple of 12|promises 50 points") as err:
        seq.frames[1].cloud.points
    assert err.value.path == str(bin_path)


def test_cloud_file_deleted_after_load_names_it(tmp_path):
    root, _ = write_full(tmp_path)
    seq = load_sequence(root)
    bin_path = root / "frames" / "000002.bin"
    bin_path.unlink()
    with pytest.raises(DatasetError, match="missing") as err:
        seq.frames[2].cloud.points
    assert err.value.path == str(bin_path)


def test_missing_cloud_file(tmp_path):
    root, _ = write_full(tmp_path)
    (root / "frames" / "000002.bin").unlink()
    with pytest.raises(DatasetError, match="missing"):
        load_sequence(root)


def test_cloud_directory_is_a_missing_file(tmp_path):
    root, _ = write_full(tmp_path)
    (root / "frames" / "000002.bin").unlink()
    (root / "frames" / "000002.bin").mkdir()
    with pytest.raises(DatasetError, match="missing"):
        load_sequence(root)


def test_cloud_path_with_a_nul_is_a_missing_file(tmp_path):
    root, _ = write_full(tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["frames"][1]["file"] = "frames/000001\u0000.bin"
    (root / "manifest.json").write_text(json.dumps(manifest))
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


def _reindex_frame_1(frames):
    frames[1]["index"] = 0  # tracked as frame 0 twice


def _append_pose_for_frame_0(frames):
    frames.append({**frames[2], "index": 0})  # would replace frame 0's pose


@pytest.mark.parametrize(
    "name, edit",
    [("manifest.json", _reindex_frame_1), ("poses.json", _append_pose_for_frame_0)],
)
def test_repeated_frame_index_names_the_file(tmp_path, name, edit):
    root, _ = write_full(tmp_path)
    obj = json.loads((root / name).read_text())
    edit(obj["frames"])
    (root / name).write_text(json.dumps(obj))
    with pytest.raises(DatasetError, match="duplicate frame index 0") as err:
        load_sequence(root)
    assert err.value.path == str(root / name)


def test_mask_referencing_unknown_camera(tmp_path):
    root, _ = write_full(tmp_path, with_masks=True)
    mask_path = root / "masks" / "000000.json"
    obj = json.loads(mask_path.read_text())
    obj["regions"][0]["camera_id"] = "cam_ghost"
    mask_path.write_text(json.dumps(obj))
    with pytest.raises(DatasetError, match="cam_ghost"):
        load_sequence(root)


def test_missing_drivable_bitmask_is_a_missing_file(tmp_path):
    root, _ = write_full(tmp_path)
    (root / "drivable.bin").unlink()
    with pytest.raises(DatasetError) as err:
        load_sequence(root)
    assert str(err.value) == f"{root / 'drivable.bin'}: file is missing"


def test_drivable_grid_leaves_out_coordinates_past_int64_range():
    grid = DrivableGrid(np.zeros(2), 0.5, np.ones((4, 4), bool))
    xy = np.array([[1e38, 0.0], [1.0, 1.0], [-3e38, 1.0], [0.5, 3e38], [0.5, -1e38]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid.contains(xy).tolist() == [False, True, False, False, False]


def test_drivable_bit_length_check(tmp_path):
    root, _ = write_full(tmp_path)
    bin_path = root / "drivable.bin"
    bin_path.write_bytes(bin_path.read_bytes() + b"\x00\x00")
    with pytest.raises(DatasetError, match="packed bytes; drivable.bin holds") as err:
        load_sequence(root)
    assert err.value.path == str(root / "drivable.json")


def test_drivable_grid_of_negative_size_names_the_header(tmp_path):
    # -17 x -12 needs as many packed bytes as 17 x 12, so only the size
    # rule can refuse it.
    root, _ = write_full(tmp_path)
    header_path = root / "drivable.json"
    header = json.loads(header_path.read_text())
    header["width"], header["height"] = -header["width"], -header["height"]
    header_path.write_text(json.dumps(header))
    with pytest.raises(DatasetError, match="'width'") as err:
        load_sequence(root)
    assert err.value.path == str(header_path)


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


@pytest.mark.parametrize(
    "loader, first_line",
    [
        pytest.param(load_ground_truth, b'{"frame": 0, "track_id": "a", "center": [0, 0, 0], '
                     b'"length": 4.0, "width": 2.0, "height": 1.5}', id="gt"),
        pytest.param(load_tracks, b'{"format": "lidartrack-tracks", "version": 1}', id="tracks"),
    ],
)
def test_bytes_that_are_not_utf8_name_file_and_line(tmp_path, loader, first_line):
    path = tmp_path / "records.jsonl"
    path.write_bytes(first_line + b'\n{"track_id": "\xff"}\n')
    with pytest.raises(DatasetError) as err:
        loader(path)
    assert err.value.line == 2
    assert "records.jsonl:2: invalid JSON" in str(err.value)


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


def test_gt_repeated_id_in_a_frame_names_file_and_line(tmp_path):
    path = tmp_path / "gt.jsonl"
    rec = {
        "frame": 0, "track_id": "a", "center": [0, 0, 0],
        "length": 4.0, "width": 2.0, "height": 1.5,
    }
    lines = [rec, {**rec, "frame": 1}, {**rec, "track_id": "b"}, {**rec, "center": [5, 0, 0]}]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    with pytest.raises(DatasetError, match="duplicate track_id 'a' in frame 0") as err:
        load_ground_truth(path)
    assert err.value.line == 4
    assert "gt.jsonl:4" in str(err.value)


@pytest.mark.parametrize(
    "key, value",
    [("center", [0.0, math.nan, 0.0]), ("length", math.inf), ("frame", math.nan)],
)
def test_gt_non_finite_number_rejected(tmp_path, key, value):
    path = tmp_path / "gt.jsonl"
    rec = {
        "frame": 0, "track_id": "a", "center": [0, 0, 0],
        "length": 4.0, "width": 2.0, "height": 1.5,
    }
    path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, key: value}) + "\n")
    with pytest.raises(DatasetError, match=repr(key)) as err:
        load_ground_truth(path)
    assert "gt.jsonl:2" in str(err.value)


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


def test_tracks_repeated_id_in_a_frame_names_file_and_line(tmp_path):
    path = tmp_path / "tracks.jsonl"
    records = sample_records()
    # Id 0 again in frame 1, after id 3; the same id in another frame is fine.
    write_tracks(path, records + [dataclasses.replace(records[1], x=9.0)])
    with pytest.raises(DatasetError, match="duplicate track_id 0 in frame 1") as err:
        load_tracks(path)
    assert err.value.line == 5
    assert "tracks.jsonl:5" in str(err.value)


@pytest.mark.parametrize(
    "key, value",
    [("x", math.nan), ("vx", math.inf), ("height", -math.inf), ("frame", math.inf)],
)
def test_tracks_non_finite_field_rejected(tmp_path, key, value):
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, sample_records())
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), key: value})  # NaN/Infinity tokens
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=repr(key)) as err:
        load_tracks(path)
    assert "tracks.jsonl:3" in str(err.value)


@pytest.mark.parametrize("key", ["x", "vy", "length"])
def test_write_tracks_refuses_non_finite_field(tmp_path, key):
    records = sample_records()
    records[1] = dataclasses.replace(records[1], **{key: math.nan})
    path = tmp_path / "tracks.jsonl"
    with pytest.raises(ValueError, match=repr(key)):
        write_tracks(path, records)
    assert not path.exists()


def test_tracks_missing_file_names_it(tmp_path):
    path = tmp_path / "tracks.jsonl"
    with pytest.raises(DatasetError, match="missing") as err:
        load_tracks(path)
    assert err.value.path == str(path)


def test_ground_truth_missing_file_names_it(tmp_path):
    path = tmp_path / "gt.jsonl"
    with pytest.raises(DatasetError, match="^.*gt.jsonl: file is missing$") as err:
        load_ground_truth(path)
    assert err.value.path == str(path)


# Each public reader and the path it reads, relative to a written sequence.
READERS = [
    pytest.param(load_sequence, "seq", id="load_sequence"),
    pytest.param(load_ground_truth, "seq/gt.jsonl", id="load_ground_truth"),
    pytest.param(load_tracks, "tracks.jsonl", id="load_tracks"),
    pytest.param(load_calibration, "seq/calibration.json", id="load_calibration"),
    pytest.param(load_drivable, "seq/drivable.json", id="load_drivable"),
]


@pytest.mark.parametrize("reader, rel", READERS)
def test_reader_takes_a_str_or_a_path(tmp_path, reader, rel):
    write_full(tmp_path)
    write_tracks(tmp_path / "tracks.jsonl", sample_records())
    path = tmp_path / rel
    assert pickle.dumps(reader(str(path))) == pickle.dumps(reader(path))


@pytest.mark.parametrize("reader, rel", READERS)
def test_reader_names_a_missing_str_path(tmp_path, reader, rel):
    path = str(tmp_path / "absent" / rel)
    with pytest.raises(DatasetError) as err:
        reader(path)
    assert err.value.path == path


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
        drivable=seq.drivable, ground_truth=load_ground_truth(root / "gt.jsonl"),
    )
    for rel in ["manifest.json", "poses.json", "calibration.json",
                "drivable.json", "drivable.bin", "gt.jsonl",
                "frames/000000.bin", "frames/000001.bin", "frames/000002.bin"]:
        a = (root / rel).read_bytes()
        b = (again / rel).read_bytes()
        assert a == b, f"{rel} differs after a load/write round trip"


def test_decode_refuses_a_field_it_has_no_cast_for(tmp_path):
    """A field whose type has no JSON cast is never read from the record."""
    intrinsics = json.loads(json.dumps(_encode(make_camera(), "camera_id", "extrinsics")))
    path = tmp_path / "calibration.json"
    pose = make_camera().extrinsics
    camera = _decode(CameraModel, intrinsics, path, camera_id="c", extrinsics=pose)
    assert camera.camera_id == "c" and camera.extrinsics is pose
    assert _encode(camera, "camera_id", "extrinsics") == intrinsics
    with pytest.raises(TypeError, match="extrinsics"):
        _decode(CameraModel, {**intrinsics, "extrinsics": None}, path, camera_id="c")


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    cloud = PointCloud(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


def test_records_hold_copies_of_the_callers_arrays():
    center = np.array([1.0, 2.0, 3.0])
    origin = np.array([1.0, 2.0])
    bits = np.ones((2, 3), dtype=bool)
    polygon = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    box = GroundTruthBox("a", center, 1.0, 1.0, 1.0)
    grid = DrivableGrid(origin_xy=origin, resolution=0.5, bits=bits)
    region = MaskRegion("cam", polygon)
    center[0] = origin[0] = polygon[0, 0] = 5.0
    bits[0, 0] = False
    assert box.center.tolist() == [1.0, 2.0, 3.0]
    assert grid.origin_xy.tolist() == [1.0, 2.0] and grid.bits.all()
    assert region.polygon[0, 0] == 0.0
