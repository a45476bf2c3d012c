"""Command line behavior: flows, output files, exit codes."""

import json
import re

import numpy as np
import pytest

from lidartrack.cli import main
from lidartrack.config import PipelineConfig, config_from_dict
from lidartrack.dataset_io import load_sequence
from lidartrack.pipeline import run_tracking

CARS = 3
FRAMES = 15


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "seq"
    assert main(["synth", str(root), "--cars", str(CARS), "--frames", str(FRAMES)]) == 0
    return root


@pytest.fixture(scope="module")
def tracked(dataset):
    assert main(["track", str(dataset)]) == 0
    return dataset / "tracks.jsonl"


def test_track_writes_default_output(tracked, capsys):
    capsys.readouterr()
    lines = [ln for ln in tracked.read_text().splitlines() if ln.strip()]
    assert json.loads(lines[0]) == {"format": "lidartrack-tracks", "version": 1}
    assert len(lines) == 1 + CARS * (FRAMES - 4)  # confirmation lag is 4 frames


def test_track_prints_per_frame_table(dataset, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["track", str(dataset), "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert re.search(r"frame\s+raw\s+sampled\s+nogrnd", text)
    body = [ln for ln in text.splitlines() if re.match(r"\s*\d+\s", ln)]
    assert len(body) == FRAMES
    assert f"frames={FRAMES}" in text
    assert out.exists()


def test_worker_count_leaves_tracks_bytes_identical(dataset, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["track", str(dataset), "--output", str(a), "--workers", "1"]) == 0
    assert main(["track", str(dataset), "--output", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_reports_expected_counts(dataset, tracked, capsys):
    assert main(["eval", str(dataset), str(tracked)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gt_count"] == CARS * FRAMES
    assert report["false_negatives"] == CARS * 4
    assert report["false_positives"] == 0
    assert report["id_switches"] == 0
    assert report["mota"] == pytest.approx(1.0 - (CARS * 4) / (CARS * FRAMES))


def test_eval_per_frame_csv(dataset, tracked, tmp_path, capsys):
    csv_path = tmp_path / "per_frame.csv"
    assert main(["eval", str(dataset), str(tracked), "--per-frame", str(csv_path)]) == 0
    capsys.readouterr()
    rows = csv_path.read_text().splitlines()
    assert rows[0].split(",")[:3] == ["frame", "n_gt", "n_hyp"]
    assert len(rows) == 1 + FRAMES


def test_plot_writes_svgs(dataset, tracked, tmp_path, capsys):
    out = tmp_path / "plots"
    assert main([
        "plot", str(dataset), str(tracked), "--output", str(out), "--max-frames", "8",
    ]) == 0
    capsys.readouterr()
    files = sorted(out.glob("frame_*.svg"))
    assert len(files) == 8
    early = files[2].read_text()  # pre-confirmation: detections but no tracks
    late = files[7].read_text()
    assert early.count('class="track-id"') == 0
    assert late.count('class="track-id"') == CARS
    assert late.count('class="det"') == CARS
    # plot draws exactly the detections that track feeds the tracker.
    tracked_frames = run_tracking(load_sequence(dataset), PipelineConfig()).frames
    for svg, fr in zip(files, tracked_frames):
        assert svg.name == f"frame_{fr.frame_index:06d}.svg"
        assert svg.read_text().count('class="det"') == fr.n_detections


@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param("plot", "--max-frames", id="plot"),
        pytest.param("bench", "--max-frames", id="bench"),
        pytest.param("bench", "--cluster-points", id="bench-cluster-points"),
    ],
)
def test_negative_max_frames_is_a_usage_error(dataset, tmp_path, capsys, command, flag):
    out = tmp_path / "plots"
    argv = [command, str(dataset), flag, "-1"]
    if command == "plot":
        argv += ["--output", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_nonpositive_workers_is_a_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "t.jsonl"
    # The dataset does not exist: the flag is rejected before anything loads.
    argv = ["track", str(tmp_path / "missing"), "--workers", workers, "--output", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "--workers" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_bench_prints_stage_table(dataset, capsys):
    assert main(["bench", str(dataset), "--max-frames", "2", "--cluster-points", "1500"]) == 0
    text = capsys.readouterr().out
    for stage in ("downsample", "ground_removal", "clustering", "tracker_step"):
        assert stage in text
    assert "kdtree" in text
    assert "brute" in text


def test_print_config_roundtrips(capsys):
    assert main(["track", "--print-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert config_from_dict(printed) == PipelineConfig()


def test_seed_flag_overrides_preprocess_seed(capsys):
    assert main(["track", "--print-config", "--seed", "99"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["preprocess"]["rng_seed"] == 99


def test_config_file_feeds_the_pipeline(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"clustering": {"eps": 0.8}}))
    assert main(["track", "--config", str(cfg_path), "--print-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["clustering"]["eps"] == 0.8


def test_synth_seed_changes_the_data(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", str(a), "--cars", "1", "--frames", "2", "--seed", "1"]) == 0
    assert main(["synth", str(b), "--cars", "1", "--frames", "2", "--seed", "2"]) == 0
    assert (a / "frames/000000.bin").read_bytes() != (b / "frames/000000.bin").read_bytes()


def test_missing_dataset_is_a_data_error(tmp_path, capsys):
    assert main(["track", str(tmp_path / "missing")]) == 2
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("drivable_filter", [True, False])
def test_non_finite_point_is_a_data_error(tmp_path, capsys, drivable_filter):
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "3"]) == 0
    frame = sorted((root / "frames").glob("*.bin"))[1]
    pts = np.frombuffer(frame.read_bytes(), dtype="<f4").reshape(-1, 3).copy()
    pts[0, 1] = np.nan
    frame.write_bytes(pts.tobytes())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preprocess": {"drivable_filter_enabled": drivable_filter}}))
    capsys.readouterr()
    assert main(["track", str(root), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert frame.name in err
    assert "frame 1: 1 point(s) have NaN" in err


DELETE = object()
CAMERA_ROTATION = ["cameras", "cam_front", "ego_to_camera", "rotation"]
CAMERA_FX = ["cameras", "cam_front", "intrinsics", "fx"]


@pytest.mark.parametrize(
    "name, keys, value",
    [
        pytest.param("calibration.json", CAMERA_ROTATION, DELETE, id="camera-without-rotation"),
        pytest.param("calibration.json", CAMERA_ROTATION, [0, 0, 0, 0], id="zero-quaternion"),
        pytest.param("manifest.json", ["frames", 0, "points"], "abc", id="points-not-a-number"),
        pytest.param("poses.json", ["frames", 0, "index"], None, id="null-pose-index"),
        pytest.param("drivable.json", ["resolution"], 0, id="zero-resolution"),
        pytest.param("manifest.json", [], [], id="manifest-root-is-a-list"),
        pytest.param("poses.json", ["frames"], 5, id="pose-frames-not-a-list"),
        pytest.param("calibration.json", ["cameras"], 5, id="cameras-not-an-object"),
        pytest.param("calibration.json", CAMERA_FX, None, id="null-focal-length"),
        # Already a data error before loader values were checked; the control.
        pytest.param("manifest.json", ["frames", 0], "frames/000000.bin", id="frame-is-a-string"),
    ],
)
def test_malformed_sequence_file_is_a_data_error(tmp_path, capsys, name, keys, value):
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "2"]) == 0
    obj = json.loads((root / name).read_text())
    if not keys:
        obj = value
    else:
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    (root / name).write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["track", str(root)]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize(
    "mask",
    [
        pytest.param({"regions": [{"camera_id": "cam_front", "polygon": "abc"}]}, id="polygon-abc"),
        # Already a data error when the polygon was not cast; the control.
        pytest.param({"regions": [{"camera_id": "cam_front", "polygon": None}]}, id="null-polygon"),
        pytest.param({"regions": 5}, id="regions-not-a-list"),
        pytest.param({"regions": [{"camera_id": [1], "polygon": [[0, 0]] * 3}]}, id="list-camera"),
    ],
)
def test_malformed_mask_file_is_a_data_error(tmp_path, capsys, mask):
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "2"]) == 0
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["frames"][0]["masks"] = "masks/000000.json"
    (root / "manifest.json").write_text(json.dumps(manifest))
    (root / "masks").mkdir()
    (root / "masks" / "000000.json").write_text(json.dumps(mask))
    capsys.readouterr()
    assert main(["track", str(root)]) == 2
    assert "000000.json" in capsys.readouterr().err


def test_unreadable_tracks_file_is_a_data_error(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"frame": 0}\n')
    assert main(["eval", str(dataset), str(bad)]) == 2
    assert "bad.jsonl" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["track"]) == 1  # dataset argument missing
    assert main(["eval"]) == 1
    cfg = tmp_path / "nope.json"
    assert main(["track", "--config", str(cfg), "--print-config"]) == 1
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_bad_config_json_exits_one(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{oops")
    assert main(["track", "--config", str(cfg), "--print-config"]) == 1
    assert "broken.json" in capsys.readouterr().err


def test_empty_scene_tracks_cleanly(tmp_path, capsys):
    root = tmp_path / "empty"
    assert main(["synth", str(root), "--cars", "0", "--frames", "3"]) == 0
    assert main(["track", str(root)]) == 0
    capsys.readouterr()
    lines = [ln for ln in (root / "tracks.jsonl").read_text().splitlines() if ln.strip()]
    assert len(lines) == 1  # header only, no confirmed tracks
