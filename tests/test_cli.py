"""Command line behavior: flows, output files, exit codes."""

import json
import math
import os
import re
import shutil
import sys
import warnings

import numpy as np
import pytest

from lidartrack import cli as cli_module
from lidartrack.cli import main
from lidartrack.config import PipelineConfig, config_from_dict
from lidartrack.dataset_io import load_sequence
from lidartrack.pipeline import run_tracking
from lidartrack.preprocess import _COUNT_BLOCK, _SAMPLED_PROBE_ABOVE, STAGES, GroundFitWarning

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


# Stride 1 is the sweep path: every frame has more ground candidates than
# the sampled probe starts at, and its full counts run over several blocks.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stride", [10, 1])
def test_worker_count_leaves_tracks_bytes_identical(dataset, tmp_path, capsys, stride):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preprocess": {"stride": stride}}))
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    capsys.readouterr()
    assert main(["track", str(dataset), "--config", str(cfg), "--output", str(a), "--workers", "1"]) == 0
    table_a = capsys.readouterr().out.splitlines()
    assert main(["track", str(dataset), "--config", str(cfg), "--output", str(b), "--workers", "4"]) == 0
    table_b = capsys.readouterr().out.splitlines()
    assert a.read_bytes() == b.read_bytes()
    # The per-frame table too, up to the summary's elapsed time.
    assert len(table_a) == FRAMES + 2
    assert table_a[:-1] == table_b[:-1]
    assert table_a[-1].split(" elapsed=")[0] == table_b[-1].split(" elapsed=")[0]
    if stride == 1:  # every frame whole, as the table's sampled column shows
        below = -PipelineConfig().preprocess.ground_split_height
        for line, frame in zip(table_a[1:-1], load_sequence(dataset).frames):
            z = frame.cloud.points[:, 2]
            assert int(line.split()[2]) == len(z) > _COUNT_BLOCK
            assert np.count_nonzero(z < below) > _SAMPLED_PROBE_ABOVE

    # One bench entry each on 1 and 2 workers, appended to one file.
    bench = tmp_path / "BENCH.json"
    for workers in ("1", "2"):
        argv = ["bench", str(dataset), "--config", str(cfg), "--max-frames", "2",
                "--workers", workers, "--json", str(bench)]
        assert main(argv) == 0
    capsys.readouterr()
    runs = json.loads(bench.read_text())["runs"]
    assert [run["workers"] for run in runs] == [1, 2]
    for run in runs:
        assert run["config"]["preprocess"]["stride"] == stride
        assert list(run["stage_ms"]) == list(STAGES)
        memory = run["memory_mb"]
        assert memory["peak_rss"] is None or 0 < memory["clouds"] < memory["peak_rss"]


def test_eval_reports_expected_counts(dataset, tracked, capsys):
    assert main(["eval", str(dataset), str(tracked)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gt_count"] == CARS * FRAMES
    assert report["false_negatives"] == CARS * 4
    assert report["false_positives"] == 0
    assert report["id_switches"] == 0
    assert report["mota"] == pytest.approx(1.0 - (CARS * 4) / (CARS * FRAMES))


def test_eval_without_ground_truth_is_a_data_error_naming_it(tracked, tmp_path, capsys):
    # A sequence directory with no gt.jsonl: the file is named, not an OS error.
    assert main(["eval", str(tmp_path), str(tracked)]) == 2
    assert f"{tmp_path / 'gt.jsonl'}: file is missing" in capsys.readouterr().err


def test_eval_per_frame_csv(dataset, tracked, tmp_path, capsys):
    csv_path = tmp_path / "per_frame.csv"
    assert main(["eval", str(dataset), str(tracked), "--per-frame", str(csv_path)]) == 0
    capsys.readouterr()
    rows = csv_path.read_text().splitlines()
    assert rows[0].split(",")[:3] == ["frame", "n_gt", "n_hyp"]
    assert len(rows) == 1 + FRAMES


def test_eval_per_frame_csv_creates_missing_parent_directories(dataset, tracked, tmp_path, capsys):
    csv_path = tmp_path / "new" / "dir" / "per_frame.csv"
    assert main(["eval", str(dataset), str(tracked), "--per-frame", str(csv_path)]) == 0
    capsys.readouterr()
    assert len(csv_path.read_text().splitlines()) == 1 + FRAMES


def test_eval_per_frame_path_that_is_a_directory_prints_nothing(dataset, tracked, tmp_path, capsys):
    capsys.readouterr()
    assert main(["eval", str(dataset), str(tracked), "--per-frame", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lidartrack: error: {tmp_path}: Is a directory\n"


def test_track_output_path_that_is_a_directory_names_it(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(["track", str(dataset), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lidartrack: error: {out}: Is a directory\n"
    assert list(out.iterdir()) == []


def test_eval_per_frame_csv_header_without_frames(dataset, tracked, tmp_path, capsys):
    full = tmp_path / "full.csv"
    assert main(["eval", str(dataset), str(tracked), "--per-frame", str(full)]) == 0
    gt = tmp_path / "gt.jsonl"
    gt.write_text("")
    tracks = tmp_path / "tracks.jsonl"
    tracks.write_text('{"format": "lidartrack-tracks", "version": 1}\n')
    empty = tmp_path / "empty.csv"
    assert main(["eval", str(gt), str(tracks), "--per-frame", str(empty)]) == 0
    capsys.readouterr()
    assert empty.read_text().splitlines() == full.read_text().splitlines()[:1]


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
    "command, flag, value",
    [
        pytest.param("plot", "--max-frames", "-1", id="plot"),
        pytest.param("bench", "--max-frames", "-1", id="bench"),
        pytest.param("synth", "--cars", "-1", id="synth-cars"),
        pytest.param("synth", "--frames", "0", id="synth-frames"),
        pytest.param("synth", "--seed", "-3", id="synth-seed"),
    ],
)
def test_negative_max_frames_is_a_usage_error(dataset, tmp_path, capsys, command, flag, value):
    # Every count flag is checked by argparse, before anything is read or written.
    out = tmp_path / "out"
    if command == "synth":
        argv = [command, str(out), flag, value]
    else:
        argv = [command, str(dataset), flag, value]
    if command in ("plot", "track"):
        argv += ["--output", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2", "abc"])
def test_nonpositive_workers_is_a_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "t.jsonl"
    # The dataset does not exist: the flag is rejected before anything loads.
    argv = ["track", str(tmp_path / "missing"), "--workers", workers, "--output", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "--workers" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["track", "plot", "bench", "eval"])
def test_eval_takes_no_seed(dataset, tracked, tmp_path, capsys, command):
    # Scoring draws no random numbers, and the RANSAC seed of the other three
    # is preprocess.rng_seed in the config, so none of them takes --seed.
    out = tmp_path / "out"
    argv = [command, str(dataset), "--seed", "1"]
    if command == "eval":
        argv.insert(2, str(tracked))
    if command in ("track", "plot"):
        argv += ["--output", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_broken_gt_stops_only_eval(dataset, tracked, tmp_path, capsys):
    # gt.jsonl is read by eval alone; track, plot and bench never open it.
    root = tmp_path / "seq"
    shutil.copytree(dataset, root)
    with open(root / "gt.jsonl", "a") as fh:
        fh.write('{"frame": 0, "track_id": "car-0", "cen\n')
    line = len((root / "gt.jsonl").read_text().splitlines())
    out = tmp_path / "tracks.jsonl"
    assert main(["track", str(root), "--output", str(out)]) == 0
    assert out.read_bytes() == tracked.read_bytes()
    plots = tmp_path / "plots"
    assert main(["plot", str(root), str(out), "--output", str(plots), "--max-frames", "2"]) == 0
    assert main(["bench", str(root), "--max-frames", "2"]) == 0
    capsys.readouterr()
    assert main(["eval", str(root), str(out)]) == 2
    assert f"gt.jsonl:{line}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["gt.jsonl", "tracks.jsonl"])
def test_repeated_id_in_a_frame_is_a_data_error(dataset, tracked, tmp_path, capsys, name):
    paths = {"gt.jsonl": dataset / "gt.jsonl", "tracks.jsonl": tracked}
    lines = paths[name].read_text().splitlines()
    lines.append(lines[1])  # a record of either file, again
    paths[name] = tmp_path / name
    paths[name].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", str(paths["gt.jsonl"]), str(paths["tracks.jsonl"])]) == 2
    captured = capsys.readouterr()
    assert f"{name}:{len(lines)}: duplicate track_id" in captured.err
    assert captured.out == ""


def test_bench_prints_stage_table(dataset, capsys):
    assert main(["bench", str(dataset), "--max-frames", "2"]) == 0
    text = capsys.readouterr().out
    for stage in ("downsample", "ground_removal", "clustering", "tracker_step"):
        assert stage in text


class _ClosedPipe:
    """A stdout whose reader has already gone away, as under `| head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_output_pipe_ends_quietly(dataset, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["bench", str(dataset), "--max-frames", "1"]) == 0
    # With no descriptor to redirect, main() swaps in the null device itself.
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_print_config_roundtrips(capsys):
    assert main(["track", "--print-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert config_from_dict(printed) == PipelineConfig()


def test_config_file_feeds_the_pipeline(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"clustering": {"eps": 0.8}, "preprocess": {"rng_seed": 99}}))
    assert main(["track", "--config", str(cfg_path), "--print-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["clustering"]["eps"] == 0.8
    assert printed["preprocess"]["rng_seed"] == 99


def test_synth_seed_changes_the_data(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", str(a), "--cars", "1", "--frames", "2", "--seed", "1"]) == 0
    assert main(["synth", str(b), "--cars", "1", "--frames", "2", "--seed", "2"]) == 0
    assert (a / "frames/000000.bin").read_bytes() != (b / "frames/000000.bin").read_bytes()


def test_synth_seed_defaults_to_0(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", str(a), "--cars", "1", "--frames", "2"]) == 0
    assert main(["synth", str(b), "--cars", "1", "--frames", "2", "--seed", "0"]) == 0
    assert (a / "frames/000000.bin").read_bytes() == (b / "frames/000000.bin").read_bytes()


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


def test_coordinates_past_int64_range_track_cleanly(tmp_path, capsys):
    # Finite float32 values far outside the drivable grid: the grid's cell
    # lookup leaves them out without an int64 cast of an out-of-range value.
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "2", "--frames", "4"]) == 0
    frame = root / "frames" / "000001.bin"
    pts = np.fromfile(frame, dtype="<f4").reshape(-1, 3)
    pts[0, 0], pts[10, 1], pts[20, 0] = 1e38, -1e38, 3e38  # kept by stride 10
    pts.tofile(frame)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["track", str(root), "--output", str(tmp_path / "t.jsonl")]) == 0
    assert "frames=4 " in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_frame_failing_mid_run_writes_no_tracks_file(tmp_path, capsys, workers):
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "6"]) == 0
    frame = root / "frames" / "000004.bin"
    pts = np.fromfile(frame, dtype="<f4")
    pts[7] = np.inf
    pts.tofile(frame)
    assert len(load_sequence(root)) == 6  # the bad frame is found when it is read
    out = tmp_path / "tracks.jsonl"
    capsys.readouterr()
    assert main(["track", str(root), "--workers", workers, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(frame) in err and "frame 4: 1 point(s) have NaN or infinite" in err
    assert not out.exists()
    # plot and bench stop at the bad frame too, and run over the frames before it.
    plots = tmp_path / "plots"
    for max_frames, status in (("4", 0), ("5", 2)):
        assert main(["plot", str(root), "--max-frames", max_frames, "--output", str(plots)]) == status
        assert main(["bench", str(root), "--max-frames", max_frames, "--workers", workers]) == status
        err = capsys.readouterr().err
        assert err.count(f"{frame}: frame 4: 1 point(s)") == (2 if status else 0)
    assert len(list(plots.glob("frame_*.svg"))) == 4


def test_plot_writes_no_svg_when_a_frame_fails(tmp_path, capsys):
    """Like track, plot stops at a bad frame without leaving the files of
    the frames before it."""
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "6"]) == 0
    frame = root / "frames" / "000004.bin"
    pts = np.fromfile(frame, dtype="<f4")
    pts[7] = np.nan
    pts.tofile(frame)
    plots = tmp_path / "plots"
    capsys.readouterr()
    assert main(["plot", str(root), "--output", str(plots)]) == 2
    assert f"{frame}: frame 4: 1 point(s) have NaN" in capsys.readouterr().err
    assert not plots.exists()


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
        pytest.param("manifest.json", ["frames", 1, "index"], 0, id="repeated-frame-index"),
        pytest.param("manifest.json", ["frames", 0, "index"], -1, id="negative-frame-index"),
        pytest.param("poses.json", ["frames", 0, "index"], -1, id="negative-pose-index"),
        pytest.param("drivable.json", ["origin_xy"], [[0.0, 0.0]], id="nested-origin"),
        # -w x -h needs as many packed bytes as w x h, so only the size rule refuses it.
        pytest.param(
            "drivable.json", [], lambda h: {**h, "width": -h["width"], "height": -h["height"]},
            id="negative-drivable-size",
        ),
        # Path fields are relative path strings; anything else names its file.
        pytest.param("manifest.json", ["frames", 0, "masks"], 5, id="masks-is-a-number"),
        pytest.param("manifest.json", ["frames", 0, "masks"], True, id="masks-is-true"),
        pytest.param("manifest.json", ["frames", 0, "masks"], ["m.json"], id="masks-is-a-list"),
        pytest.param("manifest.json", ["frames", 0, "file"], None, id="null-frame-file"),
        pytest.param("drivable.json", ["file"], None, id="null-drivable-file"),
        pytest.param("drivable.json", ["file"], 5, id="drivable-file-is-a-number"),
        pytest.param("drivable.json", ["file"], ["drivable.bin"], id="drivable-file-is-a-list"),
        # A container of the wrong JSON type is not read as an empty one.
        pytest.param("manifest.json", ["frames"], {}, id="manifest-frames-is-an-object"),
        pytest.param("manifest.json", ["frames"], "", id="manifest-frames-is-a-string"),
        pytest.param("calibration.json", ["cameras"], [], id="cameras-is-a-list"),
        # Already a data error before loader values were checked; the control.
        pytest.param("manifest.json", ["frames", 0], "frames/000000.bin", id="frame-is-a-string"),
    ],
)
def test_malformed_sequence_file_is_a_data_error(tmp_path, capsys, name, keys, value):
    # value replaces the one at keys, or, if callable, maps the old one to the new.
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "2"]) == 0
    edit_json(root / name, keys, value if callable(value) else lambda _: value)
    capsys.readouterr()
    assert main(["track", str(root)]) == 2
    assert name in capsys.readouterr().err


def edit_json(path, keys, change):
    """Replace the value at keys in a JSON file with change(old value);
    DELETE removes the key, and empty keys replace the whole document."""
    obj = json.loads(path.read_text())
    if not keys:
        obj = change(obj)
    else:
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        old = parent.get(keys[-1]) if isinstance(parent, dict) else parent[keys[-1]]
        value = change(old)
        if value is DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    path.write_text(json.dumps(obj))


# A JSON integer written as a float a little above it, as a bool, and as a
# numeric string: int() accepted all three.
NOT_AN_INTEGER = {
    "float": lambda n: n + 0.6,
    "bool": bool,
    "string": str,
}
CAMERA_INTRINSICS = ["cameras", "cam_front", "intrinsics"]


@pytest.mark.parametrize("kind", list(NOT_AN_INTEGER))
@pytest.mark.parametrize(
    "name, keys",
    [
        pytest.param("manifest.json", ["frames", 0, "index"], id="frame-index"),
        pytest.param("manifest.json", ["frames", 0, "points"], id="frame-points"),
        pytest.param("poses.json", ["frames", 0, "index"], id="pose-index"),
        pytest.param("calibration.json", CAMERA_INTRINSICS + ["width"], id="camera-width"),
        pytest.param("calibration.json", CAMERA_INTRINSICS + ["height"], id="camera-height"),
        pytest.param("drivable.json", ["width"], id="drivable-width"),
        pytest.param("drivable.json", ["height"], id="drivable-height"),
    ],
)
def test_sequence_count_or_index_must_be_an_integer(tmp_path, capsys, name, keys, kind):
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "2"]) == 0
    edit_json(root / name, keys, NOT_AN_INTEGER[kind])
    capsys.readouterr()
    assert main(["track", str(root)]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "expected an integer" in err


@pytest.mark.parametrize("kind", list(NOT_AN_INTEGER))
@pytest.mark.parametrize(
    "name, key",
    [("gt.jsonl", "frame"), ("tracks.jsonl", "frame"), ("tracks.jsonl", "track_id")],
)
def test_score_input_frame_or_id_must_be_an_integer(
    dataset, tracked, tmp_path, capsys, name, key, kind
):
    paths = {"gt.jsonl": dataset / "gt.jsonl", "tracks.jsonl": tracked}
    lines = paths[name].read_text().splitlines()
    row = 0 if name == "gt.jsonl" else 1  # the first record; tracks files open with a header
    rec = json.loads(lines[row])
    rec[key] = NOT_AN_INTEGER[kind](rec[key])
    lines[row] = json.dumps(rec)
    paths[name] = tmp_path / name
    paths[name].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", str(paths["gt.jsonl"]), str(paths["tracks.jsonl"])]) == 2
    err = capsys.readouterr().err
    assert f"{name}:{row + 1}" in err
    assert "expected an integer" in err


# A JSON number written as a bool, as a numeric string and as null: float()
# and np.asarray(dtype=float64) accepted the first two.
NOT_A_NUMBER = {"bool": lambda x: True, "string": str, "null": lambda x: None}
POSE = ["frames", 0]
CAMERA_POSE = ["cameras", "cam_front", "ego_to_camera"]
MASK_FILE = "masks/000000.json"


def with_mask_file(root):
    """Point frame 0 at a mask file covering the front camera's image."""
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["frames"][0]["masks"] = MASK_FILE
    (root / "manifest.json").write_text(json.dumps(manifest))
    (root / "masks").mkdir()
    polygon = [[0.0, 0.0], [1600.0, 0.0], [800.0, 1200.0]]
    region = {"camera_id": "cam_front", "polygon": polygon}
    (root / MASK_FILE).write_text(json.dumps({"regions": [region]}))


@pytest.mark.parametrize("kind", list(NOT_A_NUMBER))
@pytest.mark.parametrize(
    "name, keys",
    [
        pytest.param("manifest.json", ["frames", 0, "timestamp"], id="timestamp"),
        pytest.param("poses.json", POSE + ["rotation", 0], id="pose-rotation"),
        pytest.param("poses.json", POSE + ["translation", 2], id="pose-translation"),
        *(
            pytest.param("calibration.json", CAMERA_INTRINSICS + [key], id=f"camera-{key}")
            for key in ("fx", "fy", "cx", "cy")
        ),
        pytest.param("calibration.json", CAMERA_POSE + ["rotation", 3], id="camera-rotation"),
        pytest.param("calibration.json", CAMERA_POSE + ["translation", 1], id="camera-translation"),
        pytest.param("drivable.json", ["origin_xy", 1], id="drivable-origin"),
        pytest.param("drivable.json", ["resolution"], id="drivable-resolution"),
        pytest.param(MASK_FILE, ["regions", 0, "polygon", 2, 0], id="mask-polygon"),
    ],
)
def test_sequence_number_must_be_a_json_number(tmp_path, capsys, name, keys, kind):
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "2"]) == 0
    with_mask_file(root)
    edit_json(root / name, keys, NOT_A_NUMBER[kind])
    capsys.readouterr()
    assert main(["track", str(root)]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "expected a number" in err


@pytest.mark.parametrize(
    "name, keys, value",
    [
        pytest.param("poses.json", POSE + ["rotation"], True, id="pose-rotation-true"),
        pytest.param("drivable.json", ["origin_xy"], 5.0, id="drivable-origin-a-number"),
        pytest.param(MASK_FILE, ["regions", 0, "polygon"], "[[0, 0]]", id="polygon-a-string"),
        pytest.param(MASK_FILE, ["regions", 0, "camera_id"], None, id="null-camera"),
        pytest.param(MASK_FILE, ["regions", 0, "camera_id"], 5, id="numeric-camera"),
        pytest.param(MASK_FILE, ["regions", 0, "camera_id"], True, id="bool-camera"),
    ],
)
def test_sequence_array_or_id_of_the_wrong_json_type(tmp_path, capsys, name, keys, value):
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "1", "--frames", "2"]) == 0
    with_mask_file(root)
    edit_json(root / name, keys, lambda _: value)
    capsys.readouterr()
    assert main(["track", str(root)]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "expected a" in err


# What a gt track id was written as instead of a string; str() accepted all.
NOT_A_STRING = {"bool": lambda x: True, "number": lambda x: 5, "null": lambda x: None}


@pytest.mark.parametrize(
    "name, keys, kind",
    [
        *(
            pytest.param("gt.jsonl", keys, kind, id=f"gt-{'-'.join(map(str, keys))}-{kind}")
            for keys in (["center", 0], ["length"], ["width"], ["height"])
            for kind in NOT_A_NUMBER
        ),
        *(
            pytest.param("tracks.jsonl", [key], kind, id=f"tracks-{key}-{kind}")
            for key in ("x", "y", "z", "vx", "vy", "length", "width", "height")
            for kind in NOT_A_NUMBER
        ),
        *(
            pytest.param("gt.jsonl", ["track_id"], kind, id=f"gt-track_id-{kind}")
            for kind in NOT_A_STRING
        ),
    ],
)
def test_score_input_of_the_wrong_json_type_is_a_data_error(
    dataset, tracked, tmp_path, capsys, name, keys, kind
):
    paths = {"gt.jsonl": dataset / "gt.jsonl", "tracks.jsonl": tracked}
    lines = paths[name].read_text().splitlines()
    row = 0 if name == "gt.jsonl" else 1  # the first record; tracks files open with a header
    rec = json.loads(lines[row])
    change = NOT_A_STRING[kind] if keys == ["track_id"] else NOT_A_NUMBER[kind]
    parent = rec
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = change(parent[keys[-1]])
    lines[row] = json.dumps(rec)
    paths[name] = tmp_path / name
    paths[name].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", str(paths["gt.jsonl"]), str(paths["tracks.jsonl"])]) == 2
    err = capsys.readouterr().err
    assert f"{name}:{row + 1}" in err
    assert "expected a string" in err if keys == ["track_id"] else "expected a number" in err


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("gt.jsonl", "frame", -3),
        ("gt.jsonl", "center", [[1.0, 2.0, 3.0]]),
        ("gt.jsonl", "length", -4.4),
        ("gt.jsonl", "height", -1.0),
        ("tracks.jsonl", "frame", -1),
        ("tracks.jsonl", "track_id", -7),
        ("tracks.jsonl", "width", -1.9),
    ],
)
def test_score_input_out_of_shape_or_range_is_a_data_error(
    dataset, tracked, tmp_path, capsys, name, key, value
):
    paths = {"gt.jsonl": dataset / "gt.jsonl", "tracks.jsonl": tracked}
    lines = paths[name].read_text().splitlines()
    row = 0 if name == "gt.jsonl" else 1  # the first record; tracks files open with a header
    lines[row] = json.dumps({**json.loads(lines[row]), key: value})
    paths[name] = tmp_path / name
    paths[name].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", str(paths["gt.jsonl"]), str(paths["tracks.jsonl"])]) == 2
    err = capsys.readouterr().err
    assert f"{name}:{row + 1}" in err
    assert key in err


def test_every_file_synth_writes_loads(tmp_path, capsys):
    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "2", "--frames", "3"]) == 0
    with_mask_file(root)
    written = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    assert [p for p in written if not p.startswith("frames/")] == [
        "calibration.json", "drivable.bin", "drivable.json", "gt.jsonl",
        "manifest.json", MASK_FILE, "poses.json",
    ]
    assert main(["track", str(root)]) == 0
    assert main(["eval", str(root), str(root / "tracks.jsonl")]) == 0


@pytest.mark.parametrize(
    "mask",
    [
        pytest.param({"regions": [{"camera_id": "cam_front", "polygon": "abc"}]}, id="polygon-abc"),
        # Already a data error when the polygon was not cast; the control.
        pytest.param({"regions": [{"camera_id": "cam_front", "polygon": None}]}, id="null-polygon"),
        pytest.param({"regions": 5}, id="regions-not-a-list"),
        # list() read these as no regions.
        pytest.param({"regions": {}}, id="regions-is-an-object"),
        pytest.param({"regions": ""}, id="regions-is-a-string"),
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


@pytest.mark.parametrize("name", ["tracks.jsonl", "gt.jsonl"])
def test_non_finite_score_input_is_a_data_error(dataset, tracked, tmp_path, capsys, name):
    paths = {"gt.jsonl": dataset / "gt.jsonl", "tracks.jsonl": tracked}
    lines = paths[name].read_text().splitlines()
    rec = json.loads(lines[1])  # the first record of either file
    if name == "tracks.jsonl":
        rec["x"] = math.nan
    else:
        rec["center"][0] = math.nan
    lines[1] = json.dumps(rec)
    paths[name] = tmp_path / name
    paths[name].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", str(paths["gt.jsonl"]), str(paths["tracks.jsonl"])]) == 2
    captured = capsys.readouterr()
    assert f"{name}:2" in captured.err
    assert captured.out == ""


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    for command in ("track", "plot", "bench"):
        assert main([command]) == 1  # dataset argument missing
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


@pytest.mark.parametrize(
    "section, key, text",
    [
        ("preprocess", "rng_seed", '{"preprocess": {"rng_seed": 1.5}}'),
        ("preprocess", "mask_filter_enabled",
         '{"preprocess": {"mask_filter_enabled": "false", "mask_filter_strict": "false"}}'),
        ("tracker", "gate_distance", '{"tracker": {"gate_distance": NaN}}'),
        ("box_limits", "max_length", '{"box_limits": {"max_length": NaN}}'),
        ("clustering", "min_points", '{"clustering": {"min_points": 2.5}}'),
        ("preprocess", "stride", '{"preprocess": {"stride": true}}'),
        # Above max_length, 7.0, so no box could pass the gate.
        ("box_limits", "min_length", '{"box_limits": {"min_length": 8.0}}'),
    ],
)
def test_config_value_of_the_wrong_kind_stops_track(
    dataset, tmp_path, capsys, monkeypatch, section, key, text
):
    def never(*args):
        raise AssertionError("the sequence was read before the config was checked")

    monkeypatch.setattr(cli_module, "load_sequence", never)
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    out = tmp_path / "tracks.jsonl"
    for extra in ([], ["--print-config"]):
        assert main(["track", str(dataset), "--config", str(cfg), "--output", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert f"'{section}'" in err and f"'{key}'" in err
        assert not out.exists()


def test_static_ego_scene_through_the_cli(tmp_path, capsys):
    root = tmp_path / "static"
    argv = ["synth", str(root), "--cars", "2", "--frames", "8", "--ego-mode", "static"]
    assert main(argv) == 0
    poses = json.loads((root / "poses.json").read_text())["frames"]
    assert len(poses) == 8
    assert all(p["translation"] == [0.0, 0.0, 0.0] for p in poses)
    assert main(["track", str(root)]) == 0
    capsys.readouterr()
    assert main(["eval", str(root), str(root / "tracks.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out)["gt_count"] == 2 * 8
    assert main(["bench", str(root), "--max-frames", "0"]) == 0
    assert "frames=0 " in capsys.readouterr().out


# The candidate test compares float32 z with a split beyond float32's range
# without an overflowing cast: every frame's fit is skipped with a warning,
# and nothing raises a RuntimeWarning.
def test_a_split_past_float32_range_skips_every_ground_fit(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preprocess": {"ground_split_height": 1e300}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["track", str(dataset), "--config", str(cfg), "--output", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    assert [w.category for w in caught] == [GroundFitWarning] * FRAMES


def test_empty_scene_tracks_cleanly(tmp_path, capsys):
    root = tmp_path / "empty"
    assert main(["synth", str(root), "--cars", "0", "--frames", "3"]) == 0
    assert main(["track", str(root)]) == 0
    capsys.readouterr()
    lines = [ln for ln in (root / "tracks.jsonl").read_text().splitlines() if ln.strip()]
    assert len(lines) == 1  # header only, no confirmed tracks
