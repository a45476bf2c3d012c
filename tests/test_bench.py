"""Benchmark helpers: one timing loop, one JSON entry per run."""

import hashlib
import importlib
import json
import os
import runpy
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest

from lidartrack import bench
from lidartrack.bench import append_run, bench_entry, git_commit, source_sha256
from lidartrack.cli import main
from lidartrack.config import PipelineConfig, config_to_dict
from lidartrack.dataset_io import PointCloud, load_sequence, write_sequence
from lidartrack.errors import DatasetError
from lidartrack.pipeline import run_tracking
from lidartrack.synth import SynthConfig, generate

STAGES = [
    "downsample", "ground_removal", "drivable_filter", "mask_filter",
    "kdtree_build", "clustering", "box_fit", "tracker_step",
]


@pytest.fixture(scope="module")
def sequence(tmp_path_factory):
    seq = generate(SynthConfig(n_cars=1, n_frames=3, points_per_car=600,
                               ground_density=1.0, clutter_points=20))
    root = tmp_path_factory.mktemp("bench") / "seq3"
    write_sequence(root, seq.frames, seq.cameras, drivable=seq.drivable)
    return seq, root


def test_bench_entry_schema(sequence):
    seq, root = sequence
    entry = bench_entry(root, PipelineConfig(), max_frames=2, repeats=2, workers=2, label="x")
    assert list(entry) == [
        "label", "dataset", "frames", "repeats", "workers", "config",
        "wall_ms", "stage_ms", "memory_mb", "minor_faults", "environment", "commit",
        "source_sha256",
    ]
    assert entry["label"] == "x" and entry["dataset"] == "seq3"
    assert (entry["frames"], entry["repeats"], entry["workers"]) == (2, 2, 2)
    assert entry["config"] == config_to_dict(PipelineConfig())
    assert list(entry["wall_ms"]) == ["load_sequence", "run_tracking", "write_tracks"]
    assert list(entry["stage_ms"]) == STAGES
    assert all(ms >= 0 for ms in [*entry["wall_ms"].values(), *entry["stage_ms"].values()])
    # The largest of the frames the run reads, as stored: 12 bytes a point.
    n_points = max(len(fr.cloud) for fr in load_sequence(root).frames[:2])
    assert list(entry["memory_mb"]) == ["clouds", "peak_rss"]
    assert entry["memory_mb"]["clouds"] == round(12 * n_points / 2**20, 4)
    peak = entry["memory_mb"]["peak_rss"]
    assert peak is None or peak > entry["memory_mb"]["clouds"]
    assert list(entry["environment"]) == ["python", "numpy", "nproc"]
    # Checked against git itself in test_git_commit_is_the_checked_out_commit.
    assert entry["commit"] == git_commit(Path(bench.__file__).parent)
    # Two repeats: the median of two fault counts, each at least 0.
    faults = entry["minor_faults"]
    assert faults is None or (faults >= 0 and 2 * faults == int(2 * faults))
    assert entry["source_sha256"] == source_sha256(Path(bench.__file__).parent)
    # The medians come from the timings every tracking run records per frame.
    for fr in run_tracking(seq, PipelineConfig()).frames:
        assert len(fr.seconds) == len(STAGES)


def test_bench_of_no_frames_has_no_stage_medians(sequence):
    _, root = sequence
    entry = bench_entry(root, PipelineConfig(), max_frames=0)
    assert entry["frames"] == 0 and entry["stage_ms"] == {}
    assert list(entry["wall_ms"]) == ["load_sequence", "run_tracking", "write_tracks"]
    assert entry["memory_mb"]["clouds"] == 0


def test_bench_needs_a_repeat(sequence):
    _, root = sequence
    with pytest.raises(ValueError, match="repeats"):
        bench_entry(root, PipelineConfig(), repeats=0)


def test_bench_clouds_is_the_largest_frame_the_run_reads(sequence, tmp_path):
    seq, _ = sequence
    sizes = [3000, 4000, 4200]
    frames = [replace(fr, cloud=PointCloud(fr.cloud.points[:n])) for fr, n in zip(seq.frames, sizes)]
    root = write_sequence(tmp_path / "seq", frames, seq.cameras, drivable=seq.drivable)
    for max_frames, largest in ((1, 3000), (2, 4000), (None, 4200)):
        entry = bench_entry(root, PipelineConfig(), max_frames=max_frames)
        assert entry["memory_mb"]["clouds"] == round(12 * largest / 2**20, 4)


def test_bench_json_appends_one_entry_per_call(sequence, tmp_path, capsys):
    _, root = sequence
    out = tmp_path / "BENCH.json"
    for label in ("before", "after"):
        assert main(["bench", str(root), "--max-frames", "1", "--json", str(out),
                     "--label", label]) == 0
        table = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:12])
        run = json.loads(out.read_text())["runs"][-1]
        assert run["label"] == label
        # The printed table is made from the same entry.
        timed = {**run["stage_ms"], **run["wall_ms"]}
        assert list(table) == list(timed) == STAGES + ["load_sequence", "run_tracking", "write_tracks"]
        assert table == {step: f"{ms:.3f}" for step, ms in timed.items()}
    assert len(json.loads(out.read_text())["runs"]) == 2


def test_bench_json_creates_missing_parent_directories(sequence, tmp_path, capsys):
    _, root = sequence
    out = tmp_path / "new" / "dir" / "BENCH.json"
    assert main(["bench", str(root), "--max-frames", "1", "--json", str(out)]) == 0
    capsys.readouterr()
    assert len(json.loads(out.read_text())["runs"]) == 1


@pytest.mark.parametrize("text", ["[]", '{"runs": {}}', "{", "\xff"])
def test_bench_json_refuses_a_file_without_a_runs_list(tmp_path, text):
    path = tmp_path / "BENCH.json"
    path.write_text(text, encoding="latin-1")
    with pytest.raises(DatasetError, match="BENCH.json"):
        append_run(path, {})
    assert path.read_text(encoding="latin-1") == text


def test_git_commit_is_the_checked_out_commit(tmp_path, monkeypatch):
    # No repository above tmp_path is looked at, and no user config is read.
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    repo = tmp_path / "repo"
    inside = repo / "src" / "pkg"
    inside.mkdir(parents=True)

    def git(*args):
        who = ["-c", "user.name=t", "-c", "user.email=t@example.com"]
        return subprocess.run(["git", *who, *args], cwd=repo, check=True,
                              capture_output=True, text=True).stdout.strip()

    (inside / "mod.py").write_text("")
    assert git_commit(inside) is None  # not in a work tree
    git("init", "-q")
    assert git_commit(inside) is None  # its files not tracked
    git("add", "src/pkg/mod.py")
    assert git_commit(inside) is None  # before the first commit
    git("commit", "-q", "-m", "first")
    first = git("rev-parse", "HEAD")
    assert len(first) == 40 and git_commit(inside) == first
    git("commit", "-q", "--allow-empty", "-m", "second")
    assert git_commit(inside) == git("rev-parse", "HEAD") != first
    git("checkout", "-q", "--detach", first)
    assert git_commit(inside) == first
    assert git_commit(tmp_path) is None
    # A copy git does not track, such as one installed in a venv inside the
    # work tree, is not the work tree's commit.
    copy = repo / "venv" / "site-packages" / "pkg"
    copy.mkdir(parents=True)
    (copy / "mod.py").write_text("")
    assert git_commit(copy) is None


def test_minor_faults_is_the_median_of_the_run_tracking_deltas(sequence, monkeypatch):
    _, root = sequence
    # Read before and after each of three runs: deltas 7, 707 and 77.
    readings = iter([0, 7, 100, 807, 900, 977])
    monkeypatch.setattr(bench, "_minor_faults", lambda: next(readings))
    assert bench_entry(root, PipelineConfig(), max_frames=1, repeats=3)["minor_faults"] == 77
    assert next(readings, None) is None
    monkeypatch.setattr(bench, "_minor_faults", lambda: None)
    assert bench_entry(root, PipelineConfig(), max_frames=1)["minor_faults"] is None


def test_bench_reads_the_peak_rss_before_it_hashes_the_source(sequence, monkeypatch):
    # Hashing imports hashlib, and with it OpenSSL, which tracking never loads.
    calls = []
    monkeypatch.setattr(bench, "_peak_rss_mb", lambda: calls.append("peak_rss"))
    monkeypatch.setattr(bench, "source_sha256", lambda package: calls.append("source_sha256"))
    bench_entry(sequence[1], PipelineConfig(), max_frames=1)
    assert calls == ["peak_rss", "source_sha256"]


def test_source_sha256_covers_every_module_in_name_order(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "b.py").write_bytes(b"B = 2\n")
    (pkg / "a.py").write_bytes(b"A = 1\n")
    (pkg / "notes.txt").write_text("not source")
    want = hashlib.sha256(b"a.py\x006\x00A = 1\nb.py\x006\x00B = 2\n").hexdigest()
    assert source_sha256(pkg) == want
    (pkg / "notes.txt").write_text("still not source")
    assert source_sha256(pkg) == want
    (pkg / "b.py").write_bytes(b"B = 3\n")
    edited = source_sha256(pkg)
    assert edited != want
    # The same bytes split differently between the files hash differently.
    (pkg / "a.py").write_bytes(b"A = 1\nB = 3")
    (pkg / "b.py").write_bytes(b"\n")
    assert source_sha256(pkg) not in (want, edited)


def test_every_benchmark_boundary_resolves_but_the_retired_one():
    """The benchmark's tracer wraps the package at the names in BOUNDARIES,
    so a rename there would turn that boundary's metrics missing. Only
    geometry.transform_point, gone from the package, is left to retire."""
    tracer = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))
    unresolved = set()
    for name, module, attr_path in tracer["BOUNDARIES"]:
        owner = importlib.import_module(module)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.add(name)
    assert unresolved == {"geometry.transform_point"}
