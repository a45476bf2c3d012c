"""Whole-sequence runs: worker-count invariance, output plumbing and how
often a loaded sequence's cloud files are read."""

import pickle
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from lidartrack import dataset_io, tracking
from lidartrack.config import PipelineConfig
from lidartrack.dataset_io import load_sequence, write_sequence
from lidartrack.detection import detect
from lidartrack.evaluation import gt_to_eval_frames, mota, tracks_to_eval_frames
from lidartrack.pipeline import detect_frames, run_tracking
from lidartrack.preprocess import STAGES
from lidartrack.synth import SynthConfig, generate, ground_truth

CFG = PipelineConfig()
SCENE = SynthConfig(n_cars=3, n_frames=14, rng_seed=11)


def test_run_produces_a_result_per_frame():
    seq = generate(SCENE)
    out = run_tracking(seq, CFG)
    assert [fr.frame_index for fr in out.frames] == list(range(SCENE.n_frames))
    assert all(fr.n_raw > 0 for fr in out.frames)
    assert out.total_seconds > 0


def test_n_tracks_counts_each_frames_records():
    seq = generate(SCENE)
    out = run_tracking(seq, CFG)
    assert len(out.records) == sum(fr.n_tracks for fr in out.frames) > 0
    for fr in out.frames:
        assert fr.n_tracks == sum(rec.frame == fr.frame_index for rec in out.records)


def test_confirmation_delay_respected():
    seq = generate(SCENE)
    out = run_tracking(seq, CFG)
    first_emit = min(rec.frame for rec in out.records)
    assert first_emit == CFG.tracker.hit_confirm_threshold - 1


def without_timings(stats):
    """A frame's record without its stage times."""
    return replace(stats, seconds=())


def test_worker_count_does_not_change_records():
    seq = generate(SCENE)
    serial = run_tracking(seq, CFG, workers=1)
    threaded = run_tracking(seq, CFG, workers=4)
    assert threaded.records == serial.records
    assert [without_timings(fr) for fr in threaded.frames] == [
        without_timings(fr) for fr in serial.frames
    ]


def test_a_frame_record_survives_pickle():
    out = run_tracking(generate(SCENE), CFG)
    rec = out.frames[-1]
    assert rec.n_detections > 0 and rec.n_tracks > 0
    assert isinstance(rec.seconds, tuple) and len(rec.seconds) == len(STAGES)
    assert all(isinstance(s, float) for s in rec.seconds)
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert hash(pickle.loads(pickle.dumps(rec))) == hash(rec)


def test_workers_validated():
    seq = generate(SynthConfig(n_cars=0, n_frames=1, ground_density=0.5, clutter_points=0))
    with pytest.raises(ValueError):
        run_tracking(seq, CFG, workers=0)


def test_tracks_score_well_against_gt():
    scene = SynthConfig(n_cars=3, n_frames=25, rng_seed=5)
    out = run_tracking(generate(scene), CFG)
    result, _ = mota(
        gt_to_eval_frames(ground_truth(scene)),
        tracks_to_eval_frames(out.records),
        CFG.eval.match_distance,
    )
    # Confirmation delay costs 4 frames per car; everything after must hold.
    assert result.id_switches == 0
    assert result.false_positives == 0
    assert result.false_negatives == 3 * (CFG.tracker.hit_confirm_threshold - 1)
    assert result.mota == 1.0 - 12 / 75


def test_confirmed_ids_property():
    seq = generate(SCENE)
    out = run_tracking(seq, CFG)
    assert out.confirmed_ids == {rec.track_id for rec in out.records}
    assert len(out.confirmed_ids) == SCENE.n_cars


def test_track_velocity_matches_scene():
    scene = SynthConfig(n_cars=1, n_frames=30, speed_min=9.0, speed_max=9.0, rng_seed=3)
    seq = generate(scene)
    out = run_tracking(seq, CFG)
    last = out.records[-1]
    assert np.isclose(last.vx, 9.0, atol=0.3)
    assert np.isclose(last.vy, 0.0, atol=0.3)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A 12-frame synthetic sequence written to disk."""
    seq = generate(SynthConfig(n_cars=3, n_frames=12, rng_seed=11))
    root = tmp_path_factory.mktemp("stream") / "seq"
    write_sequence(root, seq.frames, seq.cameras, drivable=seq.drivable)
    return root


@pytest.fixture
def reads(monkeypatch):
    """Every cloud array the reader returns, by file, as weak references."""
    returned: dict = {}
    lock = threading.Lock()
    real = dataset_io._read_cloud

    def counted(path, *args):
        pts = real(path, *args)
        with lock:
            returned.setdefault(path, []).append(weakref.ref(pts))
        return pts

    monkeypatch.setattr(dataset_io, "_read_cloud", counted)
    return returned


def test_len_of_a_loaded_cloud_reads_nothing(written, reads):
    seq = load_sequence(written)
    sizes = [len(fr.cloud) for fr in seq.frames]
    assert not reads
    assert sizes == [len(fr.cloud.points) for fr in seq.frames]
    assert {path: len(refs) for path, refs in reads.items()} == {
        written / f"frames/{i:06d}.bin": 1 for i in range(12)
    }


@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_reads_each_frame_file_once(written, reads, workers, stride):
    seq = load_sequence(written)
    assert not reads
    cfg = replace(CFG, preprocess=replace(CFG.preprocess, stride=stride))
    run_tracking(seq, cfg, workers=workers)
    assert {path: len(refs) for path, refs in reads.items()} == {
        fr.cloud.path: 1 for fr in seq.frames
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_at_most_one_raw_cloud_per_worker_is_alive(written, reads, monkeypatch, workers):
    alive_at_step = []
    real_step = tracking.Tracker.step

    def step(self, *args, **kwargs):
        refs = [ref for refs in list(reads.values()) for ref in refs]
        alive_at_step.append(sum(ref() is not None for ref in refs))
        return real_step(self, *args, **kwargs)

    monkeypatch.setattr(tracking.Tracker, "step", step)
    seq = load_sequence(written)
    out = run_tracking(seq, CFG, workers=workers)
    assert len(alive_at_step) == len(out.frames) == 12
    assert max(alive_at_step) <= workers
    if workers == 1:
        assert max(alive_at_step) == 0  # the frame's raw cloud went with its downsample
    del out
    assert all(ref() is None for refs in reads.values() for ref in refs)


def found_as_data(found):
    """What detect found in a frame, less the stage timings."""
    return found.detections.tolist(), found.points.tolist(), without_timings(found.stats)


@pytest.mark.parametrize("workers", [1, 2])
def test_detect_frames_yields_each_frame_in_order_as_detect_finds_it(written, workers):
    seq = load_sequence(written)
    expected = [
        found_as_data(
            detect(fr, CFG.preprocess, CFG.clustering, CFG.box_limits,
                   cameras=seq.cameras, drivable=seq.drivable)
        )
        for fr in seq.frames
    ]
    pairs = list(detect_frames(seq, CFG, workers))
    assert [frame.index for frame, _ in pairs] == [fr.index for fr in seq.frames]
    assert [found_as_data(found) for _, found in pairs] == expected
    assert sum(len(found.detections) for _, found in pairs) > 0


def test_detect_frames_on_one_worker_reads_a_frame_only_once_the_last_is_taken(written, reads):
    seq = load_sequence(written)
    frames = detect_frames(seq, CFG)
    for k, (frame, _) in enumerate(frames):
        assert frame is seq.frames[k]
        assert list(reads) == [fr.cloud.path for fr in seq.frames[: k + 1]]
    assert len(reads) == len(seq.frames)


def test_detect_frames_refuses_zero_workers_before_reading_a_frame(written, reads):
    seq = load_sequence(written)
    with pytest.raises(ValueError, match="workers"):
        next(detect_frames(seq, CFG, workers=0))
    assert not reads
