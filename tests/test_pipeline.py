"""Whole-sequence runs: worker-count invariance and output plumbing."""

import numpy as np
import pytest

from lidartrack.config import PipelineConfig
from lidartrack.evaluation import gt_to_eval_frames, mota, tracks_to_eval_frames
from lidartrack.pipeline import run_tracking
from lidartrack.synth import SynthConfig, generate, ground_truth

CFG = PipelineConfig()
SCENE = SynthConfig(n_cars=3, n_frames=14, rng_seed=11)


def test_run_produces_a_result_per_frame():
    seq = generate(SCENE)
    out = run_tracking(seq, CFG)
    assert [fr.frame_index for fr in out.frames] == list(range(SCENE.n_frames))
    assert all(fr.stats.n_raw > 0 for fr in out.frames)
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


def test_worker_count_does_not_change_records():
    seq = generate(SCENE)
    serial = run_tracking(seq, CFG, workers=1)
    threaded = run_tracking(seq, CFG, workers=4)
    assert threaded.records == serial.records
    assert [fr.n_detections for fr in threaded.frames] == [
        fr.n_detections for fr in serial.frames
    ]


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
