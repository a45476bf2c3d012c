"""Benchmark helpers: stage timings come from the tracking run."""

from lidartrack.bench import time_stages
from lidartrack.config import PipelineConfig
from lidartrack.pipeline import run_tracking
from lidartrack.synth import SynthConfig, generate


def test_time_stages_buckets():
    seq = generate(SynthConfig(n_cars=1, n_frames=3, points_per_car=600,
                               ground_density=1.0, clutter_points=20))
    rows = time_stages(seq, PipelineConfig(), max_frames=2)
    stages = [r.stage for r in rows]
    assert stages == [
        "downsample", "ground_removal", "drivable_filter", "mask_filter",
        "kdtree_build", "clustering", "box_fit", "tracker_step",
    ]
    assert all(r.runs == 2 for r in rows)
    assert all(r.median_ms >= 0 for r in rows)
    # The medians come from the timings every tracking run records per frame.
    frames = run_tracking(seq, PipelineConfig()).frames
    assert len(frames) == 3
    for fr in frames:
        assert list(fr.stage_seconds) == stages
        assert all(s >= 0 for s in fr.stage_seconds.values())
