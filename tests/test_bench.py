"""Benchmark helpers: stage timings come from the tracking run, and the KD-tree
and brute force agree on labels."""

import numpy as np

from lidartrack.bench import bench_cloud, bench_clustering, time_stages
from lidartrack.config import PipelineConfig
from lidartrack.pipeline import run_tracking
from lidartrack.synth import SynthConfig, generate


def test_bench_cloud_reproducible():
    a = bench_cloud(500, seed=3)
    b = bench_cloud(500, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (500, 3)
    assert a.min() >= 0.0 and a.max() <= 50.0


def test_clustering_rows_cover_backends_and_agree():
    rows = bench_clustering(bench_cloud(1200, seed=1))
    methods = [r.method for r in rows]
    assert methods[-1] == "brute"
    assert any("kdtree" in m for m in methods[:-1])
    brute = rows[-1]
    assert brute.speedup_vs_brute == 1.0
    for row in rows:
        assert row.n_clusters == brute.n_clusters  # equality checked inside too
        assert row.seconds > 0


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
