"""The benchmark's workloads: a synthetic scene, a pipeline config, a worker count.

`synth` holds SynthConfig fields (the run's --seed becomes `rng_seed`),
`pipeline` holds PipelineConfig sections in the JSON form `lidartrack track
--config` accepts, and `floor` is the quality floor a run must meet to count
as correct. The program only ever sees the generated sequence directory.

Why each workload exists (see README.md for which layer metric should move):

- golden: the acceptance scene. DBSCAN is ~94% of frame time on the python
  kernels, so kernel and clustering changes show here, and the
  byte-identical tracks target lives here.
- sweep: one 64-beam-class sweep per frame (~117k raw points, stride 1)
  on two worker threads. Ground removal fits over ~115k candidates and the
  tracker is nearly idle, so a RANSAC or GIL-release change shows here and
  not on golden. The only workload on the threaded pipeline path.

A third workload, crowded, was dropped. It had 14 cars on lanes narrower
than the association gate. Its MOTA moved by 5-13% of the median from one
seed to another, and its serial run time was as unsteady as golden's. The
time it took is spent on longer runs of the other two.
"""

WORKLOADS = {
    "golden": {
        "synth": {},
        "pipeline": {},
        "workers": 1,
        # tests/test_acceptance.py::test_golden_run
        "floor": {"min_mota": 0.90, "max_id_switches": 0},
    },
    "sweep": {
        "synth": {
            "n_cars": 3,
            "n_frames": 20,
            "points_per_car": 600,
            "ground_density": 18.0,
            "ground_extent": 40.0,
            "clutter_points": 200,
        },
        "pipeline": {"preprocess": {"stride": 1}},
        "workers": 2,
        "floor": None,
    },
}
