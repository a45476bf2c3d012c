"""Acceptance checklist for the whole package.

One test per shipped guarantee, each printing a single PASS/FAIL line with
the measured numbers (run with -s to watch them live). The thresholds here
are the ones the README advertises; loosening them to make a red test
green is not an option.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from lidartrack.bench import bench_cloud, bench_clustering
from lidartrack.clustering import ClusterParams, dbscan
from lidartrack.config import PipelineConfig
from lidartrack.detection import Detection3D
from lidartrack.evaluation import gt_to_eval_frames, mota, tracks_to_eval_frames
from lidartrack.pipeline import run_tracking
from lidartrack.preprocess import PreprocessConfig, fit_ground_plane
from lidartrack.spatial_index import KdTree
from lidartrack.synth import SynthConfig, bake_ego_motion, car_center, generate
from lidartrack.tracking import (
    Tracker,
    TrackerConfig,
    hungarian,
    kalman_init,
    kalman_predict,
    kalman_update,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- clustering ---------------------------------------------------------


def quadratic_dbscan(points, eps, min_points):
    """O(N^2) reference: adjacency matrix, core BFS in scan order."""
    n = len(points)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    adj = d2 <= eps * eps
    core = adj.sum(axis=1) >= min_points
    labels = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        queue = [i]
        labels[i] = next_id
        while queue:
            j = queue.pop()
            if not core[j]:
                continue
            for k in np.flatnonzero(adj[j]):
                if labels[k] == -1:
                    labels[k] = next_id
                    if core[k]:
                        queue.append(k)
        next_id += 1
    # Border points take the lowest-numbered adjacent cluster.
    for i in range(n):
        if core[i] or labels[i] == -1:
            continue
        near = labels[adj[i] & core]
        labels[i] = near.min()
    return labels


def canonical(labels):
    """Relabel clusters by first appearance so partitions compare directly."""
    out = np.full(len(labels), -1, dtype=np.int64)
    seen = {}
    for i, lab in enumerate(labels):
        if lab == -1:
            continue
        out[i] = seen.setdefault(lab, len(seen))
    return out


def test_dbscan_matches_quadratic_reference():
    rng = np.random.default_rng(900)
    t0 = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(0, 301))
        pts = rng.uniform(0, 12, size=(n, 3))
        eps = float(rng.uniform(0.3, 2.0))
        mp = int(rng.integers(2, 12))
        got = dbscan(pts, ClusterParams(eps=eps, min_points=mp), KdTree(pts)).labels
        want = quadratic_dbscan(pts, eps, mp)
        assert np.array_equal(got == -1, want == -1), f"trial {trial}: noise sets differ"
        assert np.array_equal(canonical(got), canonical(want)), f"trial {trial}"
    elapsed = time.perf_counter() - t0
    report(
        "dbscan matches an O(N^2) reference",
        elapsed < 60.0,
        f"1000 random clouds (N<=300) identical up to renaming in {elapsed:.1f}s (limit 60s)",
    )


def test_kdtree_exact_and_faster_than_brute():
    rng = np.random.default_rng(901)
    pts = rng.uniform(0, 25, size=(4000, 3))
    tree = KdTree(pts)
    for _ in range(1000):
        center = rng.uniform(-2, 27, size=3)
        r = float(rng.uniform(0.2, 4.0))
        want = np.flatnonzero(np.sum((pts - center) ** 2, axis=1) <= r * r)
        got = tree.radius_query(center, r)
        assert np.array_equal(got, want)

    rows = bench_clustering(bench_cloud(20000, seed=7))
    speedup = max(r.speedup_vs_brute for r in rows if r.method != "brute")
    report(
        "kd-tree radius queries exact, clustering speedup",
        speedup >= 2.0,
        f"1000 queries equal linear scan; KD-tree {speedup:.0f}x vs brute "
        f"at N=20000 (needs >=2x)",
    )


# --- assignment ---------------------------------------------------------


def min_cost_by_enumeration(cost):
    n, m = cost.shape
    best = np.inf
    if n <= m:
        for perm in permutations(range(m), n):
            best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    else:
        for perm in permutations(range(n), m):
            best = min(best, sum(cost[perm[j], j] for j in range(m)))
    return best


def test_assignment_total_cost_is_optimal():
    rng = np.random.default_rng(902)
    for trial in range(500):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        # Integer-valued costs make the float sums exact, so the comparison
        # below needs no tolerance at all.
        cost = rng.integers(0, 100, size=(n, m)).astype(np.float64)
        got = sum(cost[i, j] for i, j in hungarian(cost).matches)
        assert got == min_cost_by_enumeration(cost), f"trial {trial}"
    report(
        "assignment cost equals enumeration minimum",
        True,
        "500 random matrices up to 7x7, exact equality",
    )


# --- ground plane -------------------------------------------------------


def test_ransac_recovers_noisy_plane():
    cfg = PreprocessConfig()
    hits = 0
    worst_angle = 0.0
    worst_offset = 0.0
    for seed in range(100):
        rng = np.random.default_rng([903, seed])
        # Ground truth: a gently tilted plane close to z = -1.7.
        tilt = rng.uniform(-0.008, 0.008, size=2)
        n_true = np.array([tilt[0], tilt[1], 1.0])
        n_true /= np.linalg.norm(n_true)
        xy = rng.uniform(-20, 20, size=(400, 2))
        z = (-1.7 - n_true[0] * xy[:, 0] - n_true[1] * xy[:, 1]) / n_true[2]
        inliers = np.column_stack([xy, z + rng.normal(0, 0.01, size=400)])
        junk_xy = rng.uniform(-20, 20, size=(100, 2))
        junk = np.column_stack([junk_xy, rng.uniform(-2.2, -1.5, size=100)])
        plane = fit_ground_plane(np.vstack([inliers, junk]), cfg, rng=rng)
        angle = np.degrees(np.arccos(np.clip(abs(plane.normal @ n_true), -1, 1)))
        offset_true = -(n_true @ np.array([0.0, 0.0, -1.7]))
        d_off = abs(plane.offset - offset_true)
        worst_angle = max(worst_angle, angle)
        worst_offset = max(worst_offset, d_off)
        if angle <= 2.0 and d_off <= 0.05:
            hits += 1
    report(
        "ransac plane recovery under noise and outliers",
        hits >= 95,
        f"{hits}/100 seeds within 2 deg / 0.05 m "
        f"(worst seen: {worst_angle:.2f} deg, {worst_offset:.3f} m)",
    )


# --- kalman -------------------------------------------------------------


def test_kalman_velocity_convergence_and_psd():
    cfg = TrackerConfig()
    truth_v = np.array([6.0, -2.0])
    dt = 0.5
    k = kalman_init(np.zeros(2), cfg)
    for i in range(1, 20):
        k = kalman_predict(k, dt, cfg.process_noise_accel)
        k = kalman_update(k, truth_v * i * dt, cfg.measurement_noise_pos)
    v_err = float(np.linalg.norm(k.velocity - truth_v))

    rng = np.random.default_rng(904)
    min_eig = np.inf
    k = kalman_init(rng.normal(size=2), cfg)
    for _ in range(1000):
        k = kalman_predict(k, float(rng.uniform(0.02, 0.6)), cfg.process_noise_accel)
        k = kalman_update(k, k.position + rng.normal(scale=0.5, size=2), 0.5)
        assert np.array_equal(k.covariance, k.covariance.T)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(k.covariance).min()))
    report(
        "kalman cv convergence and covariance health",
        v_err < 0.05 and min_eig >= -1e-9,
        f"velocity error {v_err:.4f} m/s after 20 noiseless frames (dt=0.5, "
        f"limit 0.05); min eigenvalue over 1000 cycles {min_eig:.2e}",
    )


# --- lifecycle ----------------------------------------------------------


def one_detection(x, y):
    return Detection3D(center=np.array([x, y, -0.5]), length=4.4, width=1.9,
                       height=1.6, n_points=60)


@pytest.mark.parametrize("threshold", [1, 3, 5])
def test_lifecycle_thresholds(threshold):
    cfg = TrackerConfig(hit_confirm_threshold=threshold, miss_delete_threshold=threshold)
    tracker = Tracker(cfg)
    first_emit = None
    for i in range(threshold + 2):
        snaps = tracker.step([one_detection(0.5 * i, 0.0)], timestamp=0.1 * i, frame=i)
        if snaps and first_emit is None:
            first_emit = i + 1  # frames are 1-counted in the guarantee
    survived = []
    for j in range(threshold + 1):
        i = threshold + 2 + j
        snaps = tracker.step([], timestamp=0.1 * i, frame=i)
        survived.append(bool(snaps))
    deleted_after = survived.index(False) + 1 if False in survived else None
    report(
        f"lifecycle at hit/miss threshold {threshold}",
        first_emit == threshold and deleted_after == threshold,
        f"first emission on associated frame {first_emit} (want {threshold}); "
        f"gone after {deleted_after} consecutive misses (want {threshold})",
    )


# --- evaluation ---------------------------------------------------------


def mota_fixture():
    gt = {
        0: [("A", np.array([0.0, 0.0])), ("B", np.array([10.0, 0.0]))],
        1: [("A", np.array([1.0, 0.0])), ("B", np.array([11.0, 0.0]))],
        2: [("A", np.array([2.0, 0.0])), ("B", np.array([12.0, 0.0]))],
    }
    hyp = {
        0: [(1, np.array([0.1, 0.0])), (2, np.array([10.1, 0.0]))],
        1: [(1, np.array([1.1, 0.0])), (9, np.array([50.0, 50.0]))],
        2: [(3, np.array([2.1, 0.0])), (2, np.array([12.1, 0.0]))],
    }
    return gt, hyp


def test_mota_fixture_and_relabeling_invariance():
    gt, hyp = mota_fixture()
    base, _ = mota(gt, hyp)
    assert base.mota == 0.5
    rng = np.random.default_rng(905)
    stable = True
    for _ in range(50):
        perm = rng.permutation(100)
        relabeled = {
            f: [(int(perm[h]), xy) for h, xy in pairs] for f, pairs in hyp.items()
        }
        out, _ = mota(gt, relabeled)
        stable = stable and out == base
    report(
        "mota hand fixture and id-permutation invariance",
        base.mota == 0.5 and stable,
        f"fixture mota {base.mota} (want 0.5 exactly); 50 relabelings identical: {stable}",
    )


# --- end to end ---------------------------------------------------------

GOLDEN = SynthConfig()  # 5 cars at 5-15 m/s, moving ego, 50 frames, seed 0


def test_golden_run():
    cfg = PipelineConfig()
    seq = generate(GOLDEN)
    t0 = time.perf_counter()
    out = run_tracking(seq, cfg, workers=1)
    elapsed = time.perf_counter() - t0

    result, _ = mota(
        gt_to_eval_frames(seq.ground_truth),
        tracks_to_eval_frames(out.records),
        cfg.eval.match_distance,
    )

    # Speed check: lanes are distinct in y, so the final-frame y pins each
    # confirmed track to its car.
    lane_y = {car: car_center(GOLDEN, car, 0.0)[1] for car in range(GOLDEN.n_cars)}
    true_speed = np.linspace(GOLDEN.speed_min, GOLDEN.speed_max, GOLDEN.n_cars)
    last = {}
    for rec in out.records:
        last[rec.track_id] = rec
    good_speeds = 0
    for rec in last.values():
        car = min(lane_y, key=lambda c: abs(lane_y[c] - rec.y))
        speed = float(np.hypot(rec.vx, rec.vy))
        if abs(speed - true_speed[car]) / true_speed[car] <= 0.10:
            good_speeds += 1

    ok = (
        result.mota >= 0.90
        and result.id_switches == 0
        and good_speeds >= 4
        and elapsed < 30.0
    )
    report(
        "golden synthetic run",
        ok,
        f"mota {result.mota:.3f} (>=0.90), idsw {result.id_switches} (=0), "
        f"speeds within 10%: {good_speeds}/5 (>=4), {elapsed:.1f}s serial (<30s)",
    )


def test_ego_motion_invariance():
    cfg = PipelineConfig()
    scene = SynthConfig(n_cars=3, n_frames=20, rng_seed=2)
    moving = generate(scene)
    static = bake_ego_motion(moving)
    rec_a = run_tracking(moving, cfg).records
    rec_b = run_tracking(static, cfg).records
    pos_a = {(r.frame, r.track_id): (r.x, r.y) for r in rec_a}
    pos_b = {(r.frame, r.track_id): (r.x, r.y) for r in rec_b}
    same_keys = pos_a.keys() == pos_b.keys()
    max_diff = max(
        (abs(pos_a[k][0] - pos_b[k][0]) + abs(pos_a[k][1] - pos_b[k][1]) for k in pos_a),
        default=np.inf if not same_keys else 0.0,
    )
    report(
        "ego-motion invariance of city-frame tracks",
        same_keys and max_diff <= 1e-6,
        f"same (frame, id) set: {same_keys}; max position difference {max_diff:.2e} (<=1e-6)",
    )


def test_worker_count_determinism(tmp_path):
    from lidartrack.cli import main

    root = tmp_path / "seq"
    assert main(["synth", str(root), "--cars", "3", "--frames", "12"]) == 0
    a = tmp_path / "w1.jsonl"
    b = tmp_path / "w4.jsonl"
    assert main(["track", str(root), "--output", str(a), "--workers", "1"]) == 0
    assert main(["track", str(root), "--output", str(b), "--workers", "4"]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report(
        "track output independent of worker count",
        identical,
        f"--workers 1 vs --workers 4 files byte-identical: {identical}",
    )
