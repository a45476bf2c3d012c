"""Kalman filtering, gated assignment, and track lifecycle.

Reference computations here are written against the textbook forms (Joseph
covariance update, permutation-enumeration assignment) so the library code
is checked by a second derivation, not by itself.
"""

from itertools import permutations

import numpy as np
import pytest

from lidartrack.detection import Detection3D
from lidartrack.tracking import (
    GATE_SENTINEL,
    Assignment,
    KalmanCV,
    Tracker,
    TrackerConfig,
    cost_matrix,
    hungarian,
    kalman_init,
    kalman_predict,
    kalman_update,
    transition_matrices,
)


def test_cv_transition_matrices_hand_values():
    dt, q = 0.5, 2.0
    F, Q = transition_matrices(dt, q)
    F_want = np.array(
        [
            [1, 0, 0.5, 0],
            [0, 1, 0, 0.5],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.float64,
    )
    assert np.array_equal(F, F_want)
    # q^2 * [dt^4/4, dt^3/2; dt^3/2, dt^2] per axis with q=2, dt=0.5:
    # 4 * [0.015625, 0.0625; 0.0625, 0.25]
    Q_want = np.array(
        [
            [0.0625, 0, 0.25, 0],
            [0, 0.0625, 0, 0.25],
            [0.25, 0, 1.0, 0],
            [0, 0.25, 0, 1.0],
        ]
    )
    assert np.allclose(Q, Q_want, atol=1e-15)


def test_kalman_init_prior():
    cfg = TrackerConfig(measurement_noise_pos=0.5, initial_velocity_std=10.0)
    k = kalman_init(np.array([3.0, -4.0]), cfg, z=-0.7, dims=(4.0, 2.0, 1.5))
    assert np.array_equal(k.position, [3.0, -4.0])
    assert np.array_equal(k.velocity, [0.0, 0.0])
    assert np.allclose(np.diag(k.covariance), [0.25, 0.25, 100.0, 100.0])
    assert k.z == -0.7 and k.dims == (4.0, 2.0, 1.5)


def test_kalman_state_is_position_and_velocity_only():
    with pytest.raises(ValueError):
        KalmanCV(np.zeros(6), np.eye(6))


def test_predict_moves_state_linearly():
    cfg = TrackerConfig()
    k = kalman_init(np.array([0.0, 0.0]), cfg)
    k = KalmanCV(np.array([1.0, 2.0, 3.0, -1.0]), k.covariance)
    out = kalman_predict(k, 0.5, q_accel=2.0)
    assert np.allclose(out.state, [2.5, 1.5, 3.0, -1.0])


def test_predict_zero_dt_is_identity_on_state():
    cfg = TrackerConfig()
    k = kalman_init(np.array([5.0, 6.0]), cfg)
    out = kalman_predict(k, 0.0, q_accel=2.0)
    assert np.array_equal(out.state, k.state)
    assert np.array_equal(out.covariance, k.covariance)


def test_predict_rejects_negative_dt():
    k = kalman_init(np.zeros(2), TrackerConfig())
    with pytest.raises(ValueError):
        kalman_predict(k, -0.1, 1.0)


def reference_update(state, cov, z, r):
    """Joseph-form update; algebraically equal to the library's simple form."""
    n = len(state)
    H = np.zeros((2, n))
    H[0, 0] = H[1, 1] = 1.0
    R = np.eye(2) * (r * r)
    S = H @ cov @ H.T + R
    K = np.linalg.solve(S.T, (cov @ H.T).T).T
    new_state = state + K @ (z - H @ state)
    ImKH = np.eye(n) - K @ H
    new_cov = ImKH @ cov @ ImKH.T + K @ R @ K.T
    return new_state, new_cov


def random_spd(rng, n, scale=10.0):
    A = rng.normal(size=(n, n))
    return A @ A.T + np.eye(n) * scale * 0.01


def test_update_matches_joseph_form_randomized():
    rng = np.random.default_rng(600)
    for _ in range(200):
        state = rng.normal(scale=5.0, size=4)
        cov = random_spd(rng, 4)
        z = rng.normal(scale=5.0, size=2)
        r = float(rng.uniform(0.1, 2.0))
        k = KalmanCV(state, cov)
        out = kalman_update(k, z, r)
        want_state, want_cov = reference_update(state, cov, z, r)
        assert np.allclose(out.state, want_state, atol=1e-9)
        assert np.allclose(out.covariance, want_cov, atol=1e-8)


def test_update_scalar_gain_case():
    # With P = diag(p, p, v, v) the position block is decoupled, so the
    # update on x collapses to the scalar gain p / (p + r^2).
    p, v, r = 4.0, 100.0, 1.0
    k = KalmanCV(np.zeros(4), np.diag([p, p, v, v]))
    out = kalman_update(k, np.array([2.0, -2.0]), r)
    gain = p / (p + r * r)
    assert np.allclose(out.state[:2], [gain * 2.0, gain * -2.0])
    assert np.allclose(out.state[2:], [0.0, 0.0])
    assert np.isclose(out.covariance[0, 0], (1 - gain) * p)


def test_update_keeps_covariance_symmetric_psd():
    rng = np.random.default_rng(601)
    cfg = TrackerConfig()
    k = kalman_init(rng.normal(size=2), cfg)
    for _ in range(300):
        k = kalman_predict(k, float(rng.uniform(0.05, 0.5)), 2.0)
        k = kalman_update(k, k.position + rng.normal(scale=0.3, size=2), 0.5)
        cov = k.covariance
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9


def test_velocity_converges_on_noiseless_cv_target():
    cfg = TrackerConfig()
    truth_v = np.array([4.0, -1.5])
    dt = 0.5
    k = kalman_init(np.zeros(2), cfg)
    for i in range(1, 20):
        k = kalman_predict(k, dt, cfg.process_noise_accel)
        k = kalman_update(k, truth_v * (i * dt), cfg.measurement_noise_pos)
    assert np.linalg.norm(k.velocity - truth_v) < 0.05


def test_cost_matrix_distances_and_gate():
    tracks = np.array([[0.0, 0.0], [10.0, 0.0]])
    dets = np.array([[3.0, 4.0], [10.0, 1.0]])
    cost = cost_matrix(tracks, dets, gate=4.0)
    assert cost[1, 1] == 1.0
    assert cost[0, 0] == GATE_SENTINEL  # distance 5 > 4
    assert cost[1, 0] == GATE_SENTINEL
    assert cost[0, 1] == GATE_SENTINEL


def test_cost_matrix_gate_boundary_inclusive():
    cost = cost_matrix(np.array([[0.0, 0.0]]), np.array([[4.0, 0.0]]), gate=4.0)
    assert cost[0, 0] == 4.0


def brute_min_cost(cost):
    n, m = cost.shape
    best = np.inf
    if n <= m:
        for perm in permutations(range(m), n):
            best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    else:
        for perm in permutations(range(n), m):
            best = min(best, sum(cost[perm[j], j] for j in range(m)))
    return best


def test_hungarian_hand_case():
    cost = np.array(
        [
            [4.0, 1.0, 3.0],
            [2.0, 0.0, 5.0],
            [3.0, 2.0, 2.0],
        ]
    )
    out = hungarian(cost)
    assert sorted(out.matches) == [(0, 1), (1, 0), (2, 2)]
    assert out.unmatched_tracks == [] and out.unmatched_detections == []


def test_hungarian_matches_enumeration_randomized():
    rng = np.random.default_rng(602)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(0, 20, size=(n, m))
        out = hungarian(cost)
        got = sum(cost[i, j] for i, j in out.matches)
        assert len(out.matches) == min(n, m)
        assert np.isclose(got, brute_min_cost(cost), atol=1e-12)


def test_hungarian_strips_gated_pairs():
    # Track 0 can only take detection 0; track 1 is beyond the gate for
    # everything and must come back unmatched.
    cost = np.array(
        [
            [1.0, GATE_SENTINEL],
            [GATE_SENTINEL, GATE_SENTINEL],
        ]
    )
    out = hungarian(cost)
    assert out.matches == [(0, 0)]
    assert out.unmatched_tracks == [1]
    assert out.unmatched_detections == [1]


def test_hungarian_empty_inputs():
    out = hungarian(np.zeros((0, 3)))
    assert out == Assignment([], [], [0, 1, 2])
    out = hungarian(np.zeros((2, 0)))
    assert out == Assignment([], [0, 1], [])


def det_at(x, y, z=-0.5, length=4.4, width=1.9, height=1.6):
    return Detection3D(
        center=np.array([x, y, z]), length=length, width=width, height=height, n_points=50
    )


def run_frames(tracker, frames, dt=0.1):
    """frames: list of detection lists. Returns the records of each frame."""
    return [tracker.step(dets, timestamp=i * dt, frame=i) for i, dets in enumerate(frames)]


@pytest.mark.parametrize("threshold", [1, 3, 5])
def test_first_emission_at_exactly_the_nth_hit(threshold):
    cfg = TrackerConfig(hit_confirm_threshold=threshold)
    tracker = Tracker(cfg)
    for i in range(8):
        records = tracker.step([det_at(1.0 * i, 0.0)], timestamp=i * 0.1, frame=i)
        if i + 1 < threshold:
            assert records == [], f"frame {i}: emitted before {threshold} hits"
        else:
            assert len(records) == 1, f"frame {i}: expected one confirmed track"
            assert records[0].frame == i
        if i + 1 == threshold:
            assert tracker.tracks[0].hits == threshold


@pytest.mark.parametrize("threshold", [1, 3, 5])
def test_deletion_after_exactly_n_misses(threshold):
    cfg = TrackerConfig(hit_confirm_threshold=1, miss_delete_threshold=threshold)
    tracker = Tracker(cfg)
    frames = [[det_at(0.0, 0.0)]] + [[] for _ in range(threshold + 2)]
    emitted = run_frames(tracker, frames)
    # Coasts through threshold-1 misses, gone on the threshold-th.
    for miss in range(1, threshold):
        assert len(emitted[miss]) == 1, f"should coast through miss {miss}"
    assert emitted[threshold] == []
    assert tracker.tracks == []


def test_coasting_track_advances_by_prediction():
    cfg = TrackerConfig(hit_confirm_threshold=1, miss_delete_threshold=5)
    tracker = Tracker(cfg)
    dt = 0.5
    # Feed a constant-velocity target long enough to lock the velocity in.
    snaps = []
    for i in range(12):
        snaps = tracker.step([det_at(3.0 * i * dt, 0.0)], timestamp=i * dt, frame=i)
    x_last, vx = snaps[0].x, snaps[0].vx
    assert abs(vx - 3.0) < 0.05
    coast = tracker.step([], timestamp=12 * dt, frame=12)
    assert len(coast) == 1
    assert np.isclose(coast[0].x, x_last + vx * dt, atol=1e-9)
    assert coast[0].vx == vx


def test_track_ids_never_reused():
    cfg = TrackerConfig(hit_confirm_threshold=1, miss_delete_threshold=1)
    tracker = Tracker(cfg)
    first = tracker.step([det_at(0.0, 0.0)], 0.0, 0)[0].track_id
    tracker.step([], 0.1, 1)  # deletes the only track
    second = tracker.step([det_at(0.0, 0.0)], 0.2, 2)[0].track_id
    assert second > first


def test_tentative_tracks_are_not_emitted():
    cfg = TrackerConfig(hit_confirm_threshold=3)
    tracker = Tracker(cfg)
    snaps = tracker.step([det_at(5.0, 5.0)], 0.0, 0)
    assert snaps == []
    assert len(tracker.tracks) == 1


def test_detection_outside_gate_starts_new_track():
    cfg = TrackerConfig(hit_confirm_threshold=1, gate_distance=4.0)
    tracker = Tracker(cfg)
    tracker.step([det_at(0.0, 0.0)], 0.0, 0)
    snaps = tracker.step([det_at(10.0, 0.0)], 0.1, 1)
    ids = {s.track_id for s in snaps}
    assert len(ids) == 2
    # The original track missed; the new one sits at x=10.
    by_id = {s.track_id: s for s in snaps}
    assert np.isclose(by_id[max(ids)].x, 10.0)


def test_two_targets_keep_their_ids_when_crossing_paths():
    cfg = TrackerConfig(hit_confirm_threshold=1, gate_distance=4.0)
    tracker = Tracker(cfg)
    dt = 0.1
    # Targets approach on parallel lanes 2 m apart; gating plus nearest
    # assignment must never swap them.
    id_by_lane = {}
    for i in range(30):
        x_a = 0.0 + 8.0 * i * dt
        x_b = 24.0 - 8.0 * i * dt
        snaps = tracker.step([det_at(x_a, 0.0), det_at(x_b, 2.0)], timestamp=i * dt, frame=i)
        for s in snaps:
            lane = 0 if abs(s.y) < 1.0 else 1
            id_by_lane.setdefault(lane, s.track_id)
            assert s.track_id == id_by_lane[lane], f"id swap on frame {i}"


def test_z_and_dims_follow_latest_detection():
    cfg = TrackerConfig(hit_confirm_threshold=1)
    tracker = Tracker(cfg)
    tracker.step([det_at(0.0, 0.0, z=-0.5, length=4.0)], 0.0, 0)
    snaps = tracker.step([det_at(0.1, 0.0, z=-0.3, length=4.5)], 0.1, 1)
    assert snaps[0].z == -0.3
    assert snaps[0].length == 4.5


def test_timestamps_must_increase():
    tracker = Tracker(TrackerConfig())
    tracker.step([], 1.0, 0)
    with pytest.raises(ValueError):
        tracker.step([], 1.0, 1)
    with pytest.raises(ValueError):
        tracker.step([], 0.5, 1)


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(hit_confirm_threshold=0)
    with pytest.raises(ValueError):
        TrackerConfig(miss_delete_threshold=0)
    with pytest.raises(ValueError):
        TrackerConfig(gate_distance=0.0)
