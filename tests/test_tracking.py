"""Kalman filtering, gated assignment, and track lifecycle.

Reference computations here are written against the textbook forms (Joseph
covariance update, permutation-enumeration assignment, a per-track tracker
in `oracles.ReferenceTracker`) so the library code is checked by a second
derivation, not by itself. The filter takes stacks of tracks, (T, 4)
states and (T, 4, 4) covariances; T = 1 is one track.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import ReferenceTracker
from scipy.optimize import linear_sum_assignment

from lidartrack.config import PipelineConfig
from lidartrack.pipeline import detect_frames
from lidartrack.synth import SynthConfig, generate
from lidartrack.tracking import (
    GATE_SENTINEL,
    Assignment,
    Tracker,
    TrackerConfig,
    cost_matrix,
    hungarian,
    kalman_init,
    kalman_predict,
    kalman_update,
    solve_lsap,
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
    state, cov = kalman_init(np.array([[3.0, -4.0]]), cfg)
    assert np.array_equal(state[0, :2], [3.0, -4.0])
    assert np.array_equal(state[0, 2:], [0.0, 0.0])
    assert np.allclose(np.diag(cov[0]), [0.25, 0.25, 100.0, 100.0])


def test_kalman_state_is_position_and_velocity_only():
    with pytest.raises(ValueError, match="states must have shape"):
        kalman_predict(np.zeros((1, 6)), np.eye(6)[None], 0.1, 1.0)
    with pytest.raises(ValueError, match="states must have shape"):
        kalman_update(np.zeros((1, 6)), np.eye(6)[None], np.zeros((1, 2)), 0.5)


def test_predict_moves_state_linearly():
    cfg = TrackerConfig()
    _, cov = kalman_init(np.zeros((1, 2)), cfg)
    state, _ = kalman_predict(np.array([[1.0, 2.0, 3.0, -1.0]]), cov, 0.5, q_accel=2.0)
    assert np.allclose(state, [[2.5, 1.5, 3.0, -1.0]])


def test_predict_zero_dt_is_identity_on_state():
    cfg = TrackerConfig()
    state, cov = kalman_init(np.array([[5.0, 6.0]]), cfg)
    out_state, out_cov = kalman_predict(state, cov, 0.0, q_accel=2.0)
    assert np.array_equal(out_state, state)
    assert np.array_equal(out_cov, cov)


def test_predict_rejects_negative_dt():
    state, cov = kalman_init(np.zeros((1, 2)), TrackerConfig())
    with pytest.raises(ValueError):
        kalman_predict(state, cov, -0.1, 1.0)


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
        out_state, out_cov = kalman_update(state[None], cov[None], z[None], r)
        want_state, want_cov = reference_update(state, cov, z, r)
        assert np.allclose(out_state[0], want_state, atol=1e-9)
        assert np.allclose(out_cov[0], want_cov, atol=1e-8)


def test_update_scalar_gain_case():
    # With P = diag(p, p, v, v) the position block is decoupled, so the
    # update on x collapses to the scalar gain p / (p + r^2).
    p, v, r = 4.0, 100.0, 1.0
    cov = np.diag([p, p, v, v])[None]
    state, cov = kalman_update(np.zeros((1, 4)), cov, np.array([[2.0, -2.0]]), r)
    gain = p / (p + r * r)
    assert np.allclose(state[0, :2], [gain * 2.0, gain * -2.0])
    assert np.allclose(state[0, 2:], [0.0, 0.0])
    assert np.isclose(cov[0, 0, 0], (1 - gain) * p)


def test_update_keeps_covariance_symmetric_psd():
    rng = np.random.default_rng(601)
    cfg = TrackerConfig()
    state, cov = kalman_init(rng.normal(size=(1, 2)), cfg)
    for _ in range(300):
        state, cov = kalman_predict(state, cov, float(rng.uniform(0.05, 0.5)), 2.0)
        z = state[:, :2] + rng.normal(scale=0.3, size=(1, 2))
        state, cov = kalman_update(state, cov, z, 0.5)
        assert np.array_equal(cov[0], cov[0].T)
        assert np.linalg.eigvalsh(cov[0]).min() >= -1e-9


def test_velocity_converges_on_noiseless_cv_target():
    cfg = TrackerConfig()
    truth_v = np.array([4.0, -1.5])
    dt = 0.5
    state, cov = kalman_init(np.zeros((1, 2)), cfg)
    for i in range(1, 20):
        state, cov = kalman_predict(state, cov, dt, cfg.process_noise_accel)
        state, cov = kalman_update(state, cov, [truth_v * (i * dt)], cfg.measurement_noise_pos)
    assert np.linalg.norm(state[0, 2:] - truth_v) < 0.05


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


ENTRIES = {
    "uniform": st.floats(0.0, 20.0),
    "integer": st.integers(0, 3).map(float),
    "gated": st.integers(0, 3).map(float) | st.just(GATE_SENTINEL),
}


@st.composite
def lsap_case(draw):
    """Wide, tall, square and 1xN / Nx1 matrices; integer entries tie often,
    and gated ones tie at GATE_SENTINEL."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    return draw(arrays(np.float64, shape, elements=ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(lsap_case())
@example(np.full((1, 5), GATE_SENTINEL))
@example(np.array([[2.0], [1.0], [1.0], [0.0]]))
def test_lsap_matches_scipy_generated(cost):
    """scipy is the oracle here only; the library never imports it."""
    rows, cols = linear_sum_assignment(cost)
    assert solve_lsap(cost) == (rows.tolist(), cols.tolist())


def test_lsap_rejects_invalid_entries():
    with pytest.raises(ValueError, match="2-d"):
        solve_lsap(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        solve_lsap(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        solve_lsap(np.array([[1.0, -np.inf]]))
    with pytest.raises(ValueError, match="infeasible"):
        solve_lsap(np.array([[np.inf, np.inf], [1.0, 2.0]]))


def det_at(x, y, z=-0.5, length=4.4, width=1.9, height=1.6):
    return np.array([x, y, z, length, width, height])


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
            assert tracker.tracks[0]["hits"] == threshold


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
    assert len(tracker.tracks) == 0


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


def test_step_refuses_a_table_of_the_wrong_width_before_anything_moves():
    tracker = Tracker(TrackerConfig(hit_confirm_threshold=1))
    tracker.step([det_at(0.0, 0.0)], 0.0, 0)
    before = tracker.tracks.copy()
    with pytest.raises(ValueError, match="^detections must have shape"):
        tracker.step(np.zeros((1, 5)), 0.1, 1)
    assert tracker.tracks.tobytes() == before.tobytes()
    # The refused step took no time: the same timestamp is still to come.
    assert len(tracker.step(np.stack([det_at(0.1, 0.0)]), 0.1, 1)) == 1


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(hit_confirm_threshold=0)
    with pytest.raises(ValueError):
        TrackerConfig(miss_delete_threshold=0)
    with pytest.raises(ValueError):
        TrackerConfig(gate_distance=0.0)
    for name in ("process_noise_accel", "initial_velocity_std"):
        with pytest.raises(ValueError, match=name):
            TrackerConfig(**{name: -0.1})
        assert getattr(TrackerConfig(**{name: 0.0}), name) == 0.0


def test_a_stack_of_tracks_filters_each_row_as_if_alone():
    """Rows of one stack never mix: predicting and updating T tracks at
    once gives each row, bit for bit, what T = 1 gives it."""
    rng = np.random.default_rng(603)
    cfg = TrackerConfig()
    state, cov = kalman_init(rng.normal(scale=10.0, size=(6, 2)), cfg)
    for _ in range(20):
        dt = float(rng.uniform(0.0, 0.6))
        z = state[:, :2] + rng.normal(scale=0.5, size=(6, 2))
        rows = [kalman_predict(state[i : i + 1], cov[i : i + 1], dt, 2.0) for i in range(6)]
        rows = [kalman_update(s, c, z[i : i + 1], 0.5) for i, (s, c) in enumerate(rows)]
        state, cov = kalman_update(*kalman_predict(state, cov, dt, 2.0), z, 0.5)
        assert state.tobytes() == np.concatenate([s for s, _ in rows]).tobytes()
        assert cov.tobytes() == np.concatenate([c for _, c in rows]).tobytes()


def test_len_tracks_is_the_live_count():
    """len(tracker.tracks) counts every live track, tentative or coasting,
    and drops a track in the step that deletes it; the benchmark's tracer
    reads it as the live-track count."""
    tracker = Tracker(TrackerConfig(hit_confirm_threshold=2, miss_delete_threshold=2))
    frames = [
        [det_at(0.0, 0.0), det_at(20.0, 0.0)],  # two births
        [det_at(0.1, 0.0)],  # one hit, track 1 coasts
        [det_at(0.2, 0.0), det_at(40.0, 0.0)],  # track 1 deleted, track 2 born
        [],  # both coast
        [],  # both deleted
    ]
    live = []
    for i, dets in enumerate(frames):
        tracker.step(dets, timestamp=i * 0.1, frame=i)
        live.append((len(tracker.tracks), tracker.tracks["id"].tolist()))
    assert live == [(2, [0, 1]), (2, [0, 1]), (2, [0, 2]), (2, [0, 2]), (0, [])]


def assert_same_as_reference(tracker, reference, detections, timestamp, frame):
    """One step of both trackers: the same records, bit for bit (repr tells
    floats apart by their bits, -0.0 included), and the same live tracks."""
    got = tracker.step(detections, timestamp, frame)
    want = reference.step(detections, timestamp, frame)
    assert list(map(repr, got)) == list(map(repr, want))
    assert tracker.tracks["id"].tolist() == [tr.track_id for tr in reference.tracks]
    assert tracker.tracks["hits"].tolist() == [tr.hits for tr in reference.tracks]
    assert tracker.tracks["misses"].tolist() == [tr.misses for tr in reference.tracks]
    want_state = np.array([tr.x for tr in reference.tracks]).reshape(-1, 4)
    want_cov = np.array([tr.P for tr in reference.tracks]).reshape(-1, 4, 4)
    assert tracker.tracks["state"].tobytes() == want_state.tobytes()
    assert tracker.tracks["cov"].tobytes() == want_cov.tobytes()


coord = st.floats(-15.0, 15.0)
speed = st.floats(-6.0, 6.0)
jitter = st.floats(-0.6, 0.6)


@st.composite
def tracker_stream(draw):
    """A tracker config and frames of (timestamp, detections).

    A few constant-velocity targets are each seen (with position jitter) or
    missed in every frame, and clutter lands anywhere in the scene, so the
    streams hold random gaps between frames, empty frames, matches,
    coasting, gated-out detections, births and deaths.
    """
    cfg = TrackerConfig(
        hit_confirm_threshold=draw(st.integers(1, 4)),
        miss_delete_threshold=draw(st.integers(1, 4)),
        gate_distance=draw(st.floats(0.5, 6.0)),
    )
    targets = draw(st.lists(st.tuples(coord, coord, speed, speed), max_size=4))
    start = t = draw(st.floats(0.0, 100.0))
    frames = []
    for _ in range(draw(st.integers(1, 20))):
        t += draw(st.floats(0.01, 1.0))
        dets = [
            det_at(x + vx * (t - start) + draw(jitter), y + vy * (t - start) + draw(jitter))
            for x, y, vx, vy in targets
            if draw(st.booleans())
        ]
        for _ in range(draw(st.integers(0, 2))):
            box = draw(st.tuples(coord, coord, st.floats(-2.0, 1.0), st.floats(0.0, 6.0)))
            dets.insert(draw(st.integers(0, len(dets))), det_at(*box))
        frames.append((t, dets))
    return cfg, frames


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tracker_stream())
def test_tracker_matches_the_per_track_reference_generated(case):
    cfg, frames = case
    tracker, reference = Tracker(cfg), ReferenceTracker(cfg)
    for i, (t, dets) in enumerate(frames):
        assert_same_as_reference(tracker, reference, dets, t, i)


def test_tracker_matches_the_per_track_reference_on_golden_detections():
    """Golden seed 1's detections, 5 cars over 50 frames."""
    cfg = PipelineConfig()
    seq = generate(SynthConfig(rng_seed=1))
    tracker, reference = Tracker(cfg.tracker), ReferenceTracker(cfg.tracker)
    for frame, found in detect_frames(seq, cfg):
        assert_same_as_reference(tracker, reference, found.detections, frame.timestamp, frame.index)
    assert tracker.tracks["id"].tolist() == [0, 1, 2, 3, 4]
