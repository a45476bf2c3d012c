"""Kalman tracking of detections in the city frame.

Working in the city frame is what makes a constant-velocity model usable at
all: ego motion is removed before the tracker ever sees a detection, so the
filter only has to explain how the cars move, not how the sensor does.

One track per object: a constant-velocity Kalman filter over the
bird's-eye-view state [x, y, vx, vy] plus the latest matched box, whose z
and extents are reported unfiltered. Association is min-cost assignment on
BEV centroid distance with a gate; lifecycle is hit/miss counting
(confirmed once enough hits, deleted after enough consecutive misses).
Track ids are never reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._frozen import check_shape, frozen
from .dataset_io import TrackRecord
from .detection import Detection3D


# Cost assigned to gated-out pairs. Any pair carrying this cost is reported
# unmatched no matter what the assignment solver picked.
GATE_SENTINEL = 1.0e6


@dataclass(frozen=True)
class TrackerConfig:
    hit_confirm_threshold: int = 5
    miss_delete_threshold: int = 5
    gate_distance: float = 4.0
    process_noise_accel: float = 2.0
    measurement_noise_pos: float = 0.5
    initial_velocity_std: float = 10.0

    def __post_init__(self):
        if self.hit_confirm_threshold < 1:
            raise ValueError("hit_confirm_threshold must be >= 1")
        if self.miss_delete_threshold < 1:
            raise ValueError("miss_delete_threshold must be >= 1")
        if self.gate_distance <= 0:
            raise ValueError("gate_distance must be positive")
        if self.measurement_noise_pos <= 0:
            raise ValueError("measurement_noise_pos must be positive")


def transition_matrices(dt: float, q_accel: float):
    """State transition F and white-acceleration process noise Q for one
    predict step of the [x, y, vx, vy] state."""
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    d2 = dt * dt
    d3 = d2 * dt
    d4 = d3 * dt
    Q = (q_accel * q_accel) * np.array(
        [
            [d4 / 4, 0, d3 / 2, 0],
            [0, d4 / 4, 0, d3 / 2],
            [d3 / 2, 0, d2, 0],
            [0, d3 / 2, 0, d2],
        ]
    )
    return F, Q


@dataclass(frozen=True)
class KalmanCV:
    """BEV position/velocity estimate; state is [x, y, vx, vy]."""

    state: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        for name, shape in (("state", (4,)), ("covariance", (4, 4))):
            object.__setattr__(self, name, frozen(name, getattr(self, name), np.float64, shape))

    @property
    def position(self) -> np.ndarray:
        return self.state[:2]

    @property
    def velocity(self) -> np.ndarray:
        return self.state[2:4]


def kalman_init(xy: np.ndarray, cfg: TrackerConfig) -> KalmanCV:
    """Fresh estimate at a detection: zero velocity, inflated velocity variance."""
    state = np.zeros(4)
    state[:2] = xy
    r2 = cfg.measurement_noise_pos**2
    v2 = cfg.initial_velocity_std**2
    return KalmanCV(state, np.diag([r2, r2, v2, v2]))


def kalman_predict(k: KalmanCV, dt: float, q_accel: float) -> KalmanCV:
    """Advance the estimate by dt. dt = 0 is an exact no-op on the state."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    F, Q = transition_matrices(dt, q_accel)
    state = F @ k.state
    cov = F @ k.covariance @ F.T + Q
    cov = (cov + cov.T) / 2.0
    return KalmanCV(state, cov)


def kalman_update(k: KalmanCV, z_xy, r_pos: float) -> KalmanCV:
    """Fold in a BEV position measurement with noise std r_pos per axis."""
    z = np.asarray(z_xy, dtype=np.float64)
    check_shape("z_xy", z, (2,))
    H = np.eye(2, 4)
    R = np.eye(2) * (r_pos * r_pos)
    innovation = z - H @ k.state
    S = H @ k.covariance @ H.T + R
    K = k.covariance @ H.T @ np.linalg.inv(S)
    state = k.state + K @ innovation
    cov = (np.eye(4) - K @ H) @ k.covariance
    cov = (cov + cov.T) / 2.0
    return KalmanCV(state, cov)


def cost_matrix(track_xy: np.ndarray, det_xy: np.ndarray, gate: float) -> np.ndarray:
    """BEV centroid distances, entries beyond the gate set to GATE_SENTINEL."""
    t = np.asarray(track_xy, dtype=np.float64)
    d = np.asarray(det_xy, dtype=np.float64)
    check_shape("track_xy", t, ("N", 2))
    check_shape("det_xy", d, ("M", 2))
    if len(t) == 0 or len(d) == 0:
        return np.zeros((len(t), len(d)))
    diff = t[:, None, :] - d[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return np.where(dist <= gate, dist, GATE_SENTINEL)


@dataclass(frozen=True)
class Assignment:
    matches: list[tuple[int, int]]
    unmatched_tracks: list[int]
    unmatched_detections: list[int]


def solve_lsap(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Minimum-total-cost rectangular assignment: (rows, cols), rows ascending.

    Shortest augmenting paths with dual updates (Crouse, "On implementing 2D
    rectangular assignment algorithms", 2016), ported step for step from the
    widely used C++ `linear_sum_assignment`, so ties resolve the same way:
    columns are scanned from the highest index down, and among equally
    short paths one ending at an unassigned column wins. A tall matrix is
    solved transposed and the pairs re-sorted by row.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-d matrix")
    if np.isnan(cost).any() or (cost == -np.inf).any():
        raise ValueError("cost matrix contains invalid numeric entries")
    transpose = cost.shape[1] < cost.shape[0]
    c = (cost.T if transpose else cost).tolist()
    nr, nc = len(c), len(c[0]) if c else 0
    inf = float("inf")
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # Dijkstra from row `cur` over reduced costs to the nearest free column.
        spc = [inf] * nc
        in_rows = [False] * nr
        in_cols = [False] * nc
        remaining = list(range(nc - 1, -1, -1))
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            in_rows[i] = True
            row, ui = c[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur] += min_val
        for i in range(nr):
            if in_rows[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if in_cols[j]:
                v[j] -= min_val - spc[j]

        # Augment along the path back to `cur`.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break

    if transpose:
        pairs = sorted(zip(col4row, range(nr)))
        return [p[0] for p in pairs], [p[1] for p in pairs]
    return list(range(nr)), col4row


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-total-cost one-to-one assignment on a rectangular matrix.

    Solved by `solve_lsap`, the rectangular variant (equivalent to padding
    the matrix square with zeros), whose result matches the reference
    `linear_sum_assignment` ties included; a generated test holds it to
    that. Pairs whose entry carries GATE_SENTINEL are stripped from the
    result and reported unmatched on both sides.
    """
    cost = np.asarray(cost, dtype=np.float64)
    rows, cols = solve_lsap(cost)
    n, m = cost.shape
    matches = [(i, j) for i, j in zip(rows, cols) if cost[i, j] < GATE_SENTINEL]
    matched_t = {i for i, _ in matches}
    matched_d = {j for _, j in matches}
    return Assignment(
        matches=sorted(matches),
        unmatched_tracks=[i for i in range(n) if i not in matched_t],
        unmatched_detections=[j for j in range(m) if j not in matched_d],
    )


@dataclass
class Track:
    """A filter, the latest matched box and two counters. hits never goes
    down, so a track stays confirmed once it has enough of them."""

    track_id: int
    kalman: KalmanCV
    box: Detection3D
    hits: int = 1
    consecutive_misses: int = 0


def _record(tr: Track, frame: int) -> TrackRecord:
    x, y, vx, vy = (float(v) for v in tr.kalman.state)
    b = tr.box
    z = float(b.center[2])
    return TrackRecord(frame, tr.track_id, x, y, z, vx, vy, b.length, b.width, b.height)


class Tracker:
    """Multi-object tracker consuming city-frame detections frame by frame.

    Tentative and confirmed tracks associate identically; confirmation
    (hits >= hit_confirm_threshold) only controls what step() returns.
    Records reflect the post-update state of this frame, so a confirmed
    track coasting through a missed frame still reports its predicted
    position. A track is dropped in the step that brings its consecutive
    misses to miss_delete_threshold.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self._next_id = 0
        self._last_timestamp: Optional[float] = None

    def step(self, detections: Sequence, timestamp: float, frame: int) -> list[TrackRecord]:
        """Advance one frame; returns the records of its confirmed tracks."""
        cfg = self.config
        if self._last_timestamp is not None and timestamp <= self._last_timestamp:
            raise ValueError(
                f"timestamps must be strictly increasing: {timestamp} after {self._last_timestamp}"
            )
        dt = 0.0 if self._last_timestamp is None else timestamp - self._last_timestamp
        self._last_timestamp = timestamp

        for tr in self.tracks:
            tr.kalman = kalman_predict(tr.kalman, dt, cfg.process_noise_accel)

        track_xy = np.array([tr.kalman.position for tr in self.tracks]).reshape(-1, 2)
        det_xy = np.array([d.center[:2] for d in detections]).reshape(-1, 2)
        assignment = hungarian(cost_matrix(track_xy, det_xy, cfg.gate_distance))

        for ti, di in assignment.matches:
            tr = self.tracks[ti]
            tr.box = detections[di]
            tr.kalman = kalman_update(tr.kalman, tr.box.center[:2], cfg.measurement_noise_pos)
            tr.hits += 1
            tr.consecutive_misses = 0

        for ti in assignment.unmatched_tracks:
            self.tracks[ti].consecutive_misses += 1
        self.tracks = [
            tr for tr in self.tracks if tr.consecutive_misses < cfg.miss_delete_threshold
        ]

        for di in assignment.unmatched_detections:
            det = detections[di]
            self.tracks.append(Track(self._next_id, kalman_init(det.center[:2], cfg), det))
            self._next_id += 1

        return [
            _record(tr, frame) for tr in self.tracks if tr.hits >= cfg.hit_confirm_threshold
        ]
