"""Kalman tracking of detections in the city frame.

Working in the city frame is what makes a constant-velocity model usable at
all: ego motion is removed before the tracker ever sees a detection, so the
filter only has to explain how the cars move, not how the sensor does.

One track per object: a constant-velocity Kalman filter over the
bird's-eye-view state [x, y, vx, vy], box z and extents carried along
unfiltered. Association is min-cost assignment on BEV centroid distance
with a gate; lifecycle is hit/miss counting (tentative until enough hits,
deleted after enough consecutive misses). Track ids are never reused.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataset_io import TrackRecord


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
    """BEV position/velocity estimate plus carried box geometry.

    state is [x, y, vx, vy]. Box z and extents ride along from the latest
    matched detection; they are copied, never filtered.
    """

    state: np.ndarray
    covariance: np.ndarray
    z: float = 0.0
    dims: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        s = np.asarray(self.state, dtype=np.float64).reshape(-1)
        p = np.asarray(self.covariance, dtype=np.float64)
        if s.shape != (4,) or p.shape != (4, 4):
            raise ValueError(f"bad state/covariance shapes {s.shape}, {p.shape}")
        s.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "state", s)
        object.__setattr__(self, "covariance", p)

    @property
    def position(self) -> np.ndarray:
        return self.state[:2]

    @property
    def velocity(self) -> np.ndarray:
        return self.state[2:4]


def kalman_init(
    xy: np.ndarray,
    cfg: TrackerConfig,
    z: float = 0.0,
    dims: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> KalmanCV:
    """Fresh estimate at a detection: zero velocity, inflated velocity variance."""
    state = np.zeros(4)
    state[:2] = xy
    r2 = cfg.measurement_noise_pos**2
    v2 = cfg.initial_velocity_std**2
    return KalmanCV(state, np.diag([r2, r2, v2, v2]), z=z, dims=dims)


def kalman_predict(k: KalmanCV, dt: float, q_accel: float) -> KalmanCV:
    """Advance the estimate by dt. dt = 0 is an exact no-op on the state."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    F, Q = transition_matrices(dt, q_accel)
    state = F @ k.state
    cov = F @ k.covariance @ F.T + Q
    cov = (cov + cov.T) / 2.0
    return replace(k, state=state, covariance=cov)


def kalman_update(k: KalmanCV, z_xy, r_pos: float) -> KalmanCV:
    """Fold in a BEV position measurement with noise std r_pos per axis."""
    z = np.asarray(z_xy, dtype=np.float64).reshape(2)
    H = np.eye(2, 4)
    R = np.eye(2) * (r_pos * r_pos)
    innovation = z - H @ k.state
    S = H @ k.covariance @ H.T + R
    K = k.covariance @ H.T @ np.linalg.inv(S)
    state = k.state + K @ innovation
    cov = (np.eye(4) - K @ H) @ k.covariance
    cov = (cov + cov.T) / 2.0
    return replace(k, state=state, covariance=cov)


def cost_matrix(track_xy: np.ndarray, det_xy: np.ndarray, gate: float) -> np.ndarray:
    """BEV centroid distances, entries beyond the gate set to GATE_SENTINEL."""
    t = np.asarray(track_xy, dtype=np.float64).reshape(-1, 2)
    d = np.asarray(det_xy, dtype=np.float64).reshape(-1, 2)
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


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-total-cost one-to-one assignment on a rectangular matrix.

    Solved with scipy's rectangular variant (equivalent to padding the
    matrix square with zeros). Pairs whose entry carries GATE_SENTINEL are
    stripped from the result and reported unmatched on both sides.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-d matrix")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment([], list(range(n)), list(range(m)))
    rows, cols = linear_sum_assignment(cost)
    matches = [(int(i), int(j)) for i, j in zip(rows, cols) if cost[i, j] < GATE_SENTINEL]
    matched_t = {i for i, _ in matches}
    matched_d = {j for _, j in matches}
    return Assignment(
        matches=sorted(matches),
        unmatched_tracks=[i for i in range(n) if i not in matched_t],
        unmatched_detections=[j for j in range(m) if j not in matched_d],
    )


class TrackStatus(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DELETED = "deleted"


@dataclass
class Track:
    track_id: int
    kalman: KalmanCV
    hits: int = 1
    consecutive_misses: int = 0
    status: TrackStatus = TrackStatus.TENTATIVE


def _record(tr: Track, frame: int) -> TrackRecord:
    k = tr.kalman
    x, y, vx, vy = (float(v) for v in k.state)
    return TrackRecord(frame, tr.track_id, x, y, float(k.z), vx, vy, *k.dims)


class Tracker:
    """Multi-object tracker consuming city-frame detections frame by frame.

    Tentative and confirmed tracks associate identically; the status only
    controls what step() returns. Records reflect the post-update state of
    this frame, so a confirmed track coasting through a missed frame still
    reports its predicted position.
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
            det = detections[di]
            k = kalman_update(tr.kalman, det.center[:2], cfg.measurement_noise_pos)
            tr.kalman = replace(
                k, z=float(det.center[2]), dims=(det.length, det.width, det.height)
            )
            tr.hits += 1
            tr.consecutive_misses = 0
            if tr.status is TrackStatus.TENTATIVE and tr.hits >= cfg.hit_confirm_threshold:
                tr.status = TrackStatus.CONFIRMED

        for ti in assignment.unmatched_tracks:
            tr = self.tracks[ti]
            tr.consecutive_misses += 1
            if tr.consecutive_misses >= cfg.miss_delete_threshold:
                tr.status = TrackStatus.DELETED

        self.tracks = [tr for tr in self.tracks if tr.status is not TrackStatus.DELETED]

        for di in assignment.unmatched_detections:
            det = detections[di]
            track = Track(
                track_id=self._next_id,
                kalman=kalman_init(
                    det.center[:2],
                    cfg,
                    z=float(det.center[2]),
                    dims=(det.length, det.width, det.height),
                ),
            )
            self._next_id += 1
            if cfg.hit_confirm_threshold <= 1:
                track.status = TrackStatus.CONFIRMED
            self.tracks.append(track)

        return [_record(tr, frame) for tr in self.tracks if tr.status is TrackStatus.CONFIRMED]
