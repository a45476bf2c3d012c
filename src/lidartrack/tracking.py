"""Kalman tracking of detections in the city frame.

Working in the city frame is what makes a constant-velocity model usable at
all: ego motion is removed before the tracker ever sees a detection, so the
filter only has to explain how the cars move, not how the sensor does.

One track per object: a constant-velocity Kalman filter over the
bird's-eye-view state [x, y, vx, vy] plus the latest matched box, whose z
and extents are reported unfiltered. The tracks are the rows of one track
table, and the filter runs over a stack of them at once: `kalman_init`,
`kalman_predict` and `kalman_update` take (T, 4) states and (T, 4, 4)
covariances, T = 1 being a single track. Association is min-cost
assignment on BEV centroid distance with a gate; lifecycle is hit/miss
counting (confirmed once enough hits, deleted after enough consecutive
misses). Track ids are never reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._frozen import check_shape
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
        for name in ("process_noise_accel", "initial_velocity_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def transition_matrices(dt: float, q_accel: float):
    """State transition F and white-acceleration process noise Q for one
    predict step of the [x, y, vx, vy] state: on each axis, the blocks
    [[1, dt], [0, 1]] and q^2 [[dt^4/4, dt^3/2], [dt^3/2, dt^2]]."""
    d2 = dt * dt
    d3 = d2 * dt
    d4 = d3 * dt
    F = np.kron([[1.0, dt], [0.0, 1.0]], np.eye(2))
    Q = (q_accel * q_accel) * np.kron([[d4 / 4, d3 / 2], [d3 / 2, d2]], np.eye(2))
    return F, Q


def kalman_init(xy, cfg: TrackerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fresh estimates at (T, 2) detections: zero velocity, inflated
    velocity variance. Returns (T, 4) states and (T, 4, 4) covariances."""
    xy = np.asarray(xy, dtype=np.float64)
    check_shape("xy", xy, ("T", 2))
    r2, v2 = cfg.measurement_noise_pos**2, cfg.initial_velocity_std**2
    cov = np.diag([r2, r2, v2, v2])
    return np.hstack([xy, np.zeros_like(xy)]), np.repeat(cov[None], len(xy), axis=0)


def kalman_predict(states, covs, dt: float, q_accel: float) -> tuple[np.ndarray, np.ndarray]:
    """Advance (T, 4) states and (T, 4, 4) covariances by dt. dt = 0 is an
    exact no-op on the states."""
    check_shape("states", states, ("T", 4))
    check_shape("covs", covs, (len(states), 4, 4))
    if dt < 0:
        raise ValueError("dt must be non-negative")
    F, Q = transition_matrices(dt, q_accel)
    states = (F @ states[..., None])[..., 0]
    covs = F @ covs @ F.T + Q
    return states, (covs + covs.swapaxes(1, 2)) / 2.0


def kalman_update(states, covs, z_xy, r_pos: float) -> tuple[np.ndarray, np.ndarray]:
    """Fold one BEV position measurement per track, (T, 2) with noise std
    r_pos per axis, into (T, 4) states and (T, 4, 4) covariances."""
    check_shape("states", states, ("T", 4))
    check_shape("covs", covs, (len(states), 4, 4))
    z = np.asarray(z_xy, dtype=np.float64)
    check_shape("z_xy", z, (len(states), 2))
    H = np.eye(2, 4)
    R = np.eye(2) * (r_pos * r_pos)
    innovation = z - (H @ states[..., None])[..., 0]
    S = H @ covs @ H.T + R
    K = covs @ H.T @ np.linalg.inv(S)
    states = states + (K @ innovation[..., None])[..., 0]
    covs = (np.eye(4) - K @ H) @ covs
    return states, (covs + covs.swapaxes(1, 2)) / 2.0


def cost_matrix(track_xy: np.ndarray, det_xy: np.ndarray, gate: float) -> np.ndarray:
    """BEV centroid distances, entries beyond the gate set to GATE_SENTINEL."""
    t = np.asarray(track_xy, dtype=np.float64)
    d = np.asarray(det_xy, dtype=np.float64)
    check_shape("track_xy", t, ("N", 2))
    check_shape("det_xy", d, ("M", 2))
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


# One row of `Tracker.tracks`.
TRACK_ROW = np.dtype(
    [
        ("id", np.int64),
        ("state", np.float64, (4,)),
        ("cov", np.float64, (4, 4)),
        ("box", np.float64, (4,)),
        ("hits", np.int64),
        ("misses", np.int64),
    ]
)


class Tracker:
    """Multi-object tracker consuming city-frame detections frame by frame.

    `tracks` is the track table, one TRACK_ROW per live track, oldest first,
    so len(tracks) is the live count. A row's box is its latest matched
    detection's z, length, width and height. A step predicts and updates
    all rows at once, drops the deleted ones with one boolean filter and
    appends the births.

    Tentative and confirmed tracks associate identically; confirmation
    (hits >= hit_confirm_threshold; hits never goes down) only controls
    what step() returns. Records reflect the post-update state of this
    frame, so a confirmed track coasting through a missed frame still
    reports its predicted position. A track is dropped in the step that
    brings its consecutive misses to miss_delete_threshold.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks = np.zeros(0, TRACK_ROW)
        self._next_id = 0
        self._last_timestamp: Optional[float] = None

    def step(self, detections, timestamp: float, frame: int) -> list[TrackRecord]:
        """Advance one frame on its (D, 6) detection table (or list of rows);
        returns the records of the frame's confirmed tracks."""
        dets = np.asarray(detections, dtype=np.float64) if len(detections) else np.empty((0, 6))
        check_shape("detections", dets, ("D", 6))
        cfg = self.config
        if not np.isfinite(timestamp):
            raise ValueError(f"timestamp must be finite: {timestamp}")
        if self._last_timestamp is not None and timestamp <= self._last_timestamp:
            raise ValueError(
                f"timestamps must be strictly increasing: {timestamp} after {self._last_timestamp}"
            )
        dt = 0.0 if self._last_timestamp is None else timestamp - self._last_timestamp
        self._last_timestamp = timestamp

        t = self.tracks
        t["state"], t["cov"] = kalman_predict(t["state"], t["cov"], dt, cfg.process_noise_accel)
        det_xy, boxes = dets[:, :2], dets[:, 2:]
        assignment = hungarian(cost_matrix(t["state"][:, :2], det_xy, cfg.gate_distance))

        ti, di = np.array(assignment.matches, dtype=np.int64).reshape(-1, 2).T
        t["state"][ti], t["cov"][ti] = kalman_update(
            t["state"][ti], t["cov"][ti], det_xy[di], cfg.measurement_noise_pos
        )
        t["box"][ti] = boxes[di]
        t["hits"][ti] += 1
        t["misses"][ti] = 0
        t["misses"][assignment.unmatched_tracks] += 1

        new = assignment.unmatched_detections
        born = np.zeros(len(new), TRACK_ROW)
        born["id"] = self._next_id + np.arange(len(new))
        born["state"], born["cov"] = kalman_init(det_xy[new], cfg)
        born["box"] = boxes[new]
        born["hits"] = 1
        self._next_id += len(new)
        self.tracks = np.concatenate([t[t["misses"] < cfg.miss_delete_threshold], born])

        c = self.tracks[self.tracks["hits"] >= cfg.hit_confirm_threshold]
        rows = zip(c["id"].tolist(), c["state"].tolist(), c["box"].tolist())
        return [
            TrackRecord(frame, i, x, y, z, vx, vy, *dims) for i, (x, y, vx, vy), (z, *dims) in rows
        ]
