"""Reference implementations the package is tested against.

Nothing in the package calls these, so they live with the tests: a
linear-scan radius index (`BruteForceIndex`), a per-track tracker
(`ReferenceTracker`), a cluster-by-cluster detection table
(`reference_detections`), a sequence re-expressed for a motionless observer
(`bake_ego_motion`) and a yaw-only quaternion (`quat_from_yaw`).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from lidartrack._frozen import FrozenRecord
from lidartrack.dataset_io import Frame, PointCloud, Sequence, TrackRecord
from lidartrack.detection import _HEADINGS, BoxLimits
from lidartrack.geometry import RigidTransform, identity_transform, transform_points
from lidartrack.spatial_index import _check_radius, _finite_points
from lidartrack.tracking import GATE_SENTINEL, TrackerConfig, cost_matrix

# Pairs `BruteForceIndex.radius_pairs` tests in one block of rows; each of
# the test's (rows, points) temporaries takes 8 bytes a pair, 2 MiB here.
_SCAN_PAIRS = 2**18


def _within(cols, center, r: float) -> np.ndarray:
    """The inclusive distance test every index answers with.

    cols holds the points' x, y and z columns and center the centres' x, y
    and z as (B, 1) columns, which broadcast against them: the (B, N) mask's
    rows are bitwise the masks of one centre each.
    """
    dx, dy, dz = (p - c for p, c in zip(cols, center))
    # (dx*dx + dy*dy) + dz*dz, in place: a third faster on large blocks.
    dx *= dx
    dy *= dy
    dx += dy
    dz *= dz
    dx += dz
    return dx <= r * r


class BruteForceIndex(FrozenRecord):
    """Linear-scan radius search; the reference `KdTree` is tested against."""

    def __init__(self, points):
        self.points = _finite_points(points)

    def radius_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Every pair (i, j), i < j, of points within distance r of each
        other, as two int64 arrays sorted by i, then j.

        Each block of rows i is tested against the points after its first
        row with `_within`, so row i's pairs are those of the module's
        inclusive test from points[i] alone, bit for bit.
        """
        r = _check_radius(r)
        firsts, seconds = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        cols = self.points.T.copy()  # contiguous columns scan several times faster
        n = len(self.points)
        start = 0
        while start < n - 1:
            stop = min(n, start + max(1, _SCAN_PAIRS // (n - start)))
            hit = _within(cols[:, start + 1 :], cols[:, start:stop, None], r)
            i, j = np.nonzero(hit)
            i += start
            j += start + 1
            keep = j > i
            firsts.append(i[keep])
            seconds.append(j[keep])
            start = stop
        return np.concatenate(firsts), np.concatenate(seconds)

    def sweep_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`KdTree.sweep_pairs` over the identity order: the pairs of
        `radius_pairs` with their order 0..n-1."""
        i, j = self.radius_pairs(r)
        return np.arange(len(self.points)), i, j


class ReferenceTrack:
    """One track of `ReferenceTracker`: its own (4,) state and (4, 4)
    covariance, the latest matched detection row (cx, cy, cz, length, width,
    height) and two counters."""

    def __init__(self, track_id: int, det, cfg: TrackerConfig):
        r2 = cfg.measurement_noise_pos**2
        v2 = cfg.initial_velocity_std**2
        self.track_id = track_id
        self.x = np.array([det[0], det[1], 0.0, 0.0])
        self.P = np.diag([r2, r2, v2, v2])
        self.det = det
        self.hits = 1
        self.misses = 0

    def predict(self, F: np.ndarray, Q: np.ndarray) -> None:
        self.x = F @ self.x
        P = F @ self.P @ F.T + Q
        self.P = (P + P.T) / 2.0

    def update(self, det, r_pos: float) -> None:
        """The textbook gain form: K = P H^T S^-1, P' = (I - K H) P."""
        H = np.eye(2, 4)
        R = np.eye(2) * (r_pos * r_pos)
        innovation = np.asarray(det[:2], dtype=np.float64) - H @ self.x
        S = H @ self.P @ H.T + R
        K = self.P @ H.T @ np.linalg.inv(S)
        self.x = self.x + K @ innovation
        P = (np.eye(4) - K @ H) @ self.P
        self.P = (P + P.T) / 2.0
        self.det = det
        self.hits += 1
        self.misses = 0

    def record(self, frame: int) -> TrackRecord:
        x, y, vx, vy = (float(v) for v in self.x)
        z, length, width, height = (float(v) for v in self.det[2:])
        return TrackRecord(frame, self.track_id, x, y, z, vx, vy, length, width, height)


class ReferenceTracker:
    """`Tracker.step` one track at a time, over a plain list of tracks.

    Association is scipy's `linear_sum_assignment` on the package's gated
    `cost_matrix`, with pairs at GATE_SENTINEL left unmatched. Everything
    else, the filter and the births, misses and deletions, is written out
    per track here.
    """

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[ReferenceTrack] = []
        self.next_id = 0
        self.last_timestamp = None

    def step(self, detections, timestamp: float, frame: int) -> list[TrackRecord]:
        cfg = self.cfg
        dt = 0.0 if self.last_timestamp is None else timestamp - self.last_timestamp
        self.last_timestamp = timestamp
        F = np.eye(4)
        F[0, 2] = dt
        F[1, 3] = dt
        d2 = dt * dt
        d3 = d2 * dt
        d4 = d3 * dt
        q = cfg.process_noise_accel
        Q = (q * q) * np.array(
            [
                [d4 / 4, 0, d3 / 2, 0],
                [0, d4 / 4, 0, d3 / 2],
                [d3 / 2, 0, d2, 0],
                [0, d3 / 2, 0, d2],
            ]
        )
        for tr in self.tracks:
            tr.predict(F, Q)

        track_xy = np.array([tr.x[:2] for tr in self.tracks]).reshape(-1, 2)
        det_xy = np.array([d[:2] for d in detections]).reshape(-1, 2)
        cost = cost_matrix(track_xy, det_xy, cfg.gate_distance)
        rows, cols = linear_sum_assignment(cost)
        matched_tracks, matched_dets = set(), set()
        for i, j in zip(rows.tolist(), cols.tolist()):
            if cost[i, j] < GATE_SENTINEL:
                self.tracks[i].update(detections[j], cfg.measurement_noise_pos)
                matched_tracks.add(i)
                matched_dets.add(j)

        for i, tr in enumerate(self.tracks):
            if i not in matched_tracks:
                tr.misses += 1
        self.tracks = [tr for tr in self.tracks if tr.misses < cfg.miss_delete_threshold]
        for j, det in enumerate(detections):
            if j not in matched_dets:
                self.tracks.append(ReferenceTrack(self.next_id, det, cfg))
                self.next_id += 1
        return [tr.record(frame) for tr in self.tracks if tr.hits >= cfg.hit_confirm_threshold]


def reference_detections(clusters, pose: RigidTransform, limits: BoxLimits) -> np.ndarray:
    """The detection table of ego-frame clusters, built one cluster at a
    time: fit the box from the per-axis extremes, keep it if it is car-sized
    as fitted or along some heading k in 1..89°, move its center to the city
    frame as a (1, 3) row, and sort the kept boxes with Python's sort on
    (cx, cy). Returns the (D, 6) rows (cx, cy, cz, length, width, height)."""

    def car_sized(a, b, height) -> bool:
        return bool(
            limits.min_length <= max(a, b) <= limits.max_length
            and limits.min_width <= min(a, b) <= limits.max_width
            and limits.min_height <= height <= limits.max_height
            and limits.min_area <= a * b <= limits.max_area
        )

    kept = []
    for cluster in clusters:
        lo, hi = cluster.min(axis=0), cluster.max(axis=0)
        length, width, height = (float(v) for v in hi - lo)
        along = cluster[:, :2] @ _HEADINGS
        extents = (along.max(axis=0) - along.min(axis=0)).tolist()
        turned = (car_sized(extents[k], extents[k + 90], height) for k in range(1, 90))
        if car_sized(length, width, height) or any(turned):
            cx, cy, cz = transform_points(pose, ((lo + hi) / 2.0)[None])[0].tolist()
            kept.append((cx, cy, cz, length, width, height))
    kept.sort(key=lambda row: (row[0], row[1]))
    return np.array(kept, dtype=np.float64).reshape(-1, 6)


def bake_ego_motion(seq: Sequence) -> Sequence:
    """Rewrite a sequence as seen by a motionless observer at the city origin.

    Each cloud is transformed by its ego pose and the poses are replaced
    with the identity. Tracking output in the city frame must not care
    which of the two representations it was fed.
    """
    frames = []
    for fr in seq.frames:
        city_pts = transform_points(fr.ego_pose, fr.cloud.points)
        frames.append(
            Frame(
                index=fr.index,
                timestamp=fr.timestamp,
                cloud=PointCloud(city_pts),
                ego_pose=identity_transform(),
                masks=fr.masks,
            )
        )
    return Sequence(frames=frames, cameras=seq.cameras, drivable=seq.drivable)


def quat_from_yaw(yaw: float) -> np.ndarray:
    """Quaternion for a rotation of `yaw` radians about +z."""
    return np.array([np.cos(yaw / 2.0), 0.0, 0.0, np.sin(yaw / 2.0)])
