"""Spatial indexes for radius queries over a fixed point set.

The KD-tree is rebuilt per frame (clouds change completely between sweeps,
so incremental updates buy nothing). Queries are exact: a point at distance
exactly r from the query center is included. "Within r" always means the
documented test ``(d * d).sum(axis=1) <= r * r`` on float64 coordinate
differences; the tree only proposes candidates at a slightly larger radius
and every candidate is re-checked with that test, so results do not depend
on how the tree rounds its own distances.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

DEFAULT_LEAF_SIZE = 16

# Candidate radius r * (1 + _REL_SLACK) + _ABS_SLACK. The relative part is far
# wider than the few ulps by which two distance formulas can disagree; the
# absolute part covers squares that underflow to zero near r = 0.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-150

# Pairs re-checked per block; bounds the float temporaries of radius_pairs.
_PAIR_BLOCK = 1 << 16


def _check_points(points) -> np.ndarray:
    # Always copy: the index must not alias caller memory (later mutation of
    # the input would silently corrupt queries) and the copy is what gets
    # frozen read-only.
    pts = np.array(points, dtype=np.float64, order="C", copy=True)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _check_radius(r: float) -> float:
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    return float(r)


def _check_center(center) -> np.ndarray:
    c = np.asarray(center, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(c)):
        raise ValueError("query center must be finite")
    return c


def _within(points: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
    """The inclusive distance test every index answers with."""
    d = points - center
    return (d * d).sum(axis=1) <= r * r


def _candidate_radius(r: float) -> float:
    return r * (1.0 + _REL_SLACK) + _ABS_SLACK


class KdTree:
    """Exact radius queries over (N, 3) points, backed by scipy's cKDTree."""

    def __init__(self, points, leaf_size: int = DEFAULT_LEAF_SIZE):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.points = _check_points(points)
        self.points.flags.writeable = False
        self.leaf_size = int(leaf_size)
        self._tree = cKDTree(self.points, leafsize=self.leaf_size)

    @property
    def n(self) -> int:
        return len(self.points)

    def radius_query(self, center, r: float) -> np.ndarray:
        """Ascending int64 indices of every point within distance r (inclusive)."""
        r = _check_radius(r)
        c = _check_center(center)
        cand = np.array(
            self._tree.query_ball_point(c, _candidate_radius(r), return_sorted=True),
            dtype=np.int64,
        )
        return cand[_within(self.points[cand], c, r)]

    def radius_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Every pair (i, j), i < j, of points within distance r of each other.

        Returns two int64 arrays in no particular order. The test is the one
        `radius_query` uses: for i != j, j is in radius_query(points[i], r)
        exactly when (min(i, j), max(i, j)) is a pair here.
        """
        r = _check_radius(r)
        cand = self._tree.query_pairs(_candidate_radius(r), output_type="ndarray")
        cols = self.points.T.copy()  # contiguous x, y, z for the gathers below
        keep = np.empty(len(cand), dtype=bool)
        r2 = r * r
        for s in range(0, len(cand), _PAIR_BLOCK):
            i = cand[s : s + _PAIR_BLOCK, 0]
            j = cand[s : s + _PAIR_BLOCK, 1]
            # Same sum order as _within: (dx*dx + dy*dy) + dz*dz.
            d = cols[0, j] - cols[0, i]
            d2 = d * d
            for axis in (1, 2):
                d = cols[axis, j] - cols[axis, i]
                d2 += d * d
            keep[s : s + _PAIR_BLOCK] = d2 <= r2
        cand = cand[keep].astype(np.int64, copy=False)
        return cand[:, 0], cand[:, 1]


class BruteForceIndex:
    """Linear-scan radius queries; the baseline the KD-tree is measured against."""

    def __init__(self, points):
        self.points = _check_points(points)
        self.points.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.points)

    def radius_query(self, center, r: float) -> np.ndarray:
        r = _check_radius(r)
        c = _check_center(center)
        return np.flatnonzero(_within(self.points, c, r)).astype(np.int64)

    def radius_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Same contract as `KdTree.radius_pairs`, by one linear scan per point."""
        firsts, seconds = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for i, p in enumerate(self.points):
            nbrs = self.radius_query(p, r)
            nbrs = nbrs[nbrs > i]
            firsts.append(np.full(nbrs.size, i, dtype=np.int64))
            seconds.append(nbrs)
        return np.concatenate(firsts), np.concatenate(seconds)
