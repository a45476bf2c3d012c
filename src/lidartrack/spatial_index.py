"""Exact radius search over a fixed point set, in numpy alone.

"Within r" always means the documented test ``(d * d).sum(axis=1) <= r * r``
on float64 coordinate differences, with the boundary inclusive.

`KdTree.radius_pairs`, the all-pairs search DBSCAN asks for once per frame,
is a sorted-cell sweep. Points are bucketed into rows of (y, z) cells whose
side is at least a candidate radius h slightly above r, and sorted by row,
then x. Each point looks in its own row and the four forward neighbour rows
for the x-window [x - h, x + h], found by binary search; the windows are
expanded into candidate pairs and every candidate is re-checked with the
test above. The candidates are a superset of the pairs within r, each
unordered pair proposed at most once, so the result does not depend on how
cells and windows round. The index is rebuilt per frame (clouds change
completely between sweeps, so incremental updates buy nothing).

Single-centre queries (`radius_query`) are a linear scan with the same test;
only tests and the brute-force oracle ask for them.
"""

from __future__ import annotations

import numpy as np

# Candidate radius r * (1 + _REL_SLACK) + _ABS_SLACK. The relative part is far
# wider than the few ulps by which two distance formulas can disagree; the
# absolute part covers squares that underflow to zero near r = 0, where the
# test passes for points a subnormal distance apart, not just duplicates.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-150

# A cell side is at least h * (1 + _CELL_MARGIN) and at least the axis span
# over _MAX_CELLS. With at most 2**30 cells per axis, rounding moves a
# coordinate's cell quotient by under 3e-7, so two points within h in y (or
# z) always land in the same or adjacent cells, and cell numbers fit the row
# key below (y cell * 2**31 + z cell) with room to spare.
_CELL_MARGIN = 1e-6
_MAX_CELLS = 2**30
_ROW_STRIDE = 2**31

# Row-key offsets of the rows a point searches: its own, then the forward
# neighbours (y, z + 1), (y + 1, z - 1), (y + 1, z) and (y + 1, z + 1). The
# other four neighbours find the point from their side.
_FORWARD_ROWS = (1, _ROW_STRIDE - 1, _ROW_STRIDE, _ROW_STRIDE + 1)


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


def _cells(v: np.ndarray, h: float) -> np.ndarray:
    """Cell number, 0.._MAX_CELLS, of each coordinate on one axis."""
    lo = v.min()
    side = max(h * (1.0 + _CELL_MARGIN), (v.max() - lo) / _MAX_CELLS)
    if not np.isfinite(side):  # the span or h overflowed: one cell
        return np.zeros(len(v), dtype=np.int64)
    return np.floor((v - lo) / side).astype(np.int64)


def _cell_candidates(cols: np.ndarray, h: float):
    """Candidate pairs for radius h, as positions in the returned sort order.

    Returns (order, first, second): `order` sorts the points by (y, z) cell
    row, then x, and (order[first], order[second]) runs over every pair of
    points within h on each axis, plus some farther ones, each unordered
    pair once.
    """
    x, y, z = cols
    n = len(x)
    by_x = np.argsort(x)
    x_rank = np.empty(n, dtype=np.int64)
    x_rank[by_x] = np.arange(n)
    row_key = _cells(y, h) * _ROW_STRIDE + _cells(z, h)
    order = by_x[np.argsort(row_key[by_x], kind="stable")]
    row_key = row_key[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(row_key[1:], row_key[:-1], out=starts[1:])
    row = np.cumsum(starts) - 1  # row rank of each sorted point
    rows = row_key[starts]

    # One increasing integer key over the sort order: row rank times (n + 1)
    # plus the point's position in x order. An x-window [x - h, x + h] in row
    # R is then the key range R * (n + 1) + [#(x < x - h), #(x <= x + h)).
    width = n + 1
    key = row * width + x_rank[order]
    x_sorted = x[by_x]
    xo = x[order]
    lo_rank = np.searchsorted(x_sorted, xo - h, "left")
    hi_rank = np.searchsorted(x_sorted, xo + h, "right")

    # Own row: only the points after this one, so each pair comes once.
    srcs = [np.arange(n)]
    los = [srcs[0] + 1]
    his = [np.searchsorted(key, row * width + hi_rank)]
    for offset in _FORWARD_ROWS:
        target = rows + offset
        at = np.minimum(np.searchsorted(rows, target), len(rows) - 1)
        # Neighbour row rank of each point's row, or -1 if that row is empty.
        nb = np.where(rows[at] == target, at, -1)[row]
        src = np.flatnonzero(nb >= 0)
        base = nb[src] * width
        srcs.append(src)
        los.append(np.searchsorted(key, base + lo_rank[src]))
        his.append(np.searchsorted(key, base + hi_rank[src]))

    lo, hi, src = (np.concatenate(a) for a in (los, his, srcs))
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    second = np.arange(ends[-1]) - np.repeat(ends - counts - lo, counts)
    return order, np.repeat(src, counts), second


class _LinearScan:
    """Points, their count and single-centre queries, by one linear scan."""

    def __init__(self, points):
        self.points = _check_points(points)
        self.points.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.points)

    def radius_query(self, center, r: float) -> np.ndarray:
        """Ascending int64 indices of every point within distance r (inclusive)."""
        r = _check_radius(r)
        c = _check_center(center)
        return np.flatnonzero(_within(self.points, c, r)).astype(np.int64)


class KdTree(_LinearScan):
    """Exact radius search over (N, 3) points by a sorted-cell sweep.

    There is no tree any more; the name and the `KdTree(points)` signature
    stay because callers bind them: the detection stage and the benchmark's
    tracer, which wraps `detection.KdTree` and reads its `points` argument.
    """

    def radius_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Every pair (i, j), i < j, of points within distance r of each other.

        Returns two int64 arrays in no particular order. The test is the one
        `radius_query` uses: for i != j, j is in radius_query(points[i], r)
        exactly when (min(i, j), max(i, j)) is a pair here.
        """
        r = _check_radius(r)
        if self.n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        order, a, b = _cell_candidates(self.points.T, _candidate_radius(r))
        x, y, z = self.points[order].T.copy()  # contiguous, in sweep order
        # Same sum order as _within: (dx*dx + dy*dy) + dz*dz.
        d = x[b] - x[a]
        d2 = d * d
        d = y[b] - y[a]
        d2 += d * d
        d = z[b] - z[a]
        d2 += d * d
        keep = np.flatnonzero(d2 <= r * r)
        a, b = order[a[keep]], order[b[keep]]
        return np.minimum(a, b), np.maximum(a, b)


class BruteForceIndex(_LinearScan):
    """Linear-scan radius search; the reference `KdTree` is tested against."""

    def radius_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Same contract as `KdTree.radius_pairs`, by one linear scan per point."""
        firsts, seconds = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for i, p in enumerate(self.points):
            nbrs = self.radius_query(p, r)
            nbrs = nbrs[nbrs > i]
            firsts.append(np.full(nbrs.size, i, dtype=np.int64))
            seconds.append(nbrs)
        return np.concatenate(firsts), np.concatenate(seconds)
