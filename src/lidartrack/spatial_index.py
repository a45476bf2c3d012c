"""Exact radius search over a fixed point set, in numpy alone.

"Within r" always means the documented test ``(dx*dx + dy*dy) + dz*dz <= r*r``
on float64 coordinate differences, summed in that order (the order of
``(d * d).sum(axis=1)``), with the boundary inclusive.

`KdTree.sweep_pairs`, the all-pairs search DBSCAN asks for once per frame,
is a sorted-cell sweep. Points are bucketed into rows of (y, z) cells whose
side is at least a candidate radius h slightly above r, and sorted by row,
then x: the sweep order. Each point looks in its own row and the four
forward neighbour rows for the x-window [x - h, x + h], found by binary
search. The windows are expanded into candidate pairs and re-checked with
the test above a block of at most _BLOCK candidates at a time, so the
expansion's temporaries keep one size however many candidates there are.
The candidates are a superset of the pairs within r, each unordered pair
proposed at most once, so the result does not depend on how cells and
windows round. The pairs come back as sweep positions a < b with the
sweep order, which maps them to point indices. The index is rebuilt per
frame (clouds change completely between sweeps, so incremental updates
buy nothing).

`BruteForceIndex`, the oracle `KdTree` is tested against, answers the same
pair question by testing every pair, a block of rows at a time, with
`_within`. Its sweep order is the identity.
"""

from __future__ import annotations

import numpy as np

from ._frozen import frozen

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

# Candidates `KdTree.sweep_pairs` expands and re-checks at once. Its
# temporaries, 8 bytes a candidate, then stay small (64 KiB here), below
# the size at which the allocator maps fresh pages for each array and
# hands them back on free.
_BLOCK = 8192

# Pairs `BruteForceIndex.radius_pairs` tests in one block of rows; each of
# the test's (rows, points) temporaries takes 8 bytes a pair, 2 MiB here.
_SCAN_PAIRS = 2**18


def _finite_points(points) -> np.ndarray:
    """The index's own frozen copy of its points, which must be finite."""
    pts = frozen("points", points, np.float64, ("N", 3))
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _check_radius(r: float) -> float:
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    return float(r)


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


def _candidate_radius(r: float) -> float:
    return r * (1.0 + _REL_SLACK) + _ABS_SLACK


def _cells(v: np.ndarray, h: float) -> np.ndarray:
    """Cell number, 0.._MAX_CELLS, of each coordinate on one axis."""
    lo = v.min()
    side = max(h * (1.0 + _CELL_MARGIN), (v.max() - lo) / _MAX_CELLS)
    if not np.isfinite(side):  # the span or h overflowed: one cell
        return np.zeros(len(v), dtype=np.int64)
    return np.floor((v - lo) / side).astype(np.int64)


def _cell_windows(cols: np.ndarray, h: float):
    """Candidate windows for radius h, as positions in the returned sort order.

    Returns (order, src, lo, hi): `order` sorts the points by (y, z) cell
    row, then x, and the pairs (order[src[w]], order[k]) for lo[w] <= k <
    hi[w], over every window w, run over every pair of points within h on
    each axis, plus some farther ones, each unordered pair once. Every
    window lies after its source point: src[w] < lo[w].
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

    # Own row: only the points after this one, so each pair comes once. The
    # forward rows have larger keys, so they lie after the point too.
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
    return order, *(np.concatenate(a) for a in (srcs, los, his))


def _sweep_pairs(points: np.ndarray, r: float):
    """(order, a, b): the pairs within r as sweep positions a < b.

    The windows of `_cell_windows`, laid end to end, number the candidates;
    they are expanded and re-checked a block of at most _BLOCK candidates
    at a time, a window larger than a block spread over several.
    """
    order, src, lo, hi = _cell_windows(points.T, _candidate_radius(r))
    x, y, z = points[order].T.copy()  # contiguous, in sweep order
    # Window w holds candidates starts[w]..ends[w]-1, and candidate k of it
    # pairs src[w] with k - shift[w]. Worked out in place, so that fewer
    # arrays stay alive through the blocks: hi becomes the window sizes,
    # then starts, and lo becomes shift.
    sizes = np.maximum(np.subtract(hi, lo, out=hi), 0, out=hi)
    ends = np.cumsum(sizes)
    starts = np.subtract(ends, sizes, out=hi)
    shift = np.subtract(starts, lo, out=lo)
    total = int(ends[-1])
    steps = np.arange(min(total, _BLOCK))

    # A function, so that one block's temporaries are freed before the next
    # block allocates its own.
    def block(s: int, e: int):
        # The windows holding candidates s..e-1, each cut to that range.
        w = slice(np.searchsorted(ends, s, "right"), np.searchsorted(ends, e - 1, "right") + 1)
        cut = np.minimum(ends[w], e) - np.maximum(starts[w], s)
        a = np.repeat(src[w], cut)
        b = np.repeat(shift[w] - s, cut)
        np.subtract(steps[: e - s], b, out=b)
        # Same sum order as _within, (dx*dx + dy*dy) + dz*dz, in place.
        d2 = x[b]
        d2 -= x[a]
        d2 *= d2
        for c in (y, z):
            d = c[b]
            d -= c[a]
            d *= d
            d2 += d
        keep = np.flatnonzero(d2 <= r * r)
        return a[keep], b[keep]

    firsts, seconds = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for s in range(0, total, _BLOCK):
        a, b = block(s, min(s + _BLOCK, total))
        firsts.append(a)
        seconds.append(b)
    return order, np.concatenate(firsts), np.concatenate(seconds)


class KdTree:
    """Exact radius search over (N, 3) points by a sorted-cell sweep.

    There is no tree any more; the name and the `KdTree(points)` signature
    stay because callers bind them: the detection stage and the benchmark's
    tracer, which wraps `detection.KdTree` and reads its `points` argument.
    """

    def __init__(self, points):
        self.points = _finite_points(points)

    def sweep_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, a, b): every pair of points within distance r, as
        positions a < b in the sweep order `order` (int64 arrays).

        The pair's points are points[order[a]] and points[order[b]], and the
        test is the module's inclusive one on their difference. Pairs come
        in no particular order.
        """
        r = _check_radius(r)
        if len(self.points) == 0:
            return tuple(np.empty(0, dtype=np.int64) for _ in range(3))
        return _sweep_pairs(self.points, r)


class BruteForceIndex:
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
