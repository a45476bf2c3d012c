"""Radius search: the pairs of `KdTree.sweep_pairs`, mapped through its
order, checked pair for pair against a linear scan from each point, and the
`BruteForceIndex` oracle against the same scan row by row."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack import spatial_index
from lidartrack.spatial_index import BruteForceIndex, KdTree


def linear_scan(points, center, radius):
    """Reference: squared euclidean distance, inclusive boundary."""
    d = points - np.asarray(center, dtype=np.float64)
    d2 = d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2
    return np.nonzero(d2 <= radius * radius)[0].astype(np.int64)


def sorted_pairs(index, r):
    """The index's pairs as point indices (i, j), i < j, in sorted order."""
    order, a, b = index.sweep_pairs(r)
    assert order.dtype == a.dtype == b.dtype == np.int64
    i, j = order[a], order[b]
    return sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))


def scan_pairs(pts, r):
    """Every pair (i, j), i < j, within r: the linear scan from each point."""
    return [(i, j) for i in range(len(pts)) for j in linear_scan(pts, pts[i], r) if j > i]


def test_radius_query_randomized_exact():
    rng = np.random.default_rng(100)
    for trial in range(60):
        n = int(rng.integers(1, 400))
        pts = rng.uniform(-20, 20, size=(n, 3))
        radius = float(rng.uniform(0.1, 12.0))
        assert sorted_pairs(KdTree(pts), radius) == scan_pairs(pts, radius), f"trial {trial} (n={n})"


def test_brute_force_index_matches_linear_scan():
    rng = np.random.default_rng(105)
    pts = rng.uniform(-10, 10, size=(150, 3))
    idx = BruteForceIndex(pts)
    for _ in range(30):
        radius = float(rng.uniform(0.5, 8.0))
        i, j = idx.radius_pairs(radius)
        assert list(zip(i.tolist(), j.tolist())) == scan_pairs(pts, radius)


def test_boundary_point_included():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    # Distance exactly equal to the radius counts as inside.
    for index in (KdTree(pts), BruteForceIndex(pts)):
        assert sorted_pairs(index, 1.0) == [(0, 1), (1, 2)]


def test_duplicate_points_all_returned():
    pts = np.zeros((7, 3))
    every_pair = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    for index in (KdTree(pts), BruteForceIndex(pts)):
        assert sorted_pairs(index, 0.5) == every_pair
        assert sorted_pairs(index, 0.0) == every_pair


def test_empty_result():
    # A unit lattice has no two points closer than 1.
    pts = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), axis=-1).reshape(-1, 3)
    for index in (KdTree(pts), BruteForceIndex(pts)):
        assert sorted_pairs(index, 0.99) == []


def test_single_point_tree():
    tree = KdTree(np.array([[1.0, 2.0, 3.0]]))
    assert len(tree.points) == 1
    assert sorted_pairs(tree, 0.0) == []
    assert sorted_pairs(tree, 10.0) == []


def test_points_are_read_only():
    pts = np.random.default_rng(106).uniform(0, 1, size=(10, 3))
    for index in (KdTree(pts), BruteForceIndex(pts)):
        with pytest.raises(ValueError):
            index.points[0, 0] = 99.0


def test_mutating_input_after_build_does_not_affect_tree():
    rng = np.random.default_rng(107)
    pts = rng.uniform(0, 1, size=(100, 3))
    tree = KdTree(pts)
    before = sorted_pairs(tree, 0.3)
    pts[:] = 1000.0
    assert sorted_pairs(tree, 0.3) == before


def test_empty_tree_allowed():
    tree = KdTree(np.zeros((0, 3)))
    assert len(tree.points) == 0
    assert sorted_pairs(tree, 5.0) == []


def test_input_validation():
    with pytest.raises(ValueError):
        KdTree(np.zeros((5, 2)))
    bad = np.zeros((4, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        KdTree(bad)


def test_query_validation():
    for index in (KdTree(np.zeros((3, 3))), BruteForceIndex(np.zeros((3, 3)))):
        for r in (-1.0, np.nan):
            with pytest.raises(ValueError):
                index.sweep_pairs(r)


# --- generated inputs -----------------------------------------------------

SPACINGS = (0.1, 0.25, 0.5, 0.7, 1.0)
SHIFTS = (-1e5, 0.0, 1e5)
TINY_RADII = (0.0, 1e-300, 1e-12, 1e-6)


@st.composite
def cloud_and_radius(draw):
    """Points on a lattice (exact and near-exact ties at r) or anywhere, with
    some points repeated; r is a multiple of the lattice spacing or falls
    just short of it, so lattice neighbors sit a hair outside r.

    The cloud is then used as drawn, shifted far from the origin, squashed
    onto a line or a plane (many equal coordinates), or spread over +-1e5
    with copies a tiny r apart, so the search meets far more cells per axis
    than it may number and squares that underflow."""
    spacing = draw(st.sampled_from(SPACINGS))
    coord = st.integers(-3, 3).map(lambda k: k * spacing) | st.floats(-2.0, 2.0)
    pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=60))
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=10))
    pts = np.array(pts + [pts[k] for k in repeats], dtype=np.float64)
    r = spacing * draw(st.sampled_from((0.0, 0.5, 1.0, 1.0 - 1e-12, np.sqrt(2.0), 2.0, 3.0)))
    layout = draw(st.sampled_from(("as drawn", "shifted", "line", "plane", "wide")))
    if layout == "shifted":
        pts += np.array(draw(st.tuples(*[st.sampled_from(SHIFTS)] * 3)))
    elif layout in ("line", "plane"):
        flat = draw(st.permutations(range(3)))[: 2 if layout == "line" else 1]
        pts[:, flat] = 0.0
    elif layout == "wide":
        r = draw(st.sampled_from(TINY_RADII))
        pts *= 1e5 / (3.0 * spacing)
        # Pairs a fraction of r either side of it (a subnormal distance when
        # r is 0, where the test passes because the square underflows), on
        # an axis zeroed so the offset is not absorbed by a 1e5 coordinate.
        step = max(r, 1e-300)
        scales = st.sampled_from((0.5, 1.0, 1.5))
        pick = st.tuples(st.integers(0, len(pts) - 1), st.integers(0, 2), scales)
        for k, axis, scale in draw(st.lists(pick, max_size=5)):
            base = pts[k].copy()
            base[axis] = 0.0
            pts = np.vstack([pts, base, base + scale * step * np.eye(3)[axis]])
    return pts, float(r)


@pytest.mark.filterwarnings("error")  # an overflowing cell key warns on its cast
@settings(max_examples=200, derandomize=True, deadline=None)
@given(cloud_and_radius())
def test_radius_pairs_match_linear_scan_generated(case):
    pts, r = case
    assert sorted_pairs(KdTree(pts), r) == scan_pairs(pts, r)


def per_row_pairs(index, r):
    """Reference for `BruteForceIndex.radius_pairs`: one linear scan per
    point, keeping the neighbours after it."""
    firsts, seconds = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, p in enumerate(index.points):
        nbrs = linear_scan(index.points, p, r)
        nbrs = nbrs[nbrs > i]
        firsts.append(np.full(nbrs.size, i, dtype=np.int64))
        seconds.append(nbrs)
    return np.concatenate(firsts), np.concatenate(seconds)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cloud_and_radius(), st.sampled_from((1, 7, 64, spatial_index._SCAN_PAIRS)))
def test_brute_radius_pairs_match_per_row_scan_generated(case, block_pairs):
    """The block scan gives the per-row linear scan's pairs, in its order,
    for blocks of one row up to the whole cloud. Centres on the cloud's own
    points put neighbours at exactly r."""
    pts, r = case
    index = BruteForceIndex(pts)
    old = spatial_index._SCAN_PAIRS
    spatial_index._SCAN_PAIRS = block_pairs
    try:
        got = index.radius_pairs(r)
    finally:
        spatial_index._SCAN_PAIRS = old
    want = per_row_pairs(index, r)
    assert all(a.dtype == np.int64 for a in got)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, derandomize=True, deadline=None)
@given(cloud_and_radius(), st.sampled_from((1, 7, 64)))
def test_sweep_pairs_in_blocks_generated(case, block):
    """Blocks of any size give the pairs of the default block, in its order,
    as sweep positions a < b that map back to the linear scan's pairs."""
    pts, r = case
    index = KdTree(pts)
    whole = index.sweep_pairs(r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial_index, "_BLOCK", block)
        order, a, b = index.sweep_pairs(r)
    assert all(v.dtype == np.int64 for v in (order, a, b))
    assert all(np.array_equal(u, v) for u, v in zip((order, a, b), whole))
    assert np.array_equal(np.sort(order), np.arange(len(pts)))
    assert np.all(a < b)
    mapped = sorted(zip(np.minimum(order[a], order[b]).tolist(), np.maximum(order[a], order[b]).tolist()))
    assert mapped == scan_pairs(pts, r)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_a_window_larger_than_a_block_is_split(block, monkeypatch):
    # 150 points 0.01 apart on one x line: a point's own-row window holds
    # the next 70 or so, more than any block here.
    pts = np.zeros((150, 3))
    pts[:, 0] = 0.01 * np.arange(150)[::-1]
    _, _, lo, hi = spatial_index._cell_windows(pts.T, 0.7)
    assert (hi - lo).max() > block
    want = scan_pairs(pts, 0.7)
    monkeypatch.setattr(spatial_index, "_BLOCK", block)
    assert sorted_pairs(KdTree(pts), 0.7) == want


def test_brute_force_sweep_order_is_the_identity():
    rng = np.random.default_rng(106)
    pts = rng.uniform(0, 4, size=(60, 3))
    index = BruteForceIndex(pts)
    order, a, b = index.sweep_pairs(1.0)
    assert np.array_equal(order, np.arange(60))
    assert all(np.array_equal(u, v) for u, v in zip((a, b), index.radius_pairs(1.0)))
    assert [v.shape for v in KdTree(np.zeros((0, 3))).sweep_pairs(1.0)] == [(0,)] * 3
