"""KD-tree radius queries checked point for point against a linear scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.spatial_index import BruteForceIndex, KdTree


def linear_scan(points, center, radius):
    """Reference: squared euclidean distance, inclusive boundary."""
    d = points - np.asarray(center, dtype=np.float64)
    d2 = d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2
    return np.nonzero(d2 <= radius * radius)[0].astype(np.int64)


def test_radius_query_randomized_exact():
    rng = np.random.default_rng(100)
    for trial in range(60):
        n = int(rng.integers(1, 400))
        pts = rng.uniform(-20, 20, size=(n, 3))
        tree = KdTree(pts)
        for _ in range(5):
            center = rng.uniform(-22, 22, size=3)
            radius = float(rng.uniform(0.1, 12.0))
            got = tree.radius_query(center, radius)
            want = linear_scan(pts, center, radius)
            assert np.array_equal(got, want), (
                f"trial {trial}: KD-tree disagrees with linear scan "
                f"(n={n}, r={radius:.3f})"
            )


def test_radius_query_results_sorted():
    rng = np.random.default_rng(101)
    pts = rng.uniform(0, 10, size=(200, 3))
    tree = KdTree(pts)
    idx = tree.radius_query(pts[17], 3.0)
    assert np.array_equal(idx, np.sort(idx))


def test_boundary_point_included():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    tree = KdTree(pts)
    # Distance exactly equal to the radius counts as inside.
    assert np.array_equal(tree.radius_query([0.0, 0.0, 0.0], 1.0), [0, 1])


def test_duplicate_points_all_returned():
    pts = np.zeros((7, 3))
    tree = KdTree(pts)
    assert np.array_equal(tree.radius_query([0, 0, 0], 0.5), np.arange(7))


def test_empty_result():
    rng = np.random.default_rng(102)
    pts = rng.uniform(0, 1, size=(50, 3))
    tree = KdTree(pts)
    out = tree.radius_query([100.0, 100.0, 100.0], 1.0)
    assert out.shape == (0,)
    assert out.dtype == np.int64


def test_single_point_tree():
    tree = KdTree(np.array([[1.0, 2.0, 3.0]]))
    assert np.array_equal(tree.radius_query([1.0, 2.0, 3.0], 0.0), [0])
    assert tree.radius_query([5.0, 5.0, 5.0], 1.0).shape == (0,)


def test_leaf_size_does_not_change_results():
    rng = np.random.default_rng(103)
    pts = rng.uniform(-5, 5, size=(300, 3))
    queries = [(rng.uniform(-5, 5, size=3), float(rng.uniform(0.5, 4.0))) for _ in range(20)]
    trees = [KdTree(pts, leaf_size=ls) for ls in (1, 2, 16, 64, 500)]
    for center, radius in queries:
        ref = trees[0].radius_query(center, radius)
        for tree in trees[1:]:
            assert np.array_equal(tree.radius_query(center, radius), ref)


def test_brute_force_index_matches_linear_scan():
    rng = np.random.default_rng(105)
    pts = rng.uniform(-10, 10, size=(150, 3))
    idx = BruteForceIndex(pts)
    for _ in range(30):
        center = rng.uniform(-10, 10, size=3)
        radius = float(rng.uniform(0.5, 8.0))
        assert np.array_equal(idx.radius_query(center, radius), linear_scan(pts, center, radius))


def test_points_are_read_only():
    pts = np.random.default_rng(106).uniform(0, 1, size=(10, 3))
    tree = KdTree(pts)
    with pytest.raises(ValueError):
        tree.points[0, 0] = 99.0


def test_mutating_input_after_build_does_not_affect_tree():
    rng = np.random.default_rng(107)
    pts = rng.uniform(0, 1, size=(100, 3))
    tree = KdTree(pts)
    before = tree.radius_query([0.5, 0.5, 0.5], 0.3)
    pts[:] = 1000.0
    assert np.array_equal(tree.radius_query([0.5, 0.5, 0.5], 0.3), before)


def test_empty_tree_allowed():
    tree = KdTree(np.zeros((0, 3)))
    assert tree.n == 0
    out = tree.radius_query([0.0, 0.0, 0.0], 5.0)
    assert out.shape == (0,) and out.dtype == np.int64


def test_input_validation():
    with pytest.raises(ValueError):
        KdTree(np.zeros((5, 2)))
    bad = np.zeros((4, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        KdTree(bad)
    with pytest.raises(ValueError):
        KdTree(np.zeros((5, 3)), leaf_size=0)


def test_query_validation():
    tree = KdTree(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        tree.radius_query([0.0, 0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        tree.radius_query([0.0, 0.0], 1.0)
    for index in (tree, BruteForceIndex(np.zeros((3, 3)))):
        with pytest.raises(ValueError):
            index.radius_query([np.nan, 0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            index.radius_query([0.0, 0.0, 0.0], np.nan)



# --- generated inputs -----------------------------------------------------

SPACINGS = (0.1, 0.25, 0.5, 0.7, 1.0)


@st.composite
def cloud_and_radius(draw):
    """Points on a lattice (exact and near-exact ties at r) or anywhere, with
    some points repeated; r is a multiple of the lattice spacing or falls
    just short of it, so lattice neighbors sit a hair outside r."""
    spacing = draw(st.sampled_from(SPACINGS))
    coord = st.integers(-3, 3).map(lambda k: k * spacing) | st.floats(-2.0, 2.0)
    pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=60))
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=10))
    pts = np.array(pts + [pts[k] for k in repeats], dtype=np.float64)
    r = spacing * draw(st.sampled_from((0.0, 0.5, 1.0, 1.0 - 1e-12, np.sqrt(2.0), 2.0, 3.0)))
    return pts, float(r)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cloud_and_radius(), st.data())
def test_radius_query_matches_linear_scan_generated(case, data):
    pts, r = case
    tree = KdTree(pts)
    # Centres on the cloud's own points put neighbors at exactly r.
    k = data.draw(st.integers(0, len(pts) - 1))
    for center in (pts[k], pts[k] + r * np.array([1.0, 0.0, 0.0])):
        assert np.array_equal(tree.radius_query(center, r), linear_scan(pts, center, r))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cloud_and_radius())
def test_radius_pairs_match_linear_scan_generated(case):
    pts, r = case
    i, j = KdTree(pts).radius_pairs(r)
    got = sorted(zip(i.tolist(), j.tolist()))
    want = [(a, b) for a in range(len(pts)) for b in linear_scan(pts, pts[a], r) if b > a]
    assert got == want
