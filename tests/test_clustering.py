"""DBSCAN against a from-scratch quadratic reference.

The reference below derives labels a different way than the library loop:
it computes the full neighbor matrix, finds connected components of core
points, then attaches border points to the lowest-id adjacent cluster.
Both constructions must produce identical label arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BruteForceIndex

from lidartrack.clustering import ClusterLabels, ClusterParams, dbscan
from lidartrack import spatial_index
from lidartrack.spatial_index import KdTree


def reference_dbscan(points: np.ndarray, eps: float, min_points: int) -> np.ndarray:
    n = len(points)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    adjacency = d2 <= eps * eps  # includes self on the diagonal
    neighbor_counts = adjacency.sum(axis=1)
    core = neighbor_counts >= min_points

    cid = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != -1:
            continue
        stack = [seed]
        labels[seed] = cid
        while stack:
            j = stack.pop()
            for k in np.nonzero(adjacency[j] & core)[0]:
                if labels[k] == -1:
                    labels[k] = cid
                    stack.append(k)
        cid += 1

    for i in range(n):
        if core[i] or labels[i] != -1:
            continue
        adjacent_clusters = labels[adjacency[i] & core]
        if adjacent_clusters.size:
            labels[i] = adjacent_clusters.min()
    return labels


def blob(rng, center, n, spread=0.15):
    return np.asarray(center, dtype=np.float64) + rng.normal(scale=spread, size=(n, 3))


def test_two_separated_blobs():
    rng = np.random.default_rng(200)
    pts = np.vstack([blob(rng, [0, 0, 0], 30), blob(rng, [10, 0, 0], 30)])
    out = dbscan(KdTree(pts), ClusterParams(eps=0.7, min_points=5))
    assert out.n_clusters == 2
    assert set(out.labels[:30]) == {0}
    assert set(out.labels[30:]) == {1}


def test_sparse_points_are_noise():
    pts = np.array([[0.0, 0, 0], [5.0, 0, 0], [10.0, 0, 0], [15.0, 0, 0]])
    out = dbscan(KdTree(pts), ClusterParams(eps=1.0, min_points=3))
    assert out.n_clusters == 0
    assert np.all(out.labels == -1)


def test_empty_input():
    out = dbscan(KdTree(np.zeros((0, 3))), ClusterParams())
    assert out.n_clusters == 0
    assert out.labels.shape == (0,)


def test_min_points_counts_the_point_itself():
    # Three collinear points 0.5 apart: middle point has 3 neighbors
    # (itself plus both ends), ends have 2 each.
    pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
    out = dbscan(KdTree(pts), ClusterParams(eps=0.6, min_points=3))
    # Only the middle point is core; ends become border points of cluster 0.
    assert np.array_equal(out.labels, [0, 0, 0])
    out4 = dbscan(KdTree(pts), ClusterParams(eps=0.6, min_points=4))
    assert np.all(out4.labels == -1)


def test_boundary_distance_is_inside():
    # Exactly eps apart: must count as neighbors.
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    out = dbscan(KdTree(pts), ClusterParams(eps=1.0, min_points=3))
    assert np.array_equal(out.labels, [0, 0, 0])


def test_cluster_ids_follow_scan_order():
    rng = np.random.default_rng(201)
    late = blob(rng, [20, 0, 0], 20)
    early = blob(rng, [0, 0, 0], 20)
    pts = np.vstack([late, early])
    out = dbscan(KdTree(pts), ClusterParams(eps=0.7, min_points=5))
    # The blob whose points come first in the array gets id 0 regardless of
    # position in space.
    assert set(out.labels[:20]) == {0}
    assert set(out.labels[20:]) == {1}


def test_border_point_goes_to_lowest_id_cluster():
    # Each cluster is a 4-point stack plus one "near" core reaching toward
    # the middle. The point at x=1 sees one core from each side (3 neighbors
    # total, not core itself) and must join cluster 0, not cluster 1.
    cluster_a = np.vstack([np.tile([[-1.0, 0, 0]], (4, 1)), [[0.0, 0, 0]]])
    cluster_b = np.vstack([np.tile([[3.0, 0, 0]], (4, 1)), [[2.0, 0, 0]]])
    between = np.array([[1.0, 0.0, 0.0]])
    pts = np.vstack([cluster_a, cluster_b, between])
    out = dbscan(KdTree(pts), ClusterParams(eps=1.0, min_points=5))
    assert out.n_clusters == 2
    assert set(out.labels[:5]) == {0}
    assert set(out.labels[5:10]) == {1}
    assert out.labels[-1] == 0


def test_labels_are_read_only():
    out = dbscan(KdTree(np.zeros((5, 3))), ClusterParams(eps=1.0, min_points=2))
    with pytest.raises(ValueError):
        out.labels[0] = 7


def test_cluster_indices_and_iteration():
    rng = np.random.default_rng(202)
    pts = np.vstack([blob(rng, [0, 0, 0], 25), blob(rng, [8, 0, 0], 15)])
    out = dbscan(KdTree(pts), ClusterParams(eps=0.7, min_points=5))
    seen = dict(out.iter_clusters())
    assert set(seen) == {0, 1}
    assert len(seen[0]) == 25 and len(seen[1]) == 15
    assert np.array_equal(seen[0], out.cluster_indices(0))


def test_param_validation():
    with pytest.raises(ValueError):
        ClusterParams(eps=-0.1)
    with pytest.raises(ValueError):
        ClusterParams(min_points=0)


def test_matches_reference_randomized():
    rng = np.random.default_rng(204)
    for trial in range(80):
        n = int(rng.integers(0, 150))
        scale = float(rng.uniform(1.0, 12.0))
        pts = rng.uniform(0, scale, size=(n, 3))
        eps = float(rng.uniform(0.3, 2.5))
        min_points = int(rng.integers(1, 8))
        want = reference_dbscan(pts, eps, min_points)
        got = dbscan(KdTree(pts), ClusterParams(eps=eps, min_points=min_points))
        assert np.array_equal(got.labels, want), (
            f"trial {trial}: n={n} eps={eps:.3f} min_points={min_points}"
        )


def test_all_routes_produce_identical_labels():
    """The KD-tree and the brute-force index must give identical labels."""
    rng = np.random.default_rng(205)
    for _ in range(25):
        n = int(rng.integers(10, 250))
        pts = rng.uniform(0, 8, size=(n, 3))
        params = ClusterParams(
            eps=float(rng.uniform(0.4, 1.5)), min_points=int(rng.integers(2, 8))
        )
        tree = dbscan(KdTree(pts), params)
        brute = dbscan(BruteForceIndex(pts), params)
        assert np.array_equal(tree.labels, brute.labels)


def test_cluster_labels_n_clusters_from_array():
    labels = ClusterLabels(np.array([0, 0, 1, -1, 2, 2]))
    assert labels.n_clusters == 3
    assert ClusterLabels(np.array([-1, -1])).n_clusters == 0


# --- generated inputs -----------------------------------------------------


@st.composite
def cluster_case(draw):
    """A cloud, eps and min_points. Lattice clouds put many neighbors at
    exactly (or within a few ulps of) eps, or a hair outside it; repeated
    points stack densities."""
    spacing = draw(st.sampled_from((0.25, 0.5, 0.7, 1.0)))
    coord = st.integers(-4, 4).map(lambda k: k * spacing) | st.floats(-3.0, 3.0)
    pts = draw(st.lists(st.tuples(coord, coord, coord), max_size=80))
    if pts:
        repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=15))
        pts += [pts[k] for k in repeats]
    pts = np.array(pts, dtype=np.float64).reshape(-1, 3)
    eps = spacing * draw(st.sampled_from((0.5, 1.0, 1.0 - 1e-12, np.sqrt(2.0), 2.0)))
    min_points = draw(st.integers(1, 8))
    return pts, float(eps), min_points


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cluster_case())
def test_matches_reference_generated(case):
    pts, eps, min_points = case
    want = reference_dbscan(pts, eps, min_points)
    params = ClusterParams(eps=eps, min_points=min_points)
    assert np.array_equal(dbscan(KdTree(pts), params).labels, want)
    assert np.array_equal(dbscan(BruteForceIndex(pts), params).labels, want)


@st.composite
def chain_case(draw):
    """Nearly straight chains whose steps are 0.55-0.9 eps, so only
    consecutive points link and a cluster is hundreds of hops across. The
    points are numbered along the chains, backwards (the lowest index at the
    far end) or shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = 1.0
    chains = []
    for c in range(draw(st.integers(1, 3))):
        n = draw(st.integers(100, 400))
        heading = rng.normal(size=3)
        heading /= np.linalg.norm(heading)
        steps = heading * rng.uniform(0.55, 0.9, size=(n, 1)) + rng.normal(scale=0.02, size=(n, 3))
        chains.append(np.array([0.0, 10.0 * c, 0.0]) + np.cumsum(steps, axis=0))
    pts = np.vstack(chains)
    numbering = draw(st.sampled_from(("along", "backwards", "shuffled")))
    if numbering == "backwards":
        pts = pts[::-1]
    elif numbering == "shuffled":
        pts = pts[rng.permutation(len(pts))]
    return np.ascontiguousarray(pts), eps, draw(st.integers(1, 3))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(chain_case())
def test_long_chains_match_reference(case):
    pts, eps, min_points = case
    want = reference_dbscan(pts, eps, min_points)
    params = ClusterParams(eps=eps, min_points=min_points)
    assert np.array_equal(dbscan(KdTree(pts), params).labels, want)


# --- sweep-order labelling over candidate blocks ---------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cluster_case(), st.sampled_from((1, 7, 64)))
def test_blocked_kdtree_labels_match_brute_force_and_reference(case, block):
    pts, eps, min_points = case
    params = ClusterParams(eps=eps, min_points=min_points)
    want = reference_dbscan(pts, eps, min_points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial_index, "_BLOCK", block)
        got = dbscan(KdTree(pts), params).labels
    assert np.array_equal(got, want)
    assert np.array_equal(dbscan(BruteForceIndex(pts), params).labels, want)


def edge_clouds():
    rng = np.random.default_rng(206)
    # A dense line whose points' windows are larger than every block,
    # far from two stray points; numbered backwards so that sweep order and
    # point order disagree.
    line = np.zeros((150, 3))
    line[:, 0] = 0.01 * np.arange(150)[::-1]
    strays = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
    return {
        "empty": (np.zeros((0, 3)), 3),
        "single": (np.array([[1.0, 2.0, 3.0]]), 1),
        "single-noise": (np.array([[1.0, 2.0, 3.0]]), 2),
        "all-noise": (rng.uniform(0, 100, size=(40, 3)), 2),
        "min-points-1": (rng.uniform(0, 6, size=(60, 3)), 1),
        "big-window": (np.vstack([strays[:1], line, strays[1:]]), 5),
        "big-window-min-1": (np.vstack([strays[:1], line, strays[1:]]), 1),
    }


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("name", list(edge_clouds()))
def test_blocked_kdtree_labels_on_edge_clouds(name, block, monkeypatch):
    pts, min_points = edge_clouds()[name]
    params = ClusterParams(eps=0.7, min_points=min_points)
    want = reference_dbscan(pts, 0.7, min_points)
    monkeypatch.setattr(spatial_index, "_BLOCK", block)
    assert np.array_equal(dbscan(KdTree(pts), params).labels, want)
    assert np.array_equal(dbscan(BruteForceIndex(pts), params).labels, want)
    if name == "all-noise":
        assert np.all(want == -1)
    elif name == "big-window":
        assert want.tolist() == [-1] + [0] * 150 + [-1]
    elif name == "big-window-min-1":
        assert want.tolist() == [0] + [1] * 150 + [2]
