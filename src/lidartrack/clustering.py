"""Density clustering of point clouds (DBSCAN).

Label semantics, the same whichever index supplies the neighbor pairs:
  - a point is core iff it has at least min_points neighbors within eps,
    counting itself, with the boundary inclusive (distance <= eps);
  - clusters are the connected components of core points linked within
    eps; their ids are dense, ordered by each cluster's lowest core index;
  - a border point (not core, within eps of a core point) belongs to the
    lowest-id cluster among its adjacent core points;
  - everything else is noise, labeled -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spatial_index import KdTree, _check_points

NOISE = -1


@dataclass(frozen=True)
class ClusterParams:
    eps: float = 0.7
    min_points: int = 10

    def __post_init__(self):
        if self.eps < 0 or not np.isfinite(self.eps):
            raise ValueError("eps must be non-negative and finite")
        if self.min_points < 1:
            raise ValueError("min_points must be >= 1")


@dataclass(frozen=True)
class ClusterLabels:
    """Per-point labels: -1 noise, otherwise a dense cluster id."""

    labels: np.ndarray
    n_clusters: int = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        n = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 0
        object.__setattr__(self, "n_clusters", n)

    def cluster_indices(self, cluster_id: int) -> np.ndarray:
        return np.nonzero(self.labels == cluster_id)[0]

    def iter_clusters(self):
        for cid in range(self.n_clusters):
            yield cid, self.cluster_indices(cid)


def dbscan(points, params: ClusterParams, index=None) -> ClusterLabels:
    """Cluster (N, 3) points with the given eps / min_points.

    `index` must be a radius index (`KdTree` or `BruteForceIndex`) built over
    exactly these points; when omitted a KD-tree is built. The index supplies
    every pair of points within eps, and the labels follow from those pairs
    in whole-array steps.
    """
    pts = _check_points(points)
    if index is None:
        index = KdTree(pts)
    if index.n != len(pts):
        raise ValueError(
            f"index holds {index.n} points but {len(pts)} were passed; "
            "build the index over the same cloud"
        )
    i, j = index.radius_pairs(params.eps)
    return ClusterLabels(_label_pairs(len(pts), i, j, params.min_points))


def _label_pairs(n: int, i: np.ndarray, j: np.ndarray, min_points: int) -> np.ndarray:
    """DBSCAN labels from the neighbor pairs (i, j), i != j, each listed once."""
    labels = np.full(n, NOISE, dtype=np.int64)
    core = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1 >= min_points
    core_idx = np.flatnonzero(core)
    if core_idx.size == 0:
        return labels

    # Clusters: connected components of the core-core edges, over the core
    # points renumbered 0..k-1 in index order. Each component is named by its
    # lowest core rank, so ranking the roots numbers the clusters in scan order.
    core_i, core_j = core[i], core[j]
    both = core_i & core_j
    rank = np.cumsum(core) - 1
    root = _min_roots(core_idx.size, rank[i[both]], rank[j[both]])
    labels[core_idx] = np.unique(root, return_inverse=True)[1]

    # Border points: the lowest cluster id among adjacent core points.
    to_j = core_i & ~core_j
    to_i = core_j & ~core_i
    border = np.concatenate((j[to_j], i[to_i]))
    best = np.full(n, n, dtype=np.int64)
    np.minimum.at(best, border, np.concatenate((labels[i[to_j]], labels[j[to_i]])))
    reached = best < n
    labels[reached] = best[reached]
    return labels


def _min_roots(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lowest vertex of each vertex's connected component, over k
    vertices joined by the undirected edges (a, b).

    Min-label hooking with pointer jumping (Shiloach-Vishkin): each round
    hangs the root of every edge's higher-rooted end under the lower root,
    then jumps every pointer to its root. Roots only ever decrease, and a
    component's lowest vertex is never hung under anything, so at the fixed
    point every vertex points at its component's lowest vertex.
    """
    root = np.arange(k)
    while a.size:
        ra, rb = root[a], root[b]
        live = ra != rb
        if not live.any():
            break
        # Edges inside one tree stay settled: roots only merge.
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        lo = np.minimum(ra, rb)
        np.minimum.at(root, np.maximum(ra, rb), lo)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return root
