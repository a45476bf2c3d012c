"""Density clustering of point clouds (DBSCAN).

Label semantics, the same whichever index supplies the neighbor pairs:
  - a point is core iff it has at least min_points neighbors within eps,
    counting itself, with the boundary inclusive (distance <= eps);
  - clusters are the connected components of core points linked within
    eps; their ids are dense, ordered by each cluster's lowest core index;
  - a border point (not core, within eps of a core point) belongs to the
    lowest-id cluster among its adjacent core points;
  - everything else is noise, labeled -1.

The labels are computed in the index's sweep order, from the pairs it
returns as sweep positions, and scattered back to point order once at the
end; only the cluster numbering looks at point indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._frozen import frozen

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
        labels = frozen("labels", self.labels, np.int64, ("N",))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_clusters", int(labels.max(initial=NOISE)) + 1)

    def cluster_indices(self, cluster_id: int) -> np.ndarray:
        return np.nonzero(self.labels == cluster_id)[0]

    def iter_clusters(self):
        for cid in range(self.n_clusters):
            yield cid, self.cluster_indices(cid)


def dbscan(index, params: ClusterParams) -> ClusterLabels:
    """Cluster the points of `index`, a `KdTree` or `BruteForceIndex`, with
    the given eps / min_points: one label per point, in the index's order.

    The index supplies every pair of points within eps as positions in its
    sweep order (the identity order for `BruteForceIndex`), and the labels
    follow from those pairs in whole-array steps.
    """
    order, a, b = index.sweep_pairs(params.eps)
    return ClusterLabels(_sweep_labels(order, a, b, params.min_points))


def _sweep_labels(order: np.ndarray, a: np.ndarray, b: np.ndarray, min_points: int) -> np.ndarray:
    """DBSCAN labels of points[order[p]] for p in 0..n-1, from the neighbor
    pairs (a, b), a < b, of sweep positions, each listed once, scattered
    back to point order.

    Clusters are the connected components of the core-core pairs, found by
    min-label hooking with pointer jumping (Shiloach-Vishkin) over sweep
    positions: each round hangs the root of every pair's higher-rooted end
    under the lower root, then jumps every pointer to its root. Roots only
    ever decrease and a component's lowest position is never hung under
    anything, so at the fixed point every position points at its
    component's lowest one. Each cluster is then named by its lowest point
    index among its core points, and the ids are dense in that order.
    """
    n = len(order)
    core = np.bincount(a, minlength=n) + np.bincount(b, minlength=n) + 1 >= min_points
    labels = np.full(n, NOISE, dtype=np.int64)
    if not core.any():
        return labels
    core_a, core_b = core[a], core[b]
    live = core_a & core_b  # the core-core pairs not yet inside one tree
    root = np.arange(n)
    # First round: every root is still its own position, and a < b.
    np.minimum.at(root, b[live], a[live])
    ea, eb = a, b
    while True:
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        # Pairs inside one tree stay settled: roots only merge.
        live &= root[ea] != root[eb]
        if not live.any():
            break
        ea, eb = ea[live], eb[live]
        ra, rb = root[ea], root[eb]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        live = np.ones(len(ea), dtype=bool)

    # Cluster ids: the components' roots ranked by their lowest point index.
    core_pos = np.flatnonzero(core)
    core_root = root[core_pos]
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, core_root, order[core_pos])
    roots = np.flatnonzero(lowest < n)
    cluster = np.empty(n, dtype=np.int64)  # the id of each root position
    cluster[roots[np.argsort(lowest[roots])]] = np.arange(len(roots))
    labels[core_pos] = cluster[core_root]

    # Border points: the lowest cluster id among adjacent core points.
    to_b = core_a & ~core_b
    to_a = core_b & ~core_a
    best = np.full(n, n, dtype=np.int64)
    np.minimum.at(
        best,
        np.concatenate((b[to_b], a[to_a])),
        np.concatenate((labels[a[to_b]], labels[b[to_a]])),
    )
    reached = best < n
    labels[reached] = best[reached]
    out = np.empty(n, dtype=np.int64)
    out[order] = labels
    return out
