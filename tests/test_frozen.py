"""Every array a record holds: a read-only copy of exactly its field's shape.

`PointCloud` is the one record that holds a read-only view instead, so a
stride-1 cloud is not held twice; it still leaves the caller's array
writable. A record keeps its arrays read-only through pickle and
copy.deepcopy. Functions that take points or vectors word a wrong shape the
same way as records do.
"""

import copy
import pickle
import re

import numpy as np
import pytest
from oracles import BruteForceIndex

from lidartrack.clustering import ClusterLabels
from lidartrack.dataset_io import DrivableGrid, GroundTruthBox, MaskRegion, PointCloud
from lidartrack.detection import fit_box
from lidartrack.geometry import RigidTransform, identity_transform, transform_points
from lidartrack.preprocess import Plane
from lidartrack.spatial_index import KdTree
from lidartrack.tracking import Tracker, cost_matrix, kalman_predict, kalman_update

POLYGON = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
POINTS = [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

# (record.field, the caller's array, the record built from it)
FIELDS = {
    "Plane.normal": ([0.0, 0.0, 1.0], lambda a: Plane(a, -0.5)),
    "ClusterLabels.labels": (np.array([0, 0, -1, 1]), ClusterLabels),
    "RigidTransform.rotation": ([1.0, 0.0, 0.0, 0.0], lambda a: RigidTransform(a, np.zeros(3))),
    "RigidTransform.translation": (
        [1.0, 2.0, 3.0],
        lambda a: RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), a),
    ),
    "MaskRegion.polygon": (POLYGON, lambda a: MaskRegion("cam", a)),
    "DrivableGrid.origin_xy": ([1.0, 2.0], lambda a: DrivableGrid(a, 0.5, np.ones((2, 3), bool))),
    "DrivableGrid.bits": (np.ones((2, 3), bool), lambda a: DrivableGrid(np.zeros(2), 0.5, a)),
    "GroundTruthBox.center": ([1.0, 2.0, 3.0], lambda a: GroundTruthBox("a", a, 4.0, 2.0, 1.5)),
    "KdTree.points": (POINTS, KdTree),
    "BruteForceIndex.points": (POINTS, BruteForceIndex),
    "PointCloud.points": (POINTS, PointCloud),
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_record_holds_a_read_only_array_and_leaves_the_callers_alone(name):
    value, build = FIELDS[name]
    field = name.split(".")[1]
    caller = np.array(value)
    held = getattr(build(caller), field)
    want = held.copy()
    assert not held.flags.writeable
    assert caller.flags.writeable
    flat = caller.reshape(-1)
    flat[0] = ~flat[0] if caller.dtype == bool else flat[0] + 1
    if name == "PointCloud.points":  # a view: the caller's write shows
        assert np.shares_memory(held, caller)
        return
    assert np.array_equal(held, want)
    with pytest.raises(ValueError, match=field):
        build(np.array(value)[None])


COPIES = {"pickle": lambda record: pickle.loads(pickle.dumps(record)), "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", list(COPIES))
@pytest.mark.parametrize("name", list(FIELDS))
def test_record_keeps_its_array_read_only_through_a_copy(name, how):
    value, build = FIELDS[name]
    record = build(np.array(value))
    field = name.split(".")[1]
    again = COPIES[how](record)
    held = getattr(again, field)
    assert type(again) is type(record)
    assert not held.flags.writeable
    assert held.dtype == getattr(record, field).dtype
    assert np.array_equal(held, getattr(record, field))


# function(argument): (a call given that argument, the shape it wants, a wrong one).
# Reshaped to fit, the (4,) track_xy would read as two points; broadcast, the
# (4, 4) covs and the (2,) z_xy would be those of every track.
IDENTITY = identity_transform()
ROW = np.zeros((1, 2))
ARGUMENTS = {
    "transform_points(points)": (lambda a: transform_points(IDENTITY, a), "(N, 3)", (2, 4)),
    "fit_box(points)": (fit_box, "(N, 3)", (3,)),
    "cost_matrix(track_xy)": (lambda a: cost_matrix(a, ROW, 1.0), "(N, 2)", (4,)),
    "cost_matrix(det_xy)": (lambda a: cost_matrix(ROW, a, 1.0), "(M, 2)", (1, 3)),
    "kalman_predict(states)": (
        lambda a: kalman_predict(a, np.eye(4)[None], 0.5, 1.0),
        "(T, 4)",
        (4,),
    ),
    "kalman_predict(covs)": (
        lambda a: kalman_predict(np.zeros((1, 4)), a, 0.5, 1.0),
        "(1, 4, 4)",
        (4, 4),
    ),
    "Tracker.step(detections)": (lambda a: Tracker().step(a, 0.0, 0), "(D, 6)", (2, 5)),
    "kalman_update(z_xy)": (
        lambda a: kalman_update(np.zeros((1, 4)), np.eye(4)[None], a, 0.5),
        "(1, 2)",
        (2,),
    ),
}


@pytest.mark.parametrize("name", list(ARGUMENTS))
def test_function_words_a_wrong_shape_as_records_do(name):
    call, want, got = ARGUMENTS[name]
    arg = name[name.index("(") + 1 : -1]
    text = f"{arg} must have shape {want}, got {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call(np.zeros(got))
