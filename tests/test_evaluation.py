"""MOTA scoring: hand-enumerated fixtures and invariance checks."""

import numpy as np
import pytest

from lidartrack.dataset_io import GroundTruthBox, TrackRecord
from lidartrack.errors import EvaluationError
from lidartrack.evaluation import (
    MotMatcher,
    gt_to_eval_frames,
    mota,
    tracks_to_eval_frames,
)
from lidartrack.tracking import cost_matrix


def xy(x, y):
    return np.array([x, y], dtype=np.float64)


def test_hand_fixture_scores_exactly_half():
    # Two objects over three frames: 6 gt instances. One miss, one false
    # positive, one id switch. MOTA = 1 - 3/6 = 0.5 exactly.
    gt = {
        0: [("A", xy(0, 0)), ("B", xy(10, 0))],
        1: [("A", xy(1, 0)), ("B", xy(11, 0))],
        2: [("A", xy(2, 0)), ("B", xy(12, 0))],
    }
    hyp = {
        0: [(1, xy(0.1, 0)), (2, xy(10.1, 0))],
        1: [(1, xy(1.1, 0)), (9, xy(50, 50))],  # B missed, 9 is a stray
        2: [(3, xy(2.1, 0)), (2, xy(12.1, 0))],  # A jumps from 1 to 3
    }
    result, per_frame = mota(gt, hyp)
    assert result.gt_count == 6
    assert result.false_negatives == 1
    assert result.false_positives == 1
    assert result.id_switches == 1
    assert result.mota == 0.5
    assert [c.false_negatives for c in per_frame] == [0, 1, 0]
    assert [c.false_positives for c in per_frame] == [0, 1, 0]
    assert [c.id_switches for c in per_frame] == [0, 0, 1]


def test_continuity_beats_nearer_newcomer():
    # h1 holds the match from frame 0. In frame 1 h2 sits closer, but h1 is
    # still inside the gate, so the pairing must not move (and must not
    # produce a switch when h2 disappears again).
    gt = {
        0: [("G", xy(0, 0))],
        1: [("G", xy(0, 0))],
        2: [("G", xy(0, 0))],
    }
    hyp = {
        0: [(1, xy(0.5, 0))],
        1: [(1, xy(1.8, 0)), (2, xy(0.1, 0))],
        2: [(1, xy(0.5, 0))],
    }
    result, per_frame = mota(gt, hyp)
    assert result.id_switches == 0
    assert result.false_positives == 1  # h2 in frame 1
    assert result.false_negatives == 0


def test_regaining_same_hypothesis_after_gap_is_not_a_switch():
    gt = {i: [("G", xy(float(i), 0))] for i in range(6)}
    hyp = {
        0: [(1, xy(0, 0))],
        1: [(1, xy(1, 0))],
        2: [],  # occluded
        3: [],
        4: [(1, xy(4, 0))],  # same id comes back
        5: [(2, xy(5, 0))],  # and now a genuine handoff
    }
    result, _ = mota(gt, hyp)
    assert result.false_negatives == 2
    assert result.id_switches == 1


def test_no_gt_with_output_is_an_error():
    with pytest.raises(EvaluationError):
        mota({0: []}, {0: [(1, xy(0, 0))]})


def test_no_gt_no_output_scores_one():
    result, per_frame = mota({0: [], 1: []}, {0: [], 1: []})
    assert result.mota == 1.0
    assert result.gt_count == 0
    assert len(per_frame) == 2


def test_empty_hypotheses_count_as_misses_only():
    gt = {i: [("A", xy(0, 0)), ("B", xy(5, 0))] for i in range(4)}
    result, _ = mota(gt, {})
    assert result.false_negatives == 8
    assert result.false_positives == 0
    assert result.id_switches == 0
    assert result.mota == 0.0


def test_perfect_tracking_scores_one():
    gt = {i: [("A", xy(i, 0)), ("B", xy(i, 8))] for i in range(10)}
    hyp = {i: [(7, xy(i, 0.2)), (8, xy(i, 7.8))] for i in range(10)}
    result, _ = mota(gt, hyp)
    assert result.mota == 1.0


def test_match_distance_boundary_is_inclusive():
    gt = {0: [("A", xy(0, 0))]}
    result, _ = mota(gt, {0: [(1, xy(2.0, 0))]}, match_distance=2.0)
    assert result.false_negatives == 0 and result.false_positives == 0
    result, _ = mota(gt, {0: [(1, xy(2.0001, 0))]}, match_distance=2.0)
    assert result.false_negatives == 1 and result.false_positives == 1


def test_pair_kept_exactly_at_the_gate_the_assignment_matched_it_at():
    # The gate is h1's distance as the assignment measures it; np.linalg.norm
    # reads one ulp more for this pair. A pair matched at the gate in frame 0
    # must stay matched in frame 1, not switch to h2 sitting on the object.
    g = xy(-3.0838374097986474, 3.023641611345301)
    h1 = xy(-3.086760739427997, -4.184473826364873)
    gate = 7.208116030504216
    assert cost_matrix([g], [h1], 10.0)[0, 0] == gate < np.linalg.norm(g - h1)
    gt = {0: [("G", g)], 1: [("G", g)]}
    hyp = {0: [(1, h1)], 1: [(1, h1), (2, g)]}
    result, _ = mota(gt, hyp, match_distance=gate)
    assert result.id_switches == 0
    assert result.false_positives == 1  # h2 in frame 1
    assert result.false_negatives == 0


def test_fresh_frame_assignment_minimizes_total_distance():
    # Crossing layout: greedy nearest would pair (A,h2) at 0.4 and leave
    # (B,h1) at 2.5 beyond the gate. The optimal pairing keeps both inside.
    gt = {0: [("A", xy(0, 0)), ("B", xy(1, 0))]}
    hyp = {0: [(1, xy(0.5, 0)), (2, xy(0.4, 0))]}
    result, _ = mota(gt, hyp)
    assert result.false_negatives == 0
    assert result.false_positives == 0


def test_hypothesis_only_frames_count_false_positives():
    gt = {0: [("A", xy(0, 0))], 1: [("A", xy(1, 0))]}
    hyp = {0: [(1, xy(0, 0))], 1: [(1, xy(1, 0))], 2: [(1, xy(2, 0))]}
    result, per_frame = mota(gt, hyp)
    assert per_frame[-1].frame == 2
    assert per_frame[-1].n_gt == 0
    assert result.false_positives == 1


def test_score_invariant_under_hypothesis_relabeling():
    rng = np.random.default_rng(700)
    gt = {}
    hyp = {}
    for f in range(12):
        gt[f] = [(f"g{k}", xy(*rng.uniform(0, 40, 2))) for k in range(4)]
        hyp[f] = []
        for k in range(4):
            if rng.uniform() < 0.8:
                jitter = rng.normal(scale=0.4, size=2)
                hyp[f].append((k + 1, np.asarray(gt[f][k][1]) + jitter))
        if rng.uniform() < 0.3:
            hyp[f].append((99, xy(*rng.uniform(100, 140, 2))))
    base, _ = mota(gt, hyp)
    for trial in range(10):
        perm = rng.permutation(200)
        relabeled = {
            f: [(int(perm[hid]), pos) for hid, pos in pairs] for f, pairs in hyp.items()
        }
        out, _ = mota(gt, relabeled)
        assert out == base


def test_duplicate_ids_rejected():
    m = MotMatcher()
    with pytest.raises(ValueError):
        m.step(0, [], [(1, xy(0, 0)), (1, xy(5, 0))])
    with pytest.raises(ValueError):
        m.step(0, [("A", xy(0, 0)), ("A", xy(5, 0))], [])


def test_an_xy_not_of_two_elements_is_rejected_where_it_is_read():
    # One frame or two, the first frame's centre is the one named: a kept
    # pair in a later frame reads it no differently from the assignment.
    centre = [0.0, 0.0, 0.0]
    messages = []
    for n_frames in (1, 2):
        gt = {f: [("A", centre)] for f in range(n_frames)}
        hyp = {f: [(1, centre)] for f in range(n_frames)}
        with pytest.raises(ValueError, match=r"'A' xy in frame 0 must have shape \(2,\), got \(3,\)") as exc:
            mota(gt, hyp)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    with pytest.raises(ValueError, match=r"hypothesis 1 xy in frame 0 .* got \(3,\)"):
        mota({0: [("A", xy(0, 0))]}, {0: [(1, centre)]})


def test_match_distance_must_be_positive():
    with pytest.raises(ValueError):
        MotMatcher(0.0)


def test_gt_adapter_takes_bev_centers():
    boxes = {
        3: [
            GroundTruthBox("car0", np.array([1.0, 2.0, -0.5]), 4.0, 2.0, 1.5),
            GroundTruthBox("car1", np.array([8.0, -3.0, -0.4]), 4.2, 1.9, 1.6),
        ]
    }
    frames = gt_to_eval_frames(boxes)
    assert list(frames) == [3]
    ids = [gid for gid, _ in frames[3]]
    assert ids == ["car0", "car1"]
    assert np.array_equal(frames[3][0][1], [1.0, 2.0])


def test_tracks_adapter_groups_by_frame():
    recs = [
        TrackRecord(frame=0, track_id=1, x=1.0, y=2.0, z=0.0, vx=0, vy=0, length=4, width=2, height=1.5),
        TrackRecord(frame=1, track_id=1, x=1.5, y=2.0, z=0.0, vx=0, vy=0, length=4, width=2, height=1.5),
        TrackRecord(frame=0, track_id=2, x=9.0, y=2.0, z=0.0, vx=0, vy=0, length=4, width=2, height=1.5),
    ]
    frames = tracks_to_eval_frames(recs)
    assert sorted(frames) == [0, 1]
    assert [hid for hid, _ in frames[0]] == [1, 2]
    assert np.array_equal(frames[1][0][1], [1.5, 2.0])


def test_per_frame_counts_sum_to_totals():
    rng = np.random.default_rng(701)
    gt = {f: [(f"g{k}", xy(*rng.uniform(0, 30, 2))) for k in range(3)] for f in range(8)}
    hyp = {
        f: [(k, np.asarray(p) + rng.normal(scale=1.0, size=2)) for k, (_, p) in enumerate(gt[f])]
        for f in range(8)
    }
    result, per_frame = mota(gt, hyp)
    assert result.false_negatives == sum(c.false_negatives for c in per_frame)
    assert result.false_positives == sum(c.false_positives for c in per_frame)
    assert result.id_switches == sum(c.id_switches for c in per_frame)
    assert result.gt_count == sum(c.n_gt for c in per_frame)
