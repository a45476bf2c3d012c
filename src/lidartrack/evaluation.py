"""Tracking quality: MOTA over BEV centroid matching.

Per frame, ground truth objects and hypothesis tracks are put in one-to-one
correspondence. A pair that matched in an earlier frame stays matched while
it remains within the gate, regardless of whether some other pairing would
now be closer; only the leftovers go through min-cost assignment. An object
whose new hypothesis differs from the last one it ever had counts as an id
switch.

    MOTA = 1 - (misses + false positives + id switches) / gt instances

MOTA is undefined when there is no ground truth at all but the tracker
still produced output; that raises instead of returning a made-up number.
An empty sequence with an empty hypothesis set scores a clean 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import check_shape
from .errors import EvaluationError
from .tracking import cost_matrix, hungarian


@dataclass(frozen=True)
class FrameCounts:
    frame: int
    n_gt: int
    n_hyp: int
    matches: int
    false_negatives: int
    false_positives: int
    id_switches: int


@dataclass(frozen=True)
class MotaResult:
    false_negatives: int
    false_positives: int
    id_switches: int
    gt_count: int
    mota: float


def _xy(value, what: str, frame: int) -> np.ndarray:
    """value as a float64 array of shape (2,); a ValueError naming it otherwise."""
    xy = np.asarray(value, dtype=np.float64)
    check_shape(f"{what} xy in frame {frame}", xy, (2,))
    return xy


class MotMatcher:
    """Carries the gt-to-hypothesis correspondence from frame to frame."""

    def __init__(self, match_distance: float = 2.0):
        if match_distance <= 0:
            raise ValueError("match_distance must be positive")
        self.match_distance = match_distance
        # Last hypothesis each gt object was ever matched to. Survives gaps:
        # re-acquiring the same hypothesis after occlusion is not a switch.
        self._last_match: dict = {}

    def step(self, frame: int, gt: list, hyp: list) -> FrameCounts:
        """Match one frame.

        gt: list of (gt_id, xy) with xy array-like of shape (2,).
        hyp: list of (hyp_id, xy). Any other xy shape raises a ValueError
        naming the object and the frame.
        """
        gt = sorted(
            ((g[0], _xy(g[1], f"ground truth {g[0]!r}", frame)) for g in gt),
            key=lambda g: str(g[0]),
        )
        hyp_by_id = {h[0]: _xy(h[1], f"hypothesis {h[0]!r}", frame) for h in hyp}
        if len(hyp_by_id) != len(hyp):
            raise ValueError(f"duplicate hypothesis ids in frame {frame}")
        gt_ids = [g[0] for g in gt]
        if len(set(gt_ids)) != len(gt_ids):
            raise ValueError(f"duplicate ground truth ids in frame {frame}")

        corr: dict = {}
        used_hyp = set()

        # Keep prior pairs that are still within the gate.
        for gid, gxy in gt:
            prev = self._last_match.get(gid)
            if prev is None or prev not in hyp_by_id or prev in used_hyp:
                continue
            # cost_matrix's distance, so the keep rule and the assignment share one gate.
            d = cost_matrix([gxy], [hyp_by_id[prev]], self.match_distance)[0, 0]
            if d <= self.match_distance:
                corr[gid] = prev
                used_hyp.add(prev)

        # Min-cost assignment over what is left.
        rem_gt = [(gid, gxy) for gid, gxy in gt if gid not in corr]
        rem_hyp = [(hid, hxy) for hid, hxy in hyp_by_id.items() if hid not in used_hyp]
        rem_hyp.sort(key=lambda h: str(h[0]))
        switches = 0
        if rem_gt and rem_hyp:
            cost = cost_matrix(
                np.array([g[1] for g in rem_gt]),
                np.array([h[1] for h in rem_hyp]),
                self.match_distance,
            )
            for gi, hi in hungarian(cost).matches:
                gid = rem_gt[gi][0]
                hid = rem_hyp[hi][0]
                prev = self._last_match.get(gid)
                if prev is not None and prev != hid:
                    switches += 1
                corr[gid] = hid
                used_hyp.add(hid)

        for gid, hid in corr.items():
            self._last_match[gid] = hid

        n_match = len(corr)
        return FrameCounts(
            frame=frame,
            n_gt=len(gt),
            n_hyp=len(hyp),
            matches=n_match,
            false_negatives=len(gt) - n_match,
            false_positives=len(hyp) - n_match,
            id_switches=switches,
        )


def mota(
    gt_frames: dict[int, list],
    hyp_frames: dict[int, list],
    match_distance: float = 2.0,
) -> tuple[MotaResult, list[FrameCounts]]:
    """Score a whole sequence.

    gt_frames / hyp_frames map frame index to [(id, xy), ...]. Frames are
    scored in ascending index order over the union of both key sets.
    """
    matcher = MotMatcher(match_distance)
    per_frame = []
    fn = fp = idsw = n_gt_total = 0
    for frame in sorted(set(gt_frames) | set(hyp_frames)):
        counts = matcher.step(frame, gt_frames.get(frame, []), hyp_frames.get(frame, []))
        per_frame.append(counts)
        fn += counts.false_negatives
        fp += counts.false_positives
        idsw += counts.id_switches
        n_gt_total += counts.n_gt

    if n_gt_total == 0:
        if fp > 0:
            raise EvaluationError(
                "MOTA is undefined: no ground truth instances but "
                f"{fp} false positives were produced"
            )
        score = 1.0
    else:
        score = 1.0 - (fn + fp + idsw) / n_gt_total
    return (
        MotaResult(
            false_negatives=fn,
            false_positives=fp,
            id_switches=idsw,
            gt_count=n_gt_total,
            mota=score,
        ),
        per_frame,
    )


def gt_to_eval_frames(ground_truth: dict) -> dict[int, list]:
    """Adapt loaded ground truth boxes to the (id, xy) pairs mota() wants."""
    return {
        frame: [(box.track_id, box.center[:2]) for box in boxes]
        for frame, boxes in ground_truth.items()
    }


def tracks_to_eval_frames(records: list) -> dict[int, list]:
    """Adapt track records (from dataset_io.load_tracks) for mota()."""
    frames: dict[int, list] = {}
    for rec in records:
        frames.setdefault(rec.frame, []).append((rec.track_id, np.array([rec.x, rec.y])))
    return frames
