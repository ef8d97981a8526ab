"""Tracking evaluation in the recall-averaged style of large AV benchmarks.

Predictions and ground truth are compared per frame on the ground plane
(vehicle-frame x/y, meters). Matching is greedy by ascending center
distance under a fixed gate (2 m by default), class-gated, and sticky: a
ground-truth object prefers the track id it was last matched to, which is
what makes identity switches countable. From the per-frame matches come the
CLEAR-style counts (IDS, FP, FN, matched distances), then:

    MOTAR(r) = clamp_0..1( 1 - (IDS + FP + FN - (1-r) * P) / (r * P) )

evaluated at the confidence floor whose achieved recall first reaches each
target recall r in {1/(n-1), ..., 1}, and AMOTA is the mean of those n-1
values. AMOTP averages the matched-distance means over the same floors.
MOTA/MOTP/Recall are reported at the confidence floor that maximizes MOTA.
All comparisons happen on squared distances so results do not depend on
square-root rounding.

The raw MOTAR formula can exceed 1 when the achieved recall overshoots the
target (discrete confidences), so the value is clamped into [0, 1]; without
the upper clamp a perfect tracker would not score AMOTA = 1.

Every distinct confidence of a class is a floor. amota walks the floors
once per class, highest first, with the counts of a full replay at each.
Candidate pairs (same class, in the gate) are sorted once per frame. A
frame's outcome depends only on its kept predictions and the sticky map it
starts with, and a lower floor adds predictions only in the frames holding
that confidence. So a floor replays from its first changed frame until an
unchanged frame starts with the map stored for it at the previous floor;
the frames up to the next changed one then repeat their stored outcomes.
The cost follows the frames a floor changes, not floors x frames. Distances
are summed (math.fsum, order-independent) only at the floors reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .association import checked_frame_index


@dataclass(frozen=True)
class GroundTruthObject:
    gt_id: int
    x: float
    y: float
    class_id: int

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("ground-truth x and y must be finite")


@dataclass(frozen=True)
class GroundTruthFrame:
    frame_index: int
    objects: Tuple[GroundTruthObject, ...]

    def __post_init__(self):
        object.__setattr__(self, "frame_index", checked_frame_index(self.frame_index))
        object.__setattr__(self, "objects", tuple(self.objects))
        ids = [o.gt_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"frame {self.frame_index}: duplicate ground-truth ids")


@dataclass(frozen=True)
class PredictedObject:
    """A reported track at one frame, already in ground-plane coordinates."""

    track_id: int
    x: float
    y: float
    class_id: int
    confidence: float

    def __post_init__(self):
        if not (math.isfinite(self.confidence) and self.confidence >= 0):
            raise ValueError("confidence must be finite and non-negative")


@dataclass(frozen=True)
class PredictedFrame:
    frame_index: int
    objects: Tuple[PredictedObject, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))


@dataclass(frozen=True)
class FrameMatches:
    """Per-frame matching result: (gt_id, track_id, distance) triples plus
    the leftovers on both sides (input order)."""

    matches: Tuple[Tuple[int, int, float], ...]
    false_positive_ids: Tuple[int, ...]
    false_negative_ids: Tuple[int, ...]


@dataclass(frozen=True)
class ErrorCounts:
    """Sequence-level error tally at one confidence floor."""

    ids: int
    fp: int
    fn: int
    recall: float
    matched_distances: Tuple[float, ...]
    confidence_floor: float

    @property
    def motp(self) -> float:
        """Mean matched ground-plane distance; 0 when nothing matched."""
        if not self.matched_distances:
            return 0.0
        return math.fsum(self.matched_distances) / len(self.matched_distances)


@dataclass(frozen=True)
class ClassMetrics:
    amota: float
    amotp: float
    motar: float
    mota: float
    motp: float
    recall: float
    num_gt: int


@dataclass(frozen=True)
class MetricsReport:
    per_class: Dict[int, ClassMetrics]
    amota: float
    amotp: float
    motar: float
    mota: float
    motp: float
    recall: float
    num_thresholds: int
    num_gt: int

    def __post_init__(self):
        if not (0.0 <= self.amota <= 1.0 and 0.0 <= self.motar <= 1.0):
            raise ValueError("AMOTA and MOTAR must lie in [0, 1]")


def _prepare(gts, preds, dist_threshold: float):
    """One frame's inputs to _match at any floor: (gts, preds, candidate
    pairs as (gt index, pred index, distance) sorted by (d2, gt index, pred
    index), their distances by (gt index, pred index)). A candidate pair is
    same-class with d2 = dx * dx + dy * dy <= dist_threshold^2 in float64."""
    if not (dist_threshold > 0):
        raise ValueError("dist_threshold must be positive")
    g = np.array([(o.x, o.y) for o in gts], dtype=float).reshape(-1, 2)
    p = np.array([(o.x, o.y) for o in preds], dtype=float).reshape(-1, 2)
    dx, dy = g[:, :1] - p[:, 0], g[:, 1:] - p[:, 1]
    d2 = dx * dx + dy * dy
    gi, pj = np.nonzero(d2 <= dist_threshold * dist_threshold)  # in (gt, pred) order, kept by the stable sort
    order = np.argsort(d2[gi, pj], kind="stable")
    gi, pj = gi[order], pj[order]
    dist = np.sqrt(d2[gi, pj]).tolist()
    pairs = [(i, j, d) for i, j, d in zip(gi.tolist(), pj.tolist(), dist) if gts[i].class_id == preds[j].class_id]
    return gts, preds, pairs, {(i, j): d for i, j, d in pairs}


def _match(frame, dropped: List[bool], sticky: Mapping[int, int]):
    """One frame at one floor: (matches as (gt index, pred index, distance)
    in order, ids, fp, fn, matched distances, sticky map on exit). Dropped
    predictions take no part. Pass 1, ground truth in input order, keeps
    the remembered pair (sticky maps gt_id -> track id; the first kept
    prediction with that id) when both are free and it is a candidate pair.
    Pass 2 takes the remaining candidate pairs greedily. The map on entry
    is never modified, and is the exit map when no id changed."""
    gts, preds, pairs, near = frame
    gt_taken = [False] * len(gts)
    pred_taken = list(dropped)
    matches = []
    first = {preds[j].track_id: j for j in range(len(preds) - 1, -1, -1) if not dropped[j]} if sticky else {}
    for i, gt in enumerate(gts if sticky else ()):
        j = first.get(sticky.get(gt.gt_id))
        dist = None if j is None or pred_taken[j] else near.get((i, j))
        if dist is not None:
            matches.append((i, j, dist))
            gt_taken[i] = pred_taken[j] = True
    for i, j, dist in pairs:
        if not (gt_taken[i] or pred_taken[j]):
            matches.append((i, j, dist))
            gt_taken[i] = pred_taken[j] = True
    changes = {gts[i].gt_id: preds[j].track_id for i, j, _ in matches if sticky.get(gts[i].gt_id) != preds[j].track_id}
    ids = len(changes.keys() & sticky.keys())  # switches: changed ids that were remembered
    fp, fn = dropped.count(False) - len(matches), len(gts) - len(matches)
    return matches, ids, fp, fn, tuple(d for _, _, d in matches), {**sticky, **changes} if changes else sticky


def match_frame(
    pred_objects: Sequence[PredictedObject],
    gt_frame: GroundTruthFrame,
    dist_threshold: float,
    sticky: Optional[Mapping[int, int]] = None,
) -> FrameMatches:
    """Match one frame of predictions to ground truth.

    sticky maps gt_id -> track id from earlier frames; a remembered pair is
    kept whenever that track is present, same-class, and inside the gate.
    Everything else is matched greedily by ascending ground-plane distance
    with (distance, gt input index, pred input index) as the deterministic
    order. Pairs beyond dist_threshold or across classes never match.
    """
    gts, preds = gt_frame.objects, tuple(pred_objects)
    matches, *_ = _match(_prepare(gts, preds, dist_threshold), [False] * len(preds), sticky or {})
    gt_taken, pred_taken = {i for i, _, _ in matches}, {j for _, j, _ in matches}
    return FrameMatches(
        tuple((gts[i].gt_id, preds[j].track_id, d) for i, j, d in matches),
        tuple(p.track_id for j, p in enumerate(preds) if j not in pred_taken),
        tuple(g.gt_id for i, g in enumerate(gts) if i not in gt_taken),
    )


def _check_alignment(pred_frames, gt_frames):
    """Same-length, same-frame-index pairing, reported by the first frame
    where the two sequences disagree."""
    for p, g in zip(pred_frames, gt_frames):
        if p.frame_index != g.frame_index:
            raise ValueError(
                f"misaligned sequences: results frame {p.frame_index} paired with ground-truth frame {g.frame_index}"
            )
    if len(pred_frames) != len(gt_frames):
        longer, name = (pred_frames, "results") if len(pred_frames) > len(gt_frames) else (gt_frames, "ground truth")
        first_extra = longer[min(len(pred_frames), len(gt_frames))].frame_index
        raise ValueError(f"{name} has extra frames starting at frame {first_extra}")


def count_sequence_errors(
    pred_frames: Sequence[PredictedFrame],
    gt_frames: Sequence[GroundTruthFrame],
    confidence_floor: float,
    dist_threshold: float,
) -> ErrorCounts:
    """CLEAR-style counts over a sequence at one confidence floor.

    Predictions below the floor are dropped before matching. An identity
    switch is a matched ground-truth object whose track id differs from the
    id it was matched to the last time it was matched (gaps allowed).
    """
    _check_alignment(pred_frames, gt_frames)
    sticky: Dict[int, int] = {}
    ids = fp = fn = total_gt = 0
    distances: List[float] = []
    for p, g in zip(pred_frames, gt_frames):
        dropped = [not (o.confidence >= confidence_floor) for o in p.objects]
        _, f_ids, f_fp, f_fn, f_dist, sticky = _match(_prepare(g.objects, p.objects, dist_threshold), dropped, sticky)
        ids, fp, fn, total_gt = ids + f_ids, fp + f_fp, fn + f_fn, total_gt + len(g.objects)
        distances.extend(f_dist)
    recall = (total_gt - fn) / total_gt if total_gt else 0.0
    return ErrorCounts(ids, fp, fn, recall, tuple(distances), confidence_floor)


def _walk_floors(frames, dist_threshold: float):
    """Yields (floor, ids, fp, fn, per-frame matched distances) at each floor
    of (ground-truth objects, predictions) frames, walked as the module
    docstring describes."""
    floors = sorted({p.confidence for _, preds in frames for p in preds}, reverse=True)
    rank = {floor: k for k, floor in enumerate(floors)}
    ranks = [[rank[p.confidence] for p in preds] for _, preds in frames]
    changed: List[List[int]] = [[] for _ in floors]
    for t, frame_ranks in enumerate(ranks):
        for k in set(frame_ranks):
            changed[k].append(t)
    prepared = [_prepare(gts, preds, dist_threshold) for gts, preds in frames]
    # Per frame, as of the previous floor (at first one above the highest,
    # where nothing is kept): sticky map on entry, ids, fp, fn, distances.
    entry: List[Dict[int, int]] = [{}] * len(frames)
    f_ids, f_fp, f_fn = [0] * len(frames), [0] * len(frames), [len(gts) for gts, _ in frames]
    f_dist: List[Tuple[float, ...]] = [()] * len(frames)
    ids, fp, fn = 0, 0, sum(f_fn)
    for k, floor in enumerate(floors):
        t = 0  # frames before t are settled at this floor
        for start in changed[k]:
            if start < t:  # already replayed on the way from an earlier one
                continue
            t, sticky = start, entry[start]
            while True:
                dropped = [r > k for r in ranks[t]]
                entry[t] = sticky
                _, a, b, c, f_dist[t], sticky = _match(prepared[t], dropped, sticky)
                ids, fp, fn = ids + a - f_ids[t], fp + b - f_fp[t], fn + c - f_fn[t]
                f_ids[t], f_fp[t], f_fn[t] = a, b, c
                t += 1
                # Converged: the frames up to the next changed one repeat.
                if t == len(frames) or (k not in ranks[t] and sticky == entry[t]):
                    break
        yield floor, ids, fp, fn, list(f_dist)


def motar(counts: ErrorCounts, r: float, num_gt: int) -> float:
    """Recall-normalized tracking accuracy at recall threshold r.

    1 - (IDS + FP + FN - (1 - r) * P) / (r * P), clamped into [0, 1]. The
    lower clamp is part of the published formula; the upper clamp covers
    floors whose achieved recall overshoots r (see module docstring).
    """
    if not (0.0 < r <= 1.0):
        raise ValueError("recall threshold must lie in (0, 1]")
    if num_gt < 1:
        raise ValueError("num_gt must be >= 1")
    errors = counts.ids + counts.fp + counts.fn
    value = 1.0 - (errors - (1.0 - r) * num_gt) / (r * num_gt)
    return min(1.0, max(0.0, value))


def _class_metrics(walk, num_thresholds: int, num_gt: int) -> ClassMetrics:
    """One class's metrics from its floors, highest first: each recall
    threshold r takes the first floor whose recall reaches it, MOTA the first
    floor with the highest value. Only the floors chosen gather distances."""

    def counts(row) -> ErrorCounts:
        ids, fp, fn, recall, distances, floor = row
        return ErrorCounts(ids, fp, fn, recall, tuple(chain.from_iterable(distances)), floor)

    steps = num_thresholds - 1
    amota_terms: List[float] = []
    amotp_terms: List[float] = []
    best_mota, best = 0.0, (0, 0, num_gt, 0.0, (), math.inf)
    for n, (floor, ids, fp, fn, distances) in enumerate(walk):
        recall, mota = (num_gt - fn) / num_gt, 1.0 - (ids + fp + fn) / num_gt
        row = (ids, fp, fn, recall, distances, floor)
        if n == 0 or mota > best_mota:
            best_mota, best = mota, row
        while len(amota_terms) < steps and recall >= (len(amota_terms) + 1) / steps:
            chosen = counts(row)
            amota_terms.append(motar(chosen, (len(amota_terms) + 1) / steps, num_gt))
            amotp_terms.append(chosen.motp)
    best = counts(best)
    return ClassMetrics(  # thresholds never reached add 0 to the sums
        amota=math.fsum(amota_terms) / steps,
        amotp=math.fsum(amotp_terms) / steps,
        motar=motar(best, best.recall, num_gt) if best.recall > 0 else 0.0,
        mota=best_mota,
        motp=best.motp,
        recall=best.recall,
        num_gt=num_gt,
    )


def amota(
    pred_frames: Sequence[PredictedFrame],
    gt_frames: Sequence[GroundTruthFrame],
    num_thresholds: int = 40,
    dist_threshold: float = 2.0,
) -> MetricsReport:
    """Full evaluation: per-class AMOTA/AMOTP/MOTAR/MOTA/MOTP/Recall plus
    their unweighted means over the classes present in the ground truth.

    num_thresholds is the n of the recall ladder {1/(n-1), ..., 1}; floors
    are the distinct prediction confidences of each class. Classes are
    scored one after another, in class order.
    """
    if num_thresholds < 2:
        raise ValueError("num_thresholds must be >= 2")
    _check_alignment(pred_frames, gt_frames)
    class_ids = sorted({o.class_id for g in gt_frames for o in g.objects})
    if not class_ids:
        raise ValueError("ground truth contains no objects")

    def run(class_id: int) -> ClassMetrics:
        frames = [
            ([o for o in g.objects if o.class_id == class_id], [o for o in p.objects if o.class_id == class_id])
            for p, g in zip(pred_frames, gt_frames)
        ]
        return _class_metrics(_walk_floors(frames, dist_threshold), num_thresholds, sum(len(g) for g, _ in frames))

    per_class = {class_id: run(class_id) for class_id in class_ids}

    fields = ("amota", "amotp", "motar", "mota", "motp", "recall")
    means = {f: math.fsum(getattr(m, f) for m in per_class.values()) / len(per_class) for f in fields}
    return MetricsReport(per_class, **means, num_thresholds=num_thresholds, num_gt=sum(len(g.objects) for g in gt_frames))
