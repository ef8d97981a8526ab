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

Frames hold their objects as columns. amota stacks them once, groups the
rows by class with a stable sort, and builds a class's candidate pairs
(same class, in the gate) in numpy passes of a bounded size. Every
distinct confidence of a class is a floor, walked once, highest first
(another stable sort groups the predictions by floor), with the counts of
a full replay at each. A frame's outcome depends only on its kept
predictions and the sticky map it starts with, and a lower floor keeps
more predictions only in the frames holding that confidence. So a floor
replays from its first changed frame until a frame starts with the map
stored for it at the previous floor; the frames up to the next changed
one then repeat their stored outcomes. The cost follows the frames a floor
changes, not floors x frames. A frame's remembered pairs keep their ids,
so only its greedy pass can change the map or count a switch. Distances
are summed (math.fsum, order-independent) only at the floors reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .association import Frame, field_types


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


class GroundTruthFrame(Frame):
    """Columns gt_id, x, y and class_id, x and y finite; the ids are unique."""

    _object, _types = GroundTruthObject, field_types(GroundTruthObject)

    def __post_init__(self):
        if not all(map(math.isfinite, self.x.tolist() + self.y.tolist())):  # on tens of objects, cheaper than numpy
            raise ValueError("x and y must be finite")
        if len(set(self.gt_id.tolist())) != len(self.gt_id):
            raise ValueError(f"frame {self.frame_index}: duplicate ground-truth ids")


class PredictedFrame(Frame):
    """Columns track_id, x, y, class_id and confidence, x and y finite; a track id may repeat."""

    _object, _types = PredictedObject, field_types(PredictedObject)

    def __post_init__(self):
        if not all(map(math.isfinite, self.x.tolist() + self.y.tolist())):
            raise ValueError("x and y must be finite")
        if not all(0 <= confidence < math.inf for confidence in self.confidence.tolist()):
            raise ValueError("confidence must be finite and non-negative")


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


_PAIR_BUDGET = 1 << 14  # pairs built at once, unless one ground-truth row has more


def _stack(frames: Sequence[Frame], kind: type) -> List[np.ndarray]:
    """The rows of a sequence of frames of type kind, as the frame number of
    each row, then one column per field (typed, for no frames, by an empty frame)."""
    rows = [np.repeat(np.arange(len(frames)), [len(frame.x) for frame in frames])]
    return rows + [np.concatenate(columns) for columns in zip(kind(0).columns, *(frame.columns for frame in frames))]


def _prepare(gts, preds, num_frames: int, dist_threshold: float):
    """Each frame's (gt ids, track ids, candidate pairs as {(gt index, pred
    index): distance} in (d2, gt index, pred index) order), from _stack
    columns. A candidate pair is same-class with d2 = dx * dx + dy * dy <=
    dist_threshold^2 in float64. The pairs of each gt row with its frame's
    predictions are built in numpy passes over batches of gt rows (at most
    _PAIR_BUDGET pairs, or one row), gt-major; the candidates are then
    ordered by frame and stably by d2."""
    if not (dist_threshold > 0):
        raise ValueError("dist_threshold must be positive")
    (g_frame, g_id, gx, gy, g_class), (p_frame, p_id, px, py, p_class) = gts, preds[:5]
    g_count, p_count = np.bincount(g_frame, minlength=num_frames), np.bincount(p_frame, minlength=num_frames)
    g_start, p_start = np.cumsum(g_count) - g_count, np.cumsum(p_count) - p_count
    reps = p_count[g_frame]  # each gt row pairs with every prediction of its frame
    pair_end = np.cumsum(reps)
    pair_start = pair_end - reps
    candidates = [(np.empty(0, int), np.empty(0, int), np.empty(0))]
    a = 0
    while a < len(reps):
        b = max(a + 1, int(np.searchsorted(pair_end, pair_start[a] + _PAIR_BUDGET, "right")))
        gi = np.repeat(np.arange(a, b), reps[a:b])
        pj = np.arange(pair_start[a], pair_end[b - 1]) - np.repeat(pair_start[a:b] - p_start[g_frame[a:b]], reps[a:b])
        dx, dy = gx[gi] - px[pj], gy[gi] - py[pj]
        d2 = dx * dx + dy * dy
        near = np.flatnonzero(d2 <= dist_threshold * dist_threshold)
        near = near[g_class[gi[near]] == p_class[pj[near]]]
        candidates.append((gi[near], pj[near], d2[near]))
        a = b
    gi, pj, d2 = (np.concatenate(column) for column in zip(*candidates))
    order = np.lexsort((d2, g_frame[gi]))
    gi, pj, d2 = gi[order], pj[order], d2[order]
    pairs: List[Dict[Tuple[int, int], float]] = [{} for _ in range(num_frames)]
    keys = zip((gi - g_start[g_frame[gi]]).tolist(), (pj - p_start[p_frame[pj]]).tolist())
    for t, key, dist in zip(g_frame[gi].tolist(), keys, np.sqrt(d2).tolist()):
        pairs[t][key] = dist
    g_ids, p_ids = g_id.tolist(), p_id.tolist()
    return [(g_ids[g:g + m], p_ids[p:p + n], pairs[t])
            for t, (g, m, p, n) in enumerate(zip(g_start.tolist(), g_count.tolist(), p_start.tolist(), p_count.tolist()))]


def _match(frame, state, sticky: Mapping[int, int]):
    """One frame at one floor: (the matched pairs' values in match order,
    ids, sticky map on exit). pairs maps each candidate (gt index, pred
    index) to a value, the distance in _prepare's frames. state is (dropped
    flags, first kept index of each track id); dropped predictions take no
    part. Pass 1, ground truth in input order, keeps the remembered pair
    (sticky maps gt_id -> track id) when both are free and it is a candidate
    pair, which keeps the remembered id. Pass 2 takes the remaining pairs
    greedily; only its matches can change the map or count a switch. The
    map on entry is never modified, and is the exit map when none changed."""
    gt_ids, track_ids, pairs = frame
    dropped, first = state
    gt_taken, pred_taken = [False] * len(gt_ids), dropped.copy()
    matched, remembered = [], sticky.get
    if sticky:
        first_kept, value = first.get, pairs.get
        for i, gt_id in enumerate(gt_ids):
            j = first_kept(remembered(gt_id))
            found = None if j is None or pred_taken[j] else value((i, j))
            if found is not None:
                matched.append(found)
                gt_taken[i] = pred_taken[j] = True
    ids, exit_map = 0, sticky
    for (i, j), found in pairs.items():
        if gt_taken[i] or pred_taken[j]:
            continue
        matched.append(found)
        gt_taken[i] = pred_taken[j] = True
        gt_id, track_id = gt_ids[i], track_ids[j]
        if remembered(gt_id) != track_id:
            if exit_map is sticky:
                exit_map = dict(sticky)
            exit_map[gt_id] = track_id
            ids += gt_id in sticky  # a switch: a changed id that was remembered
    return matched, ids, exit_map


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
    preds = _stack([PredictedFrame(gt_frame.frame_index, pred_objects)], PredictedFrame)
    gt_ids, track_ids, pairs = _prepare(_stack([gt_frame], GroundTruthFrame), preds, 1, dist_threshold)[0]
    first = {track_id: j for j, track_id in reversed(list(enumerate(track_ids)))}
    frame = gt_ids, track_ids, {key: (*key, dist) for key, dist in pairs.items()}  # matched as (i, j, distance)
    matches, _, _ = _match(frame, ([False] * len(track_ids), first), sticky or {})
    gt_taken, pred_taken = {i for i, _, _ in matches}, {j for _, j, _ in matches}
    return FrameMatches(
        tuple((gt_ids[i], track_ids[j], d) for i, j, d in matches),
        tuple(t for j, t in enumerate(track_ids) if j not in pred_taken),
        tuple(g for i, g in enumerate(gt_ids) if i not in gt_taken),
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
    gts, preds = _stack(gt_frames, GroundTruthFrame), _stack(pred_frames, PredictedFrame)
    preds = [column[preds[-1] >= confidence_floor] for column in preds]  # a NaN floor keeps nothing
    preds[-1][:] = confidence_floor  # the kept ones, walked as one floor
    walk = _walk_floors(gts, preds, len(gt_frames), dist_threshold)
    _, ids, fp, fn, distances = next(walk, (None, 0, 0, len(gts[0]), ()))
    recall = (len(gts[0]) - fn) / len(gts[0]) if len(gts[0]) else 0.0
    return ErrorCounts(ids, fp, fn, recall, tuple(chain.from_iterable(distances)), confidence_floor)


def _group(columns: Sequence[np.ndarray], key: Iterable[int], groups: int):
    """The columns with their rows grouped by key (0 <= key < groups), each
    row keeping its order within its group, and the bounds of the groups."""
    key = np.fromiter(key, int, len(columns[0]))
    order = np.argsort(key, kind="stable")
    return [column[order] for column in columns], [0, *np.cumsum(np.bincount(key, minlength=groups)).tolist()]


def _walk_floors(gts, preds, num_frames: int, dist_threshold: float):
    """Yields (floor, ids, fp, fn, per-frame matched distances) at each floor of
    a sequence given as _stack columns, walked as the module docstring says."""
    frames = _prepare(gts, preds, num_frames, dist_threshold)
    confidence = preds[-1].tolist()
    floors = sorted(set(confidence), reverse=True)
    in_frame = np.arange(len(preds[0])) - np.searchsorted(preds[0], preds[0])  # each row's index in its frame
    rank = dict(zip(floors, range(len(floors))))
    rows, at = _group((preds[0], in_frame, preds[1]), map(rank.__getitem__, confidence), len(floors))
    kept_t, kept_j, kept_id = (column.tolist() for column in rows)  # frame, index, track id; by floor, then frame
    state = [([True] * len(track_ids), {}) for _, track_ids, _ in frames]  # _match's, nothing kept
    # Per frame, as of the previous floor (at first one above the highest,
    # where nothing is kept): sticky map on entry, ids, matched distances.
    entry: List[Mapping[int, int]] = [{}] * num_frames
    f_ids, f_dist, ids, matched = [0] * num_frames, [[]] * num_frames, 0, 0
    for floor, lo, hi in zip(floors, at, at[1:]):
        for t, j, track_id in zip(kept_t[lo:hi], kept_j[lo:hi], kept_id[lo:hi]):  # kept from this floor on
            dropped, first = state[t]
            dropped[j] = False
            if first.get(track_id, j) >= j:
                first[track_id] = j
        t = 0  # frames before t are settled at this floor
        for start in kept_t[lo:hi]:  # the frames this floor changes, ascending
            if start < t:  # already replayed on the way from an earlier one
                continue
            t, sticky = start, entry[start]
            while True:
                entry[t] = sticky
                dists, switches, sticky = _match(frames[t], state[t], sticky)
                ids, matched = ids + switches - f_ids[t], matched + len(dists) - len(f_dist[t])
                f_ids[t], f_dist[t] = switches, dists
                t += 1
                # Converged: the frames up to the next changed one repeat,
                # and that one starts from the map it started from before.
                if t == num_frames or sticky is entry[t] or sticky == entry[t]:
                    break
        yield floor, ids, hi - matched, len(gts[0]) - matched, list(f_dist)  # hi predictions kept


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
    floor with the highest value. Only the floors chosen sum their distances
    (num_gt - fn of them, so the mean is ErrorCounts.motp)."""
    steps = num_thresholds - 1
    amota_terms, amotp_terms = [], []  # one per threshold reached
    best_mota, best = 0.0, (0, 0, num_gt, 0.0, (), math.inf)
    for n, (floor, ids, fp, fn, distances) in enumerate(walk):
        recall, mota = (num_gt - fn) / num_gt, 1.0 - (ids + fp + fn) / num_gt
        if n == 0 or mota > best_mota:
            best_mota, best = mota, (ids, fp, fn, recall, distances, floor)
        while len(amota_terms) < steps and recall >= (len(amota_terms) + 1) / steps:
            errors = ErrorCounts(ids, fp, fn, recall, (), floor)  # all that motar reads
            amota_terms.append(motar(errors, (len(amota_terms) + 1) / steps, num_gt))
            amotp_terms.append(math.fsum(chain.from_iterable(distances)) / (num_gt - fn))
    best = ErrorCounts(*best[:4], tuple(chain.from_iterable(best[4])), best[5])
    return ClassMetrics(  # thresholds never reached add 0 to the sums
        amota=math.fsum(amota_terms) / steps, amotp=math.fsum(amotp_terms) / steps,
        motar=motar(best, best.recall, num_gt) if best.recall > 0 else 0.0,
        mota=best_mota, motp=best.motp, recall=best.recall, num_gt=num_gt)


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
    if isinstance(num_thresholds, bool) or not isinstance(num_thresholds, (int, np.integer)) or num_thresholds < 2:
        raise ValueError(f"num_thresholds must be an integer >= 2, got {num_thresholds!r}")
    num_thresholds = int(num_thresholds)
    _check_alignment(pred_frames, gt_frames)
    g_rows, p_rows = _stack(gt_frames, GroundTruthFrame), _stack(pred_frames, PredictedFrame)
    class_ids = sorted(set(g_rows[4].tolist()))
    if not class_ids:
        raise ValueError("ground truth contains no objects")
    code, per_class = dict(zip(class_ids, range(len(class_ids)))), {}
    (g_rows, g_at), (p_rows, p_at) = (_group(rows, map(code.get, rows[4].tolist(), repeat(len(code))), len(code) + 1)
                                      for rows in (g_rows, p_rows))  # a class absent from the ground truth last
    for k, class_id in enumerate(class_ids):  # one class's rows of the whole sequence at a time
        gts, preds = [c[g_at[k]:g_at[k + 1]] for c in g_rows], [c[p_at[k]:p_at[k + 1]] for c in p_rows]
        walk = _walk_floors(gts, preds, len(gt_frames), dist_threshold)
        per_class[class_id] = _class_metrics(walk, num_thresholds, len(gts[0]))
    fields = ("amota", "amotp", "motar", "mota", "motp", "recall")
    means = {f: math.fsum(getattr(m, f) for m in per_class.values()) / len(per_class) for f in fields}
    return MetricsReport(per_class, **means, num_thresholds=num_thresholds, num_gt=len(g_rows[0]))
