"""Brute-force reference implementations shared by the test suite.

Everything here is written with plain loops and its own projection math
(homogeneous 3x4 matrix) so that agreement with the library is a genuine
cross-check, not the same code twice. The one exception is
ReferenceTracker: it calls the library's association and fusion functions
and checks what the tracker builds around them (fusion write-back, track
lifecycle, snapshots), one object at a time; it turns each frame's
detection rows back into Detections (frame_detections) and its radar rows
into RadarPoints and pillars, and fuses through the object entry point
frustum_associate, off the tracker's array path. pairwise_cost and
optimal_assignment are the scalar association cost and the exhaustive
assignment that the greedy matcher and the sweep's assignment solver are
checked against. reference_match_frame, reference_count_sequence_errors
and reference_amota are the object-based matcher and the
one-replay-per-floor evaluation that the library's incremental floor walk
replaced; they share only the result types and motar with it.
reference_generate is the simulator with a scalar IoU per pair of objects
and one object built at a time; it shares the simulator's Philox streams,
so the two must agree on every field of every frame.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from fusetrack.association import AssociationResult, CostWeights, Detection, Track, greedy_associate
from fusetrack.fusion import PillarDims, PreliminaryDetection, RadarPoint, expand_pillars, frustum_associate
from fusetrack.geometry import image_to_vehicle, project_points
from fusetrack.metrics import (
    ClassMetrics,
    ErrorCounts,
    FrameMatches,
    GroundTruthFrame,
    GroundTruthObject,
    MetricsReport,
    PredictedFrame,
    PredictedObject,
    motar,
)
from fusetrack.simulator import (
    _CENTER,
    _CLUTTER,
    _CLUTTER_DEPTH_RANGE,
    _CLUTTER_SPEED_RANGE,
    _CONF,
    _DEPTH,
    _DISP,
    _DROPOUT,
    _RADAR_POS,
    _RADAR_VEL,
    _VEL,
    ScenarioConfig,
    Scene,
    _stream,
)
from fusetrack.tracker import FrameInput, FrameResult, TrackerConfig, TrackSnapshot


def pairwise_cost(det: Detection, trk: Track, weights: CostWeights) -> float:
    """Association cost between a detection and a track.

    Infinite across classes; otherwise
        alpha * ((du)^2 + (dv)^2) + beta * (dd)^2 + delta * ((dvx)^2 + (dvy)^2)
    on the raw center/depth/velocity differences (the displacement only
    shifts the gate, never the cost). A zero weight switches its term off,
    also where its square is +inf.
    """
    if det.class_id != trk.class_id:
        return math.inf
    # x * x as in cost_matrix: +inf on overflow, where float ** 2 raises.
    du, dv, dd, dvx, dvy = det.u - trk.u, det.v - trk.v, det.depth - trk.depth, det.vx - trk.vx, det.vy - trk.vy
    terms = ((weights.alpha, du * du + dv * dv), (weights.beta, dd * dd), (weights.delta, dvx * dvx + dvy * dvy))
    return sum(weight * term for weight, term in terms if weight)


_MAX_ASSIGNMENT_SIZE = 10


def matching_cost(cost: np.ndarray, pairs: Sequence[Tuple[int, int]]) -> float:
    """Exact total cost of a matching (order-independent fsum)."""
    return math.fsum(float(cost[i, j]) for i, j in pairs)


def optimal_assignment(cost_matrix) -> Tuple[float, Tuple[Tuple[int, int], ...]]:
    """Best injective detection-to-track matching of a cost matrix.

    Rows are detections, columns tracks. +inf marks a forbidden pair;
    unmatched rows and columns contribute nothing. "Best" means maximum
    number of matched pairs, and among those the minimum total cost.
    Returns (total cost, pairs sorted by detection index); ties are broken
    deterministically toward the lowest track index at each detection.

    The search is a dynamic program over track subsets that visits every
    feasible matching, so it is exact but limited to at most 10 detections
    and 10 tracks; it raises on larger inputs instead of degrading.
    """
    m = np.asarray(cost_matrix, dtype=float)
    if m.size == 0:
        return 0.0, ()
    if m.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    if np.isnan(m).any() or np.isneginf(m).any():
        raise ValueError("cost entries must be finite or +inf")
    n_det, n_trk = m.shape
    if n_det > _MAX_ASSIGNMENT_SIZE or n_trk > _MAX_ASSIGNMENT_SIZE:
        raise ValueError(
            f"exhaustive assignment is capped at {_MAX_ASSIGNMENT_SIZE}x{_MAX_ASSIGNMENT_SIZE}; "
            f"got {n_det}x{n_trk}"
        )

    # memo[(i, mask)] = best (pairs, cost) achievable for rows i.. with the
    # tracks in mask already taken. Lexicographic order: more pairs wins,
    # then lower cost.
    memo: Dict[Tuple[int, int], Tuple[int, float]] = {}

    def solve(i: int, mask: int) -> Tuple[int, float]:
        if i == n_det:
            return (0, 0.0)
        key = (i, mask)
        if key in memo:
            return memo[key]
        best = None
        for j in range(n_trk):
            if mask >> j & 1 or math.isinf(m[i, j]):
                continue
            sub_pairs, sub_cost = solve(i + 1, mask | (1 << j))
            cand = (sub_pairs + 1, m[i, j] + sub_cost)
            if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
                best = cand
        skip = solve(i + 1, mask)
        if best is None or (-skip[0], skip[1]) < (-best[0], best[1]):
            best = skip
        memo[key] = best
        return best

    solve(0, 0)

    # Walk the memo forward, re-testing options in the fixed order
    # "track 0, track 1, ..., skip" and taking the first that reproduces
    # the optimal value. Exact float equality holds because the same
    # arithmetic is replayed.
    pairs: List[Tuple[int, int]] = []
    mask = 0
    for i in range(n_det):
        target = memo[(i, mask)]
        chosen = None
        for j in range(n_trk):
            if mask >> j & 1 or math.isinf(m[i, j]):
                continue
            sub_pairs, sub_cost = solve(i + 1, mask | (1 << j))
            if (sub_pairs + 1, m[i, j] + sub_cost) == target:
                chosen = j
                break
        if chosen is not None:
            pairs.append((i, chosen))
            mask |= 1 << chosen
    return matching_cost(m, pairs), tuple(pairs)


def homogeneous_project(point, camera):
    """Project through K @ [R | t]; returns the raw homogeneous triple."""
    k = np.array(
        [
            [camera.fx, 0.0, camera.cx],
            [0.0, camera.fy, camera.cy],
            [0.0, 0.0, 1.0],
        ]
    )
    rt = np.hstack([camera.rotation, camera.translation.reshape(3, 1)])
    return k @ rt @ np.append(np.asarray(point, dtype=float), 1.0)


def brute_force_radar_association(dets, pillars, camera, depth_tolerance):
    """Index of the associated pillar per detection (None when empty).

    Restates the rule with explicit loops: a pillar is inside when its base
    depth sits in the window and any of base + 8 corners projects into the
    bbox; the smallest base depth wins, ties to the lowest input index.
    """
    chosen = []
    for det in dets:
        u_min, v_min, u_max, v_max = det.bbox2d
        d_lo = det.est_depth * (1.0 - depth_tolerance)
        d_hi = det.est_depth * (1.0 + depth_tolerance)
        best = None
        for idx, pillar in enumerate(pillars):
            b = pillar.base
            base_depth = homogeneous_project((b.x, b.y, b.z), camera)[2]
            if not (d_lo <= base_depth <= d_hi):
                continue
            points = [(b.x, b.y, b.z)]
            for sx in (-0.5, 0.5):
                for sy in (-0.5, 0.5):
                    for dz in (0.0, pillar.dims.height_z):
                        points.append(
                            (
                                b.x + sx * pillar.dims.depth_x,
                                b.y + sy * pillar.dims.width_y,
                                b.z + dz,
                            )
                        )
            inside = False
            for p in points:
                h = homogeneous_project(p, camera)
                if h[2] <= 0:
                    continue
                u, v = h[0] / h[2], h[1] / h[2]
                if u_min <= u <= u_max and v_min <= v <= v_max:
                    inside = True
                    break
            if inside and (best is None or base_depth < best[0]):
                best = (base_depth, idx)
        chosen.append(None if best is None else best[1])
    return chosen


def random_radar_scene(rng, camera, max_pillars=50):
    """A random fusion instance: detections plus a pillar cloud biased so a
    healthy fraction of pillars lands inside or near the frustums."""
    dets = []
    for _ in range(int(rng.integers(1, 6))):
        w = rng.uniform(20, 180)
        h = rng.uniform(20, 140)
        u0 = rng.uniform(0, camera.image_width - w)
        v0 = rng.uniform(0, camera.image_height - h)
        dets.append(
            PreliminaryDetection(
                (float(u0), float(v0), float(u0 + w), float(v0 + h)),
                est_depth=float(rng.uniform(6, 60)),
                class_id=int(rng.integers(0, 2)),
                confidence=float(rng.uniform(0.3, 1.0)),
            )
        )
    points = []
    for _ in range(int(rng.integers(0, max_pillars + 1))):
        if dets and rng.random() < 0.7:
            det = dets[int(rng.integers(0, len(dets)))]
            u = rng.uniform(det.bbox2d[0] - 30, det.bbox2d[2] + 30)
            v = rng.uniform(det.bbox2d[1] - 30, det.bbox2d[3] + 30)
            depth = det.est_depth * rng.uniform(0.6, 1.4)
            pos = image_to_vehicle(float(u), float(v), float(depth), camera)
        else:
            pos = rng.uniform([-10.0, -30.0, -2.0], [70.0, 30.0, 4.0])
        points.append(
            RadarPoint(float(pos[0]), float(pos[1]), float(pos[2]), float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
        )
    dims = PillarDims(
        width_y=float(rng.uniform(0.2, 1.0)),
        height_z=float(rng.uniform(0.5, 2.5)),
        depth_x=float(rng.uniform(0.2, 1.0)),
    )
    return dets, expand_pillars(points, dims)


# recount_metrics is guarded to tiny scenes so that it stays obviously
# correct rather than fast.
_MAX_FRAMES = 10
_MAX_OBJECTS = 4


def _frame_matching(preds, gts, gate2, taken_pred, taken_gt):
    """Re-derive one frame's greedy matching by brute repeated scans.

    preds/gts are lists of (index-stable) objects; indices already in
    taken_pred/taken_gt are skipped. Returns a list of (gt_index,
    pred_index, squared distance). Comparisons happen on squared distances,
    identical to the production matcher's arithmetic.
    """
    taken_gt = set(taken_gt)
    taken_pred = set(taken_pred)
    out = []
    while True:
        best = None
        for gi, gt in enumerate(gts):
            if gi in taken_gt:
                continue
            for pj, pred in enumerate(preds):
                if pj in taken_pred or pred.class_id != gt.class_id:
                    continue
                dx = gt.x - pred.x
                dy = gt.y - pred.y
                d2 = dx * dx + dy * dy
                if d2 > gate2:
                    continue
                key = (d2, gi, pj)
                if best is None or key < best:
                    best = key
        if best is None:
            return out
        d2, gi, pj = best
        taken_gt.add(gi)
        taken_pred.add(pj)
        out.append((gi, pj, d2))


def recount_metrics(
    pred_frames: Sequence[PredictedFrame],
    gt_frames: Sequence[GroundTruthFrame],
    confidence_floor: float,
    dist_threshold: float,
) -> ErrorCounts:
    """Independent recount of sequence-level IDS/FP/FN/recall.

    Follows the same published protocol as metrics.count_sequence_errors --
    confidence floor, class gate, distance gate, sticky preference for the
    remembered track id, then greedy ascending-distance matching with
    (distance, gt index, pred index) ordering -- but with none of that
    module's code: matching is a repeated global-minimum scan and identity
    switches are counted at the end from per-object match histories.

    Guarded to tiny scenes (<= 10 frames, <= 4 objects per frame per side)
    so it stays obviously-correct rather than fast.
    """
    if len(pred_frames) != len(gt_frames):
        raise ValueError("sequences differ in length")
    if len(gt_frames) > _MAX_FRAMES:
        raise ValueError(f"recount is capped at {_MAX_FRAMES} frames")
    for p, g in zip(pred_frames, gt_frames):
        if p.frame_index != g.frame_index:
            raise ValueError("misaligned frame indices")
        if len(p.objects) > _MAX_OBJECTS or len(g.objects) > _MAX_OBJECTS:
            raise ValueError(f"recount is capped at {_MAX_OBJECTS} objects per frame")
    if not (dist_threshold > 0):
        raise ValueError("dist_threshold must be positive")

    gate2 = dist_threshold * dist_threshold
    history: Dict[int, List[int]] = {}  # gt_id -> matched track ids, in time order
    remembered: Dict[int, int] = {}
    fp = fn = 0
    total_gt = 0
    distances: List[float] = []

    for pred_frame, gt_frame in zip(pred_frames, gt_frames):
        gts = list(gt_frame.objects)
        preds = [p for p in pred_frame.objects if p.confidence >= confidence_floor]
        total_gt += len(gts)

        matched_gt = set()
        matched_pred = set()
        # Sticky pass, simulated directly: first appearance of the
        # remembered id wins; ground truth is visited in input order.
        for gi, gt in enumerate(gts):
            want = remembered.get(gt.gt_id)
            if want is None:
                continue
            pj = None
            for idx, pred in enumerate(preds):
                if idx not in matched_pred and pred.track_id == want:
                    pj = idx
                    break
            if pj is None:
                continue
            pred = preds[pj]
            if pred.class_id != gt.class_id:
                continue
            dx = gt.x - pred.x
            dy = gt.y - pred.y
            d2 = dx * dx + dy * dy
            if d2 <= gate2:
                matched_gt.add(gi)
                matched_pred.add(pj)
                history.setdefault(gt.gt_id, []).append(pred.track_id)
                remembered[gt.gt_id] = pred.track_id
                distances.append(math.sqrt(d2))

        rest = _frame_matching(preds, gts, gate2, matched_pred, matched_gt)
        for gi, pj, d2 in rest:
            gt = gts[gi]
            pred = preds[pj]
            matched_gt.add(gi)
            matched_pred.add(pj)
            history.setdefault(gt.gt_id, []).append(pred.track_id)
            remembered[gt.gt_id] = pred.track_id
            distances.append(math.sqrt(d2))

        fp += len(preds) - len(matched_pred)
        fn += len(gts) - len(matched_gt)

    ids = 0
    for track_ids in history.values():
        for prev, curr in zip(track_ids, track_ids[1:]):
            if prev != curr:
                ids += 1

    recall = (total_gt - fn) / total_gt if total_gt else 0.0
    return ErrorCounts(ids, fp, fn, recall, tuple(distances), confidence_floor)


def reference_match_frame(
    pred_objects: Sequence[PredictedObject],
    gt_frame: GroundTruthFrame,
    dist_threshold: float,
    sticky: Optional[Dict[int, int]] = None,
) -> FrameMatches:
    """The object-based matcher that fusetrack.metrics.match_frame replaced:
    pass 1 keeps remembered pairs, pass 2 sorts the (d2, gt index, pred
    index) triples of the remaining gated same-class pairs and takes them
    greedily."""
    if not (dist_threshold > 0):
        raise ValueError("dist_threshold must be positive")
    sticky = sticky or {}
    gts = gt_frame.objects
    gate2 = dist_threshold * dist_threshold

    def dist2(gt, pred):
        dx = gt.x - pred.x
        dy = gt.y - pred.y
        return dx * dx + dy * dy

    matches: List[Tuple[int, int, float]] = []
    gt_taken = [False] * len(gts)
    pred_taken = [False] * len(pred_objects)
    pred_by_id: Dict[int, int] = {}
    for j, p in enumerate(pred_objects):
        pred_by_id.setdefault(p.track_id, j)

    for i, gt in enumerate(gts):
        want = sticky.get(gt.gt_id)
        if want is None:
            continue
        j = pred_by_id.get(want)
        if j is None or pred_taken[j]:
            continue
        pred = pred_objects[j]
        if pred.class_id != gt.class_id:
            continue
        d2 = dist2(gt, pred)
        if d2 <= gate2:
            matches.append((gt.gt_id, pred.track_id, math.sqrt(d2)))
            gt_taken[i] = True
            pred_taken[j] = True

    pairs = []
    for i, gt in enumerate(gts):
        if gt_taken[i]:
            continue
        for j, pred in enumerate(pred_objects):
            if pred_taken[j] or pred.class_id != gt.class_id:
                continue
            d2 = dist2(gt, pred)
            if d2 <= gate2:
                pairs.append((d2, i, j))
    pairs.sort()
    for d2, i, j in pairs:
        if gt_taken[i] or pred_taken[j]:
            continue
        matches.append((gts[i].gt_id, pred_objects[j].track_id, math.sqrt(d2)))
        gt_taken[i] = True
        pred_taken[j] = True

    fp = tuple(p.track_id for j, p in enumerate(pred_objects) if not pred_taken[j])
    fn = tuple(g.gt_id for i, g in enumerate(gts) if not gt_taken[i])
    return FrameMatches(tuple(matches), fp, fn)


def reference_count_sequence_errors(pred_frames, gt_frames, confidence_floor, dist_threshold) -> ErrorCounts:
    """The sequence replay that fusetrack.metrics.count_sequence_errors
    replaced: reference_match_frame on each frame's kept predictions."""
    if len(pred_frames) != len(gt_frames):
        raise ValueError("prediction and ground-truth sequences differ in length")
    last_id: Dict[int, int] = {}
    ids = fp = fn = 0
    distances: List[float] = []
    total_gt = 0
    for pred_frame, gt_frame in zip(pred_frames, gt_frames):
        if pred_frame.frame_index != gt_frame.frame_index:
            raise ValueError("misaligned frames")
        total_gt += len(gt_frame.objects)
        kept = [p for p in pred_frame.objects if p.confidence >= confidence_floor]
        result = reference_match_frame(kept, gt_frame, dist_threshold, sticky=last_id)
        for gt_id, track_id, dist in result.matches:
            if gt_id in last_id and last_id[gt_id] != track_id:
                ids += 1
            last_id[gt_id] = track_id
            distances.append(dist)
        fp += len(result.false_positive_ids)
        fn += len(result.false_negative_ids)
    recall = (total_gt - fn) / total_gt if total_gt else 0.0
    return ErrorCounts(ids, fp, fn, recall, tuple(distances), confidence_floor)


def reference_amota(pred_frames, gt_frames, num_thresholds=40, dist_threshold=2.0) -> MetricsReport:
    """The per-floor evaluation that fusetrack.metrics.amota replaced: one
    full reference_count_sequence_errors replay per class and distinct
    confidence, then the recall ladder and the best-MOTA floor."""
    if num_thresholds < 2:
        raise ValueError("num_thresholds must be >= 2")
    class_ids = sorted({o.class_id for g in gt_frames for o in g.objects})
    if not class_ids:
        raise ValueError("ground truth contains no objects")
    per_class: Dict[int, ClassMetrics] = {}
    for class_id in class_ids:
        gt_c = [GroundTruthFrame(g.frame_index, tuple(o for o in g.objects if o.class_id == class_id)) for g in gt_frames]
        pred_c = [PredictedFrame(p.frame_index, tuple(o for o in p.objects if o.class_id == class_id)) for p in pred_frames]
        num_gt = sum(len(g.objects) for g in gt_c)
        floors = sorted({o.confidence for p in pred_c for o in p.objects}, reverse=True)
        by_floor = {f: reference_count_sequence_errors(pred_c, gt_c, f, dist_threshold) for f in floors}

        steps = num_thresholds - 1
        amota_terms: List[float] = []
        amotp_terms: List[float] = []
        for k in range(1, steps + 1):
            r = k / steps
            chosen = next((by_floor[f] for f in floors if by_floor[f].recall >= r), None)
            amota_terms.append(0.0 if chosen is None else motar(chosen, r, num_gt))
            amotp_terms.append(0.0 if chosen is None else chosen.motp)
        best = None
        for f in floors:
            counts = by_floor[f]
            key = (1.0 - (counts.ids + counts.fp + counts.fn) / num_gt, f)
            if best is None or key > best[0]:
                best = (key, counts)
        if best is None:
            best = ((0.0, math.inf), ErrorCounts(0, 0, num_gt, 0.0, (), math.inf))
        (best_mota, _), best_counts = best
        per_class[class_id] = ClassMetrics(
            amota=math.fsum(amota_terms) / steps,
            amotp=math.fsum(amotp_terms) / steps,
            motar=motar(best_counts, best_counts.recall, num_gt) if best_counts.recall > 0 else 0.0,
            mota=best_mota,
            motp=best_counts.motp,
            recall=best_counts.recall,
            num_gt=num_gt,
        )

    def mean(values):
        return math.fsum(values) / len(values)

    return MetricsReport(
        per_class=per_class,
        amota=mean([m.amota for m in per_class.values()]),
        amotp=mean([m.amotp for m in per_class.values()]),
        motar=mean([m.motar for m in per_class.values()]),
        mota=mean([m.mota for m in per_class.values()]),
        motp=mean([m.motp for m in per_class.values()]),
        recall=mean([m.recall for m in per_class.values()]),
        num_thresholds=num_thresholds,
        num_gt=sum(len(g.objects) for g in gt_frames),
    )


def random_micro_scene(rng):
    """Tiny tracking scene for recount cross-checks: <= 10 frames, <= 4
    objects per frame per side, with jittered matches, dropouts, clutter,
    and occasional mid-sequence track-id swaps to exercise IDS counting.

    rng is a random.Random. Returns (pred_frames, gt_frames).
    """
    from fusetrack.metrics import (
        GroundTruthFrame,
        GroundTruthObject,
        PredictedFrame,
        PredictedObject,
    )

    n_frames = rng.randrange(1, 11)
    n_objects = rng.randrange(1, 5)
    objects = []
    for gt_id in range(n_objects):
        objects.append(
            {
                "gt_id": gt_id,
                "x": rng.uniform(-8, 8),
                "y": rng.uniform(-8, 8),
                "vx": rng.uniform(-1.5, 1.5),
                "vy": rng.uniform(-1.5, 1.5),
                "class_id": rng.randrange(2),
                "track_id": 100 + gt_id,
            }
        )
    pred_frames, gt_frames = [], []
    for k in range(n_frames):
        gts, preds = [], []
        for obj in objects:
            x = obj["x"] + obj["vx"] * k
            y = obj["y"] + obj["vy"] * k
            gts.append(GroundTruthObject(obj["gt_id"], x, y, obj["class_id"]))
            if rng.random() < 0.15:  # swap reported identity mid-sequence
                obj["track_id"] += 10
            if rng.random() < 0.8:  # dropout otherwise
                preds.append(
                    PredictedObject(
                        obj["track_id"],
                        x + rng.uniform(-2.5, 2.5),
                        y + rng.uniform(-2.5, 2.5),
                        obj["class_id"] if rng.random() < 0.9 else 1 - obj["class_id"],
                        rng.uniform(0.3, 1.0),
                    )
                )
        while len(preds) < 4 and rng.random() < 0.25:  # clutter
            used = {p.track_id for p in preds}
            tid = 900 + rng.randrange(50)
            while tid in used:
                tid = 900 + rng.randrange(50)
            preds.append(
                PredictedObject(
                    tid,
                    rng.uniform(-12, 12),
                    rng.uniform(-12, 12),
                    rng.randrange(2),
                    rng.uniform(0.3, 1.0),
                )
            )
        gt_frames.append(GroundTruthFrame(k, tuple(gts)))
        pred_frames.append(PredictedFrame(k, tuple(preds)))
    return pred_frames, gt_frames


def random_scored_scene(rng, max_frames=24, max_per_frame=None):
    """Seeded evaluation scene whose predictions carry their own scores.

    rng is a random.Random. Positions and offsets lie on a 0.25 m grid, so
    distances are exact and some predictions sit exactly on the 2 m gate.
    Scores come from a small set (ties inside and across frames) or from two
    decimals. The scene mixes empty frames on either side, mid-sequence
    track-id swaps, a second prediction reusing a track id in the same
    frame, clutter, and predictions of class 2, which the ground truth
    never holds. max_per_frame caps each side of a frame (for
    recount_metrics). Returns (pred_frames, gt_frames).
    """
    cap = max_per_frame or 1000
    n_frames = rng.randrange(1, max_frames + 1)
    coarse = rng.random() < 0.5

    def score():
        return rng.choice((0.25, 0.5, 0.75, 1.0)) if coarse else round(rng.uniform(0.05, 1.0), 2)

    def grid(lo, hi):
        return rng.randrange(int(lo * 4), int(hi * 4) + 1) / 4

    objects = [
        {"gt_id": g, "x": grid(-6, 6), "y": grid(-6, 6), "vx": grid(-0.5, 0.5), "vy": grid(-0.5, 0.5),
         "class_id": rng.randrange(2), "track_id": 100 + g}
        for g in range(rng.randrange(1, min(cap, 6) + 1))
    ]
    pred_frames, gt_frames = [], []
    for k in range(n_frames):
        if len(objects) > 1 and rng.random() < 0.15:  # two tracks swap identities
            a, b = rng.sample(objects, 2)
            a["track_id"], b["track_id"] = b["track_id"], a["track_id"]
        gts, preds = [], []
        no_gt, no_pred = rng.random() < 0.1, rng.random() < 0.1
        for obj in objects:
            x, y = obj["x"] + obj["vx"] * k, obj["y"] + obj["vy"] * k
            if not no_gt and rng.random() < 0.9:
                gts.append(GroundTruthObject(obj["gt_id"], x, y, obj["class_id"]))
            if no_pred or rng.random() < 0.2:
                continue
            dx, dy = rng.choice(((2.0, 0.0), (0.0, -2.0), (2.25, 0.0), (grid(-1, 1), grid(-1, 1))))
            cls = obj["class_id"] if rng.random() < 0.9 else 2
            preds.append(PredictedObject(obj["track_id"], x + dx, y + dy, cls, score()))
        if preds and rng.random() < 0.2:  # the same track id twice in one frame
            twin = rng.choice(preds)
            copy = PredictedObject(twin.track_id, twin.x + grid(-2, 2), twin.y, twin.class_id, score())
            preds.insert(rng.randrange(len(preds) + 1), copy)
        if not no_pred and rng.random() < 0.3:  # clutter
            preds.append(PredictedObject(900 + rng.randrange(5), grid(-8, 8), grid(-8, 8), rng.randrange(3), score()))
        gt_frames.append(GroundTruthFrame(k, tuple(gts[:cap])))
        pred_frames.append(PredictedFrame(k, tuple(preds[:cap])))
    return pred_frames, gt_frames


def frame_detections(frame: FrameInput) -> List[Detection]:
    """The frame's detections as Detection objects, one per batch row."""
    return [Detection(*row) for row in frame.detections.rows()]


class ReferenceTracker:
    """The tracker step written object by object: one mutable Track per
    live track, one Detection per kept detection, and the snapshots built
    from them. Same contract as fusetrack.tracker.Tracker (see its module
    docstring), used to check the columnar step bit for bit."""

    def __init__(self, config: TrackerConfig = TrackerConfig(), camera=None, record_association: bool = False):
        if config.fusion_enabled and camera is None:
            raise ValueError("fusion requires a camera model")
        self.config = config
        self.camera = camera
        self.record_association = record_association
        self.last_association = None
        self._tracks: List[Track] = []
        self._next_id = 1
        self._last_frame_index: Optional[int] = None
        self._last_timestamp: Optional[float] = None

    @property
    def live_tracks(self) -> Tuple[Track, ...]:
        return tuple(replace(t) for t in self._tracks)

    def _check_order(self, frame: FrameInput):
        if self._last_frame_index is not None:
            if frame.frame_index <= self._last_frame_index:
                raise ValueError(f"frame {frame.frame_index} is not after frame {self._last_frame_index}")
            if frame.timestamp < self._last_timestamp:
                raise ValueError("timestamps must be non-decreasing")
        self._last_frame_index = frame.frame_index
        self._last_timestamp = frame.timestamp

    def _fuse(self, dets, radar):
        out = list(dets)
        flags = [False] * len(dets)
        boxed = [(i, d) for i, d in enumerate(dets) if d.bbox is not None]
        if not boxed or not len(radar):
            return out, flags
        pillars = expand_pillars([RadarPoint(*row) for row in radar.tolist()], self.config.pillar_dims)
        prelim = [PreliminaryDetection(d.bbox, d.depth, d.class_id) for _, d in boxed]
        matches = frustum_associate(prelim, pillars, self.camera, self.config.depth_tolerance)
        for (i, det), match in zip(boxed, matches):
            if match is None:
                continue
            out[i] = replace(det, depth=match.depth, vx=match.vx, vy=match.vy)
            flags[i] = True
        return out, flags

    def step(self, frame: FrameInput) -> FrameResult:
        self._check_order(frame)
        cfg = self.config

        kept = [d for d in frame_detections(frame) if d.confidence >= cfg.min_confidence]
        if cfg.fusion_enabled and kept:
            kept, fused_flags = self._fuse(kept, frame.radar)
        else:
            fused_flags = [False] * len(kept)

        result: AssociationResult = greedy_associate(kept, self._tracks, cfg.weights)
        if self.record_association:
            self.last_association = (tuple(kept), tuple(replace(t) for t in self._tracks), result)
        by_id: Dict[int, Track] = {t.track_id: t for t in self._tracks}

        reported: List[Tuple[int, Detection, bool]] = []  # (track_id, det, fused)
        for det_idx, track_id in result.matches:
            det = kept[det_idx]
            trk = by_id[track_id]
            trk.u, trk.v, trk.depth = det.u, det.v, det.depth
            trk.vx, trk.vy = det.vx, det.vy
            trk.confidence = det.confidence
            trk.last_seen = frame.frame_index
            trk.age += 1
            trk.misses = 0
            trk.fused = fused_flags[det_idx]
            reported.append((track_id, det, trk.fused))

        for det_idx in result.unmatched_detections:
            det = kept[det_idx]
            trk = Track(
                track_id=self._next_id,
                u=det.u,
                v=det.v,
                depth=det.depth,
                vx=det.vx,
                vy=det.vy,
                class_id=det.class_id,
                confidence=det.confidence,
                last_seen=frame.frame_index,
                age=1,
                misses=0,
                fused=fused_flags[det_idx],
            )
            self._next_id += 1
            self._tracks.append(trk)
            reported.append((trk.track_id, det, trk.fused))

        survivors: List[Track] = []
        matched_ids = {tid for tid, _, _ in reported}
        for trk in self._tracks:
            if trk.track_id in matched_ids:
                survivors.append(trk)
                continue
            trk.misses += 1
            trk.age += 1
            if trk.misses < cfg.max_age:
                survivors.append(trk)
        self._tracks = survivors

        live_by_id = {t.track_id: t for t in self._tracks}
        reported.sort(key=lambda r: r[0])
        positions: List[Optional[Tuple[float, float, float]]] = [None] * len(reported)
        if self.camera is not None and reported:
            cam = self.camera
            uvd = np.array([(det.u, det.v, det.depth) for _, det, _ in reported])
            d_cam = np.empty((len(reported), 3))
            d_cam[:, 0] = (uvd[:, 0] - cam.cx) / cam.fx
            d_cam[:, 1] = (uvd[:, 1] - cam.cy) / cam.fy
            d_cam[:, 2] = 1.0
            p_veh = (d_cam * uvd[:, 2:3] - cam.translation) @ cam.rotation
            positions = [tuple(row) for row in p_veh]
        snapshots = []
        for (track_id, det, was_fused), position in zip(reported, positions):
            trk = live_by_id[track_id]
            snapshots.append(
                TrackSnapshot(
                    track_id=track_id,
                    u=det.u,
                    v=det.v,
                    depth=det.depth,
                    vx=det.vx,
                    vy=det.vy,
                    class_id=det.class_id,
                    confidence=det.confidence,
                    age=trk.age,
                    fused=was_fused,
                    position=position,
                )
            )
        return FrameResult(frame.frame_index, frame.timestamp, tuple(snapshots))


def dense_frames(rng, camera, num_frames, cols=25, rows=20):
    """The latency load of the acceptance suite with its own seed: cols x
    rows boxed detections on a 32 x 22 px grid with unit jitter, 3 classes,
    fresh depths and velocities every frame, and a radar point under every
    8th of the first 480 detections."""
    grid_u, grid_v = [
        g.ravel() for g in np.meshgrid((np.arange(cols) + 0.5) * 32.0, (np.arange(rows) + 0.5) * 22.0)
    ]
    n = cols * rows
    classes = np.arange(n) % 3
    confidence = rng.uniform(0.5, 1.0, n)
    frames = []
    for k in range(num_frames):
        u = grid_u + rng.normal(0.0, 1.0, n)
        v = grid_v + rng.normal(0.0, 1.0, n)
        depth = rng.uniform(10.0, 70.0, n)
        vx = rng.uniform(-5.0, 5.0, n)
        vy = rng.uniform(-5.0, 5.0, n)
        dets = tuple(
            Detection(
                float(u[i]), float(v[i]), float(depth[i]), float(vx[i]), float(vy[i]), int(classes[i]),
                float(confidence[i]),
                bbox=(float(u[i] - 10.0), float(v[i] - 8.0), float(u[i] + 10.0), float(v[i] + 8.0)),
            )
            for i in range(n)
        )
        radar = []
        for i in range(0, min(n, 480), 8):
            pos = image_to_vehicle(float(u[i]), float(v[i]), float(depth[i]), camera)
            radar.append(
                RadarPoint(float(pos[0]), float(pos[1]), float(pos[2]), float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            )
        frames.append(FrameInput(k, 0.1 * k, dets, tuple(radar)))
    return frames


def random_tracking_frames(rng, camera, num_frames, max_objects=12):
    """A random stream for the tracker: drifting objects with noisy
    detections, clutter, exact duplicates (tied centers and confidences),
    detections with and without boxes, radar points on and off the objects,
    empty frames, and gaps in the frame index."""
    n = int(rng.integers(1, max_objects + 1))
    pos = rng.uniform([40.0, 40.0], [760.0, 408.0], (n, 2))
    vel = rng.uniform(-12.0, 12.0, (n, 2))
    classes = rng.integers(0, 3, n)
    depth = rng.uniform(8.0, 60.0, n)
    frames = []
    index, stamp = 0, 0.0
    for _ in range(num_frames):
        index += int(rng.choice([1, 1, 1, 2, 5]))
        stamp += float(rng.choice([0.0, 0.1, 0.1, 0.3]))
        pos += vel
        dets, radar = [], []
        if rng.random() > 0.15:  # otherwise an empty frame
            for i in range(n):
                if rng.random() < 0.2:
                    continue
                u, v = pos[i] + rng.normal(0.0, 2.0, 2)
                d = float(depth[i] * rng.uniform(0.9, 1.1))
                bbox = None if rng.random() < 0.3 else (float(u - 15), float(v - 12), float(u + 15), float(v + 12))
                det = Detection(
                    float(u), float(v), d, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), int(classes[i]),
                    float(rng.choice([0.25, 0.5, 0.75, rng.uniform(0.0, 1.0)])),
                    du=float(vel[i, 0] + rng.normal(0.0, 1.0)), dv=float(vel[i, 1] + rng.normal(0.0, 1.0)), bbox=bbox,
                )
                dets.append(det)
                if rng.random() < 0.15:
                    dets.append(det)
                if rng.random() < 0.6:
                    p = image_to_vehicle(float(u), float(v), d * float(rng.uniform(0.85, 1.15)), camera)
                    radar.append(RadarPoint(float(p[0]), float(p[1]), float(p[2]), float(rng.uniform(-5, 5)), 0.0))
            for _ in range(int(rng.integers(0, 3))):
                u, v = rng.uniform([0.0, 0.0], [800.0, 448.0])
                dets.append(Detection(float(u), float(v), float(rng.uniform(5, 70)), 0.0, 0.0, int(rng.integers(0, 3)), float(rng.uniform(0, 1))))
        frames.append(FrameInput(index, stamp, tuple(dets), tuple(radar)))
    return frames


def _iou(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def reference_generate(cfg: ScenarioConfig) -> Scene:
    """The simulator object by object: one scalar IoU per pair of boxed
    objects and one constructor call per ground-truth object, radar point
    and detection, from numpy scalars."""
    n_obj = len(cfg.objects)
    camera = cfg.camera
    for idx, obj in enumerate(cfg.objects):
        depth0 = float(camera.rotation[2] @ np.asarray(obj.position) + camera.translation[2])
        if depth0 <= 0:
            raise ValueError(f"object {idx} starts behind the camera")

    # Per-object confidence, fixed for the whole sequence (sequence-level
    # stream so a noise-free static scene emits identical detections).
    confidences = _stream(cfg.seed, 0, _CONF).uniform(0.5, 1.0, size=n_obj)

    # Object states as columns, and the offsets of the four outer box corners
    # (y +- w/2, z +- h/2 around the center) of every object.
    position = np.array([obj.position for obj in cfg.objects], dtype=float).reshape(n_obj, 3)
    velocity = np.array([obj.velocity for obj in cfg.objects], dtype=float).reshape(n_obj, 3)
    half = np.array([obj.size for obj in cfg.objects], dtype=float).reshape(n_obj, 2) * 0.5
    corner_offsets = np.zeros((n_obj, 4, 3))
    corner_offsets[:, :, 1] = half[:, [0]] * (-1.0, -1.0, 1.0, 1.0)
    corner_offsets[:, :, 2] = half[:, [1]] * (-1.0, 1.0, -1.0, 1.0)

    clutter_bounds = (
        (0.0, camera.image_width),
        (0.0, camera.image_height),
        _CLUTTER_DEPTH_RANGE,
        _CLUTTER_SPEED_RANGE,
        _CLUTTER_SPEED_RANGE,
    )
    pts = cfg.radar.points_per_object
    frames: List[FrameInput] = []
    gt_frames: List[GroundTruthFrame] = []
    provenance: List[Tuple[int, ...]] = []

    for k in range(cfg.num_frames):
        t = k * cfg.frame_dt
        center_noise = _stream(cfg.seed, k, _CENTER).standard_normal((n_obj, 2)) * cfg.noise.center_px
        depth_noise = _stream(cfg.seed, k, _DEPTH).standard_normal(n_obj) * cfg.noise.depth_m
        vel_noise = _stream(cfg.seed, k, _VEL).standard_normal((n_obj, 2)) * cfg.noise.velocity_mps
        disp_noise = _stream(cfg.seed, k, _DISP).standard_normal((n_obj, 2)) * cfg.noise.displacement_px
        dropout_draw = _stream(cfg.seed, k, _DROPOUT).uniform(size=n_obj)
        radar_pos_noise = _stream(cfg.seed, k, _RADAR_POS).standard_normal((n_obj, pts, 2)) * cfg.radar.position_sigma_m
        radar_vel_noise = _stream(cfg.seed, k, _RADAR_VEL).standard_normal((n_obj, pts, 2)) * cfg.radar.velocity_sigma_mps
        clutter_rng = _stream(cfg.seed, k, _CLUTTER)

        # One projection per frame: the centers, the box corners and the
        # previous-frame centers of every object.
        centers = position + velocity * t
        corners = centers[:, None, :] + corner_offsets
        previous = position + velocity * (t - cfg.frame_dt)
        uv, depth, in_image = project_points(np.concatenate([centers, corners.reshape(-1, 3), previous]), camera)
        center_uv, center_depth = uv[:n_obj], depth[:n_obj]
        corner_uv = uv[n_obj : 5 * n_obj].reshape(n_obj, 4, 2)
        has_previous = ~np.isnan(uv[5 * n_obj :, 0])
        displacement = center_uv - uv[5 * n_obj :]
        # True image box of a visible object: the bounding rectangle of its
        # four outer corners; None when any corner falls behind the camera
        # (NaN corners make the minimum NaN).
        box_lo = corner_uv.min(axis=1)
        boxed = in_image[:n_obj] & ~np.isnan(box_lo).any(axis=1)
        boxes = [
            tuple(box) if ok else None
            for box, ok in zip(np.hstack([box_lo, corner_uv.max(axis=1)]).tolist(), boxed.tolist())
        ]
        visible = in_image[:n_obj].tolist()

        # Occlusion on true boxes: the farther of an overlapping pair loses
        # its detection (radar still returns).
        occluded = [False] * n_obj
        if cfg.occlusion.enabled:
            for i in range(n_obj):
                for j in range(i + 1, n_obj):
                    if boxes[i] is None or boxes[j] is None:
                        continue
                    if _iou(boxes[i], boxes[j]) > cfg.occlusion.iou_threshold:
                        di, dj = center_depth[i], center_depth[j]
                        occluded[j if dj >= di else i] = True

        gts = []
        dets: List[Detection] = []
        radar: List[RadarPoint] = []
        frame_prov: List[int] = []
        for i, obj in enumerate(cfg.objects):
            if not visible[i]:
                continue
            c = centers[i]
            gts.append(GroundTruthObject(i, float(c[0]), float(c[1]), obj.class_id))

            for p in range(pts):
                radar.append(
                    RadarPoint(
                        float(c[0] + radar_pos_noise[i, p, 0]),
                        float(c[1] + radar_pos_noise[i, p, 1]),
                        float(c[2]),
                        float(obj.velocity[0] + radar_vel_noise[i, p, 0]),
                        float(obj.velocity[1] + radar_vel_noise[i, p, 1]),
                    )
                )

            if occluded[i] or dropout_draw[i] < cfg.dropout:
                continue

            true_uv = center_uv[i]
            if k == 0 or not has_previous[i]:
                du = dv = 0.0
            else:
                du = float(displacement[i, 0] + disp_noise[i, 0])
                dv = float(displacement[i, 1] + disp_noise[i, 1])
            dets.append(
                Detection(
                    u=float(true_uv[0] + center_noise[i, 0]),
                    v=float(true_uv[1] + center_noise[i, 1]),
                    depth=max(1e-3, float(center_depth[i] + depth_noise[i])),
                    vx=float(obj.velocity[0] + vel_noise[i, 0]),
                    vy=float(obj.velocity[1] + vel_noise[i, 1]),
                    class_id=obj.class_id,
                    confidence=float(confidences[i]),
                    du=du,
                    dv=dv,
                    bbox=boxes[i],
                )
            )
            frame_prov.append(i)

        # Clutter: per point u, v, depth, vx, vy, drawn in that order.
        clutter = np.array(
            [[clutter_rng.uniform(*bounds) for bounds in clutter_bounds] for _ in range(cfg.radar.clutter_per_frame)]
        ).reshape(-1, 5)
        pos = image_to_vehicle(clutter[:, 0], clutter[:, 1], clutter[:, 2], camera)
        radar.extend(RadarPoint(x, y, z, vx, vy) for (x, y, z), (vx, vy) in zip(pos.tolist(), clutter[:, 3:].tolist()))

        frames.append(FrameInput(k, t, tuple(dets), tuple(radar)))
        gt_frames.append(GroundTruthFrame(k, tuple(gts)))
        provenance.append(tuple(frame_prov))

    return Scene(cfg, tuple(frames), tuple(gt_frames), tuple(provenance))
