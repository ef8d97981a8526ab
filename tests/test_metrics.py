"""Recall-averaged tracking metrics and their independent recount."""

import math
import random
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from reference import (
    random_micro_scene,
    random_scored_scene,
    recount_metrics,
    reference_amota,
    reference_count_sequence_errors,
    reference_match_frame,
)

from fusetrack import metrics
from fusetrack.metrics import (
    ErrorCounts,
    GroundTruthFrame,
    GroundTruthObject,
    PredictedFrame,
    PredictedObject,
    _stack,
    _walk_floors,
    amota,
    count_sequence_errors,
    match_frame,
    motar,
)


def gt(gt_id, x, y=0.0, cls=0):
    return GroundTruthObject(gt_id, x, y, cls)


def pred(tid, x, y=0.0, cls=0, conf=1.0):
    return PredictedObject(tid, x, y, cls, conf)


def frames(gt_rows, pred_rows):
    gt_frames = [GroundTruthFrame(k, tuple(row)) for k, row in enumerate(gt_rows)]
    pred_frames = [PredictedFrame(k, tuple(row)) for k, row in enumerate(pred_rows)]
    return pred_frames, gt_frames


# ---------------------------------------------------------------- match_frame

def test_match_frame_basics():
    frame = GroundTruthFrame(0, (gt(1, 0.0), gt(2, 10.0)))
    result = match_frame([pred(7, 0.4), pred(8, 30.0)], frame, dist_threshold=2.0)
    assert result.matches == ((1, 7, pytest.approx(0.4)),)
    assert result.false_positive_ids == (8,)
    assert result.false_negative_ids == (2,)


def test_match_frame_gate_and_class():
    frame = GroundTruthFrame(0, (gt(1, 0.0, cls=0),))
    # same class but outside the 2 m gate
    assert match_frame([pred(7, 2.5)], frame, 2.0).matches == ()
    # inside the gate but wrong class
    assert match_frame([pred(7, 0.5, cls=1)], frame, 2.0).matches == ()
    # exactly on the gate boundary counts (closed)
    assert match_frame([pred(7, 2.0)], frame, 2.0).matches == ((1, 7, pytest.approx(2.0)),)


def test_match_frame_greedy_ascending_distance():
    # pred 7 is nearest to gt 2; gt 1 then gets pred 8.
    frame = GroundTruthFrame(0, (gt(1, 0.0), gt(2, 1.0)))
    result = match_frame([pred(7, 1.1), pred(8, 0.5)], frame, 2.0)
    assert dict((g, t) for g, t, _ in result.matches) == {2: 7, 1: 8}


def test_match_frame_tie_breaks_on_input_index():
    # Both gts are exactly 1.0 from the single prediction; the earlier gt wins.
    frame = GroundTruthFrame(0, (gt(5, 1.0), gt(4, 3.0)))
    result = match_frame([pred(7, 2.0)], frame, 2.0)
    assert result.matches[0][:2] == (5, 7)


def test_match_frame_sticky_overrides_distance():
    frame = GroundTruthFrame(0, (gt(1, 0.0),))
    preds = [pred(7, 1.0), pred(8, 0.3)]
    free = match_frame(preds, frame, 2.0)
    assert free.matches[0][:2] == (1, 8)
    kept = match_frame(preds, frame, 2.0, sticky={1: 7})
    assert kept.matches[0][:2] == (1, 7)
    assert kept.false_positive_ids == (8,)


def test_match_frame_sticky_ignored_when_out_of_gate():
    frame = GroundTruthFrame(0, (gt(1, 0.0),))
    result = match_frame([pred(7, 5.0), pred(8, 0.3)], frame, 2.0, sticky={1: 7})
    assert result.matches[0][:2] == (1, 8)


# ------------------------------------------------- count_sequence_errors / IDS

def test_identity_switch_counted_once():
    gt_rows = [[gt(1, 0.0)] for _ in range(10)]
    pred_rows = [[pred(1, 0.1, conf=0.9)] for _ in range(5)] + [
        [pred(2, 0.1, conf=0.9)] for _ in range(5)
    ]
    pf, gf = frames(gt_rows, pred_rows)
    counts = count_sequence_errors(pf, gf, 0.0, 2.0)
    assert (counts.ids, counts.fp, counts.fn) == (1, 0, 0)
    assert counts.recall == 1.0


def test_identity_switch_survives_a_gap():
    gt_rows = [[gt(1, 0.0)] for _ in range(7)]
    pred_rows = [[pred(1, 0.0)]] * 3 + [[]] * 2 + [[pred(2, 0.0)]] * 2
    pf, gf = frames(gt_rows, pred_rows)
    counts = count_sequence_errors(pf, gf, 0.0, 2.0)
    assert (counts.ids, counts.fp, counts.fn) == (1, 0, 2)


def test_sticky_prevents_spurious_switch():
    # Track 1 drifts to 1.0 m while track 2 sits nearer; without stickiness
    # frame 1 would re-match and count a switch.
    gt_rows = [[gt(1, 0.0)], [gt(1, 0.0)]]
    pred_rows = [[pred(1, 0.5), pred(2, 1.0)], [pred(1, 1.0), pred(2, 0.3)]]
    pf, gf = frames(gt_rows, pred_rows)
    counts = count_sequence_errors(pf, gf, 0.0, 2.0)
    assert counts.ids == 0
    assert counts.fp == 2  # the unmatched extra prediction each frame
    assert counts.matched_distances == (0.5, 1.0)


def test_confidence_floor_filters_before_matching():
    gt_rows = [[gt(1, 0.0)]]
    pred_rows = [[pred(1, 0.1, conf=0.4), pred(2, 0.5, conf=0.9)]]
    pf, gf = frames(gt_rows, pred_rows)
    counts = count_sequence_errors(pf, gf, 0.5, 2.0)
    assert counts.fp == 0 and counts.fn == 0
    assert counts.matched_distances == (pytest.approx(0.5),)


def test_alignment_errors():
    pf, gf = frames([[gt(1, 0.0)]], [[pred(1, 0.0)]])
    with pytest.raises(ValueError):
        count_sequence_errors(pf, gf[:0], 0.0, 2.0)
    bad = [GroundTruthFrame(5, (gt(1, 0.0),))]
    with pytest.raises(ValueError):
        count_sequence_errors(pf, bad, 0.0, 2.0)


# ----------------------------------------------------------------- MOTAR

def counts_of(ids, fp, fn, recall=1.0):
    return ErrorCounts(ids, fp, fn, recall, (), 0.0)


def test_motar_fixture():
    assert motar(counts_of(1, 1, 4), r=0.5, num_gt=10) == pytest.approx(0.8, abs=1e-12)


def test_motar_clamps_both_sides():
    assert motar(counts_of(50, 50, 50), r=0.5, num_gt=10) == 0.0
    assert motar(counts_of(0, 0, 0), r=0.5, num_gt=10) == 1.0


def test_motar_validates_inputs():
    with pytest.raises(ValueError):
        motar(counts_of(0, 0, 0), r=0.0, num_gt=10)
    with pytest.raises(ValueError):
        motar(counts_of(0, 0, 0), r=1.5, num_gt=10)
    with pytest.raises(ValueError):
        motar(counts_of(0, 0, 0), r=0.5, num_gt=0)


# ----------------------------------------------------------------- AMOTA

def two_object_fixture():
    """Two objects over two frames; track 1 always on, track 2 frame 0 only."""
    gt_rows = [[gt(1, 0.0), gt(2, 10.0)], [gt(1, 0.0), gt(2, 10.0)]]
    pred_rows = [
        [pred(1, 0.5, conf=0.9), pred(2, 10.0, conf=0.4)],
        [pred(1, 0.5, conf=0.9)],
    ]
    return frames(gt_rows, pred_rows)


def test_amota_hand_computed_fixture():
    pf, gf = two_object_fixture()
    report = amota(pf, gf, num_thresholds=3)
    # r=0.5 selects the 0.9 floor (recall exactly 0.5, highest such floor):
    # MOTAR = 1 - (2 - 2)/2 = 1. r=1.0 is unreachable -> 0.
    assert report.amota == pytest.approx(0.5, abs=1e-12)
    assert report.amotp == pytest.approx(0.25, abs=1e-12)
    # Best MOTA sits at the 0.4 floor: 1 - 1/4.
    assert report.mota == pytest.approx(0.75, abs=1e-12)
    assert report.recall == pytest.approx(0.75, abs=1e-12)
    assert report.motp == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.motar == pytest.approx(1.0, abs=1e-12)
    assert report.num_gt == 4


def test_amota_perfect_tracker_is_one():
    gt_rows = [[gt(1, 0.0), gt(2, 5.0)] for _ in range(6)]
    pred_rows = [[pred(1, 0.0, conf=0.9), pred(2, 5.0, conf=0.9)] for _ in range(6)]
    pf, gf = frames(gt_rows, pred_rows)
    report = amota(pf, gf, num_thresholds=40)
    assert report.amota == 1.0
    assert report.amotp == 0.0
    assert report.mota == 1.0 and report.motar == 1.0 and report.recall == 1.0


def test_amota_recall_ceiling_zeroes_high_thresholds():
    # Only half the objects are ever covered, plus one FP at the same floor:
    # AMOTA = MOTAR(0.5) / 2 with n = 3.
    gt_rows = [[gt(1, 0.0), gt(2, 10.0)] for _ in range(2)]
    pred_rows = [
        [pred(1, 0.0, conf=0.8), pred(9, 50.0, conf=0.8)],
        [pred(1, 0.0, conf=0.8)],
    ]
    pf, gf = frames(gt_rows, pred_rows)
    report = amota(pf, gf, num_thresholds=3)
    floor_counts = count_sequence_errors(pf, gf, 0.8, 2.0)
    assert floor_counts.recall == 0.5
    expected = motar(floor_counts, 0.5, 4) / 2
    assert report.amota == pytest.approx(expected, abs=1e-12)
    assert report.amota == pytest.approx(0.25, abs=1e-12)


def test_amota_confidence_rescale_invariance():
    rng = random.Random(31)
    for _ in range(20):
        pf, gf = random_micro_scene(rng)
        base = amota(pf, gf, num_thresholds=11)
        scaled_pf = [
            PredictedFrame(
                f.frame_index,
                tuple(
                    PredictedObject(o.track_id, o.x, o.y, o.class_id, o.confidence * 0.5)
                    for o in f.objects
                ),
            )
            for f in pf
        ]
        scaled = amota(scaled_pf, gf, num_thresholds=11)
        assert scaled.amota == base.amota
        assert scaled.amotp == base.amotp
        assert scaled.mota == base.mota and scaled.recall == base.recall


def test_amota_false_positives_hurt():
    gt_rows = [[gt(1, 0.0)] for _ in range(4)]
    clean_rows = [[pred(1, 0.0, conf=0.9)] for _ in range(4)]
    noisy_rows = [[pred(1, 0.0, conf=0.9), pred(50 + k, 30.0, conf=0.95)] for k in range(4)]
    clean = amota(*frames(gt_rows, clean_rows), num_thresholds=5)
    noisy = amota(*frames(gt_rows, noisy_rows), num_thresholds=5)
    assert clean.amota == 1.0
    assert noisy.amota < clean.amota


def test_amota_per_class_aggregation():
    gt_rows = [[gt(1, 0.0, cls=0), gt(2, 10.0, cls=1)] for _ in range(3)]
    pred_rows = [[pred(1, 0.0, cls=0, conf=0.9)] for _ in range(3)]  # class 1 never covered
    pf, gf = frames(gt_rows, pred_rows)
    report = amota(pf, gf, num_thresholds=5)
    assert set(report.per_class) == {0, 1}
    assert report.per_class[0].amota == 1.0
    assert report.per_class[1].amota == 0.0
    assert report.amota == pytest.approx(0.5, abs=1e-12)
    assert report.per_class[1].recall == 0.0 and report.per_class[1].motar == 0.0


def test_amota_validation():
    pf, gf = two_object_fixture()
    with pytest.raises(ValueError):
        amota(pf, gf, num_thresholds=1)
    for bad in (3.5, 40.0, True, np.float64(3.0), "40", None):
        with pytest.raises(ValueError, match="num_thresholds must be an integer >= 2"):
            amota(pf, gf, num_thresholds=bad)
    report = amota(pf, gf, num_thresholds=np.int64(3))
    assert report == amota(pf, gf, num_thresholds=3) and type(report.num_thresholds) is int
    empty_gt = [GroundTruthFrame(f.frame_index, ()) for f in gf]
    with pytest.raises(ValueError):
        amota(pf, empty_gt)


# ------------------------------------------------------------- recount oracle

def test_recount_on_perfect_sequence_is_all_zero():
    gt_rows = [[gt(1, 0.0), gt(2, 5.0)] for _ in range(4)]
    pred_rows = [[pred(1, 0.0), pred(2, 5.0)] for _ in range(4)]
    pf, gf = frames(gt_rows, pred_rows)
    counts = recount_metrics(pf, gf, 0.0, 2.0)
    assert (counts.ids, counts.fp, counts.fn, counts.recall) == (0, 0, 0, 1.0)


def test_recount_sees_the_id_switch():
    gt_rows = [[gt(1, 0.0)] for _ in range(10)]
    pred_rows = [[pred(1, 0.1)]] * 5 + [[pred(2, 0.1)]] * 5
    pf, gf = frames(gt_rows, pred_rows)
    counts = recount_metrics(pf, gf, 0.0, 2.0)
    assert counts.ids == 1
    assert counts == count_sequence_errors(pf, gf, 0.0, 2.0)


def test_recount_guards():
    gt_rows = [[gt(1, 0.0)] for _ in range(11)]
    pred_rows = [[pred(1, 0.0)] for _ in range(11)]
    pf, gf = frames(gt_rows, pred_rows)
    with pytest.raises(ValueError):
        recount_metrics(pf, gf, 0.0, 2.0)
    gt_rows = [[gt(i, float(i)) for i in range(5)]]
    pred_rows = [[]]
    pf, gf = frames(gt_rows, pred_rows)
    with pytest.raises(ValueError):
        recount_metrics(pf, gf, 0.0, 2.0)


def test_recount_agrees_on_random_micro_scenes():
    rng = random.Random(555)
    for _ in range(60):
        pf, gf = random_micro_scene(rng)
        floor = rng.choice([0.0, 0.4, 0.6, 0.8])
        fast = count_sequence_errors(pf, gf, floor, 2.0)
        slow = recount_metrics(pf, gf, floor, 2.0)
        assert fast == slow


# ------------------------------------------- incremental floor walk vs replay

def class_split(pf, gf, class_id):
    """amota's view of one class: its ground-truth and prediction columns and
    the frame count, plus the same frames as PredictedFrame/GroundTruthFrame
    for the references."""
    pred_c = [PredictedFrame(p.frame_index, (o for o in p.objects if o.class_id == class_id)) for p in pf]
    gt_c = [GroundTruthFrame(g.frame_index, (o for o in g.objects if o.class_id == class_id)) for g in gf]
    return (_stack(gt_c, GroundTruthFrame), _stack(pred_c, PredictedFrame), len(gt_c)), pred_c, gt_c


def walked_counts(frames, num_gt):
    """ErrorCounts at every floor of the incremental walk, highest first."""
    return [
        ErrorCounts(ids, fp, fn, (num_gt - fn) / num_gt if num_gt else 0.0, tuple(chain.from_iterable(dist)), floor)
        for floor, ids, fp, fn, dist in _walk_floors(*frames, 2.0)
    ]


def test_floor_walk_matches_reference_replay_at_every_floor():
    # Every floor of every class, the amota report, whole-sequence counts
    # and single frames against the object-based references.
    rng = random.Random(2024)
    for _ in range(150):
        pf, gf = random_scored_scene(rng)
        for class_id in (0, 1, 2):
            frames, pred_c, gt_c = class_split(pf, gf, class_id)
            walked = walked_counts(frames, sum(len(g.objects) for g in gt_c))
            floors = sorted({o.confidence for p in pred_c for o in p.objects}, reverse=True)
            assert [c.confidence_floor for c in walked] == floors
            for counts in walked:
                assert counts == reference_count_sequence_errors(pred_c, gt_c, counts.confidence_floor, 2.0)
        if any(g.objects for g in gf):
            assert amota(pf, gf, num_thresholds=11) == reference_amota(pf, gf, num_thresholds=11)
        for floor in (0.0, 0.5, 0.75, 1.0):
            assert count_sequence_errors(pf, gf, floor, 2.0) == reference_count_sequence_errors(pf, gf, floor, 2.0)
        sticky = {}
        for p, g in zip(pf, gf):
            result = match_frame(p.objects, g, 2.0, sticky=sticky)
            assert result == reference_match_frame(p.objects, g, 2.0, sticky=sticky)
            sticky.update((gt_id, track_id) for gt_id, track_id, _ in result.matches)


def test_floor_walk_matches_recount_on_micro_scenes():
    rng = random.Random(4711)
    for _ in range(200):
        pf, gf = random_scored_scene(rng, max_frames=10, max_per_frame=4)
        for class_id in (0, 1, 2):
            frames, pred_c, gt_c = class_split(pf, gf, class_id)
            for counts in walked_counts(frames, sum(len(g.objects) for g in gt_c)):
                assert counts == recount_metrics(pred_c, gt_c, counts.confidence_floor, 2.0)
        for floor in sorted({o.confidence for p in pf for o in p.objects}):
            assert count_sequence_errors(pf, gf, floor, 2.0) == recount_metrics(pf, gf, floor, 2.0)


def test_floor_walk_edge_frames():
    # A prediction exactly on the gate, a repeated track id whose first
    # copy is below the floor, a class absent from the ground truth, and
    # frames empty on either side.
    gt_rows = [[gt(1, 0.0)], [], [gt(1, 0.0), gt(2, 5.0)], [gt(1, 0.0)]]
    pred_rows = [
        [pred(7, 2.0, conf=0.5)],
        [pred(7, 0.0, conf=0.9)],
        [],
        [pred(8, 0.5, conf=0.6), pred(7, 9.0, conf=0.3), pred(7, 1.0, conf=0.8), pred(9, 0.0, cls=3, conf=1.0)],
    ]
    pf, gf = frames(gt_rows, pred_rows)
    frames_0, pred_c, gt_c = class_split(pf, gf, 0)
    walked = walked_counts(frames_0, 4)
    assert [c.confidence_floor for c in walked] == [0.9, 0.8, 0.6, 0.5, 0.3]
    for counts in walked:
        assert counts == reference_count_sequence_errors(pred_c, gt_c, counts.confidence_floor, 2.0)
        assert counts == recount_metrics(pred_c, gt_c, counts.confidence_floor, 2.0)
    # gt 1 takes track 7 on the gate in frame 0. In frame 3 at floor 0.5 the
    # copy of track 7 at 1 m is the first kept one and keeps the identity;
    # at 0.3 the first is the one at 9 m, out of the gate, so gt 1 goes to
    # track 8 and counts a switch.
    by_floor = {c.confidence_floor: c for c in walked}
    assert (by_floor[0.5].ids, by_floor[0.5].fp, by_floor[0.5].fn) == (0, 2, 2)
    assert (by_floor[0.3].ids, by_floor[0.3].fp, by_floor[0.3].fn) == (1, 3, 2)
    assert amota(pf, gf, num_thresholds=5) == reference_amota(pf, gf, num_thresholds=5)


def packed_scene(rng):
    """Seeded scene of objects packed 0.5-1.5 m apart, so that most ground
    truths have several candidate pairs within the 2 m gate. Predictions
    jitter up to 1 m around their objects and take track ids from a pool
    smaller than the objects, so a remembered track id often repeats in a
    frame (with other scores); ids also swap between objects mid-sequence.
    A few objects are class 1. Returns (pred_frames, gt_frames)."""
    n = rng.randrange(3, 9)
    spots = [(1.0 * (g % 4) + rng.uniform(-0.25, 0.25), 1.0 * (g // 4) + rng.uniform(-0.25, 0.25)) for g in range(n)]
    classes = [int(rng.random() < 0.2) for _ in range(n)]
    owner, pool = list(range(n)), rng.randrange(2, n + 1)

    def score():
        return rng.choice((0.3, 0.6, 0.9)) if rng.random() < 0.5 else round(rng.uniform(0.05, 1.0), 2)

    pred_frames, gt_frames = [], []
    for k in range(rng.randrange(2, 12)):
        if rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            owner[a], owner[b] = owner[b], owner[a]
        gts = [GroundTruthObject(g, x + rng.uniform(-0.2, 0.2), y + rng.uniform(-0.2, 0.2), classes[g])
               for g, (x, y) in enumerate(spots) if rng.random() < 0.9]
        preds = [PredictedObject(owner[o.gt_id] % pool, o.x + rng.uniform(-1, 1), o.y + rng.uniform(-1, 1), o.class_id,
                                 score()) for o in gts for _ in range(rng.choice((0, 1, 1, 1, 2)))]
        rng.shuffle(preds)
        gt_frames.append(GroundTruthFrame(k, gts))
        pred_frames.append(PredictedFrame(k, preds))
    return pred_frames, gt_frames


def test_pass_one_and_pass_two_on_packed_scenes():
    # Every floor of both classes against the replay reference, matched
    # distances in their order included, and match_frame against the
    # reference matcher with the sticky map it leaves. The counts show that
    # the scenes reach what the greedy pass alone decides: a remembered id
    # matched again through a copy that is not the first one kept, two
    # ground truths remembering one track, and switches.
    rng = random.Random(1818)
    seen = {"several candidates": 0, "repeated id": 0, "remembered id, later copy": 0, "shared memory": 0, "switch": 0}
    for _ in range(150):
        pf, gf = packed_scene(rng)
        for class_id in (0, 1):
            frames_c, pred_c, gt_c = class_split(pf, gf, class_id)
            walked = walked_counts(frames_c, sum(len(g.gt_id) for g in gt_c))
            assert [c.confidence_floor for c in walked] == sorted(set(chain(*(p.confidence for p in pred_c))), reverse=True)
            for counts in walked:
                assert counts == reference_count_sequence_errors(pred_c, gt_c, counts.confidence_floor, 2.0)
        sticky = {}
        for p, g in zip(pf, gf):
            result = match_frame(p.objects, g, 2.0, sticky=sticky)
            assert result == reference_match_frame(p.objects, g, 2.0, sticky=sticky)
            near = {(o.gt_id, j) for o in g.objects for j, q in enumerate(p.objects)
                    if q.class_id == o.class_id and (o.x - q.x) ** 2 + (o.y - q.y) ** 2 <= 4.0}
            first = {}
            for j, q in enumerate(p.objects):
                first.setdefault(q.track_id, j)
            seen["several candidates"] += sum(sum(i == o.gt_id for i, _ in near) > 1 for o in g.objects)
            seen["repeated id"] += len(first) < len(p.objects)
            remembered = [sticky[o.gt_id] for o in g.objects if o.gt_id in sticky and sticky[o.gt_id] in first]
            seen["shared memory"] += len(set(remembered)) < len(remembered)
            for gt_id, track_id, _ in result.matches:
                if sticky.get(gt_id) == track_id:
                    seen["remembered id, later copy"] += (gt_id, first[track_id]) not in near
                seen["switch"] += gt_id in sticky and sticky[gt_id] != track_id
            sticky.update((gt_id, track_id) for gt_id, track_id, _ in result.matches)
    assert min(seen.values()) >= 100, seen


# ------------------------------------------------ column walk, batched pairs

def column_walk_scene(rng):
    """Seeded scene for the column walk: ground-truth objects and
    predictions on a 0.25 m grid (exact distances), with predictions on the
    2 m gate (d2 == 4.0), ground truth on both sides of a prediction and
    predictions on the same point (ties broken by gt index, then pred
    index), track ids from a small pool (repeated in a frame with other
    scores), far clutter with no candidate pair, class 3 only in
    predictions, and empty frames on either side. Returns (pred_frames,
    gt_frames)."""

    def grid(lo, hi):
        return rng.randrange(int(lo * 4), int(hi * 4) + 1) / 4

    def score():
        return rng.choice((0.25, 0.5, 0.75, 1.0)) if rng.random() < 0.6 else round(rng.uniform(0.05, 1.0), 2)

    pred_frames, gt_frames = [], []
    for k in range(rng.randrange(1, 14)):
        gts, preds = [], []
        if rng.random() > 0.15:  # else an empty ground-truth frame
            for g in range(rng.randrange(5)):
                x, y, cls = grid(-3, 3), grid(-3, 3), rng.randrange(2)
                gts.append(GroundTruthObject(g, x, y, cls))
                if rng.random() < 0.2:  # a second object 2 m across a prediction added below
                    gts.append(GroundTruthObject(10 + g, x + 2.0, y, cls))
        if rng.random() > 0.15:  # else an empty prediction frame
            for o in gts:
                if rng.random() < 0.8:
                    dx, dy = rng.choice(((2.0, 0.0), (0.0, -2.0), (1.0, 0.0), (0.0, 0.0), (grid(-1, 1), grid(-1, 1))))
                    preds.append(PredictedObject(rng.randrange(6), o.x + dx, o.y + dy, o.class_id, score()))
            if preds and rng.random() < 0.4:  # the same point, or the same track id, twice
                twin = rng.choice(preds)
                x = twin.x if rng.random() < 0.5 else twin.x + grid(-3, 3)
                preds.insert(rng.randrange(len(preds) + 1), PredictedObject(twin.track_id, x, twin.y, twin.class_id, score()))
            if rng.random() < 0.3:  # clutter far from everything, or a class only predictions hold
                preds.append(PredictedObject(rng.randrange(6), 50.0 + k, 0.0, rng.randrange(2), score()))
                preds.append(PredictedObject(rng.randrange(6), grid(-3, 3), grid(-3, 3), 3, score()))
        gt_frames.append(GroundTruthFrame(k, gts))
        pred_frames.append(PredictedFrame(k, preds))
    return pred_frames, gt_frames


def test_column_walk_matches_reference_replay_in_batches(monkeypatch):
    # Every floor of every class, the report and whole-sequence counts
    # against the object-based references, with pair batches of a few
    # ground-truth rows: across frames (total pairs above the budget, each
    # frame below it) and inside a frame above the budget.
    rng = random.Random(8080)
    seen = {"gate": 0, "tie": 0, "no pair": 0, "repeated id, first copy lower": 0, "batched": 0, "frame over budget": 0}
    for n in range(200):
        budget = (metrics._PAIR_BUDGET, 6, 1)[n % 3]
        monkeypatch.setattr(metrics, "_PAIR_BUDGET", budget)
        pf, gf = column_walk_scene(rng)
        for class_id in (0, 1, 3):
            frames, pred_c, gt_c = class_split(pf, gf, class_id)
            pairs = [len(g.gt_id) * len(p.track_id) for p, g in zip(pred_c, gt_c)]
            seen["batched"] += sum(pairs) > budget and max(pairs) <= budget
            seen["frame over budget"] += max(pairs) > budget
            for p, g in zip(pred_c, gt_c):
                d2 = [(o.x - q.x) ** 2 + (o.y - q.y) ** 2 for o in g.objects for q in p.objects]
                seen["gate"] += d2.count(4.0)
                seen["tie"] += len(d2) - len(set(d2))
                seen["no pair"] += sum(all((o.x - q.x) ** 2 + (o.y - q.y) ** 2 > 4.0 for o in g.objects) for q in p.objects)
                first = {}
                for q in p.objects:
                    seen["repeated id, first copy lower"] += first.setdefault(q.track_id, q.confidence) < q.confidence
            walked = walked_counts(frames, sum(len(g.objects) for g in gt_c))
            assert [c.confidence_floor for c in walked] == sorted(set(chain(*(p.confidence for p in pred_c))), reverse=True)
            for counts in walked:
                assert counts == reference_count_sequence_errors(pred_c, gt_c, counts.confidence_floor, 2.0)
        if any(g.objects for g in gf):
            assert amota(pf, gf, num_thresholds=11) == reference_amota(pf, gf, num_thresholds=11)
        for floor in (0.0, 0.5, 1.0):
            assert count_sequence_errors(pf, gf, floor, 2.0) == reference_count_sequence_errors(pf, gf, floor, 2.0)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("index", [True, False, np.bool_(True), 1.5, np.float64(3.0), 2**63, -(2**63) - 1, "3"])
def test_predicted_frame_refuses_what_is_not_a_frame_number(index):
    with pytest.raises(ValueError, match="frame_index must be an integer"):
        PredictedFrame(index, ())
    with pytest.raises(ValueError, match="frame_index must be an integer"):
        PredictedFrame.from_columns(index, (), (), (), (), ())


def test_predicted_frame_keeps_frame_numbers_as_int():
    for frame in (PredictedFrame(np.int64(3), ()), PredictedFrame.from_columns(np.int32(3), (), (), (), (), ())):
        assert frame.frame_index == 3 and type(frame.frame_index) is int
    # A True frame index would pair with ground-truth frame 1 (True == 1)
    # and score a perfect AMOTA; it is refused before amota can run.
    with pytest.raises(ValueError, match="frame_index"):
        PredictedFrame(True, (pred(1, 0.0, conf=0.9),))


def test_predicted_frame_columns_refuse_as_predicted_object_does():
    with pytest.raises(ValueError, match="confidence must be finite and non-negative"):
        PredictedFrame.from_columns(0, (1, 2), (0.0, 0.0), (0.0, 0.0), (0, 0), (0.5, -0.1))
    # A repeated track id is accepted on both paths, and the floor walk scores it (test_floor_walk_edge_frames).
    repeated = PredictedFrame.from_columns(0, (1, 1), (0.0, 1.0), (0.0, 0.0), (0, 0), (0.5, 0.5))
    assert repeated == PredictedFrame(0, (pred(1, 0.0, conf=0.5), pred(1, 1.0, conf=0.5)))
    for columns in [((1, 2), (0.0,), (0.0, 0.0), (0, 0), (0.5, 0.5)), ((1,), (0.0,), (0.0,), (0,))]:
        with pytest.raises(ValueError, match="expected 5 columns of one length"):
            PredictedFrame.from_columns(0, *columns)
    frame = PredictedFrame.from_columns(0, (1, 2), (0.0, 1.0), (0.0, 0.0), (0, 1), (0.5, 0.0))
    assert frame == PredictedFrame(0, (pred(1, 0.0, conf=0.5), pred(2, 1.0, cls=1, conf=0.0)))
    assert frame.objects == (pred(1, 0.0, conf=0.5), pred(2, 1.0, cls=1, conf=0.0))


def test_pair_building_memory_follows_the_budget_not_the_frame():
    # One frame of 1,500 objects 1 m apart and 1,500 predictions: 2.25
    # million gt x prediction pairs, a few thousand of them in the gate.
    # Distance matrices of the whole frame would take 18 MB each.
    rng = random.Random(3)
    gf = [GroundTruthFrame(0, [gt(i, float(i)) for i in range(1500)])]
    pf = [PredictedFrame(0, [pred(i, i + rng.uniform(-1, 1), conf=round(rng.random(), 2)) for i in range(1500)])]
    tracemalloc.start()
    try:
        counts = count_sequence_errors(pf, gf, 0.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == reference_count_sequence_errors(pf, gf, 0.0, 2.0)
    assert peak < 8e6, peak
