"""Greedy detection-to-track matching: cost terms, gating, ordering."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from fusetrack.association import (
    AssociationResult,
    CostWeights,
    Detection,
    DetectionBatch,
    Track,
    cost_matrix,
    greedy_associate,
    window_join,
)
from fusetrack.fusion import PillarDims, RadarPoint
from fusetrack.simulator import NoiseModel, RadarModel, ScenarioConfig, crossing_scenario
from fusetrack.tracker import FrameInput

from reference import pairwise_cost

UNIT = CostWeights(alpha=1.0, beta=1.0, delta=1.0, radius=1e9)


def det(u, v, depth=20.0, vx=0.0, vy=0.0, cls=0, conf=1.0, du=0.0, dv=0.0):
    return Detection(u, v, depth, vx, vy, cls, conf, du, dv)


def trk(tid, u, v, depth=20.0, vx=0.0, vy=0.0, cls=0):
    return Track(tid, u, v, depth, vx, vy, cls, 1.0, last_seen=0)


def test_cost_terms_sum():
    # pixel (3,4) -> 25, depth 2 -> 4, velocity (1,1) -> 2
    d = det(103.0, 104.0, depth=22.0, vx=1.0, vy=1.0)
    t = trk(1, 100.0, 100.0, depth=20.0)
    assert pairwise_cost(d, t, UNIT) == pytest.approx(31.0, abs=1e-12)
    defaults = CostWeights()
    expected = 4e-4 * 25 + 0.04 * 4 + 0.25 * 2
    assert pairwise_cost(d, t, defaults) == pytest.approx(expected, abs=1e-12)


def test_cost_zero_for_identical_state():
    d = det(10.0, 20.0, depth=30.0, vx=1.0, vy=-2.0)
    t = trk(1, 10.0, 20.0, depth=30.0, vx=1.0, vy=-2.0)
    assert pairwise_cost(d, t, UNIT) == 0.0


def test_cost_infinite_across_classes():
    assert math.isinf(pairwise_cost(det(0.0, 0.0, cls=0), trk(1, 0.0, 0.0, cls=1), UNIT))


def test_depth_term_separates_pixel_identical_pair():
    # Two objects at the same pixel: the depth term alone decides.
    tracks = [trk(1, 400.0, 224.0, depth=18.0), trk(2, 400.0, 224.0, depth=22.0)]
    dets = [det(400.0, 224.0, depth=21.5, conf=0.9), det(400.0, 224.0, depth=18.5, conf=0.8)]
    res = greedy_associate(dets, tracks, CostWeights())
    assert dict(res.matches) == {0: 2, 1: 1}
    # With the depth and velocity terms switched off the pair is a pure
    # cost tie, so confidence order + lowest track id decide instead.
    pixel_only = CostWeights(alpha=1.0, beta=0.0, delta=0.0, radius=1e9)
    res = greedy_associate(dets, tracks, pixel_only)
    assert dict(res.matches) == {0: 1, 1: 2}


def test_gate_uses_displacement_compensated_center():
    # Raw center 100 with du=10 gates at 90; only the track at 90 is
    # reachable with radius 1, and the cost still uses the raw center.
    d = det(100.0, 50.0, du=10.0)
    near_gate = trk(1, 90.0, 50.0)
    at_raw_center = trk(2, 100.0, 50.0)
    res = greedy_associate([d], [near_gate, at_raw_center], CostWeights(radius=1.0))
    assert res.matches == ((0, 1),)
    assert pairwise_cost(d, near_gate, UNIT) == pytest.approx(100.0)


def test_gate_radius_is_closed():
    w = CostWeights(radius=50.0)
    exactly = trk(1, 150.0, 100.0)  # distance exactly 50
    res = greedy_associate([det(100.0, 100.0)], [exactly], w)
    assert res.matches == ((0, 1),)
    beyond = trk(1, 150.0 + 1e-6, 100.0)
    res = greedy_associate([det(100.0, 100.0)], [beyond], w)
    assert res.matches == ()
    assert res.unmatched_detections == (0,)
    assert res.unmatched_tracks == (1,)


def test_confidence_order_resolves_contention():
    # Both detections want track 1; the more confident one (second in the
    # input) is processed first and wins.
    tracks = [trk(1, 100.0, 100.0)]
    dets = [det(101.0, 100.0, conf=0.5), det(102.0, 100.0, conf=0.9)]
    res = greedy_associate(dets, tracks, CostWeights())
    assert res.matches == ((1, 1),)
    assert res.unmatched_detections == (0,)
    # Equal confidence: input index breaks the tie.
    dets = [det(101.0, 100.0, conf=0.7), det(102.0, 100.0, conf=0.7)]
    res = greedy_associate(dets, tracks, CostWeights())
    assert res.matches == ((0, 1),)
    assert greedy_associate(dets, [], CostWeights()).unmatched_detections == (0, 1)


def test_cost_tie_prefers_lower_track_id():
    # Equidistant, state-identical tracks; the lower id sits later in the
    # input list to prove the tie-break is on id, not position.
    tracks = [trk(7, 104.0, 100.0), trk(3, 96.0, 100.0)]
    res = greedy_associate([det(100.0, 100.0)], tracks, CostWeights())
    assert res.matches == ((0, 3),)


def test_other_classes_never_match_even_at_the_same_pixel():
    tracks = [trk(1, 100.0, 100.0, cls=0), trk(2, 100.0, 100.0, cls=2), trk(3, 130.0, 100.0, cls=1)]
    dets = [det(100.0, 100.0, cls=1), det(100.0, 100.0, cls=3)]
    res = greedy_associate(dets, tracks, CostWeights())
    assert res.matches == ((0, 3),)
    assert res.unmatched_detections == (1,)
    mat = cost_matrix(dets, tracks, CostWeights())
    assert math.isinf(mat[0, 0]) and math.isinf(mat[0, 1]) and math.isfinite(mat[0, 2])
    assert all(math.isinf(c) for c in mat[1])


def test_duplicate_track_ids_rejected():
    with pytest.raises(ValueError):
        greedy_associate([det(0.0, 0.0)], [trk(1, 0.0, 0.0), trk(1, 5.0, 5.0)], CostWeights())


def test_empty_inputs():
    res = greedy_associate([], [trk(1, 0.0, 0.0)], CostWeights())
    assert res == AssociationResult((), (), (1,))
    res = greedy_associate([det(0.0, 0.0, conf=0.5), det(1.0, 1.0, conf=0.9)], [], CostWeights())
    assert res.matches == ()
    assert res.unmatched_detections == (1, 0)  # processing order


@pytest.mark.parametrize("box", [(90.0, 310.0, 110.0), (90.0, 310.0, 110.0, 330.0, 5.0), ()])
def test_bbox_must_hold_four_values(box):
    # A short and a long box in one frame would otherwise shift into each
    # other's rows when the detections are stacked into columns.
    with pytest.raises(ValueError, match="bbox must hold 4 values"):
        Detection(100.0, 320.0, 20.0, 0.0, 0.0, 0, 0.9, bbox=box)
    assert Detection(100.0, 320.0, 20.0, 0.0, 0.0, 0, 0.9, bbox=(90.0, 310.0, 110.0, 330.0)).bbox[3] == 330.0


def test_weight_rescaling_keeps_matching():
    # Scaling all three weights by the same factor cannot change any argmin.
    rng = random.Random(11)
    base = CostWeights(alpha=2e-4, beta=0.03, delta=0.4, radius=80.0)
    scaled = CostWeights(alpha=4 * 2e-4, beta=4 * 0.03, delta=4 * 0.4, radius=80.0)
    for _ in range(50):
        dets, tracks = _random_instance(rng)
        assert greedy_associate(dets, tracks, base) == greedy_associate(dets, tracks, scaled)


def _random_instance(rng, max_objects=8):
    n_trk = rng.randrange(0, max_objects + 1)
    n_det = rng.randrange(0, max_objects + 1)
    tracks = [
        trk(
            tid=rng.randrange(1, 100) + 100 * j,  # distinct by construction
            u=rng.uniform(0, 800),
            v=rng.uniform(0, 448),
            depth=rng.uniform(5, 80),
            vx=rng.uniform(-5, 5),
            vy=rng.uniform(-5, 5),
            cls=rng.randrange(2),
        )
        for j in range(n_trk)
    ]
    dets = []
    for _ in range(n_det):
        if tracks and rng.random() < 0.7:
            base = rng.choice(tracks)
            u, v = base.u + rng.uniform(-60, 60), base.v + rng.uniform(-60, 60)
            cls = base.class_id
        else:
            u, v, cls = rng.uniform(0, 800), rng.uniform(0, 448), rng.randrange(2)
        dets.append(
            det(
                u,
                v,
                depth=rng.uniform(5, 80),
                vx=rng.uniform(-5, 5),
                vy=rng.uniform(-5, 5),
                cls=cls,
                conf=rng.random(),
                du=rng.uniform(-10, 10),
                dv=rng.uniform(-10, 10),
            )
        )
    return dets, tracks


def _slow_greedy(dets, tracks, weights):
    """Protocol re-implemented without numpy or candidate precomputation."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    used = set()
    matches, leftovers = [], []
    for i in order:
        d = dets[i]
        gu, gv = d.u - d.du, d.v - d.dv
        best = None
        for j, t in enumerate(tracks):
            if j in used or t.class_id != d.class_id:
                continue
            if (gu - t.u) ** 2 + (gv - t.v) ** 2 > weights.radius**2:
                continue
            key = (pairwise_cost(d, t, weights), t.track_id, j)
            if best is None or key < best:
                best = key
        if best is None:
            leftovers.append(i)
        else:
            matches.append((i, best[1]))
            used.add(best[2])
    unmatched_tracks = tuple(t.track_id for j, t in enumerate(tracks) if j not in used)
    return AssociationResult(tuple(matches), tuple(leftovers), unmatched_tracks)


def test_matches_slow_reference_on_random_instances():
    rng = random.Random(202)
    weights = CostWeights()
    for _ in range(200):
        dets, tracks = _random_instance(rng)
        assert greedy_associate(dets, tracks, weights) == _slow_greedy(dets, tracks, weights)


# +inf is a documented cost here, not a numeric accident: no warning may fire.
@pytest.mark.filterwarnings("error")
def test_matches_slow_reference_with_infinite_costs():
    # With a huge depth weight any depth difference of a metre or more
    # costs +inf while the pair stays inside the gate. Infinite costs must
    # rank after every finite cost of their detection, ties among them must
    # fall to the lowest track id, and no pair may slip into another
    # detection's candidates.
    weights = CostWeights(beta=1e306)
    tracks = [
        trk(1, 100.0, 100.0, depth=20.0),
        trk(2, 110.0, 100.0, depth=30.0),
        trk(3, 300.0, 100.0, depth=20.0, cls=1),
        trk(4, 105.0, 100.0, depth=40.0),
    ]
    dets = [
        det(100.0, 100.0, depth=20.0, conf=0.9),
        det(300.0, 100.0, depth=20.0, cls=1, conf=0.8),
        det(104.0, 100.0, depth=25.0, conf=0.7),
        det(108.0, 100.0, depth=1.0, conf=0.6),
    ]
    res = greedy_associate(dets, tracks, weights)
    assert res.matches == ((0, 1), (1, 3), (2, 2), (3, 4))
    assert res == _slow_greedy(dets, tracks, weights)

    # Random instances where about half the detections repeat some track's
    # depth (finite costs against it) and every other pair costs +inf.
    rng = random.Random(404)
    for _ in range(200):
        dets, tracks = _random_instance(rng)
        if tracks:
            dets = [replace(d, depth=rng.choice(tracks).depth) if rng.random() < 0.5 else d for d in dets]
        assert greedy_associate(dets, tracks, weights) == _slow_greedy(dets, tracks, weights)


# +inf is a documented cost here, not a numeric accident: no warning may fire.
@pytest.mark.filterwarnings("error")
def test_matches_slow_reference_when_squares_overflow():
    # A depth of 1e155 against 10 m squares past the float range. The scalar
    # cost is +inf, as in cost_matrix, instead of raising, so the slow
    # reference can check such frames: the far detection takes the other
    # far track, the near one the near track.
    weights = CostWeights()
    tracks = [trk(1, 100.0, 100.0, depth=10.0), trk(2, 104.0, 100.0, depth=1e155)]
    dets = [det(101.0, 100.0, depth=1e155, conf=0.9), det(103.0, 100.0, depth=10.0, conf=0.8)]
    assert pairwise_cost(dets[0], tracks[0], weights) == math.inf
    assert cost_matrix(dets, tracks, weights)[0, 0] == math.inf
    res = greedy_associate(dets, tracks, weights)
    assert res.matches == ((0, 2), (1, 1))
    assert res == _slow_greedy(dets, tracks, weights)


def test_result_is_injective_and_gated():
    rng = random.Random(303)
    weights = CostWeights(radius=60.0)
    for _ in range(100):
        dets, tracks = _random_instance(rng)
        res = greedy_associate(dets, tracks, weights)
        by_id = {t.track_id: t for t in tracks}
        claimed = [tid for _, tid in res.matches]
        assert len(set(claimed)) == len(claimed)
        for i, tid in res.matches:
            d, t = dets[i], by_id[tid]
            assert d.class_id == t.class_id
            gu, gv = d.u - d.du, d.v - d.dv
            assert math.hypot(gu - t.u, gv - t.v) <= weights.radius * (1 + 1e-12)
        # Every detection is accounted for exactly once.
        seen = sorted([i for i, _ in res.matches] + list(res.unmatched_detections))
        assert seen == list(range(len(dets)))


def test_cost_matrix_mirrors_gate_and_cost():
    rng = random.Random(404)
    weights = CostWeights(radius=60.0)
    for _ in range(50):
        dets, tracks = _random_instance(rng, max_objects=5)
        mat = cost_matrix(dets, tracks, weights)
        assert mat.shape == (len(dets), len(tracks))
        for i, d in enumerate(dets):
            for j, t in enumerate(tracks):
                gu, gv = d.u - d.du, d.v - d.dv
                gated = (gu - t.u) ** 2 + (gv - t.v) ** 2 <= weights.radius**2
                if gated and d.class_id == t.class_id:
                    assert mat[i, j] == pairwise_cost(d, t, weights)
                else:
                    assert math.isinf(mat[i, j])


def test_matches_slow_reference_on_dense_instances():
    # Hundreds of detections and tracks in three classes, tracks on whole
    # pixels and some detections exactly one gate radius from a track along
    # u or v, duplicate detections and twin tracks: the gating prefilter
    # must keep every in-gate pair where many classes, rows and window edges
    # meet, and cost ties must still fall to the lowest track id.
    rng = random.Random(505)
    weights = CostWeights()
    radius = weights.radius
    for _ in range(3):
        tracks = [
            trk(j + 1, float(rng.randrange(0, 800)), float(rng.randrange(0, 448)), depth=rng.uniform(5, 80),
                vx=rng.uniform(-5, 5), vy=rng.uniform(-5, 5), cls=rng.randrange(3))
            for j in range(180)
        ]
        # Twins: same state, higher id, earlier in the list, so every cost
        # tie must fall to the lower id.
        for j in rng.sample(range(180), 30):
            twin = tracks[j]
            tracks.insert(0, trk(1000 + j, twin.u, twin.v, twin.depth, twin.vx, twin.vy, twin.class_id))
        dets = []
        for _ in range(150):
            base = rng.choice(tracks)
            kind = rng.random()
            shift = (0.0, 0.0)
            if kind < 0.2:
                u, v = base.u + rng.choice((-radius, radius)), base.v
            elif kind < 0.4:
                u, v = base.u, base.v + rng.choice((-radius, radius))
            else:
                u, v = base.u + rng.uniform(-70, 70), base.v + rng.uniform(-70, 70)
                shift = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            dets.append(
                det(u, v, depth=rng.uniform(5, 80), vx=rng.uniform(-5, 5), vy=rng.uniform(-5, 5),
                    cls=base.class_id if rng.random() < 0.8 else rng.randrange(3),
                    conf=rng.choice((0.5, rng.random())), du=shift[0], dv=shift[1])
            )
        dets += dets[:10]
        assert greedy_associate(dets, tracks, weights) == _slow_greedy(dets, tracks, weights)
        mat = cost_matrix(dets, tracks, weights)
        for i, d in enumerate(dets):
            gu, gv = d.u - d.du, d.v - d.dv
            for j, t in enumerate(tracks):
                if t.class_id == d.class_id and (gu - t.u) ** 2 + (gv - t.v) ** 2 <= radius**2:
                    assert mat[i, j] == pairwise_cost(d, t, weights)
                else:
                    assert math.isinf(mat[i, j])



def test_result_arrays_and_tuples_agree_on_random_instances():
    """greedy_associate keeps its result as arrays. The three tuples built
    from them on access hold the one-pass reference's values, as Python
    ints, and a result built from those tuples equals, hashes and prints as
    the one greedy_associate returned."""
    rng = random.Random(606)
    weights = CostWeights()
    for _ in range(200):
        dets, tracks = _random_instance(rng)
        res = greedy_associate(dets, tracks, weights)
        slow = _slow_greedy(dets, tracks, weights)
        assert (res.matches, res.unmatched_detections, res.unmatched_tracks) == (
            slow.matches, slow.unmatched_detections, slow.unmatched_tracks
        )
        values = [*(x for pair in res.matches for x in pair), *res.unmatched_detections, *res.unmatched_tracks]
        assert all(type(x) is int for x in values)
        assert all(type(pair) is tuple for pair in res.matches)

        ids = [t.track_id for t in tracks]
        assert [(i, ids[row]) for i, row in res.pairs.tolist()] == list(res.matches)
        assert res.unmatched_det_rows.tolist() == list(res.unmatched_detections)
        assert [ids[row] for row in res.unmatched_track_rows.tolist()] == list(res.unmatched_tracks)
        assert res.unmatched_track_rows.tolist() == sorted(res.unmatched_track_rows.tolist())  # input order

        rebuilt = AssociationResult(res.matches, res.unmatched_detections, res.unmatched_tracks)
        assert rebuilt == res and res == rebuilt
        assert hash(rebuilt) == hash(res) and repr(rebuilt) == repr(res)
        if res.matches:
            assert AssociationResult(res.matches[1:], res.unmatched_detections, res.unmatched_tracks) != res


def test_shuffled_track_table_matches_the_sorted_one_by_id():
    """Ids in ascending order rank as their rows; any other order ranks them
    through np.unique. Both give the same matches by id."""
    rng = random.Random(707)
    weights = CostWeights()
    shuffled_tables = 0
    for _ in range(200):
        dets, tracks = _random_instance(rng)
        by_id = sorted(tracks, key=lambda t: t.track_id)
        shuffled = rng.sample(by_id, len(by_id))
        shuffled_tables += shuffled != by_id
        a, b = greedy_associate(dets, shuffled, weights), greedy_associate(dets, by_id, weights)
        assert (a.matches, a.unmatched_detections) == (b.matches, b.unmatched_detections)
        assert sorted(a.unmatched_tracks) == list(b.unmatched_tracks)
        assert [shuffled[row].track_id for row in a.pairs[:, 1].tolist()] == [tid for _, tid in a.matches]
    assert shuffled_tables > 100


@pytest.mark.parametrize("ids", [(1, 2, 2, 3), (3, 1, 3), (2, 2)])
def test_repeated_track_ids_raise_in_any_order(ids):
    tracks = [trk(tid, 10.0 * j, 0.0) for j, tid in enumerate(ids)]
    for dets in ([det(0.0, 0.0)], []):
        with pytest.raises(ValueError, match="track ids must be distinct"):
            greedy_associate(dets, tracks, CostWeights())

FINITE_FIELDS = [
    (Detection, det(100.0, 50.0, conf=0.5), field, "detection fields must be finite")
    for field in ("u", "v", "depth", "vx", "vy", "confidence", "du", "dv")
] + [
    (RadarPoint, RadarPoint(20.0, 1.0, 0.0, 2.0, -1.0), field, "radar point fields must be finite")
    for field in ("x", "y", "z", "vx", "vy")
] + [
    # Tuning values, rejected where the config is built.
    (CostWeights, CostWeights(), field, "cost weights must be finite") for field in ("alpha", "beta", "delta")
] + [
    (PillarDims, PillarDims(), field, "pillar dimensions must be finite") for field in ("width_y", "height_z", "depth_x")
] + [
    (NoiseModel, NoiseModel(), field, "noise sigmas must be finite")
    for field in ("center_px", "depth_m", "velocity_mps", "displacement_px")
] + [
    (RadarModel, RadarModel(), field, "radar sigmas must be finite") for field in ("position_sigma_m", "velocity_sigma_mps")
] + [
    (ScenarioConfig, crossing_scenario(), "frame_dt", "frame_dt must be finite"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize(
    "cls, valid, field, message", FINITE_FIELDS, ids=[f"{c.__name__}.{f}" for c, _, f, _ in FINITE_FIELDS]
)
def test_non_finite_field_is_rejected(cls, valid, field, message, bad):
    with pytest.raises(ValueError, match=message):
        replace(valid, **{field: bad})


def test_infinite_gate_radius_matches_anywhere():
    far = greedy_associate([det(0.0, 0.0)], [trk(1, 700.0, 400.0)], CostWeights(radius=math.inf))
    assert far.matches == ((0, 1),)


def _valid_row(rng):
    """A random valid detection row: field values in Detection order."""
    u, v = rng.uniform(-100.0, 900.0), rng.uniform(-100.0, 500.0)
    box = (u - rng.uniform(1, 50), v - rng.uniform(1, 50), u + rng.uniform(1, 50), v + rng.uniform(1, 50))
    return [u, v, rng.uniform(1e-3, 80.0), rng.uniform(-9, 9), rng.uniform(-9, 9), rng.randrange(-3, 4), rng.random(),
            rng.uniform(-9, 9), rng.uniform(-9, 9), box if rng.random() < 0.7 else None]


def _batch_of_rows(rows):
    """A DetectionBatch built straight from columns, as generate builds one."""
    scalars = [np.array(column) for column in zip(*(row[:9] for row in rows))]
    bbox = np.array([(math.nan,) * 4 if row[9] is None else row[9] for row in rows])
    return DetectionBatch(*scalars, bbox, np.array([row[9] is not None for row in rows]))


def test_detection_rule_agrees_with_the_batch_check():
    """Detection.__post_init__ states the detection rule for one object and
    DetectionBatch.checked_copy for columns. Each seeded case breaks one
    field of one row among valid ones; both forms raise the same message,
    whether the frame is built from rows or from columns."""
    rng = random.Random(29)
    float_fields = (0, 1, 2, 3, 4, 6, 7, 8)  # u, v, depth, vx, vy, confidence, du, dv
    kinds = {"non-finite": 0, "box": 0, "depth": 0, "confidence": 0}
    for _ in range(400):
        row = _valid_row(rng)
        kind = rng.choice(sorted(kinds))
        kinds[kind] += 1
        if kind == "non-finite":
            row[rng.choice(float_fields)] = rng.choice((math.nan, math.inf, -math.inf))
        elif kind == "box":
            box = list(row[9] or (10.0, 10.0, 20.0, 20.0))
            box[rng.randrange(4)] = rng.choice((math.nan, math.inf, -math.inf))
            row[9] = tuple(box)
        elif kind == "depth":
            row[2] = rng.choice((0.0, -0.0, -5e-324, -rng.uniform(0.0, 80.0)))
        else:
            row[6] = rng.choice((-5e-324, -rng.random(), 1.0 + 2**-52, 1.0 + rng.random(), 2.0))
        with pytest.raises(ValueError) as scalar:
            Detection(*row)
        rows = [_valid_row(rng) for _ in range(rng.randrange(4))]
        rows.insert(rng.randrange(len(rows) + 1), row)
        for given in (rows, _batch_of_rows(rows)):
            with pytest.raises(ValueError) as vectorised:
                FrameInput(0, 0.0, given)
            assert str(vectorised.value) == str(scalar.value), (kind, row)
    assert min(kinds.values()) > 50

    edges = [
        (1.0, 2.0, 1e-3, 0.0, 0.0, -1, 0.0, 0.0, 0.0, None),
        (1.0, 2.0, 5.0, 0.0, 0.0, -(2**63), 1.0, 0.0, 0.0, (0.0, 0.0, 1.0, 1.0)),
        (1.0, 2.0, 5e-324, 0.0, 0.0, 2**63 - 1, -0.0, 0.0, 0.0, (-1.0, -1.0, -1.0, -1.0)),
    ]
    objects = [Detection(*row) for row in edges]
    for given in (objects, edges, _batch_of_rows(edges)):
        assert FrameInput(0, 0.0, given).detections.rows() == edges


def _finite_radar_row(rng):
    return [rng.uniform(-80.0, 80.0) for _ in range(5)]


def test_radar_rule_agrees_with_the_frame_check():
    """RadarPoint.__post_init__ states the radar rule for one return and
    FrameInput screens its (N, 5) array. Each seeded case puts a non-finite
    value in one field of one row among finite ones; FrameInput raises
    RadarPoint's message whether the rows come as RadarPoints and rows, as
    rows or as an array."""
    rng = random.Random(31)
    broken = [0] * 5
    for _ in range(400):
        row = _finite_radar_row(rng)
        field = rng.randrange(5)
        broken[field] += 1
        row[field] = rng.choice((math.nan, math.inf, -math.inf))
        with pytest.raises(ValueError) as scalar:
            RadarPoint(*row)
        rows = [_finite_radar_row(rng) for _ in range(rng.randrange(4))]
        at = rng.randrange(len(rows) + 1)
        points = [RadarPoint(*r) for r in rows]
        rows.insert(at, row)
        points.insert(at, row)
        for given in (points, rows, np.array(rows)):
            with pytest.raises(ValueError) as vectorised:
                FrameInput(0, 0.0, (), given)
            assert str(vectorised.value) == str(scalar.value), (field, row)
    assert min(broken) > 50

    edges = [(1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -0.0, 0.0)]
    for given in ([RadarPoint(*edges[0])], edges, np.array(edges)):
        assert FrameInput(0, 0.0, (), given).radar.tolist() == [list(edges[0])]


def test_a_row_the_screen_refuses_is_never_passed(monkeypatch):
    """If an object rule accepted a row that its column screen refuses, the
    frame is still refused, never built."""
    monkeypatch.setattr(Detection, "__post_init__", lambda self: None)
    monkeypatch.setattr(RadarPoint, "__post_init__", lambda self: None)
    bad = (1.0, 2.0, math.nan, 0.0, 0.0, 0, 0.5, 0.0, 0.0, None)
    Detection(*bad)
    for given in ([bad], _batch_of_rows([bad])):
        with pytest.raises(ValueError, match="^a detection row that Detection accepts fails the batch screen$"):
            FrameInput(0, 0.0, given)
    RadarPoint(math.nan, 0.0, 0.0, 0.0, 0.0)
    for given in ([(math.nan, 0.0, 0.0, 0.0, 0.0)], np.array([[0.0, 0.0, 0.0, 0.0, math.inf]])):
        with pytest.raises(ValueError, match="^a radar row that RadarPoint accepts fails the finite screen$"):
            FrameInput(0, 0.0, (), given)


def _window_pairs(keys, lo, hi):
    """The pairs window_join must return, by a scan over every pair."""
    return sorted((q, k) for q in range(len(lo)) for k in range(len(keys)) if lo[q] <= keys[k] <= hi[q])


def test_window_join_matches_pair_scan():
    rng = np.random.default_rng(71)
    for _ in range(300):
        n_keys, n_queries = rng.integers(0, 25, 2)
        # Small integers repeat, so keys often sit exactly on a bound; a few
        # keys and bounds are NaN or infinite, and some windows are empty.
        keys = rng.integers(0, 12, n_keys).astype(float)
        lo = rng.integers(-2, 14, n_queries).astype(float)
        hi = lo + rng.integers(-2, 6, n_queries)
        keys[rng.random(n_keys) < 0.1] = np.nan
        for bounds, inf in ((lo, -np.inf), (hi, np.inf)):
            bounds[rng.random(n_queries) < 0.1] = np.nan
            bounds[rng.random(n_queries) < 0.05] = inf
        query, key = window_join(keys, lo, hi)
        assert query.dtype.kind == key.dtype.kind == "i"
        assert sorted(zip(query.tolist(), key.tolist())) == _window_pairs(keys, lo, hi)


def test_window_join_on_empty_inputs():
    none = np.empty(0)
    for keys, lo in ((none, none), (none, np.array([1.0])), (np.array([1.0]), none)):
        query, key = window_join(keys, lo, lo + 1.0)
        assert query.size == key.size == 0
    query, key = window_join(np.array([1.0, 2.0]), np.array([1.0]), np.array([2.0]))  # both keys on a bound
    assert (query.tolist(), sorted(key.tolist())) == ([0, 0], [0, 1])
