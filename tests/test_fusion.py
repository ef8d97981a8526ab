"""Frustum association tests, cross-checked against the brute-force loops in
tests/reference.py."""

from __future__ import annotations

import numpy as np
import pytest

from fusetrack.fusion import Pillar, PillarDims, PreliminaryDetection, RadarPoint, expand_pillars, frustum_associate
from fusetrack.geometry import CameraModel, image_to_vehicle

from reference import brute_force_radar_association, homogeneous_project, random_radar_scene

CAM = CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448)


def _det(u_min, v_min, u_max, v_max, depth, class_id=0, confidence=1.0):
    return PreliminaryDetection((u_min, v_min, u_max, v_max), depth, class_id, confidence)


def _point_at_pixel(u, v, depth, vx=0.0, vy=0.0):
    pos = image_to_vehicle(u, v, depth, CAM)
    return RadarPoint(float(pos[0]), float(pos[1]), float(pos[2]), vx, vy)


def test_expand_pillars_empty_and_order():
    assert expand_pillars([], PillarDims()) == []
    points = [RadarPoint(float(i + 5), 0.0, 0.0, float(i), -float(i)) for i in range(1000)]
    pillars = expand_pillars(points, (0.5, 1.5, 0.5))
    assert len(pillars) == 1000
    assert all(p.base is q for p, q in zip(pillars, points))


def test_pillar_extents_and_grounding():
    # 1 m is 50 px at 20 m. Box rows 190..230 span z = 0.68 .. -0.12 m.
    det = _det(380, 190, 420, 230, depth=20.0)

    def hit(u, v):
        pillars = expand_pillars([_point_at_pixel(u, v, 20.0)], (0.5, 1.5, 0.5))
        return frustum_associate([det], pillars, CAM, 0.25)[0] is not None

    # Grounded at the point and growing upward: a base 1 m below the center
    # row (v = 274) reaches into the box with its top at z = 0.5, while a
    # base 1 m above it (v = 174) rises away from the box.
    assert hit(400, 274)
    assert not hit(400, 174)
    # Centered in y: half a width (0.25 m, about 12.6 px) reaches into the
    # box from 8 px outside its left edge, not from 20 px outside.
    assert hit(372, 210)
    assert not hit(360, 210)


def test_non_positive_dims_rejected():
    with pytest.raises(ValueError):
        PillarDims(width_y=0.0)
    with pytest.raises(ValueError):
        expand_pillars([RadarPoint(5, 0, 0, 0, 0)], (0.5, -1.0, 0.5))


def test_frustum_depth_window():
    # est_depth 20 with tolerance 0.25: the window is [15, 25], both ends closed.
    det = _det(390, 214, 410, 234, depth=20.0)
    for depth, inside in ((14.9, False), (15.0, True), (20.0, True), (25.0, True), (25.1, False)):
        pillars = expand_pillars([_point_at_pixel(400, 224, depth)], PillarDims())
        [match] = frustum_associate([det], pillars, CAM, depth_tolerance=0.25)
        assert (match is not None) == inside
        if inside:
            assert match.depth == depth


def test_frustum_point_containment_matches_projection():
    det = _det(390, 214, 410, 234, depth=20.0)

    def hit(u, v, depth):
        pillars = expand_pillars([_point_at_pixel(u, v, depth)], PillarDims())
        return frustum_associate([det], pillars, CAM, 0.25)[0] is not None

    assert hit(400.0, 224.0, 20.0)
    # Same pixel, depth outside the window.
    assert not hit(400.0, 224.0, 30.0)
    # In-window depth, the whole pillar projecting right of the box.
    assert not hit(440.0, 224.0, 20.0)


def test_frustum_containment_agrees_with_bbox_test_on_random_points():
    # A vanishing pillar (1 nm on every side) projects to its base pixel, so
    # the rule reduces to the closed bbox test on the base projection plus
    # the depth window; points within 1e-3 px of a box edge are skipped.
    rng = np.random.default_rng(47)
    det = _det(250.0, 120.0, 520.0, 300.0, depth=30.0)
    u_min, v_min, u_max, v_max = det.bbox2d
    points = rng.uniform([-5.0, -25.0, -5.0], [60.0, 25.0, 8.0], size=(500, 3))
    pillars = expand_pillars([RadarPoint(*map(float, p), 0.0, 0.0) for p in points], (1e-9, 1e-9, 1e-9))
    checked = 0
    for pillar in pillars:
        x, y, w = homogeneous_project((pillar.base.x, pillar.base.y, pillar.base.z), CAM)
        if w > 0:
            u, v = x / w, y / w
            if min(abs(u - u_min), abs(u - u_max), abs(v - v_min), abs(v - v_max)) < 1e-3:
                continue
        expected = w > 0 and u_min <= u <= u_max and v_min <= v <= v_max and 22.5 <= w <= 37.5
        assert (frustum_associate([det], [pillar], CAM, 0.25)[0] is not None) == expected
        checked += expected
    assert checked > 10


def test_single_pillar_at_bbox_center_is_associated():
    det = _det(380, 204, 420, 244, depth=20.0)
    pillars = expand_pillars([_point_at_pixel(400, 224, 20.0, vx=3.0, vy=-1.0)], PillarDims())
    [match] = frustum_associate([det], pillars, CAM, depth_tolerance=0.25)
    assert match is not None
    assert match.depth == pytest.approx(20.0, abs=1e-9)
    assert (match.vx, match.vy) == (3.0, -1.0)


def test_closest_of_two_inside_pillars_wins():
    det = _det(380, 204, 420, 244, depth=20.0)
    far = _point_at_pixel(395, 224, 22.0, vx=22.0)
    near = _point_at_pixel(405, 224, 18.0, vx=18.0)
    pillars = expand_pillars([far, near], PillarDims())
    [match] = frustum_associate([det], pillars, CAM, depth_tolerance=0.25)
    assert match is not None
    assert match.depth == pytest.approx(18.0, abs=1e-9)
    assert match.vx == 18.0


def test_pillar_at_matching_pixel_but_wrong_depth_is_absent():
    det = _det(380, 204, 420, 244, depth=20.0)
    pillars = expand_pillars([_point_at_pixel(400, 224, 26.0)], PillarDims())
    assert frustum_associate([det], pillars, CAM, depth_tolerance=0.25) == [None]
    # Brute force agrees that nothing is inside.
    assert brute_force_radar_association([det], pillars, CAM, 0.25) == [None]


def test_depth_tie_goes_to_lowest_input_index():
    det = _det(380, 204, 420, 244, depth=20.0)
    a = _point_at_pixel(398, 222, 20.0, vx=1.0)
    b = RadarPoint(a.x, -a.y, a.z, 2.0, 0.0)  # mirrored pixel, identical base depth
    [match] = frustum_associate([det], expand_pillars([a, b], PillarDims()), CAM, 0.25)
    assert match is not None and match.vx == 1.0
    [match] = frustum_associate([det], expand_pillars([b, a], PillarDims()), CAM, 0.25)
    assert match is not None and match.vx == 2.0


def test_association_is_permutation_invariant_for_distinct_depths():
    rng = np.random.default_rng(53)
    for _ in range(30):
        dets, pillars = random_radar_scene(rng, CAM, max_pillars=20)
        baseline = frustum_associate(dets, pillars, CAM, 0.25)
        perm = rng.permutation(len(pillars))
        shuffled = [pillars[i] for i in perm]
        permuted = frustum_associate(dets, shuffled, CAM, 0.25)
        for a, b in zip(baseline, permuted):
            if a is None:
                assert b is None
            else:
                assert b is not None
                assert b.depth == pytest.approx(a.depth, abs=1e-12)


def test_overlapping_detections_share_a_pillar():
    # One pillar visible to two overlapping detections: each detection picks
    # on its own, whatever the confidences.
    det_low = _det(380, 204, 420, 244, 20.0, confidence=0.4)
    det_high = _det(385, 209, 425, 249, 20.0, confidence=0.9)
    pillars = expand_pillars([_point_at_pixel(400, 226, 20.0, vx=7.0)], PillarDims())
    shared = frustum_associate([det_low, det_high], pillars, CAM, 0.25)
    assert shared[0] is not None and shared[0].vx == 7.0
    assert shared[1] is not None and shared[1].vx == 7.0


def _assert_matches_brute_force(dets, pillars):
    got = frustum_associate(dets, pillars, CAM, 0.25)
    expected = brute_force_radar_association(dets, pillars, CAM, 0.25)
    for match, idx in zip(got, expected):
        if idx is None:
            assert match is None
        else:
            assert match is not None
            base = pillars[idx].base
            assert (match.vx, match.vy) == (base.vx, base.vy)
            ref_depth = homogeneous_project((base.x, base.y, base.z), CAM)[2]
            assert match.depth == pytest.approx(ref_depth, abs=1e-12)
    return sum(idx is not None for idx in expected)


def test_association_matches_brute_force_on_random_scenes():
    rng = np.random.default_rng(59)
    for _ in range(100):
        _assert_matches_brute_force(*random_radar_scene(rng, CAM))


def test_association_matches_brute_force_with_per_pillar_dims():
    # Every pillar gets its own extents, so the test points of one scene mix
    # widths, heights and depths from 0.1 m to 3 m.
    rng = np.random.default_rng(61)
    hits = 0
    for _ in range(100):
        dets, pillars = random_radar_scene(rng, CAM)
        sizes = rng.uniform(0.1, 3.0, (len(pillars), 3)).tolist()
        hits += _assert_matches_brute_force(dets, [Pillar(p.base, PillarDims(*size)) for p, size in zip(pillars, sizes)])
    assert hits > 50
