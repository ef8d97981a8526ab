"""The size rules: below a size constant a frame takes a path built for few
pairs, above it the path built for many. Both sides of every constant must
give the same bits, so each test runs both on the same random inputs: exact
gate and window boundaries, +inf and repeated costs, shuffled track ids,
returns behind the camera and empty frames."""

from __future__ import annotations

import numpy as np
import pytest

from fusetrack import association, fusion
from fusetrack.association import CostWeights, Detection, Track, _feasible_pairs, cost_matrix, greedy_associate
from fusetrack.association import DetectionBatch, TrackTable
from fusetrack.fusion import PillarDims, associate_boxes
from fusetrack.geometry import CameraModel, project_points

from reference import random_radar_scene

CAM = CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448)
YAWED = CameraModel.forward_facing(900.0, 950.0, 410.0, 230.0, 800, 448, position=(1.5, -0.4, 1.2), yaw=0.35)
BELOW_EVERY_INPUT, ABOVE_EVERY_INPUT = -1, 10**12  # -1: even an empty frame takes the large-input path


def _both_sides(monkeypatch, module, constant, run):
    """run() with every input above the constant, then below it."""
    results = []
    for value in (BELOW_EVERY_INPUT, ABOVE_EVERY_INPUT):
        monkeypatch.setattr(module, constant, value)
        results.append(run())
    return results


def _instance(rng):
    """Detections and tracks on a 2-pixel lattice with a gate radius of 10,
    so that many pairs sit exactly on the gate (6-8-10 and 0-10
    triangles) and many costs repeat; some depths overflow their squares
    (+inf costs); track ids are distinct and shuffled; a frame may be empty."""
    n_dets, n_tracks = (int(n) for n in rng.integers(0, 40, 2))
    if rng.random() < 0.1:
        n_dets = 0 if rng.random() < 0.5 else n_dets
        n_tracks = 0 if n_dets else n_tracks

    def lattice(n):
        return (2.0 * rng.integers(0, 25, n)).tolist()

    depths = [1e155, 10.0, 20.0, 20.0]
    dets = [
        Detection(u, v, float(rng.choice(depths)), float(rng.integers(-1, 2)), 0.0, int(rng.integers(0, 2)),
                  float(rng.choice([0.5, 0.75, 1.0])), float(rng.choice([0.0, 2.0])), 0.0)
        for u, v in zip(lattice(n_dets), lattice(n_dets))
    ]
    ids = rng.permutation(np.arange(1, 4 * n_tracks + 2))[:n_tracks].tolist()
    tracks = [
        Track(track_id, u, v, float(rng.choice(depths)), float(rng.integers(-1, 2)), 0.0, int(rng.integers(0, 2)), 1.0, 0)
        for track_id, u, v in zip(ids, lattice(n_tracks), lattice(n_tracks))
    ]
    return dets, tracks


_WEIGHTS = [CostWeights(radius=10.0), CostWeights(beta=1e306, radius=10.0), CostWeights(beta=0.0, delta=0.0, radius=10.0)]


def _association(dets, tracks, weights):
    """Everything association gives for one frame, as exact values and bytes."""
    result = greedy_associate(dets, tracks, weights)
    key = (result.matches, result.unmatched_detections, result.unmatched_tracks, cost_matrix(dets, tracks, weights).tobytes())
    if dets and tracks:
        ii, jj, costs = _feasible_pairs(DetectionBatch.from_detections(dets), TrackTable.from_tracks(tracks), weights)
        key += (sorted(zip(ii.tolist(), jj.tolist(), costs.tolist())),)
    return key


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("constant", ["GATE_GRID_PAIRS", "LEXSORT_PAIRS"])
def test_association_gives_the_same_bits_on_both_sides(monkeypatch, constant):
    rng = np.random.default_rng(83)
    seen = {"on the gate": 0, "inf cost": 0, "repeated cost": 0, "shuffled ids": 0, "empty": 0}
    for _ in range(300):
        dets, tracks = _instance(rng)
        weights = _WEIGHTS[int(rng.integers(0, len(_WEIGHTS)))]
        large, small = _both_sides(monkeypatch, association, constant, lambda: _association(dets, tracks, weights))
        assert large == small
        seen["empty"] += not (dets and tracks)
        if dets and tracks:
            pairs = large[-1]
            costs = [cost for _, _, cost in pairs]
            seen["inf cost"] += np.inf in costs
            seen["repeated cost"] += len(set(costs)) < len(costs)
            seen["shuffled ids"] += [t.track_id for t in tracks] != sorted(t.track_id for t in tracks)
            seen["on the gate"] += any(
                (dets[i].u - dets[i].du - tracks[j].u) ** 2 + (dets[i].v - tracks[j].v) ** 2 == 100.0 for i, j, _ in pairs)
    assert min(seen.values()) >= 20, seen


def _on_the_prefilter_bounds(rng, camera, boxes, est, radar, offsets):
    """Two more boxes on the bounds of the box-left-edge window of a pillar,
    each holding only that pillar's test points on the bound: one whose left
    edge is the pillar's largest u, and the widest box of the frame, whose
    right edge is the pillar's smallest u."""
    p = int(rng.integers(0, len(radar)))
    uv = project_points(radar[p, :3] + offsets, camera)[0]
    base_depth = float(radar[p, :3] @ camera.rotation[2] + camera.translation[2])
    if np.isnan(uv).all() or base_depth <= 0:
        return boxes, est
    (u_hi, v_hi), (u_lo, v_lo) = uv[np.nanargmax(uv[:, 0])], uv[np.nanargmin(uv[:, 0])]
    widest = 1.0 + max([250.0, *(boxes[:, 2] - boxes[:, 0])])
    extra = [(u_hi, v_hi - 10.0, u_hi + 30.0, v_hi + 10.0), (u_lo - widest, v_lo - 10.0, u_lo, v_lo + 10.0)]
    return np.concatenate([boxes, extra]), np.concatenate([est, [base_depth] * 2])


def _frustum_instance(rng, camera):
    """A random fusion frame, with boxes whose edges sit exactly on a
    projected test point of some pillar, boxes on the bounds of the
    prefilter's window, pillars whose base depth sits exactly on a box's
    depth window (on the forward camera, base depth is x), copies of
    pillars (exact depth ties), returns behind the camera, and empty frames."""
    dets, pillars = random_radar_scene(rng, camera, max_pillars=60)
    dims = pillars[0].dims if pillars else PillarDims()
    radar = np.array([(p.base.x, p.base.y, p.base.z, p.base.vx, p.base.vy) for p in pillars]).reshape(-1, 5)
    boxes = np.array([d.bbox2d for d in dets]).reshape(-1, 4)
    est = np.array([d.est_depth for d in dets])
    if len(radar):
        radar = np.concatenate([radar, radar[rng.integers(0, len(radar), 3)]])  # exact depth ties
        radar[rng.random(len(radar)) < 0.1, 0] *= -1.0  # behind the camera
        offsets = fusion._TEST_POINT_SIGNS * (0.5 * dims.depth_x, 0.5 * dims.width_y, dims.height_z)
        for k in range(len(boxes)):
            p = int(rng.integers(0, len(radar)))
            uv = project_points(radar[p, :3] + offsets, camera)[0][int(rng.integers(0, 9))]
            if not np.isnan(uv).any() and rng.random() < 0.7:
                edge = int(rng.integers(0, 4))  # u_min, v_min, u_max or v_max on the point
                boxes[k, edge] = uv[edge % 2]
                boxes[k, (edge + 2) % 4] = uv[edge % 2] + (30.0 if edge < 2 else -30.0)
            if camera is CAM and rng.random() < 0.5:
                radar[p, 0] = est[k] * rng.choice([0.75, 1.25])  # depth_tolerance 0.25: on the window's edge
        boxes, est = _on_the_prefilter_bounds(rng, camera, boxes, est, radar, offsets)
    if rng.random() < 0.1:
        boxes, est = boxes[:0], est[:0]
    elif rng.random() < 0.1:
        radar = radar[:0]
    return boxes, est, radar, dims


@pytest.mark.parametrize("camera", [CAM, YAWED], ids=["forward", "yawed"])
def test_frustum_association_gives_the_same_bits_on_both_sides(monkeypatch, camera):
    rng = np.random.default_rng(89)
    hits = empty = 0
    for _ in range(200):
        boxes, est, radar, dims = _frustum_instance(rng, camera)

        def run():
            won = associate_boxes(boxes, est, radar, dims, camera, 0.25)
            return [won.count] + [(column.dtype.str, column.tobytes()) for column in (won.box, won.pillar, won.depth, won.vx, won.vy)]

        large, small = _both_sides(monkeypatch, fusion, "FRUSTUM_GRID_PAIRS", run)
        assert large == small
        hits += len(np.frombuffer(large[1][1], np.intp))
        empty += not (len(boxes) and len(radar))
    assert hits > 200 and empty > 10
