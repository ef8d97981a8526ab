"""Synthetic scene generator: determinism, exactness, occlusion scripting."""

import dataclasses
import math

import numpy as np
import pytest

from fusetrack.geometry import CameraModel, project_points
from fusetrack.simulator import (
    NoiseModel,
    ObjectSpec,
    OcclusionRule,
    RadarModel,
    ScenarioConfig,
    Scene,
    crossing_scenario,
    generate,
)

from reference import frame_detections, reference_generate

CAM = CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448)


def quiet(**kwargs) -> ScenarioConfig:
    """Noise-free, radar-free single-object default, overridable."""
    base = dict(
        seed=7,
        num_frames=10,
        frame_dt=0.1,
        camera=CAM,
        objects=(ObjectSpec(0, (20.0, 0.0, 0.0), (0.0, 0.0, 0.0)),),
        noise=NoiseModel.none(),
        radar=RadarModel(points_per_object=0, position_sigma_m=0.0, velocity_sigma_mps=0.0, clutter_per_frame=0),
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


def center_at(spec: ObjectSpec, t: float) -> np.ndarray:
    """The object's center at time t, by its constant-velocity motion."""
    p, v = spec.position, spec.velocity
    return np.array([p[0] + v[0] * t, p[1] + v[1] * t, p[2] + v[2] * t])


def scenes_equal(a: Scene, b: Scene) -> bool:
    # config holds numpy arrays (camera), so compare the generated payload
    return (
        a.frames == b.frames
        and a.ground_truth == b.ground_truth
        and a.provenance == b.provenance
    )


def test_same_seed_is_bit_identical():
    cfg = crossing_scenario(10.0, seed=42)
    assert scenes_equal(generate(cfg), generate(cfg))


def test_static_noise_free_object_repeats_exactly():
    scene = generate(quiet())
    first = frame_detections(scene.frames[0])[0]
    for frame in scene.frames:
        assert frame_detections(frame) == [first]
    assert (first.du, first.dv) == (0.0, 0.0)
    assert first.depth == 20.0
    uv, _, in_image = project_points(np.array([20.0, 0.0, 0.0]), CAM)
    assert in_image[0]
    assert (first.u, first.v) == tuple(uv[0].tolist())
    assert 0.5 <= first.confidence < 1.0


def test_noise_free_displacement_is_exact_center_offset():
    cfg = quiet(objects=(ObjectSpec(0, (30.0, 3.0, 0.0), (2.0, -1.5, 0.0)),), num_frames=8)
    scene = generate(cfg)
    uv, _, in_image = project_points(np.array([center_at(cfg.objects[0], k * cfg.frame_dt) for k in range(8)]), CAM)
    assert in_image.all()
    uvs = [tuple(p) for p in uv.tolist()]
    for k, frame in enumerate(scene.frames):
        (det,) = frame_detections(frame)
        assert (det.u, det.v) == uvs[k]
        if k == 0:
            assert (det.du, det.dv) == (0.0, 0.0)
        else:
            assert det.du == uvs[k][0] - uvs[k - 1][0]
            assert det.dv == uvs[k][1] - uvs[k - 1][1]
        assert (det.vx, det.vy) == (2.0, -1.5)


def test_noise_free_radar_sits_on_the_object():
    cfg = quiet(
        objects=(ObjectSpec(0, (25.0, -2.0, 0.0), (1.0, 2.0, 0.0)),),
        radar=RadarModel(points_per_object=2, position_sigma_m=0.0, velocity_sigma_mps=0.0, clutter_per_frame=0),
    )
    scene = generate(cfg)
    for k, frame in enumerate(scene.frames):
        c = center_at(cfg.objects[0], k * cfg.frame_dt)
        assert len(frame.radar) == 2
        for x, y, z, vx, vy in frame.radar.tolist():
            assert (x, y, z) == (c[0], c[1], c[2])
            assert (vx, vy) == (1.0, 2.0)
            # camera looks along +x from the origin: axis depth == x
            assert x == frame.detections.depth[0]


def test_object_leaving_the_image_leaves_ground_truth():
    # u hits the left border (u=0, closed) at y=4, i.e. frame 8; beyond
    # that the object is out of view for detections and ground truth alike.
    cfg = quiet(objects=(ObjectSpec(0, (10.0, 0.0, 0.0), (0.0, 5.0, 0.0)),), num_frames=12)
    scene = generate(cfg)
    for k in range(12):
        expected = 1 if k <= 8 else 0
        assert len(scene.ground_truth[k].objects) == expected
        assert len(scene.frames[k].detections) == expected


def test_initially_hidden_object_is_rejected():
    with pytest.raises(ValueError):
        generate(quiet(objects=(ObjectSpec(0, (-5.0, 0.0, 0.0), (1.0, 0.0, 0.0)),)))


def test_dropout_suppresses_some_frames_deterministically():
    cfg = quiet(num_frames=40, dropout=0.6)
    scene = generate(cfg)
    counts = [len(f.detections) for f in scene.frames]
    assert 0 < sum(counts) < 40
    assert scenes_equal(scene, generate(cfg))
    # ground truth is unaffected by dropout
    assert all(len(g.objects) == 1 for g in scene.ground_truth)


def test_crossing_occludes_exactly_the_coincidence_frame():
    scene = generate(crossing_scenario(10.0, seed=5))
    counts = [len(f.detections) for f in scene.frames]
    assert counts[20] == 1
    assert all(c == 2 for k, c in enumerate(counts) if k != 20)
    # the farther object (index 1) is the one suppressed
    assert scene.provenance[20] == (0,)
    assert all(len(g.objects) == 2 for g in scene.ground_truth)


def test_crossing_centers_coincide_at_midframe():
    cfg = crossing_scenario(10.0, seed=5)
    cfg = dataclasses.replace(
        cfg,
        noise=NoiseModel.none(),
        occlusion=OcclusionRule(enabled=False),
        radar=RadarModel(points_per_object=0, position_sigma_m=0.0, velocity_sigma_mps=0.0, clutter_per_frame=0),
    )
    scene = generate(cfg)
    a, b = frame_detections(scene.frames[20])
    assert math.hypot(a.u - b.u, a.v - b.v) <= 2.0
    assert abs(a.depth - b.depth) == pytest.approx(10.0)


def test_zero_depth_gap_is_a_valid_control():
    scene = generate(crossing_scenario(0.0, seed=5))
    assert len(scene.frames) == 41
    # coincident equal-depth boxes: the later-listed object is suppressed
    assert scene.provenance[20] == (0,)


def test_seeds_change_noise_but_not_truth():
    base = generate(crossing_scenario(10.0, seed=0))
    for seed in (1, 2, 3, 4):
        other = generate(crossing_scenario(10.0, seed=seed))
        assert other.ground_truth == base.ground_truth
        assert other.frames != base.frames


def test_config_dict_round_trip():
    cfg = crossing_scenario(7.5, seed=9)
    restored = ScenarioConfig.from_dict(cfg.to_dict())
    assert scenes_equal(generate(cfg), generate(restored))


def test_config_validation():
    with pytest.raises(ValueError):
        quiet(dropout=1.0)
    with pytest.raises(ValueError):
        quiet(frame_dt=0.0)
    with pytest.raises(ValueError):
        quiet(num_frames=0)
    with pytest.raises(ValueError):
        NoiseModel(center_px=-0.1)
    with pytest.raises(ValueError):
        OcclusionRule(iou_threshold=0.0)
    with pytest.raises(ValueError):
        RadarModel(points_per_object=-1)
    with pytest.raises(ValueError):
        ObjectSpec(0, (10.0, 0.0, 0.0), (0.0, 0.0, 0.0), size=(0.0, 1.0))


def test_provenance_aligns_with_detections():
    scene = generate(crossing_scenario(10.0, seed=11))
    for frame, prov, gt in zip(scene.frames, scene.provenance, scene.ground_truth):
        assert len(prov) == len(frame.detections)
        gt_ids = {o.gt_id for o in gt.objects}
        assert set(prov) <= gt_ids
        assert frame.detections.class_id.tolist() == [scene.config.objects[src].class_id for src in prov]


def random_objects(rng, n):
    """n objects in front of CAM, some leaving the view, with exact
    duplicates (identical boxes at equal depth) and equal-depth neighbours
    shifted sideways (overlapping boxes, the tie rule)."""
    objects = []
    while len(objects) < n:
        position = (float(rng.uniform(5.0, 60.0)), float(rng.uniform(-20.0, 20.0)), float(rng.uniform(-1.0, 1.0)))
        velocity = (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-10.0, 10.0)), 0.0)
        size = (float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 3.0)))
        spec = ObjectSpec(int(rng.integers(0, 3)), position, velocity, size)
        objects.append(spec)
        draw = rng.random()
        if draw < 0.1:
            objects.append(spec)
        elif draw < 0.2:
            shifted = (position[0], position[1] + float(rng.uniform(-0.5, 0.5)), position[2])
            objects.append(ObjectSpec(spec.class_id, shifted, velocity, size))
    return tuple(objects[:n])


def random_scenario(seed, n, **kwargs):
    rng = np.random.default_rng(seed)
    base = dict(
        seed=seed,
        num_frames=12,
        frame_dt=0.1,
        camera=CAM,
        objects=random_objects(rng, n),
        dropout=float(rng.choice([0.0, 0.5])),
        occlusion=OcclusionRule(float(rng.choice([0.2, 0.5, 0.7, 1.0]))),
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


def pair(first, second, threshold, **kwargs):
    """Two static objects at 20 m, noise-free, no dropout."""
    return quiet(objects=(first, second), occlusion=OcclusionRule(threshold), **kwargs)


YAWED = CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448, yaw=0.5)
NO_RADAR = RadarModel(points_per_object=0, clutter_per_frame=0)

SCENARIOS = {
    "no objects": random_scenario(1, 0),
    "one object": random_scenario(2, 1),
    "two objects": random_scenario(3, 2),
    "300 objects": random_scenario(4, 300, num_frames=6),
    "random 40": random_scenario(5, 40),
    "random 40, threshold 1.0": random_scenario(6, 40, occlusion=OcclusionRule(1.0)),
    "occlusion disabled": random_scenario(7, 40, occlusion=OcclusionRule(enabled=False)),
    "dropout 0": random_scenario(8, 40, dropout=0.0),
    "dropout 0.5": random_scenario(9, 40, dropout=0.5),
    "no radar points, no clutter": random_scenario(10, 40, radar=NO_RADAR),
    "clutter only": random_scenario(11, 20, radar=RadarModel(points_per_object=0, clutter_per_frame=4)),
    "object radar only": random_scenario(12, 20, radar=RadarModel(points_per_object=2, clutter_per_frame=0)),
    "depth noise below the 1 mm floor": random_scenario(14, 20, noise=NoiseModel(depth_m=40.0)),
    "equal depth overlap": pair(
        ObjectSpec(0, (20.0, 0.0, 0.0), (0.0, 0.0, 0.0)), ObjectSpec(1, (20.0, 0.3, 0.0), (0.0, 0.0, 0.0)), 0.5
    ),
    "identical boxes, threshold 1.0": pair(
        ObjectSpec(0, (20.0, 0.0, 0.0), (0.0, 0.0, 0.0)), ObjectSpec(0, (20.0, 0.0, 0.0), (0.0, 0.0, 0.0)), 1.0
    ),
    "boxes touching along an edge": pair(
        ObjectSpec(0, (20.0, 0.0, 0.0), (0.0, 0.0, 0.0), (2.0, 1.5)),
        ObjectSpec(0, (20.0, 2.0, 0.0), (0.0, 0.0, 0.0), (2.0, 1.5)),
        1e-9,
    ),
    "near wide object without a box": random_scenario(
        13,
        2,
        camera=YAWED,
        objects=(
            ObjectSpec(0, (3.0, 1.0, 0.0), (1.0, 0.0, 0.0), (20.0, 1.5)),
            ObjectSpec(1, (30.0, 10.0, 0.0), (0.0, -2.0, 0.0)),
        ),
    ),
    "objects leaving the image": quiet(
        objects=(ObjectSpec(0, (10.0, 0.0, 0.0), (0.0, 5.0, 0.0)), ObjectSpec(1, (10.0, 1.0, 0.0), (0.0, -5.0, 0.0))),
        num_frames=14,
        occlusion=OcclusionRule(0.1),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_generate_matches_reference(name):
    cfg = SCENARIOS[name]
    fast, ref = generate(cfg), reference_generate(cfg)
    assert len(fast.frames) == len(ref.frames) == cfg.num_frames
    for a, b in zip(fast.frames, ref.frames):
        assert a == b and repr(a) == repr(b), f"frame {b.frame_index}"
    assert fast.ground_truth == ref.ground_truth and repr(fast.ground_truth) == repr(ref.ground_truth)
    assert fast.provenance == ref.provenance


def test_reference_cases_exercise_their_rule():
    """The hand cases hit the rule their name promises, so agreement with
    the reference says something."""
    scene = generate(SCENARIOS["equal depth overlap"])
    assert all(prov == (0,) for prov in scene.provenance)
    scene = generate(SCENARIOS["identical boxes, threshold 1.0"])
    assert all(prov == (0, 1) for prov in scene.provenance)
    scene = generate(SCENARIOS["boxes touching along an edge"])
    boxes = scene.frames[0].detections.bbox.tolist()
    assert boxes[0][0] == boxes[1][2] or boxes[0][2] == boxes[1][0]
    assert all(prov == (0, 1) for prov in scene.provenance)
    scene = generate(SCENARIOS["near wide object without a box"])
    assert any(not frame.detections.boxed.all() for frame in scene.frames)
    scene = generate(SCENARIOS["objects leaving the image"])
    assert len(scene.ground_truth[0].objects) == 2 and len(scene.ground_truth[-1].objects) == 0
    scene = generate(SCENARIOS["depth noise below the 1 mm floor"])
    assert any((frame.detections.depth == 1e-3).any() for frame in scene.frames)
    cfg = SCENARIOS["300 objects"]
    occluded = generate(cfg).frames
    unoccluded = generate(dataclasses.replace(cfg, occlusion=OcclusionRule(enabled=False))).frames
    assert sum(map(len, (f.detections for f in occluded))) < sum(map(len, (f.detections for f in unoccluded)))
