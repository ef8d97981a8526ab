"""Replay/ground-truth/result serialization: round trips, unknown-field
preservation, line-numbered parse errors, config plumbing."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fusetrack.association import CostWeights, Detection
from fusetrack.fileio import (
    ParseError,
    ground_truth_from_records,
    ground_truth_to_records,
    load_yaml,
    read_ground_truth,
    read_replay,
    read_results,
    replay_from_records,
    replay_to_records,
    results_from_records,
    results_to_predictions,
    results_to_records,
    save_yaml,
    tracker_config_from_dict,
    tracker_config_to_dict,
    write_ground_truth,
    write_replay,
    write_results,
)
from fusetrack.fusion import PillarDims, RadarPoint
from fusetrack.metrics import GroundTruthFrame, GroundTruthObject
from fusetrack.simulator import crossing_scenario, generate
from fusetrack.tracker import FrameInput, TrackerConfig, run_sequence


@pytest.fixture(scope="module")
def scene():
    return generate(crossing_scenario(10.0, seed=3))


@pytest.fixture(scope="module")
def results(scene):
    res, _ = run_sequence(scene.frames, TrackerConfig(), scene.config.camera)
    return res


def test_replay_round_trip(tmp_path, scene):
    path = str(tmp_path / "replay.jsonl")
    write_replay(path, scene.frames)
    assert read_replay(path) == list(scene.frames)


def test_replay_line_count_matches_frames(tmp_path, scene):
    path = str(tmp_path / "replay.jsonl")
    write_replay(path, scene.frames)
    with open(path) as fh:
        assert sum(1 for _ in fh) == len(scene.frames)


def test_ground_truth_round_trip(tmp_path, scene):
    path = str(tmp_path / "gt.jsonl")
    write_ground_truth(path, scene.ground_truth)
    assert read_ground_truth(path) == list(scene.ground_truth)


def test_results_round_trip(tmp_path, results):
    path = str(tmp_path / "results.jsonl")
    write_results(path, results)
    assert read_results(path) == results


def test_serialization_is_deterministic(tmp_path, scene, results):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    write_replay(a, scene.frames)
    write_replay(b, scene.frames)
    assert Path(a).read_bytes() == Path(b).read_bytes()
    write_results(a, results)
    write_results(b, results)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_unknown_fields_survive_round_trip(scene):
    records = replay_to_records(scene.frames)
    records[0]["camera_name"] = "front"
    records[0]["detections"][0]["raw_score"] = 0.123
    frames = replay_from_records(records)
    out = replay_to_records(frames, base_records=records)
    assert out[0]["camera_name"] == "front"
    assert out[0]["detections"][0]["raw_score"] == 0.123
    # typed fields still win over stale base values
    assert out[0]["detections"][0]["u"] == frames[0].detections[0].u


def test_ground_truth_unknown_fields(scene):
    records = ground_truth_to_records(scene.ground_truth)
    records[2]["weather"] = "rain"
    frames = ground_truth_from_records(records)
    out = ground_truth_to_records(frames, base_records=records)
    assert out[2]["weather"] == "rain"


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"frame": 0, "time": 0.0, "detections": [], "radar": []}\n{oops\n')
    with pytest.raises(ParseError) as err:
        read_replay(str(path))
    assert str(err.value).startswith(f"{path}:2: ")
    assert err.value.line_number == 2


def test_missing_field_names_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"frame": 0, "detections": [], "radar": []}\n')
    with pytest.raises(ParseError, match="time"):
        read_replay(str(path))


def test_non_object_line_rejected(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ParseError, match="JSON object"):
        read_replay(str(path))


@pytest.mark.parametrize(
    "reader, record",
    [
        (read_replay, {"frame": 0, "time": 0.0, "detections": 5, "radar": []}),
        (read_replay, {"frame": 0, "time": 0.0, "detections": [5], "radar": []}),
        (read_replay, {"frame": 0, "time": 0.0, "detections": [], "radar": 5}),
        (read_ground_truth, {"frame": 0, "objects": 5}),
        (read_results, {"frame": 0, "time": 0.0, "tracks": 5}),
    ],
)
def test_non_list_field_names_line(tmp_path, reader, record):
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ParseError) as err:
        reader(str(path))
    assert str(err.value).startswith(f"{path}:1: ")


def test_blank_lines_skipped(tmp_path, scene):
    path = str(tmp_path / "replay.jsonl")
    write_replay(path, scene.frames)
    with open(path) as fh:
        text = fh.read()
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n" + text.replace("\n", "\n\n", 3))
    assert read_replay(str(padded)) == list(scene.frames)


def test_detection_bbox_optional():
    det = Detection(u=5.0, v=6.0, depth=10.0, vx=0.0, vy=0.0, class_id=0, confidence=0.9, du=0.0, dv=0.0)
    frame = FrameInput(0, 0.0, (det,), (RadarPoint(10.0, 0.0, 0.0, 1.0, 0.0),))
    records = replay_to_records([frame])
    assert "bbox" not in records[0]["detections"][0]
    assert replay_from_records(records) == [frame]


@pytest.mark.parametrize("box", [[90.0, 310.0, 110.0], [90.0, 310.0, 110.0, 330.0, 5.0]])
def test_replay_bbox_of_wrong_length_names_line(tmp_path, box):
    good = {"u": 100.0, "v": 320.0, "depth": 20.0, "vx": 0.0, "vy": 0.0, "class": 0, "confidence": 0.9}
    frames = [
        {"frame": 0, "time": 0.0, "detections": [{**good, "bbox": [90.0, 310.0, 110.0, 330.0]}], "radar": []},
        {"frame": 1, "time": 0.1, "detections": [good, {**good, "bbox": box}], "radar": []},
    ]
    path = tmp_path / "replay.jsonl"
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    with pytest.raises(ParseError, match="bbox must hold 4 values") as err:
        read_replay(str(path))
    assert str(err.value).startswith(f"{path}:2: ")


def test_results_to_predictions_positions(results, scene):
    preds = results_to_predictions(results)
    assert [p.frame_index for p in preds] == [f.frame_index for f in scene.frames]
    # predicted ground positions are the snapshot positions, dropped to 2D
    snap = results[0].tracks[0]
    obj = next(o for o in preds[0].objects if o.track_id == snap.track_id)
    assert (obj.x, obj.y) == (snap.position[0], snap.position[1])


def test_results_without_positions_rejected(scene):
    res, _ = run_sequence(scene.frames[:3], TrackerConfig(fusion_enabled=False), camera=None)
    with pytest.raises(ValueError, match="frame 0"):
        results_to_predictions(res)


def test_yaml_config_round_trip(tmp_path):
    config = TrackerConfig(
        weights=CostWeights(alpha=0.01, beta=0.5, delta=1.5, radius=25.0),
        pillar_dims=PillarDims(width_y=0.4, height_z=1.2, depth_x=0.6),
        depth_tolerance=0.1,
        max_age=5,
        min_confidence=0.3,
        fusion_enabled=False,
    )
    path = str(tmp_path / "tracker.yaml")
    save_yaml(path, tracker_config_to_dict(config))
    assert tracker_config_from_dict(load_yaml(path)) == config


def test_partial_config_keeps_defaults():
    config = tracker_config_from_dict({"max_age": 7})
    assert config.max_age == 7
    assert config.weights == CostWeights()
    assert config.fusion_enabled is True


def test_malformed_yaml_is_parse_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: [unclosed\n")
    with pytest.raises(ParseError, match="invalid YAML"):
        load_yaml(str(path))


def test_scene_round_trips_through_files(tmp_path, scene):
    """Full export/import cycle preserves every value the tracker consumes."""
    replay = str(tmp_path / "replay.jsonl")
    gt = str(tmp_path / "gt.jsonl")
    write_replay(replay, scene.frames)
    write_ground_truth(gt, scene.ground_truth)
    frames = read_replay(replay)
    a, _ = run_sequence(frames, TrackerConfig(), scene.config.camera)
    b, _ = run_sequence(scene.frames, TrackerConfig(), scene.config.camera)
    assert a == b
