"""Replay/ground-truth/result serialization: round trips, unknown-field
preservation, line-numbered parse errors for malformed and fuzzed lines,
documented fields, config plumbing."""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fusetrack import fileio
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
from fusetrack.tracker import FrameInput, FrameResult, TrackerConfig, run_sequence
from reader_fuzz import Invalid, fuzz_lines, reference_record


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


_DETECTION = {"u": 100.0, "v": 320.0, "depth": 20.0, "vx": 0.0, "vy": 0.0, "class": 0, "confidence": 0.9,
              "bbox": [90.0, 310.0, 110.0, 330.0]}
_VALID = {
    "replay": {"frame": 0, "time": 0.0, "detections": [_DETECTION],
               "radar": [{"x": 20.0, "y": 0.0, "z": 0.0, "vx": 0.0, "vy": 0.0}]},
    "ground_truth": {"frame": 0, "objects": [{"id": 1, "x": 20.0, "y": 0.0, "class": 0}]},
    "results": {"frame": 0, "time": 0.0, "tracks": [{
        "id": 1, "u": 100.0, "v": 320.0, "depth": 20.0, "vx": 0.0, "vy": 0.0, "class": 0, "confidence": 0.9,
        "age": 1, "fused": True, "x": 20.0, "y": 0.0, "z": 0.0}]},
}
_READERS = {"replay": read_replay, "ground_truth": read_ground_truth, "results": read_results}
_DELETE = object()
_OVERFLOW = "<1e999>"  # written as the literal 1e999, which JSON decodes as infinity


@pytest.mark.parametrize(
    "kind, where, value",
    [
        ("replay", ("detections", 0, "bbox"), "1234"),
        ("replay", ("frame",), True),
        ("replay", ("frame",), 1.7),
        ("replay", ("detections", 0, "class"), 1.9),
        ("replay", ("detections", 0, "confidence"), "0.5"),
        ("results", ("tracks", 0, "fused"), "no"),
        ("replay", ("detections", 0, "class"), 2**70),
        ("results", ("tracks", 0, "y"), _DELETE),
        ("replay", ("radar", 0), 5),
        ("ground_truth", ("objects", 0), [1]),
        ("results", ("tracks", 0), "track"),
        ("replay", ("detections",), 5),
        ("replay", ("detections", 0), 5),
        ("replay", ("radar",), 5),
        ("ground_truth", ("objects",), 5),
        ("results", ("tracks",), 5),
        ("replay", ("detections", 0, "bbox"), [90.0, 310.0, 110.0]),
        ("replay", ("detections", 0, "bbox"), [90.0, 310.0, 110.0, 330.0, 5.0]),
        ("ground_truth", ("objects", 0, "x"), math.nan),
        ("results", ("tracks", 0, "confidence"), math.nan),
        ("replay", ("time",), -math.inf),
        ("ground_truth", ("objects", 0, "x"), _OVERFLOW),
        ("results", ("time",), _OVERFLOW),
        ("results", ("tracks", 0, "depth"), _OVERFLOW),
        ("results", ("tracks", 0, "y"), _OVERFLOW),
        ("replay", ("radar", 0, "x"), _OVERFLOW),
        ("replay", ("detections", 0, "bbox"), [90.0, 310.0, _OVERFLOW, 330.0]),
    ],
    ids=[
        "bbox-string", "frame-true", "frame-float", "class-float", "confidence-string", "fused-string",
        "class-beyond-int64", "x-without-y", "radar-row-not-object", "objects-row-not-object",
        "tracks-row-not-object", "detections-not-list", "detection-not-object", "radar-not-list",
        "objects-not-list", "tracks-not-list", "bbox-3-values", "bbox-5-values", "gt-x-nan",
        "confidence-nan", "time-minus-infinity", "gt-x-overflow", "result-time-overflow",
        "track-depth-overflow", "track-y-overflow", "radar-x-overflow", "bbox-overflow",
    ],
)
def test_malformed_line_is_named(tmp_path, kind, where, value):
    """The bad third line of a file, after a good one and a blank one, fails
    as a ParseError naming line 3."""
    bad = copy.deepcopy(_VALID[kind])
    parent = bad
    for step in where[:-1]:
        parent = parent[step]
    if value is _DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_VALID[kind]) + "\n\n" + json.dumps(bad).replace(json.dumps(_OVERFLOW), "1e999") + "\n")
    with pytest.raises(ParseError) as err:
        _READERS[kind](str(path))
    assert err.value.line_number == 3
    assert str(err.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("kind", ["replay", "ground_truth", "results"])
def test_fuzzed_line_reads_as_reference_or_is_named(tmp_path, scene, results, kind):
    """One mutated line at a time: the file reads as the reference reader
    says, or fails as a ParseError naming that line."""
    write = {"replay": write_replay, "ground_truth": write_ground_truth, "results": write_results}[kind]
    objects = {"replay": scene.frames, "ground_truth": scene.ground_truth, "results": results}[kind]
    path = tmp_path / "fuzzed.jsonl"
    write(str(path), list(objects[:8]))
    lines = path.read_text().splitlines()
    original = _READERS[kind](str(path))
    for index, line, mutation in fuzz_lines(seed=7, lines=lines, trials=250):
        path.write_text("\n".join(lines[:index] + [line] + lines[index + 1:]) + "\n")
        try:
            expected = reference_record(kind, line)
        except Invalid:
            with pytest.raises(ParseError) as err:
                _READERS[kind](str(path))
            assert err.value.line_number == index + 1, (mutation, line)
            assert str(err.value).startswith(f"{path}:{index + 1}: "), (mutation, line)
        else:
            assert _READERS[kind](str(path)) == original[:index] + [expected] + original[index + 1:], (mutation, line)


def test_writers_refuse_non_finite_values(tmp_path, results):
    track = results[0].tracks[0]._replace(confidence=math.nan)
    bad = [FrameResult(results[0].frame_index, results[0].timestamp, (track,))]
    with pytest.raises(ValueError, match="JSON compliant"):
        write_results(str(tmp_path / "results.jsonl"), bad)


def _documented_fields(section: str) -> set:
    """Field names in the first column of the table under a heading of
    docs/file_formats.md: `detections[].u`, `.v` gives detections,
    detections[].u and detections[].v."""
    text = (Path(__file__).parent.parent / "docs" / "file_formats.md").read_text()
    body = text.split(f"## {section}", 1)[1].split("\n## ", 1)[0]
    names = set()
    for row in body.splitlines():
        if not row.startswith("| `"):
            continue
        first = ""
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            name = first.rsplit(".", 1)[0] + name if name.startswith(".") else name
            first = name
            names.add(name)
            if "[]." in name:
                names.add(name.split("[]", 1)[0])
    return names


def _table_fields(kind, prefix="") -> set:
    names = set()
    for key, _, kind_of, _ in kind.rows:
        names.add(prefix + key)
        child = getattr(kind_of.convert, "__self__", None)  # a list of child records
        if child is not None:
            names |= _table_fields(child, f"{prefix}{key}[].")
    return names


@pytest.mark.parametrize(
    "section, kind",
    [("Replay", fileio._REPLAY_FRAME), ("Ground truth", fileio._GROUND_TRUTH_FRAME),
     ("Results", fileio._RESULT_FRAME)],
)
def test_documented_fields_match_the_field_tables(section, kind):
    assert _documented_fields(section) == _table_fields(kind)


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
