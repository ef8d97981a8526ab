"""Replay/ground-truth/result serialization: round trips, unknown fields
ignored, line-numbered parse errors for malformed and fuzzed lines,
documented fields, config plumbing."""

import copy
import json
import math
import random
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from fusetrack import fileio
from fusetrack.association import AssociationResult, CostWeights, Detection, DetectionBatch, Track, cost_matrix
from fusetrack.association import greedy_associate
from fusetrack.fileio import (
    ParseError,
    config_to_dict,
    encode_record,
    encode_result,
    iter_replay,
    iter_results,
    load_yaml,
    read_ground_truth,
    read_predictions,
    read_replay,
    read_results,
    results_to_predictions,
    save_yaml,
    tracker_config_from_dict,
    write_ground_truth,
    write_replay,
    write_results,
)
from fusetrack.fusion import PillarDims, RadarPoint
from fusetrack.metrics import GroundTruthFrame, GroundTruthObject, PredictedFrame, PredictedObject
from fusetrack.simulator import crossing_scenario, generate
from fusetrack.tracker import FrameInput, FrameResult, TrackerConfig, TrackSnapshot, run_sequence
from reader_fuzz import MUTATIONS, Invalid, fuzz_lines, reference_record


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


@pytest.mark.parametrize(
    "index, time",
    [(np.int64(3), np.float32(0.5)), (np.int32(3), np.float64(0.25)), (3, 1)],
    ids=["np-int64-float32", "np-int32-float64", "int-int"],
)
@pytest.mark.parametrize("kind", ["replay", "results", "ground_truth"])
def test_frame_numbers_are_kept_as_int_and_float(tmp_path, kind, index, time):
    """A frame built with numpy or integer frame numbers keeps an int index
    and a float time, so its writer can write it and its reader reads back
    the same frame."""
    make, write = {
        "replay": (lambda: FrameInput(index, time, ()), write_replay),
        "results": (lambda: FrameResult(index, time, ()), write_results),
        "ground_truth": (lambda: GroundTruthFrame(index, ()), write_ground_truth),
    }[kind]
    frame = make()
    assert type(frame.frame_index) is int and type(getattr(frame, "timestamp", 0.0)) is float
    path = str(tmp_path / "frames.jsonl")
    write(path, [frame])
    assert _READERS[kind](path) == [frame]


_FRAME_NUMBER = "^(timestamp|frame_index) must be "
_SNAPSHOT = TrackSnapshot(1, 400.0, 200.0, 20.0, 0.0, 0.0, 0, 0.5, 1, False, (20.0, 0.0, 0.0))


def _detection(**values):
    return Detection(**{"u": 100.0, "v": 320.0, "depth": 20.0, "vx": 0.0, "vy": 0.0, "class_id": 0, "confidence": 0.9,
                        "bbox": (90.0, 310.0, 110.0, 330.0), **values})


def _track(**values):
    return Track(**{"track_id": 1, "u": 100.0, "v": 320.0, "depth": 20.0, "vx": 0.0, "vy": 0.0, "class_id": 0,
                    "confidence": 0.9, "last_seen": 0, **values})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FrameInput(0, True, ()), _FRAME_NUMBER),
        (lambda: FrameInput(True, 0.0, ()), _FRAME_NUMBER),
        (lambda: FrameInput(0, np.bool_(False), ()), _FRAME_NUMBER),
        (lambda: FrameResult(0, True, ()), _FRAME_NUMBER),
        (lambda: FrameResult(np.bool_(True), 0.0, ()), _FRAME_NUMBER),
        (lambda: GroundTruthFrame(True, ()), _FRAME_NUMBER),
        (lambda: GroundTruthFrame(2**63, ()), _FRAME_NUMBER),
        (lambda: FrameResult(0, math.nan, ()), _FRAME_NUMBER),
        (lambda: FrameInput(0, 0.0, [_detection(class_id=2.5)]), "^class_id must hold int values in the int64 range"),
        (lambda: FrameInput(0, 0.0, [_detection(u=True)]), "^u must hold float values in the float64 range, no bool$"),
        (lambda: FrameInput(0, 0.0, [_detection(bbox=(90.0, 310.0, 110.0, True))]), "^bbox must hold rows of 4 float values"),
        (lambda: FrameInput(0, 0.0, (), [RadarPoint(True, 0.0, 0.0, 0.0, 0.0)]), "^radar must hold rows of 5 float values"),
        (lambda: FrameResult(0, 0.0, [_SNAPSHOT._replace(age=2.0)]), "^age must hold int values"),
        (lambda: FrameResult(0, 0.0, [_SNAPSHOT._replace(fused=1)]), "^fused must hold bool values$"),
        (lambda: FrameResult(0, 0.0, [_SNAPSHOT._replace(position=(1.0, 2.0)), _SNAPSHOT._replace(track_id=2, position=(1.0,) * 4)]),
         "^position must hold rows of 3 float values"),
        (lambda: greedy_associate([], [_track(track_id=1.5)], CostWeights()), "^track_id must hold int values"),
        (lambda: cost_matrix([], [_track(class_id=True)], CostWeights()), "^class_id must hold int values"),
        (lambda: AssociationResult(((0, 1.5),), (), ()), "^track ids must hold int values"),
        (lambda: AssociationResult(((-1, 2),), (5, 5), (3,)), "^detection index -1 is negative$"),
        (lambda: AssociationResult(((0, 2), (1, 2)), (), ()), "^track id 2 appears twice$"),
        (lambda: AssociationResult(((0, 2),), (0,), (2,)), "^detection index 0 appears twice$"),
        (lambda: AssociationResult(((0, 2),), (5, 5), (3,)), "^detection index 5 appears twice$"),
        (lambda: FrameResult.from_columns(0, *[[]] * 12), r"^FrameResult.from_columns\(\) missing the keyword argument 'timestamp'$"),
        (lambda: FrameInput.from_columns(0, *[[]] * 11), r"^FrameInput.from_columns\(\) missing the keyword argument 'timestamp'$"),
        (lambda: GroundTruthFrame.from_columns(0, *[[]] * 4, timestamp=0.0),
         r"^GroundTruthFrame.from_columns\(\) got an unexpected keyword argument 'timestamp'$"),
    ],
    ids=["replay-time", "replay-frame", "replay-np-time", "result-time", "result-frame", "truth-frame", "truth-int64",
         "result-nan", "detection-float-class", "detection-bool-u", "detection-bool-box", "radar-bool-x",
         "result-float-age", "result-int-fused", "result-positions-of-2-and-4", "track-float-id", "track-bool-class", "association-float-id",
         "association-negative-detection", "association-track-twice", "association-matched-unmatched-detection",
         "association-detection-unmatched-twice", "result-columns-no-time", "replay-columns-no-time", "truth-columns-time"],
)
def test_frames_refuse_what_their_writer_cannot_write(make, message):
    """A bool time or frame, an index beyond int64 and a non-finite time
    are refused when the frame is built, before any writer sees them; so is
    a value that its column would store as another (as_column), in a
    detection, a radar return or a track, or in the tracks that association
    reads or reports, and an association result that no association gives.
    from_columns names a field that it misses or does not know, with the
    TypeError of a call."""
    with pytest.raises(TypeError if "keyword argument" in message else ValueError, match=message):
        make()


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


def test_unknown_fields_are_ignored_and_not_written(tmp_path, scene):
    plain, annotated, rewritten = (tmp_path / name for name in ("plain.jsonl", "annotated.jsonl", "rewritten.jsonl"))
    write_replay(str(plain), scene.frames[:3])
    records = [json.loads(line) for line in plain.read_text().splitlines()]
    records[0]["camera_name"] = "front"
    records[0]["detections"][0]["raw_score"] = 0.123
    annotated.write_text("".join(json.dumps(record) + "\n" for record in records))
    frames = read_replay(str(annotated))
    assert frames == list(scene.frames[:3])
    write_replay(str(rewritten), frames)
    assert rewritten.read_bytes() == plain.read_bytes()


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


def test_writers_refuse_non_finite_radar(tmp_path, scene):
    """FrameInput keeps radar finite; a value made non-finite after the check
    is still refused, as the encoder refuses every other field."""
    frame = scene.frames[0]
    frame.radar.flags.writeable = True
    original = frame.radar[0, 2]
    try:
        frame.radar[0, 2] = math.inf
        with pytest.raises(ValueError, match="JSON compliant"):
            write_replay(str(tmp_path / "replay.jsonl"), [frame])
    finally:
        frame.radar[0, 2] = original
        frame.radar.flags.writeable = False


def test_radar_rows_are_written_as_the_json_encoder_writes_them(tmp_path):
    """Radar rows, formatted from their floats without a dict per row, give
    the encoder's bytes: signed zeros, tiny, huge and integral values."""
    rng = np.random.default_rng(11)
    values = [0.0, -0.0, 1.0, -3.0, 1e-7, 5e-324, 1e22, 1.7976931348623157e308, 0.1 + 0.2, 123456789.0]
    radar = np.concatenate([np.array(values * 2).reshape(4, 5), rng.normal(scale=50.0, size=(6, 5))])
    frames = [FrameInput(0, 0.0, [], radar), FrameInput(1, 0.1, [Detection(1.0, 2.0, 3.0, 0.0, 0.0, 1, 0.5)], ())]
    path = tmp_path / "replay.jsonl"
    write_replay(str(path), iter(frames))  # any iterable, consumed once
    rows = [dict(zip(("x", "y", "z", "vx", "vy"), row)) for row in radar.tolist()]
    detection = {"u": 1.0, "v": 2.0, "depth": 3.0, "vx": 0.0, "vy": 0.0, "class": 1, "confidence": 0.5, "du": 0.0, "dv": 0.0}
    expected = [
        {"frame": 0, "time": 0.0, "detections": [], "radar": rows},
        {"frame": 1, "time": 0.1, "detections": [detection], "radar": []},
    ]
    assert path.read_text() == "".join(encode_record(record) + "\n" for record in expected)
    assert read_replay(str(path)) == frames


def test_result_tracks_are_written_as_the_json_encoder_writes_them(tmp_path):
    """Result tracks, formatted from the result's columns without an object
    per track, give the encoder's bytes: signed zeros, tiny, huge and
    inexact floats, int64 extremes, both flags, with and without x, y, z."""
    low, high = -(2**63), 2**63 - 1
    tracks = [
        TrackSnapshot(high, 0.0, -0.0, 5e-324, 1e22, 0.1 + 0.2, low, 0.5, high, True, (-0.0, 1e22, 5e-324)),
        TrackSnapshot(low, 1.7976931348623157e308, 1e-7, 3.0, -3.0, 0.0, high, 1.0, 0, False, None),
        TrackSnapshot(7, 123456789.0, 2.5, 1.0, 0.0, -0.0, 0, 0.0, low, True, (0.1 + 0.2, -1.0, 0.0)),
    ]
    frames = [FrameResult(0, 0.0, tracks), FrameResult(1, 0.1, ())]
    path = tmp_path / "results.jsonl"
    write_results(str(path), iter(frames))  # any iterable, consumed once
    keys = ("id", "u", "v", "depth", "vx", "vy", "class", "confidence", "age", "fused")
    records = [{**dict(zip(keys, t)), **dict(zip("xyz", t.position or ()))} for t in tracks]
    expected = [{"frame": 0, "time": 0.0, "tracks": records}, {"frame": 1, "time": 0.1, "tracks": []}]
    assert path.read_text() == "".join(encode_record(record) + "\n" for record in expected)
    assert [encode_result(frame) for frame in frames] == [encode_record(record) for record in expected]
    assert read_results(str(path)) == frames
    for bad in (math.nan, math.inf, -math.inf):
        frame = FrameResult(0, 0.0, [tracks[1], tracks[0]._replace(position=(0.0, bad, 0.0))])
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            encode_result(frame)


def test_detection_rows_are_written_as_the_json_encoder_writes_them(tmp_path):
    """Detection rows, formatted from the frame's columns without a dict per
    row, give the encoder's bytes: signed zeros, tiny, huge and inexact
    floats, int64 class extremes, boxed and unboxed rows in one frame. A
    non-finite value is refused with the encoder's message."""
    low, high, big = -(2**63), 2**63 - 1, 1.7976931348623157e308
    rows = [
        (0.0, -0.0, 5e-324, 1e22, -0.0, high, 0.1 + 0.2, big, -1e22, (-0.0, 5e-324, 1e22, 0.1 + 0.2)),
        (big, 1e-7, 1e22, 0.0, 0.1 + 0.2, low, -0.0, 0.0, 5e-324, None),
        (123456789.0, 2.5, 0.1 + 0.2, -3.0, 1e22, 0, 1.0, -0.0, -big, (1.0, -2.0, 3.0, big)),
    ]
    detections = [Detection(*row) for row in rows]
    frames = [FrameInput(0, 0.0, detections, [(1.0, 2.0, 3.0, 4.0, 5.0)]), FrameInput(1, 0.1, detections[1:2], ())]
    path = tmp_path / "replay.jsonl"
    write_replay(str(path), iter(frames))  # any iterable, consumed once
    keys = ("u", "v", "depth", "vx", "vy", "class", "confidence", "du", "dv")
    records = [{**dict(zip(keys, row)), **({} if row[9] is None else {"bbox": list(row[9])})} for row in rows]
    radar = {"x": 1.0, "y": 2.0, "z": 3.0, "vx": 4.0, "vy": 5.0}
    expected = [
        {"frame": 0, "time": 0.0, "detections": records, "radar": [radar]},
        {"frame": 1, "time": 0.1, "detections": records[1:2], "radar": []},
    ]
    assert path.read_text() == "".join(encode_record(record) + "\n" for record in expected)
    assert read_replay(str(path)) == frames
    with pytest.raises(ValueError) as encoder:
        encode_record({"u": math.nan})
    for name, bad in (("u", math.nan), ("dv", -math.inf), ("bbox", math.inf)):
        frame = FrameInput(0, 0.0, detections)
        column = getattr(frame, name).copy()
        column[0] = bad  # row 0 is boxed
        object.__setattr__(frame, name, column)  # past the frame's screen
        with pytest.raises(ValueError) as err:
            write_replay(str(path), [frame])
        assert str(encoder.value).startswith(str(err.value)) and str(err.value).endswith("JSON compliant"), name


def test_iter_replay_reads_a_line_at_a_time(tmp_path, scene):
    """iter_replay opens the file at once (a missing one fails at the call)
    and yields each frame before reading the next line: a bad line fails
    only when it is reached."""
    with pytest.raises(FileNotFoundError):
        iter_replay(str(tmp_path / "missing.jsonl"))
    path = tmp_path / "replay.jsonl"
    write_replay(str(path), scene.frames[:3])
    path.write_text(path.read_text() + "{oops\n")
    frames = iter_replay(str(path))
    assert [next(frames) for _ in range(3)] == list(scene.frames[:3])
    with pytest.raises(ParseError) as err:
        next(frames)
    assert str(err.value).startswith(f"{path}:4: invalid JSON")


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


def test_detection_bbox_optional(tmp_path):
    det = Detection(u=5.0, v=6.0, depth=10.0, vx=0.0, vy=0.0, class_id=0, confidence=0.9, du=0.0, dv=0.0)
    frame = FrameInput(0, 0.0, (det,), (RadarPoint(10.0, 0.0, 0.0, 1.0, 0.0),))
    path = tmp_path / "replay.jsonl"
    write_replay(str(path), [frame])
    assert "bbox" not in json.loads(path.read_text())["detections"][0]
    assert read_replay(str(path)) == [frame]


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
    save_yaml(path, config_to_dict(config))
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


@pytest.mark.parametrize("read", [read_replay, read_ground_truth, read_results])
def test_invalid_utf8_names_the_line(tmp_path, read):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"frame": 0, "time": 0.0}\n{"frame": 1, "time": 0.1, "note": "\xff"}\n')
    with pytest.raises(ParseError) as err:
        read(str(path))
    assert str(err.value) == f"{path}:2: invalid UTF-8: byte 0xff at offset 35 of the line (invalid start byte)"
    assert err.value.line_number == 2


MALFORMED_YAML = [
    "seed: [unclosed\n",
    "seed: 1\nnum_frames: 10: 5\n",
    "seed: 1\nname: 'unterminated\n",
    "- a\nseed: 1\n",
    "camera:\n\tfx: 1\n",
    "camera: {fx: 1\n\nseed: 2\n",
    "seed: &x 1\nnum_frames: *y\n",
    "seed: 1\n...\nnum_frames: 2\n",
    "seed: [unclosed",
    "seed: 1\nnotes: |\n x\ny",
    "seed: 1\r\nnum_frames: [1, 2\r\n",
    "seed: !!int x\nnum_frames: 2\n",
    "seed: 1\nnoise: {center_px: !!float q}\n",
    "seed: 1\n\ncreated:\n  - !!timestamp 2001-13-99\n",
]


def _load_both(monkeypatch, path):
    """load_yaml's result or ParseError with libyaml's parser, then with PyYAML's pure-Python one."""
    outcomes = []
    for pure in (False, True):
        if pure:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        try:
            outcomes.append(load_yaml(str(path)))
        except ParseError as exc:
            outcomes.append((exc.line_number, str(exc).split(": invalid YAML: ")[0]))
    return outcomes


def test_libyaml_and_pure_python_loaders_agree(tmp_path, monkeypatch):
    """Both YAML parsers give load_yaml the same data for every shipped config,
    and refuse a malformed document on the same line, one of the file's (their
    messages differ; libyaml marks the end of a file without a final line
    break a line further on). A scalar that its tag refuses fails on its line."""
    assert hasattr(yaml, "CSafeLoader") == yaml.__with_libyaml__
    for path in sorted((Path(__file__).parent.parent / "configs").glob("*.yaml")):
        with_libyaml, pure = _load_both(monkeypatch, path)
        assert with_libyaml == pure and repr(with_libyaml) == repr(pure), path
        monkeypatch.undo()
    for number, text in enumerate(MALFORMED_YAML):
        path = tmp_path / f"bad{number}.yaml"
        path.write_text(text)
        with_libyaml, pure = _load_both(monkeypatch, path)
        monkeypatch.undo()
        assert with_libyaml == pure and with_libyaml[1] == f"{path}:{with_libyaml[0]}", text
        assert 1 <= with_libyaml[0] <= len(text.splitlines()), text
        if "!!" in text:  # a scalar that its tag refuses: the line of the scalar
            assert text.splitlines()[with_libyaml[0] - 1].count("!!") == 1, text


def test_invalid_utf8_yaml_names_the_file(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"seed: 1\nnum_frames: 10\nname: caf\xc3(\n")
    with pytest.raises(ParseError) as err:
        load_yaml(str(path))
    assert str(err.value) == f"{path}:3: invalid UTF-8: byte 0xc3 at offset 9 of the line (invalid continuation byte)"


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


def _write_lines(tmp_path, *records) -> str:
    path = tmp_path / "lines.jsonl"
    path.write_text("".join(json.dumps(record).replace(json.dumps(_OVERFLOW), "1e999") + "\n" for record in records))
    return str(path)


def _as_floats(value):
    if isinstance(value, dict):
        return {key: _as_floats(item) for key, item in value.items()}
    return [_as_floats(item) for item in value] if isinstance(value, list) else float(value)


def _with(kind, where, value) -> dict:
    """A copy of the valid record of kind with value at where; a dict value
    updates the object there."""
    record = copy.deepcopy(_VALID[kind])
    parent = record
    for step in where[:-1]:
        parent = parent[step]
    if isinstance(value, dict):
        parent[where[-1]].update(value)
    else:
        parent[where[-1]] = value
    return record


@pytest.mark.parametrize(
    "kind, where, integers",
    [
        ("replay", ("time",), 1),
        ("replay", ("detections", 0), {"vx": 0, "u": 100, "depth": 20, "confidence": 1, "du": -2, "bbox": [90, 310, 110, 330]}),
        ("replay", ("radar", 0), {"x": 20, "vy": -3}),
        ("ground_truth", ("objects", 0), {"x": 3, "y": 0}),
        ("results", ("tracks", 0), {"depth": 20, "u": 100, "confidence": 1, "x": 20, "z": 0}),
        ("results", ("time",), 1),
    ],
    ids=["replay-time", "detection", "radar", "ground-truth-object", "track", "result-time"],
)
def test_integer_literals_read_as_their_float(tmp_path, kind, where, integers):
    """A JSON integer is a valid number: it reads as the object its float
    form reads as, with float values."""
    as_int, as_float = _with(kind, where, integers), _with(kind, where, _as_floats(integers))
    assert json.dumps(as_int) != json.dumps(as_float)
    read_int, read_float = (_READERS[kind](_write_lines(tmp_path, record)) for record in (as_int, as_float))
    assert read_int == read_float
    frame = read_int[0]
    if kind == "replay":
        assert frame.detections.u.dtype == frame.detections.bbox.dtype == frame.radar.dtype == np.float64
        numbers = [frame.timestamp]
    elif kind == "ground_truth":
        numbers = [frame.objects[0].x, frame.objects[0].y]
    else:
        track = frame.tracks[0]
        numbers = [frame.timestamp, track.u, track.depth, track.confidence, *track.position]
    assert all(type(number) is float for number in numbers)


_TRACK = _VALID["results"]["tracks"][0]
_OBJECT = _VALID["ground_truth"]["objects"][0]


@pytest.mark.parametrize(
    "kind, field, items, expected",
    [
        # item 0 breaks two fields, written in the reverse of table order; item 1 breaks the first field
        ("replay", "detections", [{**_DETECTION, "class": 1.5, "v": "v"}, {**_DETECTION, "u": "u"}],
         "field 'detections': item 0: field 'v': expected a number, got 'v'"),
        ("replay", "radar", [{"vy": None, "x": 20.0, "y": "y", "z": 0.0, "vx": 0.0}, {"x": "x"}],
         "field 'radar': item 0: field 'y': expected a number, got 'y'"),
        ("ground_truth", "objects", [{**_OBJECT, "class": "c", "x": []}, {**_OBJECT, "id": "id"}],
         "field 'objects': item 0: field 'x': expected a number, got []"),
        ("results", "tracks", [{**_TRACK, "fused": 1, "u": "u"}, {**_TRACK, "id": 1.5}],
         "field 'tracks': item 0: field 'u': expected a number, got 'u'"),
        # a missing field in item 1 comes after a bad value in item 0
        ("results", "tracks", [_TRACK, {**_TRACK, "id": 2, "age": -(2**63) - 1}, {"id": 3}],
         f"field 'tracks': item 1: field 'age': {-(2**63) - 1} does not fit in a signed 64-bit integer"),
        # an object that fails its own check comes before a later item's bad field
        ("ground_truth", "objects", [{**_OBJECT, "x": _OVERFLOW}, {**_OBJECT, "id": "id"}],
         "field 'objects': item 0: ground-truth x and y must be finite"),
        ("replay", "detections", [_DETECTION, 5, {**_DETECTION, "u": "u"}],
         "field 'detections': item 1: expected a JSON object, got 5"),
    ],
    ids=["detections", "radar", "objects", "tracks", "int64-before-missing", "object-check-first", "not-an-object"],
)
def test_first_bad_item_and_field_are_named(tmp_path, kind, field, items, expected):
    """Of a list with several bad values, the error names the first bad item
    and, in it, the first bad field in table order."""
    path = _write_lines(tmp_path, _VALID[kind], _with(kind, (field,), items))
    what = {"replay": "frame", "ground_truth": "ground-truth frame", "results": "result frame"}[kind]
    with pytest.raises(ParseError) as err:
        _READERS[kind](path)
    assert str(err.value) == f"{path}:2: bad {what}: {expected}"


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"depth": 0.0}, "detection depth must be positive"),
        ({"depth": -1}, "detection depth must be positive"),
        ({"confidence": 1.5}, "confidence must lie in [0, 1]"),
        ({"confidence": -0.1}, "confidence must lie in [0, 1]"),
        ({"u": _OVERFLOW}, "detection fields must be finite"),
        ({"bbox": [90.0, _OVERFLOW, 110.0, 330.0]}, "detection fields must be finite"),
        ({"depth": _OVERFLOW, "confidence": 2.0}, "detection fields must be finite"),
    ],
    ids=["depth-zero", "depth-negative", "confidence-above-1", "confidence-below-0", "u-overflow", "bbox-overflow",
         "finite-rule-first"],
)
def test_detection_value_rule_names_the_detection(tmp_path, bad, message):
    """A detection that breaks a value rule is named by its index, the first
    failing one; the message is Detection's own."""
    detections = [_DETECTION, {**_DETECTION, "u": 200.0}, {**_DETECTION, **bad}, {**_DETECTION, "depth": -5.0}]
    path = _write_lines(tmp_path, _VALID["replay"], _with("replay", ("detections",), detections))
    with pytest.raises(ParseError) as err:
        read_replay(path)
    assert str(err.value) == f"{path}:2: bad frame: field 'detections': item 2: {message}"


_RADAR = _VALID["replay"]["radar"][0]


def _replay_with(where, value) -> dict:
    return _with("replay", where, value)


@pytest.mark.parametrize(
    "record, message",
    [
        (_replay_with(("detections",), [{k: v for k, v in _DETECTION.items() if k != "vx"}]),
         "field 'detections': item 0: missing field 'vx'"),
        (_replay_with(("detections", 0, "confidence"), True),
         "field 'detections': item 0: field 'confidence': expected a number, got True"),
        (_replay_with(("radar", 0, "z"), "0"), "field 'radar': item 0: field 'z': expected a number, got '0'"),
        (_replay_with(("time",), False), "field 'time': expected a number, got False"),
        (_replay_with(("detections",), [_DETECTION, {**_DETECTION, "class": 2**63}]),
         "field 'detections': item 1: field 'class': 9223372036854775808 does not fit in a signed 64-bit integer"),
        (_replay_with(("detections", 0, "u"), 10**400),
         "field 'detections': item 0: field 'u': int too large to convert to float"),
        (_replay_with(("detections", 0, "bbox"), [1.0, 2.0, 3.0]),
         "field 'detections': item 0: field 'bbox': expected a list of 4 numbers, got [1.0, 2.0, 3.0]"),
        (_replay_with(("detections", 0, "bbox"), [1.0, "2", 3.0, 4.0]),
         "field 'detections': item 0: field 'bbox': expected a list of 4 numbers, got [1.0, '2', 3.0, 4.0]"),
        (_replay_with(("detections", 0, "bbox"), [1.0, 2.0, 3.0, -10**400]),
         "field 'detections': item 0: field 'bbox': int too large to convert to float"),
        (_replay_with(("detections",), [_DETECTION, {**_DETECTION, "vy": _OVERFLOW}]),
         "field 'detections': item 1: detection fields must be finite"),
        (_replay_with(("radar",), [_RADAR, {**_RADAR, "y": _OVERFLOW}]), "radar point fields must be finite"),
        (_replay_with(("time",), _OVERFLOW), "timestamp must be a finite number, got inf"),
        (_replay_with(("detections",), [_DETECTION, [1, 2]]),
         "field 'detections': item 1: expected a JSON object, got [1, 2]"),
        (_replay_with(("radar",), [_RADAR, 5]), "field 'radar': item 1: expected a JSON object, got 5"),
        ({**_VALID["replay"], "detections": _DETECTION},
         "field 'detections': expected a list, got {'bbox': [90.0, 310.0, 110.0, 330.0], 'class': 0, 'confidence': 0.9, "
         "'depth': 20.0, ...}"),
    ],
    ids=["missing-field", "bool-as-number", "string-as-number", "bool-time", "class-beyond-int64", "int-beyond-float",
         "bbox-of-3", "bbox-with-a-string", "bbox-int-beyond-float", "detection-1e999", "radar-1e999", "time-1e999",
         "detection-not-an-object", "radar-row-not-an-object", "detections-an-object"],
)
def test_replay_reader_messages_are_pinned(tmp_path, record, message):
    """The replay reader's full message for one bad line per rule, after a
    valid line."""
    path = _write_lines(tmp_path, _VALID["replay"], record)
    with pytest.raises(ParseError) as err:
        read_replay(path)
    assert str(err.value) == f"{path}:2: bad frame: {message}"


_NO_POSITION = {k: v for k, v in _TRACK.items() if k not in "xyz"}


@pytest.mark.parametrize(
    "kind, items, message",
    [
        ("results", [{k: v for k, v in _TRACK.items() if k != "y"}], "item 0: a position needs both 'x' and 'y'"),
        ("results", [_TRACK, {**_TRACK, "id": 2, "x": None}], "item 1: a position needs both 'x' and 'y'"),
        ("results", [{**_NO_POSITION, "z": 0.0}], "item 0: a position needs both 'x' and 'y'"),
        ("results", [_TRACK, {**_TRACK, "id": 2, "depth": _OVERFLOW}], "item 1: track numbers must be finite"),
        ("results", [{**_TRACK, "z": _OVERFLOW}], "item 0: track numbers must be finite"),
        ("results", [{**_TRACK, "fused": 1}], "item 0: field 'fused': expected true or false, got 1"),
        ("results", [{**_TRACK, "age": 2**63}],
         "item 0: field 'age': 9223372036854775808 does not fit in a signed 64-bit integer"),
        ("results", [{k: v for k, v in _TRACK.items() if k != "class"}], "item 0: missing field 'class'"),
        ("results", [_TRACK, {**_TRACK, "x": 5.0}], "track ids must be unique within a frame"),
        ("results", 5, "expected a list, got 5"),
        ("results", {"id": 1}, "expected a list, got {'id': 1}"),
        ("results", [_TRACK, "track"], "item 1: expected a JSON object, got 'track'"),
        ("ground_truth", [_OBJECT, {**_OBJECT, "id": 2, "y": _OVERFLOW}], "item 1: ground-truth x and y must be finite"),
        ("ground_truth", [{**_OBJECT, "id": 2**63}],
         "item 0: field 'id': 9223372036854775808 does not fit in a signed 64-bit integer"),
        ("ground_truth", [{**_OBJECT, "class": 1.0}], "item 0: field 'class': expected an integer, got 1.0"),
        ("ground_truth", [{k: v for k, v in _OBJECT.items() if k != "y"}], "item 0: missing field 'y'"),
        ("ground_truth", [_OBJECT, _OBJECT], "frame 0: duplicate ground-truth ids"),
        ("ground_truth", 5, "expected a list, got 5"),
        ("ground_truth", [_OBJECT, [1]], "item 1: expected a JSON object, got [1]"),
    ],
    ids=["x-without-y", "null-x", "z-without-x", "depth-1e999", "z-1e999", "int-fused", "age-beyond-int64",
         "missing-class", "duplicate-track-ids", "tracks-a-number", "tracks-an-object", "track-not-an-object",
         "object-y-1e999", "object-id-beyond-int64", "float-class", "missing-y", "duplicate-object-ids",
         "objects-a-number", "object-not-an-object"],
)
def test_result_and_ground_truth_reader_messages_are_pinned(tmp_path, kind, items, message):
    """The results and ground-truth readers' full message for one bad line
    per rule, after a valid line: read_predictions gives read_results'. A
    message that names an item is prefixed with its list field."""
    key, what, reads = {"results": ("tracks", "result frame", [read_results, read_predictions]),
                        "ground_truth": ("objects", "ground-truth frame", [read_ground_truth])}[kind]
    path = _write_lines(tmp_path, _VALID[kind], {**_VALID[kind], key: items})
    message = f"field '{key}': {message}" if message.startswith(("item", "expected")) else message
    for read in reads:
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value) == f"{path}:2: bad {what}: {message}"


def _counting(monkeypatch, owner, name):
    """Count the calls of owner.name (a function or a method)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "kind, where, value, owner, name",
    [
        ("replay", ("detections", 0, "depth"), 0, FrameInput, "__post_init__"),
        ("replay", ("time",), _OVERFLOW, FrameInput, "__post_init__"),
        ("ground_truth", ("objects",), [_OBJECT, {**_OBJECT, "id": 2, "x": _OVERFLOW}], GroundTruthObject,
         "__post_init__"),
        ("results", ("tracks",), [_TRACK, _TRACK], FrameResult, "__post_init__"),
        ("results", ("tracks",), [_TRACK, {**_TRACK, "id": 2, "depth": _OVERFLOW}], fileio._RESULT_TRACK, "make"),
    ],
    ids=["detection-depth", "time-overflow", "object-x-overflow", "duplicate-track-ids", "track-depth-overflow"],
)
def test_a_bad_line_builds_each_object_once(tmp_path, monkeypatch, kind, where, value, owner, name):
    """An object that fails its own check is built once, not again by a
    second reading of the line."""
    path = _write_lines(tmp_path, _with(kind, where, value))
    calls = _counting(monkeypatch, owner, name)
    with pytest.raises(ParseError):
        _READERS[kind](path)
    items = value if isinstance(value, list) else [value]
    assert len(calls) == (len(items) if owner in (GroundTruthObject, fileio._RESULT_TRACK) else 1)


def test_replay_reader_builds_no_detection_rows(tmp_path, monkeypatch, scene):
    """read_replay hands each frame's columns to DetectionBatch: it never
    goes through the row constructor from_detections."""
    path = str(tmp_path / "replay.jsonl")
    write_replay(path, scene.frames)
    calls = _counting(monkeypatch, DetectionBatch, "from_detections")
    assert read_replay(path) == list(scene.frames)
    assert calls == []


def test_read_predictions_is_results_to_predictions_of_read_results(tmp_path, results):
    path = str(tmp_path / "results.jsonl")
    write_results(path, results)
    assert read_predictions(path) == results_to_predictions(read_results(path))


@pytest.mark.parametrize(
    "tracks, message",
    [
        ([{k: v for k, v in _TRACK.items() if k not in "xyz"}], "frame 0: track 1 has no ground-plane position"),
        ([{**_TRACK, "confidence": -0.5}], "confidence must be finite and non-negative"),
        # the first track that results_to_predictions refuses is named, whichever rule it breaks
        ([{**_TRACK, "confidence": -0.5}, {k: v for k, v in {**_TRACK, "id": 2}.items() if k not in "xyz"}],
         "confidence must be finite and non-negative"),
        ([_TRACK, {k: v for k, v in {**_TRACK, "id": 2, "confidence": -0.5}.items() if k not in "xyz"}],
         "frame 0: track 2 has no ground-plane position"),
    ],
    ids=["no-position", "negative-confidence", "confidence-first", "position-first"],
)
def test_read_predictions_fails_as_results_to_predictions_does(tmp_path, tracks, message):
    path = _write_lines(tmp_path, _VALID["results"], _with("results", ("tracks",), tracks))
    with pytest.raises(ValueError) as expected:
        results_to_predictions(read_results(path))
    with pytest.raises(ValueError) as got:
        read_predictions(path)
    assert type(got.value) is ValueError and str(got.value) == str(expected.value)
    assert str(got.value).startswith(message)


@pytest.mark.parametrize("first", ["no-position", "bad-line"])
def test_read_predictions_names_the_first_line_that_fails(tmp_path, first):
    """Of a track with no position (results_to_predictions' plain
    ValueError) and a line that read_results refuses (a ParseError), the
    error of the earlier line is raised, as results_to_predictions(
    iter_results(path)) raises it."""
    no_position = _with("results", ("tracks",), [{k: v for k, v in _TRACK.items() if k not in "xyz"}])
    bad_line = _with("results", ("time",), "t")
    lines = [_VALID["results"], no_position, bad_line] if first == "no-position" else [_VALID["results"], bad_line, no_position]
    path = _write_lines(tmp_path, *lines)
    with pytest.raises(ValueError) as expected:
        results_to_predictions(iter_results(path))
    with pytest.raises(ValueError) as got:
        read_predictions(path)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
    assert (type(got.value) is ParseError) == (first == "bad-line")


def test_read_predictions_refuses_a_repeated_track_id_as_iter_results_does(tmp_path):
    """PredictedFrame takes a repeated track id on both of its paths; a
    results line may not hold one, and the fast reader checks that rule
    itself, so the file fails with iter_results' path:line error."""
    path = _write_lines(tmp_path, _VALID["results"], _with("results", ("tracks",), [_TRACK, {**_TRACK, "x": 9.0}]))
    with pytest.raises(ParseError) as expected:
        list(iter_results(path))
    assert str(expected.value).endswith(":2: bad result frame: track ids must be unique within a frame")
    with pytest.raises(ParseError) as got:
        read_predictions(path)
    assert str(got.value) == str(expected.value)


def test_read_predictions_never_passes_a_line_its_screen_refuses(tmp_path, monkeypatch, results):
    """A line that the fast reader's checks refuse is read column by column
    into its FrameResult, which results_to_predictions converts: with the
    fast reader refusing every line, read_predictions gives the same frames."""
    def refuse(record):
        raise TypeError("refused")

    path = str(tmp_path / "results.jsonl")
    write_results(path, results)
    expected = results_to_predictions(read_results(path))
    assert read_predictions(path) == expected
    monkeypatch.setattr(fileio._PREDICTED_FRAME, "fast", refuse)
    converted = _counting(monkeypatch, fileio, "results_to_predictions")
    assert read_predictions(path) == expected
    assert len(converted) == len(results)


_FAST_KINDS = {"results": fileio._PREDICTED_FRAME, "ground_truth": fileio._GROUND_TRUTH_FRAME}
_WHOLE_FILE_READERS = {"results": read_predictions, "ground_truth": read_ground_truth}


def _outcome(read, path):
    """read(path)'s frames, or the type and text of the error it raised."""
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc)


def _edits(kind, record):
    """Hand-made lines from a valid line of one item: an id repeated in the
    line, two items, and values null, absent, out of range or overflowing,
    on the item or on the line."""
    key = "tracks" if kind == "results" else "objects"
    item = record[key][0]
    changes = [{"x": _OVERFLOW}, {"y": 2**70}, {"class": True}, {"id": 2**63}, {"x": None}]
    lines = [{**record, key: [item, item]}, {**record, key: [item, {**item, "id": item["id"] + 1}]},
             {**record, "frame": 2**63}, {**record, key: None}, {k: v for k, v in record.items() if k != key}]
    if kind == "results":
        changes += [{"z": None}, {"z": _OVERFLOW}, {"x": None, "y": None}, {"confidence": -0.5}, {"confidence": 0},
                    {"age": -(2**63) - 1}, {"fused": 1}, {"u": "u"}]
        lines += [{**record, "time": _OVERFLOW}, {**record, key: [{k: v for k, v in item.items() if k not in "xyz"}]}]
    return lines + [{**record, key: [{**item, **change}]} for change in changes]


@pytest.mark.parametrize("cap", [1, 3, 2048])  # 2048: more than any line holds, so all of its items
@pytest.mark.parametrize("kind", ["results", "ground_truth"])
def test_batch_readers_agree_with_the_line_readers(tmp_path, monkeypatch, scene, results, kind, cap):
    """read_predictions and read_ground_truth, which read a whole file,
    give the frames, or the exception type and text, that they give with
    the fast reader off, a line at a time field by field; for results, those of
    results_to_predictions(read_results(path)). Each line keeps at most cap
    of its items. The bad line, fuzzed (tests/reader_fuzz.py) or made by
    hand, comes first, in the middle and last. A valid file of the
    writer's lines never leaves the fast reader."""
    key, write, frames = {"results": ("tracks", write_results, results),
                          "ground_truth": ("objects", write_ground_truth, scene.ground_truth)}[kind]
    path = tmp_path / "lines.jsonl"
    write(str(path), frames[:9])
    records = list(map(json.loads, path.read_text().splitlines()))
    lines = [json.dumps({**record, key: record[key][:cap]}) for record in records]
    sizes = [len(json.loads(line)[key]) for line in lines]
    assert len(lines) == 9 and min(sizes) >= 1 and max(sizes) == min(cap, max(len(record[key]) for record in records))
    assert cap == 1 or max(sizes) > 1  # a line of several items

    def field_by_field(path):
        with monkeypatch.context() as fields:
            fields.setattr(_FAST_KINDS[kind], "fast", None)
            got = _outcome(_WHOLE_FILE_READERS[kind], path)
        if kind == "results":
            assert got == _outcome(lambda path: results_to_predictions(read_results(path)), path)
        return got

    field_reads = _counting(monkeypatch, fileio._Kind, "read")
    for text in (lines, [json.dumps({**json.loads(line), key: []}) for line in lines]):
        path.write_text("\n".join(text) + "\n")
        field_reads.clear()
        fast = _WHOLE_FILE_READERS[kind](str(path))
        assert field_reads == [] and fast == field_by_field(str(path))
    rng = random.Random(11)
    for index in (0, 4, 8):
        bad = [mutate(rng, json.loads(lines[index])) for mutate in rng.choices(MUTATIONS, k=16)]
        bad += [json.dumps(edit).replace(json.dumps(_OVERFLOW), "1e999") for edit in _edits(kind, json.loads(lines[index]))]
        for line in bad:
            path.write_text("\n".join(lines[:index] + [line] + lines[index + 1:]) + "\n")
            assert _outcome(_WHOLE_FILE_READERS[kind], str(path)) == field_by_field(str(path)), (index, line)


def test_plain_replay_lines_are_typed_fast_as_the_column_reader_types_them(tmp_path, monkeypatch, scene):
    """A line of the form write_replay writes takes the fast reader, with no
    field read, and gives the frame, bit for bit, that the field-by-field
    reader gives; so do integer numbers, a null bbox and absent or empty
    lists."""
    path = str(tmp_path / "replay.jsonl")
    write_replay(path, scene.frames)
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    records += [
        {**records[1], "time": 1, "detections": [{**d, "u": 100, "bbox": None} for d in records[1]["detections"]]},
        {**records[2], "detections": records[2]["detections"] + [{k: v for k, v in d.items() if k != "bbox"}
                                                                 for d in records[3]["detections"]]},
        {**records[2], "radar": [{**r, "z": 0} for r in records[2]["radar"]]},
        {"frame": 7, "time": 1.5, "detections": [], "radar": []},
        {"frame": 8, "time": 2.5},
    ]
    field_reads = _counting(monkeypatch, fileio._Kind, "read")
    for record in records:
        fast = fileio._REPLAY_FRAME.read_line(record)
        assert field_reads == []
        slow = fileio._REPLAY_FRAME.read(record)
        field_reads.clear()
        assert fast == slow
        for a, b in zip([*fast.detections.columns(), fast.radar], [*slow.detections.columns(), slow.radar]):
            assert (a.dtype, a.shape, a.tobytes(), a.flags.writeable) == (b.dtype, b.shape, b.tobytes(), False)


_BOX_OF_5 = [90.0, 310.0, 110.0, 330.0, 1.0]


@pytest.mark.parametrize(
    "where, value",
    [(("radar", 0, "x"), _OVERFLOW), (("time",), _OVERFLOW), (("frame",), 2**63), (("detections", 0, "depth"), -1.0),
     (("detections", 0, "u"), True), (("radar", 0, "y"), "0.5"), (("radar", 0, "z"), None),
     (("detections", 0, "bbox"), _BOX_OF_5), (("radar",), [])],
    ids=["radar-overflow", "time-overflow", "frame-beyond-int64", "detection-depth", "bool-u", "string-y", "null-z",
         "boxes-of-5-and-3", "boxes-of-5-and-3-no-radar"],
)
def test_a_plain_line_fails_as_the_column_reader_fails(tmp_path, monkeypatch, where, value):
    """A bad line otherwise in the writer's form fails with the field
    reader's message, and builds its FrameInput at most once. Boxes of 5 and
    3 values hold 8 values, as two boxes should."""
    record = _with("replay", where, value)
    if value in (_BOX_OF_5, []):
        record["detections"] = [{**_DETECTION, "bbox": _BOX_OF_5}, {**_DETECTION, "bbox": [90.0, 310.0, 110.0]}]
    for detection in record["detections"]:
        detection.update(du=0.0, dv=0.0)
    path = _write_lines(tmp_path, record)
    built = _counting(monkeypatch, FrameInput, "__init__")
    with pytest.raises(ParseError) as fast:
        read_replay(path)
    assert len(built) <= 1
    monkeypatch.setattr(fileio._REPLAY_FRAME, "fast", None)
    with pytest.raises(ParseError) as field_by_field:
        read_replay(path)
    assert str(fast.value) == str(field_by_field.value)


@pytest.mark.parametrize("kind", ["ground_truth", "results", "result_frame"])
def test_plain_lines_are_typed_fast_as_the_column_reader_types_them(tmp_path, monkeypatch, scene, results, kind):
    """A ground-truth or result line of the form its writer writes takes the
    fast reader, with no field read, and gives the frame, with the same
    value types, that the field reader gives; so do integer numbers, empty
    lists and an absent list. Result lines are read as predictions and as
    FrameResults, whose columns are the same bytes; a FrameResult is also
    read from the writer's form without positions."""
    path = str(tmp_path / "lines.jsonl")
    if kind == "ground_truth":
        write_ground_truth(path, scene.ground_truth[:6])
    else:
        write_results(path, results[:6])
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    key = "objects" if kind == "ground_truth" else "tracks"
    integers = {"x": 3, "y": -(2**53) - 1} if kind == "ground_truth" else {
        "u": 100, "depth": 2**70, "confidence": 0, "x": 20, "y": 2**53 + 1, "z": 0}
    records += [
        {**records[1], key: [{**item, **integers} for item in records[1][key]]},
        {**records[2], key: []},
        {k: v for k, v in records[3].items() if k != key},
    ]
    if kind != "ground_truth":
        records += [{**records[4], "time": 1}, {**records[5], key: [{**item, "confidence": 1} for item in records[5][key]]}]
    assert all(record.get(key) for record in records[:6]) and len(records[6][key]) > 1
    if kind == "result_frame":  # the form without positions, and integer numbers in it
        unplaced = [{**record, key: [{k: v for k, v in item.items() if k not in "xyz"} for item in record[key]]}
                    for record in records[:7]]
        assert encode_result(fileio._RESULT_FRAME.read(unplaced[0])) == json.dumps(unplaced[0], separators=(",", ":"))
        records += unplaced
    kind_ = {"ground_truth": fileio._GROUND_TRUTH_FRAME, "results": fileio._PREDICTED_FRAME,
             "result_frame": fileio._RESULT_FRAME}[kind]
    field_reads = _counting(monkeypatch, fileio._Kind, "read")
    for record in records:
        fast = kind_.read_line(record)
        assert field_reads == []
        slow = kind_.read(record)  # for results, a FrameResult
        slow = results_to_predictions([slow])[0] if kind == "results" else slow
        field_reads.clear()
        assert type(fast) is type(slow) and fast == slow
        if kind == "result_frame":
            for a, b in zip(fast.columns, slow.columns):
                assert (a.dtype, a.shape, a.tobytes(), a.flags.writeable) == (b.dtype, b.shape, b.tobytes(), False)
            assert fast.has_position.tolist() == ["x" in item for item in record.get(key, [])]
            assert type(fast.timestamp) is float
        else:
            assert [list(map(type, column)) for column in fast.columns] == [list(map(type, column)) for column in slow.columns]


@pytest.mark.parametrize(
    "kind, where, value",
    [("ground_truth", ("objects", 0, "x"), _OVERFLOW), ("ground_truth", ("objects", 0, "y"), 10**400),
     ("ground_truth", ("objects", 0, "id"), True), ("ground_truth", ("objects", 0, "class"), 2**63),
     ("ground_truth", ("objects", 0, "y"), None), ("ground_truth", ("frame",), -(2**63) - 1),
     ("ground_truth", ("objects",), [_OBJECT, _OBJECT]), ("ground_truth", ("objects", 0), [1]),
     ("ground_truth", ("objects",), "objects"), ("ground_truth", (), {"frame": 0, "objects": {}}),
     ("results", ("time",), _OVERFLOW), ("results", ("frame",), 2**63), ("results", ("tracks", 0, "depth"), _OVERFLOW),
     ("results", ("tracks", 0, "x"), 10**400), ("results", ("tracks", 0, "fused"), 1),
     ("results", ("tracks", 0, "age"), 1.0), ("results", ("tracks", 0, "x"), None),
     ("results", ("tracks", 0, "confidence"), -0.5), ("results", ("tracks",), [_TRACK, _TRACK]),
     ("results", ("tracks", 0), "track"), ("results", (), {"frame": 0, "time": 0.0, "tracks": {}}),
     ("results", (), {"frame": 0, "time": 0, "tracks": [{**_TRACK, "u": 10**400, "v": -(10**400)}]}),
     ("results", ("tracks",), [{k: v for k, v in _TRACK.items() if k not in "xyz"}, {**_TRACK, "id": 2}]),
     ("results", ("tracks",), [_TRACK, {k: v for k, v in _TRACK.items() if k not in "xyz" or k == "z"}])],
    ids=["gt-x-overflow", "gt-y-beyond-float", "gt-bool-id", "gt-class-beyond-int64", "gt-null-y",
         "gt-frame-beyond-int64", "gt-repeated-id", "gt-object-not-an-object", "gt-objects-a-string", "gt-objects-a-mapping",
         "time-overflow", "frame-beyond-int64", "depth-overflow", "x-beyond-float", "int-fused", "float-age",
         "null-x", "negative-confidence", "repeated-track-id", "track-not-an-object", "tracks-a-mapping",
         "u-beyond-float-cancelled-in-the-sum", "unplaced-then-placed", "placed-then-z-alone"],
)
def test_a_plain_ground_truth_or_result_line_fails_as_the_column_reader_fails(tmp_path, monkeypatch, kind, where, value):
    """A bad line otherwise in the writer's form fails with the field
    reader's error, of the same type, and builds no more objects than it:
    a ParseError for a line that read_results or the ground-truth reader
    refuses, results_to_predictions' plain ValueError for a line that
    read_results reads (a negative confidence, a track without a position).
    A result line is read both as predictions and by read_results, which
    gives the field reader's frames or error too."""
    path = _write_lines(tmp_path, _with(kind, where, value) if where else value)
    owners = {"ground_truth": [GroundTruthObject], "results": [FrameResult, PredictedObject]}[kind]
    built = [_counting(monkeypatch, owner, "__post_init__") for owner in owners]
    built += [_counting(monkeypatch, fileio._RESULT_TRACK, "make")] if kind == "results" else []
    readers = {"ground_truth": [(read_ground_truth, fileio._GROUND_TRUTH_FRAME)],
               "results": [(read_predictions, fileio._PREDICTED_FRAME), (read_results, fileio._RESULT_FRAME)]}[kind]
    got = []
    for read, kind_ in readers:
        outcomes = []
        for fast in (kind_.fast, None):
            monkeypatch.setattr(kind_, "fast", fast)
            for calls in built:
                calls.clear()
            outcomes.append((_outcome(read, path), [len(calls) for calls in built]))
        (fast, built_fast), (field_by_field, built_field) = outcomes
        assert fast == field_by_field, read.__name__
        assert all(map(int.__le__, built_fast, built_field)) and (type(fast) is list or built_fast == built_field)
        got.append(fast)
    assert got[0][0] is (ValueError if type(got[-1]) is list else ParseError)


@pytest.mark.parametrize("kind", ["replay", "ground_truth", "results"])
@pytest.mark.parametrize("before, after", [("\f", ""), ("", "\u00a0"), ("\x1c", None), ("\u2028", None)],
                         ids=["form-feed-before", "no-break-space-after", "only-x1c", "only-u2028"])
def test_only_json_whitespace_is_blank(tmp_path, kind, before, after):
    """A line is blank, and skipped, when it holds only spaces, tabs and a
    CR; other whitespace is not JSON's, and its line fails as invalid JSON,
    as json.loads fails on it."""
    line = before + (json.dumps(_VALID[kind]) + after if after is not None else "")
    with pytest.raises(ValueError):
        json.loads(line)
    path = tmp_path / "lines.jsonl"
    for read in [_READERS[kind]] + ([read_predictions] if kind == "results" else []):
        path.write_bytes(f"{json.dumps(_VALID[kind])}\n \t\r\n{line}\n".encode())
        with pytest.raises(ParseError) as err:
            read(str(path))
        assert str(err.value).startswith(f"{path}:3: invalid JSON: ")
        path.write_bytes(f"{json.dumps(_VALID[kind])}\n \t\r\n".encode())
        assert len(read(str(path))) == 1


def test_ground_truth_lines_are_written_as_the_json_encoder_writes_them(tmp_path):
    """Ground-truth objects, formatted from the frame's columns without a
    dict per object, give the encoder's bytes: signed zeros, tiny, huge and
    inexact floats, int64 extremes. An int position and a numpy value are
    written as the plain number of their column's type."""
    low, high, big = -(2**63), 2**63 - 1, 1.7976931348623157e308
    columns = ([high, low, 0, 7], [0.0, -0.0, 5e-324, 0.1 + 0.2], [1e22, big, -big, -1e22], [low, high, 1, 0])
    frames = [
        GroundTruthFrame.from_columns(0, *columns),
        GroundTruthFrame(1, []),
        GroundTruthFrame(2, [GroundTruthObject(np.int64(4), np.float32(0.5), 2, np.int8(0)),
                             GroundTruthObject(2, np.float64(0.1), -0.0, 1)]),
    ]
    path = tmp_path / "ground_truth.jsonl"
    write_ground_truth(str(path), iter(frames))  # any iterable, consumed once
    keys = ("id", "x", "y", "class")
    expected = [{"frame": f.frame_index, "objects": [dict(zip(keys, row)) for row in zip(*columns)]}
                for f, columns in zip(frames, [columns, [()] * 4, [[4, 2], [0.5, 0.1], [2.0, -0.0], [0, 1]]])]
    assert path.read_text() == "".join(encode_record(record) + "\n" for record in expected)
    assert path.read_text().splitlines()[2] == \
        '{"frame":2,"objects":[{"id":4,"x":0.5,"y":2.0,"class":0},{"id":2,"x":0.1,"y":-0.0,"class":1}]}'


_GT_IDS = [-(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2, 0, -1, 1, 2**53 + 1, 2**32]
_GT_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1.7976931348623155e308,
               0.1 + 0.2, 1e22, -3, 2**53 + 1, 2**1023, np.float32(0.1), np.float16(-2.5), np.int64(-(2**63)), np.uint8(7)]


def test_every_ground_truth_frame_is_written_and_read_back_equal(tmp_path):
    """Any GroundTruthFrame that can be built, from objects or from columns,
    with Python or numpy values, is written and read back with the same
    column values and bytes (a signed zero keeps its sign)."""
    rng = random.Random(24)

    def integer(value):  # a Python int or a numpy integer type that holds value
        return rng.choice([int, np.int64] + [np.uint64] * (value >= 0) + [np.int32] * (abs(value) < 2**31))(value)

    frames = []
    for k in range(300):
        n = rng.randrange(7)
        ids, classes = list(map(integer, rng.sample(_GT_IDS, n))), list(map(integer, rng.choices(_GT_IDS, k=n)))
        x, y = ([rng.choice(_GT_NUMBERS) for _ in range(n)] for _ in "xy")
        index = rng.choice([k, np.int64(k), -(2**63) + k, 2**63 - 1 - k])
        if rng.random() < 0.5:
            frames.append(GroundTruthFrame(index, map(GroundTruthObject, ids, x, y, classes)))
        else:
            frames.append(GroundTruthFrame.from_columns(index, ids, np.array(x, dtype=object), y, tuple(classes)))
    path = str(tmp_path / "ground_truth.jsonl")
    write_ground_truth(path, frames)
    back = read_ground_truth(path)
    assert back == frames
    for got, want in zip(back, frames):
        assert [(c.dtype, c.tobytes()) for c in got.columns] == [(c.dtype, c.tobytes()) for c in want.columns]
        assert type(got.frame_index) is int and got.frame_index == want.frame_index
    assert sum(len(f.x) for f in frames) > 500


@pytest.mark.parametrize("field, value", [
    ("id", True), ("id", np.bool_(False)), ("id", 1.5), ("id", 2.0), ("id", np.float64(3.0)), ("id", 2**63),
    ("id", -(2**63) - 1), ("id", np.uint64(2**64 - 1)), ("id", "1"), ("id", None), ("class", 1.5), ("class", False),
    ("class", 2**70), ("x", True), ("x", np.bool_(True)), ("x", math.nan), ("x", math.inf), ("y", -math.inf),
    ("y", np.float32("nan")), ("y", 10**400), ("x", "1.0"), ("y", None), ("x", 1j),
], ids=["id-true", "id-numpy-false", "id-1.5", "id-2.0", "id-numpy-3.0", "id-2**63", "id-below-int64",
        "id-numpy-uint64-max", "id-string", "id-none", "class-1.5", "class-false", "class-2**70", "x-true",
        "x-numpy-true", "x-nan", "x-inf", "y-minus-inf", "y-numpy-float32-nan", "y-10**400", "x-string", "y-none",
        "x-complex"])
@pytest.mark.parametrize("kind", ["ground_truth", "predicted", "result"])
def test_a_frame_refuses_what_its_file_refuses(kind, field, value):
    """A frame takes only what its file kind can hold: ids and classes
    integers (no bool) in the signed 64-bit range, x and y finite numbers
    (no bool). Each refused value raises ValueError when the frame is built
    from objects or from columns, and a good frame's columns are read-only.
    A result keeps a non-finite position, apart from a missing one, and
    encode_result refuses it."""
    names, dtypes = {"ground_truth": (("gt_id", "x", "y", "class_id"), [np.int64, np.float64, np.float64, np.int64]),
                     "predicted": (("track_id", "x", "y", "class_id", "confidence"),
                                   [np.int64, np.float64, np.float64, np.int64, np.float64]),
                     "result": (("track_id", "x", "y", "class_id"),
                                [np.int64, *[np.float64] * 5, np.int64, np.float64, np.int64, bool, np.float64, bool])}[kind]
    good = dict(zip(names, (1, 0.5, -0.5, 0, 0.25)))
    row = {**good, {"id": names[0], "class": "class_id"}.get(field, field): value}
    wraps = [lambda v: [v], lambda v: np.array([v]) if isinstance(v, (float, np.generic)) else [v]]

    def builds(row):
        """Builds of the row's frame: from an object, from list columns and from numpy columns."""
        if kind != "result":
            frame = {"ground_truth": GroundTruthFrame, "predicted": PredictedFrame}[kind]
            return [lambda: frame(0, [SimpleNamespace(**row)])] + [
                lambda wrap=wrap: frame.from_columns(0, *map(wrap, row.values())) for wrap in wraps]
        track = _SNAPSHOT._replace(track_id=row["track_id"], class_id=row["class_id"], position=(row["x"], row["y"], 0.0))
        return [lambda: FrameResult(0, 0.0, [track])] + [
            lambda wrap=wrap: FrameResult.from_columns(0, *map(wrap, track[:10]), [track.position], [True], timestamp=0.0)
            for wrap in wraps]

    for build in builds(row):
        with pytest.raises(ValueError):
            encode_result(build()) if kind == "result" else build()
    for build in builds(good):
        frame = build()
        assert [c.dtype for c in frame.columns] == dtypes
        assert not any(c.flags.writeable for c in frame.columns)
