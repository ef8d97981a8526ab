"""Line-delimited JSON files and YAML configs.

Three JSONL file kinds, one frame object per line, no header records (a
replay of N frames is exactly N lines):

* replay: tracker input, detections and radar returns per frame;
* ground truth: evaluation reference, true objects per frame;
* results: tracker output, reported tracks per frame, including their
  vehicle-frame position when the tracker knew its camera.

Each record kind is stated once, in a field table of (JSON key, attribute,
JSON type, default) rows that its readers and its writer walk;
docs/file_formats.md lists the same fields and the type rules, which the
YAML configs share. Readers ignore unknown fields, and writers do not write
them. Writers emit compact JSON with the known fields in table order, so
identical data always produces identical bytes.

A file is read in one pass, a line at a time, by its kind's read_line: a
line in the writers' plain form is typed in a few passes by the kind's fast
reader, and any other line once, field by field in table order and a list
item by item, so that an error names the first bad item and field. NaN and
Infinity fail at decode time and writers refuse them. Every failure names
the file and line, as in ``path:3: bad frame: field 'time': expected a
number, got '0.5'``. iter_replay and iter_results yield a frame per line,
and writers write one, so a stream of frames is never held whole.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .association import Checked, RowError, screened
from .metrics import GroundTruthFrame, GroundTruthObject, PredictedFrame
from .tracker import FrameInput, FrameResult, TrackerConfig, TrackSnapshot, _snapshot_from_row


class ParseError(ValueError):
    """A malformed line; str() names the file line number."""

    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


_decode = json.JSONDecoder(parse_constant=_reject_constant).decode
encode_record = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _utf8(data: bytes, path: str, line_number: int = 1) -> str:
    """data, from line line_number on, as UTF-8; a bad byte is a ParseError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = exc.start - data.rfind(b"\n", 0, exc.start) - 1
        message = f"invalid UTF-8: byte {data[exc.start]:#04x} at offset {offset} of the line ({exc.reason})"
        raise ParseError(path, line_number + data.count(b"\n", 0, exc.start), message) from exc


def _iter(path: str, what: str, read: Callable) -> Iterator:
    """read(record) of a JSONL file's non-blank lines, one at a time; a failure
    names the line. Started here, so that a missing file fails here."""
    objects = _objects(path, what, read)
    next(objects)
    return objects


def _objects(path: str, what: str, read: Callable) -> Iterator:
    with open(path, "rb") as fh:
        yield  # opened
        for number, line in enumerate(fh, start=1):
            line = _utf8(line, path, number).strip(" \t\r\n")  # JSON's whitespace only
            if not line:
                continue
            try:
                record = _decode(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(path, number, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
            try:
                yield read(record)
            except ValueError as exc:  # the record's, or thrown in by a consumer that refuses its item
                raise ParseError(path, number, f"bad {what}: {exc}") from exc


def write_records(path: str, records: Iterable, encode: Callable[..., str]) -> None:
    """One line of encode(record) per record, written as each comes."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record) + "\n")


# ------------------------------------------------------------ typed readers

REQUIRED = object()  # the default of a field that must be present


class _Type(NamedTuple):
    """A JSON type: its name in messages, the Python types its decoded values
    may have, and their conversion (ValueError when out of range)."""

    name: str
    accepts: frozenset
    convert: Callable

    def read(self, value):
        if type(value) not in self.accepts:
            raise ValueError(f"expected {self.name}, got {reprlib.repr(value)}")
        return self.convert(value)


def _int64(value: int) -> int:
    if value not in _INT64:
        raise ValueError(f"{value} does not fit in a signed 64-bit integer")
    return value


def _box(value: list) -> Tuple[float, ...]:
    if len(value) != 4 or not NUMBER.accepts.issuperset(map(type, value)):
        raise ValueError(f"expected a list of 4 numbers, got {reprlib.repr(value)}")
    return tuple(map(float, value))


NUMBER = _Type("a number", frozenset({int, float}), float)
INTEGER = _Type("an integer", frozenset({int}), _int64)
FLAG = _Type("true or false", frozenset({bool}), bool)
BOX = _Type("a list of 4 numbers", frozenset({list}), _box)
_INT64 = range(-(2**63), 2**63)  # the values of a signed 64-bit integer


def _field(record: dict, key: str, kind: _Type, default=REQUIRED):
    """The value of key in record (default where absent) read as kind; a None
    default also makes null valid. The ValueError names the field."""
    value = record.get(key, default)
    if value is REQUIRED:
        raise ValueError(f"missing field {key!r}")
    try:
        return None if value is None and default is None else kind.read(value)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ValueError(f"field {key!r}: {exc}") from None


class _Kind:
    """A record kind compiled from its field table. make builds an object
    from its field values in table order. fast(record), if given, types a
    line in the plain form the writers write in a few passes, into what
    read_line gives; on any other line it raises, having built no object,
    and read_line reads the line field by field."""

    def __init__(self, make: Callable, rows, fast: Optional[Callable] = None):
        self.make, self.rows, self.fast = make, rows, fast
        self.values = itemgetter(*(key for key, _, _, _ in rows))  # a record's values in table order, or a KeyError
        self.list = _Type("a list", frozenset({list}), self.read_all)

    def read(self, record):
        """The object of a JSON object, read field by field in table order:
        the ValueError names the first bad field, or is the object's own."""
        if not isinstance(record, dict):
            raise ValueError(f"expected a JSON object, got {reprlib.repr(record)}")
        return self.make(*[_field(record, key, t, default) for key, _, t, default in self.rows])

    def read_all(self, records: list) -> tuple:
        """The objects of a list of JSON objects, read item by item: the
        ValueError names the first bad item."""
        objects = []
        try:
            objects.extend(map(self.read, records))  # keeps the objects read before a failure
        except ValueError as exc:
            raise ValueError(f"item {len(objects)}: {exc}") from None
        return tuple(objects)

    def read_line(self, record):
        if self.fast is not None:
            try:
                return self.fast(record)
            except (LookupError, TypeError, ValueError, OverflowError, AttributeError):
                pass  # read field by field, to name the first bad item and field
        return self.read(record)


# ------------------------------------------------------------- field tables

# Detections and radar returns read as rows, which FrameInput checks.
_DETECTION_ROW = _Kind(lambda *row: row, (
    ("u", "u", NUMBER, REQUIRED),
    ("v", "v", NUMBER, REQUIRED),
    ("depth", "depth", NUMBER, REQUIRED),
    ("vx", "vx", NUMBER, REQUIRED),
    ("vy", "vy", NUMBER, REQUIRED),
    ("class", "class_id", INTEGER, REQUIRED),
    ("confidence", "confidence", NUMBER, REQUIRED),
    ("du", "du", NUMBER, 0.0),
    ("dv", "dv", NUMBER, 0.0),
    ("bbox", "bbox", BOX, None),
))
_RADAR_ROW = _Kind(lambda *row: row, (
    ("x", "x", NUMBER, REQUIRED),
    ("y", "y", NUMBER, REQUIRED),
    ("z", "z", NUMBER, REQUIRED),
    ("vx", "vx", NUMBER, REQUIRED),
    ("vy", "vy", NUMBER, REQUIRED),
))
_DETECTION_NUMBERS = itemgetter(*(key for key, _, t, _ in _DETECTION_ROW.rows if t is NUMBER))  # in _FLOAT_COLUMNS order
_NO_BOX = [math.nan] * 4


def _replay_frame(*values) -> FrameInput:
    try:
        return FrameInput(*values)
    except RowError as exc:  # a detection that breaks a value rule
        raise ValueError(f"field 'detections': item {exc.row}: {exc}") from None


def _typed_replay_frame(record: dict) -> FrameInput:
    """A replay line's fast reader: its numbers typed as one flat list, the detections screened once."""
    frame, time, dets, radar = record["frame"], record["time"], record.get("detections", []), record.get("radar", [])
    if not (type(frame) is int and frame in _INT64 and type(time) in (float, int) and type(dets) is type(radar) is list):
        raise TypeError("not a plain replay line")
    boxes = [_NO_BOX if d.get("bbox") is None else d["bbox"] for d in dets]
    classes = [d["class"] for d in dets]
    values = list(chain(*map(_DETECTION_NUMBERS, dets), *boxes, *map(_RADAR_ROW.values, radar)))
    if not ({list} >= set(map(type, boxes)) and {4} >= set(map(len, boxes)) and {int} >= set(map(type, classes))
            and {float, int} >= set(map(type, values))):
        raise TypeError("not a box, a class or a number")
    values, n = np.fromiter(values, np.float64, len(values)), len(dets)
    if not (math.isfinite(time) and np.isfinite(values[12 * n :]).all()):  # FrameInput would refuse them
        raise ValueError("a time or a radar number that is not finite")
    floats, bbox = values[: 8 * n].reshape(n, 8).T.copy(), values[8 * n : 12 * n].reshape(n, 4).copy()
    batch = screened(floats, np.array(classes, np.int64), bbox, np.array([box is not _NO_BOX for box in boxes], bool))
    return FrameInput(frame, float(time), Checked(batch), values[12 * n :].reshape(len(radar), 5))


_REPLAY_FRAME = _Kind(_replay_frame, (
    ("frame", "frame_index", INTEGER, REQUIRED),
    ("time", "timestamp", NUMBER, REQUIRED),
    ("detections", "detections", _DETECTION_ROW.list, []),
    ("radar", "radar", _RADAR_ROW.list, []),
), fast=_typed_replay_frame)
_GROUND_TRUTH_OBJECT = _Kind(GroundTruthObject, (
    ("id", "gt_id", INTEGER, REQUIRED),
    ("x", "x", NUMBER, REQUIRED),
    ("y", "y", NUMBER, REQUIRED),
    ("class", "class_id", INTEGER, REQUIRED),
))


def _typed_ground_truth_frame(record: dict) -> GroundTruthFrame:
    """A ground-truth line's fast reader: its objects typed as columns in a few passes, which the frame screens."""
    frame, objects = record["frame"], record.get("objects", [])
    ids, x, y, classes = [*zip(*map(_GROUND_TRUTH_OBJECT.values, objects))] or [()] * 4
    integers, numbers = ids + classes, x + y
    if not (type(objects) is list and {int} >= set(map(type, integers)) and {float, int} >= set(map(type, numbers))):
        raise TypeError("not a plain line")
    (ids, classes), (x, y) = np.fromiter(integers, np.int64).reshape(2, -1), np.fromiter(numbers, np.float64).reshape(2, -1)
    return GroundTruthFrame.__new__(GroundTruthFrame)._take(frame, ids, x, y, classes)


_GROUND_TRUTH_FRAME = _Kind(GroundTruthFrame, (
    ("frame", "frame_index", INTEGER, REQUIRED),
    ("objects", "columns", _GROUND_TRUTH_OBJECT.list, []),
), fast=_typed_ground_truth_frame)


def _snapshot(track_id, u, v, depth, vx, vy, class_id, confidence, age, fused, x, y, z) -> TrackSnapshot:
    if (x is None) != (y is None) or (x is None and z is not None):
        raise ValueError("a position needs both 'x' and 'y'")
    position = None if x is None else (x, y, 0.0 if z is None else z)
    if not all(map(math.isfinite, (u, v, depth, vx, vy, confidence, *(position or ())))):
        raise ValueError("track numbers must be finite")
    return _snapshot_from_row((track_id, u, v, depth, vx, vy, class_id, confidence, age, fused, position))


_RESULT_TRACK = _Kind(_snapshot, (
    ("id", "track_id", INTEGER, REQUIRED),
    ("u", "u", NUMBER, REQUIRED),
    ("v", "v", NUMBER, REQUIRED),
    ("depth", "depth", NUMBER, REQUIRED),
    ("vx", "vx", NUMBER, REQUIRED),
    ("vy", "vy", NUMBER, REQUIRED),
    ("class", "class_id", INTEGER, REQUIRED),
    ("confidence", "confidence", NUMBER, REQUIRED),
    ("age", "age", INTEGER, 0),
    ("fused", "fused", FLAG, False),
    ("x", "position", NUMBER, None),
    ("y", "position", NUMBER, None),
    ("z", "position", NUMBER, None),
))
_POSITION_KEYS = frozenset(key for key, _, _, _ in _RESULT_TRACK.rows[10:])
_UNPLACED_TRACK_VALUES = itemgetter(*(key for key, _, _, _ in _RESULT_TRACK.rows[:10]))


def _typed_result(record: dict) -> tuple:
    """A result line in a form that encode_result writes (every track with a position, or none), typed in a few
    passes if FrameResult accepts it, but for the range of its track integers, which their int64 columns check
    (an OverflowError): its frame, time and 13 track columns as decoded (x, y and z empty without positions)."""
    frame, time, tracks = record["frame"], record["time"], record.get("tracks", [])
    placed = type(tracks) is list and tracks != [] and "x" in tracks[0]
    if not (type(tracks) is list and (placed or all(map(_POSITION_KEYS.isdisjoint, tracks)))):
        raise TypeError("not a list of tracks in a form that the writer writes")
    ids, u, v, depth, vx, vy, classes, conf, age, fused, *position = (
        [*zip(*map(_RESULT_TRACK.values if placed else _UNPLACED_TRACK_VALUES, tracks))] or [()] * 10)
    x, y, z = position or ((), (), ())
    integers, numbers = (frame, *ids, *classes, *age), (time, *u, *v, *depth, *vx, *vy, *conf, *x, *y, *z)
    types = set(map(type, numbers))  # an int too large for a float fails in float(), even where the sum would cancel it
    if not ({int} >= set(map(type, integers)) and frame in _INT64 and {bool} >= set(map(type, fused))
            and {float, int} >= types and math.isfinite(sum(map(float, numbers) if int in types else numbers))
            and len(set(ids)) == len(ids)):
        raise ValueError("not a plain line, a line that FrameResult refuses, or one whose sum overflows")
    return frame, time, (ids, u, v, depth, vx, vy, classes, conf, age, fused, x, y, z)


def _typed_result_frame(record: dict) -> FrameResult:
    """A result line's fast reader: its tracks typed straight into FrameResult columns, with no snapshot."""
    frame, time, (ids, u, v, depth, vx, vy, classes, conf, age, fused, x, y, z) = _typed_result(record)
    ints, floats = np.array([ids, classes, age], np.int64), np.array([u, v, depth, vx, vy, conf], np.float64)
    position = np.array([x, y, z], np.float64).T.copy() if x else np.full((len(ids), 3), math.nan)
    return FrameResult.__new__(FrameResult)._take(frame, ints[0], *floats[:5], ints[1], floats[5], ints[2],
                                                  np.array(fused, bool), position, np.full(len(ids), bool(x)), timestamp=time)


def _typed_predicted_frame(record: dict) -> PredictedFrame:
    """evaluate's fast reader of a result line: its PredictedFrame, typed as columns in a few passes, if
    FrameResult accepts the line and the frame's screen its columns."""
    frame, _, (ids, _, _, _, _, _, classes, conf, age, _, x, y, _) = _typed_result(record)
    if len(x) != len(ids):
        raise ValueError("a track without a position, which results_to_predictions refuses")
    (ids, classes, _), (x, y, conf) = (np.fromiter(values, dtype).reshape(3, -1)  # an OverflowError beyond int64
                                       for values, dtype in ((ids + classes + age, np.int64), (x + y + conf, np.float64)))
    return PredictedFrame.__new__(PredictedFrame)._take(frame, ids, x, y, classes, conf)


_RESULT_FRAME = _Kind(FrameResult, (
    ("frame", "frame_index", INTEGER, REQUIRED),
    ("time", "timestamp", NUMBER, REQUIRED),
    ("tracks", "track_id", _RESULT_TRACK.list, []),
), fast=_typed_result_frame)
_PREDICTED_FRAME = _Kind(FrameResult, _RESULT_FRAME.rows, fast=_typed_predicted_frame)  # a FrameResult when not fast


def _text(kind: _Kind, end: Optional[int] = None) -> str:
    """A record of kind (its first end fields) as the encoder writes it (keys in table order, float repr, flags given
    as text), a % template of its values in table order: a box takes its 4 values, a list the text of its items."""
    formats = {NUMBER: "%r", INTEGER: "%d", FLAG: "%s", BOX: "[%r,%r,%r,%r]"}
    return "{" + ",".join(f'"{key}":{formats.get(t, "[%s]")}' for key, _, t, _ in kind.rows[:end]) + "}"


# The texts of a row without and with its last fields (a track's position, a detection's box), from all its
# values: the first consumes the values of those fields and writes nothing (%.0s).
_TRACK_TEXTS = (_text(_RESULT_TRACK, 10) + "%.0s" * 3, _text(_RESULT_TRACK))
_DETECTION_TEXTS = (_text(_DETECTION_ROW, 9) + "%.0s" * 4, _text(_DETECTION_ROW))
_RADAR_TEXT, _REPLAY_TEXT, _RESULT_TEXT = _text(_RADAR_ROW), _text(_REPLAY_FRAME), _text(_RESULT_FRAME)
_GROUND_TRUTH_TEXT, _OBJECT_TEXT = _text(_GROUND_TRUTH_FRAME), _text(_GROUND_TRUTH_OBJECT)


def encode_result(result: FrameResult) -> str:
    """A FrameResult's JSON text, encode_record's bytes for its record, formatted from its columns."""
    columns = [getattr(result, attr) for _, attr, _, _ in _RESULT_TRACK.rows[:10]]
    if not all(np.isfinite(column).all() for column in (*columns, result.position[result.has_position])):
        raise ValueError("Out of range float values are not JSON compliant")
    flags = map(("false", "true").__getitem__, result.fused.tolist())
    rows = zip(*(column.tolist() for column in columns[:9]), flags, *result.position.T.tolist())
    tracks = ",".join(map(_TRACK_TEXTS.__getitem__, result.has_position.tolist())) % tuple(chain.from_iterable(rows))
    return _RESULT_TEXT % (result.frame_index, result.timestamp, tracks)


# ------------------------------------------------------------------ replay

def _replay_line(frame: FrameInput) -> str:
    """A replay frame's JSON text, encode_record's bytes for its record, formatted from its columns."""
    dets, radar = frame.detections, frame.radar
    columns = [getattr(dets, attr) for _, attr, _, _ in _DETECTION_ROW.rows[:9]]
    if not np.isfinite(np.concatenate([*columns, dets.bbox[dets.boxed].ravel(), radar.ravel()])).all():
        raise ValueError("Out of range float values are not JSON compliant")  # FrameInput forbids it
    rows = zip(*(column.tolist() for column in columns), *dets.bbox.T.tolist())
    detections = ",".join(map(_DETECTION_TEXTS.__getitem__, dets.boxed.tolist())) % tuple(chain.from_iterable(rows))
    radar_rows = ",".join(repeat(_RADAR_TEXT, len(radar))) % tuple(radar.ravel().tolist())
    return _REPLAY_TEXT % (frame.frame_index, frame.timestamp, detections, radar_rows)


def iter_replay(path: str) -> Iterator[FrameInput]:
    return _iter(path, "frame", _REPLAY_FRAME.read_line)


def read_replay(path: str) -> List[FrameInput]:
    return list(iter_replay(path))


def write_replay(path: str, frames: Iterable[FrameInput]) -> None:
    write_records(path, frames, _replay_line)


# ------------------------------------------------------------- ground truth

def read_ground_truth(path: str) -> List[GroundTruthFrame]:
    return list(_iter(path, "ground-truth frame", _GROUND_TRUTH_FRAME.read_line))


def _ground_truth_line(frame: GroundTruthFrame) -> str:
    """A ground-truth frame's JSON text, encode_record's bytes for its record, formatted from its columns."""
    rows = zip(*(column.tolist() for column in frame.columns))
    objects = ",".join(repeat(_OBJECT_TEXT, len(frame.x))) % tuple(chain.from_iterable(rows))
    return _GROUND_TRUTH_TEXT % (frame.frame_index, objects)


def write_ground_truth(path: str, frames: Iterable[GroundTruthFrame]) -> None:
    write_records(path, frames, _ground_truth_line)


# ------------------------------------------------------------------ results

def iter_results(path: str) -> Iterator[FrameResult]:
    return _iter(path, "result frame", _RESULT_FRAME.read_line)


def read_results(path: str) -> List[FrameResult]:
    return list(iter_results(path))


def write_results(path: str, results: Iterable[FrameResult]) -> None:
    write_records(path, results, encode_result)


def read_predictions(path: str) -> List[PredictedFrame]:
    """results_to_predictions(iter_results(path)), with its errors, in one pass over the file."""
    frames = _iter(path, "result frame", _PREDICTED_FRAME.read_line)
    return [frame if type(frame) is PredictedFrame else results_to_predictions([frame])[0] for frame in frames]


def results_to_predictions(results: Iterable[FrameResult]) -> List[PredictedFrame]:
    """Evaluation view of tracker output, read one result at a time from its
    columns. Requires vehicle-frame positions (tracks written without a
    camera cannot be evaluated on the ground plane)."""
    frames = []
    for result in results:
        # The tracks before the first without a position, whose confidences are checked first.
        end = len(result.has_position) if result.has_position.all() else int(np.argmin(result.has_position))
        frames.append(PredictedFrame.from_columns(result.frame_index, result.track_id[:end], *result.position[:end, :2].T,
                                                  result.class_id[:end], result.confidence[:end]))
        if end < len(result.has_position):
            raise ValueError(f"frame {result.frame_index}: track {result.track_id[end]} has no ground-plane "
                             "position; produce results with a scene camera")
    return frames


# ------------------------------------------------------------------ configs

class _Marked:
    """A YAML loader mixin: a scalar that its tag's constructor refuses (as !!int x) fails as a YAML error at it."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except ValueError as exc:
            raise yaml.constructor.ConstructorError(None, None, str(exc), node.start_mark) from exc


def load_yaml(path: str) -> Dict:
    with open(path, "rb") as fh:
        text = _utf8(fh.read(), path)
    try:  # with libyaml's parser, if PyYAML has it
        data = yaml.load(text, Loader=type("Loader", (_Marked, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {}))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = min(mark.line + 1, len(text.splitlines())) if mark is not None else 0  # at the end: the last line
        problem = getattr(exc, "problem", None) or str(exc)
        raise ParseError(path, line, f"invalid YAML: {problem}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    return data


def save_yaml(path: str, data: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


def tracker_config_from_dict(data: Dict) -> TrackerConfig:
    return config_from_dict(TrackerConfig, data, strict=False)


def config_to_dict(config) -> Dict:
    """A config dataclass as YAML data (mappings, lists and scalars), keys in
    field order."""
    if is_dataclass(config):
        return {f.name: config_to_dict(getattr(config, f.name)) for f in fields(config)}
    if isinstance(config, (tuple, list)):
        return [config_to_dict(item) for item in config]
    return config.tolist() if hasattr(config, "tolist") else config


def config_from_dict(cls, data: Dict, strict: bool = True):
    """cls built from a mapping of its fields, each read with the typed reader
    of its annotation; absent keys keep the field defaults. Unknown keys are
    errors when strict, and ignored otherwise."""
    hints = get_type_hints(cls)
    for key in data if strict else ():
        if key not in hints:
            raise ValueError(f"unknown key {key!r} (expected one of {sorted(hints)})")
    read = [f.name for f in fields(cls) if f.name in data or (f.default is MISSING and f.default_factory is MISSING)]
    return cls(**{name: _field(data, name, _config_type(hints[name])) for name in read})


def _config_type(hint) -> _Type:
    """The typed reader of a config field annotation."""
    if hint in (float, int, bool):
        return {float: NUMBER, int: INTEGER, bool: FLAG}[hint]
    if is_dataclass(hint):
        return _Type("a mapping", frozenset({dict}), partial(config_from_dict, hint))
    if get_origin(hint) is tuple:  # a tuple of one item type, read from a list
        item = _config_type(get_args(hint)[0])
        return _Type("a list", frozenset({list}), lambda values: tuple(map(item.read, values)))
    return _Type("a list", frozenset({list}), list)  # an array, which its constructor checks
