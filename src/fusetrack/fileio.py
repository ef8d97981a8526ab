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
YAML configs share. Readers read a list of records a column at a time
(read_column): a line's list items or, in evaluation's whole-file readers,
the lines of a batch (_BATCH_OBJECTS). Only when a column fails are the
records read one at a time, to name the first bad line, item and field.
NaN and Infinity fail at decode time and writers refuse them. Every failure
names the file and line, as in ``path:3: bad frame: field 'time': expected a
number, got '0.5'``.

Readers ignore unknown fields, and writers do not write them. Writers emit
compact JSON with the known fields in table order, so identical data always
produces identical bytes. iter_replay and iter_results read a line at a
time, and writers write one, so a stream of frames is never held whole.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .association import Checked, DetectionBatch, RowError, screened
from .metrics import GroundTruthFrame, GroundTruthObject, PredictedFrame
from .tracker import FrameInput, FrameResult, TrackerConfig, TrackSnapshot, _snapshot_from_row


class ParseError(ValueError):
    """A malformed line; str() names the file line number."""

    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
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
            line = _utf8(line, path, number).strip()
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


_BATCH_OBJECTS = 2048  # list items (tracks or objects), and lines, read at once, unless one line holds more


def _read_batches(path: str, key: str, screen: Callable) -> Optional[list]:
    """screen(records) of a JSONL file's lines, a batch at a time (_BATCH_OBJECTS);
    None if a line does not decode or the screen refuses a batch."""
    frames, batch, size = [], [], 0
    try:
        for record in _iter(path, "line", lambda record: record):
            if batch and (size + len(record.get(key, ())) > _BATCH_OBJECTS or len(batch) == _BATCH_OBJECTS):
                frames += screen(batch)
                batch, size = [], 0
            batch.append(record)
            size += len(record.get(key, ()))
        return frames + screen(batch)
    except (ValueError, TypeError, AttributeError, OverflowError):  # a ParseError included
        return None


def write_records(path: str, records: Iterable, encode: Callable[..., str]) -> None:
    """One line of encode(record) per record, written as each comes."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record) + "\n")


# ------------------------------------------------------------ typed readers

REQUIRED = object()  # the default of a field that must be present


class _Type(NamedTuple):
    """A JSON type: its name in messages, the Python types its decoded values
    may have, their conversion (ValueError when out of range), and the test of
    a whole column, given the set of its value types, that passes a column
    whose values read as they are."""

    name: str
    accepts: frozenset
    convert: Callable
    same: Callable[[list, set], bool] = lambda column, types: False

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


def _float_boxes(column: list, types: set) -> bool:
    return types == {list} and set(map(len, column)) == {4} and set(map(type, chain.from_iterable(column))) == {float}


NUMBER = _Type("a number", frozenset({int, float}), float, same=lambda column, types: types == {float})
INTEGER = _Type("an integer", frozenset({int}), _int64,
                same=lambda column, types: types == {int} and min(column) in _INT64 and max(column) in _INT64)
FLAG = _Type("true or false", frozenset({bool}), bool)
BOX = _Type("a list of 4 numbers", frozenset({list}), _box, same=_float_boxes)
_LIST = _Type("a list", frozenset({list}), list)
_INT64 = range(-(2**63), 2**63)  # the values of a signed 64-bit integer


def read_column(records: list, key: str, kind: _Type, default=REQUIRED) -> list:
    """The values of key in a list of records (default where absent) read as
    kind: _Type.read's type rule tests the whole column at once, then one pass
    converts it, unless kind.same passes the column as it is (all floats, all
    ints within int64, all boxes of 4 floats). A None default also makes null
    valid. The ValueError names the field."""
    column = list(map(dict.get, records, repeat(key), repeat(default)))
    types = set(map(type, column))
    if default is None and type(None) in types:  # read the records that hold a value
        values = iter(read_column([r for r, value in zip(records, column) if value is not None], key, kind))
        return [None if value is None else next(values) for value in column]
    if type(REQUIRED) in types:
        raise ValueError(f"missing field {key!r}")
    try:
        if kind.same(column, types):
            return column  # kind.convert would return each value as it is, or an equal tuple of a box
        return list(map(kind.convert if types <= kind.accepts else kind.read, column))
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ValueError(f"field {key!r}: {exc}") from None


class _Kind:
    """A record kind compiled from its field table. make builds the objects:
    one from the field values in table order or, when by_columns is set, all
    of a list's from its columns. fast(record), if given, types the values
    of a line of the plain form the writers write in a few passes, for make,
    and raises on any other line; that one is read column by column."""

    def __init__(self, make: Callable, rows, by_columns: bool = False, fast: Optional[Callable] = None):
        self.make, self.rows, self.by_columns, self.fast = make, rows, by_columns, fast
        self.nullable = {key for key, _, _, default in rows if default is None}
        self.list = _Type("a list", frozenset({list}), self.read_all)

    def read_all(self, records: list, items: bool = True):
        """The objects of a list of JSON objects, made from their read columns.
        When a column fails, the records are read again one at a time, so that
        the ValueError names the first bad item (unless items is False) and,
        in it, the first bad field or the object's own check."""
        objects = []
        try:
            try:
                if not all(map(isinstance, records, repeat(dict))):
                    bad = next(record for record in records if not isinstance(record, dict))
                    raise ValueError(f"expected a JSON object, got {reprlib.repr(bad)}")
                columns = [read_column(records, key, t, default) for key, _, t, default in self.rows]
            except ValueError:
                if items:  # read the records one at a time, to name the first bad one
                    for record in records:
                        objects.append(self.read_all([record], items=False))
                raise
            if self.by_columns:
                return self.make(*columns)
            objects.extend(map(self.make, *columns))  # keeps the objects made before a failure
        except ValueError as exc:
            if not items:
                raise
            raise ValueError(f"item {len(objects)}: {exc}") from None
        return tuple(objects)

    def read_line(self, record):
        try:
            values = None if self.fast is None else self.fast(record)
        except (LookupError, TypeError, ValueError, OverflowError, AttributeError):
            values = None  # read column by column, to name the first bad item and field
        return self.read_all([record], items=False)[0] if values is None else self.make(*values)


# ------------------------------------------------------------- field tables

# Detections and radar returns read as columns, which FrameInput checks.
_DETECTION_ROW = _Kind(DetectionBatch.from_fields, (
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
), by_columns=True)


_RADAR_ROW = _Kind(lambda *columns: np.array(columns).T, (
    ("x", "x", NUMBER, REQUIRED),
    ("y", "y", NUMBER, REQUIRED),
    ("z", "z", NUMBER, REQUIRED),
    ("vx", "vx", NUMBER, REQUIRED),
    ("vy", "vy", NUMBER, REQUIRED),
), by_columns=True)
_DETECTION_NUMBERS = itemgetter(*(key for key, _, t, _ in _DETECTION_ROW.rows if t is NUMBER))  # in _FLOAT_COLUMNS order
_RADAR_NUMBERS = itemgetter(*(key for key, _, _, _ in _RADAR_ROW.rows))
_NO_BOX = [math.nan] * 4


def _replay_frame(*values) -> FrameInput:
    try:
        return FrameInput(*values)
    except RowError as exc:  # a detection that breaks a value rule
        raise ValueError(f"field 'detections': item {exc.row}: {exc}") from None


def _typed_replay_frame(record: dict) -> tuple:
    """A replay line's fast reader: all numbers of its lists typed as one flat
    list, the detections screened once, into a Checked batch."""
    frame, time, dets, radar = record["frame"], record["time"], record.get("detections", []), record.get("radar", [])
    if not (type(frame) is int and frame in _INT64 and type(time) in (float, int) and type(dets) is type(radar) is list):
        raise TypeError("not a plain replay line")
    boxes = [_NO_BOX if d.get("bbox") is None else d["bbox"] for d in dets]
    classes = [d["class"] for d in dets]
    values = list(chain(*map(_DETECTION_NUMBERS, dets), *boxes, *map(_RADAR_NUMBERS, radar)))
    if not ({list} >= set(map(type, boxes)) and {4} >= set(map(len, boxes)) and {int} >= set(map(type, classes))
            and {float, int} >= set(map(type, values))):
        raise TypeError("not a box, a class or a number")
    values, n = np.fromiter(values, np.float64, len(values)), len(dets)
    floats, bbox = values[: 8 * n].reshape(n, 8).T.copy(), values[8 * n : 12 * n].reshape(n, 4).copy()
    batch = screened(floats, np.array(classes, np.int64), bbox, np.array([box is not _NO_BOX for box in boxes], bool))
    return frame, float(time), Checked(batch), values[12 * n :].reshape(len(radar), 5)


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
_GROUND_TRUTH_KEYS = [key for key, _, _, _ in _GROUND_TRUTH_OBJECT.rows]
_GROUND_TRUTH_FRAME = _Kind(GroundTruthFrame, (
    ("frame", "frame_index", INTEGER, REQUIRED),
    ("objects", "columns", _GROUND_TRUTH_OBJECT.list, []),
))


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
_RESULT_FRAME = _Kind(FrameResult, (
    ("frame", "frame_index", INTEGER, REQUIRED),
    ("time", "timestamp", NUMBER, REQUIRED),
    ("tracks", "track_id", _RESULT_TRACK.list, []),
))


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


def _screen(kind: _Kind, items: _Kind, cls: type, fields: Sequence[str], records: list, unique_ids=False) -> list:
    """cls.from_columns(frame, *the columns of fields) of each record of kind, each
    field (of its last field's items too) read once per batch. A ValueError also where
    a number is not finite, a field of fields absent or, if unique_ids, an id repeats."""
    *heads, (key, _, _, default) = kind.rows
    lists = read_column(records, key, _LIST, default)
    rows = list(chain.from_iterable(lists))
    columns = {k: read_column(records, k, t, d) for k, _, t, d in heads}
    columns.update({k: read_column(rows, k, t, d) for k, _, t, d in items.rows})
    numbers = chain.from_iterable(columns[k] for k, _, t, _ in (*heads, *items.rows) if t is NUMBER)
    if np.isinf(np.array(list(numbers), np.float64)).any():  # None reads as NaN
        raise ValueError("a number that is not finite")
    if any(None in columns[k] for k in items.nullable.intersection(fields)):
        raise ValueError("a field absent")
    ends = np.cumsum(list(map(len, lists))).tolist()
    if unique_ids and any(len(set(columns["id"][start:end])) != end - start for start, end in zip([0, *ends], ends)):
        raise ValueError("an id repeated in a line")
    return [cls.from_columns(frame, *(columns[key][start:end] for key in fields))
            for frame, start, end in zip(columns["frame"], [0, *ends], ends)]


_screen_ground_truth = partial(_screen, _GROUND_TRUTH_FRAME, _GROUND_TRUTH_OBJECT, GroundTruthFrame, ("id", "x", "y", "class"))
_screen_predictions = partial(_screen, _RESULT_FRAME, _RESULT_TRACK, PredictedFrame, ("id", "x", "y", "class", "confidence"),
                              unique_ids=True)  # FrameResult's rule, not PredictedFrame's


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
    frames = _read_batches(path, "objects", _screen_ground_truth)
    return list(_iter(path, "ground-truth frame", _GROUND_TRUTH_FRAME.read_line)) if frames is None else frames


def _ground_truth_line(frame: GroundTruthFrame) -> str:
    """A ground-truth frame's JSON text, encode_record's bytes for its record: its objects formatted from
    their columns where those hold ints and finite floats, and else written, or refused, by the encoder."""
    ids, x, y, classes = columns = frame.columns
    if {int} >= set(map(type, ids + classes)) and {float} >= set(map(type, x + y)) and all(map(math.isfinite, x + y)):
        objects = ",".join(repeat(_OBJECT_TEXT, len(ids))) % tuple(chain.from_iterable(zip(*columns)))
    else:  # a bool, a numpy or another subclass value, or a value that is not finite
        objects = encode_record([dict(zip(_GROUND_TRUTH_KEYS, row)) for row in zip(*columns)])[1:-1]
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
    """results_to_predictions(iter_results(path)), with its errors, read a
    batch of lines at a time straight into prediction columns."""
    frames = _read_batches(path, "tracks", _screen_predictions)
    if frames is None:  # fails as the plain path does, at the first bad line, or else here
        results_to_predictions(iter_results(path))
        raise ValueError("the prediction screen refuses a frame that read_results and results_to_predictions accept")
    return frames


def results_to_predictions(results: Iterable[FrameResult]) -> List[PredictedFrame]:
    """Evaluation view of tracker output, read one result at a time from its
    columns. Requires vehicle-frame positions (tracks written without a
    camera cannot be evaluated on the ground plane)."""
    frames = []
    for result in results:
        # The tracks before the first without a position, whose confidences are checked first.
        end = len(result.has_position) if result.has_position.all() else int(np.argmin(result.has_position))
        x, y = result.position[:end, :2].T
        columns = (result.track_id[:end], x, y, result.class_id[:end], result.confidence[:end])
        frames.append(PredictedFrame.from_columns(result.frame_index, *(column.tolist() for column in columns)))
        if end < len(result.has_position):
            raise ValueError(f"frame {result.frame_index}: track {result.track_id[end]} has no ground-plane "
                             "position; produce results with a scene camera")
    return frames


# ------------------------------------------------------------------ configs

def load_yaml(path: str) -> Dict:
    with open(path, "rb") as fh:
        text = _utf8(fh.read(), path)
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else 0
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
    return cls(**{name: read_column([data], name, _config_type(hints[name]))[0] for name in read})


def _config_type(hint) -> _Type:
    """The typed reader of a config field annotation."""
    if hint in (float, int, bool):
        return {float: NUMBER, int: INTEGER, bool: FLAG}[hint]
    if is_dataclass(hint):
        return _Type("a mapping", frozenset({dict}), partial(config_from_dict, hint))
    if get_origin(hint) is tuple:  # a tuple of one item type, read from a list
        item = _config_type(get_args(hint)[0])
        return _Type("a list", frozenset({list}), lambda values: tuple(map(item.read, values)))
    return _LIST  # an array, which its constructor checks
