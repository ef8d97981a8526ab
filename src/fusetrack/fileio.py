"""Line-delimited JSON files and YAML configs.

Three JSONL file kinds, one frame object per line, no header records (a
replay of N frames is exactly N lines):

* replay: tracker input, detections and radar returns per frame;
* ground truth: evaluation reference, true objects per frame;
* results: tracker output, reported tracks per frame, including their
  vehicle-frame position when the tracker knew its camera.

Each record kind is stated once, in a field table of (JSON key, attribute,
JSON type, default) rows that both its reader and its writer walk;
docs/file_formats.md lists the same fields and the type rules, which the
YAML configs share. NaN and Infinity fail at decode time and writers refuse
them. Every failure names the file and line, as in ``path:3: bad frame:
field 'time': expected a number, got '0.5'``.

Readers keep unknown fields: writers merge typed values back into copies of
the dicts a file was read from (``base_records``), so foreign annotations
survive a read-modify-write cycle. Writers emit compact JSON with the known
fields in table order, so identical data always produces identical bytes.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, asdict, fields, is_dataclass
from functools import partial
from itertools import product
from operator import itemgetter, methodcaller
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple
from typing import get_args, get_origin, get_type_hints

import yaml

from .association import Detection
from .metrics import GroundTruthFrame, GroundTruthObject, PredictedFrame, PredictedObject
from .tracker import FrameInput, FrameResult, TrackerConfig, TrackSnapshot


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


def _numbered_records(path: str) -> Iterator[Tuple[int, Dict]]:
    """(line number, JSON object) of each non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = _decode(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(path, number, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
            if not isinstance(record, dict):
                raise ParseError(path, number, "each line must hold a JSON object")
            yield number, record


def write_records(path: str, records: Sequence[Dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode_record(record) + "\n")


# ------------------------------------------------------------ typed readers

REQUIRED = object()  # the default of a field that must be present


class _Type(NamedTuple):
    """A JSON type: its name in messages, the Python types its decoded values
    may have, their conversion (ValueError when out of range), the type whose
    values need none, and the writer of an attribute value (None: as it is)."""

    name: str
    accepts: frozenset
    convert: Callable
    plain: Optional[type] = None
    write: Optional[Callable] = None

    def read(self, value):
        if type(value) not in self.accepts:
            raise ValueError(f"expected {self.name}, got {reprlib.repr(value)}")
        return self.convert(value)


def _int64(value: int) -> int:
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in a signed 64-bit integer")
    return value


def _box(value: list) -> Tuple[float, ...]:
    if len(value) != 4 or not NUMBER.accepts.issuperset(map(type, value)):
        raise ValueError(f"expected a list of 4 numbers, got {reprlib.repr(value)}")
    return tuple(map(float, value))


NUMBER = _Type("a number", frozenset({int, float}), float, plain=float)
INTEGER = _Type("an integer", frozenset({int}), _int64)
FLAG = _Type("true or false", frozenset({bool}), bool, plain=bool)
BOX = _Type("a list of 4 numbers", frozenset({list}), _box, write=lambda box, base: list(box))


def read_field(data: Dict, key: str, kind: _Type, default=REQUIRED):
    """data[key] read as kind. An absent key reads its default, a JSON value;
    a None default also makes null valid."""
    value = data.get(key, default)
    if value is REQUIRED:
        raise ValueError(f"missing field {key!r}")
    if value is None and default is None:
        return None
    try:
        return kind.read(value)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ValueError(f"field {key!r}: {exc}") from None


class _Kind:
    """A record kind compiled from its field table. make builds the object
    from the field values in table order; split, when the attributes do not
    hold them, gives them back."""

    def __init__(self, make: Callable, rows, split: Optional[Callable] = None):
        self.make, self.rows = make, rows
        self.split = split
        self.keys = tuple(key for key, _, _, _ in rows)
        self.fetch = itemgetter(*self.keys)
        self.defaults = {key: default for key, _, _, default in rows if default is not REQUIRED}
        self.nullable = {key for key, _, _, default in rows if default is None}
        null = {type(None)}
        # Every type signature of a record whose plain fields need no conversion.
        self.plain = set(product(*(
            ({t.plain} if t.plain else t.accepts) | (null if default is None else set()) for _, _, t, default in rows
        )))
        self.convert = [(i, t.convert) for i, (_, _, t, _) in enumerate(rows) if not t.plain]
        self.write = [(key, t.write) for key, _, t, _ in rows if t.write or key in self.nullable]
        self.list = _Type("a list", frozenset({list}), self.read_all, write=self.dump_all)
        # The record of an object (or of its split), compiled to a dict display
        # as collections.namedtuple compiles __new__: 2x faster than dict(zip()).
        values = [f"o[{i}]" if split else f"o.{attr}" for i, (_, attr, _, _) in enumerate(rows)]
        self.record = eval("lambda o: {" + ", ".join(f"{k!r}: {v}" for k, v in zip(self.keys, values)) + "}")

    def read(self, record: Dict):
        """The object of one JSON object; the ValueError names the field."""
        if not isinstance(record, dict):
            raise ValueError(f"expected an object, got {reprlib.repr(record)}")
        try:
            try:
                values = self.fetch(record)
            except KeyError:
                values = self.fetch({**self.defaults, **record})
            if tuple(map(type, values)) in self.plain:
                values = list(values)
                for i, convert in self.convert:
                    if values[i] is not None:
                        values[i] = convert(values[i])
                return self.make(*values)
        except (KeyError, ValueError, OverflowError):
            pass
        # Field by field, so that the error names the field. When every field
        # reads, the object itself is invalid and its constructor says why.
        return self.make(*(read_field(record, key, t, default) for key, _, t, default in self.rows))

    def read_all(self, records: list) -> tuple:
        objects = []
        for i, record in enumerate(records):
            try:
                objects.append(self.read(record))
            except ValueError as exc:
                raise ValueError(f"item {i}: {exc}") from None
        return tuple(objects)

    def dump_all(self, objects: Sequence, bases=None) -> List[Dict]:
        """JSON objects of objects, leaving out nullable fields that hold None.
        bases, when it is a list of the objects they were read from, carries
        their other fields over."""
        records = list(map(self.record, map(self.split, objects) if self.split else objects))
        if not (isinstance(bases, list) and len(bases) == len(records) and all(isinstance(b, dict) for b in bases)):
            bases = [{}] * len(records)
        for key, write in self.write:
            for record, base in zip(records, bases):
                if record[key] is None and key in self.nullable:
                    del record[key]
                elif write:
                    record[key] = write(record[key], base.get(key))
        if any(bases):
            for i, (record, base) in enumerate(zip(records, bases)):
                records[i] = {**base, **record}
                for key in self.nullable.difference(record):
                    records[i].pop(key, None)
        return records


def _parse(records: Iterable[Tuple[int, Dict]], path: str, what: str, parse_one: Callable) -> List:
    """parse_one of each (line number, record); a failure names the line."""
    out = []
    for number, record in records:
        try:
            out.append(parse_one(record))
        except ValueError as exc:
            raise ParseError(path, number, f"bad {what}: {exc}") from exc
    return out


def _dump(kind: _Kind, objects: Sequence, base_records: Optional[Sequence[Dict]]) -> List[Dict]:
    """Records of objects; base_records[i], when given, is the dict objects[i]
    was parsed from, and its unknown fields are carried over."""
    return kind.dump_all(objects, None if base_records is None else [base_records[i] for i in range(len(objects))])


# ------------------------------------------------------------- field tables

_DETECTION = _Kind(Detection, (
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
# Radar returns read as (x, y, z, vx, vy) tuples, which FrameInput checks.
_RADAR_ROW = _Kind(lambda *row: row, (
    ("x", "x", NUMBER, REQUIRED),
    ("y", "y", NUMBER, REQUIRED),
    ("z", "z", NUMBER, REQUIRED),
    ("vx", "vx", NUMBER, REQUIRED),
    ("vy", "vy", NUMBER, REQUIRED),
), methodcaller("tolist"))
_REPLAY_FRAME = _Kind(FrameInput, (
    ("frame", "frame_index", INTEGER, REQUIRED),
    ("time", "timestamp", NUMBER, REQUIRED),
    ("detections", "detections", _DETECTION.list, []),
    ("radar", "radar", _RADAR_ROW.list, []),
))
_GROUND_TRUTH_OBJECT = _Kind(GroundTruthObject, (
    ("id", "gt_id", INTEGER, REQUIRED),
    ("x", "x", NUMBER, REQUIRED),
    ("y", "y", NUMBER, REQUIRED),
    ("class", "class_id", INTEGER, REQUIRED),
))
_GROUND_TRUTH_FRAME = _Kind(GroundTruthFrame, (
    ("frame", "frame_index", INTEGER, REQUIRED),
    ("objects", "objects", _GROUND_TRUTH_OBJECT.list, []),
))


def _snapshot(*values) -> TrackSnapshot:
    *fields_, x, y, z = values
    if (x is None) != (y is None) or (x is None and z is not None):
        raise ValueError("a position needs both 'x' and 'y'")
    position = None if x is None else (x, y, 0.0 if z is None else z)
    if not all(map(math.isfinite, (*fields_[1:6], fields_[7], *(position or ())))):
        raise ValueError("track numbers must be finite")
    return TrackSnapshot(*fields_, position)


def _snapshot_fields(track: TrackSnapshot) -> tuple:
    return (*track[:10], *((None,) * 3 if track.position is None else map(float, track.position)))


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
), _snapshot_fields)
_RESULT_FRAME = _Kind(FrameResult, (
    ("frame", "frame_index", INTEGER, REQUIRED),
    ("time", "timestamp", NUMBER, REQUIRED),
    ("tracks", "tracks", _RESULT_TRACK.list, []),
))


# ------------------------------------------------------------------ replay

def replay_to_records(
    frames: Sequence[FrameInput], base_records: Optional[Sequence[Dict]] = None
) -> List[Dict]:
    """Serialize frames; when base_records is given (the dicts the frames
    were parsed from), unknown fields in them are carried over."""
    return _dump(_REPLAY_FRAME, frames, base_records)


def replay_from_records(records: Sequence[Dict], path: str = "<memory>") -> List[FrameInput]:
    return _parse(enumerate(records, start=1), path, "frame", _REPLAY_FRAME.read)


def read_replay(path: str) -> List[FrameInput]:
    return _parse(_numbered_records(path), path, "frame", _REPLAY_FRAME.read)


def write_replay(path: str, frames: Sequence[FrameInput]) -> None:
    write_records(path, replay_to_records(frames))


# ------------------------------------------------------------- ground truth

def ground_truth_to_records(
    frames: Sequence[GroundTruthFrame], base_records: Optional[Sequence[Dict]] = None
) -> List[Dict]:
    return _dump(_GROUND_TRUTH_FRAME, frames, base_records)


def ground_truth_from_records(
    records: Sequence[Dict], path: str = "<memory>"
) -> List[GroundTruthFrame]:
    return _parse(enumerate(records, start=1), path, "ground-truth frame", _GROUND_TRUTH_FRAME.read)


def read_ground_truth(path: str) -> List[GroundTruthFrame]:
    return _parse(_numbered_records(path), path, "ground-truth frame", _GROUND_TRUTH_FRAME.read)


def write_ground_truth(path: str, frames: Sequence[GroundTruthFrame]) -> None:
    write_records(path, ground_truth_to_records(frames))


# ------------------------------------------------------------------ results

def results_to_records(
    results: Sequence[FrameResult], base_records: Optional[Sequence[Dict]] = None
) -> List[Dict]:
    return _dump(_RESULT_FRAME, results, base_records)


def results_from_records(records: Sequence[Dict], path: str = "<memory>") -> List[FrameResult]:
    return _parse(enumerate(records, start=1), path, "result frame", _RESULT_FRAME.read)


def read_results(path: str) -> List[FrameResult]:
    return _parse(_numbered_records(path), path, "result frame", _RESULT_FRAME.read)


def write_results(path: str, results: Sequence[FrameResult]) -> None:
    write_records(path, results_to_records(results))


def results_to_predictions(results: Sequence[FrameResult]) -> List[PredictedFrame]:
    """Evaluation view of tracker output. Requires vehicle-frame positions
    (tracks written without a camera cannot be evaluated on the ground
    plane)."""
    frames = []
    for result in results:
        objects = []
        for t in result.tracks:
            if t.position is None:
                raise ValueError(
                    f"frame {result.frame_index}: track {t.track_id} has no ground-plane "
                    "position; produce results with a scene camera"
                )
            objects.append(
                PredictedObject(t.track_id, t.position[0], t.position[1], t.class_id, t.confidence)
            )
        frames.append(PredictedFrame(result.frame_index, tuple(objects)))
    return frames


# ------------------------------------------------------------------ configs

def load_yaml(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
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


def tracker_config_to_dict(config: TrackerConfig) -> Dict:
    return asdict(config)


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
    return cls(**{name: read_field(data, name, _config_type(hints[name])) for name in read})


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
