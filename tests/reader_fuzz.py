"""A seeded fuzzer for the JSONL readers, with a plain reference reader.

fuzz_lines mutates one line of a valid file at a time: it drops a key, swaps
a value's JSON type, writes a NaN or Infinity token, puts an integer beyond
int64 (or beyond a float) or a literal beyond a float (1e999, which JSON
decodes as infinity) in place of a number, makes every number an int and
puts an int beyond a float and its negation in two of them (so that any
sum of the line's numbers cancels the two), truncates the line, replaces a
record or a row by a non-object, or wraps a value in a list or an object.
reference_record decides what the mutated line should read as. It is written
field by field with plain checks, sharing only the result types with
fusetrack.fileio, so that agreement is a cross-check of the table-driven
reader, not the same code twice.
"""

from __future__ import annotations

import json
import math
import random
from typing import Callable, Dict, List, Tuple

from fusetrack.association import Detection
from fusetrack.fusion import RadarPoint
from fusetrack.metrics import GroundTruthFrame, GroundTruthObject
from fusetrack.tracker import FrameInput, FrameResult, TrackSnapshot


class Invalid(ValueError):
    """The line is malformed; the reader must name it."""


def _number(value) -> float:
    if type(value) not in (int, float) or not (-math.inf < value < math.inf):
        raise Invalid(f"not a finite number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise Invalid("an int too large for a float")


def _integer(value) -> int:
    if type(value) is not int or not -(2**63) <= value < 2**63:
        raise Invalid(f"not an int64: {value!r}")
    return value


def _flag(value) -> bool:
    if type(value) is not bool:
        raise Invalid(f"not a flag: {value!r}")
    return value


def _required(record: Dict, key: str):
    if key not in record:
        raise Invalid(f"missing {key!r}")
    return record[key]


def _rows(record: Dict, key: str) -> List[Dict]:
    rows = record.get(key, [])
    if type(rows) is not list or any(type(row) is not dict for row in rows):
        raise Invalid(f"{key!r} is not a list of objects")
    return rows


def _detection(d: Dict) -> Detection:
    box = d.get("bbox")
    if box is not None:
        if type(box) is not list or len(box) != 4:
            raise Invalid("bbox is not 4 numbers")
        box = tuple(_number(b) for b in box)
    u, v, depth = (_number(_required(d, key)) for key in ("u", "v", "depth"))
    vx, vy = _number(_required(d, "vx")), _number(_required(d, "vy"))
    class_id, confidence = _integer(_required(d, "class")), _number(_required(d, "confidence"))
    du, dv = _number(d.get("du", 0.0)), _number(d.get("dv", 0.0))
    return Detection(u, v, depth, vx, vy, class_id, confidence, du, dv, box)


def _track(t: Dict) -> TrackSnapshot:
    x, y, z = t.get("x"), t.get("y"), t.get("z")
    if x is None and y is None:
        if z is not None:
            raise Invalid("z without x and y")
        position = None
    elif x is None or y is None:
        raise Invalid("x without y, or y without x")
    else:
        position = (_number(x), _number(y), 0.0 if z is None else _number(z))
    state = [_number(_required(t, key)) for key in ("u", "v", "depth", "vx", "vy")]
    return TrackSnapshot(
        _integer(_required(t, "id")),
        *state,
        _integer(_required(t, "class")),
        _number(_required(t, "confidence")),
        _integer(t.get("age", 0)),
        _flag(t.get("fused", False)),
        position,
    )


def _replay(r: Dict) -> FrameInput:
    dets = tuple(_detection(d) for d in _rows(r, "detections"))
    radar = tuple(RadarPoint(*(_number(_required(p, k)) for k in ("x", "y", "z", "vx", "vy"))) for p in _rows(r, "radar"))
    return FrameInput(_integer(_required(r, "frame")), _number(_required(r, "time")), dets, radar)


def _ground_truth(r: Dict) -> GroundTruthFrame:
    objects = tuple(
        GroundTruthObject(_integer(_required(o, "id")), _number(_required(o, "x")), _number(_required(o, "y")),
                          _integer(_required(o, "class")))
        for o in _rows(r, "objects")
    )
    return GroundTruthFrame(_integer(_required(r, "frame")), objects)


def _results(r: Dict) -> FrameResult:
    tracks = tuple(_track(t) for t in _rows(r, "tracks"))
    return FrameResult(_integer(_required(r, "frame")), _number(_required(r, "time")), tracks)


_READERS = {"replay": _replay, "ground_truth": _ground_truth, "results": _results}


def reference_record(kind: str, line: str):
    """The frame one line of a file of kind reads as; Invalid when the
    reader must reject the line."""
    try:
        record = json.loads(line)  # accepts NaN and Infinity, which _number rejects
    except ValueError as exc:
        raise Invalid(str(exc))
    if type(record) is not dict:
        raise Invalid("not an object")
    try:
        return _READERS[kind](record)
    except Invalid:
        raise
    except ValueError as exc:  # a result type's own check: depth, confidence, duplicate ids
        raise Invalid(str(exc))


# ---------------------------------------------------------------- mutations

_SAMPLES = (None, True, "0.5", 7, 7.5, [], {})


def _slots(value, path=()) -> List[Tuple]:
    """Paths of every value inside value, value itself first."""
    out = [path]
    if isinstance(value, dict):
        for key, item in value.items():
            out += _slots(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out += _slots(item, path + (i,))
    return out


def _get(value, path):
    for step in path:
        value = value[step]
    return value


def _set(record, path, new):
    if not path:
        return new
    _get(record, path[:-1])[path[-1]] = new
    return record


def _drop_key(rng, record):
    keys = [p for p in _slots(record) if p and isinstance(p[-1], str)]
    path = rng.choice(keys)
    del _get(record, path[:-1])[path[-1]]
    return json.dumps(record)


def _swap_type(rng, record):
    path = rng.choice(_slots(record)[1:])
    old = _get(record, path)
    new = rng.choice([s for s in _SAMPLES if type(s) is not type(old)])
    return json.dumps(_set(record, path, new))


def _numbers(record):
    return [p for p in _slots(record) if type(_get(record, p)) in (int, float)]


def _non_finite(rng, record):
    path = rng.choice(_numbers(record))
    return json.dumps(_set(record, path, rng.choice((math.nan, math.inf, -math.inf))))


def _beyond_int64(rng, record):
    path = rng.choice(_numbers(record))
    return json.dumps(_set(record, path, rng.choice((2**63, -(2**63) - 1, 2**70, 10**400))))


def _overflow_literal(rng, record):
    # json.dumps never writes such a literal, so it is spliced into the text.
    path = rng.choice(_numbers(record))
    marker = "<overflowing literal>"
    return json.dumps(_set(record, path, marker)).replace(json.dumps(marker), rng.choice(("1e999", "-1e999", "3e999")))


def _cancelling_ints(rng, record):
    # Every number made an int, then an int beyond a float and its negation put in two numbers (two that were
    # floats, where the line has two): a sum of the line's numbers, in any order, cancels them exactly, as
    # float() of either does not.
    numbers = _numbers(record)
    floats = [p for p in numbers if type(_get(record, p)) is float]
    first, second = rng.sample(floats if len(floats) > 1 else numbers, 2)
    for path in floats:
        _set(record, path, int(_get(record, path)))
    big = rng.choice((2**1024, 10**400))
    return json.dumps(_set(_set(record, first, big), second, -big))


def _truncate(rng, record):
    text = json.dumps(record)
    return text[: rng.randrange(1, len(text))]


def _non_object(rng, record):
    rows = [p for p in _slots(record) if isinstance(_get(record, p), dict)]
    path = rng.choice(rows)  # the record itself, or one row of a list
    return json.dumps(_set(record, path, rng.choice((5, "row", None, [1, 2]))))


def _wrap(rng, record):
    path = rng.choice(_slots(record))
    old = _get(record, path)
    return json.dumps(_set(record, path, rng.choice(([old], {"value": old}))))


MUTATIONS: Tuple[Callable, ...] = (
    _drop_key, _swap_type, _non_finite, _beyond_int64, _overflow_literal, _cancelling_ints, _truncate, _non_object,
    _wrap,
)


def fuzz_lines(seed: int, lines: List[str], trials: int):
    """Yield (index, mutated line, mutation name) for trials mutations of
    randomly chosen lines."""
    rng = random.Random(seed)
    for _ in range(trials):
        index = rng.randrange(len(lines))
        mutate = rng.choice(MUTATIONS)
        yield index, mutate(rng, json.loads(lines[index])), mutate.__name__
