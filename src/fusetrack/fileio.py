"""Line-delimited JSON files and YAML configs.

Three JSONL file kinds, one frame object per line, no header records (a
replay of N frames is exactly N lines):

* replay: tracker input, detections and radar returns per frame;
* ground truth: evaluation reference, true objects per frame;
* results: tracker output, reported tracks per frame, including their
  vehicle-frame position when the tracker knew its camera.

Field names are documented in docs/file_formats.md. Parsers keep every
unknown field: reading a file yields raw dicts alongside the typed objects,
and writers merge typed values back into copies of those dicts, so foreign
annotations survive a read-modify-write cycle. Writers emit compact,
deterministic JSON (sorted known fields first is NOT imposed; insertion
order is stable), so identical data always produces identical bytes.

Parse errors name the offending line number.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Dict, List, Optional, Sequence

import yaml

from .association import CostWeights, Detection
from .fusion import PillarDims, RadarPoint
from .metrics import GroundTruthFrame, GroundTruthObject, PredictedFrame, PredictedObject
from .tracker import FrameInput, FrameResult, TrackerConfig, TrackSnapshot


class ParseError(ValueError):
    """A malformed line; str() names the file line number."""

    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


def read_records(path: str) -> List[Dict]:
    """All JSON objects of a JSONL file, skipping blank lines."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, number, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise ParseError(path, number, "each line must hold a JSON object")
            records.append(record)
    return records


def write_records(path: str, records: Sequence[Dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _require(record: Dict, key: str, path: str, line_number: int):
    if key not in record:
        raise ParseError(path, line_number, f"missing field {key!r}")
    return record[key]


# ------------------------------------------------------------------ replay

def _detection_to_dict(det: Detection) -> Dict:
    out = {
        "u": det.u,
        "v": det.v,
        "depth": det.depth,
        "vx": det.vx,
        "vy": det.vy,
        "class": det.class_id,
        "confidence": det.confidence,
        "du": det.du,
        "dv": det.dv,
    }
    if det.bbox is not None:
        out["bbox"] = list(det.bbox)
    return out


def _detection_from_dict(data: Dict, path: str, line_number: int) -> Detection:
    try:
        bbox = data.get("bbox")
        return Detection(
            u=float(_require(data, "u", path, line_number)),
            v=float(_require(data, "v", path, line_number)),
            depth=float(_require(data, "depth", path, line_number)),
            vx=float(_require(data, "vx", path, line_number)),
            vy=float(_require(data, "vy", path, line_number)),
            class_id=int(_require(data, "class", path, line_number)),
            confidence=float(_require(data, "confidence", path, line_number)),
            du=float(data.get("du", 0.0)),
            dv=float(data.get("dv", 0.0)),
            bbox=None if bbox is None else tuple(float(x) for x in bbox),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(path, line_number, f"bad detection: {exc}") from exc


def _merge_rows(rows: List[Dict], base, drop_when_absent: Sequence[str] = ()) -> List[Dict]:
    """Element-wise unknown-field carry-over for a nested array. Typed values
    win; keys in drop_when_absent are erased rather than inherited when the
    fresh row lacks them. Shape mismatches skip the merge entirely."""
    if not isinstance(base, list) or len(base) != len(rows):
        return rows
    merged = []
    for fresh, old in zip(rows, base):
        if not isinstance(old, dict):
            return rows
        row = dict(old)
        row.update(fresh)
        for key in drop_when_absent:
            if key not in fresh:
                row.pop(key, None)
        merged.append(row)
    return merged


def replay_to_records(
    frames: Sequence[FrameInput], base_records: Optional[Sequence[Dict]] = None
) -> List[Dict]:
    """Serialize frames; when base_records is given (the dicts the frames
    were parsed from), unknown fields in them are carried over."""
    records = []
    for i, frame in enumerate(frames):
        base = base_records[i] if base_records is not None else None
        record = dict(base) if base is not None else {}
        detections = _merge_rows(
            [_detection_to_dict(d) for d in frame.detections],
            base.get("detections") if base else None,
            drop_when_absent=("bbox",),
        )
        radar = _merge_rows(
            [{"x": p.x, "y": p.y, "z": p.z, "vx": p.vx, "vy": p.vy} for p in frame.radar],
            base.get("radar") if base else None,
        )
        record.update(
            {
                "frame": frame.frame_index,
                "time": frame.timestamp,
                "detections": detections,
                "radar": radar,
            }
        )
        records.append(record)
    return records


def replay_from_records(records: Sequence[Dict], path: str = "<memory>") -> List[FrameInput]:
    frames = []
    for number, record in enumerate(records, start=1):
        dets = tuple(
            _detection_from_dict(d, path, number)
            for d in record.get("detections", [])
        )
        try:
            radar = tuple(
                RadarPoint(
                    float(_require(p, "x", path, number)),
                    float(_require(p, "y", path, number)),
                    float(_require(p, "z", path, number)),
                    float(_require(p, "vx", path, number)),
                    float(_require(p, "vy", path, number)),
                )
                for p in record.get("radar", [])
            )
            frames.append(
                FrameInput(
                    frame_index=int(_require(record, "frame", path, number)),
                    timestamp=float(_require(record, "time", path, number)),
                    detections=dets,
                    radar=radar,
                )
            )
        except ParseError:
            raise
        except (TypeError, ValueError) as exc:
            raise ParseError(path, number, f"bad frame: {exc}") from exc
    return frames


def read_replay(path: str) -> List[FrameInput]:
    return replay_from_records(read_records(path), path)


def write_replay(path: str, frames: Sequence[FrameInput]) -> None:
    write_records(path, replay_to_records(frames))


# ------------------------------------------------------------- ground truth

def ground_truth_to_records(
    frames: Sequence[GroundTruthFrame], base_records: Optional[Sequence[Dict]] = None
) -> List[Dict]:
    records = []
    for i, frame in enumerate(frames):
        base = base_records[i] if base_records is not None else None
        record = dict(base) if base is not None else {}
        objects = _merge_rows(
            [{"id": o.gt_id, "x": o.x, "y": o.y, "class": o.class_id} for o in frame.objects],
            base.get("objects") if base else None,
        )
        record.update({"frame": frame.frame_index, "objects": objects})
        records.append(record)
    return records


def ground_truth_from_records(
    records: Sequence[Dict], path: str = "<memory>"
) -> List[GroundTruthFrame]:
    frames = []
    for number, record in enumerate(records, start=1):
        try:
            objects = tuple(
                GroundTruthObject(
                    gt_id=int(_require(o, "id", path, number)),
                    x=float(_require(o, "x", path, number)),
                    y=float(_require(o, "y", path, number)),
                    class_id=int(_require(o, "class", path, number)),
                )
                for o in record.get("objects", [])
            )
            frames.append(
                GroundTruthFrame(int(_require(record, "frame", path, number)), objects)
            )
        except ParseError:
            raise
        except (TypeError, ValueError) as exc:
            raise ParseError(path, number, f"bad ground-truth frame: {exc}") from exc
    return frames


def read_ground_truth(path: str) -> List[GroundTruthFrame]:
    return ground_truth_from_records(read_records(path), path)


def write_ground_truth(path: str, frames: Sequence[GroundTruthFrame]) -> None:
    write_records(path, ground_truth_to_records(frames))


# ------------------------------------------------------------------ results

def results_to_records(
    results: Sequence[FrameResult], base_records: Optional[Sequence[Dict]] = None
) -> List[Dict]:
    records = []
    for i, result in enumerate(results):
        base = base_records[i] if base_records is not None else None
        record = dict(base) if base is not None else {}
        tracks = []
        for t in result.tracks:
            row = {
                "id": t.track_id,
                "u": t.u,
                "v": t.v,
                "depth": t.depth,
                "vx": t.vx,
                "vy": t.vy,
                "class": t.class_id,
                "confidence": t.confidence,
                "age": t.age,
                "fused": t.fused,
            }
            if t.position is not None:
                row["x"] = float(t.position[0])
                row["y"] = float(t.position[1])
                row["z"] = float(t.position[2])
            tracks.append(row)
        tracks = _merge_rows(
            tracks, base.get("tracks") if base else None, drop_when_absent=("x", "y", "z")
        )
        record.update(
            {"frame": result.frame_index, "time": result.timestamp, "tracks": tracks}
        )
        records.append(record)
    return records


def results_from_records(records: Sequence[Dict], path: str = "<memory>") -> List[FrameResult]:
    results = []
    for number, record in enumerate(records, start=1):
        try:
            tracks = []
            for t in record.get("tracks", []):
                position = None
                if "x" in t and "y" in t:
                    position = (float(t["x"]), float(t["y"]), float(t.get("z", 0.0)))
                tracks.append(
                    TrackSnapshot(
                        track_id=int(_require(t, "id", path, number)),
                        u=float(_require(t, "u", path, number)),
                        v=float(_require(t, "v", path, number)),
                        depth=float(_require(t, "depth", path, number)),
                        vx=float(_require(t, "vx", path, number)),
                        vy=float(_require(t, "vy", path, number)),
                        class_id=int(_require(t, "class", path, number)),
                        confidence=float(_require(t, "confidence", path, number)),
                        age=int(t.get("age", 0)),
                        fused=bool(t.get("fused", False)),
                        position=position,
                    )
                )
            results.append(
                FrameResult(
                    frame_index=int(_require(record, "frame", path, number)),
                    timestamp=float(_require(record, "time", path, number)),
                    tracks=tuple(tracks),
                )
            )
        except ParseError:
            raise
        except (TypeError, ValueError) as exc:
            raise ParseError(path, number, f"bad result frame: {exc}") from exc
    return results


def read_results(path: str) -> List[FrameResult]:
    return results_from_records(read_records(path), path)


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
    return {
        "weights": {
            "alpha": config.weights.alpha,
            "beta": config.weights.beta,
            "delta": config.weights.delta,
            "radius": config.weights.radius,
        },
        "pillar_dims": {
            "width_y": config.pillar_dims.width_y,
            "height_z": config.pillar_dims.height_z,
            "depth_x": config.pillar_dims.depth_x,
        },
        "depth_tolerance": config.depth_tolerance,
        "max_age": config.max_age,
        "min_confidence": config.min_confidence,
        "fusion_enabled": config.fusion_enabled,
    }


def config_section(data: Dict, name: str, cls):
    """Build cls from the mapping under data[name] (defaults when absent),
    naming the section and key in the error for anything else. Shared by
    the tracker and scenario configs."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be a mapping, got {type(section).__name__}")
    known = {f.name for f in fields(cls)}
    for key in section:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in config section {name!r} (expected one of {sorted(known)})")
    return cls(**section)


def tracker_config_from_dict(data: Dict) -> TrackerConfig:
    return TrackerConfig(
        weights=config_section(data, "weights", CostWeights),
        pillar_dims=config_section(data, "pillar_dims", PillarDims),
        depth_tolerance=float(data.get("depth_tolerance", 0.25)),
        max_age=int(data.get("max_age", 3)),
        min_confidence=float(data.get("min_confidence", 0.0)),
        fusion_enabled=bool(data.get("fusion_enabled", True)),
    )
