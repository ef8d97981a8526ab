"""Online per-frame tracking: fuse, associate, manage identities.

One Tracker instance consumes an ordered stream of FrameInputs. Each step:

1. drops detections below the confidence floor,
2. (if enabled) refines each boxed detection's depth and velocity from the
   radar points that fall inside its frustum,
3. greedily associates the detections with live tracks,
4. updates matched tracks, ages the rest, drops tracks that have been
   missing for max_age consecutive frames, and spawns new tracks (fresh
   monotonically increasing ids, assigned in descending confidence order)
   for the leftovers,
5. reports the tracks seen this frame as FrameResult columns, back-projected
   to vehicle positions in one batch, with no object per track.

There is no re-identification and no motion extrapolation: a coasted track
keeps its last observed state, and once an identity is dropped it never
comes back. With max_age = 1 a single missed frame therefore always splits
an identity. step() is deterministic, so replaying a recorded sequence
reproduces every result bit for bit.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .association import AssociationResult, Checked, CostWeights, DetectionBatch, Frame, Track, TrackTable, as_column
from .association import checked_frame_index, checked_timestamp, field_types, greedy_associate
# expand_pillars is not called here; bench/probes.py wraps it under this name.
from .fusion import PillarDims, RadarPoint, associate_boxes, expand_pillars
from .geometry import CameraModel, image_to_vehicle


@dataclass(frozen=True)
class FrameInput:
    """One frame of sensor input, checked once when built. detections
    (Detections, rows, a DetectionBatch, or a Checked one, kept as it is) is
    kept as a read-only checked DetectionBatch; only boxed rows take part in
    radar fusion. radar (RadarPoints, rows or an array) is kept as a
    read-only (N, 5) float64 copy of finite (x, y, z, vx, vy) vehicle-frame
    rows. frame_index and timestamp are kept as int and float
    (checked_frame_index, checked_timestamp)."""

    frame_index: int
    timestamp: float
    detections: DetectionBatch
    radar: np.ndarray = ()

    def __post_init__(self):
        dets = self.detections
        if type(dets) is Checked:
            dets = dets.batch
        else:
            dets = dets.checked_copy() if isinstance(dets, DetectionBatch) else DetectionBatch.from_detections(dets)
        object.__setattr__(self, "detections", dets)
        radar = self.radar
        if not isinstance(radar, np.ndarray):
            radar = [(p.x, p.y, p.z, p.vx, p.vy) if isinstance(p, RadarPoint) else p for p in radar]
            for i, row in enumerate(radar):
                if len(row) != 5:
                    raise ValueError(f"radar row {i}: expected 5 values (x, y, z, vx, vy), got {len(row)}")
        elif radar.size and radar.shape[1:] != (5,):
            raise ValueError(f"radar rows must hold 5 values (x, y, z, vx, vy), got an array of shape {radar.shape}")
        radar = as_column("radar", radar, float, 5)
        if not np.isfinite(radar).all():  # RadarPoint states why the first refused row is refused
            RadarPoint(*radar[~np.isfinite(radar).all(1)][0].tolist())
            raise ValueError("a radar row that RadarPoint accepts fails the finite screen")
        radar.flags.writeable = False
        object.__setattr__(self, "radar", radar)
        object.__setattr__(self, "timestamp", checked_timestamp(self.timestamp))
        object.__setattr__(self, "frame_index", checked_frame_index(self.frame_index))

    __setstate__ = lambda self, state: self.__init__(**state)  # a copy or an unpickled frame is built, and checked, again

    def _key(self) -> tuple:  # the frame's values; rows() never reads the NaN boxes of unboxed rows
        return self.frame_index, self.timestamp, tuple(self.detections.rows()), tuple(self.radar.ravel().tolist())

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is FrameInput else NotImplemented

    def __hash__(self):
        return hash(self._key())


def check_order(previous: Optional[FrameInput], frame: FrameInput) -> None:
    """The order of a sequence, as step checks it: frame follows previous
    (None at the start) with a larger index and a time no earlier."""
    if previous is not None:
        if frame.frame_index <= previous.frame_index:
            raise ValueError(f"frame {frame.frame_index} is not after frame {previous.frame_index}")
        if frame.timestamp < previous.timestamp:
            raise ValueError("timestamps must be non-decreasing")


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking policy. Scene geometry (the camera) is passed to the
    Tracker itself so this object stays a plain serializable config."""

    weights: CostWeights = CostWeights()
    pillar_dims: PillarDims = PillarDims()
    depth_tolerance: float = 0.25
    max_age: int = 3
    min_confidence: float = 0.0
    fusion_enabled: bool = True

    def __post_init__(self):
        if self.max_age < 1:
            raise ValueError("max_age must be >= 1")
        if not (0.0 <= self.min_confidence < 1.0):
            raise ValueError("min_confidence must lie in [0, 1)")
        if not (0.0 < self.depth_tolerance < 1.0):
            raise ValueError("depth_tolerance must lie in (0, 1)")


class TrackSnapshot(NamedTuple):
    """Immutable view of a reported track at one frame. position is the
    vehicle-frame (x, y, z) of the track center, present when the tracker
    knows its camera; fused tells whether depth/velocity came from radar."""

    track_id: int
    u: float
    v: float
    depth: float
    vx: float
    vy: float
    class_id: int
    confidence: float
    age: int
    fused: bool
    position: Optional[Tuple[float, float, float]] = None


# Builds a snapshot from one complete row without the per-call argument
# handling of the generated constructor.
_snapshot_from_row = partial(tuple.__new__, TrackSnapshot)


@dataclass(frozen=True, init=False)
class FrameResult(Frame):
    """Tracks reported for one frame: matched or newly spawned this frame
    (coasting tracks are withheld until they are seen again).

    The tracks are read-only numpy columns named like the TrackSnapshot
    fields, with an (N, 3) position that counts only where has_position is
    set, so a missing position stays apart from a NaN one. FrameResult(
    frame_index, timestamp, tracks) takes any iterable of snapshots. tracks
    builds the snapshots again on each access: keep it in a local variable."""

    timestamp: float
    # A field, so that dataclass equality and repr go through the snapshots; objects gives them too.
    tracks: Tuple[TrackSnapshot, ...] = property(lambda self: tuple(map(_snapshot_from_row, zip(
        *(column.tolist() for column in self.columns[:10]),
        [tuple(p) if has else None for p, has in zip(self.position.tolist(), self.has_position.tolist())]))))
    objects: tuple = field(default=tracks, repr=False, compare=False)
    _types = {**field_types(TrackSnapshot), "position": (float, 3), "has_position": (bool, 0)}

    def __init__(self, frame_index: int, timestamp: float, tracks: Iterable[TrackSnapshot]):
        *columns, position = [*zip(*map(attrgetter(*TrackSnapshot._fields), tracks))] or [()] * 11
        columns += [(math.nan,) * 3 if p is None else p for p in position], [p is not None for p in position]
        self._build(frame_index, columns, timestamp=timestamp)

    def __hash__(self):  # equal results hold equal ids; a NaN value, never equal to itself, keeps the hash stable
        return hash((self.frame_index, self.timestamp, self.track_id.tobytes()))

    def __post_init__(self):
        object.__setattr__(self, "timestamp", checked_timestamp(self.timestamp))
        ids = self.track_id  # ascending, as a step reports them, they are unique
        if not (ids[1:] > ids[:-1]).all() and len(set(ids.tolist())) != ids.size:
            raise ValueError("track ids must be unique within a frame")


@dataclass(frozen=True)
class LatencyStats:
    """Wall-clock per-step timings in milliseconds; the median and p99 interpolate linearly between closest ranks."""

    count: int
    mean_ms: float
    median_ms: float
    p99_ms: float
    max_ms: float

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0)
        ordered = np.sort(samples)  # np.percentile would import numpy.ma, about 2 MB, through np.unique
        median, p99 = np.interp(np.array([0.5, 0.99]) * (len(ordered) - 1), np.arange(len(ordered)), ordered).tolist()
        return LatencyStats(len(ordered), math.fsum(samples) / len(ordered), median, p99, max(samples))


class Tracker:
    """Stateful single-sequence tracker; see the module docstring.

    camera is required when fusion is enabled (frustums live in vehicle
    space) and is otherwise optional; without it, snapshots simply omit
    their vehicle-frame position. Live tracks are kept as columns, rows in
    ascending track id (survivors keep their order, births append).
    """

    def __init__(
        self,
        config: TrackerConfig = TrackerConfig(),
        camera: Optional[CameraModel] = None,
        record_association: bool = False,
    ):
        if config.fusion_enabled and camera is None:
            raise ValueError("fusion requires a camera model")
        self.config = config
        self.camera = camera
        self.record_association = record_association
        # (DetectionBatch as associated, with fused depth and velocity; a copy
        # of the TrackTable before the update; AssociationResult) of the most
        # recent step; populated only when record_association is set.
        self.last_association = None
        self._tracks = TrackTable.from_tracks(())
        self._next_id = 1
        self._last_frame: Optional[FrameInput] = None

    @property
    def live_tracks(self) -> Tuple[Track, ...]:
        """Current track states, including coasting ones (read-only copies)."""
        return tuple(self._tracks.to_tracks())

    def _fuse(self, dets: DetectionBatch, radar: np.ndarray) -> np.ndarray:
        """Give dets copies of its depth and velocity columns, which take
        those of the radar pillar found in each boxed detection's frustum;
        detections without a box or a hit keep theirs. Returns the
        fused-or-not flag per detection."""
        boxed, cfg = np.flatnonzero(dets.boxed), self.config
        won = associate_boxes(dets.bbox[boxed], dets.depth[boxed], radar, cfg.pillar_dims, self.camera, cfg.depth_tolerance)
        rows = boxed[won.box]
        dets.depth, dets.vx, dets.vy = dets.depth.copy(), dets.vx.copy(), dets.vy.copy()
        dets.depth[rows], dets.vx[rows], dets.vy[rows] = won.depth, won.vx, won.vy
        fused = np.zeros(len(dets), dtype=bool)
        fused[rows] = True
        return fused

    def step(self, frame: FrameInput) -> FrameResult:
        check_order(self._last_frame, frame)
        self._last_frame, cfg = frame, self.config

        dets = frame.detections  # confidences lie in [0, 1], so a floor of 0 keeps every row
        dets = dets.take(dets.confidence >= cfg.min_confidence) if cfg.min_confidence > 0.0 else DetectionBatch(*dets.columns())
        fused = self._fuse(dets, frame.radar) if cfg.fusion_enabled else np.zeros(len(dets), dtype=bool)

        tracks = self._tracks
        result: AssociationResult = greedy_associate(dets, tracks, cfg.weights)
        if self.record_association:
            # The update below writes matched rows in place, so keep a copy.
            self.last_association = (dets, TrackTable(*(column.copy() for column in tracks.columns())), result)

        # Matched tracks take the detection's state; every other track
        # coasts one more frame and is dropped after max_age misses.
        det_rows, rows = result.pairs.T
        for name in ("u", "v", "depth", "vx", "vy", "confidence"):
            getattr(tracks, name)[rows] = getattr(dets, name)[det_rows]
        tracks.fused[rows] = fused[det_rows]
        tracks.last_seen[rows] = frame.frame_index
        tracks.age += 1
        tracks.misses += 1
        tracks.misses[rows] = 0
        if not (alive := tracks.misses < cfg.max_age).all():
            tracks = tracks.take(alive)

        # Leftover detections start tracks with fresh ids, in confidence order.
        born = result.unmatched_det_rows
        if born.size:
            n = born.size
            state = (dets.u, dets.v, dets.depth, dets.vx, dets.vy, dets.class_id, dets.confidence)
            lifecycle = [np.full(n, value, dtype=np.int64) for value in (frame.frame_index, 1, 0)]
            ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
            tracks = tracks.append(TrackTable(ids, *(column[born] for column in state), *lifecycle, fused[born]))
            self._next_id += n
        self._tracks = tracks
        return self._report(frame)

    def _report(self, frame: FrameInput) -> FrameResult:
        """The tracks seen in this frame (matched or born), by track id: the detection each took."""
        tracks = self._tracks
        seen = np.flatnonzero(tracks.last_seen == frame.frame_index)
        columns = [getattr(tracks, name)[seen] for name in TrackSnapshot._fields[:10]]
        known = self.camera is not None
        position = image_to_vehicle(*columns[1:4], self.camera) if known else np.full((seen.size, 3), math.nan)
        return FrameResult.__new__(FrameResult)._take(frame.frame_index, *columns, position, np.full(seen.size, known),
                                                      timestamp=frame.timestamp)


def run_sequence(
    frames: Iterable[FrameInput],
    config: TrackerConfig = TrackerConfig(),
    camera: Optional[CameraModel] = None,
    on_result: Optional[Callable[[FrameResult], object]] = None,
) -> Tuple[List[FrameResult], LatencyStats]:
    """Fold step over an ordered sequence, timing each step (the timer wraps
    only the tracker work, not input construction or serialization). Given
    on_result, each result goes to it in order and the returned list is empty."""
    tracker = Tracker(config, camera)
    results: List[FrameResult] = []
    keep = results.append if on_result is None else on_result
    samples = array("d")  # 8 bytes a step
    for frame in frames:
        start = time.perf_counter()
        result = tracker.step(frame)
        samples.append((time.perf_counter() - start) * 1e3)
        keep(result)
    return results, LatencyStats.from_samples(samples)
