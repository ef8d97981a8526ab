"""Detection-to-track association.

Each detection carries a backward displacement: ``center - displacement``
estimates where the same object sat in the previous frame. Candidate tracks
are the ones whose last observed center lies within a pixel radius of that
gated position. Among candidates, a weighted sum of squared pixel, depth,
and velocity differences picks the match; class mismatches are infinitely
expensive. Detections claim tracks greedily in descending confidence order,
which is cheap, deterministic, and at desk scale indistinguishable from the
optimal assignment (``fusetrack sweep`` reports the gap to it, and the test
suite checks it against an exhaustive reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True, slots=True)
class Detection:
    """One observed object in the current frame.

    u, v are the center pixel; depth is camera-axis meters; vx, vy are
    vehicle-frame m/s. du, dv point backward in time: (u - du, v - dv) is
    the estimated previous-frame center of the same object, and the match
    gate is evaluated there. bbox is the optional raw image box
    (u_min, v_min, u_max, v_max) used only by radar fusion; when given it
    holds exactly 4 values. Every value, the box included, must be finite.
    class_id must fit in a signed 64-bit integer, the type association
    stores it in; a larger one raises OverflowError when the detection is
    associated.
    """

    u: float
    v: float
    depth: float
    vx: float
    vy: float
    class_id: int
    confidence: float
    du: float = 0.0
    dv: float = 0.0
    bbox: Optional[Tuple[float, float, float, float]] = None

    def __post_init__(self):
        if self.bbox is not None and len(self.bbox) != 4:
            raise ValueError(f"bbox must hold 4 values (u_min, v_min, u_max, v_max), got {len(self.bbox)}")
        box = () if self.bbox is None else self.bbox
        values = (self.u, self.v, self.depth, self.vx, self.vy, self.confidence, self.du, self.dv, *box)
        if not all(map(math.isfinite, values)):
            raise ValueError("detection fields must be finite")
        if self.depth <= 0:
            raise ValueError("detection depth must be positive")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError("confidence must lie in [0, 1]")


@dataclass(slots=True)
class Track:
    """A live track: the latest matched detection's state plus lifecycle
    bookkeeping. The class never changes after creation (cross-class matches
    cost infinity), and ids are never reused within a sequence."""

    track_id: int
    u: float
    v: float
    depth: float
    vx: float
    vy: float
    class_id: int
    confidence: float
    last_seen: int
    age: int = 0
    misses: int = 0
    fused: bool = False


_NO_BOX = (math.nan,) * 4


class DetectionBatch:
    """Detections as columns, one row per detection in input order.

    bbox is (N, 4) with a NaN row where a detection has no box, and boxed
    marks the rows that have one. The columns are plain arrays, so a caller
    may overwrite values in place (the tracker writes fused depth and
    velocity into them).
    """

    __slots__ = ("u", "v", "depth", "vx", "vy", "du", "dv", "confidence", "class_id", "bbox", "boxed")

    def __init__(self, u, v, depth, vx, vy, du, dv, confidence, class_id, bbox, boxed):
        self.u, self.v, self.depth, self.vx, self.vy = u, v, depth, vx, vy
        self.du, self.dv, self.confidence, self.class_id = du, dv, confidence, class_id
        self.bbox, self.boxed = bbox, boxed

    def __len__(self) -> int:
        return len(self.u)

    @classmethod
    def from_detections(cls, dets: Sequence[Detection]) -> "DetectionBatch":
        """Columns of already validated Detection objects."""
        n = len(dets)
        flat = [x for d in dets for x in (d.u, d.v, d.depth, d.vx, d.vy, d.du, d.dv, d.confidence)]
        floats = np.fromiter(flat, float, 8 * n).reshape(n, 8).T.copy()
        class_id = np.fromiter([d.class_id for d in dets], np.int64, n)
        boxed = np.fromiter([d.bbox is not None for d in dets], bool, n)
        boxes = [_NO_BOX if d.bbox is None else d.bbox for d in dets]
        bbox = np.fromiter(chain.from_iterable(boxes), float, 4 * n).reshape(n, 4)
        return cls(*floats, class_id, bbox, boxed)


_TRACK_FIELDS = tuple(f.name for f in fields(Track))
_TRACK_DTYPES = {name: np.int64 for name in ("track_id", "class_id", "last_seen", "age", "misses")}
_TRACK_DTYPES["fused"] = bool


class TrackTable:
    """Tracks as columns, one row per track, named like the Track fields."""

    __slots__ = _TRACK_FIELDS

    def __init__(self, *columns: np.ndarray):
        for name, column in zip(_TRACK_FIELDS, columns):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.track_id)

    def columns(self) -> List[np.ndarray]:
        return [getattr(self, name) for name in _TRACK_FIELDS]

    @classmethod
    def from_tracks(cls, tracks: Sequence[Track]) -> "TrackTable":
        n = len(tracks)
        return cls(*(
            np.fromiter(map(attrgetter(name), tracks), _TRACK_DTYPES.get(name, float), n)
            for name in _TRACK_FIELDS
        ))

    def to_tracks(self) -> List[Track]:
        return list(map(Track, *(column.tolist() for column in self.columns())))

    def take(self, rows) -> "TrackTable":
        return TrackTable(*(column[rows] for column in self.columns()))

    def append(self, other: "TrackTable") -> "TrackTable":
        return TrackTable(*map(np.concatenate, zip(self.columns(), other.columns())))


@dataclass(frozen=True)
class CostWeights:
    """Weights of the squared pixel / depth / velocity terms plus the gate
    radius in pixels.

    Defaults normalize each term to roughly O(1) at gate scale for the
    800x448 default camera: alpha = 1/radius^2 so a gate-radius pixel miss
    costs 1, beta = 0.04 so a 5 m depth error costs 1, delta = 0.25 so a
    2 m/s velocity error costs 1.
    """

    alpha: float = 4e-4
    beta: float = 0.04
    delta: float = 0.25
    radius: float = 50.0

    def __post_init__(self):
        if min(self.alpha, self.beta, self.delta) < 0:
            raise ValueError("cost weights must be non-negative")
        if self.alpha == 0 and self.beta == 0 and self.delta == 0:
            raise ValueError("at least one cost weight must be positive")
        if not (self.radius > 0):
            raise ValueError("gate radius must be positive")


@dataclass(frozen=True)
class AssociationResult:
    """matches are (detection index, track id) in processing order;
    unmatched_detections follow processing (descending confidence) order so
    that new-track ids assigned from it are reproducible; unmatched_tracks
    keep input order."""

    matches: Tuple[Tuple[int, int], ...]
    unmatched_detections: Tuple[int, ...]
    unmatched_tracks: Tuple[int, ...]
    # The matches again as an (M, 2) array of (detection index, track row),
    # rows counting positions in the tracks given; set by greedy_associate.
    pairs: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


def window_join(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every (query, key) index pair with lo[query] <= keys[key] <= hi[query],
    in no particular order; a NaN bound selects nothing. Keys and queries are
    sorted (sorted queries search faster), two binary searches find each
    window and one repeat/cumsum pass expands the windows into pairs."""
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    queries = np.argsort(lo)
    lo, hi = lo[queries], hi[queries]
    first = np.searchsorted(sorted_keys, lo, side="left")
    lens = np.where(lo <= hi, np.searchsorted(sorted_keys, hi, side="right") - first, 0)
    offsets = np.repeat(np.cumsum(lens) - lens - first, lens)
    return np.repeat(queries, lens), by_key[np.arange(len(offsets)) - offsets]


def _feasible_pairs(
    dets: DetectionBatch, tracks: TrackTable, weights: CostWeights
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair the matcher may use: (det rows, track rows, costs), in no
    particular order. A pair is feasible when the classes agree and the track center
    lies within the gate radius of the displacement-compensated detection
    center. Costs are computed only for feasible pairs, elementwise; a
    square that overflows makes the cost +inf."""
    gated_u = dets.u - dets.du
    gated_v = dets.v - dets.dv
    trk_u, trk_v = tracks.u, tracks.v

    # Window prefilter. Tracks fall into stripes by class and by a row of
    # height just over the radius, so every in-gate track lies in the
    # detection's own stripe or in the row above or below it. Each track is
    # listed in its own stripe and in both neighbors, under the key
    # stripe * span + (u - lo), and each detection searches the window
    # |track u - gated u| <= radius of its own stripe. span keeps stripes
    # more than a window apart; the slack swallows the rounding of the keys.
    # The exact test follows on the windowed pairs.
    first_class = min(tracks.class_id.min(), dets.class_id.min())
    lo_u = min(trk_u.min(), gated_u.min())
    extent_u = max(trk_u.max(), gated_u.max()) - lo_u
    lo_v = min(trk_v.min(), gated_v.min())
    extent_v = max(trk_v.max(), gated_v.max()) - lo_v
    height = max(weights.radius * (1.0 + 1e-6), extent_v / 1024.0)
    rows = int(extent_v // height) + 1
    span = 2.0 * (extent_u + 1.0)
    trk_stripe = (tracks.class_id - first_class) * rows + np.floor((trk_v - lo_v) / height)
    det_stripe = (dets.class_id - first_class) * rows + np.floor((gated_v - lo_v) / height)
    trk_key = ((trk_stripe * span + (trk_u - lo_u)) + np.array([[-span], [0.0], [span]])).ravel()
    det_key = det_stripe * span + (gated_u - lo_u)
    half = min(weights.radius, extent_u + 1.0)
    half += 1e-9 + 1e-12 * half + 8.0 * np.spacing(trk_key.max() + span)
    ii, jj = window_join(trk_key, det_key - half, det_key + half)
    jj %= len(tracks)

    # Exact gate on the windowed pairs only.
    du = gated_u[ii] - trk_u[jj]
    dv = gated_v[ii] - trk_v[jj]
    keep = du * du + dv * dv <= weights.radius**2
    keep &= dets.class_id[ii] == tracks.class_id[jj]
    keep = np.flatnonzero(keep)
    ii, jj = ii[keep], jj[keep]
    if ii.size == 0:
        return ii, jj, np.empty(0)

    with np.errstate(over="ignore"):
        pixel = (dets.u[ii] - trk_u[jj]) ** 2 + (dets.v[ii] - trk_v[jj]) ** 2
        depth = (dets.depth[ii] - tracks.depth[jj]) ** 2
        velocity = (dets.vx[ii] - tracks.vx[jj]) ** 2 + (dets.vy[ii] - tracks.vy[jj]) ** 2
        costs = weights.alpha * pixel + weights.beta * depth + weights.delta * velocity
    return ii, jj, costs


# Detections and tracks as objects or as columns.
Detections = Union[Sequence[Detection], DetectionBatch]
Tracks = Union[Sequence[Track], TrackTable]


def _as_columns(dets: Detections, tracks: Tracks) -> Tuple[DetectionBatch, TrackTable]:
    if not isinstance(dets, DetectionBatch):
        dets = DetectionBatch.from_detections(dets)
    if not isinstance(tracks, TrackTable):
        tracks = TrackTable.from_tracks(tracks)
    return dets, tracks


def greedy_associate(dets: Detections, tracks: Tracks, weights: CostWeights) -> AssociationResult:
    """Greedy one-pass matching.

    Detections are processed in descending confidence order; each grabs the
    available track with the lowest pairwise cost among tracks inside its
    gate (||track center - (det center - displacement)|| <= radius, bounds
    closed). Cost ties fall to the lowest track id. A track serves at most
    one detection per frame. Detections and tracks may be given as objects
    or as columns.
    """
    dets, tracks = _as_columns(dets, tracks)
    ids = tracks.track_id
    unique_ids, id_rank = np.unique(ids, return_inverse=True)
    if len(unique_ids) != len(ids):
        raise ValueError("track ids must be distinct")

    order = np.argsort(-dets.confidence, kind="stable")  # descending confidence, ties by input index
    if not len(dets) or not len(tracks):
        pairs = np.empty((0, 2), dtype=np.intp)
        return AssociationResult((), tuple(order.tolist()), tuple(ids.tolist()), pairs)

    ii, jj, costs = _feasible_pairs(dets, tracks, weights)
    # Each detection's candidates by cost, ties to the lowest track id: one
    # sort on exact integer ranks of (cost, track id), which are distinct
    # within a detection, then a stable sort by detection (a radix sort on
    # the narrowest unsigned type that holds the detection rows).
    _, cost_rank = np.unique(costs, return_inverse=True)
    by_preference = np.argsort(cost_rank * len(ids) + id_rank[jj])
    rows = ii[by_preference].astype(np.min_scalar_type(len(dets)))
    by_preference = by_preference[np.argsort(rows, kind="stable")]
    ii, jj = ii[by_preference], jj[by_preference]
    row_start = np.searchsorted(ii, np.arange(len(dets) + 1))
    # Each detection's favorite track, or -1 without candidates.
    favorite = np.full(len(dets), -1, dtype=np.intp)
    has = row_start[1:] > row_start[:-1]
    favorite[has] = jj[row_start[:-1][has]]

    # In confidence order, each detection takes its favorite unless an
    # earlier one took it, and otherwise its first candidate still free.
    candidates = jj.tolist()
    row_start = row_start.tolist()
    choice = favorite.tolist()
    used = bytearray(len(tracks))
    for i in order.tolist():
        j = choice[i]
        if j < 0:
            continue
        if not used[j]:
            used[j] = 1
            continue
        choice[i] = -1
        for k in range(row_start[i] + 1, row_start[i + 1]):
            j = candidates[k]
            if not used[j]:
                used[j] = 1
                choice[i] = j
                break

    chosen = np.array(choice, dtype=np.intp)[order]
    matched = chosen >= 0
    pairs = np.stack([order[matched], chosen[matched]], axis=1)
    matches = tuple(zip(pairs[:, 0].tolist(), ids[pairs[:, 1]].tolist()))
    unmatched_tracks = tuple(ids[np.frombuffer(used, dtype=np.uint8) == 0].tolist())
    return AssociationResult(matches, tuple(order[~matched].tolist()), unmatched_tracks, pairs)


def cost_matrix(dets: Detections, tracks: Tracks, weights: CostWeights) -> np.ndarray:
    """Dense detection-by-track cost matrix (rows = detections in input
    order), with +inf for every pair the greedy matcher would refuse:
    different class or displacement-compensated center outside the gate
    radius. Feeding this to an exact assignment solver therefore compares
    like against like."""
    dets, tracks = _as_columns(dets, tracks)
    out = np.full((len(dets), len(tracks)), np.inf)
    if len(dets) and len(tracks):
        ii, jj, costs = _feasible_pairs(dets, tracks, weights)
        out[ii, jj] = costs
    return out
