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

import heapq
import math
from contextlib import suppress
from dataclasses import dataclass, fields
from itertools import chain
from numbers import Integral, Real
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union, get_type_hints

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
    A FrameInput or a batch built from the detection takes each value only
    in its annotated type (as_column): class_id an integer that fits in a
    signed 64-bit integer, the numbers no bool.
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


class _Columns:
    """Equal-length numpy columns named by the subclass's __slots__."""

    __slots__ = ()

    def __init__(self, *columns: np.ndarray):
        for name, column in zip(self.__slots__, columns):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def columns(self) -> List[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]

    def take(self, rows):
        return type(self)(*(column[rows] for column in self.columns()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n).tolist()!r}' for n in self.__slots__)})"


class RowError(ValueError):
    """A ValueError about one row of a batch; row is its index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def checked_frame_index(index) -> int:
    """The frame-index rule: an integer, not a bool, that fits in a signed 64-bit integer."""
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or not -(2**63) <= index < 2**63:
        raise ValueError(f"frame_index must be an integer that fits in a signed 64-bit integer, got {index!r}")
    return int(index)


def checked_timestamp(timestamp) -> float:
    """The timestamp rule: a finite number, not a bool."""
    if isinstance(timestamp, (bool, np.bool_)) or not math.isfinite(timestamp):
        raise ValueError(f"timestamp must be a finite number, got {timestamp!r}")
    return float(timestamp)


_RULES = {int: (np.int64, "i", Integral), float: (np.float64, "iuf", Real), bool: (np.bool_, "b", (bool, np.bool_))}


def field_types(cls) -> Dict[str, Tuple[type, int]]:
    """The column type, (field type, row width 0), of each int, float and bool field of a class, by name."""
    return {name: (kind, 0) for name, kind in get_type_hints(cls).items() if kind in _RULES}


def as_column(name: str, values: Iterable, kind: type, width: int = 0) -> np.ndarray:
    """The one rule from values to a column: values (Python values or an array) as a new column of the
    field type kind. int gives int64 and float float64, neither from a bool; bool takes only bools.
    With a width, values are rows of that many values and the column is (N, width). A value of another
    type or beyond the dtype's range, or a row of another width, raises ValueError naming the column."""
    dtype, array_kinds, value_types = _RULES[kind]
    taken = isinstance(values, np.ndarray) and values.dtype.kind in array_kinds  # an array of these kinds as it is
    if not taken:
        values = list(values)
        types = set(map(type, chain.from_iterable(values) if width else values))
        taken = all(issubclass(t, value_types) and (kind is bool or t is not bool) for t in types)
    with suppress(OverflowError, ValueError):  # a value beyond the range, or rows of another width
        if taken:
            return np.array(values, dtype, order="C").reshape((len(values), width) if width else len(values))
    no_bool = "" if kind is bool else f" in the {dtype.__name__} range, no bool"
    raise ValueError(f"{name} must hold {f'rows of {width} ' if width else ''}{kind.__name__} values{no_bool}")


@dataclass(frozen=True, init=False)
class Frame:
    """A frame of objects of type _object as one new read-only numpy column
    per item of _types (name -> (field type, row width), typed by as_column);
    objects builds the objects again, for equality, hash and repr. Every
    frame built, copied or unpickled passes its screen, __post_init__."""

    frame_index: int
    objects: tuple = property(lambda self: tuple(map(self._object, *(column.tolist() for column in self.columns))))
    columns = property(lambda self: tuple(map(self.__dict__.__getitem__, self._types)))

    def __init__(self, frame_index: int, objects: Iterable = ()):
        self._build(frame_index, [*zip(*map(attrgetter(*self._types), objects))] or [()] * len(self._types))

    @classmethod
    def from_columns(cls, frame_index: int, *columns: Iterable, **other):
        """A frame from its columns in column order, one value (or row) per object, and its other fields."""
        return cls.__new__(cls)._build(frame_index, columns, **other)

    def _build(self, frame_index: int, columns: Sequence[Iterable], **other) -> "Frame":
        typed = [as_column(name, values, *kind) for (name, kind), values in zip(self._types.items(), columns)]
        if len(columns) != len(self._types) or len(set(map(len, typed))) != 1:
            raise ValueError(f"expected {len(self._types)} columns of one length")
        return self._take(frame_index, *typed, **other)

    def _take(self, frame_index: int, *columns: np.ndarray, **other) -> "Frame":
        """Take over new arrays of the column types, in column order, read-only, and the other fields; screen the frame."""
        self.__dict__.update(zip(self._types, columns), frame_index=checked_frame_index(frame_index), **other)
        for column in columns:
            column.flags.writeable = False
        self.__post_init__()
        return self

    def __setstate__(self, state: dict):  # a copy or an unpickled frame: read-only and screened as well
        self.__dict__.update(state)
        self._take(self.frame_index, *self.columns)


_DETECTION_VALUES = attrgetter(*(f.name for f in fields(Detection)))
_FLOAT_COLUMNS = ("u", "v", "depth", "vx", "vy", "confidence", "du", "dv")
# Detection's rules as the closed (lowest, highest) range of each float column: finite, depth > 0 (at
# least the least positive float) and confidence in [0, 1]. NaN lies in no range.
_MAX = np.finfo(np.float64).max
_FLOAT_RANGES = np.array([(-_MAX, -_MAX, 5e-324, -_MAX, -_MAX, 0.0, -_MAX, -_MAX), (_MAX,) * 5 + (1.0, _MAX, _MAX)])[..., None]


class DetectionBatch(_Columns):
    """Detections as columns named like the Detection fields, one row each.

    bbox is (N, 4) with a NaN row where a detection has no box, and boxed
    marks the rows that have one. The tracker gives its own batch, which
    shares a frame's read-only columns, fused copies of depth and velocity.
    """

    __slots__ = ("u", "v", "depth", "vx", "vy", "class_id", "confidence", "du", "dv", "bbox", "boxed")

    @classmethod
    def from_detections(cls, items: Sequence) -> "DetectionBatch":
        """The checked_copy of Detection objects or of rows of their values."""
        rows = [_DETECTION_VALUES(d) if isinstance(d, Detection) else d for d in items]
        for i, row in enumerate(rows):
            if len(row) != 10:
                raise ValueError(f"detection row {i}: expected 10 values, got {len(row)}")
            if row[9] is not None and len(row[9]) != 4:
                raise ValueError(f"detection row {i}: bbox must hold 4 values, got {len(row[9])}")
        *columns, boxes = list(zip(*rows)) or [()] * 10
        return cls(*columns, [(math.nan,) * 4 if b is None else b for b in boxes], [b is not None for b in boxes]).checked_copy()

    def rows(self) -> List[tuple]:
        """The field values of each row, bbox None for an unboxed row."""
        *columns, bbox, boxed = (column.tolist() for column in self.columns())
        return list(zip(*columns, [tuple(box) if ok else None for box, ok in zip(bbox, boxed)]))

    def checked_copy(self) -> "DetectionBatch":
        """A read-only copy in the column types and shapes, screened (see
        screened). A column whose length is not that of u raises ValueError."""
        n = len(self)
        for name, column in zip(self.__slots__, self.columns()):
            if len(column) != n:
                raise ValueError(f"detection column {name!r} holds {len(column)} rows, column 'u' {n}")
        floats = np.stack([as_column(name, getattr(self, name), float) for name in _FLOAT_COLUMNS])
        bbox, boxed = as_column("bbox", self.bbox, float, 4), as_column("boxed", self.boxed, bool)
        bbox[~boxed] = math.nan
        return screened(floats, as_column("class_id", self.class_id, int), bbox, boxed)


class Checked(NamedTuple):  # a batch that screened built: FrameInput keeps it as it is, with no copy or second screen
    batch: DetectionBatch


def screened(floats: np.ndarray, class_id: np.ndarray, bbox: np.ndarray, boxed: np.ndarray) -> DetectionBatch:
    """The read-only batch of new arrays: floats the (8, N) rows of
    _FLOAT_COLUMNS, class_id (N,), bbox (N, 4) with a NaN row where boxed
    (N,) is unset. The first row that Detection refuses raises RowError with
    Detection's message."""
    for column in (floats, class_id, bbox, boxed):
        column.flags.writeable = False
    batch = DetectionBatch(*floats[:5], class_id, *floats[5:], bbox, boxed)
    valid = ((floats >= _FLOAT_RANGES[0]) & (floats <= _FLOAT_RANGES[1])).all(0)
    valid &= np.isfinite(bbox).all(1) == boxed  # a box, finite, where boxed
    if not valid.all():  # the first refused row: Detection states why
        row = int(np.argmin(valid))
        try:
            Detection(*batch.take([row]).rows()[0])
        except ValueError as error:
            raise RowError(str(error), row) from None
        raise RowError("a detection row that Detection accepts fails the batch screen", row)
    return batch


class TrackTable(_Columns):
    """Tracks as columns, one row per track, named like the Track fields."""

    _types = field_types(Track)
    __slots__ = tuple(_types)

    @classmethod
    def from_tracks(cls, tracks: Sequence[Track]) -> "TrackTable":
        return cls(*(as_column(name, map(attrgetter(name), tracks), *kind) for name, kind in cls._types.items()))

    def to_tracks(self) -> List[Track]:
        return list(map(Track, *(column.tolist() for column in self.columns())))

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
        if not all(0 <= w < math.inf for w in (self.alpha, self.beta, self.delta)):
            raise ValueError("cost weights must be finite and non-negative")
        if self.alpha == 0 and self.beta == 0 and self.delta == 0:
            raise ValueError("at least one cost weight must be positive")
        if not (self.radius > 0):
            raise ValueError("gate radius must be positive")


@dataclass(init=False, unsafe_hash=True)
class AssociationResult:
    """The outcome of one association, kept as arrays: pairs is (M, 2) rows
    of (detection index, track row) in processing order;
    unmatched_det_rows follow processing (descending confidence) order so
    that new-track ids assigned from them are reproducible;
    unmatched_track_rows keep input order; track_ids[row] is a row's id.
    Track rows count positions in the tracks given, or, in a result built
    from its three tuples, the matched ids and then the unmatched ones.

    matches ((detection index, track id) pairs), unmatched_detections and
    unmatched_tracks (ids) are tuples of the same values, built again on
    each access: the fields that equality, hash and repr go through."""

    __slots__ = ("pairs", "unmatched_det_rows", "unmatched_track_rows", "track_ids")
    matches: tuple = property(lambda self: tuple(zip(self.pairs[:, 0].tolist(), self.track_ids[self.pairs[:, 1]].tolist())))
    unmatched_detections: tuple = property(lambda self: tuple(self.unmatched_det_rows.tolist()))
    unmatched_tracks: tuple = property(lambda self: tuple(self.track_ids[self.unmatched_track_rows].tolist()))

    def __init__(self, matches, unmatched_detections, unmatched_tracks):
        ids = as_column("track ids", [track_id for _, track_id in matches] + list(unmatched_tracks), int)
        pairs = as_column("matches", [(i, row) for row, (i, _) in enumerate(matches)], int, 2)
        self._take(pairs, as_column("unmatched_detections", unmatched_detections, int), np.arange(len(pairs), len(ids)), ids)

    def _take(self, *arrays: np.ndarray) -> "AssociationResult":
        """Take over the arrays, in __slots__ order."""
        self.pairs, self.unmatched_det_rows, self.unmatched_track_rows, self.track_ids = arrays
        return self


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


# Gating tests every pair, as one grid, at or below GATE_GRID_PAIRS
# detections x tracks, and the pairs of a stripe window above; one lexsort
# ranks at most LEXSORT_PAIRS candidates, np.unique ranks and two sorts more.
# Each is set near where its two paths cost the same (README, "Size rules").
GATE_GRID_PAIRS = 8192
LEXSORT_PAIRS = 448


def kept_pairs(keep: np.ndarray, rows=None, cols=None) -> Tuple[np.ndarray, np.ndarray]:
    """The (row, col) pairs where keep holds: keep is a grid over every pair,
    or over the pairs listed by rows and cols."""
    if keep.ndim == 2:
        return np.divmod(np.flatnonzero(keep), keep.shape[1])
    keep = np.flatnonzero(keep)
    return rows[keep], cols[keep]


def _feasible_pairs(
    dets: DetectionBatch, tracks: TrackTable, weights: CostWeights
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair the matcher may use: (det rows, track rows, costs), in no
    particular order. A pair is feasible when the classes agree and the track center
    lies within the gate radius of the displacement-compensated detection
    center. Costs are computed only for feasible pairs, elementwise; a
    square that overflows makes its term +inf, or nothing if its weight is 0."""
    gated_u = dets.u - dets.du
    gated_v = dets.v - dets.dv
    trk_u, trk_v = tracks.u, tracks.v
    if len(dets) * len(tracks) <= GATE_GRID_PAIRS:  # indexing by these gives the grid of every pair
        ii, jj = np.arange(len(dets))[:, None], np.arange(len(tracks))
    else:
        # Window prefilter. Tracks fall into stripes by class and by a row of
        # height just over the radius, so every in-gate track lies in the
        # detection's own stripe or in the row above or below it. Each track
        # is listed in its own stripe and in both neighbors, under the key
        # stripe * span + (u - lo), and each detection searches the window
        # |track u - gated u| <= radius of its own stripe. span keeps stripes
        # more than a window apart; the slack swallows the rounding of the keys.
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

    # Exact gate on the candidate pairs only.
    du = gated_u[ii] - trk_u[jj]
    dv = gated_v[ii] - trk_v[jj]
    keep = du * du + dv * dv <= weights.radius**2
    keep &= dets.class_id[ii] == tracks.class_id[jj]
    ii, jj = kept_pairs(keep, ii, jj)
    if ii.size == 0:
        return ii, jj, np.empty(0)

    with np.errstate(over="ignore"):  # a zero weight adds nothing, not 0 * inf; nor 0.0, which changes no sum
        terms = (
            (weights.alpha, (dets.u[ii] - trk_u[jj]) ** 2 + (dets.v[ii] - trk_v[jj]) ** 2),
            (weights.beta, (dets.depth[ii] - tracks.depth[jj]) ** 2),
            (weights.delta, (dets.vx[ii] - tracks.vx[jj]) ** 2 + (dets.vy[ii] - tracks.vy[jj]) ** 2),
        )
        return ii, jj, sum(weight * term for weight, term in terms if weight)


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
    or as columns. The result keeps arrays; its tuples are built on access.
    """
    dets, tracks = _as_columns(dets, tracks)
    ids = tracks.track_id
    id_rank = None  # ascending ids, as the tracker keeps them, rank as their rows
    if not (ids[1:] > ids[:-1]).all():
        unique_ids, id_rank = np.unique(ids, return_inverse=True)
        if len(unique_ids) != len(ids):
            raise ValueError("track ids must be distinct")

    result = AssociationResult.__new__(AssociationResult)
    order = np.argsort(-dets.confidence, kind="stable")  # descending confidence, ties by input index
    if not len(dets) or not len(tracks):
        return result._take(np.empty((0, 2), dtype=np.intp), order, np.arange(len(ids)), ids)

    ii, jj, costs = _feasible_pairs(dets, tracks, weights)
    # Each detection's candidates by cost, ties to the lowest track id: a
    # total order, as (cost, track id) is distinct within a detection. Few
    # candidates take one lexsort; many, one sort on exact integer ranks of
    # (cost, track id), then a stable sort by detection (a radix sort on the
    # narrowest unsigned type that holds the detection rows).
    track_rank = jj if id_rank is None else id_rank[jj]
    if len(costs) <= LEXSORT_PAIRS:
        by_preference = np.lexsort((track_rank, costs, ii))
    else:
        _, cost_rank = np.unique(costs, return_inverse=True)
        by_preference = np.argsort(cost_rank * len(ids) + track_rank)
        rows = ii[by_preference].astype(np.min_scalar_type(len(dets)))
        by_preference = by_preference[np.argsort(rows, kind="stable")]
    ii, jj = ii[by_preference], jj[by_preference]
    row_start = np.searchsorted(ii, np.arange(len(dets) + 1))

    # In confidence order, each detection takes its favorite (first)
    # candidate unless an earlier one took it, and otherwise its first
    # candidate still free. holder[j] is the position in that order of the
    # detection holding track j, n for none. Each favorite goes to its
    # earliest claimant; the other claimants, the losers, then walk their
    # other candidates, earliest first. A track held by a later detection is
    # still free at a loser's turn: the loser takes it, and the later holder
    # becomes a loser. The holders before a loser's turn are settled by
    # then, so this is the one-pass result, with a Python loop over the
    # losers only.
    n = len(dets)
    start, stop = row_start[:-1][order], row_start[1:][order]  # each position's candidates
    claim = np.flatnonzero(start < stop)
    favorite = jj[start[claim]]
    holder = np.full(len(tracks), n, dtype=np.intp)
    np.minimum.at(holder, favorite, claim)
    losers = claim[holder[favorite] != claim].tolist()  # ascending, so a heap
    if losers:
        candidates, start, stop, holder = jj.tolist(), start.tolist(), stop.tolist(), holder.tolist()
        while losers:
            p = heapq.heappop(losers)
            for k in range(start[p] + 1, stop[p]):
                j = candidates[k]
                q = holder[j]
                if q > p:
                    holder[j] = p
                    if q < n:
                        heapq.heappush(losers, q)
                    break
        holder = np.array(holder, dtype=np.intp)

    chosen = np.full(n, -1, dtype=np.intp)  # by position
    held = np.flatnonzero(holder < n)
    chosen[holder[held]] = held
    matched = chosen >= 0
    pairs = np.array([order[matched], chosen[matched]]).T
    return result._take(pairs, order[~matched], np.flatnonzero(holder == n), ids)


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
