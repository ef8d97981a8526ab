"""Radar-to-detection association through image-plane frustums.

Radar returns are sparse points with unreliable height. Each return is
expanded into a vertical pillar of predefined size so that the question
"does this return belong to that detected object" can be asked in the image:
a pillar belongs to a detection when the pillar pokes into the frustum that
the detection's 2D box spans between a near and a far depth plane. When
several pillars land in one frustum, the closest one (smallest camera-axis
depth of the pillar base) wins and supplies the detection's fused depth and
velocity.

Returns travel as one (N, 5) array of (x, y, z, vx, vy) rows, as
FrameInput.radar holds them; RadarPoint and Pillar are their object form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .association import window_join
from .geometry import CameraModel, project_points


@dataclass(frozen=True)
class RadarPoint:
    """One radar return: vehicle-frame position plus velocity components.

    Velocities are carried through untouched; no ego-motion compensation
    happens anywhere in this module.
    """

    x: float
    y: float
    z: float
    vx: float
    vy: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z, self.vx, self.vy))):
            raise ValueError("radar point fields must be finite")


@dataclass(frozen=True)
class PillarDims:
    """Pillar extents in meters. Defaults follow the usual radar-pillar
    preprocessing sizes for vehicle scenes."""

    width_y: float = 0.5
    height_z: float = 1.5
    depth_x: float = 0.5

    def __post_init__(self):
        if not all(0 < d < math.inf for d in (self.width_y, self.height_z, self.depth_x)):
            raise ValueError("pillar dimensions must be finite and positive")


@dataclass(frozen=True)
class Pillar:
    """A radar point expanded into an axis-aligned box: centered on the point
    in x and y, grounded at the point in z (the pillar grows upward)."""

    base: RadarPoint
    dims: PillarDims


@dataclass(frozen=True)
class PreliminaryDetection:
    """A detected object before radar fusion: its image box, the estimated
    depth the frustum is centered on, and its class. confidence is kept so
    callers can carry it along; association does not read it."""

    bbox2d: Tuple[float, float, float, float]
    est_depth: float
    class_id: int
    confidence: float = 1.0

    def __post_init__(self):
        u_min, v_min, u_max, v_max = self.bbox2d
        if not (u_min < u_max and v_min < v_max):
            raise ValueError("bbox2d must have positive width and height")
        if not (self.est_depth > 0 and math.isfinite(self.est_depth)):
            raise ValueError("est_depth must be positive and finite")


# Offsets of the 9 test points of a pillar (the base, then the 8 corners of
# its box), in units of its half depth, half width and height.
_TEST_POINT_SIGNS = np.array(
    [(0.0, 0.0, 0.0)] + [(sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (0.0, 1.0)]
)


class RadarMatch(NamedTuple):
    """Fused values handed to a detection by its associated pillar."""

    depth: float
    vx: float
    vy: float


class BoxWinners:
    """The pillars that associate_boxes found, as columns over the boxes
    that won one, in ascending box order: box is the row in the boxes given,
    pillar the row in the radar, depth the pillar's base depth and vx, vy
    its velocity. Iterating yields one RadarMatch or None per box given."""

    __slots__ = ("count", "box", "pillar", "depth", "vx", "vy")

    def __init__(self, count: int, *columns: np.ndarray):
        self.count = count
        self.box, self.pillar, self.depth, self.vx, self.vy = columns

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        matches: List[Optional[RadarMatch]] = [None] * self.count
        for row, *values in zip(self.box.tolist(), self.depth.tolist(), self.vx.tolist(), self.vy.tolist()):
            matches[row] = RadarMatch(*values)
        return iter(matches)


def expand_pillars(points: Sequence[RadarPoint], dims: PillarDims | Tuple[float, float, float]) -> List[Pillar]:
    """Expand radar points into pillars, one per point, order preserved."""
    if not isinstance(dims, PillarDims):
        dims = PillarDims(*dims)
    return [Pillar(p, dims) for p in points]


def associate_boxes(
    boxes: np.ndarray,
    est_depths: np.ndarray,
    radar: np.ndarray,
    dims: PillarDims | np.ndarray,
    camera: CameraModel,
    depth_tolerance: float,
) -> BoxWinners:
    """Array-level core of frustum_associate: boxes is (D, 4) rows of
    (u_min, v_min, u_max, v_max), est_depths is (D,), radar is (N, 5) rows
    of (x, y, z, vx, vy), one pillar each, and dims the PillarDims they
    share or (half depth, half width, height) extents, shared or one row
    per pillar. Inputs are not validated here. The winners come back as
    columns, with no object per box."""
    if len(boxes) == 0 or len(radar) == 0:
        none = np.empty(0, dtype=np.intp)
        return BoxWinners(len(boxes), none, none, *np.empty((3, 0)))
    if isinstance(dims, PillarDims):
        dims = (0.5 * dims.depth_x, 0.5 * dims.width_y, dims.height_z)

    # The 9 test points of every pillar: row 0 is the base, rows 1..8 the
    # corners.
    pts = radar[:, None, :3] + _TEST_POINT_SIGNS * np.asarray(dims)[..., None, :]
    uv, _, _ = project_points(pts.reshape(-1, 3), camera)
    uv = uv.reshape(len(radar), 9, 2)
    # Base depth along the camera axis, defined even behind the camera
    # (negative depths simply fail every window test).
    base_depth = pts[:, 0, :] @ camera.rotation[2] + camera.translation[2]

    with np.errstate(invalid="ignore"):
        # Cheap prefilter: a box can only hold a projected point of a pillar
        # if it overlaps the pillar's u range, so its left edge lies in
        # [u_lo - widest box, u_hi], widened by a slack that swallows
        # rounding. NaN coordinates (unprojectable points) are left out of
        # the range; a pillar with no projectable point gets a NaN one,
        # which selects nothing.
        u9, v9 = uv[:, :, 0], uv[:, :, 1]
        u_lo = np.fmin.reduce(u9, axis=1)
        u_hi = np.fmax.reduce(u9, axis=1)
        widest = np.fmax.reduce(boxes[:, 2] - boxes[:, 0])
        reach = widest + 1e-9 * (1.0 + widest + np.fmax.reduce(np.abs(u_lo)))
        pj, di = window_join(boxes[:, 0], u_lo - reach, u_hi)
        depth = base_depth[pj]
        est = est_depths[di]
        window = depth >= est * (1.0 - depth_tolerance)
        window &= depth <= est * (1.0 + depth_tolerance)
        window = np.flatnonzero(window)
        di, pj = di[window], pj[window]

        # Exact membership test on the surviving pairs.
        b = boxes[di]
        pu = u9[pj]
        pv = v9[pj]
        inside = pu >= b[:, 0, None]
        inside &= pu <= b[:, 2, None]
        inside &= pv >= b[:, 1, None]
        inside &= pv <= b[:, 3, None]
        some = inside.any(axis=1)
        hit_di, hit_pj = di[some], pj[some]

    # Per detection the smallest hit depth wins, exact depth ties to the
    # lowest pillar index (lexsort keys, minor to major).
    order = np.lexsort((hit_pj, base_depth[hit_pj], hit_di))
    di_sorted = hit_di[order]
    first_of_det = np.ones(len(order), dtype=bool)
    first_of_det[1:] = di_sorted[1:] != di_sorted[:-1]
    won = hit_pj[order][first_of_det]
    return BoxWinners(len(boxes), di_sorted[first_of_det], won, base_depth[won], radar[won, 3], radar[won, 4])


def frustum_associate(
    dets: Sequence[PreliminaryDetection],
    pillars: Sequence[Pillar],
    camera: CameraModel,
    depth_tolerance: float,
) -> List[Optional[RadarMatch]]:
    """Associate at most one pillar to every detection.

    A pillar is inside a detection's frustum when any of its 8 corners or
    its base point projects into the bbox (closed bounds) and the base
    camera-axis depth falls in [est_depth*(1-tol), est_depth*(1+tol)].
    Among inside pillars the smallest base depth wins; exact depth ties go
    to the lowest pillar input index. Detections with no inside pillar get
    None. Each detection picks independently, so one pillar may serve
    several overlapping detections.
    """
    if not (0.0 < depth_tolerance < 1.0):
        raise ValueError("depth_tolerance must lie in (0, 1)")
    boxes = np.array([d.bbox2d for d in dets])
    est = np.array([d.est_depth for d in dets])
    columns = np.array([
        (p.base.x, p.base.y, p.base.z, p.base.vx, p.base.vy, 0.5 * p.dims.depth_x, 0.5 * p.dims.width_y, p.dims.height_z)
        for p in pillars
    ]).reshape(-1, 8)
    return list(associate_boxes(boxes, est, columns[:, :5], columns[:, 5:], camera, depth_tolerance))
