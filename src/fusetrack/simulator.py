"""Deterministic synthetic scenes: scripted motion, noisy detections, radar.

Objects move with constant velocity in the vehicle frame. Each frame the
simulator projects every object center through the camera; an object is in
view while its center lands inside the (closed) image bounds with positive
depth. Visible objects produce:

* a detection: projected center + Gaussian pixel noise, camera-axis depth +
  noise, velocity + noise, the true projected box (used for radar fusion),
  and a backward pixel displacement du, dv such that (u - du, v - dv) is
  the true previous-frame center (exact zeros on frame 0);
* radar points scattered around the true ground position, carrying the
  object velocity + noise, plus per-frame uniform clutter backprojected
  from random pixels.

Two deterministic suppressions run before noise is applied: a visual
occlusion rule and i.i.d. detection dropout. Occlusion is one pairwise IoU
matrix per frame over the objects that have a true box: for every pair
i < j whose IoU is strictly above the threshold (an IoU of exactly 1.0
never occludes at threshold 1.0), the farther object loses its detection,
and on equal depth the later-listed one j. Radar is unaffected. Confidence
is drawn once per object in [0.5, 1).

All randomness flows through counter-based Philox streams keyed by
(seed, frame, channel), so the same config generates a bit-identical Scene
on any platform, any number of times, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .association import DetectionBatch
from .fileio import config_from_dict, config_to_dict
from .geometry import CameraModel, image_to_vehicle, project_points
from .metrics import GroundTruthFrame, GroundTruthObject
from .tracker import FrameInput

# Philox stream channels: one per independent noise source.
_CENTER, _DEPTH, _VEL, _DISP, _DROPOUT, _CONF, _RADAR_POS, _RADAR_VEL, _CLUTTER = range(9)

_CLUTTER_DEPTH_RANGE = (5.0, 80.0)
_CLUTTER_SPEED_RANGE = (-10.0, 10.0)


def _stream(seed: int, frame: int, channel: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(frame, channel))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ObjectSpec:
    """One scripted object: constant-velocity motion from ``position`` with
    ``velocity`` (m/s, vehicle frame), a projected box of ``size`` =
    (width across y, height across z) meters."""

    class_id: int
    position: Tuple[float, float, float]
    velocity: Tuple[float, float, float]
    size: Tuple[float, float] = (1.8, 1.5)

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(x) for x in self.position))
        object.__setattr__(self, "velocity", tuple(float(x) for x in self.velocity))
        object.__setattr__(self, "size", tuple(float(x) for x in self.size))
        if len(self.position) != 3 or len(self.velocity) != 3 or len(self.size) != 2:
            raise ValueError("position/velocity are 3-vectors, size is (width, height)")
        if min(self.size) <= 0:
            raise ValueError("object size must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the detection noise (zero = exact)."""

    center_px: float = 1.0
    depth_m: float = 0.5
    velocity_mps: float = 0.3
    displacement_px: float = 1.0

    def __post_init__(self):
        if not all(0 <= s < np.inf for s in (self.center_px, self.depth_m, self.velocity_mps, self.displacement_px)):
            raise ValueError("noise sigmas must be finite and >= 0")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class RadarModel:
    points_per_object: int = 3
    position_sigma_m: float = 0.3
    velocity_sigma_mps: float = 0.3
    clutter_per_frame: int = 2

    def __post_init__(self):
        if self.points_per_object < 0 or self.clutter_per_frame < 0:
            raise ValueError("radar point counts must be >= 0")
        if not all(0 <= s < np.inf for s in (self.position_sigma_m, self.velocity_sigma_mps)):
            raise ValueError("radar sigmas must be finite and >= 0")


@dataclass(frozen=True)
class OcclusionRule:
    """Suppress the farther detection when two true boxes overlap more than
    iou_threshold. Equal-depth overlaps drop the later-listed object."""

    iou_threshold: float = 0.7
    enabled: bool = True

    def __post_init__(self):
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError("iou_threshold must lie in (0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    num_frames: int
    frame_dt: float
    camera: CameraModel
    objects: Tuple[ObjectSpec, ...]
    noise: NoiseModel = NoiseModel()
    dropout: float = 0.0
    radar: RadarModel = RadarModel()
    occlusion: OcclusionRule = OcclusionRule()

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.num_frames < 1:
            raise ValueError("num_frames must be >= 1")
        if not (0 < self.frame_dt < np.inf):
            raise ValueError("frame_dt must be finite and positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")

    def to_dict(self) -> Dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioConfig":
        """Unknown top-level keys are ignored; unknown keys inside a section
        (camera, objects, noise, radar, occlusion) are errors."""
        return config_from_dict(cls, data, strict=False)


@dataclass(frozen=True)
class Scene:
    """Generated sequence: tracker inputs plus aligned ground truth.

    provenance[k][i] is the object index behind row i of
    frames[k].detections; diagnostic only, never fed to the tracker."""

    config: ScenarioConfig
    frames: Tuple[FrameInput, ...]
    ground_truth: Tuple[GroundTruthFrame, ...]
    provenance: Tuple[Tuple[int, ...], ...]


def generate(cfg: ScenarioConfig) -> Scene:
    """Run the scripted scene; see the module docstring for the rules."""
    n_obj = len(cfg.objects)
    camera = cfg.camera
    for idx, obj in enumerate(cfg.objects):
        depth0 = float(camera.rotation[2] @ np.asarray(obj.position) + camera.translation[2])
        if depth0 <= 0:
            raise ValueError(f"object {idx} starts behind the camera")

    # Per-object confidence, fixed for the whole sequence (sequence-level
    # stream so a noise-free static scene emits identical detections).
    confidences = _stream(cfg.seed, 0, _CONF).uniform(0.5, 1.0, size=n_obj)
    class_ids = np.array([obj.class_id for obj in cfg.objects], dtype=np.int64)

    # Object states as columns, and the offsets of the four outer box corners
    # (y +- w/2, z +- h/2 around the center) of every object.
    position = np.array([obj.position for obj in cfg.objects], dtype=float).reshape(n_obj, 3)
    velocity = np.array([obj.velocity for obj in cfg.objects], dtype=float).reshape(n_obj, 3)
    half = np.array([obj.size for obj in cfg.objects], dtype=float).reshape(n_obj, 2) * 0.5
    corner_offsets = np.zeros((n_obj, 4, 3))
    corner_offsets[:, :, 1] = half[:, [0]] * (-1.0, -1.0, 1.0, 1.0)
    corner_offsets[:, :, 2] = half[:, [1]] * (-1.0, 1.0, -1.0, 1.0)

    # Clutter bounds of u, v, depth, vx, vy, in the order of the draws.
    clutter_lo, clutter_hi = np.array(
        [(0.0, camera.image_width), (0.0, camera.image_height), _CLUTTER_DEPTH_RANGE, *[_CLUTTER_SPEED_RANGE] * 2]
    ).T
    pts = cfg.radar.points_per_object
    frames: List[FrameInput] = []
    gt_frames: List[GroundTruthFrame] = []
    provenance: List[Tuple[int, ...]] = []

    for k in range(cfg.num_frames):
        t = k * cfg.frame_dt
        center_noise = _stream(cfg.seed, k, _CENTER).standard_normal((n_obj, 2)) * cfg.noise.center_px
        depth_noise = _stream(cfg.seed, k, _DEPTH).standard_normal(n_obj) * cfg.noise.depth_m
        vel_noise = _stream(cfg.seed, k, _VEL).standard_normal((n_obj, 2)) * cfg.noise.velocity_mps
        disp_noise = _stream(cfg.seed, k, _DISP).standard_normal((n_obj, 2)) * cfg.noise.displacement_px
        dropout_draw = _stream(cfg.seed, k, _DROPOUT).uniform(size=n_obj)
        radar_pos_noise = _stream(cfg.seed, k, _RADAR_POS).standard_normal((n_obj, pts, 2)) * cfg.radar.position_sigma_m
        radar_vel_noise = _stream(cfg.seed, k, _RADAR_VEL).standard_normal((n_obj, pts, 2)) * cfg.radar.velocity_sigma_mps

        # One projection per frame: the centers, the box corners and the
        # previous-frame centers of every object.
        centers = position + velocity * t
        corners = centers[:, None, :] + corner_offsets
        previous = position + velocity * (t - cfg.frame_dt)
        uv, depth, in_image = project_points(np.concatenate([centers, corners.reshape(-1, 3), previous]), camera)
        center_uv, center_depth = uv[:n_obj], depth[:n_obj]
        corner_uv = uv[n_obj : 5 * n_obj].reshape(n_obj, 4, 2)
        has_previous = ~np.isnan(uv[5 * n_obj :, 0])
        displacement = center_uv - uv[5 * n_obj :]
        # True image box of a visible object: the bounding rectangle of its
        # four outer corners; None when any corner falls behind the camera
        # (NaN corners make the minimum NaN).
        box_lo = corner_uv.min(axis=1)
        boxed = in_image[:n_obj] & ~np.isnan(box_lo).any(axis=1)
        box = np.hstack([box_lo, corner_uv.max(axis=1)])

        # Occlusion on true boxes, one IoU matrix over the boxed objects with
        # the arithmetic of a scalar IoU: the farther object of each pair
        # i < j whose IoU exceeds the threshold loses its detection (radar
        # still returns), the later-listed one on equal depth.
        occluded = np.zeros(n_obj, dtype=bool)
        if cfg.occlusion.enabled:
            rows = np.flatnonzero(boxed)
            lo, hi = box[rows, :2], box[rows, 2:]
            ixy = np.maximum(0.0, np.minimum(hi[:, None], hi) - np.maximum(lo[:, None], lo))
            inter = ixy[..., 0] * ixy[..., 1]
            area = (hi[:, 0] - lo[:, 0]) * (hi[:, 1] - lo[:, 1])
            iou = np.divide(inter, (area[:, None] + area) - inter, out=np.zeros_like(inter), where=inter != 0.0)
            i, j = np.nonzero(np.triu(iou > cfg.occlusion.iou_threshold, 1))
            i, j = rows[i], rows[j]
            occluded[np.where(center_depth[j] >= center_depth[i], j, i)] = True

        # Every visible object gives ground truth and radar; a detection
        # unless occluded or dropped. Built from columns.
        seen = np.flatnonzero(in_image[:n_obj])
        gt_x, gt_y = centers[seen, :2].T.tolist()
        gts = list(map(GroundTruthObject, seen.tolist(), gt_x, gt_y, class_ids[seen].tolist()))
        radar_xy = (centers[seen, None, :2] + radar_pos_noise[seen]).reshape(-1, 2)
        radar_v = (velocity[seen, None, :2] + radar_vel_noise[seen]).reshape(-1, 2)
        radar = np.column_stack([radar_xy, np.repeat(centers[seen, 2], pts), radar_v])
        kept = np.flatnonzero(in_image[:n_obj] & ~occluded & ~(dropout_draw < cfg.dropout))
        shifted = has_previous[kept, None] & (k > 0)
        dets = DetectionBatch(
            *(center_uv[kept] + center_noise[kept]).T, np.maximum(1e-3, center_depth[kept] + depth_noise[kept]),
            *(velocity[kept, :2] + vel_noise[kept]).T, class_ids[kept], confidences[kept],
            *np.where(shifted, displacement[kept] + disp_noise[kept], 0.0).T, box[kept], boxed[kept],
        )

        # Clutter: per point u, v, depth, vx, vy, drawn in that order (one
        # broadcast draw gives the values of one scalar draw per field).
        clutter_rng = _stream(cfg.seed, k, _CLUTTER)
        clutter = clutter_rng.uniform(clutter_lo, clutter_hi, size=(cfg.radar.clutter_per_frame, 5))
        pos = image_to_vehicle(clutter[:, 0], clutter[:, 1], clutter[:, 2], camera)
        radar = np.vstack([radar, np.hstack([pos, clutter[:, 3:]])])

        frames.append(FrameInput(k, t, dets, radar))
        gt_frames.append(GroundTruthFrame(k, tuple(gts)))
        provenance.append(tuple(kept.tolist()))

    return Scene(cfg, tuple(frames), tuple(gt_frames), tuple(provenance))


def crossing_scenario(depth_gap: float = 10.0, seed: int = 0, num_frames: int = 41) -> ScenarioConfig:
    """Two same-class cars crossing paths in image space.

    Both drive laterally (opposite directions) at different forward
    distances separated by depth_gap meters, so their projected centers
    sweep toward the image middle and coincide at the midpoint frame; the
    nearer box then occludes the farther one for exactly the coincidence
    frame with the default rule. depth_gap = 0 is the degenerate control
    where depth carries no information.
    """
    if depth_gap < 0:
        raise ValueError("depth_gap must be >= 0")
    camera = CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448)
    mid = (num_frames - 1) // 2
    dt = 0.1
    lateral = 0.4 / dt  # 0.4 m per frame, meeting y=0 at the midpoint
    y0 = lateral * dt * mid
    objects = (
        ObjectSpec(class_id=0, position=(55.0, y0, 0.0), velocity=(0.0, -lateral, 0.0)),
        ObjectSpec(class_id=0, position=(55.0 + depth_gap, -y0, 0.0), velocity=(0.0, lateral, 0.0)),
    )
    return ScenarioConfig(
        seed=seed,
        num_frames=num_frames,
        frame_dt=dt,
        camera=camera,
        objects=objects,
    )
