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

All randomness flows through counter-based Philox streams keyed by (seed,
frame, channel), so the same config generates a bit-identical Scene on any
platform, any number of times, in any order. The keys, numpy's SeedSequence
ones, are derived for all streams in one pass; one re-keyed Philox draws
them. Geometry (projection, boxes, occlusion, radar, clutter) is computed
for blocks of frames, each value with the arithmetic of its frame alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .fileio import config_from_dict, config_to_dict
from .geometry import CameraModel, image_to_vehicle, project_points
from .metrics import GroundTruthFrame
from .tracker import FrameInput

# Philox stream channels: one per independent noise source.
_CENTER, _DEPTH, _VEL, _DISP, _DROPOUT, _CONF, _RADAR_POS, _RADAR_VEL, _CLUTTER = range(9)

_CLUTTER_DEPTH_RANGE = (5.0, 80.0)
_CLUTTER_SPEED_RANGE = (-10.0, 10.0)
# generate computes the geometry of up to 4 frames at once, fewer when a frame holds more than 60 objects, so
# that a block's arrays (its per-frame IoU matrices the largest, under 128 KB each) stay small next to the scene.
_BLOCK_FRAMES, _BLOCK_PAIRS = 4, 4 * 60 * 60


def _stream_keys(seed: int, frames: int) -> np.ndarray:
    """keys[frame, channel], the Philox key (two 64-bit words) of each stream: numpy's SeedSequence(entropy=seed,
    spawn_key=(frame, channel)).generate_state(2, np.uint64), as its uint32 hash broadcast over frames x 9 channels."""
    seed, consts = operator.index(seed), [0x43B0D7E5]  # the seed's 32-bit words, least significant first, at least 4
    words = np.frombuffer(seed.to_bytes(4 * max(4, -(-seed.bit_length() // 32)), "little"), "<u4").reshape(-1, 1, 1)
    entropy = [*words, np.arange(frames, dtype=np.uint32)[:, None], np.arange(9, dtype=np.uint32)]

    def hashed(value, consts, mult):  # xor the last constant, times the next one (kept), fold
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
        value = (value ^ consts[-2]) * consts[-1]
        return value ^ value >> 16

    pool = [hashed(word, consts, 0x931E8875) for word in entropy[:4]]  # mix_entropy, into a pool of 4 words
    for src, dst in ((src, dst) for src in range(len(entropy)) for dst in range(4) if dst != src):
        mixed = pool[dst] * 0xCA01F9DD - hashed(entropy[src] if src >= 4 else pool[src], consts, 0x931E8875) * 0x4973F715
        pool[dst] = mixed ^ mixed >> 16
    consts = [0x8B51F9DD]  # generate_state: 4 words hashed out of the pool, read as 2 little-endian 64-bit words
    state = np.stack([hashed(word, consts, 0x58F38DED) for word in pool], 2)
    return state.astype("<u4").view("<u8").astype(np.uint64)


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
        if operator.index(self.seed) < 0:  # numpy ints and bools read as SeedSequence reads them
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

    rng = np.random.Generator(np.random.Philox(0))
    keys, fresh = _stream_keys(cfg.seed, cfg.num_frames), rng.bit_generator.state  # as built: counter 0, an empty buffer

    def stream(k, channel):  # the one Philox, re-keyed: it draws as a fresh one keyed for (seed, k, channel)
        fresh["state"]["key"] = keys[k, channel]
        rng.bit_generator.state = fresh
        return rng

    # Per-object confidence, fixed for the whole sequence (sequence-level
    # stream so a noise-free static scene emits identical detections).
    confidences = stream(0, _CONF).uniform(0.5, 1.0, size=n_obj)
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
    pts, n_clutter = cfg.radar.points_per_object, cfg.radar.clutter_per_frame
    frames: List[FrameInput] = []
    gt_frames: List[GroundTruthFrame] = []
    provenance: List[Tuple[int, ...]] = []

    def draws(ks, channel, shape, scale=1.0, draw=np.random.Generator.standard_normal):  # each frame k's own stream
        return np.array([draw(stream(k, channel), shape) for k in ks]) * scale

    # The geometry of a block of frames is computed at once, each value as
    # its frame alone would compute it; every frame keeps its own streams.
    block = max(1, min(_BLOCK_FRAMES, _BLOCK_PAIRS // max(n_obj * n_obj, 1)))
    for start in range(0, cfg.num_frames, block):
        ks = range(start, min(start + block, cfg.num_frames))
        b = len(ks)
        center_noise = draws(ks, _CENTER, (n_obj, 2), cfg.noise.center_px)
        depth_noise = draws(ks, _DEPTH, n_obj, cfg.noise.depth_m)
        vel_noise = draws(ks, _VEL, (n_obj, 2), cfg.noise.velocity_mps)
        disp_noise = draws(ks, _DISP, (n_obj, 2), cfg.noise.displacement_px)
        dropped = draws(ks, _DROPOUT, n_obj, draw=lambda g, shape: g.uniform(size=shape)) < cfg.dropout
        radar_pos_noise = draws(ks, _RADAR_POS, (n_obj, pts, 2), cfg.radar.position_sigma_m)
        radar_vel_noise = draws(ks, _RADAR_VEL, (n_obj, pts, 2), cfg.radar.velocity_sigma_mps)
        # Clutter: per point u, v, depth, vx, vy, drawn in that order (one
        # broadcast draw gives the values of one scalar draw per field).
        clutter = draws(ks, _CLUTTER, (n_clutter, 5), draw=lambda g, shape: g.uniform(clutter_lo, clutter_hi, shape))

        # One projection per block: the centers, the box corners and the
        # previous-frame centers of every object in every frame.
        t = np.array(ks).reshape(b, 1, 1) * cfg.frame_dt
        centers = position + velocity * t
        corners = centers[:, :, None, :] + corner_offsets
        previous = position + velocity * (t - cfg.frame_dt)
        uv, depth, in_image = project_points(np.concatenate([centers, corners.reshape(b, -1, 3), previous], 1), camera)
        uv, in_image = uv.reshape(b, 6 * n_obj, 2), in_image.reshape(b, 6 * n_obj)[:, :n_obj]
        center_uv, center_depth = uv[:, :n_obj], depth.reshape(b, 6 * n_obj)[:, :n_obj]
        corner_uv = uv[:, n_obj : 5 * n_obj].reshape(b, n_obj, 4, 2)
        has_previous = ~np.isnan(uv[:, 5 * n_obj :, 0])
        displacement = center_uv - uv[:, 5 * n_obj :]
        # True image box of a visible object: the bounding rectangle of its
        # four outer corners; None when any corner falls behind the camera
        # (NaN corners make the minimum NaN).
        box_lo = corner_uv.min(axis=2)
        boxed = in_image & ~np.isnan(box_lo).any(axis=2)
        box = np.concatenate([box_lo, corner_uv.max(axis=2)], 2)

        # Occlusion on true boxes, one IoU matrix per frame with the
        # arithmetic of a scalar IoU, over the objects boxed in some frame of
        # the block (unboxed there, an object's box is (0, 0, 0, 0): IoU 0).
        # The farther object of each pair i < j whose IoU exceeds the
        # threshold loses its detection (radar still returns), the
        # later-listed one on equal depth.
        occluded = np.zeros((b, n_obj), dtype=bool)
        if cfg.occlusion.enabled:
            rows = np.flatnonzero(boxed.any(0))
            u0, v0, u1, v1 = np.moveaxis(np.where(boxed[:, rows, None], box[:, rows], 0.0), 2, 0)
            iw = np.maximum(0.0, np.minimum(u1[:, :, None], u1[:, None]) - np.maximum(u0[:, :, None], u0[:, None]))
            ih = np.maximum(0.0, np.minimum(v1[:, :, None], v1[:, None]) - np.maximum(v0[:, :, None], v0[:, None]))
            inter = iw * ih
            area = (u1 - u0) * (v1 - v0)
            union = (area[:, :, None] + area[:, None]) - inter
            iou = np.divide(inter, union, out=np.zeros_like(inter), where=inter != 0.0)
            f, i, j = np.nonzero(np.triu(iou > cfg.occlusion.iou_threshold, 1))
            i, j = rows[i], rows[j]
            occluded[f, np.where(center_depth[f, j] >= center_depth[f, i], j, i)] = True

        # Every object's detection values u, v, depth, vx, vy, confidence, du,
        # dv and box, as rows per frame; its radar returns, then the clutter
        # backprojected from its pixels, as (x, y, z, vx, vy) rows per frame.
        shifted = (has_previous & (t[:, 0] > 0))[..., None]  # a frame after the first
        values = np.concatenate([
            center_uv + center_noise, np.maximum(1e-3, center_depth + depth_noise)[..., None],
            velocity[:, :2] + vel_noise, np.broadcast_to(confidences[:, None], (b, n_obj, 1)),
            np.where(shifted, displacement + disp_noise, 0.0), box,
        ], 2).transpose(0, 2, 1)
        clutter_xyz = image_to_vehicle(*clutter[..., :3].reshape(-1, 3).T, camera).reshape(b, n_clutter, 3)
        radar = np.concatenate([
            np.concatenate([centers[:, :, None, :2] + radar_pos_noise, np.repeat(centers[:, :, None, 2:], pts, 2),
                            velocity[:, None, :2] + radar_vel_noise], 3).reshape(b, n_obj * pts, 5),
            np.concatenate([clutter_xyz, clutter[..., 3:]], 2),
        ], 1)
        returns = np.concatenate([np.repeat(in_image, pts, axis=1), np.ones((b, n_clutter), dtype=bool)], 1)

        # Every visible object gives ground truth and radar; a detection
        # unless occluded or dropped. Built from columns.
        for f, k in enumerate(ks):
            seen = np.flatnonzero(in_image[f])
            gt_frames.append(GroundTruthFrame.from_columns(k, seen, *centers[f, seen, :2].T, class_ids[seen]))
            rows = np.flatnonzero(in_image[f] & ~occluded[f] & ~dropped[f])
            columns, box_rows = values[f][:, rows], boxed[f, rows]  # new arrays, screened once
            columns = [*columns[:5], class_ids[rows], *columns[5:8], np.where(box_rows[:, None], columns[8:].T, np.nan)]
            frames.append(FrameInput.__new__(FrameInput)._take(k, *columns, box_rows, timestamp=k * cfg.frame_dt,
                                                               radar=radar[f][returns[f]]))
            provenance.append(tuple(rows.tolist()))

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
