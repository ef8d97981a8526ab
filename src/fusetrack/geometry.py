"""Pinhole camera geometry between the vehicle frame and the image plane.

Coordinate conventions used throughout the package:

* Vehicle frame (right-handed, meters):
    +x forward, +y left, +z up.
* Camera optical frame (right-handed, meters):
    +x right in the image, +y down in the image, +z along the optical axis.
* Image plane (pixels): u grows right, v grows down, origin at the top-left
  corner. A pixel is "in the image" on the closed bounds 0 <= u <= width,
  0 <= v <= height, so detections touching the border still count as visible.
* Depth is the camera-axis coordinate (z in the optical frame), not the
  Euclidean range to the point. The two agree only on the optical axis.

A ``CameraModel`` stores the intrinsics and the rigid transform from the
vehicle frame into the camera optical frame:

    p_cam = rotation @ p_vehicle + translation

``forward_facing`` builds the common case of a camera mounted at some vehicle
position looking along +x; the axis remap that makes "vehicle left" appear on
the left of the image is baked into the rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Max tolerated deviation of rotation.T @ rotation from the identity.
_ORTHONORMAL_TOL = 1e-9

# Vehicle axes -> camera optical axes for a camera looking along vehicle +x:
# camera x (image right) = -y_vehicle, camera y (image down) = -z_vehicle,
# camera z (optical axis) = +x_vehicle.
_FORWARD_REMAP = np.array(
    [
        [0.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the vehicle-to-camera rigid transform.

    Args:
        fx, fy: focal lengths in pixels, strictly positive.
        cx, cy: principal point in pixels, strictly inside the image.
        rotation: (3, 3) vehicle-to-camera rotation, orthonormal to 1e-9.
        translation: (3,) vehicle-to-camera translation, meters.
        image_width, image_height: sensor size in pixels.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    image_width: int
    image_height: int

    def __post_init__(self):
        rotation = np.array(self.rotation, dtype=float)
        translation = np.array(self.translation, dtype=float)
        if rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
        if translation.shape != (3,):
            raise ValueError(f"translation must be length 3, got {translation.shape}")
        scalars = (self.fx, self.fy, self.cx, self.cy)
        if not all(math.isfinite(s) for s in scalars):
            raise ValueError("camera intrinsics must be finite")
        if not (np.isfinite(rotation).all() and np.isfinite(translation).all()):
            raise ValueError("camera extrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image size must be positive")
        if not (0 < self.cx < self.image_width and 0 < self.cy < self.image_height):
            raise ValueError("principal point must lie strictly inside the image")
        err = np.abs(rotation.T @ rotation - np.eye(3)).max()
        if err > _ORTHONORMAL_TOL:
            raise ValueError(f"rotation is not orthonormal (deviation {err:.3e})")
        rotation.setflags(write=False)
        translation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def forward_facing(
        cls,
        fx: float,
        fy: float,
        cx: float,
        cy: float,
        image_width: int,
        image_height: int,
        position=(0.0, 0.0, 0.0),
        yaw: float = 0.0,
    ) -> "CameraModel":
        """Camera mounted at ``position`` (vehicle frame) looking along +x.

        ``yaw`` rotates the viewing direction left (counterclockwise from
        above) by the given angle in radians.
        """
        cos_y, sin_y = math.cos(yaw), math.sin(yaw)
        # Vehicle -> camera-body: undo the yaw, then remap axes.
        unyaw = np.array([[cos_y, sin_y, 0.0], [-sin_y, cos_y, 0.0], [0.0, 0.0, 1.0]])
        rotation = _FORWARD_REMAP @ unyaw
        translation = -rotation @ np.asarray(position, dtype=float)
        return cls(fx, fy, cx, cy, rotation, translation, image_width, image_height)

    @property
    def center(self) -> np.ndarray:
        """Camera center in the vehicle frame."""
        return -self.rotation.T @ self.translation

    # fileio imports this module, so these two import it when called.
    def to_dict(self) -> dict:
        from .fileio import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CameraModel":
        from .fileio import config_from_dict

        return config_from_dict(cls, data)


def project_points(points: np.ndarray, camera: CameraModel, uv_only: bool = False):
    """Project vehicle-frame points onto the image plane; the one projection
    of the package. points is (N, 3) or a single (3,) point.

    Returns ``(uv, depth, in_image)`` where uv is (N, 2), depth is (N,), and
    in_image marks points with depth > 0 landing inside the closed image
    bounds; uv alone if uv_only. uv/depth entries for points on or behind
    the camera plane (depth <= 0) are NaN.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    # Camera coordinates as three rows, so that every step below runs over
    # one long row; each value is computed as (rotation @ point) + translation.
    x, y, depth = np.matvec(camera.rotation, pts, axes=[(0, 1), (1,), (0,)])
    x += camera.translation[0]
    y += camera.translation[1]
    depth += camera.translation[2]
    behind = ~(depth > 0.0)
    uv = np.empty((2, len(pts)))  # returned as its (N, 2) transpose
    with np.errstate(invalid="ignore", divide="ignore"):
        for row, coordinate, f, c in ((0, x, camera.fx, camera.cx), (1, y, camera.fy, camera.cy)):
            coordinate *= f
            coordinate /= depth
            np.add(coordinate, c, out=uv[row])
    uv[:, behind] = np.nan
    if uv_only:
        return uv.T
    depth[behind] = np.nan
    u, v = uv
    # NaN coordinates compare False, so points behind the camera drop out.
    in_image = (u >= 0.0) & (u <= camera.image_width) & (v >= 0.0) & (v <= camera.image_height)
    return uv.T, depth, in_image


def image_to_vehicle(u, v, depth, camera: CameraModel) -> np.ndarray:
    """Invert the projection: the vehicle point at pixel (u, v) and the given
    camera-axis depth (meters, > 0); the one back-projection of the package.

    u, v and depth are floats, giving a (3,) point, or 1-D arrays of one
    length, giving (N, 3) points. Every point of one pixel lies on the ray
    from ``camera.center`` through that pixel.
    """
    depth = np.asarray(depth, dtype=float)
    if np.count_nonzero(depth <= 0.0):
        raise ValueError("depth must be positive")
    # Camera-frame points, scaled so their z component equals the depth;
    # rows times the rotation apply its transpose, the inverse, to each.
    p_cam = np.array(((u - camera.cx) / camera.fx * depth, (v - camera.cy) / camera.fy * depth, depth)).T
    return (p_cam - camera.translation) @ camera.rotation
