"""
Camera geometry: vehicle coordinates in and out of the image
============================================================

The vehicle frame is x-forward / y-left / z-up; the camera looks down +x.
This walks a point through projection, shows what falls outside the image,
and inverts a pixel + depth back into the vehicle frame.
"""

import numpy as np

from fusetrack.geometry import CameraModel, image_to_vehicle, project_points

# a forward camera with 1000 px focal length on an 800x448 image
cam = CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448)

# a point 20 m ahead, 2 m to the left, at sensor height
p = (20.0, 2.0, 0.0)
uv, depth, _ = project_points(p, cam)
u, v, d = uv[0, 0], uv[0, 1], depth[0]
print(f"vehicle {p} -> pixel ({u:.2f}, {v:.2f}) depth {d:.2f} m")

# the same point mirrored to the right lands symmetrically about cx
q = (20.0, -2.0, 0.0)
print(f"vehicle {q} -> pixel ({project_points(q, cam)[0][0, 0]:.2f}, ...)")

# one call projects many points and keeps row alignment: points behind the
# camera get NaN, and points off the sensor are flagged, not dropped
pts = np.array([[20.0, 2.0, 0.0], [-5.0, 0.0, 0.0], [2.0, 30.0, 0.0], [40.0, -1.0, 1.0]])
uv, depths, in_image = project_points(pts, cam)
for row, (pu, pv), pd, ok in zip(pts, uv, depths, in_image):
    print(f"  {row} -> ({pu:7.2f}, {pv:7.2f}) depth {pd:6.2f} in image={bool(ok)}")

# inverting a pixel at a known depth recovers the vehicle point exactly
back = image_to_vehicle(u, v, d, cam)
print("round trip error:", np.abs(back - np.asarray(p)).max())

# one pixel at several depths: points on the ray from the camera center
ray = image_to_vehicle(np.full(3, 400.0), np.full(3, 224.0), np.array([5.0, 10.0, 20.0]), cam)
print("principal-point ray at 5, 10, 20 m (along +x):")
print(np.round(ray - cam.center, 6))
