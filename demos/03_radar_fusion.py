"""
Radar-camera fusion: pillars, frustums, and depth repair
========================================================

Radar returns are expanded into vertical pillars, each camera detection
opens a frustum (its image box swept through a +-25% depth window), and
the nearest pillar inside the frustum donates its depth and velocity.
"""

from fusetrack.fusion import PillarDims, PreliminaryDetection, RadarPoint, expand_pillars, frustum_associate
from fusetrack.geometry import CameraModel, image_to_vehicle

cam = CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448)

# a camera detection: box around the principal point, monocular depth 20 m.
# monocular depth is the weak link; radar exists to overwrite it.
det = PreliminaryDetection(
    bbox2d=(370.0, 200.0, 430.0, 250.0), est_depth=20.0, class_id=0, confidence=0.9
)
tolerance = 0.25
print(f"frustum depth window: [{det.est_depth * (1 - tolerance):.1f}, {det.est_depth * (1 + tolerance):.1f}] m")

# three radar returns: one on target (truth 18.5 m), one on a neighbor
# lane, one far downrange outside the depth window
on_target = image_to_vehicle(400.0, 224.0, 18.5, cam)
neighbor = image_to_vehicle(700.0, 224.0, 19.0, cam)
downrange = image_to_vehicle(405.0, 220.0, 32.0, cam)
points = [
    RadarPoint(*map(float, on_target), vx=6.0, vy=0.1),
    RadarPoint(*map(float, neighbor), vx=-1.0, vy=0.0),
    RadarPoint(*map(float, downrange), vx=3.0, vy=0.0),
]

# pillars stretch each return vertically so height error cannot hide it
pillars = expand_pillars(points, PillarDims(width_y=0.5, height_z=1.5, depth_x=0.5))
print("pillars:", len(pillars))

[match] = frustum_associate([det], pillars, cam, depth_tolerance=tolerance)
print(f"matched pillar depth {match.depth:.3f} m, velocity ({match.vx}, {match.vy})")
print(f"monocular estimate was {det.est_depth} m, radar corrected it")

# with two candidates inside the window the closer return wins
near = image_to_vehicle(400.0, 224.0, 17.0, cam)
far = image_to_vehicle(400.0, 224.0, 23.0, cam)
pair = expand_pillars(
    [RadarPoint(*map(float, far), vx=9.0, vy=0.0), RadarPoint(*map(float, near), vx=4.0, vy=0.0)],
    PillarDims(),
)
[winner] = frustum_associate([det], pair, cam, tolerance)
print(f"two in-window returns: kept vx={winner.vx} at {winner.depth:.2f} m (the closer one)")

# detections with no pillar in their frustum simply keep their estimate
lonely = PreliminaryDetection((50.0, 50.0, 90.0, 90.0), est_depth=40.0, class_id=0, confidence=0.5)
print("no radar in frustum ->", frustum_associate([lonely], pillars, cam, tolerance)[0])
