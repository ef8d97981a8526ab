"""Camera model tests.

The reference implementation used for cross-checking is the classic 3x4
homogeneous projection matrix P = K @ [R | t]; the library code never builds
that matrix, so agreement is a real consistency check rather than the same
arithmetic twice.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np
import pytest

from fusetrack.geometry import CameraModel, image_to_vehicle, project_points


def _default_camera(**kwargs) -> CameraModel:
    return CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448, **kwargs)


def _random_rotation(rng) -> np.ndarray:
    # QR of a random matrix, sign-fixed to a proper rotation.
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _random_camera(rng) -> CameraModel:
    width, height = 800, 448
    return CameraModel(
        fx=rng.uniform(300, 1500),
        fy=rng.uniform(300, 1500),
        cx=rng.uniform(100, width - 100),
        cy=rng.uniform(50, height - 50),
        rotation=_random_rotation(rng),
        translation=rng.uniform(-5, 5, size=3),
        image_width=width,
        image_height=height,
    )


def _project_homogeneous(point, camera):
    """Reference projection through the homogeneous matrix K @ [R | t]."""
    k = np.array(
        [
            [camera.fx, 0.0, camera.cx],
            [0.0, camera.fy, camera.cy],
            [0.0, 0.0, 1.0],
        ]
    )
    rt = np.hstack([camera.rotation, camera.translation.reshape(3, 1)])
    x = k @ rt @ np.append(np.asarray(point, dtype=float), 1.0)
    if x[2] <= 0:
        return None
    return x[0] / x[2], x[1] / x[2], x[2]


def _project_one(point, camera):
    """(u, v, depth, in_image) of a single point through project_points."""
    uv, depth, in_image = project_points(point, camera)
    return uv[0, 0], uv[0, 1], depth[0], bool(in_image[0])


def test_forward_camera_centerline_point():
    cam = _default_camera()
    u, v, depth, visible = _project_one((10.0, 0.0, 0.0), cam)
    assert visible
    assert u == pytest.approx(400.0, abs=1e-12)
    assert v == pytest.approx(224.0, abs=1e-12)
    assert depth == pytest.approx(10.0, abs=1e-12)


def test_forward_camera_point_to_the_left_moves_image_left():
    # 1 m to the left at 10 m: u = 400 - 1000 * (1 / 10) = 300.
    cam = _default_camera()
    u, v, _, visible = _project_one((10.0, 1.0, 0.0), cam)
    assert visible
    assert u == pytest.approx(300.0, abs=1e-12)
    assert v == pytest.approx(224.0, abs=1e-12)


def test_projection_matches_homogeneous_reference():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(50):
        cam = _random_camera(rng)
        points = rng.uniform(-40, 40, size=(10, 3))
        uv, depth, in_image = project_points(points, cam)
        for i, point in enumerate(points):
            expected = _project_homogeneous(point, cam)
            if expected is None:
                assert np.isnan(uv[i]).all() and math.isnan(depth[i]) and not in_image[i]
                continue
            assert uv[i, 0] == pytest.approx(expected[0], rel=1e-12, abs=1e-9)
            assert uv[i, 1] == pytest.approx(expected[1], rel=1e-12, abs=1e-9)
            assert depth[i] == pytest.approx(expected[2], rel=1e-12, abs=1e-9)
            visible = 0 <= expected[0] <= cam.image_width and 0 <= expected[1] <= cam.image_height
            assert in_image[i] == visible
            checked += 1
    assert checked > 100


def test_point_behind_camera_is_nan():
    cam = _default_camera()
    # Behind the camera, then exactly on the camera plane: neither projects.
    uv, depth, in_image = project_points([(-5.0, 0.0, 0.0), (0.0, 1.0, 0.0)], cam)
    assert np.isnan(uv).all()
    assert np.isnan(depth).all()
    assert not in_image.any()


def test_image_bounds_are_closed():
    cam = _default_camera()
    # u = 400 - 1000 * y / 10 = 0  =>  y = 4.
    u, _, _, on_border = _project_one((10.0, 4.0, 0.0), cam)
    assert on_border
    assert u == pytest.approx(0.0, abs=1e-12)
    assert not _project_one((10.0, 4.01, 0.0), cam)[3]


def test_backprojected_ray_direction():
    # Pixel (300, 224) looks 0.1 rad-ish left: every depth lands on the ray
    # from the camera center along (1, 0.1, 0).
    cam = _default_camera(position=(1.5, -0.3, 1.6))
    depths = np.array([0.5, 3.0, 10.0, 40.0])
    points = image_to_vehicle(np.full(4, 300.0), np.full(4, 224.0), depths, cam)
    offsets = points - cam.center
    expected = np.array([1.0, 0.1, 0.0]) / math.sqrt(1.01)
    np.testing.assert_allclose(offsets / np.linalg.norm(offsets, axis=1)[:, None], np.tile(expected, (4, 1)), atol=1e-12)
    # Camera-axis depth is the forward distance here, so the range grows
    # by the same factor as the depth.
    np.testing.assert_allclose(np.linalg.norm(offsets, axis=1), depths * math.sqrt(1.01), rtol=1e-12)


def test_ray_points_project_back_to_the_pixel():
    # One pixel back-projected at several depths: the points are collinear
    # with the camera center and all project back onto the pixel.
    rng = np.random.default_rng(11)
    depths = np.array([0.5, 3.0, 40.0])
    for _ in range(200):
        cam = _random_camera(rng)
        u = rng.uniform(0, cam.image_width)
        v = rng.uniform(0, cam.image_height)
        points = image_to_vehicle(np.full(3, u), np.full(3, v), depths, cam)
        offsets = points - cam.center
        direction = offsets[0] / np.linalg.norm(offsets[0])
        for offset in offsets[1:]:
            assert np.linalg.norm(np.cross(direction, offset)) <= 1e-9 * np.linalg.norm(offset)
            assert direction @ offset > 0
        uv, depth, in_image = project_points(points, cam)
        assert np.abs(uv - (u, v)).max() <= 1e-6
        np.testing.assert_allclose(depth, depths, rtol=1e-9)


def test_pixel_depth_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        cam = _random_camera(rng)
        u = rng.uniform(0, cam.image_width, 10)
        v = rng.uniform(0, cam.image_height, 10)
        depth = rng.uniform(0.5, 80.0, 10)
        uv, got_depth, in_image = project_points(image_to_vehicle(u, v, depth, cam), cam)
        assert in_image.all()
        assert np.abs(uv[:, 0] - u).max() <= 1e-6
        assert np.abs(uv[:, 1] - v).max() <= 1e-6
        np.testing.assert_allclose(got_depth, depth, rtol=1e-9)


def test_back_projection_rejects_non_positive_depth():
    cam = _default_camera()
    for depth in (0.0, -1.0, np.array([5.0, 0.0])):
        with pytest.raises(ValueError, match="depth must be positive"):
            image_to_vehicle(np.full(np.size(depth), 400.0), np.full(np.size(depth), 224.0), depth, cam)


def test_batch_projection_matches_scalar():
    # Whole batches give the same bits as one point or one pixel at a time,
    # and a scalar back-projection is a (3,) point.
    rng = np.random.default_rng(17)
    cam = _random_camera(rng)
    pts = rng.uniform(-30, 60, size=(300, 3))
    uv, depth, in_image = project_points(pts, cam)
    for i, p in enumerate(pts):
        one_uv, one_depth, one_in = project_points(p, cam)
        np.testing.assert_array_equal(one_uv[0], uv[i])
        np.testing.assert_array_equal(one_depth[0], depth[i])
        assert one_in[0] == in_image[i]
    u, v, d = rng.uniform(0, 800, 300), rng.uniform(0, 448, 300), rng.uniform(0.5, 80, 300)
    batch = image_to_vehicle(u, v, d, cam)
    for i in range(300):
        point = image_to_vehicle(float(u[i]), float(v[i]), float(d[i]), cam)
        assert point.shape == (3,)
        np.testing.assert_array_equal(point, batch[i])


def test_rotation_stays_orthonormal_under_composition():
    rng = np.random.default_rng(19)
    rotation = np.eye(3)
    for _ in range(50):
        rotation = _random_rotation(rng) @ rotation
    # Constructing a camera revalidates orthonormality at 1e-9.
    cam = CameraModel(800.0, 800.0, 320.0, 240.0, rotation, np.zeros(3), 640, 480)
    err = np.abs(cam.rotation.T @ cam.rotation - np.eye(3)).max()
    assert err <= 1e-9


def test_invalid_cameras_are_rejected():
    good = dict(
        fx=1000.0, fy=1000.0, cx=400.0, cy=224.0,
        rotation=np.eye(3), translation=np.zeros(3),
        image_width=800, image_height=448,
    )
    with pytest.raises(ValueError):
        CameraModel(**{**good, "fx": 0.0})
    with pytest.raises(ValueError):
        CameraModel(**{**good, "cx": 800.0})
    with pytest.raises(ValueError):
        CameraModel(**{**good, "cy": -1.0})
    skewed = np.eye(3)
    skewed[0, 1] = 1e-6
    with pytest.raises(ValueError):
        CameraModel(**{**good, "rotation": skewed})
    with pytest.raises(ValueError):
        CameraModel(**{**good, "translation": np.array([np.nan, 0.0, 0.0])})


def test_camera_dict_round_trip():
    cam = _default_camera(position=(0.2, -0.1, 1.4), yaw=0.05)
    clone = CameraModel.from_dict(cam.to_dict())
    np.testing.assert_allclose(clone.rotation, cam.rotation, atol=0)
    np.testing.assert_allclose(clone.translation, cam.translation, atol=0)
    assert (clone.fx, clone.fy, clone.cx, clone.cy) == (cam.fx, cam.fy, cam.cx, cam.cy)
    assert (clone.image_width, clone.image_height) == (cam.image_width, cam.image_height)


def test_numpy_floor_covers_matvec():
    """project_points calls np.matvec, which numpy added in 2.2; the
    declared dependency must not admit an older numpy."""
    pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")
    with open(pyproject) as fh:
        floor = re.search(r'"numpy>=(\d+)\.(\d+)', fh.read())
    assert floor is not None
    assert (int(floor.group(1)), int(floor.group(2))) >= (2, 2)
    assert hasattr(np, "matvec")
