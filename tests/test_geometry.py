import math
import warnings

import numpy as np
import pytest

from symvo.geometry import (
    IN_FRONT_DEPTH,
    CameraIntrinsics,
    Pose,
    parallax_angles,
    pinhole,
    quaternion_to_rotation,
    rotation_to_quaternion,
    so3_exp,
    unit_ray,
)

CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def random_intrinsics(rng):
    fx = rng.uniform(300, 900)
    fy = rng.uniform(300, 900)
    return CameraIntrinsics(
        fx=fx, fy=fy, cx=rng.uniform(250, 400), cy=rng.uniform(180, 300),
        width=640, height=480,
    )


def random_pose(rng, rot_scale=0.5, trans_scale=2.0):
    return Pose(so3_exp(rng.normal(scale=rot_scale, size=3)),
                rng.normal(scale=trans_scale, size=3))


class TestProjection:
    def test_optical_axis_maps_to_principal_point(self):
        for z in (0.1, 1.0, 57.0):
            uv, in_front = pinhole((0, 0, z), CAM)
            assert uv.tolist() == [320.0, 240.0] and in_front

    def test_hand_evaluated_pinhole(self):
        uv, in_front = pinhole([[1.0, 0.0, 2.0], [-0.5, 1.5, 5.0]], CAM)
        assert uv.tolist() == [[570.0, 240.0], [270.0, 390.0]]
        assert in_front.tolist() == [True, True]

    def test_rows_not_in_front_are_flagged_without_a_warning(self):
        q = [[1.0, 2.0, IN_FRONT_DEPTH], [1.0, 2.0, 0.0], [1.0, 2.0, -3.0],
             [1.0, 2.0, 2 * IN_FRONT_DEPTH]]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            uv, in_front = pinhole(q, CAM)
        assert in_front.tolist() == [False, False, False, True]
        # a row not in front is divided by depth 1: its pixel means nothing
        assert uv[:3].tolist() == [[820.0, 1240.0]] * 3
        assert np.isfinite(uv).all()

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            cam = random_intrinsics(rng)
            uv = np.array([rng.uniform(0, cam.width), rng.uniform(0, cam.height)])
            z = rng.uniform(0.1, 50.0)
            back, in_front = pinhole(unit_ray(uv, cam) * z, cam)
            assert in_front and np.allclose(back, uv, atol=1e-9)


class TestParallax:
    def test_identical_rays(self):
        assert parallax_angles((1, 2, 3), (1, 2, 3)) == 0.0

    def test_perpendicular_rays(self):
        assert parallax_angles((1, 0, 1), (-1, 0, 1)) == pytest.approx(math.pi / 2)

    def test_antipodal_rays(self):
        assert parallax_angles((0, 1, 0), (0, -1, 0)) == pytest.approx(math.pi)

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.normal(size=3), rng.normal(size=3)
            s = rng.uniform(0.01, 100.0)
            assert parallax_angles(a, b) == pytest.approx(parallax_angles(b, a))
            assert parallax_angles(s * a, b) == pytest.approx(
                parallax_angles(a, b), abs=1e-9
            )


class TestRays:
    """World-frame viewing rays, as triangulation forms them."""

    @staticmethod
    def ray(uv, pose_wc):
        return unit_ray(np.asarray(uv, dtype=np.float64), CAM) @ pose_wc.rotation.T

    def test_principal_point_identity_pose(self):
        r = self.ray((320, 240), Pose.identity())
        assert np.allclose(r, (0, 0, 1))

    def test_rotated_pose(self):
        pose = Pose.from_axis_angle((0, math.pi / 2, 0))
        r = self.ray((320, 240), pose)
        assert np.allclose(r, (1, 0, 0), atol=1e-9)

    def test_parallax_unchanged_by_ray_scaling(self):
        r1 = self.ray((400, 200), Pose.identity())
        r2 = self.ray((250, 300), Pose.identity())
        assert parallax_angles(3.7 * r1, r2) == pytest.approx(parallax_angles(r1, r2))


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pose = random_pose(rng)
            back = pose.compose(pose.inverse())
            assert np.allclose(back.rotation, np.eye(3), atol=1e-9)
            assert np.allclose(back.translation, 0, atol=1e-9)

    def test_composition_associative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            assert np.allclose(left.rotation, right.rotation, atol=1e-9)
            assert np.allclose(left.translation, right.translation, atol=1e-9)

    def test_apply_matches_matrix_form(self):
        rng = np.random.default_rng(6)
        pose = random_pose(rng)
        pts = rng.normal(size=(50, 3))
        assert np.allclose(pose.apply(pts), pts @ pose.rotation.T + pose.translation)

    def test_immutable(self):
        pose = Pose.identity()
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0


class TestRotationConversions:
    def test_quaternion_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            R = so3_exp(rng.normal(size=3) * rng.uniform(0, 3))
            assert np.allclose(quaternion_to_rotation(rotation_to_quaternion(R)), R,
                               atol=1e-12)
