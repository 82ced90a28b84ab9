import math

import numpy as np
import pytest

from symvo.errors import BehindCameraError, InvalidDepthError
from symvo.geometry import (
    CameraIntrinsics,
    Pose,
    backproject,
    deformation_gradient,
    isotropic_scale,
    parallax_angles,
    project,
    quaternion_to_rotation,
    reproject,
    rotation_to_quaternion,
    so3_exp,
    so3_log,
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
            assert np.allclose(project((0, 0, z), CAM), (320.0, 240.0))

    def test_hand_evaluated_pinhole(self):
        assert np.allclose(project((1, 0, 2), CAM), (570.0, 240.0))

    def test_negative_depth_raises(self):
        with pytest.raises(BehindCameraError):
            project((0, 0, -1.0), CAM)

    def test_backproject_principal_point(self):
        assert np.allclose(backproject((320, 240), 5.0, CAM), (0, 0, 5))

    def test_backproject_inverts_projection_example(self):
        assert np.allclose(backproject((570, 240), 2.0, CAM), (1, 0, 2))

    def test_backproject_rejects_nonpositive_depth(self):
        with pytest.raises(InvalidDepthError):
            backproject((320, 240), 0.0, CAM)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            cam = random_intrinsics(rng)
            uv = np.array([rng.uniform(0, cam.width), rng.uniform(0, cam.height)])
            z = rng.uniform(0.1, 50.0)
            assert np.allclose(project(backproject(uv, z, cam), cam), uv, atol=1e-9)


class TestReproject:
    def test_identity_transform_is_identity_map(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            uv = rng.uniform((0, 0), (640, 480))
            z = rng.uniform(0.5, 30)
            assert np.allclose(reproject(uv, z, Pose.identity(), CAM), uv, atol=1e-9)

    def test_axis_point_fixed_under_forward_translation(self):
        rel = Pose(np.eye(3), (0, 0, 3.0))
        assert np.allclose(reproject((320, 240), 5.0, rel, CAM), (320, 240))

    def test_hand_evaluated_forward_translation(self):
        rel = Pose(np.eye(3), (0, 0, 1.0))
        uv = reproject((570, 240), 2.0, rel, CAM)
        # backprojects to (1,0,2), shifts to (1,0,3), projects to 500/3+320
        assert np.allclose(uv, (486.67, 240.0), atol=0.01)

    def test_behind_camera_raises(self):
        rel = Pose(np.eye(3), (0, 0, -10.0))
        with pytest.raises(BehindCameraError):
            reproject((320, 240), 2.0, rel, CAM)


class TestDeformationGradient:
    def test_identity_rel_gives_identity(self):
        M = deformation_gradient((100.0, 77.0), 4.0, Pose.identity(), CAM)
        assert np.allclose(M, np.eye(2), atol=1e-12)

    def test_pure_forward_on_axis_is_isotropic(self):
        z, t = 4.0, 2.0
        M = deformation_gradient((320, 240), z, Pose(np.eye(3), (0, 0, t)), CAM)
        assert np.allclose(M, (z / (z + t)) * np.eye(2), atol=1e-12)
        assert isotropic_scale(M) == pytest.approx(z / (z + t), abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-4
        for _ in range(200):
            cam = random_intrinsics(rng)
            rel = random_pose(rng, rot_scale=0.2, trans_scale=1.0)
            uv = np.array([rng.uniform(100, 540), rng.uniform(100, 380)])
            z = rng.uniform(3.0, 40.0)
            try:
                M = deformation_gradient(uv, z, rel, cam)
            except BehindCameraError:
                continue
            fd = np.zeros((2, 2))
            for k in range(2):
                d = np.zeros(2)
                d[k] = h
                fd[:, k] = (
                    reproject(uv + d, z, rel, cam) - reproject(uv - d, z, rel, cam)
                ) / (2 * h)
            assert np.allclose(M, fd, rtol=1e-4, atol=1e-7)

    def test_scalarization_methods(self):
        M = np.diag([0.5, 0.5])
        assert isotropic_scale(M, "det") == pytest.approx(0.5)
        assert isotropic_scale(M, "opnorm") == pytest.approx(0.5)
        assert isotropic_scale(M, "trace") == pytest.approx(0.5)
        with pytest.raises(ValueError):
            isotropic_scale(M, "nope")


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
    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            w = rng.normal(size=3) * rng.uniform(0, 3)
            R = so3_exp(w)
            w_back = so3_log(R)
            # log returns the principal value, so compare rotations
            assert np.linalg.norm(w_back) <= math.pi + 1e-9
            assert np.allclose(so3_exp(w_back), R, atol=1e-7)

    def test_log_recovers_vectors_below_pi(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            axis = rng.normal(size=3)
            w = axis / np.linalg.norm(axis) * rng.uniform(0, 3.0)
            assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-9)

    def test_quaternion_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            R = so3_exp(rng.normal(size=3) * rng.uniform(0, 3))
            assert np.allclose(quaternion_to_rotation(rotation_to_quaternion(R)), R,
                               atol=1e-12)
