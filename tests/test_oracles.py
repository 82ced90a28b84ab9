"""Tests of the reference code in ``oracles.py`` that the program does not
call: scalar descriptors, the raising projections and ``so3_log``, the
residual models one observation at a time (cross-checked against
``optimizer.evaluate_cost``), and the covariance-ratio analysis."""

import itertools
import math

import numpy as np
import pytest

from symvo.errors import DescriptorMismatchError
from symvo.geometry import CameraIntrinsics, Pose, pinhole, so3_exp
from symvo.optimizer import (
    OBSERVATION,
    CovarianceModel,
    OptimizationProblem,
    evaluate_cost,
)

from oracles import (
    BehindCameraError,
    Descriptor,
    InvalidDepthError,
    KeypointNoise,
    ResidualTerm,
    alpha_curves,
    alpha_standard,
    alpha_symmetric,
    backproject,
    deformation_gradient,
    hamming,
    isotropic_scale,
    project,
    reproject,
    residual_standard,
    residual_symmetric,
    so3_log,
    write_alpha_curves,
)
from test_geometry import random_intrinsics, random_pose

CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
NOISE = KeypointNoise(1.0, 0)


class TestHamming:
    def test_self_distance_zero(self):
        d = Descriptor.random(np.random.default_rng(0))
        assert hamming(d, d) == 0

    def test_complement_distance_is_length(self):
        d = Descriptor.random(np.random.default_rng(1))
        comp = Descriptor(bytes(b ^ 0xFF for b in d.bits))
        assert hamming(d, comp) == d.n_bits

    def test_hand_evaluated_byte(self):
        # xor is 0b00101000: bits 2 and 4 differ
        a = Descriptor(bytes([0b10110010]))
        b = Descriptor(bytes([0b10011010]))
        assert hamming(a, b) == 2
        assert hamming(a, Descriptor(bytes([0b10011011]))) == 3

    def test_length_mismatch_raises(self):
        with pytest.raises(DescriptorMismatchError):
            hamming(Descriptor(b"\x00"), Descriptor(b"\x00\x00"))

    def test_metric_properties(self):
        rng = np.random.default_rng(2)
        ds = [Descriptor.random(rng) for _ in range(12)]
        for a, b, c in itertools.combinations(ds, 3):
            assert hamming(a, b) == hamming(b, a)
            assert hamming(a, a) == 0
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestProjection:
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

    def test_agrees_with_pinhole_in_front(self):
        rng = np.random.default_rng(18)
        q = rng.normal(size=(200, 3)) * (4.0, 3.0, 1.0) + (0.0, 0.0, 6.0)
        uv, in_front = pinhole(q, CAM)
        assert in_front.all()
        assert project(q, CAM).tobytes() == uv.tobytes()


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


class TestSo3Log:
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


def two_view_setup(rng):
    """A random world point seen by two cameras, both depths positive."""
    while True:
        rel = Pose(so3_exp(rng.normal(scale=0.3, size=3)), rng.normal(scale=1.5, size=3))
        p_j = np.array([rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(4, 30)])
        p_i = rel.apply(p_j)
        if p_i[2] <= 0.5:
            continue
        u_j = project(p_j, CAM)
        u_i = project(p_i, CAM)
        if not (CAM.contains(u_j) and CAM.contains(u_i)):
            continue
        return rel, p_j, p_i, u_j, u_i


class TestResidualStandard:
    def test_perfect_observation_has_zero_residual(self):
        rng = np.random.default_rng(10)
        rel, p_j, p_i, u_j, u_i = two_view_setup(rng)
        term = residual_standard(u_i, u_j, p_j[2], rel, CAM, NOISE)
        assert np.allclose(term.r_forward, 0, atol=1e-9)
        assert np.allclose(term.r_backward, 0)

    def test_one_pixel_offset_mahalanobis(self):
        term = residual_standard((321, 240), (320, 240), 5.0, Pose.identity(), CAM, NOISE)
        assert term.mahalanobis2_forward == pytest.approx(0.5)

    def test_identity_rel_same_point(self):
        term = residual_standard((100, 50), (100, 50), 3.0, Pose.identity(), CAM, NOISE)
        assert np.allclose(term.r_forward, 0)

    def test_variance_is_twice_keypoint_variance(self):
        noise = KeypointNoise(2.5, 3)
        term = residual_standard((320, 240), (320, 240), 5.0, Pose.identity(), CAM, noise)
        assert term.sigma2_i == pytest.approx(5.0)


class TestResidualSymmetric:
    def test_perfect_geometry_both_zero(self):
        rng = np.random.default_rng(11)
        rel, p_j, p_i, u_j, u_i = two_view_setup(rng)
        term = residual_symmetric(u_i, u_j, p_j[2], p_i[2], rel, CAM, NOISE, NOISE)
        assert np.allclose(term.r_forward, 0, atol=1e-9)
        assert np.allclose(term.r_backward, 0, atol=1e-9)

    def test_role_exchange_preserves_total_cost(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            rel, p_j, p_i, u_j, u_i = two_view_setup(rng)
            n_i = KeypointNoise(rng.uniform(0.5, 4.0))
            n_j = KeypointNoise(rng.uniform(0.5, 4.0))
            du_i = rng.normal(scale=1.0, size=2)
            du_j = rng.normal(scale=1.0, size=2)
            fwd = residual_symmetric(u_i + du_i, u_j + du_j, p_j[2], p_i[2],
                                     rel, CAM, n_i, n_j)
            bwd = residual_symmetric(u_j + du_j, u_i + du_i, p_i[2], p_j[2],
                                     rel.inverse(), CAM, n_j, n_i)
            assert fwd.total_cost == pytest.approx(bwd.total_cost, rel=1e-12)

    def test_matches_direct_formula_evaluation(self):
        # brute-force: evaluate the two Mahalanobis terms straight from the
        # projection formulas with injected 1-px noise
        rng = np.random.default_rng(13)
        rel, p_j, p_i, u_j, u_i = two_view_setup(rng)
        u_i_obs = u_i + np.array([1.0, 0.0])
        n_i, n_j = KeypointNoise(1.0), KeypointNoise(2.0)
        term = residual_symmetric(u_i_obs, u_j, p_j[2], p_i[2], rel, CAM, n_i, n_j)

        def to_pixel(p):
            return np.array([500 * p[0] / p[2] + 320, 500 * p[1] / p[2] + 240])

        def lift(uv, z):
            return np.array([(uv[0] - 320) * z / 500, (uv[1] - 240) * z / 500, z])

        r_f = u_i_obs - to_pixel(rel.rotation @ lift(u_j, p_j[2]) + rel.translation)
        inv = rel.inverse()
        r_b = u_j - to_pixel(inv.rotation @ lift(u_i_obs, p_i[2]) + inv.translation)
        expected = r_f @ r_f / 2.0 + r_b @ r_b / 4.0
        assert term.total_cost == pytest.approx(expected, rel=1e-12)

    def test_behind_camera_error_names_direction(self):
        rel = Pose(np.eye(3), (0, 0, -30.0))
        with pytest.raises(BehindCameraError) as exc:
            residual_symmetric((320, 240), (320, 240), 2.0, 2.0, rel, CAM, NOISE, NOISE)
        assert exc.value.direction == "forward"


class TestOptimizerCrossCheck:
    def test_symmetric_residual_matches_optimizer_cost(self):
        # view j is the world frame and the point's reference view; the
        # point sits on the reference ray at z_j, so the forward terms agree
        rng = np.random.default_rng(14)
        for _ in range(200):
            rel, p_j, p_i, u_j, u_i = two_view_setup(rng)
            u_j_obs = u_j + rng.normal(scale=1.0, size=2)
            u_i_obs = u_i + rng.normal(scale=1.0, size=2)
            n_i = KeypointNoise(rng.uniform(0.5, 4.0))
            n_j = KeypointNoise(rng.uniform(0.5, 4.0))
            point = backproject(u_j_obs, p_j[2], CAM)
            z_i = rel.apply(point)[2]
            term = residual_symmetric(u_i_obs, u_j_obs, p_j[2], z_i, rel, CAM,
                                      n_i, n_j)
            problem = OptimizationProblem(
                cam=CAM, poses={1: Pose.identity(), 2: rel.inverse()},
                points={7: point},
                observations=np.array([(
                    7, 2, u_i_obs, 2.0 * n_i.sigma2,
                    1, u_j_obs, 2.0 * n_j.sigma2,
                )], dtype=OBSERVATION),
                model=CovarianceModel.SYMMETRIC,
            )
            report = evaluate_cost(problem)
            for per_row in (report.m2_forward, report.m2_backward,
                            report.behind_camera):
                assert per_row.shape == (1,)
            assert not report.behind_camera.any()
            assert report.m2_backward[0] == pytest.approx(
                term.mahalanobis2_backward, rel=1e-9, abs=1e-12)
            assert report.m2_forward[0] == pytest.approx(
                term.mahalanobis2_forward, rel=1e-9, abs=1e-12)


class TestAlphaRatios:
    def test_alpha_standard_identity(self):
        assert alpha_standard(1.0) == 1.0

    def test_alpha_standard_hand_value(self):
        assert alpha_standard(np.sqrt(3.0)) == pytest.approx(0.5)

    def test_alpha_standard_limit(self):
        assert alpha_standard(1e-9) == pytest.approx(2.0)

    def test_alpha_symmetric_identity(self):
        assert alpha_symmetric(1.0, 1.0) == 1.0

    def test_alpha_symmetric_hand_value(self):
        assert alpha_symmetric(2.0, 0.5) == pytest.approx(4.0 / 6.25)

    def test_alpha_symmetric_reciprocal_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            e = rng.uniform(0.1, 10.0)
            assert alpha_symmetric(e, 1 / e) == pytest.approx(
                alpha_symmetric(1 / e, e), rel=1e-12
            )

    def test_standard_is_asymmetric_for_eps_not_one(self):
        assert alpha_standard(2.0) != pytest.approx(alpha_standard(0.5))


class TestAlphaCurves:
    def test_center_column_is_unity(self):
        table = alpha_curves()
        mid = table[len(table) // 2]
        assert mid[0] == 1.0 and mid[1] == 1.0 and mid[2] == 1.0

    def test_standard_crosses_one_only_at_unity(self):
        table = alpha_curves()
        off = table[table[:, 0] != 1.0]
        assert np.all(np.abs(off[:, 1] - 1.0) > 0)

    def test_symmetric_dominates_standard_away_from_unity(self):
        table = alpha_curves()
        off = table[table[:, 0] != 1.0]
        assert np.all(np.abs(off[:, 2] - 1.0) < np.abs(off[:, 1] - 1.0))

    def test_csv_emission(self, tmp_path):
        path = tmp_path / "alpha.csv"
        table = write_alpha_curves(path, resolution=11)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,alpha_standard,alpha_symmetric"
        assert len(lines) == 12
        first = np.array([float(x) for x in lines[1].split(",")])
        assert np.allclose(first, table[0])


class TestResidualTermInvariants:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            ResidualTerm(np.zeros(2), np.zeros(2), 0.0, 1.0)

    def test_standard_cost_reversal_asymmetry_witness(self):
        # pure forward motion with eps = 2: halving the depth doubles image
        # scale, so the same pixel perturbation costs 4x more in one
        # direction than the other under the standard normalization.
        z_j = 4.0
        rel = Pose(np.eye(3), (0, 0, -z_j / 2))  # camera advances, eps = 2
        p_j = np.array([0.4, 0.1, z_j])
        u_j = project(p_j, CAM)
        p_i = rel.apply(p_j)
        u_i = project(p_i, CAM)
        delta = np.array([1.0, 0.0])
        fwd = residual_standard(u_i + delta, u_j, z_j, rel, CAM, NOISE)
        bwd = residual_standard(u_j, u_i + delta, p_i[2], rel.inverse(), CAM, NOISE)
        ratio = bwd.mahalanobis2_forward / fwd.mahalanobis2_forward
        assert ratio >= 2.0 or 1.0 / ratio >= 2.0
