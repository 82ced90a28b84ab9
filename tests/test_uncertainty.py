import numpy as np
import pytest

from symvo.errors import BehindCameraError
from symvo.geometry import CameraIntrinsics, Pose, backproject, project, so3_exp
from symvo.optimizer import OBSERVATION, OptimizationProblem, evaluate_cost
from symvo.uncertainty import (
    CovarianceModel,
    KeypointNoise,
    ResidualTerm,
    alpha_curves,
    alpha_standard,
    alpha_symmetric,
    huber_rho,
    huber_weight,
    residual_standard,
    residual_symmetric,
)

CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
NOISE = KeypointNoise(1.0, 0)


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

        def pinhole(p):
            return np.array([500 * p[0] / p[2] + 320, 500 * p[1] / p[2] + 240])

        def lift(uv, z):
            return np.array([(uv[0] - 320) * z / 500, (uv[1] - 240) * z / 500, z])

        r_f = u_i_obs - pinhole(rel.rotation @ lift(u_j, p_j[2]) + rel.translation)
        inv = rel.inverse()
        r_b = u_j - pinhole(inv.rotation @ lift(u_i_obs, p_i[2]) + inv.translation)
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


class TestHuber:
    def test_zero_residual(self):
        assert huber_weight(0.0, 2.0) == 1.0

    def test_kernel_boundary(self):
        assert huber_weight(4.0, 2.0) == 1.0

    def test_outside_kernel(self):
        assert huber_weight(16.0, 2.0) == pytest.approx(0.5)

    def test_continuous_and_non_increasing(self):
        m2 = np.linspace(0.0, 50.0, 2001)
        w = huber_weight(m2, 2.447)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(np.diff(w))) < 0.01

    def test_rho_matches_weight_regions(self):
        assert huber_rho(1.0, 2.0) == 1.0
        assert huber_rho(16.0, 2.0) == pytest.approx(2 * 2 * 4 - 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            huber_weight(-1.0, 2.0)


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
        from symvo.uncertainty import write_alpha_curves

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
