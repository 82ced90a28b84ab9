import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvo import optimizer
from symvo.errors import DegenerateProblemError
from symvo.geometry import CameraIntrinsics, Pose, so3_exp
from symvo.optimizer import (
    HUBER_DELTA,
    OBSERVATION,
    CovarianceModel,
    OptimizationProblem,
    OutlierMode,
    _build_normal_equations,
    _evaluate,
    _inverse_3x3,
    _retract,
    _solve_step,
    _term_jacobians,
    evaluate_cost,
    huber_rho,
    huber_weight,
    local_bundle_adjustment,
    optimize_pose,
    solve_problem,
)

from oracles import (
    per_term_normal_equations,
    project,
    reference_normal_equations,
    reference_solve_step,
)

CAM = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)

STANDARD = CovarianceModel.STANDARD
SYMMETRIC = CovarianceModel.SYMMETRIC


def make_scene(rng, n_poses=4, n_points=30, spacing=0.6):
    """Cameras advancing along +z watching a landmark cloud ahead."""
    poses = {}
    for k in range(1, n_poses + 1):
        poses[k] = Pose(np.eye(3), np.array([0.0, 0.0, (k - 1) * spacing]))
    points = {}
    pid = 1
    while len(points) < n_points:
        p = np.array([
            rng.uniform(-4, 4), rng.uniform(-3, 3),
            rng.uniform(n_poses * spacing + 3, n_poses * spacing + 25),
        ])
        ok = True
        for pose in poses.values():
            q = pose.inverse().apply(p)
            if q[2] < 0.5 or not CAM.contains(project(q, CAM)):
                ok = False
                break
        if ok:
            points[pid] = p
            pid += 1
    return poses, points


def reference_row(pid, kf_id, uv, sigma2):
    """The OBSERVATION row of a point's reference view: no backward term."""
    return (pid, kf_id, uv, sigma2, kf_id, uv, sigma2)


def make_observations(poses, points, model, noise=0.0, rng=None,
                      sigma2=1.0):
    """Perfect or noisy measurements; reference = lowest observing kf."""
    rows = []
    ref_kf = min(poses)
    for pid in sorted(points):
        for kf_id in sorted(poses):
            uv = project(poses[kf_id].inverse().apply(points[pid]), CAM)
            if noise and rng is not None:
                uv = uv + rng.normal(scale=noise, size=2)
            if kf_id == ref_kf:
                rows.append(reference_row(pid, kf_id, uv, 2.0 * sigma2))
            else:
                ref_uv = project(poses[ref_kf].inverse().apply(points[pid]), CAM)
                if noise and rng is not None:
                    ref_uv = ref_uv + rng.normal(scale=noise, size=2)
                rows.append((pid, kf_id, uv, 2.0 * sigma2, ref_kf, ref_uv,
                             2.0 * sigma2))
    return np.array(rows, dtype=OBSERVATION)


def perturbed(poses, points, rng, rot=0.02, trans=0.02, pt=0.05, skip=()):
    new_poses = {}
    for k, pose in poses.items():
        if k in skip:
            new_poses[k] = pose
        else:
            new_poses[k] = Pose(
                so3_exp(rng.normal(scale=rot, size=3)) @ pose.rotation,
                pose.translation + rng.normal(scale=trans, size=3),
            )
    new_points = {
        p: pos + rng.normal(scale=pt, size=3) for p, pos in points.items()
    }
    return new_poses, new_points


class TestJacobians:
    """Analytic residual Jacobians vs central finite differences."""

    @pytest.mark.parametrize("model", [STANDARD, SYMMETRIC],
                             ids=["standard", "symmetric"])
    def test_matches_finite_differences(self, model):
        rng = np.random.default_rng(42)
        h = 1e-6
        checked = 0
        while checked < 250:
            poses, points = make_scene(rng, n_poses=2, n_points=1)
            poses, points = perturbed(poses, points, rng, rot=0.3, trans=0.3,
                                      pt=0.3)
            terms = make_observations(poses, points, model)
            problem = OptimizationProblem(
                cam=CAM, poses=poses, points=points, observations=terms,
                model=model,
                variable_pose_ids=(2,), variable_point_ids=(1,),
            )
            state = problem.initial_state()
            ev = _evaluate(problem, state)
            if not (np.all(ev.valid_f) and np.all(ev.valid_b)):
                continue
            jac = _term_jacobians(problem, state, ev)

            def stack(st):
                e = _evaluate(problem, st)
                return np.concatenate([e.r_f.ravel(), e.r_b.ravel()])

            n_forward, n_backward = len(problem.observations), problem.b_fwd.size
            n_res = 2 * (n_forward + n_backward)
            J_fd = np.zeros((n_res, 9))
            for k in range(6):
                dp = np.zeros((1, 6))
                dp[0, k] = h
                plus = stack(_retract(problem, state, dp, np.zeros((1, 3))))
                minus = stack(_retract(problem, state, -dp, np.zeros((1, 3))))
                J_fd[:, k] = (plus - minus) / (2 * h)
            for k in range(3):
                dl = np.zeros((1, 3))
                dl[0, k] = h
                plus = stack(_retract(problem, state, np.zeros((1, 6)), dl))
                minus = stack(_retract(problem, state, np.zeros((1, 6)), -dl))
                J_fd[:, 6 + k] = (plus - minus) / (2 * h)

            J_an = np.zeros((n_res, 9))
            row = 0
            for i in range(n_forward):
                if problem.f_kf_var[i] >= 0:
                    J_an[row:row + 2, :6] = jac.f_pose[i]
                J_an[row:row + 2, 6:] = jac.f_pt[i]
                row += 2
            for b in range(n_backward):
                if problem.f_kf_var[problem.b_fwd[b]] >= 0:
                    J_an[row:row + 2, :6] += jac.b_pose_k[b]
                if problem.b_ref_var[b] >= 0:
                    J_an[row:row + 2, :6] += jac.b_pose_j[b]
                J_an[row:row + 2, 6:] = jac.b_pt[b]
                row += 2

            scale = np.maximum(np.abs(J_fd), 1.0)
            assert np.all(np.abs(J_an - J_fd) / scale < 1e-5)
            checked += 1


class TestOptimizePose:
    def test_recovers_ground_truth_from_perturbation(self):
        rng = np.random.default_rng(1)
        poses, points = make_scene(rng)
        truth = poses[4]
        for model in (STANDARD, SYMMETRIC):
            start = Pose(
                so3_exp(rng.normal(scale=0.05 / np.sqrt(3), size=3))
                @ truth.rotation,
                truth.translation + rng.normal(scale=0.05 / np.sqrt(3), size=3),
            )
            terms = make_observations(poses, points, model)
            terms = terms[terms["kf"] == 4]
            problem = OptimizationProblem(
                cam=CAM, poses={**poses, 4: start}, points=points,
                observations=terms, model=model,
                variable_pose_ids=(4,),
            )
            result = optimize_pose(problem)
            assert np.allclose(result.pose.translation, truth.translation,
                               atol=1e-6)
            assert np.allclose(result.pose.rotation, truth.rotation, atol=1e-6)
            assert result.inlier.shape == (len(terms),)
            assert result.inlier.all()

    def test_already_optimal_pose_is_fixed_point(self):
        rng = np.random.default_rng(2)
        poses, points = make_scene(rng)
        terms = make_observations(poses, points, STANDARD)
        terms = terms[terms["kf"] == 3]
        problem = OptimizationProblem(
            cam=CAM, poses=poses, points=points, observations=terms,
            model=STANDARD, variable_pose_ids=(3,),
        )
        result = optimize_pose(problem)
        assert result.cost == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(result.pose.rotation, poses[3].rotation, atol=1e-12)
        assert np.allclose(result.pose.translation, poses[3].translation, atol=1e-12)

    def test_robust_to_gross_outliers(self):
        rng = np.random.default_rng(3)
        poses, points = make_scene(rng, n_points=100)
        truth = poses[4]
        start = Pose(
            so3_exp(rng.normal(scale=0.02, size=3)) @ truth.rotation,
            truth.translation + rng.normal(scale=0.02, size=3),
        )
        base_terms = make_observations(poses, points, STANDARD, noise=1.0,
                                       rng=np.random.default_rng(7))
        base_terms = base_terms[base_terms["kf"] == 4]
        corrupt_rng = np.random.default_rng(8)
        corrupt = {
            int(pid) for pid in base_terms["point"] if corrupt_rng.uniform() < 0.3
        }

        def run(with_outliers):
            terms = base_terms.copy()
            for i, pid in enumerate(terms["point"].tolist()):
                if with_outliers and pid in corrupt:
                    draw = np.random.default_rng(1000 + pid)
                    terms["uv"][i] = (draw.uniform(0, 640), draw.uniform(0, 480))
            problem = OptimizationProblem(
                cam=CAM, poses={**poses, 4: start}, points=points,
                observations=terms, model=STANDARD,
                variable_pose_ids=(4,),
            )
            result = optimize_pose(problem)
            return np.linalg.norm(result.pose.translation - truth.translation)

        clean = run(False)
        contaminated = run(True)
        assert contaminated < 5 * clean

    def test_too_few_observations_raise(self):
        rng = np.random.default_rng(4)
        poses, points = make_scene(rng, n_points=5)
        terms = make_observations(poses, points, STANDARD)
        terms = terms[terms["kf"] == 2]
        problem = OptimizationProblem(
            cam=CAM, poses=poses, points=points, observations=terms,
            model=STANDARD, variable_pose_ids=(2,),
        )
        with pytest.raises(DegenerateProblemError):
            optimize_pose(problem)


class TestLocalBundleAdjustment:
    def build(self, rng, model, noise=0.0, perturb=True):
        poses, points = make_scene(rng, n_poses=5, n_points=40)
        terms = make_observations(poses, points, model, noise=noise,
                                  rng=rng)
        start_poses, start_points = poses, points
        if perturb:
            start_poses, start_points = perturbed(
                poses, points, rng, rot=0.01, trans=0.01, pt=0.02,
                skip=(1, 2),
            )
        problem = OptimizationProblem(
            cam=CAM, poses=start_poses, points=start_points,
            observations=terms, model=model,
            variable_pose_ids=(3, 4, 5),
            variable_point_ids=tuple(sorted(points)),
        )
        return poses, terms, problem

    @pytest.mark.parametrize("model", [STANDARD, SYMMETRIC],
                             ids=["standard", "symmetric"])
    def test_noiseless_window_converges_to_truth(self, model):
        rng = np.random.default_rng(5)
        poses, terms, problem = self.build(rng, model)
        result = local_bundle_adjustment(problem)
        assert result.points.shape == (len(problem.pt_ids), 3)
        refined = dict(zip(problem.pt_ids, result.points))
        # reprojection RMSE after convergence
        errs = []
        for row in terms:
            q = result.poses[int(row["kf"])].inverse().apply(
                refined[int(row["point"])])
            errs.append(project(q, CAM) - row["uv"])
        rmse = np.sqrt(np.mean(np.square(errs)))
        assert rmse < 1e-8
        for k in (3, 4, 5):
            assert np.allclose(result.poses[k].translation,
                               poses[k].translation, atol=1e-6)

    def test_keep_all_preserves_observation_count(self):
        rng = np.random.default_rng(6)
        _, terms, problem = self.build(rng, SYMMETRIC, noise=2.0)
        result = local_bundle_adjustment(problem, OutlierMode.KEEP_ALL_ROBUST)
        assert result.removed.dtype == np.int64 and len(result.removed) == 0
        assert result.inlier.shape == (len(terms),)
        assert len(problem.observations) == len(terms)

    def test_early_removal_deletes_exactly_the_planted_outliers(self):
        rng = np.random.default_rng(7)
        poses, points = make_scene(rng, n_poses=4, n_points=30)
        terms = make_observations(poses, points, STANDARD, noise=0.2, rng=rng)
        planted = {(5, 3), (12, 4), (20, 2)}
        corrupted = terms.copy()
        for i, key in enumerate(zip(terms["point"].tolist(), terms["kf"].tolist())):
            if key in planted:
                corrupted["uv"][i] += (40.0, -35.0)
        # points stay fixed so a planted outlier cannot drag its siblings
        # over the threshold; the shuffled copy checks that the removed rows
        # are the caller's rows, not the problem's sorted ones
        shuffled = np.random.default_rng(70).permutation(len(corrupted))
        for rows in (corrupted, corrupted[shuffled]):
            problem = OptimizationProblem(
                cam=CAM, poses=poses, points=points, observations=rows,
                model=STANDARD,
                variable_pose_ids=(3, 4),
            )
            result = local_bundle_adjustment(problem, OutlierMode.EARLY_REMOVAL)
            removed = rows[result.removed]
            assert set(zip(removed["point"].tolist(), removed["kf"].tolist())) == planted
            assert np.all(np.diff(result.removed) > 0)
            assert not result.inlier[result.removed].any()

    def test_gauge_free_problem_rejected(self):
        rng = np.random.default_rng(8)
        poses, points = make_scene(rng, n_poses=2, n_points=10)
        terms = make_observations(poses, points, STANDARD)
        with pytest.raises(DegenerateProblemError):
            OptimizationProblem(
                cam=CAM, poses=poses, points=points, observations=terms,
                model=STANDARD, variable_pose_ids=(1, 2),
            )

    def test_underobserved_variable_point_rejected(self):
        rng = np.random.default_rng(9)
        poses, points = make_scene(rng, n_poses=2, n_points=4)
        terms = make_observations(poses, points, STANDARD)
        terms = terms[~((terms["point"] == 2) & (terms["kf"] == 2))]
        with pytest.raises(DegenerateProblemError):
            OptimizationProblem(
                cam=CAM, poses=poses, points=points, observations=terms,
                model=STANDARD, variable_pose_ids=(2,),
                variable_point_ids=(2,),
            )


class TestProblemValidation:
    """The checks no solver test reaches, one case each."""

    @staticmethod
    def arguments():
        rng = np.random.default_rng(15)
        poses, points = make_scene(rng, n_poses=3, n_points=6)
        return dict(cam=CAM, poses=poses, points=points,
                    observations=make_observations(poses, points, SYMMETRIC),
                    model=SYMMETRIC, variable_pose_ids=(3,))

    def test_unknown_keyframe_rejected(self):
        args = self.arguments()
        args["observations"]["kf"][-1] = 9
        with pytest.raises(DegenerateProblemError, match="unknown keyframe 9"):
            OptimizationProblem(**args)

    def test_unknown_reference_keyframe_rejected(self):
        args = self.arguments()
        args["observations"]["ref_kf"][-1] = 9
        with pytest.raises(DegenerateProblemError,
                           match="unknown reference keyframe 9"):
            OptimizationProblem(**args)

    def test_unknown_point_rejected(self):
        args = self.arguments()
        args["observations"]["point"][-1] = 99
        with pytest.raises(DegenerateProblemError, match="unknown point 99"):
            OptimizationProblem(**args)

    def test_variable_pose_without_state_rejected(self):
        args = self.arguments()
        args["variable_pose_ids"] = (3, 7)
        with pytest.raises(DegenerateProblemError,
                           match="variable pose 7 has no state"):
            OptimizationProblem(**args)


class TestInitialState:
    def test_rows_are_the_inverse_poses_and_each_call_gets_a_copy(self):
        """Camera rows are bit for bit ``Pose.inverse``'s, in ``kf_ids``
        order, and points come in ``pt_ids`` order.  Each call returns its
        own copy, so editing one state leaves the next call's as built."""
        rng = np.random.default_rng(16)
        poses, points = perturbed(*make_scene(rng, n_poses=3, n_points=6), rng,
                                  rot=0.3, trans=2.0)
        problem = OptimizationProblem(
            cam=CAM, poses=poses, points=points,
            observations=make_observations(poses, points, SYMMETRIC),
            model=SYMMETRIC, variable_pose_ids=(3,))
        inverses = [poses[k].inverse() for k in problem.kf_ids]
        want = (np.array([p.rotation for p in inverses]).tobytes(),
                np.array([p.translation for p in inverses]).tobytes(),
                np.array([points[p] for p in problem.pt_ids]).tobytes())
        state = problem.initial_state()
        assert (state.R.tobytes(), state.t.tobytes(), state.pts.tobytes()) == want
        state.R[0], state.t[0], state.pts[0] = 0.0, 0.0, 0.0
        again = problem.initial_state()
        assert (again.R.tobytes(), again.t.tobytes(), again.pts.tobytes()) == want


def permutation_case():
    """A noisy 3-view, 12-point symmetric window with Huber-region outliers."""
    rng = np.random.default_rng(16)
    poses, points = make_scene(rng, n_poses=3, n_points=12)
    terms = make_observations(poses, points, SYMMETRIC, noise=1.0, rng=rng)
    terms["uv"][::5, 1] -= 30.0
    start_poses, start_points = perturbed(poses, points, rng, skip=(1,))
    return dict(cam=CAM, poses=start_poses, points=start_points,
                observations=terms, model=SYMMETRIC,
                variable_pose_ids=(2, 3),
                variable_point_ids=tuple(sorted(points)))


def split_run_case():
    """A noisy 5-view, 40-point symmetric window.  Even points take fixed
    view 1 as their reference and odd points variable view 2, so the
    backward terms of views 3-5 form two runs each.  Point 20 starts
    behind views 3, 4 and 5: its invalid terms sit inside their runs."""
    rng = np.random.default_rng(17)
    poses, points = make_scene(rng, n_poses=5, n_points=40)
    terms = make_observations(poses, points, SYMMETRIC, noise=1.5, rng=rng)
    terms["uv"][::7, 0] += 40.0
    for pid in range(1, 41, 2):
        rows = np.flatnonzero(terms["point"] == pid)
        ref = rows[terms["kf"][rows] == 2][0]
        terms["ref_kf"][rows] = 2
        terms["ref_uv"][rows] = terms["uv"][ref]
        terms["ref_sigma2"][rows] = terms["sigma2"][ref]
    start_poses, start_points = perturbed(poses, points, rng, rot=0.03,
                                          trans=0.05, pt=0.2)
    start_points[20] = np.array([0.3, 0.2, 1.0])
    return dict(cam=CAM, poses=start_poses, points=start_points,
                observations=terms, model=SYMMETRIC,
                variable_pose_ids=(2, 3, 4),
                variable_point_ids=tuple(sorted(points)))


def normal_equations_of(args):
    problem = OptimizationProblem(**args)
    state = problem.initial_state()
    ev = _evaluate(problem, state)
    return problem, ev, _build_normal_equations(problem, state, ev)


class TestSolverProperties:
    def test_split_run_case_splits_runs(self):
        problem, ev, _ = normal_equations_of(split_run_case())
        inside = [i for i in np.flatnonzero(~ev.valid_f)
                  if i not in problem.f_bounds and i + 1 not in problem.f_bounds]
        assert {problem.observations["kf"][i] for i in inside} == {3, 4, 5}
        assert np.any(~ev.valid_b)
        runs = list(zip(problem.b_run_kf.tolist(), problem.b_run_ref.tolist()))
        assert {(k, j) for k, j in runs if k >= 2} == {
            (k, j) for k in (2, 3, 4) for j in (0, 1) if k != j}

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(order=st.permutations(range(5 * 40)))
    def test_row_order_does_not_change_the_normal_equations(self, order):
        args = split_run_case()
        _, _, want = normal_equations_of(args)
        args["observations"] = args["observations"][list(order)]
        _, _, got = normal_equations_of(args)
        assert_bit_identical(got, want)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(order=st.permutations(range(3 * 12)))
    def test_row_order_does_not_change_the_solution(self, order):
        """The solution is the same, and every per-row result follows the
        rows: row r of the permuted input is row ``order[r]`` of the input."""
        order = list(order)
        args = permutation_case()
        want = solve_problem(OptimizationProblem(**args))
        want_report = evaluate_cost(OptimizationProblem(**args))
        want_ba = local_bundle_adjustment(OptimizationProblem(**args),
                                          OutlierMode.EARLY_REMOVAL)
        assert len(want_ba.removed) > 0
        args["observations"] = args["observations"][order]
        got = solve_problem(OptimizationProblem(**args))
        got_report = evaluate_cost(OptimizationProblem(**args))
        got_ba = local_bundle_adjustment(OptimizationProblem(**args),
                                         OutlierMode.EARLY_REMOVAL)
        for a, b in ((got.state.R, want.state.R), (got.state.t, want.state.t),
                     (got.state.pts, want.state.pts),
                     (np.float64(got.cost), np.float64(want.cost)),
                     (np.float64(got_report.total), np.float64(want_report.total))):
            assert a.tobytes() == b.tobytes()

        def removed_mask(result):
            mask = np.zeros(len(order), dtype=bool)
            mask[result.removed] = True
            return mask

        # tobytes: a NaN backward entry compares unequal to itself
        for g, w in ((got_report.m2_forward, want_report.m2_forward),
                     (got_report.m2_backward, want_report.m2_backward),
                     (got_report.behind_camera, want_report.behind_camera),
                     (got_ba.inlier, want_ba.inlier),
                     (removed_mask(got_ba), removed_mask(want_ba))):
            assert g.shape == (len(order),)
            assert g.tobytes() == w[order].tobytes()

    def test_monotone_decrease(self, monkeypatch):
        """The cost after at most n iterations, for n = 0, 1, 2, ... until
        the solve converges: it never rises, and it falls exactly when one
        more iteration is accepted."""
        rng = np.random.default_rng(10)
        poses, points = make_scene(rng, n_poses=3, n_points=25)
        terms = make_observations(poses, points, SYMMETRIC, noise=1.0, rng=rng)
        start_poses, start_points = perturbed(poses, points, rng, skip=(1,))
        problem = OptimizationProblem(
            cam=CAM, poses=start_poses, points=start_points,
            observations=terms, model=SYMMETRIC,
            variable_pose_ids=(2, 3),
            variable_point_ids=tuple(sorted(points)),
        )
        costs, iterations = [], []
        for n in range(optimizer.MAX_ITERATIONS + 1):
            monkeypatch.setattr(optimizer, "MAX_ITERATIONS", n)
            result = local_bundle_adjustment(problem)
            costs.append(result.cost)
            iterations.append(result.iterations)
            if result.iterations < n:  # converged below the cap
                break
        # no iteration leaves the initial cost, as evaluate_cost gives it
        assert (costs[0], iterations[0]) == (evaluate_cost(problem).total, 0)
        assert len(costs) > 2
        for n in range(1, len(costs)):
            assert costs[n] <= costs[n - 1]
            assert (costs[n] < costs[n - 1]) == (iterations[n] > iterations[n - 1])

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(11)
        poses, points = make_scene(rng, n_poses=3, n_points=25)
        terms = make_observations(poses, points, SYMMETRIC, noise=1.0, rng=rng)
        start_poses, start_points = perturbed(poses, points, rng, skip=(1,))

        def run():
            problem = OptimizationProblem(
                cam=CAM,
                poses=dict(start_poses),
                points={k: v.copy() for k, v in start_points.items()},
                observations=terms.copy(), model=SYMMETRIC,
                variable_pose_ids=(2, 3),
                variable_point_ids=tuple(sorted(points)),
            )
            return local_bundle_adjustment(problem)

        res_a, res_b = run(), run()
        assert res_a.iterations == res_b.iterations > 0
        assert np.float64(res_a.cost).tobytes() == np.float64(res_b.cost).tobytes()
        for k in res_a.poses:
            assert np.array_equal(res_a.poses[k].rotation, res_b.poses[k].rotation)
            assert np.array_equal(res_a.poses[k].translation,
                                  res_b.poses[k].translation)
        assert res_a.points.tobytes() == res_b.points.tobytes()
        assert res_a.inlier.tobytes() == res_b.inlier.tobytes()
        assert res_a.removed.tobytes() == res_b.removed.tobytes()

    def test_evaluate_cost_zero_residual(self):
        rng = np.random.default_rng(12)
        poses, points = make_scene(rng, n_poses=2, n_points=8)
        terms = make_observations(poses, points, SYMMETRIC)
        problem = OptimizationProblem(
            cam=CAM, poses=poses, points=points, observations=terms,
            model=SYMMETRIC, variable_pose_ids=(2,),
        )
        report = evaluate_cost(problem)
        assert report.total == pytest.approx(0.0, abs=1e-16)
        for per_row in (report.m2_forward, report.m2_backward, report.behind_camera):
            assert per_row.shape == (len(terms),)
        assert not report.behind_camera.any()

    def test_evaluate_cost_hand_value(self):
        pose = Pose.identity()
        point = np.array([0.0, 0.0, 5.0])
        # 2 px offset, sigma2_r = 2: m2 = 4/2 = 2 (inside the kernel)
        terms = np.array([reference_row(1, 1, (322.0, 240.0), 2.0)],
                         dtype=OBSERVATION)
        problem = OptimizationProblem(
            cam=CAM, poses={1: pose}, points={1: point}, observations=terms,
            model=STANDARD,
        )
        report = evaluate_cost(problem)
        assert report.total == pytest.approx(2.0)
        for per_row in (report.m2_forward, report.m2_backward, report.behind_camera):
            assert per_row.shape == (1,)
        assert report.m2_forward[0] == pytest.approx(2.0)
        assert np.isnan(report.m2_backward[0])  # a reference row: no backward term

    def test_evaluate_cost_huber_region(self):
        pose = Pose.identity()
        point = np.array([0.0, 0.0, 5.0])
        # 20 px offset: m2 = 200, sqrt = 14.14 > delta -> linear branch
        terms = np.array([reference_row(1, 1, (340.0, 240.0), 2.0)],
                         dtype=OBSERVATION)
        problem = OptimizationProblem(
            cam=CAM, poses={1: pose}, points={1: point}, observations=terms,
            model=STANDARD,
        )
        delta = HUBER_DELTA
        expected = 2 * delta * np.sqrt(200.0) - delta**2
        assert evaluate_cost(problem).total == pytest.approx(expected)

    def test_symmetric_cost_invariant_under_window_reversal(self):
        rng = np.random.default_rng(13)
        poses, points = make_scene(rng, n_poses=4, n_points=15)
        terms = make_observations(poses, points, SYMMETRIC, noise=0.5, rng=rng)
        problem = OptimizationProblem(
            cam=CAM, poses=poses, points=points, observations=terms,
            model=SYMMETRIC, variable_pose_ids=(2, 3, 4),
        )
        total_fwd = evaluate_cost(problem).total
        reversed_problem = OptimizationProblem(
            cam=CAM, poses=poses, points=points,
            observations=terms[::-1], model=SYMMETRIC,
            variable_pose_ids=(2, 3, 4),
        )
        assert evaluate_cost(reversed_problem).total == pytest.approx(
            total_fwd, rel=1e-15
        )

    def test_behind_camera_flagged_at_zero_cost(self):
        pose = Pose.identity()
        point = np.array([0.0, 0.0, -5.0])
        terms = np.array([
            reference_row(1, 1, (322.0, 240.0), 2.0),
            reference_row(2, 1, (100.0, 100.0), 2.0),
        ], dtype=OBSERVATION)
        problem = OptimizationProblem(
            cam=CAM, poses={1: pose},
            points={1: point, 2: np.array([0.0, 0.0, 5.0])},
            observations=terms, model=STANDARD,
        )
        report = evaluate_cost(problem)
        assert report.behind_camera.tolist() == [True, False]
        assert np.isinf(report.m2_forward[0])
        assert np.isfinite(report.total)
        # the behind term costs zero, as in the solver's initial cost: the
        # total is the other row's cost alone, (220^2 + 140^2) / 2
        assert report.m2_forward[1] == 34000.0
        assert report.total == huber_rho(report.m2_forward[1])
        assert report.total == solve_problem(problem).cost


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# (model, variable poses, variable points?); pose 1 is every
# observation's reference view, so (1, 2, 3, 4) varies it too; under
# (1, 3, 5) the runs of fixed poses 2 and 4 sit inside the span of
# variable runs that H_pl is built over
KERNEL_CASES = [
    (STANDARD, (2, 3, 4), True),
    (SYMMETRIC, (2, 3, 4), True),
    (SYMMETRIC, (1, 2, 3, 4), True),
    (SYMMETRIC, (1, 3, 5), True),
    (STANDARD, (1, 3, 5), True),
    (STANDARD, (2, 3), False),
    (SYMMETRIC, (1, 3), False),
    (STANDARD, (), True),
    (SYMMETRIC, (), True),
]
KERNEL_IDS = ["standard", "symmetric", "symmetric-ref-varies",
              "symmetric-interior-fixed", "standard-interior-fixed",
              "standard-no-points", "symmetric-no-points",
              "standard-no-poses", "symmetric-no-poses"]


def kernel_state(model, variable_pose_ids, variable_points, seed):
    """Noisy, perturbed window with outliers and one point behind views."""
    rng = np.random.default_rng(seed)
    poses, points = make_scene(rng, n_poses=5, n_points=40)
    terms = make_observations(poses, points, model, noise=1.5, rng=rng)
    terms["uv"][::7, 0] += 40.0  # gross outliers: Huber weights < 1
    start_poses, start_points = perturbed(poses, points, rng, rot=0.03,
                                          trans=0.05, pt=0.2)
    start_points[1] = np.array([0.3, 0.2, 1.0])  # behind views 3, 4 and 5
    problem = OptimizationProblem(
        cam=CAM, poses=start_poses, points=start_points, observations=terms,
        model=model, variable_pose_ids=variable_pose_ids,
        variable_point_ids=tuple(sorted(points)) if variable_points else (),
    )
    state = problem.initial_state()
    ev = _evaluate(problem, state)
    assert not np.all(ev.valid_f)
    return problem, state, ev


def in_front(ev):
    """Per term, forward terms first: in front of its cameras."""
    return np.concatenate([ev.valid_f, ev.valid_b])


class TestStepsKeepTermsInFront:
    """A step that would put a term in front behind its camera is rejected,
    like a step that raises the cost, so the terms in front only grow."""

    def test_step_through_a_camera_is_rejected(self):
        # views 1 and 3 place the point at z = 5; view 2, at z = 8, sees it
        # where it starts, at z = 12, with a variance that Huber-weights it
        # down.  The steps toward z = 5 cross view 2's image plane, behind
        # which that term would cost nothing.
        poses = {1: Pose.identity(), 2: Pose(np.eye(3), np.array([0.0, 0.0, 8.0])),
                 3: Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))}
        start, target = np.array([0.5, 0.0, 12.0]), np.array([0.5, 0.0, 5.0])
        terms = np.array([
            reference_row(1, k, project(poses[k].inverse().apply(p), CAM), sigma2)
            for k, p, sigma2 in ((1, target, 1.0), (2, start, 100.0), (3, target, 1.0))
        ], dtype=OBSERVATION)
        problem = OptimizationProblem(
            cam=CAM, poses=poses, points={1: start}, observations=terms,
            model=STANDARD, variable_point_ids=(1,),
        )
        assert not evaluate_cost(problem).behind_camera.any()
        result = solve_problem(problem)
        assert result.evaluation.valid_f.all()
        assert result.state.pts[0, 2] > 8.0
        assert result.attempts > result.iterations > 0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(KERNEL_CASES), seed=st.integers(0, 2**16))
    def test_terms_in_front_stay_in_front(self, case, seed):
        problem, _, ev = kernel_state(*case, seed)
        result = solve_problem(problem)
        assert not np.any(in_front(ev) & ~in_front(result.evaluation))
        assert result.attempts >= result.iterations

    def test_attempts_equal_iterations_when_every_step_is_accepted(self):
        rng = np.random.default_rng(10)
        poses, points = make_scene(rng, n_poses=3, n_points=25)
        terms = make_observations(poses, points, SYMMETRIC, noise=1.0, rng=rng)
        start_poses, start_points = perturbed(poses, points, rng, skip=(1,))
        problem = OptimizationProblem(
            cam=CAM, poses=start_poses, points=start_points,
            observations=terms, model=SYMMETRIC, variable_pose_ids=(2, 3),
            variable_point_ids=tuple(sorted(points)),
        )
        result = local_bundle_adjustment(problem)
        assert result.attempts == result.iterations > 0


def entering_view_case():
    """One variable point that views 1 and 2 place at z = 12 but that
    starts at z = 4, behind view 3 at z = 8: view 3's term comes in front
    mid-solve, after two accepted steps."""
    poses = {1: Pose.identity(), 2: Pose(np.eye(3), np.array([1.0, 0.0, 0.0])),
             3: Pose(np.eye(3), np.array([0.0, 0.0, 8.0]))}
    target = np.array([0.5, 0.1, 12.0])
    terms = np.array([
        reference_row(1, k, project(poses[k].inverse().apply(target), CAM), sigma2)
        for k, sigma2 in ((1, 1.0), (2, 1.0), (3, 100.0))
    ], dtype=OBSERVATION)
    return OptimizationProblem(
        cam=CAM, poses=poses, points={1: np.array([0.5, 0.1, 4.0])},
        observations=terms, model=STANDARD, variable_point_ids=(1,),
    )


class TestSolveStructure:
    """A solve builds its normal equations on a structure of its valid
    terms, kept across iterations and rebuilt when the set changes."""

    # problems whose valid set grows mid-solve
    CASES = {
        "entering-view": entering_view_case,
        "symmetric-interior-fixed": lambda: kernel_state(*KERNEL_CASES[3], 2)[0],
        "standard-interior-fixed": lambda: kernel_state(*KERNEL_CASES[4], 2)[0],
        "symmetric-no-points": lambda: kernel_state(*KERNEL_CASES[6], 0)[0],
    }

    @staticmethod
    def solve(monkeypatch, problem, structure_of):
        """``solve_problem`` with each build handed ``structure_of(s)``
        for the structure ``s`` the solve hands it; the structures used."""
        build, used = optimizer._build_normal_equations, []

        def spy(problem, state, ev, s=None):
            used.append(structure_of(s))
            return build(problem, state, ev, used[-1])
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_build_normal_equations", spy)
            return solve_problem(problem), used

    @pytest.mark.parametrize("make", list(CASES.values()), ids=list(CASES))
    def test_equals_a_structure_built_every_iteration(self, monkeypatch, make):
        problem = make()
        kept, used = self.solve(monkeypatch, problem, lambda s: s)
        # the valid set grows mid-solve, and the structure follows it
        distinct = [s for i, s in enumerate(used) if i == 0 or s is not used[i - 1]]
        assert len(distinct) > 1 and used.index(distinct[1]) > 0
        assert all(a.valid.sum() < b.valid.sum() for a, b in zip(distinct, distinct[1:]))
        fresh, _ = self.solve(monkeypatch, problem, lambda s: None)
        stale, _ = self.solve(monkeypatch, problem, lambda s: used[0])

        def outcome(result):
            return (result.iterations, result.attempts, result.state.R.tobytes(),
                    result.state.t.tobytes(), result.state.pts.tobytes(),
                    np.float64(result.cost).tobytes())
        assert outcome(fresh) == outcome(kept)
        # a structure kept past the change would read the new terms wrongly
        assert outcome(stale) != outcome(kept)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_equations_match_sequential_add_at(self, case, seed):
        problem, state, ev = kernel_state(*case, seed)
        assert_bit_identical(_build_normal_equations(problem, state, ev),
                             reference_normal_equations(problem, state, ev))

    def test_normal_equations_match_sequential_add_at_on_split_runs(self):
        problem = OptimizationProblem(**split_run_case())
        state = problem.initial_state()
        ev = _evaluate(problem, state)
        assert_bit_identical(_build_normal_equations(problem, state, ev),
                             reference_normal_equations(problem, state, ev))

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
    @pytest.mark.parametrize("lam", [1e-12, 1e-4, 1e-1, 1.0, 1e3, 1e12])
    def test_solve_step_matches_damping_loop(self, case, lam):
        H = reference_normal_equations(*kernel_state(*case, seed=3))
        assert_bit_identical(_solve_step(*H, lam), reference_solve_step(*H, lam))

    @pytest.mark.parametrize("lam", [1e-4, 1.0])
    def test_solve_step_clips_vanishing_point_diagonal(self, lam):
        Hpp, Hpl, Hll, gp, gl = reference_normal_equations(
            *kernel_state(SYMMETRIC, (2, 3, 4), True, seed=4))
        Hll[0] = 0.0  # an unobserved point: its damping uses the 1e-12 floor
        Hpl[:, 0] = 0.0
        Hll[1, 2, 2] = -1.0
        H = (Hpp, Hpl, Hll, gp, gl)
        assert_bit_identical(_solve_step(*H, lam), reference_solve_step(*H, lam))


def distant_point_blocks(rng, depth, n=100):
    """Damped point blocks ``J^T w J`` of points about ``depth`` ahead of
    2-7 views a few decimetres apart: the farther, the worse conditioned."""
    blocks = np.zeros((n, 3, 3))
    for block in blocks:
        p = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), depth])
        for k in range(int(rng.integers(2, 8))):
            R = so3_exp(rng.normal(scale=0.01, size=3))
            q = R @ (p - np.array([0.1 * k, 0.0, 0.2 * k]))
            A = np.array([[-CAM.fx / q[2], 0.0, CAM.fx * q[0] / q[2] ** 2],
                          [0.0, -CAM.fy / q[2], CAM.fy * q[1] / q[2] ** 2]])
            J = A @ R
            block += rng.uniform(0.2, 1.0) * (J.T @ J)
        block += 1e-4 * np.diag(np.diagonal(block))
    return blocks


class TestPointBlockInverse:
    """``_inverse_3x3``, the adjugate over the determinant, against LAPACK's
    ``np.linalg.inv``: both leave ``H H^-1 - I`` within a few ``cond(H)``
    ulps, and agree to that order."""

    @staticmethod
    def assert_accurate(H):
        eps = np.finfo(np.float64).eps
        cond = np.linalg.cond(H)
        got, want = _inverse_3x3(H), np.linalg.inv(H)
        residual = np.linalg.norm(H @ got - np.eye(3), ord=2, axis=(1, 2))
        assert np.all(residual <= 4.0 * cond * eps)
        gap = np.linalg.norm(got - want, ord=2, axis=(1, 2))
        assert np.all(gap <= 4.0 * cond * eps * np.linalg.norm(want, ord=2, axis=(1, 2)))
        return cond

    def test_random_spd_blocks(self):
        J = np.random.default_rng(30).normal(size=(500, 6, 3))
        self.assert_accurate(J.transpose(0, 2, 1) @ J)

    @pytest.mark.parametrize("depth", [5.0, 500.0, 5e4])
    def test_distant_point_blocks(self, depth):
        cond = self.assert_accurate(distant_point_blocks(np.random.default_rng(31), depth))
        assert cond.max() > {5.0: 1e3, 500.0: 1e7, 5e4: 1e11}[depth]
        assert cond.max() < 1e13

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_singular_or_non_finite_block_raises(self, bad):
        H = np.stack([np.eye(3), np.eye(3)])
        H[1, 2] = bad  # a zero row, or one that makes the determinant non-finite
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            _inverse_3x3(H)

    def test_singular_damped_block_raises_from_solve(self, monkeypatch):
        """A point block whose damped form is exactly singular: its diagonal
        is zero, so damping sets it to lam * 1e-12, which its first two rows
        then repeat."""
        problem = OptimizationProblem(**permutation_case())
        build = optimizer._build_normal_equations
        x = optimizer._LAMBDA_INIT * 1e-12

        def singular(*args):
            Hpp, Hpl, Hll, gp, gl = build(*args)
            Hll[0] = [[0.0, x, 0.0], [x, 0.0, 0.0], [0.0, 0.0, 1.0]]
            return Hpp, Hpl, Hll, gp, gl
        monkeypatch.setattr(optimizer, "_build_normal_equations", singular)
        with pytest.raises(DegenerateProblemError, match="singular"):
            solve_problem(problem)


class TestStoppingRule:
    """A solve stops at its first accepted step that lowers the cost by
    less than 1e-6 of it (``FUNCTION_TOLERANCE``), and at its first damped
    step, accepted or not, shorter than 1e-10 (``STEP_TOLERANCE``)."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(10)
        poses, points = make_scene(rng, n_poses=3, n_points=25)
        terms = make_observations(poses, points, SYMMETRIC, noise=1.0, rng=rng)
        start_poses, start_points = perturbed(poses, points, rng, skip=(1,))
        return OptimizationProblem(
            cam=CAM, poses=start_poses, points=start_points, observations=terms,
            model=SYMMETRIC, variable_pose_ids=(2, 3),
            variable_point_ids=tuple(sorted(points)),
        )

    def test_stops_at_the_first_small_relative_decrease(self, monkeypatch):
        problem = self.problem()
        result = solve_problem(problem)
        assert 2 < result.iterations < optimizer.MAX_ITERATIONS
        costs = []  # the cost after each accepted step, the initial one first
        for n in range(result.iterations + 1):
            monkeypatch.setattr(optimizer, "MAX_ITERATIONS", n)
            costs.append(solve_problem(problem).cost)
        assert costs[-1] == result.cost
        rel = [(a - b) / a for a, b in zip(costs, costs[1:])]
        assert all(r >= 1e-6 for r in rel[:-1])
        assert 0 < rel[-1] < 1e-6

    @pytest.mark.parametrize("norm, ends", [(1e-11, True), (1e-9, False)])
    def test_a_short_rejected_step_ends_the_solve(self, monkeypatch, norm, ends):
        """Every step is turned uphill and scaled to ``norm``, so each is
        rejected: one shorter than ``STEP_TOLERANCE`` ends the solve at its
        first attempt, with the state unchanged; a longer one lets λ climb."""
        problem = self.problem()
        step = optimizer._solve_step

        def uphill(*args):
            dp, dl = step(*args)
            scale = -norm / np.sqrt(np.sum(dp * dp) + np.sum(dl * dl))
            return dp * scale, dl * scale
        monkeypatch.setattr(optimizer, "_solve_step", uphill)
        result = solve_problem(problem)
        start = problem.initial_state()
        assert result.iterations == 0
        assert result.cost == evaluate_cost(problem).total
        assert (result.state.R.tobytes(), result.state.t.tobytes(),
                result.state.pts.tobytes()) == (start.R.tobytes(), start.t.tobytes(),
                                                start.pts.tobytes())
        assert (result.attempts == 1) == ends
        if not ends:  # λ climbs from 1e-4 past 1e12
            assert result.attempts == 17


class TestMatmulAgreesWithEinsum:
    @pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_equations(self, case, seed):
        """The matmul blocks against the einsum contractions they replaced,
        Jacobians included: those sum each term's products in another order,
        so the two agree to rounding only."""
        problem, state, ev = kernel_state(*case, seed)
        got = _build_normal_equations(problem, state, ev)
        want = per_term_normal_equations(problem, state, ev, einsum=True)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=KERNEL_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_equations_match_per_term_sums(self, case, seed):
        """The grouped blocks against every term's own blocks summed with
        ``np.add.at``: the same Jacobians, another summation order."""
        problem, state, ev = kernel_state(*case, seed)
        got = _build_normal_equations(problem, state, ev)
        want = per_term_normal_equations(problem, state, ev)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


class TestHuber:
    def test_zero_residual(self):
        w = huber_weight(np.zeros(1))
        assert isinstance(w, np.ndarray) and w.tolist() == [1.0]

    def test_kernel_boundary(self):
        assert huber_weight(HUBER_DELTA**2) == 1.0

    def test_outside_kernel(self):
        assert huber_weight(4 * HUBER_DELTA**2) == pytest.approx(0.5)

    def test_continuous_and_non_increasing(self):
        m2 = np.linspace(0.0, 50.0, 2001)
        w = huber_weight(m2)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(np.diff(w))) < 0.01

    def test_rho_matches_weight_regions(self):
        rho = huber_rho(np.array([1.0, 4 * HUBER_DELTA**2]))
        assert isinstance(rho, np.ndarray)
        # quadratic inside; 2 delta |r| - delta^2 at |r| = 2 delta outside
        assert rho[0] == 1.0
        assert rho[1] == pytest.approx(3 * HUBER_DELTA**2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            huber_weight(-1.0)
