"""Damped Gauss-Newton (Levenberg-Marquardt) pose and structure refinement.

Residual models:

- standard: each observation contributes the reprojection error of the
  point in its observing view, normalized by twice that view's keypoint
  variance.
- symmetric: every non-reference observation additionally contributes the
  error of its measured keypoint cross-projected into the point's
  reference view (at the point's current depth in the observing view),
  normalized by twice the reference view's variance.  Both directions
  therefore enter classification with their own covariances.

The solver is deterministic: fixed term ordering, a fixed damping
schedule, and no time- or memory-dependent state.  Behind-camera terms
are frozen (previous cost, zero gradient) for the step instead of
aborting, so convergence does not depend on evaluation order.

The order in which terms are summed into the normal equations is part
of that contract.  Floating-point addition is not associative, so every
element of H and g must receive its terms in the same sequence (forward
terms, then the backward observing-observing, reference-reference,
observing-reference and reference-observing blocks), each sum starting
from zero; reordering them moves every pose digest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError
from .geometry import CameraIntrinsics, Pose, orthonormalize_rotation, so3_exp
from .uncertainty import CovarianceModel, ResidualWeighting, huber_rho, huber_weight

_Z_EPS = 1e-9
_LAMBDA_INIT = 1e-4
_LAMBDA_MAX = 1e12
_BEHIND_CAMERA_COST_CAP = 19.0  # in units of delta^2; rho at |r|/sigma = 10*delta


class OutlierMode(enum.Enum):
    EARLY_REMOVAL = "early_removal"
    KEEP_ALL_ROBUST = "keep_all"


@dataclass(frozen=True)
class OutlierPolicy:
    mode: OutlierMode = OutlierMode.KEEP_ALL_ROBUST
    chi2_threshold: float = 5.991  # 95% quantile, 2 DoF, per directional term

    def __post_init__(self):
        if self.chi2_threshold <= 0:
            raise ValueError("chi2_threshold must be positive")


@dataclass(frozen=True)
class ObsTerm:
    """One observation of a point: measured pixel, its variance, and the
    reference view used by the symmetric model (None for the reference
    observation itself)."""

    point_id: int
    kf_id: int
    uv: tuple
    sigma2: float
    ref_kf_id: int | None = None
    ref_uv: tuple | None = None
    ref_sigma2: float | None = None


@dataclass
class OptimizationProblem:
    """Poses, points, and observation terms with the variable/fixed split."""

    cam: CameraIntrinsics
    poses: dict  # kf_id -> Pose, world-from-camera
    points: dict  # point_id -> (3,) position
    observations: list  # ObsTerm
    weighting: ResidualWeighting
    variable_pose_ids: tuple = ()
    variable_point_ids: tuple = ()

    def __post_init__(self):
        self.variable_pose_ids = tuple(sorted(self.variable_pose_ids))
        self.variable_point_ids = tuple(sorted(self.variable_point_ids))
        fixed = [k for k in self.poses if k not in set(self.variable_pose_ids)]
        if self.variable_pose_ids and not fixed:
            raise DegenerateProblemError("problem has no fixed pose (gauge free)")
        for kf_id in self.variable_pose_ids:
            if kf_id not in self.poses:
                raise DegenerateProblemError(f"variable pose {kf_id} has no state")
        counts = {}
        for term in self.observations:
            if term.kf_id not in self.poses:
                raise DegenerateProblemError(
                    f"observation references unknown keyframe {term.kf_id}"
                )
            if term.ref_kf_id is not None and term.ref_kf_id not in self.poses:
                raise DegenerateProblemError(
                    f"observation references unknown reference keyframe {term.ref_kf_id}"
                )
            if term.point_id not in self.points:
                raise DegenerateProblemError(
                    f"observation references unknown point {term.point_id}"
                )
            counts[term.point_id] = counts.get(term.point_id, 0) + 1
        for pid in self.variable_point_ids:
            if counts.get(pid, 0) < 2:
                raise DegenerateProblemError(
                    f"variable point {pid} is observed fewer than twice"
                )


def _hat_batch(v):
    """Batched skew-symmetric matrices for (N, 3) vectors."""
    n = v.shape[0]
    H = np.zeros((n, 3, 3))
    H[:, 0, 1] = -v[:, 2]
    H[:, 0, 2] = v[:, 1]
    H[:, 1, 0] = v[:, 2]
    H[:, 1, 2] = -v[:, 0]
    H[:, 2, 0] = -v[:, 1]
    H[:, 2, 1] = v[:, 0]
    return H


class _Assembled:
    """Static index/measurement arrays for one optimization problem."""

    def __init__(self, problem: OptimizationProblem):
        cam = problem.cam
        self.cam = cam
        self.kf_ids = sorted(problem.poses)
        self.pt_ids = sorted(problem.points)
        kf_pos = {k: i for i, k in enumerate(self.kf_ids)}
        pt_pos = {p: i for i, p in enumerate(self.pt_ids)}
        var_pose = {k: i for i, k in enumerate(problem.variable_pose_ids)}
        var_pt = {p: i for i, p in enumerate(problem.variable_point_ids)}
        self.n_var_poses = len(var_pose)
        self.n_var_points = len(var_pt)

        terms = sorted(problem.observations, key=lambda t: (t.point_id, t.kf_id))
        self.terms = terms
        F = len(terms)
        self.f_uv = np.array([t.uv for t in terms], dtype=np.float64).reshape(F, 2)
        self.f_info = np.array([1.0 / t.sigma2 for t in terms])
        self.f_kf = np.array([kf_pos[t.kf_id] for t in terms], dtype=np.int64)
        self.f_pt = np.array([pt_pos[t.point_id] for t in terms], dtype=np.int64)
        self.f_kf_var = np.array(
            [var_pose.get(t.kf_id, -1) for t in terms], dtype=np.int64
        )
        self.f_pt_var = np.array(
            [var_pt.get(t.point_id, -1) for t in terms], dtype=np.int64
        )

        symmetric = problem.weighting.model is CovarianceModel.SYMMETRIC
        b_rows = [
            (i, t) for i, t in enumerate(terms)
            if symmetric and t.ref_kf_id is not None and t.ref_kf_id != t.kf_id
        ]
        B = len(b_rows)
        self.b_fwd = np.array([i for i, _ in b_rows], dtype=np.int64)
        self.b_uv = np.array(
            [t.ref_uv for _, t in b_rows], dtype=np.float64
        ).reshape(B, 2)
        self.b_info = np.array([1.0 / t.ref_sigma2 for _, t in b_rows])
        self.b_ref = np.array([kf_pos[t.ref_kf_id] for _, t in b_rows], dtype=np.int64)
        self.b_ref_var = np.array(
            [var_pose.get(t.ref_kf_id, -1) for _, t in b_rows], dtype=np.int64
        )
        # measured-ray directions in the observing camera
        d = np.ones((B, 3))
        if B:
            uv_k = self.f_uv[self.b_fwd]
            d[:, 0] = (uv_k[:, 0] - cam.cx) / cam.fx
            d[:, 1] = (uv_k[:, 1] - cam.cy) / cam.fy
        self.b_dir = d
        self.n_forward = F
        self.n_backward = B

    def initial_state(self, problem):
        R = np.stack(
            [problem.poses[k].inverse().rotation for k in self.kf_ids]
        ) if self.kf_ids else np.zeros((0, 3, 3))
        t = np.stack(
            [problem.poses[k].inverse().translation for k in self.kf_ids]
        ) if self.kf_ids else np.zeros((0, 3))
        pts = np.stack(
            [problem.points[p] for p in self.pt_ids]
        ) if self.pt_ids else np.zeros((0, 3))
        return _State(R, t, pts)


@dataclass
class _State:
    """Camera-from-world rotations/translations and point positions."""

    R: np.ndarray  # (K, 3, 3)
    t: np.ndarray  # (K, 3)
    pts: np.ndarray  # (L, 3)

    def copy(self):
        return _State(self.R.copy(), self.t.copy(), self.pts.copy())


class _Evaluation:
    __slots__ = ("q_f", "r_f", "valid_f", "m2_f", "q_b", "r_b", "valid_b", "m2_b")


def _evaluate(asm: _Assembled, state: _State) -> _Evaluation:
    cam = asm.cam
    ev = _Evaluation()
    p_w = state.pts[asm.f_pt]
    q = np.einsum("kij,kj->ki", state.R[asm.f_kf], p_w) + state.t[asm.f_kf]
    valid = q[:, 2] > _Z_EPS
    z = np.where(valid, q[:, 2], 1.0)
    uv = np.empty_like(asm.f_uv)
    uv[:, 0] = cam.fx * q[:, 0] / z + cam.cx
    uv[:, 1] = cam.fy * q[:, 1] / z + cam.cy
    ev.q_f = q
    ev.r_f = asm.f_uv - uv
    ev.valid_f = valid
    ev.m2_f = np.einsum("ki,ki->k", ev.r_f, ev.r_f) * asm.f_info

    B = asm.n_backward
    if B:
        z_k = q[asm.b_fwd, 2]
        X_k = asm.b_dir * z_k[:, None]
        Rk = state.R[asm.f_kf[asm.b_fwd]]
        tk = state.t[asm.f_kf[asm.b_fwd]]
        Y = np.einsum("kji,kj->ki", Rk, X_k - tk)  # R^T (X - t)
        Rj = state.R[asm.b_ref]
        tj = state.t[asm.b_ref]
        q_b = np.einsum("kij,kj->ki", Rj, Y) + tj
        valid_b = (q_b[:, 2] > _Z_EPS) & (z_k > _Z_EPS)
        z_b = np.where(valid_b, q_b[:, 2], 1.0)
        uv_b = np.empty((B, 2))
        uv_b[:, 0] = cam.fx * q_b[:, 0] / z_b + cam.cx
        uv_b[:, 1] = cam.fy * q_b[:, 1] / z_b + cam.cy
        ev.q_b = q_b
        ev.r_b = asm.b_uv - uv_b
        ev.valid_b = valid_b
        ev.m2_b = np.einsum("ki,ki->k", ev.r_b, ev.r_b) * asm.b_info
    else:
        ev.q_b = np.zeros((0, 3))
        ev.r_b = np.zeros((0, 2))
        ev.valid_b = np.zeros(0, dtype=bool)
        ev.m2_b = np.zeros(0)
    return ev


def _term_costs(asm: _Assembled, ev: _Evaluation, delta: float, prev=None):
    """Per-term Huber costs with freezing of behind-camera terms."""
    costs = np.empty(asm.n_forward + asm.n_backward)
    costs[: asm.n_forward] = huber_rho(ev.m2_f, delta)
    costs[asm.n_forward:] = huber_rho(ev.m2_b, delta)
    valid = np.concatenate([ev.valid_f, ev.valid_b])
    if prev is None:
        prev = np.zeros_like(costs)
    return np.where(valid, costs, prev), valid


def _projection_block(q, cam):
    """Batched -dPi/dq at camera points q: (N, 2, 3)."""
    n = q.shape[0]
    J = np.zeros((n, 2, 3))
    z = q[:, 2]
    J[:, 0, 0] = -cam.fx / z
    J[:, 0, 2] = cam.fx * q[:, 0] / (z * z)
    J[:, 1, 1] = -cam.fy / z
    J[:, 1, 2] = cam.fy * q[:, 1] / (z * z)
    return J


class _Jacobians:
    """Per-term residual Jacobians w.r.t. the retraction increments.

    Invalid (behind-camera) terms carry zero blocks.
    """

    __slots__ = ("f_pose", "f_pt", "b_pose_k", "b_pose_j", "b_pt")


def _term_jacobians(asm: _Assembled, state: _State, ev: _Evaluation) -> _Jacobians:
    J = _Jacobians()
    F, B = asm.n_forward, asm.n_backward
    J.f_pose = np.zeros((F, 2, 6))
    J.f_pt = np.zeros((F, 2, 3))
    idx = np.nonzero(ev.valid_f)[0]
    if idx.size:
        q = ev.q_f[idx]
        A = _projection_block(q, asm.cam)  # -dPi/dq
        Rk = state.R[asm.f_kf[idx]]
        tk = state.t[asm.f_kf[idx]]
        # dq/d(dw) = -[q - t]x ; dq/d(dt) = I ; dq/dp = R
        Jw = -np.einsum("kab,kbc->kac", A, _hat_batch(q - tk))
        J.f_pose[idx] = np.concatenate([Jw, A], axis=2)
        J.f_pt[idx] = np.einsum("kab,kbc->kac", A, Rk)

    J.b_pose_k = np.zeros((B, 2, 6))
    J.b_pose_j = np.zeros((B, 2, 6))
    J.b_pt = np.zeros((B, 2, 3))
    if B:
        idx = np.nonzero(ev.valid_b)[0]
        if idx.size:
            fwd = asm.b_fwd[idx]
            q_b = ev.q_b[idx]
            Bm = _projection_block(q_b, asm.cam)  # -dPi/dq_b
            Rk = state.R[asm.f_kf[fwd]]
            tk = state.t[asm.f_kf[fwd]]
            tj = state.t[asm.b_ref[idx]]
            Rj = state.R[asm.b_ref[idx]]
            d = asm.b_dir[idx]
            z_k = ev.q_f[fwd, 2]
            X_k = d * z_k[:, None]
            v = ev.q_f[fwd] - tk  # R_k p_w
            M = np.einsum("kab,kcb->kac", Rj, Rk)  # R_j R_k^T
            BM = np.einsum("kab,kbc->kac", Bm, M)
            # point: the measured ray moves only through the depth,
            # d z_k with dz_k/dp = third row of R_k
            r3 = Rk[:, 2, :]
            J.b_pt[idx] = np.einsum("kab,kb,kc->kac", BM, d, r3)
            # observing pose translation: z_k shifts with e3^T dt
            dE = np.zeros((idx.size, 3, 3))
            dE[:, :, 2] = d
            Jt_k = np.einsum("kab,kbc->kac", BM, dE - np.eye(3))
            # observing pose rotation: both the inverse map and z_k move
            e3v = np.zeros((idx.size, 3))
            e3v[:, 0] = -v[:, 1]
            e3v[:, 1] = v[:, 0]
            inner = _hat_batch(X_k - tk) - np.einsum("ka,kb->kab", d, e3v)
            Jw_k = np.einsum("kab,kbc->kac", BM, inner)
            J.b_pose_k[idx] = np.concatenate([Jw_k, Jt_k], axis=2)
            # reference pose: plain projective block at q_b
            Jw_j = -np.einsum("kab,kbc->kac", Bm, _hat_batch(q_b - tj))
            J.b_pose_j[idx] = np.concatenate([Jw_j, Bm], axis=2)
    return J


class _Scatter:
    """Queued (block index, blocks) batches summed into one block array.

    ``total`` runs one ``np.bincount`` per block component over all
    batches in queue order, starting from zero.  Every element therefore
    receives the same additions in the same order as sequential
    ``np.add.at`` calls would make, so the sums are bit-identical to them.
    """

    def __init__(self, n_blocks, block_shape):
        self.n_blocks = n_blocks
        self.block_shape = block_shape
        self.index = []
        self.blocks = []

    def add(self, index, blocks):
        self.index.append(index)
        self.blocks.append(blocks)

    def total(self):
        out = np.zeros((self.n_blocks,) + self.block_shape)
        if self.index:
            index = np.concatenate(self.index)
            for c in np.ndindex(self.block_shape):
                column = np.concatenate([b[(..., *c)] for b in self.blocks])
                out[(..., *c)] = np.bincount(index, weights=column,
                                             minlength=self.n_blocks)
        return out


def _build_normal_equations(asm: _Assembled, state: _State, ev: _Evaluation,
                            delta: float):
    """Accumulate the damped-ready H blocks and gradient."""
    P, L = asm.n_var_poses, asm.n_var_points
    Hpp = _Scatter(P * P, (6, 6))
    Hll = _Scatter(L, (3, 3))
    Hpl = _Scatter(P * L, (6, 3))
    gp = _Scatter(P, (6,))
    gl = _Scatter(L, (3,))
    jac = _term_jacobians(asm, state, ev)

    # forward terms ----------------------------------------------------
    idx = np.nonzero(ev.valid_f)[0]
    if idx.size:
        w = (huber_weight(ev.m2_f[idx], delta) * asm.f_info[idx])[:, None, None]
        r = ev.r_f[idx][:, :, None]
        Jpose = jac.f_pose[idx]
        Jpt = jac.f_pt[idx]
        kv = asm.f_kf_var[idx]
        lv = asm.f_pt_var[idx]
        mp = kv >= 0
        ml = lv >= 0
        if np.any(mp):
            Hpp.add(kv[mp] * P + kv[mp],
                    np.einsum("kba,kbc->kac", Jpose[mp], w[mp] * Jpose[mp]))
            gp.add(kv[mp], np.einsum("kba,kbc->ka", Jpose[mp], w[mp] * r[mp]))
        if np.any(ml):
            Hll.add(lv[ml], np.einsum("kba,kbc->kac", Jpt[ml], w[ml] * Jpt[ml]))
            gl.add(lv[ml], np.einsum("kba,kbc->ka", Jpt[ml], w[ml] * r[ml]))
        both = mp & ml
        if np.any(both):
            Hpl.add(kv[both] * L + lv[both],
                    np.einsum("kba,kbc->kac", Jpose[both], w[both] * Jpt[both]))

    # backward terms ---------------------------------------------------
    idx = np.nonzero(ev.valid_b)[0] if asm.n_backward else np.zeros(0, np.int64)
    if idx.size:
        fwd = asm.b_fwd[idx]
        w = (huber_weight(ev.m2_b[idx], delta) * asm.b_info[idx])[:, None, None]
        r = ev.r_b[idx][:, :, None]
        Jpose_k = jac.b_pose_k[idx]
        Jpose_j = jac.b_pose_j[idx]
        Jpt = jac.b_pt[idx]
        kv = asm.f_kf_var[fwd]
        jv = asm.b_ref_var[idx]
        lv = asm.f_pt_var[fwd]
        for va, Ja in ((kv, Jpose_k), (jv, Jpose_j)):
            m = va >= 0
            if np.any(m):
                gp.add(va[m], np.einsum("kba,kbc->ka", Ja[m], w[m] * r[m]))
        for va, Ja, vb, Jb in (
            (kv, Jpose_k, kv, Jpose_k),
            (jv, Jpose_j, jv, Jpose_j),
            (kv, Jpose_k, jv, Jpose_j),
        ):
            m = (va >= 0) & (vb >= 0)
            if np.any(m):
                blocks = np.einsum("kba,kbc->kac", Ja[m], w[m] * Jb[m])
                Hpp.add(va[m] * P + vb[m], blocks)
                if Ja is not Jb:
                    Hpp.add(vb[m] * P + va[m], np.transpose(blocks, (0, 2, 1)))
        ml = lv >= 0
        if np.any(ml):
            Hll.add(lv[ml], np.einsum("kba,kbc->kac", Jpt[ml], w[ml] * Jpt[ml]))
            gl.add(lv[ml], np.einsum("kba,kbc->ka", Jpt[ml], w[ml] * r[ml]))
        for va, Ja in ((kv, Jpose_k), (jv, Jpose_j)):
            m = (va >= 0) & ml
            if np.any(m):
                Hpl.add(va[m] * L + lv[m],
                        np.einsum("kba,kbc->kac", Ja[m], w[m] * Jpt[m]))

    return (Hpp.total().reshape(P, P, 6, 6), Hpl.total().reshape(P, L, 6, 3),
            Hll.total(), gp.total(), gl.total())


def _solve_step(Hpp, Hpl, Hll, gp, gl, lam):
    """Schur-complement solve of the damped normal equations."""
    P = Hpp.shape[0]
    L = Hll.shape[0]
    if P == 0 and L == 0:
        return np.zeros(0), np.zeros((0, 3))
    # each point block gets lam * its clipped diagonal; the zero
    # off-diagonal entries of the damping add +0.0
    diag = np.diagonal(Hll, axis1=1, axis2=2)
    damping = np.zeros((L, 3, 3))
    damping[:, [0, 1, 2], [0, 1, 2]] = lam * np.where(diag > 1e-12, diag, 1e-12)
    Hll_d = Hll + damping
    if P == 0:
        dl = -np.linalg.solve(Hll_d, gl[:, :, None])[:, :, 0]
        return np.zeros(0), dl
    Hpp_m = Hpp.transpose(0, 2, 1, 3).reshape(6 * P, 6 * P).copy()
    diag = np.diagonal(Hpp_m).copy()
    diag = np.where(diag > 1e-12, diag, 1e-12)
    Hpp_m += lam * np.diag(diag)
    gp_v = gp.reshape(6 * P)
    if L == 0:
        dp = -np.linalg.solve(Hpp_m, gp_v)
        return dp.reshape(P, 6), np.zeros((0, 3))
    Hll_inv = np.linalg.inv(Hll_d)
    Hpl_m = Hpl.transpose(0, 2, 1, 3).reshape(6 * P, 3 * L)
    W = np.einsum("plab,lbc->plac", Hpl, Hll_inv)  # Hpl Hll^-1
    W_m = W.transpose(0, 2, 1, 3).reshape(6 * P, 3 * L)
    S = Hpp_m - W_m @ Hpl_m.T
    rhs = -(gp_v - W_m @ gl.reshape(3 * L))
    dp = np.linalg.solve(S, rhs)
    dl_rhs = -gl - np.einsum("plab,pa->lb", Hpl, dp.reshape(P, 6))
    dl = np.einsum("lab,lb->la", Hll_inv, dl_rhs)
    return dp.reshape(P, 6), dl


def _retract(asm: _Assembled, state: _State, dp, dl, var_pose_rows, var_pt_rows):
    new = state.copy()
    for i, row in enumerate(var_pose_rows):
        dw, dt = dp[i, :3], dp[i, 3:]
        new.R[row] = orthonormalize_rotation(so3_exp(dw) @ state.R[row])
        new.t[row] = state.t[row] + dt
    if dl.size:
        new.pts[var_pt_rows] += dl
    return new


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    lambda_: float
    step_norm: float


@dataclass
class SolveResult:
    state: _State
    cost: float
    iterations: int
    m2_forward: np.ndarray
    m2_backward: np.ndarray
    valid_forward: np.ndarray
    valid_backward: np.ndarray
    trace: list


def solve_problem(problem: OptimizationProblem, max_iterations: int = 50,
                  trace: list | None = None) -> SolveResult:
    """Run LM to convergence on the assembled problem."""
    asm = _Assembled(problem)
    state = asm.initial_state(problem)
    delta = problem.weighting.huber_delta
    kf_pos = {k: i for i, k in enumerate(asm.kf_ids)}
    pt_pos = {p: i for i, p in enumerate(asm.pt_ids)}
    var_pose_rows = np.array(
        [kf_pos[k] for k in problem.variable_pose_ids], dtype=np.int64
    )
    var_pt_rows = np.array(
        [pt_pos[p] for p in problem.variable_point_ids], dtype=np.int64
    )

    ev = _evaluate(asm, state)
    term_prev, _ = _term_costs(asm, ev, delta)
    cost = float(np.sum(term_prev))
    lam = _LAMBDA_INIT
    iterations = 0
    converged = False
    for it in range(max_iterations):
        if converged:
            break
        Hpp, Hpl, Hll, gp, gl = _build_normal_equations(asm, state, ev, delta)
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                dp, dl = _solve_step(Hpp, Hpl, Hll, gp, gl, lam)
            except np.linalg.LinAlgError as exc:
                raise DegenerateProblemError(
                    f"normal equations are singular: {exc}"
                ) from exc
            step_norm = float(
                np.sqrt(np.sum(dp * dp) + np.sum(dl * dl))
            )
            candidate = _retract(asm, state, dp, dl, var_pose_rows, var_pt_rows)
            ev_new = _evaluate(asm, candidate)
            costs_new, valid_new = _term_costs(asm, ev_new, delta, term_prev)
            cost_new = float(np.sum(costs_new))
            if cost_new < cost:
                rel = (cost - cost_new) / max(cost, 1e-300)
                state, ev = candidate, ev_new
                term_prev = np.where(valid_new, costs_new, term_prev)
                cost = cost_new
                lam = max(lam * 0.1, 1e-12)
                iterations = it + 1
                accepted = True
                if trace is not None:
                    trace.append(IterationRecord(it + 1, cost, lam, step_norm))
                converged = rel < 1e-8 or step_norm < 1e-10
                break
            lam *= 10.0
        if not accepted:
            break

    return SolveResult(
        state=state,
        cost=cost,
        iterations=iterations,
        m2_forward=ev.m2_f.copy(),
        m2_backward=ev.m2_b.copy(),
        valid_forward=ev.valid_f.copy(),
        valid_backward=ev.valid_b.copy(),
        trace=trace if trace is not None else [],
    )


@dataclass
class CostReport:
    total: float
    m2_forward: dict
    m2_backward: dict
    behind_camera: list


def evaluate_cost(problem: OptimizationProblem) -> CostReport:
    """Pure robust-cost evaluation; no state is mutated.

    Behind-camera terms are flagged and contribute a fixed capped cost.
    """
    asm = _Assembled(problem)
    state = asm.initial_state(problem)
    ev = _evaluate(asm, state)
    delta = problem.weighting.huber_delta
    cap = _BEHIND_CAMERA_COST_CAP * delta * delta
    costs, valid = _term_costs(
        asm, ev, delta, prev=np.full(asm.n_forward + asm.n_backward, cap)
    )
    m2f, m2b, behind = {}, {}, []
    for i, term in enumerate(asm.terms):
        key = (term.point_id, term.kf_id)
        m2f[key] = float(ev.m2_f[i]) if ev.valid_f[i] else float("inf")
        if not ev.valid_f[i]:
            behind.append(key)
    for b in range(asm.n_backward):
        term = asm.terms[asm.b_fwd[b]]
        key = (term.point_id, term.kf_id)
        m2b[key] = float(ev.m2_b[b]) if ev.valid_b[b] else float("inf")
        if not ev.valid_b[b]:
            behind.append(key)
    return CostReport(
        total=float(np.sum(costs)), m2_forward=m2f, m2_backward=m2b,
        behind_camera=behind,
    )


def _classify(asm: _Assembled, result: SolveResult, delta: float):
    """Per-observation inlier flags: every directional term within delta."""
    flags = {}
    for i, term in enumerate(asm.terms):
        key = (term.point_id, term.kf_id)
        ok = bool(result.valid_forward[i]) and result.m2_forward[i] <= delta * delta
        flags[key] = ok
    for b in range(asm.n_backward):
        term = asm.terms[asm.b_fwd[b]]
        key = (term.point_id, term.kf_id)
        ok = bool(result.valid_backward[b]) and result.m2_backward[b] <= delta * delta
        flags[key] = flags[key] and ok
    return flags


def _removal_set(asm: _Assembled, result: SolveResult, chi2: float):
    """Observations with any directional Mahalanobis^2 above the cut."""
    removed = set()
    for i, term in enumerate(asm.terms):
        key = (term.point_id, term.kf_id)
        if not result.valid_forward[i] or result.m2_forward[i] > chi2:
            removed.add(key)
    for b in range(asm.n_backward):
        term = asm.terms[asm.b_fwd[b]]
        key = (term.point_id, term.kf_id)
        if not result.valid_backward[b] or result.m2_backward[b] > chi2:
            removed.add(key)
    return removed


@dataclass
class PoseResult:
    pose: Pose  # world-from-camera
    inlier: dict  # (point_id, kf_id) -> bool
    cost: float
    iterations: int


def _classify_at_pose(problem, pose_wc, kf_id):
    """Inlier flags of all observations with the variable pose replaced."""
    probe = OptimizationProblem(
        cam=problem.cam,
        poses={**problem.poses, kf_id: pose_wc},
        points=problem.points,
        observations=problem.observations,
        weighting=problem.weighting,
    )
    asm = _Assembled(probe)
    ev = _evaluate(asm, asm.initial_state(probe))
    fake = SolveResult(
        state=None, cost=0.0, iterations=0,
        m2_forward=ev.m2_f, m2_backward=ev.m2_b,
        valid_forward=ev.valid_f, valid_backward=ev.valid_b, trace=[],
    )
    return _classify(asm, fake, problem.weighting.huber_delta)


def optimize_pose(problem: OptimizationProblem, max_iterations: int = 50,
                  trace: list | None = None, rounds: int = 3) -> PoseResult:
    """Single-pose refinement over fixed structure.

    Runs a fixed number of refine/reclassify rounds: after each LM pass
    every observation (active or not) is reclassified against the new
    pose, and the next pass optimizes over the current inliers.  The
    exclusion is transient; nothing is removed from the problem.  The
    problem must have exactly one variable pose and no variable points;
    fewer than six observations raise DegenerateProblemError.
    """
    if len(problem.variable_pose_ids) != 1 or problem.variable_point_ids:
        raise DegenerateProblemError(
            "optimize_pose expects exactly one variable pose and fixed points"
        )
    kf_id = problem.variable_pose_ids[0]
    n_obs = sum(1 for t in problem.observations if t.kf_id == kf_id)
    if n_obs < 6:
        raise DegenerateProblemError(
            f"pose optimization needs at least 6 observations, got {n_obs}"
        )
    asm0 = _Assembled(problem)
    state0 = asm0.initial_state(problem)
    ev0 = _evaluate(asm0, state0)
    Hpp, _, _, _, _ = _build_normal_equations(asm0, state0, ev0,
                                              problem.weighting.huber_delta)
    if Hpp.shape[0]:
        eigvals = np.linalg.eigvalsh(Hpp[0, 0])
        if eigvals[-1] <= 0 or eigvals[0] < 1e-12 * eigvals[-1]:
            raise DegenerateProblemError("pose normal equations are rank-deficient")

    all_terms = problem.observations
    active = list(all_terms)
    current = problem
    pose = problem.poses[kf_id]
    cost = 0.0
    iterations = 0
    for _ in range(max(rounds, 1)):
        result = solve_problem(current, max_iterations, trace)
        row = sorted(current.poses).index(kf_id)
        pose = Pose(result.state.R[row], result.state.t[row]).inverse()
        cost, iterations = result.cost, iterations + result.iterations
        flags = _classify_at_pose(problem, pose, kf_id)
        survivors = [t for t in all_terms if flags[(t.point_id, t.kf_id)]]
        same = {(t.point_id, t.kf_id) for t in survivors} == {
            (t.point_id, t.kf_id) for t in active
        }
        if len(survivors) < 6 or same:
            break
        active = survivors
        current = OptimizationProblem(
            cam=problem.cam,
            poses={**problem.poses, kf_id: pose},
            points=problem.points,
            observations=active,
            weighting=problem.weighting,
            variable_pose_ids=(kf_id,),
        )
    flags = _classify_at_pose(problem, pose, kf_id)
    return PoseResult(pose=pose, inlier=flags, cost=cost, iterations=iterations)


@dataclass
class BAResult:
    poses: dict  # kf_id -> Pose (world-from-camera), variable ones refined
    points: dict  # point_id -> (3,)
    inlier: dict  # (point_id, kf_id) -> bool
    removed: list  # (point_id, kf_id) observations deleted by early removal
    cost: float
    iterations: int


def local_bundle_adjustment(problem: OptimizationProblem,
                            policy: OutlierPolicy | None = None,
                            max_iterations: int = 50,
                            trace: list | None = None) -> BAResult:
    """Joint LM over poses and points with Schur elimination.

    Under EARLY_REMOVAL, observations whose final Mahalanobis^2 exceeds
    the chi2 cut (per directional term) are deleted and the reduced
    problem is re-optimized once; KEEP_ALL_ROBUST never deletes.
    """
    policy = policy or OutlierPolicy()
    asm = _Assembled(problem)
    result = solve_problem(problem, max_iterations, trace)
    removed = []
    if policy.mode is OutlierMode.EARLY_REMOVAL:
        doomed = _removal_set(asm, result, policy.chi2_threshold)
        if doomed:
            removed = sorted(doomed)
            survivors = [
                t for t in problem.observations
                if (t.point_id, t.kf_id) not in doomed
            ]
            counts = {}
            for t in survivors:
                counts[t.point_id] = counts.get(t.point_id, 0) + 1
            reduced = OptimizationProblem(
                cam=problem.cam,
                poses={
                    k: Pose(result.state.R[i], result.state.t[i]).inverse()
                    for i, k in enumerate(asm.kf_ids)
                },
                points={
                    p: result.state.pts[i].copy()
                    for i, p in enumerate(asm.pt_ids)
                },
                observations=survivors,
                weighting=problem.weighting,
                variable_pose_ids=problem.variable_pose_ids,
                variable_point_ids=tuple(
                    p for p in problem.variable_point_ids
                    if counts.get(p, 0) >= 2
                ),
            )
            asm = _Assembled(reduced)
            result = solve_problem(reduced, max_iterations, trace)
            problem = reduced
    flags = _classify(asm, result, problem.weighting.huber_delta)
    kf_index = {k: i for i, k in enumerate(asm.kf_ids)}
    pt_index = {p: i for i, p in enumerate(asm.pt_ids)}
    poses = {
        k: Pose(result.state.R[kf_index[k]], result.state.t[kf_index[k]]).inverse()
        for k in asm.kf_ids
    }
    points = {p: result.state.pts[pt_index[p]].copy() for p in asm.pt_ids}
    return BAResult(
        poses=poses, points=points, inlier=flags, removed=removed,
        cost=result.cost, iterations=result.iterations,
    )

