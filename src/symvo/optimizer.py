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

A problem's observations are rows of the ``OBSERVATION`` structured dtype:
``(point, kf, uv, sigma2, ref_kf, ref_uv, ref_sigma2)``, the measured
pixel and its variance in the observing view, then the point's reference
view with its pixel and variance.  A row whose ``ref_kf`` equals its
``kf`` is the reference view itself and has no backward term.  A row is
an inlier when each of its directional terms projects in front of its
cameras with a Mahalanobis^2 within the cut.

The solver is deterministic: fixed term ordering, a fixed damping
schedule, and no time- or memory-dependent state.  Behind-camera terms
are frozen (previous cost, zero gradient) for the step instead of
aborting, so convergence does not depend on evaluation order.

The order in which terms are summed into the normal equations is part
of that contract.  Floating-point addition is not associative, so every
element of H and g must receive its terms in the same sequence (forward
terms, then the backward observing-observing, reference-reference,
observing-reference and reference-observing blocks), each sum starting
from zero; reordering them moves every pose digest.  Within each batch
the terms follow the rows sorted by (point, kf), which the problem does
once when it is built, so the order in which a caller lists the rows
never reaches the sums.  Each term's own block, ``J_a^T w J_b`` or
``J_a^T w r``, is a ``matmul`` of the stacked per-term Jacobians, and the
Jacobians and the Schur step are ``matmul`` products as well; changing
how a block is contracted (``einsum``, a written-out sum) rounds it
differently and moves the digests too, even where the accumulation
order is kept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateProblemError
from .geometry import CameraIntrinsics, Pose, orthonormalize_rotation, so3_exp
from .uncertainty import HUBER_DELTA, CovarianceModel, huber_rho, huber_weight

_Z_EPS = 1e-9
_LAMBDA_INIT = 1e-4
_LAMBDA_MAX = 1e12
_BEHIND_CAMERA_COST_CAP = 19.0  # in units of delta^2; rho at |r|/sigma = 10*delta

# early-removal cut per directional term: the 95% quantile of chi^2 with
# 2 DoF, as ORB-SLAM2 fixes it (Mur-Artal & Tardos, IEEE T-RO 2017)
CHI2_THRESHOLD = 5.991
MAX_ITERATIONS = 50  # LM iterations of one solve
POSE_ROUNDS = 3  # refine/reclassify rounds of optimize_pose


class OutlierMode(enum.Enum):
    EARLY_REMOVAL = "early_removal"
    KEEP_ALL_ROBUST = "keep_all"


OBSERVATION = np.dtype([
    ("point", np.int64),
    ("kf", np.int64),
    ("uv", np.float64, (2,)),
    ("sigma2", np.float64),
    ("ref_kf", np.int64),
    ("ref_uv", np.float64, (2,)),
    ("ref_sigma2", np.float64),
])


def _rows_of(ids, keys) -> np.ndarray:
    """Position of each key in the ascending ``ids``; -1 where it is absent."""
    ids = np.asarray(ids, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    pos = np.searchsorted(ids, keys)
    hit = pos < ids.size
    hit[hit] = ids[pos[hit]] == keys[hit]
    return np.where(hit, pos, -1)


@dataclass
class OptimizationProblem:
    """Poses, points and observation rows with the variable/fixed split.

    ``__post_init__`` validates the problem and assembles it, once: it
    sorts ``observations`` by (point, kf) and derives the index arrays the
    solver reads.  Forward term i is row i.  Backward term b belongs to
    row ``b_fwd[b]`` and projects into keyframe row ``b_ref[b]``.
    ``f_kf``/``f_pt`` index ``kf_ids``/``pt_ids``; the ``*_var`` arrays
    hold the variable index of a term's pose or point, or -1 when it is
    fixed.
    """

    cam: CameraIntrinsics
    poses: dict  # kf_id -> Pose, world-from-camera
    points: dict  # point_id -> (3,) position
    observations: np.ndarray  # OBSERVATION rows
    model: CovarianceModel
    variable_pose_ids: tuple = ()
    variable_point_ids: tuple = ()

    def __post_init__(self):
        self.variable_pose_ids = tuple(sorted(self.variable_pose_ids))
        self.variable_point_ids = tuple(sorted(self.variable_point_ids))
        if self.variable_pose_ids and not set(self.poses) - set(self.variable_pose_ids):
            raise DegenerateProblemError("problem has no fixed pose (gauge free)")
        self.kf_ids = sorted(self.poses)
        self.pt_ids = sorted(self.points)
        self.var_pose_rows = _rows_of(self.kf_ids, self.variable_pose_ids)
        if np.any(self.var_pose_rows < 0):
            kf_id = self.variable_pose_ids[np.argmin(self.var_pose_rows)]
            raise DegenerateProblemError(f"variable pose {kf_id} has no state")
        obs = self.observations[np.lexsort((self.observations["kf"],
                                            self.observations["point"]))]
        self.observations = obs
        self.f_kf = _rows_of(self.kf_ids, obs["kf"])
        ref = _rows_of(self.kf_ids, obs["ref_kf"])
        self.f_pt = _rows_of(self.pt_ids, obs["point"])
        for rows, name, what in ((self.f_kf, "kf", "keyframe"),
                                 (ref, "ref_kf", "reference keyframe"),
                                 (self.f_pt, "point", "point")):
            if np.any(rows < 0):
                missing = obs[name][np.argmin(rows)]
                raise DegenerateProblemError(
                    f"observation references unknown {what} {missing}"
                )
        self.f_kf_var = _rows_of(self.variable_pose_ids, obs["kf"])
        self.f_pt_var = _rows_of(self.variable_point_ids, obs["point"])
        counts = np.bincount(self.f_pt_var[self.f_pt_var >= 0],
                             minlength=len(self.variable_point_ids))
        if np.any(counts < 2):
            pid = self.variable_point_ids[np.argmin(counts >= 2)]
            raise DegenerateProblemError(
                f"variable point {pid} is observed fewer than twice"
            )
        self.var_pt_rows = _rows_of(self.pt_ids, self.variable_point_ids)
        self.f_uv = obs["uv"].copy()
        self.f_info = 1.0 / obs["sigma2"]

        # a row whose ref_kf is its own kf is the reference view
        if self.model is CovarianceModel.SYMMETRIC:
            self.b_fwd = np.flatnonzero(obs["ref_kf"] != obs["kf"])
        else:
            self.b_fwd = np.zeros(0, dtype=np.int64)
        self.b_uv = obs["ref_uv"][self.b_fwd]
        self.b_info = 1.0 / obs["ref_sigma2"][self.b_fwd]
        self.b_ref = ref[self.b_fwd]
        self.b_ref_var = _rows_of(self.variable_pose_ids, obs["ref_kf"][self.b_fwd])
        # measured-ray directions in the observing camera
        self.b_dir = np.ones((self.b_fwd.size, 3))
        self.b_dir[:, 0] = (self.f_uv[self.b_fwd, 0] - self.cam.cx) / self.cam.fx
        self.b_dir[:, 1] = (self.f_uv[self.b_fwd, 1] - self.cam.cy) / self.cam.fy

    def initial_state(self) -> _State:
        """Camera-from-world rows in ``kf_ids`` order, points in ``pt_ids`` order."""
        inverses = [self.poses[k].inverse() for k in self.kf_ids]
        return _State(
            np.array([p.rotation for p in inverses], dtype=np.float64).reshape(-1, 3, 3),
            np.array([p.translation for p in inverses], dtype=np.float64).reshape(-1, 3),
            np.array([self.points[p] for p in self.pt_ids],
                     dtype=np.float64).reshape(-1, 3),
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


def _rotate(R, v):
    """``R[k] @ v[k]`` for every k: (N, 3, 3) and (N, 3) to (N, 3)."""
    return (R @ v[:, :, None])[:, :, 0]


def _evaluate(problem: OptimizationProblem, state: _State) -> _Evaluation:
    cam = problem.cam
    ev = _Evaluation()
    p_w = state.pts[problem.f_pt]
    q = _rotate(state.R[problem.f_kf], p_w) + state.t[problem.f_kf]
    valid = q[:, 2] > _Z_EPS
    z = np.where(valid, q[:, 2], 1.0)
    uv = np.empty_like(problem.f_uv)
    uv[:, 0] = cam.fx * q[:, 0] / z + cam.cx
    uv[:, 1] = cam.fy * q[:, 1] / z + cam.cy
    ev.q_f = q
    ev.r_f = problem.f_uv - uv
    ev.valid_f = valid
    ev.m2_f = (ev.r_f[:, 0] ** 2 + ev.r_f[:, 1] ** 2) * problem.f_info

    B = problem.b_fwd.size
    if B:
        z_k = q[problem.b_fwd, 2]
        X_k = problem.b_dir * z_k[:, None]
        Rk = state.R[problem.f_kf[problem.b_fwd]]
        tk = state.t[problem.f_kf[problem.b_fwd]]
        Y = _rotate(Rk.transpose(0, 2, 1), X_k - tk)  # R^T (X - t)
        Rj = state.R[problem.b_ref]
        tj = state.t[problem.b_ref]
        q_b = _rotate(Rj, Y) + tj
        valid_b = (q_b[:, 2] > _Z_EPS) & (z_k > _Z_EPS)
        z_b = np.where(valid_b, q_b[:, 2], 1.0)
        uv_b = np.empty((B, 2))
        uv_b[:, 0] = cam.fx * q_b[:, 0] / z_b + cam.cx
        uv_b[:, 1] = cam.fy * q_b[:, 1] / z_b + cam.cy
        ev.q_b = q_b
        ev.r_b = problem.b_uv - uv_b
        ev.valid_b = valid_b
        ev.m2_b = (ev.r_b[:, 0] ** 2 + ev.r_b[:, 1] ** 2) * problem.b_info
    else:
        ev.q_b = np.zeros((0, 3))
        ev.r_b = np.zeros((0, 2))
        ev.valid_b = np.zeros(0, dtype=bool)
        ev.m2_b = np.zeros(0)
    return ev


def _term_costs(ev: _Evaluation, prev=None):
    """Per-term Huber costs with freezing of behind-camera terms."""
    costs = np.concatenate([huber_rho(ev.m2_f, HUBER_DELTA),
                            huber_rho(ev.m2_b, HUBER_DELTA)])
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
    """Residual Jacobians w.r.t. the retraction increments of the valid
    (in-front-of-camera) terms only: row i belongs to the i-th valid term,
    forward terms in ``np.flatnonzero(ev.valid_f)`` order and backward
    terms in ``np.flatnonzero(ev.valid_b)`` order."""

    __slots__ = ("f_pose", "f_pt", "b_pose_k", "b_pose_j", "b_pt")


def _term_jacobians(problem: OptimizationProblem, state: _State,
                    ev: _Evaluation) -> _Jacobians:
    J = _Jacobians()
    idx = np.flatnonzero(ev.valid_f)
    q = ev.q_f[idx]
    A = _projection_block(q, problem.cam)  # -dPi/dq
    Rk = state.R[problem.f_kf[idx]]
    tk = state.t[problem.f_kf[idx]]
    # dq/d(dw) = -[q - t]x ; dq/d(dt) = I ; dq/dp = R
    J.f_pose = np.concatenate([-(A @ _hat_batch(q - tk)), A], axis=2)
    J.f_pt = A @ Rk

    idx = np.flatnonzero(ev.valid_b)
    fwd = problem.b_fwd[idx]
    q_b = ev.q_b[idx]
    Bm = _projection_block(q_b, problem.cam)  # -dPi/dq_b
    Rk = state.R[problem.f_kf[fwd]]
    tk = state.t[problem.f_kf[fwd]]
    tj = state.t[problem.b_ref[idx]]
    Rj = state.R[problem.b_ref[idx]]
    d = problem.b_dir[idx]
    z_k = ev.q_f[fwd, 2]
    X_k = d * z_k[:, None]
    v = ev.q_f[fwd] - tk  # R_k p_w
    BM = Bm @ (Rj @ Rk.transpose(0, 2, 1))  # -dPi/dq_b R_j R_k^T
    # point: the measured ray moves only through the depth,
    # d z_k with dz_k/dp = third row of R_k
    J.b_pt = (BM @ d[:, :, None]) * Rk[:, None, 2, :]
    # observing pose translation: z_k shifts with e3^T dt
    dE = np.zeros((idx.size, 3, 3))
    dE[:, :, 2] = d
    Jt_k = BM @ (dE - np.eye(3))
    # observing pose rotation: both the inverse map and z_k move
    e3v = np.zeros((idx.size, 3))
    e3v[:, 0] = -v[:, 1]
    e3v[:, 1] = v[:, 0]
    Jw_k = BM @ (_hat_batch(X_k - tk) - d[:, :, None] * e3v[:, None, :])
    J.b_pose_k = np.concatenate([Jw_k, Jt_k], axis=2)
    # reference pose: plain projective block at q_b
    J.b_pose_j = np.concatenate([-(Bm @ _hat_batch(q_b - tj)), Bm], axis=2)
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


def _weighted_products(Ja, w, Jb):
    """Per-term ``Ja[k]^T w[k] Jb[k]``: (N, 2, a), (N, 1, 1) and (N, 2, b)
    to (N, a, b)."""
    return Ja.transpose(0, 2, 1) @ (w * Jb)


def _build_normal_equations(problem: OptimizationProblem, state: _State,
                            ev: _Evaluation):
    """Accumulate the damped-ready H blocks and gradient."""
    P, L = len(problem.variable_pose_ids), len(problem.variable_point_ids)
    Hpp = _Scatter(P * P, (6, 6))
    Hll = _Scatter(L, (3, 3))
    Hpl = _Scatter(P * L, (6, 3))
    gp = _Scatter(P, (6,))
    gl = _Scatter(L, (3,))
    jac = _term_jacobians(problem, state, ev)

    # forward terms ----------------------------------------------------
    idx = np.flatnonzero(ev.valid_f)
    if idx.size:
        w = (huber_weight(ev.m2_f[idx], HUBER_DELTA)
             * problem.f_info[idx])[:, None, None]
        r = ev.r_f[idx][:, :, None]
        Jpose, Jpt = jac.f_pose, jac.f_pt
        kv = problem.f_kf_var[idx]
        lv = problem.f_pt_var[idx]
        mp = kv >= 0
        ml = lv >= 0
        if np.any(mp):
            Hpp.add(kv[mp] * P + kv[mp],
                    _weighted_products(Jpose[mp], w[mp], Jpose[mp]))
            gp.add(kv[mp], _weighted_products(Jpose[mp], w[mp], r[mp])[:, :, 0])
        if np.any(ml):
            Hll.add(lv[ml], _weighted_products(Jpt[ml], w[ml], Jpt[ml]))
            gl.add(lv[ml], _weighted_products(Jpt[ml], w[ml], r[ml])[:, :, 0])
        both = mp & ml
        if np.any(both):
            Hpl.add(kv[both] * L + lv[both],
                    _weighted_products(Jpose[both], w[both], Jpt[both]))

    # backward terms ---------------------------------------------------
    idx = np.flatnonzero(ev.valid_b)
    if idx.size:
        fwd = problem.b_fwd[idx]
        w = (huber_weight(ev.m2_b[idx], HUBER_DELTA)
             * problem.b_info[idx])[:, None, None]
        r = ev.r_b[idx][:, :, None]
        Jpose_k, Jpose_j, Jpt = jac.b_pose_k, jac.b_pose_j, jac.b_pt
        kv = problem.f_kf_var[fwd]
        jv = problem.b_ref_var[idx]
        lv = problem.f_pt_var[fwd]
        for va, Ja in ((kv, Jpose_k), (jv, Jpose_j)):
            m = va >= 0
            if np.any(m):
                gp.add(va[m], _weighted_products(Ja[m], w[m], r[m])[:, :, 0])
        for va, Ja, vb, Jb in (
            (kv, Jpose_k, kv, Jpose_k),
            (jv, Jpose_j, jv, Jpose_j),
            (kv, Jpose_k, jv, Jpose_j),
        ):
            m = (va >= 0) & (vb >= 0)
            if np.any(m):
                blocks = _weighted_products(Ja[m], w[m], Jb[m])
                Hpp.add(va[m] * P + vb[m], blocks)
                if Ja is not Jb:
                    Hpp.add(vb[m] * P + va[m], np.transpose(blocks, (0, 2, 1)))
        ml = lv >= 0
        if np.any(ml):
            Hll.add(lv[ml], _weighted_products(Jpt[ml], w[ml], Jpt[ml]))
            gl.add(lv[ml], _weighted_products(Jpt[ml], w[ml], r[ml])[:, :, 0])
        for va, Ja in ((kv, Jpose_k), (jv, Jpose_j)):
            m = (va >= 0) & ml
            if np.any(m):
                Hpl.add(va[m] * L + lv[m], _weighted_products(Ja[m], w[m], Jpt[m]))

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
    W = Hpl @ Hll_inv  # per block Hpl Hll^-1
    W_m = W.transpose(0, 2, 1, 3).reshape(6 * P, 3 * L)
    S = Hpp_m - W_m @ Hpl_m.T
    rhs = -(gp_v - W_m @ gl.reshape(3 * L))
    dp = np.linalg.solve(S, rhs)
    dl_rhs = -gl - (Hpl_m.T @ dp).reshape(L, 3)
    dl = (Hll_inv @ dl_rhs[:, :, None])[:, :, 0]
    return dp.reshape(P, 6), dl


def _retract(problem: OptimizationProblem, state: _State, dp, dl):
    new = state.copy()
    for i, row in enumerate(problem.var_pose_rows):
        dw, dt = dp[i, :3], dp[i, 3:]
        new.R[row] = orthonormalize_rotation(so3_exp(dw) @ state.R[row])
        new.t[row] = state.t[row] + dt
    if dl.size:
        new.pts[problem.var_pt_rows] += dl
    return new


def _inliers(problem: OptimizationProblem, ev: _Evaluation, cut: float) -> np.ndarray:
    """Per row: every directional term valid and its Mahalanobis^2 within ``cut``."""
    ok = ev.valid_f & (ev.m2_f <= cut)
    ok[problem.b_fwd] &= ev.valid_b & (ev.m2_b <= cut)
    return ok


def _keys(observations) -> list:
    """(point_id, kf_id) of each row."""
    return list(zip(observations["point"].tolist(), observations["kf"].tolist()))


def _poses_and_points(problem: OptimizationProblem, state: _State):
    """World-from-camera poses and point positions of a solver state."""
    poses = {k: Pose(state.R[i], state.t[i]).inverse()
             for i, k in enumerate(problem.kf_ids)}
    points = {p: state.pts[i].copy() for i, p in enumerate(problem.pt_ids)}
    return poses, points


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
    evaluation: _Evaluation  # of the final state
    trace: list


def solve_problem(problem: OptimizationProblem, trace: list | None = None,
                  normal: tuple | None = None) -> SolveResult:
    """Run LM to convergence on the assembled problem; ``normal``, when
    given, is the initial state's normal equations, built by the caller."""
    state = problem.initial_state()
    ev = _evaluate(problem, state)
    term_prev, _ = _term_costs(ev)
    cost = float(np.sum(term_prev))
    lam = _LAMBDA_INIT
    iterations = 0
    converged = False
    for it in range(MAX_ITERATIONS):
        if converged:
            break
        if normal is None:
            normal = _build_normal_equations(problem, state, ev)
        Hpp, Hpl, Hll, gp, gl = normal
        normal = None
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
            candidate = _retract(problem, state, dp, dl)
            ev_new = _evaluate(problem, candidate)
            costs_new, valid_new = _term_costs(ev_new, term_prev)
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
        state=state, cost=cost, iterations=iterations, evaluation=ev,
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
    ev = _evaluate(problem, problem.initial_state())
    cap = _BEHIND_CAMERA_COST_CAP * HUBER_DELTA * HUBER_DELTA
    costs, _ = _term_costs(ev, prev=np.full(ev.m2_f.size + ev.m2_b.size, cap))
    keys = _keys(problem.observations)
    b_keys = [keys[i] for i in problem.b_fwd]
    return CostReport(
        total=float(np.sum(costs)),
        m2_forward=dict(zip(keys, np.where(ev.valid_f, ev.m2_f, np.inf).tolist())),
        m2_backward=dict(zip(b_keys, np.where(ev.valid_b, ev.m2_b, np.inf).tolist())),
        behind_camera=[keys[i] for i in np.flatnonzero(~ev.valid_f)]
        + [b_keys[b] for b in np.flatnonzero(~ev.valid_b)],
    )


@dataclass
class PoseResult:
    pose: Pose  # world-from-camera
    inlier: dict  # (point_id, kf_id) -> bool
    cost: float
    iterations: int


def optimize_pose(problem: OptimizationProblem,
                  trace: list | None = None) -> PoseResult:
    """Single-pose refinement over fixed structure.

    Runs up to ``POSE_ROUNDS`` refine/reclassify rounds: after each LM pass
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
    n_obs = int(np.count_nonzero(problem.observations["kf"] == kf_id))
    if n_obs < 6:
        raise DegenerateProblemError(
            f"pose optimization needs at least 6 observations, got {n_obs}"
        )
    state0 = problem.initial_state()
    normal = _build_normal_equations(problem, state0, _evaluate(problem, state0))
    Hpp = normal[0]
    if Hpp.shape[0]:
        eigvals = np.linalg.eigvalsh(Hpp[0, 0])
        if eigvals[-1] <= 0 or eigvals[0] < 1e-12 * eigvals[-1]:
            raise DegenerateProblemError("pose normal equations are rank-deficient")

    row = problem.var_pose_rows[0]
    active = np.ones(len(problem.observations), dtype=bool)
    current = problem
    cost = 0.0
    iterations = 0
    for _ in range(POSE_ROUNDS):
        result = solve_problem(current, trace, normal)  # built for state0
        normal = None
        pose = Pose(result.state.R[row], result.state.t[row]).inverse()
        cost, iterations = result.cost, iterations + result.iterations
        # reclassify every row, the variable row derived as initial_state does
        probe, inverse = state0.copy(), pose.inverse()
        probe.R[row], probe.t[row] = inverse.rotation, inverse.translation
        ok = _inliers(problem, _evaluate(problem, probe), HUBER_DELTA * HUBER_DELTA)
        if np.count_nonzero(ok) < 6 or np.array_equal(ok, active):
            break
        active = ok
        current = replace(problem, poses={**problem.poses, kf_id: pose},
                          observations=problem.observations[ok])
    inlier = dict(zip(_keys(problem.observations), ok.tolist()))
    return PoseResult(pose=pose, inlier=inlier, cost=cost, iterations=iterations)


@dataclass
class BAResult:
    poses: dict  # kf_id -> Pose (world-from-camera), variable ones refined
    points: dict  # point_id -> (3,)
    inlier: dict  # (point_id, kf_id) -> bool
    removed: list  # (point_id, kf_id) observations deleted by early removal
    cost: float
    iterations: int


def local_bundle_adjustment(problem: OptimizationProblem,
                            mode: OutlierMode = OutlierMode.KEEP_ALL_ROBUST,
                            trace: list | None = None) -> BAResult:
    """Joint LM over poses and points with Schur elimination.

    Under EARLY_REMOVAL, observations that are not inliers at the
    ``CHI2_THRESHOLD`` cut (per directional term) are deleted and the
    reduced problem is re-optimized once; KEEP_ALL_ROBUST never deletes.
    """
    result = solve_problem(problem, trace)
    removed = []
    if mode is OutlierMode.EARLY_REMOVAL:
        keep = _inliers(problem, result.evaluation, CHI2_THRESHOLD)
        if not np.all(keep):
            removed = _keys(problem.observations[~keep])
            kept_var = problem.f_pt_var[keep]
            counts = np.bincount(kept_var[kept_var >= 0],
                                 minlength=len(problem.variable_point_ids))
            poses, points = _poses_and_points(problem, result.state)
            problem = replace(
                problem, poses=poses, points=points,
                observations=problem.observations[keep],
                variable_point_ids=tuple(
                    p for p, n in zip(problem.variable_point_ids, counts) if n >= 2
                ),
            )
            result = solve_problem(problem, trace)
    inlier = _inliers(problem, result.evaluation, HUBER_DELTA * HUBER_DELTA)
    poses, points = _poses_and_points(problem, result.state)
    return BAResult(
        poses=poses, points=points,
        inlier=dict(zip(_keys(problem.observations), inlier.tolist())),
        removed=removed, cost=result.cost, iterations=result.iterations,
    )
