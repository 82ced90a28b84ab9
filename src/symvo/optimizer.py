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

``CovarianceModel`` selects the model.  Every term is projected with
``geometry.pinhole`` and costs ``huber_rho`` of its Mahalanobis^2, with
the one threshold ``HUBER_DELTA``; the optimizer is the only reader of
both, so they are defined here.

A problem's observations are rows of the ``OBSERVATION`` structured dtype:
``(point, kf, uv, sigma2, ref_kf, ref_uv, ref_sigma2)``, the measured
pixel and its variance in the observing view, then the point's reference
view with its pixel and variance.  A row whose ``ref_kf`` equals its
``kf`` is the reference view itself and has no backward term.  A row is
an inlier when each of its directional terms projects in front of its
cameras with a Mahalanobis^2 within the cut.

The solver is deterministic: fixed term ordering, a fixed damping
schedule, and no time- or memory-dependent state.  A term behind its
camera costs zero and has no gradient, in the solver and in
``evaluate_cost``, which flags it.  A step that puts a term in front
behind its camera is rejected like one that raises the cost (ORB-SLAM2
drops such an edge), so the terms in front only grow during a solve.  A
solve stops at its first accepted step that lowers the cost by less than
``FUNCTION_TOLERANCE`` of it (Ceres Solver's default function tolerance),
at its first damped step, accepted or rejected, shorter than
``STEP_TOLERANCE``, when the damping passes its ceiling, or after
``MAX_ITERATIONS`` accepted steps.  A result reports the final cost,
accepted steps and attempts, nothing more.

The order in which terms are summed into the normal equations is part
of that contract.  Floating-point addition is not associative, so every
element of H and g must receive its terms in the same sequence, each sum
starting from zero; reordering them moves every pose digest.  The problem
sorts its rows by (kf, ref_kf, point) once when it is built, so the order
in which a caller lists the rows never reaches the sums, and the terms
fall into runs that share both of their poses: forward terms one run per
observing keyframe, backward terms one per (observing, reference) pair.
It keeps the permutation as ``row_order`` (sorted row i is the caller's
row ``row_order[i]``), and every per-row result comes back in caller rows.

- ``_evaluate`` maps a run's points with one ``x @ R.T + t`` product,
  with ``R_j R_k^T`` formed once per pair, and ``_term_jacobians``
  multiplies a run's projection blocks by its rotation in one product.
- ``H_pp`` and ``g_p`` take one product per run, ``(w J_pose)^T [J | r]``
  over the stacked rows of the run's valid terms; the runs add in row
  order, forward runs first.
- The point blocks ``H_ll``, ``H_pl`` and ``g_l`` take one product per
  term, ``[J_pose | J_pt]^T w [J_pt | r]``, summed in row order: the
  forward terms, then the backward terms.  They are built one block
  component at a time: the component's value for every term goes into one
  term-length vector, which one ``np.bincount`` sums into the blocks.
  ``H_pl`` takes the observing-pose terms only from the first to the last
  run whose observing pose is variable, and the reference-pose terms
  whole.  A term outside that span reaches no variable block, and leaving
  it out changes no block's sum.
- The Schur step inverts each damped point block in closed form, its
  adjugate over its determinant (``_inverse_3x3``), as g2o's Eigen blocks
  do under ORB-SLAM2; a zero or non-finite determinant makes the problem
  degenerate.  It sums the eliminated points' share of the reduced system
  over fixed chunks of points in order, each chunk a product small enough
  that BLAS runs it on one thread, so the sum does not depend on the BLAS
  thread count.

A solve keeps the structure of its valid terms (``_Structure``): their
indices and runs, the gathers of their per-term constants and the block
indices of the point sums.  Each is a function of the valid set alone, so
the solve builds it once and again only when an accepted step brings a
term in front; reusing it changes no value.  A problem without variable
points leaves the point Jacobians zero, since no block reads them.

Changing how a product is contracted (``einsum``, a written-out sum, one
product over more or fewer rows) rounds it differently and moves the
digests too, even where the accumulation order is kept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateProblemError
from .geometry import (
    CameraIntrinsics,
    Pose,
    orthonormalize_rotation,
    pinhole,
    so3_exp,
    unit_ray,
)

_LAMBDA_INIT = 1e-4
_LAMBDA_MAX = 1e12

# early-removal cut per directional term: the 95% quantile of chi^2 with
# 2 DoF, as ORB-SLAM2 fixes it (Mur-Artal & Tardos, IEEE T-RO 2017)
CHI2_THRESHOLD = 5.991
MAX_ITERATIONS = 50  # LM iterations of one solve
# a solve ends at the first accepted step that lowers the cost by less than
# this fraction: Ceres Solver's default function tolerance
FUNCTION_TOLERANCE = 1e-6
# and at the first damped step, accepted or not, shorter than this
STEP_TOLERANCE = 1e-10
POSE_ROUNDS = 3  # refine/reclassify rounds of optimize_pose


class OutlierMode(enum.Enum):
    EARLY_REMOVAL = "early_removal"
    KEEP_ALL_ROBUST = "keep_all"


class CovarianceModel(enum.Enum):
    STANDARD = "standard"
    SYMMETRIC = "symmetric"


# Huber threshold of every robust cost: the 95% quantile of the chi
# distribution with 2 degrees of freedom, sqrt(5.991)
HUBER_DELTA = 2.447


def huber_weight(mahalanobis2) -> np.ndarray:
    """IRLS weight of the Huber kernel: 1 inside ``HUBER_DELTA``,
    ``HUBER_DELTA``/|r| outside."""
    m2 = np.asarray(mahalanobis2, dtype=np.float64)
    if np.any(m2 < 0):
        raise ValueError("squared residual must be non-negative")
    m = np.sqrt(m2)
    return np.where(m <= HUBER_DELTA, 1.0, HUBER_DELTA / np.where(m > 0, m, 1.0))


def huber_rho(mahalanobis2) -> np.ndarray:
    """Huber cost of a squared Mahalanobis residual.

    Quadratic inside ``HUBER_DELTA``, linear in sqrt(m2) outside;
    continuously differentiable at the boundary.
    """
    m2 = np.asarray(mahalanobis2, dtype=np.float64)
    m = np.sqrt(m2)
    return np.where(m <= HUBER_DELTA, m2,
                    2.0 * HUBER_DELTA * m - HUBER_DELTA * HUBER_DELTA)


OBSERVATION = np.dtype([
    ("point", np.int64),
    ("kf", np.int64),
    ("uv", np.float64, (2,)),
    ("sigma2", np.float64),
    ("ref_kf", np.int64),
    ("ref_uv", np.float64, (2,)),
    ("ref_sigma2", np.float64),
])


def _rows_of(ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the ascending int64 ``ids``; -1 where it is absent."""
    pos = np.searchsorted(ids, keys)
    hit = pos < ids.size
    hit[hit] = ids[pos[hit]] == keys[hit]
    return np.where(hit, pos, -1)


@dataclass
class OptimizationProblem:
    """Poses, points and observation rows with the variable/fixed split.

    ``__post_init__`` validates the problem and assembles it, once: it
    sorts ``observations`` by (kf, ref_kf, point), keeping the permutation
    as ``row_order``, derives the index arrays the solver reads and
    builds the initial state, which ``initial_state`` copies.
    Forward term i is sorted row i.  Backward term b belongs to row
    ``b_fwd[b]`` and projects into keyframe row ``b_ref[b]``.
    ``f_kf``/``f_pt`` index ``kf_ids``/``pt_ids``; the ``*_var`` arrays
    hold the variable index of a term's pose or point, or -1 when it is
    fixed.  Forward terms run by keyframe: run i spans terms
    ``f_bounds[i]:f_bounds[i + 1]``, with keyframe row ``f_run_kf[i]`` and
    variable index ``f_run_var[i]``.  Backward terms run by (kf, ref_kf)
    pair, with ``b_bounds``, rows ``b_run_kf``/``b_run_ref`` and the
    variable indices of both in ``b_run_var``.
    """

    cam: CameraIntrinsics
    poses: dict  # kf_id -> Pose, world-from-camera
    points: dict  # point_id -> (3,) position
    observations: np.ndarray  # OBSERVATION rows
    model: CovarianceModel
    variable_pose_ids: tuple = ()
    variable_point_ids: tuple = ()  # stored as a sorted int64 array

    def __post_init__(self):
        self.variable_pose_ids = tuple(sorted(self.variable_pose_ids))
        self.variable_point_ids = np.sort(np.asarray(self.variable_point_ids, np.int64))
        if self.variable_pose_ids and not set(self.poses) - set(self.variable_pose_ids):
            raise DegenerateProblemError("problem has no fixed pose (gauge free)")
        self.kf_ids = sorted(self.poses)
        self.pt_ids = sorted(self.points)
        kf_ids = np.array(self.kf_ids, dtype=np.int64)
        pt_ids = np.array(self.pt_ids, dtype=np.int64)
        self.var_pose_rows = _rows_of(kf_ids, np.array(self.variable_pose_ids, np.int64))
        if np.any(self.var_pose_rows < 0):
            kf_id = self.variable_pose_ids[np.argmin(self.var_pose_rows)]
            raise DegenerateProblemError(f"variable pose {kf_id} has no state")
        obs = np.ascontiguousarray(self.observations)
        self.row_order = np.lexsort((obs["point"], obs["ref_kf"], obs["kf"]))
        # a gather of the rows' bytes: several times faster than of the records
        rows = obs.view(np.uint8).reshape(len(obs), obs.dtype.itemsize)
        obs = self.observations = np.take(rows, self.row_order, axis=0).view(obs.dtype)[:, 0]
        self.f_kf = _rows_of(kf_ids, obs["kf"])
        ref = _rows_of(kf_ids, obs["ref_kf"])
        self.f_pt = _rows_of(pt_ids, obs["point"])
        for rows, name, what in ((self.f_kf, "kf", "keyframe"),
                                 (ref, "ref_kf", "reference keyframe"),
                                 (self.f_pt, "point", "point")):
            if np.any(rows < 0):
                missing = obs[name][np.argmin(rows)]
                raise DegenerateProblemError(
                    f"observation references unknown {what} {missing}"
                )
        self.var_pt_rows = _rows_of(pt_ids, self.variable_point_ids)
        # variable index of each keyframe row and each point row, or -1
        pose_var = _variable_index(len(kf_ids), self.var_pose_rows)
        self.f_kf_var = pose_var[self.f_kf]
        self.f_pt_var = _variable_index(len(pt_ids), self.var_pt_rows)[self.f_pt]
        counts = np.bincount(self.f_pt_var[self.f_pt_var >= 0],
                             minlength=len(self.variable_point_ids))
        if np.any(counts < 2):
            pid = self.variable_point_ids[np.argmin(counts >= 2)]
            raise DegenerateProblemError(
                f"variable point {pid} is observed fewer than twice"
            )
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
        self.b_ref_var = pose_var[self.b_ref]
        # measured-ray directions in the observing camera
        self.b_dir = unit_ray(self.f_uv[self.b_fwd], self.cam)

        self.f_bounds = _run_bounds(self.f_kf)
        self.f_run_kf = self.f_kf[self.f_bounds[:-1]]
        self.f_run_var = self.f_kf_var[self.f_bounds[:-1]].tolist()
        b_kf = self.f_kf[self.b_fwd]
        self.b_bounds = _run_bounds(b_kf, self.b_ref)
        first = self.b_bounds[:-1]
        self.b_run_kf, self.b_run_ref = b_kf[first], self.b_ref[first]
        self.b_run_var = list(zip(self.f_kf_var[self.b_fwd][first].tolist(),
                                  self.b_ref_var[first].tolist()))

        # camera-from-world rows, each formed as ``Pose.inverse`` forms it
        Rt = [self.poses[k].rotation.T for k in self.kf_ids]
        t = [-R @ self.poses[k].translation for R, k in zip(Rt, self.kf_ids)]
        self._initial = _State(
            np.array(Rt, dtype=np.float64).reshape(-1, 3, 3),
            np.array(t, dtype=np.float64).reshape(-1, 3),
            np.array([self.points[p] for p in self.pt_ids],
                     dtype=np.float64).reshape(-1, 3),
        )

    def initial_state(self) -> _State:
        """Camera-from-world rows in ``kf_ids`` order, points in ``pt_ids``
        order: a copy of the state ``__post_init__`` built."""
        return self._initial.copy()


def _variable_index(n_rows: int, variable_rows: np.ndarray) -> np.ndarray:
    """Per row, its position in ``variable_rows``, or -1 when it is fixed; a
    position whose row is -1 (a variable id without state) is no row's."""
    index = np.full(n_rows, -1, dtype=np.int64)
    held = variable_rows >= 0
    index[variable_rows[held]] = np.flatnonzero(held)
    return index


def _run_bounds(*keys) -> np.ndarray:
    """Start of every run of rows on which all ``keys`` agree, then the row count."""
    n = keys[0].size
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.append(np.flatnonzero(new), n)


def _spans(bounds, kept=None):
    """(start, stop) of each run; counted within the ``kept`` terms when given."""
    if kept is not None:
        count = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(kept, out=count[1:])
        bounds = count[bounds]
    bounds = bounds.tolist()
    return zip(bounds[:-1], bounds[1:])


@dataclass
class _State:
    """Camera-from-world rotations/translations and point positions."""

    R: np.ndarray  # (K, 3, 3)
    t: np.ndarray  # (K, 3)
    pts: np.ndarray  # (L, 3)

    def copy(self):
        return _State(self.R.copy(), self.t.copy(), self.pts.copy())


class _Evaluation:
    """Camera points, residuals, validity and Mahalanobis^2 of every term;
    ``b_M`` holds ``R_j R_k^T`` of each backward run."""

    __slots__ = ("q_f", "r_f", "valid_f", "m2_f", "q_b", "r_b", "valid_b", "m2_b",
                 "b_M")


def _evaluate(problem: OptimizationProblem, state: _State) -> _Evaluation:
    ev = _Evaluation()
    p_w = state.pts[problem.f_pt]
    q = np.empty_like(p_w)
    for (s, e), R, t in zip(_spans(problem.f_bounds), state.R[problem.f_run_kf],
                            state.t[problem.f_run_kf]):
        np.matmul(p_w[s:e], R.T, out=q[s:e])
        q[s:e] += t
    uv, valid = pinhole(q, problem.cam)
    ev.q_f = q
    ev.r_f = problem.f_uv - uv
    ev.valid_f = valid
    ev.m2_f = (ev.r_f[:, 0] ** 2 + ev.r_f[:, 1] ** 2) * problem.f_info

    z_k = q[problem.b_fwd, 2]
    X_k = problem.b_dir * z_k[:, None]
    q_b = np.empty_like(X_k)
    k, j = problem.b_run_kf, problem.b_run_ref
    ev.b_M = state.R[j] @ state.R[k].transpose(0, 2, 1)  # camera k to camera j
    offset = state.t[j] - (ev.b_M @ state.t[k][:, :, None])[:, :, 0]
    for (s, e), M, c in zip(_spans(problem.b_bounds), ev.b_M, offset):
        np.matmul(X_k[s:e], M.T, out=q_b[s:e])
        q_b[s:e] += c
    # a backward term needs its measured ray in front of both cameras
    uv_b, in_front = pinhole(q_b, problem.cam)
    ev.q_b = q_b
    ev.r_b = problem.b_uv - uv_b
    ev.valid_b = in_front & valid[problem.b_fwd]
    ev.m2_b = (ev.r_b[:, 0] ** 2 + ev.r_b[:, 1] ** 2) * problem.b_info
    return ev


def _term_costs(ev: _Evaluation):
    """Per-term Huber costs, zero for a term behind its camera, and the
    terms in front, forward terms first."""
    valid = np.concatenate([ev.valid_f, ev.valid_b])
    costs = np.concatenate([huber_rho(ev.m2_f), huber_rho(ev.m2_b)])
    return np.where(valid, costs, 0.0), valid


def _projection_block(out, q, cam):
    """-dPi/dq at camera points q (N, 3) into ``out`` (3, N, 2): component
    c of residual row r of point i at ``out[c, i, r]``."""
    z = q[:, 2]
    out[0, :, 0] = -cam.fx / z
    out[1, :, 0] = 0.0
    out[2, :, 0] = cam.fx * q[:, 0] / (z * z)
    out[0, :, 1] = 0.0
    out[1, :, 1] = -cam.fy / z
    out[2, :, 1] = cam.fy * q[:, 1] / (z * z)


def _cross(out, a, b):
    """Cross products ``a x b`` of component-first (3, ...) stacks that
    broadcast, into ``out``, which shares memory with neither; a row m
    times the skew matrix [x]x is m x x."""
    tmp = np.empty(out.shape[1:])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        np.multiply(a[k], b[j], out=tmp)
        out[i] -= tmp


class _Structure:
    """What the normal equations read of a solve's set of valid terms, built
    once per set: ``valid`` (forward terms first), the valid terms' indices
    ``f_idx``/``b_idx`` and their runs' (start, stop) ``f_spans``/``b_spans``,
    gathers of the problem's per-term arrays, and the block indices of both
    ``_block_sums`` calls with the span of observing-pose terms that
    ``H_pl`` sums over.  A solve rebuilds it only when the set changes."""

    __slots__ = ("valid", "f_idx", "b_idx", "f_spans", "b_spans", "f_kf", "f_info",
                 "b_fwd", "b_kf", "b_ref", "b_info", "b_dir", "b_dir0", "b_dir1",
                 "ll_index", "pl_index", "pl_spans")

    def __init__(self, problem: OptimizationProblem, ev: _Evaluation):
        self.valid = np.concatenate([ev.valid_f, ev.valid_b])
        self.f_idx = idx = np.flatnonzero(ev.valid_f)
        self.f_spans = list(_spans(problem.f_bounds, ev.valid_f))
        self.f_kf = problem.f_kf[idx]
        self.f_info = problem.f_info[idx]
        self.b_idx = idx = np.flatnonzero(ev.valid_b)
        self.b_spans = list(_spans(problem.b_bounds, ev.valid_b))
        self.b_fwd = fwd = problem.b_fwd[idx]
        self.b_kf = problem.f_kf[fwd]
        self.b_ref = problem.b_ref[idx]
        self.b_info = problem.b_info[idx]
        self.b_dir = d = problem.b_dir[idx].T  # component-first; the third is 1
        self.b_dir0, self.b_dir1 = _per_row(d[0]), _per_row(d[1])

        P, L = len(problem.variable_pose_ids), len(problem.variable_point_ids)
        if L == 0:
            return
        # J_pt^T w [J_pt | r] of every term, to its point
        lv = np.concatenate([problem.f_pt_var[self.f_idx], problem.f_pt_var[fwd]])
        self.ll_index = np.where(lv >= 0, lv, L)
        # J_pose^T w J_pt, to its (pose, point) pair: forward, observing,
        # reference; an observing pose's term reaches a variable block only
        # within the span of the variable runs, a reference pose's term anywhere
        fs, fe = _variable_span(self.f_spans, problem.f_run_var)
        bs, be = _variable_span(self.b_spans, [k for k, _ in problem.b_run_var])
        nf = self.f_idx.size
        kv = np.concatenate([problem.f_kf_var[self.f_idx[fs:fe]],
                             problem.f_kf_var[fwd[bs:be]], problem.b_ref_var[idx]])
        lv = np.concatenate([lv[fs:fe], lv[nf + bs:nf + be], lv[nf:]])
        self.pl_index = np.where((kv >= 0) & (lv >= 0), kv * L + lv, P * L)
        self.pl_spans = (fs, fe), (bs, be)


class _Jacobians:
    """The two residual rows of every valid (in-front-of-camera) term:
    its Jacobians w.r.t. the retraction increments, then its residual.
    Component c of residual row r of the i-th valid term is ``f[c, i, r]``
    (forward) or ``b[c, i, r]`` (backward).  The components of ``f`` are
    [d/d pose (6) | d/d point (3) | r]; those of ``b`` are [d/d observing
    pose (6) | d/d reference pose (6) | d/d point (3) | r].  Valid terms
    keep their row order, so each run of the problem is a slice of them,
    spanned as the ``_Structure`` says.  A problem without variable points
    leaves the point components zero: nothing reads them."""

    __slots__ = ("f", "b")

    f_pose = property(lambda self: self.f[:6].transpose(1, 2, 0))
    f_pt = property(lambda self: self.f[6:9].transpose(1, 2, 0))
    b_pose_k = property(lambda self: self.b[:6].transpose(1, 2, 0))
    b_pose_j = property(lambda self: self.b[6:12].transpose(1, 2, 0))
    b_pt = property(lambda self: self.b[12:15].transpose(1, 2, 0))


def _per_row(x):
    """A per-term factor of shape (..., n) repeated across the term's two
    residual rows: a contiguous (..., n, 2), so that its products with a
    Jacobian stack run as one loop."""
    out = np.empty(x.shape + (2,))
    out[..., 0] = x
    out[..., 1] = x
    return out


def _term_jacobians(problem: OptimizationProblem, state: _State, ev: _Evaluation,
                    s: _Structure | None = None) -> _Jacobians:
    """Jacobians of the valid terms of ``ev``; ``s`` is their structure,
    built here when not given."""
    if s is None:
        s = _Structure(problem, ev)
    points = len(problem.variable_point_ids) > 0
    J = _Jacobians()
    q = ev.q_f[s.f_idx]
    J.f = F = np.empty((10, s.f_idx.size, 2))
    A = F[3:6]  # -dPi/dq; dq/d(dt) = I
    _projection_block(A, q, problem.cam)
    # dq/d(dw) = -[q - t]x ; dq/dp = R
    _cross(F[0:3], _per_row((q - state.t[s.f_kf]).T), A)
    if points:
        for (a, b), R in zip(s.f_spans, state.R[problem.f_run_kf]):
            F[6:9, a:b] = (R.T @ A[:, a:b].reshape(3, -1)).reshape(3, -1, 2)
    else:
        F[6:9] = 0.0
    F[9] = ev.r_f[s.f_idx]

    q_b = ev.q_b[s.b_idx]
    J.b = B = np.empty((16, s.b_idx.size, 2))
    Bm = B[9:12]  # -dPi/dq_b
    _projection_block(Bm, q_b, problem.cam)
    BM = np.empty_like(Bm)  # -dPi/dq_b R_j R_k^T
    for (a, b), M in zip(s.b_spans, ev.b_M):
        if a < b:
            BM[:, a:b] = (M.T @ Bm[:, a:b].reshape(3, -1)).reshape(3, -1, 2)
    tk = state.t[s.b_kf].T
    X_k = s.b_dir * ev.q_f[s.b_fwd, 2]
    v = _per_row(ev.q_f[s.b_fwd, :2].T - tk[:2])  # R_k p_w
    BMd = BM[0] * s.b_dir0 + BM[1] * s.b_dir1 + BM[2]
    # observing pose rotation: both the inverse map and z_k move,
    # BM ([X_k - t]x - d (e3 x v)^T) with e3 x v = (-v1, v0, 0)
    _cross(B[0:3], BM, _per_row(X_k - tk))
    B[0] += BMd * v[1]
    B[1] -= BMd * v[0]
    # observing pose translation: z_k shifts with e3^T dt, BM (d e3^T - I)
    np.negative(BM, out=B[3:6])
    B[5] += BMd
    # reference pose: plain projective block at q_b
    _cross(B[6:9], _per_row((q_b - state.t[s.b_ref]).T), Bm)
    # point: the measured ray moves only through the depth,
    # d z_k with dz_k/dp = third row of R_k
    if points:
        np.multiply(BMd, _per_row(state.R[s.b_kf, 2].T), out=B[12:15])
    else:
        B[12:15] = 0.0
    B[15] = ev.r_b[s.b_idx]
    return J


def _block_sums(index, n_blocks, pairs):
    """Per term i, ``X[:, i]^T Y[:, i]`` of each (X, Y) pair of (a, n, 2)
    and (b, n, 2) stacks, the pairs' terms one after another, summed into
    block ``index[i]`` in order of i: (n_blocks, a, b), index ``n_blocks``
    dropped.  Each component is formed in two term-length vectors and
    summed with one ``np.bincount``."""
    a, b = pairs[0][0].shape[0], pairs[0][1].shape[0]
    out = np.empty((n_blocks, a, b))
    s1, s2 = np.empty(index.size), np.empty(index.size)
    for i, j in np.ndindex(a, b):
        s = 0
        for X, Y in pairs:
            e = s + X.shape[1]
            np.multiply(X[i, :, 0], Y[j, :, 0], out=s1[s:e])
            np.multiply(X[i, :, 1], Y[j, :, 1], out=s2[s:e])
            s = e
        s1 += s2
        out[:, i, j] = np.bincount(index, weights=s1,
                                   minlength=n_blocks + 1)[:n_blocks]
    return out


def _variable_span(spans, variable):
    """Start of the first and stop of the last run whose pose is variable;
    (0, 0) when none is."""
    kept = [span for span, v in zip(spans, variable) if v >= 0]
    return (kept[0][0], kept[-1][1]) if kept else (0, 0)


def _build_normal_equations(problem: OptimizationProblem, state: _State,
                            ev: _Evaluation, s: _Structure | None = None):
    """Accumulate the damped-ready H blocks and gradient; ``s`` is the
    structure of the valid terms of ``ev``, built here when not given."""
    if s is None:
        s = _Structure(problem, ev)
    P, L = len(problem.variable_pose_ids), len(problem.variable_point_ids)
    jac = _term_jacobians(problem, state, ev, s)
    F, B = jac.f, jac.b
    w_f = huber_weight(ev.m2_f[s.f_idx]) * s.f_info
    w_b = huber_weight(ev.m2_b[s.b_idx]) * s.b_info
    WF = F * _per_row(w_f)
    WB = B * _per_row(w_b)

    # pose blocks: one product per run ---------------------------------
    Hpp = np.zeros((P, P, 6, 6))
    gp = np.zeros((P, 6))
    for (a, b), kv in zip(s.f_spans, problem.f_run_var):
        if a < b and kv >= 0:
            G = WF[:6, a:b].reshape(6, -1) @ F[:, a:b].reshape(10, -1).T
            Hpp[kv, kv] += G[:, :6]
            gp[kv] += G[:, 9]
    for (a, b), (kv, jv) in zip(s.b_spans, problem.b_run_var):
        if a == b or (kv < 0 and jv < 0):
            continue
        G = WB[:12, a:b].reshape(12, -1) @ B[:, a:b].reshape(16, -1).T
        if kv >= 0:
            Hpp[kv, kv] += G[:6, :6]
            gp[kv] += G[:6, 15]
        if jv >= 0:
            Hpp[jv, jv] += G[6:, 6:12]
            gp[jv] += G[6:, 15]
        if kv >= 0 and jv >= 0:
            Hpp[kv, jv] += G[:6, 6:12]
            Hpp[jv, kv] += G[6:, :6]

    # point blocks: one bincount per component, forward terms first ----
    if L == 0:
        return Hpp, np.zeros((P, 0, 6, 3)), np.zeros((0, 3, 3)), gp, np.zeros((0, 3))
    Hll_gl = _block_sums(s.ll_index, L, ((F[6:9], WF[6:10]), (B[12:15], WB[12:16])))
    (fs, fe), (bs, be) = s.pl_spans
    Hpl = _block_sums(s.pl_index, P * L,
                      ((F[:6, fs:fe], WF[6:9, fs:fe]), (B[:6, bs:be], WB[12:15, bs:be]),
                       (B[6:12], WB[12:15])))
    return (Hpp, Hpl.reshape(P, L, 6, 3), Hll_gl[:, :, :3], gp, Hll_gl[:, :, 3])


# OpenBLAS runs a product of at most 2**18 multiply-adds on one thread; a
# larger one may be split across threads, and the split changes its rounding
_ONE_THREAD_PRODUCT = 1 << 18


def _schur_columns(P: int) -> int:
    """Columns (three per point) of one chunk of the Schur reduction."""
    return 3 * max(1, _ONE_THREAD_PRODUCT // (3 * 6 * P * (6 * P + 1)))


def _inverse_3x3(A: np.ndarray) -> np.ndarray:
    """Inverses of an (n, 3, 3) stack: each block's adjugate over its
    determinant, expanded along the first row.  A zero or non-finite
    determinant raises ``LinAlgError``."""
    a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 0, 2]
    d, e, f = A[:, 1, 0], A[:, 1, 1], A[:, 1, 2]
    g, h, i = A[:, 2, 0], A[:, 2, 1], A[:, 2, 2]
    adj = np.empty_like(A)
    adj[:, 0, 0] = e * i - f * h
    adj[:, 0, 1] = c * h - b * i
    adj[:, 0, 2] = b * f - c * e
    adj[:, 1, 0] = f * g - d * i
    adj[:, 1, 1] = a * i - c * g
    adj[:, 1, 2] = c * d - a * f
    adj[:, 2, 0] = d * h - e * g
    adj[:, 2, 1] = b * g - a * h
    adj[:, 2, 2] = a * e - b * d
    det = a * adj[:, 0, 0] + b * adj[:, 1, 0] + c * adj[:, 2, 0]
    if not np.all(np.isfinite(det) & (det != 0.0)):
        raise np.linalg.LinAlgError("a point block is singular")
    adj /= det[:, None, None]
    return adj


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
    Hll_inv = _inverse_3x3(Hll_d)
    W_m = (Hpl @ Hll_inv).transpose(0, 2, 1, 3).reshape(6 * P, 3 * L)
    # [Hpl^T | gl]: one product gives the Schur complement and its
    # right-hand side, summed chunk by chunk in order
    right = np.empty((3 * L, 6 * P + 1))
    right[:, :-1] = Hpl.transpose(1, 3, 0, 2).reshape(3 * L, 6 * P)
    right[:, -1] = gl.reshape(3 * L)
    reduced = np.zeros((6 * P, 6 * P + 1))
    step = _schur_columns(P)
    for s in range(0, 3 * L, step):
        reduced += W_m[:, s:s + step] @ right[s:s + step]
    S = Hpp_m - reduced[:, :-1]
    rhs = -(gp_v - reduced[:, -1])
    dp = np.linalg.solve(S, rhs)
    dl_rhs = -gl - (right[:, :-1] @ dp).reshape(L, 3)
    dl = (Hll_inv @ dl_rhs[:, :, None])[:, :, 0]
    return dp.reshape(P, 6), dl


def _retract(problem: OptimizationProblem, state: _State, dp, dl):
    new = state.copy()
    rows = problem.var_pose_rows
    if rows.size:
        turned = [so3_exp(dw) @ state.R[row] for dw, row in zip(dp[:, :3], rows)]
        new.R[rows] = orthonormalize_rotation(turned)
        new.t[rows] = state.t[rows] + dp[:, 3:]
    if dl.size:
        new.pts[problem.var_pt_rows] += dl
    return new


def _inliers(problem: OptimizationProblem, ev: _Evaluation, cut: float) -> np.ndarray:
    """Per row: every directional term valid and its Mahalanobis^2 within ``cut``."""
    ok = ev.valid_f & (ev.m2_f <= cut)
    ok[problem.b_fwd] &= ev.valid_b & (ev.m2_b <= cut)
    return ok


def _in_caller_order(problem: OptimizationProblem, rows: np.ndarray) -> np.ndarray:
    """A per-row array of the sorted rows, put in the caller's row order."""
    out = np.empty_like(rows)
    out[problem.row_order] = rows
    return out


def _poses(problem: OptimizationProblem, state: _State) -> dict:
    """World-from-camera poses of a solver state."""
    return {k: Pose(state.R[i], state.t[i]).inverse()
            for i, k in enumerate(problem.kf_ids)}


@dataclass
class SolveResult:
    state: _State
    cost: float
    iterations: int  # accepted steps
    attempts: int  # damped steps solved, accepted or not
    evaluation: _Evaluation  # of the final state


def solve_problem(problem: OptimizationProblem,
                  normal: tuple | None = None) -> SolveResult:
    """Run LM to convergence on the assembled problem; ``normal``, when
    given, is the initial state's normal equations, built by the caller.
    A step that raises the cost or puts a term in front behind its camera
    is rejected: λ grows tenfold and the same equations are solved again."""
    state = problem.initial_state()
    ev = _evaluate(problem, state)
    costs, valid = _term_costs(ev)
    cost = float(np.sum(costs))
    lam = _LAMBDA_INIT
    iterations = attempts = 0
    converged = False
    structure = None
    for _ in range(MAX_ITERATIONS):
        if normal is None:
            if structure is None or not np.array_equal(structure.valid, valid):
                structure = _Structure(problem, ev)
            normal = _build_normal_equations(problem, state, ev, structure)
        H, normal = normal, None
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                dp, dl = _solve_step(*H, lam)
            except np.linalg.LinAlgError as exc:
                raise DegenerateProblemError(
                    f"normal equations are singular: {exc}"
                ) from exc
            attempts += 1
            short = float(np.sqrt(np.sum(dp * dp) + np.sum(dl * dl))) < STEP_TOLERANCE
            candidate = _retract(problem, state, dp, dl)
            ev_new = _evaluate(problem, candidate)
            costs_new, valid_new = _term_costs(ev_new)
            cost_new = float(np.sum(costs_new))
            if cost_new < cost and not np.any(valid & ~valid_new):
                rel = (cost - cost_new) / max(cost, 1e-300)
                state, ev, valid, cost = candidate, ev_new, valid_new, cost_new
                lam = max(lam * 0.1, 1e-12)
                iterations += 1
                accepted = True
                converged = rel < FUNCTION_TOLERANCE or short
                break
            if short:
                break
            lam *= 10.0
        if converged or not accepted:
            break

    return SolveResult(state, cost, iterations, attempts, ev)


@dataclass
class CostReport:
    total: float  # robust cost of the initial state; a term behind adds zero
    m2_forward: np.ndarray  # (n,) per caller row; inf behind the camera
    m2_backward: np.ndarray  # (n,) likewise; NaN for a row without a backward term
    behind_camera: np.ndarray  # (n,) bool: any of the row's terms is behind


def evaluate_cost(problem: OptimizationProblem) -> CostReport:
    """Pure robust-cost evaluation; no state is mutated.

    ``total`` is the solver's initial cost: a term behind its camera is
    flagged and costs zero, as it does at every state of a solve.
    """
    ev = _evaluate(problem, problem.initial_state())
    costs, _ = _term_costs(ev)
    m2_backward = np.full(ev.m2_f.size, np.nan)
    m2_backward[problem.b_fwd] = np.where(ev.valid_b, ev.m2_b, np.inf)
    behind = ~ev.valid_f
    behind[problem.b_fwd] |= ~ev.valid_b
    return CostReport(
        total=float(np.sum(costs)),
        m2_forward=_in_caller_order(problem, np.where(ev.valid_f, ev.m2_f, np.inf)),
        m2_backward=_in_caller_order(problem, m2_backward),
        behind_camera=_in_caller_order(problem, behind),
    )


@dataclass
class PoseResult:
    pose: Pose  # world-from-camera
    inlier: np.ndarray  # (n,) bool per caller row
    cost: float
    iterations: int


def optimize_pose(problem: OptimizationProblem) -> PoseResult:
    """Single-pose refinement over fixed structure.

    Runs up to ``POSE_ROUNDS`` refine/reclassify rounds: after each LM pass
    every observation (active or not) is reclassified against the new
    pose, and the next pass optimizes over the current inliers.  The
    exclusion is transient; nothing is removed from the problem.  The
    problem must have exactly one variable pose and no variable points;
    fewer than six observations raise DegenerateProblemError.
    """
    if len(problem.variable_pose_ids) != 1 or len(problem.variable_point_ids):
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
    eigvals = np.linalg.eigvalsh(normal[0][0, 0])
    if eigvals[-1] <= 0 or eigvals[0] < 1e-12 * eigvals[-1]:
        raise DegenerateProblemError("pose normal equations are rank-deficient")

    row = problem.var_pose_rows[0]
    active = np.ones(len(problem.observations), dtype=bool)
    current = problem
    cost = 0.0
    iterations = 0
    for _ in range(POSE_ROUNDS):
        result = solve_problem(current, normal)  # built for state0
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
    return PoseResult(pose, _in_caller_order(problem, ok), cost, iterations)


@dataclass
class BAResult:
    poses: dict  # kf_id -> Pose (world-from-camera), variable ones refined
    points: np.ndarray  # (L, 3), in ascending ``problem.pt_ids`` order
    inlier: np.ndarray  # (n,) bool per caller row; False for a removed row
    removed: np.ndarray  # ascending caller rows deleted by early removal
    cost: float  # cost, accepted steps and step attempts of the last solve
    iterations: int
    attempts: int


def local_bundle_adjustment(problem: OptimizationProblem,
                            mode: OutlierMode = OutlierMode.KEEP_ALL_ROBUST) -> BAResult:
    """Joint LM over poses and points with Schur elimination.

    Under EARLY_REMOVAL, observations that are not inliers at the
    ``CHI2_THRESHOLD`` cut (per directional term) are deleted and the
    reduced problem is re-optimized once; KEEP_ALL_ROBUST never deletes.
    """
    result = solve_problem(problem)
    kept = np.ones(len(problem.observations), dtype=bool)  # sorted rows
    solved = problem
    if mode is OutlierMode.EARLY_REMOVAL:
        kept = _inliers(problem, result.evaluation, CHI2_THRESHOLD)
        if not np.all(kept):
            kept_var = problem.f_pt_var[kept]
            counts = np.bincount(kept_var[kept_var >= 0],
                                 minlength=len(problem.variable_point_ids))
            # already sorted, the kept rows keep their order in ``solved``
            solved = replace(
                problem, poses=_poses(problem, result.state),
                points=dict(zip(problem.pt_ids, result.state.pts)),
                observations=problem.observations[kept],
                variable_point_ids=problem.variable_point_ids[counts >= 2],
            )
            result = solve_problem(solved)
    inlier = np.zeros(kept.size, dtype=bool)
    inlier[kept] = _inliers(solved, result.evaluation, HUBER_DELTA * HUBER_DELTA)
    return BAResult(
        poses=_poses(solved, result.state), points=result.state.pts,
        inlier=_in_caller_order(problem, inlier),
        removed=np.sort(problem.row_order[~kept]),
        cost=result.cost, iterations=result.iterations, attempts=result.attempts,
    )
