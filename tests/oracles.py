"""Reference kernels of the optimizer's normal equations and Schur step.

``reference_normal_equations`` is the slow form of the documented
summation order of ``_build_normal_equations``: for the pose blocks one
boolean mask and one product per keyframe (forward) or (kf, ref_kf) pair
(backward) group, and for the point blocks every term's whole product
block, an (n, a, b) stack from its own ``_term_products``, summed with
sequential ``np.add.at`` calls in row order, the forward terms first.
The kernel forms the same per-term values one block component at a time,
and only for the terms that can reach a variable block.
``reference_solve_step`` damps each point block in a loop and reduces the
Schur complement point chunk by point chunk.  They take the kernels' own
Jacobians and per-group products, and the kernels must agree with them
bit for bit.

``per_term_normal_equations`` accumulates every term's own blocks with
``np.add.at``, the order the kernels used before the groups; with
``einsum=True`` it contracts with the ``np.einsum`` forms of the kernels
before ``matmul``, Jacobians included.  Both sum in another order, so
they agree with the kernels only to rounding; they stay as checks that
share neither the kernels' grouping nor, with ``einsum``, their
contractions.

``reference_match`` is the dense form of ``association.match``: it scores
every (query, target) pair with ``hamming_matrix`` and takes geometric
admissibility as an (Nq, Nt) ``pair_mask`` and parallax as an (Nq, Nt)
matrix.  ``reference_search_for_triangulation`` is the triangulation
search on top of it, with the parallax of every pair and both epipolar
bands from ``reference_epipolar_distances``, which allocates a new
matrix per step where the program computes in one buffer.  Each keeps its own
walk per ``Ordering``: a global walk by ascending distance, and a
query-by-query search for the nearest free target.  The program's forms
score only the pairs that can still pass the gates, walk them once, and
must return the same (n, 2) rows in the same order.

``reference_initialize_two_view`` is two-view initialization with its
RANSAC as one loop: each hypothesis is drawn, solved with the scalar
``reference_eight_point`` and scored with the scalar
``reference_epipolar_residuals_px`` before the next one is drawn.  The
program scores every hypothesis in batches and must return the same
bytes (``initialization_bytes``) and leave the generator in the same
state.  ``initialization_inputs`` builds the matches and deviations that
initialization receives for two frames, and ``corridor_match_inputs`` a
``match`` of a corridor frame's size.

``reference_create_point``, ``reference_add_observation``,
``reference_remove_observation``, ``reference_merge_points``,
``reference_cull_points``, ``reference_apply_retention`` and
``reference_apply_fuse`` are the map edits one point, row or keyframe at a
time: a point created and bound keyframe by keyframe, an observation
bound, or unbound and its point's survival checked slot by slot, one merge
over every slot, a cull point by point, retention keyframe by keyframe,
and the fuse walk over its rows with a guard per row.  They write the
map's binding table (``_held`` and ``_inlier``) one cell at a time.
``WorldMap``'s edits take id arrays and ``Pipeline._apply_fuse`` makes one
call per edit group; they must leave the same bytes in the table and in
``positions`` (``map_bytes``).  The map keeps no liveness of its own, so
the oracle editors keep a record beside the table (``reference_points``):
a point enters it when created and leaves it when an edit kills it, and
``WorldMap.points``, read from the table, must equal it.

``reference_bindings``, ``reference_owners`` and
``reference_reselect_references`` are the map's reads as plain loops over
the table: its cells point by point, then slot by slot, then the
geometric rule as a lexsort of every binding row
(``select_reference_geometric_index``) or the appearance rule over each
point's run.  The map reads them with whole-table operations and must
return the same bytes.

The rest is reference code that the program itself does not call:

- ``Descriptor``, ``hamming`` and ``pack_descriptors``: scalar
  descriptors, the reference of the packed popcount kernels.
- ``project``, ``backproject`` and ``reproject``: the pinhole map and its
  inverse, raising on a point behind the camera or a non-positive depth,
  where ``geometry.pinhole`` flags instead; and ``so3_log``, the inverse
  of ``geometry.so3_exp``.
- ``KeypointNoise``, ``ResidualTerm``, ``residual_standard`` and
  ``residual_symmetric``: the two residual models one observation at a
  time, the reference of ``optimizer.evaluate_cost``.
- the covariance-ratio analysis behind the symmetric model:
  ``alpha_standard``, ``alpha_symmetric``, ``alpha_curves`` and
  ``write_alpha_curves``, with ``deformation_gradient``,
  ``isotropic_scale`` and ``projection_jacobian``.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from symvo.association import (
    EPIPOLAR_SIGMA_FACTOR,
    AssociationPolicy,
    Ordering,
    Site,
    fundamental_from_relative,
    gate_mask,
    fuse,
    match,
    triangulate_rays,
)
from symvo.errors import DescriptorMismatchError, SymvoError, WorldIntegrityError
from symvo.features import (
    DESCRIPTOR_BITS,
    ReferenceRule,
    _group_starts,
    hamming_matrix,
    select_reference_appearance_index,
    sigma2_at,
)
from symvo.geometry import CameraIntrinsics, Pose, parallax_angles, unit_ray
from symvo.optimizer import _schur_columns, _term_jacobians, huber_weight
from symvo.pipeline import (
    RANSAC_ITERATIONS,
    RANSAC_THRESHOLD_PX,
    _decompose_essential,
)
from symvo.worldmap import keyframe_retention


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


def reference_camera_points(problem, state):
    """Each term's camera point, row by row: ``R_k p + t_k`` forward, and
    backward the measured ray at the forward depth, mapped to the world and
    into the reference view."""
    q_f = np.array([state.R[k] @ state.pts[p] + state.t[k]
                    for k, p in zip(problem.f_kf, problem.f_pt)]).reshape(-1, 3)
    q_b = []
    for b, i in enumerate(problem.b_fwd):
        k, j = problem.f_kf[i], problem.b_ref[b]
        world = state.R[k].T @ (problem.b_dir[b] * q_f[i, 2] - state.t[k])
        q_b.append(state.R[j] @ world + state.t[j])
    return q_f, np.array(q_b).reshape(-1, 3)


def _projection_rows(q, cam):
    """Batched -dPi/dq at camera points q: (N, 2, 3)."""
    n = q.shape[0]
    J = np.zeros((n, 2, 3))
    z = q[:, 2]
    J[:, 0, 0] = -cam.fx / z
    J[:, 0, 2] = cam.fx * q[:, 0] / (z * z)
    J[:, 1, 1] = -cam.fy / z
    J[:, 1, 2] = cam.fy * q[:, 1] / (z * z)
    return J


def einsum_term_jacobians(problem, state, ev):
    """``_term_jacobians`` in its ``np.einsum`` form: the valid terms only."""
    J = SimpleNamespace()
    idx = np.flatnonzero(ev.valid_f)
    q = ev.q_f[idx]
    A = _projection_rows(q, problem.cam)
    Rk = state.R[problem.f_kf[idx]]
    tk = state.t[problem.f_kf[idx]]
    Jw = -np.einsum("kab,kbc->kac", A, _hat_batch(q - tk))
    J.f_pose = np.concatenate([Jw, A], axis=2)
    J.f_pt = np.einsum("kab,kbc->kac", A, Rk)

    idx = np.flatnonzero(ev.valid_b)
    fwd = problem.b_fwd[idx]
    q_b = ev.q_b[idx]
    Bm = _projection_rows(q_b, problem.cam)
    Rk = state.R[problem.f_kf[fwd]]
    tk = state.t[problem.f_kf[fwd]]
    tj = state.t[problem.b_ref[idx]]
    Rj = state.R[problem.b_ref[idx]]
    d = problem.b_dir[idx]
    X_k = d * ev.q_f[fwd, 2][:, None]
    v = ev.q_f[fwd] - tk
    M = np.einsum("kab,kcb->kac", Rj, Rk)
    BM = np.einsum("kab,kbc->kac", Bm, M)
    J.b_pt = np.einsum("kab,kb,kc->kac", BM, d, Rk[:, 2, :])
    dE = np.zeros((idx.size, 3, 3))
    dE[:, :, 2] = d
    Jt_k = np.einsum("kab,kbc->kac", BM, dE - np.eye(3))
    e3v = np.zeros((idx.size, 3))
    e3v[:, 0] = -v[:, 1]
    e3v[:, 1] = v[:, 0]
    inner = _hat_batch(X_k - tk) - np.einsum("ka,kb->kab", d, e3v)
    Jw_k = np.einsum("kab,kbc->kac", BM, inner)
    J.b_pose_k = np.concatenate([Jw_k, Jt_k], axis=2)
    Jw_j = -np.einsum("kab,kbc->kac", Bm, _hat_batch(q_b - tj))
    J.b_pose_j = np.concatenate([Jw_j, Bm], axis=2)
    return J


def _weights(problem, ev):
    """Huber weight times information of the valid forward and backward terms."""
    f_idx, b_idx = np.flatnonzero(ev.valid_f), np.flatnonzero(ev.valid_b)
    return (huber_weight(ev.m2_f[f_idx]) * problem.f_info[f_idx],
            huber_weight(ev.m2_b[b_idx]) * problem.b_info[b_idx])


def _term_products(X, Y):
    """Per term i, ``X[:, i]^T Y[:, i]`` of component-first (a, n, 2) and
    (b, n, 2) stacks: (n, a, b), each sum of two products as the kernel forms it."""
    return (X[:, :, 0].T[:, :, None] * Y[:, :, 0].T[:, None, :]
            + X[:, :, 1].T[:, :, None] * Y[:, :, 1].T[:, None, :])


def reference_normal_equations(problem, state, ev):
    P, L = len(problem.variable_pose_ids), len(problem.variable_point_ids)
    Hpp = np.zeros((P, P, 6, 6))
    Hll = np.zeros((L, 3, 3))
    Hpl = np.zeros((P, L, 6, 3))
    gp = np.zeros((P, 6))
    gl = np.zeros((L, 3))
    jac = _term_jacobians(problem, state, ev)
    F, B = jac.f, jac.b
    w_f, w_b = _weights(problem, ev)
    WF = F * w_f[:, None]
    WB = B * w_b[:, None]
    f_idx, b_idx = np.flatnonzero(ev.valid_f), np.flatnonzero(ev.valid_b)
    fwd = problem.b_fwd[b_idx]
    var = {problem.kf_ids.index(k): v for v, k in enumerate(problem.variable_pose_ids)}

    # pose blocks: one mask and one product per group, groups in order
    kf = problem.f_kf[f_idx]
    for k in np.unique(kf).tolist():
        if k not in var:
            continue
        m = kf == k
        G = WF[:, m][:6].reshape(6, -1) @ F[:, m].reshape(10, -1).T
        Hpp[var[k], var[k]] += G[:, :6]
        gp[var[k]] += G[:, 9]
    kf, ref = problem.f_kf[fwd], problem.b_ref[b_idx]
    for k, j in np.unique(np.stack([kf, ref], axis=1), axis=0).tolist():
        if k not in var and j not in var:
            continue
        m = (kf == k) & (ref == j)
        G = WB[:, m][:12].reshape(12, -1) @ B[:, m].reshape(16, -1).T
        for a, side in ((k, slice(0, 6)), (j, slice(6, 12))):
            if a in var:
                gp[var[a]] += G[side, 15]
                for b, other in ((k, slice(0, 6)), (j, slice(6, 12))):
                    if b in var:
                        Hpp[var[a], var[b]] += G[side, other]

    # point blocks: each term's own products, in row order
    kv, lv = problem.f_kf_var[f_idx], problem.f_pt_var[f_idx]
    m = lv >= 0
    T = _term_products(F[6:9], WF[6:10])
    np.add.at(Hll, lv[m], T[m, :, :3])
    np.add.at(gl, lv[m], T[m, :, 3])
    m &= kv >= 0
    np.add.at(Hpl, (kv[m], lv[m]), _term_products(F[:6], WF[6:9])[m])
    lv = problem.f_pt_var[fwd]
    m = lv >= 0
    T = _term_products(B[12:15], WB[12:16])
    np.add.at(Hll, lv[m], T[m, :, :3])
    np.add.at(gl, lv[m], T[m, :, 3])
    for va, pose in ((problem.f_kf_var[fwd], slice(0, 6)),
                     (problem.b_ref_var[b_idx], slice(6, 12))):
        m = (va >= 0) & (lv >= 0)
        np.add.at(Hpl, (va[m], lv[m]), _term_products(B[pose], WB[12:15])[m])
    return Hpp, Hpl, Hll, gp, gl


def per_term_normal_equations(problem, state, ev, einsum=False):
    P, L = len(problem.variable_pose_ids), len(problem.variable_point_ids)
    Hpp = np.zeros((P, P, 6, 6))
    Hll = np.zeros((L, 3, 3))
    Hpl = np.zeros((P, L, 6, 3))
    gp = np.zeros((P, 6))
    gl = np.zeros((L, 3))
    if einsum:
        jac = einsum_term_jacobians(problem, state, ev)

        def products(Ja, w, Jb):
            return np.einsum("kba,kbc->kac", Ja, w * Jb)
    else:
        jac = _term_jacobians(problem, state, ev)

        def products(Ja, w, Jb):
            return Ja.transpose(0, 2, 1) @ (w * Jb)

    idx = np.flatnonzero(ev.valid_f)
    if idx.size:
        w = (huber_weight(ev.m2_f[idx])
             * problem.f_info[idx])[:, None, None]
        r = ev.r_f[idx][:, :, None]
        Jpose, Jpt = jac.f_pose, jac.f_pt
        kv = problem.f_kf_var[idx]
        lv = problem.f_pt_var[idx]
        mp = kv >= 0
        ml = lv >= 0
        if np.any(mp):
            np.add.at(Hpp, (kv[mp], kv[mp]), products(Jpose[mp], w[mp], Jpose[mp]))
            np.add.at(gp, kv[mp], products(Jpose[mp], w[mp], r[mp])[:, :, 0])
        if np.any(ml):
            np.add.at(Hll, lv[ml], products(Jpt[ml], w[ml], Jpt[ml]))
            np.add.at(gl, lv[ml], products(Jpt[ml], w[ml], r[ml])[:, :, 0])
        both = mp & ml
        if np.any(both):
            np.add.at(Hpl, (kv[both], lv[both]),
                      products(Jpose[both], w[both], Jpt[both]))

    idx = np.flatnonzero(ev.valid_b)
    if idx.size:
        fwd = problem.b_fwd[idx]
        w = (huber_weight(ev.m2_b[idx])
             * problem.b_info[idx])[:, None, None]
        r = ev.r_b[idx][:, :, None]
        Jpose_k, Jpose_j, Jpt = jac.b_pose_k, jac.b_pose_j, jac.b_pt
        kv = problem.f_kf_var[fwd]
        jv = problem.b_ref_var[idx]
        lv = problem.f_pt_var[fwd]
        for va, Ja in ((kv, Jpose_k), (jv, Jpose_j)):
            m = va >= 0
            if np.any(m):
                np.add.at(gp, va[m], products(Ja[m], w[m], r[m])[:, :, 0])
        for va, Ja, vb, Jb in (
            (kv, Jpose_k, kv, Jpose_k),
            (jv, Jpose_j, jv, Jpose_j),
            (kv, Jpose_k, jv, Jpose_j),
        ):
            m = (va >= 0) & (vb >= 0)
            if np.any(m):
                blocks = products(Ja[m], w[m], Jb[m])
                np.add.at(Hpp, (va[m], vb[m]), blocks)
                if Ja is not Jb:
                    np.add.at(Hpp, (vb[m], va[m]),
                              np.transpose(blocks, (0, 2, 1)))
        ml = lv >= 0
        if np.any(ml):
            np.add.at(Hll, lv[ml], products(Jpt[ml], w[ml], Jpt[ml]))
            np.add.at(gl, lv[ml], products(Jpt[ml], w[ml], r[ml])[:, :, 0])
        for va, Ja in ((kv, Jpose_k), (jv, Jpose_j)):
            m = (va >= 0) & ml
            if np.any(m):
                np.add.at(Hpl, (va[m], lv[m]), products(Ja[m], w[m], Jpt[m]))
    return Hpp, Hpl, Hll, gp, gl


def reference_solve_step(Hpp, Hpl, Hll, gp, gl, lam):
    P = Hpp.shape[0]
    L = Hll.shape[0]
    if P == 0 and L == 0:
        return np.zeros(0), np.zeros((0, 3))
    Hll_d = Hll.copy()
    for i in range(L):
        diag = np.diagonal(Hll_d[i]).copy()
        diag = np.where(diag > 1e-12, diag, 1e-12)
        Hll_d[i] += lam * np.diag(diag)
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
    W = Hpl @ Hll_inv
    W_m = W.transpose(0, 2, 1, 3).reshape(6 * P, 3 * L)
    # C order, as in the kernel: BLAS rounds a product by its operands' layout
    right = np.ascontiguousarray(np.concatenate([Hpl_m.T, gl.reshape(3 * L, 1)],
                                                axis=1))
    reduced = np.zeros((6 * P, 6 * P + 1))
    chunk = _schur_columns(P) // 3
    for first in range(0, L, chunk):
        cols = slice(3 * first, 3 * min(first + chunk, L))
        reduced += W_m[:, cols] @ right[cols]
    S = Hpp_m - reduced[:, :-1]
    rhs = -(gp_v - reduced[:, -1])
    dp = np.linalg.solve(S, rhs)
    dl_rhs = -gl - (right[:, :-1] @ dp).reshape(L, 3)
    dl = (Hll_inv @ dl_rhs[:, :, None])[:, :, 0]
    return dp.reshape(P, 6), dl


def reference_match(query_ids, query_descriptors, target_ids, target_descriptors,
                    policy, site, pair_mask=None, query_mask=None, parallax=None,
                    depth_ok=None):
    """Dense one-to-one matching: every pair scored, then gated.  Returns the
    accepted (query id, target id) rows as an (n, 2) int64 array."""
    query_ids = np.asarray(query_ids, dtype=np.int64)
    target_ids = np.asarray(target_ids, dtype=np.int64)
    none = np.zeros((0, 2), dtype=np.int64)
    if query_ids.size == 0 or target_ids.size == 0:
        return none
    dist = hamming_matrix(query_descriptors, target_descriptors)
    ok = gate_mask(
        dist, policy, site,
        depth_ok=None if depth_ok is None else np.asarray(depth_ok)[:, None],
        parallax=parallax,
    )
    if pair_mask is not None:
        ok &= np.asarray(pair_mask, dtype=bool)
    if query_mask is not None:
        ok &= np.asarray(query_mask, dtype=bool)[:, None]
    qi, ti = np.nonzero(ok)
    if qi.size == 0:
        return none

    def candidate(q, t):
        return (int(query_ids[q]), int(target_ids[t]))

    accepted = []
    if policy.ordering is Ordering.HAMMING_ORDERED:
        order = np.lexsort((target_ids[ti], query_ids[qi], dist[qi, ti]))
        used_q, used_t = set(), set()
        for k in order:
            q, t = int(qi[k]), int(ti[k])
            if q in used_q or t in used_t:
                continue
            used_q.add(q)
            used_t.add(t)
            accepted.append(candidate(q, t))
    else:
        used_t = set()
        by_query = {}
        for k in range(qi.size):
            by_query.setdefault(int(qi[k]), []).append(int(ti[k]))
        for q in range(query_ids.size):
            best_t, best_d = None, None
            for t in by_query.get(q, ()):
                if t in used_t:
                    continue
                d = int(dist[q, t])
                if best_d is None or d < best_d:
                    best_t, best_d = t, d
            if best_t is not None:
                used_t.add(best_t)
                accepted.append(candidate(q, best_t))
    return np.array(accepted, dtype=np.int64).reshape(-1, 2)


def reference_epipolar_distances(uv_from, uv_to, fundamental):
    """(N_from, N_to) distances of the ``uv_to`` points to the epipolar lines
    of the ``uv_from`` points."""
    lines = np.hstack([uv_from, np.ones((len(uv_from), 1))]) @ fundamental.T
    x2 = np.hstack([uv_to, np.ones((len(uv_to), 1))])
    num = np.abs(lines @ x2.T)
    den = np.sqrt(lines[:, 0] ** 2 + lines[:, 1] ** 2)[:, None]
    return num / np.where(den < 1e-12, 1e-12, den)


def reference_search_for_triangulation(kf_a, kf_b, owners_a, owners_b, policy, cam):
    """``search_for_triangulation`` with the dense matcher: the epipolar band
    as an (Na, Nb) mask and the parallax of every pair.  Returns (pairs,
    positions)."""
    idx_a = np.flatnonzero(owners_a < 0)
    idx_b = np.flatnonzero(owners_b < 0)
    if idx_a.size == 0 or idx_b.size == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros((0, 3))
    uv_a = kf_a.keypoints[idx_a]
    uv_b = kf_b.keypoints[idx_b]
    rel_ab = kf_b.pose.inverse().compose(kf_a.pose)
    dist_in_b = reference_epipolar_distances(
        uv_a, uv_b, fundamental_from_relative(rel_ab, cam))
    dist_in_a = reference_epipolar_distances(
        uv_b, uv_a, fundamental_from_relative(rel_ab.inverse(), cam)).T
    epi_ok = (
        (dist_in_b <= EPIPOLAR_SIGMA_FACTOR * np.sqrt(kf_b.noise_sigma2[idx_b])[None, :])
        & (dist_in_a <= EPIPOLAR_SIGMA_FACTOR * np.sqrt(kf_a.noise_sigma2[idx_a])[:, None])
    )
    rays_a = unit_ray(uv_a, cam) @ kf_a.pose.rotation.T
    rays_b = unit_ray(uv_b, cam) @ kf_b.pose.rotation.T
    pairs = reference_match(
        idx_a, kf_a.descriptors[idx_a], idx_b, kf_b.descriptors[idx_b],
        policy, Site.TRIANGULATION, pair_mask=epi_ok,
        parallax=parallax_angles(rays_a[:, None, :], rays_b[None, :, :]),
    )
    ka = np.searchsorted(idx_a, pairs[:, 0])
    kb = np.searchsorted(idx_b, pairs[:, 1])
    pts, ok = triangulate_rays(kf_a.pose.translation, rays_a[ka],
                               kf_b.pose.translation, rays_b[kb])
    z_a = kf_a.pose.depth_of(pts)
    z_b = kf_b.pose.depth_of(pts)
    keep = ok & (z_a > 0) & (z_b > 0)
    return pairs[keep], pts[keep]


def reference_eight_point(x1, x2):
    """Essential matrix from >= 8 normalized correspondences."""
    A = np.stack([
        x2[:, 0] * x1[:, 0], x2[:, 0] * x1[:, 1], x2[:, 0],
        x2[:, 1] * x1[:, 0], x2[:, 1] * x1[:, 1], x2[:, 1],
        x1[:, 0], x1[:, 1], np.ones(len(x1)),
    ], axis=1)
    _, _, Vt = np.linalg.svd(A)
    E = Vt[-1].reshape(3, 3)
    U, s, Vt = np.linalg.svd(E)
    sigma = (s[0] + s[1]) / 2.0
    return U @ np.diag([sigma, sigma, 0.0]) @ Vt


def reference_epipolar_residuals_px(E, x1, x2, cam):
    """Symmetric point-to-epipolar-line distances in pixels."""
    K = cam.matrix
    K_inv = np.linalg.inv(K)
    F = K_inv.T @ E @ K_inv
    u1 = np.hstack([x1 @ K[:2, :2].T + K[:2, 2], np.ones((len(x1), 1))])
    u2 = np.hstack([x2 @ K[:2, :2].T + K[:2, 2], np.ones((len(x2), 1))])
    l2 = u1 @ F.T
    l1 = u2 @ F
    d2 = np.abs(np.sum(l2 * u2, axis=1)) / np.hypot(l2[:, 0], l2[:, 1])
    d1 = np.abs(np.sum(l1 * u1, axis=1)) / np.hypot(l1[:, 0], l1[:, 1])
    return np.maximum(d1, d2)


def reference_initialize_two_view(uv1, uv2, cam, rng, sigma):
    """Seeded-RANSAC relative pose and triangulation of two views.

    Returns (rel_pose, points, inlier_mask, parallax) or None when no
    usable model exists.  No adaptive early exit: ``RANSAC_ITERATIONS`` is
    fixed so the draw sequence never depends on the data.  ``sigma`` is
    the per-pair keypoint deviation; ``RANSAC_THRESHOLD_PX`` scales with
    it so coarse-octave matches are gated fairly.
    """
    n = len(uv1)
    if n < 8:
        return None
    x1 = unit_ray(uv1, cam)[:, :2]
    x2 = unit_ray(uv2, cam)[:, :2]
    cutoff = RANSAC_THRESHOLD_PX * np.asarray(sigma)
    best_count, best_mask, best_E = 0, None, None
    for _ in range(RANSAC_ITERATIONS):
        sample = rng.choice(n, size=8, replace=False)
        try:
            E = reference_eight_point(x1[sample], x2[sample])
        except np.linalg.LinAlgError:
            continue
        res = reference_epipolar_residuals_px(E, x1, x2, cam)
        mask = res <= cutoff
        count = int(np.count_nonzero(mask))
        if count > best_count:
            best_count, best_mask, best_E = count, mask, E
    if best_E is None or best_count < 8:
        return None
    # refit on the consensus set
    E = reference_eight_point(x1[best_mask], x2[best_mask])
    res = reference_epipolar_residuals_px(E, x1, x2, cam)
    mask = res <= cutoff
    if np.count_nonzero(mask) >= 8:
        best_E, best_mask = E, mask

    idx = np.nonzero(best_mask)[0]
    d1 = unit_ray(uv1[idx], cam)
    best = None
    for R, t in _decompose_essential(best_E):
        rel = Pose(R, t)
        cam2_wc = rel.inverse()  # pose of view 2 in view-1 coordinates
        d2_world = unit_ray(uv2[idx], cam) @ cam2_wc.rotation.T
        pts, ok = triangulate_rays(
            np.zeros(3), d1, cam2_wc.translation, d2_world
        )
        z1 = pts[:, 2]
        z2 = (rel.apply(pts))[:, 2]
        good = ok & (z1 > 0) & (z2 > 0)
        count = int(np.count_nonzero(good))
        if best is None or count > best[0]:
            best = (count, rel, pts, good)
    count, rel, pts, good = best
    if count < 8:
        return None
    keep = idx[good]
    pts = pts[good]
    rays1 = unit_ray(uv1[keep], cam)
    rays2 = unit_ray(uv2[keep], cam) @ rel.inverse().rotation.T
    return rel, pts, keep, parallax_angles(rays1, rays2)


def initialization_inputs(frame_a, frame_b):
    """(uv1, uv2, sigma) that ``Pipeline._try_initialize`` hands
    ``initialize_two_view`` for two frames under the default policy."""
    pairs = match(
        np.arange(frame_a.n_keypoints), frame_a.descriptors,
        np.arange(frame_b.n_keypoints), frame_b.descriptors,
        AssociationPolicy(), Site.TRIANGULATION)
    sigma = np.sqrt(np.maximum(sigma2_at(frame_a.octaves[pairs[:, 0]]),
                               sigma2_at(frame_b.octaves[pairs[:, 1]])))
    return frame_a.keypoints[pairs[:, 0]], frame_b.keypoints[pairs[:, 1]], sigma


def corridor_match_inputs(seed=0):
    """A ``match`` at the size of a corridor frame's local search: 1,000
    query and 1,500 target 32-byte descriptors, ids equal to rows.  The
    first 900 queries are copies of distinct targets with 2% of their bits
    flipped (about 5 bits), the rest are unrelated to every target."""
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 256, (1500, 32), dtype=np.uint8)
    queries = rng.integers(0, 256, (1000, 32), dtype=np.uint8)
    flips = np.packbits(rng.random((900, 256)) < 0.02, axis=1)
    queries[:900] = targets[rng.permutation(1500)[:900]] ^ flips
    return dict(query_ids=np.arange(1000), query_descriptors=queries,
                target_ids=np.arange(1500), target_descriptors=targets)


def initialization_bytes(result):
    """The raw bytes (and shapes) of an ``initialize_two_view`` result, so
    that two results compare bit for bit; None stays None."""
    if result is None:
        return None
    rel, *arrays = result
    return (rel.rotation.tobytes(), rel.translation.tobytes(),
            *((a.tobytes(), a.shape) for a in arrays))


# ----------------------------------------------------------------------
# map edits one at a time


def map_bytes(world):
    """Every byte the map edits write: the keyframe id of each slot, the
    binding table's cells and inlier flags, and ``positions``."""
    return (world._slots.tobytes(), world._held.tobytes(), world._inlier.tobytes(),
            world.positions.tobytes())


def _live(world) -> set:
    """The liveness record the oracle editors keep on a map they edit; it
    starts as the map's points when an oracle editor first edits it."""
    if not hasattr(world, "reference_live"):
        world.reference_live = set(world.points.tolist())
    return world.reference_live


def reference_points(world) -> np.ndarray:
    """``WorldMap.points`` as the oracle editors' liveness record."""
    return np.array(sorted(_live(world)), dtype=np.int64)


def reference_bindings(world, point_ids=None) -> tuple:
    """``WorldMap.bindings`` as a loop over the table's cells: every point
    id (of ``point_ids`` alone when given), then every slot."""
    ids = range(len(world._held)) if point_ids is None else sorted(set(
        np.asarray(point_ids, dtype=np.int64).tolist()))
    rows = [(p, k, int(world._held[p, slot])) for p in ids
            for slot, k in enumerate(world._slots.tolist()) if world._held[p, slot] >= 0]
    return tuple(np.array(c, dtype=np.int64) for c in zip(*rows)) or (
        np.zeros(0, np.int64),) * 3


def reference_owners(world, kf_id) -> np.ndarray:
    """``WorldMap.owners`` as a loop over one slot's cells, point by point."""
    slot = world._slots.tolist().index(kf_id)
    column = np.full(world.keyframes[kf_id].n_keypoints, -1, dtype=np.int64)
    for p in range(len(world._held)):
        if world._held[p, slot] >= 0:
            column[world._held[p, slot]] = p
    return column


def select_reference_geometric_index(kf_ids, translations, queries,
                                     starts) -> np.ndarray:
    """Per group of holders, the row whose keyframe translation is nearest
    the query; ties break to the lowest keyframe id.

    Row i is the holder keyframe ``kf_ids[i]`` at ``translations[i]``, and a
    group is a run of rows beginning at one of ``starts``.  ``queries`` is
    one translation for all rows, or one per row, equal within a group.
    """
    translations = np.asarray(translations, dtype=np.float64)
    starts = _group_starts(len(translations), starts)
    d = translations - np.asarray(queries, dtype=np.float64)
    d2 = (d[:, None, :] @ d[:, :, None])[:, 0, 0]  # rounds as a 1-D d @ d
    group = np.repeat(np.arange(starts.size), np.diff(starts, append=len(d)))
    return np.lexsort((kf_ids, d2, group))[starts]


def reference_reselect_references(world, point_ids, query_translation) -> tuple:
    """``WorldMap.reselect_references`` over ``reference_bindings``: the
    rule of ``world.descriptor_selection`` over each point's run of
    binding rows, every point given holding at least one."""
    point_ids = np.asarray(point_ids, dtype=np.int64)
    point, kf, kp = reference_bindings(world, point_ids)
    starts = np.flatnonzero(np.diff(point, prepend=-1))
    if world.descriptor_selection is ReferenceRule.GEOMETRIC:
        t = np.array([world.keyframes[k].pose.translation for k in kf.tolist()],
                     dtype=np.float64).reshape(-1, 3)
        rows = select_reference_geometric_index(kf, t, query_translation, starts)
    else:
        descriptors = np.stack([world.keyframes[k].descriptors[i]
                                for k, i in zip(kf.tolist(), kp.tolist())])
        rows = select_reference_appearance_index(descriptors, starts)
    at = np.searchsorted(point[rows], point_ids)
    return kf[rows][at], kp[rows][at]


def _slot(world, kf_id) -> int:
    return world._slots.tolist().index(kf_id)


def _owner(world, slot, kp) -> int:
    """The point that binds keypoint ``kp`` in ``slot``, or -1, cell by cell."""
    for p in range(len(world._held)):
        if world._held[p, slot] == kp:
            return p
    return -1


def _n_holders(world, point_id) -> int:
    return sum(world._held[point_id, s] >= 0 for s in range(world._held.shape[1]))


def _bind(world, point_id, kf_id, kp):
    slot = _slot(world, kf_id)
    if world._held[point_id, slot] >= 0:
        raise WorldIntegrityError(f"point {point_id} already observes keyframe {kf_id}")
    if _owner(world, slot, kp) >= 0:
        raise WorldIntegrityError(f"keypoint {kp} of keyframe {kf_id} already bound")
    world._held[point_id, slot] = kp
    world._inlier[point_id, slot] = True


def _unbind(world, point_id, slot):
    world._held[point_id, slot] = -1
    world._inlier[point_id, slot] = False


def _kill(world, point_id):
    """Unbind the point from every slot and strike it from the record."""
    for slot in range(world._held.shape[1]):
        _unbind(world, point_id, slot)
    _live(world).discard(point_id)


def reference_create_point(world, position, observations) -> int:
    """One new point bound to (kf_id, keypoint) pairs; returns its id.  The
    positions and the table's rows double when the id reaches their size."""
    pid = world._next_point_id
    world._next_point_id += 1
    if pid == len(world.positions):
        world.positions = np.concatenate([world.positions, np.zeros_like(world.positions)])
        world._held = np.concatenate([world._held, np.full_like(world._held, -1)])
        world._inlier = np.concatenate([world._inlier, np.zeros_like(world._inlier)])
    world.positions[pid] = position
    _live(world).add(pid)
    for kf_id, kp in observations:
        _bind(world, pid, kf_id, kp)
    return pid


def reference_add_observation(world, point_id, kf_id, kp):
    """Bind one live point to one keypoint."""
    if point_id not in _live(world):
        raise WorldIntegrityError(f"point {point_id} is dead")
    _bind(world, point_id, kf_id, kp)


def reference_remove_observation(world, point_id, kf_id):
    """Unbind one point from one keyframe; the point dies when no slot holds
    it any more."""
    slot = _slot(world, kf_id)
    if world._held[point_id, slot] < 0:
        raise WorldIntegrityError(f"point {point_id} does not observe keyframe {kf_id}")
    _unbind(world, point_id, slot)
    if _n_holders(world, point_id) == 0:
        _live(world).discard(point_id)


def reference_merge_points(world, dst, src):
    """Absorb ``src`` into ``dst``, one slot at a time: src's cell and its
    inlier flag move to dst where dst has no cell, and src's is cleared."""
    if dst == src:
        return
    for slot in range(world._held.shape[1]):
        if world._held[src, slot] >= 0 and world._held[dst, slot] < 0:
            world._held[dst, slot] = world._held[src, slot]
            world._inlier[dst, slot] = world._inlier[src, slot]
    _kill(world, src)


def reference_cull_points(world) -> list:
    """Kill the recorded points with fewer than two holders, one by one;
    returns their ids."""
    culled = [p for p in sorted(_live(world)) if _n_holders(world, p) < 2]
    for p in culled:
        _kill(world, p)
    return culled


def reference_apply_retention(world, new_kf_id) -> list:
    """Retention one culled keyframe at a time: its slot goes, then each
    point it held dies if fewer than two holders are left; returns the
    culled keyframe ids."""
    retained = keyframe_retention(new_kf_id, world.keyframes)
    culled = [k for k in sorted(world.keyframes) if k not in retained]
    for kf_id in culled:
        slot = _slot(world, kf_id)
        touched = [p for p in sorted(_live(world)) if world._held[p, slot] >= 0]
        del world.keyframes[kf_id]
        world._held = np.delete(world._held, slot, axis=1)
        world._inlier = np.delete(world._inlier, slot, axis=1)
        world._stacks = {}
        for p in touched:
            if _n_holders(world, p) < 2:
                _kill(world, p)
    return culled


def reference_apply_fuse(world, point_ids, kf, policy, cam):
    """``Pipeline._apply_fuse`` as a walk over the fused rows: each row
    attaches its point to a free keypoint, or merges it with the keypoint's
    owner (the lower id survives), behind guards against a dead point, a
    freed keypoint and a point that already owns the keypoint."""
    slot = _slot(world, kf.kf_id)
    point_ids = np.array([p for p in point_ids.tolist()
                          if p in _live(world) and world._held[p, slot] < 0],
                         dtype=np.int64)
    if point_ids.size == 0:
        return
    found = fuse(world.point_batch(point_ids, kf.pose.translation), kf, policy, cam)
    # each row's verdict is taken from the owners before any edit
    was_free = [_owner(world, slot, kp) < 0 for kp in found[:, 1].tolist()]
    for (pid, kp), attach in zip(found.tolist(), was_free):
        if pid not in _live(world):
            continue
        owner = _owner(world, slot, kp)
        if attach:
            if owner < 0:
                _bind(world, pid, kf.kf_id, kp)
        elif owner >= 0 and owner != pid:
            reference_merge_points(world, *sorted((owner, pid)))


# ----------------------------------------------------------------------
# scalar descriptors


@dataclass(frozen=True)
class Descriptor:
    """A packed binary descriptor (8 bits per byte, MSB first)."""

    bits: bytes

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("descriptor must not be empty")

    @property
    def n_bits(self) -> int:
        return 8 * len(self.bits)

    @classmethod
    def random(cls, rng: np.random.Generator, n_bits: int = DESCRIPTOR_BITS) -> "Descriptor":
        if n_bits % 8 != 0:
            raise ValueError("n_bits must be a multiple of 8")
        return cls(rng.integers(0, 256, n_bits // 8, dtype=np.uint8).tobytes())

    def flipped(self, rng: np.random.Generator, rate: float) -> "Descriptor":
        """Copy with each bit independently flipped with probability rate."""
        if rate <= 0:
            return self
        arr = np.frombuffer(self.bits, dtype=np.uint8)
        flips = rng.random(self.n_bits) < rate
        mask = np.packbits(flips)
        return Descriptor(np.bitwise_xor(arr, mask).tobytes())

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.bits, dtype=np.uint8)


def hamming(a: Descriptor, b: Descriptor) -> int:
    """Number of differing bits between two equal-length descriptors."""
    if len(a.bits) != len(b.bits):
        raise DescriptorMismatchError(
            f"descriptor lengths differ: {a.n_bits} vs {b.n_bits} bits"
        )
    return (int.from_bytes(a.bits, "big") ^ int.from_bytes(b.bits, "big")).bit_count()


def pack_descriptors(descriptors) -> np.ndarray:
    """Stack descriptors into a (N, n_bytes) uint8 matrix."""
    if len(descriptors) == 0:
        return np.zeros((0, DESCRIPTOR_BITS // 8), dtype=np.uint8)
    return np.stack([d.as_array() for d in descriptors])


# ----------------------------------------------------------------------
# raising projections


class BehindCameraError(SymvoError):
    """A point has non-positive depth in the camera it is projected into."""

    def __init__(self, message="point is behind the camera", direction=None):
        if direction is not None:
            message = f"{message} ({direction})"
        super().__init__(message)
        self.direction = direction


class InvalidDepthError(SymvoError):
    """A depth value that must be strictly positive is not."""


_EPS_DEPTH = 1e-12


def project(p, cam: CameraIntrinsics) -> np.ndarray:
    """Project camera-frame point(s) to pixel coordinates.

    Raises BehindCameraError if any depth is non-positive.
    """
    p = np.asarray(p, dtype=np.float64)
    z = p[..., 2]
    if np.any(z <= _EPS_DEPTH):
        raise BehindCameraError()
    uv = np.empty(p.shape[:-1] + (2,))
    uv[..., 0] = cam.fx * p[..., 0] / z + cam.cx
    uv[..., 1] = cam.fy * p[..., 1] / z + cam.cy
    return uv


def backproject(uv, z, cam: CameraIntrinsics) -> np.ndarray:
    """Lift pixel coordinates to a camera-frame point at depth ``z``."""
    uv = np.asarray(uv, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0):
        raise InvalidDepthError("backprojection depth must be positive")
    p = np.empty(np.broadcast_shapes(uv.shape[:-1], z.shape) + (3,))
    p[..., 0] = (uv[..., 0] - cam.cx) * z / cam.fx
    p[..., 1] = (uv[..., 1] - cam.cy) * z / cam.fy
    p[..., 2] = z
    return p


def reproject(uv, z, rel: Pose, cam: CameraIntrinsics) -> np.ndarray:
    """Map pixel(s) of one view into another: project(rel @ backproject)."""
    return project(rel.apply(backproject(uv, z, cam)), cam)


def so3_log(R) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (inverse of so3_exp)."""
    R = np.asarray(R, dtype=np.float64)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = math.acos(cos_theta)
    if theta < 1e-10:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2.0
    if theta > math.pi - 1e-6:
        # near pi the off-diagonal formula degrades; use the symmetric part
        A = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diagonal(A), 0.0))
        # fix signs from the largest component
        k = int(np.argmax(axis))
        if axis[k] > 0:
            axis = A[:, k] / axis[k]
            axis = axis / np.linalg.norm(axis)
        return axis * theta
    vee = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return vee * theta / (2.0 * math.sin(theta))


# ----------------------------------------------------------------------
# residual models, one observation at a time


@dataclass(frozen=True)
class KeypointNoise:
    """Pixel variance of a keypoint at its detection octave."""

    sigma2: float
    octave: int = 0

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("keypoint variance must be positive")


@dataclass(frozen=True)
class ResidualTerm:
    """A reprojection residual with per-view variances.

    r_backward is all-zero under the standard model.
    """

    r_forward: np.ndarray
    r_backward: np.ndarray
    sigma2_i: float
    sigma2_j: float

    def __post_init__(self):
        if self.sigma2_i <= 0 or self.sigma2_j <= 0:
            raise ValueError("residual variances must be positive")

    @property
    def mahalanobis2_forward(self) -> float:
        return float(np.dot(self.r_forward, self.r_forward)) / self.sigma2_i

    @property
    def mahalanobis2_backward(self) -> float:
        return float(np.dot(self.r_backward, self.r_backward)) / self.sigma2_j

    @property
    def total_cost(self) -> float:
        return self.mahalanobis2_forward + self.mahalanobis2_backward


def residual_standard(u_i, u, z, rel: Pose, cam: CameraIntrinsics,
                      noise_i: KeypointNoise) -> ResidualTerm:
    """Single-view residual u_i - phi(u) with variance 2*sigma2_i."""
    u_i = np.asarray(u_i, dtype=np.float64)
    r = u_i - reproject(u, z, rel, cam)
    s2 = 2.0 * noise_i.sigma2
    return ResidualTerm(r, np.zeros(2), s2, s2)


def residual_symmetric(u_i, u, z_j, z_i, rel: Pose, cam: CameraIntrinsics,
                       noise_i: KeypointNoise, noise_j: KeypointNoise) -> ResidualTerm:
    """Two-view residual pair, each normalized by its own view's covariance.

    z_j is the point depth in the reference view, z_i its depth in the
    observing view; both are held constant for the evaluation.
    """
    u_i = np.asarray(u_i, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    try:
        r_fwd = u_i - reproject(u, z_j, rel, cam)
    except BehindCameraError:
        raise BehindCameraError(direction="forward")
    try:
        r_bwd = u - reproject(u_i, z_i, rel.inverse(), cam)
    except BehindCameraError:
        raise BehindCameraError(direction="backward")
    return ResidualTerm(r_fwd, r_bwd, 2.0 * noise_i.sigma2, 2.0 * noise_j.sigma2)


# ----------------------------------------------------------------------
# covariance ratios: how far each model's residual variance is from the
# linearized one under an isotropic perspective scaling eps


def alpha_standard(eps: float) -> float:
    """Ratio of the approximated to the linearized residual variance.

    Values above 1 over-estimate the covariance, below 1 under-estimate.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 2.0 / (1.0 + eps * eps)


def alpha_symmetric(eps_ij: float, eps_ji: float,
                    sigma2_i: float = 1.0, sigma2_j: float = 1.0) -> float:
    """Covariance ratio of the symmetric two-view cost."""
    if min(eps_ij, eps_ji, sigma2_i, sigma2_j) <= 0:
        raise ValueError("all inputs must be positive")
    num = 2.0 * sigma2_i + 2.0 * sigma2_j
    den = (1.0 + eps_ij**2) * sigma2_j + (1.0 + eps_ji**2) * sigma2_i
    return num / den


def alpha_curves(eps_range=(0.1, 10.0), resolution: int = 201) -> np.ndarray:
    """Tabulate alpha_standard and alpha_symmetric over an eps sweep.

    The reverse-direction scaling is modeled as eps_ji = 1/eps_ij.  Rows
    are (eps, alpha_standard, alpha_symmetric); sampling is geometric so a
    symmetric range around 1 contains eps = 1 exactly for odd resolutions.
    """
    lo, hi = eps_range
    if not (0 < lo < hi):
        raise ValueError("eps_range must satisfy 0 < lo < hi")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    eps = np.geomspace(lo, hi, resolution)
    # snap the midpoint to exactly 1 when the range is reciprocal
    if math.isclose(lo * hi, 1.0, rel_tol=1e-12) and resolution % 2 == 1:
        eps[resolution // 2] = 1.0
    table = np.empty((resolution, 3))
    for k, e in enumerate(eps):
        table[k, 0] = e
        table[k, 1] = alpha_standard(e)
        table[k, 2] = alpha_symmetric(e, 1.0 / e)
    return table


def write_alpha_curves(path, eps_range=(0.1, 10.0), resolution: int = 201):
    """Emit the alpha sweep as a headered CSV."""
    table = alpha_curves(eps_range, resolution)
    with open(path, "w") as f:
        f.write("eps,alpha_standard,alpha_symmetric\n")
        for eps, a_std, a_sym in table:
            f.write(f"{eps:.17g},{a_std:.17g},{a_sym:.17g}\n")
    return table


def projection_jacobian(p, cam: CameraIntrinsics) -> np.ndarray:
    """2x3 Jacobian of ``project`` at camera-frame point(s) ``p``."""
    p = np.asarray(p, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    J = np.zeros(p.shape[:-1] + (2, 3))
    J[..., 0, 0] = cam.fx / z
    J[..., 0, 2] = -cam.fx * x / (z * z)
    J[..., 1, 1] = cam.fy / z
    J[..., 1, 2] = -cam.fy * y / (z * z)
    return J


def deformation_gradient(uv, z, rel: Pose, cam: CameraIntrinsics) -> np.ndarray:
    """2x2 Jacobian of the cross-view reprojection map w.r.t. pixel coords.

    The depth is held fixed; for pure forward motion of an on-axis point
    the result is an isotropic scaling by z/(z+t).
    """
    q = rel.apply(backproject(uv, z, cam))
    if q[2] <= _EPS_DEPTH:
        raise BehindCameraError()
    d_back = np.array([[z / cam.fx, 0.0], [0.0, z / cam.fy], [0.0, 0.0]])
    return projection_jacobian(q, cam) @ rel.rotation @ d_back


def isotropic_scale(gradient, method: str = "det") -> float:
    """Scalar magnitude of a 2x2 deformation gradient.

    ``det`` (default) is exact for isotropic scalings; ``opnorm`` and
    ``trace`` are alternatives for anisotropic cases.
    """
    M = np.asarray(gradient, dtype=np.float64)
    if method == "det":
        return math.sqrt(abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]))
    if method == "opnorm":
        return float(np.linalg.svd(M, compute_uv=False)[0])
    if method == "trace":
        return abs(M[0, 0] + M[1, 1]) / 2.0
    raise ValueError(f"unknown scalarization method {method!r}")
