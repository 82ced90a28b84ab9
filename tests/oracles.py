"""Reference kernels of the optimizer's normal equations and Schur step.

``reference_normal_equations`` accumulates with sequential ``np.add.at``
calls and ``reference_solve_step`` damps each point block in a loop: the
slow forms that ``_build_normal_equations`` (one ``np.bincount`` per block
component) and ``_solve_step`` (broadcast damping) replace.  With their
defaults they contract each term with ``matmul``, as the kernels do, and
the kernels must agree with them bit for bit.

``reference_normal_equations(..., einsum=True)`` contracts with the
``np.einsum`` forms the kernels used before ``matmul``, Jacobians
included.  They sum a term's products in another order, so they agree
with the kernels only to rounding; they stay as a check that shares
none of the kernels' contractions.
"""

import numpy as np

from symvo.optimizer import (
    _hat_batch,
    _Jacobians,
    _projection_block,
    _term_jacobians,
)
from symvo.uncertainty import HUBER_DELTA, huber_weight


def einsum_term_jacobians(problem, state, ev):
    """``_term_jacobians`` in its ``np.einsum`` form: the valid terms only."""
    J = _Jacobians()
    idx = np.flatnonzero(ev.valid_f)
    q = ev.q_f[idx]
    A = _projection_block(q, problem.cam)
    Rk = state.R[problem.f_kf[idx]]
    tk = state.t[problem.f_kf[idx]]
    Jw = -np.einsum("kab,kbc->kac", A, _hat_batch(q - tk))
    J.f_pose = np.concatenate([Jw, A], axis=2)
    J.f_pt = np.einsum("kab,kbc->kac", A, Rk)

    idx = np.flatnonzero(ev.valid_b)
    fwd = problem.b_fwd[idx]
    q_b = ev.q_b[idx]
    Bm = _projection_block(q_b, problem.cam)
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


def reference_normal_equations(problem, state, ev, einsum=False):
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
        w = (huber_weight(ev.m2_f[idx], HUBER_DELTA)
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
    S = Hpp_m - W_m @ Hpl_m.T
    rhs = -(gp_v - W_m @ gl.reshape(3 * L))
    dp = np.linalg.solve(S, rhs)
    dl_rhs = -gl - (Hpl_m.T @ dp).reshape(L, 3)
    dl = (Hll_inv @ dl_rhs[:, :, None])[:, :, 0]
    return dp.reshape(P, 6), dl
