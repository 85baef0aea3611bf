"""Linear-programming reference for the convex order and Blackwell order.

The library decides both orders exactly (``info.is_mps``, whose witness is
the left-curtain coupling, and ``info.blackwell_compare``). These two
feasibility programs are the general formulation, kept as the oracle the
tests compare those verdicts with; they need scipy, a test dependency.
Their witnesses are polished on the LP support and accepted at 1e-7.
"""

from typing import Optional

import numpy as np
from scipy.optimize import linprog

from mediated_persuasion.info import TOL, MpsResult


def _validate_mps_witness(T, spread, contracted, tol=TOL) -> bool:
    if T.min() < -tol or abs(T.sum(axis=0) - 1.0).max() > tol:
        return False
    transport = T @ contracted.probs - spread.probs
    means = spread.beliefs @ T - contracted.beliefs
    return abs(transport).max() <= tol and abs(means).max() <= tol


def mps_linear_program(spread, contracted):
    nf, ng = spread.beliefs.size, contracted.beliefs.size
    nvar = nf * ng

    def cell(i, j):
        return i * ng + j

    rows, rhs = [], []
    for i in range(nf):  # transport: sum_j T[i,j] g_j = f_i
        r = np.zeros(nvar)
        for j in range(ng):
            r[cell(i, j)] = contracted.probs[j]
        rows.append(r)
        rhs.append(spread.probs[i])
    for j in range(ng):  # column stochasticity
        r = np.zeros(nvar)
        for i in range(nf):
            r[cell(i, j)] = 1.0
        rows.append(r)
        rhs.append(1.0)
    for j in range(ng):  # column means preserved
        r = np.zeros(nvar)
        for i in range(nf):
            r[cell(i, j)] = spread.beliefs[i]
        rows.append(r)
        rhs.append(contracted.beliefs[j])
    A = np.array(rows)
    res = linprog(
        c=np.zeros(nvar), A_eq=A, b_eq=np.array(rhs), bounds=(0, 1), method="highs"
    )
    if not res.success:
        return MpsResult(False)
    T = res.x.reshape(nf, ng)
    # polish on the LP support so the witness meets the 1e-9 contract exactly
    mask = res.x > 1e-12
    if mask.any():
        sub, *_ = np.linalg.lstsq(A[:, mask], np.array(rhs), rcond=None)
        cand = np.zeros(nvar)
        cand[mask] = sub
        if cand.min() > -1e-12:
            cand = np.clip(cand, 0.0, 1.0)
            Tc = cand.reshape(nf, ng)
            if _validate_mps_witness(Tc, spread, contracted):
                return MpsResult(True, Tc)
    if _validate_mps_witness(T, spread, contracted, tol=1e-7):
        return MpsResult(True, T)
    return MpsResult(False)


def garbling_lp(a: np.ndarray, b: np.ndarray, tol=TOL) -> Optional[np.ndarray]:
    ma, n = a.shape
    mb = b.shape[0]
    nvar = mb * ma

    def cell(i, k):
        return i * ma + k

    rows, rhs = [], []
    for i in range(mb):  # (G a)[i, j] = b[i, j]
        for j in range(n):
            r = np.zeros(nvar)
            for k in range(ma):
                r[cell(i, k)] = a[k, j]
            rows.append(r)
            rhs.append(b[i, j])
    for k in range(ma):  # columns of G sum to one
        r = np.zeros(nvar)
        for i in range(mb):
            r[cell(i, k)] = 1.0
        rows.append(r)
        rhs.append(1.0)
    A = np.array(rows)
    res = linprog(
        c=np.zeros(nvar), A_eq=A, b_eq=np.array(rhs), bounds=(0, 1), method="highs"
    )
    if not res.success:
        return None
    mask = res.x > 1e-12
    G = None
    if mask.any():
        sub, *_ = np.linalg.lstsq(A[:, mask], np.array(rhs), rcond=None)
        cand = np.zeros(nvar)
        cand[mask] = sub
        if cand.min() > -1e-12:
            G = np.clip(cand, 0.0, 1.0).reshape(mb, ma)
    if G is None:
        G = res.x.reshape(mb, ma)
    if abs(G @ a - b).max() > 1e-7 or abs(G.sum(axis=0) - 1.0).max() > 1e-7:
        return None
    return G
