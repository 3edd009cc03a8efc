"""Readable references that the tests hold the kernels to.

The right-hand sides are written term by term from the model equations,
without the exp-sum flow kernel of ``hamlv.integrate``, so a test can compare
the two; the locked rate matrix gives numeric eigenvalues to hold the closed
form of ``phase_locked_rates`` to.  The LP certificates are written with
dense constraint blocks and ``scipy.optimize.linprog``, so a test can hold
the direct HiGHS call of ``hamlv.persistence`` to them bit for bit.
"""

import math

import numpy as np
from scipy.optimize import linprog

from hamlv.persistence import AdaptiveSolution
from hamlv.util import EXP_LIMIT


def transformed_rhs(csys, state):
    """Time derivatives (dq, dp, dC) of the transformed system.

    q is the scaled coordinate, so dq_j = sigma_j (exp(p_j) - mu_j); with the
    star normalization sigma = 1 this is the plain exp(p_j) - mu_j.  The C
    equation carries the self-limitation terms, so dC = 0 exactly for
    limitation-free systems with gamma_bar = 0.
    """
    base = csys.base
    sigma = csys.factors.sigma
    expq = np.exp(base.A @ (state.q / sigma))     # (N,) exp(A_k . q)
    expp = np.exp(state.p)                        # (M,)
    dq = sigma * (expp - csys.mu)
    F = base.rbar - base.B @ (state.C * expq)
    dp = F - base.D @ expp
    dC = state.C * (csys.gamma_bar - base.Gamma @ (state.C * expq))
    return dq, dp, dC


def slow_fast_rhs(env, n):
    """d(q, p, ln C)/dt of the fast star under the slow environment.

    tau = epsilon t enters the coefficients; the hub self-limitation is
    epsilon dbar e^p and the specialist drift
    epsilon beta (gamma_hat - gamma C e^{a q} - a'(tau) q).
    """
    eps, mu = env.epsilon, env.mu

    def rhs(t, y):
        tau = eps * t
        q, p = y[0], y[1]
        C = np.exp(np.clip(y[2:], -EXP_LIMIT, EXP_LIMIT))
        a = np.atleast_1d(np.asarray(env.a.value(tau))) * np.ones(n)
        b = np.atleast_1d(np.asarray(env.b.value(tau))) * np.ones(n)
        da = np.atleast_1d(np.asarray(env.a.derivative(tau),
                                      dtype=float)) * np.ones(n)
        expq = np.exp(np.clip(a * q, -EXP_LIMIT, EXP_LIMIT))
        ep = math.exp(min(p, EXP_LIMIT))
        dq = ep - mu
        dp = float(env.rbar.value(tau)) - float(np.sum(b * C * expq)) \
            - eps * env.dbar * ep
        dlnC = eps * env.beta * (env.gamma_hat - env.gamma * C * expq - q * da)
        return np.concatenate(([dq, dp], dlnC))

    return rhs


def locked_matrix(model):
    """The 2x2 rate matrix 2 omega Q' = [[-ebar d1 omega, b12],
    [b21, -ebar d2 omega]] Q of the phase-locked amplitudes."""
    w = model.omega
    return np.array([[-model.ebar * model.d[0] * w, model.b12],
                     [model.b21, -model.ebar * model.d[1] * w]]) / (2.0 * w)


def choice_sparse_draw(model, rng, n):
    """The sparse_uniform draw of ``RandomMatrixModel`` written with
    ``Generator.choice``: a dense row scan for the open columns and one
    ``choice(open_cols, take, replace=False)`` per row with extra entries."""
    A = np.zeros((n, n))
    perm = rng.permutation(n)
    col_counts = np.ones(n, dtype=int)
    for i in range(n):
        A[i, perm[i]] = rng.uniform(-model.K, model.K)
    for i in range(n):
        extra = rng.integers(0, model.max_row_nonzero)  # beyond the base entry
        if extra <= 0:
            continue
        open_cols = np.nonzero((col_counts < model.max_col_nonzero)
                               & (A[i] == 0.0))[0]
        if open_cols.size == 0:
            continue
        take = min(extra, open_cols.size)
        for j in rng.choice(open_cols, size=take, replace=False):
            A[i, j] = rng.uniform(-model.K, model.K)
            col_counts[j] += 1
    return A


def dense_max_min_entry(A_eq, b_eq, cap=1e4):
    """``persistence._max_min_entry`` with dense constraint blocks and
    ``linprog(method="highs")``."""
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    m, n = A_eq.shape
    row_scale = np.max(np.abs(np.hstack((A_eq, b_eq[:, None]))), axis=1)
    row_scale[row_scale == 0.0] = 1.0
    A_n = A_eq / row_scale[:, None]
    b_n = b_eq / row_scale
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack((-np.eye(n), np.ones((n, 1))))
    eq = np.hstack((A_n, np.zeros((m, 1))))
    bounds = [(-cap, cap)] * n + [(-cap, cap)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=eq, b_eq=b_n,
                  bounds=bounds, method="highs")
    if not res.success:
        return None, None
    z = res.x[:n]
    correction, *_ = np.linalg.lstsq(A_n, b_n - A_n @ z, rcond=None)
    z = z + correction
    return float(np.min(z)), z


def linprog_adaptive_solve(B, r, rho_signs=None):
    """``persistence.adaptive_solve`` with a dense ``A_ub`` and
    ``linprog(method="highs")``."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    m, n = B.shape
    signs = (np.ones(n) if rho_signs is None
             else np.sign(np.asarray(rho_signs, dtype=float)))
    G = (signs * np.sign(r))[:, None] * B.T
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.vstack((
        np.hstack((-G, np.ones((n, 1)))),
        np.hstack((-np.eye(m), np.ones((m, 1)))),
    ))
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n + m),
                  bounds=[(None, 1.0)] * (m + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    s_star, w = float(res.x[-1]), res.x[:m]
    if s_star <= 1e-9:
        alone = tuple(int(i) for i in range(n) if np.all(G[i] <= 0.0))
        violated = alone or tuple(
            int(i) for i in np.nonzero(G @ w <= 1e-12)[0])
        return AdaptiveSolution(feasible=False, sigma=None, rho=None,
                                violated=violated)
    return AdaptiveSolution(feasible=True, sigma=w, rho=(B.T @ w) / r)
