"""Readable references that the tests hold the kernels to.

The right-hand sides are written term by term from the model equations,
without the exp-sum flow kernel of ``hamlv.integrate``, so a test can compare
the two; the locked rate matrix gives numeric eigenvalues to hold the closed
form of ``phase_locked_rates`` to.
"""

import math

import numpy as np

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
