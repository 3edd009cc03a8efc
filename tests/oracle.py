"""Readable reference right-hand sides that the tests hold the kernels to.

Each is written term by term from the model equations, without the exp-sum
flow kernel of ``hamlv.integrate``, so a test can compare the two.
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
