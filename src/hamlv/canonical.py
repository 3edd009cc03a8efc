"""Canonical reduction of two-group Lotka-Volterra systems.

With positive constants mu_m, the substitution

    x_i = C_i exp(sum_k a_ik q_k),   v_k = dq_k/dt + mu_k = exp(p_k)

turns the population equations into a (q, p, C) system.  When the interaction
matrices factor as sigma_l b_lk = rho_k a_kl, the limitation-free dynamics is
Hamiltonian in the scaled coordinates qt_j = sigma_j q_j with

    H(C, p, qt) = Phi(C, qt) + Psi(p)
    Phi = sum_k rho_k C_k exp(sum_l a_kl qt_l / sigma_l) - sum_k rbar_k qt_k
    Psi = sum_k sigma_k (exp(p_k) - mu_k p_k)

CanonicalState stores the scaled positions qt; for M = 1 the normalization
sigma_1 = 1 makes qt identical to q.  x is evaluated as the clipped
exponential of ln C + A q / sigma, the exponent the canonical flow takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import clipped_exp, set_fields


class DegenerateFactorizationError(ValueError):
    """A and B have no nonzero entry to anchor the factor ratios."""


@dataclass(frozen=True)
class HamiltonianFactors:
    """Factors rho (per x-species) and sigma (per v-species) with sigma_1 = 1.

    ``positive`` is set when a sign choice of the free per-component scales
    makes every factor positive; in that case the stored factors already use
    that choice.
    """

    rho: np.ndarray
    sigma: np.ndarray
    positive: bool

    def residual(self, A, B):
        """Largest relative mismatch of sigma_l b_lk against rho_k a_kl."""
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        lhs = self.sigma[:, None] * B          # (M, N): sigma_l b_lk
        rhs = (self.rho[:, None] * A).T        # (M, N): rho_k a_kl
        scale = np.abs(lhs) + np.abs(rhs) + 1e-300
        return float(np.max(np.abs(lhs - rhs) / scale))


def find_factors(A, B, tol=1e-9):
    """Solve sigma_l b_lk = rho_k a_kl over the nonzero support, if possible.

    Ratios are propagated over the bipartite support graph; each connected
    component is anchored at its lowest-index node with value 1 (so sigma_1 = 1
    whenever species v_1 interacts at all).  Returns None when the relations
    are inconsistent (including entries where exactly one of a_kl, b_lk is
    zero, which would force a zero factor).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Bm = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = A.shape
    if Bm.shape != (m, n):
        raise ValueError(f"B must have shape {(m, n)}, got {Bm.shape}")
    if not (np.any(A) or np.any(Bm)):
        raise DegenerateFactorizationError("A and B are both zero")

    # nodes 0..m-1: sigma_l ; nodes m..m+n-1: rho_k
    # edge (l, k): value(rho_k) = value(sigma_l) * b_lk / a_kl
    adj = [[] for _ in range(m + n)]
    for k in range(n):
        for l in range(m):
            a, b = A[k, l], Bm[l, k]
            if a == 0.0 and b == 0.0:
                continue
            if a == 0.0 or b == 0.0:
                return None  # would force sigma_l or rho_k to zero
            adj[l].append((m + k, b / a))
            adj[m + k].append((l, a / b))

    values = np.full(m + n, np.nan)
    component = np.full(m + n, -1, dtype=int)
    n_comp = 0
    for start in range(m + n):
        if component[start] >= 0:
            continue
        component[start] = n_comp
        values[start] = 1.0
        stack = [start]
        while stack:
            node = stack.pop()
            for other, ratio in adj[node]:
                implied = values[node] * ratio
                if component[other] < 0:
                    component[other] = n_comp
                    values[other] = implied
                    stack.append(other)
                elif abs(implied - values[other]) > tol * (
                        abs(implied) + abs(values[other])):
                    return None
        n_comp += 1

    # Each component scale is free but its anchor is +1, so an all-positive
    # rescaling exists iff the propagated values already share that sign.
    positive = bool(np.all(values > 0))
    sigma = values[:m]
    rho = values[m:]
    return HamiltonianFactors(rho=rho, sigma=sigma, positive=positive)


@dataclass(frozen=True)
class CanonicalSystem:
    """An interaction system together with its reduction data.

    gamma_bar_i = -r_i + sum_m a_im mu_m; the reduction conserves C exactly
    when gamma_bar = 0 and the system is limitation-free.
    """

    base: "InteractionSystem"
    factors: HamiltonianFactors
    mu: np.ndarray
    gamma_bar: np.ndarray

    @property
    def conserves_C(self):
        return self.base.is_limitation_free() and np.all(
            np.abs(self.gamma_bar) <= 1e-12 * (1.0 + np.abs(self.base.r)))


def canonicalize(system, mu=None, tol=1e-9):
    """Build the canonical reduction of a system.

    When ``mu`` is omitted, solves A mu = r in the least-squares sense (exact
    when the system admits gamma_bar = 0) and requires the result positive.
    """
    factors = find_factors(system.A, system.B, tol=tol)
    if factors is None:
        raise ValueError("interaction matrices do not satisfy the factorization")
    if mu is None:
        mu, *_ = np.linalg.lstsq(system.A, system.r, rcond=None)
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.shape != (system.M,) or np.any(mu <= 0):
        raise ValueError("mu must be a positive vector of length M")
    gamma_bar = -system.r + system.A @ mu
    return CanonicalSystem(base=system, factors=factors, mu=mu, gamma_bar=gamma_bar)


@dataclass(frozen=True)
class CanonicalState:
    """Scaled canonical positions q (= sigma_j q_j), momenta p, constants C."""

    q: np.ndarray
    p: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        set_fields(self, 1, q=self.q, p=self.p, C=self.C)
        if np.any(self.C <= 0):
            raise ValueError("constants C must be strictly positive")


def to_canonical(csys, x0, v0):
    """Map positive abundances to a canonical state with the gauge q(0) = 0.

    With q = 0 the constants absorb the initial condition: C = x0, p = ln v0.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if np.any(x0 <= 0) or np.any(v0 <= 0):
        raise ValueError("abundances must be strictly positive")
    csys.base.check_state(x=x0, v=v0)
    m = csys.base.M
    return CanonicalState(q=np.zeros(m), p=np.log(v0), C=x0)


def from_canonical(csys, state):
    """Map a canonical state back to abundances (x, v).

    x is exp(ln C + A q / sigma), the exponent the canonical flow takes, so
    it stays finite where exp(A q / sigma) alone would overflow.
    """
    z = np.log(state.C) + csys.base.A @ (state.q / csys.factors.sigma)
    return clipped_exp(z), clipped_exp(state.p)


def hamiltonian(csys, state):
    """H(C, p, q) = Phi + Psi; conserved when the reduction is exact."""
    x, v = from_canonical(csys, state)
    phi = float(np.sum(csys.factors.rho * x) - np.sum(csys.base.rbar * state.q))
    psi = float(np.sum(csys.factors.sigma * (v - csys.mu * state.p)))
    return phi + psi


def motion_integral(star, x, v, weights=None, mu=None):
    """Family of conserved quantities of the limitation-free star system.

    E(x, v) = v - mu ln v + sum_i (rho_i x_i - rbar w_i ln(x_i) / a_i).

    With positive weights summing to 1 and mu = star.mu this is constant along
    trajectories of the Hamiltonian star; other weight/mu choices are used for
    the self-limitation Lyapunov function (see ``lyapunov_weights``).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0) or v <= 0:
        raise ValueError("abundances must be strictly positive")
    a = np.asarray(star.a, dtype=float)
    if np.any(a == 0):
        raise ValueError("star coefficients a must be nonzero")
    w = (np.full(x.size, 1.0 / x.size) if weights is None
         else np.atleast_1d(np.asarray(weights, dtype=float)))
    mu = star.mu if mu is None else float(mu)
    rho = np.asarray(star.rho, dtype=float)
    return float(v - mu * np.log(v)
                 + np.sum(rho * x - star.rbar * w * np.log(x) / a))


@dataclass(frozen=True)
class StarEquilibrium:
    xbar: np.ndarray
    vbar: float
    feasible: bool


def star_equilibrium(a, b, r, gamma, d, rbar):
    """Positive equilibrium of a star with diagonal self-limitation.

    Eliminating x_i = a_i (v - mu_i) / gamma_i from the v equation gives

        vbar = (rbar + sum_i c_i mu_i) / (d + sum_i c_i),   c_i = a_i b_i / gamma_i

    with mu_i = r_i / a_i.  Infeasible when any x_i <= 0 at that vbar.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if np.any(a == 0):
        raise ValueError("coefficients a must be nonzero")
    if np.any(gamma <= 0):
        raise ValueError("self-limitation gamma must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    mu_i = r / a
    c = a * b / gamma
    denom = d + np.sum(c)
    if denom == 0:
        raise ValueError("degenerate star: d + sum(a b / gamma) = 0")
    vbar = float((rbar + np.sum(c * mu_i)) / denom)
    xbar = a * (vbar - mu_i) / gamma
    return StarEquilibrium(xbar=xbar, vbar=vbar, feasible=bool(np.all(xbar > 0)))


def lyapunov_weights(star, gamma, d):
    """Weights and mu making the motion integral decrease under self-limitation.

    At the positive equilibrium (xbar, vbar) of the star with diagonal gamma
    and limitation d, the choice w_i = b_i xbar_i / rbar, mu = vbar gives

        dE/dt = -d (v - vbar)^2 - sum_i rho_i gamma_i (x_i - xbar_i)^2 <= 0.

    For uniform b this is proportional to xbar.  Requires rho > 0 and a
    feasible equilibrium.
    """
    eq = star_equilibrium(star.a, star.b, star.r, gamma, d, star.rbar)
    if not eq.feasible:
        raise ValueError("no positive equilibrium: Lyapunov weights undefined")
    if np.any(np.asarray(star.rho) <= 0):
        raise ValueError("Lyapunov descent requires rho > 0")
    weights = np.asarray(star.b, dtype=float) * eq.xbar / star.rbar
    return weights, eq.vbar
