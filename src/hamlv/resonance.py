"""Two weakly coupled star systems: linearization, slow amplitudes, stability.

Near the decoupled equilibria (qbar_1, qbar_2) each star oscillates at
omega_k^2 = mu_k Phi_k''(qbar_k).  At resonance the coupling feeds one
amplitude from the other on the slow time tau = kappa t:

    2 omega Q1' = -ebar d1 omega Q1 + b12 Q2 sin(phi2 - phi1)
    2 omega Q2' = -ebar d2 omega Q2 + b21 Q1 sin(phi2 - phi1)
    2 omega Q1 phi1' = -b12 Q2 cos(phi2 - phi1)
    2 omega Q2 phi2' =  b21 Q1 cos(phi2 - phi1)

with b12 = g12 / 2, b21 = -g21 / 2 from the coupling derivatives.  In the
complex amplitudes A_k = Q_k exp(i phi_k) the system is linear, and
``integrate_resonance`` solves it exactly, also where an amplitude is zero:

    2 omega A' = [[-ebar d1 omega, -i b12], [i b21, -ebar d2 omega]] A

The normalization is the one whose phase-locked reduction has the closed-form
rates of ``phase_locked_rates`` exactly, so simulated and predicted growth
agree for every damping level.  Exponential instability needs R = g12 g21 < 0
(equivalently b12 b21 > 0) with weak damping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .integrate import _check_samples, _check_span
from .star import PotentialTerms, StarSystem, analyze_potential
from .util import set_fields


@dataclass(frozen=True)
class TwoStarSystem:
    """Two stars plus weak cross couplings and scaled self-limitation.

    atilde1/btilde2 couple the first star's specialists to the second hub and
    vice versa; kappa is the coupling strength, epsilon the self-limitation
    scale, with kappa >> epsilon recorded as ebar = epsilon / kappa.
    """

    star1: StarSystem
    star2: StarSystem
    atilde1: np.ndarray   # (N1,) benefit of star-1 specialists from hub 2
    atilde2: np.ndarray   # (N2,) benefit of star-2 specialists from hub 1
    btilde1: np.ndarray   # (N2,) hub-1 predation on star-2 specialists
    btilde2: np.ndarray   # (N1,) hub-2 predation on star-1 specialists
    kappa: float
    epsilon: float
    d1: float = 0.0
    d2: float = 0.0

    def __post_init__(self):
        set_fields(self, 0, kappa=self.kappa, epsilon=self.epsilon, d1=self.d1,
                   d2=self.d2)
        if self.kappa <= 0 or self.epsilon < 0:
            raise ValueError("need kappa > 0 and epsilon >= 0")
        set_fields(self, 1, atilde1=self.atilde1, atilde2=self.atilde2,
                   btilde1=self.btilde1, btilde2=self.btilde2)
        for name, size in (("atilde1", self.star1.n_species),
                           ("btilde2", self.star1.n_species),
                           ("atilde2", self.star2.n_species),
                           ("btilde1", self.star2.n_species)):
            if getattr(self, name).size != size:
                raise ValueError(f"{name} must have length {size}")

    @property
    def ebar(self):
        return self.epsilon / self.kappa

    def wells(self):
        """The deepest potential well of each decoupled star."""
        wells = tuple(analyze_potential(star).well()
                      for star in (self.star1, self.star2))
        if None in wells:
            raise ValueError("a decoupled star has no potential well")
        return wells

    def couplings(self):
        """Couplings g1(q2) = sum_k btilde1_k C2_k exp(a2_k q2) and g2(q1).

        g1 is hub 1's predation on star 2's specialists; g2 swaps the stars.
        """
        return (PotentialTerms(c=self.btilde1 * self.star2.C, a=self.star2.a),
                PotentialTerms(c=self.btilde2 * self.star1.C, a=self.star1.a))

    def to_interaction_system(self):
        """Combined (N1 + N2) x 2 population system for direct simulation.

        The specialist rates r and the hub rates rbar absorb the O(kappa)
        cross terms, so the decoupled equilibrium (q = 0, v = mu, constants C)
        survives the coupling exactly and the pair stays on resonance instead
        of picking up an O(kappa) frequency split.
        """
        from .model import InteractionSystem
        s1, s2 = self.star1, self.star2
        n1, n2 = s1.n_species, s2.n_species
        A = np.zeros((n1 + n2, 2))
        A[:n1, 0] = s1.a
        A[:n1, 1] = self.kappa * self.atilde1
        A[n1:, 1] = s2.a
        A[n1:, 0] = self.kappa * self.atilde2
        B = np.zeros((2, n1 + n2))
        B[0, :n1] = s1.b
        B[0, n1:] = self.kappa * self.btilde1
        B[1, n1:] = s2.b
        B[1, :n1] = self.kappa * self.btilde2
        mu = np.array([s1.mu, s2.mu])
        r = A @ mu
        q1, q2 = (well.q for well in self.wells())
        g1, g2 = self.couplings()
        rbar = [s1.rbar + self.kappa * float(g1.phi(q2)),
                s2.rbar + self.kappa * float(g2.phi(q1))]
        D = self.epsilon * np.diag([self.d1, self.d2])
        return InteractionSystem(r=r, rbar=rbar, A=A, B=B, D=D)


@dataclass(frozen=True)
class ResonanceModel:
    """Linearized two-star data at the decoupled equilibria."""

    omega1: float
    omega2: float
    g12: float
    g21: float
    ebar: float
    qbar: tuple
    d: tuple

    @property
    def b12(self):
        return 0.5 * self.g12

    @property
    def b21(self):
        return -0.5 * self.g21

    @property
    def R(self):
        return self.g12 * self.g21

    @property
    def omega(self):
        return 0.5 * (self.omega1 + self.omega2)


def linearize(two_star):
    """Resonance model from the two decoupled potentials.

    Each star must have an interior minimum qbar_k; the frequencies are
    omega_k = sqrt(mu_k Phi_k''(qbar_k)) and the coupling derivatives are
    g12 = g1'(qbar_2), g21 = g2'(qbar_1) where g1 collects the hub-1 coupling
    to star-2 specialists and vice versa.
    """
    s1, s2 = two_star.star1, two_star.star2
    w1, w2 = two_star.wells()
    q1, q2 = w1.q, w2.q
    g1, g2 = two_star.couplings()
    g12 = float(g1.dphi(q2))
    g21 = float(g2.dphi(q1))
    return ResonanceModel(omega1=s1.frequency(q1), omega2=s2.frequency(q2),
                          g12=g12, g21=g21, ebar=two_star.ebar, qbar=(q1, q2),
                          d=(two_star.d1, two_star.d2))


def detuning(model, kappa):
    """'resonant' when |omega1 - omega2| <= kappa (inclusive)."""
    gap = abs(model.omega1 - model.omega2)
    return "resonant" if gap <= kappa else "nonresonant"


@dataclass
class SlowTrajectory:
    tau: np.ndarray
    Q: np.ndarray        # (n, 2) amplitudes
    phi: np.ndarray      # (n, 2) phases


def integrate_resonance(model, Q0, phi0, tau_end, n_samples=1001):
    """The slow system at exact resonance, A(tau) = expm(tau S) A(0) with
    A_k = Q_k exp(i phi_k), on n_samples even steps to tau_end.  The phases
    continue from phi0; where an amplitude passes zero its phase turns by pi.
    n_samples < 2 raises ValueError.
    """
    Q0 = np.asarray(Q0, dtype=float)
    phi0 = np.asarray(phi0, dtype=float)
    if Q0.shape != (2,) or phi0.shape != (2,):
        raise ValueError("Q0 and phi0 must each have two components")
    if np.any(Q0 <= 0):
        raise ValueError("initial amplitudes must be positive")
    _check_span((0.0, tau_end))
    _check_samples(n_samples)
    w = model.omega
    S = np.array([[-model.ebar * model.d[0] * w, -1j * model.b12],
                  [1j * model.b21, -model.ebar * model.d[1] * w]]) / (2.0 * w)
    tau = np.linspace(0.0, tau_end, n_samples)
    A0 = Q0 * np.exp(1j * phi0)
    A = expm(tau[:, None, None] * S) @ A0
    phi = phi0 + np.unwrap(np.angle(A * np.conj(A0)), axis=0)
    return SlowTrajectory(tau=tau, Q=np.abs(A), phi=phi)


def phase_locked_rates(model):
    """Eigenvalues of the phase-locked linear amplitude system.

    2 omega Q' = [[-ebar d1 omega, +-b12], [+-b21, -ebar d2 omega]] Q gives

        lambda = [-ebar omega (d1 + d2)
                  +- sqrt(ebar^2 omega^2 (d1 - d2)^2 + 4 b12 b21)] / (4 omega)

    independent of the branch sign.  Returns (lam_minus, lam_plus, growing).
    """
    w = model.omega
    d1, d2 = model.d
    eb = model.ebar
    disc = eb * eb * w * w * (d1 - d2) ** 2 + 4.0 * model.b12 * model.b21
    root = math.sqrt(disc) if disc >= 0 else 1j * math.sqrt(-disc)
    lam_plus = (-eb * w * (d1 + d2) + root) / (4.0 * w)
    lam_minus = (-eb * w * (d1 + d2) - root) / (4.0 * w)
    growing = bool(np.real(lam_plus) > 0)
    return lam_minus, lam_plus, growing


@dataclass(frozen=True)
class ResonanceVerdict:
    verdict: str      # "unstable" | "stable" | "damped"
    R: float
    b12: float
    b21: float
    ebar: float
    lambda_max: float


def instability_criterion(model):
    """Stability of the resonant pair.

    unstable: R < 0 (so b12 b21 > 0) and the locked growth rate is positive;
    damped:   coupling of the unstable sign but damping wins (max Re λ <= 0),
              and likewise pure damping with no coupling product;
    stable:   R > 0 (oscillatory energy exchange, no exponential growth).
    """
    _, lam_plus, growing = phase_locked_rates(model)
    lam_max = float(np.real(lam_plus))
    if model.R > 0:
        verdict = "stable"
    elif growing:
        verdict = "unstable"
    elif model.ebar > 0:
        verdict = "damped"
    else:
        verdict = "stable"
    return ResonanceVerdict(verdict=verdict, R=model.R, b12=model.b12,
                            b21=model.b21, ebar=model.ebar, lambda_max=lam_max)
