"""Slow-environment averaging for star systems.

Over times of order 1/epsilon the fast oscillation is summarized by its
energy E and the slowly drifting constants Cbar.  Period averages over the
frozen orbit close the system:

    dE/dtau    = S1 + S2 + S3
    dCbar_i/dtau = W_i = beta Cbar_i (ghat_i - g_i Cbar_i theta_i - a_i'(tau) <Q>)

with S1 the self-limitation work -dbar <e^P (e^P - mu)>, S2 = <Phi_tau> the
explicit slow dependence, S3 = sum_i <Phi_C_i> W_i, and theta_i = <exp(a_i Q)>.
The frozen orbit and its averaging nodes follow star.classify_orbit's verdict.
A trajectory leaves this description when E reaches the lowest barrier of its
well; that crossing is emitted as a regime event, not an error.  The direct
slow-fast simulation it is checked against runs on the exp-sum flow kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .canonical import star_equilibrium
from .integrate import Trajectory, _adaptive_run, _Flow, _solve_log_system
from .star import StarSystem, _classify, _orbit_nodes, analyze_potential
from .util import clipped_exp, libm_exp, set_fields, write_csv


class CoefficientPath:
    """Scalar or vector coefficient as a function of slow time.

    Wraps a constant, a callable (optionally with an analytic derivative), or
    a sampled table with linear interpolation.  Derivatives fall back to
    central differences with step 1e-4.
    """

    _FD_STEP = 1e-4

    def __init__(self, value_fn, derivative_fn=None):
        self._value = value_fn
        self._derivative = derivative_fn
        self.analytic_derivative = derivative_fn is not None
        self.is_constant = False

    @classmethod
    def constant(cls, value):
        arr = np.asarray(value, dtype=float)
        frozen = arr.copy()
        zero = np.zeros_like(frozen) if frozen.ndim else 0.0
        path = cls(lambda tau: frozen, lambda tau: zero)
        path.is_constant = True
        return path

    @classmethod
    def from_callable(cls, fn, derivative=None):
        return cls(fn, derivative)

    @classmethod
    def from_table(cls, taus, values):
        taus = np.asarray(taus, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(np.diff(taus) <= 0):
            raise ValueError("table abscissae must be strictly increasing")

        def value(tau):
            if values.ndim == 1:
                return float(np.interp(tau, taus, values))
            return np.array([np.interp(tau, taus, col) for col in values.T])

        return cls(value)

    def value(self, tau):
        out = self._value(tau)
        return out if np.ndim(out) else float(out)

    def derivative(self, tau):
        if self._derivative is not None:
            out = self._derivative(tau)
            return out if np.ndim(out) else float(out)
        h = self._FD_STEP
        hi = np.asarray(self._value(tau + h), dtype=float)
        lo = np.asarray(self._value(tau - h), dtype=float)
        out = (hi - lo) / (2.0 * h)
        return out if out.ndim else float(out)


def _check_species(name, values, n):
    """Raise ValueError naming values unless they hold n, one a species."""
    if values.shape != (n,):
        raise ValueError(f"{name} must have one entry per species ({n}, as "
                         f"in a), got shape {values.shape}")


@dataclass(frozen=True)
class SlowEnvironment:
    """Slowly varying star coefficients plus scaled self-limitation.

    epsilon sets the time-scale ratio, dbar the hub self-limitation
    (d11 = epsilon dbar), beta = kappa / epsilon the ratio of the specialist
    self-limitation scale, and gamma_hat / gamma the scaled offsets and
    limitation coefficients entering the Cbar drift, one entry per species
    of a(0); an array of another length raises ValueError naming it.
    """

    a: CoefficientPath
    b: CoefficientPath
    rbar: CoefficientPath
    mu: float
    epsilon: float
    dbar: float = 0.0
    beta: float = 0.0
    gamma_hat: np.ndarray = None
    gamma: np.ndarray = None

    def __post_init__(self):
        set_fields(self, 0, mu=self.mu, epsilon=self.epsilon, dbar=self.dbar,
                   beta=self.beta)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        zeros = np.zeros(np.atleast_1d(np.asarray(self.a.value(0.0))).size)
        set_fields(self, 1,
                   gamma_hat=zeros if self.gamma_hat is None else self.gamma_hat,
                   gamma=zeros if self.gamma is None else self.gamma)
        for name in ("gamma_hat", "gamma"):
            _check_species(name, getattr(self, name), zeros.size)

    def star_at(self, tau, Cbar):
        return StarSystem(a=self.a.value(tau), b=self.b.value(tau),
                          rbar=self.rbar.value(tau), mu=self.mu, C=Cbar)


@dataclass(frozen=True)
class AveragedState:
    tau: float
    E: float
    Cbar: np.ndarray

    def __post_init__(self):
        set_fields(self, 0, tau=self.tau, E=self.E)
        set_fields(self, 1, Cbar=self.Cbar)
        if np.any(self.Cbar <= 0):
            raise ValueError("Cbar must be strictly positive")


class OrbitLostError(RuntimeError):
    """E reached the barrier of the tracked well: regime change, not a bug."""


def orbit_averages(star, E, observables, q_ref=None):
    """Time averages of observables f(q, p) over the orbit at E, as a list.

    classify_orbit's verdict decides: an equilibrium averages to point
    values at the well bottom, a periodic orbit by the 8-segment quadrature.
    Every other kind, no well included, raises ValueError, and E below the
    well EnergyBelowWellError.  The period is star.period's to give.
    """
    nodes = _orbit_nodes(star, _classify(star, E, analyze_potential(star),
                                         q_ref))
    points = list(zip(nodes.q.tolist(), nodes.p.tolist()))
    values = np.array([[f(q, p) for q, p in points] for f in observables],
                      dtype=float).reshape(len(observables), len(points))
    return nodes.averages(values)


def mu_balance(a, b, r, gamma, rbar=0.0):
    """Offset mu making the averaged Cbar equation stationary.

    Solves sum_k b_k (a_k mu - r_k) / gamma_k = rbar, which is the hub
    equilibrium abundance vbar of canonical.star_equilibrium with d = 0.
    With rbar omitted this reduces to the balance of the specialist terms
    alone.
    """
    return star_equilibrium(a, b, r, gamma, 0.0, rbar).vbar


def _well_and_barrier(star, profile, q_hint):
    """Tracked well (nearest the hint) and the energy of its lowest barrier."""
    well = profile.well(q_hint)
    if well is None:
        raise OrbitLostError("potential lost every well")
    return well, profile.barrier(well) + star.psi_min()


def _averaged_terms(env, tau, E, Cbar, q_hint):
    """All averaged quantities at (tau, E, Cbar); clamps E inside the well."""
    star = env.star_at(tau, Cbar)
    profile = analyze_potential(star)
    well, e_barrier = _well_and_barrier(star, profile, q_hint)
    margin = 1e-6 * (1.0 + abs(E))
    e_eff = min(E, e_barrier - margin) if math.isfinite(e_barrier) else E
    # RK stages can overshoot the bottom of a well the start lies in
    e_eff = max(e_eff, well.phi + star.psi_min())

    a = np.atleast_1d(np.asarray(star.a))
    n = a.size
    nodes = _orbit_nodes(star, _classify(star, e_eff, profile, well.q))
    q = nodes.q
    exp_aq = libm_exp(np.multiply.outer(a, q))
    exp_p = libm_exp(nodes.p)
    avgs = nodes.averages(np.vstack((exp_aq, q, exp_p * (exp_p - env.mu),
                                     q * exp_aq)))
    theta = np.array(avgs[:n])
    q_avg = avgs[n]
    work = avgs[n + 1]
    q_exp = np.array(avgs[n + 2:])

    da = np.atleast_1d(np.asarray(env.a.derivative(tau), dtype=float)) * np.ones(n)
    db = np.atleast_1d(np.asarray(env.b.derivative(tau), dtype=float)) * np.ones(n)
    drbar = float(env.rbar.derivative(tau))
    b = np.atleast_1d(np.asarray(star.b))
    rho = b / a

    W = env.beta * Cbar * (env.gamma_hat - env.gamma * Cbar * theta - da * q_avg)
    S1 = -env.dbar * work
    # d(rho)/dtau = (b' a - b a') / a^2 ; Phi_tau also carries rho a' q and -rbar' q
    drho = (db * a - b * da) / (a * a)
    S2 = float(np.sum(Cbar * (drho * theta + rho * da * q_exp)) - drbar * q_avg)
    S3 = float(np.sum(rho * theta * W))
    return {"well": well, "theta": theta, "q_avg": q_avg,
            "S1": S1, "S2": S2, "S3": S3, "W": W, "e_barrier": e_barrier,
            "dropped": nodes.dropped}


def averaged_rhs(env, state, q_hint=None):
    """Slow derivatives (dE/dtau, dCbar/dtau) of the averaged system.

    Raises OrbitLostError once E is at or above the lowest barrier of the
    tracked well (the crossing is a regime event for evolve_averaged).
    """
    terms = _averaged_terms(env, state.tau, state.E, state.Cbar, q_hint)
    if state.E >= terms["e_barrier"]:
        raise OrbitLostError(
            f"E = {state.E:g} reached the barrier {terms['e_barrier']:g}")
    dE = terms["S1"] + terms["S2"] + terms["S3"]
    return dE, terms["W"]


@dataclass
class RegimeEvent:
    tau: float
    kind: str  # "burst" | "stabilized" | "environment-destabilized"


@dataclass
class AveragedTrajectory:
    tau: np.ndarray
    E: np.ndarray
    Cbar: np.ndarray          # (n_samples, N)
    events: list
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        header = ["tau", "E"] + [f"C{i + 1}" for i in range(self.Cbar.shape[1])]
        write_csv(path, header, self.tau, self.E, self.Cbar)


def evolve_averaged(env, init, tau_end, rtol=1e-7, atol=1e-10, n_samples=201,
                    q_well=None):
    """Integrate the averaged system, emitting regime events.

    Stops at the first barrier crossing; the event kind is
    "environment-destabilized" when the explicit slow drive S2 overcomes an
    actual damping term (S1 < 0 and S2 > |S1|), plain "burst" otherwise.  A
    run with no crossing ends with a single "stabilized" event at tau_end.
    An init.E below the tracked well raises EnergyBelowWellError, by the
    rule of classify_orbit, and one at or above its barrier OrbitLostError,
    by the rule of averaged_rhs.  meta["quadrature_nodes_dropped"] counts the
    quadrature positions left out, over every averaged evaluation, because
    roundoff put them outside the well.
    """
    start = env.star_at(init.tau, init.Cbar)
    profile = analyze_potential(start)
    well, e_barrier = _well_and_barrier(start, profile, q_well)
    _classify(start, init.E, profile, well.q)  # raises below the well
    if init.E >= e_barrier:
        raise OrbitLostError(f"E = {init.E:g} reached the barrier {e_barrier:g}")
    hint = {"q": q_well}
    dropped = 0

    def unpack(y):
        return float(y[0]), clipped_exp(y[1:])

    def rhs(tau, y):
        nonlocal dropped
        E, Cbar = unpack(y)
        terms = _averaged_terms(env, tau, E, Cbar, hint["q"])
        hint["q"] = terms["well"].q
        dropped += terms["dropped"]
        dE = terms["S1"] + terms["S2"] + terms["S3"]
        return np.concatenate(([dE], terms["W"] / Cbar))

    def barrier_margin(tau, y):
        E, Cbar = unpack(y)
        star = env.star_at(tau, Cbar)
        _, e_barrier = _well_and_barrier(star, analyze_potential(star),
                                         hint["q"])
        if not math.isfinite(e_barrier):
            return 1.0 + abs(E)
        return e_barrier - E

    y0 = np.concatenate(([init.E], np.log(init.Cbar)))
    tau, y, stop, meta = _adaptive_run(rhs, (init.tau, tau_end), y0,
                                       barrier_margin, "RK45", rtol, atol,
                                       n_samples)
    E_samples = y[0]
    C_samples = np.exp(y[1:]).T
    if stop is None:
        events = [RegimeEvent(tau=float(tau_end), kind="stabilized")]
    else:
        tau_c = stop[0]
        E_c, C_c = unpack(stop[1])
        terms = _averaged_terms(env, tau_c, E_c, C_c, hint["q"])
        dropped += terms["dropped"]
        driven = terms["S1"] < 0 and terms["S2"] > abs(terms["S1"])
        events = [RegimeEvent(tau=tau_c, kind="environment-destabilized"
                              if driven else "burst")]
        # include the crossing point itself in the samples
        tau = np.append(tau, tau_c)
        E_samples = np.append(E_samples, E_c)
        C_samples = np.vstack((C_samples, C_c))
    meta.update(n_samples=tau.size, quadrature_nodes_dropped=dropped,
                s2_derivative="analytic" if all(
                    path.analytic_derivative for path in (env.a, env.b, env.rbar))
                else "central-difference")
    return AveragedTrajectory(tau=tau, E=E_samples, Cbar=C_samples,
                              events=events, meta=meta)


@dataclass
class BurstScan:
    times: np.ndarray
    heights: np.ndarray
    intervals: np.ndarray
    rare: bool = None
    sampling_warning: bool = False

    @property
    def count(self):
        return self.times.size


def detect_bursts(traj, observable=0, reference_period=None):
    """Locate bursts of an observable by prominence-thresholded peak search.

    The threshold is five times the median absolute deviation of the signal
    (rare bursts barely move the MAD, so it tracks the quiet baseline).
    When a reference fast period is supplied the scan flags the rare-burst
    regime (mean spacing above ten periods) and warns about sampling sparser
    than twenty samples per period.
    """
    from scipy.signal import find_peaks  # keeps it out of `import hamlv`

    if isinstance(observable, str):
        signal = traj.column(observable)
    else:
        signal = traj.states[:, observable]
    t = traj.t
    mad = float(np.median(np.abs(signal - np.median(signal))))
    prominence = 5.0 * (mad if mad > 0 else float(np.std(signal)) or 1.0)
    idx, _ = find_peaks(signal, prominence=prominence)
    times = t[idx]
    intervals = np.diff(times)
    rare = None
    warning = False
    if reference_period is not None and reference_period > 0:
        dt = float(np.median(np.diff(t))) if t.size > 1 else math.inf
        warning = reference_period / dt < 20.0
        if intervals.size:
            rare = bool(np.mean(intervals) > 10.0 * reference_period)
    return BurstScan(times=times, heights=signal[idx], intervals=intervals,
                     rare=rare, sampling_warning=warning)


def _slow_fast_flow(env, n):
    """The fast star under the slow environment, y = (q, p, ln C).

    The canonical flow with M = 1, sigma = 1 and K = a(tau), tau = eps t:
    z = (p, ln C + a q), c = (-mu, rbar, eps beta (gamma_hat - a' q)),
    L = [[1, 0], [-eps dbar, -b], [0, -eps beta diag gamma]] and
    K = [[0], [a]].  The parts of c, L and K set by constant paths are
    filled once; refresh refills the others in place, and is None when
    every path is constant.
    """
    eps, eps_beta = env.epsilon, env.epsilon * env.beta
    a, b, rbar = env.a, env.b, env.rbar
    c = np.full(n + 2, -env.mu)
    L = np.zeros((n + 2, n + 1))
    K = np.zeros((n + 1, 1))
    L[:2, 0] = 1.0, -eps * env.dbar
    L[2:, 1:] = np.diag(-eps_beta * env.gamma)
    if rbar.is_constant:
        c[1] = rbar.value(0.0)
    if b.is_constant:
        L[1, 1:] = np.negative(b.value(0.0))
    if a.is_constant:  # a' = 0
        K[1:, 0] = a.value(0.0)
        c[2:] = eps_beta * env.gamma_hat

    def refresh(t, y):
        tau = eps * t
        if not rbar.is_constant:
            c[1] = rbar.value(tau)
        if not b.is_constant:
            L[1, 1:] = np.negative(b.value(tau))
        if not a.is_constant:
            K[1:, 0] = a.value(tau)
            c[2:] = eps_beta * (env.gamma_hat
                                - np.multiply(y[0], a.derivative(tau)))

    moving = not (a.is_constant and b.is_constant and rbar.is_constant)
    return _Flow(c, L, K, refresh if moving else None)


def simulate_slow_fast(env, q0, p0, C0, t_end, rtol=1e-9, atol=1e-12,
                       n_samples=2001):
    """Direct integration of the fast star under the slow environment.

    Runs the exp-sum flow kernel of integrate on _slow_fast_flow, so an
    escape is reported, not raised.  Returns a Trajectory with the
    instantaneous H(q, p; tau, C) recorded for comparison against E(tau).
    A C0 without one entry per species of env raises ValueError.
    """
    C0 = np.atleast_1d(np.asarray(C0, dtype=float))
    _check_species("C0", C0, env.gamma.size)
    n, eps, mu = C0.size, env.epsilon, env.mu
    y0 = np.concatenate(([q0, p0], np.log(C0)))
    ts, y, run = _solve_log_system(_slow_fast_flow(env, n), y0, t_end, rtol,
                                   atol, n_samples, None)
    run["meta"]["epsilon"] = eps
    qs, ps, lnC = y[0], y[1], y[2:].T
    a, b, rbar = (np.array([path.value(eps * t) for t in ts],
                           dtype=float).reshape(ts.size, -1)
                  for path in (env.a, env.b, env.rbar))
    x = clipped_exp(lnC + a * qs[:, None])
    H = np.sum(b / a * x, axis=1) - rbar[:, 0] * qs + clipped_exp(ps) - mu * ps
    labels = ["q", "p"] + [f"C{i + 1}" for i in range(n)]
    return Trajectory(t=ts, states=np.column_stack((qs, ps, np.exp(lnC))),
                      labels=labels, energy=H, **run)
