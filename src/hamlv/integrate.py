"""Time integration: positivity-preserving adaptive runs and symplectic steps.

The full population system, its canonical form and the slow-fast star are
integrated in log coordinates, where each is y' = c + L exp(z) with z the log
abundances; this keeps the positive cone invariant structurally and turns
blow-up into a finite log-coordinate threshold.  The reduced star Hamiltonian
uses a fixed-step Stormer-Verlet splitting whose kick and drift substeps are
the exact flows of Phi and Psi separately.

No integrator raises on an escape: each reports ``escaped``, ``escape_time``
and meta["escape_reason"], "clamp" (an exponent passed +-EXP_LIMIT),
"diverged" (a finite-time blow-up collapsed the adaptive step) or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .util import EXP_LIMIT, clipped_exp, write_csv


@dataclass
class Trajectory:
    """Sampled solution with optional energy diagnostic and solver metadata."""

    t: np.ndarray
    states: np.ndarray          # (n_samples, dim)
    labels: list
    energy: np.ndarray = None
    meta: dict = field(default_factory=dict)
    escaped: bool = False
    escape_time: float = None

    def column(self, label):
        return self.states[:, self.labels.index(label)]

    def to_csv(self, path):
        header = ["t"] + list(self.labels)
        columns = [self.t, self.states]
        if self.energy is not None:
            header.append("H")
            columns.append(self.energy)
        write_csv(path, header, *columns)


# CSR pays for operators of at least 256 x 256 entries with at most one in
# ten nonzero: one BLAS thread, c + L @ e, dense against CSR (CHANGES.md)
_CSR_MIN_SIZE = 256 * 256
_CSR_MAX_DENSITY = 0.1


def _operator(blocks):
    """The block matrix of a grid of dense blocks, as the flow applies it.

    A large, mostly zero operator is assembled as a CSR array from the blocks,
    so its dense form is never held; L @ e then costs one multiply-add per
    nonzero instead of one per entry.  Smaller or denser operators stay dense
    ndarrays, where BLAS wins.
    """
    size = (sum(row[0].shape[0] for row in blocks)
            * sum(b.shape[1] for b in blocks[0]))
    nnz = sum(np.count_nonzero(b) for row in blocks for b in row)
    if size >= _CSR_MIN_SIZE and nnz <= _CSR_MAX_DENSITY * size:
        return sparse.block_array(blocks, format="csr")
    return np.block(blocks)


def _lv_flow(system):
    """y = (ln x, ln v): c = (-r, rbar), L = [[-Gamma, A], [-B, -D]], z = y."""
    c = np.concatenate((-system.r, system.rbar))
    L = _operator([[-system.Gamma, system.A], [-system.B, -system.D]])
    return lambda t, y: (c, L, y)


def _transformed_flow(csys):
    """Canonical flow in y = (q, p, ln C) with z = (p, ln C + A q / sigma).

    z holds (ln v, ln x), so c = (-sigma mu, rbar, gamma_bar) and
    L = [[diag sigma, 0], [-D, -B], [0, -Gamma]].
    """
    base, sigma = csys.base, csys.factors.sigma
    n, m = base.N, base.M
    L = _operator([[np.diag(sigma), np.zeros((m, n))], [-base.D, -base.B],
                   [np.zeros((n, m)), -base.Gamma]])
    K = _operator([[np.zeros((m, m))], [base.A / sigma]])
    c = np.concatenate((-sigma * csys.mu, base.rbar, csys.gamma_bar))
    return lambda t, y: (c, L, y[m:] + K @ y[:m])


def _check_span(t_span):
    """Raise ValueError unless the run's span is finite and goes forward."""
    if not (all(map(math.isfinite, t_span)) and t_span[1] > t_span[0]):
        raise ValueError(f"the run's end (t_end or tau_end) must be finite "
                         f"and after its start, got the span {t_span}")


def _adaptive_run(rhs, t_span, y0, stop, method, rtol, atol, n_samples,
                  t_eval=None, blowup=False):
    """Every adaptive run of hamlv: solve_ivp sampled at t_eval (n_samples
    even steps by default) and stopped where stop(t, y) falls through zero.

    A solver failure raises RuntimeError unless ``blowup`` is set and a step
    was completed: the stop is then (t, None) at the last step completed.
    A span that is not finite and forward, or a tolerance that is not finite
    and positive, raises ValueError (solve_ivp would run on without end).
    Returns the solution, the first stop (t, y) or None, and the run's meta.
    """
    _check_span(t_span)
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"tolerances must be positive and finite, got "
                         f"rtol = {rtol}, atol = {atol}")
    last = [t_span[0]]

    def event(t, y):
        last[0] = t
        return stop(t, y)

    event.terminal, event.direction = True, -1
    if t_eval is None:
        t_eval = np.linspace(*t_span, n_samples)
    sol = solve_ivp(rhs, t_span, y0, method=method, rtol=rtol, atol=atol,
                    t_eval=t_eval, events=event)
    if sol.status == -1 and not (blowup and last[0] != t_span[0]):
        raise RuntimeError(f"integration failed: {sol.message}")
    first = ((float(sol.t_events[0][0]), sol.y_events[0][0])
             if sol.status == 1 else
             (float(last[0]), None) if sol.status == -1 else None)
    meta = {"method": method, "rtol": rtol, "atol": atol,
            "nfev": int(sol.nfev), "n_samples": int(sol.t.size)}
    return sol, first, meta


def _solve_log_system(terms, y0, t_end, rtol, atol, n_samples, t_eval):
    """Integrate y' = c + L exp(z) from a flow's terms(t, y) = (c, L, z).

    meta["escape_reason"] is "clamp" (the exponent event), "diverged" (the
    clip keeps the right-hand side finite, so a collapse of the step after
    the first is a finite-time blow-up) or None.
    """
    def rhs(t, y):
        c, L, z = terms(t, y)
        return c + L @ clipped_exp(z)

    escape = lambda t, y: EXP_LIMIT - float(np.max(np.abs(terms(t, y)[2])))
    sol, stop, meta = _adaptive_run(rhs, (0.0, t_end), y0, escape, "DOP853",
                                    rtol, atol, n_samples, t_eval, blowup=True)
    meta["escape_reason"] = (None if stop is None else
                             "diverged" if sol.status == -1 else "clamp")
    return sol, {"meta": meta, "escaped": stop is not None,
                 "escape_time": None if stop is None else stop[0]}


def integrate_lv(system, x0, v0, t_end, rtol=1e-8, atol=1e-10, n_samples=1001,
                 t_eval=None):
    """Integrate the two-group system from positive initial abundances.

    Escape (any log abundance beyond +-700) terminates the run and is reported
    on the trajectory rather than raised.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if np.any(x0 <= 0) or np.any(v0 <= 0):
        raise ValueError("initial abundances must be strictly positive")
    n, m = system.N, system.M
    y0 = np.concatenate((np.log(x0), np.log(v0)))
    sol, run = _solve_log_system(_lv_flow(system), y0, t_end, rtol, atol,
                                 n_samples, t_eval)
    labels = [f"x{i + 1}" for i in range(n)] + [f"v{j + 1}" for j in range(m)]
    return Trajectory(t=sol.t.copy(), states=np.exp(sol.y.T), labels=labels,
                      **run)


def integrate_transformed(csys, state0, t_end, rtol=1e-8, atol=1e-10,
                          n_samples=1001, t_eval=None):
    """Integrate the transformed (q, p, C) system, C in log space.

    An exponent ln x or ln v beyond +-700 is reported as an escape.  Records
    H at the samples; H is a conserved quantity only when the reduction is
    exact (limitation-free, gamma_bar = 0) and a plain diagnostic otherwise.
    H = rho x - rbar q + sigma (v - mu p) is taken from the flow's own
    exponents z = (p, ln x), so it stays finite where C alone overflows.
    """
    n, m = csys.base.N, csys.base.M
    y0 = np.concatenate((state0.q, state0.p, np.log(state0.C)))
    terms = _transformed_flow(csys)
    sol, run = _solve_log_system(terms, y0, t_end, rtol, atol, n_samples,
                                 t_eval)
    # one row per sample, summed pairwise along contiguous rows in the
    # grouping of canonical.hamiltonian (BLAS dot products drifted 4.6 eps)
    y = np.ascontiguousarray(sol.y.T)
    q, p = y[:, :m], y[:, m:2 * m]
    x = clipped_exp(np.ascontiguousarray(terms(None, sol.y)[2][m:].T))
    sigma = csys.factors.sigma
    energy = (np.sum(csys.factors.rho * x, axis=1)
              - np.sum(csys.base.rbar * q, axis=1)
              + np.sum(sigma * (clipped_exp(p) - csys.mu * p), axis=1))
    states = np.hstack((q, p, np.exp(sol.y[2 * m:].T)))
    labels = ([f"q{j + 1}" for j in range(m)] + [f"p{j + 1}" for j in range(m)]
              + [f"C{i + 1}" for i in range(n)])
    return Trajectory(t=sol.t.copy(), states=states, labels=labels,
                      energy=energy, **run)


def _verlet(dphi, mu, h, q, p, n_steps):
    """n_steps Stormer-Verlet (kick-drift-kick) steps of size h from (q, p)."""
    h_half = 0.5 * h
    exp_ = math.exp
    for _ in range(n_steps):
        p -= h_half * dphi(q)
        q += h * (exp_(p) - mu)
        p -= h_half * dphi(q)
    return q, p


def _overflow_step(dphi, mu, h, q, p, n_steps):
    """The first of n_steps single Verlet steps from (q, p) that overflows;
    the last when only the energy at their end did."""
    for i in range(1, n_steps):
        try:
            q, p = _verlet(dphi, mu, h, q, p, 1)
        except OverflowError:
            return i
    return n_steps


def integrate_symplectic(star, q0, p0, h, t_end, n_samples=2001):
    """Fixed-step Stormer-Verlet (kick-drift-kick) for the star Hamiltonian.

    Second order, symplectic; the energy error oscillates with bounded
    amplitude instead of drifting.  Aborts when a single step moves H by more
    than 10% of its magnitude (step too large for the orbit).  An exponent
    that overflows ends the run at the sample before it as a "clamp" escape,
    timed at the step that overflowed.
    """
    if not (math.isfinite(h) and math.isfinite(t_end)):
        raise ValueError(f"h and t_end must be finite, got h = {h}, "
                         f"t_end = {t_end}")
    if h == 0.0:
        raise ValueError("step h must be nonzero")
    n_steps = int(round(t_end / h))
    if n_steps <= 0:
        raise ValueError("t_end must allow at least one step")
    stride = max(1, n_steps // max(1, n_samples - 1))
    mu = star.mu
    dphi, phi = star.terms().scalar_forces()
    q, p = float(q0), float(p0)
    H0 = phi(q) + math.exp(p) - mu * p
    samples = [(0.0, q, p, H0)]
    guard = 0.1 * abs(H0) if H0 != 0.0 else 0.1
    H_prev, step, escape_time = H0, 0, None
    while step < n_steps:
        block = min(stride, n_steps - step)
        try:
            q1, p1 = _verlet(dphi, mu, h, q, p, block)
            H = phi(q1) + math.exp(p1) - mu * p1
        except OverflowError:
            escape_time = (step + _overflow_step(dphi, mu, h, q, p, block)) * h
            break
        q, p = q1, p1
        step += block
        if abs(H - H_prev) > guard * stride:
            raise RuntimeError(
                f"energy moved {abs(H - H_prev):.3g} over {stride} step(s) "
                f"at t = {step * h:.6g}: step h = {h:g} too large")
        H_prev = H
        samples.append((step * h, q, p, H))
    samples = np.array(samples)
    meta = {"method": "stormer-verlet", "h": h, "n_steps": n_steps,
            "stride": stride,
            "escape_reason": None if escape_time is None else "clamp"}
    return Trajectory(t=samples[:, 0], states=samples[:, 1:3],
                      labels=["q", "p"], energy=samples[:, 3], meta=meta,
                      escaped=escape_time is not None, escape_time=escape_time)


_RETURN_STEPS = 1_000_000  # step budget of a first return


def poincare_return_time(star, E, h=1e-3, q_ref=None):
    """First-return time to the section q = q*, dq/dt > 0 at energy E.

    Starts on the section at the well bottom q* with the upward momentum
    branch and integrates with the symplectic stepper until the next upward
    crossing, locating it by linear interpolation within the step.  Before
    the first step classify_orbit's verdict is checked: a non-finite E and
    every class but periodic raise ValueError, E below the well
    EnergyBelowWellError.  Raises RuntimeError when no return comes within
    the step budget or the orbit escapes first (a step h too large can).
    """
    from .star import _classify, _periodic, _psi_roots, analyze_potential

    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h}")
    profile = analyze_potential(star)
    _periodic(_classify(star, E, profile, q_ref))
    well = profile.well(q_ref)
    q_star = well.q
    p_up, _ = _psi_roots(star.mu, E - well.phi)

    mu, ln_mu = star.mu, math.log(star.mu)
    dphi, _ = star.terms().scalar_forces()
    q, p, t, prev_rel = q_star, p_up, 0.0, 0.0
    try:
        for _ in range(_RETURN_STEPS):
            q, p = _verlet(dphi, mu, h, q, p, 1)
            t += h
            rel = q - q_star
            if prev_rel < 0.0 <= rel and p > ln_mu:
                return t - h + h * (-prev_rel) / (rel - prev_rel)
            prev_rel = rel
    except OverflowError:
        raise RuntimeError(f"no return to the section: escaped at t = {t:.6g}"
                           ) from None
    raise RuntimeError("no return to the section within the step budget")
