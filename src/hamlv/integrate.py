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
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import DOP853, RK45
from scipy.optimize import brentq

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


def _product(op):
    """x -> op @ x with its bits: ndarray.dot for a dense op, which skips the
    dispatch of @ (1.0 against 1.9 us at 6 x 6), and @ for CSR."""
    return op.dot if isinstance(op, np.ndarray) else op.__matmul__


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
    K = _product(_operator([[np.zeros((m, m))], [base.A / sigma]]))
    c = np.concatenate((-sigma * csys.mu, base.rbar, csys.gamma_bar))
    return lambda t, y: (c, L, y[m:] + K(y[:m]))


def _check_span(t_span):
    """Raise ValueError unless the run's span is finite and goes forward."""
    if not (all(map(math.isfinite, t_span)) and t_span[1] > t_span[0]):
        raise ValueError(f"the run's end (t_end or tau_end) must be finite "
                         f"and after its start, got the span {t_span}")


def _check_samples(n_samples):
    """Raise ValueError unless a grid of n_samples holds its start and end."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 (the start and "
                         f"the end), got {n_samples}")


# the steppers of the adaptive runs, by the name meta["method"] records
_STEPPERS = {"DOP853": DOP853, "RK45": RK45}
_ROOT_TOL = 4.0 * np.finfo(float).eps  # brentq xtol and rtol of a stop
# F bytes of the DOP853 steps whose samples wait for one block: about 3,000
# steps of a 6-unknown run, 56 of a 330-unknown one.  A run held whole raised
# the bench web's peak RSS from 107 to 155 MB (ROADMAP, non-levers).
_SAMPLE_BLOCK_BYTES = 2 ** 20


def _dop853_samples(t_eval, end, pending):
    """The samples of consecutive DOP853 steps up to t_eval[end - 1], each
    step a (dense output, sample count) of pending, in one pass of scipy's
    own Horner loop (Dop853DenseOutput) over every sample at once.

    Each sample meets the operations of sol(t) on the same operands, in the
    same order and elementwise, so it has the same bits.
    Returns the states, one column per sample.
    """
    sols, counts = zip(*pending)
    t = t_eval[end - sum(counts):end]
    step = np.repeat(np.arange(len(sols)), counts)
    t_old = np.array([sol.t_old for sol in sols])[step]
    h = np.array([sol.h for sol in sols])[step]
    x = ((t - t_old) / h)[:, None]
    F = np.stack([sol.F for sol in sols])[step]
    y = np.zeros((t.size, F.shape[2]))
    for i in range(F.shape[1]):
        y += F[:, -1 - i]
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += np.stack([sol.y_old for sol in sols])[step]
    return y.T


def _adaptive_run(rhs, t_span, y0, stop, method, rtol, atol, n_samples,
                  t_eval=None, blowup=False):
    """Every adaptive run of hamlv: scipy's DOP853 or RK45 stepper, sampled
    at t_eval (n_samples even steps by default) and stopped where stop(t, y)
    falls through zero.

    stop is read once per completed step; on a fall from g >= 0 to g <= 0
    the stop is the brentq root of stop on the step's dense output, and
    no sample after it is taken; a start with g < 0 is a stop at t0, before
    any step.  The samples of a step come from one dense output of that
    step.  A DOP853 run keeps the dense outputs of its sampled steps and
    evaluates their samples in blocks of at most _SAMPLE_BLOCK_BYTES of F
    (_dop853_samples), with the bits of one call per step; other steppers
    (RK45, whose interpolant is a BLAS product) call it per step.
    A solver failure raises RuntimeError unless
    ``blowup`` is set and a step was completed: the stop is then (t, None)
    at the last step completed.  A span that is not finite and forward, a
    tolerance that is not finite and positive, n_samples < 2 for the default
    grid, a t_eval that is empty, not strictly increasing or outside the
    span, and a y0 that is not finite raise ValueError.
    Returns the sample times, the states (one column per sample), the first
    stop (t, y) or None, and the run's meta.
    """
    _check_span(t_span)
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"tolerances must be positive and finite, got "
                         f"rtol = {rtol}, atol = {atol}")
    t0, t_end = map(float, t_span)
    if t_eval is None:
        _check_samples(n_samples)
        t_eval = np.linspace(t0, t_end, n_samples)
    else:
        t_eval = np.array(t_eval, dtype=float)
        if not (t_eval.ndim == 1 and t_eval.size and t0 <= t_eval[0]
                and t_eval[-1] <= t_end and np.all(np.diff(t_eval) > 0)):
            raise ValueError(f"t_eval must be a strictly increasing list of "
                             f"times within the span {t_span}")
    solver = _STEPPERS[method](rhs, t0, y0, t_end, rtol=rtol, atol=atol)
    grid, taken, samples, first, pending = t_eval.tolist(), 0, [], None, []
    blocks = type(solver) is DOP853
    g = stop(t0, y0)
    if g < 0:
        first, taken = (t0, y0), bisect_right(grid, t0)
        samples.append(np.repeat(y0[:, None], taken, axis=1))
    while first is None and solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            if not (blowup and solver.t != t0):
                raise RuntimeError(f"integration failed: {message}")
            first = (float(solver.t), None)
            break
        t, sol = solver.t, None
        g_new = stop(t, solver.y)
        if g >= 0 and g_new <= 0:
            sol = solver.dense_output()
            t = brentq(lambda s: stop(s, sol(s)), solver.t_old, t,
                       xtol=_ROOT_TOL, rtol=_ROOT_TOL)
            first = (t, sol(t))
        g = g_new
        end = bisect_right(grid, t, taken)
        if end > taken:
            if sol is None:
                sol = solver.dense_output()
            if not blocks:
                samples.append(sol(t_eval[taken:end]))
            else:
                if pending and (len(pending) + 1) * sol.F.nbytes > (
                        _SAMPLE_BLOCK_BYTES):
                    samples.append(_dop853_samples(t_eval, taken, pending))
                    pending = []
                pending.append((sol, end - taken))
            taken = end
    if pending:
        samples.append(_dop853_samples(t_eval, taken, pending))
    y = np.hstack(samples) if samples else np.empty((np.size(y0), 0))
    meta = {"method": method, "rtol": rtol, "atol": atol,
            "nfev": int(solver.nfev), "n_samples": taken}
    return t_eval[:taken], y, first, meta


def _solve_log_system(terms, y0, t_end, rtol, atol, n_samples, t_eval):
    """Integrate y' = c + L exp(z) from a flow's terms(t, y) = (c, L, z).

    L is one object for the whole run (a flow may update its entries in
    place), so its product is picked once, from the terms at the start.
    meta["escape_reason"] is "clamp" (the exponent stop), "diverged" (the
    clip keeps the right-hand side finite, so a collapse of the step after
    the first is a finite-time blow-up) or None.
    Returns the sample times, the states and the Trajectory's escape fields.
    """
    product = _product(terms(0.0, y0)[1])

    def rhs(t, y):
        c, _, z = terms(t, y)
        return c + product(clipped_exp(z))

    escape = lambda t, y: EXP_LIMIT - float(np.abs(terms(t, y)[2]).max())
    t, y, stop, meta = _adaptive_run(rhs, (0.0, t_end), y0, escape, "DOP853",
                                     rtol, atol, n_samples, t_eval,
                                     blowup=True)
    meta["escape_reason"] = (None if stop is None else
                             "diverged" if stop[1] is None else "clamp")
    return t, y, {"meta": meta, "escaped": stop is not None,
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
    system.check_state(x=x0, v=v0)
    n, m = system.N, system.M
    y0 = np.concatenate((np.log(x0), np.log(v0)))
    t, y, run = _solve_log_system(_lv_flow(system), y0, t_end, rtol, atol,
                                  n_samples, t_eval)
    labels = [f"x{i + 1}" for i in range(n)] + [f"v{j + 1}" for j in range(m)]
    return Trajectory(t=t, states=np.exp(y.T), labels=labels,
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
    csys.base.check_state(q=state0.q, p=state0.p, C=state0.C)
    n, m = csys.base.N, csys.base.M
    y0 = np.concatenate((state0.q, state0.p, np.log(state0.C)))
    terms = _transformed_flow(csys)
    t, y, run = _solve_log_system(terms, y0, t_end, rtol, atol, n_samples,
                                  t_eval)
    # one row per sample, summed pairwise along contiguous rows in the
    # grouping of canonical.hamiltonian (BLAS dot products drifted 4.6 eps)
    rows = np.ascontiguousarray(y.T)
    q, p = rows[:, :m], rows[:, m:2 * m]
    x = clipped_exp(np.ascontiguousarray(terms(None, y)[2][m:].T))
    sigma = csys.factors.sigma
    energy = (np.sum(csys.factors.rho * x, axis=1)
              - np.sum(csys.base.rbar * q, axis=1)
              + np.sum(sigma * (clipped_exp(p) - csys.mu * p), axis=1))
    states = np.hstack((q, p, np.exp(y[2 * m:].T)))
    labels = ([f"q{j + 1}" for j in range(m)] + [f"p{j + 1}" for j in range(m)]
              + [f"C{i + 1}" for i in range(n)])
    return Trajectory(t=t, states=states, labels=labels,
                      energy=energy, **run)


def _verlet(dphi, mu, h, q, p, n_steps):
    """n_steps Stormer-Verlet (kick-drift-kick) steps of size h from (q, p).

    A step's closing half-kick and the next step's opening one act at the
    same q, so the force is evaluated once per step plus once per call.
    """
    h_half = 0.5 * h
    exp_ = math.exp
    force = dphi(q)
    for _ in range(n_steps):
        p -= h_half * force
        q += h * (exp_(p) - mu)
        force = dphi(q)
        p -= h_half * force
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
    timed at the step that overflowed.  n_samples < 2 raises ValueError.
    """
    _check_samples(n_samples)
    if not (math.isfinite(h) and math.isfinite(t_end)):
        raise ValueError(f"h and t_end must be finite, got h = {h}, "
                         f"t_end = {t_end}")
    if h == 0.0:
        raise ValueError("step h must be nonzero")
    n_steps = int(round(t_end / h))
    if n_steps <= 0:
        raise ValueError("t_end must allow at least one step")
    stride = max(1, n_steps // (n_samples - 1))
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
    h_half, exp_ = 0.5 * h, math.exp
    q, p, t, prev_rel = q_star, p_up, 0.0, 0.0
    try:
        # _verlet's steps, one at a time: the force is carried across steps
        force = dphi(q)
        for _ in range(_RETURN_STEPS):
            p -= h_half * force
            q += h * (exp_(p) - mu)
            force = dphi(q)
            p -= h_half * force
            t += h
            rel = q - q_star
            if prev_rel < 0.0 <= rel and p > ln_mu:
                return t - h + h * (-prev_rel) / (rel - prev_rel)
            prev_rel = rel
    except OverflowError:
        raise RuntimeError(f"no return to the section: escaped at t = {t:.6g}"
                           ) from None
    raise RuntimeError("no return to the section within the step budget")
