"""One-generalist (M = 1) star systems: potential landscape and orbit taxonomy.

The reduced star dynamics is the one-degree-of-freedom Hamiltonian system

    dq/dt = exp(p) - mu,      dp/dt = -Phi'(q)
    H(q, p) = Psi(p) + Phi(q)
    Psi(p)  = exp(p) - mu p                      (kinetic part)
    Phi(q)  = sum_j rho_j C_j exp(a_j q) - rbar q  (potential part)

with rho_j = b_j / a_j.  Orbits at energy E live on the level set
Phi(q) = E - min Psi; their type (equilibrium, periodic, soliton, kink,
unbounded) is read off the potential profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from .util import clipped_exp, libm_exp, require_finite


@dataclass(frozen=True)
class PotentialTerms:
    """Exponential-sum potential Phi(q) = sum_k c_k exp(a_k q) - slope * q."""

    c: np.ndarray
    a: np.ndarray
    slope: float = 0.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if c.shape != a.shape:
            raise ValueError("coefficients and exponents must have equal length")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "slope", float(self.slope))

    @property
    def degenerate(self):
        """Constant potential: every exponent and the slope vanish."""
        return not (np.any(self.a) or self.slope)

    def _exponentials(self, q):
        """exp(a_k q) for every q and k, exponents clipped to +-EXP_LIMIT."""
        return clipped_exp(np.multiply.outer(q, self.a))

    def phi(self, q):
        q = np.asarray(q, dtype=float)
        return self._exponentials(q) @ self.c - self.slope * q

    def dphi(self, q):
        q = np.asarray(q, dtype=float)
        return self._exponentials(q) @ (self.c * self.a) - self.slope

    def d2phi(self, q):
        q = np.asarray(q, dtype=float)
        return self._exponentials(q) @ (self.c * self.a ** 2)

    def scalar_forces(self):
        """Plain-float closures (Phi'(q), Phi(q)) of a scalar q for tight loops.

        Terms are summed left to right with math.exp and no clipping; a
        single term skips the sum.
        """
        c, a, ca, slope = (self.c.tolist(), self.a.tolist(),
                           (self.c * self.a).tolist(), self.slope)
        if len(a) == 1:
            (c0,), (a0,), (ca0,) = c, a, ca
            return (lambda q: ca0 * math.exp(a0 * q) - slope,
                    lambda q: c0 * math.exp(a0 * q) - slope * q)
        return (lambda q: sum(caj * math.exp(aj * q)
                              for caj, aj in zip(ca, a)) - slope,
                lambda q: sum(cj * math.exp(aj * q)
                              for cj, aj in zip(c, a)) - slope * q)

    def limit_sign(self, direction):
        """Sign of Phi at q -> +inf (direction=+1) or -inf (-1); 0 if bounded.

        The dominant exponent decides; when every exponential decays the
        linear term does, and a flat tail gives 0.
        """
        a, c = self.a, self.c
        live = c != 0.0
        if np.any(live):
            extreme = np.max(a[live] * direction)
            if extreme > 0:
                coeff = np.sum(c[live][a[live] * direction == extreme])
                if coeff != 0:
                    return 1 if coeff > 0 else -1
        if self.slope != 0.0:
            return -1 if self.slope * direction > 0 else 1
        return 0


@dataclass(frozen=True)
class StarSystem:
    """Star parameters: prey couplings a, b, hub rate rbar, offset mu, memory C."""

    a: np.ndarray
    b: np.ndarray
    rbar: float
    mu: float = 1.0
    C: np.ndarray = None
    r: np.ndarray = None

    def __post_init__(self):
        # a missing coefficient (None) reads as NaN and is rejected by name
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        rbar = float(np.asarray(self.rbar, dtype=float))
        mu = float(np.asarray(self.mu, dtype=float))
        C = np.ones_like(a) if self.C is None else np.atleast_1d(
            np.asarray(self.C, dtype=float))
        r = a * mu if self.r is None else np.atleast_1d(
            np.asarray(self.r, dtype=float))
        require_finite(("a", a), ("b", b), ("rbar", rbar), ("mu", mu),
                       ("C", C), ("r", r))
        for name, arr in (("a", a), ("b", b)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape "
                                 f"{arr.shape}")
        if a.shape != b.shape:
            raise ValueError("a and b must have equal length")
        if r.shape != a.shape:
            raise ValueError(f"r must have one entry per species, got shape "
                             f"{r.shape}")
        if np.any(a == 0):
            raise ValueError("coefficients a must be nonzero")
        if mu <= 0:
            raise ValueError("mu must be positive")
        if C.shape != a.shape or np.any(C <= 0):
            raise ValueError("C must be positive, one entry per species")
        for name, arr in (("a", a), ("b", b), ("C", C), ("r", r)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rbar", rbar)
        object.__setattr__(self, "mu", mu)

    @property
    def n_species(self):
        return self.a.size

    @property
    def rho(self):
        return self.b / self.a

    def is_hamiltonian(self, tol=1e-12):
        """True when r_i = a_i mu for every species."""
        return bool(np.all(np.abs(self.r - self.a * self.mu)
                           <= tol * (1.0 + np.abs(self.r))))

    def terms(self):
        return PotentialTerms(c=self.rho * self.C, a=self.a, slope=self.rbar)

    def psi_min(self):
        """min Psi = mu (1 - ln mu), attained at p = ln mu."""
        return self.mu * (1.0 - math.log(self.mu))

    def to_interaction_system(self, gamma=None, d=0.0):
        """Embed as an InteractionSystem (optionally with self-limitation)."""
        from .model import InteractionSystem
        n = self.n_species
        Gamma = None if gamma is None else np.diag(np.atleast_1d(
            np.asarray(gamma, dtype=float)) * np.ones(n))
        return InteractionSystem(
            r=self.r, rbar=[self.rbar], A=self.a[:, None], B=self.b[None, :],
            Gamma=Gamma, D=[[d]])


@dataclass(frozen=True)
class Extremum:
    q: float
    phi: float
    kind: str  # "min" or "max"


@dataclass(frozen=True)
class PotentialProfile:
    extrema: tuple
    coercive_left: bool
    coercive_right: bool
    window: tuple
    window_warning: bool = False

    def minima(self):
        return [e for e in self.extrema if e.kind == "min"]

    def maxima(self):
        return [e for e in self.extrema if e.kind == "max"]

    def well(self, q_ref=None):
        """The minimum nearest q_ref, or the deepest one; None without a well."""
        minima = self.minima()
        key = (lambda e: e.phi) if q_ref is None else (lambda e: abs(e.q - q_ref))
        return min(minima, key=key, default=None)

    def barrier(self, well):
        """Phi at the lower maximum next to a well; inf when it has none."""
        i = self.extrema.index(well)
        tops = [e.phi for e in self.extrema[max(i - 1, 0):i + 2]
                if e.kind == "max"]
        return min(tops) if tops else math.inf


def _sign_changes(terms):
    """Sign changes of the coefficients of Phi', taken in order of exponent.

    Phi'(q) = sum_k c_k a_k exp(a_k q) - slope; terms with equal exponents
    are merged and the -slope term sits at exponent 0.  By Laguerre's rule
    of signs for exponential sums (Polya & Szego, Problems and Theorems in
    Analysis II) the real zeros of Phi', counted with multiplicity, number
    at most this count and differ from it by an even number.
    """
    coeffs = {0.0: -terms.slope}
    for a, ca in zip(terms.a.tolist(), (terms.c * terms.a).tolist()):
        coeffs[a] = coeffs.get(a, 0.0) + ca
    signs = [v > 0.0 for _, v in sorted(coeffs.items()) if v != 0.0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _profile_of_terms(terms, q_window=None, n_grid=2001):
    if q_window is None:
        amax = float(np.max(np.abs(terms.a))) if np.any(terms.a) else 1.0
        half = 50.0 / amax
        q_window = (-half, half)
    lo, hi = float(q_window[0]), float(q_window[1])
    if not lo < hi:
        raise ValueError("window must be a nondegenerate interval")
    grid = np.linspace(lo, hi, n_grid)
    dvals = terms.dphi(grid)
    scale = float(np.max(np.abs(dvals))) or 1.0
    roots = []
    sign = np.sign(dvals)
    # grid points where Phi' vanishes or changes sign before the next point
    for i in np.flatnonzero((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0)):
        if sign[i] == 0.0:
            roots.append(grid[i])
        else:
            roots.append(brentq(terms.dphi, grid[i], grid[i + 1],
                                xtol=1e-15, rtol=8.9e-16))
    if sign[-1] == 0.0:
        roots.append(grid[-1])
    extrema = []
    for q in sorted(roots):
        # one Newton polish, guarded against a flat second derivative
        curv = float(terms.d2phi(q))
        if curv != 0.0:
            step = float(terms.dphi(q)) / curv
            if abs(step) < (hi - lo) / n_grid:
                q -= step
        if extrema and abs(q - extrema[-1][0]) <= 1e-12 * (1.0 + abs(q)):
            continue
        if abs(float(terms.dphi(q))) > 1e-12 * scale * 1e3:
            continue  # spurious bracket from a near-flat stretch
        kind = "min" if float(terms.d2phi(q)) > 0 else "max"
        extrema.append((q, float(terms.phi(q)), kind))
    # enforce alternation: merge duplicate kinds produced by degenerate curvature
    cleaned = []
    for q, val, kind in extrema:
        if cleaned and cleaned[-1][2] == kind:
            keep = (q, val, kind) if (kind == "min") == (val < cleaned[-1][1]) else cleaned[-1]
            cleaned[-1] = keep
            continue
        cleaned.append((q, val, kind))
    ext = tuple(Extremum(q=q, phi=val, kind=kind) for q, val, kind in cleaned)
    bound = _sign_changes(terms)
    warn = (bool(ext) and (ext[0].q - lo < (hi - lo) * 1e-3
                           or hi - ext[-1].q < (hi - lo) * 1e-3)
            or len(ext) > bound or (bound - len(ext)) % 2 == 1)
    return PotentialProfile(
        extrema=ext,
        coercive_left=terms.limit_sign(-1) > 0,
        coercive_right=terms.limit_sign(+1) > 0,
        window=(lo, hi),
        window_warning=bool(warn),
    )


def analyze_potential(star, q_window=None, n_grid=2001):
    """Locate the extrema of Phi and settle coercivity on both sides.

    Sign changes of Phi' on a refined grid are bracketed and bisected to
    machine precision, then polished with one Newton step.  Coercivity comes
    from the dominant exponent (the -rbar q term decides when every
    exponential decays).  A window_warning is raised, not an error, when an
    extremum sits against the window edge, or when the extrema found do not
    fit the sign changes of the coefficients of Phi' (Laguerre's rule of
    signs): more extrema than sign changes, or a count of different parity,
    which means an extremum outside the window or one the grid did not
    resolve.
    """
    if hasattr(star, "terms"):
        star = star.terms()
    return _profile_of_terms(star, q_window=q_window, n_grid=n_grid)


@dataclass(frozen=True)
class Orbit:
    """Classified level set of the star Hamiltonian at energy E."""

    kind: str  # equilibrium | periodic | soliton | kink | unbounded
    energy: float
    level: float
    q_minus: float = None
    q_plus: float = None
    period: float = None
    q_plateau: float = None
    direction: str = None

    def to_dict(self):
        out = {"class": self.kind, "E": self.energy}
        if self.kind == "periodic":
            out.update(q_minus=self.q_minus, q_plus=self.q_plus, period=self.period)
        elif self.kind == "soliton":
            out.update(q_plateau=self.q_plateau, q_minus=self.q_minus,
                       q_plus=self.q_plus)
        elif self.kind == "kink":
            out.update(q_minus=self.q_minus, q_plus=self.q_plus)
        elif self.kind == "unbounded":
            out.update(direction=self.direction)
        elif self.kind == "equilibrium":
            out.update(q=self.q_minus)
        return out


class EnergyBelowWellError(ValueError):
    """Requested energy lies below the bottom of the tracked well."""


def _level_root(terms, level, q0, q1):
    """The root of Phi = level between q0 and q1, given in either order."""
    lo, hi = (q0, q1) if q0 < q1 else (q1, q0)
    return brentq(lambda q: float(terms.phi(q)) - level, lo, hi,
                  xtol=1e-14, rtol=8.9e-16)


def _expand_root(terms, level, start, direction, step0):
    """Find a root of Phi = level beyond the last extremum by bracket growth."""
    step = step0
    q0 = start
    f0 = float(terms.phi(q0)) - level
    for _ in range(200):
        q1 = q0 + direction * step
        f1 = float(terms.phi(q1)) - level
        if f0 <= 0.0 <= f1 or f1 <= 0.0 <= f0:
            return _level_root(terms, level, q0, q1)
        q0, f0 = q1, f1
        step *= 1.6
    raise RuntimeError("failed to bracket a level-set root on a coercive side")


def _march(terms, profile, level, q_start, side, tol_deg):
    """Walk extrema away from the well bottom until the level set closes.

    Returns ("simple", q), ("degenerate", q_max) or ("unbounded", None).
    """
    direction = 1 if side == "right" else -1
    ext = [e for e in profile.extrema
           if (e.q > q_start if side == "right" else e.q < q_start)]
    if side == "left":
        ext = ext[::-1]
    prev_q = q_start
    for e in ext:
        if e.kind == "max":
            if e.phi > level + tol_deg:
                return "simple", _level_root(terms, level, prev_q, e.q)
            if abs(e.phi - level) <= tol_deg:
                return "degenerate", e.q
        prev_q = e.q
    coercive = profile.coercive_right if side == "right" else profile.coercive_left
    if coercive:
        span = profile.window[1] - profile.window[0]
        return "simple", _expand_root(terms, level, prev_q, direction,
                                      max(span / 100.0, 1e-3))
    # windowed tail may still rise above the level even if the limit does not
    edge = profile.window[1] if side == "right" else profile.window[0]
    if float(terms.phi(edge)) > level:
        return "simple", _level_root(terms, level, prev_q, edge)
    return "unbounded", None


def classify_orbit(star, E, q_ref=None, q_window=None, with_period=True):
    """Classify the orbit at energy E in the well containing q_ref.

    The turning points solve Phi(q) = E - mu(1 - ln mu).  Two simple roots
    bound a periodic orbit; a root degenerate at a local maximum (within
    1e-9 (1 + |E - mu(1 - ln mu)|)) gives a soliton plateau; two degenerate
    ends give a kink; an open side gives an unbounded escape.  q_ref
    defaults to the deepest minimum of the profile.
    """
    profile = _profile_of_terms(star.terms(), q_window=q_window)
    return _classify(star, E, profile, q_ref, with_period)


def _classify(star, E, profile, q_ref=None, with_period=True):
    """classify_orbit on a potential profile the caller already has."""
    terms = star.terms()
    psi_min = star.psi_min()
    level = E - psi_min
    tol_deg = 1e-9 * (1.0 + abs(level))

    well = profile.well(q_ref)
    if well is None:
        # no well anywhere: the component is open on every non-coercive side
        sides = [s for s, flag in (("left", profile.coercive_left),
                                   ("right", profile.coercive_right)) if not flag]
        direction = "both" if len(sides) == 2 else (sides[0] if sides else None)
        if direction is None:
            raise EnergyBelowWellError("coercive potential without extrema in window")
        return Orbit(kind="unbounded", energy=E, level=level, direction=direction)

    if level < well.phi - tol_deg:
        raise EnergyBelowWellError(
            f"E = {E:g} is below the well bottom energy {well.phi + psi_min:g}")
    if level <= well.phi + tol_deg:
        return Orbit(kind="equilibrium", energy=E, level=level,
                     q_minus=well.q, q_plus=well.q)

    right_kind, q_plus = _march(terms, profile, level, well.q, "right",
                                tol_deg)
    left_kind, q_minus = _march(terms, profile, level, well.q, "left",
                                tol_deg)
    if right_kind == "unbounded" or left_kind == "unbounded":
        direction = ("both" if right_kind == left_kind == "unbounded"
                     else ("right" if right_kind == "unbounded" else "left"))
        return Orbit(kind="unbounded", energy=E, level=level, direction=direction)
    if right_kind == "degenerate" and left_kind == "degenerate":
        return Orbit(kind="kink", energy=E, level=level,
                     q_minus=q_minus, q_plus=q_plus)
    if right_kind == "degenerate" or left_kind == "degenerate":
        plateau = q_plus if right_kind == "degenerate" else q_minus
        return Orbit(kind="soliton", energy=E, level=level,
                     q_minus=q_minus, q_plus=q_plus, q_plateau=plateau)
    T = None
    if with_period:
        T = _orbit_quadrature(star, E, q_minus, q_plus).period
    return Orbit(kind="periodic", energy=E, level=level,
                 q_minus=q_minus, q_plus=q_plus, period=T)


_XTOL, _RTOL, _MAXITER = 1e-15, 8.9e-16, 100


def _brentq(f, xa, xb, fa, fb):
    """Roots of f in the brackets [xa, xb], as scipy's brentq finds them.

    A step-for-step port of scipy's brentq.c (Brent, *Algorithms for
    Minimization without Derivatives*, 1973) over arrays: the same delta,
    the same choice between interpolation, extrapolation and bisection, and
    the same errors, so each root is bit-identical to
    brentq(f, xa, xb, xtol=1e-15, rtol=8.9e-16) when f is.  f(x, i)
    evaluates the functions of entries i at x.  The root is NaN where
    brentq raises ValueError (a NaN value, no sign change); RuntimeError is
    raised where it would fail to converge.  Converged entries leave the
    working arrays each iteration.  fa and fb are f(xa) and f(xb), which
    the caller has from bracketing the roots.
    """
    root = np.full(xa.shape, np.nan)
    idx = np.arange(xa.size)
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    valid = ~(np.isnan(fpre) | np.isnan(fcur))
    at_a = valid & (fpre == 0)
    at_b = valid & ~at_a & (fcur == 0)
    root[at_a] = xpre[at_a]
    root[at_b] = xcur[at_b]
    live = (valid & ~at_a & ~at_b
            & (np.signbit(fpre) != np.signbit(fcur)))
    xpre, xcur, fpre, fcur, idx = (v[live] for v in (xpre, xcur, fpre, fcur, idx))
    xblk = fblk = spre = scur = np.zeros(idx.size)
    for _ in range(_MAXITER):
        nan = np.isnan(fcur)  # brentq raises on a NaN value
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (_XTOL + _RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = ~nan & ((fcur == 0) | (np.abs(sbis) < delta))
        root[idx[done]] = xcur[done]
        if (done | nan).any():
            keep = ~(done | nan)
            (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis,
             idx) = (v[keep] for v in (xpre, xcur, xblk, fpre, fcur, fblk, spre,
                                       scur, delta, sbis, idx))
        if not idx.size:
            return root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        # MIN(a, b) of brentq.c is a < b ? a : b, which matters for NaN
        cap_a, cap_b = np.abs(spre), 3 * np.abs(sbis) - delta
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.where(cap_a < cap_b, cap_a, cap_b)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, idx)
    if not np.isnan(fcur).all():
        raise RuntimeError(f"brentq failed to converge after {_MAXITER} iterations")
    return root


def _psi_roots(mu, w):
    """Both solutions (p_up, p_dn) of exp(p) - mu p = w around the minimum at ln mu.

    For an array w the roots are arrays, NaN where w lies below min Psi or
    roundoff leaves no sign change in the bracket.  A scalar w gives floats
    and raises ValueError there.  Each bracket starts one unit from ln mu
    and doubles until it holds the root; both branches are solved in one
    _brentq pass, with exp from the C library.
    """
    pmin = math.log(mu)
    wmin = mu * (1.0 - pmin)
    ws = np.atleast_1d(np.asarray(w, dtype=float))
    roots = np.full((2, ws.size), np.nan)
    roots[:, ws == wmin] = pmin
    todo = np.flatnonzero(ws > wmin)
    if todo.size:
        level = np.tile(ws[todo], 2)

        def f(p, i):
            return libm_exp(p) - mu * p - level[i]

        edge = pmin + np.repeat([1.0, -1.0], todo.size)
        f_edge = np.empty(edge.size)
        grow = np.arange(edge.size)
        while grow.size:
            f_edge[grow] = f(edge[grow], grow)
            grow = grow[f_edge[grow] < 0]
            edge[grow] = pmin + 2.0 * (edge[grow] - pmin)
        start = np.full(edge.size, pmin)
        f_start = (math.exp(pmin) - mu * pmin) - level
        up = np.arange(edge.size) < todo.size
        roots[:, todo] = _brentq(
            f, np.where(up, start, edge), np.where(up, edge, start),
            np.where(up, f_start, f_edge),
            np.where(up, f_edge, f_start)).reshape(2, -1)
    if np.ndim(w):
        return roots[0], roots[1]
    if w < wmin:
        raise ValueError("kinetic level below min Psi")
    if np.isnan(roots).any():
        raise ValueError(f"no root of exp(p) - mu p = {w!r} for mu = {mu!r}")
    return float(roots[0, 0]), float(roots[1, 0])


def _running_sum(x):
    """Sums along the last axis in the order of a Python `s += v` loop from 0.0.

    np.sum adds pairwise and so rounds differently.
    """
    x = np.asarray(x, dtype=float)
    start = np.zeros(x.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate((start, x), axis=-1), axis=-1)[..., -1]


@dataclass(frozen=True)
class _OrbitNodes:
    """Time-weighted quadrature nodes of one closed orbit.

    q, p and dt hold one entry per node, the upper and lower momentum
    branches interleaved at each position q.  dt None marks the degenerate
    orbit at the bottom of a well: the single point (q[0], p[0]).  dropped
    counts positions left out because roundoff put them outside the well.
    """

    period: float
    q: np.ndarray
    p: np.ndarray
    dt: np.ndarray = None
    dropped: int = 0

    def averages(self, values):
        """Time averages sum(dt f) / T of node values, one row per observable."""
        values = np.asarray(values, dtype=float)
        if self.dt is None:
            return values[:, 0].tolist()
        return [s / self.period for s in _running_sum(values * self.dt).tolist()]


_GL_NODES, _GL_WEIGHTS = leggauss(80)


def _orbit_quadrature(star, E, q_minus, q_plus, n_segments=8):
    """Time-weighted quadrature nodes along one closed orbit, as _OrbitNodes.

    The turning-point singularity is removed with the substitution
    q = q_end -/+ u^2 on the outer halves; interior pieces integrate directly.
    Each half is split geometrically toward its turning point, with 80
    Gauss-Legendre nodes per piece.  All nodes are evaluated at once, and
    every value is bit-identical to evaluating the nodes one at a time with
    Phi, _psi_roots and math.exp and summing in node order.
    """
    terms = star.terms()
    mu = star.mu
    qm = 0.5 * (q_minus + q_plus)
    cuts = [np.concatenate(([0.0], umax * 2.0 ** np.arange(1 - n_segments, 0.0),
                            [umax]))
            for umax in (math.sqrt(abs(qm - q_minus)), math.sqrt(abs(qm - q_plus)))]
    lo = np.concatenate([c[:-1] for c in cuts])[:, None]
    hi = np.concatenate([c[1:] for c in cuts])[:, None]
    q_end = np.repeat([q_minus, q_plus], n_segments)[:, None]
    sgn = np.repeat([1.0, -1.0], n_segments)[:, None]
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = mid + rad * _GL_NODES
    q = (q_end + sgn * u * u).ravel()
    jac = (_GL_WEIGHTS * rad * 2.0 * u).ravel()

    # one dot product per row, stacked: a matrix-vector product sums in
    # another order
    E_terms = terms._exponentials(q)
    phi = np.matmul(E_terms[:, None, :], terms.c[:, None])[:, 0, 0] - terms.slope * q
    p_up, p_dn = _psi_roots(mu, E - phi)
    vel_up = libm_exp(p_up) - mu
    vel_dn = mu - libm_exp(p_dn)
    # roundoff can place a node a hair outside the well (NaN roots fail too)
    keep = (vel_up > 0.0) & (vel_dn > 0.0)
    dt = np.column_stack((jac[keep] / vel_up[keep], jac[keep] / vel_dn[keep]))
    return _OrbitNodes(period=float(_running_sum(dt[:, 0] + dt[:, 1])),
                      q=np.repeat(q[keep], 2),
                      p=np.column_stack((p_up[keep], p_dn[keep])).ravel(),
                      dt=dt.ravel(), dropped=int(keep.size - np.count_nonzero(keep)))


def period(star, E, q_ref=None, q_window=None, rtol=1e-6):
    """Period of the periodic orbit at energy E via two-branch quadrature.

    Both momentum branches contribute: dq/dt changes sign over a closed orbit,
    so T = int [ (e^{p_up} - mu)^{-1} + (mu - e^{p_dn})^{-1} ] dq between the
    turning points.  The estimate is refined until two segment resolutions
    agree to rtol.
    """
    orbit = classify_orbit(star, E, q_ref=q_ref, q_window=q_window,
                           with_period=False)
    if orbit.kind != "periodic":
        raise ValueError(f"orbit at E = {E:g} is {orbit.kind}, not periodic")
    t_prev = _orbit_quadrature(star, E, orbit.q_minus, orbit.q_plus,
                               n_segments=6).period
    for n_seg in (8, 12, 18, 28):
        t_cur = _orbit_quadrature(star, E, orbit.q_minus, orbit.q_plus,
                                  n_segments=n_seg).period
        if abs(t_cur - t_prev) <= rtol * abs(t_cur):
            return t_cur
        t_prev = t_cur
    return t_prev


@dataclass(frozen=True)
class PersistenceVerdict:
    passed: bool
    rule: str  # "PI" | "PII" | "PIII" | "fails"
    i_plus: int = None
    i_minus: int = None
    tied: bool = False

    def __bool__(self):
        return self.passed


def persistence_criteria(star):
    """Coercivity-based persistence rules for a star.

    PI  (all a > 0): b > 0 at the largest a and rbar > 0.
    PII (all a < 0): b < 0 at the most negative a and rbar < 0.
    PIII (mixed):    b > 0 at the largest a and b < 0 at the most negative a.

    Argmax ties break to the lowest index and are flagged.
    """
    a, b = star.a, star.b
    if np.all(a > 0):
        i_plus = int(np.argmax(a))
        tied = int(np.sum(a == a[i_plus])) > 1
        ok = b[i_plus] > 0 and star.rbar > 0
        return PersistenceVerdict(passed=bool(ok), rule="PI" if ok else "fails",
                                  i_plus=i_plus, tied=tied)
    if np.all(a < 0):
        i_minus = int(np.argmax(-a))
        tied = int(np.sum(a == a[i_minus])) > 1
        ok = b[i_minus] < 0 and star.rbar < 0
        return PersistenceVerdict(passed=bool(ok), rule="PII" if ok else "fails",
                                  i_minus=i_minus, tied=tied)
    i_plus = int(np.argmax(a))
    i_minus = int(np.argmin(a))
    tied = int(np.sum(a == a[i_plus])) > 1 or int(np.sum(a == a[i_minus])) > 1
    ok = b[i_plus] > 0 and b[i_minus] < 0
    return PersistenceVerdict(passed=bool(ok), rule="PIII" if ok else "fails",
                              i_plus=i_plus, i_minus=i_minus, tied=tied)


def domino_check(star):
    """Indices whose removal alone breaks persistence (keystone species)."""
    base = persistence_criteria(star)
    if base.rule not in ("PI", "PIII"):
        raise ValueError("domino check applies to stars passing PI or PIII")
    keystones = []
    for j in range(star.n_species):
        if star.n_species == 1:
            keystones.append(j)
            continue
        keep = np.arange(star.n_species) != j
        reduced = StarSystem(a=star.a[keep], b=star.b[keep], rbar=star.rbar,
                             mu=star.mu, C=star.C[keep])
        if not persistence_criteria(reduced).passed:
            keystones.append(j)
    return keystones
