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

from .util import clipped_exp, libm_exp, set_fields


@dataclass(frozen=True)
class PotentialTerms:
    """Exponential-sum potential Phi(q) = sum_k c_k exp(a_k q) - slope * q."""

    c: np.ndarray
    a: np.ndarray
    slope: float = 0.0

    def __post_init__(self):
        set_fields(self, 1, c=self.c, a=self.a)
        set_fields(self, 0, slope=self.slope)
        if self.c.shape != self.a.shape:
            raise ValueError("coefficients and exponents must have equal length")

    def merged(self):
        """[(exponent, coefficient)] by ascending exponent, equal exponents
        summed in input order and zero sums dropped.  Decisions on the shape
        of Phi read this; phi, dphi, d2phi and scalar_forces keep the terms."""
        table = {}
        for a, c in zip(self.a.tolist(), self.c.tolist()):
            table[a] = table.get(a, 0.0) + c
        return sorted((a, c) for a, c in table.items() if c != 0.0)

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


def _dominant(table, direction):
    """The (exponent, coefficient) of a merged table
    (``PotentialTerms.merged``) that dominates Phi at q -> +inf
    (direction=+1) or -inf (-1); None when every exponential decays there,
    so that the linear term decides."""
    if table:
        a, c = table[-1] if direction > 0 else table[0]
        if a * direction > 0:
            return a, c
    return None


def _limit_sign(table, slope, direction):
    """Sign of Phi at q -> +inf (direction=+1) or -inf (-1) from its merged
    table and slope; 0 if bounded.  The dominant merged exponent decides;
    when every exponential decays the linear term does, and a flat tail
    gives 0."""
    term = _dominant(table, direction)
    if term is not None:
        return 1 if term[1] > 0 else -1
    if slope != 0.0:
        return -1 if slope * direction > 0 else 1
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
        set_fields(self, 1, a=self.a, b=self.b)
        set_fields(self, 0, rbar=self.rbar, mu=self.mu)
        a, b, mu = self.a, self.b, self.mu
        set_fields(self, 1, C=np.ones_like(a) if self.C is None else self.C,
                   r=a * mu if self.r is None else self.r)
        for name, arr in (("a", a), ("b", b)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape "
                                 f"{arr.shape}")
        if a.shape != b.shape:
            raise ValueError("a and b must have equal length")
        if self.r.shape != a.shape:
            raise ValueError(f"r must have one entry per species, got shape "
                             f"{self.r.shape}")
        if np.any(a == 0):
            raise ValueError("coefficients a must be nonzero")
        if mu <= 0:
            raise ValueError("mu must be positive")
        if self.C.shape != a.shape or np.any(self.C <= 0):
            raise ValueError("C must be positive, one entry per species")

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

    def frequency(self, q):
        """Small-oscillation frequency sqrt(mu Phi''(q)) about a well bottom q."""
        return math.sqrt(self.mu * float(self.terms().d2phi(q)))

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


def _sign_changes(table, slope):
    """Sign changes of the coefficients of Phi', taken in order of exponent.

    Phi'(q) = sum_k c_k a_k exp(a_k q) - slope over the merged terms (the
    table of ``PotentialTerms.merged``), with the -slope term at exponent
    0.  By Laguerre's rule of signs for exponential sums (Polya & Szego,
    Problems and Theorems in Analysis II) the real zeros of Phi', counted
    with multiplicity, number at most this count and differ from it by an
    even number.
    """
    coeffs = {a: c * a for a, c in table}
    coeffs[0.0] = -slope
    signs = [v > 0.0 for _, v in sorted(coeffs.items()) if v != 0.0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


class _TermRows:
    """The terms of a block of exp-sums with equal term counts, one row a
    sum, evaluated at one point per entry: the profile search's roots, or
    the nodes of an orbit quadrature, all rows of one sum.

    Entry e is its sum's ``PotentialTerms`` method at q[e], with the same
    bits: the exponentials of the row are clipped as in ``clipped_exp`` and
    reduced against the coefficient row by a stacked row dot,
    ``np.matmul`` of (m, 1, k) by (m, k, 1), which sums each row as the
    1-D product of a scalar call does.  A grid of many points per sum is a
    matrix-vector product, which rounds differently."""

    def __init__(self, block):
        self.a = np.array([terms.a for terms in block])
        c = np.array([terms.c for terms in block])
        self.slope = np.array([terms.slope for terms in block])
        self.coeffs = {"phi": c, "dphi": c * self.a, "d2phi": c * self.a ** 2}

    def at(self, q, rows, *names):
        """The named derivatives (``"phi"``, ``"dphi"``, ``"d2phi"``) of
        sums rows at the points q."""
        exps = clipped_exp(q[:, None] * self.a[rows])[:, None, :]
        slope = self.slope[rows]
        out = []
        for name in names:
            dot = np.matmul(exps, self.coeffs[name][rows][:, :, None])[:, 0, 0]
            out.append(dot - slope * q if name == "phi"
                       else dot - slope if name == "dphi" else dot)
        return out


def analyze_potential(star, q_window=None, n_grid=2001):
    """Locate the extrema of Phi and settle coercivity on both sides.

    star is a StarSystem, its PotentialTerms, or a list of PotentialTerms (a
    block), which gives the list of their profiles; one star is a block of
    one.  Sign changes of Phi' on a refined grid are bracketed and bisected
    to machine precision, then polished with one Newton step.  Coercivity
    comes from the dominant exponent (the -rbar q term decides when every
    exponential decays).  A window_warning is raised, not an error, when an
    extremum sits against the window edge, or when the extrema found do not
    fit the sign changes of the coefficients of Phi' (Laguerre's rule of
    signs): more extrema than sign changes, or a count of different parity,
    which means an extremum outside the window or one the grid did not
    resolve.

    Each sum's grid is scanned on its own; the brackets of the whole block
    are then bisected in one ``_brentq`` pass, and the Newton polish and the
    tests of the extrema run on the block's roots together, sums of equal
    term count sharing one ``_TermRows``.  A bracket whose ends, evaluated
    as a scalar call would, show no sign change (the grid's product rounded
    Phi' to the other sign of zero at one end) takes the end nearer zero as
    an exact zero on the grid.
    """
    if not isinstance(star, list):
        terms = star.terms() if hasattr(star, "terms") else star
        return analyze_potential([terms], q_window, n_grid)[0]
    profiles = [None] * len(star)
    by_count = {}
    for s, terms in enumerate(star):
        by_count.setdefault(terms.a.size, []).append(s)
    for members in by_count.values():
        found = _profile_block([star[s] for s in members], q_window, n_grid)
        for s, profile in zip(members, found):
            profiles[s] = profile
    return profiles


def _profile_block(block, q_window, n_grid):
    """``analyze_potential`` of a block of sums with equal term counts."""
    rows = _TermRows(block)
    windows, scales, owner, xa, xb, reach = [], [], [], [], [], []
    for s, terms in enumerate(block):
        if q_window is None:
            amax = float(np.max(np.abs(terms.a))) if np.any(terms.a) else 1.0
            lo, hi = -50.0 / amax, 50.0 / amax
        else:
            lo, hi = float(q_window[0]), float(q_window[1])
        if not lo < hi:
            raise ValueError("window must be a nondegenerate interval")
        windows.append((lo, hi))
        grid = np.linspace(lo, hi, n_grid)
        dvals = terms.dphi(grid)
        scales.append(float(np.max(np.abs(dvals))) or 1.0)
        sign = np.sign(dvals)
        # grid points where Phi' vanishes or changes sign before the next
        # point, in ascending order; an exact zero is a bracket of one point
        at = np.flatnonzero((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0))
        if sign[-1] == 0.0:
            at = np.append(at, n_grid - 1)
        owner += [s] * at.size
        xa += grid[at].tolist()
        xb += grid[at + (sign[at] != 0.0)].tolist()
        reach += [(hi - lo) / n_grid] * at.size
    owner = np.array(owner, dtype=np.intp)
    roots, xb = np.array(xa), np.array(xb)
    brackets = np.flatnonzero(roots != xb)
    if brackets.size:
        own, xa, xb = owner[brackets], roots[brackets], xb[brackets]
        fa, fb = (rows.at(x, own, "dphi")[0] for x in (xa, xb))
        solved = _brentq(lambda x, i: rows.at(x, own[i], "dphi")[0],
                         lambda x, i: float(block[own[i]].dphi(x)),
                         xa, xb, fa, fb)
        roots[brackets] = np.where(
            np.isnan(solved), np.where(np.abs(fb) < np.abs(fa), xb, xa),
            solved)
    # one Newton polish, guarded against a flat second derivative
    dphi, curv = rows.at(roots, owner, "dphi", "d2phi")
    with np.errstate(divide="ignore", invalid="ignore"):
        step = dphi / curv
    q = np.where((curv != 0.0) & (np.abs(step) < reach), roots - step, roots)
    extrema = [[] for _ in block]
    for s, q, dphi, curv, phi in zip(
            owner.tolist(), q.tolist(),
            *(v.tolist() for v in rows.at(q, owner, "dphi", "d2phi", "phi"))):
        kept = extrema[s]
        if kept and abs(q - kept[-1][0]) <= 1e-12 * (1.0 + abs(q)):
            continue
        if abs(dphi) > 1e-12 * scales[s] * 1e3:
            continue  # spurious bracket from a near-flat stretch
        kept.append((q, phi, "min" if curv > 0 else "max"))
    return [_profile(terms, found, window)
            for terms, found, window in zip(block, extrema, windows)]


def _profile(terms, extrema, window):
    """The PotentialProfile of a sum from its polished extrema in order."""
    # enforce alternation: merge duplicate kinds produced by degenerate curvature
    cleaned = []
    for q, val, kind in extrema:
        if cleaned and cleaned[-1][2] == kind:
            keep = (q, val, kind) if (kind == "min") == (val < cleaned[-1][1]) else cleaned[-1]
            cleaned[-1] = keep
            continue
        cleaned.append((q, val, kind))
    ext = tuple(Extremum(q=q, phi=val, kind=kind) for q, val, kind in cleaned)
    lo, hi = window
    table = terms.merged()
    bound = _sign_changes(table, terms.slope)
    warn = (bool(ext) and (ext[0].q - lo < (hi - lo) * 1e-3
                           or hi - ext[-1].q < (hi - lo) * 1e-3)
            or len(ext) > bound or (bound - len(ext)) % 2 == 1)
    return PotentialProfile(
        extrema=ext,
        coercive_left=_limit_sign(table, terms.slope, -1) > 0,
        coercive_right=_limit_sign(table, terms.slope, +1) > 0,
        window=window,
        window_warning=bool(warn),
    )


# analyze_potential under the name bench/workloads.py and
# tests/test_acceptance.py import; both stay fixed as references.
_profile_of_terms = analyze_potential


@dataclass(frozen=True)
class Orbit:
    """Classified level set of the star Hamiltonian at energy E; no period."""

    kind: str  # equilibrium | periodic | soliton | kink | unbounded
    energy: float
    level: float
    q_minus: float = None
    q_plus: float = None
    q_plateau: float = None
    direction: str = None

    def to_dict(self):
        out = {"class": self.kind, "E": self.energy}
        if self.kind == "periodic":
            out.update(q_minus=self.q_minus, q_plus=self.q_plus)
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


def classify_orbit(star, E, q_ref=None):
    """Classify the orbit at energy E in the well containing q_ref.

    The turning points solve Phi(q) = E - mu(1 - ln mu), to within
    tol = 1e-9 (1 + |E - mu(1 - ln mu)|).  Within tol of the well bottom
    the orbit is the equilibrium, and below that EnergyBelowWellError is
    raised.  Two simple roots bound a periodic orbit; a root within tol of
    a local maximum gives a soliton plateau; two such ends give a kink; an
    open side gives an unbounded escape.  q_ref defaults to the deepest
    minimum of the profile.  A non-finite E raises ValueError.  No
    quadrature runs: the period of a periodic orbit is period(star, E).
    """
    return _classify(star, E, analyze_potential(star), q_ref)


def _classify(star, E, profile, q_ref):
    """classify_orbit on a profile the caller has."""
    if not math.isfinite(E):
        raise ValueError(f"E must be finite, got {E}")
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
    return Orbit(kind="periodic", energy=E, level=level,
                 q_minus=q_minus, q_plus=q_plus)


def _periodic(orbit):
    """orbit if it is periodic; else ValueError naming the kind it is."""
    if orbit.kind != "periodic":
        raise ValueError(f"orbit at E = {orbit.energy:g} is {orbit.kind}, "
                         "not periodic")
    return orbit


_XTOL, _RTOL, _MAXITER = 1e-15, 8.9e-16, 100
# below this many live entries _brentq goes on one entry at a time: each
# array iteration costs about 40 numpy calls whatever its size.  Timing the
# 25 period solves of the bench sweep (medians of 15, ms): 0 145.3, 16 134.4,
# 32 138.1, 64 128.7, 128 128.6, 256 137.0
_SCALAR_BELOW = 64


def _brentq(f, f1, xa, xb, fa, fb):
    """Roots of f in the brackets [xa, xb], as scipy's brentq finds them.

    A step-for-step port of scipy's brentq.c (Brent, *Algorithms for
    Minimization without Derivatives*, 1973) over arrays: the same delta,
    the same choice between interpolation, extrapolation and bisection, and
    the same errors, so each root is bit-identical to
    brentq(f, xa, xb, xtol=1e-15, rtol=8.9e-16) when f is.  f(x, i)
    evaluates the functions of entries i at x, and f1(x, i) the function of
    one entry i at a float x with the same bits.  The root is NaN where
    brentq raises ValueError (a NaN value, no sign change); RuntimeError is
    raised where it would fail to converge.  Converged entries leave the
    working arrays each iteration.  Once fewer than _SCALAR_BELOW are live,
    each goes on in _brent_tail with the iterations left.  fa and fb are
    f(xa) and f(xb), which the caller has from bracketing the roots.
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
    zeros = np.zeros(idx.size)
    return _brent_steps(f, f1, root, idx,
                        (xpre, xcur, zeros, fpre, fcur, zeros, zeros, zeros))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _brent_steps(f, f1, root, idx, state):
    """The brentq.c iterations of _brentq from the state of entries idx.

    state is (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur), one array
    each, at the top of the first iteration; roots land in root[idx].
    """
    xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
    for it in range(_MAXITER):
        if idx.size < _SCALAR_BELOW:
            for i, *entry in zip(idx.tolist(), *(v.tolist() for v in (
                    xpre, xcur, xblk, fpre, fcur, fblk, spre, scur))):
                root[i] = _brent_tail(f1, i, *entry, _MAXITER - it)
            return root
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


def _div(a, b):
    """a / b for floats, with numpy's IEEE inf or NaN where b is zero."""
    if b:
        return a / b
    if a != a or not a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _brent_tail(f1, i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, budget):
    """One entry of _brent_steps in plain floats, with budget iterations left.

    The same brentq.c steps in the same order of operations, so the root has
    the same bits; a zero denominator gives inf or NaN as in numpy.
    """
    for _ in range(budget):
        if fcur != fcur:
            return math.nan
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            cap_a, cap_b = abs(spre), 3 * abs(sbis) - delta
            short = 2 * abs(stry) < (cap_a if cap_a < cap_b else cap_b)
        if short:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f1(xcur, i)
    if fcur != fcur:
        return math.nan
    raise RuntimeError(f"brentq failed to converge after {_MAXITER} iterations")


def _psi_roots(mu, w):
    """Both solutions (p_up, p_dn) of exp(p) - mu p = w around the minimum at ln mu.

    For an array w the roots are arrays, NaN where w lies below min Psi or
    roundoff leaves no sign change in the bracket.  A scalar w gives floats
    and raises ValueError there.  Each bracket starts one unit from ln mu
    and doubles until it holds the root; both branches are solved in one
    _brentq pass, with exp from the C library.  A bracket stops where
    exp(p) - mu p would overflow; a level beyond it has no root in doubles.
    """
    mu = float(mu)
    pmin = math.log(mu)
    wmin = mu * (1.0 - pmin)
    top = np.finfo(float).max
    caps = (-top / (2.0 * max(mu, 1.0)), math.log(top))
    ws = np.atleast_1d(np.asarray(w, dtype=float))
    roots = np.full((2, ws.size), np.nan)
    roots[:, ws == wmin] = pmin
    todo = np.flatnonzero(ws > wmin)
    if todo.size:
        level = np.tile(ws[todo], 2)
        levels = level.tolist()

        def f(p, i):
            return libm_exp(p) - mu * p - level[i]

        def f1(p, i):
            return math.exp(p) - mu * p - levels[i]

        edge = pmin + np.repeat([1.0, -1.0], todo.size)
        f_edge = np.empty(edge.size)
        grow = np.arange(edge.size)
        while grow.size:
            f_edge[grow] = f(edge[grow], grow)
            grow = grow[(f_edge[grow] < 0) & (caps[0] < edge[grow])
                        & (edge[grow] < caps[1])]
            edge[grow] = np.clip(pmin + 2.0 * (edge[grow] - pmin), *caps)
        start = np.full(edge.size, pmin)
        f_start = (math.exp(pmin) - mu * pmin) - level
        up = np.arange(edge.size) < todo.size
        roots[:, todo] = _brentq(
            f, f1, np.where(up, start, edge), np.where(up, edge, start),
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
    branches interleaved at each position q.  dt None marks the equilibrium
    at a well bottom: the single point (q[0], p[0]), with no period.  dropped
    counts positions left out because roundoff put them outside the well.
    """

    q: np.ndarray
    p: np.ndarray
    dt: np.ndarray = None
    dropped: int = 0

    @property
    def period(self):
        """Sum of dt, up plus down at each position; period() checks it."""
        return float(_running_sum(self.dt[0::2] + self.dt[1::2]))

    def averages(self, values):
        """Time averages sum(dt f) / T of node values, one row per observable."""
        values = np.asarray(values, dtype=float)
        if self.dt is None:
            return values[:, 0].tolist()
        return (_running_sum(values * self.dt) / self.period).tolist()


_GL_NODES, _GL_WEIGHTS = leggauss(80)


def _orbit_quadratures(star, E, q_minus, q_plus, counts):
    """_OrbitNodes of one closed orbit for each segment count in counts.

    The turning-point singularity is removed with the substitution
    q = q_end -/+ u^2 on the outer halves; interior pieces integrate directly.
    Each half is split geometrically toward its turning point, with 80
    Gauss-Legendre nodes per piece.  The cuts umax 2^-k are the same floats
    for every count, so the union of the pieces of all counts is evaluated
    at once, in one _psi_roots call; each count then takes its own pieces in
    its own order.  Every value is bit-identical to evaluating the nodes one
    at a time with Phi, _psi_roots and math.exp and summing in node order.
    """
    terms = star.terms()
    mu = star.mu
    qm = 0.5 * (q_minus + q_plus)
    umaxes = (math.sqrt(abs(qm - q_minus)), math.sqrt(abs(qm - q_plus)))
    pieces = {}  # (half, lo, hi) -> row of the union
    rows = []
    for n in counts:
        row = []
        for half, umax in enumerate(umaxes):
            cuts = [0.0, *(umax * 2.0 ** np.arange(1 - n, 0.0)).tolist(), umax]
            row += [pieces.setdefault(piece, len(pieces))
                    for piece in zip([half] * n, cuts[:-1], cuts[1:])]
        rows.append(row)
    half, lo, hi = (np.array(v)[:, None] for v in zip(*pieces))
    q_end = np.where(half == 0, q_minus, q_plus)
    sgn = np.where(half == 0, 1.0, -1.0)
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = mid + rad * _GL_NODES
    q = (q_end + sgn * u * u).ravel()
    jac = (_GL_WEIGHTS * rad * 2.0 * u).ravel()

    phi, = _TermRows([terms]).at(q, np.zeros(q.size, dtype=np.intp), "phi")
    p_up, p_dn = _psi_roots(mu, E - phi)
    vel_up = libm_exp(p_up) - mu
    vel_dn = mu - libm_exp(p_dn)
    nodes = np.stack((q, jac, p_up, p_dn, vel_up, vel_dn)).reshape(
        6, len(pieces), -1)
    out = []
    for row in rows:
        q, jac, p_up, p_dn, vel_up, vel_dn = nodes[:, row].reshape(6, -1)
        # roundoff can place a node a hair outside the well (NaN roots fail too)
        keep = (vel_up > 0.0) & (vel_dn > 0.0)
        dt = np.column_stack((jac[keep] / vel_up[keep], jac[keep] / vel_dn[keep]))
        out.append(_OrbitNodes(
            q=np.repeat(q[keep], 2),
            p=np.column_stack((p_up[keep], p_dn[keep])).ravel(),
            dt=dt.ravel(), dropped=int(keep.size - np.count_nonzero(keep))))
    return out


def _orbit_nodes(star, orbit):
    """Averaging nodes of an orbit _classify gave, as _OrbitNodes.

    The equilibrium is one node at the well bottom, with no period, so its
    averages are point values; a periodic orbit gets the 8-segment
    quadrature, whose time weights give the averages.  Any other kind raises
    _periodic's ValueError.
    """
    if orbit.kind == "equilibrium":
        return _OrbitNodes(q=np.array([orbit.q_minus]),
                           p=np.array([math.log(star.mu)]))
    _periodic(orbit)
    return _orbit_quadratures(star, orbit.energy, orbit.q_minus, orbit.q_plus,
                              (8,))[0]


def period(star, E, q_ref=None, rtol=1e-6):
    """Period of the periodic orbit at energy E via two-branch quadrature.

    Both momentum branches contribute: dq/dt changes sign over a closed orbit,
    so T = int [ (e^{p_up} - mu)^{-1} + (mu - e^{p_dn})^{-1} ] dq between the
    turning points of classify_orbit.  The one period of an orbit: 8
    segments are checked against 6, both from one node evaluation, and
    refined through 12, 18 and 28 until two resolutions agree to rtol.
    RuntimeError is raised, naming E and the gap, when 28 and 18 segments
    still do not; a non-periodic orbit raises ValueError.
    """
    orbit = _periodic(_classify(star, E, analyze_potential(star), q_ref))
    ends = (star, E, orbit.q_minus, orbit.q_plus)
    t_prev, t_cur = (n.period for n in _orbit_quadratures(*ends, (6, 8)))
    refine = iter((12, 18, 28))
    while not abs(t_cur - t_prev) <= rtol * abs(t_cur):
        n_seg = next(refine, None)
        if n_seg is None:
            raise RuntimeError(
                f"period at E = {E!r} did not converge to rtol = {rtol:g}: "
                f"28 segments give {t_cur!r} and 18 give {t_prev!r}, a gap "
                f"of {abs(t_cur - t_prev):.3g}")
        t_prev, t_cur = t_cur, _orbit_quadratures(*ends, (n_seg,))[0].period
    return t_cur


@dataclass(frozen=True)
class PersistenceVerdict:
    passed: bool
    rule: str  # "PI" | "PII" | "PIII": the sign pattern of a
    i_plus: int = None
    i_minus: int = None
    tied: bool = False

    def __bool__(self):
        return self.passed


def persistence_criteria(star):
    """Persistence of a star: Phi -> +inf on both sides (rules PI to PIII).

    rule names the sign pattern of a: PI (all a > 0), PII (all a < 0) or
    PIII (mixed).  The paper's rules ask for b > 0 at the largest a (PI,
    PIII), b < 0 at the most negative a (PII, PIII) and the sign of rbar
    where no exponential grows (PI, PII): that is Phi coercive on both
    sides, and passed is read off the merged terms (``_limit_sign``), so that
    couplings which cancel at a shared exponent, or a species with b = 0,
    leave the decision to the next exponent.  i_plus and i_minus are the
    first species with b != 0 at the merged exponent that decides the right
    and the left side, None where the -rbar q term decides; tied says that
    more than one such species sits at either.
    """
    terms = star.terms()
    table = terms.merged()
    a = star.a
    rule = "PI" if np.all(a > 0) else ("PII" if np.all(a < 0) else "PIII")
    at = []
    for direction in (+1, -1):
        term = _dominant(table, direction)
        at.append([] if term is None else
                  np.flatnonzero((a == term[0]) & (star.b != 0)).tolist())
    passed = (_limit_sign(table, terms.slope, +1) > 0
              and _limit_sign(table, terms.slope, -1) > 0)
    return PersistenceVerdict(
        passed=passed, rule=rule,
        i_plus=at[0][0] if at[0] else None,
        i_minus=at[1][0] if at[1] else None,
        tied=len(at[0]) > 1 or len(at[1]) > 1)


def domino_check(star):
    """Indices whose removal alone breaks persistence (keystone species)."""
    base = persistence_criteria(star)
    if not base.passed or base.rule == "PII":
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
