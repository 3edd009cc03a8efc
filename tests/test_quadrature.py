"""The array orbit quadrature against the scalar loop it replaced.

The scalar code below is the reference: one scipy brentq pair per node,
Phi evaluated one position at a time, and plain `+=` sums.  The array path
must reproduce every value bit for bit (==), not within a tolerance.
"""

import dataclasses
import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

import hamlv
from hamlv.averaging import (AveragedState, CoefficientPath, SlowEnvironment,
                             _averaged_terms, evolve_averaged, orbit_averages)
from hamlv.star import (EnergyBelowWellError, StarSystem, _GL_NODES,
                        _GL_WEIGHTS, _MAXITER, _brent_steps, _brent_tail, _div,
                        _orbit_quadrature, _psi_roots, analyze_potential,
                        classify_orbit, period)

UNIT = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)
TWO_SPECIES = StarSystem(a=[1.0, 1.0], b=[0.6, 0.4], rbar=1.0, mu=1.0)
DOUBLE_WELL = StarSystem(a=[2.0, -2.0, 1.0, -1.0],
                         b=[8.0, -8.0, -20.0, 20.0], rbar=0.0, mu=1.0)


# ------------------------------------------------------- scalar reference

def scalar_psi_roots(mu, w):
    pmin = math.log(mu)
    wmin = mu * (1.0 - pmin)
    if w < wmin:
        raise ValueError("kinetic level below min Psi")
    if w == wmin:
        return pmin, pmin

    def f(p):
        return math.exp(p) - mu * p - w

    hi = pmin + 1.0
    while f(hi) < 0:
        hi = pmin + 2.0 * (hi - pmin)
    p_up = brentq(f, pmin, hi, xtol=1e-15, rtol=8.9e-16)
    lo = pmin - 1.0
    while f(lo) < 0:
        lo = pmin - 2.0 * (pmin - lo)
    p_dn = brentq(f, lo, pmin, xtol=1e-15, rtol=8.9e-16)
    return p_up, p_dn


def scalar_quadrature(star, E, q_minus, q_plus, n_segments=8):
    """(period, [(q, p, dt), ...], dropped) from the node-by-node loop."""
    terms = star.terms()
    mu = star.mu
    qm = 0.5 * (q_minus + q_plus)
    pieces = []
    for q_end, sgn in ((q_minus, +1), (q_plus, -1)):
        umax = math.sqrt(abs(qm - q_end))
        cuts = np.concatenate(([0.0], umax * 2.0 ** np.arange(1 - n_segments, 0.0),
                               [umax]))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            pieces.append((q_end, sgn, lo, hi))
    nodes = []
    period_sum = 0.0
    dropped = 0
    for q_end, sgn, lo, hi in pieces:
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for xi, wgt in zip(_GL_NODES, _GL_WEIGHTS):
            u = mid + rad * xi
            q = q_end + sgn * u * u
            w = E - float(terms.phi(q))
            try:
                p_up, p_dn = scalar_psi_roots(mu, w)
            except ValueError:
                dropped += 1
                continue
            vel_up = math.exp(p_up) - mu
            vel_dn = mu - math.exp(p_dn)
            if vel_up <= 0.0 or vel_dn <= 0.0:
                dropped += 1
                continue
            jac = wgt * rad * 2.0 * u
            dt_up = jac / vel_up
            dt_dn = jac / vel_dn
            nodes.append((q, p_up, dt_up))
            nodes.append((q, p_dn, dt_dn))
            period_sum += dt_up + dt_dn
    return period_sum, nodes, dropped


def scalar_period(star, E, q_ref, rtol=1e-6):
    orbit = classify_orbit(star, E, q_ref=q_ref)
    t_prev = scalar_quadrature(star, E, orbit.q_minus, orbit.q_plus, 6)[0]
    for n_seg in (8, 12, 18, 28):
        t_cur = scalar_quadrature(star, E, orbit.q_minus, orbit.q_plus, n_seg)[0]
        if abs(t_cur - t_prev) <= rtol * abs(t_cur):
            return t_cur
        t_prev = t_cur
    return t_prev


def scalar_orbit_averages(star, E, observables, q_ref=None):
    orbit = classify_orbit(star, E, q_ref=q_ref)
    if orbit.kind == "equilibrium":
        q_eq, p_eq = orbit.q_minus, math.log(star.mu)
        return [float(f(q_eq, p_eq)) for f in observables]
    T, nodes, _ = scalar_quadrature(star, E, orbit.q_minus, orbit.q_plus)
    sums = [0.0] * len(observables)
    for q, p, dt in nodes:
        for k, f in enumerate(observables):
            sums[k] += dt * f(q, p)
    return [s / T for s in sums]


def averaged_observables(a, mu):
    """The 2N+2 observables of the averaged right-hand side, as closures."""
    obs = [lambda q, p, ai=ai: math.exp(ai * q) for ai in a]
    obs.append(lambda q, p: q)
    obs.append(lambda q, p: math.exp(p) * (math.exp(p) - mu))
    for ai in a:
        obs.append(lambda q, p, ai=ai: q * math.exp(ai * q))
    return obs


def well_energies(star):
    """Energies across every well: 5% to 90% of the way to its barrier."""
    prof = analyze_potential(star)
    tops = [e.phi for e in prof.maxima()]
    out = []
    for well in prof.minima():
        bottom = well.phi + star.psi_min()
        top = (min(tops) + star.psi_min()) if tops else bottom + 2.0
        out += [(well.q, bottom + (top - bottom) * f) for f in (0.05, 0.4, 0.9)]
    return out


CASES = [(name, star, q_ref, E) for name, star in
         (("unit", UNIT), ("two_species", TWO_SPECIES),
          ("double_well", DOUBLE_WELL))
         for q_ref, E in well_energies(star)]


# ------------------------------------------------------------ kinetic roots

def draw_levels(rng):
    """Random mu in [1e-3, 50] with gaps w - min Psi from 0 to 1e3."""
    for mu in 10.0 ** rng.uniform(-3.0, math.log10(50.0), 25):
        wmin = mu * (1.0 - math.log(mu))
        gaps = np.concatenate((
            [0.0], 10.0 ** rng.uniform(-17.0, 3.0, 60),
            10.0 ** -rng.uniform(10.0, 17.0, 20)))  # near the turning point
        w = wmin + gaps
        # also one ulp above min Psi, and a level below it
        yield mu, np.concatenate((w, [np.nextafter(wmin, np.inf), wmin - 1e-9]))


class TestPsiRoots:
    def test_array_solver_is_bitwise_scipy_brentq(self):
        rng = np.random.default_rng(20)
        n_root = n_fail = 0
        for mu, w in draw_levels(rng):
            up, dn = _psi_roots(mu, w)
            for k, wk in enumerate(w.tolist()):
                try:
                    ref = scalar_psi_roots(mu, wk)
                except ValueError:
                    assert np.isnan(up[k]) and np.isnan(dn[k])
                    n_fail += 1
                    continue
                assert (up[k], dn[k]) == ref, (mu, wk)
                n_root += 1
        assert n_root > 1500 and n_fail >= 25

    def test_scalar_call_is_one_element_case(self):
        for mu, w in ((1.0, 2.0), (0.3, 5.0), (7.0, 7.0 * (1.0 - math.log(7.0)))):
            assert _psi_roots(mu, w) == scalar_psi_roots(mu, w)
            up, dn = _psi_roots(mu, np.array([w]))
            assert (float(up[0]), float(dn[0])) == _psi_roots(mu, w)

    def test_scalar_below_min_raises(self):
        with pytest.raises(ValueError, match="below min Psi"):
            _psi_roots(1.0, 0.5)
        with pytest.raises(ValueError):
            _psi_roots(1.0, float("nan"))

    @pytest.mark.parametrize("cutoff", [0, 10**9], ids=["arrays", "scalar"])
    def test_scalar_tail_moves_no_bit(self, monkeypatch, cutoff):
        # all entries on the array path, or all on the scalar one from the
        # first iteration, against the default hand-over
        levels = list(draw_levels(np.random.default_rng(20)))
        want = [np.array(_psi_roots(mu, w)).tobytes() for mu, w in levels]
        monkeypatch.setattr("hamlv.star._SCALAR_BELOW", cutoff)
        assert [np.array(_psi_roots(mu, w)).tobytes()
                for mu, w in levels] == want

    @pytest.mark.parametrize("cutoff", [0, 10**9], ids=["arrays", "scalar"])
    def test_numpy_scalar_mu(self, monkeypatch, cutoff):
        monkeypatch.setattr("hamlv.star._SCALAR_BELOW", cutoff)
        for mu, w in draw_levels(np.random.default_rng(21)):
            assert (np.array(_psi_roots(np.float64(mu), w)).tobytes()
                    == np.array(_psi_roots(float(mu), w)).tobytes())

    @pytest.mark.parametrize("cutoff", [0, 10**9], ids=["arrays", "scalar"])
    def test_iterations_run_out(self, monkeypatch, cutoff):
        monkeypatch.setattr("hamlv.star._SCALAR_BELOW", cutoff)
        monkeypatch.setattr("hamlv.star._MAXITER", 3)
        with pytest.raises(RuntimeError,
                           match="brentq failed to converge after 3 iterations"):
            _psi_roots(1.0, np.array([2.0, 3.0, 5.0]))

    @pytest.mark.parametrize("cutoff", [0, 10**9], ids=["arrays", "scalar"])
    def test_last_step_of_the_budget(self, monkeypatch, cutoff):
        # x^2 - 0.09 on [0, 1] takes 9 steps; with 3 allowed both paths stop
        # after the third value.  brentq raises ValueError on a NaN value
        # before it reports that its iterations ran out: a NaN third value
        # leaves the root NaN
        monkeypatch.setattr("hamlv.star._MAXITER", 3)
        monkeypatch.setattr("hamlv.star._SCALAR_BELOW", cutoff)
        calls = []

        def f1(x, i):
            calls.append(x)
            return x * x - 0.09 if len(calls) < nan_at else math.nan

        def f(x, i):
            return np.array([f1(v, i) for v in x.tolist()])

        start = tuple(np.array([v])
                      for v in (0.0, 1.0, 0.0, -0.09, 0.91, 0.0, 0.0, 0.0))
        nan_at = 4
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            _brent_steps(f, f1, np.full(1, np.nan), np.arange(1), start)
        assert len(calls) == 3
        calls.clear()
        nan_at = 3
        root = _brent_steps(f, f1, np.full(1, np.nan), np.arange(1), start)
        assert np.isnan(root[0]) and len(calls) == 3

    def test_division_by_zero_as_numpy(self):
        specials = [1.5, -1.5, 0.0, -0.0, math.inf, -math.inf, math.nan]
        for a in specials:
            for b in specials:
                with np.errstate(divide="ignore", invalid="ignore"):
                    want = float(np.float64(a) / np.float64(b))
                got = _div(a, b)
                assert (math.isnan(got) and math.isnan(want)
                        or (got, math.copysign(1.0, got))
                        == (want, math.copysign(1.0, want))), (a, b)

    # (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur) that make a brentq.c
    # denominator zero: xpre == xcur, fcur == fpre, both, and dblk * dpre
    # underflowing to zero
    @pytest.mark.parametrize("state", [
        (1.0, 1.0, 0.0, 2.0, 0.8, -1.0, 1.0, 1.0),
        (2.0, 1.0, 0.0, 0.8, 0.8, -1.0, 1.0, 1.0),
        (1.0, 1.0, 0.0, 0.8, 0.8, -1.0, 1.0, 1.0),
        (2.0, 1.0, 0.0, 2e-200, 1e-200, -1e-200, 1.0, 1.0),
    ], ids=["xpre-is-xcur", "fcur-is-fpre", "both", "underflow"])
    def test_tail_follows_the_array_steps(self, monkeypatch, state):
        # the function after the hand-made state: x^2 - 0.09
        calls = {"arrays": [], "scalar": []}

        def f(x, i):
            calls["arrays"] += x.tolist()
            return x * x - 0.09

        def f1(x, i):
            calls["scalar"].append(x)
            return x * x - 0.09

        monkeypatch.setattr("hamlv.star._SCALAR_BELOW", 0)
        root = _brent_steps(f, f1, np.full(1, np.nan), np.arange(1),
                            tuple(np.array([v]) for v in state))
        tail = _brent_tail(f1, 0, *state, _MAXITER)
        assert calls["scalar"] == calls["arrays"]
        assert math.isnan(tail) and math.isnan(root[0]) or tail == root[0]

    def test_levels_past_exp_overflow(self):
        # from w = e^512 on, a bracket doubling from ln mu passes
        # ln(DBL_MAX), where exp overflows; it has to stop there
        mu, w = 1.0, 1e250
        for p in _psi_roots(mu, w):
            resid = abs(math.exp(p) - mu * p - w)
            slope = abs(math.exp(p) - mu)
            assert resid <= slope * (1e-15 + 8.9e-16 * abs(p)) + 4 * math.ulp(w)
        # at w = 1.79e308 the upper root lies below ln(DBL_MAX), but the
        # lower one, near -w, past the lower cap -DBL_MAX / 2
        up, dn = _psi_roots(mu, np.array([1.79e308]))
        assert up[0] < math.log(sys.float_info.max) and np.isnan(dn[0])
        with pytest.raises(ValueError, match="no root"):
            _psi_roots(mu, 1.79e308)

    @given(mu=st.floats(1e-3, 50.0),
           gap=st.one_of(st.just(0.0), st.floats(1e-17, 1e3)))
    def test_roots_solve_the_kinetic_equation(self, mu, gap):
        pmin = math.log(mu)
        wmin = mu * (1.0 - pmin)
        w = wmin + gap
        if w != wmin and math.exp(pmin) - mu * pmin - w > 0:
            # within roundoff of min Psi there is no sign change to bracket
            with pytest.raises(ValueError):
                _psi_roots(mu, w)
            return
        up, dn = _psi_roots(mu, w)
        assert dn <= pmin <= up
        for p in (up, dn):
            # Brent stops within xtol + rtol |p| of the root; beyond that
            # only the rounding of exp(p) - mu p - w remains
            slope = abs(math.exp(p) - mu)
            scale = max(math.exp(p), mu * abs(p), abs(w))
            resid = abs(math.exp(p) - mu * p - w)
            assert resid <= slope * (1e-15 + 8.9e-16 * abs(p)) + 4 * math.ulp(scale)


# ------------------------------------------------------------ quadrature

class TestQuadratureBitIdentity:
    @pytest.mark.parametrize("name,star,q_ref,E", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_nodes_and_period(self, name, star, q_ref, E):
        orbit = classify_orbit(star, E, q_ref=q_ref)
        for n_seg in (6, 8, 28):
            nodes = _orbit_quadrature(star, E, orbit.q_minus, orbit.q_plus, n_seg)
            T, ref, dropped = scalar_quadrature(star, E, orbit.q_minus,
                                                orbit.q_plus, n_seg)
            assert nodes.period == T
            assert nodes.dropped == dropped
            assert nodes.q.tolist() == [n[0] for n in ref]
            assert nodes.p.tolist() == [n[1] for n in ref]
            assert nodes.dt.tolist() == [n[2] for n in ref]

    @pytest.mark.parametrize("name,star,q_ref,E", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_period_and_classify(self, name, star, q_ref, E):
        # scalar_period refines on classify_orbit's turning points
        assert period(star, E, q_ref=q_ref) == scalar_period(star, E, q_ref)

    # 6 against 8 and 8 against 12 segments differ by more than rtol; 12
    # and 18 agree in the first case, 18 and 28 in the second
    @pytest.mark.parametrize("k,rtol,refined", [(9, 4e-8, [12, 18]),
                                                (8, 7e-9, [12, 18, 28])],
                             ids=["to-18", "to-28"])
    def test_period_refines(self, monkeypatch, k, rtol, refined):
        _, star, q_ref, E = CASES[k]
        counts = []

        def spy(*args):
            counts.append(args[4])
            return _orbit_quadrature(*args)

        monkeypatch.setattr("hamlv.star._orbit_quadrature", spy)
        T = period(star, E, q_ref=q_ref, rtol=rtol)
        assert counts == refined
        monkeypatch.undo()
        assert T == scalar_period(star, E, q_ref, rtol=rtol)

    @pytest.mark.parametrize("name,star,q_ref,E", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_orbit_averages(self, name, star, q_ref, E):
        obs = averaged_observables(star.a, star.mu) + [lambda q, p: q * p]
        assert (orbit_averages(star, E, obs, q_ref=q_ref)
                == scalar_orbit_averages(star, E, obs, q_ref=q_ref))

    def test_degenerate_orbit_averages(self):
        obs = averaged_observables(UNIT.a, UNIT.mu)
        assert orbit_averages(UNIT, 2.0, obs) == scalar_orbit_averages(UNIT, 2.0, obs)

    @pytest.mark.parametrize("star", [UNIT, DOUBLE_WELL], ids=["unit", "double_well"])
    def test_averaged_terms_match_scalar_observables(self, star):
        env = SlowEnvironment(a=CoefficientPath.constant(star.a),
                              b=CoefficientPath.constant(star.b),
                              rbar=CoefficientPath.constant(star.rbar),
                              mu=star.mu, epsilon=0.01, dbar=0.5)
        q_ref, E = well_energies(star)[1]
        terms = _averaged_terms(env, 0.0, E, star.C, q_ref)
        avgs = scalar_orbit_averages(
            star, E, averaged_observables(star.a, env.mu), q_ref=terms["well"].q)
        n = star.n_species
        assert terms["theta"].tolist() == avgs[:n]
        assert terms["q_avg"] == avgs[n]
        assert terms["S1"] == -env.dbar * avgs[n + 1]

    def test_dropped_nodes_are_counted(self):
        # turning points pushed outside the well: the outer nodes have no root
        orbit = classify_orbit(UNIT, 3.0)
        q_minus, q_plus = orbit.q_minus - 1e-3, orbit.q_plus + 1e-3
        nodes = _orbit_quadrature(UNIT, 3.0, q_minus, q_plus)
        T, ref, dropped = scalar_quadrature(UNIT, 3.0, q_minus, q_plus)
        assert dropped > 0
        assert nodes.dropped == dropped
        assert nodes.period == T
        assert nodes.dt.tolist() == [n[2] for n in ref]

    def test_evolve_sums_dropped_nodes(self, monkeypatch):
        # every quadrature reports 3 dropped positions; the barrier event
        # computes no quadrature, so the total is 3 per quadrature made
        calls = []

        def lossy(*args, **kwargs):
            calls.append(args)
            return dataclasses.replace(_orbit_quadrature(*args, **kwargs),
                                       dropped=3)

        monkeypatch.setattr("hamlv.star._orbit_quadrature", lossy)
        env = SlowEnvironment(a=CoefficientPath.constant([1.0]),
                              b=CoefficientPath.constant([1.0]),
                              rbar=CoefficientPath.constant(1.0),
                              mu=1.0, epsilon=0.01, dbar=1.0)
        avg = evolve_averaged(env, AveragedState(tau=0.0, E=3.0, Cbar=[1.0]),
                              0.05)
        assert avg.meta["quadrature_nodes_dropped"] == 3 * len(calls)
        assert len(calls) == avg.meta["nfev"]


# ------------------------------------------------------- one orbit rule

BOTTOMS = [(name, star, well.q, well.phi + star.psi_min(),
            1e-9 * (1.0 + abs(well.phi)))  # the tolerance of classify_orbit
           for name, star in (("unit", UNIT), ("double_well", DOUBLE_WELL))
           for well in analyze_potential(star).minima()]


class TestOneOrbitRule:
    """Averages follow classify_orbit's verdict at the bottom of each well."""

    @pytest.mark.parametrize("k", [0.0, 0.01, 0.5, 2.0])
    @pytest.mark.parametrize("name,star,q_ref,bottom,tol", BOTTOMS,
                             ids=[f"{b[0]}-q{b[2]:+.2f}" for b in BOTTOMS])
    def test_averages_take_the_verdict(self, name, star, q_ref, bottom, tol,
                                       k):
        E = bottom + k * tol
        nodes = []
        orbit_averages(star, E, [lambda q, p: nodes.append(q) or 1.0],
                       q_ref=q_ref)
        kind = classify_orbit(star, E, q_ref=q_ref).kind
        assert kind in ("equilibrium", "periodic")
        assert (len(nodes) == 1) == (kind == "equilibrium")

    @pytest.mark.parametrize("name,star,q_ref,bottom,tol", BOTTOMS,
                             ids=[f"{b[0]}-q{b[2]:+.2f}" for b in BOTTOMS])
    def test_below_the_well_raises(self, name, star, q_ref, bottom, tol):
        with pytest.raises(EnergyBelowWellError):
            orbit_averages(star, bottom - 1e-6, [lambda q, p: 1.0],
                           q_ref=q_ref)

    def test_verdict_runs_no_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("classify_orbit ran a quadrature")

        verdicts = [classify_orbit(star, E, q_ref=q_ref)
                    for _, star, q_ref, E in CASES]
        monkeypatch.setattr("hamlv.star._psi_roots", no_quadrature)
        monkeypatch.setattr("hamlv.star._orbit_quadratures", no_quadrature)
        for (_, star, q_ref, E), ref in zip(CASES, verdicts):
            orbit = classify_orbit(star, E, q_ref=q_ref)
            assert (orbit.kind, orbit.q_minus, orbit.q_plus) == (
                ref.kind, ref.q_minus, ref.q_plus)

    def test_only_star_builds_orbit_nodes(self):
        src = Path(hamlv.__file__).parent
        users = [path.name for path in sorted(src.glob("*.py"))
                 if re.search(r"_orbit_quadrature|_OrbitNodes",
                              path.read_text())]
        assert users == ["star.py"]


# ------------------------------------------------------------ pinned bytes

def orbit_digest(star):
    """sha256 of classify_orbit and period across the wells of a star.

    The period enters twice: the digests were taken when classify_orbit
    also returned an unchecked period, equal to period's at every energy
    here.
    """
    h = hashlib.sha256()
    for q_ref, E in well_energies(star):
        orbit = classify_orbit(star, E, q_ref=q_ref)
        T = period(star, E, q_ref=q_ref)
        h.update(orbit.kind.encode())
        h.update(np.array([orbit.q_minus, orbit.q_plus, T, T]).tobytes())
    return h.hexdigest()


class TestPinnedOrbits:
    """Orbit verdicts and the averaged run keep their bytes: a change to the
    profile, the turning points, the quadrature or the averaged right-hand
    side that moves one bit or one evaluation fails.  The digests hold for
    numpy 2.4 on x86-64 with AVX-512, whose vectorised exp can differ by one
    ulp from other builds."""

    @pytest.mark.parametrize("star, digest", [
        (UNIT,
         "38b572f5d7ba8261077815cbc98f87b842e39d8a513a57ecc9a6f1ed679b8094"),
        # 0.6 e^q + 0.4 e^q: the unit potential split in two, same bits
        (TWO_SPECIES,
         "38b572f5d7ba8261077815cbc98f87b842e39d8a513a57ecc9a6f1ed679b8094"),
        (DOUBLE_WELL,
         "af364d47d3ee0e06ac67f5664136459aa14e790afec704005b029ce4e1f971f5"),
    ], ids=["unit", "two_species", "double_well"])
    def test_classify_and_period_pinned(self, star, digest):
        assert orbit_digest(star) == digest

    def test_unit_averaged_run_pinned(self):
        env = SlowEnvironment(a=CoefficientPath.constant([1.0]),
                              b=CoefficientPath.constant([1.0]),
                              rbar=CoefficientPath.constant(1.0),
                              mu=1.0, epsilon=0.01, dbar=1.0)
        avg = evolve_averaged(env, AveragedState(tau=0.0, E=3.0, Cbar=[1.0]),
                              1.0)
        h = hashlib.sha256()
        for part in (avg.tau, avg.E, avg.Cbar):
            h.update(part.tobytes())
        h.update(str(avg.meta["nfev"]).encode())
        assert h.hexdigest() == (
            "1ef4490cda19cca1ffcae507088c41052407e1bd348a0425e638ae8fdd4e8476")

    def test_burst_averaged_run_pinned(self):
        # the bench's four-species run: the double well tilted by
        # rbar = 1.2 tau, from 0.2 above its bottom in the left well, bursts
        env = SlowEnvironment(a=CoefficientPath.constant(DOUBLE_WELL.a),
                              b=CoefficientPath.constant(DOUBLE_WELL.b),
                              rbar=CoefficientPath.from_callable(
                                  lambda tau: 1.2 * tau, lambda tau: 1.2),
                              mu=1.0, epsilon=0.01, dbar=0.0)
        bottom = (min(e.phi for e in analyze_potential(DOUBLE_WELL).minima())
                  + DOUBLE_WELL.psi_min())
        avg = evolve_averaged(env, AveragedState(tau=0.0, E=bottom + 0.2,
                                                 Cbar=np.ones(4)),
                              3.0, q_well=-0.7)
        h = hashlib.sha256()
        for part in (avg.tau, avg.E, avg.Cbar):
            h.update(part.tobytes())
        h.update(str(avg.meta["nfev"]).encode())
        h.update(" ".join(e.kind for e in avg.events).encode())
        h.update(np.array([e.tau for e in avg.events]).tobytes())
        assert h.hexdigest() == (
            "63acd635ec663c3838eaf6fb89104fdd2a2f1e4da7866e40e597d4229ba6ec44")
