"""The array sign scan of the profile search against the old scalar loop.

The scalar code below is the reference: one numpy-scalar comparison per grid
interval, then the same brentq bracket or exact-zero append.  The array scan
must give the same extrema bit for bit (==), not within a tolerance.  The
second half checks the window warning from Laguerre's rule of signs.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from hamlv.ensemble import draw_mixed_star_terms
from hamlv.star import (PotentialTerms, StarSystem, _profile_of_terms,
                        _sign_changes, analyze_potential, classify_orbit)
from hamlv.util import trial_rngs

UNIT = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)
TWO_SPECIES = StarSystem(a=[1.0, 1.0], b=[0.6, 0.4], rbar=1.0, mu=1.0)
DOUBLE_WELL = StarSystem(a=[2.0, -2.0, 1.0, -1.0],
                         b=[8.0, -8.0, -20.0, 20.0], rbar=0.0, mu=1.0)
# rbar = sum(b), so Phi'(0) = 0: q = 0 is the middle point of the grid,
# where the grid's product rounds Phi' to -8.9e-16 and a scalar call to
# +8.9e-16
ROOT_ON_GRID = StarSystem(
    a=[0.6892132363451832, 1.237444522393971, 1.6498075117355366,
       0.6809448521022694, 0.7097079018250396, 1.6840678591134866,
       1.5427070843173807, 0.42826654704320233],
    b=[1.2288885085888996, 1.2637515520893936, 0.34895609699394825,
       0.9777271980015749, 0.3754410705497331, 0.4408897968393155,
       0.7916080574600988, 0.8311080391311317],
    rbar=6.258370319654095, mu=1.0)


# ------------------------------------------------------- scalar reference

def scalar_extrema(terms, q_window=None, n_grid=2001):
    """(extrema as (q, phi, kind) tuples, window) from the grid loop."""
    if q_window is None:
        amax = float(np.max(np.abs(terms.a))) if np.any(terms.a) else 1.0
        q_window = (-50.0 / amax, 50.0 / amax)
    lo, hi = float(q_window[0]), float(q_window[1])
    grid = np.linspace(lo, hi, n_grid)
    dvals = terms.dphi(grid)
    scale = float(np.max(np.abs(dvals))) or 1.0
    roots = []
    sign = np.sign(dvals)
    for i in range(n_grid - 1):
        s0, s1 = sign[i], sign[i + 1]
        if s0 == 0.0:
            roots.append(grid[i])
        elif s0 * s1 < 0:
            roots.append(brentq(terms.dphi, grid[i], grid[i + 1],
                                xtol=1e-15, rtol=8.9e-16))
    if sign[-1] == 0.0:
        roots.append(grid[-1])
    extrema = []
    for q in sorted(roots):
        curv = float(terms.d2phi(q))
        if curv != 0.0:
            step = float(terms.dphi(q)) / curv
            if abs(step) < (hi - lo) / n_grid:
                q -= step
        if extrema and abs(q - extrema[-1][0]) <= 1e-12 * (1.0 + abs(q)):
            continue
        if abs(float(terms.dphi(q))) > 1e-12 * scale * 1e3:
            continue
        kind = "min" if float(terms.d2phi(q)) > 0 else "max"
        extrema.append((q, float(terms.phi(q)), kind))
    cleaned = []
    for q, val, kind in extrema:
        if cleaned and cleaned[-1][2] == kind:
            keep = ((q, val, kind) if (kind == "min") == (val < cleaned[-1][1])
                    else cleaned[-1])
            cleaned[-1] = keep
            continue
        cleaned.append((q, val, kind))
    return cleaned, (lo, hi)


def assert_same_profile(terms, **kw):
    ref, window = scalar_extrema(terms, **kw)
    prof = _profile_of_terms(terms, **kw)
    got = [(e.q, e.phi, e.kind) for e in prof.extrema]
    assert got == ref
    assert prof.window == window
    return prof


def random_terms(rng):
    n = int(rng.integers(1, 8))
    c = rng.normal(0.0, 3.0, n)
    a = rng.uniform(-4.0, 4.0, n)
    if rng.random() < 0.3:
        a = np.round(a)  # repeated exponents
    return PotentialTerms(c=c, a=a, slope=float(rng.normal(0.0, 2.0)))


def exact_zero_terms(index, n_grid=2001, window=(-3.0, 3.0)):
    """e^q - e^{q_i}: Phi' is exactly 0.0 at grid point ``index``."""
    grid = np.linspace(*window, n_grid)
    base = PotentialTerms(c=[1.0], a=[1.0])
    return PotentialTerms(c=[1.0], a=[1.0],
                          slope=float(base.dphi(grid)[index]))


# ------------------------------------------------------------- sign scan

class TestSignScan:
    def test_random_exp_sums(self):
        rng = np.random.default_rng(20)
        found = 0
        for _ in range(300):
            found += len(assert_same_profile(random_terms(rng)).extrema)
        assert found > 100  # the sample exercises the brentq branch

    def test_random_star_draws(self):
        for rng in trial_rngs(3, 0, 60):
            terms = draw_mixed_star_terms(rng, 10, 0.3)
            amax = float(np.max(np.abs(terms.a)))
            assert_same_profile(terms, q_window=(-50.0 / amax, 50.0 / amax))

    @pytest.mark.parametrize("star", [UNIT, TWO_SPECIES, DOUBLE_WELL],
                             ids=["unit", "two_species", "double_well"])
    def test_stars(self, star):
        assert_same_profile(star.terms())
        assert_same_profile(star.terms(), q_window=(-4.0, 4.0), n_grid=501)

    @pytest.mark.parametrize("index", [1234, 2000], ids=["interior", "last"])
    def test_exact_zero_on_grid(self, index):
        terms = exact_zero_terms(index)
        grid = np.linspace(-3.0, 3.0, 2001)
        assert terms.dphi(grid)[index] == 0.0
        prof = assert_same_profile(terms, q_window=(-3.0, 3.0))
        assert [e.q for e in prof.extrema] == [grid[index]]

    def test_exact_zero_at_first_point(self):
        assert_same_profile(exact_zero_terms(0), q_window=(-3.0, 3.0))

    def test_no_sign_change(self):
        terms = PotentialTerms(c=[1.0], a=[1.0], slope=-1.0)
        prof = assert_same_profile(terms)
        assert prof.extrema == ()

    def test_root_on_a_grid_point_read_with_the_other_sign(self):
        # the grid brackets the root between q = 0 and the next point, but
        # a scalar call gives both ends the same sign; scipy's brentq raised
        # "f(a) and f(b) must have different signs" here
        terms = ROOT_ON_GRID.terms()
        window = analyze_potential(terms).window
        grid = np.linspace(*window, 2001)
        assert grid[1000] == 0.0
        assert terms.dphi(grid)[1000] < 0.0 < float(terms.dphi(0.0))
        assert float(terms.dphi(grid[1001])) > 0.0
        prof = analyze_potential(ROOT_ON_GRID)
        assert [e.kind for e in prof.extrema] == ["min"]
        assert abs(prof.extrema[0].q) <= 1e-12
        orbit = classify_orbit(ROOT_ON_GRID, prof.extrema[0].phi + 1.5)
        assert orbit.kind == "periodic"
        assert orbit.q_minus < 0.0 < orbit.q_plus


class TestBlock:
    """A list of terms is profiled as one block; each profile must be the
    one the sum gets alone, and so the scalar reference's."""

    def test_block_of_mixed_term_counts(self):
        rng = np.random.default_rng(22)
        block = [random_terms(rng) for _ in range(300)]
        block += [draw_mixed_star_terms(rng, 10, 0.3)
                  for rng in trial_rngs(4, 0, 100)]
        block.append(ROOT_ON_GRID.terms())
        profiles = analyze_potential(block)
        assert len(profiles) == len(block)
        for terms, prof in zip(block, profiles):
            assert prof == analyze_potential(terms)
        for terms, prof in zip(block[:-1], profiles):
            ref, window = scalar_extrema(terms)
            assert [(e.q, e.phi, e.kind) for e in prof.extrema] == ref
            assert prof.window == window

    def test_block_with_a_window(self):
        block = [exact_zero_terms(index) for index in (0, 1234, 2000)]
        block += [UNIT.terms(), DOUBLE_WELL.terms()]
        profiles = analyze_potential(block, q_window=(-3.0, 3.0))
        for terms, prof in zip(block, profiles):
            assert prof == assert_same_profile(terms, q_window=(-3.0, 3.0))

    def test_empty_block(self):
        assert analyze_potential([]) == []


# ------------------------------------------------ Laguerre's rule of signs

def sign_changes(terms):
    return _sign_changes(terms.merged(), terms.slope)


class TestSignChangeBound:
    def test_counts_in_exponent_order(self):
        # Phi' = e^{2q} - 3 e^{q} + 2: signs + - + in order of exponent
        terms = PotentialTerms(c=[0.5, -3.0], a=[2.0, 1.0], slope=-2.0)
        assert sign_changes(terms) == 2
        assert sign_changes(UNIT.terms()) == 1
        assert sign_changes(DOUBLE_WELL.terms()) == 3

    def test_equal_exponents_merge(self):
        assert sign_changes(PotentialTerms(c=[1.0, -1.0], a=[1.0, 1.0])) == 0
        assert sign_changes(PotentialTerms(c=[2.0, -1.0], a=[1.0, 1.0],
                                            slope=1.0)) == 1

    def test_slope_sits_at_exponent_zero(self):
        # Phi' = e^{-q} - 5 + e^{q}: the slope term splits the two exponentials
        terms = PotentialTerms(c=[-1.0, 1.0], a=[-1.0, 1.0], slope=5.0)
        assert sign_changes(terms) == 2
        flat = PotentialTerms(c=[1.0, 7.0], a=[1.0, 0.0], slope=1.0)
        assert sign_changes(flat) == 1

    def test_missed_extremum_outside_window_warns(self):
        # the only minimum sits at q = -13.86, outside the default +-5 window
        terms = PotentialTerms(c=[1e-30, 1.0, -1.0], a=[10.0, 0.1, 0.05])
        prof = analyze_potential(terms)
        assert prof.extrema == () and prof.window_warning
        wide = analyze_potential(terms, q_window=(-200.0, 200.0))
        assert [e.kind for e in wide.extrema] == ["min"]
        assert wide.extrema[0].q == pytest.approx(20.0 * np.log(0.5))
        assert not wide.window_warning

    @pytest.mark.parametrize("star", [UNIT, TWO_SPECIES, DOUBLE_WELL],
                             ids=["unit", "two_species", "double_well"])
    def test_complete_profiles_do_not_warn(self, star):
        assert not analyze_potential(star).window_warning

    def test_complete_window_obeys_the_rule(self):
        # distinct integer exponents put every balance point, and so every
        # zero of Phi', well inside +-40: the full count must fit the rule
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            a = rng.choice([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0], n,
                           replace=False)
            terms = PotentialTerms(c=rng.normal(0.0, 3.0, n), a=a,
                                   slope=float(rng.normal(0.0, 2.0)))
            prof = analyze_potential(terms, q_window=(-40.0, 40.0),
                                     n_grid=80001)
            bound = sign_changes(terms)
            assert len(prof.extrema) <= bound
            assert (bound - len(prof.extrema)) % 2 == 0
            assert not prof.window_warning
