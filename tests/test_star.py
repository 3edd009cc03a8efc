import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from hamlv.averaging import orbit_averages
from hamlv.star import (EnergyBelowWellError, PotentialTerms, StarSystem,
                        _limit_sign, analyze_potential, classify_orbit,
                        domino_check, period, persistence_criteria)

UNIT = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)


def grid_extrema(terms, lo, hi, step=1e-4):
    """Dense-grid oracle: extrema located by neighbor comparison."""
    qs = np.arange(lo, hi, step)
    vals = terms.phi(qs)
    out = []
    for i in range(1, len(qs) - 1):
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]:
            out.append((qs[i], "min"))
        elif vals[i] > vals[i - 1] and vals[i] > vals[i + 1]:
            out.append((qs[i], "max"))
    return out


class TestStarSystemChecks:
    @pytest.mark.parametrize("kwargs, field", [
        (dict(a=None, b=None, rbar=1.0), "a"),
        (dict(a=[1.0], b=None, rbar=1.0), "b"),
        (dict(a=[1.0], b=[1.0], rbar=math.nan, mu=math.inf), "rbar"),
        (dict(a=[1.0], b=[1.0], rbar=None), "rbar"),
        (dict(a=[1.0], b=[1.0], rbar=1.0, mu=math.inf), "mu"),
        (dict(a=[1.0], b=[1.0], rbar=1.0, mu=math.nan), "mu"),
        (dict(a=[1.0, 2.0], b=[1.0, 1.0], rbar=1.0, C=[1.0, math.inf]), "C"),
        (dict(a=[1.0], b=[1.0], rbar=1.0, r=[math.nan]), "r"),
        (dict(a=[-math.inf], b=[1.0], rbar=1.0), "a"),
    ])
    def test_non_finite_parameter_names_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
            StarSystem(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(a=[[1.0, 2.0]], b=[1.0, 1.0], rbar=1.0),
         r"^a must be one-dimensional, got shape \(1, 2\)"),
        (dict(a=[1.0, 2.0], b=[[1.0, 1.0]], rbar=1.0),
         r"^b must be one-dimensional, got shape \(1, 2\)"),
        (dict(a=[[1.0, 2.0]], b=[[1.0, 1.0]], rbar=1.0), "^a must be one-dim"),
        (dict(a=[1.0, 2.0], b=[1.0, 1.0], rbar=1.0, r=[1.0]),
         r"^r must have one entry per species, got shape \(1,\)"),
        (dict(a=[1.0], b=[1.0], rbar=1.0, r=[1.0, 1.0]),
         r"^r must have one entry per species"),
    ])
    def test_misshapen_parameter_names_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            StarSystem(**kwargs)

    def test_finite_star_keeps_its_values(self):
        star = StarSystem(a=[2.0, -1.0], b=[1.0, 3.0], rbar=0.5, mu=2)
        assert star.mu == 2.0 and isinstance(star.mu, float)
        assert star.rbar == 0.5 and isinstance(star.rbar, float)
        assert star.r.tolist() == [4.0, -2.0]


class TestPotentialValues:
    def test_unit_star_phi_zero(self):
        assert UNIT.terms().phi(0.0) == pytest.approx(1.0)

    def test_kinetic_minimum_mu_one(self):
        # Psi(p) = e^p - mu p is smallest at p = ln mu = 0
        assert UNIT.psi_min() == pytest.approx(1.0)
        assert UNIT.psi_min() == pytest.approx(math.exp(0.0) - UNIT.mu * 0.0)

    def test_kinetic_minimum_mu_e(self):
        star = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=math.e)
        assert star.psi_min() == pytest.approx(0.0)
        assert star.psi_min() == pytest.approx(math.exp(1.0) - star.mu * 1.0)

    def test_hamiltonian_flag(self):
        assert UNIT.is_hamiltonian()
        skew = StarSystem(a=[1.0, 1.0], b=[1.0, 1.0], rbar=1.0, mu=1.0,
                          r=[1.0, 2.0])
        assert not skew.is_hamiltonian()


class TestAnalyzePotential:
    def test_pp_star_single_minimum(self):
        star = StarSystem(a=[1.0, 0.5], b=[1.0, 1.0], rbar=0.7, mu=1.0)
        prof = analyze_potential(star)
        assert len(prof.extrema) == 1
        assert prof.extrema[0].kind == "min"
        assert prof.coercive_left and prof.coercive_right

    def test_cancelled_exponents_leave_the_decisions(self):
        # Phi = e^{2q} - e^{2q} + e^q grows like e^q; e^q - e^q is constant
        grows = PotentialTerms(c=[1.0, -1.0, 1.0], a=[2.0, 2.0, 1.0])
        assert _limit_sign(grows.merged(), grows.slope, +1) == 1
        flat = PotentialTerms(c=[1.0, -1.0], a=[1.0, 1.0])
        assert flat.merged() == []
        assert (_limit_sign(flat.merged(), flat.slope, +1)
                == _limit_sign(flat.merged(), flat.slope, -1) == 0)

    def test_against_dense_grid_oracle(self):
        # Phi(q) = e^q - 3 e^{q/2} - 0.1 q: two extrema
        terms = PotentialTerms(c=[1.0, -3.0], a=[1.0, 0.5], slope=0.1)
        prof = analyze_potential(terms, q_window=(-20.0, 10.0))
        expected = grid_extrema(terms, -20.0, 10.0)
        assert len(prof.extrema) == len(expected)
        for found, (q_ref, kind_ref) in zip(prof.extrema, expected):
            assert found.kind == kind_ref
            assert abs(found.q - q_ref) < 1e-3
            assert abs(float(terms.dphi(found.q))) < 1e-10

    def test_mixed_signs_max_between_minima(self):
        # 2 cosh(2q) - 10 cosh(q): minima at +-ln 2, maximum at 0
        terms = PotentialTerms(c=[1.0, 1.0, -5.0, -5.0], a=[2.0, -2.0, 1.0, -1.0],
                               slope=0.0)
        prof = analyze_potential(terms, q_window=(-4.0, 4.0))
        kinds = [e.kind for e in prof.extrema]
        assert kinds == ["min", "max", "min"]
        assert prof.extrema[0].q == pytest.approx(-math.log(2.0), abs=1e-9)
        assert prof.extrema[2].q == pytest.approx(math.log(2.0), abs=1e-9)
        oracle = grid_extrema(terms, -4.0, 4.0)
        assert [k for _, k in oracle] == kinds

    def test_alternating_kinds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            terms = PotentialTerms(c=rng.normal(1.0, 2.0, n),
                                   a=rng.uniform(-3.0, 3.0, n),
                                   slope=float(rng.normal(0, 1)))
            prof = analyze_potential(terms, q_window=(-5.0, 5.0))
            kinds = [e.kind for e in prof.extrema]
            assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))


class TestClassifyOrbit:
    def test_equilibrium_at_well_energy(self):
        orbit = classify_orbit(UNIT, 2.0)
        assert orbit.kind == "equilibrium"
        assert orbit.q_minus == pytest.approx(0.0, abs=1e-12)

    def test_below_minimum_is_error(self):
        with pytest.raises(EnergyBelowWellError):
            classify_orbit(UNIT, 1.5)

    @pytest.mark.parametrize("E", [math.inf, -math.inf, math.nan])
    def test_non_finite_energy_is_an_input_error(self, E):
        # not EnergyBelowWellError: an infinite E used to read as the well
        # bottom, and the CLI exits 2 on that error but 1 on bad input
        for call in (lambda: classify_orbit(UNIT, E),
                     lambda: orbit_averages(UNIT, E, [lambda q, p: q])):
            with pytest.raises(ValueError, match="^E must be finite") as info:
                call()
            assert not isinstance(info.value, EnergyBelowWellError)

    def test_periodic_turning_points(self):
        # oracle: bisection on e^q - q - 2 = 0
        orbit = classify_orbit(UNIT, 3.0)
        assert orbit.kind == "periodic"
        q_plus = brentq(lambda q: math.exp(q) - q - 2.0, 0.0, 3.0)
        q_minus = brentq(lambda q: math.exp(q) - q - 2.0, -5.0, 0.0)
        assert orbit.q_minus == pytest.approx(q_minus, abs=1e-10)
        assert orbit.q_plus == pytest.approx(q_plus, abs=1e-10)

    def test_single_negative_term_unbounded(self):
        star = StarSystem(a=[1.0], b=[-1.0], rbar=1.0, mu=1.0)
        orbit = classify_orbit(star, 5.0)
        assert orbit.kind == "unbounded"
        assert orbit.direction == "right"

    def test_cancelling_prey_leave_the_star_unbounded(self):
        # the two prey at exponent 2 cancel: Phi = 3 e^{-q} - 0.1 e^q + 2 q
        # falls to -inf on the right, as it does without them
        star = StarSystem(a=[-1.0, 1.0, 2.0, 2.0], b=[-3.0, -0.1, 2.0, -2.0],
                          rbar=-2.0)
        prof = analyze_potential(star)
        assert prof.coercive_left and not prof.coercive_right
        E = prof.barrier(prof.well()) + star.psi_min() + 0.5
        orbit = classify_orbit(star, E)
        assert orbit.kind == "unbounded" and orbit.direction == "right"
        plain = StarSystem(a=[-1.0, 1.0], b=[-3.0, -0.1], rbar=-2.0)
        assert orbit == classify_orbit(plain, E)

    def test_soliton_at_barrier_energy(self):
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0], b=[2.0, -2.0, -5.0, 5.0],
                          rbar=0.0, mu=1.0)  # rho C = (1, 1, -5, -5)
        prof = analyze_potential(star)
        barrier = [e for e in prof.extrema if e.kind == "max"][0]
        E = barrier.phi + star.psi_min()
        orbit = classify_orbit(star, E)
        assert orbit.kind == "soliton"
        assert orbit.q_plateau == pytest.approx(barrier.q, abs=1e-9)

    def test_kink_between_symmetric_maxima(self):
        # inner well between two equal-height maxima, unbounded beyond
        terms_c = [-0.05, -0.05, 1.0, 1.0]
        terms_a = [2.0, -2.0, 0.8, -0.8]
        star = StarSystem(a=terms_a, b=list(np.array(terms_c) * terms_a),
                          rbar=0.0, mu=1.0)
        prof = analyze_potential(star)
        maxima = [e for e in prof.extrema if e.kind == "max"]
        assert len(maxima) == 2
        E = maxima[0].phi + star.psi_min()
        orbit = classify_orbit(star, E)
        assert orbit.kind == "kink"

    def test_energy_partition_for_periodic(self):
        for E in (2.2, 2.8, 3.5, 5.0):
            orbit = classify_orbit(UNIT, E)
            level = E - UNIT.psi_min()
            for q in (orbit.q_minus, orbit.q_plus):
                assert UNIT.terms().phi(q) == pytest.approx(level, abs=1e-9)

    def test_convex_star_never_soliton_or_kink(self):
        star = StarSystem(a=[1.0, 2.0], b=[1.0, 1.0], rbar=1.0, mu=1.0)
        e_min = classify_orbit(star, 1e9)  # probe top
        for E in np.linspace(2.6, 40.0, 25):
            orbit = classify_orbit(star, E)
            assert orbit.kind == "periodic"
        assert e_min.kind == "periodic"


class TestPeriod:
    def test_harmonic_limit(self):
        T = period(UNIT, 2.0 + 1e-6)
        assert T == pytest.approx(2.0 * math.pi, rel=1e-2)

    def test_monotone_in_energy_for_convex_well(self):
        energies = np.linspace(2.05, 7.0, 12)
        periods = [period(UNIT, E) for E in energies]
        assert np.all(np.diff(periods) > 0)

    def test_periodic_required(self):
        star = StarSystem(a=[1.0], b=[-1.0], rbar=1.0, mu=1.0)
        with pytest.raises(ValueError):
            period(star, 10.0)

    def test_long_period_near_barrier(self):
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0], b=[2.0, -2.0, -5.0, 5.0],
                          rbar=0.0, mu=1.0)
        prof = analyze_potential(star)
        barrier = [e for e in prof.extrema if e.kind == "max"][0]
        E_near = barrier.phi + star.psi_min() - 1e-6
        E_deep = barrier.phi + star.psi_min() - 1e-1
        assert period(star, E_near) > 2.0 * period(star, E_deep)

    def test_unresolved_period_raises(self):
        # 2.2e-7 below the barrier of the left well: 28 and 18 segments give
        # 6.9560771 and 6.9560528, 3.5e-6 apart relative
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0],
                          b=[8.0, -8.0, -20.0, 20.0], rbar=0.0, mu=1.0)
        q_well = -math.log(2.0)
        prof = analyze_potential(star)
        well = prof.well(q_well)
        bottom = well.phi + star.psi_min()
        top = prof.barrier(well) + star.psi_min()
        E = bottom + (top - bottom) * 0.9999997754
        assert classify_orbit(star, E, q_ref=q_well).kind == "periodic"
        with pytest.raises(RuntimeError,
                           match=r"E = -31\.0000002246 .*gap of 2\.44e-05"):
            period(star, E, q_ref=q_well)
        assert period(star, E, q_ref=q_well, rtol=1e-5) == pytest.approx(
            6.9560528, rel=1e-7)


class TestPersistence:
    def test_pi(self):
        star = StarSystem(a=[1.0, 2.0], b=[-1.0, 3.0], rbar=1.0, mu=1.0)
        v = persistence_criteria(star)
        assert v.rule == "PI"
        assert v.i_plus == 1

    def test_piii(self):
        star = StarSystem(a=[1.0, -2.0], b=[1.0, -1.0], rbar=1.0, mu=1.0)
        v = persistence_criteria(star)
        assert v.rule == "PIII"

    def test_fails_when_top_predator_coefficient_negative(self):
        star = StarSystem(a=[1.0, 2.0], b=[3.0, -1.0], rbar=1.0, mu=1.0)
        v = persistence_criteria(star)
        assert v.rule == "PI" and not v.passed and v.i_plus == 1
        orbit = classify_orbit(star, 50.0)
        assert orbit.kind == "unbounded"

    def test_pii_mirror_of_pi(self):
        # mirror image of a persistent PI star: q -> -q flips a, b, rbar
        star = StarSystem(a=[-1.0, -2.0], b=[1.0, -3.0], rbar=-1.0, mu=1.0)
        v = persistence_criteria(star)
        assert v.rule == "PII"
        prof = analyze_potential(star)
        assert prof.coercive_left and prof.coercive_right

    def test_tie_reported(self):
        star = StarSystem(a=[2.0, 2.0], b=[1.0, 1.0], rbar=1.0, mu=1.0)
        v = persistence_criteria(star)
        assert v.rule == "PI" and v.i_plus == 0 and v.tied

    def test_verdict_matches_coercivity(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            star = StarSystem(a=rng.choice([-1, 1], n) * rng.uniform(0.5, 2, n),
                              b=rng.normal(0, 1, n),
                              rbar=float(rng.normal(0, 1)), mu=1.0)
            v = persistence_criteria(star)
            prof = analyze_potential(star)
            assert v.passed == (prof.coercive_left and prof.coercive_right)

    # exponents and couplings from small sets, so that ties, cancelling
    # couplings and b = 0 at an extreme exponent come up often
    @given(st.lists(st.tuples(
        st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
        st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])), min_size=1, max_size=5),
           st.sampled_from([-1.0, 0.0, 1.0]))
    @example([(-1.0, -3.0), (1.0, -0.1), (2.0, 2.0), (2.0, -2.0)], -2.0)
    @example([(-0.491, -0.240), (-1.107, 0.0)], -0.943)
    def test_verdict_is_two_sided_coercivity(self, species, rbar):
        a, b = (list(v) for v in zip(*species))
        star = StarSystem(a=a, b=b, rbar=rbar)
        v = persistence_criteria(star)
        assert v.rule == ("PI" if min(a) > 0 else "PII" if max(a) < 0
                          else "PIII")
        # Phi at q = +-60 in 80 digits, so that no term is lost to the
        # rounding of a larger one: a growing exponential gives e^30 or more,
        # the -rbar q term 60 |rbar|, and a flat side stays near 0
        terms = star.terms()
        with mpmath.workdps(80):
            far = {d: float(mpmath.fsum(
                c * mpmath.exp(k * 60 * d) for c, k in zip(
                    terms.c.tolist(), terms.a.tolist())) - rbar * 60 * d)
                for d in (1, -1)}
        assert v.passed == (far[1] > 10.0 and far[-1] > 10.0)
        tied = False
        for i, d in ((v.i_plus, 1), (v.i_minus, -1)):
            growth = math.log(abs(far[d]) or 1e-300) / 60.0
            if i is None:  # the -rbar q term decides
                assert growth < 0.25
                continue
            # the species' exponent is the growth rate of Phi on that side
            assert b[i] != 0.0 and a[i] * d == pytest.approx(growth, abs=0.06)
            there = [j for j in range(len(a)) if a[j] == a[i] and b[j] != 0.0]
            assert there[0] == i
            tied = tied or len(there) > 1
        assert v.tied == tied


class TestDomino:
    def test_keystone_species(self):
        star = StarSystem(a=[3.0, 1.0, 1.0], b=[1.0, -1.0, -1.0], rbar=1.0,
                          mu=1.0)
        assert domino_check(star) == [0]

    def test_single_species_always_keystone(self):
        assert domino_check(UNIT) == [0]

    def test_pure_pp_star_redundancy(self):
        # oracle: exhaustive removal scan against the criteria directly
        star = StarSystem(a=[1.0, 2.0, 3.0], b=[1.0, 1.0, 1.0], rbar=1.0,
                          mu=1.0)
        keystones = domino_check(star)
        expected = []
        for j in range(3):
            keep = [i for i in range(3) if i != j]
            sub = StarSystem(a=star.a[keep], b=star.b[keep], rbar=1.0, mu=1.0)
            if not persistence_criteria(sub).passed:
                expected.append(j)
        assert keystones == expected == []

    def test_requires_persistent_star(self):
        star = StarSystem(a=[1.0], b=[-1.0], rbar=1.0, mu=1.0)
        with pytest.raises(ValueError):
            domino_check(star)
