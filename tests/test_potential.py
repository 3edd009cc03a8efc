"""PotentialTerms and PotentialProfile as the one potential type.

Wells and barriers are checked against the inline expressions every caller
used to write out, kept below as the reference; the scalar forces of the
Verlet stepper against the star-based closures they replace and against
phi/dphi; and each caller's error when the potential has no well.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hamlv.averaging import (AveragedState, CoefficientPath, OrbitLostError,
                             SlowEnvironment, averaged_rhs, orbit_averages)
from hamlv.integrate import integrate_symplectic, poincare_return_time
from hamlv.resonance import TwoStarSystem, linearize
from hamlv.star import (Extremum, PotentialProfile, PotentialTerms,
                        StarSystem, _profile_of_terms, _psi_roots,
                        analyze_potential, classify_orbit)
from hamlv.util import EXP_LIMIT, clipped_exp, libm_exp

EPS = np.finfo(float).eps
UNIT = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)
TWO_SPECIES = StarSystem(a=[1.0, 1.0], b=[0.6, 0.4], rbar=1.0, mu=1.0)
DOUBLE_WELL = StarSystem(a=[2.0, -2.0, 1.0, -1.0],
                         b=[8.0, -8.0, -20.0, 20.0], rbar=0.0, mu=1.0)
# Phi = -e^q - q falls to the right: no extremum, open on the right
NO_WELL = StarSystem(a=[1.0], b=[-1.0], rbar=1.0, mu=1.0)


# ------------------------------------------------------ inline references

def inline_well(profile, q_ref):
    minima = profile.minima()
    if not minima:
        return None
    return (min(minima, key=lambda e: e.phi) if q_ref is None
            else min(minima, key=lambda e: abs(e.q - q_ref)))


def inline_barrier(profile, well):
    ext = list(profile.extrema)
    idx = ext.index(well)
    barrier_phis = []
    if idx > 0 and ext[idx - 1].kind == "max":
        barrier_phis.append(ext[idx - 1].phi)
    if idx + 1 < len(ext) and ext[idx + 1].kind == "max":
        barrier_phis.append(ext[idx + 1].phi)
    return min(barrier_phis) if barrier_phis else math.inf


def star_forces(star):
    """The Verlet stepper's scalar Phi'(q), Phi(q) built from the star."""
    rbar = star.rbar
    bc = (star.b * star.C).tolist()
    a = star.a.tolist()
    if len(a) == 1:
        a0, bc0 = a[0], bc[0]
        return (lambda q: bc0 * math.exp(a0 * q) - rbar,
                lambda q: (bc0 / a0) * math.exp(a0 * q) - rbar * q)
    rc = [bcj / aj for bcj, aj in zip(bc, a)]
    return (lambda q: sum(bcj * math.exp(aj * q) for bcj, aj in zip(bc, a)) - rbar,
            lambda q: sum(rcj * math.exp(aj * q) for rcj, aj in zip(rc, a)) - rbar * q)


def profile_of(kinds_phis):
    """A hand-made profile with extrema of the given kinds and values."""
    ext = tuple(Extremum(q=float(i), phi=phi, kind=kind)
                for i, (kind, phi) in enumerate(kinds_phis))
    return PotentialProfile(extrema=ext, coercive_left=True,
                            coercive_right=True, window=(-10.0, 10.0))


# ------------------------------------------------------ wells and barriers

class TestWellAndBarrier:
    def test_random_exp_sums(self):
        rng = np.random.default_rng(7)
        wells = 0
        for _ in range(300):
            n = int(rng.integers(1, 7))
            terms = PotentialTerms(c=rng.normal(0.0, 3.0, n),
                                   a=rng.uniform(-4.0, 4.0, n),
                                   slope=float(rng.normal(0.0, 2.0)))
            profile = _profile_of_terms(terms)
            lo, hi = profile.window
            for q_ref in (None, float(rng.uniform(lo, hi)),
                          *(e.q for e in profile.extrema)):
                well = profile.well(q_ref)
                assert well == inline_well(profile, q_ref)
                if well is not None:
                    wells += 1
                    assert profile.barrier(well) == inline_barrier(profile, well)
        assert wells > 300  # the sample has wells, and wells with barriers

    def test_q_ref_picks_the_nearest_well(self):
        # the -rbar q term tilts the double well: the right well is deeper
        tilted = StarSystem(a=DOUBLE_WELL.a, b=DOUBLE_WELL.b, rbar=1.0)
        profile = analyze_potential(tilted)
        left, right = profile.minima()
        assert left.q < 0.0 < right.q and right.phi < left.phi
        assert profile.well() == right == inline_well(profile, None)
        assert profile.well(-0.7) == left
        assert profile.well(0.7) == right
        top = profile.maxima()[0].phi
        assert profile.barrier(left) == profile.barrier(right) == top

    @pytest.mark.parametrize("kinds_phis,index,barrier", [
        ([("min", 0.0)], 0, math.inf),
        ([("min", 0.0), ("max", 2.0)], 0, 2.0),
        ([("max", 2.0), ("min", 0.0)], 1, 2.0),
        ([("max", 3.0), ("min", 0.0), ("max", 2.0)], 1, 2.0),
        ([("min", -1.0), ("max", 2.0), ("min", 0.0)], 2, 2.0),
    ], ids=["alone", "left-end", "right-end", "interior", "two-wells"])
    def test_wells_at_the_ends(self, kinds_phis, index, barrier):
        profile = profile_of(kinds_phis)
        well = profile.extrema[index]
        assert profile.well(well.q) == well
        assert profile.barrier(well) == barrier == inline_barrier(profile, well)

    def test_unit_star_barrier_is_inf(self):
        profile = analyze_potential(UNIT)
        assert profile.barrier(profile.well()) == math.inf

    @pytest.mark.parametrize("profile", [
        profile_of([]), profile_of([("max", 1.0)]), analyze_potential(NO_WELL)],
        ids=["empty", "one-max", "star"])
    def test_no_well(self, profile):
        assert profile.well() is None
        assert profile.well(0.0) is None


class TestNoWellErrors:
    """Each caller's error when the potential has no well."""

    def test_classify_orbit_is_unbounded(self):
        orbit = classify_orbit(NO_WELL, 3.0)
        assert orbit.kind == "unbounded"
        assert orbit.direction == "right"

    def test_orbit_averages(self):
        with pytest.raises(ValueError, match="is unbounded, not periodic"):
            orbit_averages(NO_WELL, 3.0, [lambda q, p: 1.0])

    def test_averaged_rhs(self):
        env = SlowEnvironment(a=CoefficientPath.constant([1.0]),
                              b=CoefficientPath.constant([-1.0]),
                              rbar=CoefficientPath.constant(1.0),
                              mu=1.0, epsilon=0.01)
        with pytest.raises(OrbitLostError):
            averaged_rhs(env, AveragedState(tau=0.0, E=3.0, Cbar=[1.0]))

    def test_poincare_return_time(self):
        with pytest.raises(ValueError, match="is unbounded, not periodic"):
            poincare_return_time(NO_WELL, 3.0)

    @pytest.mark.parametrize("first", [True, False], ids=["star1", "star2"])
    def test_resonance(self, first):
        star1, star2 = (NO_WELL, UNIT) if first else (UNIT, NO_WELL)
        ts = TwoStarSystem(star1=star1, star2=star2, atilde1=[0.0],
                           atilde2=[0.0], btilde1=[0.2], btilde2=[0.2],
                           kappa=0.01, epsilon=0.0)
        with pytest.raises(ValueError):
            linearize(ts)
        with pytest.raises(ValueError):
            ts.to_interaction_system()


# ------------------------------------------------------- clipped exponent

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]
NEAR_LIMIT = st.floats(EXP_LIMIT - 2.0, EXP_LIMIT + 2.0)


class TestClippedExp:
    # _exponentials and every other clipped exponent go through clipped_exp;
    # its bits must be those of exp(clip(x)), NaN and -0.0 included
    @given(st.lists(st.one_of(st.floats(), NEAR_LIMIT, NEAR_LIMIT.map(
        lambda v: -v), st.sampled_from(SPECIAL)), max_size=40))
    @example(SPECIAL + [EXP_LIMIT, -EXP_LIMIT, 709.8, -745.2])
    def test_bits_of_exp_of_clip(self, xs):
        x = np.array(xs, dtype=float)
        got = clipped_exp(x)
        want = np.exp(np.clip(x, -EXP_LIMIT, EXP_LIMIT))
        assert got.tobytes() == want.tobytes()
        finite = ~np.isnan(x)
        assert np.all(got[finite] == want[finite])

    def test_exponentials_are_clipped(self):
        terms = PotentialTerms(c=[1.0, 1.0], a=[1.0, -1.0])
        np.testing.assert_array_equal(
            terms._exponentials(np.array([800.0, -0.0])),
            [[np.exp(EXP_LIMIT), np.exp(-EXP_LIMIT)], [1.0, 1.0]])


# ------------------------------------------------- the C library's exponent

# the largest finite result, the smallest positive (subnormal) one and
# subnormal results between
LIBM_EDGES = SPECIAL + [709.782712893384, -745.1332191019411, -708.4,
                        -730.0, -744.9, -745.2]


def math_exp_bytes(x):
    return np.array([math.exp(v) for v in x.ravel().tolist()]).tobytes()


class TestLibmExp:
    # the quadrature's bit identity with its scalar reference rests on
    # libm_exp being math.exp entry by entry; numpy's exp is not, by one ulp
    # on 44,786 of these 10^6 inputs on x86-64 with AVX-512
    def test_bits_of_math_exp(self):
        x = np.concatenate((np.random.default_rng(17).uniform(
            -745.2, 709.78, 10 ** 6), LIBM_EDGES))
        assert libm_exp(x).tobytes() == math_exp_bytes(x)

    @pytest.mark.parametrize("x", [709.7827128933841, 710.0])
    def test_overflow_where_math_exp_overflows(self, x):
        with pytest.raises(OverflowError):
            math.exp(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (x, [math.nan, 1.0, x], [[x], [-math.inf]]):
                with pytest.raises(OverflowError):
                    libm_exp(arg)

    @pytest.mark.parametrize("shape", [(), (3, 4), (0,), (2, 0)])
    def test_shape_kept(self, shape):
        x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
        got = libm_exp(x)
        assert np.shape(got) == shape
        assert np.asarray(got).tobytes() == math_exp_bytes(x)


# ------------------------------------------------------------ scalar forces

QS = np.random.default_rng(3).uniform(-6.0, 6.0, 2000).tolist()


class TestScalarForces:
    @pytest.mark.parametrize("star", [UNIT, TWO_SPECIES, DOUBLE_WELL],
                             ids=["unit", "two_species", "double_well"])
    def test_equal_to_the_star_closures(self, star):
        # b C = (b / a) C a exactly on these stars, so the closures built
        # from the terms reproduce the star-based ones bit for bit
        dphi, phi = star.terms().scalar_forces()
        ref_dphi, ref_phi = star_forces(star)
        assert [dphi(q) for q in QS] == [ref_dphi(q) for q in QS]
        assert [phi(q) for q in QS] == [ref_phi(q) for q in QS]

    def test_unit_star_equals_phi_with_libm_exp(self):
        # phi/dphi use numpy's exp, which differs from math.exp by one ulp
        # on some inputs; with the C library's exp the values are equal
        terms = UNIT.terms()
        dphi, phi = terms.scalar_forces()
        q = np.array(QS)
        ex = libm_exp(np.multiply.outer(q, terms.a))
        assert [dphi(v) for v in QS] == (ex @ (terms.c * terms.a)
                                          - terms.slope).tolist()
        assert [phi(v) for v in QS] == (ex @ terms.c - terms.slope * q).tolist()

    @pytest.mark.parametrize("star", [UNIT, TWO_SPECIES, DOUBLE_WELL],
                             ids=["unit", "two_species", "double_well"])
    def test_close_to_phi_and_dphi(self, star):
        terms = star.terms()
        dphi, phi = terms.scalar_forces()
        for q in QS:
            ex = np.exp(terms.a * q)
            for got, want, mags in (
                    (dphi(q), float(terms.dphi(q)),
                     np.abs(terms.c * terms.a * ex).sum() + abs(terms.slope)),
                    (phi(q), float(terms.phi(q)),
                     np.abs(terms.c * ex).sum() + abs(terms.slope * q))):
                assert abs(got - want) <= 4 * EPS * mags


class TestMultiTermVerlet:
    def test_two_species_follows_the_unit_star(self):
        # 0.6 e^q + 0.4 e^q - q is the unit star's potential, summed in two
        # terms: the multi-term path tracks the one-term path to roundoff
        p0 = _psi_roots(1.0, 3.0 - 1.0)[0]
        one = integrate_symplectic(UNIT, 0.0, p0, 1e-3, 50.0, n_samples=501)
        two = integrate_symplectic(TWO_SPECIES, 0.0, p0, 1e-3, 50.0,
                                   n_samples=501)
        np.testing.assert_allclose(two.states, one.states, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("star,q0,E", [
        (TWO_SPECIES, 0.0, 3.0),
        # wells at E = -32 with the barrier at E = -31 between them
        (DOUBLE_WELL, -math.log(2.0), -31.5),
        (DOUBLE_WELL, math.log(2.0), -20.0),
    ], ids=["two_species", "double_well_in_well", "double_well_over_barrier"])
    def test_energy_error_bounded_and_second_order(self, star, q0, E):
        p0 = _psi_roots(star.mu, E - float(star.terms().phi(q0)))[0]
        worst = []
        for h in (1e-3, 5e-4):
            traj = integrate_symplectic(star, q0, p0, h, 100.0, n_samples=2001)
            assert traj.energy[0] == pytest.approx(E, rel=1e-12)
            rel = np.abs(traj.energy - traj.energy[0]) / abs(traj.energy[0])
            worst.append(float(np.max(rel)))
            # an oscillation, not a drift: the second half is no worse
            assert worst[-1] <= 1.5 * float(np.max(rel[traj.t <= 50.0]))
        assert worst[0] < 1e-4
        # halving the step quarters the energy error
        assert worst[0] / worst[1] == pytest.approx(4.0, rel=0.02)
