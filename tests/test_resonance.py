import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from hamlv.integrate import integrate_lv
from hamlv.resonance import (ResonanceModel, TwoStarSystem, detuning,
                             instability_criterion, integrate_resonance,
                             linearize, phase_locked_rates)
from hamlv.star import StarSystem
from hamlv.util import json_bytes
from oracle import locked_matrix, polar_slow_rhs

UNIT = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)


def coupled(btilde1, btilde2, kappa=0.01, epsilon=0.0, d1=0.0, d2=0.0,
            star1=UNIT, star2=UNIT):
    # pure shared-predation coupling: the linearized g sums then capture the
    # cross terms exactly (a nonzero atilde adds a coupling route the slow
    # reduction does not carry)
    return TwoStarSystem(star1=star1, star2=star2,
                         atilde1=[0.0] * star1.n_species,
                         atilde2=[0.0] * star2.n_species,
                         btilde1=btilde1, btilde2=btilde2,
                         kappa=kappa, epsilon=epsilon, d1=d1, d2=d2)


class TestTwoStarSystem:
    @pytest.mark.parametrize("field, value", [
        ("kappa", math.nan), ("epsilon", math.inf), ("d1", math.nan),
        ("d2", -math.inf), ("btilde1", [math.nan]), ("btilde2", [math.inf])])
    def test_non_finite_field_names_itself(self, field, value):
        kwargs = {"btilde1": [0.3], "btilde2": [-0.3], field: value}
        with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
            coupled(**kwargs)


class TestLinearize:
    def test_identical_stars_equal_frequencies(self):
        m = linearize(coupled([0.2], [0.2]))
        assert m.omega1 == m.omega2

    def test_unit_star_harmonic_frequency(self):
        m = linearize(coupled([0.2], [0.2]))
        assert m.omega1 == pytest.approx(1.0, abs=1e-9)
        assert m.qbar[0] == pytest.approx(0.0, abs=1e-9)

    def test_frequency_against_simulated_oscillation(self):
        # oracle: period of a tiny oscillation of the decoupled star
        star = StarSystem(a=[1.0, 0.5], b=[1.0, 0.7], rbar=0.9, mu=1.2)
        ts = coupled([0.2, 0.1], [0.2, 0.1], star1=star, star2=star)
        m = linearize(ts)
        from hamlv.integrate import poincare_return_time
        from hamlv.star import analyze_potential
        well = analyze_potential(star).minima()[0]
        e_min = well.phi + star.psi_min()
        T = poincare_return_time(star, e_min + 1e-6, h=1e-3)
        assert 2.0 * math.pi / T == pytest.approx(m.omega1, rel=1e-2)

    def test_coupling_derivatives(self):
        m = linearize(coupled([0.3], [-0.4]))
        # qbar = 0 for the unit star, so g = sum(btilde * C * a * exp(0))
        assert m.g12 == pytest.approx(0.3)
        assert m.g21 == pytest.approx(-0.4)
        assert m.b12 == pytest.approx(0.15)
        assert m.b21 == pytest.approx(0.2)
        assert m.R == pytest.approx(-0.12)
        assert m.b12 * m.b21 == pytest.approx(-m.R / 4.0)


def random_star(rng):
    n = int(rng.integers(1, 7))
    return StarSystem(a=rng.uniform(0.3, 2.0, n), b=rng.uniform(0.2, 2.0, n),
                      rbar=float(rng.uniform(0.5, 3.0)),
                      mu=float(rng.uniform(0.5, 2.0)),
                      C=rng.uniform(0.5, 2.0, n))


class TestCouplingSums:
    """g12, g21 and the hub-rate cross terms against the sums written out."""

    def test_random_multi_term_stars(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(11)
        for _ in range(100):
            s1, s2 = random_star(rng), random_star(rng)
            ts = coupled(rng.normal(0.0, 1.0, s2.n_species),
                         rng.normal(0.0, 1.0, s1.n_species), kappa=0.02,
                         star1=s1, star2=s2)
            m = linearize(ts)
            q1, q2 = m.qbar
            rbar = ts.to_interaction_system().rbar
            for got, terms in (
                    (m.g12, ts.btilde1 * s2.C * s2.a * np.exp(s2.a * q2)),
                    (m.g21, ts.btilde2 * s1.C * s1.a * np.exp(s1.a * q1))):
                assert abs(got - np.sum(terms)) <= 4 * eps * np.sum(np.abs(terms))
            for got, star, terms in (
                    (rbar[0], s1, ts.btilde1 * s2.C * np.exp(s2.a * q2)),
                    (rbar[1], s2, ts.btilde2 * s1.C * np.exp(s1.a * q1))):
                want = star.rbar + ts.kappa * float(np.sum(terms))
                mags = abs(star.rbar) + ts.kappa * np.sum(np.abs(terms))
                assert abs(got - want) <= 4 * eps * mags

    def test_wells_are_the_deepest_minima(self):
        star = StarSystem(a=[1.0, 0.5], b=[1.0, 0.7], rbar=0.9, mu=1.2)
        ts = coupled([0.2], [0.2, 0.1], star1=star, star2=UNIT)
        w1, w2 = ts.wells()
        assert linearize(ts).qbar == (w1.q, w2.q)
        assert w2.q == pytest.approx(0.0, abs=1e-12)


class TestDetuning:
    def test_equal_frequencies_always_resonant(self):
        m = linearize(coupled([0.2], [0.2]))
        assert detuning(m, 1e-9) == "resonant"

    def test_large_gap_nonresonant(self):
        big = StarSystem(a=[2.0], b=[2.0], rbar=1.0, mu=1.0)
        m = linearize(coupled([0.2], [0.2], star2=big))
        assert abs(m.omega1 - m.omega2) > 10 * 0.01
        assert detuning(m, 0.01) == "nonresonant"

    def test_boundary_inclusive(self):
        m = linearize(coupled([0.2], [0.2]))
        gap = abs(m.omega1 - m.omega2)  # zero
        assert detuning(m, gap if gap > 0 else 1e-12) == "resonant"


class TestSlowSystem:
    def test_quarter_pi_phase_difference_locked(self):
        m = linearize(coupled([0.3], [-0.3]))
        traj = integrate_resonance(m, [1e-3, 2e-3], [0.2, 0.2 + math.pi / 2],
                                   30.0)
        diff = traj.phi[:, 1] - traj.phi[:, 0]
        np.testing.assert_allclose(diff, math.pi / 2, atol=1e-8)

    def test_decoupled_exponential_decay(self):
        m = linearize(coupled([0.0], [0.0], epsilon=0.02, d1=1.0, d2=2.0))
        traj = integrate_resonance(m, [1.0, 1.0], [0.0, 0.0], 5.0)
        eb = m.ebar
        for k, dk in enumerate((1.0, 2.0)):
            expect = np.exp(-0.5 * eb * dk * traj.tau)
            np.testing.assert_allclose(traj.Q[:, k], expect, rtol=1e-6,
                                       atol=1e-10)

    def test_growth_rate_matches_closed_form(self):
        m = linearize(coupled([0.3], [-0.3]))
        _, lam_plus, _ = phase_locked_rates(m)
        traj = integrate_resonance(m, [1e-3, 1e-3], [0.0, math.pi / 2], 40.0)
        n = traj.tau.size // 2
        rate = np.polyfit(traj.tau[n:], np.log(traj.Q[n:, 0]), 1)[0]
        assert rate == pytest.approx(float(np.real(lam_plus)), rel=1e-2)

    def test_locked_conserved_quantity(self):
        m = linearize(coupled([0.3], [-0.5]))
        traj = integrate_resonance(m, [1e-3, 2e-3], [0.0, math.pi / 2], 20.0)
        cons = m.b21 * traj.Q[:, 0] ** 2 - m.b12 * traj.Q[:, 1] ** 2
        scale = max(abs(cons[0]), np.max(m.b21 * traj.Q[:, 0] ** 2))
        assert np.max(np.abs(cons - cons[0])) / scale < 1e-8

    def test_stable_exchange_reaches_the_end(self):
        # R > 0 from the locked start: each amplitude passes through zero
        # (the polar form divides by it there) and its phase turns by pi
        m = linearize(coupled([0.3], [0.3], kappa=0.02))
        assert m.R > 0
        traj = integrate_resonance(m, [1e-3, 1e-3], [0.0, math.pi / 2], 100.0)
        assert traj.tau.size == traj.Q.shape[0] == 1001
        assert traj.tau[-1] == 100.0
        assert np.min(traj.Q[:, 0]) < 1e-5
        turns = np.diff(traj.phi, axis=0) / math.pi
        np.testing.assert_allclose(turns, np.round(turns), rtol=0, atol=1e-9)
        # Q1 passes through zero twice, Q2 three times
        assert list(np.count_nonzero(np.round(turns), axis=0)) == [2, 3]
        cons = m.b21 * traj.Q[:, 0] ** 2 - m.b12 * traj.Q[:, 1] ** 2
        assert np.max(np.abs(cons - cons[0])) <= 1e-12 * abs(cons[0])

    @given(g12=st.floats(-1.0, 1.0), g21=st.floats(-1.0, 1.0),
           ebar=st.floats(0.0, 1.0), d1=st.floats(0.0, 3.0),
           d2=st.floats(0.0, 3.0),
           Q0=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
           phi0=st.tuples(st.floats(-math.pi, math.pi),
                          st.floats(-math.pi, math.pi)))
    def test_matches_the_polar_system(self, g12, g21, ebar, d1, d2, Q0, phi0):
        # held to the amplitude-phase equations while both amplitudes stay
        # above 1e-4 of their start; the worst of 600 random cases in these
        # ranges differed by 1.1e-10 relative in Q and 5.9e-11 in phi
        m = ResonanceModel(omega1=1.0, omega2=1.0, g12=g12, g21=g21,
                           ebar=ebar, qbar=(0.0, 0.0), d=(d1, d2))
        traj = integrate_resonance(m, Q0, phi0, 20.0)
        low = np.any(traj.Q < 1e-4 * np.array(Q0), axis=1)
        n = int(np.argmax(low)) if low.any() else traj.tau.size
        atol = [1e-16 * Q0[0], 1e-16 * Q0[1], 1e-15, 1e-15]
        ref = solve_ivp(polar_slow_rhs(m), (0.0, traj.tau[n - 1]), Q0 + phi0,
                        method="DOP853", rtol=1e-12, atol=atol,
                        t_eval=traj.tau[:n])
        np.testing.assert_allclose(traj.Q[:n], ref.y[:2].T, rtol=1e-8)
        np.testing.assert_allclose(traj.phi[:n], ref.y[2:].T, rtol=0,
                                   atol=1e-8)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_grid_without_its_end_rejected(self, n_samples):
        # 0 gave empty arrays, and 1 only tau = 0 without the end state
        m = linearize(coupled([0.3], [-0.3]))
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            integrate_resonance(m, [1e-3, 1e-3], [0.0, math.pi / 2], 5.0,
                                n_samples=n_samples)


class TestPhaseLockedRates:
    def test_pure_coupling_growth(self):
        m = linearize(coupled([0.3], [-0.3]))
        lam_minus, lam_plus, growing = phase_locked_rates(m)
        expected = math.sqrt(m.b12 * m.b21) / (2.0 * m.omega)
        assert lam_plus == pytest.approx(expected)
        assert lam_minus == pytest.approx(-expected)
        assert growing

    def test_opposite_product_pure_rotation(self):
        m = linearize(coupled([0.3], [0.3]))  # b12 b21 < 0
        lam_minus, lam_plus, growing = phase_locked_rates(m)
        assert np.real(lam_plus) == pytest.approx(0.0, abs=1e-15)
        assert abs(np.imag(lam_plus)) > 0
        assert not growing

    def test_matches_numeric_eigenvalues(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = linearize(coupled([float(rng.normal(0, 0.5))],
                                  [float(rng.normal(0, 0.5))],
                                  epsilon=float(rng.uniform(0, 0.05)),
                                  d1=float(rng.uniform(0, 3)),
                                  d2=float(rng.uniform(0, 3))))
            lam_minus, lam_plus, _ = phase_locked_rates(m)
            numeric = np.linalg.eigvals(locked_matrix(m))
            got = sorted([lam_minus, lam_plus], key=lambda z: np.real(z))
            want = sorted(numeric, key=lambda z: np.real(z))
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-12


class TestVerdicts:
    def test_all_positive_couplings_stable(self):
        v = instability_criterion(linearize(coupled([0.3], [0.4])))
        assert v.verdict == "stable"
        assert v.R > 0

    def test_mixed_signs_weak_damping_unstable(self):
        v = instability_criterion(linearize(coupled([0.3], [-0.3])))
        assert v.verdict == "unstable"
        assert v.lambda_max > 0

    def test_strong_damping_damped(self):
        # threshold: ebar omega sqrt(d1 d2) > sqrt(b12 b21)
        m = linearize(coupled([0.3], [-0.3], epsilon=0.05, d1=5.0, d2=5.0))
        assert m.ebar * m.omega * 5.0 > math.sqrt(m.b12 * m.b21)
        v = instability_criterion(m)
        assert v.verdict == "damped"
        assert v.lambda_max <= 0

    def test_verdict_json_schema(self):
        verdict = instability_criterion(linearize(coupled([0.3], [-0.3])))
        payload = json.loads(json_bytes(verdict))
        assert set(payload) == {"R", "b12", "b21", "ebar", "lambda_max",
                                "verdict"}


class TestEnvelopeAgreement:
    def test_slow_envelope_tracks_full_simulation(self):
        # growth-mode start; amplitudes compared over one slow unit
        ts = coupled([0.3], [-0.3], kappa=0.01)
        m = linearize(ts)
        Q1 = 3e-3
        Q2 = Q1 * math.sqrt(m.b21 / m.b12)
        full = ts.to_interaction_system()
        # phases chosen on the growing branch of the combined system
        q0 = np.array([0.0, -Q2])
        x0 = np.exp(q0)
        v0 = np.array([1.0 + Q1 * m.omega, 1.0])
        traj = integrate_lv(full, x0, v0, 1.0 / ts.kappa, rtol=1e-11,
                            atol=1e-13, n_samples=8001)
        p1 = np.log(traj.states[:, 2])
        win = int(1.2 * 2.0 * math.pi / m.omega / (traj.t[1] - traj.t[0]))
        env = np.array([np.max(np.abs(p1[max(0, i - win):i + 1]))
                        for i in range(win, p1.size)])
        growth_full = env[-1] / env[0]
        slow = integrate_resonance(m, [Q1, Q2], [0.0, math.pi / 2], 1.0)
        growth_slow = slow.Q[-1, 0] / slow.Q[0, 0]
        assert abs(growth_slow - growth_full) / growth_full <= 0.10


class TestFullSimulationAgreement:
    @staticmethod
    def measure_growth(ts, t_end=3000.0):
        """Amplitude ratio of hub-1 momentum oscillations, late vs early."""
        full = ts.to_interaction_system()
        m = linearize(ts)
        amp0 = 1e-2
        x0 = np.concatenate((ts.star1.C, ts.star2.C))
        v0 = np.array([ts.star1.mu * math.exp(amp0), ts.star2.mu])
        traj = integrate_lv(full, x0, v0, t_end, rtol=1e-10, atol=1e-12,
                            n_samples=4001)
        p1 = np.log(traj.states[:, x0.size])
        window = traj.t[-1] / 5.0
        early = np.max(np.abs(p1[traj.t < window] - math.log(ts.star1.mu)))
        late = np.max(np.abs(p1[traj.t > traj.t[-1] - window]
                             - math.log(ts.star1.mu)))
        return late / early, traj

    def test_unstable_pair_grows(self):
        ts = coupled([0.3], [-0.3], kappa=0.02)
        assert instability_criterion(linearize(ts)).verdict == "unstable"
        ratio, traj = self.measure_growth(ts)
        assert not traj.escaped
        assert ratio > 3.0

    def test_damped_pair_decays(self):
        ts = coupled([0.3], [-0.3], kappa=0.02, epsilon=0.1, d1=5.0, d2=5.0)
        assert instability_criterion(linearize(ts)).verdict == "damped"
        ratio, _ = self.measure_growth(ts)
        assert ratio < 1.0 / 3.0

    def test_stable_pair_bounded(self):
        ts = coupled([0.3], [0.3], kappa=0.02)
        assert instability_criterion(linearize(ts)).verdict == "stable"
        ratio, _ = self.measure_growth(ts)
        assert 1.0 / 3.0 <= ratio <= 3.0
