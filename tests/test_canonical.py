import math

import numpy as np
import pytest

from hamlv.canonical import (DegenerateFactorizationError, CanonicalState,
                             canonicalize, find_factors, from_canonical,
                             hamiltonian, lyapunov_weights, motion_integral,
                             star_equilibrium, to_canonical)
from hamlv.model import InteractionSystem
from hamlv.star import StarSystem
from oracle import transformed_rhs


def classical_pair():
    return InteractionSystem(r=[1.0], rbar=[1.0], A=[[1.0]], B=[[1.0]])


def random_factorizable(rng, n, m, positive=True):
    """Build (A, B) satisfying the factorization with known rho, sigma."""
    rho = rng.uniform(0.5, 2.0, n)
    sigma = np.concatenate(([1.0], rng.uniform(0.5, 2.0, m - 1))) if m > 1 \
        else np.ones(1)
    if not positive:
        rho[0] *= -1.0
    A = rng.uniform(0.2, 1.5, (n, m))
    B = (rho[:, None] * A / sigma[None, :]).T
    return A, B, rho, sigma


class TestFindFactors:
    def test_single_pair(self):
        f = find_factors([[2.0]], [[3.0]])
        assert f.sigma[0] == 1.0
        assert f.rho[0] == pytest.approx(1.5)
        assert f.positive

    def test_star_always_factorizable(self):
        f = find_factors([[1.0], [2.0]], [[2.0, 4.0]])
        np.testing.assert_allclose(f.rho, [2.0, 2.0])
        assert f.sigma[0] == 1.0

    def test_positive_flag_false_when_signs_clash(self):
        f = find_factors([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]])
        assert f is not None
        assert not f.positive

    def test_inconsistent_returns_none(self):
        A = [[1.0, 1.0], [1.0, 1.0]]
        B = [[1.0, 1.0], [1.0, 2.0]]
        assert find_factors(A, B) is None

    def test_one_sided_zero_returns_none(self):
        assert find_factors([[0.0]], [[1.0]]) is None

    def test_zero_matrices_degenerate(self):
        with pytest.raises(DegenerateFactorizationError):
            find_factors([[0.0]], [[0.0]])

    def test_residual_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            A, B, _, _ = random_factorizable(rng, n, m)
            f = find_factors(A, B, tol=1e-9)
            assert f is not None
            assert f.residual(A, B) <= 1e-9

    def test_recovers_known_factors_up_to_gauge(self):
        rng = np.random.default_rng(7)
        A, B, rho, sigma = random_factorizable(rng, 4, 2)
        f = find_factors(A, B)
        np.testing.assert_allclose(f.rho, rho, rtol=1e-12)
        np.testing.assert_allclose(f.sigma, sigma, rtol=1e-12)


class TestCoordinateMaps:
    def test_to_canonical_gauge(self):
        csys = canonicalize(classical_pair())
        s = to_canonical(csys, [1.0], [1.0])
        assert s.q[0] == 0.0
        assert s.p[0] == 0.0
        assert s.C[0] == 1.0

    @pytest.mark.parametrize("x0, v0, wrong", [
        ([1.0, 2.0, 3.0], [], "x has 3, v has 0"),
        ([1.0], [1.0], "x has 1"),
        ([1.0, 2.0], [1.0, 1.0], "v has 2")])
    def test_state_of_wrong_size_rejected(self, x0, v0, wrong):
        # the extra prey abundance became the hub's, or numpy failed later
        # on shapes that do not align
        sys = InteractionSystem(r=[1.0, 1.0], rbar=[1.0], A=[[1.0], [1.0]],
                                B=[[1.0, 1.0]])
        with pytest.raises(ValueError, match=r"N = 2, M = 1\).*" + wrong):
            to_canonical(canonicalize(sys), x0, v0)

    def test_log_momentum(self):
        sys = InteractionSystem(r=[1.0, 1.0], rbar=[1.0], A=[[1.0], [1.0]],
                                B=[[1.0, 1.0]])
        csys = canonicalize(sys)
        s = to_canonical(csys, [2.0, 3.0], [math.e])
        assert s.p[0] == pytest.approx(1.0)
        np.testing.assert_allclose(s.C, [2.0, 3.0])

    def test_from_canonical_trivial(self):
        csys = canonicalize(classical_pair())
        x, v = from_canonical(csys, CanonicalState(q=[0.0], p=[0.0], C=[5.0]))
        assert x[0] == pytest.approx(5.0)
        assert v[0] == pytest.approx(1.0)

    def test_from_canonical_exponent(self):
        csys = canonicalize(classical_pair())
        x, v = from_canonical(csys, CanonicalState(q=[1.0], p=[0.0], C=[1.0]))
        assert x[0] == pytest.approx(math.e)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            A, B, _, _ = random_factorizable(rng, n, m)
            mu = rng.uniform(0.5, 2.0, m)
            sys = InteractionSystem(r=A @ mu, rbar=rng.uniform(0.5, 2.0, m),
                                    A=A, B=B)
            csys = canonicalize(sys, mu=mu)
            x0 = rng.uniform(0.2, 5.0, n)
            v0 = rng.uniform(0.2, 5.0, m)
            x1, v1 = from_canonical(csys, to_canonical(csys, x0, v0))
            np.testing.assert_allclose(x1, x0, rtol=1e-12)
            np.testing.assert_allclose(v1, v0, rtol=1e-12)

    def test_rejects_nonpositive_abundances(self):
        csys = canonicalize(classical_pair())
        with pytest.raises(ValueError):
            to_canonical(csys, [0.0], [1.0])


class TestTransformedRhs:
    def test_limitation_free_constants(self):
        csys = canonicalize(classical_pair())
        _, _, dC = transformed_rhs(csys, CanonicalState(q=[0.3], p=[-0.2],
                                                        C=[2.0]))
        np.testing.assert_allclose(dC, 0.0, atol=1e-15)

    def test_equilibrium(self):
        csys = canonicalize(classical_pair())
        dq, dp, _ = transformed_rhs(csys, CanonicalState(q=[0.0], p=[0.0],
                                                         C=[1.0]))
        assert dq[0] == pytest.approx(0.0)
        assert dp[0] == pytest.approx(0.0)

    def test_chain_rule_matches_lv_rhs(self):
        # oracle: finite differences of the mapped coordinates along the
        # transformed flow must reproduce the population right-hand side
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            A, B, _, _ = random_factorizable(rng, n, m)
            mu = rng.uniform(0.5, 2.0, m)
            Gamma = rng.uniform(0.0, 0.1, (n, n))
            D = rng.uniform(0.0, 0.1, (m, m))
            sys = InteractionSystem(r=A @ mu - rng.uniform(0.0, 0.1, n),
                                    rbar=rng.uniform(0.5, 2.0, m), A=A, B=B,
                                    Gamma=Gamma, D=D)
            csys = canonicalize(sys, mu=mu)
            state = CanonicalState(q=rng.normal(0, 0.3, m),
                                   p=rng.normal(0, 0.3, m),
                                   C=rng.uniform(0.5, 2.0, n))
            dq, dp, dC = transformed_rhs(csys, state)
            h = 1e-6
            plus = CanonicalState(q=state.q + h * dq, p=state.p + h * dp,
                                  C=state.C + h * dC)
            minus = CanonicalState(q=state.q - h * dq, p=state.p - h * dp,
                                   C=state.C - h * dC)
            xp, vp = from_canonical(csys, plus)
            xm, vm = from_canonical(csys, minus)
            dx = (xp - xm) / (2 * h)
            dv = (vp - vm) / (2 * h)
            x, v = from_canonical(csys, state)
            dx_lv = x * (-sys.r + A @ v - Gamma @ x)
            dv_lv = v * (sys.rbar - B @ x - D @ v)
            np.testing.assert_allclose(dx, dx_lv, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(dv, dv_lv, rtol=1e-5, atol=1e-8)


class TestHamiltonian:
    def test_unit_value(self):
        csys = canonicalize(classical_pair())
        H = hamiltonian(csys, CanonicalState(q=[0.0], p=[0.0], C=[1.0]))
        assert H == pytest.approx(2.0)

    def test_substituted_value(self):
        csys = canonicalize(classical_pair())
        H = hamiltonian(csys, CanonicalState(q=[0.0], p=[math.log(2.0)],
                                             C=[1.0]))
        assert H == pytest.approx(1.0 + 2.0 - math.log(2.0))


class TestMotionIntegral:
    def test_classical_pair_value(self):
        star = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)
        assert motion_integral(star, [1.0], 1.0) == pytest.approx(2.0)

    def test_minimizer_matches_closed_form(self):
        star = StarSystem(a=[1.0, 2.0], b=[2.0, 1.0], rbar=3.0, mu=1.5)
        w = np.array([0.4, 0.6])
        xbar = star.rbar * w / (star.rho * star.a)
        vbar = star.mu
        E0 = motion_integral(star, xbar, vbar, weights=w)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = xbar * rng.uniform(0.5, 2.0, 2)
            v = vbar * rng.uniform(0.5, 2.0)
            assert motion_integral(star, x, v, weights=w) >= E0 - 1e-12

    def test_zero_a_rejected(self):
        class Degenerate:
            a = np.array([1.0, 0.0])
            rho = np.array([1.0, 1.0])
            rbar = 1.0
            mu = 1.0

        with pytest.raises(ValueError):
            motion_integral(Degenerate(), [1.0, 1.0], 1.0)


class TestStarEquilibrium:
    def test_solves_equilibrium_equations(self):
        # oracle: plug the closed form back into the population equations
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.uniform(0.5, 2.0, n)
            b = rng.uniform(0.5, 2.0, n)
            r = rng.uniform(0.5, 2.0, n)
            gamma = rng.uniform(0.1, 1.0, n)
            d = float(rng.uniform(0.0, 0.5))
            rbar = float(rng.uniform(0.5, 2.0))
            eq = star_equilibrium(a, b, r, gamma, d, rbar)
            resid_x = -r + a * eq.vbar - gamma * eq.xbar
            resid_v = rbar - np.sum(b * eq.xbar) - d * eq.vbar
            np.testing.assert_allclose(resid_x, 0.0, atol=1e-12)
            assert resid_v == pytest.approx(0.0, abs=1e-12)

    def test_hamiltonian_case_feasible_at_small_gamma(self):
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([1.0, 1.0, 2.0])
        mu = 1.3
        for gamma in (1e-1, 1e-2, 1e-3):
            eq = star_equilibrium(a, b, a * mu, np.full(3, gamma), 0.1, 2.0)
            assert eq.feasible

    def test_non_hamiltonian_infeasible_as_gamma_vanishes(self):
        a = np.array([1.0, 1.0])
        b = np.array([1.0, 1.0])
        r = np.array([1.0, 2.0])  # mu_1 != mu_2
        feasible = []
        for gamma in (1.0, 1e-1, 1e-2, 1e-3):
            eq = star_equilibrium(a, b, r, np.full(2, gamma), 0.1, 2.0)
            feasible.append(eq.feasible)
        assert not feasible[-1]

    def test_biomass_nonincreasing_in_weak_feedback_regime(self):
        # decreasing total biomass needs sum(a b) < d sum(a); pick such a star
        a = np.full(4, 1.0)
        b = np.full(4, 0.05)
        mu = 1.0
        d = 0.5
        rbar = 1.0  # rbar > d mu
        biomass = []
        for gamma in np.linspace(0.01, 0.5, 12):
            eq = star_equilibrium(a, b, a * mu, np.full(4, gamma), d, rbar)
            assert eq.feasible
            biomass.append(eq.vbar + float(np.sum(eq.xbar)))
        assert np.all(np.diff(biomass) <= 1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            star_equilibrium([0.0], [1.0], [1.0], [1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            star_equilibrium([1.0], [1.0], [1.0], [0.0], 0.0, 1.0)


class TestLyapunovWeights:
    def test_descent_direction_everywhere(self):
        # dE/dt = grad E . f must be nonpositive for the damped star
        star = StarSystem(a=[1.0, 2.0], b=[1.0, 0.5], rbar=2.0, mu=1.0)
        gamma = np.array([0.2, 0.3])
        d = 0.1
        w, mu_eq = lyapunov_weights(star, gamma, d)
        rng = np.random.default_rng(6)
        for _ in range(300):
            x = rng.uniform(0.05, 5.0, 2)
            v = float(rng.uniform(0.05, 5.0))
            gE_x = star.rho - star.rbar * w / (star.a * x)
            gE_v = 1.0 - mu_eq / v
            fx = x * (-star.r + star.a * v - gamma * x)
            fv = v * (star.rbar - np.sum(star.b * x) - d * v)
            dE = float(np.dot(gE_x, fx) + gE_v * fv)
            assert dE <= 1e-10
