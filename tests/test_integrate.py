import dataclasses
import hashlib
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import DOP853, solve_ivp

from hamlv import integrate
from hamlv.averaging import (AveragedState, CoefficientPath, SlowEnvironment,
                             _slow_fast_flow, evolve_averaged,
                             simulate_slow_fast)
from hamlv.canonical import (CanonicalState, canonicalize, from_canonical,
                             hamiltonian, motion_integral, to_canonical)
from hamlv.integrate import (Trajectory, _lv_flow, _operator,
                             _transformed_flow, integrate_lv,
                             integrate_symplectic, integrate_transformed,
                             poincare_return_time)
from hamlv.model import InteractionSystem
from hamlv.resonance import ResonanceModel, integrate_resonance
from hamlv.star import (EnergyBelowWellError, PotentialTerms, StarSystem,
                        _psi_roots, analyze_potential, classify_orbit, period)
from hamlv.util import EXP_LIMIT, clipped_exp
from oracle import transformed_rhs
from test_acceptance import DOUBLE_WELL, REGRESSION_SUITE, TWO_SPECIES
from test_averaging import flow_terms, random_environment

UNIT_STAR = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)
PAIR = InteractionSystem(r=[1.0], rbar=[1.0], A=[[1.0]], B=[[1.0]])


def unit_orbit_start(E):
    p0, _ = _psi_roots(1.0, E - 1.0)  # Phi(0) = 1
    return 0.0, p0


def damped_factorizable(seed, n=4, m=3):
    """Random system with sigma_l b_lk = rho_k a_kl and nonzero Gamma, D."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.3, 1.2, (n, m))
    rho = rng.uniform(0.5, 1.5, n)
    sigma = np.concatenate(([1.0], rng.uniform(0.5, 1.5, m - 1)))
    B = (rho[:, None] * A / sigma[None, :]).T
    Gamma = rng.uniform(0.0, 0.2, (n, n))
    D = rng.uniform(0.0, 0.2, (m, m))
    mu = rng.uniform(0.8, 1.2, m)
    system = InteractionSystem(r=A @ mu, rbar=B @ rng.uniform(0.5, 1.5, n),
                               A=A, B=B, Gamma=Gamma, D=D)
    return system, mu, rng


def hub_web(limited, n=300, m=30, seed=7):
    """Factorizable web of n prey that each feed one to three of m hubs.

    Gamma and D are positive diagonals when limited, zero otherwise.
    """
    rng = np.random.default_rng(seed)
    support = np.zeros((n, m), dtype=bool)
    for i in range(n):
        support[i, rng.choice(m, size=int(rng.integers(1, 4)),
                              replace=False)] = True
    A = np.where(support, rng.uniform(0.3, 1.2, (n, m)), 0.0)
    rho = rng.uniform(0.5, 1.5, n)
    sigma = np.concatenate(([1.0], rng.uniform(0.5, 1.5, m - 1)))
    B = (rho[:, None] * A / sigma[None, :]).T
    Gamma = np.diag(rng.uniform(0.05, 0.2, n)) if limited else np.zeros((n, n))
    D = np.diag(rng.uniform(0.05, 0.2, m)) if limited else np.zeros((m, m))
    mu = rng.uniform(0.8, 1.2, m)
    system = InteractionSystem(r=A @ mu, rbar=B @ rng.uniform(0.5, 1.5, n),
                               A=A, B=B, Gamma=Gamma, D=D)
    return system, mu, rng


# damped_factorizable seeds, then the large sparse webs the CSR operator serves
FLOW_CASES = [0, 1, 2, 3, 4, "hub", "hub-limited"]


def flow_case(case):
    if isinstance(case, int):
        return damped_factorizable(case)
    return hub_web(limited=case == "hub-limited")


def capture_runs(monkeypatch):
    """Record the (rhs, stop) of every adaptive run the driver makes."""
    seen, run = [], integrate._adaptive_run

    def capture(rhs, t_span, y0, stop, *args, **kwargs):
        seen.append((rhs, stop))
        return run(rhs, t_span, y0, stop, *args, **kwargs)

    monkeypatch.setattr(integrate, "_adaptive_run", capture)
    return seen


def block_rhs(system):
    """The log-space population system written out block by block."""
    n = system.N

    def rhs(t, y):
        x, v = np.exp(y[:n]), np.exp(y[n:])
        return np.concatenate((-system.r + system.A @ v - system.Gamma @ x,
                               system.rbar - system.B @ x - system.D @ v))
    return rhs


def exp_sum(c, L, z):
    """The right-hand side c + L exp(z) of a flow's terms (flow_terms)."""
    return c + L @ np.exp(z)


def assert_sum_close(got, want, terms, rtol=1e-14):
    """Relative agreement of sums, measured against the summed magnitudes."""
    assert np.all(np.abs(got - want) <= rtol * terms)


class TestIntegrateLV:
    def test_equilibrium_is_constant(self):
        traj = integrate_lv(PAIR, [1.0], [1.0], 50.0)
        np.testing.assert_allclose(traj.states, 1.0, rtol=1e-9)

    def test_positivity_structural(self):
        traj = integrate_lv(PAIR, [2.0], [1.0], 50.0)
        assert np.all(traj.states > 0)

    def test_motion_integral_drift(self):
        traj = integrate_lv(PAIR, [2.0], [1.0], 20.0, rtol=1e-10, atol=1e-12)
        E = [motion_integral(UNIT_STAR, [x], v)
             for x, v in zip(traj.column("x1"), traj.column("v1"))]
        E = np.asarray(E)
        assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-9

    def test_escape_detected(self):
        # star failing the coercivity criterion: abundance blows up
        sys = StarSystem(a=[1.0], b=[-1.0], rbar=1.0, mu=1.0).to_interaction_system()
        traj = integrate_lv(sys, [1.0], [2.0], 50.0)
        assert traj.escaped
        assert traj.escape_time is not None and traj.escape_time < 50.0

    def test_escape_reason_none_without_escape(self):
        traj = integrate_lv(PAIR, [2.0], [1.0], 5.0)
        assert not traj.escaped
        assert traj.meta["escape_reason"] is None

    def test_escape_reason_clamp(self):
        # ln x grows at rate 100 and reaches the clamp 700 at t = 7, where
        # the exponent event stops the run
        system = InteractionSystem(r=[-100.0], rbar=[0.0], A=[[0.0]],
                                   B=[[0.0]])
        traj = integrate_lv(system, [1.0], [1.0], 50.0)
        assert traj.escaped
        assert traj.meta["escape_reason"] == "clamp"
        assert traj.escape_time == pytest.approx(7.0, rel=1e-6)

    @pytest.mark.parametrize("x0", [1e305, 1e-309], ids=["above", "below"])
    def test_start_beyond_the_clamp_escapes_at_the_start(self, x0):
        # ln x0 = 702.3 (or -711.5): the stop looked only for a fall through
        # zero, so the run went on with a clipped flow and no escape
        system = InteractionSystem(r=[-1.0], rbar=[-1.0], A=[[0.0]],
                                   B=[[0.0]])
        traj = integrate_lv(system, [x0], [1.0], 1.0)
        assert traj.escaped and traj.escape_time == 0.0
        assert traj.meta["escape_reason"] == "clamp"
        assert traj.t.tolist() == [0.0]
        assert traj.states.tobytes() == np.exp(np.log([[x0, 1.0]])).tobytes()

    def test_escape_reason_diverged(self):
        # x' = x (x - 1) from x = 2 blows up at t = ln 2: the step size
        # collapses before ln x reaches the clamp, and the escape is timed
        # at the last step the solver completed
        system = InteractionSystem(r=[1.0], rbar=[-1.0], A=[[0.0]], B=[[0.0]],
                                   Gamma=[[-1.0]])
        traj = integrate_lv(system, [2.0], [1.0], 50.0)
        assert traj.escaped
        assert traj.meta["escape_reason"] == "diverged"
        assert traj.escape_time == pytest.approx(math.log(2.0), rel=1e-6)

    @given(r=st.just(0.0) | st.floats(1e-6, 2.0),  # no subnormal r / r
           gamma=st.floats(0.1, 10.0), excess=st.floats(0.01, 100.0))
    @example(r=0.0, gamma=1.0, excess=0.01)  # x' = x^2 from 0.01: T = 100
    def test_blow_up_diverges_at_closed_form_time(self, r, gamma, excess):
        # x' = x (-r + gamma x) with gamma x0 > r blows up at
        # T = ln(gamma x0 / (gamma x0 - r)) / r, T = 1 / (gamma x0) for r = 0
        x0 = (r + excess) / gamma
        T = (math.log1p(r / (gamma * x0 - r)) / r if r > 0
             else 1.0 / (gamma * x0))
        system = InteractionSystem(r=[r], rbar=[0.0], A=[[0.0]], B=[[0.0]],
                                   Gamma=[[-gamma]])
        traj = integrate_lv(system, [x0], [1.0], 2.0 * T + 1.0)
        assert traj.escaped
        assert traj.meta["escape_reason"] == "diverged"
        assert traj.escape_time == pytest.approx(T, rel=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            integrate_lv(PAIR, [0.0], [1.0], 1.0)
        with pytest.raises(ValueError):
            integrate_lv(PAIR, [1.0], [1.0], 1.0, rtol=0.0)

    @pytest.mark.parametrize("x0, v0, wrong", [
        ([1.0, 2.0, 3.0], [], "x has 3, v has 0"),
        ([1.0], [1.0], "x has 1"),
        ([1.0, 2.0], [1.0, 1.0], "v has 2")])
    def test_state_of_wrong_size_rejected(self, x0, v0, wrong):
        # ln x0 and ln v0 were joined unchecked: 3 prey and no hub ran as
        # 2 prey and 1 hub, and 1 + 1 failed inside numpy's product
        system = InteractionSystem(r=[1.0, 1.0], rbar=[1.0],
                                   A=[[1.0], [1.0]], B=[[1.0, 1.0]])
        with pytest.raises(ValueError, match=r"N = 2, M = 1\).*" + wrong):
            integrate_lv(system, x0, v0, 1.0)

    def test_csv_format(self, tmp_path):
        traj = integrate_lv(PAIR, [2.0], [1.0], 1.0, n_samples=5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,v1"
        assert len(lines) == 6
        # full double precision round-trips through the text
        val = float(lines[1].split(",")[1])
        assert val == traj.states[0, 0]

    def test_meta_counts_samples(self):
        traj = integrate_lv(PAIR, [2.0], [1.0], 1.0, n_samples=7)
        assert traj.meta["n_samples"] == traj.t.size == 7
        assert "n_accepted" not in traj.meta

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_grid_without_its_end_rejected(self, n_samples):
        # 0 samples raised AttributeError from inside _adaptive_run, and 1 kept
        # only t = 0, so states[-1] was not the end state
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            integrate_lv(PAIR, [2.0], [1.0], 1.0, n_samples=n_samples)

    def test_empty_t_eval_rejected(self):
        with pytest.raises(ValueError, match="t_eval"):
            integrate_lv(PAIR, [2.0], [1.0], 1.0, t_eval=[])

    def test_matches_block_formula_integration(self):
        system, _, rng = damped_factorizable(5)
        x0 = rng.uniform(0.5, 1.5, system.N)
        v0 = rng.uniform(0.5, 1.5, system.M)
        t_eval = np.linspace(0.0, 20.0, 81)
        traj = integrate_lv(system, x0, v0, 20.0, rtol=1e-10, atol=1e-12,
                            t_eval=t_eval)
        ref = solve_ivp(block_rhs(system), (0.0, 20.0),
                        np.log(np.concatenate((x0, v0))), method="DOP853",
                        rtol=1e-10, atol=1e-12, t_eval=t_eval)
        np.testing.assert_allclose(traj.states, np.exp(ref.y.T), rtol=1e-10)


class TestExpSumFlow:
    @pytest.mark.parametrize("case", FLOW_CASES)
    def test_lv_flow_is_block_formula(self, case):
        system, _, rng = flow_case(case)
        flow = _lv_flow(system)
        for _ in range(10):
            y = rng.normal(0.0, 2.0, system.N + system.M)
            x, v = np.exp(y[:system.N]), np.exp(y[system.N:])
            terms = np.concatenate((
                system.r + system.A @ v + system.Gamma @ x,
                system.rbar + system.B @ x + system.D @ v))
            assert_sum_close(exp_sum(*flow_terms(flow, 0.0, y)),
                             block_rhs(system)(0.0, y), terms)

    @pytest.mark.parametrize("case", FLOW_CASES)
    def test_transformed_flow_is_transformed_rhs(self, case):
        system, mu, rng = flow_case(case)
        csys = canonicalize(system, mu=mu)
        base, sigma = csys.base, csys.factors.sigma
        flow = _transformed_flow(csys)
        m = system.M
        for _ in range(10):
            state = CanonicalState(q=rng.normal(0.0, 1.0, m),
                                   p=rng.normal(0.0, 1.0, m),
                                   C=rng.uniform(0.2, 3.0, system.N))
            dq, dp, dC = transformed_rhs(csys, state)
            y = np.concatenate((state.q, state.p, np.log(state.C)))
            x = state.C * np.exp(base.A @ (state.q / sigma))
            v = np.exp(state.p)
            terms = np.concatenate((sigma * (v + csys.mu),
                                    base.rbar + base.B @ x + base.D @ v,
                                    np.abs(csys.gamma_bar) + base.Gamma @ x))
            assert_sum_close(exp_sum(*flow_terms(flow, 0.0, y)),
                             np.concatenate((dq, dp, dC / state.C)), terms)

    @pytest.mark.parametrize("limited", [False, True])
    def test_large_sparse_web_gets_csr(self, limited):
        system, mu, _ = hub_web(limited)
        n, m = system.N, system.M
        assert sparse.issparse(_lv_flow(system).L)
        csys = canonicalize(system, mu=mu)
        flow = _transformed_flow(csys)
        assert sparse.issparse(flow.L)
        # the canonical map K = [[0], [A / sigma]] is too small to pay
        K = _operator([[np.zeros((m, m))], [system.A / csys.factors.sigma]])
        assert type(K) is np.ndarray

    def test_small_systems_keep_dense_operators(self):
        # the tests' own systems and the c10 cases keep the dense operator,
        # and with it the bits they had before CSR
        def lv_operator(system):
            return _lv_flow(system).L

        for system, mu in [(PAIR, None)] + [damped_factorizable(seed)[:2]
                                            for seed in range(5)]:
            assert type(lv_operator(system)) is np.ndarray
            flow = _transformed_flow(canonicalize(system, mu=mu))
            assert type(flow.L) is np.ndarray
        for ts, _ in REGRESSION_SUITE:  # c10's systems do not factor
            assert type(lv_operator(ts.to_interaction_system())) is np.ndarray

    def test_right_hand_side_clips_exponents(self, monkeypatch):
        # the one right-hand side is c + L exp(z) with bits of np.exp inside
        # +-EXP_LIMIT, and stays finite where exp(z) overflows
        seen = capture_runs(monkeypatch)
        integrate_lv(PAIR, [2.0], [1.0], 1.0)
        (rhs, _), = seen
        y = np.array([29.0, -29.0])
        want = exp_sum(*flow_terms(_lv_flow(PAIR), 0.5, y))
        assert rhs(0.5, y).tobytes() == want.tobytes()
        dy = rhs(1.5, np.array([800.0, -31.0]))
        assert np.all(np.isfinite(dy))
        assert dy.tobytes() == rhs(2.0, np.array([700.0, -31.0])).tobytes()

    @pytest.mark.parametrize("case, run", [
        ("hub-limited", "lv"), ("hub-limited", "transformed"),
        (0, "transformed")], ids=["lv-csr", "transformed-csr", "transformed"])
    def test_right_hand_side_bits_for_each_operator(self, monkeypatch, case,
                                                    run):
        # the product is picked by operator type (ndarray.dot for dense, @
        # for CSR; the canonical map K is dense in both transformed cases)
        # and keeps the bits of c + L @ clipped_exp(z); the escape event
        # reads EXP_LIMIT - max|z| of the same z
        seen = capture_runs(monkeypatch)
        system, mu, rng = flow_case(case)
        if run == "lv":
            flow = _lv_flow(system)
            y = rng.normal(0.0, 2.0, system.N + system.M)
            integrate_lv(system, np.ones(system.N), mu, 0.1, n_samples=2)
        else:
            csys = canonicalize(system, mu=mu)
            flow = _transformed_flow(csys)
            y = rng.normal(0.0, 1.0, system.N + 2 * system.M)
            integrate_transformed(csys, to_canonical(
                csys, np.ones(system.N), mu), 0.1, n_samples=2)
        (rhs, escape), = seen
        y[0] = 800.0  # drives z past the clip in both flows
        c, L, z = flow_terms(flow, 0.5, y)
        assert sparse.issparse(L) == (case == "hub-limited")
        assert np.max(np.abs(z)) > EXP_LIMIT
        want = c + L @ clipped_exp(z)
        assert rhs(0.5, y).tobytes() == want.tobytes()
        assert escape(0.5, y) == EXP_LIMIT - np.max(np.abs(z))

    @pytest.mark.parametrize("part, wrong", [
        ("q", "q has 2"), ("p", "p has 2"), ("C", "C has 2")])
    def test_transformed_state_of_wrong_size_rejected(self, part, wrong):
        system, mu, _ = damped_factorizable(0)  # N = 4, M = 3
        csys = canonicalize(system, mu=mu)
        state = to_canonical(csys, np.ones(4), mu)
        state = CanonicalState(**{"q": state.q, "p": state.p, "C": state.C,
                                  part: np.ones(2)})
        with pytest.raises(ValueError, match=r"N = 4, M = 3\).*" + wrong):
            integrate_transformed(csys, state, 1.0)

    def test_transformed_exponent_overflow_is_escape(self):
        # x = C exp(100 q) with q' = v - mu = 1: ln x reaches 700 at t = 7
        # while q, p and ln C all stay far below the clamp
        system = InteractionSystem(r=[100.0], rbar=[0.0], A=[[100.0]],
                                   B=[[1e-304]])
        csys = canonicalize(system)
        traj = integrate_transformed(csys, to_canonical(csys, [1.0], [2.0]),
                                     50.0)
        assert traj.escaped
        assert traj.meta["escape_reason"] == "clamp"
        assert traj.escape_time == pytest.approx(7.0, rel=1e-3)
        assert np.max(np.abs(traj.states)) < 10.0

    def test_transformed_completes_where_a_q_alone_overflows(self):
        # ln x = ln C + 100 q runs from -691 to about 309 by t = 10, while
        # 100 q alone passes 700 at t = 7: x must come from the sum
        system = InteractionSystem(r=[100.0], rbar=[0.0], A=[[100.0]],
                                   B=[[1e-304]])
        direct = integrate_lv(system, [1e-300], [2.0], 10.0)
        assert not direct.escaped
        csys = canonicalize(system)
        traj = integrate_transformed(
            csys, to_canonical(csys, [1e-300], [2.0]), 10.0)
        assert not traj.escaped and traj.meta["escape_reason"] is None
        assert np.all(np.isfinite(traj.energy))
        m = system.M
        last = traj.states[-1]
        x, v = from_canonical(csys, CanonicalState(
            q=last[:m], p=last[m:2 * m], C=last[2 * m:]))
        assert x[0] == pytest.approx(2e134, rel=0.05)
        np.testing.assert_allclose(np.concatenate((x, v)),
                                   direct.states[-1], rtol=1e-6)


@contextmanager
def deadline(seconds=30):
    """Raise TimeoutError in a call still running after `seconds`, so a run
    that never ends fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


RESONANCE = ResonanceModel(omega1=1.0, omega2=1.0, g12=0.3, g21=-0.3,
                           ebar=0.0, qbar=(0.0, 0.0), d=(0.0, 0.0))
ADAPTIVE_RUNS = ["lv", "transformed", "slow_fast", "averaged", "resonance"]
# integrate_resonance solves its linear system exactly and has no tolerances
TOLERANCE_RUNS = ADAPTIVE_RUNS[:4]


class TestTolerances:
    """The five runs to a set end share one check of their span; the four
    adaptive ones also share one check of their tolerances."""

    @staticmethod
    def call(run, t_end=5.0, **tolerances):
        """One of the five runs to t_end, as a callable."""
        env, start = TestAdaptiveRun.ENV, TestAdaptiveRun.START
        if run == "lv":
            return lambda: integrate_lv(PAIR, [2.0], [1.0], t_end,
                                        **tolerances)
        if run == "transformed":
            csys = canonicalize(PAIR)
            return lambda: integrate_transformed(
                csys, to_canonical(csys, [2.0], [1.0]), t_end, **tolerances)
        if run == "slow_fast":
            return lambda: simulate_slow_fast(env, 0.0, 0.5, [1.0], t_end,
                                              **tolerances)
        if run == "averaged":
            return lambda: evolve_averaged(env, start, t_end, **tolerances)
        return lambda: integrate_resonance(RESONANCE, [1e-3, 1e-3],
                                           [0.0, 0.5], t_end)

    @pytest.mark.parametrize("rtol, atol", [(0.0, 1e-10), (1e-8, 0.0),
                                            (-1.0, 1e-10), (math.nan, 1e-10),
                                            (1e-8, math.inf)])
    @pytest.mark.parametrize("run", TOLERANCE_RUNS)
    def test_nonpositive_tolerance_rejected(self, run, rtol, atol):
        with deadline(), pytest.raises(ValueError,
                                       match="tolerances must be positive"):
            self.call(run, rtol=rtol, atol=atol)()

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("run", ADAPTIVE_RUNS)
    def test_non_finite_end_rejected(self, run, t_end):
        with deadline(), pytest.raises(
                ValueError, match=r"\(t_end or tau_end\) must be finite"):
            self.call(run, t_end)()

    @pytest.mark.parametrize("t_end", [0.0, -5.0])
    @pytest.mark.parametrize("run", ADAPTIVE_RUNS)
    def test_backward_or_empty_run_rejected(self, run, t_end):
        with deadline(), pytest.raises(
                ValueError, match="after its start"):
            self.call(run, t_end)()

    @pytest.mark.parametrize("h, t_end", [(math.nan, 5.0), (math.inf, 5.0),
                                          (1e-3, math.inf), (1e-3, math.nan)])
    def test_symplectic_rejects_non_finite_step_or_end(self, h, t_end):
        with pytest.raises(ValueError, match="h and t_end must be finite"):
            integrate_symplectic(UNIT_STAR, 0.0, 0.5, h, t_end)

    def test_first_return_rejects_non_finite_step(self):
        with pytest.raises(ValueError, match="h must be finite"):
            poincare_return_time(UNIT_STAR, 3.0, h=math.nan)

    @pytest.mark.parametrize("h", [-1e-3, 0.0])
    def test_first_return_rejects_nonpositive_step(self, h):
        # a backward step used to spend the whole step budget
        with pytest.raises(ValueError, match="h must be finite and positive"):
            poincare_return_time(UNIT_STAR, 3.0, h=h)

    @pytest.mark.parametrize("E", [math.inf, -math.inf, math.nan])
    def test_first_return_rejects_non_finite_energy(self, E):
        with pytest.raises(ValueError, match="E must be finite"):
            poincare_return_time(UNIT_STAR, E)

    def test_first_return_below_the_well(self):
        # the bottom of the unit star is E = 2
        with pytest.raises(EnergyBelowWellError, match="below the well bottom"):
            poincare_return_time(UNIT_STAR, 1.5)


class TestTrajectoryCsv:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   -2.5e-310, 2.2250738585072014e-308, 1.0 / 3.0, -1e300]
        states = np.array(special + list(np.random.default_rng(3).normal(
            0.0, 1e3, 10))).reshape(10, 2)
        traj = Trajectory(t=np.linspace(0.0, 0.9, 10), states=states,
                          labels=["q", "p"], energy=states[::-1, 0].copy())
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = ["t,q,p,H"] + [
            ",".join(format(float(v), ".17g")
                     for v in (traj.t[i], *traj.states[i], traj.energy[i]))
            for i in range(10)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestSymplectic:
    def test_fixed_point(self):
        traj = integrate_symplectic(UNIT_STAR, 0.0, math.log(1.0), 1e-3, 10.0)
        np.testing.assert_allclose(traj.states, 0.0, atol=1e-14)

    def test_energy_drift_bounded(self):
        q0, p0 = unit_orbit_start(3.0)
        traj = integrate_symplectic(UNIT_STAR, q0, p0, 1e-3, 100.0)
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-5

    def test_reversibility(self):
        q0, p0 = unit_orbit_start(3.0)
        fwd = integrate_symplectic(UNIT_STAR, q0, p0, 1e-3, 10.0, n_samples=3)
        q1, p1 = fwd.states[-1]
        back = integrate_symplectic(UNIT_STAR, q1, p1, -1e-3, -10.0, n_samples=3)
        assert abs(back.states[-1, 0] - q0) < 1e-9
        assert abs(back.states[-1, 1] - p0) < 1e-9

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_grid_without_its_end_rejected(self, n_samples):
        # each of these gave 2 samples without a word
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            integrate_symplectic(UNIT_STAR, *unit_orbit_start(3.0), 1e-3, 1.0,
                                 n_samples=n_samples)

    def test_long_run_bytes_pinned(self):
        # the benchmark's 10^6-step run on the unit star at E = 3
        traj = integrate_symplectic(UNIT_STAR, *unit_orbit_start(3.0), 1e-3,
                                    1000.0, n_samples=10001)
        digest = hashlib.sha256()
        for part in (traj.t, traj.states, traj.energy):
            digest.update(part.tobytes())
        assert digest.hexdigest() == (
            "7c41867c8e19790cabf752ffcda45afedffd359479bba0eef676face7690475c")

    @pytest.mark.parametrize("n_samples", (101, 7, 2))
    def test_one_force_per_step_and_block(self, monkeypatch, n_samples):
        # a step's closing half-kick and the next opening one share q
        calls = []
        scalar_forces = PotentialTerms.scalar_forces

        def counted(terms):
            dphi, phi = scalar_forces(terms)
            return (lambda q: calls.append(q) or dphi(q)), phi

        monkeypatch.setattr(PotentialTerms, "scalar_forces", counted)
        traj = integrate_symplectic(UNIT_STAR, *unit_orbit_start(3.0), 1e-3,
                                    10.0, n_samples=n_samples)
        n_steps, stride = traj.meta["n_steps"], traj.meta["stride"]
        n_blocks = -(-n_steps // stride)
        assert len(calls) == n_steps + n_blocks

    def test_first_return_matches_quadrature(self):
        T_section = poincare_return_time(UNIT_STAR, 3.0, h=1e-3)
        T_quad = period(UNIT_STAR, 3.0)
        assert T_section == pytest.approx(T_quad, rel=1e-4)

    def test_first_return_takes_one_force_per_step(self, monkeypatch):
        # c04's first return: the force of a step's closing half-kick opens
        # the next step, so the count is one per step plus the first
        calls = []
        scalar_forces = PotentialTerms.scalar_forces

        def counted(terms):
            dphi, phi = scalar_forces(terms)
            return (lambda q: calls.append(q) or dphi(q)), phi

        monkeypatch.setattr(PotentialTerms, "scalar_forces", counted)
        h = 1e-3
        T_section = poincare_return_time(UNIT_STAR, 3.0, h=h)
        steps = math.ceil(T_section / h)  # the return lies in the last step
        assert steps == 7369
        assert len(calls) == steps + 1

    def test_oversized_step_aborts(self):
        q0, p0 = unit_orbit_start(3.0)
        with pytest.raises(RuntimeError):
            integrate_symplectic(UNIT_STAR, q0, p0, 2.5, 5000.0, n_samples=2001)

    def test_escape_reported_not_raised(self):
        # Phi = -e^q - q has no well: p and q blow up in finite time, and
        # the stepper's math.exp overflows
        star = StarSystem(a=[1.0], b=[-1.0], rbar=1.0, mu=1.0)
        h = 1e-3
        traj = integrate_symplectic(star, 0.0, 0.0, h, 20.0)
        assert traj.escaped
        assert traj.escape_time == 967 * h  # the step that overflowed
        assert traj.meta["escape_reason"] == "clamp"
        assert np.all(np.isfinite(traj.states))
        assert np.all(np.isfinite(traj.energy))
        assert traj.t[-1] < traj.escape_time <= traj.t[-1] + traj.meta[
            "stride"] * h
        # the same blow-up in log space, from x = v = 1 (q = p = 0)
        direct = integrate_lv(star.to_interaction_system(), [1.0], [1.0],
                              20.0)
        assert direct.escaped
        assert abs(traj.escape_time - direct.escape_time) <= 2 * h
        bounded = integrate_symplectic(UNIT_STAR, *unit_orbit_start(3.0), h,
                                       5.0)
        assert not bounded.escaped and bounded.escape_time is None
        assert bounded.meta["escape_reason"] is None

    def test_first_return_escape_raises_no_return(self):
        # Phi = e^q - 0.1 e^{2q} - q: a well below a barrier, then a fall to
        # -inf.  Just below the barrier the orbit is periodic, but a step
        # this large carries it over the barrier, and it overflows
        star = StarSystem(a=[1.0, 2.0], b=[1.0, -0.2], rbar=1.0, mu=1.0)
        profile = analyze_potential(star)
        barrier = profile.barrier(profile.well()) + star.psi_min()
        assert poincare_return_time(star, barrier - 0.1) > 0.0
        assert classify_orbit(star, barrier - 1e-3).kind == "periodic"
        with pytest.raises(RuntimeError, match="no return.*escaped"):
            poincare_return_time(star, barrier - 1e-3, h=0.5)


def no_step(*args):
    raise AssertionError("the first return set up its stepper")


# (star, well bottom q, bottom energy, barrier energy) of every well; the
# unit star's well has no barrier, and 2 above its bottom stands in for one
FIRST_RETURN_WELLS = [
    (star, well.q, bottom, min(profile.barrier(well) + star.psi_min(),
                               bottom + 2.0))
    for star in (UNIT_STAR, TWO_SPECIES, DOUBLE_WELL)
    for profile in [analyze_potential(star)] for well in profile.minima()
    for bottom in [well.phi + star.psi_min()]]


class TestFirstReturnVerdict:
    """poincare_return_time runs only on the orbits period accepts."""

    @given(well=st.sampled_from(FIRST_RETURN_WELLS),
           frac=st.floats(0.05, 0.9))
    def test_first_return_is_the_period(self, well, frac):
        # c04's cross-check, 5% to 90% of the way up every well
        star, q_ref, bottom, top = well
        E = bottom + frac * (top - bottom)
        T = period(star, E, q_ref=q_ref)
        T_section = poincare_return_time(star, E, h=1e-3, q_ref=q_ref)
        assert abs(T_section - T) <= 1e-4 * T

    @pytest.mark.parametrize("E", [2.0, 2.0 - 1e-10])
    def test_equilibrium_takes_no_step(self, monkeypatch, E):
        # the unit star's bottom; both energies are within classify_orbit's
        # tolerance of it
        monkeypatch.setattr(PotentialTerms, "scalar_forces", no_step)
        with pytest.raises(ValueError, match="is equilibrium, not periodic"):
            poincare_return_time(UNIT_STAR, E)

    def test_unbounded_takes_no_step(self, monkeypatch):
        # Phi = e^q - 0.1 e^{2q} - q above its barrier
        star = StarSystem(a=[1.0, 2.0], b=[1.0, -0.2], rbar=1.0, mu=1.0)
        profile = analyze_potential(star)
        barrier = profile.barrier(profile.well()) + star.psi_min()
        monkeypatch.setattr(PotentialTerms, "scalar_forces", no_step)
        with pytest.raises(ValueError, match="is unbounded, not periodic"):
            poincare_return_time(star, barrier + 0.5)


class TestTransformed:
    def test_constants_stay_constant(self):
        csys = canonicalize(PAIR)
        s0 = to_canonical(csys, [2.0], [1.0])
        traj = integrate_transformed(csys, s0, 20.0, rtol=1e-10)
        np.testing.assert_allclose(traj.column("C1"), 2.0, rtol=1e-9)

    def test_energy_recorded_and_conserved(self):
        csys = canonicalize(PAIR)
        s0 = to_canonical(csys, [2.0], [1.0])
        traj = integrate_transformed(csys, s0, 100.0, rtol=1e-11, atol=1e-13)
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-8

    def test_equivalence_with_direct_integration(self):
        # mapped transformed trajectory against the population integrator
        rng = np.random.default_rng(21)
        A = rng.uniform(0.3, 1.2, (3, 2))
        rho = rng.uniform(0.5, 1.5, 3)
        sigma = np.array([1.0, rng.uniform(0.5, 1.5)])
        B = (rho[:, None] * A / sigma[None, :]).T
        mu = rng.uniform(0.8, 1.2, 2)
        xbar = rng.uniform(0.5, 1.5, 3)
        sys = InteractionSystem(r=A @ mu, rbar=B @ xbar, A=A, B=B)
        csys = canonicalize(sys, mu=mu)
        x0 = xbar * 1.05
        v0 = mu * 0.95
        t_eval = np.linspace(0.0, 10.0, 101)
        direct = integrate_lv(sys, x0, v0, 10.0, rtol=1e-10, atol=1e-12,
                              t_eval=t_eval)
        reduced = integrate_transformed(csys, to_canonical(csys, x0, v0), 10.0,
                                        rtol=1e-10, atol=1e-12, t_eval=t_eval)
        m = sys.M
        for k in range(t_eval.size):
            state = CanonicalState(q=reduced.states[k, :m],
                                   p=reduced.states[k, m:2 * m],
                                   C=reduced.states[k, 2 * m:])
            x, v = from_canonical(csys, state)
            np.testing.assert_allclose(x, direct.states[k, :3], rtol=1e-6)
            np.testing.assert_allclose(v, direct.states[k, 3:], rtol=1e-6)

    def test_weak_limitation_drifts_constants_linearly(self):
        # dC/dt = O(gamma): halving gamma should halve the drift rate
        drifts = []
        for gamma in (0.02, 0.01):
            sys = InteractionSystem(r=[1.0], rbar=[1.0], A=[[1.0]], B=[[1.0]],
                                    Gamma=[[gamma]])
            csys = canonicalize(sys, mu=[1.0])
            s0 = to_canonical(csys, [2.0], [1.0])
            traj = integrate_transformed(csys, s0, 5.0, rtol=1e-10)
            C = traj.column("C1")
            drifts.append(abs(C[-1] - C[0]) / 5.0)
        assert drifts[0] == pytest.approx(2.0 * drifts[1], rel=0.1)

    def test_overflowing_constants_do_not_end_the_run(self):
        # gamma_bar = 1 makes ln C grow like t, so C passes the largest float
        # near t = 709, while ln x = ln C + q stays on the periodic orbit
        csys = canonicalize(PAIR, mu=[2.0])
        with np.errstate(over="ignore"):
            traj = integrate_transformed(csys, to_canonical(csys, [2.0], [1.0]),
                                         800.0)
        assert not traj.escaped
        assert traj.column("C1")[-1] == np.inf
        assert np.all(np.isfinite(traj.energy))

    @pytest.mark.parametrize("case", ["pair", 0, "hub", "hub-limited"])
    def test_energy_matches_hamiltonian(self, case):
        # the recorded H against canonical.hamiltonian at every sample, to
        # 4 eps of the summed magnitudes of its terms
        if case == "pair":
            csys, t_end = canonicalize(PAIR, mu=[2.0]), 600.0
            s0 = to_canonical(csys, [2.0], [1.0])
        else:
            system, mu, rng = flow_case(case)
            csys, t_end = canonicalize(system, mu=mu), 5.0
            s0 = to_canonical(csys, rng.uniform(0.5, 1.5, system.N),
                              mu * rng.uniform(0.8, 1.2, system.M))
        traj = integrate_transformed(csys, s0, t_end)
        m = csys.base.M
        sigma, rho = csys.factors.sigma, csys.factors.rho
        for k in range(traj.t.size):
            q, p = traj.states[k, :m], traj.states[k, m:2 * m]
            state = CanonicalState(q=q, p=p, C=traj.states[k, 2 * m:])
            x, v = from_canonical(csys, state)
            terms = np.concatenate((sigma * v, rho * x, csys.base.rbar * q,
                                    sigma * csys.mu * p))
            assert abs(traj.energy[k] - hamiltonian(csys, state)) <= (
                4.0 * np.finfo(float).eps * np.sum(np.abs(terms)))


class TestAdaptiveRun:
    """Every adaptive run goes through one driver, which owns failure."""

    ENV = SlowEnvironment(a=CoefficientPath.constant([1.0]),
                          b=CoefficientPath.constant([1.0]),
                          rbar=CoefficientPath.constant(1.0), mu=1.0,
                          epsilon=0.01)
    START = AveragedState(tau=0.0, E=2.5, Cbar=[1.0])

    class CollapsingStepper:
        """A stepper whose first step fails, as a collapsed step size does."""

        def __init__(self, fun, t0, y0, t_bound, **options):
            self.t, self.status = t0, "running"

        def step(self):
            self.status = "failed"
            return "step size collapsed"

    @pytest.mark.parametrize("run", ["lv", "averaged"])
    def test_solver_failure_raises(self, monkeypatch, run):
        for method in integrate._STEPPERS:
            monkeypatch.setitem(integrate._STEPPERS, method,
                                self.CollapsingStepper)
        if run == "lv":
            # the flow never saw a diverged state, so this is no escape
            call = lambda: integrate_lv(PAIR, [2.0], [1.0], 5.0)
        else:
            call = lambda: evolve_averaged(self.ENV, self.START, 1.0)
        with pytest.raises(RuntimeError, match="step size collapsed"):
            call()

    @pytest.mark.parametrize("t_eval", [[0.0, 0.5, 0.2], [0.0, 0.5, 0.5],
                                        [0.0, 1.5], [-0.1, 0.5]],
                             ids=["unsorted", "repeated", "after-end",
                                  "before-start"])
    def test_grid_out_of_order_or_span_rejected(self, t_eval):
        with pytest.raises(ValueError, match="t_eval"):
            integrate_lv(PAIR, [2.0], [1.0], 1.0, t_eval=t_eval)

    def test_grid_point_at_the_end_sampled(self):
        # the grid does not move the steps, so t_end reads the same state
        # as on the default grid
        traj = integrate_lv(PAIR, [2.0], [1.0], 1.0, t_eval=[0.25, 1.0])
        assert traj.t.tolist() == [0.25, 1.0]
        end = integrate_lv(PAIR, [2.0], [1.0], 1.0).states[-1]
        assert traj.states[-1].tobytes() == end.tobytes()

    @pytest.mark.parametrize("t_eval, kept", [
        ([0.0, 3.0, 6.9, 7.1, 20.0], [0.0, 3.0, 6.9]),
        ([7.1, 20.0], [])], ids=["some", "none"])
    def test_no_samples_after_a_terminal_stop(self, t_eval, kept):
        # ln x grows at rate 100 and is stopped at t = 7; a grid wholly
        # after the stop used to fail on solve_ivp's empty sample list
        system = InteractionSystem(r=[-100.0], rbar=[0.0], A=[[0.0]],
                                   B=[[0.0]])
        traj = integrate_lv(system, [1.0], [1.0], 50.0, t_eval=t_eval)
        assert traj.meta["escape_reason"] == "clamp"
        assert traj.t.tolist() == kept
        assert traj.states.shape == (len(kept), 2)

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, x0):
        with pytest.raises(ValueError, match="finite"):
            integrate_lv(PAIR, [x0], [1.0], 1.0)

    def test_averaged_meta_names_the_run(self):
        avg = evolve_averaged(self.ENV, self.START, 0.5, n_samples=11)
        assert avg.meta["method"] == "RK45"
        assert avg.meta["n_samples"] == avg.tau.size == 11


class PerStepDOP853(DOP853):
    """scipy's DOP853 under another type, which _adaptive_run samples with one
    dense output call per step, as it does RK45."""


def exp_sum_flow(seed, n, escape):
    """A bounded flow y' = c + L exp(y) of n unknowns: diagonally dominant
    decay with about three couplings a row.  With escape, y[0] grows alone
    at a rate of 100 to 400 and reaches the clamp at t = 1.75 to 7."""
    rng = np.random.default_rng(seed)
    couple = rng.random((n, n)) < 3.0 / n
    L = (np.where(couple, rng.uniform(-0.1, 0.1, (n, n)), 0.0)
         - np.diag(rng.uniform(0.5, 1.5, n)))
    c = rng.uniform(-1.0, 1.0, n)
    if escape:
        L[0], L[:, 0], c[0] = 0.0, 0.0, rng.uniform(100.0, 400.0)
    return integrate._Flow(c, L, None, None)


def block_flow(kind, seed, n, escape):
    """(flow, y0) of a flow the block sampler meets.  exp-sum has n
    unknowns; transformed is a damped four-prey, three-hub system (a dense
    operator), transformed-csr a limited 300-prey, 30-hub web (CSR); and
    slow-fast a star of 1 + n % 4 prey under drifting coefficients, whose
    c, L and K move with t.  With escape, a log constant grows at a rate of
    100 to 400 and the run stops at the clamp (the escaping @examples below
    stop with sampled steps pending)."""
    rng = np.random.default_rng(seed)
    rate = rng.uniform(100.0, 400.0) if escape else 0.0
    if kind == "exp-sum":
        return exp_sum_flow(seed, n, escape), np.zeros(n)
    if kind == "slow-fast":
        env = random_environment(rng, 1 + n % 4, ["table", "analytic"][n % 2])
        if escape:
            env = dataclasses.replace(env, gamma_hat=env.gamma_hat + rate / (
                env.epsilon * env.beta))
        y0 = np.concatenate(([0.0, 0.3], rng.uniform(-0.5, 0.5, 1 + n % 4)))
        return _slow_fast_flow(env, 1 + n % 4), y0
    system, mu, rng = (damped_factorizable(seed) if kind == "transformed"
                       else hub_web(limited=True, seed=seed))
    csys = canonicalize(system, mu=mu)
    gamma_bar = csys.gamma_bar.copy()
    gamma_bar[0] += rate
    csys = dataclasses.replace(csys, gamma_bar=gamma_bar)
    s0 = to_canonical(csys, rng.uniform(0.5, 1.5, system.N),
                      mu * rng.uniform(0.8, 1.2, system.M))
    return (_transformed_flow(csys),
            np.concatenate((s0.q, s0.p, np.log(s0.C))))


def lanes_rhs(flow):
    """c + L exp(y) of a flow with z = y, of one state (ndarray.dot) or of
    lanes (stacked)."""
    c, L = flow.c, flow.L

    def rhs(t, y):
        if type(t) is np.ndarray:
            return c + integrate._lanes_product(L, np.exp(y))
        return c + L.dot(np.exp(y))
    return rhs


class TestBlockSamples:
    """A DOP853 run evaluates the dense outputs of many steps at once, extra
    stages included, and their samples in one pass of scipy's Horner loop
    (integrate._dop853_samples), bit for bit the dense output calls of each
    step."""

    def test_reads_scipys_stages(self):
        # the block reads, after step(), the 13 stages in K_extended[:13],
        # h_previous, t_old, y_old and y, and scipy's A_EXTRA, C_EXTRA and
        # D; its F is dense_output().F: a scipy that moves any of them
        # fails here.  K_extended[13:] holds the extra stages of the last
        # dense output, which the block does not read.
        assert DOP853.A_EXTRA.shape == (3, 16)
        assert DOP853.C_EXTRA.shape == (3,)
        assert DOP853.D.shape == (4, 16)
        n = 5
        flow = exp_sum_flow(0, n, escape=False)
        solver = DOP853(lanes_rhs(flow), 0.0, np.zeros(n), 5.0, rtol=1e-8,
                        atol=1e-10)
        steps, dense = [], []
        while solver.status == "running":
            y_old, f_old = solver.y, solver.f
            solver.step()
            assert solver.K_extended.shape == (16, n)
            assert solver.K.shape == (13, n)
            assert np.shares_memory(solver.K, solver.K_extended[:13])
            assert solver.K[0].tobytes() == f_old.tobytes()
            assert solver.K[12].tobytes() == solver.f.tobytes()
            assert solver.h_previous == solver.t - solver.t_old
            assert solver.y_old is y_old
            steps.append((solver.t_old, solver.h_previous, solver.y_old,
                          solver.y, solver.K_extended.copy()))
            sol = solver.dense_output()
            assert sol.F.shape == (7, n) and sol.F.dtype == np.float64
            assert sol.t_old == solver.t_old and sol.h == solver.h_previous
            assert sol.y_old is y_old
            dense.append(sol.F)
        assert len(steps) > 10
        t_old, h, y_old, y, K = map(np.array, zip(*steps))
        K[:, 13:] = np.nan  # the block fills in the extra stages itself
        F = integrate._dop853_interpolants(lanes_rhs(flow), t_old, h, y_old,
                                           y, K)
        assert F.tobytes() == np.array(dense).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["exp-sum", "transformed", "transformed-csr",
                                 "slow-fast"]),
           seed=st.integers(0, 2 ** 16), n=st.integers(1, 330),
           escape=st.booleans(), t_end=st.floats(0.5, 10.0),
           n_samples=st.integers(2, 2000),
           per_block=st.none() | st.integers(0, 6))
    @example(kind="exp-sum", seed=0, n=1, escape=False, t_end=10.0,
             n_samples=2, per_block=None)  # steps with no sample
    @example(kind="exp-sum", seed=1, n=3, escape=False, t_end=0.5,
             n_samples=2000, per_block=2)  # many samples a step and block
    @example(kind="exp-sum", seed=2, n=4, escape=True, t_end=10.0,
             n_samples=1500, per_block=None)  # the stop inside the block
    @example(kind="exp-sum", seed=3, n=330, escape=True, t_end=5.0,
             n_samples=1001, per_block=3)
    @example(kind="transformed", seed=4, n=1, escape=True, t_end=10.0,
             n_samples=1500, per_block=0)  # one step a block up to the stop
    @example(kind="transformed", seed=5, n=1, escape=False, t_end=10.0,
             n_samples=700, per_block=None)
    @example(kind="transformed-csr", seed=6, n=1, escape=True, t_end=5.0,
             n_samples=1001, per_block=0)
    @example(kind="transformed-csr", seed=7, n=1, escape=False, t_end=2.0,
             n_samples=300, per_block=None)
    @example(kind="slow-fast", seed=8, n=3, escape=True, t_end=10.0,
             n_samples=2000, per_block=0)
    @example(kind="slow-fast", seed=9, n=2, escape=False, t_end=10.0,
             n_samples=1001, per_block=None)
    def test_block_samples_are_the_per_step_calls(self, kind, seed, n, escape,
                                                  t_end, n_samples, per_block):
        flow, y0 = block_flow(kind, seed, n, escape)
        blocks, sample = [], integrate._dop853_samples

        def spy(rhs, t_eval, end, pending, stages):
            blocks.append(len(pending))
            return sample(rhs, t_eval, end, pending, stages)

        def run():
            return integrate._solve_log_system(flow, y0, t_end, 1e-8, 1e-10,
                                               n_samples, None)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrate, "_dop853_samples", spy)
            if per_block is not None:  # 0 still holds one step a block
                mp.setattr(integrate, "_SAMPLE_BLOCK_BYTES",
                           per_block * 13 * 8 * y0.size)
            t, y, report = run()
            n_blocks = len(blocks)
            assert n_blocks and (per_block is None
                                 or max(blocks) <= max(1, per_block))
            mp.setitem(integrate._STEPPERS, "DOP853", PerStepDOP853)
            t_ref, y_ref, report_ref = run()
            assert len(blocks) == n_blocks  # the per-step path
        assert t.tobytes() == t_ref.tobytes()
        assert y.shape == y_ref.shape and y.tobytes() == y_ref.tobytes()
        assert report == report_ref

    def test_web_run_blocks_within_budget(self, monkeypatch):
        # 330 unknowns, 1001 samples over about 750 steps: 30 steps of
        # stages a block, where a whole run would hold 26 MB of them
        system, mu, rng = hub_web(limited=False)
        held, sample = [], integrate._dop853_samples

        def spy(rhs, t_eval, end, pending, stages):
            held.append((stages[:len(pending), :13].nbytes,
                         sum(step[4] for step in pending)))
            return sample(rhs, t_eval, end, pending, stages)

        monkeypatch.setattr(integrate, "_dop853_samples", spy)
        traj = integrate_lv(system, rng.uniform(0.5, 1.5, system.N),
                            mu * rng.uniform(0.8, 1.2, system.M), 20.0)
        assert traj.t.size == sum(count for _, count in held) == 1001
        assert len(held) > 1
        assert max(nbytes for nbytes, _ in held) <= (
            integrate._SAMPLE_BLOCK_BYTES)


class TestLanesProduct:
    """The product contract the block relies on, on random operators: the
    stacked np.matmul is, lane for lane, ndarray.dot (the flows' c + L e)
    and scipy's per-step np.dot (DOP853's dy = K[:s].T a[:s] and D K), and
    a CSR operator's product over the lanes is @ on each.

    One gemm over the lanes, (L @ E.T).T, is not: with scipy-openblas on
    x86-64 it is off by up to 3.6e-15 at n = 6, so it must not replace the
    stacked form."""

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 7, 31, 330])
    @pytest.mark.parametrize("k", [1, 2, 5, 39])
    def test_stacked_matmul_is_each_lanes_dot(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        L, E = rng.normal(size=(n, n)), rng.normal(size=(k, n))
        want = np.array([L.dot(e) for e in E])
        assert integrate._lanes_product(L, E).tobytes() == want.tobytes()
        # a stack of one operator a lane keeps each lane's dot as well
        Ls = rng.normal(size=(k, n + 2, n))
        want = np.array([Ls[i].dot(E[i]) for i in range(k)])
        assert integrate._lanes_product(Ls, E).tobytes() == want.tobytes()
        K = rng.normal(size=(k, 16, n))
        for s, a in zip(range(13, 16), DOP853.A_EXTRA):
            want = np.array([np.dot(K[i, :s].T, a[:s]) for i in range(k)])
            got = np.matmul(K[:, :s].transpose(0, 2, 1), a[:s])
            assert got.tobytes() == want.tobytes()
        want = np.array([np.dot(DOP853.D, K[i]) for i in range(k)])
        assert np.matmul(DOP853.D, K).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 40, 330])
    @pytest.mark.parametrize("k", [1, 4, 39])
    def test_csr_block_is_each_rows_product(self, n, k):
        rng = np.random.default_rng(n + k)
        L = sparse.random_array((n, n), density=0.1, format="csr", rng=rng)
        E = rng.normal(size=(k, n))
        want = np.array([L @ e for e in E])
        assert integrate._lanes_product(L, E).tobytes() == want.tobytes()


def trajectory_digest(traj):
    """sha256 of the samples, the states, H when recorded, and nfev."""
    h = hashlib.sha256()
    for part in (traj.t, traj.states, traj.energy):
        if part is not None:
            h.update(part.tobytes())
    h.update(str(traj.meta["nfev"]).encode())
    return h.hexdigest()


def resonance_run(index):
    """A c10 case to t = 300 from the bench's start: v1 off by a factor e^0.01."""
    ts = REGRESSION_SUITE[index][0]
    x = np.concatenate((ts.star1.C, ts.star2.C))
    v = np.array([ts.star1.mu * math.exp(1e-2), ts.star2.mu])
    return integrate_lv(ts.to_interaction_system(), x, v, 300.0,
                        n_samples=401)


def hub_run(case):
    system, mu, rng = flow_case(case)
    csys = canonicalize(system, mu=mu)
    s0 = to_canonical(csys, rng.uniform(0.5, 1.5, system.N),
                      mu * rng.uniform(0.8, 1.2, system.M))
    return integrate_transformed(csys, s0, 20.0)


def burst_run():
    """The c11 burst drive: the double well tilted by rbar = 1.2 tau."""
    drive = SlowEnvironment(
        a=CoefficientPath.constant(DOUBLE_WELL.a),
        b=CoefficientPath.constant(DOUBLE_WELL.b),
        rbar=CoefficientPath.from_callable(lambda tau: 1.2 * tau,
                                           lambda tau: 1.2),
        mu=1.0, epsilon=0.01, dbar=0.0)
    bottom = (min(e.phi for e in analyze_potential(DOUBLE_WELL).extrema)
              + DOUBLE_WELL.psi_min())
    q0 = -math.log(2.0)
    p0, _ = _psi_roots(1.0, bottom + 0.2 - float(DOUBLE_WELL.terms().phi(q0)))
    return simulate_slow_fast(drive, q0, p0, np.ones(4), 100.0, rtol=1e-10,
                              n_samples=10001)


class TestPinnedTrajectories:
    """Log-space runs keep their bytes: a change to the right-hand side, the
    escape event or the driver that moves one bit or one evaluation fails.
    The digests hold for numpy 2.4 on x86-64 with AVX-512, whose vectorised
    exp can differ by one ulp from other builds."""

    @pytest.mark.parametrize("run, digest", [
        (lambda: resonance_run(4),
         "597c336ddb62d33f45a5a0aa6088f832be7ce30b764199b1956d4b51b0deabfb"),
        (lambda: resonance_run(3),
         "2928ebe52ab2cbf128377d5f43f516ec73dfc966601ffc90501d08880e42350f"),
        (lambda: resonance_run(8),
         "0b652b0886fee6f54fd5e044f32bf93aa6e3c4facdfbc12eed39dd4a26e86e55"),
        (lambda: resonance_run(11),
         "7b206d80e2470c25799d75ac6ea0eb4af43fc80b12c5931061dbec7b74279cda"),
        (lambda: hub_run("hub"),
         "6b6921a3348e476f97eb0eba054c4dbfd6c2141bb154b639a51ef646399b41fa"),
        (lambda: hub_run("hub-limited"),
         "b4527ccfcb90a768e80a26609ceddc656eabcb76d49125fb42af6027aafd5dd3"),
        (burst_run,
         "386b309162b510697f2ea9674fc031bf71afe4ddf00fe91309d94101244ccf02"),
    ], ids=["unstable", "stable_two_species", "damped", "damped_two_species",
            "hub", "hub-limited", "burst"])
    def test_trajectory_bytes_pinned(self, run, digest):
        assert trajectory_digest(run()) == digest


def run_digest(arrays, stop_time, nfev):
    """sha256 of the arrays' bytes, the stop time as float.hex() (or None)
    and nfev; trajectory_digest stays as it is, so its pins hold."""
    h = hashlib.sha256()
    for part in arrays:
        h.update(np.ascontiguousarray(part).tobytes())
    h.update(str(None if stop_time is None else stop_time.hex()).encode())
    h.update(str(nfev).encode())
    return h.hexdigest()


def escape_digest(traj):
    return run_digest((traj.t, traj.states), traj.escape_time,
                      traj.meta["nfev"])


def clamp_run():
    """A DOP853 clamp escape, sampled up to the root of its exponent stop:
    ln x grows at rate 100 + v while x, once near e^700, drains v."""
    system = InteractionSystem(r=[-100.0], rbar=[0.0], A=[[1.0]],
                               B=[[1e-304]])
    return integrate_lv(system, [1.0], [2.0], 50.0)


def diverged_run():
    """x' = x^2 from x = 0.01, which blows up at T = 100 (a case of
    test_blow_up_diverges_at_closed_form_time)."""
    system = InteractionSystem(r=[0.0], rbar=[0.0], A=[[0.0]], B=[[0.0]],
                               Gamma=[[-1.0]])
    return integrate_lv(system, [0.01], [1.0], 201.0)


def irregular_grid_run():
    """Uneven samples that end before t_end."""
    system, _, rng = damped_factorizable(1)
    return integrate_lv(system, rng.uniform(0.5, 1.5, system.N),
                        rng.uniform(0.5, 1.5, system.M), 10.0,
                        t_eval=[0.0, 0.1, 0.35, 1.0, 2.5, 2.6, 7.0])


def stabilized_run():
    """The damped unit star averaged to tau = 1, which ends "stabilized"."""
    env = SlowEnvironment(a=CoefficientPath.constant([1.0]),
                          b=CoefficientPath.constant([1.0]),
                          rbar=CoefficientPath.constant(1.0), mu=1.0,
                          epsilon=0.01, dbar=1.0)
    avg = evolve_averaged(env, AveragedState(tau=0.0, E=3.0, Cbar=[1.0]), 1.0)
    event, = avg.events
    assert event.kind == "stabilized"
    return run_digest((avg.tau, avg.E, avg.Cbar), event.tau, avg.meta["nfev"])


def clamp_start_run(r, ln_x0):
    """A start on the clamp, ln x0 = +-700 exactly, with ln x moving at -r."""
    system = InteractionSystem(r=[r], rbar=[-1.0], A=[[0.0]], B=[[0.0]])
    return integrate_lv(system, [math.exp(ln_x0)], [1.0], 2.0, n_samples=5)


def slow_fast_run():
    """The unit star under a damped, slowly tilted environment to t = 10."""
    env = SlowEnvironment(a=CoefficientPath.constant([1.0]),
                          b=CoefficientPath.constant([1.0]),
                          rbar=CoefficientPath.from_callable(
                              lambda tau: 1.0 + tau, lambda tau: 1.0),
                          mu=1.0, epsilon=0.01, dbar=0.5)
    traj = simulate_slow_fast(env, 0.0, 0.5, [1.0], 10.0, n_samples=101)
    return run_digest((traj.t, traj.states, traj.energy), traj.escape_time,
                      traj.meta["nfev"])


class TestPinnedRuns:
    """The paths of the adaptive driver that TestPinnedTrajectories does not
    reach keep their bytes too: a terminal root and the samples up to it, a
    diverged stop, an uneven grid, and the RK45 and slow-fast runs.  The
    digests add the stop time's hex, so a root that moves one ulp fails."""

    @pytest.mark.parametrize("run, reason, digest", [
        (clamp_run, "clamp",
         "e9946833d5557b8be1126701229f9e4925a6be6e0948e9a2ab3508391310aab0"),
        (diverged_run, "diverged",
         "93adaf63cee369321979f3844d816e77d218aef14377e71c1bf597e2d41ba35c"),
        (irregular_grid_run, None,
         "c4f8a8e8efc1d0f0cdc5610ad777e7b6f9d45f9ce071d3dd333b38277f2c48c2"),
        (lambda: clamp_start_run(-1.0, 700.0), "clamp",
         "3a3b4042959e76d0c204892d82afb96a624124391fcc4f0c2c31d7cb311c0796"),
        (lambda: clamp_start_run(1.0, 700.0), None,
         "2507504074c6a5b5c659100443588b711d4fa4a510ee06c34eb996b6ac447dad"),
        (lambda: clamp_start_run(1.0, -700.0), "clamp",
         "f68ea5b746cc521c60d29ebf179e0024cbd4365a776c594e34e565e658be7cfa"),
        (lambda: clamp_start_run(-1.0, -700.0), None,
         "61080ee61c17939005188d0b73b05d0cdf08efe6f385d69fefba252fe7493462"),
    ], ids=["clamp", "diverged", "irregular-grid", "on-clamp-outward",
            "on-clamp-inward", "on-lower-clamp-outward",
            "on-lower-clamp-inward"])
    def test_lv_run_bytes_pinned(self, run, reason, digest):
        traj = run()
        assert traj.meta["escape_reason"] == reason
        assert escape_digest(traj) == digest

    @pytest.mark.parametrize("run, digest", [
        (stabilized_run,
         "49a3a4da820e4c8fd6472678a552df2bc66dad92fa19b00a01002b65b3718947"),
        (slow_fast_run,
         "94cb29b4594d837733475fa08e3c22ba48c14d1ccc1a711de47ee3d03e32b58b"),
    ], ids=["averaged-stabilized", "slow-fast"])
    def test_run_bytes_pinned(self, run, digest):
        assert run() == digest
