import hashlib
import math
import signal
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import solve_ivp

from hamlv import integrate
from hamlv.averaging import (AveragedState, CoefficientPath, SlowEnvironment,
                             evolve_averaged, simulate_slow_fast)
from hamlv.canonical import (CanonicalState, canonicalize, from_canonical,
                             hamiltonian, motion_integral, to_canonical)
from hamlv.integrate import (Trajectory, _lv_flow, _operator,
                             _transformed_flow, integrate_lv,
                             integrate_symplectic, integrate_transformed,
                             poincare_return_time)
from hamlv.model import InteractionSystem
from hamlv.resonance import ResonanceModel, integrate_resonance
from hamlv.star import (EnergyBelowWellError, StarSystem, _psi_roots,
                        analyze_potential, classify_orbit, period)
from oracle import transformed_rhs
from test_acceptance import DOUBLE_WELL, REGRESSION_SUITE, TWO_SPECIES

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


def block_rhs(system):
    """The log-space population system written out block by block."""
    n = system.N

    def rhs(t, y):
        x, v = np.exp(y[:n]), np.exp(y[n:])
        return np.concatenate((-system.r + system.A @ v - system.Gamma @ x,
                               system.rbar - system.B @ x - system.D @ v))
    return rhs


def exp_sum(c, L, z):
    """The right-hand side c + L exp(z) of a flow's terms."""
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
            assert_sum_close(exp_sum(*flow(0.0, y)), block_rhs(system)(0.0, y),
                             terms)

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
            assert_sum_close(exp_sum(*flow(0.0, y)),
                             np.concatenate((dq, dp, dC / state.C)), terms)

    @pytest.mark.parametrize("limited", [False, True])
    def test_large_sparse_web_gets_csr(self, limited):
        system, mu, _ = hub_web(limited)
        n, m = system.N, system.M
        assert sparse.issparse(_lv_flow(system)(0.0, np.zeros(n + m))[1])
        csys = canonicalize(system, mu=mu)
        flow = _transformed_flow(csys)
        assert sparse.issparse(flow(0.0, np.zeros(n + 2 * m))[1])
        # the canonical map K = [[0], [A / sigma]] is too small to pay
        K = _operator([[np.zeros((m, m))], [system.A / csys.factors.sigma]])
        assert type(K) is np.ndarray

    def test_small_systems_keep_dense_operators(self):
        # the tests' own systems and the c10 cases keep the dense operator,
        # and with it the bits they had before CSR
        def lv_operator(system):
            return _lv_flow(system)(0.0, np.zeros(system.N + system.M))[1]

        for system, mu in [(PAIR, None)] + [damped_factorizable(seed)[:2]
                                            for seed in range(5)]:
            assert type(lv_operator(system)) is np.ndarray
            flow = _transformed_flow(canonicalize(system, mu=mu))
            y = np.zeros(system.N + 2 * system.M)
            assert type(flow(0.0, y)[1]) is np.ndarray
        for ts, _ in REGRESSION_SUITE:  # c10's systems do not factor
            assert type(lv_operator(ts.to_interaction_system())) is np.ndarray

    def test_right_hand_side_clips_exponents(self, monkeypatch):
        # the one right-hand side is c + L exp(z) with bits of np.exp inside
        # +-EXP_LIMIT, and stays finite where exp(z) overflows
        seen = []

        def capture(rhs, *args, **kwargs):
            seen.append(rhs)
            return solve_ivp(rhs, *args, **kwargs)

        monkeypatch.setattr(integrate, "solve_ivp", capture)
        integrate_lv(PAIR, [2.0], [1.0], 1.0)
        rhs, = seen
        y = np.array([29.0, -29.0])
        want = exp_sum(*_lv_flow(PAIR)(0.5, y))
        assert rhs(0.5, y).tobytes() == want.tobytes()
        dy = rhs(1.5, np.array([800.0, -31.0]))
        assert np.all(np.isfinite(dy))
        assert dy.tobytes() == rhs(2.0, np.array([700.0, -31.0])).tobytes()

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

    def test_first_return_matches_quadrature(self):
        T_section = poincare_return_time(UNIT_STAR, 3.0, h=1e-3)
        T_quad = period(UNIT_STAR, 3.0)
        assert T_section == pytest.approx(T_quad, rel=1e-4)

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
    raise AssertionError("the first return took a step")


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
        monkeypatch.setattr(integrate, "_verlet", no_step)
        with pytest.raises(ValueError, match="is equilibrium, not periodic"):
            poincare_return_time(UNIT_STAR, E)

    def test_unbounded_takes_no_step(self, monkeypatch):
        # Phi = e^q - 0.1 e^{2q} - q above its barrier
        star = StarSystem(a=[1.0, 2.0], b=[1.0, -0.2], rbar=1.0, mu=1.0)
        profile = analyze_potential(star)
        barrier = profile.barrier(profile.well()) + star.psi_min()
        monkeypatch.setattr(integrate, "_verlet", no_step)
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

    @staticmethod
    def failed_solve(*args, **kwargs):
        return SimpleNamespace(status=-1, message="step size collapsed")

    @pytest.mark.parametrize("run", ["lv", "averaged"])
    def test_solver_failure_raises(self, monkeypatch, run):
        monkeypatch.setattr(integrate, "solve_ivp", self.failed_solve)
        if run == "lv":
            # the flow never saw a diverged state, so this is no escape
            call = lambda: integrate_lv(PAIR, [2.0], [1.0], 5.0)
        else:
            call = lambda: evolve_averaged(self.ENV, self.START, 1.0)
        with pytest.raises(RuntimeError, match="step size collapsed"):
            call()

    def test_averaged_meta_names_the_run(self):
        avg = evolve_averaged(self.ENV, self.START, 0.5, n_samples=11)
        assert avg.meta["method"] == "RK45"
        assert avg.meta["n_samples"] == avg.tau.size == 11


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
