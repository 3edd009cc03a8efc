import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hamlv
from hamlv.averaging import (AveragedState, CoefficientPath, OrbitLostError,
                             SlowEnvironment, averaged_rhs, detect_bursts,
                             evolve_averaged, mu_balance, orbit_averages,
                             simulate_slow_fast)
from hamlv.averaging import _slow_fast_flow
from hamlv.canonical import star_equilibrium
from hamlv.integrate import Trajectory, integrate_lv, integrate_symplectic
from hamlv.star import (EnergyBelowWellError, StarSystem, _psi_roots,
                        analyze_potential, period)
from oracle import slow_fast_rhs

EPS = np.finfo(float).eps

UNIT = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)


def unit_env(**kw):
    defaults = dict(a=CoefficientPath.constant([1.0]),
                    b=CoefficientPath.constant([1.0]),
                    rbar=CoefficientPath.constant(1.0),
                    mu=1.0, epsilon=0.01)
    defaults.update(kw)
    return SlowEnvironment(**defaults)


class TestPeriodAverage:
    def test_average_of_one(self):
        assert orbit_averages(UNIT, 3.0, [lambda q, p: 1.0])[0] == pytest.approx(1.0)

    def test_degenerate_orbit_point_evaluation(self):
        val = orbit_averages(UNIT, 2.0, [lambda q, p: math.exp(q)])[0]
        assert val == pytest.approx(1.0)

    def test_linearity(self):
        f = lambda q, p: math.exp(q)
        g = lambda q, p: q * q
        lhs = orbit_averages(UNIT, 3.0, [lambda q, p: 2.5 * f(q, p) + g(q, p)])[0]
        avg_f, avg_g = orbit_averages(UNIT, 3.0, [f, g])
        rhs = 2.5 * avg_f + avg_g
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_matches_time_average_along_trajectory(self):
        # oracle: simulate 50 periods symplectically and average in time
        E = 3.0
        T = period(UNIT, E)
        p0, _ = _psi_roots(1.0, E - 1.0)
        traj = integrate_symplectic(UNIT, 0.0, p0, 1e-3, 50.0 * T,
                                    n_samples=200001)
        for f in (lambda q, p: math.exp(q), lambda q, p: q):
            quad = orbit_averages(UNIT, E, [f])[0]
            vals = [f(q, p) for q, p in traj.states]
            time_avg = np.trapezoid(vals, traj.t) / (traj.t[-1] - traj.t[0])
            assert quad == pytest.approx(time_avg, abs=1e-4 * max(1, abs(quad)))


class TestAveragedRhs:
    def test_frozen_undamped_is_stationary(self):
        env = unit_env()
        dE, dC = averaged_rhs(env, AveragedState(tau=0.0, E=3.0, Cbar=[1.0]))
        assert dE == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(dC, 0.0)

    def test_damping_decreases_energy(self):
        env = unit_env(dbar=1.0)
        dE, _ = averaged_rhs(env, AveragedState(tau=0.0, E=3.0, Cbar=[1.0]))
        assert dE < 0

    def test_matches_direct_simulation_slope(self):
        # oracle: finite-difference slope of H from the fast simulation over
        # one short slow step, against the rate at the midpoint energy
        env = unit_env(dbar=1.0)
        E0 = 3.0
        p0, _ = _psi_roots(1.0, E0 - 1.0)
        traj = simulate_slow_fast(env, 0.0, p0, [1.0], 20.0, n_samples=4001)
        tau = env.epsilon * traj.t
        slope = np.polyfit(tau, traj.energy, 1)[0]
        e_mid = float(np.interp(0.5 * tau[-1], tau, traj.energy))
        dE, _ = averaged_rhs(env, AveragedState(tau=0.0, E=e_mid, Cbar=[1.0]))
        assert slope == pytest.approx(dE, rel=0.1)

    def test_cbar_drift_matches_direct_simulation(self):
        env = unit_env(beta=1.0, gamma_hat=[0.5], gamma=[0.3])
        E0 = 2.5
        p0, _ = _psi_roots(1.0, E0 - 1.0)
        traj = simulate_slow_fast(env, 0.0, p0, [1.0], 20.0, n_samples=4001)
        tau = env.epsilon * traj.t
        slope = np.polyfit(tau, traj.column("C1"), 1)[0]
        e_mid = float(np.interp(0.5 * tau[-1], tau, traj.energy))
        c_mid = float(np.interp(0.5 * tau[-1], tau, traj.column("C1")))
        _, dC = averaged_rhs(env, AveragedState(tau=0.0, E=e_mid, Cbar=[c_mid]))
        assert slope == pytest.approx(dC[0], rel=0.1)

    def test_orbit_lost_above_barrier(self):
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0], b=[2.0, -2.0, -5.0, 5.0],
                          rbar=0.0, mu=1.0)
        env = unit_env(a=CoefficientPath.constant(star.a),
                       b=CoefficientPath.constant(star.b),
                       rbar=CoefficientPath.constant(0.0))
        barrier = max(e.phi for e in analyze_potential(star).extrema) + 1.0
        with pytest.raises(OrbitLostError):
            averaged_rhs(env, AveragedState(tau=0.0, E=barrier + 0.5,
                                            Cbar=np.ones(4)))


def three_species_env(**kw):
    """The unit environment of a three-specialist star."""
    return unit_env(**{"a": CoefficientPath.constant([1.0, 2.0, 0.5]),
                       "b": CoefficientPath.constant([1.0, 0.5, 0.8]),
                       "beta": 1.0, **kw})


class TestInputs:
    @pytest.mark.parametrize("field, value", [
        ("mu", math.nan), ("epsilon", math.nan), ("dbar", math.inf),
        ("beta", math.nan), ("gamma_hat", [math.nan]), ("gamma", [-math.inf])])
    def test_environment_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
            unit_env(**{field: value})

    @pytest.mark.parametrize("length", [1, 2, 4])
    @pytest.mark.parametrize("field", ["gamma_hat", "gamma"])
    def test_environment_rejects_limitation_of_wrong_length(self, field,
                                                            length):
        # one entry per species of a(0): a single entry would broadcast
        # over the species, and over the slow-fast flow's whole limitation
        # block, where every specialist would limit every other
        with pytest.raises(ValueError, match=f"^{field} must have one entry "
                                             r"per species \(3, as in a\)"):
            three_species_env(**{field: np.full(length, 0.5)})

    @pytest.mark.parametrize("C0", [[1.0], [1.0, 1.0], np.ones(4)],
                             ids=["one", "two", "four"])
    def test_slow_fast_rejects_start_of_wrong_size(self, C0):
        with pytest.raises(ValueError, match=r"^C0 must have one entry per "
                                             r"species \(3, as in a\)"):
            simulate_slow_fast(three_species_env(), 0.0, 0.0, C0, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("tau", math.nan), ("E", math.inf), ("Cbar", [math.nan])])
    def test_state_rejects_non_finite(self, field, value):
        kwargs = {"tau": 0.0, "E": 3.0, "Cbar": [1.0], field: value}
        with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
            AveragedState(**kwargs)


class TestEvolveAveraged:
    def test_frozen_environment_constant(self):
        env = unit_env()
        avg = evolve_averaged(env, AveragedState(tau=0.0, E=3.0, Cbar=[1.0]),
                              0.5)
        np.testing.assert_allclose(avg.E, 3.0, atol=1e-6)
        assert avg.events[-1].kind == "stabilized"

    def test_damped_energy_decays_monotonically(self):
        env = unit_env(dbar=1.0)
        avg = evolve_averaged(env, AveragedState(tau=0.0, E=3.0, Cbar=[1.0]),
                              1.0)
        assert np.all(np.diff(avg.E) < 0)
        assert avg.events[-1].kind == "stabilized"

    def test_start_below_the_well_raises(self):
        # the bottom is at E = 2; the clamp of the right-hand side must not
        # turn E = 1 into a run that stays at the bottom
        with pytest.raises(EnergyBelowWellError):
            evolve_averaged(unit_env(dbar=1.0),
                            AveragedState(tau=0.0, E=1.0, Cbar=[1.0]), 1.0)

    @pytest.mark.parametrize("E0", [-30.999, -30.0])
    def test_start_above_the_barrier_raises(self, E0):
        # the double well's barrier is at E = -31.  Each evaluation clamps E
        # below it and the barrier event sees no crossing, so only the start
        # check stops a run that classify_orbit puts over both wells
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0], b=[8.0, -8.0, -20.0, 20.0],
                          rbar=0.0, mu=1.0)
        env = unit_env(a=CoefficientPath.constant(star.a),
                       b=CoefficientPath.constant(star.b),
                       rbar=CoefficientPath.constant(0.0))
        with pytest.raises(OrbitLostError, match="reached the barrier -31"):
            evolve_averaged(env, AveragedState(tau=0.0, E=E0, Cbar=np.ones(4)),
                            0.5, q_well=-0.7)

    def test_rising_rbar_drives_burst(self):
        # double well whose barrier the energy crosses as rbar(tau) tilts Phi
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0], b=[2.0, -2.0, -5.0, 5.0],
                          rbar=0.0, mu=1.0)
        env = unit_env(
            a=CoefficientPath.constant(star.a),
            b=CoefficientPath.constant(star.b),
            rbar=CoefficientPath.from_callable(lambda tau: 1.2 * tau,
                                               lambda tau: 1.2),
        )
        prof = analyze_potential(star)
        e_min = min(e.phi for e in prof.extrema) + star.psi_min()
        avg = evolve_averaged(env, AveragedState(tau=0.0, E=e_min + 0.10,
                                                 Cbar=np.ones(4)), 3.0,
                              q_well=-0.7)
        kinds = [e.kind for e in avg.events]
        assert "burst" in kinds or "environment-destabilized" in kinds
        assert avg.events[0].tau < 3.0

    def test_environment_destabilized_when_drive_beats_damping(self):
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0], b=[8.0, -8.0, -20.0, 20.0],
                          rbar=0.0, mu=1.0)
        env = unit_env(
            a=CoefficientPath.constant(star.a),
            b=CoefficientPath.constant(star.b),
            rbar=CoefficientPath.from_callable(lambda tau: 1.2 * tau,
                                               lambda tau: 1.2),
            dbar=0.3,
        )
        prof = analyze_potential(star)
        e_min = min(e.phi for e in prof.extrema) + star.psi_min()
        avg = evolve_averaged(env, AveragedState(tau=0.0, E=e_min + 0.2,
                                                 Cbar=np.ones(4)), 4.0,
                              q_well=-0.7)
        assert avg.events[0].kind == "environment-destabilized"

    @pytest.mark.parametrize("table", ["a", "b", "rbar", None])
    def test_s2_derivative_analytic_only_for_analytic_paths(self, table):
        # S2 uses a', b' and rbar'; a table path takes central differences
        paths = {"a": CoefficientPath.constant([1.0]),
                 "b": CoefficientPath.constant([1.0]),
                 "rbar": CoefficientPath.constant(1.0)}
        if table is not None:
            paths[table] = CoefficientPath.from_table([0.0, 1.0], [1.0, 1.0])
        avg = evolve_averaged(unit_env(**paths),
                              AveragedState(tau=0.0, E=3.0, Cbar=[1.0]), 0.01)
        assert avg.meta["s2_derivative"] == (
            "analytic" if table is None else "central-difference")

    def test_event_taus_increasing(self):
        env = unit_env(dbar=0.5)
        avg = evolve_averaged(env, AveragedState(tau=0.0, E=2.7, Cbar=[1.0]),
                              0.4)
        taus = [e.tau for e in avg.events]
        assert taus == sorted(taus)


class TestMuBalance:
    def test_uniform_hamiltonian(self):
        assert mu_balance([1.0, 2.0], [1.0, 1.0], [1.0, 2.0],
                          [1.0, 1.0]) == pytest.approx(1.0)

    def test_direct_arithmetic(self):
        assert mu_balance([1.0, 2.0], [1.0, 1.0], [1.0, 1.0],
                          [1.0, 1.0]) == pytest.approx(2.0 / 3.0)

    def test_equals_hub_equilibrium_without_hub_limitation(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            a = rng.uniform(0.5, 2.0, n)
            b = rng.uniform(0.5, 2.0, n)
            r = rng.uniform(0.5, 2.0, n)
            g = rng.uniform(0.2, 1.0, n)
            rbar = float(rng.uniform(0.5, 2.0))
            mu = mu_balance(a, b, r, g, rbar=rbar)
            eq = star_equilibrium(a, b, r, g, 0.0, rbar)
            assert mu == eq.vbar
            assert mu > 0

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            mu_balance([1.0, -1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])


class TestDetectBursts:
    def test_pure_sinusoid_has_no_bursts(self):
        t = np.linspace(0.0, 50.0, 5000)
        x = np.sin(2.0 * np.pi * t)
        traj = Trajectory(t=t, states=x[:, None], labels=["x"])
        scan = detect_bursts(traj, observable="x")
        assert scan.count == 0

    def test_near_soliton_burst_train(self):
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0], b=[2.0, -2.0, -5.0, 5.0],
                          rbar=0.0, mu=1.0)
        prof = analyze_potential(star)
        barrier = [e for e in prof.extrema if e.kind == "max"][0]
        E = barrier.phi + star.psi_min() - 1e-4
        T = period(star, E, q_ref=-0.7)
        p0, _ = _psi_roots(star.mu, E - float(star.terms().phi(-0.6931)))
        traj = integrate_symplectic(star, -0.6931, p0, 1e-3, 6.0 * T,
                                    n_samples=30000)
        scan = detect_bursts(traj, observable="q", reference_period=T)
        assert scan.count >= 4
        np.testing.assert_allclose(scan.intervals, T, rtol=1e-2)

    def test_slow_drift_gives_irregular_spacing(self):
        # near-separatrix energy wandering under a slow oscillating tilt
        star = StarSystem(a=[2.0, -2.0, 1.0, -1.0], b=[8.0, -8.0, -20.0, 20.0],
                          rbar=0.0, mu=1.0)
        env = unit_env(
            a=CoefficientPath.constant(star.a),
            b=CoefficientPath.constant(star.b),
            rbar=CoefficientPath.from_callable(
                lambda tau: 0.05 * np.sin(3.0 * tau),
                lambda tau: 0.15 * np.cos(3.0 * tau)),
        )
        prof = analyze_potential(star)
        e_bar = [e.phi for e in prof.extrema if e.kind == "max"][0] \
            + star.psi_min()
        E0 = e_bar - 2e-3
        q0 = -math.log(2.0)
        p0, _ = _psi_roots(1.0, E0 - float(star.terms().phi(q0)))
        traj = simulate_slow_fast(env, q0, p0, np.ones(4), 400.0, rtol=1e-10,
                                  n_samples=40001)
        scan = detect_bursts(traj, observable="q")
        assert scan.count >= 10
        cv = float(np.std(scan.intervals) / np.mean(scan.intervals))
        assert cv > 0.1

    def test_rare_burst_flag(self):
        t = np.linspace(0.0, 200.0, 20001)
        signal = np.exp(-0.5 * ((t[:, None] - np.arange(25.0, 200.0, 50.0))
                                / 0.5) ** 2).sum(axis=1)
        traj = Trajectory(t=t, states=signal[:, None], labels=["x"])
        scan = detect_bursts(traj, observable="x", reference_period=1.0)
        assert scan.count == 4
        assert scan.rare is True

    def test_sampling_warning(self):
        t = np.linspace(0.0, 100.0, 101)
        traj = Trajectory(t=t, states=np.sin(t)[:, None], labels=["x"])
        scan = detect_bursts(traj, observable="x", reference_period=6.28)
        assert scan.sampling_warning

    def test_import_leaves_scipy_signal_unloaded(self):
        # find_peaks is imported inside detect_bursts
        src = str(Path(hamlv.__file__).parents[1])
        code = ("import sys, hamlv; "
                "sys.exit('scipy.signal' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], cwd=src,
                              timeout=120).returncode == 0


class TestAveragingAccuracy:
    def test_energy_tracks_instantaneous_hamiltonian(self):
        env = unit_env(dbar=1.0)
        init = AveragedState(tau=0.0, E=3.0, Cbar=[1.0])
        avg = evolve_averaged(env, init, 1.0)
        p0, _ = _psi_roots(1.0, 2.0)
        traj = simulate_slow_fast(env, 0.0, p0, [1.0], 100.0, n_samples=4001)
        taus = np.linspace(0.05, 1.0, 20)
        Ea = np.interp(taus, avg.tau, avg.E)
        Hi = np.interp(taus / env.epsilon, traj.t, traj.energy)
        assert np.max(np.abs(Ea - Hi) / np.abs(Ea)) < 0.05

    def test_stationary_cbar_fixed_point(self):
        # gamma_hat / (gamma theta) is the stationary point of the drift
        env = unit_env(beta=5.0, gamma_hat=[0.4], gamma=[0.4])
        E = 2.2
        theta = orbit_averages(UNIT, E, [lambda q, p: math.exp(q)])[0]
        c_star = 0.4 / (0.4 * theta)
        state = AveragedState(tau=0.0, E=E, Cbar=[c_star])
        _, dC = averaged_rhs(env, state)
        assert dC[0] == pytest.approx(0.0, abs=1e-8)


def flow_terms(flow, t, y):
    """(c, L, z) of an integrate._Flow at t and one state y, after its
    refresh: z = y, or y[m:] + K y[:m] for the m columns of K."""
    if flow.refresh is not None:
        flow.refresh(t, y)
    if flow.K is None:
        return flow.c, flow.L, y
    m = flow.K.shape[1]
    return flow.c, flow.L, y[m:] + flow.K @ y[:m]


def random_environment(rng, n, kind):
    """Drifting coefficients (a table or analytic callables) with nonzero
    dbar, beta and gamma."""
    a0 = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 2.0, n)
    b0 = rng.normal(0.0, 2.0, n)
    da, db = rng.normal(0.0, 0.5, n), rng.normal(0.0, 0.5, n)
    if kind == "table":
        taus = np.linspace(0.0, 1.0, 6)
        a = CoefficientPath.from_table(taus, a0 + np.outer(taus, da)
                                       + rng.normal(0.0, 0.05, (6, n)))
        b = CoefficientPath.from_table(taus, b0 + np.outer(taus, db))
        rbar = CoefficientPath.from_table(taus, rng.normal(0.0, 1.0, 6))
    else:
        a = CoefficientPath.from_callable(lambda tau: a0 + da * np.sin(tau),
                                          lambda tau: da * np.cos(tau))
        b = CoefficientPath.from_callable(lambda tau: b0 + db * tau)
        rbar = CoefficientPath.from_callable(lambda tau: 1.0 - tau ** 2,
                                             lambda tau: -2.0 * tau)
    return SlowEnvironment(a=a, b=b, rbar=rbar, mu=rng.uniform(0.5, 2.0),
                           epsilon=rng.uniform(0.005, 0.05),
                           dbar=rng.uniform(0.1, 2.0),
                           beta=rng.uniform(0.1, 3.0),
                           gamma_hat=rng.normal(0.0, 1.0, n),
                           gamma=rng.uniform(0.1, 1.0, n))


class TestSlowFastFlow:
    @pytest.mark.parametrize("kind", ["table", "analytic"])
    def test_kernel_matches_oracle(self, kind):
        rng = np.random.default_rng(11 if kind == "table" else 12)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            env = random_environment(rng, n, kind)
            flow, oracle = _slow_fast_flow(env, n), slow_fast_rhs(env, n)
            for _ in range(5):
                t = rng.uniform(0.0, 1.0 / env.epsilon)
                y = np.concatenate((rng.uniform(-1.5, 1.5, 2),
                                    rng.uniform(-1.0, 1.0, n)))
                tau, q, p = env.epsilon * t, y[0], y[1]
                x = np.exp(y[2:] + env.a.value(tau) * q)
                eb = env.epsilon * env.beta
                terms = np.concatenate((
                    [math.exp(p) + env.mu,
                     abs(env.rbar.value(tau)) + env.epsilon * env.dbar
                     * math.exp(p) + np.sum(np.abs(env.b.value(tau)) * x)],
                    eb * (np.abs(env.gamma_hat) + env.gamma * x
                          + np.abs(q * env.a.derivative(tau)))))
                c, L, z = flow_terms(flow, t, y)
                got, want = c + L @ np.exp(z), oracle(t, y)
                assert np.all(np.abs(got - want) <= 4 * EPS * terms)

    @pytest.mark.parametrize("kind", ["table", "analytic"])
    def test_energy_is_the_per_sample_star_hamiltonian(self, kind):
        # the array H against the star of each sample, as it used to be built
        rng = np.random.default_rng(4)
        env = random_environment(rng, 3, kind)
        traj = simulate_slow_fast(env, 0.1, 0.2, np.ones(3), 20.0,
                                  n_samples=101)
        for t, (q, p, *C), H in zip(traj.t, traj.states, traj.energy):
            terms = env.star_at(env.epsilon * t, np.array(C)).terms()
            want = float(terms.phi(q)) + math.exp(p) - env.mu * p
            mags = (np.sum(np.abs(terms.c) * np.exp(terms.a * q))
                    + abs(terms.slope * q) + math.exp(p) + abs(env.mu * p))
            assert abs(H - want) <= 4 * EPS * mags

    @pytest.mark.parametrize("fixed", [("a",), ("b",), ("rbar",),
                                       ("a", "b", "rbar")])
    def test_constant_paths_folded_bit_for_bit(self, fixed):
        # a constant path is filled into c and L once per run; the trajectory
        # equals the one of an unmarked path giving the same values
        rng = np.random.default_rng(8)
        env = random_environment(rng, 3, "analytic")
        values = {"a": np.array([1.5, -0.8, 0.6]),
                  "b": np.array([0.7, 1.1, -0.4]), "rbar": 0.3}
        zeros = {"a": np.zeros(3), "b": np.zeros(3), "rbar": 0.0}

        def run(make):
            paths = {k: make(k) for k in fixed}
            return simulate_slow_fast(dataclasses.replace(env, **paths),
                                      0.1, 0.2, np.ones(3), 20.0,
                                      n_samples=101)

        folded = run(lambda k: CoefficientPath.constant(values[k]))
        plain = run(lambda k: CoefficientPath.from_callable(
            lambda tau: values[k], lambda tau: zeros[k]))
        for got, want in ((folded.t, plain.t), (folded.states, plain.states),
                          (folded.energy, plain.energy)):
            assert got.tobytes() == want.tobytes()

    def test_escape_reported(self):
        # Phi = -e^q - q has no well: q and p blow up near t = 0.97, as in
        # the population system of the same star; the blow-up is
        # superexponential, so the step size collapses before the clamp
        star = StarSystem(a=[1.0], b=[-1.0], rbar=1.0, mu=1.0)
        env = unit_env(b=CoefficientPath.constant([-1.0]))
        traj = simulate_slow_fast(env, 0.0, 0.0, [1.0], 20.0)
        direct = integrate_lv(star.to_interaction_system(), [1.0], [1.0],
                              20.0)
        assert traj.escaped
        assert traj.meta["escape_reason"] == "diverged"
        assert direct.meta["escape_reason"] == "diverged"
        assert traj.escape_time == pytest.approx(direct.escape_time,
                                                 rel=1e-3)
        assert traj.t[-1] <= traj.escape_time
        assert np.all(np.isfinite(traj.states))
