"""The benchmark's four workloads: resonance, orbits, ensembles and web.

Each workload builds its inputs from the seed (``inputs``), warms up with one
small call (``warm_up``) and runs one pass of checked operations (``run``).
The default seed reproduces the acceptance-suite inputs, for which
``refs.json`` holds reference outputs.  Another seed changes the inputs in
ways that keep the work per pass about the same (see each ``inputs``), and
the checks that need a stored reference fall back to the cross-checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hamlv.canonical as canonical_mod
import hamlv.cli as cli_mod
import hamlv.integrate as integrate_mod
import hamlv.model as model_mod
import hamlv.persistence as persistence_mod
from hamlv.averaging import (AveragedState, CoefficientPath, SlowEnvironment,
                             evolve_averaged)
from hamlv.canonical import (CanonicalState, canonicalize, find_factors,
                             from_canonical)
from hamlv.cli import main as cli_main
from hamlv.ensemble import (cone_feasibility_frequency,
                            orbit_probability_curve, stability_census)
from hamlv.integrate import (Trajectory, integrate_lv, integrate_symplectic,
                             poincare_return_time)
from hamlv.model import InteractionSystem, NetworkTopology
from hamlv.persistence import positive_solution_frequency
from hamlv.resonance import TwoStarSystem, instability_criterion, linearize
from hamlv.star import (StarSystem, _psi_roots, analyze_potential,
                        classify_orbit, period)
from hamlv.util import sha256_file

from harness import counts_of, expect, metric, tail_summary

DEFAULT_SEED = 0

UNIT_STAR = StarSystem(a=[1.0], b=[1.0], rbar=1.0, mu=1.0)
TWO_SPECIES = StarSystem(a=[1.0, 1.0], b=[0.6, 0.4], rbar=1.0, mu=1.0)
# four cosh-pair terms: wells at +-ln 2 with a barrier at q = 0
DOUBLE_WELL = StarSystem(a=[2.0, -2.0, 1.0, -1.0],
                         b=[8.0, -8.0, -20.0, 20.0], rbar=0.0, mu=1.0)


def durations(spans, name, parent_phase=None, by_id=None):
    """Durations of the spans with this name, optionally under one phase."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        if parent_phase is not None:
            parent = by_id.get(s["parent"])
            if parent is None or parent["function"] != parent_phase:
                continue
        out.append(s["end"] - s["start"])
    return out


def per_count(spans, name, key):
    """(seconds per unit of the count, total count) over the named spans."""
    chosen = [s for s in spans if s["name"] == name]
    total = sum(s["counts"].get(key, 0) for s in chosen)
    time_s = sum(s["end"] - s["start"] for s in chosen)
    return (time_s / total if total else float("nan")), total


def tail_metric(values, unit, scale):
    summary = tail_summary([v * scale for v in values])
    return metric(summary.pop("median"), unit, **summary)


# --------------------------------------------------------------- resonance

# (label, btilde1, btilde2, star, epsilon, d1, d2, verdict) from the c10
# table: every verdict kind, one- and two-species stars
RESONANCE_CASES = [
    ("unstable", [0.3], [-0.3], UNIT_STAR, 0.0, 0.0, 0.0, "unstable"),
    ("stable_two_species", [0.25, 0.25], [0.25, 0.25], TWO_SPECIES,
     0.0, 0.0, 0.0, "stable"),
    ("damped", [0.3], [-0.3], UNIT_STAR, 0.12, 5.0, 5.0, "damped"),
    ("damped_two_species", [0.3, 0.2], [-0.3, -0.2], TWO_SPECIES,
     0.12, 5.0, 5.0, "damped"),
]
ENVELOPE_OF = {"unstable": "growing", "damped": "decaying",
               "stable": "bounded"}
# a run to t = 3000 is integrated in 10 pieces of 400 samples each
RESONANCE_SEGMENTS = 10
SAMPLES_PER_SEGMENT = 400


def _two_star(b1, b2, star, epsilon=0.0, d1=0.0, d2=0.0, kappa=0.02):
    n = star.n_species
    return TwoStarSystem(star1=star, star2=star, atilde1=np.zeros(n),
                         atilde2=np.zeros(n), btilde1=b1, btilde2=b2,
                         kappa=kappa, epsilon=epsilon, d1=d1, d2=d2)


def envelope_class(ts, traj):
    """growing / decaying / bounded, as the c10 acceptance test reads it."""
    if traj.escaped:
        return "growing"
    n = ts.star1.n_species + ts.star2.n_species
    p1 = np.log(traj.states[:, n]) - math.log(ts.star1.mu)
    window = traj.t[-1] / 5.0
    early = float(np.max(np.abs(p1[traj.t < window])))
    late = float(np.max(np.abs(p1[traj.t > traj.t[-1] - window])))
    ratio = late / early
    if ratio > 3.0:
        return "growing"
    if ratio < 1.0 / 3.0:
        return "decaying"
    return "bounded"


@dataclass
class ResonanceInputs:
    cases: list       # (label, TwoStarSystem, expected verdict)
    positive: list    # TwoStarSystem with positive couplings
    t_end: float


class Resonance:
    """Two-star verdicts checked against full simulations to t = 3000."""

    name = "resonance"
    phase_metrics = {"simulate_s": ("simulate",)}

    def inputs(self, seed, size):
        # The c10 table cases are the same for every seed, so the
        # integration work is too; the seed draws the positive couplings.
        chosen = (RESONANCE_CASES if size == "full"
                  else [c for c in RESONANCE_CASES if c[0] == "damped"])
        cases = [(label, _two_star(np.array(b1), np.array(b2), star, eps, d1,
                                   d2), verdict)
                 for label, b1, b2, star, eps, d1, d2, verdict in chosen]
        pos_rng = np.random.default_rng(1010 + seed)
        positive = [_two_star([float(pos_rng.uniform(0.05, 0.6))],
                              [float(pos_rng.uniform(0.05, 0.6))], UNIT_STAR,
                              epsilon=float(pos_rng.uniform(0.0, 0.1)),
                              d1=float(pos_rng.uniform(0.0, 4.0)),
                              d2=float(pos_rng.uniform(0.0, 4.0)))
                    for _ in range(10 if size == "full" else 3)]
        return ResonanceInputs(cases=cases, positive=positive, t_end=3000.0)

    def warm_up(self, p, inputs):
        ts = inputs.cases[-1][1]
        p.call(instability_criterion, p.call(linearize, ts))
        self._simulate(p, ts, 100.0)

    def _simulate(self, p, ts, t_end):
        """integrate_lv to t_end, in RESONANCE_SEGMENTS timed pieces.

        The system is autonomous, so each piece starts at t = 0 from the
        state the last one ended in; between pieces the host clock samples
        the host.  integrate_lv's default tolerances (rtol 1e-8), one notch
        looser than the c10 test, keep a pass short enough to repeat.
        """
        full = p.call(ts.to_interaction_system)
        n = full.N
        x = np.concatenate((ts.star1.C, ts.star2.C))
        v = np.array([ts.star1.mu * math.exp(1e-2), ts.star2.mu])
        piece = t_end / RESONANCE_SEGMENTS
        t, states, nfev = [], [], 0
        for k in range(RESONANCE_SEGMENTS):
            with p.op("simulate"):
                seg = p.call(integrate_lv, full, x, v, piece,
                             n_samples=SAMPLES_PER_SEGMENT + 1)
            nfev += seg.meta["nfev"]
            first = 0 if k == 0 else 1  # a piece starts where the last ended
            t.append(k * piece + seg.t[first:])
            states.append(seg.states[first:])
            if seg.escaped:
                break
            x, v = seg.states[-1, :n], seg.states[-1, n:]
        return Trajectory(t=np.concatenate(t), states=np.concatenate(states),
                          labels=seg.labels, meta={"nfev": nfev},
                          escaped=seg.escaped)

    def run(self, p, inputs):
        for label, ts, expected in inputs.cases:
            with p.attempt(label):
                with p.op("linearize"):
                    verdict = p.call(instability_criterion,
                                     p.call(linearize, ts)).verdict
                traj = self._simulate(p, ts, inputs.t_end)
                p.count("integrate.lv_nfev", traj.meta["nfev"])
                envelope = envelope_class(ts, traj)
                expect(verdict == expected,
                       f"verdict {verdict}, table says {expected}")
                expect(envelope == ENVELOPE_OF[verdict],
                       f"envelope {envelope} contradicts verdict {verdict}")
                p.against_ref(f"seeded.verdict.{label}", verdict)
                p.against_ref(f"seeded.envelope.{label}", envelope)
        for i, ts in enumerate(inputs.positive):
            with p.attempt(f"positive[{i}]"):
                with p.op("linearize"):
                    model = p.call(linearize, ts)
                    verdict = p.call(instability_criterion, model).verdict
                expect(model.R > 0, f"R = {model.R} for positive couplings")
                expect(verdict != "unstable",
                       "positive couplings judged unstable")
                p.against_ref(f"seeded.positive.{i}", verdict)

    def layer_metrics(self, spans, by_id, n_passes):
        us, _ = per_count(spans, "integrate.integrate_lv", "nfev")
        return {
            "integrate.lv_us_per_eval": metric(us * 1e6, "us"),
            "resonance.linearize_ms": tail_metric(
                durations(spans, "resonance.linearize"), "ms", 1e3),
        }


# ------------------------------------------------------------------ orbits

@dataclass
class OrbitInputs:
    sweep: list        # (reference key, star, E)
    verlet_t_end: float
    unit_tau_end: float
    burst_E0: float     # None skips the burst run (tiny size)
    burst_tau_end: float


def _well_energies(star):
    """(bottom energy, barrier energy or None) of the deepest well."""
    prof = analyze_potential(star)
    bottom = min(e.phi for e in prof.minima()) + star.psi_min()
    tops = [e.phi for e in prof.maxima()]
    return bottom, (min(tops) + star.psi_min()) if tops else None


def _burst_environment():
    star = DOUBLE_WELL
    return SlowEnvironment(
        a=CoefficientPath.constant(star.a),
        b=CoefficientPath.constant(star.b),
        rbar=CoefficientPath.from_callable(lambda tau: 1.2 * tau,
                                           lambda tau: 1.2),
        mu=1.0, epsilon=0.01, dbar=0.0)


def _unit_environment():
    return SlowEnvironment(a=CoefficientPath.constant([1.0]),
                           b=CoefficientPath.constant([1.0]),
                           rbar=CoefficientPath.constant(1.0),
                           mu=1.0, epsilon=0.01, dbar=1.0)


# the c04 point, where the quadrature period meets the first-return time
C04_KEY = "fixed.period.c04"


class Orbits:
    """Orbit classes and periods, Stormer-Verlet, and averaged evolution."""

    name = "orbits"
    phase_metrics = {"period_s": ("period",), "average_s": ("average",)}
    stars = {"unit": UNIT_STAR, "two_species": TWO_SPECIES,
             "double_well": DOUBLE_WELL}

    def inputs(self, seed, size):
        rng = np.random.default_rng(seed)
        n = 8 if size == "full" else 1
        sweep = []
        for label, star in self.stars.items():
            bottom, barrier = _well_energies(star)
            for k in range(n):
                frac = (k + 0.5) / n
                if seed != DEFAULT_SEED:
                    frac += rng.uniform(-0.4, 0.4) / n
                # stay clear of the separatrix where a well has a barrier
                E = (bottom + (barrier - bottom) * (0.05 + 0.85 * frac)
                     if barrier is not None else bottom + 2.0 * frac)
                sweep.append((f"seeded.period.{label}.{k}", star, E))
        sweep.append((C04_KEY, UNIT_STAR, 3.0))
        bottom, _ = _well_energies(DOUBLE_WELL)
        full = size == "full"
        return OrbitInputs(sweep=sweep,
                           verlet_t_end=1000.0 if full else 10.0,
                           unit_tau_end=1.0 if full else 0.01,
                           burst_E0=bottom + 0.2 if full else None,
                           burst_tau_end=3.0)

    def warm_up(self, p, inputs):
        _, star, E = inputs.sweep[0]
        p.call(period, star, E)

    def run(self, p, inputs):
        for key, star, E in inputs.sweep:
            with p.attempt(key):
                with p.op("period"):
                    orbit = p.call(classify_orbit, star, E)
                    T = p.call(period, star, E)
                expect(orbit.kind == "periodic", f"orbit is {orbit.kind}")
                p.against_ref(key, T, rtol=1e-10)
                if key != C04_KEY:
                    continue
                with p.op("poincare"):
                    T_section = p.call(poincare_return_time, star, E, h=1e-3)
                expect(abs(T - T_section) <= 1e-4 * T,
                       f"period {T!r} vs first return {T_section!r}")
        with p.attempt("verlet"):
            with p.op("verlet"):
                traj = p.call(integrate_symplectic, UNIT_STAR, 0.0,
                              _psi_roots(1.0, 2.0)[0],
                              1e-3, inputs.verlet_t_end, n_samples=10001)
            p.count("integrate.verlet_steps", traj.meta["n_steps"])
            rel = np.abs(traj.energy - traj.energy[0]) / abs(traj.energy[0])
            half = float(np.max(rel[traj.t <= 0.5 * inputs.verlet_t_end]))
            expect(float(np.max(rel)) <= 1e-5, "Verlet energy drift > 1e-5")
            expect(float(np.max(rel)) <= 1.5 * half, "Verlet drift grows")
            expect(traj.meta["n_steps"] == round(inputs.verlet_t_end / 1e-3),
                   "Verlet step count")
        with p.attempt("average.unit"):
            with p.op("average"):
                avg = p.call(evolve_averaged, _unit_environment(),
                             AveragedState(tau=0.0, E=3.0, Cbar=[1.0]),
                             inputs.unit_tau_end)
            p.count("averaging.evolve_nfev", avg.meta["nfev"])
            expect([e.kind for e in avg.events] == ["stabilized"],
                   f"events {[e.kind for e in avg.events]}")
            p.against_ref("fixed.average.unit.E", avg.E.tolist(), rtol=1e-6)
        if inputs.burst_E0 is None:
            return
        with p.attempt("average.burst"):
            with p.op("average"):
                avg = p.call(evolve_averaged, _burst_environment(),
                             AveragedState(tau=0.0, E=inputs.burst_E0,
                                           Cbar=np.ones(4)),
                             inputs.burst_tau_end, q_well=-0.7)
            p.count("averaging.evolve_nfev", avg.meta["nfev"])
            expect(avg.events[0].kind == "burst",
                   f"first event {avg.events[0].kind}")
            tau = avg.events[0].tau
            tau_direct = p.refs.fixed.get("fixed.burst.tau_direct")
            if tau_direct is not None:
                expect(abs(tau - tau_direct) <= 0.10 * tau_direct,
                       f"burst at tau {tau}, direct run {tau_direct}")
            p.against_ref("fixed.burst.tau", tau, rtol=1e-6)

    def layer_metrics(self, spans, by_id, n_passes):
        s_eval, _ = per_count(spans, "averaging.evolve_averaged", "nfev")
        s_step, _ = per_count(spans, "integrate.integrate_symplectic", "steps")
        return {
            "star.period_ms": tail_metric(durations(spans, "star.period"),
                                          "ms", 1e3),
            "star.classify_orbit_ms": tail_metric(
                durations(spans, "star.classify_orbit"), "ms", 1e3),
            "integrate.poincare_ms": tail_metric(
                durations(spans, "integrate.poincare_return_time"), "ms", 1e3),
            "integrate.verlet_ns_per_step": metric(s_step * 1e9, "ns"),
            "averaging.evolve_s_per_eval": metric(s_eval, "s"),
        }


def burst_tau_direct():
    """Burst time of the direct slow-fast run (the c11 reference)."""
    from hamlv.averaging import simulate_slow_fast
    from hamlv.star import PotentialTerms, _profile_of_terms
    star, drive = DOUBLE_WELL, _burst_environment()
    bottom, _ = _well_energies(star)
    E0 = bottom + 0.2
    q0 = -math.log(2.0)
    p0 = _psi_roots(1.0, E0 - float(star.terms().phi(q0)))[0]
    fast = simulate_slow_fast(drive, q0, p0, np.ones(4), 250.0,
                              rtol=1e-10, n_samples=25001)
    omega = math.sqrt(float(star.terms().d2phi(q0)))
    dt = fast.t[1] - fast.t[0]
    win = max(1, int(round(2.0 * math.pi / omega / dt)))
    H = np.convolve(fast.energy, np.ones(win) / win, mode="same")
    taus = drive.epsilon * fast.t

    def barrier_at(tau):
        tilted = PotentialTerms(c=star.rho * star.C, a=star.a, slope=1.2 * tau)
        prof = _profile_of_terms(tilted, q_window=(-3.0, 3.0))
        tops = [e.phi for e in prof.extrema if e.kind == "max"]
        return (min(tops) + star.psi_min()) if tops else np.inf

    coarse = taus[::100]
    barrier = np.interp(taus, coarse, [barrier_at(t) for t in coarse])
    crossed = np.nonzero(H >= barrier)[0]
    crossed = crossed[(crossed > win) & (crossed < H.size - win)]
    return float(taus[crossed[0]])


# --------------------------------------------------------------- ensembles

@dataclass
class EnsembleInputs:
    calls: list   # (kind, function, args, kwargs)


def report_bytes(report):
    if isinstance(report, dict):  # positive_solution_frequency
        return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return report.to_json_bytes()


class Ensembles:
    """The four seeded ensembles, each with one worker and with two."""

    name = "ensembles"
    kinds = ("census", "curve", "cone_frequency", "positive_frequency")
    phase_metrics = dict(
        [(f"{k}_s", (f"{k}_w1",)) for k in kinds]
        + [("ensembles_parallel_s", tuple(f"{k}_w2" for k in kinds))])

    def inputs(self, seed, size):
        scale = 1 if size == "full" else 20
        # README sizes; the census is the c08 [1, 100] band.  The trials of
        # an ensemble are split over calls of at most about 0.7 s, with
        # seeds seed * 100 + chunk, so that the host clock samples the host
        # between them.
        sizes = [
            ("census", stability_census, (1, 100), 1000, 1),
            ("curve", orbit_probability_curve,
             (10, [0.0, 0.1, 0.2, 0.3, 0.4]), 150, 2),
            ("cone_frequency", cone_feasibility_frequency,
             (3, 300, 1.0, 0.3), 200, 4),
            ("positive_frequency", positive_solution_frequency, (40,),
             2000, 4),
        ]
        return EnsembleInputs(calls=[
            (kind, fn, args + (trials // scale // chunks,),
             {"seed": seed * 100 + chunk})
            for kind, fn, args, trials, chunks in sizes
            for chunk in range(chunks)])

    def warm_up(self, p, inputs):
        for workers in (1, 2):
            p.call(stability_census, 1, 100, 20, seed=0, parallel=workers)

    def run(self, p, inputs):
        for kind, fn, args, kwargs in inputs.calls:
            label = f"{kind}.{kwargs['seed'] % 100}"
            with p.attempt(label):
                blobs = []
                for workers in (1, 2):
                    with p.op(f"{kind}_w{workers}"):
                        report = p.call(fn, *args, parallel=workers, **kwargs)
                    blobs.append(report_bytes(report))
                p.count("ensemble.trials", counts_of(report)["trials"])
                expect(blobs[0] == blobs[1],
                       f"{label} report differs between 1 and 2 workers")
                p.against_ref(f"seeded.sha256.{label}",
                              hashlib.sha256(blobs[0]).hexdigest())

    def layer_metrics(self, spans, by_id, n_passes):
        out = {}
        for kind, name in zip(self.kinds, (
                "ensemble.stability_census",
                "ensemble.orbit_probability_curve",
                "ensemble.cone_feasibility_frequency",
                "persistence.positive_solution_frequency")):
            chosen = {w: [s for s in spans if s["name"] == name
                          and by_id[s["parent"]]["function"] == f"{kind}_w{w}"]
                      for w in (1, 2)}
            t1 = sum(s["end"] - s["start"] for s in chosen[1])
            t2 = sum(s["end"] - s["start"] for s in chosen[2])
            trials = sum(s["counts"].get("trials", 0) for s in chosen[1])
            out[f"ensemble.{kind}.ms_per_trial"] = metric(
                1e3 * t1 / trials if trials else float("nan"), "ms")
            out[f"ensemble.{kind}.speedup_w2"] = metric(
                t1 / t2 if t2 else float("nan"), "ratio")
        return out


# --------------------------------------------------------------------- web

# layer functions the CLI subcommands call; traced runs nest them under the
# cli.main span (sha256_file is bound in the cli module at import)
CLI_CALLEES = [
    (model_mod, "generate_scale_free"), (model_mod, "classify_signs"),
    (canonical_mod, "find_factors"), (canonical_mod, "canonicalize"),
    (canonical_mod, "to_canonical"),
    (persistence_mod, "strong_persistence"), (persistence_mod, "permanence"),
    (integrate_mod, "integrate_lv"), (integrate_mod, "integrate_transformed"),
    (integrate_mod, "integrate_symplectic"),
    (integrate_mod.Trajectory, "to_csv"),
    (cli_mod, "sha256_file"),
]


WEB_TOPOLOGY_SEED = 42


@dataclass
class WebInputs:
    nodes: int
    M: int
    t_end: float
    a_mag: np.ndarray     # (N, M) magnitudes of the interaction entries
    rho: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    xbar: np.ndarray
    x_jitter: np.ndarray
    v_jitter: np.ndarray
    order: np.ndarray     # the x species in the order the system lists them
    work: Path


class Web:
    """The CLI pipeline at size: netgen, check, simulate and canonical."""

    name = "web"
    phase_metrics = {"simulate_s": ("simulate",),
                     "canonical_s": ("canonical",)}

    def __init__(self, work_dir):
        self.work_dir = Path(work_dir)

    def inputs(self, seed, size):
        nodes, M, t_end = (330, 30, 100.0) if size == "full" else (45, 5, 5.0)
        N = nodes - M
        # The web is drawn once from a fixed stream (the README's netgen
        # seed).  Another seed numbers the x species in another order: the
        # files the CLI reads differ, the dynamics and the integration work
        # do not.
        base = np.random.default_rng(WEB_TOPOLOGY_SEED)
        draws = dict(
            a_mag=base.uniform(0.3, 1.2, (N, M)),
            rho=base.uniform(0.5, 1.5, N),
            sigma=np.concatenate(([1.0], base.uniform(0.5, 1.5, M - 1))),
            mu=base.uniform(0.8, 1.2, M), xbar=base.uniform(0.5, 1.5, N),
            x_jitter=base.uniform(0.9, 1.1, N),
            v_jitter=base.uniform(0.9, 1.1, M))
        order = (np.arange(N) if seed == DEFAULT_SEED
                 else np.random.default_rng(seed).permutation(N))
        return WebInputs(nodes=nodes, M=M, t_end=t_end, order=order,
                         work=self.work_dir / "web", **draws)

    def warm_up(self, p, inputs):
        small = self.work_dir / "web_warm_up"
        shutil.rmtree(small, ignore_errors=True)
        p.call(cli_main, ["netgen", "--nodes", "20", "--m", "2", "--seed", "1",
                          "--out", str(small)])
        shutil.rmtree(small, ignore_errors=True)

    def _cli(self, p, argv):
        with p.tracer.patched(CLI_CALLEES):
            return p.call(cli_main, argv)

    def _build(self, p, inputs, topology_path):
        """Factorizable system on the topology; the M top-degree nodes are v.

        A node with no hub neighbour is attached to hub (its row mod M).
        """
        top = p.call(NetworkTopology.load_edges, topology_path, inputs.nodes)
        degrees = p.call(top.degrees)
        hubs = np.argsort(-degrees, kind="stable")[:inputs.M]
        hub_col = {int(h): j for j, h in enumerate(hubs)}
        x_row = {n: k for k, n in enumerate(
            i for i in range(inputs.nodes) if i not in hub_col)}
        N, M = len(x_row), inputs.M
        support = np.zeros((N, M), dtype=bool)
        for u, v in top.edges:
            if u in hub_col and v in x_row:
                support[x_row[v], hub_col[u]] = True
            elif v in hub_col and u in x_row:
                support[x_row[u], hub_col[v]] = True
        orphan = ~support.any(axis=1)
        support[np.nonzero(orphan)[0], np.nonzero(orphan)[0] % M] = True
        order = inputs.order
        A = np.where(support, inputs.a_mag, 0.0)[order]
        B = (inputs.rho[order, None] * A / inputs.sigma[None, :]).T
        xbar = inputs.xbar[order]
        system = p.call(InteractionSystem, r=A @ inputs.mu, rbar=B @ xbar,
                        A=A, B=B)
        factors = p.call(find_factors, system.A, system.B)
        p.call(system.save, inputs.work / "system.json")
        state = {"x": (xbar * inputs.x_jitter[order]).tolist(),
                 "v": (inputs.mu * inputs.v_jitter).tolist()}
        with open(inputs.work / "state.json", "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        return system, factors

    def run(self, p, inputs):
        work = inputs.work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        sysf, statef = str(work / "system.json"), str(work / "state.json")
        t_end = repr(inputs.t_end)
        commands = [
            ("netgen", ["netgen", "--nodes", str(inputs.nodes), "--m", "2",
                        "--seed", str(WEB_TOPOLOGY_SEED),
                        "--out", str(work / "net")]),
            ("check", ["check", "--input", sysf,
                       "--out", str(work / "check")]),
            ("simulate", ["simulate", "--input", sysf, "--state", statef,
                          "--t-end", t_end, "--rtol", "1e-10", "--atol",
                          "1e-12", "--out", str(work / "sim")]),
            ("canonical", ["canonical", "--input", sysf, "--state", statef,
                           "--t-end", t_end, "--rtol", "1e-10",
                           "--out", str(work / "can")]),
        ]
        codes = {}
        system = None
        for name, argv in commands:
            with p.attempt(name):
                expect(name == "netgen" or system is not None,
                       "no system was built")
                with p.op(name):
                    codes[name] = self._cli(p, argv)
                self._check_outputs(p, name, codes[name], Path(argv[-1]))
            if name == "netgen" and codes.get("netgen") == 0:
                with p.attempt("build"):
                    with p.op("build"):
                        system, factors = self._build(
                            p, inputs, work / "net" / "topology.txt")
                    expect(factors is not None and factors.positive,
                           "system built to factor does not factor")
        if system is not None and codes.get("simulate") == 0 \
                and codes.get("canonical") == 0:
            with p.attempt("canonical_equivalence"):
                self._check_equivalence(system, work)

    def _check_outputs(self, p, name, code, out):
        manifest = json.loads((out / "manifest.json").read_text())
        for fname, digest in manifest["outputs"].items():
            expect(sha256_file(out / fname) == digest,
                   f"{name}: checksum of {fname}")
        files = list(manifest["outputs"]) + ["manifest.json"]
        p.count("cli.files_written", len(files))
        p.count("cli.bytes_written", sum((out / f).stat().st_size
                                         for f in files))
        p.against_ref(f"seeded.exit.{name}", code)
        if name == "check":
            cert = json.loads((out / "certificate.json").read_text())
            expect(cert["factorizable"], "certificate: not factorizable")
            persistence = cert.get("strong_persistence", {})
            negative = persistence.get("applicable") and \
                not persistence.get("persistent")
            expect(code == (2 if negative else 0),
                   f"check exit code {code} disagrees with the certificate")
            p.against_ref("seeded.certificate", {
                "sign_class": cert["sign_class"],
                "limitation_free": cert["limitation_free"],
                "factorizable": cert["factorizable"],
                "persistent": persistence.get("persistent")})
        else:
            expect(code == 0, f"{name} exit code {code}")
        if name == "simulate":
            run = json.loads((out / "run.json").read_text())
            expect(not run["escaped"], "direct run escaped")
            p.count("integrate.lv_nfev", run["meta"]["nfev"])

    def _check_equivalence(self, system, work):
        """c02: the canonical run mapped back matches the direct run."""
        direct = np.loadtxt(work / "sim" / "trajectory.csv", delimiter=",",
                            skiprows=1)
        reduced = np.loadtxt(work / "can" / "trajectory.csv", delimiter=",",
                             skiprows=1)
        expect(direct.shape[0] == reduced.shape[0], "sample counts differ")
        expect(np.array_equal(direct[:, 0], reduced[:, 0]), "sample times")
        csys = canonicalize(system)
        N, M = system.N, system.M
        worst = 0.0
        for k in range(direct.shape[0]):
            state = CanonicalState(q=reduced[k, 1:1 + M],
                                   p=reduced[k, 1 + M:1 + 2 * M],
                                   C=reduced[k, 1 + 2 * M:1 + 2 * M + N])
            x, v = from_canonical(csys, state)
            mapped = np.concatenate((x, v))
            worst = max(worst, float(np.max(np.abs(mapped - direct[k, 1:])
                                            / np.abs(direct[k, 1:]))))
        expect(worst <= 1e-6,
               f"canonical run off the direct run by {worst:.3g}")

    def layer_metrics(self, spans, by_id, n_passes):
        lv_s, _ = per_count(spans, "integrate.integrate_lv", "nfev")
        tr_s, tr_nfev = per_count(spans, "integrate.integrate_transformed",
                                  "nfev")
        out = {"integrate.lv_us_per_eval": metric(lv_s * 1e6, "us"),
               "integrate.transformed_us_per_eval": metric(tr_s * 1e6, "us"),
               "integrate.transformed_nfev": metric(tr_nfev // n_passes,
                                                    "count")}
        out["model.generate_scale_free_ms"] = tail_metric(
            durations(spans, "model.generate_scale_free"), "ms", 1e3)
        out["canonical.find_factors_ms"] = tail_metric(
            durations(spans, "canonical.find_factors"), "ms", 1e3)
        for phase, unit, scale in (("check", "ms", 1e3),
                                   ("simulate", "s", 1.0),
                                   ("canonical", "s", 1.0)):
            values = durations(spans, "cli.main", phase, by_id)
            out[f"cli.{phase}_{unit}"] = metric(
                scale * statistics.median(values) if values else float("nan"),
                unit)
        return out


def make_workloads(work_dir):
    return {w.name: w for w in (Resonance(), Orbits(), Ensembles(),
                                Web(work_dir))}
