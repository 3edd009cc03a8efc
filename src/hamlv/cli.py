"""Command-line front end.

Subcommands: check, simulate, canonical, star, average, resonance, ensemble,
netgen.  Every run writes its outputs plus a manifest.json carrying the full
configuration echo, the seed, package versions, and a sha256 checksum per
output file, so any output is reproducible from its manifest alone.

Exit codes: 0 success, 2 infeasible or negative certification, 1 error.
The seed resolves as --seed flag, then the HLV_SEED environment variable,
then 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .util import (fields_of, json_fields, read_json, sha256_file, write_csv,
                   write_json)


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("HLV_SEED")
    return int(env) if env else 0


def _load_json(path, what, **fields):
    """The JSON object of a `what` file, its fields checked by json_fields."""
    return json_fields(read_json(path, what), f"{what} file {path}", **fields)


def _write_run(path, traj):
    """Escape state and solver metadata of an integrated trajectory."""
    write_json(path, {"escaped": traj.escaped,
                      "escape_time": traj.escape_time, "meta": traj.meta})


def _load_star(data, what):
    from .star import StarSystem
    data = json_fields(data, what, numbers=("rbar", "mu"),
                       arrays=("a", "b", "C"), required=("a", "b", "rbar"))
    return StarSystem(a=data["a"], b=data["b"], rbar=data["rbar"],
                      mu=data.get("mu", 1.0), C=data.get("C"))


def write_svg_polyline(path, xs, series, labels):
    """Minimal unstyled 640 x 400 SVG line chart (one polyline per series)."""
    xs = np.asarray(xs, dtype=float)
    ys_all = np.concatenate([np.asarray(s, dtype=float) for s in series])
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys_all)), float(np.max(ys_all))
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    width, height, pad = 640, 400, 40
    colors = ["black", "green", "red", "blue", "orange"]

    def px(x):
        return pad + (x - x0) / xr * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / yr * (height - 2 * pad)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" fill="none" stroke="gray"/>']
    for k, ys in enumerate(series):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        color = colors[k % len(colors)]
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        lines.append(f'<text x="{pad + 5}" y="{pad + 15 + 14 * k}" '
                     f'fill="{color}" font-size="12">{labels[k]}</text>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(args, outputs, exit_code=0):
    """Write manifest.json: the command, every option of the run but the
    plumbing (output directory, seed, worker count), the seed, versions and
    a checksum per output."""
    out_dir = Path(args.out)
    manifest = {
        "command": " ".join(filter(None, (args.command,
                                          getattr(args, "mode", None)))),
        "config": {key: value for key, value in vars(args).items()
                   if key not in ("func", "command", "out", "seed", "workers")},
        "seed": _resolve_seed(args),
        "versions": {"hamlv": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "outputs": {name: sha256_file(out_dir / name) for name in outputs},
    }
    write_json(out_dir / "manifest.json", manifest)
    return exit_code


def _cmd_netgen(args):
    from .model import connectance, generate_scale_free, powerlaw_exponent
    seed = _resolve_seed(args)
    out = _out_dir(args)
    top = generate_scale_free(args.nodes, args.m, seed)
    top.save_edges(out / "topology.txt")
    degrees = top.degrees()
    stats = {"n_nodes": top.n_nodes, "n_edges": top.n_edges,
             "connectance": connectance(top),
             "max_degree": int(degrees.max())}
    try:
        stats["powerlaw_exponent"] = powerlaw_exponent(degrees)
    except ValueError:
        stats["powerlaw_exponent"] = None
    write_json(out / "stats.json", stats)
    return _finish(args, ["topology.txt", "stats.json"])


def _cmd_check(args):
    from .canonical import find_factors
    from .model import InteractionSystem, classify_signs
    from .persistence import permanence, strong_persistence
    system = InteractionSystem.load(args.input)
    factors = find_factors(system.A, system.B, tol=args.tol)
    report = {
        "sign_class": classify_signs(system).value,
        "limitation_free": system.is_limitation_free(),
        "factorizable": factors is not None,
    }
    negative = factors is None
    if factors is not None:
        report["factors"] = factors
        if system.is_limitation_free():
            res = strong_persistence(system, factors)
            v_cert, x_cert = res.v_certificate, res.x_certificate
            report["strong_persistence"] = {
                "applicable": res.applicable,
                "persistent": res.persistent,
                "rank_ok": res.rank_ok,
                "v_witness": v_cert and v_cert.witness,
                "x_witness": x_cert and x_cert.witness,
            }
            negative = res.applicable and not res.persistent
        elif factors.positive:
            rep = permanence(system, factors)
            report["permanence"] = rep
            negative = not rep.permanent
    out = _out_dir(args)
    write_json(out / "certificate.json", report)
    code = 2 if negative else 0
    return _finish(args, ["certificate.json"], exit_code=code)


def _load_system_and_state(args):
    from .model import InteractionSystem
    state = _load_json(args.state, "state", arrays=("x", "v"),
                       required=("x", "v"))
    return InteractionSystem.load(args.input), state


def _cmd_simulate(args):
    from .integrate import integrate_lv
    system, state = _load_system_and_state(args)
    traj = integrate_lv(system, state["x"], state["v"], args.t_end,
                        rtol=args.rtol, atol=args.atol,
                        n_samples=args.samples)
    out = _out_dir(args)
    traj.to_csv(out / "trajectory.csv")
    outputs = ["trajectory.csv"]
    if args.format == "svg":
        write_svg_polyline(out / "trajectory.svg", traj.t,
                           [traj.states[:, k] for k in range(traj.states.shape[1])],
                           traj.labels)
        outputs.append("trajectory.svg")
    _write_run(out / "run.json", traj)
    outputs.append("run.json")
    return _finish(args, outputs)


def _cmd_canonical(args):
    from .canonical import canonicalize, to_canonical
    from .integrate import integrate_symplectic, integrate_transformed
    from .star import StarSystem
    system, state = _load_system_and_state(args)
    csys = canonicalize(system, tol=args.tol)
    cstate = to_canonical(csys, state["x"], state["v"])
    out = _out_dir(args)
    write_json(out / "canonical_state.json", cstate)
    outputs = ["canonical_state.json"]
    if system.M == 1 and csys.conserves_C:
        star = StarSystem(a=system.A[:, 0], b=system.B[0], rbar=system.rbar[0],
                          mu=csys.mu[0], C=cstate.C)
        traj = integrate_symplectic(star, cstate.q[0], cstate.p[0], args.h,
                                    args.t_end)
    else:
        traj = integrate_transformed(csys, cstate, args.t_end, rtol=args.rtol)
    traj.to_csv(out / "trajectory.csv")
    _write_run(out / "run.json", traj)
    outputs += ["trajectory.csv", "run.json"]
    return _finish(args, outputs)


def _cmd_star(args):
    from .star import (EnergyBelowWellError, analyze_potential, classify_orbit,
                       period, persistence_criteria)
    star = _load_star(_load_json(args.input, "star"), f"star file {args.input}")
    out = _out_dir(args)
    profile = analyze_potential(star)
    verdict = persistence_criteria(star)
    write_json(out / "report.json",
               {"persistence": verdict, **fields_of(profile)})
    outputs = ["report.json"]
    terms = star.terms()
    qs = np.linspace(profile.window[0], profile.window[1], 801)
    write_csv(out / "profile.csv", ["q", "phi"], qs, terms.phi(qs))
    outputs.append("profile.csv")
    if args.format == "svg":
        write_svg_polyline(out / "profile.svg", qs, [terms.phi(qs)], ["phi"])
        outputs.append("profile.svg")
    code = 0 if verdict.passed else 2
    if args.E is not None:
        try:
            orbit = classify_orbit(star, args.E).to_dict()
        except EnergyBelowWellError as exc:
            orbit = {"class": "error", "message": str(exc)}
            code = 2
        if orbit["class"] == "periodic":
            try:
                orbit["period"] = period(star, args.E)
            except RuntimeError as exc:
                orbit.update(period=None, period_error=str(exc))
                code = 2
        write_json(out / "orbit.json", orbit)
        outputs.append("orbit.json")
    return _finish(args, outputs, exit_code=code)


def _make_path(spec_block, fallback, what):
    from .averaging import CoefficientPath
    spec_block = json_fields(spec_block, what, numbers=("freq",),
                             arrays=("value", "base", "rate", "amp"))
    kind = spec_block.get("kind", "constant")
    if kind == "constant":
        return CoefficientPath.constant(spec_block.get("value", fallback))
    base = np.asarray(spec_block.get("base", fallback), dtype=float)
    if kind == "linear":
        rate = np.asarray(spec_block.get("rate", 0.0), dtype=float)
        return CoefficientPath.from_callable(lambda tau: base + rate * tau,
                                             lambda tau: rate * np.ones_like(base))
    if kind == "sinusoid":
        amp = np.asarray(spec_block.get("amp", 0.0), dtype=float)
        freq = float(spec_block.get("freq", 1.0))
        return CoefficientPath.from_callable(
            lambda tau: base + amp * np.sin(freq * tau),
            lambda tau: amp * freq * np.cos(freq * tau))
    raise ValueError(f"unknown coefficient path kind {kind!r}")


def _cmd_average(args):
    from .averaging import AveragedState, SlowEnvironment, evolve_averaged
    data = _load_json(args.input, "environment",
                      numbers=("mu", "epsilon", "dbar", "beta"),
                      arrays=("gamma_hat", "gamma"), required=("star",))
    star = _load_star(data["star"], "star")
    env = SlowEnvironment(
        a=_make_path(data.get("a_path", {}), star.a, "a_path"),
        b=_make_path(data.get("b_path", {}), star.b, "b_path"),
        rbar=_make_path(data.get("rbar_path", {}), star.rbar, "rbar_path"),
        mu=data.get("mu", star.mu),
        epsilon=data.get("epsilon", 0.01),
        dbar=data.get("dbar", 0.0),
        beta=data.get("beta", 0.0),
        gamma_hat=data.get("gamma_hat"),
        gamma=data.get("gamma"),
    )
    init = AveragedState(tau=0.0, E=args.E0, Cbar=star.C)
    avg = evolve_averaged(env, init, args.tau_end)
    out = _out_dir(args)
    avg.to_csv(out / "averaged.csv")
    write_json(out / "events.json", avg.events)
    outputs = ["averaged.csv", "events.json"]
    if args.format == "svg":
        write_svg_polyline(out / "averaged.svg", avg.tau, [avg.E], ["E"])
        outputs.append("averaged.svg")
    return _finish(args, outputs)


def _cmd_resonance(args):
    from .resonance import (TwoStarSystem, detuning, instability_criterion,
                            integrate_resonance, linearize)
    couplings = ("atilde1", "atilde2", "btilde1", "btilde2")
    data = _load_json(args.input, "two-star",
                      numbers=("kappa", "epsilon", "d1", "d2"), arrays=couplings,
                      required=("star1", "star2", "kappa", "epsilon") + couplings)
    ts = TwoStarSystem(star1=_load_star(data["star1"], "star1"),
                       star2=_load_star(data["star2"], "star2"),
                       atilde1=data["atilde1"], atilde2=data["atilde2"],
                       btilde1=data["btilde1"], btilde2=data["btilde2"],
                       kappa=data["kappa"], epsilon=data["epsilon"],
                       d1=data.get("d1", 0.0), d2=data.get("d2", 0.0))
    model = linearize(ts)
    verdict = instability_criterion(model)
    out = _out_dir(args)
    write_json(out / "verdict.json",
               {**fields_of(verdict), "omega1": model.omega1,
                "omega2": model.omega2, "regime": detuning(model, ts.kappa)})
    outputs = ["verdict.json"]
    if args.tau_end is not None:
        traj = integrate_resonance(model, [args.Q0, args.Q0],
                                   [0.0, np.pi / 2], args.tau_end)
        write_csv(out / "slow_trajectory.csv", ["tau", "Q1", "Q2", "phi1", "phi2"],
                  traj.tau, traj.Q, traj.phi)
        outputs.append("slow_trajectory.csv")
    code = 2 if verdict.verdict == "unstable" else 0
    return _finish(args, outputs, exit_code=code)


def _cmd_ensemble(args):
    from .ensemble import (curve_to_csv, orbit_probability_curve,
                           stability_census, cone_feasibility_frequency)
    from .persistence import RandomMatrixModel, positive_solution_frequency
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    seed = _resolve_seed(args)
    out = _out_dir(args)
    outputs = ["report.json"]
    if args.mode == "census":
        report = stability_census(args.n_low, args.n_high, args.trials,
                                  bbar=args.bbar, sigma_b=args.sigma_b,
                                  sigma_a=args.sigma_a, seed=seed,
                                  parallel=args.workers)
    elif args.mode == "curve":
        mixes = [float(tok) for tok in args.mix.split(",")]
        report = orbit_probability_curve(args.N, mixes, args.trials,
                                         seed=seed, parallel=args.workers)
        curve_to_csv(report, out / "curve.csv")
        outputs.append("curve.csv")
        if args.format == "svg":
            ps = [report.cells[f"periodic@{m:g}"].frequency for m in mixes]
            sol = [report.cells[f"soliton@{m:g}"].frequency for m in mixes]
            write_svg_polyline(out / "curve.svg", mixes, [ps, sol],
                               ["P_periodic", "P_soliton"])
            outputs.append("curve.svg")
    elif args.mode == "cone-frequency":
        report = cone_feasibility_frequency(args.M, args.N, args.r0, args.sigma,
                                    args.trials, seed=seed,
                                    parallel=args.workers)
    elif args.mode == "positive-frequency":
        model = RandomMatrixModel(kind=args.matrix_model)
        report = positive_solution_frequency(args.N, args.trials, model=model,
                                             seed=seed, parallel=args.workers)
    else:
        raise ValueError(f"unknown ensemble mode {args.mode!r}")
    write_json(out / "report.json", report)
    return _finish(args, outputs)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hamlv",
        description="Hamiltonian analysis of two-group Lotka-Volterra webs")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed (overrides HLV_SEED)")

    p = sub.add_parser("netgen", help="generate a scale-free topology")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--m", type=int, default=2, help="edges per arriving node")
    common(p)
    p.set_defaults(func=_cmd_netgen)

    p = sub.add_parser("check", help="sign class, factorization, certificates")
    p.add_argument("--input", required=True, help="system JSON")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="direct integration of the system")
    p.add_argument("--input", required=True, help="system JSON")
    p.add_argument("--state", required=True, help='initial {"x": [...], "v": [...]}')
    p.add_argument("--t-end", type=float, default=100.0, dest="t_end")
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--atol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("canonical", help="canonical transform and reduced run")
    p.add_argument("--input", required=True, help="system JSON")
    p.add_argument("--state", required=True)
    p.add_argument("--t-end", type=float, default=100.0, dest="t_end")
    p.add_argument("--h", type=float, default=1e-3, help="symplectic step")
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("star", help="potential profile, persistence, orbit class")
    p.add_argument("--input", required=True, help="star JSON")
    p.add_argument("--E", type=float, default=None, help="energy to classify")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    common(p)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("average", help="slow-environment averaged evolution")
    p.add_argument("--input", required=True, help="environment JSON")
    p.add_argument("--E0", type=float, required=True)
    p.add_argument("--tau-end", type=float, default=1.0, dest="tau_end")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    common(p)
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("resonance", help="two-star linearization and verdict")
    p.add_argument("--input", required=True, help="two-star JSON")
    p.add_argument("--tau-end", type=float, default=None, dest="tau_end",
                   help="also integrate the slow system this far")
    p.add_argument("--Q0", type=float, default=1e-3)
    common(p)
    p.set_defaults(func=_cmd_resonance)

    p = sub.add_parser("ensemble", help="seeded Monte Carlo experiments")
    modes = p.add_subparsers(dest="mode", required=True)

    serial_workers = ("upper limit on worker threads; every ensemble runs "
                      "on one thread, so the report is the same for any "
                      "value")

    pc = modes.add_parser("census", help="random-potential stability census")
    pc.add_argument("--n-low", type=int, default=1, dest="n_low")
    pc.add_argument("--n-high", type=int, default=100, dest="n_high")
    pc.add_argument("--trials", type=int, default=1000)
    pc.add_argument("--bbar", type=float, default=1.0)
    pc.add_argument("--sigma-b", type=float, default=10.0, dest="sigma_b")
    pc.add_argument("--sigma-a", type=float, default=5.0, dest="sigma_a")
    pc.add_argument("--workers", type=int, default=1,
                    help=serial_workers)
    common(pc)
    pc.set_defaults(func=_cmd_ensemble)

    pv = modes.add_parser("curve", help="orbit-type probability curve")
    pv.add_argument("--N", type=int, default=10)
    pv.add_argument("--mix", default="0,0.1,0.2,0.3,0.4")
    pv.add_argument("--trials", type=int, default=150)
    pv.add_argument("--workers", type=int, default=1,
                    help=serial_workers)
    pv.add_argument("--format", choices=["csv", "svg"], default="csv")
    common(pv)
    pv.set_defaults(func=_cmd_ensemble)

    p2 = modes.add_parser("cone-frequency", help="cone-condition frequency experiment")
    p2.add_argument("--M", type=int, default=3)
    p2.add_argument("--N", type=int, default=300)
    p2.add_argument("--r0", type=float, default=1.0)
    p2.add_argument("--sigma", type=float, default=0.3)
    p2.add_argument("--trials", type=int, default=200)
    p2.add_argument("--workers", type=int, default=1,
                    help=serial_workers)
    common(p2)
    p2.set_defaults(func=_cmd_ensemble)

    p3 = modes.add_parser("positive-frequency", help="positive-solution frequency experiment")
    p3.add_argument("--N", type=int, default=10)
    p3.add_argument("--trials", type=int, default=2000)
    p3.add_argument("--matrix-model", choices=["sparse_uniform", "dense_gaussian"],
                    default="sparse_uniform", dest="matrix_model")
    p3.add_argument("--workers", type=int, default=1,
                    help=serial_workers)
    common(p3)
    p3.set_defaults(func=_cmd_ensemble)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the contract reserves 2 for negative
        # certificates, so remap parse failures to 1
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
