"""Every settable value of the package, committed as a list.

A settable value is a defaulted parameter of a module-level function or a
method (closures nested inside them are left out), or a defaulted dataclass
field.  An added or removed knob shows up as an edit of SETTABLE in the
change that makes it.
"""

import ast
from pathlib import Path

import hamlv

SETTABLE = [
    "averaging.AveragedTrajectory.meta",
    "averaging.BurstScan.rare",
    "averaging.BurstScan.sampling_warning",
    "averaging.CoefficientPath.__init__(derivative_fn=)",
    "averaging.CoefficientPath.from_callable(derivative=)",
    "averaging.SlowEnvironment.beta",
    "averaging.SlowEnvironment.dbar",
    "averaging.SlowEnvironment.gamma",
    "averaging.SlowEnvironment.gamma_hat",
    "averaging.averaged_rhs(q_hint=)",
    "averaging.detect_bursts(observable=)",
    "averaging.detect_bursts(reference_period=)",
    "averaging.evolve_averaged(atol=)",
    "averaging.evolve_averaged(n_samples=)",
    "averaging.evolve_averaged(q_well=)",
    "averaging.evolve_averaged(rtol=)",
    "averaging.mu_balance(rbar=)",
    "averaging.orbit_averages(q_ref=)",
    "averaging.simulate_slow_fast(atol=)",
    "averaging.simulate_slow_fast(n_samples=)",
    "averaging.simulate_slow_fast(rtol=)",
    "canonical.canonicalize(mu=)",
    "canonical.canonicalize(tol=)",
    "canonical.find_factors(tol=)",
    "canonical.motion_integral(mu=)",
    "canonical.motion_integral(weights=)",
    "cli._finish(exit_code=)",
    "cli.main(argv=)",
    "ensemble.EnsembleConfig.params",
    "ensemble.cone_feasibility_frequency(parallel=)",
    "ensemble.cone_feasibility_frequency(seed=)",
    "ensemble.orbit_probability_curve(parallel=)",
    "ensemble.orbit_probability_curve(seed=)",
    "ensemble.stability_census(bbar=)",
    "ensemble.stability_census(parallel=)",
    "ensemble.stability_census(seed=)",
    "ensemble.stability_census(sigma_a=)",
    "ensemble.stability_census(sigma_b=)",
    "integrate.Trajectory.energy",
    "integrate.Trajectory.escape_time",
    "integrate.Trajectory.escaped",
    "integrate.Trajectory.meta",
    "integrate._adaptive_run(blowup=)",
    "integrate._adaptive_run(t_eval=)",
    "integrate.integrate_lv(atol=)",
    "integrate.integrate_lv(n_samples=)",
    "integrate.integrate_lv(rtol=)",
    "integrate.integrate_lv(t_eval=)",
    "integrate.integrate_symplectic(n_samples=)",
    "integrate.integrate_transformed(atol=)",
    "integrate.integrate_transformed(n_samples=)",
    "integrate.integrate_transformed(rtol=)",
    "integrate.integrate_transformed(t_eval=)",
    "integrate.poincare_return_time(h=)",
    "integrate.poincare_return_time(q_ref=)",
    "model.InteractionSystem.D",
    "model.InteractionSystem.Gamma",
    "model.NetworkTopology.edges",
    "model.NetworkTopology.load_edges(n_nodes=)",
    "model.powerlaw_exponent(x_min=)",
    "persistence.AdaptiveSolution.violated",
    "persistence.PersistenceResult.note",
    "persistence.PersistenceResult.persistent",
    "persistence.PersistenceResult.rank_ok",
    "persistence.PersistenceResult.v_certificate",
    "persistence.PersistenceResult.x_certificate",
    "persistence.RandomMatrixModel.K",
    "persistence.RandomMatrixModel.kind",
    "persistence.RandomMatrixModel.max_col_nonzero",
    "persistence.RandomMatrixModel.max_row_nonzero",
    "persistence.adaptive_solve(rho_signs=)",
    "persistence.cone_condition(tol=)",
    "persistence.permanence(A_pert=)",
    "persistence.permanence(B_pert=)",
    "persistence.permanence(tol=)",
    "persistence.positive_solution_frequency(model=)",
    "persistence.positive_solution_frequency(parallel=)",
    "persistence.positive_solution_frequency(seed=)",
    "persistence.strong_persistence(tol=)",
    "resonance.TwoStarSystem.d1",
    "resonance.TwoStarSystem.d2",
    "resonance.integrate_resonance(n_samples=)",
    "star.Orbit.direction",
    "star.Orbit.q_minus",
    "star.Orbit.q_plateau",
    "star.Orbit.q_plus",
    "star.PersistenceVerdict.i_minus",
    "star.PersistenceVerdict.i_plus",
    "star.PersistenceVerdict.tied",
    "star.PotentialProfile.well(q_ref=)",
    "star.PotentialProfile.window_warning",
    "star.PotentialTerms.slope",
    "star.StarSystem.C",
    "star.StarSystem.is_hamiltonian(tol=)",
    "star.StarSystem.mu",
    "star.StarSystem.r",
    "star.StarSystem.to_interaction_system(d=)",
    "star.StarSystem.to_interaction_system(gamma=)",
    "star._OrbitNodes.dropped",
    "star._OrbitNodes.dt",
    "star.analyze_potential(n_grid=)",
    "star.analyze_potential(q_window=)",
    "star.classify_orbit(q_ref=)",
    "star.period(q_ref=)",
    "star.period(rtol=)",
    "util.json_fields(arrays=)",
    "util.json_fields(numbers=)",
    "util.json_fields(required=)",
    "util.wilson_interval(z=)",
]


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.id if isinstance(target, ast.Name) else getattr(
            target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _defaulted(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def settable_values():
    """module.function(param=), module.Class.method(param=) and
    module.Class.field names, sorted."""
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(Path(hamlv.__file__).parent.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                found += [f"{module}.{node.name}({p}=)"
                          for p in _defaulted(node)]
            elif isinstance(node, ast.ClassDef):
                prefix = f"{module}.{node.name}"
                for item in node.body:
                    if isinstance(item, functions):
                        found += [f"{prefix}.{item.name}({p}=)"
                                  for p in _defaulted(item)]
                    elif (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                          and item.value is not None):
                        found.append(f"{prefix}.{item.target.id}")
    return sorted(found)


def test_settable_values_are_the_committed_list():
    found = settable_values()
    assert found == SETTABLE, (
        f"added: {sorted(set(found) - set(SETTABLE))}, "
        f"removed: {sorted(set(SETTABLE) - set(found))}")
