"""Hamiltonian analysis of two-group Lotka-Volterra food webs."""

__version__ = "0.1.0"

from .averaging import (AveragedState, CoefficientPath, SlowEnvironment,
                        detect_bursts, evolve_averaged, mu_balance,
                        simulate_slow_fast)
from .canonical import (CanonicalState, CanonicalSystem, HamiltonianFactors,
                        canonicalize, find_factors, from_canonical,
                        hamiltonian, lyapunov_weights, motion_integral,
                        star_equilibrium, to_canonical)
from .ensemble import (EnsembleConfig, EnsembleReport, orbit_probability_curve,
                       random_potential, stability_census, cone_feasibility_frequency)
from .integrate import (Trajectory, integrate_lv, integrate_symplectic,
                        integrate_transformed, poincare_return_time)
from .model import (InteractionSystem, NetworkTopology, SignPattern,
                    classify_signs, connectance, generate_scale_free,
                    overlap_count, powerlaw_exponent)
from .persistence import (FeasibilityCertificate, PermanenceReport,
                          RandomMatrixModel, adaptive_solve, cone_condition,
                          permanence, positive_solution_frequency,
                          strong_persistence)
from .resonance import (ResonanceModel, TwoStarSystem, detuning,
                        instability_criterion, integrate_resonance, linearize,
                        phase_locked_rates)
from .star import (Orbit, PotentialProfile, PotentialTerms, StarSystem,
                   analyze_potential, classify_orbit, domino_check, period,
                   persistence_criteria)
