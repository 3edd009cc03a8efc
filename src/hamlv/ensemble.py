"""Seeded Monte Carlo studies: random potentials, stability census, orbit curves.

Every experiment draws its trials from per-trial RNG streams keyed by the
master seed, so reports are byte-identical for any worker count.  All
frequencies carry Wilson 95% intervals; downstream checks consume the
intervals rather than the point estimates.

The streams of a call are built together in one ``util.trial_rngs`` call,
and each ensemble loops over them in trial order.  The trials of the orbit
curves and of the positive-solution frequency run in lockstep: the curve
draws all its stars and profiles them in one ``analyze_potential`` call,
whose brackets are bisected in one array pass, and
``persistence.positive_solution_frequency`` draws its matrices in lockstep
groups.

Every ensemble runs its trials on the calling thread; ``parallel`` is kept
as the documented upper limit on worker threads, and no value of it starts
one.  Threads would not pay.  The census and the orbit curves run numpy
calls on small arrays, which hold the GIL.  The cone ensemble settles most
trials by a positive basis among the columns of B, one small batched solve,
and gives only the rest to HiGHS.  On 2 vCPUs with one BLAS thread, a
thread pool ran its trials on two workers at 0.81 to 1.17 times the speed
of one at (M, N) = (3, 300), (3, 8) and (3, 6), three runs each.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .persistence import _cone_verdict
from .star import PotentialTerms, analyze_potential
from .util import json_bytes, trial_rngs, wilson_interval, write_csv


@dataclass(frozen=True)
class EnsembleConfig:
    trials: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # a bool is an Integral, but no count
        if (isinstance(self.trials, bool)
                or not isinstance(self.trials, numbers.Integral)):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for key, value in self.params.items():
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, list) else [value])):
                raise ValueError(f"{key} must be finite, got {value!r}")


@dataclass(frozen=True)
class CellStats:
    hits: int
    n: int
    frequency: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, hits, n):
        lo, hi = wilson_interval(hits, n)
        return cls(hits=hits, n=n, frequency=hits / n, ci_low=lo, ci_high=hi)


@dataclass(frozen=True)
class EnsembleReport:
    kind: str
    config: EnsembleConfig
    cells: dict                  # label -> CellStats
    outcomes: list               # per-trial log, reproducible from the seed

    def to_json_bytes(self):
        return json_bytes(self)


_SQRT3 = np.sqrt(3.0)


def random_potential(N, bbar, sigma_b, sigma_a, seed):
    """Random exponential-sum potential Phi(q) = sum_k b_k exp(a_k q).

    Coefficients b_k ~ Normal(bbar, sigma_b^2) i.i.d.; exponents a_k are
    zero-mean with standard deviation exactly sigma_a, drawn uniform on
    [-sqrt(3) sigma_a, sqrt(3) sigma_a] (bounded, which keeps the exponentials
    tame).  ``seed`` may be an integer or a Generator.  With sigma_a = 0
    every exponent is 0 and the draw is a constant potential.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    b = rng.normal(bbar, sigma_b, N) if sigma_b > 0 else np.full(N, float(bbar))
    if sigma_a <= 0:
        a = np.zeros(N)
    else:
        a = rng.uniform(-_SQRT3 * sigma_a, _SQRT3 * sigma_a, N)
    return PotentialTerms(c=b, a=a, slope=0.0)


# Shape window for the census: a draw counts as stable when Phi falls and
# then rises across [-W, W] with a single interior minimum, read on a
# 401-point grid.
CENSUS_WINDOW = 0.5
_CENSUS_GRID = np.linspace(-CENSUS_WINDOW, CENSUS_WINDOW, 401)
_CENSUS_GRID.setflags(write=False)


def classify_potential_shape(terms):
    """True (stable) iff Phi has the single-well shape on the census window.

    Checks that Phi' is negative entering, positive leaving, and changes sign
    exactly once on a 401-point grid: a unique minimum with the potential
    rising toward both window ends.  A constant Phi' has one sign throughout
    and fails, so a degenerate (flat) potential counts as unstable.
    """
    slopes = terms.dphi(_CENSUS_GRID)
    signs = np.sign(slopes)
    signs[signs == 0] = 1.0
    if signs[0] >= 0 or signs[-1] <= 0:
        return False
    return int(np.count_nonzero(np.diff(signs))) == 1


def stability_census(n_low, n_high, trials, bbar=1.0, sigma_b=10.0,
                     sigma_a=5.0, seed=0, parallel=1):
    """Fraction of random potentials that fail the single-well shape test.

    Each trial draws N uniformly from [n_low, n_high] and a random potential;
    sigma_b sets the deviation of the summed random part of the potential, so
    the per-coefficient spread is sigma_b / sqrt(N) (censuses compare bands of
    very different N on equal noise footing).  The report's "unstable" cell is
    the failing fraction with its Wilson interval.  Runs on the calling
    thread: ``parallel`` is accepted and ignored (see the module docstring).
    """
    if n_low < 1 or n_high < n_low:
        raise ValueError("need 1 <= n_low <= n_high")
    if sigma_b < 0 or sigma_a < 0:
        raise ValueError(f"sigma_b and sigma_a must be nonnegative, got "
                         f"sigma_b = {sigma_b}, sigma_a = {sigma_a}")
    config = EnsembleConfig(trials=trials, seed=seed,
                            params={"n_low": n_low, "n_high": n_high,
                                    "bbar": bbar, "sigma_b": sigma_b,
                                    "sigma_a": sigma_a, "a_dist": "uniform",
                                    "window": CENSUS_WINDOW})

    outcomes = []
    for i, rng in enumerate(trial_rngs(seed, 0, trials)):
        n = int(rng.integers(n_low, n_high + 1))
        terms = random_potential(n, bbar, sigma_b / np.sqrt(n), sigma_a, rng)
        outcomes.append({"trial": i, "N": n,
                         "stable": bool(classify_potential_shape(terms))})
    unstable = sum(1 for o in outcomes if not o["stable"])
    cells = {"unstable": CellStats.from_counts(unstable, trials)}
    return EnsembleReport(kind="stability_census", config=config, cells=cells,
                          outcomes=outcomes)


# The random-star protocol: |a_i| and |b_i| are folded normals around abar
# and bbar with deviation sigma, and rbar is the slope of the linear term.
RANDOM_STAR = {"abar": 1.0, "bbar": 1.0, "sigma": 0.5, "rbar": 5.0}


def draw_mixed_star_terms(rng, N, mix):
    """Potential terms of a random star with predator-prey pairs partly flipped.

    Magnitudes |a_i|, |b_i| come from folded normals around the means of
    ``RANDOM_STAR``; with probability ``mix`` a pair is not predator-prey and
    the sign of b_i flips, turning rho_i = b_i / a_i negative.  All a_i stay
    positive, so the -rbar q term keeps the left side coercive.
    """
    abar, sigma = RANDOM_STAR["abar"], RANDOM_STAR["sigma"]
    a = np.abs(rng.normal(abar, sigma, N))
    a[a == 0] = abar
    b = np.abs(rng.normal(RANDOM_STAR["bbar"], sigma, N))
    flip = rng.random(N) < mix
    b[flip] *= -1.0
    return PotentialTerms(c=b / a, a=a, slope=RANDOM_STAR["rbar"])


def _orbit_type_flags(profile):
    """(has periodic well, admits a soliton energy) from a star's potential
    profile."""
    minima = profile.minima()
    maxima = profile.maxima()
    has_well = bool(minima)
    soliton = any(
        any(m.phi < M.phi for m in minima) for M in maxima
    )
    return has_well, soliton


def orbit_probability_curve(N, mix_grid, trials, seed=0, parallel=1):
    """P(periodic well) and P(soliton energy) against the mixing probability.

    Follows the random-star protocol (``RANDOM_STAR``): per mixing value,
    ``trials`` stars are drawn and classified by their potential profile; a
    soliton needs a local maximum with a well below it.  The stars of every
    mixing value are drawn first, each from its own stream, and then
    profiled together in one ``analyze_potential`` call.  Runs on the
    calling thread: ``parallel`` is accepted and ignored (see the module
    docstring).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    mix_grid = [float(m) for m in mix_grid]
    if any(not 0.0 <= m <= 1.0 for m in mix_grid):
        raise ValueError("mixing probabilities must lie in [0, 1]")
    config = EnsembleConfig(trials=trials, seed=seed,
                            params={"N": N, "mix_grid": mix_grid,
                                    **RANDOM_STAR})

    # separate stream block per grid point keeps trials independent
    stars = [draw_mixed_star_terms(rng, N, mix)
             for j, mix in enumerate(mix_grid)
             for rng in trial_rngs(seed + 7919 * j, 0, trials)]
    flags = [_orbit_type_flags(profile)
             for profile in analyze_potential(stars)]
    cells = {}
    outcomes = []
    for j, mix in enumerate(mix_grid):
        block = [{"mix": mix, "trial": i, "periodic": well, "soliton": soliton}
                 for i, (well, soliton)
                 in enumerate(flags[j * trials:(j + 1) * trials])]
        outcomes.extend(block)
        k_per = sum(1 for o in block if o["periodic"])
        k_sol = sum(1 for o in block if o["soliton"])
        cells[f"periodic@{mix:g}"] = CellStats.from_counts(k_per, trials)
        cells[f"soliton@{mix:g}"] = CellStats.from_counts(k_sol, trials)
    return EnsembleReport(kind="orbit_probability_curve", config=config,
                          cells=cells, outcomes=outcomes)


def curve_to_csv(report, path):
    """Write an orbit-probability report as mix,P_periodic,...,P_soliton_hi."""
    rows = []
    for mix in report.config.params["mix_grid"]:
        per = report.cells[f"periodic@{mix:g}"]
        sol = report.cells[f"soliton@{mix:g}"]
        rows.append([mix, per.frequency, per.ci_low, per.ci_high,
                     sol.frequency, sol.ci_low, sol.ci_high])
    write_csv(path, ["mix", "P_periodic", "P_periodic_lo", "P_periodic_hi",
                     "P_soliton", "P_soliton_lo", "P_soliton_hi"], rows)


def cone_feasibility_frequency(M, N, r0, sigma, trials, seed=0, parallel=1):
    """Frequency of {rank(B) = M and the cone condition feasible}.

    Draws rbar_j ~ Normal(r0, sigma^2) and b_jk ~ Normal(0, 1) per trial.
    A trial's verdict is ``cone_condition``'s ``feasible and rank_ok``.  It
    is read without an LP when consecutive blocks of M+1 columns hold a
    positive basis whose witness the LP path would accept
    (``persistence._positive_basis_witness``); any other trial takes the
    LP.  A block of Gaussian columns is a positive basis with probability
    2^-M (Wendel 1962), so at M=3, N=300 a trial misses all 75 blocks with
    probability (7/8)^75 = 4.5e-5, and a trial takes about 0.3 ms instead
    of about 5 ms.  Runs on the calling thread: ``parallel`` is accepted and
    ignored (see the module docstring).
    """
    if M < 1 or N < M:
        raise ValueError("need 1 <= M <= N")
    config = EnsembleConfig(trials=trials, seed=seed,
                            params={"M": M, "N": N, "r0": r0, "sigma": sigma})

    outcomes = []
    for i, rng in enumerate(trial_rngs(seed, 0, trials)):
        B = rng.standard_normal((M, N))
        rbar = rng.normal(r0, sigma, M)
        outcomes.append({"trial": i, "feasible": _cone_verdict(B, rbar)})
    k = sum(1 for o in outcomes if o["feasible"])
    cells = {"feasible": CellStats.from_counts(k, trials)}
    return EnsembleReport(kind="cone_feasibility_frequency", config=config,
                          cells=cells, outcomes=outcomes)
