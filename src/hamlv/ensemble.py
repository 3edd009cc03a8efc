"""Seeded Monte Carlo studies: random potentials, stability census, orbit curves.

Every experiment draws its trials from per-trial RNG streams keyed by the
master seed, so reports are byte-identical for any worker count.  All
frequencies carry Wilson 95% intervals; downstream checks consume the
intervals rather than the point estimates.

``parallel`` is an upper limit on worker threads, not a request.  Only the
cone-feasibility ensemble fans out: its trials spend their time in HiGHS,
which releases the GIL, and each LP goes to HiGHS directly
(``persistence.linprog``), so little Python runs around the solve.  On 2
vCPUs with one BLAS thread, two workers ran 160 cone trials (M=3, N=300)
1.2 to 1.8 times as fast as one (three runs; through
``scipy.optimize.linprog``, whose input cleaning holds the GIL, 0.7 to 1.7
times).  The census and the orbit curves run numpy calls on small arrays
and scalar root finding, which hold the GIL, so threads would only add
switching; they run on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .persistence import cone_condition
from .star import PotentialTerms, analyze_potential
from .util import (json_bytes, run_indexed_trials, wilson_interval,
                   write_csv, write_json)


@dataclass(frozen=True)
class EnsembleConfig:
    trials: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for key, value in self.params.items():
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, list) else [value])):
                raise ValueError(f"{key} must be finite, got {value!r}")

    def to_dict(self):
        return {"trials": self.trials, "seed": self.seed,
                "params": dict(self.params)}


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

    def to_dict(self):
        return {"hits": self.hits, "n": self.n, "frequency": self.frequency,
                "ci_low": self.ci_low, "ci_high": self.ci_high}


@dataclass(frozen=True)
class EnsembleReport:
    kind: str
    config: EnsembleConfig
    cells: dict                  # label -> CellStats
    outcomes: list               # per-trial log, reproducible from the seed

    def to_dict(self):
        return {
            "kind": self.kind,
            "config": self.config.to_dict(),
            "cells": {k: v.to_dict() for k, v in sorted(self.cells.items())},
            "outcomes": self.outcomes,
        }

    def to_json_bytes(self):
        return json_bytes(self.to_dict())

    def save(self, path):
        write_json(path, self.to_dict())


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
# then rises across [-W, W] with a single interior minimum.
CENSUS_WINDOW = 0.5


def classify_potential_shape(terms):
    """True (stable) iff Phi has the single-well shape on the census window.

    Checks that Phi' is negative entering, positive leaving, and changes sign
    exactly once on a 401-point grid: a unique minimum with the potential
    rising toward both window ends.  A constant Phi' has one sign throughout
    and fails, so a degenerate (flat) potential counts as unstable.
    """
    qs = np.linspace(-CENSUS_WINDOW, CENSUS_WINDOW, 401)
    slopes = terms.dphi(qs)
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

    def trial(rng, i):
        n = int(rng.integers(n_low, n_high + 1))
        terms = random_potential(n, bbar, sigma_b / np.sqrt(n), sigma_a, rng)
        stable = classify_potential_shape(terms)
        return {"trial": i, "N": n, "stable": bool(stable)}

    outcomes = run_indexed_trials(trials, seed, trial)
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


def _orbit_type_flags(terms):
    """(has periodic well, admits a soliton energy) for a star potential."""
    profile = analyze_potential(terms)
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
    soliton needs a local maximum with a well below it.  Runs on the calling
    thread: ``parallel`` is accepted and ignored (see the module docstring).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    mix_grid = [float(m) for m in mix_grid]
    if any(not 0.0 <= m <= 1.0 for m in mix_grid):
        raise ValueError("mixing probabilities must lie in [0, 1]")
    config = EnsembleConfig(trials=trials, seed=seed,
                            params={"N": N, "mix_grid": mix_grid,
                                    **RANDOM_STAR})

    cells = {}
    outcomes = []
    for j, mix in enumerate(mix_grid):
        def trial(rng, i, mix=mix):
            terms = draw_mixed_star_terms(rng, N, mix)
            well, soliton = _orbit_type_flags(terms)
            return {"mix": mix, "trial": i, "periodic": well, "soliton": soliton}

        # separate stream block per grid point keeps trials independent
        block = run_indexed_trials(trials, seed + 7919 * j, trial)
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
    Trials run on up to ``parallel`` threads, since the LP solver releases
    the GIL; at M=3, N=300 two workers ran 1.2 to 1.8 times as fast as one
    (2 vCPUs).
    """
    if M < 1 or N < M:
        raise ValueError("need 1 <= M <= N")
    config = EnsembleConfig(trials=trials, seed=seed,
                            params={"M": M, "N": N, "r0": r0, "sigma": sigma})

    def trial(rng, i):
        B = rng.standard_normal((M, N))
        rbar = rng.normal(r0, sigma, M)
        cert = cone_condition(B, rbar)
        return {"trial": i, "feasible": bool(cert.feasible and cert.rank_ok)}

    outcomes = run_indexed_trials(trials, seed, trial, parallel=parallel)
    k = sum(1 for o in outcomes if o["feasible"])
    cells = {"feasible": CellStats.from_counts(k, trials)}
    return EnsembleReport(kind="cone_feasibility_frequency", config=config,
                          cells=cells, outcomes=outcomes)
