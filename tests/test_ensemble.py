import hashlib
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hamlv import util
from hamlv.ensemble import (classify_potential_shape, draw_mixed_star_terms,
                            orbit_probability_curve, random_potential,
                            stability_census, cone_feasibility_frequency)
from hamlv.persistence import positive_solution_frequency
from hamlv.star import PotentialTerms, analyze_potential
from hamlv.util import wilson_interval


class TestRandomPotential:
    def test_degenerate_when_spread_vanishes(self):
        terms = random_potential(4, 1.0, 0.0, 0.0, seed=0)
        assert terms.a.tolist() == [0.0] * 4
        assert float(terms.phi(0.3)) == pytest.approx(4.0)

    def test_moments_match_request(self):
        # pooled draws: mean(a) ~ 0 and std(a) ~ sigma_a within 3 SE
        sigma_a, sigma_b = 2.0, 3.0
        draws = [random_potential(100, 1.0, sigma_b, sigma_a, seed=s)
                 for s in range(150)]
        a = np.concatenate([t.a for t in draws])
        b = np.concatenate([t.c for t in draws])
        n = a.size
        assert abs(np.mean(a)) < 3.0 * sigma_a / np.sqrt(n)
        assert abs(np.std(a) - sigma_a) < 3.0 * sigma_a / np.sqrt(n)
        assert abs(np.mean(b) - 1.0) < 3.0 * sigma_b / np.sqrt(n)

    def test_deterministic_per_seed(self):
        t1 = random_potential(10, 1.0, 10.0, 5.0, seed=99)
        t2 = random_potential(10, 1.0, 10.0, 5.0, seed=99)
        np.testing.assert_array_equal(t1.c, t2.c)
        np.testing.assert_array_equal(t1.a, t2.a)

    def test_large_sum_parabola_like(self):
        # many weakly noisy terms: the summed potential is single-well
        hits = sum(classify_potential_shape(
            random_potential(100, 1.0, 1.0, 2.0, seed=s)) for s in range(40))
        assert hits >= 35


class TestStabilityCensus:
    def test_constant_slope_is_unstable(self):
        # sigma_a = 0 puts every exponent at 0; e^q - e^q cancels exactly
        assert not classify_potential_shape(
            random_potential(5, 1.0, 2.0, 0.0, seed=3))
        assert not classify_potential_shape(
            PotentialTerms(c=[1.0, -1.0], a=[1.0, 1.0]))
        report = stability_census(1, 10, 40, sigma_a=0.0, seed=4)
        assert report.cells["unstable"].frequency == 1.0

    def test_positive_coefficients_rarely_unstable(self):
        report = stability_census(2, 60, 400, sigma_b=0.0, seed=3)
        assert report.cells["unstable"].frequency < 0.08

    def test_small_band_fraction(self):
        report = stability_census(1, 100, 600, seed=11)
        freq = report.cells["unstable"].frequency
        assert 0.08 < freq < 0.32

    def test_bands_ordered(self):
        small = stability_census(1, 100, 500, seed=21)
        large = stability_census(500, 1000, 500, seed=22)
        assert small.cells["unstable"].frequency > \
            large.cells["unstable"].frequency

    def test_outcome_log_complete(self):
        report = stability_census(1, 20, 50, seed=1)
        assert len(report.outcomes) == 50
        assert all(1 <= o["N"] <= 20 for o in report.outcomes)

    def test_audit_against_profile_analysis(self):
        # re-classify a sample of logged trials through the potential profiler
        report = stability_census(2, 30, 60, seed=8)
        window = report.config.params["window"]
        for o in report.outcomes[::7]:
            rng = np.random.default_rng(
                np.random.SeedSequence(8, spawn_key=(o["trial"],)))
            n = int(rng.integers(2, 31))
            assert n == o["N"]
            b = rng.normal(1.0, 10.0 / np.sqrt(n), n)
            a = rng.uniform(-np.sqrt(3.0) * 5.0, np.sqrt(3.0) * 5.0, n)
            from hamlv.star import PotentialTerms
            terms = PotentialTerms(c=b, a=a, slope=0.0)
            prof = analyze_potential(terms, q_window=(-window, window))
            minima = prof.minima()
            rising = (float(terms.dphi(-window)) < 0.0
                      and float(terms.dphi(window)) > 0.0)
            stable = rising and len(prof.extrema) == 1 and len(minima) == 1
            assert stable == o["stable"]


class TestOrbitCurves:
    def test_pure_predator_prey_has_no_solitons(self):
        report = orbit_probability_curve(10, [0.0], 150, seed=5)
        assert report.cells["soliton@0"].frequency == 0.0
        assert report.cells["periodic@0"].frequency == 1.0

    def test_soliton_needs_mixing(self):
        report = orbit_probability_curve(10, [0.0, 0.3], 150, seed=5)
        assert report.cells["soliton@0.3"].frequency > \
            report.cells["soliton@0"].frequency

    def test_draw_respects_flip_probability(self):
        rng = np.random.default_rng(2)
        flips = []
        for _ in range(300):
            terms = draw_mixed_star_terms(rng, 20, 0.25)
            flips.append(np.mean(terms.c < 0))
        lo, hi = wilson_interval(int(np.sum(np.array(flips) * 20)), 300 * 20)
        assert lo < 0.25 < hi

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            orbit_probability_curve(5, [1.5], 10, seed=0)


class TestConeFeasibilityFrequency:
    def test_single_hub_sign_argument(self):
        # M = 1, r0 > 0, sigma -> 0: feasible iff some b_k > 0
        report = cone_feasibility_frequency(1, 3, 1.0, 1e-12, 2000, seed=31)
        cell = report.cells["feasible"]
        assert cell.ci_low < 1.0 - 2.0 ** -3 < cell.ci_high

    @pytest.mark.parametrize("M, N", [(3, 6), (3, 8)])
    def test_frequency_at_zero_mean_is_wendels(self, M, N):
        """At r0 = 0 rbar is symmetric like the columns, and rbar is a
        strictly positive combination of b_1..b_N iff b_1..b_N, -rbar lie
        in no half-space.  By Wendel's theorem (Math. Scand. 11, 1962)
        P(feasible) = 1 - 2^-N sum_{k<M} C(N, k): 0.65625 and 0.85547.

        The interval is Wilson's at z = 4, which misses a true p with
        probability about 6e-5 per check (normal approximation).  At
        z = 1.96 the 2000 trials of seed 7 at (3, 8) read 0.8710 and miss
        0.85547; here that reading passes, as a sampling error must.
        """
        trials = 2000
        cell = cone_feasibility_frequency(M, N, 0.0, 1.0, trials,
                                          seed=7).cells["feasible"]
        p = 1.0 - sum(math.comb(N, k) for k in range(M)) / 2.0 ** N
        lo, hi = wilson_interval(cell.hits, trials, z=4.0)
        assert lo <= p <= hi

    def test_large_n_nearly_certain(self):
        report = cone_feasibility_frequency(3, 300, 1.0, 0.3, 100, seed=32)
        assert report.cells["feasible"].frequency >= 0.95


class TestReports:
    def test_bytes_stable_across_workers(self):
        kw = dict(seed=5, sigma_b=4.0)
        a = stability_census(1, 40, 150, parallel=1, **kw)
        b = stability_census(1, 40, 150, parallel=4, **kw)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_frequencies_carry_intervals(self):
        report = cone_feasibility_frequency(2, 10, 1.0, 0.3, 50, seed=2)
        cell = report.cells["feasible"]
        assert 0.0 <= cell.ci_low <= cell.frequency <= cell.ci_high <= 1.0

    @pytest.mark.parametrize("run, digest", [
        (lambda: stability_census(1, 40, 150, sigma_b=4.0, seed=5),
         "18cf6073061dc4ac3ddf520e97a610d4a5ba50a71b7941be0096aef2b1bf5efa"),
        (lambda: orbit_probability_curve(10, [0.0, 0.3], 40, seed=6),
         "3f45f82728f90c30e14961691ba8f5fde094f861410148c382088f444cec5b59"),
        (lambda: positive_solution_frequency(8, 200, seed=6),
         "ddc23bfed5590da92859549f17a22887528a81f3d59161fe2416bbd52354a98f"),
    ], ids=["census", "curve", "positive_frequency"])
    def test_report_bytes_pinned(self, run, digest):
        # a drift in a draw, a verdict or a config echo changes the digest
        report = run()
        blob = (util.json_bytes(report) if isinstance(report, dict)
                else report.to_json_bytes())
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_json_round_trip(self, tmp_path):
        report = stability_census(1, 10, 20, seed=4)
        path = tmp_path / "report.json"
        util.write_json(path, report)
        data = json.loads(path.read_text())
        assert data["kind"] == "stability_census"
        assert data["config"]["seed"] == 4
        assert len(data["outcomes"]) == 20


ENSEMBLES = {
    "census": lambda trials: stability_census(1, 10, trials, seed=1),
    "curve": lambda trials: orbit_probability_curve(5, [0.0, 0.5], trials,
                                                    seed=1),
    "cone": lambda trials: cone_feasibility_frequency(2, 6, 1.0, 0.3, trials,
                                                      seed=1),
    "positive_frequency": lambda trials: positive_solution_frequency(
        5, trials, seed=1),
}


class TestTrialCount:
    @pytest.mark.parametrize("trials", [2.5, True], ids=["fraction", "bool"])
    @pytest.mark.parametrize("name", ENSEMBLES)
    def test_non_integer_trials_rejected(self, name, trials):
        # the census ran 3 trials and reported 2.5 of them, or 1 reported as
        # true; the others failed inside wilson_interval, a slice or a range
        with pytest.raises(ValueError, match="trials must be an integer"):
            ENSEMBLES[name](trials)

    @pytest.mark.parametrize("name", ENSEMBLES)
    def test_numpy_integer_trials_accepted(self, name):
        report = ENSEMBLES[name](np.int64(3))
        assert report == ENSEMBLES[name](3)


def census_bytes(parallel):
    report = stability_census(1, 40, 120, seed=6, parallel=parallel)
    return report.to_json_bytes()


def curve_bytes(parallel):
    return orbit_probability_curve(10, [0.0, 0.3], 40, seed=6,
                                   parallel=parallel).to_json_bytes()


def positive_bytes(parallel):
    result = positive_solution_frequency(8, 200, seed=6, parallel=parallel)
    return json.dumps(result, sort_keys=True).encode()


def cone_bytes(parallel):
    return cone_feasibility_frequency(2, 20, 1.0, 0.3, 30, seed=6,
                                      parallel=parallel).to_json_bytes()


class TestThreadPolicy:
    """Every ensemble runs on the calling thread, whatever ``parallel``."""

    @pytest.mark.parametrize(
        "run", [census_bytes, curve_bytes, positive_bytes, cone_bytes],
        ids=["census", "curve", "positive_frequency", "cone_frequency"])
    def test_gil_bound_ensembles_stay_on_one_thread(self, run, monkeypatch):
        serial = run(1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run(4) == serial


class TestWilsonInterval:
    def test_brackets_the_proportion(self):
        for k in (0, 3, 9):
            lo, hi = wilson_interval(k, 10)
            assert 0.0 <= lo <= k / 10 <= hi <= 1.0

    @pytest.mark.parametrize("k, n", [(3, 2), (-1, 5), (math.nan, 5)])
    def test_impossible_count_rejected(self, k, n):
        # these returned (0.0, 1.0): the NaN of a negative sqrt went through
        # max and min unseen
        with pytest.raises(ValueError, match=r"k must lie in \[0, n\]"):
            wilson_interval(k, n)


def seed_sequence_rng(seed, index):
    """The per-trial stream as numpy builds it: a SeedSequence a trial."""
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(index,)))


class TestTrialStreams:
    """``util.trial_rngs`` builds the streams of many trials together; each
    must be the SeedSequence stream of its index."""

    @given(seed=st.integers(0, 2**70), first=st.integers(0, 2**32 - 40),
           count=st.integers(0, 40))
    @example(seed=0, first=0, count=40)
    @example(seed=2**32 - 1, first=0, count=40)
    @example(seed=2**32, first=0, count=40)
    @example(seed=2**64 + 3, first=0, count=40)   # entropy of three words
    @example(seed=2**140 + 7, first=2**32 - 40, count=40)  # of five words
    def test_same_streams_as_seed_sequences(self, seed, first, count):
        rngs = list(util.trial_rngs(seed, first, first + count))
        assert len(rngs) == count
        for index, rng in enumerate(rngs, start=first):
            ref = seed_sequence_rng(seed, index)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.random() == ref.random()
            assert rng.normal() == ref.normal()
            assert rng.integers(0, 2**40) == ref.integers(0, 2**40)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_numpy_integer_seed(self):
        rng, = util.trial_rngs(np.int64(17), 3, 4)
        assert rng.bit_generator.state == seed_sequence_rng(
            17, 3).bit_generator.state

    def test_negative_seed_raises_seed_sequence_error(self):
        with pytest.raises(ValueError) as expected:
            np.random.SeedSequence(-1, spawn_key=(0,))
        with pytest.raises(ValueError) as got:
            util.trial_rngs(-1, 0, 3)
        assert str(got.value) == str(expected.value)
        with pytest.raises(ValueError, match=str(expected.value)):
            stability_census(1, 2, 3, seed=-5)

    @pytest.mark.parametrize("seed", [1.5, [1, 2], "7"])
    def test_non_integer_seed_raises(self, seed):
        with pytest.raises(TypeError):
            util.trial_rngs(seed, 0, 3)

    @pytest.mark.parametrize("first, stop", [(-1, 2), (3, 2), (0, 2**32 + 1)])
    def test_indices_out_of_range_raise(self, first, stop):
        with pytest.raises(ValueError, match="trial indices"):
            util.trial_rngs(0, first, stop)
