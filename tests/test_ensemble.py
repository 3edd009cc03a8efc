import hashlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hamlv import util
from hamlv.ensemble import (classify_potential_shape, draw_mixed_star_terms,
                            orbit_probability_curve, random_potential,
                            stability_census, cone_feasibility_frequency)
from hamlv.persistence import positive_solution_frequency
from hamlv.star import PotentialTerms, analyze_potential
from hamlv.util import run_indexed_trials, wilson_interval


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
        report.save(path)
        data = json.loads(path.read_text())
        assert data["kind"] == "stability_census"
        assert data["config"]["seed"] == 4
        assert len(data["outcomes"]) == 20


def census_bytes(parallel):
    report = stability_census(1, 40, 120, seed=6, parallel=parallel)
    return report.to_json_bytes()


def curve_bytes(parallel):
    return orbit_probability_curve(10, [0.0, 0.3], 40, seed=6,
                                   parallel=parallel).to_json_bytes()


def positive_bytes(parallel):
    result = positive_solution_frequency(8, 200, seed=6, parallel=parallel)
    return json.dumps(result, sort_keys=True).encode()


class TestThreadPolicy:
    """Only the LP ensemble, whose trials release the GIL, uses the pool."""

    @pytest.mark.parametrize(
        "run", [census_bytes, curve_bytes, positive_bytes],
        ids=["census", "curve", "positive_frequency"])
    def test_gil_bound_ensembles_stay_on_one_thread(self, run, monkeypatch):
        serial = run(1)

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(util, "ThreadPoolExecutor", no_pool)
        assert run(4) == serial

    def test_cone_frequency_uses_the_pool(self, monkeypatch):
        started = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        serial = cone_feasibility_frequency(2, 20, 1.0, 0.3, 30, seed=6)
        monkeypatch.setattr(util, "ThreadPoolExecutor", Recording)
        pooled = cone_feasibility_frequency(2, 20, 1.0, 0.3, 30, seed=6,
                                            parallel=2)
        assert started == [2]
        assert pooled.to_json_bytes() == serial.to_json_bytes()


class TestRunIndexedTrials:
    @staticmethod
    def trial(rng, i):
        return (i, float(rng.random()), threading.get_ident())

    def test_results_in_index_order_for_any_worker_count(self):
        serial = run_indexed_trials(40, 11, self.trial)
        pooled = run_indexed_trials(40, 11, self.trial, parallel=3)
        assert [r[0] for r in serial] == list(range(40))
        assert [r[:2] for r in pooled] == [r[:2] for r in serial]
        assert {r[2] for r in serial} == {threading.get_ident()}

    def test_streams_are_keyed_by_seed_and_index(self):
        draws = run_indexed_trials(3, 11, self.trial)
        assert [d[1] for d in draws] == [
            float(util.trial_rng(11, i).random()) for i in range(3)]

    @pytest.mark.parametrize("parallel", [1, 3])
    def test_trial_exception_propagates(self, parallel):
        def trial(rng, i):
            if i == 5:
                raise ValueError("trial 5 failed")
            return i

        with pytest.raises(ValueError, match="trial 5 failed"):
            run_indexed_trials(10, 0, trial, parallel=parallel)
