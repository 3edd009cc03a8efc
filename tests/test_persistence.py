import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamlv import persistence
from hamlv.canonical import find_factors
from hamlv.model import InteractionSystem
from hamlv.persistence import (RandomMatrixModel, _cone_verdict,
                               _max_min_entry, _positive_basis_witness,
                               _sample_indices, adaptive_solve,
                               cone_condition, permanence,
                               positive_solution_frequency,
                               strong_persistence)
from hamlv.star import StarSystem, persistence_criteria
from hamlv.ensemble import cone_feasibility_frequency
from hamlv.util import json_bytes, trial_rngs
from oracle import (choice_draw, choice_sparse_draw, dense_max_min_entry,
                    linprog_adaptive_solve, positive_outcomes)


class TestConeCondition:
    def test_feasible_with_witness(self):
        cert = cone_condition([[1.0, 2.0]], [3.0])
        assert cert.feasible and cert.rank_ok
        assert np.all(cert.witness > 0)
        assert cert.residual < 1e-9
        np.testing.assert_allclose([[1.0, 2.0]] @ cert.witness, [3.0],
                                   rtol=1e-9)

    def test_infeasible_negative_target(self):
        cert = cone_condition([[1.0, 2.0]], [-1.0])
        assert not cert.feasible

    def test_mixed_signs_reach_any_target(self):
        assert cone_condition([[1.0, -2.0]], [-1.0]).feasible

    def test_rank_deficient_flagged(self):
        cert = cone_condition([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        assert not cert.rank_ok

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            B = rng.normal(size=(2, 6))
            rbar = rng.normal(size=2)
            scale = rng.uniform(0.1, 10.0, 2)
            a = cone_condition(B, rbar)
            b = cone_condition(scale[:, None] * B, scale * rbar)
            assert a.feasible == b.feasible

    def test_witness_resubstitution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            B = rng.normal(size=(3, 40))
            rbar = rng.normal(size=3)
            cert = cone_condition(B, rbar)
            if cert.feasible:
                assert np.min(cert.witness) == pytest.approx(cert.slack)
                assert cert.slack > 0
                resid = np.linalg.norm(rbar - B @ cert.witness)
                assert resid <= 1e-9 * np.linalg.norm(rbar) + 1e-12

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            cone_condition([[1.0], [2.0]], [1.0, 2.0])


def structured_cone(M, N, r0, seed, shape):
    """B (M x N) and rbar drawn as in the cone ensemble, then bent into a
    shape: "duplicate" opens every block with column 0, "rank" makes the
    last row a multiple of the first (M > 1; M = 1 zeroes B), and "facet"
    puts every column in {x_0 >= 0}, every other one on x_0 = 0, and rbar
    on that face of their cone: no strictly positive combination."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((M, N))
    rbar = rng.normal(r0, 1.0, M)
    if shape == "duplicate":
        B[:, M + 1::M + 1] = B[:, :1]
    elif shape == "rank":
        B[-1] = 2.0 * B[0] if M > 1 else 0.0
    elif shape == "facet":
        B[0] = np.abs(B[0])
        B[0, ::2] = 0.0
        rbar = B[:, ::2] @ rng.uniform(0.5, 2.0, B[:, ::2].shape[1])
    return B, rbar


class TestPositiveBasisShortcut:
    """The cone ensemble's verdict without an LP must be the LP's."""

    @settings(max_examples=150, deadline=None)
    @given(M=st.integers(1, 4), extra=st.integers(0, 9),
           r0=st.sampled_from([0.0, 0.5, 2.0, -1.0]),
           seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(["gaussian", "duplicate", "rank", "facet"]))
    @example(M=3, extra=0, r0=1.0, seed=0, shape="gaussian")   # N = M
    @example(M=3, extra=1, r0=1.0, seed=0, shape="gaussian")   # N = M+1
    @example(M=2, extra=7, r0=0.0, seed=3, shape="duplicate")
    @example(M=2, extra=7, r0=0.5, seed=4, shape="rank")
    @example(M=2, extra=7, r0=0.5, seed=5, shape="facet")
    def test_verdict_is_the_lp_verdict(self, M, extra, r0, seed, shape):
        B, rbar = structured_cone(M, M + extra, r0, seed, shape)
        cert = cone_condition(B, rbar)
        assert _cone_verdict(B, rbar) == (cert.feasible and cert.rank_ok)
        z = _positive_basis_witness(B, rbar)
        if z is not None:
            assert cert.feasible and z.min() >= 1.0 and z.max() <= 1e4
            assert (np.linalg.norm(rbar - B @ z)
                    <= 1e-9 * np.linalg.norm(rbar))
        if shape == "facet" and B.shape[1] > 1:  # a column off the face
            assert z is None and not cert.feasible

    def test_certifies_where_geometry_decides(self):
        # one block in eight is a positive basis at M = 3, so a trial
        # misses all 75 blocks with probability (7/8)^75 = 4.5e-5
        rng = np.random.default_rng(8)
        for _ in range(20):
            B, rbar = rng.standard_normal((3, 300)), rng.normal(1.0, 0.3, 3)
            z = _positive_basis_witness(B, rbar)
            assert z is not None and np.count_nonzero(z != 1.0) <= 4

    def test_no_block_no_certificate(self):
        # N < M+1 leaves no block, and a singular one raises nothing
        assert _positive_basis_witness(np.eye(3), np.ones(3)) is None
        assert _positive_basis_witness(np.ones((2, 3)), np.ones(2)) is None

    def test_block_that_is_no_positive_basis_certifies_nothing(self):
        # b_3 = 3 (b_1 + b_2), so lam = (0.6, 0.6, -0.2) is not positive.
        # Lifting the least entry gives z = (13, 13, 2), which does solve
        # B z = rbar; but the block spans only a quadrant and proves nothing
        # for other rbar, so only the positivity test of lam rejects it
        B = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 3.0]])
        rbar = np.array([19.0, 19.0])
        assert _positive_basis_witness(B, rbar) is None
        assert _cone_verdict(B, rbar) and cone_condition(B, rbar).feasible


class TestStrongPersistence:
    def test_classical_pair(self):
        sys = InteractionSystem(r=[1.0], rbar=[1.0], A=[[1.0]], B=[[1.0]])
        res = strong_persistence(sys, find_factors(sys.A, sys.B))
        assert res.applicable and res.persistent
        np.testing.assert_allclose(res.v_certificate.witness, [1.0])
        np.testing.assert_allclose(res.x_certificate.witness, [1.0])

    def test_unequal_mu_star_fails(self):
        sys = InteractionSystem(r=[1.0, 1.0], rbar=[1.0], A=[[1.0], [2.0]],
                                B=[[1.0, 2.0]])
        res = strong_persistence(sys, find_factors(sys.A, sys.B))
        assert res.applicable and not res.persistent
        assert not res.v_certificate.feasible

    def test_singular_interaction_reports_rank_failure(self):
        # identity minus (1/N) * ones has a zero eigenvalue
        n = 5
        W = np.eye(n) - np.ones((n, n)) / n
        sys = InteractionSystem(r=np.ones(n), rbar=np.ones(n), A=W, B=W.T)
        res = strong_persistence(sys, find_factors(sys.A, sys.B))
        assert res.applicable
        assert not res.rank_ok
        assert not res.persistent

    def test_infeasible_v_certificate_reports_s_star(self):
        # A v = r asks v = -1: the best minimum entry s* is -1, and the
        # certificate reports it as the slack, as cone_condition does
        sys = InteractionSystem(r=[-1.0, -2.0], rbar=[1.0], A=[[1.0], [2.0]],
                                B=[[1.0, 2.0]])
        res = strong_persistence(sys, find_factors(sys.A, sys.B))
        cert = res.v_certificate
        assert res.applicable and not cert.feasible
        assert cert.witness is None and cert.residual == np.inf
        s_star, _ = _max_min_entry(sys.A, sys.r)
        assert cert.slack == s_star == pytest.approx(-1.0)

    def test_not_applicable_without_positive_factors(self):
        sys = InteractionSystem(r=[1.0], rbar=[1.0], A=[[1.0]], B=[[-1.0]])
        res = strong_persistence(sys, find_factors(sys.A, sys.B))
        assert not res.applicable

    def test_self_limitation_not_applicable(self):
        sys = InteractionSystem(r=[1.0], rbar=[1.0], A=[[1.0]], B=[[1.0]],
                                Gamma=[[0.1]])
        res = strong_persistence(sys, find_factors(sys.A, sys.B))
        assert not res.applicable

    def test_cone_condition_agrees_with_star_criteria(self):
        # cross-module: for M = 1 stars with rho > 0, cone feasibility of the
        # hub equation matches the coercivity verdict
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            a = rng.uniform(0.3, 2.0, n)
            rho = rng.uniform(0.3, 2.0, n)
            b = rho * a
            rbar = float(rng.normal(0.0, 1.0))
            star = StarSystem(a=a, b=b, rbar=rbar, mu=1.0)
            verdict = persistence_criteria(star)
            cert = cone_condition(b[None, :], [rbar])
            assert verdict.passed == (cert.feasible and cert.rank_ok)


class TestPermanence:
    @staticmethod
    def eps_system(eps=0.05):
        return InteractionSystem(r=[1.0], rbar=[1.0], A=[[1.0]], B=[[1.0]],
                                 Gamma=[[eps]], D=[[eps]])

    def test_diagonal_limitation_permanent(self):
        sys = self.eps_system()
        rep = permanence(sys, find_factors(sys.A, sys.B))
        assert rep.pd and rep.has_positive_equilibrium and rep.permanent
        assert rep.min_eig_sym == pytest.approx(0.05)

    def test_zero_matrix_not_permanent(self):
        sys = InteractionSystem(r=[1.0], rbar=[1.0], A=[[1.0]], B=[[1.0]])
        rep = permanence(sys, find_factors(sys.A, sys.B))
        assert not rep.pd and not rep.permanent

    def test_small_perturbation_keeps_permanence(self):
        sys = self.eps_system()
        f = find_factors(sys.A, sys.B)
        rng = np.random.default_rng(3)
        for _ in range(10):
            # stay inside the continuity radius eps * min(rho, sigma) / 2
            pert = rng.uniform(-0.02, 0.02, size=(1, 1))
            rep = permanence(sys, f, A_pert=pert, B_pert=-pert.T)
            assert rep.permanent

    def test_scaling_invariance(self):
        # M scales by 1/c under rho -> c rho, sigma -> c sigma
        from hamlv.canonical import HamiltonianFactors
        sys = self.eps_system()
        base = find_factors(sys.A, sys.B)
        scaled = HamiltonianFactors(rho=3.0 * base.rho, sigma=3.0 * base.sigma,
                                    positive=True)
        rep1 = permanence(sys, base)
        rep2 = permanence(sys, scaled)
        assert rep1.pd == rep2.pd == True
        assert rep2.min_eig_sym == pytest.approx(rep1.min_eig_sym / 3.0)

    @pytest.mark.parametrize("eps", [0.05, 0.0])
    def test_equilibrium_is_the_certificate_witness(self, eps):
        sys = self.eps_system(eps)
        rep = permanence(sys, find_factors(sys.A, sys.B))
        eq_mat = np.block([[-sys.Gamma, sys.A], [sys.B, sys.D]])
        cert = cone_condition(eq_mat, np.concatenate((sys.r, sys.rbar)))
        assert rep.has_positive_equilibrium == cert.feasible
        if cert.feasible:
            assert np.array_equal(rep.equilibrium, cert.witness)
        else:
            assert rep.equilibrium is None

    def test_equilibrium_witness_solves_system(self):
        sys = self.eps_system()
        rep = permanence(sys, find_factors(sys.A, sys.B))
        x, v = rep.equilibrium[:1], rep.equilibrium[1:]
        assert -sys.r[0] + sys.A[0, 0] * v[0] - sys.Gamma[0, 0] * x[0] == \
            pytest.approx(0.0, abs=1e-9)


class TestAdaptiveSolve:
    def test_single_hub_any_weight_works(self):
        sol = adaptive_solve([[1.0, 1.0]], [2.0, 3.0])
        assert sol.feasible
        w = sol.sigma[0]
        np.testing.assert_allclose(sol.rho, [w / 2.0, w / 3.0])

    def test_infeasible_reports_violated_rows(self):
        sol = adaptive_solve([[1.0, -1.0]], [1.0, 1.0])
        assert not sol.feasible
        assert sol.violated == (1,)

    def test_matches_direction_grid_oracle(self):
        # oracle: scan the weight simplex w = (t, 1 - t) at resolution 1e-3
        rng = np.random.default_rng(8)
        for _ in range(12):
            B = rng.normal(size=(2, 5))
            r = rng.choice([-1.0, 1.0], 5) * rng.uniform(0.5, 2.0, 5)
            sol = adaptive_solve(B, r)
            ts = np.linspace(1e-3, 1.0 - 1e-3, 999)
            ws = np.column_stack((ts, 1.0 - ts))
            margins = np.sign(r)[None, :] * (ws @ B)
            oracle = bool(np.any(np.all(margins > 0, axis=1)))
            assert sol.feasible == oracle

    def test_requested_signs(self):
        B = np.array([[1.0, -1.0]])
        sol = adaptive_solve(B, [1.0, 1.0], rho_signs=[1.0, -1.0])
        assert sol.feasible
        assert sol.rho[0] > 0 > sol.rho[1]

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            adaptive_solve([[1.0]], [0.0])


class TestPositiveSolutionFrequency:
    def test_scalar_case_near_half(self):
        res = positive_solution_frequency(1, 4000, seed=13)
        assert res["ci_low"] < 0.5 < res["ci_high"]

    def test_nonincreasing_in_system_size(self):
        freqs = [positive_solution_frequency(N, 1500, seed=77)["frequency"]
                 for N in (5, 10, 20, 40)]
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))

    def test_dense_gaussian_rare_at_40(self):
        res = positive_solution_frequency(
            40, 400, model=RandomMatrixModel(kind="dense_gaussian"), seed=1)
        assert res["frequency"] <= 0.1

    def test_worker_count_irrelevant(self):
        a = positive_solution_frequency(6, 300, seed=9, parallel=1)
        b = positive_solution_frequency(6, 300, seed=9, parallel=4)
        assert a == b

    def test_sparse_model_respects_caps(self):
        model = RandomMatrixModel(max_row_nonzero=3, max_col_nonzero=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = model.draw(rng, 12)
            nz_rows = np.count_nonzero(A, axis=1)
            nz_cols = np.count_nonzero(A, axis=0)
            assert np.all(nz_rows >= 1) and np.all(nz_cols >= 1)
            assert np.all(nz_rows <= 3) and np.all(nz_cols <= 3)


class ZeroingGenerator:
    """A Generator whose uniform draws below ``cut`` in magnitude read 0.0.

    The rule acts on values, so a scalar call and a vector call over the
    same stream see the same zeros."""

    def __init__(self, rng, cut):
        self._rng, self._cut = rng, cut

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def uniform(self, low, high, size=None):
        out = np.asarray(self._rng.uniform(low, high, size))
        out = np.where(np.abs(out) < self._cut, 0.0, out)
        return float(out) if size is None else out


SIZES = (1, 3, 10, 40, 100)
CAPS = ((1, 3), (3, 1), (3, 3), (6, 6), (5, 2))  # (max_row, max_col)


def assert_draws_match(model, n, make_rng):
    """The draw and the Generator.choice oracle give the same bytes and
    leave the stream at the same place."""
    rng, ref = make_rng(), make_rng()
    got, want = model.draw(rng, n), choice_sparse_draw(model, ref, n)
    assert got.tobytes() == want.tobytes()
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def twin_generators(seeds):
    """Two equal PCG64 Generators for each seed; odd seeds start with a
    32-bit half kept from an earlier draw."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    refs = [np.random.default_rng(seed) for seed in seeds]
    for seed, rng, ref in zip(seeds, rngs, refs):
        if seed % 2:
            rng.integers(0, 3)
            ref.integers(0, 3)
    return rngs, refs


def dense_group(stack):
    """A dense (trials, n, n) stack as a ``_MatrixGroup``."""
    return persistence._MatrixGroup(stack.shape[-1], np.arange(stack.size),
                                    stack.ravel())


def choice_group(model, rngs, n):
    """``RandomMatrixModel._draw_group`` made of the Generator-call draws."""
    return dense_group(np.array([choice_draw(model, rng, n)
                                 for rng in rngs]).reshape(len(rngs), n, n))


class TestSparseDrawStream:
    """The sparse draw makes Generator.choice's draws itself."""

    @pytest.mark.parametrize("K", (0.3, 1.0, 2.5))
    @pytest.mark.parametrize("caps", CAPS)
    def test_same_bytes_as_choice(self, caps, K):
        model = RandomMatrixModel(K=K, max_row_nonzero=caps[0],
                                  max_col_nonzero=caps[1])
        for n in SIZES:
            for seed in range(12):
                assert_draws_match(model, n,
                                   lambda: np.random.default_rng([seed, n]))

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES),
           max_row=st.integers(1, 7), max_col=st.integers(1, 7),
           K=st.sampled_from((0.3, 1.0, 2.5)))
    def test_same_bytes_as_choice_property(self, seed, n, max_row, max_col, K):
        model = RandomMatrixModel(K=K, max_row_nonzero=max_row,
                                  max_col_nonzero=max_col)
        assert_draws_match(model, n, lambda: np.random.default_rng(seed))

    @pytest.mark.parametrize("caps", CAPS + ((2, 7),))
    @pytest.mark.parametrize("n", SIZES)
    def test_block_is_each_draw(self, caps, n):
        # 60 streams in lockstep, half of them starting with a kept half
        model = RandomMatrixModel(max_row_nonzero=caps[0],
                                  max_col_nonzero=caps[1])
        rngs, refs = twin_generators(range(100 * n, 100 * n + 60))
        block = model._draw_group(rngs, n).stack(0, len(rngs))
        for A, rng, ref in zip(block, rngs, refs):
            assert A.tobytes() == choice_sparse_draw(model, ref, n).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("caps", ((3, 3), (6, 6), (5, 2)))
    def test_zero_base_entry_leaves_its_column_open(self, caps):
        # a third of the uniform draws read 0.0; a zero base entry leaves its
        # column open, and an extra entry drawn there replaces it
        model = RandomMatrixModel(max_row_nonzero=caps[0],
                                  max_col_nonzero=caps[1])
        refilled = 0
        for seed in range(40):
            def make_rng():
                return ZeroingGenerator(np.random.default_rng(seed), 1.0 / 3.0)
            assert_draws_match(model, 10, make_rng)
            replay = make_rng()
            perm = replay.permutation(10)
            base = replay.uniform(-1.0, 1.0, 10)
            A = model.draw(make_rng(), 10)
            refilled += int(np.sum((base == 0.0)
                                   & (A[np.arange(10), perm] != 0.0)))
        assert refilled > 0

    @pytest.mark.parametrize("m, take", [(1, 1), (2, 2), (5, 3), (40, 2),
                                         (20000, 100), (10001, 300)])
    def test_sample_indices_is_choice(self, m, take):
        # (10001, 300) is the case numpy samples without Floyd's algorithm;
        # the word reader leaves it to the Generator calls
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            source = persistence._stream_source([rng], m, take + 1)
            picks = _sample_indices(source, np.array([0]), np.array([m]),
                                    np.array([take]))
            source.close()
            assert (picks[0].tolist()
                    == ref.choice(m, size=take, replace=False).tolist())
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    def test_sample_indices_of_many_streams(self):
        # each stream its own population and sample size, as in one row
        m = np.array([1, 2, 5, 40, 40, 7, 300, 3] * 4)
        take = np.array([1, 2, 3, 2, 1, 7, 5, 1] * 4)
        rngs = [np.random.default_rng(s) for s in range(m.size)]
        refs = [np.random.default_rng(s) for s in range(m.size)]
        source = persistence._stream_source(rngs, 300, 8)
        assert isinstance(source, persistence._Pcg64Streams)
        picks = _sample_indices(source, np.arange(m.size), m, take)
        source.close()
        for row, ref, size, count in zip(picks, refs, m, take):
            assert (row[:count].tolist()
                    == ref.choice(size, size=count, replace=False).tolist())
        for rng, ref in zip(rngs, refs):
            assert rng.bit_generator.state == ref.bit_generator.state

    # hits > 0 at N = 5 and 10; 2 blocks + 3 trials run as three blocks
    @pytest.mark.parametrize("N, trials, model, seed", [
        (40, 300, RandomMatrixModel(), 21),
        (10, 300, RandomMatrixModel(K=2.5, max_row_nonzero=6,
                                    max_col_nonzero=6), 21),
        (1, 300, RandomMatrixModel(), 21),
        (5, 2000, RandomMatrixModel(), 707),
        (10, 2000, RandomMatrixModel(), 1),
        (40, 2 * persistence._block_size(40) + 3, RandomMatrixModel(), 3),
        (8, 300, RandomMatrixModel(kind="dense_gaussian"), 4)],
        ids=["40-model0", "10-model1", "1-model2", "5-hits", "10-hits",
             "40-three-blocks", "dense_gaussian"])
    def test_frequency_unchanged_with_choice_draw(self, monkeypatch, N,
                                                  trials, model, seed):
        # the outcomes of one Generator-call draw and one solve a trial, and
        # the same report with those draws put in at the block draw
        res = positive_solution_frequency(N, trials, model=model, seed=seed)
        assert res["outcomes"] == positive_outcomes(
            choice_draw(model, rng, N) for rng in trial_rngs(seed, 0, trials))
        monkeypatch.setattr(RandomMatrixModel, "_draw_group", choice_group)
        assert positive_solution_frequency(N, trials, model=model,
                                           seed=seed) == res


class TestFrequencyBlocks:
    """positive_solution_frequency draws and solves its trials in blocks; the
    outcomes are those of one Generator-call draw and one solve a trial."""

    def test_hits_across_blocks(self, monkeypatch):
        # a budget of 64 matrices at N = 5: 131 trials in three blocks
        model = RandomMatrixModel()
        monkeypatch.setattr(persistence, "_BLOCK_BYTES", 64 * 8 * 5 * 5)
        res = positive_solution_frequency(5, 2 * 64 + 3, model=model,
                                          seed=707)
        assert res["hits"] > 0
        assert res["outcomes"] == positive_outcomes(
            choice_draw(model, rng, 5)
            for rng in trial_rngs(707, 0, 2 * 64 + 3))

    @pytest.mark.parametrize("model", [
        RandomMatrixModel(),
        RandomMatrixModel(K=2.5, max_row_nonzero=6, max_col_nonzero=6)],
        ids=["model0", "model1"])
    def test_groups_and_solve_blocks_give_the_oracle_matrices(
            self, monkeypatch, model):
        # a budget of two matrices at N = 40: lockstep groups of a few
        # trials, each solved in blocks of at most two
        N, trials, seed = 40, 40, 3
        monkeypatch.setattr(persistence, "_BLOCK_BYTES", 2 * 8 * N * N)
        groups, stacks = [], []
        draw_group = RandomMatrixModel._draw_group
        solve = persistence._positive_solutions

        def group_spy(self, rngs, n):
            groups.append(len(rngs))
            return draw_group(self, rngs, n)

        def solve_spy(stack):
            stacks.append(stack.copy())
            return solve(stack)

        monkeypatch.setattr(RandomMatrixModel, "_draw_group", group_spy)
        monkeypatch.setattr(persistence, "_positive_solutions", solve_spy)
        res = positive_solution_frequency(N, trials, model=model, seed=seed)
        oracle = [choice_draw(model, rng, N)
                  for rng in trial_rngs(seed, 0, trials)]
        assert len(groups) > 1 and sum(groups) == trials
        assert len(stacks) > len(groups)
        assert max(len(stack) for stack in stacks) <= 2
        assert np.concatenate(stacks).tobytes() == np.array(oracle).tobytes()
        assert res["outcomes"] == positive_outcomes(oracle)

    def test_singular_matrix_reads_false(self, monkeypatch):
        N, trials, seed = 5, 300, 707
        model = RandomMatrixModel()
        hit = positive_solution_frequency(N, trials, seed=seed)[
            "outcomes"].index(True)
        matrices = model._draw_group(list(trial_rngs(seed, 0, trials)),
                                     N).stack(0, trials)
        matrices[hit][0] = 0.0
        draw_group = RandomMatrixModel._draw_group

        def with_singular(self, rngs, n):
            stack = draw_group(self, rngs, n).stack(0, len(rngs))
            stack[hit, 0] = 0.0  # a zero row: LU meets an exact zero pivot
            return dense_group(stack)

        monkeypatch.setattr(RandomMatrixModel, "_draw_group", with_singular)
        res = positive_solution_frequency(N, trials, seed=seed)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array(matrices), np.ones((trials, N, 1)))
        assert res["outcomes"][hit] is False
        assert res["outcomes"] == positive_outcomes(matrices)

    @pytest.mark.parametrize("N", (40, 200))
    def test_block_stack_within_budget(self, monkeypatch, N):
        stacks = []
        solve = persistence._positive_solutions

        def spy(stack):
            stacks.append(stack.shape)
            return solve(stack)

        monkeypatch.setattr(persistence, "_positive_solutions", spy)
        trials = 2 * persistence._block_size(N) + 3
        positive_solution_frequency(N, trials, seed=0)
        assert len(stacks) == 3
        assert sum(shape[0] for shape in stacks) == trials
        for shape in stacks:
            assert shape[1:] == (N, N)
            assert 8 * shape[0] * N * N <= persistence._BLOCK_BYTES


class TestModelFields:
    @pytest.mark.parametrize("fields, name", [
        (dict(max_col_nonzero=0), "max_col_nonzero"),
        (dict(max_row_nonzero=0), "max_row_nonzero"),
        (dict(max_row_nonzero=-2), "max_row_nonzero"),
        (dict(max_col_nonzero=2.5), "max_col_nonzero"),
        (dict(max_row_nonzero=3.0), "max_row_nonzero"),
        (dict(K=float("nan")), "K"),
        (dict(K=float("inf")), "K"),
        (dict(K=-1.0), "K"),
        (dict(K=0.0), "K"),
        (dict(K="1"), "K"),
        (dict(kind="sparse"), "matrix model")])
    def test_rejected_when_built(self, fields, name):
        # these used to draw matrices above the column cap, or to fail
        # inside numpy only when a matrix was drawn
        with pytest.raises(ValueError, match=name):
            RandomMatrixModel(**fields)

    def test_integer_caps_accepted(self):
        model = RandomMatrixModel(K=2, max_row_nonzero=np.int64(2),
                                  max_col_nonzero=1)
        assert_draws_match(model, 10, lambda: np.random.default_rng(5))


def reader_and_calls(seeds, block):
    """PCG64 Generators read together by _Pcg64Streams and twins that make
    the calls (``twin_generators``)."""
    rngs, refs = twin_generators(seeds)
    return (rngs, persistence._Pcg64Streams(
        [rng.bit_generator for rng in rngs], block), refs)


class TestPcg64Draws:
    """The word reader gives each stream Generator.integers' and
    Generator.uniform's values and leaves each generator where the calls
    leave it."""

    # 2**31 + 1 rejects about half of the 32-bit draws; 2**32 takes them
    # whole.  A uniform takes a whole word, so a kept half crosses it.  At
    # each step a changing subset of the streams draws, each in its own
    # range, and another subset takes a changing number of uniforms
    @pytest.mark.parametrize("high", (1, 2, 3, 41, 2**31 + 1, 2**32))
    @pytest.mark.parametrize("block", (1, 3, 64))
    def test_same_values_and_state_as_the_calls(self, high, block):
        seeds = range(10)
        rngs, draws, refs = reader_and_calls(seeds, block)
        got, want = [[] for _ in seeds], [[] for _ in seeds]
        for k in range(60):
            streams = np.array([s for s in seeds if (s + k) % 4])
            spans = np.maximum(high - streams % 3, 1)
            values = draws.integers(streams, spans)
            for s, span, value in zip(streams, spans, values):
                got[s].append(int(value))
                want[s].append(int(refs[s].integers(0, span)))
            if k % 3:
                streams = np.array([s for s in seeds if (s + k) % 3])
                counts = (streams + k) % 4
                values = draws.uniform(streams, counts, -2.5, 2.5).tolist()
                for s, count in zip(streams, counts):
                    got[s] += values[:count]
                    values = values[count:]
                    want[s] += refs[s].uniform(-2.5, 2.5, count).tolist()
        draws.close()
        for s in seeds:
            assert got[s] == want[s]
            assert rngs[s].bit_generator.state == refs[s].bit_generator.state
            assert rngs[s].integers(0, 2**62) == refs[s].integers(0, 2**62)

    def test_reader_only_for_plain_pcg64(self):
        pcg = np.random.default_rng(0)
        assert persistence._reads_pcg64(pcg, 40, 3)
        assert persistence._reads_pcg64(pcg, 40, 2**32)
        for other in (np.random.Generator(np.random.MT19937(0)),
                      np.random.Generator(np.random.Philox(0)),
                      np.random.Generator(np.random.SFC64(0)),
                      ZeroingGenerator(pcg, 0.1)):
            assert not persistence._reads_pcg64(other, 40, 3)
        # ranges past 2**32 values, and the row draw's own errors and casts
        for max_row in (0, 2**32 + 1, 3.0, np.int64(3)):
            assert not persistence._reads_pcg64(pcg, 40, max_row)
        # past 10000 open columns numpy's choice leaves Floyd's algorithm
        # for more than m // 50 = 200 picks; a row takes max_row - 1
        assert persistence._reads_pcg64(pcg, 10001, 201)
        assert not persistence._reads_pcg64(pcg, 10001, 202)

    @pytest.mark.parametrize("make", (
        lambda seed: np.random.Generator(np.random.MT19937(seed)),
        lambda seed: np.random.Generator(np.random.Philox(seed)),
        lambda seed: np.random.Generator(np.random.SFC64(seed)),
        lambda seed: ZeroingGenerator(np.random.default_rng(seed), 1.0 / 3.0),
    ), ids=("MT19937", "Philox", "SFC64", "ZeroingGenerator"))
    def test_other_generators_make_the_calls(self, monkeypatch, make):
        monkeypatch.setattr(persistence, "_Pcg64Streams", None)
        for caps in CAPS:
            model = RandomMatrixModel(max_row_nonzero=caps[0],
                                      max_col_nonzero=caps[1])
            for n in (1, 10, 40):
                for seed in range(4):
                    assert_draws_match(model, n, lambda: make(seed))

    def test_pcg64_draw_reads_words(self, monkeypatch):
        opened = []

        class Spy(persistence._Pcg64Streams):
            def close(self):
                opened.append(self)
                super().close()

        monkeypatch.setattr(persistence, "_Pcg64Streams", Spy)
        assert_draws_match(RandomMatrixModel(), 40,
                           lambda: np.random.default_rng(3))
        assert len(opened) == 1

    @pytest.mark.parametrize("caps", [(np.int64(3), np.int32(3)),
                                      (np.uint8(2), True)],
                             ids=["numpy", "numpy-and-bool"])
    def test_caps_of_any_integer_type_read_words(self, monkeypatch, caps):
        # caps were kept as given, and _reads_pcg64 reads only int ones:
        # such a model made one Generator call per value
        opened = []

        class Spy(persistence._Pcg64Streams):
            def close(self):
                opened.append(self)
                super().close()

        monkeypatch.setattr(persistence, "_Pcg64Streams", Spy)
        model = RandomMatrixModel(max_row_nonzero=caps[0],
                                  max_col_nonzero=caps[1])
        assert (model.max_row_nonzero, model.max_col_nonzero) == caps
        assert_draws_match(model, 40, lambda: np.random.default_rng(3))
        assert len(opened) == 1


def factorizable_web(rng, n, m, limitation=0.0):
    """Web with positive factors (sigma_l b_lk = rho_k a_kl) and a positive
    equilibrium, with Gamma = D = limitation * I."""
    A = rng.uniform(0.2, 2.0, (n, m)) * (rng.random((n, m)) < 0.6)
    A[np.arange(n), np.arange(n) % m] = 1.0  # every species interacts
    rho, sigma = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m)
    B = (rho[:, None] * A).T / sigma[:, None]
    x, v = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
    Gamma, D = limitation * np.eye(n), limitation * np.eye(m)
    return InteractionSystem(r=A @ v - Gamma @ x, rbar=B @ x + D @ v, A=A,
                             B=B, Gamma=Gamma, D=D)


class TestSparseLP:
    """``_max_min_entry`` gives the reference's s* and witness bits at sizes
    up to the bench web's."""

    SHAPES = [(3, 300), (30, 300), (300, 30), (330, 330), (5, 5), (1, 4),
              (10, 40)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_same_answer_as_dense(self, shape):
        m, n = shape
        rng = np.random.default_rng(m * 1000 + n)
        cases = []
        A = rng.standard_normal((m, n))
        cases.append((A, rng.normal(1.0, 0.3, m)))           # generic
        A = np.abs(rng.standard_normal((m, n)))
        cases.append((A, rng.uniform(0.5, 1.5, m)))          # feasible
        cases.append((A, -rng.uniform(0.5, 1.5, m)))         # infeasible
        A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.3)
        cases.append((A, rng.normal(1.0, 0.3, m)))           # sparse rows
        A = rng.standard_normal((m, n))
        A[0] = 0.0
        b = rng.normal(1.0, 0.3, m)
        b[0] = 1.0
        cases.append((A, b))                                 # inconsistent
        A = rng.standard_normal((m, n))
        cases.append((A, A @ rng.uniform(0.5, 1.5, n)))      # positive root
        outcomes = set()
        for A, b in cases:
            s_ref, z_ref = dense_max_min_entry(A, b)
            s, z = _max_min_entry(A, b)
            assert s == s_ref
            if z_ref is None:
                assert z is None
                outcomes.add("none")
            else:
                assert np.array_equal(z, z_ref)
                outcomes.add("positive" if s > 0 else "nonpositive")
        assert {"none", "positive"} <= outcomes

    def test_certificates_unchanged(self, monkeypatch):
        rng = np.random.default_rng(17)
        free = factorizable_web(rng, 30, 5)
        limited = factorizable_web(rng, 30, 5, limitation=0.5)

        def certificates():
            res = strong_persistence(free, find_factors(free.A, free.B))
            perm = permanence(limited, find_factors(limited.A, limited.B))
            return (res.applicable, res.persistent, res.rank_ok,
                    *(json.loads(json_bytes(result)) for result in
                      (res.v_certificate, res.x_certificate, perm)))

        sparse = certificates()
        monkeypatch.setattr(persistence, "_max_min_entry", dense_max_min_entry)
        dense = certificates()
        assert sparse == dense
        assert sparse[1] and sparse[3]["witness"] is not None
        assert sparse[5]["equilibrium"] is not None


class TestDirectHighs:
    """The certificates' LPs, bit for bit the ``linprog(method="highs")``
    references of ``tests/oracle.py``."""

    @given(st.integers(1, 8), st.integers(1, 30),
           st.sampled_from([0.0, 0.3, 0.7, 1.0]),
           st.sampled_from(["positive", "negative", "zero", "mixed"]),
           st.integers(0, 2**32 - 1))
    def test_max_min_entry_matches_linprog(self, m, n, sparsity, rhs, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n)) * (rng.random((m, n)) >= sparsity)
        b = {"positive": rng.uniform(0.5, 1.5, m),
             "negative": -rng.uniform(0.5, 1.5, m),
             "zero": np.zeros(m),
             "mixed": rng.normal(0.0, 1.0, m)}[rhs]
        s_ref, z_ref = dense_max_min_entry(A, b)
        s, z = _max_min_entry(A, b)
        assert s == s_ref
        assert (z is None) == (z_ref is None)
        if z_ref is not None:
            assert z.tobytes() == z_ref.tobytes()

    def test_adaptive_solve_matches_linprog(self):
        grid = [([[1.0, 1.0]], [2.0, 3.0], None),             # feasible
                ([[1.0, -1.0]], [1.0, 1.0], None),            # alone
                ([[1.0, -1.0]], [1.0, 1.0], [1.0, -1.0]),     # signs fix it
                ([[1.0, -1.0], [-1.0, 1.0]], [1.0, 1.0], None),  # clash
                ([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0], None)]   # zero entries
        rng = np.random.default_rng(40)
        for m, n in [(1, 3), (2, 5), (3, 3), (4, 12), (6, 4)]:
            for density in (1.0, 0.4):
                B = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
                r = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
                grid.append((B, r, None))
                grid.append((B, r, rng.choice([-1.0, 1.0], n)))
        kinds = set()
        for B, r, signs in grid:
            ref = linprog_adaptive_solve(B, r, signs)
            sol = adaptive_solve(B, r, signs)
            assert sol.feasible == ref.feasible
            assert sol.violated == ref.violated
            if ref.feasible:
                assert sol.sigma.tobytes() == ref.sigma.tobytes()
                assert sol.rho.tobytes() == ref.rho.tobytes()
                kinds.add("feasible")
            else:
                G = np.sign(r) * (np.ones(len(r)) if signs is None
                                  else np.sign(signs)) * np.asarray(B)
                alone = np.all(G <= 0.0, axis=0).any()
                kinds.add("alone" if alone else "clash")
        assert kinds == {"feasible", "alone", "clash"}


class TestLpCount:
    """The benchmark counts LPs by wrapping ``persistence.linprog``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made, solve = [], persistence.linprog

        def counted(*args, **kwargs):
            made.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(persistence, "linprog", counted)
        return made

    def test_each_certificate(self, calls):
        rng = np.random.default_rng(17)
        free = factorizable_web(rng, 30, 5)
        limited = factorizable_web(rng, 30, 5, limitation=0.5)
        for run, count in [
                (lambda: cone_condition([[1.0, 2.0]], [3.0]), 1),
                (lambda: strong_persistence(
                    free, find_factors(free.A, free.B)), 2),
                (lambda: permanence(
                    limited, find_factors(limited.A, limited.B)), 1),
                (lambda: adaptive_solve([[1.0, -1.0]], [1.0, 1.0]), 1)]:
            calls.clear()
            run()
            assert len(calls) == count

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_one_per_uncertified_cone_trial(self, calls, parallel):
        # the LP runs only where no positive basis decides the trial
        cone_feasibility_frequency(3, 12, 1.0, 0.5, 9, seed=2,
                                   parallel=parallel)
        missed = 0
        for rng in trial_rngs(2, 0, 9):
            B, rbar = rng.standard_normal((3, 12)), rng.normal(1.0, 0.5, 3)
            missed += _positive_basis_witness(B, rbar) is None
        assert 0 < missed < 9
        assert len(calls) == missed

    def test_readme_size_makes_no_lp(self, calls):
        cone_feasibility_frequency(3, 300, 1.0, 0.3, 20, seed=0)
        assert calls == []
