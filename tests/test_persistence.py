from unittest import mock

import numpy as np
import pytest
import scipy.optimize._linprog_highs as linprog_highs
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize._linprog_util import _check_result

from hamlv import persistence
from hamlv.canonical import find_factors
from hamlv.model import InteractionSystem
from hamlv.persistence import (RandomMatrixModel, _max_min_entry,
                               _sample_indices, adaptive_solve,
                               cone_condition, permanence,
                               positive_solution_frequency,
                               strong_persistence)
from hamlv.star import StarSystem, persistence_criteria
from hamlv.ensemble import cone_feasibility_frequency
from oracle import (choice_sparse_draw, dense_max_min_entry,
                    linprog_adaptive_solve)


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
        # (10001, 300) is the case numpy samples without Floyd's algorithm
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (_sample_indices(rng, m, take)
                    == ref.choice(m, size=take, replace=False).tolist())
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    @pytest.mark.parametrize("N, model", [
        (40, RandomMatrixModel()),
        (10, RandomMatrixModel(K=2.5, max_row_nonzero=6, max_col_nonzero=6)),
        (1, RandomMatrixModel())])
    def test_frequency_unchanged_with_choice_draw(self, monkeypatch, N, model):
        res = positive_solution_frequency(N, 300, model=model, seed=21)
        monkeypatch.setattr(RandomMatrixModel, "draw", choice_sparse_draw)
        assert positive_solution_frequency(N, 300, model=model, seed=21) == res


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
    """The sparse constraint blocks hand HiGHS the same model as the dense."""

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
                    res.v_certificate.to_dict(), res.x_certificate.to_dict(),
                    perm.to_dict())

        sparse = certificates()
        monkeypatch.setattr(persistence, "_max_min_entry", dense_max_min_entry)
        dense = certificates()
        assert sparse == dense
        assert sparse[1] and sparse[3]["witness"] is not None
        assert sparse[5]["equilibrium"] is not None


def capture_models(fn, *args):
    """The models fn(*args) hands HiGHS, through ``persistence.linprog`` or
    through scipy's ``_highs_wrapper``, as tuples (c, indptr, indices, data,
    row_lower, row_upper, lb, ub)."""
    models, direct, wrapper = [], persistence.linprog, \
        linprog_highs._highs_wrapper

    def via_direct(c, A, row_lower, row_upper, lb, ub):
        models.append((c, *A, row_lower, row_upper, lb, ub))
        return direct(c, A, row_lower, row_upper, lb, ub)

    def via_wrapper(c, indptr, indices, data, lhs, rhs, lb, ub, *rest):
        models.append((c, indptr, indices, data, lhs, rhs, lb, ub))
        return wrapper(c, indptr, indices, data, lhs, rhs, lb, ub, *rest)

    with mock.patch.object(persistence, "linprog", via_direct), \
            mock.patch.object(linprog_highs, "_highs_wrapper", via_wrapper):
        fn(*args)
    return models


def assert_same_models(mine, ref):
    assert len(mine) == len(ref) == 1
    for got, want in zip(mine[0], ref[0]):
        assert np.array_equal(got, want)
        if want.dtype.kind == "f":
            assert got.astype(float).tobytes() == want.tobytes()


class TestDirectHighs:
    """One LP entry point, bit for bit ``linprog(method="highs")``."""

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
        assert_same_models(capture_models(_max_min_entry, A, b),
                           capture_models(dense_max_min_entry, A, b))

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
            assert_same_models(
                capture_models(adaptive_solve, B, r, signs),
                capture_models(linprog_adaptive_solve, B, r, signs))
        assert kinds == {"feasible", "alone", "clash"}

    def test_options_are_linprogs(self):
        seen = []
        wrapper = linprog_highs._highs_wrapper

        def spy(*args):
            seen.append(args[-1])
            return wrapper(*args)

        with mock.patch.object(linprog_highs, "_highs_wrapper", spy):
            dense_max_min_entry([[1.0, 2.0]], [3.0])
        passed = {key: value for key, value in seen[0].items()
                  if value is not None and key != "sense"}
        assert set(passed) == {"presolve", "simplex_strategy",
                               "highs_debug_level", "output_flag",
                               "log_to_console"}
        for key, value in passed.items():
            want = (("on" if value else "off") if key == "presolve"
                    else value if isinstance(value, bool) else int(value))
            assert getattr(persistence._HIGHS_OPTIONS, key) == want

    def test_infeasible_lp_reports_the_highs_status(self):
        # x >= 1 and x <= 0
        A = (np.array([0, 1]), np.array([0]), np.array([1.0]))
        x, message = persistence.linprog(
            np.zeros(1), A, np.array([-np.inf]), np.zeros(1), np.ones(1),
            np.full(1, np.inf))
        assert x is None and message == "Infeasible"


def unit_lp(x=(0.5, 0.5), objective=-0.5, activity=(0.9, 1.0)):
    """An optimum of a two-variable LP with bounds [0, 1], an inequality row
    (<= 1) and an equality row (= 1), as the check receives it."""
    return (np.array(x), objective, np.array(activity), np.zeros(2),
            np.ones(2), np.array([-np.inf, 1.0]), np.array([1.0, 1.0]))


def linprog_accepts(x, objective, activity, lb, ub, row_lower, row_upper):
    """Verdict of scipy's own check of a linprog(method="highs") answer."""
    slack = row_upper - activity
    status, _ = _check_result(x, objective, 0, slack[:1], slack[1:],
                              np.column_stack((lb, ub)), 1e-9, "", None)
    return status == 0


class TestLpValidityCheck:
    TOL = persistence._LP_TOL

    @pytest.mark.parametrize("case, rule", [
        (dict(), None),
        (dict(x=(np.nan, 0.5)), "NaN"),
        (dict(objective=np.nan), "NaN"),
        (dict(activity=(np.nan, 1.0)), "NaN"),
        (dict(x=(1.0 + 2 * TOL, 0.5)), "bounds"),
        (dict(x=(0.5, -2 * TOL)), "bounds"),
        (dict(x=(1.0 + 0.5 * TOL, -0.5 * TOL)), None),
        (dict(activity=(1.0 + 2 * TOL, 1.0)), "upper side"),
        (dict(activity=(1.0 + 0.5 * TOL, 1.0)), None),
        (dict(activity=(-1e300, 1.0)), None),
        (dict(activity=(0.9, 1.0 + 2 * TOL)), "upper side"),
        (dict(activity=(0.9, 1.0 - 2 * TOL)), "lower side"),
        (dict(activity=(0.9, 1.0 - 0.5 * TOL)), None),
    ])
    def test_each_rule_rejects(self, case, rule):
        lp = unit_lp(**case)
        reason = persistence._lp_violation(*lp)
        if rule is None:
            assert reason is None
        else:
            assert rule in reason
        assert (reason is None) == linprog_accepts(*lp)

    def test_rejected_optimum_fails_adaptive_solve(self, monkeypatch):
        monkeypatch.setattr(persistence, "_lp_violation",
                            lambda *args: "a planted violation")
        with pytest.raises(RuntimeError, match="^LP solver failed: Optimal, "
                           "but a planted violation$"):
            adaptive_solve([[1.0, 1.0]], [2.0, 3.0])

    def test_rejected_optimum_is_no_certificate(self, monkeypatch):
        monkeypatch.setattr(persistence, "_lp_violation",
                            lambda *args: "a planted violation")
        assert _max_min_entry([[1.0, 2.0]], [3.0]) == (None, None)
        cert = cone_condition([[1.0, 2.0]], [3.0])
        assert not cert.feasible and cert.slack == 0.0


class TestLpCount:
    """The benchmark counts LPs by wrapping ``persistence.linprog``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made, solve = [], persistence.linprog

        def counted(*args):
            made.append(1)  # list.append is atomic, so threads may share it
            return solve(*args)

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
    def test_one_per_cone_trial(self, calls, parallel):
        cone_feasibility_frequency(3, 12, 1.0, 0.5, 9, seed=2,
                                   parallel=parallel)
        assert len(calls) == 9
