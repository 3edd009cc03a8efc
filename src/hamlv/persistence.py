"""Persistence and permanence certificates via linear programming and eigenvalues.

Strong persistence of a limitation-free factorizable system reduces to rank
conditions plus strict positive solvability of two linear systems; permanence
under self-limitation follows from positive definiteness of a scaled block
matrix.  Strict positivity is decided by maximizing the minimum entry subject
to the equality constraints, so every certificate carries an auditable
witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .util import run_indexed_trials, wilson_interval


@dataclass(frozen=True)
class FeasibilityCertificate:
    feasible: bool
    witness: np.ndarray  # None when infeasible
    slack: float
    rank_ok: bool
    residual: float

    def to_dict(self):
        return {
            "feasible": self.feasible,
            "witness": None if self.witness is None else self.witness.tolist(),
            "slack": self.slack,
            "rank_ok": self.rank_ok,
            "residual": self.residual,
        }


def _max_min_entry(A_eq, b_eq, cap=1e4):
    """Maximize s subject to A_eq z = b_eq, z >= s.

    Row-normalizes the equalities first, so the answer is invariant under
    positive row rescaling.  The witness is capped at ``cap`` per entry
    (cones needing components beyond it are treated as degenerate), which
    keeps the polished residual at machine scale.  Returns (s_star, z) or
    (None, None) when the equalities themselves are inconsistent.
    """
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    m, n = A_eq.shape
    row_scale = np.max(np.abs(np.hstack((A_eq, b_eq[:, None]))), axis=1)
    row_scale[row_scale == 0.0] = 1.0
    A_n = A_eq / row_scale[:, None]
    b_n = b_eq / row_scale
    # variables (z_1..z_n, s); minimize -s
    c = np.zeros(n + 1)
    c[-1] = -1.0
    # s - z_i <= 0, and the equalities with a zero column for s; handed over
    # sparse, so linprog skips scanning the dense n x (n+1) identity block
    rows = np.arange(n)
    A_ub = csc_array((np.append(np.full(n, -1.0), np.ones(n)),
                      np.append(rows, rows), np.append(rows, [n, 2 * n])),
                     shape=(n, n + 1))
    b_ub = np.zeros(n)
    eq = csc_array(np.hstack((A_n, np.zeros((m, 1)))))
    bounds = [(-cap, cap)] * n + [(-cap, cap)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=eq, b_eq=b_n, bounds=bounds,
                  method="highs")
    if not res.success:
        return None, None
    z = res.x[:n]
    # polish: the LP meets the equalities only to solver tolerance; the
    # minimum-norm correction restores them to machine precision
    correction, *_ = np.linalg.lstsq(A_n, b_n - A_n @ z, rcond=None)
    z = z + correction
    return float(np.min(z)), z


def _rank_ok(mat, rank, tol):
    """rank(mat) = rank by singular values: none below tol times the largest."""
    svals = np.linalg.svd(mat, compute_uv=False)
    return bool(0 < rank <= svals.size and svals[-1] > tol * svals[0])


def _certificate(mat, rhs, rank_ok):
    """Certificate that {z > 0 : mat z = rhs} is nonempty: feasible when the
    largest minimum entry s* exceeds 1e-9 |rhs| / |mat|.  The slack is s*, or
    0.0 for inconsistent equalities; only a feasible verdict carries the
    witness z and its relative residual."""
    s_star, z = _max_min_entry(mat, rhs)
    threshold = 1e-9 * (np.linalg.norm(rhs) / max(np.linalg.norm(mat), 1e-300))
    feasible = bool(s_star is not None and s_star > threshold)
    residual = (float(np.linalg.norm(rhs - mat @ z) /
                      max(np.linalg.norm(rhs), 1e-300)) if feasible else np.inf)
    return FeasibilityCertificate(
        feasible=feasible, witness=z if feasible else None,
        slack=0.0 if s_star is None else s_star, rank_ok=rank_ok,
        residual=residual)


def cone_condition(B, rbar, tol=1e-9):
    """Certificate that rbar is a strictly positive combination of B's columns.

    rank_ok checks rank(B) = M by singular values; feasibility decides whether
    {z > 0 : B z = rbar} is nonempty by maximizing the minimum entry of z.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    rbar = np.atleast_1d(np.asarray(rbar, dtype=float))
    m, n = B.shape
    if rbar.shape != (m,):
        raise ValueError(f"rbar must have length {m}, got {rbar.shape}")
    if m > n:
        raise ValueError("cone condition requires M <= N")
    return _certificate(B, rbar, _rank_ok(B, m, tol))


@dataclass(frozen=True)
class PersistenceResult:
    applicable: bool
    persistent: bool = False
    rank_ok: bool = False
    v_certificate: FeasibilityCertificate = None  # solution of A v = r
    x_certificate: FeasibilityCertificate = None  # solution of B x = rbar
    note: str = ""


def strong_persistence(system, factors, tol=1e-9):
    """Strong-persistence verdict for a limitation-free factorizable system.

    True iff rank(A) = M and both A v = r and B x = rbar admit strictly
    positive solutions.  Not applicable (reported, not False) when the system
    has self-limitation or the factors are missing/non-positive.
    """
    if factors is None or not factors.positive:
        return PersistenceResult(applicable=False,
                                 note="requires positive factorization")
    if not system.is_limitation_free():
        return PersistenceResult(applicable=False,
                                 note="requires a limitation-free system")
    rank_ok = _rank_ok(system.A, system.M, tol)
    cert_v = _certificate(system.A, system.r, rank_ok)
    cert_x = cone_condition(system.B, system.rbar, tol=tol)
    persistent = bool(rank_ok and cert_v.feasible and cert_x.feasible)
    return PersistenceResult(applicable=True, persistent=persistent,
                             rank_ok=rank_ok, v_certificate=cert_v,
                             x_certificate=cert_x)


@dataclass(frozen=True)
class PermanenceReport:
    matrix_M: np.ndarray
    pd: bool
    min_eig_sym: float
    has_positive_equilibrium: bool
    equilibrium: np.ndarray  # (x, v) stacked, or None
    permanent: bool

    def to_dict(self):
        return {
            "matrix_M": self.matrix_M.tolist(),
            "pd": self.pd,
            "min_eig_sym": self.min_eig_sym,
            "has_positive_equilibrium": self.has_positive_equilibrium,
            "equilibrium": None if self.equilibrium is None
            else self.equilibrium.tolist(),
            "permanent": self.permanent,
        }


def permanence(system, factors, A_pert=None, B_pert=None, tol=1e-12):
    """Permanence certificate for a factorizable system with perturbations.

    Assembles M = [[Gamma, -A_pert], [B_pert, D]] diag(rho^-1, sigma^-1) and
    requires its symmetric part positive definite together with a positive
    equilibrium of the perturbed system.
    """
    n, m = system.N, system.M
    A_pert = np.zeros((n, m)) if A_pert is None else np.atleast_2d(
        np.asarray(A_pert, dtype=float))
    B_pert = np.zeros((m, n)) if B_pert is None else np.atleast_2d(
        np.asarray(B_pert, dtype=float))
    if factors is None or not factors.positive:
        raise ValueError("permanence criterion requires positive factors")
    if np.any(factors.rho == 0) or np.any(factors.sigma == 0):
        raise ValueError("singular diagonal scaling (zero rho or sigma)")
    top = np.hstack((system.Gamma, -A_pert))
    bottom = np.hstack((B_pert, system.D))
    block = np.vstack((top, bottom))
    inv_scale = np.concatenate((1.0 / factors.rho, 1.0 / factors.sigma))
    M = block * inv_scale[None, :]
    sym = 0.5 * (M + M.T)
    min_eig = float(np.min(np.linalg.eigvalsh(sym)))
    pd = bool(min_eig > tol * max(1.0, float(np.max(np.abs(M)))))

    # positive equilibrium of the perturbed system:
    #   (a + A_pert) v - Gamma x = r ;  (b + B_pert) x + D v = rbar
    eq_mat = np.vstack((
        np.hstack((-system.Gamma, system.A + A_pert)),
        np.hstack((system.B + B_pert, system.D)),
    ))
    eq_rhs = np.concatenate((system.r, system.rbar))
    cert = _certificate(eq_mat, eq_rhs, rank_ok=None)
    return PermanenceReport(matrix_M=M, pd=pd, min_eig_sym=min_eig,
                            has_positive_equilibrium=cert.feasible,
                            equilibrium=cert.witness,
                            permanent=bool(pd and cert.feasible))


@dataclass(frozen=True)
class AdaptiveSolution:
    feasible: bool
    sigma: np.ndarray     # positive weights w_k = sigma_k v_k
    rho: np.ndarray       # implied rho_i closing the balance
    violated: tuple = ()

    def __bool__(self):
        return self.feasible


def adaptive_solve(B, r, rho_signs=None):
    """Meeting-frequency weights making the specialist balance solvable.

    Finds w > 0 with sign((B^T w)_i) = rho_signs_i * sign(r_i) for every i,
    by maximizing the minimum signed margin (an LP; w is capped at 1 since
    the cone is scale-free).  Then rho_i = (B^T w)_i / r_i has the requested
    sign.  On failure the indices violated at the best compromise are
    reported.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    m, n = B.shape
    if r.shape != (n,):
        raise ValueError(f"r must have length {n}, got {r.shape}")
    if np.any(r == 0):
        raise ValueError("growth rates r must be nonzero")
    signs = (np.ones(n) if rho_signs is None
             else np.sign(np.asarray(rho_signs, dtype=float)))
    target = signs * np.sign(r)
    # variables (w_1..w_m, s): maximize s subject to
    #   target_i (B^T w)_i >= s,  w_k >= s,  w <= 1, s <= 1
    G = target[:, None] * B.T        # (n, m)
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.vstack((
        np.hstack((-G, np.ones((n, 1)))),
        np.hstack((-np.eye(m), np.ones((m, 1)))),
    ))
    b_ub = np.zeros(n + m)
    bounds = [(None, 1.0)] * m + [(None, 1.0)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    s_star = float(res.x[-1])
    w = res.x[:m]
    margins = G @ w
    if s_star <= 1e-9:
        # rows no positive w can satisfy even alone; if the failure is a joint
        # clash instead, fall back to the rows tight at the best compromise
        alone = tuple(int(i) for i in range(n) if np.all(G[i] <= 0.0))
        violated = alone or tuple(int(i) for i in np.nonzero(margins <= 1e-12)[0])
        return AdaptiveSolution(feasible=False, sigma=None, rho=None,
                                violated=violated)
    rho = (B.T @ w) / r
    return AdaptiveSolution(feasible=True, sigma=w, rho=rho)


def _sample_indices(rng, m, take):
    """``rng.choice(m, take, replace=False).tolist()``, drawn the way it draws.

    For all but very large samples numpy runs Floyd's algorithm (Bentley &
    Floyd 1987), then a Fisher-Yates shuffle of the picks, each step one
    bounded-integer draw; making those draws here consumes the stream as
    ``choice`` does without its per-call setup.  The large case numpy handles
    otherwise (m > 10000, take > m // 50) stays with ``choice``.
    """
    if m > 10000 and take > m // 50:
        return rng.choice(m, size=take, replace=False).tolist()
    picks, seen = [], set()
    for j in range(m - take, m):
        v = int(rng.integers(0, j + 1))
        if v in seen:  # a repeat takes j, which no earlier step can reach
            v = j
        picks.append(v)
        seen.add(v)
    for k in range(take - 1, 0, -1):
        s = int(rng.integers(0, k + 1))
        picks[k], picks[s] = picks[s], picks[k]
    return picks


@dataclass(frozen=True)
class RandomMatrixModel:
    """Ensemble for the positive-solution frequency experiment.

    kind "sparse_uniform": entries uniform on [-K, K]; the support is a random
    permutation (every row and column nonzero) plus extra entries added per
    row up to max_row_nonzero, respecting max_col_nonzero.
    kind "dense_gaussian": all entries standard normal.

    The sparse draw consumes the generator exactly as picking each row's
    extra columns with ``Generator.choice(open_cols, take, replace=False)``
    does: it makes the same bounded-integer draws in the same order, so a
    seed gives the same matrix bytes.  ``tests/oracle.py`` keeps the
    ``choice`` draw, and the test comparing the two catches a numpy release
    that samples differently.
    """

    kind: str = "sparse_uniform"
    K: float = 1.0
    max_row_nonzero: int = 3
    max_col_nonzero: int = 3

    def draw(self, rng, n):
        if self.kind == "dense_gaussian":
            return rng.standard_normal((n, n))
        if self.kind != "sparse_uniform":
            raise ValueError(f"unknown matrix model {self.kind!r}")
        K, cap = self.K, self.max_col_nonzero
        perm = rng.permutation(n)
        base = rng.uniform(-K, K, n)
        counts = [1] * n
        below_cap = list(range(n)) if cap > 1 else []  # ascending
        rows, cols, vals = [], [], []
        for i, (col, value) in enumerate(zip(perm.tolist(), base.tolist())):
            # entries beyond the base one
            extra = int(rng.integers(0, self.max_row_nonzero))
            if extra <= 0:
                continue
            # the row's open columns: those below the cap, less the base
            # column unless its entry was drawn as exactly zero
            open_cols = (below_cap if value == 0.0
                         else [j for j in below_cap if j != col])
            if not open_cols:
                continue
            take = min(extra, len(open_cols))
            picks = _sample_indices(rng, len(open_cols), take)
            chosen = [open_cols[k] for k in picks]
            rows += [i] * take
            cols += chosen
            vals.append(rng.uniform(-K, K, take))
            for j in chosen:
                counts[j] += 1
                if counts[j] == cap:
                    below_cap.remove(j)
        A = np.zeros((n, n))
        A[np.arange(n), perm] = base
        if rows:  # after the base entries: an extra may fill a zero base slot
            A[rows, cols] = np.concatenate(vals)
        return A


def positive_solution_frequency(N, trials, model=None, seed=0, B=None,
                                parallel=1):
    """Monte Carlo frequency of {A Y = B solvable with Y > 0}, Wilson 95% CI.

    B defaults to the all-ones vector; per-trial RNG streams keyed by the
    master seed make the outcome independent of the worker count.  Trials
    run on the calling thread: the sparse draw and the small solve hold the
    GIL, so ``parallel`` (an upper limit on worker threads) is ignored.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    model = RandomMatrixModel() if model is None else model
    rhs = np.ones(N) if B is None else np.atleast_1d(np.asarray(B, dtype=float))

    def trial(rng, i):
        A = model.draw(rng, N)
        try:
            y = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(y)):
            return False
        return bool(np.all(y > 0))

    outcomes = run_indexed_trials(trials, seed, trial)
    k = int(sum(outcomes))
    lo, hi = wilson_interval(k, trials)
    return {"N": N, "trials": trials, "hits": k, "frequency": k / trials,
            "ci_low": lo, "ci_high": hi, "outcomes": [bool(o) for o in outcomes]}
