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
# scipy's build of HiGHS, the solver behind linprog(method="highs"); the
# module ships with scipy 1.15 and later
import scipy.optimize._highspy._core as _highs

from .util import run_indexed_trials, wilson_interval


# The options linprog(method="highs") passes: presolve on, the dual simplex,
# no debugging and no output.  Built once and never changed; each solve
# copies them.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = 1
_HIGHS_OPTIONS.highs_debug_level = 0
_HIGHS_OPTIONS.output_flag = _HIGHS_OPTIONS.log_to_console = False
# linprog's acceptance tolerance, sqrt(tol) * 10 at its default tol = 1e-9
_LP_TOL = np.sqrt(1e-9) * 10


def _lp_violation(x, objective, activity, lb, ub, row_lower, row_upper):
    """Why an optimum fails linprog's acceptance check, or None if it holds.

    The check of ``scipy.optimize.linprog``: no NaN in x, the objective or
    the row slacks, every bound held within ``_LP_TOL``, and every row within
    ``_LP_TOL`` of its sides (an inequality row has an infinite lower side,
    an equality row equal sides).
    """
    above = row_upper - activity    # linprog's slack and equality residual
    below = row_lower - activity
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(above).any():
        return "the solution contains NaN"
    if not np.all((x >= lb - _LP_TOL) & (x <= ub + _LP_TOL)):
        return f"a variable leaves its bounds by more than {_LP_TOL:.2e}"
    if np.any(above < -_LP_TOL):
        return f"a row exceeds its upper side by more than {_LP_TOL:.2e}"
    if np.any(below > _LP_TOL):
        return f"a row falls below its lower side by more than {_LP_TOL:.2e}"
    return None


def linprog(c, A, row_lower, row_upper, lb, ub):
    """Minimize c x subject to row_lower <= A x <= row_upper, lb <= x <= ub.

    ``A`` is the tuple (indptr, indices, data) of a CSC matrix.  The model
    goes straight to HiGHS with the options of
    ``scipy.optimize.linprog(method="highs")``, and the optimum must pass
    the same acceptance check (``_lp_violation``), so x is bit for bit what
    linprog returns for the same model, without its per-call input cleaning
    and conversions.  Returns (x, message): x is None unless HiGHS reports
    an optimum that passes the check; the message names the HiGHS model
    status and, for a rejected optimum, what failed.

    The name is kept on purpose: it is the one LP entry point of the
    package, and the benchmark counts a run's LPs by wrapping
    ``hamlv.persistence.linprog``.
    """
    indptr, indices, data = A
    n_col, n_row = c.size, row_upper.size
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = n_col, n_row
    matrix = lp.a_matrix_
    matrix.num_col_, matrix.num_row_ = n_col, n_row
    matrix.format_ = _highs.MatrixFormat.kColwise
    # lists convert to HiGHS vectors several times faster than arrays
    matrix.start_ = indptr.tolist()
    matrix.index_ = indices.tolist()
    matrix.value_ = data.tolist()
    lp.col_cost_ = c.tolist()
    lp.col_lower_, lp.col_upper_ = lb.tolist(), ub.tolist()
    lp.row_lower_, lp.row_upper_ = row_lower.tolist(), row_upper.tolist()
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return None, highs.modelStatusToString(
            _highs.HighsModelStatus.kModelError)
    run_status = highs.run()
    status = highs.getModelStatus()
    text = highs.modelStatusToString(status)
    if (run_status == _highs.HighsStatus.kError
            or status != _highs.HighsModelStatus.kOptimal):
        return None, text
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    reason = _lp_violation(x, highs.getInfo().objective_function_value,
                           np.array(solution.row_value), lb, ub, row_lower,
                           row_upper)
    if reason is not None:
        return None, f"{text}, but {reason}"
    return x, text


def _csc_with_ones(values, rows, n_ones):
    """CSC arrays (indptr, indices, data) of a matrix given by columns.

    Column j holds the nonzero entries of values[:, j] at rows[:, j], which
    ascend down the column; a last column holds ones in rows 0..n_ones-1.
    These are the arrays ``scipy.sparse.csc_array`` makes of the same dense
    matrix (exact zeros dropped, rows sorted within each column).
    """
    keep = (values != 0.0).T
    indptr = np.zeros(values.shape[1] + 2, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:-1])
    indptr[-1] = indptr[-2] + n_ones
    indices = np.concatenate((rows.T[keep], np.arange(n_ones)))
    data = np.concatenate((values.T[keep], np.ones(n_ones)))
    return indptr, indices, data


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
    # variables (z_1..z_n, s); minimize -s.  Rows 0..n-1 are s - z_i <= 0,
    # rows n..n+m-1 the equalities: column j < n is -1 in row j and then
    # A_n[:, j] below, column n is ones in the first n rows
    c = np.zeros(n + 1)
    c[-1] = -1.0
    values = np.vstack((np.full(n, -1.0), A_n))
    rows = np.vstack((np.arange(n), np.repeat(n + np.arange(m)[:, None], n,
                                              axis=1)))
    A = _csc_with_ones(values, rows, n)
    bounds = np.full(n + 1, cap)
    x, _ = linprog(c, A, np.concatenate((np.full(n, -np.inf), b_n)),
                   np.concatenate((np.zeros(n), b_n)), -bounds, bounds)
    if x is None:
        return None, None
    z = x[:n]
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
    # rows 0..n-1 are s - target_i (B^T w)_i <= 0, rows n..n+m-1 s - w_k <= 0:
    # column k < m is -G[:, k] and then -1 in row n + k, column m is ones
    values = np.vstack((-G, np.full(m, -1.0)))
    rows = np.vstack((np.repeat(np.arange(n)[:, None], m, axis=1),
                      n + np.arange(m)))
    A = _csc_with_ones(values, rows, n + m)
    x, message = linprog(c, A, np.full(n + m, -np.inf), np.zeros(n + m),
                         np.full(m + 1, -np.inf), np.ones(m + 1))
    if x is None:
        raise RuntimeError(f"LP solver failed: {message}")
    s_star = float(x[-1])
    w = x[:m]
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
