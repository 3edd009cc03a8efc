"""Persistence and permanence certificates via linear programming and eigenvalues.

Strong persistence of a limitation-free factorizable system reduces to rank
conditions plus strict positive solvability of two linear systems; permanence
under self-limitation follows from positive definiteness of a scaled block
matrix.  Strict positivity is decided by maximizing the minimum entry subject
to the equality constraints, so every certificate carries an auditable
witness.

Every LP is one call of ``scipy.optimize.linprog(method="highs")``, the
HiGHS dual simplex, made through the module name ``linprog``: the benchmark
and the tests count a run's LPs by wrapping ``hamlv.persistence.linprog``.
An LP whose result is not ``success`` (infeasible, unbounded, or an optimum
that fails linprog's own check of bounds and rows) gives no witness.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .util import run_indexed_trials, wilson_interval

# Every witness lies in the LP's box (a cone that needs more is degenerate)
# and meets a polished LP witness's relative residual; a rank check allows
# no singular value below _RANK_TOL times the largest.
_WITNESS_CAP = 1e4
_WITNESS_RESIDUAL = 1e-9
_RANK_TOL = 1e-9


@dataclass(frozen=True)
class FeasibilityCertificate:
    feasible: bool
    witness: np.ndarray  # None when infeasible
    slack: float
    rank_ok: bool
    residual: float


def _max_min_entry(A_eq, b_eq):
    """Maximize s subject to A_eq z = b_eq, z >= s.

    Row-normalizes the equalities first, so the answer is invariant under
    positive row rescaling.  The witness is capped at ``_WITNESS_CAP`` per
    entry, which keeps the polished residual at machine scale.  Returns
    (s_star, z), or (None, None) when the LP has no accepted optimum, as
    when the equalities themselves are inconsistent.
    """
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    m, n = A_eq.shape
    row_scale = np.max(np.abs(np.hstack((A_eq, b_eq[:, None]))), axis=1)
    row_scale[row_scale == 0.0] = 1.0
    A_n = A_eq / row_scale[:, None]
    b_n = b_eq / row_scale
    # variables (z_1..z_n, s); minimize -s subject to s - z_i <= 0 and
    # A_n z = b_n
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack((-np.eye(n), np.ones((n, 1)))),
                  b_ub=np.zeros(n), A_eq=np.hstack((A_n, np.zeros((m, 1)))),
                  b_eq=b_n, bounds=(-_WITNESS_CAP, _WITNESS_CAP),
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


def _positivity_threshold(mat, rhs):
    """The minimum entry a witness of mat z = rhs must exceed to count as
    strictly positive: 1e-9 |rhs| / |mat|."""
    return 1e-9 * (np.linalg.norm(rhs) / max(np.linalg.norm(mat), 1e-300))


def _relative_residual(mat, rhs, z):
    return float(np.linalg.norm(rhs - mat @ z) /
                 max(np.linalg.norm(rhs), 1e-300))


def _certificate(mat, rhs, rank_ok):
    """Certificate that {z > 0 : mat z = rhs} is nonempty: feasible when the
    largest minimum entry s* exceeds ``_positivity_threshold``.  The slack is
    s*, or 0.0 for inconsistent equalities; only a feasible verdict carries
    the witness z and its relative residual."""
    s_star, z = _max_min_entry(mat, rhs)
    feasible = bool(s_star is not None
                    and s_star > _positivity_threshold(mat, rhs))
    residual = _relative_residual(mat, rhs, z) if feasible else np.inf
    return FeasibilityCertificate(
        feasible=feasible, witness=z if feasible else None,
        slack=0.0 if s_star is None else s_star, rank_ok=rank_ok,
        residual=residual)


def cone_condition(B, rbar, tol=_RANK_TOL):
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


# Blocks per batched solve: at M = 3 one block in eight is a positive basis,
# so the first solve mostly decides, and a miss costs little more than one
# solve of every block.
_BLOCKS_PER_SOLVE = 8


def _positive_basis_witness(B, rbar):
    """A z >= 1 with B z = rbar read off a positive basis among fixed blocks
    of B's columns, or None.

    Block k holds the M+1 columns (M+1)k .. (M+1)k+M.  If lam > 0 solves
    G lam = [0; 1] for G = [B_S; 1^T], the block S is a positive basis of
    R^M (C. Davis, Amer. J. Math. 76, 1954), and every rbar is then a
    strictly positive combination of B's columns: z_j = 1 off S and
    z_S = 1 + y + t lam, where G y = [rbar - B 1; 0] and t lifts the least
    entry on S to 2.  Each batched solve against [I | rhs] takes
    ``_BLOCKS_PER_SOLVE`` blocks and gives each its G^-1, lam (the last
    column of G^-1) and y.  A block counts only when
    - min lam exceeds 3 n^3 eps kappa_inf(G) |lam|_inf with n = M+1: a
      first-order bound on the forward error of an LU solve with partial
      pivoting, the growth factor taken as n (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., Thm 9.4), and
    - its witness meets what the LP path asks of one: the relative
      residual of B z = rbar within ``_WITNESS_RESIDUAL``, min z >= 1 and
      above ``_positivity_threshold``, every entry within ``_WITNESS_CAP``.

    A miss proves nothing: a spanning set may need up to 2M columns.  A
    singular block passes over the blocks solved with it, N < M+1 gives
    None, and nothing raises.  No value is drawn at random.
    """
    M, N = B.shape
    n = M + 1
    rhs = np.zeros((n, n + 1))
    rhs[:, :n] = np.eye(n)
    rhs[:M, n] = rbar - B.sum(axis=1)
    roundoff = 3 * n ** 3 * np.finfo(float).eps
    threshold = _positivity_threshold(B, rbar)
    end = N - N % n
    for first in range(0, end, _BLOCKS_PER_SOLVE * n):
        cols = B[:, first:min(first + _BLOCKS_PER_SOLVE * n, end)]
        G = np.ones((cols.shape[1] // n, n, n))
        G[:, :M] = cols.reshape(M, -1, n).transpose(1, 0, 2)
        try:
            solved = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            continue
        lam, y = solved[:, :, M], solved[:, :, n]
        with np.errstate(all="ignore"):
            kappa = (np.abs(G).sum(axis=2).max(axis=1)
                     * np.abs(solved[:, :, :n]).sum(axis=2).max(axis=1))
            basis = (lam.min(axis=1)
                     > roundoff * kappa * np.abs(lam).max(axis=1))
            lam, y = lam[basis], y[basis]
            t = ((1.0 - y) / lam).max(axis=1)
            z_blocks = 1.0 + y + t[:, None] * lam
            fits = ((z_blocks.min(axis=1) >= 1.0)
                    & (z_blocks.max(axis=1) <= _WITNESS_CAP))
        for k, z_block in zip(np.flatnonzero(basis)[fits], z_blocks[fits]):
            z = np.ones(N)
            z[first + k * n:first + (k + 1) * n] = z_block
            if (z.min() > threshold and _relative_residual(B, rbar, z)
                    <= _WITNESS_RESIDUAL):
                return z
    return None


def _cone_verdict(B, rbar):
    """``cone_condition(B, rbar)``'s verdict ``feasible and rank_ok``, with
    no LP when ``_positive_basis_witness`` decides feasibility."""
    if _positive_basis_witness(B, rbar) is None:
        cert = cone_condition(B, rbar)
        return bool(cert.feasible and cert.rank_ok)
    return _rank_ok(B, B.shape[0], _RANK_TOL)


@dataclass(frozen=True)
class PersistenceResult:
    applicable: bool
    persistent: bool = False
    rank_ok: bool = False
    v_certificate: FeasibilityCertificate = None  # solution of A v = r
    x_certificate: FeasibilityCertificate = None  # solution of B x = rbar
    note: str = ""


def strong_persistence(system, factors, tol=_RANK_TOL):
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
    reported.  The LP always has a solution (w = 0, s = 0); a solve without
    ``success`` raises RuntimeError with linprog's message.
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
    A_ub = np.vstack((np.hstack((-G, np.ones((n, 1)))),
                      np.hstack((-np.eye(m), np.ones((m, 1))))))
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n + m), bounds=(None, 1.0),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    s_star, w = float(res.x[-1]), res.x[:m]
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


class _Pcg64Draws:
    """``Generator.integers(low, high)`` and ``Generator.uniform(low, high,
    size)`` of a PCG64 Generator, read from its words: the same values in the
    same order, without a Generator call per value.

    numpy draws an integer in a range of at most 2**32 values by Lemire's
    method (Lemire 2019) on 32-bit halves of the 64-bit PCG64 words, the low
    half first and the high half kept for the next such draw; a range of one
    value draws nothing.  A uniform double takes the top 53 bits of a whole
    word and leaves a kept half where it is.  Words come in blocks from
    ``random_raw``, which run past the last one used, so ``close`` restores
    the generator, advances it by the words used and sets the kept half: the
    state the Generator calls would have left.
    """

    def __init__(self, bit_generator, block):
        self._bitgen, self._block = bit_generator, block
        self._start = bit_generator.state
        self._has_half = self._start["has_uint32"]
        self._half = self._start["uinteger"]
        self._words = []     # the unused words of the last block, next last
        self._fetched = 0

    def _refill(self, size):
        """Fetch a block of at least size words behind the unused ones."""
        fresh = self._bitgen.random_raw(max(size, self._block)).tolist()
        fresh.reverse()
        self._fetched += len(fresh)
        self._words = fresh + self._words

    def integers(self, low, high):
        """numpy's ``buffered_bounded_lemire_uint32`` for high - low values."""
        span = high - low
        if span == 1:
            return low
        threshold = (0x100000000 - span) % span
        while True:
            if self._has_half:
                self._has_half = 0
                m = self._half * span
            else:
                try:
                    word = self._words.pop()
                except IndexError:
                    self._refill(1)
                    word = self._words.pop()
                self._has_half, self._half = 1, word >> 32
                m = (word & 0xFFFFFFFF) * span
            if m & 0xFFFFFFFF >= threshold:
                return low + (m >> 32)

    def uniform(self, low, high, size):
        """numpy's ``random_uniform``: low + (high - low) times the double of
        a word's top 53 bits, as a list."""
        if len(self._words) < size:
            self._refill(size)
        low = float(low)
        span = float(high) - low
        pop = self._words.pop
        return [low + span * ((pop() >> 11) * 2.0 ** -53) for _ in range(size)]

    def close(self):
        bitgen = self._bitgen
        bitgen.state = self._start
        bitgen.advance(self._fetched - len(self._words))
        state = bitgen.state  # advance clears the kept half
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        bitgen.state = state


def _reads_pcg64(rng, n, max_row):
    """Whether the sparse draw may read rng's words with ``_Pcg64Draws``.

    Only a plain PCG64 Generator, and only integer ranges of at most 2**32
    values: n bounds the sampled ranges, max_row the row draw.  Past 10000
    open columns numpy's ``choice`` samples more than m // 50 picks without
    Floyd's algorithm; a row takes at most max_row - 1 <= 200 picks unless
    n > 10000, so the draw never meets that case.
    """
    return (type(rng) is np.random.Generator
            and type(rng.bit_generator) is np.random.PCG64
            and type(max_row) is int and 0 < max_row <= 2 ** 32
            and (n <= 10000 or max_row <= 201))


@dataclass(frozen=True)
class RandomMatrixModel:
    """Ensemble for the positive-solution frequency experiment.

    kind "sparse_uniform": entries uniform on [-K, K]; the support is a random
    permutation (every row and column nonzero) plus extra entries added per
    row up to max_row_nonzero, respecting max_col_nonzero.
    kind "dense_gaussian": all entries standard normal.

    The sparse draw consumes the generator exactly as picking each row's
    extra columns with ``Generator.choice(open_cols, take, replace=False)``
    does: it makes the same bounded-integer and uniform draws in the same
    order, so a seed gives the same matrix bytes and leaves the generator in
    the same state.  After the permutation and the base entries, a plain
    PCG64 Generator is read word by word (``_Pcg64Draws``); any other
    generator gets one ``integers`` or ``uniform`` call per value.
    ``tests/oracle.py`` keeps the ``choice`` draw, and the test comparing the
    two catches a numpy release that samples differently.
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
        K, cap, max_row = self.K, self.max_col_nonzero, self.max_row_nonzero
        perm = rng.permutation(n)
        base = rng.uniform(-K, K, n)
        draws = (_Pcg64Draws(rng.bit_generator, 3 * n + 8)
                 if _reads_pcg64(rng, n, max_row) else rng)
        counts = [1] * n
        below_cap = list(range(n)) if cap > 1 else []  # ascending
        rows, cols, vals = [], [], []
        try:
            for i, (col, value) in enumerate(zip(perm.tolist(),
                                                 base.tolist())):
                # entries beyond the base one
                extra = int(draws.integers(0, max_row))
                if extra <= 0:
                    continue
                # the row's open columns: those below the cap, less the
                # base column unless its entry was drawn as exactly zero; an
                # index at or past the base column's place maps one further
                m = skip = len(below_cap)
                if value != 0.0:
                    at = bisect_left(below_cap, col)
                    if at < m and below_cap[at] == col:
                        skip = at
                        m -= 1
                if not m:
                    continue
                take = min(extra, m)
                chosen = [below_cap[k + (k >= skip)]
                          for k in _sample_indices(draws, m, take)]
                rows += [i] * take
                cols += chosen
                vals.extend(draws.uniform(-K, K, take))
                for j in chosen:
                    counts[j] += 1
                    if counts[j] == cap:
                        below_cap.remove(j)
        finally:
            if draws is not rng:
                draws.close()
        A = np.zeros((n, n))
        A[np.arange(n), perm] = base
        if rows:  # after the base entries: an extra may fill a zero base slot
            A[rows, cols] = vals
        return A


def positive_solution_frequency(N, trials, model=None, seed=0, parallel=1):
    """Monte Carlo frequency of {A Y = 1 solvable with Y > 0}, Wilson 95% CI.

    1 is the all-ones vector; per-trial RNG streams keyed by the master seed
    make the outcome independent of the worker count.  A trial draws its
    matrix from its PCG64 stream word by word (``RandomMatrixModel``), the
    same matrix the Generator calls give, and then makes one small dense
    solve.  Trials run on the calling thread: the draw and the solve hold
    the GIL, so ``parallel`` (an upper limit on worker threads) is ignored.
    """
    if N < 1 or trials < 1:
        raise ValueError(f"N and trials must be >= 1, got N = {N}, "
                         f"trials = {trials}")
    model = RandomMatrixModel() if model is None else model
    rhs = np.ones(N)

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
