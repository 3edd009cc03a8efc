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

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .util import check_count, trial_rngs, wilson_interval

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


def _sample_indices(source, streams, m, take):
    """Each stream's ``rng.choice(m, take, replace=False)``, drawn the way it
    draws, for all streams at once: row r of the result holds the picks of
    stream ``streams[r]`` in its first ``take[r]`` places.

    For all but very large samples numpy runs Floyd's algorithm (Bentley &
    Floyd 1987), then a Fisher-Yates shuffle of the picks, each step one
    bounded-integer draw; making those draws here consumes each stream as
    ``choice`` does without its per-call setup.  Step t of a stream's Floyd
    loop draws in [0, j] for j = m - take + t, and step u of its shuffle
    swaps place take - 1 - u with a draw in [0, take - 1 - u], so the
    streams run the same step together.  The large case numpy handles
    otherwise (m > 10000, take > m // 50) stays with ``choice``.
    """
    picks = np.empty((len(streams), int(take.max())), dtype=np.intp)
    if m.max() > 10000:
        large = (m > 10000) & (take > m // 50)
        for r in np.flatnonzero(large):
            picks[r, :take[r]] = source.choice(streams[r], m[r], take[r])
        take = np.where(large, 0, take)
    for t in range(picks.shape[1]):
        on = np.flatnonzero(take > t)
        j = m[on] - take[on] + t
        v = source.integers(streams[on], j + 1)
        # a repeat takes j, which no earlier step can reach
        seen = (picks[on, :t] == v[:, None]).any(axis=1)
        picks[on, t] = np.where(seen, j, v)
    for u in range(picks.shape[1] - 1):
        on = np.flatnonzero(take - u > 1)
        k = take[on] - 1 - u
        s = source.integers(streams[on], k + 1)
        picks[on, k], picks[on, s] = picks[on, s], picks[on, k]
    return picks


class _Pcg64Streams:
    """``Generator.integers(low, high)`` and ``Generator.uniform(low, high,
    size)`` of many PCG64 Generators at once, read from their words: for
    each stream the same values in the same order, without a Generator call
    per value.  Stream s is the s-th generator; every call names its
    streams, each at most once, and gives each its own range or count.

    numpy draws an integer in a range of at most 2**32 values by Lemire's
    method (Lemire 2019) on 32-bit halves of the 64-bit PCG64 words, the low
    half first and the high half kept for the next such draw; a range of one
    value draws nothing.  A rejected draw is drawn again, so the rejection
    loop runs over the rejected streams only.  A uniform double takes the
    top 53 bits of a whole word and leaves a kept half where it is.  Each
    stream has its own word pointer and kept half.  Words come in blocks
    from ``random_raw``, a block for every stream whenever one runs out,
    and run past the last one used, so ``close`` restores each generator,
    advances it by the words it used and sets its kept half: the state the
    Generator calls would have left.
    """

    def __init__(self, bit_generators, block):
        self._bitgens, self._block = bit_generators, block
        self._starts = [bitgen.state for bitgen in bit_generators]
        self._has_half = np.array([state["has_uint32"]
                                   for state in self._starts], dtype=bool)
        self._half = np.array([state["uinteger"] for state in self._starts],
                              dtype=np.uint64)
        self._words = np.array([bitgen.random_raw(block)
                                for bitgen in bit_generators])
        self._next = np.zeros(len(bit_generators), dtype=np.intp)

    def _reserve(self, ends):
        """Fetch blocks of words for every stream until each holds at least
        as many words as the largest of ends."""
        while ends.max() > self._words.shape[1]:
            self._words = np.hstack((self._words, [
                bitgen.random_raw(self._block) for bitgen in self._bitgens]))

    def _halves(self, streams):
        """The next 32-bit half of each stream: its kept half, or the low
        half of its next word, whose high half it then keeps."""
        has = self._has_half[streams]
        self._has_half[streams] = ~has
        out = self._half[streams]
        fresh = streams[~has]
        if fresh.size:
            at = self._next[fresh]
            self._reserve(at + 1)
            words = self._words[fresh, at]
            self._next[fresh] = at + 1
            out[~has] = words & 0xFFFFFFFF
            self._half[fresh] = words >> 32
        return out

    def integers(self, streams, spans):
        """numpy's ``buffered_bounded_lemire_uint32``: for each stream a
        value in [0, span), as int64.  A draw whose low 32 bits fall below
        (2**32 - span) % span is rejected; that bound is below span, which
        is checked first, as numpy does."""
        if spans.min() < 2:
            out = np.zeros(len(streams), dtype=np.int64)
            drawn = spans > 1
            if drawn.any():
                out[drawn] = self.integers(streams[drawn], spans[drawn])
            return out
        span = spans.astype(np.uint64)
        m = self._halves(streams) * span
        out = (m >> 32).astype(np.int64)
        low = m & 0xFFFFFFFF
        near = np.flatnonzero(low < span)
        if near.size:
            again = near[low[near] < (2 ** 32 - span[near]) % span[near]]
            if again.size:
                out[again] = self.integers(streams[again], spans[again])
        return out

    def uniform(self, streams, counts, low, high):
        """numpy's ``random_uniform``: counts[k] values of stream streams[k],
        each low + (high - low) times the double of a word's top 53 bits,
        concatenated in stream order."""
        starts = self._next[streams]
        ends = starts + counts
        self._reserve(ends)
        owner = np.repeat(streams, counts)
        at = (np.arange(owner.size)
              + np.repeat(starts - (np.cumsum(counts) - counts), counts))
        words = self._words[owner, at]
        self._next[streams] = ends
        low = float(low)
        span = float(high) - low
        return low + span * ((words >> 11) * 2.0 ** -53)

    def close(self):
        for s, bitgen in enumerate(self._bitgens):
            bitgen.state = self._starts[s]
            bitgen.advance(int(self._next[s]))
            state = bitgen.state  # advance clears the kept half
            state["has_uint32"] = int(self._has_half[s])
            state["uinteger"] = int(self._half[s])
            bitgen.state = state


class _GeneratorCalls:
    """``_Pcg64Streams``' interface over any Generators: one ``integers``
    call per value and one ``uniform`` call per stream and request."""

    def __init__(self, rngs):
        self._rngs = rngs

    def integers(self, streams, spans):
        return np.array([self._rngs[s].integers(0, span) for s, span
                         in zip(streams.tolist(), spans.tolist())],
                        dtype=np.int64)

    def uniform(self, streams, counts, low, high):
        return np.concatenate([
            np.asarray(self._rngs[s].uniform(low, high, count), dtype=float)
            for s, count in zip(streams.tolist(), counts.tolist())])

    def choice(self, stream, m, take):
        return self._rngs[stream].choice(m, size=take, replace=False)

    def close(self):
        pass


def _reads_pcg64(rng, n, max_row):
    """Whether the sparse draw may read rng's words with ``_Pcg64Streams``.

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


def _stream_source(rngs, n, max_row):
    """The word reader over rngs when every one of them may be read, else
    the Generator calls."""
    if all(_reads_pcg64(rng, n, max_row) for rng in rngs):
        return _Pcg64Streams([rng.bit_generator for rng in rngs], 3 * n + 8)
    return _GeneratorCalls(rngs)


@dataclass(frozen=True)
class RandomMatrixModel:
    """Ensemble for the positive-solution frequency experiment.

    kind "sparse_uniform": entries uniform on [-K, K]; the support is a random
    permutation (every row and column nonzero) plus extra entries added per
    row up to max_row_nonzero, respecting max_col_nonzero.
    kind "dense_gaussian": all entries standard normal.
    The model is checked when it is built: a known kind, a finite K > 0 and
    integer caps of at least 1.

    The sparse draw consumes each generator exactly as picking each row's
    extra columns with ``Generator.choice(open_cols, take, replace=False)``
    does: it makes the same bounded-integer and uniform draws in the same
    order, so a seed gives the same matrix bytes and leaves the generator in
    the same state.  ``_draw_group`` draws the matrices of many generators
    in lockstep, one row of all of them at a time, into sparse entries, and
    ``draw`` is a group of one.  After the permutations and the base
    entries, plain PCG64 Generators are read word by word
    (``_Pcg64Streams``), with caps of any integer type; any other generator
    gets one ``integers`` or ``uniform`` call per value.
    ``tests/oracle.py`` keeps the ``choice`` draw, and the test comparing the
    two catches a numpy release that samples differently.
    """

    kind: str = "sparse_uniform"
    K: float = 1.0
    max_row_nonzero: int = 3
    max_col_nonzero: int = 3

    def __post_init__(self):
        if self.kind not in ("sparse_uniform", "dense_gaussian"):
            raise ValueError(f"unknown matrix model {self.kind!r}")
        if not (isinstance(self.K, numbers.Real) and math.isfinite(self.K)
                and self.K > 0):
            raise ValueError(f"K must be finite and positive, got {self.K!r}")
        for name in ("max_row_nonzero", "max_col_nonzero"):
            cap = getattr(self, name)
            if not (isinstance(cap, numbers.Integral) and cap >= 1):
                raise ValueError(f"{name} must be an integer >= 1, "
                                 f"got {cap!r}")

    def draw(self, rng, n):
        return self._draw_group([rng], n).stack(0, 1)[0]

    def _draw_group(self, rngs, n):
        """The matrices ``draw`` gives for each generator, as the entries of
        a ``_MatrixGroup``, so that a large group needs no dense stack; each
        generator is left where ``draw`` leaves it."""
        G = len(rngs)
        if self.kind == "dense_gaussian":
            values = np.array([rng.standard_normal((n, n)) for rng in rngs])
            return _MatrixGroup(n, np.arange(values.size), values.ravel())
        K, cap = self.K, self.max_col_nonzero
        # a Python int, which _reads_pcg64 asks of the row cap
        max_row = int(self.max_row_nonzero)
        perms = np.array([rng.permutation(n) for rng in rngs])
        base = np.array([rng.uniform(-K, K, n) for rng in rngs])
        # entry (s, i, j) sits at (s n + i) n + j of the flattened stack; a
        # base entry drawn as exactly 0.0 is left out, as the zero it is
        row_start = (np.arange(G)[:, None] * n + np.arange(n)) * n
        drawn = base != 0.0
        flat, values = [(row_start + perms)[drawn]], [base[drawn]]
        source = _stream_source(rngs, n, max_row)
        streams = np.arange(G)
        spans = np.full(G, max_row)
        counts = np.ones((G, n), dtype=np.intp)  # entries per column
        try:
            for i in range(n):
                # entries beyond the base one
                extra = source.integers(streams, spans)
                live = np.flatnonzero(extra > 0)
                # the row's open columns: those below the cap, less the base
                # column unless its entry was drawn as exactly zero
                open_cols = counts[live] < cap
                open_cols[np.arange(live.size), perms[live, i]] &= (
                    base[live, i] == 0.0)
                m = open_cols.sum(axis=1)
                live, open_cols, m = live[m > 0], open_cols[m > 0], m[m > 0]
                if not live.size:
                    continue
                take = np.minimum(extra[live], m)
                picks = _sample_indices(source, live, m, take)
                # pick k of a stream is its k-th open column; flatnonzero
                # lists the open places stream by stream, each row's columns
                # in ascending order
                picks += (np.cumsum(m) - m)[:, None]
                places = np.flatnonzero(open_cols)[
                    picks[np.arange(picks.shape[1]) < take[:, None]]]
                owner = np.repeat(live, take)
                cols = places - np.repeat(np.arange(live.size) * n, take)
                # an extra may fill a zero base slot, which holds no entry
                flat.append(row_start[owner, i] + cols)
                values.append(source.uniform(live, take, -K, K))
                counts[owner, cols] += 1
        finally:
            source.close()
        return _MatrixGroup(n, np.concatenate(flat), np.concatenate(values))


@dataclass(frozen=True)
class _MatrixGroup:
    """The n x n matrices of a group of trials as entries: value k sits at
    flat[k] of the flattened (trials, n, n) stack, every other entry is 0.0,
    and no place holds two entries."""

    n: int
    flat: np.ndarray
    values: np.ndarray

    def stack(self, first, end):
        """The dense (end - first, n, n) stack of trials first .. end - 1."""
        size = self.n * self.n
        out = np.zeros((end - first) * size)
        at = (self.flat >= first * size) & (self.flat < end * size)
        out[self.flat[at] - first * size] = self.values[at]
        return out.reshape(end - first, self.n, self.n)


# What one block of positive-frequency trials holds stays within this many
# bytes: a group of trials drawn in lockstep holds the words, column counts
# and entries of ``_lockstep_bytes``, and the dense stack a solve takes
# holds 8 N^2 a trial.  A larger group pays the draw's row loop fewer times;
# 3 MiB (805 trials a group and 245 a solve at N = 40, with 3 entries a row)
# keeps the rise in a process's peak memory to a few MB.
_BLOCK_BYTES = 3 * 2 ** 20


def _lockstep_bytes(N, model):
    """An upper bound on the bytes a lockstep draw holds per trial: the
    stream's first words (3 N + 8), its permutation, base row and column
    counts, and a flat index and a value for each of at most N
    max_row_nonzero entries; for dense_gaussian the N^2 entries."""
    if model.kind == "dense_gaussian":
        return 16 * N * N
    return 8 * (3 * N + 8) + 24 * N + 16 * N * model.max_row_nonzero


def _block_size(N):
    """Trials per solve: as many N x N matrices as fit in ``_BLOCK_BYTES``,
    at least one."""
    return max(1, _BLOCK_BYTES // (8 * N * N))


def _ranges(total, size):
    """[first, end) ranges of equal length, at most size, covering total."""
    count = -(-total // size)
    ends = [total * k // count for k in range(count + 1)]
    return list(zip(ends, ends[1:]))


def _positive_solutions(stack):
    """For each matrix A of the stack, whether A y = 1 has a finite solution
    y > 0.  One batched solve; if a singular matrix makes it raise, the
    matrices are solved one at a time and a singular one reads False."""
    try:
        y = np.linalg.solve(stack, np.ones(stack.shape[:2] + (1,)))
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return [False]
        return [_positive_solutions(A[None])[0] for A in stack]
    return np.all(np.isfinite(y) & (y > 0), axis=(1, 2)).tolist()


def positive_solution_frequency(N, trials, model=None, seed=0, parallel=1):
    """Monte Carlo frequency of {A Y = 1 solvable with Y > 0}, Wilson 95% CI.

    1 is the all-ones vector; per-trial RNG streams keyed by the master seed
    (``trial_rngs``) make the outcome independent of the worker count.  The
    trials are drawn in lockstep groups, each a group of equal size and as
    large as ``_BLOCK_BYTES`` allows for what the draw holds per trial
    (``_lockstep_bytes``): at the README sizes the whole call is one group.
    A group's matrices are drawn together, each from its own PCG64 stream
    read word by word (``RandomMatrixModel``), into sparse entries: the
    same matrices the Generator calls give.  Each solve block of the group,
    at most ``_block_size(N)`` trials, is then made dense and decided by one
    batched solve, or, when a singular matrix makes it fail, by one solve a
    trial.  Trials run on the calling thread: the draw and the solve hold
    the GIL, so ``parallel`` (an upper limit on worker threads) is ignored.
    """
    check_count(N=N, trials=trials)
    if N < 1 or trials < 1:
        raise ValueError(f"N and trials must be >= 1, got N = {N}, "
                         f"trials = {trials}")
    model = RandomMatrixModel() if model is None else model
    group_size = max(1, _BLOCK_BYTES // _lockstep_bytes(N, model))
    outcomes = []
    for first, end in _ranges(trials, group_size):
        group = model._draw_group(list(trial_rngs(seed, first, end)), N)
        for start, stop in _ranges(end - first, _block_size(N)):
            outcomes += _positive_solutions(group.stack(start, stop))
    k = sum(outcomes)
    lo, hi = wilson_interval(k, trials)
    return {"N": N, "trials": trials, "hits": k, "frequency": k / trials,
            "ci_low": lo, "ci_high": hi, "outcomes": outcomes}
