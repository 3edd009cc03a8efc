"""Two-group Lotka-Volterra systems, interaction sign classes, and web topology.

The population model couples a group of N species x with a group of M species v:

    dx_i/dt = x_i (-r_i    + sum_k a_ik v_k - sum_j gamma_ij x_j)
    dv_j/dt = v_j ( rbar_j - sum_l b_jl x_l - sum_k d_jk v_k)

``A`` and ``B`` carry the between-group interactions, ``Gamma`` and ``D`` the
self-limitation terms.  The topology helpers treat the web as an undirected
graph; all statistics used here (degree, connectance, hub overlap) are
direction-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .util import fields_of, json_fields, read_json, set_fields, write_json


class SignPattern(Enum):
    """Interaction sign classes.

    PP: predator-prey (a >= 0, b >= 0, r > 0, rbar > 0)
    MF: facultative mutualism (a >= 0, b <= 0, r < 0, rbar > 0)
    MO: obligatory mutualism (a >= 0, b <= 0, r > 0, rbar < 0)
    C:  competition (a <= 0, b >= 0, r > 0, rbar > 0)
    MIXED: none of the above holds for every coefficient.
    """

    PP = "PP"
    MF = "MF"
    MO = "MO"
    C = "C"
    MIXED = "Mixed"


@dataclass(frozen=True)
class InteractionSystem:
    """Immutable container for the two-group model coefficients.

    Parameters
    ----------
    r, rbar : (N,), (M,) growth/decay rates.
    A : (N, M) effect of group-2 abundance on group-1 growth.
    B : (M, N) effect of group-1 abundance on group-2 growth.
    Gamma : (N, N) self-limitation inside group 1 (optional, defaults to 0).
    D : (M, M) self-limitation inside group 2 (optional, defaults to 0).
    """

    r: np.ndarray
    rbar: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Gamma: np.ndarray = None
    D: np.ndarray = None

    def __post_init__(self):
        set_fields(self, 1, r=self.r, rbar=self.rbar)
        n, m = self.r.size, self.rbar.size
        set_fields(self, 2, A=self.A, B=self.B,
                   Gamma=np.zeros((n, n)) if self.Gamma is None else self.Gamma,
                   D=np.zeros((m, m)) if self.D is None else self.D)
        for name, shape in (("A", (n, m)), ("B", (m, n)), ("Gamma", (n, n)),
                            ("D", (m, m))):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} must have shape {shape}, got {got}")

    @property
    def N(self):
        return self.r.size

    @property
    def M(self):
        return self.rbar.size

    def check_state(self, **parts):
        """Raise ValueError unless each named part of a state has its size:
        x and C one entry per prey (N), v, p and q one per hub (M)."""
        size = {"x": self.N, "C": self.N, "v": self.M, "p": self.M,
                "q": self.M}
        wrong = [f"{name} has {np.size(a)}" for name, a in parts.items()
                 if np.size(a) != size[name]]
        if wrong:
            raise ValueError(f"a state of this system (N = {self.N}, M = "
                             f"{self.M}) needs N entries in x and C and M in "
                             f"v, p and q, but {', '.join(wrong)}")

    def is_limitation_free(self):
        """True iff every self-limitation coefficient vanishes."""
        return not (np.any(self.Gamma) or np.any(self.D))

    @classmethod
    def from_dict(cls, data):
        """The system of a JSON object; a missing, null or non-numeric field
        raises ValueError naming it (a null Gamma or D takes the default)."""
        data = json_fields(data, "system", numbers=("N", "M"),
                           arrays=("r", "rbar", "A", "B", "Gamma", "D"),
                           required=("N", "M", "r", "rbar", "A", "B"))
        sys = cls(r=data["r"], rbar=data["rbar"], A=data["A"], B=data["B"],
                  Gamma=data.get("Gamma"), D=data.get("D"))
        if sys.N != int(data["N"]) or sys.M != int(data["M"]):
            raise ValueError("declared N/M do not match array shapes")
        return sys

    def save(self, path):
        write_json(path, {"N": self.N, "M": self.M, **fields_of(self)})

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path, "system"))


def classify_signs(system):
    """Assign the interaction sign class of a system.

    Zero coefficients satisfy the weak inequalities on A and B; the rate
    inequalities are strict.  Classes are checked in the order PP, MF, MO, C
    (relevant only for degenerate systems with A == 0 or B == 0).
    """
    A, B, r, rbar = system.A, system.B, system.r, system.rbar
    a_pos, a_neg = np.all(A >= 0), np.all(A <= 0)
    b_pos, b_neg = np.all(B >= 0), np.all(B <= 0)
    r_pos, r_neg = np.all(r > 0), np.all(r < 0)
    rb_pos, rb_neg = np.all(rbar > 0), np.all(rbar < 0)
    if a_pos and b_pos and r_pos and rb_pos:
        return SignPattern.PP
    if a_pos and b_neg and r_neg and rb_pos:
        return SignPattern.MF
    if a_pos and b_neg and r_pos and rb_neg:
        return SignPattern.MO
    if a_neg and b_pos and r_pos and rb_pos:
        return SignPattern.C
    return SignPattern.MIXED


@dataclass(frozen=True)
class NetworkTopology:
    """Undirected simple graph."""

    n_nodes: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u}, {v}) outside node range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def n_edges(self):
        return len(self.edges)

    def degrees(self):
        deg = np.zeros(self.n_nodes, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self, node):
        out = set()
        for u, v in self.edges:
            if u == node:
                out.add(v)
            elif v == node:
                out.add(u)
        return out

    def save_edges(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for u, v in sorted(self.edges):
                fh.write(f"{u} {v}\n")

    @classmethod
    def load_edges(cls, path, n_nodes=None):
        edges = set()
        top = -1
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                u, v = (int(tok) for tok in line.split())
                edges.add((u, v))
                top = max(top, u, v)
        return cls(n_nodes=n_nodes if n_nodes is not None else top + 1,
                   edges=frozenset(edges))


def connectance(topology):
    """Realized links over possible links: 2|E| / (n (n - 1))."""
    n = topology.n_nodes
    if n < 2:
        raise ValueError("connectance requires at least 2 nodes")
    return 2.0 * topology.n_edges / (n * (n - 1))


def generate_scale_free(n_nodes, m_attach, seed):
    """Preferential-attachment web: clique seed, then m_attach edges per node.

    Starts from a complete graph on m_attach + 1 nodes; each arriving node
    attaches to m_attach distinct existing nodes sampled with probability
    proportional to current degree.  Deterministic for a fixed seed.
    """
    if not (n_nodes > m_attach >= 1):
        raise ValueError("need n_nodes > m_attach >= 1")
    rng = np.random.default_rng(seed)
    edges = set()
    repeated = []  # node appears once per unit of degree
    for i in range(m_attach + 1):
        for j in range(i + 1, m_attach + 1):
            edges.add((i, j))
            repeated.extend((i, j))
    for new in range(m_attach + 1, n_nodes):
        targets = set()
        while len(targets) < m_attach:
            targets.add(repeated[rng.integers(len(repeated))])
        for t in sorted(targets):
            edges.add((t, new))
            repeated.extend((t, new))
    return NetworkTopology(n_nodes=n_nodes, edges=frozenset(edges))


def overlap_count(topology, hubs):
    """Number of non-hub nodes adjacent to at least two of the given hubs."""
    hubset = set(hubs)
    for h in hubset:
        if not (0 <= h < topology.n_nodes):
            raise ValueError(f"hub {h} outside node range")
    hit = {}
    for u, v in topology.edges:
        if u in hubset and v not in hubset:
            hit[v] = hit.get(v, 0) + 1
        if v in hubset and u not in hubset:
            hit[u] = hit.get(u, 0) + 1
    return sum(1 for count in hit.values() if count >= 2)


def powerlaw_exponent(degrees, x_min=5):
    """Discrete maximum-likelihood tail exponent for degrees >= x_min."""
    d = np.asarray(degrees, dtype=float)
    tail = d[d >= x_min]
    if tail.size < 2:
        raise ValueError("not enough tail samples to fit an exponent")
    return 1.0 + tail.size / np.sum(np.log(tail / (x_min - 0.5)))
