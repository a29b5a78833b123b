"""Plateaus, the rank formula beta + mu, and coprimality cross-checks.

A p-plateau is a nonempty connected subgraph P such that an oriented edge
whose origin lies in P carries a p-divisible label exactly when the edge is
not part of P.  The subgraph is determined by its vertex set: an edge with
both endpoints inside must have p dividing neither label (then it belongs
to P and carries connectivity) or both labels (then it is excluded); mixed
divisibility disqualifies the set, and edges leaving the set must be
p-divisible on the inside.  Search is exhaustive over vertex subsets;
graphs here are small, and a hard vertex cap guards the enumeration.
"""

import os
from dataclasses import dataclass
from itertools import combinations

from .arith import factorize, gcd
from .errors import NotReducedError, VertexCapError
from .graphs import LabelledGraph, Shape, classify_shape

VERTEX_CAP_DEFAULT = 24


def _vertex_cap() -> int:
    return int(os.environ.get("GBS_TOOLKIT_MAX_VERTICES", VERTEX_CAP_DEFAULT))


@dataclass(frozen=True)
class Plateau:
    prime: int
    vertices: frozenset[str]


@dataclass(frozen=True)
class RankReport:
    beta: int
    mu: int
    hitting_set: frozenset[str]
    plateau_sets: tuple[frozenset[str], ...]

    @property
    def rank(self) -> int:
        return self.beta + self.mu


def _subsets(g: LabelledGraph):
    verts = g.sorted_vertices()
    n = len(verts)
    if n > _vertex_cap():
        raise VertexCapError(f"{n} vertices exceeds cap {_vertex_cap()}")
    for mask in range(1, 1 << n):
        yield frozenset(verts[i] for i in range(n) if mask >> i & 1)


def _plateau_edges(g: LabelledGraph, p: int, subset: frozenset[str]):
    """Edges belonging to the plateau subgraph on this vertex set, or None
    when the set violates the divisibility dichotomy."""
    inside = []
    for name, ed in g.edges.items():
        a, b = ed.endpoints
        la, lb = ed.labels
        a_in, b_in = a in subset, b in subset
        if a_in and b_in:
            da, db = la % p == 0, lb % p == 0
            if da != db:
                return None
            if not da:
                inside.append(name)
        elif a_in:
            if la % p:
                return None
        elif b_in:
            if lb % p:
                return None
    return inside


def _is_plateau(g: LabelledGraph, p: int, subset: frozenset[str]) -> bool:
    inside = _plateau_edges(g, p, subset)
    if inside is None:
        return False
    start = next(iter(subset))
    seen = {start}
    stack = [start]
    allowed = set(inside)
    while stack:
        v = stack.pop()
        for oe in g.edges_at(v):
            w = g.terminus(oe)
            if oe.edge in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == subset


def plateaus(g: LabelledGraph, p: int) -> list[Plateau]:
    """All p-plateaus, exhaustively."""
    g.require_connected()
    return [
        Plateau(p, subset) for subset in _subsets(g) if _is_plateau(g, p, subset)
    ]


def label_primes(g: LabelledGraph) -> list[int]:
    primes: set[int] = set()
    for l in g.labels():
        primes |= set(factorize(l))
    return sorted(primes)


def plateau_family(g: LabelledGraph) -> list[Plateau]:
    """Plateaus for every prime dividing some label, plus the whole graph
    (the only plateau for all other primes)."""
    fam = [Plateau(0, frozenset(g.vertices))]
    for p in label_primes(g):
        fam.extend(plateaus(g, p))
    return fam


def vertices_meeting_all_plateaus(g: LabelledGraph) -> set[str]:
    sets = {pl.vertices for pl in plateau_family(g)}
    out = set(g.vertices)
    for s in sets:
        out &= s
    return out


def mu(g: LabelledGraph) -> RankReport:
    """Exact minimal plateau hitting set; rank = beta + mu (reduced graphs)."""
    g.require_connected()
    if not g.is_reduced():
        raise NotReducedError("rank formula needs a reduced graph")
    beta = g.betti()
    sets = sorted({pl.vertices for pl in plateau_family(g)}, key=lambda s: (len(s), sorted(s)))
    verts = g.sorted_vertices()
    for size in range(1, len(verts) + 1):
        for combo in combinations(verts, size):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return RankReport(beta, size, frozenset(chosen), tuple(sets))
    raise AssertionError("unreachable: whole vertex set hits everything")


@dataclass(frozen=True)
class TwoGenWitness:
    rank: RankReport
    shape: Shape


def is_two_generated(g: LabelledGraph) -> tuple[bool, TwoGenWitness]:
    report = mu(g)
    shape = classify_shape(g)
    return report.rank <= 2, TwoGenWitness(report, shape)


def check_copr(shape: Shape) -> list[str]:
    """Coprimality facts forced by 2-generation; nonempty list = violations."""
    from .graphs import qrxy

    out = []
    k = shape.k
    for j in range(1, k):  # paper's q_j, 1 <= j <= k-1
        for i in range(1, j + 1):  # paper's r_i
            if gcd(shape.q[j], shape.r[i - 1]) != 1:
                out.append(f"gcd(q_{j}, r_{i}) = {gcd(shape.q[j], shape.r[i - 1])} > 1")
    if shape.kind in ("circle", "lollipop"):
        ell = shape.ell
        for j in range(1, ell):
            for i in range(1, j + 1):
                if gcd(shape.x[j], shape.y[i - 1]) != 1:
                    out.append(f"gcd(x_{j}, y_{i}) = {gcd(shape.x[j], shape.y[i - 1])} > 1")
        prods = qrxy(shape)
        for p in factorize(prods.R):
            divides_x = prods.X % p == 0
            divides_y = prods.Y % p == 0
            if divides_x == divides_y:
                side = "both of" if divides_x else "neither of"
                out.append(f"prime {p} of R divides {side} X and Y")
    return out
