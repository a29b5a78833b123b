"""Plateaus and the rank formula beta + mu.

A p-plateau is a nonempty connected subgraph P such that an oriented edge
whose origin lies in P carries a p-divisible label exactly when the edge is
not part of P.  The subgraph is determined by its vertex set: an edge with
both endpoints inside must have p dividing neither label (then it belongs
to P and carries connectivity) or both labels (then it is excluded); mixed
divisibility disqualifies the set, and edges leaving the set must be
p-divisible on the inside.  So the p-plateaus are exactly the connected
components of the edges with neither label divisible by p, less those
where a mixed edge has its non-divisible end; for one prime they are
disjoint.

`plateaus(g, p)` reads "p divides" as gcd(label, p) > 1; for an element p of
the labels' coprime base these are the q-plateaus of every prime q | p.
One component search, `_components`, yields them all: one gcd per distinct
label and base element, then bit tests.  mu reads the set of their vertex
sets; `classify_shape`'s circle base reads them as they come, and stops early.
"""

from dataclasses import dataclass
from itertools import combinations

from .arith import coprime_base, env_int, gcd
from .errors import DecisionError, InputError, NotReducedError, ShapeError, VertexCapError
from .graphs import LabelledGraph, Shape, classify_shape, id_key

VERTEX_CAP_DEFAULT = 24


@dataclass(slots=True, unsafe_hash=True)
class Plateau:
    prime: int  # the p of plateaus(g, p); for a composite p, "p divides" is gcd > 1
    vertices: frozenset[str]


@dataclass(slots=True, unsafe_hash=True)
class RankReport:
    beta: int
    mu: int
    hitting_set: frozenset[str]
    plateau_sets: frozenset[frozenset[str]]

    @property
    def rank(self) -> int:
        return self.beta + self.mu


def plateaus(g: LabelledGraph, p: int) -> list[Plateau]:
    """All p-plateaus, in the order of their subset masks over
    sorted_vertices()."""
    if p < 2:
        raise InputError(f"plateaus need a prime p, not {p}")
    # the masks of disjoint sets compare as their highest vertices do
    return [Plateau(p, s) for s in sorted(_components(g, [p]), key=lambda s: max(map(id_key, s)))]


def _components(g: LabelledGraph, base: list[int]):
    """Yield the plateaus of every element of `base`, element by element.
    Each distinct label gets one mask at its first appearance in the edge
    loop, bit i set when it shares a prime with base[i]; then one stack
    search per element walks the edges whose two masks both lack its bit."""
    masks, nbrs = {}, {v: [] for v in g.vertices}  # vertex -> (far vertex, near mask, far mask)
    for ed in g.edges.values():
        (a, b), (la, lb) = ed.endpoints, ed.labels
        if (ma := masks.get(la)) is None:
            ma = masks[la] = sum(1 << i for i, p in enumerate(base) if gcd(la, p) > 1)
        if (mb := masks.get(lb)) is None:
            mb = masks[lb] = sum(1 << i for i, p in enumerate(base) if gcd(lb, p) > 1)
        nbrs[a].append((b, ma, mb))
        nbrs[b].append((a, mb, ma))
    for i in range(len(base)):
        bit, seen = 1 << i, set()
        for v in nbrs:
            if v in seen:
                continue
            seen.add(v)
            comp, stack, ok = [v], [v], True
            while stack:
                for w, near, far in nbrs[stack.pop()]:
                    if near & bit:
                        continue
                    if far & bit:
                        ok = False
                    elif w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            if ok:
                yield frozenset(comp)


def plateau_family(g: LabelledGraph) -> frozenset[frozenset[str]]:
    """The distinct vertex sets of the plateaus of every element of the
    labels' coprime base (the primes of one element share their plateaus),
    plus the whole graph (the only plateau for every prime dividing no
    label)."""
    return frozenset({frozenset(g.vertices), *_components(g, coprime_base(g.labels()))})


def mu(g: LabelledGraph) -> RankReport:
    """Exact minimal plateau hitting set; rank = beta + mu (reduced graphs).

    Every hitting set holds the forced set F of singleton-plateau vertices;
    a minimal one adds only vertices of U, the union of the plateaus F misses.
    Subsets of U are searched in the order of a search over all vertices, so
    the set found is the same.  The cost is exponential only in |U|, and
    GBS_TOOLKIT_MAX_VERTICES caps the vertex count."""
    if not g.is_reduced():
        raise NotReducedError("graph is not reduced")
    cap = env_int("GBS_TOOLKIT_MAX_VERTICES", VERTEX_CAP_DEFAULT)
    if len(g.vertices) > cap:
        raise VertexCapError(f"{len(g.vertices)} vertices exceeds cap {cap}")
    beta = g.betti()
    sets = plateau_family(g)
    forced = frozenset(v for s in sets if len(s) == 1 for v in s)
    unhit = [s for s in sets if not forced & s]
    free = set().union(*unhit)
    verts = sorted(free, key=id_key)
    for size in range(len(verts) + 1):
        for combo in combinations(verts, size):
            chosen = forced.union(combo)
            if all(chosen & s for s in unhit):
                return RankReport(beta, len(chosen), chosen, sets)
    raise AssertionError("unreachable: whole vertex set hits everything")


@dataclass(slots=True, unsafe_hash=True)
class TwoGenWitness:
    rank: RankReport
    shape: Shape


def is_two_generated(g: LabelledGraph) -> tuple[bool, TwoGenWitness]:
    """rank <= 2, with the rank report and the shape; the plateau family is
    built once, by mu, and its vertex sets choose a circle's base."""
    report = mu(g)
    shape = classify_shape(g, _plateau_sets=report.plateau_sets)
    return report.rank <= 2, TwoGenWitness(report, shape)


def two_generated_shape(g: LabelledGraph) -> Shape:
    """The shape of a 2-generated g; raises unless g has rank <= 2 and is a
    segment, circle or lollipop."""
    ok, witness = is_two_generated(g)
    if not ok:
        raise DecisionError(f"group has rank {witness.rank.rank} > 2")
    if witness.shape.kind == "other":
        raise ShapeError("graph is not a segment, circle or lollipop")
    return witness.shape
