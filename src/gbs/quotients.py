"""Quotient-direction deciders for 2-generated GBS groups.

Which Baumslag-Solitar groups map onto a given graph's group, whether the
group maps back onto its minimal Baumslag-Solitar source, epi-equivalence,
largeness, residual finiteness, and the explicit infinite quotient
families.  Positive answers come with certificates built in homs.py.
"""

from dataclasses import dataclass
from itertools import count as icount, islice

from .arith import factorize, gcd, least_prime_factor, split_power
from .bs_arith import _require_nonzero, multiple_direction
from .decision import Decision
from .errors import DecisionError, ElementaryGroupError, InputError, ShapeError
from .graphs import (
    LabelledGraph,
    bs_graph,
    lollipop_graph,
    loop_labels,
    reduce_graph,
    segment_graph,
)
from .homs import HomCertificate, _onto_minimal, bs_source_epi, witnessed_cert
from .plateaus import is_two_generated, two_generated_shape
from .words import Presentation, is_unimodular, modular_image


def _detect_elementary(g: LabelledGraph) -> str | None:
    """'Z', 'Z2' or 'K' when the reduced graph presents one of them.  No
    edge, one (+-1, +-1) loop and one (2, 2) edge are all reduced, so a graph
    that is not reduced gets None and meets mu's NotReducedError later."""
    if not g.edges:
        return "Z"
    if len(g.edges) == 1:
        name = g.sorted_edges()[0]
        a, b = g.edges[name].labels
        if g.is_loop(name) and (abs(a), abs(b)) == (1, 1):
            return "Z2" if a * b > 0 else "K"
        if not g.is_loop(name) and (abs(a), abs(b)) == (2, 2):
            return "K"
    return None


def _validated_shape(g: LabelledGraph):
    kind = _detect_elementary(g)
    if kind == "Z" or kind == "K":
        raise ElementaryGroupError(f"excluded elementary group {kind}")
    return two_generated_shape(g)


@dataclass(slots=True, unsafe_hash=True)
class SourceSet:
    """Symbolic description of {(m, n) : BS(m, n) ->> G}."""

    kind: str  # "segment" | "lollipop"
    Q: int
    R: int
    QX: int | None = None
    QY: int | None = None

    def describe(self) -> str:
        if self.kind == "segment":
            return f"all (m, m) with {self.Q} | m or {self.R} | m"
        return f"all integral multiples of ({self.QX}, {self.QY}) or ({self.QY}, {self.QX})"

    def contains(self, m: int, n: int) -> bool:
        _require_nonzero(m, n)
        if self.kind == "segment":
            return m == n and (m % self.Q == 0 or m % self.R == 0)
        return multiple_direction(m, n, self.QX, self.QY) is not None


def bs_sources(g: LabelledGraph) -> SourceSet:
    shape = _validated_shape(g)
    if shape.kind == "segment":
        return SourceSet("segment", shape.Q, shape.R)
    return SourceSet("lollipop", shape.Q, shape.R, shape.Q * shape.X, shape.Q * shape.Y)


def is_quotient_of_bs(g: LabelledGraph, m: int, n: int) -> bool:
    return bs_sources(g).contains(m, n)


@dataclass(slots=True, unsafe_hash=True)
class MinimalSource:
    unique: tuple[int, int] | None
    pair: tuple[tuple[int, int], tuple[int, int]] | None


def minimal_bs_source(g: LabelledGraph) -> MinimalSource:
    src = bs_sources(g)
    if src.kind == "segment":
        return MinimalSource(None, ((src.Q, src.Q), (src.R, src.R)))
    return MinimalSource((src.QX, src.QY), None)


def maps_onto_minimal_bs(g: LabelledGraph) -> Decision:
    """Does G map onto BS(QX, QY)?  Gcd-clause test for circles/lollipops."""
    shape = _validated_shape(g)
    if shape.kind == "segment":
        raise ShapeError("segments have no minimal Baumslag-Solitar source")
    return _onto_minimal(shape)


def epi_equivalent_bs(g: LabelledGraph):
    """The (m, n) with G epi-equivalent to BS(m, n), or None."""
    if _detect_elementary(g) in ("Z", "K"):
        return None
    ok, witness = is_two_generated(g)
    if not ok or witness.rank.rank != 2 or witness.shape.kind in ("segment", "other"):
        return None
    if not _onto_minimal(witness.shape):
        return None
    return (witness.shape.Q * witness.shape.X, witness.shape.Q * witness.shape.Y)


def finitely_many_quotients(m: int, n: int) -> Decision:
    """Finitely many GBS quotients of BS(m, n) up to isomorphism?"""
    _require_nonzero(m, n)
    p, q = least_prime_factor(m), least_prime_factor(n)  # |a| is prime iff its least prime is |a| > 1
    # powers of one prime: m * n has no prime but the least prime of |m|
    one_prime = 1 not in (p, q) and abs(split_power(m * n, p)[1]) == 1
    clauses = []
    for a, b, pa in ((m, n, p), (n, m, q)):
        if gcd(a, b) == 1:
            clauses.append("(a) coprime")
        if a != b and pa == abs(a) > 1:
            clauses.append("(b) prime")
        if a == -b:
            clauses.append("(c) opposite")
        if one_prime and a != b:
            clauses.append("(d) powers of one prime")
    if clauses:
        return Decision(True, ", ".join(dict.fromkeys(clauses)))
    return Decision(False, "no clause applies")


def quotient_rigidity(m: int, n: int) -> str:
    """'all_noncyclic_iso', 'all_nonsolvable_iso' or 'neither'."""
    _require_nonzero(m, n)
    if 1 in (abs(m), abs(n)):  # a unit answers alone: the other parameter is never tested
        return "all_noncyclic_iso"
    m_prime = least_prime_factor(m) == abs(m)
    if m_prime and n % m:
        return "all_noncyclic_iso"
    n_prime = least_prime_factor(n) == abs(n)  # tested only when m does not answer
    if n_prime and m % n:
        return "all_noncyclic_iso"
    return "all_nonsolvable_iso" if (m_prime or n_prime) and m != n else "neither"


def is_large(g: LabelledGraph) -> bool:
    """Large iff not a quotient of a coprime BS(m, n)."""
    if _detect_elementary(g) is not None:
        return False  # virtually abelian
    shape = two_generated_shape(g)
    if shape.kind == "segment":
        return True
    return gcd(shape.Q * shape.X, shape.Q * shape.Y) != 1


def is_rf_gbs(g: LabelledGraph) -> Decision:
    """Residually finite iff solvable or unimodular; solvability is tested on
    the reduced graph only (caveat flag on negative answers elsewhere)."""
    red, _ = reduce_graph(g)
    if not red.edges:
        return Decision(True, "solvable (trivial graph)")
    if is_unimodular(g):
        return Decision(True, "unimodular")
    loop = loop_labels(red)
    if loop is not None:
        if abs(loop[0]) == 1 or abs(loop[1]) == 1:
            return Decision(True, "solvable BS(1, n)")
        return Decision(False, "neither solvable nor unimodular")
    return Decision(
        False,
        "neither solvable nor unimodular",
        ("solvability tested on the given reduced graph only",),
        caveat=True,
    )


def exists_bs_quotient(g: LabelledGraph) -> Decision:
    """Does G have a Baumslag-Solitar quotient (besides possibly K)?"""
    red, _ = reduce_graph(g)
    if _detect_elementary(red) is not None:
        raise ElementaryGroupError("decider excludes elementary groups")
    if g.betti() == 0:
        return Decision(False, "none except possibly K (beta = 0)")
    friendly = modular_image(g).is_cyclic()
    return Decision(
        True,
        "beta >= 1",
        ("elliptic-friendly" if friendly else "not elliptic-friendly",),
    )


# -- explicit families ---------------------------------------------------------


@dataclass
class ChainMember:
    index: int
    graph: LabelledGraph
    from_bs_18_36: HomCertificate
    to_next: HomCertificate
    to_bs_9_18: HomCertificate


def descending_chain(n: int) -> ChainMember:
    """G_n = <a, b, t | a^6 = b^(2^n), t b^3 t^-1 = b^6> with its three
    verified epimorphisms."""
    if n < 1:
        raise DecisionError("chain index starts at 1")
    g = lollipop_graph([6, 2**n], [3, 6])
    g_next = lollipop_graph([6, 2 ** (n + 1)], [3, 6])
    cert_from = bs_source_epi(g, 18, 36)

    tree = frozenset({"s0"})
    pres = Presentation(g, tree)
    pres_next = Presentation(g_next, tree)
    images = {
        ("v", "v0"): (("v", "v0", 1),),
        ("v", "w0"): (("v", "w0", 2),),
        ("t", "c0"): (("t", "c0", 1),),
    }
    cert_next = witnessed_cert(pres, pres_next, images, {"c0": (("t", "c0", 1),)}, f"G_{n}->>G_{n+1}")

    tgt = Presentation(bs_graph(9, 18))
    images2 = {
        ("v", "v0"): (("v", "v0", 2 ** (n - 1)),),
        ("v", "w0"): (("v", "v0", 3),),
        ("t", "c0"): (("t", "e0", 1),),
    }
    cert_918 = witnessed_cert(pres, tgt, images2, {"e0": (("t", "c0", 1),)}, f"G_{n}->>BS(9,18)")
    return ChainMember(n, g, cert_from, cert_next, cert_918)


@dataclass
class FamilyMember:
    graph: LabelledGraph
    cert: HomCertificate
    params: dict


def _hn_factorization(m: int, n: int):
    """m = alpha*beta, n = alpha*beta*gamma*delta with alpha^delta = 1 and
    alpha, beta, delta nonunits; prefers beta^delta = 1, then smallest."""
    c = n // m

    def divisors(x):  # the divisors >= 2 of |x|, from its factorization
        out = [1]
        for p, e in factorize(x).items():
            out = [d * p**k for d in out for k in range(e + 1)]
        return out[1:]

    candidates, deltas = [], divisors(c)
    for alpha in divisors(m):
        beta = m // alpha
        if abs(beta) == 1:
            continue
        for delta in deltas:
            gamma = c // delta
            if gcd(alpha, delta) != 1:
                continue
            candidates.append(
                (0 if gcd(beta, delta) == 1 else 1, abs(alpha), abs(beta), abs(delta), alpha, beta, gamma, delta)
            )
    if not candidates:
        raise DecisionError(f"no valid factorization for BS({m},{n}) family")
    _, _, _, _, alpha, beta, gamma, delta = min(candidates)
    return alpha, beta, gamma, delta


def infinite_family(m: int, n: int, count: int = 5) -> list[FamilyMember]:
    """`count` pairwise distinct GBS quotients of BS(m, n), each with a
    verified certificate, from the three explicit constructions."""
    if count < 1:
        raise InputError(f"a family needs count >= 1, not {count}")
    if finitely_many_quotients(m, n):
        raise DecisionError(f"BS({m},{n}) has only finitely many GBS quotients")
    mm, nn, swapped = (n, m, True) if n % m != 0 and m % n == 0 else (m, n, False)
    if m == n:
        gen = ((N, segment_graph([m, N])) for N in icount(2))
        params = {"kind": "segment"}
    elif nn % mm == 0:
        alpha, beta, gamma, delta = _hn_factorization(mm, nn)
        gen = (
            (N, lollipop_graph([beta, delta**N], [alpha, alpha * gamma * delta]))
            for N in icount(2)
            if (gamma * delta) % (delta**N) != 0
        )
        params = {"kind": "H_N", "alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta, "swapped": swapped}
    else:
        delta = gcd(mm, nn)
        mp, np_ = mm // delta, nn // delta
        primes = sorted(factorize(np_))
        good = [p for p in primes if mm % p != 0]
        p = (good or primes)[0]
        gen = (
            (N, lollipop_graph([delta, p**N], [mp, np_]))
            for N in icount(2)
            if np_ % (p**N) != 0
        )
        params = {"kind": "G_N", "delta": delta, "m_prime": mp, "n_prime": np_, "p": p, "swapped": swapped}
    members = []
    for N, g in islice(gen, count):
        members.append(FamilyMember(g, bs_source_epi(g, mm, nn), {**params, "N": N}))
    return members
