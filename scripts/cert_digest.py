"""One SHA-256 over the compact JSON of a fixed set of certificates.

Homomorphism certificates are hashed in their expanded (version 1) JSON,
every shared subword written out, so the digest compares certificate
content across the version-2 format.  Two commits that print the same
digest build the same certificates.  One line per group of certificates
comes first, the digest of all last.  The set:

* descending_chain(n) for n = 1 .. 8 (three certificates each);
* infinite_family(m, n, count) for six (m, n, count), the first being
  (4, 6, 8), whose first members are the family ladder's smaller steps;
* minimal_bs_epi on the circles (2 3)^l for l = 1 .. 4;
* non_hopf_endo(m, n) for every non-Hopfian BS(m, n) with 0 < |m|, |n| <= 12;
* the move certificates of 400 seeded segments, circles and lollipops,
  each built by move_cert, with its reverse by inverse_cert for the
  isomorphisms: collapse (each unit end), contraction (each end as the
  survivor), sign change (a vertex and an edge), expansion (each prime of
  each label, split off with fresh names) and displacement_cert (each
  prime the move allows), reduce_cert, and, on the reduced graph
  when it is 2-generated, bs_source_epi from each minimal source and
  minimal_bs_epi where it exists;
* embed_bs_construct for every BS(r, s) < BS(m, n) on the grid
  0 < |r|, |s|, |m|, |n| <= 12 of acceptance criterion 3, one group per
  route (block, power, pendant variant, delta-scaled, pendant index, the
  small cases);
* circle_bs_subgroup on four circles.

    python3 scripts/cert_digest.py
"""

import dataclasses
import hashlib
import json
import random
import sys
from itertools import product

import gbs
from gbs.arith import factorize, gcd
from gbs.errors import GBSError
from gbs.homs import HomCertificate, displacement_cert, inverse_cert, move_cert, reduce_cert
from gbs.words import expand_letters

FAMILIES = ((4, 6, 8), (6, 10, 4), (4, 12, 5), (6, 6, 8), (9, 6, 3), (8, 12, 3))
MOVE_SEED = 905
MOVE_GRAPHS = 400
LABELS = (1, -1, 1, 2, -2, 3, 4, -3, 5, 6, 9)
GRID = [i for i in range(-12, 13) if i]
CIRCLES = ([2, 3], [2, 3, 5, 7], [4, 9, 5, -7], [2, 3, 5, 7, 11, 13])


def _prime_set(n: int) -> set:
    return set(factorize(n)) if abs(n) > 1 else set()


def _seeded_graphs():
    rng = random.Random(MOVE_SEED)

    def labels(edges):
        return [rng.choice(LABELS) for _ in range(2 * edges)]

    for i in range(MOVE_GRAPHS):
        if i % 3 == 0:
            yield gbs.segment_graph(labels(rng.randint(1, 3)))
        elif i % 3 == 1:
            yield gbs.circle_graph(labels(rng.randint(1, 2)))
        else:
            yield gbs.lollipop_graph(labels(rng.randint(1, 2)), labels(1))


def _both_ways(g, kind, *params):
    """The forward and the reverse certificate of one isomorphism move."""
    _, cert, rec = move_cert(g, kind, *params)
    return cert, inverse_cert(cert, rec)


def _move_certs(g):
    out = []
    vertices, edges = g.sorted_vertices(), g.sorted_edges()
    for e in edges:
        if g.is_loop(e):
            continue
        labels = g.edges[e].labels
        for end in (0, 1):
            if abs(labels[end]) == 1:
                out.extend(_both_ways(g, "collapse", e, end))
            out.append(move_cert(g, "contraction", e, g.edges[e].endpoints[end])[1])
            for r in sorted(_prime_set(labels[end])):
                if gcd(labels[1 - end], r) == 1:
                    out.append(displacement_cert(g, e, r, end)[1])
    for e in edges:
        for end in (0, 1):
            origin = g.edges[e].endpoints[end]
            for r in sorted(_prime_set(g.edges[e].labels[end])):
                sgn = -1 if r % 2 else 1
                out.extend(_both_ways(g, "expansion", origin, ((e, end),), r, sgn, g.fresh_vertex(), g.fresh_edge()))
    out.extend(_both_ways(g, "sign-change", "vertex", vertices[-1]))
    out.extend(_both_ways(g, "sign-change", "edge", edges[0]))
    red, cert = reduce_cert(g)
    out.append(cert)
    try:
        sources = gbs.bs_sources(red)
    except GBSError:  # elementary, of rank 3 or more, or another shape
        return out
    if sources.kind == "segment":
        out.extend(gbs.bs_source_epi(red, q, q) for q in (sources.Q, sources.R))
        return out
    out.append(gbs.bs_source_epi(red, sources.QX, sources.QY))
    if gbs.maps_onto_minimal_bs(red):
        out.append(gbs.minimal_bs_epi(red))
    return out


def criterion3_grid(bound: int = 12):
    """Every (r, s, m, n) with 0 < |r|, |s|, |m|, |n| <= bound, in lexicographic
    order, save the sources with |r| = |s| = 1: the box of acceptance
    criterion 3 at bound 12."""
    box = [i for i in range(-bound, bound + 1) if i]
    return ((r, s, m, n) for r, s, m, n in product(box, repeat=4) if abs(r) != 1 or abs(s) != 1)


def _route(cert) -> str:
    prov = cert.provenance
    for word in ("pendant index", "scaled into", "variant", "power circle", "block circle"):
        if word in prov:
            return word
    return "small"


def circle_subgroups():
    """circle_bs_subgroup on each circle of CIRCLES, for its own (X, Y)."""
    out = []
    for labels in CIRCLES:
        g = gbs.circle_graph(labels)
        shape = gbs.classify_shape(g)
        out.append(gbs.circle_bs_subgroup(g, shape.X, shape.Y))
    return out


def groups():
    """(name, certificates) pairs in a fixed order."""
    for n in range(1, 9):
        member = gbs.descending_chain(n)
        yield f"chain {n}", [member.from_bs_18_36, member.to_next, member.to_bs_9_18]
    for m, n, count in FAMILIES:
        yield f"family {m} {n} {count}", [member.cert for member in gbs.infinite_family(m, n, count)]
    for l in range(1, 5):
        yield f"circle {l}", [gbs.minimal_bs_epi(gbs.circle_graph([2, 3] * l))]
    pairs = [(m, n) for m in GRID for n in GRID if abs(m) != 1 and abs(n) != 1 and _prime_set(m) != _prime_set(n)]
    yield "non-Hopfian", [gbs.non_hopf_endo(m, n).cert for m, n in pairs]
    yield f"moves seed {MOVE_SEED}", [c for g in _seeded_graphs() for c in _move_certs(g)]
    routes = {}
    for r, s, m, n in criterion3_grid():
        if gbs.embeds_bs(r, s, m, n):
            cert = gbs.embed_bs_construct(r, s, m, n)
            routes.setdefault(_route(cert), []).append(cert)
    for route in sorted(routes):
        yield f"embed {route}", routes[route]
    yield "circle subgroup", circle_subgroups()


def expanded(cert):
    """The certificate with every word written out (version-1 JSON)."""
    if not isinstance(cert, HomCertificate):
        return cert

    def flat(words):
        return None if words is None else {gen: expand_letters(word) for gen, word in words.items()}

    return dataclasses.replace(cert, images=flat(cert.images), witnesses=flat(cert.witnesses))


def cert_line(cert) -> bytes:
    """The compact expanded JSON of one certificate, as one line."""
    return json.dumps(expanded(cert).to_json(), separators=(",", ":")).encode() + b"\n"


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for name, certs in groups():
        part = hashlib.sha256()
        for cert in certs:
            text = cert_line(cert)
            part.update(text)
            total.update(text)
        count += len(certs)
        print(f"{part.hexdigest()}  {name} ({len(certs)})")
    print(f"{total.hexdigest()}  {count} certificates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
