import dataclasses
import functools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, count_graph_builds, graphs, random_presentation

from gbs import homs, words
from gbs.arith import factorize, gcd, xgcd
from gbs.bs_arith import exists_epi_bs
from gbs.errors import (
    CertificateError,
    DecisionError,
    InputError,
    MissingWitnessError,
    MoveError,
    ShapeError,
    WordCapError,
)
from gbs.graphs import (
    LabelledGraph,
    bs_graph,
    circle_graph,
    classify_shape,
    graph_from_edges,
    lollipop_graph,
    move,
    reduce_graph,
    segment_graph,
)
from gbs.homs import (
    HomCertificate,
    _seed_to_plain,
    check_epi,
    check_hom,
    compose,
    displacement_cert,
    identity_cert,
    inverse_cert,
    loop_relabel_cert,
    move_cert,
    non_hopf_endo,
    circle_minimal_epi,
    reduce_cert,
    solve_witnesses,
    substitute_letters,
    bs_source_epi,
    minimal_bs_epi,
    tree_containing,
)
from gbs.quotients import descending_chain
from gbs.words import (
    PathWord,
    Presentation,
    britton_reduce,
    expand_letters,
    is_elliptic,
    letters_concat,
    letters_inverse,
    letters_power,
    modulus,
    reduce_syllables,
)
from test_words import letters_power_reference


def images_of_elliptics_are_elliptic(cert: HomCertificate) -> bool:
    """Oracle: every vertex generator maps to an elliptic word."""
    for kind, name in cert.source.generators():
        if kind != "v":
            continue
        path = cert.target.letters_to_path(cert.images[(kind, name)])
        if not is_elliptic(cert.target.graph, path):
            return False
    return True


def preserves_moduli(cert: HomCertificate) -> bool:
    """Oracle: every generator and its image have the same modulus."""
    for kind, name in cert.source.generators():
        src_mod = modulus(cert.source.graph, cert.source.letters_to_path(((kind, name, 1),)))
        tgt_mod = modulus(cert.target.graph, cert.target.letters_to_path(cert.images[(kind, name)]))
        if src_mod != tgt_mod:
            return False
    return True


def _round_trip_fixes_generators(fwd, rev):
    both = compose(fwd, rev)
    src = both.source
    for gen in src.generators():
        target_gen = ((gen[0], gen[1], 1),)
        diff = letters_concat(both.images[gen], tuple((k, n, -e) for k, n, e in target_gen))
        assert britton_reduce(src.graph, src.letters_to_path(diff)).trivial


def test_identity_cert():
    pres = Presentation(bs_graph(2, 3))
    cert = identity_cert(pres)
    assert check_hom(cert) and check_epi(cert)


def test_collapse_cert_round_trip():
    g = graph_from_edges(
        [("mid", "v", "w", 5, 1), ("g1", "w", "a", 3, 11), ("g2", "w", "w", 7, 13)]
    )
    g2, fwd, rec = move_cert(g, "collapse", "mid")
    rev = inverse_cert(fwd, rec)
    assert check_epi(fwd) and check_epi(rev)
    _round_trip_fixes_generators(fwd, rev)
    _round_trip_fixes_generators(rev, fwd)


def test_expansion_cert_round_trip():
    g = graph_from_edges([("e", "v", "w", 6, 10), ("f", "v", "v", 9, 12)])
    g2, fwd, rec = move_cert(g, "expansion", "v", (("e", 0), ("f", 1)), 3, 1, "u0", "x0")
    rev = inverse_cert(fwd, rec)
    assert check_epi(fwd) and check_epi(rev)
    _round_trip_fixes_generators(fwd, rev)


def test_expansion_cert_moves_both_ends_of_a_loop():
    # the loop's traversals must cross the new edge both before and after it
    g = graph_from_edges([("e0", "v", "v", 6, 6), ("e1", "v", "v", 6, 6)])
    g2, fwd, rec = move_cert(g, "expansion", "v", (("e0", 0), ("e0", 1)), 6, 1, "u0", "x0")
    rev = inverse_cert(fwd, rec)
    assert check_epi(fwd) and check_epi(rev)
    _round_trip_fixes_generators(fwd, rev)


def test_sign_change_cert():
    g = segment_graph([2, 3])
    g2, fwd, rec = move_cert(g, "sign-change", "vertex", "v1")
    rev = inverse_cert(fwd, rec)
    assert check_epi(fwd) and check_epi(rev)
    _round_trip_fixes_generators(fwd, rev)
    g3, fwd2, rec2 = move_cert(g, "sign-change", "edge", "s0")
    rev2 = inverse_cert(fwd2, rec2)
    assert check_epi(fwd2) and check_epi(rev2)
    for what, name, message in (("loop", "s0", "at a vertex or an edge"), ("vertex", "s0", "unknown vertex"),
                                ("edge", "v0", "unknown edge")):
        with pytest.raises(MoveError, match=message):
            move_cert(g, "sign-change", what, name)


def test_contraction_cert_two_edge_circle():
    # the two contractions of <a,b,t | a^3=b^3, t b^2 t^-1 = a^4>
    g = graph_from_edges([("e1", "u", "w", 3, 3), ("e2", "w", "u", 2, 4)])
    g1, c1, _ = move_cert(g, "contraction", "e1", "u")
    assert sorted(map(abs, g1.labels())) == [2, 4]
    assert check_epi(c1)
    g2, c2, _ = move_cert(g, "contraction", "e2", "w")
    assert sorted(map(abs, g2.labels())) == [3, 6]
    assert check_epi(c2)


def test_contraction_cert_bezout_witness():
    g = graph_from_edges([("eps", "v", "w", 6, 10), ("lp", "v", "v", 7, 11)])
    g2, cert, _ = move_cert(g, "contraction", "eps", "v")
    assert check_epi(cert)


@pytest.mark.parametrize("survivor_end", [2, True])
def test_contraction_cert_survivor_end_is_checked_by_the_move(survivor_end):
    # the survivor is one of the edge's ends, named as a vertex: an end number is refused
    g = graph_from_edges([("eps", "v", "w", 6, 10), ("lp", "v", "v", 7, 11)])
    with pytest.raises(MoveError, match="survivor of contracting eps"):
        move_cert(g, "contraction", "eps", survivor_end)


def test_displacement_cert():
    g = circle_graph([2, 5, 3, 7])
    g2, cert, new_edge = displacement_cert(g, "c1", 3, 0)
    assert check_hom(cert) and check_epi(cert)
    assert new_edge in g2.edges


def test_displacement_cert_builds_only_the_move_graphs(monkeypatch):
    # the expansion's graph and the contraction's; the factor is checked on a working copy
    g = circle_graph([2, 5, 3, 7])
    calls = count_graph_builds(monkeypatch)
    displacement_cert(g, "c1", 3, 0)
    assert sum(calls.values()) == 2


@pytest.mark.parametrize("n", [1, 2, 5])
def test_reduce_and_displacement_build_only_the_certificates_they_compose(monkeypatch, n):
    """reduce_cert builds one forward certificate per collapse and their
    composite, n + 1 in all; displacement_cert builds its expansion's, its
    contraction's and their composite, 3.  Neither builds a reverse."""
    g = segment_graph([1, 2] * n + [2, 3])
    assert len(reduce_graph(g)[1]) == n
    calls = count_calls(monkeypatch, [(HomCertificate, "__init__")])
    red, cert = reduce_cert(g)
    assert calls["__init__"] == n + 1 and len(red.edges) == 1 and check_epi(cert)
    calls.clear()
    g2, cert, new_edge = displacement_cert(circle_graph([2, 5, 3, 7]), "c1", 3, 0)
    assert calls["__init__"] == 3 and new_edge in g2.edges and check_epi(cert)


@pytest.mark.parametrize(
    "g,edge,r,end",
    [
        (circle_graph([2, 5, 3, 7]), "c1", True, 0),
        (circle_graph([2, 5, 3, 7]), "c1", 3.0, 0),
        (circle_graph([2, 5, 3, 7]), "c1", 0, 0),
        (circle_graph([2, 5, 3, 7]), "c1", 2, 0),
        (circle_graph([2, 10, 3, 7]), "c0", 2, 1),  # 2 divides 10, but the far label 2 is not coprime to 2
        (circle_graph([2, 5, 3, 7]), "c1", 3, 2),
        (circle_graph([2, 5, 3, 7]), "c9", 3, 0),
        (graph_from_edges([("l", "v", "v", 6, 5), ("s", "v", "w", 2, 3)]), "l", 2, 0),
    ],
    ids=["bool", "float", "zero", "not-dividing", "not-coprime", "bad-end", "unknown-edge", "loop"],
)
def test_displacement_cert_is_checked_by_the_move(g, edge, r, end):
    with pytest.raises(MoveError):
        move(g, "displacement", edge, r, end)
    with pytest.raises(MoveError):
        displacement_cert(g, edge, r, end)


def _moves_of(g):
    """(kind, params) of every collapse, contraction, vertex and edge sign
    change of g, and of an expansion splitting each label's least prime
    (sign -1 for an odd prime) off its end."""
    for e in g.sorted_edges():
        ed = g.edges[e]
        yield "sign-change", ("edge", e)
        for end in (0, 1):
            if not g.is_loop(e):
                yield "contraction", (e, ed.endpoints[end])
                if abs(ed.labels[end]) == 1:
                    yield "collapse", (e, end)
            if abs(ed.labels[end]) > 1:
                p = min(factorize(ed.labels[end]))
                names = g.fresh_vertex(), g.fresh_edge()
                yield "expansion", (ed.endpoints[end], ((e, end),), p, -1 if p % 2 else 1, *names)
    for v in g.sorted_vertices():
        yield "sign-change", ("vertex", v)


def test_move_cert_matches_move():
    """On seeded segments, circles and lollipops (labels +-1 included),
    move_cert makes move's graph and record, its certificate is an
    epimorphism, and inverse_cert's is one for the three isomorphism kinds."""
    rng = random.Random(39)
    counts = Counter()
    for i in range(60):
        labels = [rng.choice((1, -1, 2, -2, 3, 4, -6, 9)) for _ in range(4)]
        g = (segment_graph, circle_graph, lambda ls: lollipop_graph(ls[:2], ls[2:]))[i % 3](labels)
        for kind, params in _moves_of(g):
            g2, cert, rec = move_cert(g, kind, *params)
            assert (g2, rec) == move(g, kind, *params)
            assert check_epi(cert), (g, kind, params)
            if kind == "contraction":
                with pytest.raises(MoveError, match="a contraction certificate has no inverse"):
                    inverse_cert(cert, rec)
            else:
                assert check_epi(inverse_cert(cert, rec)), (g, kind, params)
            counts[kind] += 1
    assert min(counts[kind] for kind in ("collapse", "contraction", "expansion", "sign-change")) >= 40, counts


def test_move_cert_refuses_a_displacement():
    g = circle_graph([6, 5, 7, 3])
    with pytest.raises(MoveError, match="use displacement_cert"):
        move_cert(g, "displacement", "c0", 2, 0)
    g2, _, new_edge = displacement_cert(g, "c0", 2, 0)
    assert "c0" not in g2.edges and new_edge == "x0"  # the displaced edge is renamed; move keeps it
    assert "c0" in move(g, "displacement", "c0", 2, 0)[0].edges


def test_reduce_cert():
    g = circle_graph([2, 1, 3, 1, 5, 7])
    red, cert = reduce_cert(g)
    assert red.is_reduced()
    assert check_epi(cert)


def test_loop_relabel_variants():
    for labels, target, sgn, direction in (((2, 3), (2, 3), 1, 1), ((3, 2), (2, 3), 1, -1),
                                           ((-2, -3), (2, 3), -1, 1), ((-3, -2), (2, 3), -1, -1)):
        g = graph_from_edges([("z", "p", "p", *labels)])
        cert = loop_relabel_cert(g, *target)
        assert check_epi(cert), (labels, target)
        assert cert.images == {("v", "p"): (("v", "v0", sgn),), ("t", "z"): (("t", "e0", direction),)}
    with pytest.raises(CertificateError, match="^relabel expects a single loop$"):
        loop_relabel_cert(segment_graph([2, 3]), 2, 3)
    with pytest.raises(CertificateError, match=r"^loop \(2,3\) does not match BS\(2,5\) up to sign/swap$"):
        loop_relabel_cert(bs_graph(2, 3), 2, 5)


def test_compose_is_functorial():
    g = circle_graph([2, 1, 3, 5])
    red, cert = reduce_cert(g)
    rel = loop_relabel_cert(red, *red.edges[red.sorted_edges()[0]].labels)
    both = compose(cert, rel)
    assert check_epi(both)


def test_missing_witness_error():
    pres = Presentation(bs_graph(2, 3))
    cert = dataclasses.replace(identity_cert(pres), witnesses=None)
    for c in (cert, compose(cert, identity_cert(pres)), compose(identity_cert(pres), cert)):  # None once any has none
        with pytest.raises(MissingWitnessError):
            check_epi(c)
    full = identity_cert(pres)
    cert2 = dataclasses.replace(full, witnesses={gen: word for gen, word in full.witnesses.items() if gen != ("t", "e0")})
    with pytest.raises(MissingWitnessError):
        check_epi(cert2)


def test_certificate_is_immutable_and_replace_starts_afresh():
    """check_hom's answer is kept on the certificate, so nothing may change
    what it was reached from; dataclasses.replace gives a new certificate
    that is checked anew."""
    pres = Presentation(bs_graph(2, 3))
    images = {("v", "v0"): (("v", "v0", 1),), ("t", "e0"): (("t", "e0", 1),)}
    cert = HomCertificate(pres, pres, images, dict(images), "identity")
    assert check_hom(cert) and check_epi(cert)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.witnesses = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        del cert.provenance
    with pytest.raises(TypeError):
        cert.images[("v", "v0")] = (("v", "v0", 5),)
    with pytest.raises(TypeError):
        del cert.witnesses[("t", "e0")]
    images[("v", "v0")] = (("t", "e0", 1),)  # the caller's dict is not the certificate's
    assert cert.images[("v", "v0")] == (("v", "v0", 1),) and check_hom(cert)
    bad = dataclasses.replace(cert, images=images)
    assert bad is not cert and bad == HomCertificate(pres, pres, images, cert.witnesses, "identity")
    assert not check_hom(bad) and not check_epi(bad)
    assert check_hom(cert) and check_epi(cert)
    assert cert == HomCertificate(pres, pres, cert.images, cert.witnesses, "identity")  # the kept check is no field


def test_check_hom_rejects_bad_images():
    """A failing relator makes check_epi answer False, not raise, even with
    witnesses that verify."""
    pres = Presentation(bs_graph(2, 3))
    bad = HomCertificate(
        pres,
        pres,
        {("v", "v0"): (("v", "v0", 1),), ("t", "e0"): (("v", "v0", 1),)},
        {("v", "v0"): (("v", "v0", 1),), ("t", "e0"): (("t", "e0", 1),)},
        "broken",
    )
    assert not check_hom(bad)
    assert not check_epi(bad)


def test_compose_and_substitution_refuse_what_does_not_fit():
    c = bs_source_epi(bs_graph(2, 3), 4, 6)
    with pytest.raises(CertificateError, match="target/source graphs differ"):
        compose(c, c)
    with pytest.raises(CertificateError, match=r"no image for generator t\(e0\)"):
        substitute_letters((("v", "v0", 2), ("t", "e0", 1)), {("v", "v0"): (("v", "v0", 1),)})


def test_bs_epi_cert_cases():
    # BS(m, n) ->> BS(m2, n2) when (m, n) is a multiple of (m2, n2) either way
    for m, n, m2, n2 in ((18, 36, 9, 18), (6, 10, 3, 5), (6, 10, 5, 3), (12, 18, -2, -3)):
        cert = bs_source_epi(bs_graph(m2, n2), m, n)
        assert check_epi(cert) and not cert.flags, (m, n, m2, n2)
    assert exists_epi_bs(4, 4, 1, -1)  # onto the Klein bottle group: decided, not certified
    with pytest.raises(DecisionError):
        bs_source_epi(bs_graph(3, 5), 2, 3)


def test_non_hopf_pipeline():
    res = non_hopf_endo(2, 3)
    pres = res.cert.source
    assert check_epi(res.cert)
    assert not britton_reduce(pres.graph, pres.letters_to_path(res.kernel_witness)).trivial
    image = res.cert.image_of(res.kernel_witness)
    assert britton_reduce(pres.graph, pres.letters_to_path(image)).trivial
    assert non_hopf_endo(2, 9).params == (2, 9)
    assert non_hopf_endo(4, 6).params == (6, 4)
    with pytest.raises(DecisionError):
        non_hopf_endo(2, 4)


def test_bs_source_epi_multiples():
    g = lollipop_graph([6, 2], [3, 6])  # (QX, QY) = (18, 36)
    for m, n in ((18, 36), (36, 72), (-18, -36), (36, 18), (72, 36)):
        cert = bs_source_epi(g, m, n)
        assert check_epi(cert), (m, n)
    with pytest.raises(DecisionError):
        bs_source_epi(g, 18, 35)


def test_bs_source_epi_rejects_rank_3():
    # reduced, Q = R = 60, but rank 3: no Baumslag-Solitar group maps onto it
    with pytest.raises(DecisionError, match="group has rank 3 > 2"):
        bs_source_epi(segment_graph([6, 6, 10, 15]), 60, 60)


def test_bs_source_epi_rejects_other_shapes():
    with pytest.raises(ShapeError, match="graph is not a segment, circle or lollipop"):
        bs_source_epi(LabelledGraph({"v"}, {}), 1, 1)


def test_bs_source_epi_segment_routes():
    g = segment_graph([2, 3])
    assert check_epi(bs_source_epi(g, 2, 2))
    assert check_epi(bs_source_epi(g, 3, 3))
    assert check_epi(bs_source_epi(g, -6, -6))
    for m, n in ((5, 5), (2, 4)):  # neither Q nor R divides m, or m != n
        with pytest.raises(DecisionError, match="does not map onto this segment group"):
            bs_source_epi(g, m, n)


def test_minimal_bs_epi_all_routes():
    cases = [
        lollipop_graph([2, 5], [5, 7]),  # explicit formula route
        lollipop_graph([2, 9], [3, 25]),  # explicit with alpha > 0
        lollipop_graph([3, 5], [6, 10]),  # contraction + split-index route
        lollipop_graph([2, 3, 5, 7], [21, 13]),  # k > 1 recursion
        circle_graph([2, 3, 5, 7]),  # displacement route
        bs_graph(2, 3),  # trivial relabel
    ]
    for g in cases:
        cert = minimal_bs_epi(g)
        assert check_epi(cert), g
    with pytest.raises(DecisionError):
        minimal_bs_epi(lollipop_graph([6, 2], [3, 6]))  # all gcd clauses fail
    with pytest.raises(ShapeError, match="expects a circle or lollipop"):
        minimal_bs_epi(segment_graph([2, 3]))


@pytest.mark.parametrize(
    "q_r, x_y",
    [([2, 2], [2, 3, 2, 3]), ([3, 4], [7, 5, 6, 5]), ([7, 3], [2, 5, 3, 7]), ([5, 2], [4, 3, 5, 3, 2, 3])],
)
def test_minimal_bs_epi_lollipop_with_a_longer_circle(q_r, x_y):
    # k = 1 and l >= 2 under the X^QY = 1 / Y^QX = 1 clause: the circle is cleared to one edge first
    g = lollipop_graph(q_r, x_y)
    shape = classify_shape(g)
    assert shape.k == 1 and shape.ell >= 2
    Q, X, Y = shape.Q, shape.X, shape.Y
    assert gcd(Y, Q * X) == 1 or gcd(X, Q * Y) == 1
    cert = minimal_bs_epi(g)
    assert cert.provenance == f"lollipop->>BS({Q * X},{Q * Y})"
    (edge,) = cert.target.graph.edges.values()  # BS(QX, QY), its labels in either order
    assert sorted(edge.labels) == sorted((Q * X, Q * Y))
    assert check_hom(cert) and check_epi(cert)


def test_circle_minimal_epi_matches_decider():
    from gbs.quotients import maps_onto_minimal_bs

    g = circle_graph([2, 3, 5, 7])
    assert maps_onto_minimal_bs(g).answer
    assert check_epi(circle_minimal_epi(g))
    with pytest.raises(ShapeError, match="expects a circle"):
        circle_minimal_epi(lollipop_graph([2, 5], [5, 7]))


def test_checker_structural_properties():
    # elliptic generators map to elliptics; moduli are preserved
    certs = [
        bs_source_epi(lollipop_graph([6, 2], [3, 6]), 18, 36),
        minimal_bs_epi(lollipop_graph([2, 5], [5, 7])),
        non_hopf_endo(2, 3).cert,
    ]
    for cert in certs:
        assert images_of_elliptics_are_elliptic(cert)
        assert preserves_moduli(cert)


def test_solve_witnesses_degrades():
    # an image pair that generates a proper subgroup yields no witnesses
    pres = Presentation(bs_graph(2, 4))
    seeds = [((("v", "v0", 1),), (("v", "v0", 2),))]
    assert solve_witnesses(pres, seeds, {"e0": (("t", "e0", 1),)}) is None


def test_stalled_witness_search_flags_hom_only():
    """Every witness-backed builder finds its witnesses; a map that is not
    onto stalls the search and comes back a hom-only certificate."""
    explicit = minimal_bs_epi(lollipop_graph([2, 5], [5, 7]))  # k = l = 1: the explicit route
    assert explicit.provenance == "lollipop->>BS(10,14)"
    chain = descending_chain(2)
    for cert in (
        bs_source_epi(segment_graph([2, 3]), 6, 6),
        bs_source_epi(lollipop_graph([6, 4], [3, 6]), 18, 36),
        explicit,
        chain.from_bs_18_36,
        chain.to_next,
        chain.to_bs_9_18,
    ):
        assert check_epi(cert), cert.provenance
        assert cert.witnesses is not None and cert.flags == (), cert.provenance
    pres = Presentation(bs_graph(2, 4))
    images = {("v", "v0"): (("v", "v0", 2),), ("t", "e0"): (("t", "e0", 1),)}
    stalled = homs.witnessed_cert(pres, pres, images, {"e0": (("t", "e0", 1),)}, "a -> a^2")
    assert check_hom(stalled)
    assert stalled.witnesses is None
    assert stalled.flags == ("hom-only: witness search failed",)


def _solve_witnesses_reference(tgt, seeds, stable_handles):
    """The eager closure: builds the word of every offer, kept or not.  It
    pops a vertex at most |d0|.bit_length() times, for d0 its first offer."""
    g = tgt.graph
    best, queue, first = {}, [], {}
    pops = 0

    def offer(vertex, d, word):
        if d == 0:
            return
        if d < 0:
            d, word = -d, letters_inverse(word)
        cur = best.get(vertex)
        if cur is None:
            best[vertex] = first[vertex] = (d, word)
            queue.append(vertex)
            return
        d0, w0 = cur
        gg, xx, yy = xgcd(d0, d)
        if gg < d0:
            best[vertex] = (gg, letters_concat(letters_power(w0, xx), letters_power(word, yy)))
            queue.append(vertex)

    for source_letters, image_letters in seeds:
        plain = _seed_to_plain(tgt, source_letters, image_letters)
        if plain is not None:
            offer(*plain)
    while queue:
        pops += 1
        v = queue.pop()
        d, word = best[v]
        for name in g.sorted_edges():
            (p0, p1) = g.edges[name].endpoints
            (l0, l1) = g.edges[name].labels
            handle = stable_handles.get(name)
            if name not in tgt.tree and handle is None:
                continue
            if p0 == v:
                new_word = letters_power(word, l0 // gcd(d, l0))
                if name not in tgt.tree:
                    new_word = letters_concat(handle, new_word, letters_inverse(handle))
                offer(p1, l1 * (d // gcd(d, l0)), new_word)
            if p1 == v:
                new_word = letters_power(word, l1 // gcd(d, l1))
                if name not in tgt.tree:
                    new_word = letters_concat(letters_inverse(handle), new_word, handle)
                offer(p0, l0 * (d // gcd(d, l1)), new_word)
    assert pops <= sum(d0.bit_length() for d0, _ in first.values())
    witnesses = {}
    for vertex in g.sorted_vertices():
        got = best.get(vertex)
        if got is None or got[0] != 1:
            return None
        witnesses[("v", vertex)] = got[1]
    for e in tgt.stable_edges:
        if e not in stable_handles:
            return None
        witnesses[("t", e)] = stable_handles[e]
    return witnesses


def test_seed_to_plain_reads_only_a_conjugated_vertex_power():
    tgt = Presentation(bs_graph(2, 3))
    a, t, t_inv = ("v", "v0", 1), ("t", "e0", 1), ("t", "e0", -1)
    assert _seed_to_plain(tgt, (a,), (t, a, t_inv)) is not None
    for image in ((t, a), (t, a, t)):  # unequal sides; a side that is not the other's inverse
        assert _seed_to_plain(tgt, (a,), image) is None


def _witness_problem(rng):
    """A BS, lollipop or circle target with random elliptic seeds (some
    conjugated by stable letters) and handles for most stable edges."""

    def lab():
        return rng.choice([1, 2, 3, 4, 6]) * rng.choice([1, 1, -1])

    kind = rng.choice(["bs", "lollipop", "circle"])
    if kind == "bs":
        g = bs_graph(lab(), lab())
    elif kind == "lollipop":
        k = rng.randint(1, 2)
        g = lollipop_graph([lab() for _ in range(2 * k)], [lab(), lab()])
    else:
        g = circle_graph([lab() for _ in range(2 * rng.randint(1, 3))])
    tgt = Presentation(g)
    stable = tgt.stable_edges
    seeds = []
    for i in range(rng.randint(1, 4)):
        image = (("v", rng.choice(g.sorted_vertices()), rng.choice([1, 2, 3, 4, 6, -2, 9])),)
        if stable and rng.random() < 0.3:
            t = (("t", rng.choice(stable), rng.choice([1, -1, 2])),)
            image = t + image + letters_inverse(t)
        seeds.append(((("v", f"x{i}", 1), ("t", f"y{i}", -1)), image))
    handles = {e: (("t", f"h{e}", 1), ("v", "x0", 2)) for e in stable if rng.random() < 0.9}
    return tgt, seeds, handles


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=150, deadline=None)
def test_solve_witnesses_matches_eager_reference(seed):
    tgt, seeds, handles = _witness_problem(random.Random(seed))
    assert solve_witnesses(tgt, seeds, handles) == _solve_witnesses_reference(tgt, seeds, handles)


def test_witness_closure_builds_only_kept_words(monkeypatch):
    """infinite_family(4, 6, 7) keeps witnesses of at most 516 letters; the
    eager closure built 4.86M letters for them, the lazy one far fewer."""
    from gbs.quotients import infinite_family

    built, kept, inside = [0], [], [False]
    concat, solve = words.letters_concat, homs.solve_witnesses

    def counting_concat(*parts):
        out = concat(*parts)
        if inside[0]:
            built[0] += len(out)
        return out

    def counted_solve(*args):
        inside[0] = True
        try:
            got = solve(*args)
        finally:
            inside[0] = False
        kept.extend(len(w) for w in got.values())
        return got

    monkeypatch.setattr(words, "letters_concat", counting_concat)
    monkeypatch.setattr(homs, "letters_concat", counting_concat)
    monkeypatch.setattr(homs, "solve_witnesses", counted_solve)
    infinite_family(4, 6, 7)
    assert max(kept) <= 516
    assert 0 < built[0] < 100_000, built[0]


def test_ladder_tops_verify_after_json_round_trip():
    from gbs.quotients import descending_chain, infinite_family

    member = descending_chain(8)
    certs = [m.cert for m in infinite_family(4, 6, 11)]
    certs += [member.from_bs_18_36, member.to_next, member.to_bs_9_18]
    for cert in certs:
        back = HomCertificate.from_json(json.loads(json.dumps(cert.to_json(), separators=(",", ":"))))
        assert check_hom(back) and check_epi(back), cert.provenance


def test_tree_containing():
    g = lollipop_graph([2, 3, 5, 7], [11, 13])
    tree = tree_containing(g, "s1")
    assert "s1" in tree and len(tree) == len(g.vertices) - 1
    with pytest.raises(CertificateError, match="cannot lie in a spanning tree"):
        tree_containing(g, "c0")


def test_hom_cert_json_round_trip():
    cert = bs_source_epi(lollipop_graph([6, 2], [3, 6]), 18, 36)
    data = json.loads(json.dumps(cert.to_json()))
    back = HomCertificate.from_json(data)
    assert check_epi(back)


def test_move_cert_json_round_trips():
    g = graph_from_edges([("eps", "v", "w", 6, 10), ("lp", "v", "v", 7, 11)])
    _, c_con, _ = move_cert(g, "contraction", "eps", "v")
    g2 = circle_graph([2, 3, 5, 7])
    c_min = minimal_bs_epi(g2)
    for cert in (c_con, c_min):
        back = HomCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert check_epi(back)


def test_structural_invariants_on_family_and_move_certs():
    from gbs.quotients import descending_chain, infinite_family

    certs = [descending_chain(2).to_bs_9_18]
    certs += [mem.cert for mem in infinite_family(4, 6, count=2)]
    g = graph_from_edges([("eps", "v", "w", 6, 10), ("lp", "v", "v", 7, 11)])
    certs.append(move_cert(g, "contraction", "eps", "v")[1])
    for cert in certs:
        assert images_of_elliptics_are_elliptic(cert)
        assert preserves_moduli(cert)


def test_source_then_minimal_composes():
    # BS(QX,QY) ->> G ->> BS(QX,QY): the composite is a checkable self-epi
    g = lollipop_graph([2, 5], [5, 7])
    down = bs_source_epi(g, 10, 14)
    up = minimal_bs_epi(g)
    both = compose(down, up)
    assert check_epi(both)


@given(graphs(max_label=7))
@settings(max_examples=25, deadline=None)
def test_reduce_cert_random(g):
    red, cert = reduce_cert(g)
    assert check_epi(cert)
    assert red == reduce_graph(g)[0]


# -- move certificates against the syllable-level move map -----------------------


def _syllable_map_images(cert, vertex_map, vertex_mult, edge_map):
    """The images of a move certificate as a map of path words builds them:
    each source generator's path, its vertex powers renamed by vertex_map and
    multiplied by vertex_mult (1 if absent), each traversal replaced by its
    edge_map path, Britton-reduced over the target."""
    src, tgt = cert.source, cert.target
    assert tgt.base == vertex_map[src.base]

    def map_path(syllables):
        out = []
        for syl in syllables:
            if syl[0] == "v":
                exp = syl[2] * vertex_mult.get(syl[1], 1)
                if exp:
                    out.append(("v", vertex_map[syl[1]], exp))
            else:
                out.extend(edge_map[(syl[1], syl[2])])
        return tuple(out)

    images = {}
    for gen in src.generators():
        path = src.letters_to_path((gen + (1,),))
        nf = britton_reduce(tgt.graph, PathWord(tgt.base, map_path(path.syllables)))
        images[gen] = tgt.path_to_letters(nf.word.syllables)
    return images


def _merging_images(cert, g, edge, survivor, removed, mult):
    """Reference images of a collapse or contraction: `edge` is dropped and
    `removed` merged into `survivor`."""
    vertex_map = {v: (survivor if v == removed else v) for v in g.vertices}
    edge_map = {(e, k): (() if e == edge else (("e", e, k),)) for e in g.edges for k in (0, 1)}
    return _syllable_map_images(cert, vertex_map, mult, edge_map)


def _expansion_images(cert, g, moved, new_edge):
    """Reference images of an expansion: a traversal leaving a moved end first
    crosses new_edge out of the split vertex, one arriving at it crosses back."""
    edge_map = {}
    for e in g.edges:
        for k in (0, 1):
            before = (("e", new_edge, 0),) if (e, k) in moved else ()
            after = (("e", new_edge, 1),) if (e, 1 - k) in moved else ()
            edge_map[(e, k)] = before + (("e", e, k),) + after
    return _syllable_map_images(cert, {v: v for v in g.vertices}, {}, edge_map)


@given(graphs(max_vertices=5, max_extra=3))
@settings(max_examples=150, deadline=None)
def test_move_certs_match_the_syllable_map(g):
    for e in g.sorted_edges():
        if g.is_loop(e):
            continue
        (v, w), (q, r) = g.edges[e].endpoints, g.edges[e].labels
        for end in (0, 1):
            survivor, removed = (v, w)[end], (v, w)[1 - end]
            if abs((q, r)[1 - end]) == 1:  # a collapse names the removed end
                _, fwd, _ = move_cert(g, "collapse", e, 1 - end)
                assert fwd.images == _merging_images(fwd, g, e, survivor, removed, {removed: q * r})
            _, con, _ = move_cert(g, "contraction", e, survivor)
            d = gcd(q, r)
            assert con.images == _merging_images(con, g, e, survivor, removed, {v: r // d, w: q // d})
    for vertex in g.sorted_vertices():
        for label in (1, 2, 3):
            ends = tuple((oe.edge, oe.end) for oe in g.edges_at(vertex) if g.label(oe) % label == 0)
            for moved in (ends, ends[::2], ends[1::2]):
                sgn = -1 if label == 2 else 1
                g2, fwd, _ = move_cert(g, "expansion", vertex, moved, label, sgn, g.fresh_vertex(), g.fresh_edge())
                (new_edge,) = set(g2.edges) - set(g.edges)
                want = _expansion_images(fwd, g, set(moved), new_edge)
                assert fwd.images == want


# -- compressed certificate words ------------------------------------------------


def substitute_letters_reference(letters, images):
    out = []
    for kind, name, exp in letters:
        try:
            word = images[(kind, name)]
        except KeyError:
            raise CertificateError(f"no image for generator {homs.gen_name((kind, name))}")
        out.append(letters_power_reference(word, exp))
    return letters_concat(*out)


def convert_letters_reference(letters, pres_from, pres_to):
    if pres_from.graph != pres_to.graph:
        raise CertificateError("presentations live on different graphs")
    if pres_from.tree == pres_to.tree:
        return letters
    base = pres_from.graph.sorted_vertices()[0]
    helper_from = Presentation(pres_from.graph, pres_from.tree, base)
    helper_to = Presentation(pres_to.graph, pres_to.tree, base)
    return helper_to.path_to_letters(helper_from.letters_to_path(letters).syllables)


def compose_reference(first, *rest, provenance=""):
    """The eager composite, folded pair by pair: every word written out."""
    c1 = first
    for c2 in rest:
        if c1.target.graph != c2.source.graph:
            raise CertificateError("composition: target/source graphs differ")
        images = {}
        for gen, word in c1.images.items():
            mid = convert_letters_reference(word, c1.target, c2.source)
            images[gen] = substitute_letters_reference(mid, c2.images)
        witnesses = None
        if c1.witnesses is not None and c2.witnesses is not None:
            witnesses = {}
            for gen, word in c2.witnesses.items():
                mid = convert_letters_reference(word, c2.source, c1.target)
                witnesses[gen] = substitute_letters_reference(mid, c1.witnesses)
        c1 = HomCertificate(
            c1.source,
            c2.target,
            images,
            witnesses,
            f"{c1.provenance};{c2.provenance}",
            tuple(dict.fromkeys(c1.flags + c2.flags)),
        )
    return dataclasses.replace(c1, provenance=provenance) if provenance else c1


def _eager(mp):
    """Make the builders use the eager word operations."""
    mp.setattr(homs, "letters_power", letters_power_reference)
    mp.setattr(homs, "substitute_letters", substitute_letters_reference)
    mp.setattr(homs, "compose", compose_reference)


def _flat_words(cert):
    def flat(words):
        return None if words is None else {gen: expand_letters(word) for gen, word in words.items()}

    return flat(cert.images), flat(cert.witnesses)


def _shares(cert) -> bool:
    words = list(cert.images.values()) + list((cert.witnesses or {}).values())
    return any(letter[0] == "w" for word in words for letter in word)


def _quotient_certs():
    for n in range(1, 9):
        member = descending_chain(n)
        yield from (member.from_bs_18_36, member.to_next, member.to_bs_9_18)
    for ell in range(1, 5):
        yield minimal_bs_epi(circle_graph([2, 3] * ell))
    grid = [i for i in range(-12, 13) if abs(i) > 1]
    for m in grid:
        for n in grid:
            if not homs.is_hopfian_bs(m, n):
                yield non_hopf_endo(m, n).cert


def test_compressed_certificates_expand_to_eager_ones():
    compressed = list(_quotient_certs())
    with pytest.MonkeyPatch.context() as mp:
        _eager(mp)
        eager = list(_quotient_certs())
    assert len(compressed) == len(eager) == 24 + 4 + 400
    assert sum(map(_shares, compressed)) >= 8 and not any(map(_shares, eager))
    for cert, want in zip(compressed, eager):
        assert _flat_words(cert) == (want.images, want.witnesses), cert.provenance


def _move_chain(seed):
    """A random circle or lollipop and a composite of random contraction and
    displacement certificates, then the reduction of what is left."""
    rng = random.Random(seed)
    labels = [rng.choice((1, 2, -2, 3, 4, 6, 9)) for _ in range(4)]
    g = circle_graph(labels) if rng.random() < 0.5 else lollipop_graph(labels[:2], labels[2:])
    cert = identity_cert(Presentation(g))
    for _ in range(rng.randint(1, 3)):
        edges = [e for e in g.sorted_edges() if not g.is_loop(e)]
        if not edges:
            break
        e = rng.choice(edges)
        end = rng.randint(0, 1)
        q, r = g.edges[e].labels[1 - end], g.edges[e].labels[end]
        primes = [p for p in (2, 3) if r % p == 0 and q % p]
        if primes and rng.random() < 0.6:
            g, step, _ = displacement_cert(g, e, rng.choice(primes), end)
        else:
            g, step, _ = move_cert(g, "contraction", e, g.edges[e].endpoints[end])
        cert = homs.compose(cert, step)
    g, red = reduce_cert(g)
    return homs.compose(cert, red)


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=40, deadline=None)
def test_move_chains_expand_to_eager_ones(seed):
    cert = _move_chain(seed)
    with pytest.MonkeyPatch.context() as mp:
        _eager(mp)
        want = _move_chain(seed)
    assert _flat_words(cert) == (want.images, want.witnesses)
    assert check_epi(cert)


def _round_trip(cert):
    return HomCertificate.from_json(json.loads(json.dumps(cert.to_json(), separators=(",", ":"))))


def test_version_1_certificate_loads_and_verifies():
    cert = descending_chain(6).from_bs_18_36
    assert _shares(cert) and cert.to_json()["version"] == 2
    flat_images, flat_witnesses = _flat_words(cert)
    flat = dataclasses.replace(cert, images=flat_images, witnesses=flat_witnesses)
    data = flat.to_json()
    assert "version" not in data and "words" not in data
    back = HomCertificate.from_json(json.loads(json.dumps(data)))
    assert check_hom(back) and check_epi(back)
    assert _flat_words(_round_trip(cert)) == (flat_images, flat_witnesses)


def test_ladder_tops_build_round_trip_and_verify():
    member = descending_chain(11)
    certs = [member.from_bs_18_36, member.to_next, member.to_bs_9_18]
    certs.append(minimal_bs_epi(circle_graph([2, 3] * 8)))
    for cert in certs:
        data = cert.to_json()
        assert len(json.dumps(data)) < 20_000, cert.provenance
        back = _round_trip(cert)
        assert check_hom(back) and check_epi(back), cert.provenance
    assert certs[0].to_json()["version"] == certs[3].to_json()["version"] == 2


def _bump_first_exponent(text):
    head, *rest = text.split(" ")
    base, caret, exp = head.partition("^")
    return " ".join([f"{base}^{int(exp) + 1 if caret else 2}", *rest])


def test_zero_power_of_a_shared_word_reads_as_the_empty_word():
    data = descending_chain(5).from_bs_18_36.to_json()
    key = next(iter(data["witnesses"]))
    data["witnesses"][key] = "w0^0 " + data["witnesses"][key]  # w0 seen first at power 0
    back = HomCertificate.from_json(data)
    assert check_hom(back) and check_epi(back)


def test_tampered_version_2_entries_are_rejected():
    cert = minimal_bs_epi(circle_graph([2, 3] * 4))
    data = cert.to_json()
    assert len(data["words"]) >= 5
    for i in range(len(data["words"])):
        bad = json.loads(json.dumps(data))
        bad["words"][i] = _bump_first_exponent(bad["words"][i])
        back = HomCertificate.from_json(bad)
        assert not (check_hom(back) and check_epi(back)), (i, data["words"][i])


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["words"].__setitem__(0, "w1 a(v0)"),  # forward reference
        lambda d: d["images"].__setitem__("t(e0)", f"w{len(d['words'])}"),  # out of range
        lambda d: d.__setitem__("words", "w0"),
        lambda d: d.__setitem__("words", [1, 2]),
        lambda d: d.__setitem__("version", 3),
        lambda d: d.__setitem__("version", True),
        lambda d: d.__setitem__("version", 1.0),
        lambda d: d.__setitem__("version", 2.0),
        lambda d: d.__setitem__("provenance", 5),
        lambda d: d.__setitem__("flags", "hom-only"),
        lambda d: d.__setitem__("flags", [5]),
    ],
    ids=["forward", "out-of-range", "not-a-list", "not-strings", "version", "version-a-bool", "version-a-float",
         "version-2-a-float", "provenance-a-number", "flags-a-string", "flags-not-strings"],
)
def test_malformed_version_2_is_an_input_error(edit):
    """The last six were read as version 1 or 2, a provenance of 5, or the
    flags ('h', 'o', 'm', ...)."""
    data = descending_chain(5).from_bs_18_36.to_json()
    assert data["version"] == 2
    edit(data)
    with pytest.raises(InputError):
        HomCertificate.from_json(data)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: {"kind": "hom"},
        lambda d: {**d, "images": []},
        lambda d: {**d, "images": 5},
        lambda d: {**d, "source": {**d["source"], "tree": 5}},
        lambda d: {**d, "witnesses": dict.fromkeys(d["witnesses"], 5)},
    ],
    ids=["kind-only", "images-a-list", "images-a-number", "tree-a-number", "witness-a-number"],
)
def test_from_json_refuses_shapes_with_an_input_error(edit):
    """Each of these raised a raw KeyError, AttributeError or TypeError to a
    library caller."""
    data = edit(descending_chain(5).from_bs_18_36.to_json())
    with pytest.raises(InputError, match="malformed hom certificate"):
        HomCertificate.from_json(data)


def test_reducer_caps_what_it_writes_out(monkeypatch):
    """Each entry doubles its predecessor once reduced: the total written
    out grows past the cap, which is checked before the next pass."""
    data = descending_chain(3).to_bs_9_18.to_json()
    data.update(version=2, words=["a(v0) t(e0)"] + [f"w{i} w{i}" for i in range(40)])
    data["images"]["a(v0)"] = "w40"
    cert = HomCertificate.from_json(data)
    monkeypatch.setattr(words, "WORD_CAP", 10_000)
    with pytest.raises(WordCapError):
        check_hom(cert)


def test_circle_composition_builds_no_duplicate_presentations(monkeypatch):
    # compose compares a graph with itself and builds no presentation
    # (earlier counts: 128, 572, then 84 with a rebased presentation per side)
    calls = count_calls(monkeypatch, [(Presentation, "__init__"), (LabelledGraph, "_key")])
    g = circle_graph([2, 3] * 4)
    counts = []
    for _ in range(2):  # no cross-call cache: the second call does the same work
        calls.clear()
        cert = minimal_bs_epi(g)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["__init__"] <= 56
    assert counts[0].get("_key", 0) <= 57
    assert check_epi(cert)


def test_compose_folds_a_chain_into_one_certificate(monkeypatch):
    """compose(c1, c2, ..., cn) is the nested pairs compose(compose(c1, c2),
    c3)..., built as one certificate, not one per intermediate result."""
    g = circle_graph([2, 3] * 3)
    shape = classify_shape(g)
    cur, certs = homs._circle_to_small(g, shape)
    cur, red = reduce_cert(cur)
    certs += [red, loop_relabel_cert(cur, shape.X, shape.Y)]
    nested = functools.reduce(compose, certs)
    calls = count_calls(monkeypatch, [(HomCertificate, "__init__")])
    folded = compose(*certs)
    assert len(certs) >= 4 and calls["__init__"] == 1
    assert folded.to_json() == nested.to_json()
    assert check_epi(folded)


def test_compose_builds_no_presentation(monkeypatch):
    """compose changes spanning trees by conjugating with a tree path: on the
    circle (2 3)^8 it builds none of the 172 rebased presentations it once
    built, and the whole certificate takes 240 presentations, not 412."""
    calls = count_calls(monkeypatch, [(Presentation, "__init__")])
    inside = Counter()

    def counted_compose(*certs, provenance="", _compose=homs.compose):
        before = calls["__init__"]
        out = _compose(*certs, provenance=provenance)
        inside.update(calls=1, presentations=calls["__init__"] - before)
        return out

    monkeypatch.setattr(homs, "compose", counted_compose)
    cert = minimal_bs_epi(circle_graph([2, 3] * 8))
    assert inside["calls"] > 0 and inside["presentations"] == 0
    assert calls["__init__"] <= 240
    assert check_epi(cert)


@given(graphs(max_vertices=5, max_extra=3), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=150, deadline=None)
def test_generator_map_matches_the_helper_presentations(g, seed):
    rng = random.Random(seed)
    p, q = random_presentation(g, rng), random_presentation(g, rng)
    for pres_from, pres_to in ((p, q), (q, p)):
        through = homs._generator_map(pres_from, pres_to, homs._identity_images(pres_to))
        for gen in pres_from.generators():
            assert through[gen] == convert_letters_reference((gen + (1,),), pres_from, pres_to)


def _move_cert_reference(src, tgt, at) -> dict:
    """The images of _move_cert as every generator was once built: its path
    over tgt, Britton-reduced, read back as letters."""
    images = {}
    for kind, name in src.generators():
        k, u = at.get(name, (1, name)) if kind == "v" else (1, name)
        syls = reduce_syllables(tgt.graph.edges, tgt.letters_to_path(((kind, u, k),)).syllables, tgt.base)
        images[(kind, name)] = tgt.path_to_letters(syls)
    return images


def _random_moves(g, rng):
    """(src, tgt, at) for each collapse, contraction and expansion of g that
    the move certificates make, src on a random tree and base."""
    for e in g.sorted_edges():
        if g.is_loop(e):
            continue
        v, w = g.edges[e].endpoints
        for end in (0, 1):
            moves = [move(g, "contraction", e, g.edges[e].endpoints[end])]
            if abs(g.edges[e].labels[1 - end]) == 1:
                moves.append(move(g, "collapse", e, 1 - end))
            for g2, rec in moves:
                if rec.kind == "collapse":
                    removed, survivor, mult = rec.params[2:]
                    at = {removed: (mult, survivor)}
                else:
                    _, survivor, removed, q, r, d = rec.params
                    at = {v: (r // d, survivor), w: (q // d, survivor)}
                src = random_presentation(g, rng, keep=[e])
                yield src, Presentation(g2, src.tree - {e}, survivor if src.base == removed else src.base), at
    for vertex in g.sorted_vertices():
        label = rng.choice((1, 2, 3))
        ends = [(oe.edge, oe.end) for oe in g.edges_at(vertex) if g.label(oe) % label == 0]
        moved = tuple(ends[rng.randrange(2) :: 2])
        g2, rec = move(g, "expansion", vertex, moved, label, rng.choice((1, -1)), g.fresh_vertex(), g.fresh_edge())
        src = random_presentation(g, rng)
        yield src, Presentation(g2, src.tree | {rec.params[5]}, src.base), {}


@given(graphs(max_vertices=5, max_extra=3), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=150, deadline=None)
def test_move_cert_matches_the_reduce_every_generator_loop(g, seed):
    """_move_cert reduces only what can pinch; its images are those of the
    loop that reduces every generator: on the collapses, contractions and
    expansions of random trees and bases, and on multipliers (products of
    labels) that pinch up a random tree."""
    rng = random.Random(seed)
    for src, tgt, at in _random_moves(g, rng):
        assert homs._move_cert(src, tgt, at, "", None).images == _move_cert_reference(src, tgt, at)
    pres = random_presentation(g, rng)
    labels = g.labels()
    at = {}
    for v in g.sorted_vertices():
        k = rng.choice((1, -1, 2))
        for label in rng.sample(labels, rng.randint(0, min(3, len(labels)))):
            k *= label
        at[v] = (k, rng.choice(g.sorted_vertices()))
    assert homs._move_cert(pres, pres, at, "", None).images == _move_cert_reference(pres, pres, at)
