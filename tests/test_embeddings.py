import dataclasses
import hashlib
import json
import random
import re
import time
from collections import Counter
from math import lcm

import pytest
from hypothesis import given, settings

from conftest import count_calls, graphs, grid_certificates

from gbs import embeddings
from gbs.arith import gcd, split_power
from gbs.bs_arith import embeds_bs
from gbs.decision import Decision
from gbs.errors import CertificateError, DecisionError, InputError, NotReducedError, ShapeError
from gbs.graphs import (
    EdgeData,
    LabelledGraph,
    bs_graph,
    canonicalize_signs,
    circle_graph,
    graph_from_edges,
    parse_graph,
    reduce_graph,
    segment_graph,
)
from gbs.embeddings import (
    EmbeddingCertificate,
    WeaklyAdmissibleMap,
    check_admissible,
    check_weakly_admissible,
    circle_bs_subgroup,
    contains_bs,
    contains_z2_k,
    embed_bs_construct,
    embeds_in_some_bs_nn,
    subgroup_of_bs_nn,
    verify_embedding_certificate,
)


def identity_map(g):
    return WeaklyAdmissibleMap(
        g,
        g,
        {v: v for v in g.vertices},
        {(e, k): (e, k) for e in g.edges for k in (0, 1)},
        {v: 1 for v in g.vertices},
        {e: 1 for e in g.edges},
    )


def test_identity_weakly_admissible():
    g = circle_graph([2, 3, 5, 7])
    ok, violations = check_weakly_admissible(identity_map(g))
    assert ok and not violations
    assert check_admissible(identity_map(g))


def test_checker_reports_violations():
    g = bs_graph(2, 3)
    wa = identity_map(g)
    wa.vertex_mult["v0"] = 0
    ok, violations = check_weakly_admissible(wa)
    assert not ok and any("positive" in v for v in violations)


def test_trg_construction():
    g = circle_graph([2, 5, 3, 7])  # X = 6, Y = 35
    cert = circle_bs_subgroup(g, 6, 35)
    ok, violations = verify_embedding_certificate(cert)
    assert ok, violations
    assert not check_admissible(cert.map)
    assert len(cert.map.source.edges) == 3 * 2


def test_trg_single_loop():
    cert = circle_bs_subgroup(bs_graph(2, 3), 2, 3)
    ok, _ = verify_embedding_certificate(cert)
    assert ok


def test_trg_longer_circle():
    from gbs.graphs import classify_shape

    g = circle_graph([2, 3, 5, 7, 4, 11])  # products 40 and 231: coprime
    shape = classify_shape(g)  # base and direction follow the convention
    cert = circle_bs_subgroup(g, shape.X, shape.Y)
    ok, violations = verify_embedding_certificate(cert)
    assert ok, violations


def test_trg_preconditions():
    with pytest.raises(DecisionError):
        circle_bs_subgroup(circle_graph([2, 2, 3, 5]), 6, 10)  # gcd != 1
    with pytest.raises(DecisionError):
        circle_bs_subgroup(circle_graph([2, 3, 5, 7]), 2, 3)  # wrong X, Y
    with pytest.raises(ShapeError):
        circle_bs_subgroup(segment_graph([2, 3]), 2, 3)


def _mutations(cert, rng, count):
    """Single-field mutations of a weakly admissible map."""
    out = []
    wa = cert.map
    for _ in range(count):
        kind = rng.choice(["vmult", "emult", "label", "flip"])
        vm = dict(wa.vertex_mult)
        em = dict(wa.edge_mult)
        emap = dict(wa.edge_map)
        source = wa.source
        if kind == "vmult":
            v = rng.choice(sorted(vm))
            vm[v] += rng.randint(1, 3)
        elif kind == "emult":
            e = rng.choice(sorted(em))
            em[e] += rng.randint(1, 3)
        elif kind == "label":
            from gbs.graphs import EdgeData, LabelledGraph

            e = rng.choice(source.sorted_edges())
            k = rng.randint(0, 1)
            ed = source.edges[e]
            labels = list(ed.labels)
            labels[k] += 1 if labels[k] != -1 else 2
            edges = dict(source.edges)
            edges[e] = EdgeData(ed.endpoints, tuple(labels))
            source = LabelledGraph(source.vertices, edges)
        else:
            e = rng.choice(sorted(wa.source.edges))
            emap[(e, 0)], emap[(e, 1)] = emap[(e, 1)], emap[(e, 0)]
        out.append(
            WeaklyAdmissibleMap(source, wa.target, dict(wa.vertex_map), emap, vm, em)
        )
    return out


def test_mutations_always_caught():
    rng = random.Random(42)
    three_block = circle_bs_subgroup(circle_graph([2, 5, 3, 7]), 6, 35)
    power = embed_bs_construct(4, 8, 2, 4)
    for cert in (three_block, power):
        for mutant in _mutations(cert, rng, 100):
            ok, violations = check_weakly_admissible(mutant)
            assert not ok and violations


def _check_weakly_admissible_reference(wa):
    """The double-loop checker: for each oriented target edge and each
    source vertex over its origin, scan the vertex's edges for preimages."""
    violations = []
    src, tgt = wa.source, wa.target
    for v in src.sorted_vertices():
        if wa.vertex_map.get(v) not in tgt.vertices:
            violations.append(f"vertex {v}: image missing or unknown")
        if wa.vertex_mult.get(v, 0) <= 0:
            violations.append(f"vertex {v}: multiplicity must be positive")
    for e in src.sorted_edges():
        if wa.edge_mult.get(e, 0) <= 0:
            violations.append(f"edge {e}: multiplicity must be positive")
        for k in (0, 1):
            img = wa.edge_map.get((e, k))
            if img is None or img[0] not in tgt.edges or img[1] not in (0, 1):
                violations.append(f"edge {e}:{k}: image missing or unknown")
                continue
            rev = wa.edge_map.get((e, 1 - k))
            if rev != (img[0], 1 - img[1]):
                violations.append(f"edge {e}: images not reverse-compatible")
            o = src.edges[e].endpoints[k]
            if wa.vertex_map.get(o) != tgt.edges[img[0]].endpoints[img[1]]:
                violations.append(f"edge {e}:{k}: origins do not commute with the map")
    if violations:
        return False, violations
    for x, te, tend, lab, k_x, pre in _preimages_reference(wa):
        if len(pre) > k_x:
            violations.append(f"vertex {x} over {te}:{tend}: {len(pre)} preimage edges > gcd {k_x}")
        for oe in pre:
            if src.label(oe) != lab // k_x:
                violations.append(f"edge {oe.edge}:{oe.end}: label {src.label(oe)} != {lab}//{k_x}")
            if wa.edge_mult[oe.edge] != wa.vertex_mult[x] // k_x:
                violations.append(f"edge {oe.edge}: multiplicity {wa.edge_mult[oe.edge]} != {wa.vertex_mult[x]}//{k_x}")
    return not violations, violations


def _preimages_reference(wa):
    src, tgt = wa.source, wa.target
    for te in tgt.sorted_edges():
        for tend in (0, 1):
            lab = tgt.edges[te].labels[tend]
            torigin = tgt.edges[te].endpoints[tend]
            for x in src.sorted_vertices():
                if wa.vertex_map[x] != torigin:
                    continue
                pre = [oe for oe in src.edges_at(x) if wa.edge_map[(oe.edge, oe.end)] == (te, tend)]
                yield x, te, tend, lab, gcd(wa.vertex_mult[x], lab), pre


def _check_admissible_reference(wa):
    ok, _ = _check_weakly_admissible_reference(wa)
    return ok and all(len(pre) == k_x for _, _, _, _, k_x, pre in _preimages_reference(wa))


@pytest.fixture(scope="module")
def grid5_maps():
    """The weakly admissible maps of the 732 certificates of the 5-box grid."""
    return [cert.map for _, cert in grid_certificates(5)]


def test_checker_matches_double_loop_reference(grid5_maps):
    """The one-pass checker reports what the double loop reports, in the same
    order, and agrees on the covering test: on every certificate of the
    5-box grid, on the criterion-11 mutations, and on identity maps."""
    rng = random.Random(1234)
    maps = list(grid5_maps)
    for cert in (circle_bs_subgroup(circle_graph([2, 5, 3, 7]), 6, 35), embed_bs_construct(4, 8, 2, 4)):
        maps.extend(_mutations(cert, rng, 100))
    maps.extend(identity_map(g) for g in (bs_graph(2, 3), circle_graph([2, 3, 5, 7]), segment_graph([2, 3, 4, 5])))
    admissible = 0
    for wa in maps:
        assert check_weakly_admissible(wa) == _check_weakly_admissible_reference(wa)
        assert check_admissible(wa) == _check_admissible_reference(wa)
        admissible += check_admissible(wa)
    assert len(maps) == 732 + 200 + 3 and admissible >= 3


def _edited(wa, rng, edits):
    """wa after `edits` random edits, each to an image, a multiplicity or a
    source label (an edit may leave the map weakly admissible)."""
    source, tgt = wa.source, wa.target
    vmap, vm, em, emap = dict(wa.vertex_map), dict(wa.vertex_mult), dict(wa.edge_mult), dict(wa.edge_map)
    for _ in range(edits):
        v, e, k = rng.choice(source.sorted_vertices()), rng.choice(source.sorted_edges()), rng.randint(0, 1)
        kind = rng.randrange(7)
        if kind == 0:  # a vertex image: gone, unknown or another target vertex
            vmap[v] = rng.choice(["nowhere", *tgt.sorted_vertices()])
        elif kind == 1:
            vm[v] = rng.choice([0, -1, 1, 2, vm.get(v, 1) + 1, 2 * vm.get(v, 1)])
        elif kind == 2:
            em[e] = rng.choice([0, -1, 1, 2, em.get(e, 1) + 1, 2 * em.get(e, 1)])
        elif kind == 3:  # an edge end's image: unknown, a bad end or another target edge end
            emap[(e, k)] = rng.choice([("nowhere", 0), (emap.get((e, k), ("e0",))[0], 2),
                                       (rng.choice(tgt.sorted_edges()), rng.randint(0, 1))])
        elif kind == 4:
            emap[(e, 0)], emap[(e, 1)] = emap.get((e, 1)), emap.get((e, 0))
        elif kind == 5:  # a whole entry dropped
            table, key = rng.choice([(vmap, v), (vm, v), (em, e), (emap, (e, k))])
            table.pop(key, None)
        else:
            labels = list(source.edges[e].labels)
            labels[k] *= rng.choice([-1, 2, 3])
            source = LabelledGraph(source.vertices, {**source.edges, e: EdgeData(source.edges[e].endpoints, tuple(labels))})
    emap = {key: img for key, img in emap.items() if img is not None}
    return WeaklyAdmissibleMap(source, tgt, vmap, emap, vm, em)


VIOLATION_KINDS = {
    "vertex image": r"vertex \S+: image missing or unknown",
    "vertex multiplicity": r"vertex \S+: multiplicity must be positive",
    "edge multiplicity": r"edge \S+: multiplicity must be positive",
    "edge image": r"edge \S+:[01]: image missing or unknown",
    "reverse": r"edge \S+: images not reverse-compatible",
    "origin": r"edge \S+:[01]: origins do not commute with the map",
    "count": r"vertex \S+ over \S+:[01]: \d+ preimage edges > gcd \d+",
    "label": r"edge \S+:[01]: label -?\d+ != -?\d+//\d+",
    "multiplicity": r"edge \S+: multiplicity -?\d+ != \d+//\d+",
}


def test_checker_order_matches_reference_on_multi_fault_maps(grid5_maps):
    """Seeded fuzz: 2,000 faulty maps, each a 5-box grid map with 1-3 random
    edits.  The unsorted checker reports the reference's violation list, in
    its order, and the same covering answer; every violation message occurs,
    and most faulty maps have several violations to order."""
    rng = random.Random(22)
    kinds, faulty, several = Counter(), 0, 0
    while faulty < 2000:
        wa = _edited(rng.choice(grid5_maps), rng, rng.randint(1, 3))
        ok, violations = check_weakly_admissible(wa)
        assert (ok, violations) == _check_weakly_admissible_reference(wa)
        assert check_admissible(wa) == _check_admissible_reference(wa)
        faulty += not ok
        several += len(violations) > 1
        for msg in violations:
            kinds[next(kind for kind, pattern in VIOLATION_KINDS.items() if re.fullmatch(pattern, msg))] += 1
    assert set(kinds) == set(VIOLATION_KINDS) and several >= 1000, (kinds, several)


def test_checker_sorts_nothing_on_valid_maps(grid5_maps, monkeypatch):
    calls = count_calls(monkeypatch, [(LabelledGraph, "sorted_vertices"), (LabelledGraph, "sorted_edges")])
    assert all(check_weakly_admissible(wa) == (True, []) for wa in grid5_maps)
    assert calls == {}


def test_checker_is_linear_in_the_map():
    """The identity map on a circle of 4,000 edges checks in well under a
    second (the double loop took seconds)."""
    wa = identity_map(circle_graph([2, 3] * 2000))
    start = time.perf_counter()
    assert check_weakly_admissible(wa) == (True, [])
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert check_admissible(wa)
    assert time.perf_counter() - start < 1.0


# SHA-256 over the JSON of every embed_bs_construct certificate of the
# 12-box grid, one line each, in grid order
GRID12_CERTS, GRID12_DIGEST = 9668, "e7367aa6fc50cf0b5e26eba25caa88a4d6b4cdd016b1ba4d9adbd3a0b1a57fd3"


def test_block_circle_skips_only_attempts_the_checker_rejects(grid12):
    """With beta = 0 and exactly one of x, y zero, the (0, 0) block circle
    has a multiplicity-1 vertex with two edge ends over one target end, so
    it is never weakly admissible; skipping it changes no certificate.
    Each certificate's map is checked once, when it is finished."""
    digest, count = hashlib.sha256(), 0
    for _, cert in grid12.certs:
        digest.update(json.dumps(cert.to_json()).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (GRID12_CERTS, GRID12_DIGEST)
    assert grid12.checks == GRID12_CERTS
    skipped = set()
    for rhat, shat, beta, m, n in grid12.block_circle:
        x0, y0 = split_power(shat, m)[0], split_power(rhat, n)[0]
        if beta == 0 and (x0 == 0) != (y0 == 0):
            skipped.add((x0, y0, m, n))
    assert len(skipped) == 856
    for x0, y0, m, n in skipped:
        pattern = embeddings._block_circle_map(x0, y0, 0, m, n)
        ok, violations = check_weakly_admissible(embeddings._derive_map(pattern))
        assert not ok and any("preimage edges > gcd 1" in v for v in violations), (x0, y0, m, n)


def test_admissible_implies_weak(rng):
    g = bs_graph(2, 3)
    wa = identity_map(g)
    assert check_admissible(wa)
    ok, _ = check_weakly_admissible(wa)
    assert ok


def test_contains_bs():
    assert contains_bs(bs_graph(2, 4), 1, 2)
    assert contains_bs(bs_graph(2, 3), 4, 9)
    assert not contains_bs(bs_graph(3, 3), 2, 3)
    assert contains_bs(circle_graph([2, 3, 5, 7]), 10, 21)
    with pytest.raises(DecisionError):
        contains_bs(bs_graph(2, 3), 2, 2)
    with pytest.raises(DecisionError):
        contains_bs(bs_graph(2, 3), 4, 6)
    with pytest.raises(DecisionError, match="modulus criterion needs a non-elementary group"):
        contains_bs(bs_graph(1, 1), 2, 3)


def test_embed_construct_examples():
    for r, s, m, n in ((4, 9, 2, 3), (4, 8, 2, 4), (2, 2, 2, 2), (8, 27, 6, 9), (3, 9, 2, 6)):
        cert = embed_bs_construct(r, s, m, n)
        ok, violations = verify_embedding_certificate(cert)
        assert ok, (r, s, m, n, violations)
    with pytest.raises(DecisionError):
        embed_bs_construct(12, 20, 6, 10)


def test_embedding_cert_json_round_trip():
    cert = embed_bs_construct(3, 9, 2, 6)  # pendant + index record route
    data = json.loads(json.dumps(cert.to_json()))
    back = EmbeddingCertificate.from_json(data)
    ok, violations = verify_embedding_certificate(back)
    assert ok, violations
    assert back.aug_records == cert.aug_records


def test_tampered_certificate_fails():
    cert = embed_bs_construct(4, 9, 2, 3)
    data = cert.to_json()
    key = sorted(data["map"]["vertex_mult"])[1]
    data["map"]["vertex_mult"][key] += 1
    bad = EmbeddingCertificate.from_json(data)
    ok, violations = verify_embedding_certificate(bad)
    assert not ok and violations
    data2 = cert.to_json()
    data2["map_claimed"] = [5, 7]
    bad2 = EmbeddingCertificate.from_json(data2)
    ok2, violations2 = verify_embedding_certificate(bad2)
    assert not ok2


def _renamed_edge_key(new):
    def edit(data):
        edge_map = data["map"]["edge_map"]
        edge_map[new] = edge_map.pop("d0:0")

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _renamed_edge_key("d0"),
        _renamed_edge_key("d0:x"),
        _renamed_edge_key("d0:+0"),
        _renamed_edge_key("d0: 0"),
        _renamed_edge_key("d0:0_0"),
        _renamed_edge_key("d0:\u0660"),
        _renamed_edge_key("d0:2"),
        lambda d: d["map"]["edge_map"].__setitem__("d0:+0", ["e0", 1]),  # read as d0:0, it replaced the JSON's "d0:0"
        lambda d: d["map"]["edge_map"].__setitem__("d0:0", ["e0"]),
        lambda d: d["map"]["edge_map"].__setitem__("d0:0", 5),
        lambda d: d["map"].__setitem__("edge_map", []),
        lambda d: d["map"].__setitem__("vertex_map", [1]),
        lambda d: d.pop("map"),
        lambda d: d.__setitem__("source_reduce", [5]),
        lambda d: d.__setitem__("aug_records", 5),
    ],
    ids=["key-no-colon", "key-end-not-int", "key-end-plus", "key-end-space", "key-end-underscore",
         "key-end-arabic-indic-digit", "key-end-2", "second-spelling", "image-no-end", "image-a-number", "edge-map-a-list",
         "vertex-map-a-list", "no-map", "record-a-number", "records-a-number"],
)
def test_from_json_refuses_shapes_with_an_input_error(edit):
    """Each of these raised a raw ValueError, TypeError, AttributeError or
    KeyError to a library caller, or, an edge end spelt other than "0" or
    "1", was read (int() took "+0", " 0", "0_0" and "\u0660" as 0) or kept
    as a key the checker never reads ("2")."""
    data = embed_bs_construct(4, 9, 2, 3).to_json()
    edit(data)
    with pytest.raises(InputError, match="malformed embedding certificate"):
        EmbeddingCertificate.from_json(data)


def test_the_builder_checks_its_claim_with_the_verifiers_text():
    """A pattern with a wrong ("scale", nu) record: _finish_cert raises with
    the message verify_embedding_certificate gives for the same certificate."""
    pattern = embeddings._construct_core(4, 9, 2, 2, 3)
    pattern.aug += (("scale", 5),)
    with pytest.raises(CertificateError, match=r"index records scale \(4, 9\) to \(20, 45\), not \(4, 9\)"):
        embeddings._finish_cert(pattern, (4, 9))
    cert = embed_bs_construct(4, 9, 2, 3)
    cert.aug_records += (("scale", 5),)
    assert verify_embedding_certificate(cert) == (False, ["index records scale (4, 9) to (20, 45), not (4, 9)"])


@pytest.mark.parametrize("mult", ["vertex_mult", "edge_mult"])
def test_a_multiplicity_past_the_int_to_str_limit_verifies_invalid(mult):
    """A library caller's map may carry any integer; the violation message
    shows it by its bit length, where it raised a raw ValueError."""
    cert = embed_bs_construct(4, 9, 2, 3)
    mults = getattr(cert.map, mult)
    mults[min(mults)] = 10**5000
    ok, violations = verify_embedding_certificate(cert)
    assert not ok
    assert any("multiplicity" in v and "<16610-bit integer>" in v for v in violations), violations


@pytest.mark.parametrize(
    "record, shown",
    [
        (("x", 10**5000), "('x', <16610-bit integer>)"),
        (("scale",), "('scale')"),
        (("scale", "x"), "('scale', 'x')"),
        (("scale", 2.5), "('scale', 2.5)"),
    ],
)
def test_a_malformed_index_record_verifies_invalid(record, shown):
    """A library caller's record may hold anything; each of these raised a
    raw ValueError, IndexError or TypeError, or scaled by a float."""
    cert = dataclasses.replace(embed_bs_construct(4, 9, 2, 3), aug_records=(record,))
    ok, violations = verify_embedding_certificate(cert)
    assert not ok
    assert f"bad index record {shown}" in violations, violations


def test_from_json_refuses_a_provenance_that_is_no_string():
    """It was kept, and the certificate then verified valid."""
    data = embed_bs_construct(4, 9, 2, 3).to_json()
    data["provenance"] = 5
    with pytest.raises(InputError, match="provenance"):
        EmbeddingCertificate.from_json(data)


def test_map_from_json_refuses_a_list_of_edge_images():
    """It raised a raw AttributeError to a library caller."""
    with pytest.raises(InputError, match="malformed embedding certificate"):
        WeaklyAdmissibleMap.from_json({"edge_map": []})


def test_subgroup_of_bs_nn():
    four_n = graph_from_edges([("e0", "v", "v", 6, 6), ("e1", "v", "v", 6, 6)])
    assert subgroup_of_bs_nn(four_n, 6)
    assert subgroup_of_bs_nn(four_n, 12)
    assert not subgroup_of_bs_nn(four_n, 4)
    assert not subgroup_of_bs_nn(bs_graph(2, 3), 6)
    assert subgroup_of_bs_nn(segment_graph([2, 2]), 6)
    assert subgroup_of_bs_nn(bs_graph(3, -3), 6, up_to_sign=True)
    assert not subgroup_of_bs_nn(bs_graph(3, -3), 6)
    with pytest.raises(DecisionError):
        subgroup_of_bs_nn(four_n, 1)
    with pytest.raises(NotReducedError):
        subgroup_of_bs_nn(segment_graph([1, 2]), 6)


def test_subgroup_of_bs_nn_divisibility_monotone(rng):
    graphs_pool = [
        graph_from_edges([("e0", "v", "v", 3, 3), ("e1", "v", "v", 3, 3)]),
        segment_graph([2, 2]),
        graph_from_edges([("e0", "u", "w", 2, 2), ("e1", "w", "x", 2, 2)]),
    ]
    for g in graphs_pool:
        for n in range(2, 13):
            if subgroup_of_bs_nn(g, n):
                for k in range(2, 5):
                    assert subgroup_of_bs_nn(g, k * n)


def test_embeds_in_some_bs_nn():
    four_n = graph_from_edges([("e0", "v", "v", 6, 6), ("e1", "v", "v", 6, 6)])
    assert embeds_in_some_bs_nn(four_n) == 6
    # one edge, labels 2 and 3: per-vertex equality holds, lcm is 6
    assert embeds_in_some_bs_nn(segment_graph([2, 3])) == 6
    assert embeds_in_some_bs_nn(bs_graph(2, 3)) is None
    assert embeds_in_some_bs_nn(bs_graph(1, 1)) == 2


def _vertex_labels_reference(g, up_to_sign=False):
    """The near labels read vertex by vertex through `edges_at` on the
    sign-normalized graph, as `_vertex_labels` read them before it read the
    edge rows."""
    if not g.is_reduced():
        raise NotReducedError("graph is not reduced")
    norm, _ = canonicalize_signs(g)
    out = []
    for v in norm.sorted_vertices():
        labels = {norm.label(oe) for oe in norm.edges_at(v)}
        if up_to_sign:
            labels = {abs(l) for l in labels}
        if len(labels) > 1:
            return None
        out.extend(labels)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same error type and text count as the same answer
        return type(exc), str(exc)


def _near_label_graph(rng):
    """A small connected graph, loops included, whose near labels agree at
    each vertex up to sign (one label in five redrawn), or a lone vertex."""
    n = rng.randint(1, 5)
    if n == 1 and rng.random() < 0.2:
        return parse_graph("vertex v")
    own = [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(n)]

    def near(v):
        label = own[v] if rng.random() < 0.8 else rng.choice((1, 2, 3, 4, 5, 6))
        return label if rng.random() < 0.6 else -label

    rows = [(f"e{i}", f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
    rows += [(f"x{j}", f"v{a}", f"v{a if rng.random() < 0.5 else rng.randrange(n)}")
             for j, a in enumerate(rng.randrange(n) for _ in range(rng.randint(0, 3)))]
    return graph_from_edges([(e, a, b, near(int(a[1:])), near(int(b[1:]))) for e, a, b in rows], [f"v{i}" for i in range(n)])


def test_bs_nn_deciders_match_the_edges_at_reading():
    rng, seen = random.Random(35), Counter()
    for _ in range(1500):
        g = _near_label_graph(rng)
        for up_to_sign in (False, True):
            labels = _outcome(_vertex_labels_reference, g, up_to_sign)
            for n in (2, 3, 4, 6, 12, 36):
                want = labels if type(labels) is tuple else labels is not None and all(n % l == 0 for l in labels)
                assert _outcome(subgroup_of_bs_nn, g, n, up_to_sign) == want, (g, n, up_to_sign)
        labels = _outcome(_vertex_labels_reference, g)
        want = labels if type(labels) is tuple or labels is None else max(lcm(*labels), 2)
        assert _outcome(embeds_in_some_bs_nn, g) == want, g
        seen["lone" if not g.edges else "loop" if any(map(g.is_loop, g.edges)) else "no loop"] += 1
        seen["negative" if any(l < 0 for l in g.labels()) else "positive"] += 1
        seen["none" if labels is None else "error" if type(labels) is tuple else "labels"] += 1
    assert min(seen.values()) > 30, seen


@pytest.mark.parametrize("up_to_sign", [False, True])
@pytest.mark.parametrize("n", [2, 6])
def test_one_vertex_graph_lies_in_every_bs_nn(n, up_to_sign):
    # Z: a vertex with no edges imposes no condition
    assert subgroup_of_bs_nn(parse_graph("vertex v"), n, up_to_sign=up_to_sign)
    assert embeds_in_some_bs_nn(parse_graph("vertex v")) == 2


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_smallest_bs_nn_is_a_bs_nn_containing_g(g):
    red, _ = reduce_graph(g)
    n = embeds_in_some_bs_nn(red)
    if n is not None:
        assert subgroup_of_bs_nn(red, n)


def test_contains_z2_k():
    z2, k = contains_z2_k(bs_graph(1, 5))
    assert not z2 and not k
    z2, k = contains_z2_k(bs_graph(4, -4))
    assert z2 and k
    z2, k = contains_z2_k(segment_graph([2, 3]))
    assert z2 and k
    z2, k = contains_z2_k(segment_graph([3, 5]))
    assert z2 and not k and k.caveat
    z2, k = contains_z2_k(bs_graph(1, -1))
    assert z2 and k
    z2, k = contains_z2_k(bs_graph(1, 1))
    assert z2 and not k
    z2, k = contains_z2_k(graph_from_edges([], extra_vertices=["v"]))
    assert not z2 and k == Decision(False, "infinite cyclic")


def test_embeds_decider_agrees_with_modulus_decider():
    """For coprime r, s with r != +-s, the three-condition test and the
    lattice-membership test are independent implementations of the same
    subgroup question on loops."""
    from fractions import Fraction

    from gbs.arith import gcd as _gcd
    from gbs.bs_arith import embeds_bs
    from gbs.words import modular_image

    grid = [i for i in range(-7, 8) if i != 0]
    checked = 0
    for m in grid:
        for n in grid:
            if abs(m) == 1 and abs(n) == 1:
                continue
            image = modular_image(bs_graph(m, n))
            for r in grid:
                for s in grid:
                    if _gcd(r, s) != 1 or abs(r) == abs(s):
                        continue
                    a = bool(embeds_bs(r, s, m, n))
                    b = image.contains(Fraction(r, s))
                    assert a == b, (r, s, m, n)
                    checked += 1
    assert checked > 10000


def test_circle_subgroup_matches_modulus_reasoning():
    # a circle with X = m, Y = n coprime contains BS(m, n)
    g = circle_graph([2, 3, 5, 7])
    cert = circle_bs_subgroup(g, 10, 21)
    ok, _ = verify_embedding_certificate(cert)
    assert ok
    assert contains_bs(g, 10, 21)
