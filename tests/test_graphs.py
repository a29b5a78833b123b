import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls, graphs

from gbs.errors import DisconnectedGraphError, InputError, MoveError, ShapeError
from gbs.graphs import (
    EdgeData,
    LabelledGraph,
    MoveRecord,
    OrientedEdge,
    apply_move,
    bs_graph,
    canonicalize_signs,
    circle_graph,
    classify_shape,
    collapse,
    contraction_move,
    displacement_move,
    expansion,
    graph_from_edges,
    lollipop_graph,
    parse_graph,
    qrxy,
    reduce_graph,
    segment_graph,
    sign_change,
    spanning_tree,
)
from gbs.plateaus import is_two_generated


def test_parse_and_serialize_round_trip():
    text = """
    # a lollipop
    vertex a
    vertex b
    edge s a b 6 2
    edge loop b b 3 6
    """
    g = parse_graph(text)
    assert g == parse_graph(g.to_text())
    assert g == LabelledGraph.from_json(g.to_json())


def test_parse_shorthand():
    assert parse_graph("circle 2 3") == graph_from_edges([("c0", "w0", "w0", 2, 3)])
    assert classify_shape(parse_graph("circle 2 3")).kind == "circle"
    assert classify_shape(parse_graph("segment 2 3 5 7")).kind == "segment"
    assert classify_shape(parse_graph("lollipop 1 6 2 | 3 6")).kind == "lollipop"
    assert parse_graph("bs 2 3") == bs_graph(2, 3)
    with pytest.raises(InputError):
        parse_graph("edge e v w 1 0")
    with pytest.raises(InputError):
        parse_graph("lollipop 2 6 2 | 3 6")  # wrong segment label count


def test_betti():
    assert bs_graph(2, 3).betti() == 1
    assert segment_graph([2, 3, 5, 7]).betti() == 0
    assert lollipop_graph([6, 2], [3, 6]).betti() == 1


def test_is_reduced():
    assert bs_graph(1, 2).is_reduced()
    assert not segment_graph([1, 5]).is_reduced()
    assert segment_graph([2, 3]).is_reduced()


def test_collapse_rescales_far_labels():
    # segment labels (lambda, 1) with outer labels at the unit side vertex
    g = graph_from_edges(
        [
            ("mid", "v", "w", 5, 1),
            ("g1", "w", "a", 3, 11),
            ("g2", "w", "b", 7, 13),
        ]
    )
    out, rec = collapse(g, "mid")
    assert out.vertices == frozenset({"v", "a", "b"})
    assert out.edges["g1"].labels == (15, 11)
    assert out.edges["g2"].labels == (35, 13)
    assert apply_move(g, rec) == out


def test_collapse_unit_pair():
    g = segment_graph([1, 1])
    out, _ = collapse(g, "s0")
    assert not out.edges and len(out.vertices) == 1


def test_collapse_errors():
    with pytest.raises(MoveError):
        collapse(bs_graph(1, 2), "e0")  # loop
    with pytest.raises(MoveError):
        collapse(segment_graph([2, 3]), "s0")  # no unit label


def test_reduce_deterministic_and_idempotent():
    g = circle_graph([2, 1, 3, 1, 5, 7])
    red, recs = reduce_graph(g)
    assert red.is_reduced()
    red2, recs2 = reduce_graph(red)
    assert red2 == red and not recs2
    cur = g
    for rec in recs:
        cur = apply_move(cur, rec)
    assert cur == red


def _reduce_graph_reference(g, protect=None):
    """The rescanning reduction: after every collapse, check connectivity
    and restart the scan from the lowest edge id."""
    records = []
    while True:
        g.require_connected()
        done = True
        for name in g.sorted_edges():
            if g.is_loop(name):
                continue
            ed = g.edges[name]
            for end in (0, 1):
                if abs(ed.labels[end]) == 1 and ed.endpoints[end] != protect:
                    g, rec = collapse(g, name, end)
                    records.append(rec)
                    done = False
                    break
            if not done:
                break
        if done:
            return g, records


def _assert_reduces_like_reference(g, protect):
    red, recs = reduce_graph(g, protect)
    ref, ref_recs = _reduce_graph_reference(g, protect)
    assert red == ref and list(red.edges) == list(ref.edges)
    assert [r.to_json() for r in recs] == [r.to_json() for r in ref_recs]


def _unit_segment_labels(rng, units):
    """Segment labels with `units` unit edges, each unit at either end and
    of either sign, shuffled among a few reduced edges."""
    labels = []
    kinds = ["unit"] * units + ["rest"] * max(2, units // 8)
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "unit":
            pair = [rng.choice((1, -1)), rng.choice((1, -1, 2, -2, 3))]
            rng.shuffle(pair)
        else:
            pair = [rng.choice((2, 3, 5, -2)), rng.choice((2, 3, 5, -3))]
        labels += pair
    return labels


@given(graphs(max_vertices=6, max_extra=3, max_label=3), st.data())
@settings(max_examples=150, deadline=None)
def test_reduce_graph_matches_rescanning_reference(g, data):
    protect = data.draw(st.sampled_from([None] + g.sorted_vertices()))
    _assert_reduces_like_reference(g, protect)


@pytest.mark.parametrize("seed", range(6))
def test_long_segment_reduction_matches_rescanning_reference(seed):
    rng = random.Random(seed)
    g = segment_graph(_unit_segment_labels(rng, rng.randint(50, 200)))
    for protect in (None, rng.choice(g.sorted_vertices()), "v0"):
        _assert_reduces_like_reference(g, protect)


def test_multi_move_routines_build_no_graph_per_move(monkeypatch):
    mod = sys.modules["gbs.graphs"]
    calls = count_calls(
        monkeypatch, [(mod, "collapse"), (mod, "sign_change"), (LabelledGraph, "is_connected")]
    )
    red, recs = reduce_graph(segment_graph([1, 2] * 200))
    assert len(recs) == 200 and not red.edges
    assert calls == {"is_connected": 1}
    calls.clear()
    out, recs = canonicalize_signs(circle_graph([-2, 3, 5, -7] * 25))
    assert recs and sum(l < 0 for l in out.labels()) <= 1  # beta = 1
    assert calls == {}


def test_sign_change_involution():
    g = bs_graph(2, 3)
    g1, _ = sign_change(g, edge="e0")
    assert g1.edges["e0"].labels == (-2, -3)
    g2, _ = sign_change(g1, edge="e0")
    assert g2 == g
    s = segment_graph([2, 3])
    s1, _ = sign_change(s, vertex="v0")
    assert s1.edges["s0"].labels == (-2, 3)


def test_contraction_rescales_both_sides():
    # alpha, beta at v and gamma, delta at w, edge (q, r) = (6, 10)
    g = graph_from_edges(
        [
            ("eps", "v", "w", 6, 10),
            ("a1", "v", "x", 5, 9),
            ("c1", "w", "y", 7, 9),
        ]
    )
    out, _ = contraction_move(g, "eps")
    assert out.edges["a1"].labels == (25, 9)  # alpha * r' = 5 * 5
    assert out.edges["c1"].labels == (21, 9)  # gamma * q' = 7 * 3
    assert "w" not in out.vertices


@pytest.mark.parametrize("survivor_end", [0, 1])
def test_contraction_replay_keeps_survivor(survivor_end):
    from gbs.homs import contraction_cert

    g = graph_from_edges(
        [
            ("eps", "v", "w", 6, 10),
            ("a1", "v", "x", 5, 9),
            ("c1", "w", "y", 7, 9),
        ]
    )
    survivor, removed = ("v", "w") if survivor_end == 0 else ("w", "v")
    out, rec = contraction_move(g, "eps", survivor_end)
    assert rec.params == ("eps", survivor, removed, 6, 10, 2)
    assert out.vertices == frozenset({survivor, "x", "y"})
    assert out.edges["a1"] == EdgeData((survivor, "x"), (25, 9))
    assert out.edges["c1"] == EdgeData((survivor, "y"), (21, 9))
    assert apply_move(g, rec) == out
    assert contraction_cert(g, "eps", survivor_end)[0] == out
    with pytest.raises(MoveError):
        apply_move(g, MoveRecord("contraction", ("eps", "x") + rec.params[2:]))


def test_contraction_unit_is_collapse():
    g = graph_from_edges([("eps", "v", "w", 5, 1), ("g1", "w", "a", 3, 11)])
    via_contraction, _ = contraction_move(g, "eps")
    via_collapse, _ = collapse(g, "eps")
    assert via_contraction == via_collapse


def test_displacement_moves_a_factor():
    # edge (q, rs) = (7, 15), move r = 3: w-label becomes 5, labels near v triple
    g = graph_from_edges(
        [("eps", "v", "w", 7, 15), ("a1", "v", "x", 2, 9), ("a2", "v", "y", 11, 9)]
    )
    out, rec = displacement_move(g, "eps", 3, 1)
    assert out.edges["eps"].labels == (7, 5)
    assert out.edges["a1"].labels == (6, 9)
    assert out.edges["a2"].labels == (33, 9)
    assert apply_move(g, rec) == out
    same, _ = displacement_move(g, "eps", 1, 1)
    assert same == g


def test_displacement_unit_factor_subcases():
    # r = 1 is the identity; a unit-labelled split agrees with a collapse
    from gbs.homs import check_epi, compose, displacement_cert

    g = graph_from_edges(
        [("eps", "v", "w", 7, 15), ("a1", "v", "x", 2, 9)]
    )
    same, _ = displacement_move(g, "eps", 1, 1)
    assert same == g
    # full-factor displacement on a (1, rs)-edge: the contraction step is a
    # collapse, so the certificate is invertible on generators
    g2 = graph_from_edges([("eps", "v", "w", 1, 15), ("a1", "v", "x", 2, 9)])
    out, cert, _ = displacement_cert(g2, "eps", 15, 1)
    assert check_epi(cert)
    via_move, _ = displacement_move(g2, "eps", 15, 1)
    assert sorted(map(abs, out.labels())) == sorted(map(abs, via_move.labels()))


def test_displacement_errors():
    g = graph_from_edges([("eps", "v", "w", 6, 15)])
    with pytest.raises(MoveError):
        displacement_move(g, "eps", 4, 1)  # does not divide
    with pytest.raises(MoveError):
        displacement_move(g, "eps", 3, 1)  # gcd(6, 3) != 1


def test_displacement_preserves_label_products():
    # verified by the reduce-equivalence style oracle: X, Y products match
    g = circle_graph([2, 5, 3, 7])
    s = classify_shape(g)
    X, Y = qrxy(s).X, qrxy(s).Y
    out, _ = displacement_move(g, s.circ_edges[1].edge, 3, s.circ_edges[1].end)
    s2 = classify_shape(out)
    assert abs(qrxy(s2).X) == abs(X) and abs(qrxy(s2).Y) == abs(Y)


_REPLAY_GRAPH = graph_from_edges([("mid", "v", "w", 5, 1), ("g1", "w", "a", 3, 11)])


@pytest.mark.parametrize(
    "kind,params",
    [
        ("collapse", ("mid", 5, "w", "v", 5)),
        ("collapse", ()),
        ("expansion", ("w", (("zz", 0),), 3, 1, "u", "new")),
        ("sign-change", ("foo", "v")),
        ("displacement", ("g1", 3, 2)),
        ("displacement", ("g1", "a", 0)),
        ("contraction", ("mid",)),
        ("expansion", ("w", (("g1", 0),), 0.5, 1, "u", "new")),
    ],
    ids=["collapse-end-5", "collapse-no-params", "expansion-unknown-edge", "sign-change-foo",
         "displacement-end-2", "displacement-factor-a", "contraction-one-param", "expansion-label-0.5"],
)
def test_malformed_records_raise_move_error(kind, params):
    # records are read from certificate JSON: a bad one is a MoveError, never a crash
    with pytest.raises(MoveError):
        apply_move(_REPLAY_GRAPH, MoveRecord(kind, params))


def test_expansion_of_an_unknown_edge_is_a_move_error():
    with pytest.raises(MoveError):
        expansion(_REPLAY_GRAPH, "w", [OrientedEdge("zz", 0)], 3)


def test_expansion_round_trip():
    g = graph_from_edges([("e", "v", "w", 6, 10), ("f", "v", "v", 9, 12)])
    moved = [OrientedEdge("e", 0), OrientedEdge("f", 1)]
    out, rec = expansion(g, "v", moved, 3, 1, "u", "new")
    assert out.edges["new"].labels == (3, 1)
    assert out.edges["e"].labels == (2, 10)
    assert out.edges["f"].labels == (9, 4)
    back, _ = collapse(out, "new", 1)
    assert back == g


def test_expansion_makes_trivalent_form():
    # one vertex with four labels n expands to the tree-with-loop picture
    n = 6
    g = graph_from_edges([("e0", "v", "v", n, n), ("e1", "v", "v", n, n)])
    out, _ = expansion(g, "v", [OrientedEdge("e0", 0), OrientedEdge("e0", 1)], n, 1)
    assert len(out.vertices) == 2
    red, _ = reduce_graph(out)
    assert red == g


def test_classify_shapes():
    assert classify_shape(bs_graph(2, 3)).x == (2,)
    seg = classify_shape(segment_graph([2, 3]))
    assert seg.kind == "segment" and seg.q == (2,) and seg.r == (3,)
    lp = classify_shape(lollipop_graph([6, 2], [3, 6]))
    assert lp.kind == "lollipop" and lp.q == (6,) and lp.x == (3,) and lp.y == (6,)
    theta = graph_from_edges(
        [("a", "u", "w", 2, 3), ("b", "u", "w", 5, 7), ("c", "u", "w", 11, 13)]
    )
    assert classify_shape(theta).kind == "other"
    lone = graph_from_edges([], extra_vertices=["v"])
    assert classify_shape(lone).kind == "other"


def test_classify_circle_base_convention():
    # base vertex must meet every plateau: labels force w1
    g = graph_from_edges([("e0", "w0", "w1", 2, 3), ("e1", "w1", "w0", 3, 5)])
    s = classify_shape(g)
    assert s.circ_vertices[0] == "w1"
    assert s.base_meets_all_plateaus


def test_qrxy():
    s = classify_shape(bs_graph(2, 3))
    prods = qrxy(s)
    assert (prods.Q, prods.R, prods.X, prods.Y) == (1, 1, 2, 3)
    s2 = classify_shape(segment_graph([2, 3]))
    prods2 = qrxy(s2)
    assert (prods2.Q, prods2.R) == (2, 3) and prods2.X is None
    with pytest.raises(ShapeError):
        qrxy(classify_shape(graph_from_edges([], extra_vertices=["v"])))


def test_qrxy_two_edge_circle():
    alpha, betav, gamma = 3, 2, 5
    g = graph_from_edges(
        [("e0", "w0", "w1", 2 * betav, 2), ("e1", "w1", "w0", gamma, 2 * alpha)]
    )
    prods = qrxy(classify_shape(g))
    assert {abs(prods.X), abs(prods.Y)} == {2 * betav * gamma, 4 * alpha}


def _canonicalize_signs_reference(g):
    """Sign normalization one move at a time: each sign change builds a new
    graph with `sign_change`."""
    g.require_connected()
    tree = spanning_tree(g)
    records = []
    root = g.sorted_vertices()[0]
    seen = {root}
    order = []
    queue = [root]
    while queue:
        v = queue.pop(0)
        for oe in g.edges_at(v):
            if oe.edge in tree and g.terminus(oe) not in seen:
                seen.add(g.terminus(oe))
                order.append(oe)
                queue.append(g.terminus(oe))
    for oe in order:
        parent_label = g.label(oe)
        child_label = g.colabel(oe)
        child = g.terminus(oe)
        if parent_label < 0:
            g, rec = sign_change(g, edge=oe.edge)
            records.append(rec)
            child_label = -child_label
        if child_label < 0:
            g, rec = sign_change(g, vertex=child)
            records.append(rec)
    for name in g.sorted_edges():
        if name in tree:
            continue
        l0, l1 = g.edges[name].labels
        if (l0 < 0 and l1 < 0) or (l0 < 0 < l1):
            g, rec = sign_change(g, edge=name)
            records.append(rec)
    return g, records


@st.composite
def graphs_with_loops(draw):
    """Small connected graphs with extra loops; labels of both signs."""
    g = draw(graphs(max_vertices=6, max_extra=4))
    label = st.integers(min_value=1, max_value=9).flatmap(lambda n: st.sampled_from([n, -n]))
    loops = draw(st.lists(st.tuples(st.sampled_from(g.sorted_vertices()), label, label), max_size=3))
    edges = dict(g.edges)
    for i, (v, a, b) in enumerate(loops):
        edges[f"l{i}"] = EdgeData((v, v), (a, b))
    return LabelledGraph(g.vertices, edges)


@given(graphs_with_loops())
@settings(max_examples=200, deadline=None)
def test_canonicalize_signs_matches_per_move_reference(g):
    out, recs = canonicalize_signs(g)
    ref, ref_recs = _canonicalize_signs_reference(g)
    assert out == ref and list(out.edges) == list(ref.edges)
    assert [r.to_json() for r in recs] == [r.to_json() for r in ref_recs]


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_canonicalize_signs_bound(g):
    out, recs = canonicalize_signs(g)
    negatives = sum(1 for l in out.labels() if l < 0)
    assert negatives <= out.betti()
    # sign changes preserve absolute labels
    assert sorted(map(abs, out.labels())) == sorted(map(abs, g.labels()))
    cur = g
    for rec in recs:
        cur = apply_move(cur, rec)
    assert cur == out


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_qrxy_abs_invariant_under_sign_change(g):
    s = classify_shape(g)
    if s.kind == "other":
        return
    prods = qrxy(s)
    g2, _ = sign_change(g, vertex=g.sorted_vertices()[0])
    s2 = classify_shape(g2)
    if s2.kind != s.kind:
        return
    prods2 = qrxy(s2)
    for a, b in ((prods.Q, prods2.Q), (prods.R, prods2.R), (prods.X, prods2.X), (prods.Y, prods2.Y)):
        if a is not None:
            assert abs(a) == abs(b)


def test_spanning_tree():
    g = lollipop_graph([6, 2], [3, 6])
    tree = spanning_tree(g)
    assert tree == frozenset({"s0"})
    assert spanning_tree(bs_graph(2, 3)) == frozenset()
    with pytest.raises(DisconnectedGraphError):
        spanning_tree(graph_from_edges([("e0", "a", "b", 2, 3)], extra_vertices=["c"]))


def test_classify_shape_checks_connectivity_once(monkeypatch):
    calls = count_calls(monkeypatch, [(LabelledGraph, "is_connected")])
    g = circle_graph([2, 3, 5, 7, 3, 4])
    assert classify_shape(g).kind == "circle"
    assert calls == {"is_connected": 1}
    calls.clear()
    assert is_two_generated(g)[1].shape.kind == "circle"
    assert calls == {"is_connected": 2}


def test_moves_keep_labels_nonzero():
    g = circle_graph([2, 1, -3, 1])
    red, _ = reduce_graph(g)
    assert all(l != 0 for l in red.labels())


def test_graph_equals_itself_without_building_keys(monkeypatch):
    g = parse_graph("circle 2 3 5 7")
    calls = count_calls(monkeypatch, [(LabelledGraph, "_key")])
    assert g == g and not g != g
    assert calls["_key"] == 0
    assert g == parse_graph("circle 2 3 5 7") and calls["_key"] == 2
    assert g != parse_graph("circle 2 3 5 11")
