import dataclasses
import hashlib
import importlib
import inspect
import pkgutil
import pydoc
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls, count_graph_builds, graphs, small_connected_graph

import gbs
from gbs.arith import gcd
from gbs.errors import DecisionError, DisconnectedGraphError, InputError, MoveError, ShapeError
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
    graph_from_edges,
    lollipop_graph,
    loop_labels,
    move,
    parse_graph,
    reduce_graph,
    replay,
    segment_graph,
    Shape,
    spanning_tree,
    _bfs_tree,
)
from gbs.decision import Decision
from gbs.lattice import IntLattice
from gbs.plateaus import Plateau, RankReport, TwoGenWitness, is_two_generated
from gbs.quotients import MinimalSource, SourceSet


# -- reference moves ---------------------------------------------------------
# Each move rebuilds every edge of a new graph, independently of the working
# copy engine in gbs.graphs; the engine must match them record for record.
# Each takes the parameters of its move body, so it replays a record too.


def _ref_rescaled(ed, at):
    (a, b), (la, lb) = ed.endpoints, ed.labels
    (ma, ua), (mb, ub) = at.get(a, (1, a)), at.get(b, (1, b))
    return EdgeData((ua, ub), (la * ma, lb * mb))


def _ref_rescaled_edges(g, at, drop=None):
    edges = {}
    for name, ed in g.edges.items():
        if name != drop:
            a, b = ed.endpoints
            edges[name] = _ref_rescaled(ed, at) if a in at or b in at else ed
    return edges


def _ref_sign_change(g, what, name):
    if what == "vertex":
        assert name in g.vertices
        edges = _ref_rescaled_edges(g, {name: (-1, name)})
        return LabelledGraph(g.vertices, edges), MoveRecord("sign-change", ("vertex", name))
    assert what == "edge"
    edge, ed = name, g.edges[name]
    edges = dict(g.edges)
    edges[edge] = EdgeData(ed.endpoints, (-ed.labels[0], -ed.labels[1]))
    return LabelledGraph(g.vertices, edges), MoveRecord("sign-change", ("edge", edge))


def _ref_collapse(g, edge, end=None, *_):
    assert not g.is_loop(edge)
    ed = g.edges[edge]
    if end is None:
        end = [k for k in (0, 1) if abs(ed.labels[k]) == 1][0]
    assert abs(ed.labels[end]) == 1
    removed, survivor = ed.endpoints[end], ed.endpoints[1 - end]
    mult = ed.labels[end] * ed.labels[1 - end]
    edges = _ref_rescaled_edges(g, {removed: (mult, survivor)}, drop=edge)
    rec = MoveRecord("collapse", (edge, end, removed, survivor, mult))
    return LabelledGraph(g.vertices - {removed}, edges), rec


def _ref_expansion(g, vertex, moved, label, sgn, new_vertex, new_edge):
    div = sgn * label
    assert all(g.edges[e].endpoints[k] == vertex and g.edges[e].labels[k] % div == 0 for e, k in moved)
    assert new_vertex not in g.vertices and new_edge not in g.edges
    moved_set = set(moved)
    edges = {}
    for name, ed in g.edges.items():
        endpoints, labels = list(ed.endpoints), list(ed.labels)
        for k in (0, 1):
            if (name, k) in moved_set:
                endpoints[k] = new_vertex
                labels[k] //= div
        edges[name] = EdgeData(tuple(endpoints), tuple(labels))
    edges[new_edge] = EdgeData((vertex, new_vertex), (label, sgn))
    rec = MoveRecord("expansion", (vertex, tuple(sorted(moved_set)), label, sgn, new_vertex, new_edge))
    return LabelledGraph(g.vertices | {new_vertex}, edges), rec


def _ref_contraction(g, edge, survivor, *_):
    assert not g.is_loop(edge)
    ed = g.edges[edge]
    v, w = ed.endpoints
    assert survivor in (v, w)
    q, r = ed.labels
    d = gcd(q, r)
    removed = w if survivor == v else v
    edges = _ref_rescaled_edges(g, {v: (r // d, survivor), w: (q // d, survivor)}, drop=edge)
    rec = MoveRecord("contraction", (edge, survivor, removed, q, r, d))
    return LabelledGraph(g.vertices - {removed}, edges), rec


def _ref_displacement(g, edge, r, divided_end):
    assert not g.is_loop(edge)
    ed = g.edges[edge]
    assert ed.labels[divided_end] % r == 0 and gcd(ed.labels[1 - divided_end], r) == 1
    v = ed.endpoints[1 - divided_end]
    edges = _ref_rescaled_edges(g, {v: (r, v)})
    labels = list(ed.labels)
    labels[divided_end] //= r
    edges[edge] = EdgeData(ed.endpoints, tuple(labels))
    return LabelledGraph(g.vertices, edges), MoveRecord("displacement", (edge, r, divided_end))


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


@pytest.mark.parametrize(
    "vertices, edge",
    [
        ("ab", {"name": "e0", "endpoints": ["a", "b"], "labels": [2, 3]}),  # a string is no vertex list
        (["a", "b"], {"name": "e0", "endpoints": "ab", "labels": [2, 3]}),  # nor a pair of endpoints
        (["a", "b"], {"name": "e0", "endpoints": ["a", "b", "a"], "labels": [2, 3]}),
        (["a", "b"], {"name": "e0", "endpoints": ["a", "b"], "labels": [2, 3, 5]}),
        (["a", "b"], {"name": "e0", "endpoints": ["a", "b"], "labels": [2]}),
        (["a", "b"], {"name": "e0", "endpoints": ["a", "b"], "labels": [2.0, 3]}),
        (["a", "b"], {"name": "e0", "endpoints": ["a", "b"], "labels": [True, 3]}),
        (["a", "b"], {"name": 7, "endpoints": ["a", "b"], "labels": [2, 3]}),
        ([7, "b"], {"name": "e0", "endpoints": ["b", "b"], "labels": [2, 3]}),
        (["a", "b"], {"name": "e0", "endpoints": ["a", 7], "labels": [2, 3]}),
        (["a", "b"], {"name": "e0", "endpoints": ["a", "c"], "labels": [2, 3]}),
        (["a", "b"], {"name": "e0", "endpoints": ["a", "b"], "labels": [0, 3]}),
    ],
)
def test_from_json_refuses_what_names_no_graph(vertices, edge):
    data = {"vertices": vertices, "edges": [{"name": "e1", "endpoints": ["b", "b"], "labels": [5, 7]}, edge]}
    with pytest.raises(InputError):
        LabelledGraph.from_json(data)



@pytest.mark.parametrize(
    "data",
    [
        {"vertices": ["a"], "edges": "ab"},
        {"vertices": ["a"], "edges": [5]},
        {"vertices": ["a"], "edges": 5},
        {"vertices": ["a"]},
        {"vertices": ["a"], "edges": [{"name": "e0", "labels": [2, 3]}]},
        ["a"],
    ],
    ids=["edges-a-string", "edge-not-an-object", "edges-a-number", "no-edges", "edge-without-endpoints", "not-an-object"],
)
def test_from_json_refuses_shapes_with_an_input_error(data):
    """Each of these raised a raw TypeError or KeyError."""
    with pytest.raises(InputError):
        LabelledGraph.from_json(data)


@pytest.mark.parametrize(
    "label, message",
    [(2.5, "a label must be an integer, not 2.5"), (2.0, "not 2.0"), (True, "not True"), ("3", "not '3'"),
     (0, "^edge e has a zero label$")],
    ids=["float", "integral-float", "bool", "string", "zero"],
)
def test_constructors_keep_labels_exact(label, message):
    """graph_from_edges read 2.5 and 2.0 as 2, True as 1 and "3" as 3, and the
    checking constructor kept 2.5: a label is an int, never a bool."""
    with pytest.raises(InputError, match=message):
        graph_from_edges([("e", "v", "w", label, 3)])
    with pytest.raises(InputError, match=message):
        LabelledGraph(["v"], {"e": EdgeData(("v", "v"), (3, label))})


def test_from_json_refuses_a_repeated_edge_name():
    """A second edge of one name used to replace the first silently."""
    g = segment_graph([2, 3, 5, 7])
    data = g.to_json()
    assert LabelledGraph.from_json(data) == g
    data["edges"].append({**data["edges"][0], "labels": [97, 89]})
    with pytest.raises(InputError, match="string name no other edge has"):
        LabelledGraph.from_json(data)


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


def _segment_graph_reference(q_r):
    """segment_graph before the shared edge-row writer."""
    k = len(q_r) // 2
    edges = []
    for i in range(k):
        edges.append((f"s{i}", f"v{i}", f"v{i+1}", q_r[2 * i], q_r[2 * i + 1]))
    return graph_from_edges(edges)


def _circle_graph_reference(x_y):
    """circle_graph before the shared edge-row writer, with its one-edge branch."""
    ell = len(x_y) // 2
    if ell == 1:
        return graph_from_edges([("c0", "w0", "w0", x_y[0], x_y[1])])
    edges = []
    for j in range(ell):
        edges.append((f"c{j}", f"w{j}", f"w{(j + 1) % ell}", x_y[2 * j], x_y[2 * j + 1]))
    return graph_from_edges(edges)


def _lollipop_graph_reference(q_r, x_y):
    """lollipop_graph before the shared edge-row writer."""
    k = len(q_r) // 2
    ell = len(x_y) // 2
    edges = []
    for i in range(k):
        target = f"v{i+1}" if i < k - 1 else "w0"
        edges.append((f"s{i}", f"v{i}", target, q_r[2 * i], q_r[2 * i + 1]))
    for j in range(ell):
        edges.append((f"c{j}", f"w{j}", f"w{(j + 1) % ell}", x_y[2 * j], x_y[2 * j + 1]))
    return graph_from_edges(edges)


def _same_graph(got, want):
    assert got.to_json() == want.to_json()
    assert list(got.edges.items()) == list(want.edges.items())  # the insertion order too
    assert got.vertices == want.vertices


@pytest.mark.parametrize("seed", range(40))
def test_constructors_match_the_reference_writers(seed):
    """Seeded label lists of 1 to 4 edges, signs included."""
    rng = random.Random(seed)

    def labels(edges):
        return [rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(2 * edges)]

    for edges in range(1, 5):
        q_r, x_y = labels(edges), labels(edges)
        _same_graph(segment_graph(q_r), _segment_graph_reference(q_r))
        _same_graph(circle_graph(x_y), _circle_graph_reference(x_y))
        _same_graph(lollipop_graph(q_r, x_y), _lollipop_graph_reference(q_r, x_y))
        _same_graph(lollipop_graph(q_r, x_y[:2]), _lollipop_graph_reference(q_r, x_y[:2]))
        _same_graph(lollipop_graph(q_r[:2], x_y), _lollipop_graph_reference(q_r[:2], x_y))


def test_constructors_keep_their_own_label_checks():
    for build, args, message in [
        (segment_graph, ([2, 3, 5],), "segment needs labels"),
        (circle_graph, ([],), "circle needs labels"),
        (lollipop_graph, ([2, 3], [5]), "lollipop needs segment labels"),
        (lollipop_graph, ([], [2, 3]), "lollipop needs segment labels"),
        (graph_from_edges, ([("e", "v", "w", 2, 3), ("e", "w", "v", 5, 7)],), "duplicate edge name e"),
        (LabelledGraph, ([], {}), "graph needs at least one vertex"),
    ]:
        with pytest.raises(InputError, match=message):
            build(*args)
    # a zero Baumslag-Solitar parameter gets the deciders' one message
    with pytest.raises(DecisionError, match="^Baumslag-Solitar parameters must be nonzero$"):
        bs_graph(0, 3)


def test_loop_labels_reads_only_a_one_vertex_one_edge_graph():
    assert loop_labels(bs_graph(4, -6)) == (4, -6)
    assert loop_labels(circle_graph([2, 3])) == (2, 3)
    assert loop_labels(segment_graph([2, 3])) is None  # one edge, two vertices
    assert loop_labels(graph_from_edges([("e0", "v", "v", 2, 3), ("e1", "v", "v", 5, 7)])) is None
    assert loop_labels(LabelledGraph(["v"], {})) is None


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
    out, rec = move(g, "collapse", "mid")
    assert out.vertices == frozenset({"v", "a", "b"})
    assert out.edges["g1"].labels == (15, 11)
    assert out.edges["g2"].labels == (35, 13)
    assert apply_move(g, rec) == out


def test_collapse_unit_pair():
    g = segment_graph([1, 1])
    out, _ = move(g, "collapse", "s0")
    assert not out.edges and len(out.vertices) == 1


def test_collapse_errors():
    with pytest.raises(MoveError):
        move(bs_graph(1, 2), "collapse", "e0")  # loop
    with pytest.raises(MoveError):
        move(segment_graph([2, 3]), "collapse", "s0")  # no unit label


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
    """The rescanning reduction: after every collapse, rebuild the graph
    through the checking constructor and restart the scan from the lowest
    edge id."""
    records = []
    while True:
        g = _checked(g)
        done = True
        for name in g.sorted_edges():
            if g.is_loop(name):
                continue
            ed = g.edges[name]
            for end in (0, 1):
                if abs(ed.labels[end]) == 1 and ed.endpoints[end] != protect:
                    g, rec = _ref_collapse(g, name, end)
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
    g = segment_graph([1, 2] * 200)
    calls = count_calls(
        monkeypatch, [(mod, "move"), (LabelledGraph, "__init__")]
    )
    red, recs = reduce_graph(g)
    assert len(recs) == 200 and not red.edges
    assert calls == {}
    g = circle_graph([-2, 3, 5, -7] * 25)
    calls.clear()
    out, recs = canonicalize_signs(g)
    assert recs and sum(l < 0 for l in out.labels()) <= 1  # beta = 1
    assert calls == {}
    g = segment_graph([1, 2] * 200)
    red, recs = reduce_graph(g)
    calls = count_graph_builds(monkeypatch)
    assert replay(g, recs) == red
    assert sum(calls.values()) == 1


def test_sign_change_involution():
    g = bs_graph(2, 3)
    g1, _ = move(g, "sign-change", "edge", "e0")
    assert g1.edges["e0"].labels == (-2, -3)
    g2, _ = move(g1, "sign-change", "edge", "e0")
    assert g2 == g
    s = segment_graph([2, 3])
    s1, _ = move(s, "sign-change", "vertex", "v0")
    assert s1.edges["s0"].labels == (-2, 3)
    with pytest.raises(MoveError, match="a sign change is at a vertex or an edge"):
        move(s, "sign-change", "loop", "s0")


def test_contraction_rescales_both_sides():
    # alpha, beta at v and gamma, delta at w, edge (q, r) = (6, 10)
    g = graph_from_edges(
        [
            ("eps", "v", "w", 6, 10),
            ("a1", "v", "x", 5, 9),
            ("c1", "w", "y", 7, 9),
        ]
    )
    out, _ = move(g, "contraction", "eps", "v")
    assert out.edges["a1"].labels == (25, 9)  # alpha * r' = 5 * 5
    assert out.edges["c1"].labels == (21, 9)  # gamma * q' = 7 * 3
    assert "w" not in out.vertices


@pytest.mark.parametrize("survivor_end", [0, 1])
def test_contraction_replay_keeps_survivor(survivor_end):
    from gbs.homs import move_cert

    g = graph_from_edges(
        [
            ("eps", "v", "w", 6, 10),
            ("a1", "v", "x", 5, 9),
            ("c1", "w", "y", 7, 9),
        ]
    )
    survivor, removed = ("v", "w") if survivor_end == 0 else ("w", "v")
    out, rec = move(g, "contraction", "eps", survivor)
    assert rec.params == ("eps", survivor, removed, 6, 10, 2)
    assert out.vertices == frozenset({survivor, "x", "y"})
    assert out.edges["a1"] == EdgeData((survivor, "x"), (25, 9))
    assert out.edges["c1"] == EdgeData((survivor, "y"), (21, 9))
    assert apply_move(g, rec) == out
    assert move_cert(g, "contraction", "eps", survivor)[::2] == (out, rec)
    with pytest.raises(MoveError):
        apply_move(g, MoveRecord("contraction", ("eps", "x") + rec.params[2:]))


def test_contraction_unit_is_collapse():
    g = graph_from_edges([("eps", "v", "w", 5, 1), ("g1", "w", "a", 3, 11)])
    via_contraction, _ = move(g, "contraction", "eps", "v")
    via_collapse, _ = move(g, "collapse", "eps")
    assert via_contraction == via_collapse


def test_displacement_moves_a_factor():
    # edge (q, rs) = (7, 15), move r = 3: w-label becomes 5, labels near v triple
    g = graph_from_edges(
        [("eps", "v", "w", 7, 15), ("a1", "v", "x", 2, 9), ("a2", "v", "y", 11, 9)]
    )
    out, rec = move(g, "displacement", "eps", 3, 1)
    assert out.edges["eps"].labels == (7, 5)
    assert out.edges["a1"].labels == (6, 9)
    assert out.edges["a2"].labels == (33, 9)
    assert apply_move(g, rec) == out
    same, _ = move(g, "displacement", "eps", 1, 1)
    assert same == g


def test_displacement_unit_factor_subcases():
    # r = 1 is the identity; a unit-labelled split agrees with a collapse
    from gbs.homs import check_epi, compose, displacement_cert

    g = graph_from_edges(
        [("eps", "v", "w", 7, 15), ("a1", "v", "x", 2, 9)]
    )
    same, _ = move(g, "displacement", "eps", 1, 1)
    assert same == g
    # full-factor displacement on a (1, rs)-edge: the contraction step is a
    # collapse, so the certificate is invertible on generators
    g2 = graph_from_edges([("eps", "v", "w", 1, 15), ("a1", "v", "x", 2, 9)])
    out, cert, _ = displacement_cert(g2, "eps", 15, 1)
    assert check_epi(cert)
    via_move, _ = move(g2, "displacement", "eps", 15, 1)
    assert sorted(map(abs, out.labels())) == sorted(map(abs, via_move.labels()))


def test_displacement_errors():
    g = graph_from_edges([("eps", "v", "w", 6, 15)])
    with pytest.raises(MoveError):
        move(g, "displacement", "eps", 4, 1)  # does not divide
    with pytest.raises(MoveError):
        move(g, "displacement", "eps", 3, 1)  # gcd(6, 3) != 1


def test_displacement_preserves_label_products():
    # verified by the reduce-equivalence style oracle: X, Y products match
    g = circle_graph([2, 5, 3, 7])
    s = classify_shape(g)
    X, Y = s.X, s.Y
    out, _ = move(g, "displacement", s.circ_edges[1].edge, 3, s.circ_edges[1].end)
    s2 = classify_shape(out)
    assert abs(s2.X) == abs(X) and abs(s2.Y) == abs(Y)


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
        ("expansion", ("w", (("g1", 0),), 0, 1, "u", "new")),
        ("expansion", ("w", (("mid", 0),), 1, 1, "u", "new")),
    ],
    ids=["collapse-end-5", "collapse-no-params", "expansion-unknown-edge", "sign-change-foo",
         "displacement-end-2", "displacement-factor-a", "contraction-one-param", "expansion-label-0.5",
         "expansion-label-0", "expansion-end-elsewhere"],
)
def test_malformed_records_raise_move_error(kind, params):
    # records are read from certificate JSON: a bad one is a MoveError, never a crash
    with pytest.raises(MoveError):
        apply_move(_REPLAY_GRAPH, MoveRecord(kind, params))


@pytest.mark.parametrize(
    "rec",
    [
        MoveRecord("expansion", ("z0", (("d1", 0),), 7, 1, "u", "x")),  # 7 does not divide 10^5000
        MoveRecord("displacement", ("d2", 7, 0)),  # 7 does not divide 10^5000
        MoveRecord("displacement", ("d2", 2, 1)),  # 2 divides 2, not coprime to 10^5000
    ],
    ids=["expansion-not-divisible", "displacement-not-dividing", "displacement-not-coprime"],
)
def test_replay_move_errors_on_labels_past_the_int_to_str_limit(rec):
    # the collapse multiplies labels at z1 to 5,000 digits, past Python's int-to-str limit:
    # the error names the oriented edge, never formats its label
    big = 10**2500
    g = graph_from_edges([("d0", "z0", "z1", big, 1), ("d1", "z1", "z1", big, 1), ("d2", "z1", "z2", big, 2)])
    _, first = move(g, "collapse", "d0", 1)
    with pytest.raises(MoveError):
        replay(g, [first, rec])


def test_expansion_of_an_unknown_edge_is_a_move_error():
    from gbs.homs import move_cert

    with pytest.raises(MoveError, match="unknown edge zz"):
        move(_REPLAY_GRAPH, "expansion", "w", (("zz", 0),), 3, 1, "u", "new")
    with pytest.raises(MoveError, match="unknown edge zz"):
        move_cert(_REPLAY_GRAPH, "expansion", "w", (("zz", 0),), 3, 1, "u", "new")


def test_move_of_an_unknown_kind_is_a_move_error():
    for kind in ("foo", 3, ["collapse"]):  # a list is unhashable
        with pytest.raises(MoveError, match="unknown move kind"):
            move(_REPLAY_GRAPH, kind, "mid")


@pytest.mark.parametrize(
    "kind,inputs,arity",
    [
        ("sign-change", ("vertex", "v"), 2),
        ("collapse", ("mid",), 5),
        ("expansion", ("w", (), 3, 1, "u", "new"), 6),
        ("contraction", ("g1", "w"), 6),
        ("displacement", ("g1", 3, 0), 3),
    ],
)
def test_a_move_takes_its_inputs_up_to_its_whole_record(kind, inputs, arity):
    """Between the move's inputs and its record's arity, any number of
    parameters is accepted; one fewer or one more is a MoveError naming the
    kind, from move and move_cert alike (which refuses every displacement)."""
    from gbs.homs import move_cert

    g2, rec = move(_REPLAY_GRAPH, kind, *inputs)
    assert len(rec.params) == arity and move(_REPLAY_GRAPH, kind, *rec.params) == (g2, rec)
    if kind != "displacement":
        assert move_cert(_REPLAY_GRAPH, kind, *rec.params)[0] == g2
    for params in (inputs[:-1], rec.params + ("x",)):
        for run in (move, move_cert):
            with pytest.raises(MoveError, match=kind):
                run(_REPLAY_GRAPH, kind, *params)


def test_a_sign_change_with_the_wrong_number_of_parameters_is_a_move_error():
    for params in ((), ("vertex",), ("vertex", "v0", "v1")):
        with pytest.raises(MoveError, match="a sign-change move takes at least 2 and at most 2 parameters"):
            move(segment_graph([2, 3]), "sign-change", *params)


@pytest.mark.parametrize("names", [(None, None), ("", ""), ("u", None)])
def test_replayed_expansion_names_its_new_vertex_and_edge(names):
    # no move makes such a record: neither move, move_cert nor replay invents the names
    from gbs.homs import move_cert

    rec = MoveRecord("expansion", ("w", (), 3, 1) + names)
    with pytest.raises(MoveError):
        apply_move(_REPLAY_GRAPH, rec)
    with pytest.raises(MoveError):
        replay(_REPLAY_GRAPH, [rec, rec])
    with pytest.raises(MoveError):
        move(_REPLAY_GRAPH, "expansion", *rec.params)
    with pytest.raises(MoveError):
        move_cert(_REPLAY_GRAPH, "expansion", *rec.params)
    free = names[0] or _REPLAY_GRAPH.fresh_vertex(), _REPLAY_GRAPH.fresh_edge()  # as displacement_cert picks them
    out = move_cert(_REPLAY_GRAPH, "expansion", "w", (), 3, 1, *free)[0]
    made = MoveRecord("expansion", ("w", (), 3, 1, names[0] or "u0", "x0"))
    assert apply_move(_REPLAY_GRAPH, made) == out


def test_expansion_round_trip():
    g = graph_from_edges([("e", "v", "w", 6, 10), ("f", "v", "v", 9, 12)])
    out, rec = move(g, "expansion", "v", (("e", 0), ("f", 1)), 3, 1, "u", "new")
    assert out.edges["new"].labels == (3, 1)
    assert out.edges["e"].labels == (2, 10)
    assert out.edges["f"].labels == (9, 4)
    back, _ = move(out, "collapse", "new", 1)
    assert back == g


def test_expansion_makes_trivalent_form():
    # one vertex with four labels n expands to the tree-with-loop picture
    n = 6
    g = graph_from_edges([("e0", "v", "v", n, n), ("e1", "v", "v", n, n)])
    out, _ = move(g, "expansion", "v", (("e0", 0), ("e0", 1)), n, 1, "u0", "x0")
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


SHAPE_GRAPHS, SHAPE_DIGEST = 2400, "98c5c06690a6ba61ac931427962067bdd8a3806bca8640e959bb8649be01ee17"
PRODUCTS_DIGEST = "9af09ee7b539e664d81f9b21597a5ee4ebb7852e0cb2c29b7659a61c9f15af81"


def _renamed(g, rng):
    """g with its vertices and edges under shuffled names and each edge
    turned round with probability 1/2: the walks read edges in name order."""
    vs, es = g.sorted_vertices(), g.sorted_edges()
    vname = dict(zip(vs, (f"u{j}" for j in rng.sample(range(40), len(vs)))))
    rows = []
    for e, j in zip(es, rng.sample(range(40), len(es))):
        (a, b), (la, lb) = g.edges[e].endpoints, g.edges[e].labels
        if rng.random() < 0.5:
            a, b, la, lb = b, a, lb, la
        rows.append((f"f{j}", vname[a], vname[b], la, lb))
    return graph_from_edges(rows, extra_vertices=vname.values())


def _shape_graphs():
    """2,400 seeded graphs, renamed: segments of 1-8 edges, circles of 1-8
    edges (one loop, two parallel edges), lollipops with 1-5 edges on each
    side (a loop cycle, a one-edge path), and random connected graphs of up
    to 6 vertices with loops and parallel edges.  Unit labels make the
    reductions collapse."""
    rng = random.Random("shapes")
    labels = lambda n: [rng.choice((1, 2, 3, 4, 6, -1, -2, -3)) for _ in range(n)]
    for i in range(SHAPE_GRAPHS):
        kind = i % 4
        if kind == 0:
            g = segment_graph(labels(2 * rng.randint(1, 8)))
        elif kind == 1:
            g = circle_graph(labels(2 * rng.randint(1, 8)))
        elif kind == 2:
            g = lollipop_graph(labels(2 * rng.randint(1, 5)), labels(2 * rng.randint(1, 5)))
        else:
            g = small_connected_graph(rng, max_vertices=6, max_extra=3)
        yield _renamed(g, rng)


def test_shapes_match_pinned_digest():
    """`classify_shape` of each graph and of its reduction, field for field:
    every quotient decider and certificate reads its labels off a Shape."""
    digest, kinds = hashlib.sha256(), Counter()
    for g in _shape_graphs():
        for h in (g, reduce_graph(g)[0]):
            shape = classify_shape(h)
            kinds[shape.kind] += 1
            digest.update(repr(shape).encode() + b"\n")
    assert min(kinds.values()) > 300, kinds
    assert digest.hexdigest() == SHAPE_DIGEST


def test_shape_products_match_pinned_digest():
    """Q, R, X, Y of each shape of the digest above, or the ShapeError of an
    "other" shape: the quotient deciders and certificates read them."""
    digest, count = hashlib.sha256(), 0
    for g in _shape_graphs():
        for h in (g, reduce_graph(g)[0]):
            shape = classify_shape(h)
            count += 1
            try:
                row = (shape.kind, shape.Q, shape.R, shape.X, shape.Y)
            except ShapeError:
                row = (shape.kind, "ShapeError")
            digest.update(repr(row).encode() + b"\n")
    assert count == 2 * SHAPE_GRAPHS
    assert digest.hexdigest() == PRODUCTS_DIGEST


def test_qrxy():
    s = classify_shape(bs_graph(2, 3))
    assert (s.Q, s.R, s.X, s.Y) == (1, 1, 2, 3)
    s2 = classify_shape(segment_graph([2, 3]))
    assert (s2.Q, s2.R) == (2, 3) and s2.X is None
    other = classify_shape(graph_from_edges([], extra_vertices=["v"]))
    for product in ("Q", "R", "X", "Y"):
        with pytest.raises(ShapeError):
            getattr(other, product)
    # read on the class, a product is its descriptor: help(Shape) reads each
    assert Shape.Q is vars(Shape)["Q"] and "Q" in pydoc.render_doc(Shape)


def test_shape_products_are_computed_once_and_are_not_fields(monkeypatch):
    """Each product is computed on first read only, and repr, == and hash
    read the labels alone (the shape digest above pins repr)."""
    g = lollipop_graph([2, 3], [4, 5])
    s = classify_shape(g)
    calls = count_calls(monkeypatch, [(sys.modules["gbs.graphs"], "prod")])
    for _ in range(3):
        assert (s.Q, s.R, s.X, s.Y) == (2, 3, 4, 5)
    assert calls["prod"] == 4
    fresh = classify_shape(g)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert not {"Q", "R", "X", "Y"} & {f.name for f in dataclasses.fields(s)}


def test_qrxy_two_edge_circle():
    alpha, betav, gamma = 3, 2, 5
    g = graph_from_edges(
        [("e0", "w0", "w1", 2 * betav, 2), ("e1", "w1", "w0", gamma, 2 * alpha)]
    )
    s = classify_shape(g)
    assert {abs(s.X), abs(s.Y)} == {2 * betav * gamma, 4 * alpha}


def _canonicalize_signs_reference(g):
    """Sign normalization one move at a time: each sign change builds a new
    graph with `_ref_sign_change`."""
    g = _checked(g)
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
            g, rec = _ref_sign_change(g, "edge", oe.edge)
            records.append(rec)
            child_label = -child_label
        if child_label < 0:
            g, rec = _ref_sign_change(g, "vertex", child)
            records.append(rec)
    for name in g.sorted_edges():
        if name in tree:
            continue
        l0, l1 = g.edges[name].labels
        if (l0 < 0 and l1 < 0) or (l0 < 0 < l1):
            g, rec = _ref_sign_change(g, "edge", name)
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
    # with every label made positive, the reference makes no move: the graph
    # itself comes back, with no graph built and no search (no incidence index)
    pos = LabelledGraph(g.vertices, {n: EdgeData(ed.endpoints, (abs(ed.labels[0]), abs(ed.labels[1])))
                                     for n, ed in g.edges.items()})
    with pytest.MonkeyPatch.context() as mp:
        builds = count_graph_builds(mp)
        out, recs = canonicalize_signs(pos)
    assert out is pos and recs == [] and builds == {} and pos._incidence is None
    assert _canonicalize_signs_reference(pos) == (pos, [])


_REF_MOVES = {
    "sign-change": _ref_sign_change,
    "collapse": _ref_collapse,
    "expansion": _ref_expansion,
    "contraction": _ref_contraction,
    "displacement": _ref_displacement,
}


def _draw_move(data, g, step):
    """A valid move on g: (kind, the inputs of its record), drawn with `data`."""
    non_loops = [n for n in g.sorted_edges() if not g.is_loop(n)]
    unit_ends = [(n, k) for n in non_loops for k in (0, 1) if abs(g.edges[n].labels[k]) == 1]
    kinds = ["sign-change", "expansion"] + ["collapse"] * bool(unit_ends) + ["contraction", "displacement"] * bool(non_loops)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "sign-change":
        if g.edges and data.draw(st.booleans()):
            return kind, ("edge", data.draw(st.sampled_from(g.sorted_edges())))
        return kind, ("vertex", data.draw(st.sampled_from(g.sorted_vertices())))
    if kind == "collapse":
        edge, end = data.draw(st.sampled_from(unit_ends))
        return kind, (edge, data.draw(st.sampled_from([end, None])))
    if kind == "expansion":
        vertex = data.draw(st.sampled_from(g.sorted_vertices()))
        label, sgn = data.draw(st.sampled_from([1, 2, 3])), data.draw(st.sampled_from([1, -1]))
        ends = [(oe.edge, oe.end) for oe in g.edges_at(vertex) if g.label(oe) % (sgn * label) == 0]
        moved = tuple(end for end in ends if data.draw(st.booleans()))
        names = data.draw(st.sampled_from([(g.fresh_vertex(), g.fresh_edge()), (f"n{step}", f"y{step}")]))
        return kind, (vertex, moved, label, sgn) + names
    edge = data.draw(st.sampled_from(non_loops))
    end = data.draw(st.sampled_from([0, 1]))
    if kind == "contraction":
        return kind, (edge, g.edges[edge].endpoints[end])
    rs, q = g.edges[edge].labels[end], g.edges[edge].labels[1 - end]
    r = data.draw(st.sampled_from([d for d in range(1, abs(rs) + 1) if rs % d == 0 and gcd(q, d) == 1]))
    return kind, (edge, r * data.draw(st.sampled_from([1, -1])), end)


@st.composite
def graphs_with_loops_and_parallels(draw):
    g = draw(graphs_with_loops())
    edges = dict(g.edges)
    for i, name in enumerate(draw(st.lists(st.sampled_from(g.sorted_edges()), max_size=2)) if g.edges else []):
        a, b = edges[name].endpoints
        edges[f"p{i}"] = EdgeData((a, b), draw(st.tuples(st.sampled_from([1, -2, 3, 6]), st.sampled_from([-1, 2, 3, 4]))))
    return LabelledGraph(g.vertices, edges)


@given(graphs_with_loops_and_parallels(), st.data())
@settings(max_examples=200, deadline=None)
def test_moves_and_replay_match_the_reference_moves(g, data):
    ref, records = g, []
    for step in range(data.draw(st.integers(min_value=1, max_value=6))):
        kind, params = _draw_move(data, ref, step)
        out, rec = move(ref, kind, *params)
        ref, ref_rec = _REF_MOVES[kind](ref, *params)
        assert out == ref and list(out.edges) == list(ref.edges)
        assert rec == ref_rec and rec.to_json() == ref_rec.to_json()
        records.append(rec)
    replayed = replay(g, records)
    assert replayed == ref and list(replayed.edges) == list(ref.edges)
    cur = ref_cur = g
    for rec in records:
        cur, ref_cur = apply_move(cur, rec), _REF_MOVES[rec.kind](ref_cur, *rec.params)[0]
        assert cur == ref_cur and list(cur.edges) == list(ref_cur.edges)
    assert cur == ref


def _fuzz_graph():
    """Unit labels, a loop and parallel edges: every move kind has a target."""
    return graph_from_edges(
        [("a", "v0", "v1", 1, 2), ("b", "v1", "v2", 2, -3), ("c", "v1", "v1", 4, 6),
         ("d", "v0", "v1", 3, 1), ("e", "v2", "v3", 6, 1)]
    )


_FUZZ_GRAPH = _fuzz_graph()
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=6)
    | st.integers(min_value=2**63, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats(allow_nan=True)
    | st.sampled_from(["a", "b", "c", "d", "e", "v0", "v1", "v2", "v3", "zz", "", "vertex", "edge"])
)
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple), max_leaves=6)


@st.composite
def json_move_records(draw):
    """MoveRecords as JSON can carry them: any kind, any arity, any values."""
    kind = draw(st.sampled_from(["sign-change", "collapse", "expansion", "contraction", "displacement", "foo", 3]))
    arity = {"sign-change": 2, "collapse": 5, "expansion": 6, "contraction": 6, "displacement": 3}.get(kind, 2)
    n = draw(st.sampled_from([arity, arity, arity, 0, arity - 1, arity + 1]))
    params = tuple(draw(st.lists(_JSON_VALUES, min_size=n, max_size=n)))
    return MoveRecord(kind, draw(st.sampled_from([params, list(params)])))


_VALID_RECORDS = [
    move(_FUZZ_GRAPH, "collapse", "a", 0)[1],
    move(_FUZZ_GRAPH, "collapse", "e", 1)[1],
    move(_FUZZ_GRAPH, "sign-change", "vertex", "v1")[1],
    move(_FUZZ_GRAPH, "sign-change", "edge", "c")[1],
    move(_FUZZ_GRAPH, "expansion", "v1", (("c", 0), ("b", 0)), 2, -1, "n", "y")[1],
    move(_FUZZ_GRAPH, "contraction", "b", "v2")[1],
    move(_FUZZ_GRAPH, "displacement", "b", 2, 0)[1],
]


@st.composite
def mutated_records(draw):
    """A record some move makes on the fuzz graph, one parameter perhaps replaced."""
    rec = draw(st.sampled_from(_VALID_RECORDS))
    params = list(rec.params)
    i = draw(st.integers(min_value=0, max_value=len(params)))
    if i < len(params):
        params[i] = draw(_JSON_VALUES)
    return MoveRecord(rec.kind, tuple(params))


@given(st.lists(json_move_records() | mutated_records(), min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
def test_any_record_replays_or_raises_move_error(records):
    for rec in records:
        try:
            apply_move(_FUZZ_GRAPH, rec)
        except MoveError:
            pass
    try:
        replay(_FUZZ_GRAPH, records)
    except MoveError:
        pass
    assert _FUZZ_GRAPH == _fuzz_graph() and list(_FUZZ_GRAPH.edges) == list(_fuzz_graph().edges)


def _mutated(rec: MoveRecord, how: str) -> MoveRecord:
    """rec with a wrong kind, a wrong arity, a factor that divides no label
    here, or an unknown edge or vertex."""
    kind, params = rec.kind, list(rec.params)
    if how == "kind":
        kind = {"collapse": "expansion", "expansion": "contraction"}.get(kind, "collapse")
    elif how == "arity":
        params = params[:-1] if params else ["zz"]
    elif how == "factor":
        i = {"expansion": 2, "displacement": 1}.get(kind, len(params) - 1)
        params[i] = 97
    else:
        params[1 if kind == "sign-change" else 0] = "zz"
    return MoveRecord(kind, tuple(params))


def _checked(g: LabelledGraph) -> LabelledGraph:
    """g, asserted equal to its rebuild by the checking constructor (which
    raises on a zero label, an unknown endpoint, no vertex or a disconnected
    graph).  So test_unchecked_move_results_pass_the_constructor_checks also
    pins that every move kind keeps a connected graph connected."""
    assert g == LabelledGraph(g.vertices, dict(g.edges))
    return g


def _unless_move_error(call, *args):
    """The graph call returns (checked), or None when it raises MoveError."""
    try:
        out = call(*args)
    except MoveError:
        return None
    return _checked(out[0] if type(out) is tuple else out)


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_unchecked_move_results_pass_the_constructor_checks(g, data):
    # a move's result is built by _Work.graph without the constructor's checks:
    # each call raises MoveError or returns a graph that passes them
    start, records = g, []
    for step in range(data.draw(st.integers(min_value=1, max_value=4))):
        kind, params = _draw_move(data, g, step)
        if data.draw(st.booleans()):  # an unknown name, or a factor that divides no label
            i = data.draw(st.sampled_from([0, 2 if kind == "expansion" else 1]))
            _unless_move_error(move, g, kind, *params[:i], data.draw(st.sampled_from(["zz", 97])), *params[i + 1 :])
        out, rec = move(g, kind, *params)
        _checked(out)
        how = data.draw(st.sampled_from([None, "kind", "arity", "factor", "name"]))
        rec = rec if how is None else _mutated(rec, how)
        records.append(rec)
        after = _unless_move_error(apply_move, g, rec)
        if after is not None:
            g = after
    _unless_move_error(replay, start, records)
    protect = data.draw(st.sampled_from([None, *g.sorted_vertices()]))
    red, recs = reduce_graph(g, protect)
    assert _checked(replay(g, recs)) == _checked(red)
    signed, recs = canonicalize_signs(g)
    assert _checked(replay(g, recs)) == _checked(signed)


def test_value_types_keep_their_repr_equality_order_and_hash():
    oe, ed = OrientedEdge("c1", 0), EdgeData(("v", "w"), (2, -3))
    rec = MoveRecord("collapse", ("a", 0, "v0", "v1", 2))
    assert repr(oe) == "OrientedEdge(edge='c1', end=0)" and str(oe) == repr(oe)
    assert repr(ed) == "EdgeData(endpoints=('v', 'w'), labels=(2, -3))"
    assert repr(rec) == "MoveRecord(kind='collapse', params=('a', 0, 'v0', 'v1', 2))"
    assert oe == OrientedEdge("c1", 0) and oe != OrientedEdge("c1", 1) and oe != ("c1", 0)
    assert ed == EdgeData(("v", "w"), (2, -3)) and ed != EdgeData(("v", "w"), (2, 3))
    assert rec == MoveRecord("collapse", ("a", 0, "v0", "v1", 2)) and rec != MoveRecord("collapse", ("a", 1, "v0", "v1", 2))
    assert OrientedEdge("c1", 1) < OrientedEdge("c2", 0) and OrientedEdge("c1", 0) < OrientedEdge("c1", 1)
    assert sorted([OrientedEdge("b", 1), OrientedEdge("a", 1), OrientedEdge("b", 0)]) == [
        OrientedEdge("a", 1), OrientedEdge("b", 0), OrientedEdge("b", 1)
    ]
    assert hash(oe) == hash(("c1", 0))
    assert hash(ed) == hash((("v", "w"), (2, -3)))
    assert hash(rec) == hash(("collapse", ("a", 0, "v0", "v1", 2)))
    assert len({oe, OrientedEdge("c1", 0), OrientedEdge("c1", 1)}) == 2
    g = segment_graph([2, -3])
    assert repr(g) == "LabelledGraph[s0:v0(2)-(-3)v1]" and repr(LabelledGraph(["v"], {})) == "LabelledGraph[v]"
    assert hash(g) == hash(parse_graph(g.to_text())) and len({g, parse_graph(g.to_text()), bs_graph(2, -3)}) == 2


def _decider_values():
    """One value of each decider type, with its pinned repr."""
    shape = classify_shape(segment_graph([2, 3]))
    report = RankReport(1, 1, frozenset({"v0"}), frozenset({frozenset({"v0"})}))
    return [
        (Decision(False, "condition 1", ("2/3 is not a power of 4/9",)),
         "Decision(answer=False, clause='condition 1', reasons=('2/3 is not a power of 4/9',), caveat=False)"),
        (shape,
         "Shape(kind='segment', seg_vertices=('v0', 'v1'), seg_edges=(OrientedEdge(edge='s0', end=0),), q=(2,), "
         "r=(3,), circ_vertices=(), circ_edges=(), x=(), y=(), base_meets_all_plateaus=True)"),
        (Plateau(2, frozenset({"v0"})), "Plateau(prime=2, vertices=frozenset({'v0'}))"),
        (report, "RankReport(beta=1, mu=1, hitting_set=frozenset({'v0'}), plateau_sets=frozenset({frozenset({'v0'})}))"),
        (TwoGenWitness(report, shape), f"TwoGenWitness(rank={report!r}, shape={shape!r})"),
        (SourceSet("segment", 2, 3), "SourceSet(kind='segment', Q=2, R=3, QX=None, QY=None)"),
        (MinimalSource((2, 3), None), "MinimalSource(unique=(2, 3), pair=None)"),
        (IntLattice(2, ((1, 0),)), "IntLattice(ncols=2, basis=((1, 0),))"),
    ]


def test_decider_values_keep_their_repr_equality_and_hash():
    """The eight value types that were frozen dataclasses compare, hash and
    print as they did: by their field tuple."""
    for value, pinned in _decider_values():
        fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
        twin = type(value)(*fields)
        assert repr(value) == pinned and str(value) == pinned
        assert value == twin and not value != twin and value is not twin
        assert value != fields and value != dataclasses.replace(value, **{dataclasses.fields(value)[0].name: None})
        assert hash(value) == hash(twin) == hash(fields)
        assert len({value, twin}) == 1
    no = Decision(False, "condition 1", ("2/3 is not a power of 4/9",))
    assert not no and Decision(True, "x")
    assert no.to_json() == {"answer": "no", "clause": "condition 1", "reasons": ["2/3 is not a power of 4/9"]}
    assert Decision(True, "c", caveat=True).to_json() == {"answer": "yes", "clause": "c", "caveat": True}
    assert Decision(True, "x") != (True, "x", (), False)
    assert RankReport(2, 1, frozenset(), ()).rank == 3


def test_no_gbs_dataclass_is_frozen():
    """Value types are immutable by convention, not frozen: on Python 3.11 a
    frozen dataclass sets each field through object.__setattr__, so a 4-field
    Decision cost 1.4 us to build against 0.24 us as a slots dataclass
    (timeit, 2 cores, Python 3.11.7); with the decider values frozen,
    embed_grid's median criterion-3 decision took 3.13 us, against 2.25."""
    frozen = []
    for info in pkgutil.iter_modules(gbs.__path__, "gbs."):
        module = importlib.import_module(info.name)
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                if cls.__dataclass_params__.frozen:
                    frozen.append(f"{module.__name__}.{name}")
    assert not frozen, frozen


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
    g2, _ = move(g, "sign-change", "vertex", g.sorted_vertices()[0])
    s2 = classify_shape(g2)
    if s2.kind != s.kind:
        return
    for a, b in ((s.Q, s2.Q), (s.R, s2.R), (s.X, s2.X), (s.Y, s2.Y)):
        if a is not None:
            assert abs(a) == abs(b)


def test_spanning_tree():
    g = lollipop_graph([6, 2], [3, 6])
    tree = spanning_tree(g)
    assert tree == frozenset({"s0"})
    assert spanning_tree(bs_graph(2, 3)) == frozenset()
    with pytest.raises(DisconnectedGraphError):
        spanning_tree(graph_from_edges([("e0", "a", "b", 2, 3)], extra_vertices=["c"]))


def _bfs_tree_reference(g):
    """The BFS that pops its queue from the front (quadratic in the vertex count)."""
    root = min(g.vertices, key=lambda v: (len(v), v))
    seen, order, queue = {root}, [], [root]
    while queue:
        v = queue.pop(0)
        for oe in g.edges_at(v):
            w = g.terminus(oe)
            if w not in seen:
                seen.add(w)
                order.append(oe)
                queue.append(w)
    return order if len(seen) == len(g.vertices) else None


@given(graphs(max_vertices=7, max_extra=4), st.sampled_from(["connected", "isolated vertex", "separate edge"]))
@settings(max_examples=200, deadline=None)
def test_bfs_tree_and_connectivity_match_the_popping_reference(g, extra):
    """`_bfs_tree` meets the same edges in the same order as the reference;
    the constructor's connectivity search (with no order) agrees with it on
    connectivity, refusing the graphs the reference misses a vertex of."""
    vertices, edges = g.vertices, g.edges
    if extra == "isolated vertex":
        vertices = vertices | {"z0"}
    elif extra == "separate edge":
        vertices, edges = vertices | {"z0", "z1"}, {**edges, "y0": EdgeData(("z0", "z1"), (2, 3))}
    unchecked = LabelledGraph.__new__(LabelledGraph)  # as _Work.graph builds one
    unchecked.vertices, unchecked.edges, unchecked._incidence = vertices, edges, None
    ref = _bfs_tree_reference(unchecked)
    assert (ref is not None) == (extra == "connected")
    if ref is None:
        with pytest.raises(DisconnectedGraphError, match="^graph is not connected$"):
            LabelledGraph(vertices, edges)
    else:
        assert _bfs_tree(g) == ref
        assert spanning_tree(g) == frozenset(oe.edge for oe in ref)


def test_connectivity_check_builds_no_incidence_index():
    """The constructor checks connectivity without the sorted incidence
    index, and `reduce_graph` does not build it either: the one-shot source
    graph never reads it again."""
    g = segment_graph([1, 2] * 30 + [2, 3])
    assert g._incidence is None
    red, recs = reduce_graph(g)
    assert len(recs) == 30 and len(red.edges) == 1
    assert g._incidence is None


@pytest.mark.parametrize(
    "g", [circle_graph([2, 3, 4, 9, 6, 10, 15, 2]), circle_graph([6, 6]), lollipop_graph([2, 3, 4, 9], [6, 10, 15, 2])]
)
def test_shape_walk_on_an_indexed_graph_builds_no_oriented_edge(monkeypatch, g):
    """The walk steps by the arriving edge's name and end: its edge ends are
    the incidence index's own, with no reversed copy to compare against."""
    g.edges_at(next(iter(g.vertices)))  # builds the index
    want = classify_shape(g)
    calls = count_calls(monkeypatch, [(OrientedEdge, "__init__")])
    shape = classify_shape(g)
    assert calls == {} and shape == want and shape.kind in ("circle", "lollipop")
    index = {id(oe) for oes in g._incidence.values() for oe in oes}
    assert all(id(oe) in index for oe in shape.seg_edges + shape.circ_edges)


def test_classify_shape_checks_connectivity_once(monkeypatch):
    """Connectivity is checked once, when the graph is built: neither
    classify_shape nor is_two_generated builds a graph."""
    g = circle_graph([2, 3, 5, 7, 3, 4])
    calls = count_graph_builds(monkeypatch)
    assert classify_shape(g).kind == "circle"
    assert calls == {}
    assert is_two_generated(g)[1].shape.kind == "circle"
    assert calls == {}


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
    assert g != g.to_text() and not g == 1
