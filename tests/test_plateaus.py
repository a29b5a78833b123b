import importlib
import random
from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, count_graph_builds, criterion_6_circles, graphs, small_connected_graph

from gbs.arith import coprime_base, factorize
from gbs.errors import InputError, NotReducedError, VertexCapError
from gbs.graphs import (
    Shape,
    bs_graph,
    circle_graph,
    classify_shape,
    graph_from_edges,
    id_key,
    lollipop_graph,
    reduce_graph,
    segment_graph,
)
from gbs.plateaus import (
    Plateau,
    RankReport,
    TwoGenWitness,
    is_two_generated,
    mu,
    plateau_family,
    plateaus,
)


# -- exhaustive oracle: every vertex subset, in mask order ---------------------


def _plateau_edges(g, p, subset):
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


def _is_plateau(g, p, subset):
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


def _plateaus_exhaustive(g, p):
    verts = g.sorted_vertices()
    n = len(verts)
    out = []
    for mask in range(1, 1 << n):
        subset = frozenset(verts[i] for i in range(n) if mask >> i & 1)
        if _is_plateau(g, p, subset):
            out.append(Plateau(p, subset))
    return out


# -- the factor-based plateau family and the coprimality facts, as oracles -----


def _label_primes_reference(g):
    primes = set()
    for l in g.labels():
        primes |= set(factorize(l))
    return sorted(primes)


def _plateau_family_reference(g):
    """The vertex sets of the whole graph and of the exhaustive p-plateaus of
    every label prime."""
    fam = {frozenset(g.vertices)}
    for p in _label_primes_reference(g):
        fam.update(pl.vertices for pl in _plateaus_exhaustive(g, p))
    return fam


def _check_copr_reference(shape):
    """The coprimality facts that 2-generation forces on a shape, by a prime
    loop over R; an empty list means none is violated."""
    out = []
    for j in range(1, shape.k):  # paper's q_j, 1 <= j <= k-1
        for i in range(1, j + 1):  # paper's r_i
            if gcd(shape.q[j], shape.r[i - 1]) != 1:
                out.append(f"gcd(q_{j}, r_{i}) = {gcd(shape.q[j], shape.r[i - 1])} > 1")
    if shape.kind in ("circle", "lollipop"):
        for j in range(1, shape.ell):
            for i in range(1, j + 1):
                if gcd(shape.x[j], shape.y[i - 1]) != 1:
                    out.append(f"gcd(x_{j}, y_{i}) = {gcd(shape.x[j], shape.y[i - 1])} > 1")
        for p in factorize(shape.R):
            divides_x, divides_y = shape.X % p == 0, shape.Y % p == 0
            if divides_x == divides_y:
                side = "both of" if divides_x else "neither of"
                out.append(f"prime {p} of R divides {side} X and Y")
    return out


def _mu_reference(g, family=plateau_family):
    """The full search: every vertex combination, smallest size first."""
    sets = frozenset(family(g))
    verts = g.sorted_vertices()
    for size in range(1, len(verts) + 1):
        for combo in combinations(verts, size):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return RankReport(g.betti(), size, frozenset(chosen), sets)
    raise AssertionError


@given(graphs(max_vertices=6, max_extra=3, max_label=12), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=300, deadline=None)
def test_plateaus_match_exhaustive_oracle(g, p):
    assert plateaus(g, p) == _plateaus_exhaustive(g, p)


@given(graphs(max_vertices=12, max_extra=3, max_label=12))
@settings(max_examples=150, deadline=None)
def test_mu_matches_full_search(g):
    g, _ = reduce_graph(g)
    assert mu(g) == _mu_reference(g)


@pytest.mark.parametrize("p", [0, 1, -2])
def test_plateaus_reject_p_below_two(p):
    with pytest.raises(InputError):
        plateaus(segment_graph([2, 3]), p)


def test_terminal_vertex_plateau():
    g = segment_graph([2, 3])
    assert any(p.vertices == frozenset({"v0"}) for p in plateaus(g, 2))
    assert any(p.vertices == frozenset({"v1"}) for p in plateaus(g, 3))


def test_whole_graph_plateau_for_inert_prime():
    g = segment_graph([2, 3])
    found = plateaus(g, 11)
    assert [p.vertices for p in found] == [frozenset({"v0", "v1"})]


def test_interior_plateau():
    # q = (2, 3), r = (3, 2): {v1} is a 3-plateau bounded by labels 3
    g = segment_graph([2, 3, 3, 2])
    assert any(p.vertices == frozenset({"v1"}) for p in plateaus(g, 3))
    ok, witness = is_two_generated(g)
    assert not ok and witness.rank.rank == 3


def test_mu_examples():
    assert mu(bs_graph(2, 3)).rank == 2
    report = mu(segment_graph([2, 3]))
    assert report.beta == 0 and report.mu == 2 and report.rank == 2
    for n in (1, 2, 3):
        assert mu(lollipop_graph([6, 2**n], [3, 6])).rank == 2


def test_mu_rejects_nonreduced():
    with pytest.raises(NotReducedError):
        mu(segment_graph([1, 5]))


def test_vertex_cap(monkeypatch):
    monkeypatch.setenv("GBS_TOOLKIT_MAX_VERTICES", "2")
    with pytest.raises(VertexCapError):
        mu(segment_graph([2, 3, 5, 7, 11, 13]))


def _circle_labels(ell):
    return [(2, 3, 5, 7, 6, 10)[j % 6] for j in range(2 * ell)]


def test_large_circle_needs_no_cap(monkeypatch):
    # only the mu search is capped: plateaus and shape are linear
    monkeypatch.setenv("GBS_TOOLKIT_MAX_VERTICES", "2")
    g = circle_graph(_circle_labels(1000))
    assert len(plateaus(g, 2)) > 1
    shape = classify_shape(g)
    assert shape.kind == "circle" and shape.ell == 1000


@pytest.mark.parametrize(
    "labels",
    [
        _circle_labels(3),
        _circle_labels(6),
        [10, 6, 5, 10, 15, 3],
        [15, 7, 5, 6, 5, 10, 7, 7, 10, 2],
        [3, 2, 15, 3, 6, 2, 5, 7],
    ],
)
def test_circle_base_matches_oracle_family(labels):
    g = circle_graph(labels)
    family = [frozenset(g.vertices)]
    for p in _label_primes_reference(g):
        family += [pl.vertices for pl in _plateaus_exhaustive(g, p)]
    meeting = set(g.vertices).intersection(*family)
    shape = classify_shape(g)
    assert shape.kind == "circle"
    assert shape.base_meets_all_plateaus == bool(meeting)
    if meeting:
        assert shape.circ_vertices[0] == min(meeting, key=id_key)


def _mu_alternate(g):
    """Independent recomputation: plateau sets from the family, hitting sets
    searched over reversed vertex order."""
    sets = plateau_family(g)
    verts = list(reversed(g.sorted_vertices()))
    for size in range(1, len(verts) + 1):
        for combo in combinations(verts, size):
            if all(set(combo) & s for s in sets):
                return size
    raise AssertionError


@given(graphs(max_label=6))
@settings(max_examples=40, deadline=None)
def test_mu_enumeration_order_irrelevant(g):
    if not g.is_reduced():
        return
    assert mu(g).mu == _mu_alternate(g)


@given(graphs(max_label=6))
@settings(max_examples=40, deadline=None)
def test_two_generated_implies_coprimality_facts(g):
    if not g.is_reduced():
        return
    ok, witness = is_two_generated(g)
    if ok and witness.shape.kind != "other":
        assert _check_copr_reference(witness.shape) == []


def test_coprimality_oracle_literal_arrays():
    # literal circle numbering x=[2,3], y=[3,5]: shared prime 3
    shape = Shape("circle", circ_vertices=("w0", "w1"), circ_edges=((None, 0), (None, 0)), x=(2, 3), y=(3, 5))
    assert _check_copr_reference(shape)
    # two-edge lollipop with Q=6, R=4, X=3, Y=6: prime 2 divides R and Y only
    shape2 = Shape(
        "lollipop",
        seg_vertices=("v0", "w0"),
        seg_edges=((None, 0),),
        q=(6,),
        r=(4,),
        circ_vertices=("w0",),
        circ_edges=((None, 0),),
        x=(3,),
        y=(6,),
    )
    assert _check_copr_reference(shape2) == []
    # R = 6 with X = 2, Y = 3: each prime of R divides exactly one
    shape3 = Shape(
        "lollipop",
        seg_vertices=("v0", "w0"),
        seg_edges=((None, 0),),
        q=(5,),
        r=(6,),
        circ_vertices=("w0",),
        circ_edges=((None, 0),),
        x=(2,),
        y=(3,),
    )
    assert _check_copr_reference(shape3) == []
    # prime of R dividing neither
    shape4 = Shape(
        "lollipop",
        seg_vertices=("v0", "w0"),
        seg_edges=((None, 0),),
        q=(2,),
        r=(3,),
        circ_vertices=("w0",),
        circ_edges=((None, 0),),
        x=(5,),
        y=(7,),
    )
    assert _check_copr_reference(shape4)


def test_bil_two_generation_parity():
    for gamma, expect in ((3, True), (2, False), (5, True), (4, False)):
        g = graph_from_edges(
            [("e0", "w0", "w1", 2, 2), ("e1", "w1", "w0", gamma, 2)]
        )
        ok, _ = is_two_generated(g)
        assert ok == expect


@given(graphs(max_vertices=6, max_extra=3, max_label=30))
@settings(max_examples=200, deadline=None)
def test_plateau_family_and_mu_match_prime_oracle(g):
    assert plateau_family(g) == _plateau_family_reference(g)
    g, _ = reduce_graph(g)
    assert mu(g) == _mu_reference(g, _plateau_family_reference)


def test_composite_p_gives_the_plateaus_of_its_primes():
    g = segment_graph([6, 35, 36, 5])  # the labels' coprime base is [5, 6, 7]
    for p in (2, 3):
        assert [pl.vertices for pl in plateaus(g, 6)] == [pl.vertices for pl in plateaus(g, p)]
    # "6 divides" reads as sharing a prime with 6, so 4 and 9 both count
    assert [pl.vertices for pl in plateaus(segment_graph([4, 9]), 6)] == [{"v0"}, {"v1"}]


def _gcd_reading(g, p):
    """g with each label that shares a prime with p replaced by p and every
    other label by 1: its p-divisible labels are those that plateaus(g, p)
    reads as divisible, so the exhaustive oracle applies to a composite p."""
    rows = [(n, *ed.endpoints, *(p if gcd(l, p) > 1 else 1 for l in ed.labels)) for n, ed in g.edges.items()]
    return graph_from_edges(rows, extra_vertices=g.vertices)


def _differential_graphs():
    """Loops, one-vertex graphs, repeated and negative labels, and labels
    whose primes fall in different coprime-base elements, then 120 graphs
    of a fixed seed."""
    fixed = [
        graph_from_edges([], extra_vertices=["v0"]),
        bs_graph(6, -4),
        bs_graph(-2, 2),
        graph_from_edges([("e0", "v0", "v1", 6, 10), ("e1", "v1", "v2", 15, 35), ("x0", "v2", "v2", -6, 6),
                          ("x1", "v0", "v2", 35, -10), ("x2", "v1", "v1", 15, 21)]),
        segment_graph([6, 35, 36, 5]),
        segment_graph([2, 3, 3, 2]),
        circle_graph([6, 10, 15, 35, -6, 10]),
        circle_graph([4, 4, -4, 4]),
        lollipop_graph([2, -2], [4, 4, -6, 15]),
    ]
    rng = random.Random(34)
    return fixed + [small_connected_graph(rng, max_vertices=6, max_extra=3, max_label=36) for _ in range(120)]


def test_plateau_search_matches_oracles_on_fixed_graphs():
    for g in _differential_graphs():
        assert plateau_family(g) == _plateau_family_reference(g), g
        for p in (2, 3, 5, 7):
            assert plateaus(g, p) == _plateaus_exhaustive(g, p), (g, p)  # list order too
        for p in (6, 10, 15, 35, 210):
            assert plateaus(g, p) == _plateaus_exhaustive(_gcd_reading(g, p), p), (g, p)


@st.composite
def circles_and_lollipops(draw):
    label = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15, 18, 21, 30, -2, -3, -6])
    ell = draw(st.integers(1, 3))
    x_y = draw(st.lists(label, min_size=2 * ell, max_size=2 * ell))
    if draw(st.booleans()):
        return circle_graph(x_y)
    k = draw(st.integers(1, 2))
    return lollipop_graph(draw(st.lists(label, min_size=2 * k, max_size=2 * k)), x_y)


@given(circles_and_lollipops())
@settings(max_examples=300, deadline=None)
def test_circle_base_matches_prime_oracle(g):
    shape = classify_shape(g)
    if shape.kind == "circle":
        meeting = set(g.vertices).intersection(*_plateau_family_reference(g))
        assert shape.base_meets_all_plateaus == bool(meeting)
        if meeting:
            assert shape.circ_vertices[0] == min(meeting, key=id_key)


# -- the circle base: one component search, stopped once no vertex meets all --


def _emptied_at(g):
    """The index of the coprime-base element whose plateaus (read through
    `plateaus`) leave no vertex meeting every plateau so far; None when
    some vertex meets them all."""
    meeting = set(g.vertices)
    for i, p in enumerate(coprime_base(g.labels())):
        for pl in plateaus(g, p):
            meeting &= pl.vertices
        if not meeting:
            return i
    return None


@pytest.mark.parametrize("labels, emptied", [([2, 6, 15, 5], None), ([2, 6, 6, 10], 0), ([5, 10, 10, 15], 2)])
def test_circle_base_stops_where_the_meeting_set_empties(monkeypatch, labels, emptied):
    g = circle_graph(labels)
    base = coprime_base(g.labels())
    assert base == [2, 3, 5] and _emptied_at(g) == emptied
    counts = [len(plateaus(g, p)) for p in base]  # [1, 1, 1], [2, 1, 0] and [1, 0, 2]
    mod = importlib.import_module("gbs.plateaus")  # the package's `plateaus` is the function
    search, pulled = mod._components, []

    def counted(*args):
        for s in search(*args):
            pulled.append(s)
            yield s

    family = tuple(plateau_family(g))
    monkeypatch.setattr(mod, "_components", counted)
    shape = classify_shape(g)
    assert shape == classify_shape(g, _plateau_sets=family)  # every field
    assert shape.base_meets_all_plateaus == (emptied is None)
    if emptied is None:
        assert len(pulled) == sum(counts)
    else:  # it stops within the element that empties the meeting set
        assert sum(counts[:emptied]) < len(pulled) <= sum(counts[: emptied + 1])
    if emptied == 0:  # the third plateau, the 3-plateau, is never searched for
        assert len(pulled) < sum(counts)


def test_circle_shape_is_the_same_with_and_without_the_family():
    rng, flags = random.Random(35), Counter()
    pool = (1, -1, 2, 3, 4, 5, 6, 9, 10, 15, -6, 35)
    for _ in range(400):
        g = circle_graph([rng.choice(pool) for _ in range(2 * rng.randint(1, 8))])
        shape = classify_shape(g)
        assert shape == classify_shape(g, _plateau_sets=tuple(plateau_family(g))), g  # every field
        flags[shape.base_meets_all_plateaus] += 1
    assert min(flags[True], flags[False]) > 50, flags


def test_rank_above_the_factor_cap():
    p = 10**12 + 39  # a prime above the default factorization cap
    report = mu(segment_graph([p, 6]))
    assert (report.beta, report.mu, report.rank) == (0, 2, 2)


# -- the 2-generation test builds the plateau family once ----------------------


def _is_two_generated_reference(g):
    """The double pass: mu and classify_shape each build the plateau family."""
    report = mu(g)
    shape = classify_shape(g)
    return report.rank <= 2, TwoGenWitness(report, shape)


def test_two_generation_matches_double_pass_on_criterion_6_circles():
    for _, _, _, g in criterion_6_circles():
        assert is_two_generated(g) == _is_two_generated_reference(g), g


@st.composite
def reduced_segments_circles_lollipops(draw):
    label = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15, 18, 21, 30, -2, -3, -6])
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        g = segment_graph(draw(st.lists(label, min_size=2 * k, max_size=2 * k)))
    else:
        g = draw(circles_and_lollipops())
    return reduce_graph(g)[0]


@given(reduced_segments_circles_lollipops())
@settings(max_examples=300, deadline=None)
def test_two_generation_matches_double_pass(g):
    # whole outputs: rank report (hitting set, plateau sets) and shape (base, flag)
    assert is_two_generated(g) == _is_two_generated_reference(g)


def test_two_generation_builds_one_plateau_family(monkeypatch):
    import sys

    mod = sys.modules["gbs.plateaus"]
    calls = count_calls(monkeypatch, [(mod, "plateau_family"), (mod, "mu"), (mod, "classify_shape")])
    g = circle_graph([4, 2, 3, 10])
    for _ in range(2):  # the second call on the same graph does the same work
        calls.clear()
        assert is_two_generated(g)[1].shape.kind == "circle"
        assert calls == {"plateau_family": 1, "mu": 1, "classify_shape": 1}


def test_mu_checks_connectivity_once(monkeypatch):
    """Connectivity is checked once, when the graph is built: mu builds no graph."""
    g = circle_graph([2, 3, 5, 7, 3, 4])
    calls = count_graph_builds(monkeypatch)
    report = mu(g)
    assert calls == {}
    assert report.beta == 1 and report.plateau_sets
