import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, random_letters, random_presentation, small_connected_graph

from gbs.errors import DisconnectedGraphError, InputError, MalformedWordError, WordCapError
from gbs.graphs import (
    OrientedEdge,
    bs_graph,
    circle_graph,
    graph_from_edges,
    lollipop_graph,
    segment_graph,
)
from gbs.words import (
    NormalForm,
    PathWord,
    Presentation,
    britton_reduce,
    equal,
    has_nontrivial_center,
    is_elliptic,
    is_unimodular,
    expand_letters,
    letters_concat,
    letters_inverse,
    letters_power,
    modular_image,
    modulus,
    parse_letters,
    format_letters,
    reduce_syllables,
    segment_center_index,
)


def _relator_word(g, pres):
    rels = pres.relations()
    return rels


def test_bs_relator_trivial():
    g = bs_graph(2, 3)
    pres = Presentation(g)
    for rel in pres.relations():
        assert britton_reduce(g, pres.letters_to_path(rel)).trivial


def test_classic_nonhopf_witness_words():
    g = bs_graph(2, 3)
    pres = Presentation(g)
    w = letters_concat(
        (("t", "e0", 1), ("v", "v0", 1), ("t", "e0", -1), ("v", "v0", 1)),
        (("t", "e0", 1), ("v", "v0", -1), ("t", "e0", -1), ("v", "v0", -1)),
    )
    assert not britton_reduce(g, pres.letters_to_path(w)).trivial


@pytest.mark.parametrize(
    "tree, base",
    [
        (None, None),
        (None, "zz"),
        ({"e0"}, None),  # too few edges
        ({"e0", "e1", "zz"}, None),  # an unknown edge
        ({"e0", "e1", "l0"}, None),  # enough edges, but they do not span
        ({"e0", "e1", "l0"}, "zz"),  # and an unknown base
    ],
)
def test_presentation_reports_a_disconnected_graph_first(tree, base):
    """A disconnected graph is refused when it is built, before any tree or
    base is read; a bad tree or base of a connected graph is an input error."""
    with pytest.raises(DisconnectedGraphError, match="^graph is not connected$"):
        Presentation(graph_from_edges([("e0", "a", "b", 2, 3), ("e1", "c", "d", 2, 3), ("l0", "c", "c", 1, 2)]), tree, base)
    connected = graph_from_edges([("e0", "a", "b", 2, 3), ("e1", "b", "c", 2, 3), ("e2", "c", "d", 2, 3), ("l0", "c", "c", 1, 2)])
    if tree is not None or base is not None:  # the same bad tree or base on a connected graph
        with pytest.raises(InputError):
            Presentation(connected, tree, base)


def _compute_geodesics_reference(pres):
    """Tree paths from the base, and their inverses, by breadth-first search
    over the graph's incidence index."""
    g = pres.graph
    geo, inv = {pres.base: ()}, {pres.base: ()}
    queue = [pres.base]
    while queue:
        v = queue.pop(0)
        for oe in g.edges_at(v):
            if oe.edge in pres.tree:
                w = g.terminus(oe)
                if w not in geo:
                    geo[w] = geo[v] + (("e", oe.edge, oe.end),)
                    inv[w] = (("e", oe.edge, 1 - oe.end),) + inv[v]
                    queue.append(w)
    return geo, inv


@given(graphs(max_vertices=7, max_extra=3), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=150, deadline=None)
def test_tree_paths_match_the_breadth_first_reference(g, seed):
    """The tree paths read from the tree's edges alone are the breadth-first
    ones, on random trees and bases and on the default presentation."""
    for pres in (Presentation(g), random_presentation(g, random.Random(seed))):
        assert pres.tree_paths() == _compute_geodesics_reference(pres)
        assert pres.generators() is pres.generators()


def test_lollipop_relation_a_power_equals_b_power():
    g = lollipop_graph([6, 16], [3, 6])  # Q=6, R=2^4
    pres = Presentation(g, frozenset({"s0"}))
    lhs = pres.letters_to_path((("v", "v0", 6),))
    rhs = pres.letters_to_path((("v", "w0", 16),))
    assert equal(g, lhs, rhs)
    assert not equal(g, pres.letters_to_path((("v", "v0", 1),)), pres.letters_to_path((("v", "v0", 2),)))


def test_malformed_words():
    g = bs_graph(2, 3)
    with pytest.raises(MalformedWordError):
        britton_reduce(g, PathWord("v0", (("e", "nope", 0),)))
    g2seg = segment_graph([2, 3])
    with pytest.raises(MalformedWordError):
        # a single traversal is not a loop on a segment
        britton_reduce(g2seg, PathWord("v0", (("e", "s0", 0),)))
    with pytest.raises(MalformedWordError):
        britton_reduce(g2seg, PathWord("v0", (("v", "v1", 2),)))
    for end in (2, -1):  # a traversal end is 0 or 1
        with pytest.raises(MalformedWordError):
            britton_reduce(g, PathWord("v0", (("e", "e0", end),)))
        with pytest.raises(MalformedWordError):
            britton_reduce(g, PathWord("v0", (("e", "e0", 0), ("e", "e0", end))))
    # base mismatch across multiplication
    g2 = segment_graph([2, 3])
    p0 = Presentation(g2, base="v0")
    p1 = Presentation(g2, base="v1")
    with pytest.raises(MalformedWordError):
        _ = p0.letters_to_path((("v", "v0", 1),)) * p1.letters_to_path((("v", "v1", 1),))
    # letters: a tree edge is no stable letter, "x" is no kind, and a zero power is skipped
    for letters in ((("t", "s0", 1),), (("x", "v0", 1),)):
        with pytest.raises(MalformedWordError):
            p0.letters_to_path(letters)
    assert p0.letters_to_path((("v", "v1", 0),)) == PathWord("v0", ())


# -- the two-pass kernel: a check, then a reduction ---------------------------


def check_well_formed(g, w):
    if w.base not in g.vertices:
        raise MalformedWordError(f"unknown base vertex {w.base}")
    edges = g.edges
    pos = w.base
    for syl in w.syllables:
        if syl[0] == "v":
            if syl[1] != pos:
                raise MalformedWordError(f"vertex power at {syl[1]} while at {pos}")
        elif syl[0] == "e":
            ed = edges.get(syl[1])
            if ed is None:
                raise MalformedWordError(f"unknown edge {syl[1]}")
            end = syl[2]
            if end not in (0, 1):
                raise MalformedWordError(f"traversal of {syl[1]} has end {end!r}, not 0 or 1")
            if ed.endpoints[end] != pos:
                raise MalformedWordError(f"traversal ({syl[1]}, {end}) does not start at {pos}")
            pos = ed.endpoints[1 - end]
        else:
            raise MalformedWordError(f"bad syllable {syl!r}")
    if pos != w.base:
        raise MalformedWordError("word is not a loop at its base vertex")


def _push_vertex(stack, v, exp):
    if exp == 0:
        return
    if stack and stack[-1][0] == "v" and stack[-1][1] == v:
        merged = stack[-1][2] + exp
        stack.pop()
        if merged:
            stack.append(("v", v, merged))
    else:
        stack.append(("v", v, exp))


def _reduce_syllables_reference(edges, syllables) -> tuple:
    """The pinch-free syllables of a path checked beforehand: one stack pass."""
    stack: list = []
    for syl in syllables:
        if syl[0] == "v":
            _push_vertex(stack, syl[1], syl[2])
            continue
        if stack:
            top = stack[-1]
            if top[0] == "e":
                prev, mid, depth = top, 0, 1
            elif len(stack) >= 2 and stack[-2][0] == "e":
                prev, mid, depth = stack[-2], top[2], 2
            else:
                prev = None
            if prev is not None and prev[1] == syl[1] and prev[2] == 1 - syl[2]:
                ed = edges[syl[1]]
                end = prev[2]
                far = ed.labels[1 - end]
                if mid % far == 0:
                    del stack[-depth:]
                    _push_vertex(stack, ed.endpoints[end], (mid // far) * ed.labels[end])
                    continue
        stack.append(syl)
    return tuple(stack)


def _two_pass_reduce(g, w):
    """check_well_formed, then the reduction: the kernel's oracle."""
    check_well_formed(g, w)
    return _reduce_syllables_reference(g.edges, w.syllables)


def _britton_reduce_reference(g, w):
    """The OrientedEdge pinch loop: an oracle for britton_reduce."""
    check_well_formed(g, w)
    stack = []
    for syl in w.syllables:
        if syl[0] == "v":
            _push_vertex(stack, syl[1], syl[2])
            continue
        cur = OrientedEdge(syl[1], syl[2])
        prev = None
        mid = 0
        if stack and stack[-1][0] == "e":
            prev = OrientedEdge(stack[-1][1], stack[-1][2])
            depth = 1
        elif len(stack) >= 2 and stack[-1][0] == "v" and stack[-2][0] == "e":
            prev = OrientedEdge(stack[-2][1], stack[-2][2])
            mid = stack[-1][2]
            depth = 2
        if prev is not None and prev == OrientedEdge(cur.edge, 1 - cur.end):
            far = g.colabel(prev)
            if mid % far == 0:
                del stack[-depth:]
                _push_vertex(stack, g.edges[prev.edge].endpoints[prev.end], (mid // far) * g.label(prev))
                continue
        stack.append(syl)
    return NormalForm(PathWord(w.base, tuple(stack)), not stack)


def _closed_walk(rng, g, base, steps):
    """A walk out of base and back along the same edges, with random vertex
    powers on both legs, so that some pinches apply and some do not."""
    labels = g.labels() or [1]
    out, pos = [], base
    for _ in range(steps if g.edges else 0):
        oe = rng.choice(g.edges_at(pos))
        if rng.random() < 0.5:
            out.append(("v", pos, rng.choice(labels) * rng.randint(-2, 2) or 1))
        out.append(("e", oe.edge, oe.end))
        pos = g.terminus(oe)
    back = PathWord(base, tuple(out)).inverse().syllables
    mixed = []
    for syl in back:
        mixed.append(syl)
        if syl[0] == "e" and rng.random() < 0.5:
            mixed.append(("v", g.terminus(OrientedEdge(syl[1], syl[2])), rng.choice(labels) * rng.randint(1, 2)))
    return PathWord(base, tuple(out) + tuple(mixed))


@given(graphs(max_extra=3), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=60, deadline=None)
def test_britton_reduce_matches_object_reference(g, seed):
    rng = random.Random(seed)
    pres = Presentation(g)
    rels = pres.relations()
    words = [pres.letters_to_path(random_letters(rng, pres, length=6)) for _ in range(3)]
    for _ in range(3):
        conj = random_letters(rng, pres, length=3)
        rel = rng.choice(rels) if rels else ()
        words.append(pres.letters_to_path(letters_concat(conj, rel, letters_inverse(conj))))
    words += [_closed_walk(rng, g, pres.base, rng.randint(1, 6)) for _ in range(3)]
    words.append(words[-1] * words[3] * words[0])
    for w in words:
        assert britton_reduce(g, w) == _britton_reduce_reference(g, w)


def _corrupt(rng, g, syls):
    """syls with one fault, or none: a vertex power at a random vertex, an
    unknown edge, end 2 or -1, a bad kind, a traversal from its other end,
    or the loop cut short."""
    syls = list(syls)
    fault = rng.randrange(7)
    if fault == 6 or not syls:
        return syls
    i = rng.randrange(len(syls))
    kind, name, x = syls[i]
    if fault == 0:
        syls.insert(i, ("v", rng.choice(g.sorted_vertices()), rng.choice((-2, 1, 3))))
    elif fault == 1:
        syls.insert(i, ("e", "nope", rng.randint(0, 1)))
    elif fault == 2 and kind == "e":
        syls[i] = (kind, name, rng.choice((2, -1)))
    elif fault == 3:
        syls[i] = (rng.choice(("t", "w", "")), name, x)
    elif fault == 4 and kind == "e":
        syls[i] = (kind, name, 1 - x)
    else:
        del syls[len(syls) - rng.randint(1, len(syls)) :]
    return syls


def _outcome(fn, *args):
    """fn's value, or the message of the MalformedWordError it raised."""
    try:
        return fn(*args)
    except MalformedWordError as exc:
        return str(exc)


MESSAGES = (  # check_well_formed's, by their first words
    "unknown base vertex",
    "vertex power at",
    "unknown edge",
    "traversal of",  # ... has end 2, not 0 or 1
    "traversal (",  # ... does not start at ...
    "bad syllable",
    "word is not a loop",
)


def test_one_pass_kernel_matches_the_two_pass_reference():
    """A seeded fuzz of 6,000 words, most with one fault, on circles (loops
    among them), segments, lollipops, BS graphs and random small graphs:
    the one-pass kernel gives the two-pass kernel's syllables, or the error
    message check_well_formed raised first."""
    rng = random.Random("one-pass kernel")
    labels = lambda n: [rng.choice((1, 2, 3, 4, 6, -1, -2, -3)) for _ in range(n)]
    seen = Counter()
    for i in range(6000):
        shape = i % 6
        if shape == 0:
            g = circle_graph(labels(2))  # a loop at one vertex
        elif shape == 1:
            g = circle_graph(labels(2 * rng.randint(2, 5)))
        elif shape == 2:
            g = segment_graph(labels(2 * rng.randint(1, 4)))
        elif shape == 3:
            g = lollipop_graph(labels(2 * rng.randint(1, 2)), labels(2 * rng.randint(1, 3)))
        elif shape == 4:
            g = bs_graph(*labels(2))
        else:
            g = small_connected_graph(rng, max_vertices=4, max_extra=2, max_label=6)
        pres = random_presentation(g, rng)
        if rng.random() < 0.3:
            w = _closed_walk(rng, g, pres.base, rng.randint(1, 6))
        else:
            conj = random_letters(rng, pres, length=4)
            core = rng.choice(pres.relations() or [random_letters(rng, pres)])
            w = pres.letters_to_path(letters_concat(conj, core, letters_inverse(conj), random_letters(rng, pres)))
        base = pres.base if i % 50 else "zz"  # an unknown base now and then
        w = PathWord(base, tuple(_corrupt(rng, g, w.syllables)))
        want = _outcome(_two_pass_reduce, g, w)
        assert _outcome(britton_reduce, g, w) == (
            want if type(want) is str else NormalForm(PathWord(base, want), not want)
        ), (g, w)
        if base != "zz":
            assert _outcome(reduce_syllables, g.edges, w.syllables, base) == want
        seen["well formed" if type(want) is not str else next(m for m in MESSAGES if want.startswith(m))] += 1
    assert seen["well formed"] >= 2000 and min(seen[m] for m in MESSAGES) >= 100, seen

def test_modulus_examples():
    g = bs_graph(4, 6)
    pres = Presentation(g)
    assert modulus(g, pres.letters_to_path((("t", "e0", 1),))) == Fraction(2, 3)
    assert modulus(g, pres.letters_to_path((("v", "v0", 5),))) == 1
    gp = lollipop_graph([6, 2], [3, 6])
    presp = Presentation(gp, frozenset({"s0"}))
    assert modulus(gp, presp.letters_to_path((("t", "c0", 1),))) == Fraction(1, 2)



def _modulus_reference(g, w):
    """The product over the unreduced path."""
    check_well_formed(g, w)
    out = Fraction(1)
    for syl in w.syllables:
        if syl[0] == "e":
            labels = g.edges[syl[1]].labels
            out *= Fraction(labels[1 - syl[2]], labels[syl[2]])
    return out


@given(graphs(max_extra=3), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=100, deadline=None)
def test_modulus_matches_the_product_over_the_unreduced_path(g, seed):
    """modulus reads the normal form; a pinch's two traversals cancel."""
    rng = random.Random(seed)
    pres = random_presentation(g, rng)
    words = [pres.letters_to_path(random_letters(rng, pres, length=8)) for _ in range(3)]
    words += [_closed_walk(rng, g, pres.base, rng.randint(1, 6)) for _ in range(2)]
    for w in words:
        assert modulus(g, w) == _modulus_reference(g, w)

def test_elliptic_examples():
    g = bs_graph(2, 3)
    pres = Presentation(g)
    assert is_elliptic(g, pres.letters_to_path((("v", "v0", 5),)))
    assert not is_elliptic(g, pres.letters_to_path((("t", "e0", 1),)))
    conj = pres.letters_to_path(
        (("t", "e0", 1), ("v", "v0", 1), ("t", "e0", -1))
    )
    assert is_elliptic(g, conj)
    assert not is_elliptic(
        g, pres.letters_to_path((("t", "e0", 2), ("v", "v0", 1), ("t", "e0", -1)))
    )


def _is_elliptic_reference(g, w):
    """The rescanning loop: each layer finds the outer traversals anew and
    Britton-reduces the whole middle again."""
    nf = britton_reduce(g, w)
    syls = list(nf.word.syllables)
    while True:
        traversal_idx = [i for i, s in enumerate(syls) if s[0] == "e"]
        if not traversal_idx:
            return True
        first_i, last_i = traversal_idx[0], traversal_idx[-1]
        first = OrientedEdge(syls[first_i][1], syls[first_i][2])
        last = OrientedEdge(syls[last_i][1], syls[last_i][2])
        lead = syls[0][2] if first_i == 1 else 0
        tail = syls[-1][2] if last_i == len(syls) - 2 else 0
        if first_i not in (0, 1) or last_i not in (len(syls) - 1, len(syls) - 2):
            raise AssertionError("reduced word has stray syllables")
        if first != OrientedEdge(last.edge, 1 - last.end) or (tail + lead) % g.colabel(last) != 0:
            return False
        wrap = ("v", g.edges[last.edge].endpoints[last.end], ((tail + lead) // g.colabel(last)) * g.label(last))
        middle = syls[first_i + 1 : last_i]
        syls = list(_reduce_syllables_reference(g.edges, tuple(middle) + (wrap,)))


def _elliptic_case(rng):
    """A presentation and a word: a conjugated vertex power, a conjugated
    relator, or a conjugated random word, on a BS, segment, circle,
    lollipop or random small graph."""
    labels = lambda n: [rng.choice((1, 2, 3, 4, 6, -2, -3)) for _ in range(n)]
    kind = rng.randrange(5)
    if kind == 0:
        g = bs_graph(*labels(2))
    elif kind == 1:
        g = segment_graph(labels(2 * rng.randint(1, 3)))
    elif kind == 2:
        g = circle_graph(labels(2 * rng.randint(1, 3)))
    elif kind == 3:
        g = lollipop_graph(labels(2 * rng.randint(1, 2)), labels(2 * rng.randint(1, 2)))
    else:
        g = small_connected_graph(rng, max_vertices=4, max_extra=2, max_label=6)
    pres = Presentation(g)
    conj = random_letters(rng, pres, length=5)
    shape = rng.randrange(3)
    if shape == 0:
        core = (("v", rng.choice(g.sorted_vertices()), rng.choice((1, 2, 3, 6, 12, -4))),)
    elif shape == 1 and pres.relations():
        core = rng.choice(pres.relations())
    else:
        core = random_letters(rng, pres, length=6)
    return g, pres.letters_to_path(letters_concat(conj, core, letters_inverse(conj)))


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=400, deadline=None)
def test_is_elliptic_matches_rescanning_reference(seed):
    g, w = _elliptic_case(random.Random(seed))
    assert is_elliptic(g, w) == _is_elliptic_reference(g, w)


def test_modular_image_examples():
    assert modular_image(segment_graph([2, 3])).is_trivial()
    assert modular_image(bs_graph(2, 4)).contains(Fraction(1, 2))
    g = graph_from_edges([("e0", "u", "w", 2, 2), ("e1", "w", "w", 1, -1)])
    img = modular_image(g)
    assert img.contains(Fraction(-1)) and img.is_subgroup_of_pm1()
    assert is_unimodular(g)


def test_unimodular_center():
    assert is_unimodular(bs_graph(3, 3)) and has_nontrivial_center(bs_graph(3, 3))
    assert not is_unimodular(bs_graph(2, 4))
    assert is_unimodular(bs_graph(2, -2)) and not has_nontrivial_center(bs_graph(2, -2))


def test_letters_round_trip_and_parse():
    g = lollipop_graph([6, 2], [3, 6])
    pres = Presentation(g, frozenset({"s0"}))
    letters = parse_letters("a(v0)^2 t(c0)^-1 a(w0)")
    path = pres.letters_to_path(letters)
    back = pres.path_to_letters(path.syllables)
    assert equal(g, path, pres.letters_to_path(back))
    assert parse_letters(format_letters(letters)) == letters


@pytest.mark.parametrize("text", ["a(v0)^x", "t(e0)^1.5", "a(v0)^", "a(v0) t(e0)^ a(v0)"])
def test_parse_letters_rejects_non_integer_exponents(text):
    with pytest.raises(InputError):
        parse_letters(text)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_britton_soundness_random(g):
    rng = random.Random(17)
    pres = Presentation(g)
    rels = pres.relations()
    if not rels:
        return
    word = ()
    for _ in range(3):
        rel = rng.choice(rels)
        conj = random_letters(rng, pres, length=2)
        if rng.random() < 0.5:
            rel = letters_inverse(rel)
        word = letters_concat(word, conj, rel, letters_inverse(conj))
    assert britton_reduce(g, pres.letters_to_path(word)).trivial


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_britton_confluence_triviality(g):
    """Reducing with the reversed syllable order preserves triviality and
    the traversal count."""
    rng = random.Random(23)
    pres = Presentation(g)
    w = pres.letters_to_path(random_letters(rng, pres, length=5))
    nf = britton_reduce(g, w)
    rev = britton_reduce(g, w.inverse())
    assert nf.trivial == rev.trivial
    assert [s[0] for s in nf.word.syllables].count("e") == [s[0] for s in rev.word.syllables].count("e")


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_modulus_homomorphism(g):
    rng = random.Random(5)
    pres = Presentation(g)
    w1 = pres.letters_to_path(random_letters(rng, pres))
    w2 = pres.letters_to_path(random_letters(rng, pres))
    assert modulus(g, w1 * w2) == modulus(g, w1) * modulus(g, w2)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_elliptic_implies_modulus_one(g):
    rng = random.Random(7)
    pres = Presentation(g)
    w = pres.letters_to_path(random_letters(rng, pres))
    if is_elliptic(g, w):
        assert modulus(g, w) == 1


# -- gcd-chain center index ----------------------------------------------------


def _center_index_oracle(r0, q, r):
    """Minimal N >= 1 such that a_0^(r0 N) transports along the whole chain."""
    bound = 1
    for v in q:
        bound *= abs(v)
    for N in range(1, bound + 1):
        x = r0 * N
        ok = True
        for j in range(len(q)):
            if x % q[j]:
                ok = False
                break
            x = (x // q[j]) * r[j]
        if ok:
            return N
    raise AssertionError("oracle found no index within the guaranteed bound")


def test_center_index_examples():
    assert segment_center_index(4, [6], [10]) == 3  # q0 / gcd(r0, q0)
    assert segment_center_index(1, [2, 3], [5, 7]) == 6  # coprime: product of q
    assert segment_center_index(1, [2], [3]) == 2
    for args in ((0, [2], [3]), (1, [2, 0], [3, 5]), (1, [2], [3, 5])):  # a zero, or unequal lengths
        with pytest.raises(InputError):
            segment_center_index(*args)


def test_center_index_against_oracle(rng):
    for _ in range(300):
        k = rng.randint(1, 5)
        q = [rng.choice([1, -1]) * rng.randint(1, 20) for _ in range(k)]
        r = [rng.choice([1, -1]) * rng.randint(1, 20) for _ in range(k)]
        r0 = rng.choice([1, -1]) * rng.randint(1, 20)
        assert segment_center_index(r0, q, r) == _center_index_oracle(r0, q, r)


def test_center_index_power_assertion():
    # all labels exactly divisible by p^alpha, r0 = 1: same for N
    p, alpha = 2, 2
    q = [p**alpha * u for u in (3, 5)]
    r = [p**alpha * u for u in (7, 9)]
    n = segment_center_index(1, q, r)
    assert n % p**alpha == 0 and n % p ** (alpha + 1) != 0


def test_center_index_matches_group_membership():
    # wt2(1): a_0^(q0 q1) = a_2^(r1 r2) holds in the group
    g = segment_graph([4, 6, 9, 10])
    pres = Presentation(g)
    lhs = pres.letters_to_path((("v", "v0", 4 * 9),))
    rhs = pres.letters_to_path((("v", "v2", 6 * 10),))
    assert equal(g, lhs, rhs)


def test_britton_against_affine_oracle(rng):
    """Over the solvable loop (1, n) the group acts faithfully by exact
    affine maps x -> alpha x + beta: an independent word-problem oracle."""
    for n in (2, 3, -2, 5):
        g = bs_graph(1, n)
        pres = Presentation(g)
        for _ in range(200):
            letters = random_letters(rng, pres, length=5, max_exp=3)
            # accumulate f(x) = alpha x + beta, appending letters on the right:
            # a^e maps x to x + e, t^e scales by n^e (t a t^-1 = a^n)
            alpha, beta = Fraction(1), Fraction(0)
            for kind, name, exp in letters:
                if kind == "v":
                    beta += alpha * exp
                else:
                    alpha *= Fraction(n) ** exp
            trivial = britton_reduce(g, pres.letters_to_path(letters)).trivial
            assert trivial == (alpha == 1 and beta == 0), (n, letters)


def test_moves_preserve_group_invariants(rng):
    """Collapses and sign changes keep the modular image and its flags."""
    from conftest import same_group, small_connected_graph
    from gbs.graphs import move, reduce_graph

    for _ in range(30):
        g = small_connected_graph(rng, max_vertices=4, max_label=6)
        red, _ = reduce_graph(g)
        before, after = modular_image(g), modular_image(red)
        assert same_group(before, after)
        assert is_unimodular(g) == is_unimodular(red)
        flipped, _ = move(g, "sign-change", "vertex", g.sorted_vertices()[0])
        assert same_group(modular_image(flipped), before)


def test_transport_identity_random_segments(rng):
    # a_0^(q_0...q_{j-1}) = a_j^(r_1...r_j) along random segments
    for _ in range(40):
        k = rng.randint(1, 4)
        labels = []
        for _ in range(k):
            labels.append(rng.choice([1, -1]) * rng.randint(1, 9))
            labels.append(rng.choice([1, -1]) * rng.randint(1, 9))
        g = segment_graph(labels)
        pres = Presentation(g)
        q = labels[0::2]
        r = labels[1::2]
        for j in range(1, k + 1):
            qprod = 1
            rprod = 1
            for i in range(j):
                qprod *= q[i]
                rprod *= r[i]
            lhs = pres.letters_to_path((("v", "v0", qprod),))
            rhs = pres.letters_to_path((("v", f"v{j}", rprod),))
            assert equal(g, lhs, rhs)


# -- shared subword powers ----------------------------------------------------


def letters_power_reference(letters, exp):
    """The eager power: the word written out |exp| times."""
    if exp == 0:
        return ()
    if len(letters) == 1:
        k, n, e = letters[0]
        return ((k, n, e * exp),)
    base = letters if exp > 0 else letters_inverse(letters)
    return letters_concat(*([base] * abs(exp)))


def test_letters_power_shares_the_word():
    word = (("v", "v0", 2), ("t", "e0", 1))
    (letter,) = letters_power(word, -3)
    assert letter[0] == "w" and letter[1] is word and letter[2] == -3
    assert letters_power(word, 1) == word and letters_power(word, -1) == letters_inverse(word)
    assert letters_power((letter,), 2) == (("w", word, -6),)
    assert expand_letters((letter,)) == letters_power_reference(word, -3)


def test_letters_power_keeps_the_conjugator_flat():
    t, t_inv = ("t", "e0", 1), ("t", "e0", -1)
    # a conjugate of one letter: its power is as short as the word
    assert letters_power((t, ("v", "v0", 2), t_inv), 5) == (t, ("v", "v0", 10), t_inv)
    word = (t, ("v", "v0", 2), ("v", "w0", 1), t_inv)
    got = letters_power(word, -3)
    assert got[0] == t and got[2] == t_inv and got[1][0] == "w" and got[1][2] == -3
    assert got[1][1] == word[1:3]
    assert expand_letters(got) == letters_power_reference(word, -3)


def test_shared_subwords_merge_only_when_identical():
    word = (("v", "v0", 2), ("t", "e0", 1))
    twin = (word[0], word[1])  # equal, another object
    assert twin == word and twin is not word
    assert letters_concat((("w", word, 2),), (("w", word, 3),)) == (("w", word, 5),)
    assert letters_concat((("w", word, 2),), (("w", word, -2),)) == ()
    assert len(letters_concat((("w", word, 2),), (("w", twin, 3),))) == 2


@st.composite
def compressed_words(draw):
    """A word built by random products, inverses and powers from random
    reduced words, and the same word built by the eager operations."""
    rng = random.Random(draw(st.integers(0, 2**30)))
    pool = []
    for _ in range(draw(st.integers(1, 12))):
        op = rng.random()
        if op < 0.35 or len(pool) < 2:
            word = letters_concat(
                [
                    (rng.choice("vt"), rng.choice(("x", "y")), rng.choice((-2, -1, 1, 2, 3)))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            pool.append((word, word))
        elif op < 0.6:
            (a, fa), (b, fb) = rng.choice(pool), rng.choice(pool)
            pool.append((letters_concat(a, b), letters_concat(fa, fb)))
        elif op < 0.7:
            a, fa = rng.choice(pool)
            pool.append((letters_inverse(a), letters_inverse(fa)))
        else:
            k = rng.choice((-3, -2, -1, 2, 3, 4))
            a, fa = rng.choice(pool)
            pool.append((letters_power(a, k), letters_power_reference(fa, k)))
    return pool[-1]


@given(compressed_words())
@settings(max_examples=300, deadline=None)
def test_expand_letters_matches_eager_operations(pair):
    word, flat = pair
    assert expand_letters(word) == flat


@given(compressed_words())
@settings(max_examples=100, deadline=None)
def test_letters_to_path_expands_shared_subwords(pair):
    g = graph_from_edges([("e", "x", "y", 2, 3), ("t", "x", "x", 5, 7), ("f", "y", "x", 4, 6)])
    pres = Presentation(g, frozenset({"e"}))
    word, flat = pair
    rename = {("v", "x"): "x", ("v", "y"): "y", ("t", "x"): "t", ("t", "y"): "f"}

    def on_graph(w):
        return tuple(
            ("w", on_graph(n), e) if k == "w" else (k, rename[(k, n)], e) for k, n, e in w
        )

    assert equal(g, pres.letters_to_path(on_graph(word)), pres.letters_to_path(on_graph(flat)))


def test_word_expansion_is_capped_before_allocating():
    w0 = (("v", "v0", 1), ("t", "e0", 1))
    w2 = letters_power((("w", w0, 100000), ("v", "v0", 1)), 100000)
    with pytest.raises(WordCapError):
        expand_letters(w2)
    pres = Presentation(bs_graph(2, 3))
    with pytest.raises(WordCapError):
        pres.letters_to_path((("t", "e0", 10**8),))
    with pytest.raises(WordCapError):
        pres.letters_to_path(w2)


def test_shared_subwords_format_and_parse():
    table = [parse_letters("a(v0) t(e0)")]
    table.append(parse_letters("w0^3 a(v0)^-1", table))
    word = parse_letters("t(e0) w1^-2 w0", table)
    assert word[1] == ("w", table[1], -2) and word[1][1][0][1] is table[0]
    names = {id(sub): f"w{i}" for i, sub in enumerate(table)}
    assert format_letters(word, lambda sub: names[id(sub)]) == "t(e0) w1^-2 w0"
    for text in ("w1", "w0 w7", "w-1", "w", "wx"):
        with pytest.raises(InputError):
            parse_letters(text, table[:1])


# -- pinned normal forms ------------------------------------------------------

NF_QUERIES, NF_DIGEST = 2000, "bed956c8df54aeddf2860123a5fee3adc35736a7d5dfe6cb4e99dda09b2395af"


def _normal_form_queries():
    """2,000 seeded queries on graph_scale-like shapes: circles and lollipops
    of 2-12 vertices, and one-vertex circles (loops), with the graph_scale
    labels, each on a random tree and base.  A query is a conjugated relator,
    a conjugated vertex power or a random word, times a random word."""
    rng = random.Random("normal forms")
    labels = lambda n: [rng.choice((2, 3, 4, 6, 9, 10, 15, -2, -3)) for _ in range(n)]
    pool = []
    for v in range(1, 13):
        pool.append(circle_graph(labels(2 * v)))
        if v > 1:
            k = rng.randint(1, v - 1)
            pool.append(lollipop_graph(labels(2 * k), labels(2 * (v - k))))
    pool = [random_presentation(g, rng) for g in pool]
    for i in range(NF_QUERIES):
        pres = pool[i % len(pool)]
        conj = random_letters(rng, pres, length=4)
        kind = i % 3
        if kind == 0:
            core = rng.choice(pres.relations())
        elif kind == 1:
            core = (("v", rng.choice(pres.graph.sorted_vertices()), rng.choice((-6, -3, -2, 1, 2, 4, 9))),)
        else:
            core = random_letters(rng, pres, length=5)
        tail = random_letters(rng, pres, length=3)
        w1 = letters_concat(conj, core, letters_inverse(conj), tail if rng.random() < 0.5 else ())
        yield pres, pres.letters_to_path(w1), pres.letters_to_path(tail)


def test_normal_forms_match_pinned_digest():
    """`britton_reduce` syllables and triviality, `equal`, `is_elliptic` and
    `modulus`, pinned: the certificate digests never cover a normal form, and
    `gbs word reduce` prints them."""
    digest, count = hashlib.sha256(), 0
    for pres, w1, w2 in _normal_form_queries():
        g = pres.graph
        nf = britton_reduce(g, w1)
        row = (nf.word.base, nf.word.syllables, nf.trivial, equal(g, w1, w2), is_elliptic(g, w1), str(modulus(g, w1)))
        digest.update(repr(row).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (NF_QUERIES, NF_DIGEST)
