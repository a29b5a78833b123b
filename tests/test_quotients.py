import hashlib
import random
import re
import sys
import time
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings

from conftest import count_calls, count_graph_builds, criterion_6_circles
from gbs import arith, quotients
from gbs.arith import factorize, gcd
from gbs.decision import Decision
from gbs.errors import DecisionError, ElementaryGroupError, GBSError, InputError, NotReducedError, ShapeError
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
from gbs.homs import check_epi, bs_source_epi, minimal_bs_epi
from gbs.plateaus import is_two_generated, mu
from test_graphs import _shape_graphs
from test_plateaus import reduced_segments_circles_lollipops
from gbs.bs_arith import exists_epi_bs
from gbs.quotients import (
    bs_sources,
    descending_chain,
    epi_equivalent_bs,
    exists_bs_quotient,
    finitely_many_quotients,
    infinite_family,
    is_large,
    is_quotient_of_bs,
    is_rf_gbs,
    maps_onto_minimal_bs,
    minimal_bs_source,
    quotient_rigidity,
)

GRID = [i for i in range(-10, 11) if i != 0]


def test_sources_segment():
    g = segment_graph([2, 3])
    src = bs_sources(g)
    assert src.contains(2, 2) and src.contains(3, 3) and src.contains(-4, -4)
    assert not src.contains(5, 5) and not src.contains(2, 3)


def test_sources_lollipop():
    g = lollipop_graph([6, 2], [3, 6])
    src = bs_sources(g)
    assert src.contains(18, 36) and src.contains(36, 18) and src.contains(-36, -72)
    assert not src.contains(18, 35) and not src.contains(9, 18)


def test_sources_exclusions():
    with pytest.raises(ElementaryGroupError):
        bs_sources(graph_from_edges([], extra_vertices=["v"]))  # Z
    with pytest.raises(ElementaryGroupError):
        bs_sources(bs_graph(1, -1))  # K as a loop
    with pytest.raises(ElementaryGroupError):
        bs_sources(segment_graph([2, 2]))  # K as a segment
    with pytest.raises(NotReducedError):
        bs_sources(segment_graph([1, 5]))
    with pytest.raises(DecisionError):
        bs_sources(segment_graph([2, 3, 3, 2]))  # rank 3
    # Z^2 is allowed
    assert bs_sources(bs_graph(1, 1)).contains(5, 5)


def test_minimal_source():
    assert minimal_bs_source(lollipop_graph([6, 2], [3, 6])).unique == (18, 36)
    assert minimal_bs_source(bs_graph(4, 6)).unique == (4, 6)
    pair = minimal_bs_source(segment_graph([2, 3])).pair
    assert pair == ((2, 2), (3, 3))


def test_maps_onto_examples():
    assert not maps_onto_minimal_bs(lollipop_graph([6, 2], [3, 6]))
    assert maps_onto_minimal_bs(lollipop_graph([2, 5], [5, 7]))
    assert maps_onto_minimal_bs(lollipop_graph([3, 5], [6, 10]))
    g = graph_from_edges([("e1", "u", "w", 3, 3), ("e2", "w", "u", 2, 4)])
    assert not maps_onto_minimal_bs(g)
    with pytest.raises(ShapeError):
        maps_onto_minimal_bs(segment_graph([2, 3]))


def test_maps_onto_two_edge_lollipop_gcd_statement():
    # k = l = 1: onto BS(QX, QY) iff one of the three gcds is 1
    from gbs.arith import gcd

    rng = random.Random(2)
    for _ in range(200):
        Q, R, X, Y = (rng.randint(2, 9) for _ in range(4))
        g = lollipop_graph([Q, R], [X, Y])
        if not g.is_reduced():
            continue
        from gbs.plateaus import is_two_generated

        ok, _ = is_two_generated(g)
        if not ok:
            continue
        want = gcd(X, Q * Y) == 1 or gcd(Y, Q * X) == 1 or gcd(Q, R) == 1
        assert maps_onto_minimal_bs(g).answer == want, (Q, R, X, Y)


def test_epi_equivalent():
    assert epi_equivalent_bs(bs_graph(2, 3)) == (2, 3)
    assert epi_equivalent_bs(segment_graph([2, 3])) is None
    assert epi_equivalent_bs(lollipop_graph([6, 2], [3, 6])) is None
    got = epi_equivalent_bs(lollipop_graph([2, 5], [5, 7]))
    assert got == (10, 14)
    with pytest.raises(NotReducedError):
        epi_equivalent_bs(segment_graph([1, 5]))


def test_finitely_many_clauses():
    assert "(d)" in finitely_many_quotients(2, 4).clause
    assert "(c)" in finitely_many_quotients(3, -3).clause
    assert "(b)" in finitely_many_quotients(2, 6).clause
    assert "(a)" in finitely_many_quotients(3, 5).clause
    assert not finitely_many_quotients(4, 6)
    assert not finitely_many_quotients(2, 2)
    for decider in (finitely_many_quotients, quotient_rigidity):
        for m, n in ((0, 3), (3, 0)):
            with pytest.raises(DecisionError, match="parameters must be nonzero"):
                decider(m, n)


def test_finitely_many_28_is_finite():
    # |m| prime and m != n fires for (2, 8)
    assert finitely_many_quotients(2, 8)
    with pytest.raises(DecisionError):
        infinite_family(2, 8)


def test_rigidity():
    assert quotient_rigidity(1, 7) == "all_noncyclic_iso"
    assert quotient_rigidity(2, 6) == "all_nonsolvable_iso"
    assert quotient_rigidity(4, 6) == "neither"
    assert quotient_rigidity(3, 5) == "all_noncyclic_iso"
    assert quotient_rigidity(2, 2) == "neither"


def _finitely_many_quotients_reference(m, n):
    clauses = []
    for a, b in ((m, n), (n, m)):
        fa = factorize(a)
        if gcd(a, b) == 1:
            clauses.append("(a) coprime")
        if len(fa) == 1 and sum(fa.values()) == 1 and a != b:
            clauses.append("(b) prime")
        if a == -b:
            clauses.append("(c) opposite")
        if len(fa) == 1 and len(factorize(b)) == 1 and set(fa) == set(factorize(b)) and a != b:
            clauses.append("(d) powers of one prime")
    if clauses:
        return Decision(True, ", ".join(dict.fromkeys(clauses)))
    return Decision(False, "no clause applies")


def _quotient_rigidity_reference(m, n):
    def prime_abs(a):
        fa = factorize(a)
        return len(fa) == 1 and sum(fa.values()) == 1

    for a, b in ((m, n), (n, m)):
        if abs(a) == 1 or (prime_abs(a) and b % a != 0):
            return "all_noncyclic_iso"
    for a, b in ((m, n), (n, m)):
        if abs(a) == 1 or (prime_abs(a) and a != b):
            return "all_nonsolvable_iso"
    return "neither"


def test_quotient_deciders_match_reference_without_factoring(monkeypatch):
    # trial division decides every parameter of the grid: nothing is factored
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(quotients, "factorize", counting)
    monkeypatch.setattr(arith, "factorize", counting)
    grid = [i for i in range(-12, 13) if i]
    for m in grid:
        for n in grid:
            assert finitely_many_quotients(m, n) == _finitely_many_quotients_reference(m, n), (m, n)
            assert quotient_rigidity(m, n) == _quotient_rigidity_reference(m, n), (m, n)
    assert calls == []


def test_quotient_deciders_factor_only_without_a_small_divisor(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counting)
    p, q = 1009, 1013  # no divisor below the trial bound
    assert quotient_rigidity(p * q, 2 * p) == "neither"
    assert calls == [p * q]
    calls.clear()
    assert finitely_many_quotients(p * q, 2 * p * q) == _finitely_many_quotients_reference(p * q, 2 * p * q)
    assert calls == [p * q]  # 2 divides 2pq, and {pq, 2pq} has two base elements


def test_quotient_deciders_match_reference_on_prime_powers():
    vals = [s * b**e for b in (2, 3, 1009) for e in (1, 2, 3) if b**e < 10**7 for s in (1, -1)]
    for m in vals + [1, 12, -18]:
        for n in vals:
            assert finitely_many_quotients(m, n) == _finitely_many_quotients_reference(m, n), (m, n)
            assert quotient_rigidity(m, n) == _quotient_rigidity_reference(m, n), (m, n)
    # 4 and -4 are powers of one prime, although their coprime base {4} is not a prime
    assert "(d)" in finitely_many_quotients(4, -4).clause


P_BIG = 10**12 + 39  # 2 * P_BIG is above the default factorization cap


def test_rigidity_answers_without_factoring_a_unit_pair():
    big = 2 * P_BIG  # above the factorization cap, never factored here
    assert quotient_rigidity(1, big) == quotient_rigidity(-1, big) == "all_noncyclic_iso"


def test_rigidity_tests_a_unit_before_the_other_parameter():
    big = 2 * P_BIG
    for m, n in ((big, -1), (-1, big), (big, 1), (1, big)):
        assert quotient_rigidity(m, n) == "all_noncyclic_iso", (m, n)


def test_quotient_deciders_see_a_small_divisor_above_the_cap():
    # 2 | 2p and 2 | 4p: neither parameter is prime, and {2p, 4p} has the coprime base {2, p}
    for m, n in ((2 * P_BIG, 4 * P_BIG), (4 * P_BIG, 2 * P_BIG)):
        assert finitely_many_quotients(m, n) == Decision(False, "no clause applies"), (m, n)
        assert quotient_rigidity(m, n) == "neither", (m, n)


def test_large():
    assert not is_large(bs_graph(2, 3))
    assert is_large(bs_graph(2, 4))
    assert is_large(segment_graph([2, 3]))
    assert not is_large(bs_graph(1, -1))  # K
    assert not is_large(bs_graph(1, 1))  # Z^2
    with pytest.raises(NotReducedError):
        is_large(segment_graph([1, 5]))


def test_rf_gbs():
    assert not is_rf_gbs(bs_graph(2, 4))
    assert is_rf_gbs(bs_graph(1, 6))
    assert is_rf_gbs(bs_graph(5, -5))
    assert not is_rf_gbs(lollipop_graph([6, 4], [3, 6]))
    assert is_rf_gbs(segment_graph([2, 3]))  # unimodular (trivial modulus)
    dec = is_rf_gbs(lollipop_graph([6, 4], [3, 6]))
    assert dec.caveat
    assert is_rf_gbs(graph_from_edges([], extra_vertices=["v"])) == Decision(True, "solvable (trivial graph)")


def test_rf_gbs_matches_bs_on_loops():
    from gbs.bs_arith import is_rf_bs

    for m in range(1, 13):
        for n in range(1, 13):
            assert is_rf_gbs(bs_graph(m, n)).answer == is_rf_bs(m, n)
            assert is_rf_gbs(bs_graph(m, -n)).answer == is_rf_bs(m, -n)


def test_exists_bs_quotient():
    dec = exists_bs_quotient(segment_graph([2, 3]))
    assert not dec and "K" in dec.clause
    dec2 = exists_bs_quotient(bs_graph(2, 4))
    assert dec2 and dec2.reasons == ("elliptic-friendly",)
    theta = graph_from_edges(
        [("a", "u", "w", 2, 5), ("b", "u", "w", 3, 7), ("c", "u", "w", 11, 13)]
    )
    dec3 = exists_bs_quotient(theta)
    assert dec3
    with pytest.raises(ElementaryGroupError):
        exists_bs_quotient(bs_graph(1, -1))


def test_descending_chain_certified():
    for n in (1, 2, 4):
        ch = descending_chain(n)
        assert check_epi(ch.from_bs_18_36)
        assert check_epi(ch.to_next)
        assert check_epi(ch.to_bs_9_18)
    with pytest.raises(DecisionError):
        descending_chain(0)


def test_infinite_family_variants():
    # none divides the other
    fam = infinite_family(4, 6, count=3)
    assert [m.params["kind"] for m in fam] == ["G_N"] * 3
    for mem in fam:
        assert check_epi(mem.cert)
    # m = n
    fam2 = infinite_family(6, 6, count=3)
    assert all(m.params["kind"] == "segment" for m in fam2)
    for mem in fam2:
        assert check_epi(mem.cert)
    # m | n with composite m ((4,8) is the finite prime-power case instead)
    with pytest.raises(DecisionError):
        infinite_family(4, 8)
    fam3 = infinite_family(6, 12, count=3)
    assert all(m.params["kind"] == "H_N" for m in fam3)
    for mem in fam3:
        assert check_epi(mem.cert)
    # swapped divisibility
    fam4 = infinite_family(12, 6, count=2)
    assert all(m.params["swapped"] for m in fam4)
    for mem in fam4:
        assert check_epi(mem.cert)


def _hn_factorization_reference(m: int, n: int):
    """The trial-division search `quotients._hn_factorization` replaced:
    every integer up to |m|, and up to |n/m|, tried as a divisor."""
    c = n // m
    candidates = []
    for alpha in sorted((d for d in range(2, abs(m) + 1) if m % d == 0), key=abs):
        beta = m // alpha
        if abs(beta) == 1:
            continue
        for delta in sorted((d for d in range(2, abs(c) + 1) if c % d == 0), key=abs):
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


def _answer(fn, m, n):
    try:
        return fn(m, n)
    except DecisionError:
        return None


def test_hn_factorization_matches_trial_division():
    """Divisors from the factorization give the trial loop's answer on every
    2 <= |m|, |n/m| <= 60."""
    span = [i for i in range(-60, 61) if abs(i) >= 2]
    for m in span:
        for c in span:
            assert _answer(quotients._hn_factorization, m, m * c) == _answer(_hn_factorization_reference, m, m * c)


def test_hn_factorization_is_fast_on_large_parameters():
    """The trial loop tries 10^8 candidate divisors for m = 10^8; the
    divisors of 10^8 and of 2 come from their factorizations."""
    start = time.perf_counter()
    quotients._hn_factorization(10**8, 2 * 10**8)
    assert time.perf_counter() - start < 1.0


def test_infinite_family_rejects_count_below_one(monkeypatch):
    def refuse(*args, **kwargs):  # a count the family cannot reach fails here, not by running on
        raise AssertionError("a family member was built")

    monkeypatch.setattr(quotients, "segment_graph", refuse)
    monkeypatch.setattr(quotients, "lollipop_graph", refuse)
    start = time.perf_counter()
    for m, n, count in ((4, 6, 0), (4, 6, -1), (6, 6, 0), (6, 12, -3)):
        with pytest.raises(InputError):
            infinite_family(m, n, count)
    assert time.perf_counter() - start < 1.0


def test_quotient_monotone_under_bs_epis():
    """is_quotient_of_bs(G, m, n) and BS(m', n') ->> BS(m, n) imply
    is_quotient_of_bs(G, m', n')."""
    rng = random.Random(9)
    graph_pool = [
        segment_graph([2, 3]),
        lollipop_graph([6, 2], [3, 6]),
        bs_graph(2, 3),
        circle_graph([2, 3, 5, 7]),
    ]
    pairs = [(m, n) for m in GRID for n in GRID]
    for _ in range(2500):
        g = rng.choice(graph_pool)
        m, n = rng.choice(pairs)
        m2, n2 = rng.choice(pairs)
        if is_quotient_of_bs(g, m, n) and exists_epi_bs(m2, n2, m, n):
            assert is_quotient_of_bs(g, m2, n2), (m, n, m2, n2)


def test_source_certificates_random_sweep():
    """Every yes from the source decider is certified, across random shapes
    and a small parameter grid."""
    from gbs.plateaus import is_two_generated

    rng = random.Random(31)
    pool = []
    while len(pool) < 12:
        kind = rng.choice(["segment", "circle", "lollipop"])
        labels = [rng.choice([1, -1]) * rng.randint(2, 6) for _ in range(4)]
        if kind == "segment":
            g = segment_graph(labels[:2] if rng.random() < 0.5 else labels)
        elif kind == "circle":
            g = circle_graph(labels[:2] if rng.random() < 0.5 else labels)
        else:
            g = lollipop_graph(labels[:2], labels[2:])
        if not g.is_reduced():
            continue
        try:
            ok, _ = is_two_generated(g)
        except Exception:
            continue
        if not ok:
            continue
        try:
            bs_sources(g)
        except Exception:
            continue
        pool.append(g)
    checked = 0
    small = [i for i in range(-40, 41) if i != 0]
    for g in pool:
        src = bs_sources(g)
        candidates = {(m, n) for m in rng.sample(small, 20) for n in rng.sample(small, 5)}
        for alpha in (1, -1, 2, 3):
            if src.kind == "segment":
                candidates.add((alpha * src.Q, alpha * src.Q))
                candidates.add((alpha * src.R, alpha * src.R))
            else:
                candidates.add((alpha * src.QX, alpha * src.QY))
                candidates.add((alpha * src.QY, alpha * src.QX))
        for m, n in candidates:
            if src.contains(m, n):
                assert check_epi(bs_source_epi(g, m, n)), (g, m, n)
                checked += 1
    assert checked >= 6 * len(pool)


def test_hop_certificates_on_small_lollipop_grid():
    """Every positive minimal-source answer on a k = l = 1 grid comes with a
    verifiable certificate."""
    from gbs.plateaus import is_two_generated

    verified = 0
    for Q in range(2, 7):
        for R in range(2, 7):
            for X in range(1, 7):
                for Y in range(1, 7):
                    g = lollipop_graph([Q, R], [X, Y])
                    if not g.is_reduced():
                        continue
                    ok, _ = is_two_generated(g)
                    if not ok:
                        continue
                    if maps_onto_minimal_bs(g):
                        assert check_epi(minimal_bs_epi(g)), (Q, R, X, Y)
                        verified += 1
    assert verified > 50


def test_minimal_bs_epi_refuses_exactly_where_the_decider_says_no():
    """Seeded circles and lollipops (k <= 3) with composite labels, kept when
    reduced and 2-generated: the builder's certificate verifies exactly when
    maps_onto_minimal_bs says yes, and otherwise it refuses with the
    decider's clause and reasons."""
    labels = (2, 3, 5, 6, 10, 12, 14, 15, 18, 20, 21, -3, -6)
    rng = random.Random(1)
    clauses = Counter()
    for _ in range(5000):
        k, ell = rng.choice((0, 1, 2, 2, 3)), rng.randint(1, 2)
        circ = [rng.choice(labels) for _ in range(2 * ell)]
        g = circle_graph(circ) if k == 0 else lollipop_graph([rng.choice(labels) for _ in range(2 * k)], circ)
        try:
            dec = maps_onto_minimal_bs(g)
        except (NotReducedError, ElementaryGroupError, DecisionError):
            continue
        clauses[dec.clause] += 1
        if dec:
            assert check_epi(minimal_bs_epi(g)), g
        else:
            with pytest.raises(DecisionError, match=re.escape(f"{dec.clause} ({', '.join(dec.reasons)})")):
                minimal_bs_epi(g)
    assert clauses["prefix"] >= 20 and clauses["all clauses fail"] and clauses["split index"], clauses
    g = lollipop_graph([4, 3, 7, 6, 5, -3], [5, 2, -3, 14])  # only the pair (q_0, r_2) shares a factor
    assert maps_onto_minimal_bs(g) == Decision(False, "prefix", ("gcd(q_0, r_2) > 1",))
    with pytest.raises(DecisionError, match=re.escape("prefix (gcd(q_0, r_2) > 1)")):
        minimal_bs_epi(g)


def test_iee_families_for_non_hopfian_pairs():
    """Non-Hopfian (m, n), both composite, not coprime: at least three
    family members, each epi-equivalent back to BS(m, n)."""
    from gbs.bs_arith import is_hopfian_bs

    for m, n in ((4, 6), (6, 4), (6, 10), (9, 6), (4, 10)):
        assert not is_hopfian_bs(m, n)
        fam = infinite_family(m, n, count=3)
        assert len(fam) == 3
        for mem in fam:
            assert check_epi(mem.cert)
            got = epi_equivalent_bs(mem.graph)
            assert got in ((m, n), (n, m), (-m, -n), (-n, -m)), (m, n, got)


def test_epi_equivalence_consistency():
    """epi_equivalent_bs = (m, n) means G is a quotient of BS(m, n) and the
    certificate back verifies."""
    for g in (
        bs_graph(2, 3),
        lollipop_graph([2, 5], [5, 7]),
        circle_graph([2, 3, 5, 7]),
        lollipop_graph([3, 5], [6, 10]),
    ):
        got = epi_equivalent_bs(g)
        assert got is not None
        assert is_quotient_of_bs(g, *got)
        assert check_epi(bs_source_epi(g, *got))
        assert check_epi(minimal_bs_epi(g))


# -- epi-equivalence runs the 2-generation test once ----------------------------


def _epi_equivalent_bs_reference(g):
    """The double pass: maps_onto_minimal_bs reruns reducedness, the
    elementary check and the 2-generation test."""
    if not g.is_reduced():
        raise NotReducedError("graph is not reduced")
    if quotients._detect_elementary(g) in ("Z", "K"):
        return None
    ok, witness = is_two_generated(g)
    if not ok or witness.rank.rank != 2 or witness.shape.kind in ("segment", "other"):
        return None
    if not maps_onto_minimal_bs(g):
        return None
    shape = witness.shape
    return (shape.Q * shape.X, shape.Q * shape.Y)


def test_epi_equivalence_matches_double_pass_on_criterion_6_circles():
    for alpha, _, gamma, g in criterion_6_circles():
        got = epi_equivalent_bs(g)
        assert got == _epi_equivalent_bs_reference(g), g
        assert (got is not None) == (gcd(gamma, alpha) == 1), g


@given(reduced_segments_circles_lollipops())
@settings(max_examples=300, deadline=None)
def test_epi_equivalence_matches_double_pass(g):
    try:
        want = _epi_equivalent_bs_reference(g)
    except Exception as exc:  # the same typed error, or none
        with pytest.raises(type(exc)):
            epi_equivalent_bs(g)
        return
    assert epi_equivalent_bs(g) == want


def test_epi_equivalence_runs_each_graph_query_once(monkeypatch):
    mod = sys.modules["gbs.plateaus"]
    calls = count_calls(
        monkeypatch,
        [
            (mod, "mu"),
            (mod, "classify_shape"),
            (quotients, "_detect_elementary"),
            (LabelledGraph, "is_reduced"),
        ],
    )
    g = graph_from_edges([("e0", "w0", "w1", 4, 2), ("e1", "w1", "w0", 3, 10)])
    builds = count_graph_builds(monkeypatch)
    counts = []
    for _ in range(2):  # no cross-call cache: the second call does the same work
        calls.clear()
        assert epi_equivalent_bs(g) == (12, 20)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    # the double pass made 2, 2, 2 and 4 calls (mu checks reducedness too) and 20 connectivity searches
    assert counts[0]["mu"] == counts[0]["classify_shape"] == counts[0]["_detect_elementary"] == 1
    assert builds["__init__"] == 0  # connectivity was checked once, when g was built
    assert counts[0]["is_reduced"] == 1  # only mu checks reducedness


_BOX = [(m, n) for m in range(-12, 13) for n in range(-12, 13) if m and n]


def _random_shape(rng):
    """A segment, circle or lollipop with labels from +-2, 3, 4, 5, 6, 9:
    reduced, as no label is a unit."""
    labels = lambda k: [rng.choice((2, -2, 3, 4, 5, 6, 9)) for _ in range(2 * k)]
    kind = rng.randrange(3)
    if kind == 0:
        return segment_graph(labels(rng.randint(1, 3)))
    if kind == 1:
        return circle_graph(labels(rng.randint(1, 3)))
    return lollipop_graph(labels(rng.randint(1, 2)), labels(rng.randint(1, 2)))


def _sources_and_rank(g):
    """(the (m, n) of _BOX with BS(m, n) ->> g, the rank of g), or None when
    the deciders refuse g."""
    try:
        src = bs_sources(g)
    except (DecisionError, ElementaryGroupError, ShapeError):
        return None
    return {mn for mn in _BOX if src.contains(*mn)}, mu(g).rank


def test_moves_keep_sources_and_rank_as_their_maps_do():
    """Move relations, which need no oracle.  A vertex sign change is an
    isomorphism: the sources and the rank stay.  A displacement G ->> H (an
    expansion, then a contraction) is an epimorphism: sources(G) is in
    sources(H) and rank(H) <= rank(G), read on reduce_graph(H).  A graph the
    deciders refuse is drawn again, within a cap on the draws."""
    rng = random.Random(7)
    checked = Counter()
    for _ in range(3000):
        if checked["displacement"] == 300:
            break
        g = _random_shape(rng)
        before = _sources_and_rank(g)
        if before is None:
            continue
        if checked["sign-change"] < 300:
            flipped, _ = move(g, "sign-change", "vertex", rng.choice(g.sorted_vertices()))
            assert _sources_and_rank(flipped) == before, (g, flipped)
            checked["sign-change"] += 1
        factors = [
            (e, r, end)
            for e, ed in g.edges.items()
            if not g.is_loop(e)
            for end in (0, 1)
            for r in range(2, abs(ed.labels[end]) + 1)
            if ed.labels[end] % r == 0 and gcd(ed.labels[1 - end], r) == 1
        ]
        if not factors:
            continue
        e, r, end = rng.choice(factors)
        h = reduce_graph(move(g, "displacement", e, r * rng.choice((1, -1)), end)[0])[0]
        after = _sources_and_rank(h)
        if after is not None:
            assert before[0] <= after[0] and after[1] <= before[1], (g, h)
            checked["displacement"] += 1
    assert checked == {"sign-change": 300, "displacement": 300}


DECIDER_GRAPHS, DECIDER_DIGEST = 600, "ddfccf7927176a7f57f68407e1fb5f327c9ddf78f5d3aed53002ac0691febaec"


def _decider_graphs():
    """The first 600 reductions of the shape digest's graphs (test_graphs)
    that are segments, circles or lollipops of at most 6 vertices."""
    reduced = (reduce_graph(g)[0] for g in _shape_graphs())
    return list(islice((h for h in reduced if len(h.vertices) <= 6 and classify_shape(h).kind != "other"),
                       DECIDER_GRAPHS))


def _rank_row(g):
    ok, witness = is_two_generated(g)
    r = witness.rank
    return ok, r.beta, r.mu, sorted(r.hitting_set), sorted(sorted(s) for s in r.plateau_sets)


def _onto_row(g):
    dec = maps_onto_minimal_bs(g)
    return dec.answer, dec.clause, dec.reasons


def test_quotient_deciders_match_pinned_digest():
    """The rank report, epi-equivalence, sources and onto-minimal clause of
    each graph, or the type and message of the error raised: the answers
    behind the paper's first two results."""
    digest, errors = hashlib.sha256(), Counter()
    graphs = _decider_graphs()
    for g in graphs:
        for fn in (_rank_row, epi_equivalent_bs, lambda h: bs_sources(h).describe(), _onto_row):
            try:
                row = fn(g)
            except GBSError as exc:
                row = type(exc).__name__, str(exc)
                errors[row[0]] += 1
            digest.update(repr(row).encode() + b"\n")
    assert len(graphs) == DECIDER_GRAPHS
    assert set(errors) == {"DecisionError", "ElementaryGroupError", "ShapeError"}, errors
    assert digest.hexdigest() == DECIDER_DIGEST
