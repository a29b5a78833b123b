"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random

from conftest import random_letters, small_connected_graph

from gbs.bs_arith import embeds_bs, is_hopfian_bs, is_rf_bs
from gbs.embeddings import (
    circle_bs_subgroup,
    embed_bs_construct,
    check_weakly_admissible,
    verify_embedding_certificate,
)
from gbs.graphs import (
    bs_graph,
    circle_graph,
    graph_from_edges,
    lollipop_graph,
    reduce_graph,
    segment_graph,
)
from gbs.homs import check_epi, non_hopf_endo, bs_source_epi
from gbs.plateaus import is_two_generated, mu, plateau_family
from gbs.quotients import (
    bs_sources,
    epi_equivalent_bs,
    finitely_many_quotients,
    infinite_family,
    is_quotient_of_bs,
    is_rf_gbs,
    maps_onto_minimal_bs,
)
from gbs.words import (
    Presentation,
    britton_reduce,
    is_elliptic,
    letters_concat,
    letters_inverse,
    modulus,
    segment_center_index,
)

GRID12 = [i for i in range(-12, 13) if i != 0]


def _announce(num, text):
    print(f"PASS criterion {num}: {text}")


def _prime_set_independent(n):
    """Clause re-evaluation with its own factor loop (no shared helpers)."""
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_criterion_1_hopficity():
    table = {(2, 3): False, (2, 4): True, (1, 5): True, (4, 6): False, (6, 10): False}
    for (m, n), want in table.items():
        assert is_hopfian_bs(m, n) == want
    agree = 0
    for m in GRID12:
        for n in GRID12:
            independent = (
                abs(m) == 1
                or abs(n) == 1
                or _prime_set_independent(m) == _prime_set_independent(n)
            )
            assert is_hopfian_bs(m, n) == independent, (m, n)
            agree += 1
    _announce(1, f"Hopficity table and {agree} grid points, 100% agreement")


def test_criterion_2_obstruction_catalog():
    assert not embeds_bs(12, 20, 6, 10)
    assert embeds_bs(4, 9, 2, 3)
    assert not embeds_bs(4, 4, 2, 2)
    count = 3
    for a in range(3):
        for b in range(3):
            for c in range(3):
                r, s = 2 ** (a + b) * 3**c, 2**b * 3 ** (a + c)
                if (abs(r), abs(s)) == (1, 1):
                    continue
                assert embeds_bs(r, s, 2, 3), (a, b, c)
                count += 1
    for r in GRID12:
        for s in GRID12:
            if (abs(r), abs(s)) == (1, 1) or abs(r) == abs(s):
                continue
            assert not embeds_bs(r, s, 3, 3), (r, s)
            count += 1
    _announce(2, f"three-condition catalog, {count} exact checks")


def test_criterion_3_embedding_certificates(grid12):
    built = 0
    for (r, s, m, n), cert in grid12.certs:
        ok, violations = verify_embedding_certificate(cert)
        assert ok, (r, s, m, n, violations)
        built += 1
    _announce(3, f"{built} certificates on the |.|<=12 grid, all verified")


def test_criterion_4_non_hopficity_pipeline():
    res = non_hopf_endo(2, 3)
    pres = res.cert.source
    epi_ok = check_epi(res.cert)
    w_nontrivial = not britton_reduce(
        pres.graph, pres.letters_to_path(res.kernel_witness)
    ).trivial
    image_trivial = britton_reduce(
        pres.graph, pres.letters_to_path(res.cert.image_of(res.kernel_witness))
    ).trivial
    assert epi_ok and w_nontrivial and image_trivial
    _announce(4, f"phi epi={epi_ok}, [tat^-1,a] nontrivial={w_nontrivial}, killed={image_trivial}")


def test_criterion_5_smallest_sources():
    seg = segment_graph([2, 3])
    certs = 0
    for m in range(1, 31):
        want = m % 2 == 0 or m % 3 == 0
        assert is_quotient_of_bs(seg, m, m) == want
        assert not is_quotient_of_bs(seg, m, m + 1)
        if want:
            assert check_epi(bs_source_epi(seg, m, m))
            certs += 1
    lp = lollipop_graph([6, 4], [3, 6])  # Q=6, R=4, X=3, Y=6
    QX, QY = 18, 36
    src = bs_sources(lp)
    for m in range(-80, 81):
        for n in range(-80, 81):
            if m == 0 or n == 0:
                continue
            want = any(
                m % a == 0 and n % b == 0 and m // a == n // b
                for a, b in ((QX, QY), (QY, QX))
            )
            assert src.contains(m, n) == want, (m, n)
    g1 = lollipop_graph([6, 2], [3, 6])
    cert = bs_source_epi(g1, 18, 36)
    assert check_epi(cert)
    _announce(5, f"segment table m<=30 ({certs} certificates), lollipop multiples, chain source certified")


def test_criterion_6_onto_minimal():
    g = graph_from_edges([("e1", "u", "w", 3, 3), ("e2", "w", "u", 2, 4)])
    from gbs.homs import move_cert

    _, c1, _ = move_cert(g, "contraction", "e1", "u")
    _, c2, _ = move_cert(g, "contraction", "e2", "w")
    assert check_epi(c1) and check_epi(c2)
    assert maps_onto_minimal_bs(g).answer is False
    from gbs.arith import gcd

    checked = 0
    for alpha in range(1, 8):
        for betav in range(1, 8):
            for gamma in range(1, 8, 2):
                bg = graph_from_edges(
                    [("e0", "w0", "w1", 2 * betav, 2), ("e1", "w1", "w0", gamma, 2 * alpha)]
                )
                bg, _ = reduce_graph(bg)
                two_gen, _ = is_two_generated(bg)
                assert two_gen, (alpha, betav, gamma)
                got = epi_equivalent_bs(bg) is not None
                assert got == (gcd(gamma, alpha) == 1), (alpha, betav, gamma)
                checked += 1
    _announce(6, f"onto BS(4,2)/BS(6,3) certified, not onto BS(12,6); {checked} grid points exact")


def test_criterion_7_quotient_families():
    clause_table = {
        (3, 5): True,
        (2, 6): True,
        (3, -3): True,
        (2, 4): True,
        (4, 6): False,
        (2, 2): False,
        (6, 10): False,
        (4, 24): False,
    }
    for (m, n), want in clause_table.items():
        assert bool(finitely_many_quotients(m, n)) == want, (m, n)
    for m in GRID12:
        for n in GRID12:
            got = bool(finitely_many_quotients(m, n))
            ok = False
            for a, b in ((m, n), (n, m)):
                pa = _prime_set_independent(a)
                if (
                    _gcd_i(a, b) == 1
                    or (len(pa) == 1 and abs(a) in pa and a != b)
                    or a == -b
                    or (
                        len(pa) == 1
                        and len(_prime_set_independent(b)) == 1
                        and pa == _prime_set_independent(b)
                        and a != b
                    )
                ):
                    ok = True
            assert got == ok, (m, n)
    fam = infinite_family(4, 6, count=5)
    assert len(fam) == 5
    for mem in fam:
        assert check_epi(mem.cert)
        assert epi_equivalent_bs(mem.graph) in ((4, 6), (6, 4), (-4, -6), (-6, -4))
    _announce(7, "clause grid exact; 5 members of the (4,6) family certified and epi-equivalent")


def _gcd_i(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def test_criterion_8_residual_finiteness():
    table = {(2, 4): False, (1, 6): True, (5, -5): True, (2, 2): True, (2, 3): False}
    for (m, n), want in table.items():
        assert is_rf_bs(m, n) == want
    agree = 0
    for m in range(1, 13):
        for n in range(1, 13):
            for sm, sn in ((m, n), (m, -n), (-m, n), (-m, -n)):
                assert is_rf_gbs(bs_graph(sm, sn)).answer == is_rf_bs(sm, sn)
                agree += 1
    _announce(8, f"table exact; loop graphs m,n <= 12 agree with the parameter test ({agree} cases)")


def _center_index_oracle(r0, q, r):
    bound = 1
    for v in q:
        bound *= abs(v)
    for N in range(1, bound + 1):
        x = r0 * N
        good = True
        for j in range(len(q)):
            if x % q[j]:
                good = False
                break
            x = (x // q[j]) * r[j]
        if good:
            return N
    raise AssertionError("no index within the guaranteed bound")


def test_criterion_9_gcd_chain_oracle():
    rng = random.Random(99)
    agreements = 0
    for _ in range(1000):
        k = rng.randint(1, 5)
        q = [rng.choice([1, -1]) * rng.randint(1, 20) for _ in range(k)]
        r = [rng.choice([1, -1]) * rng.randint(1, 20) for _ in range(k)]
        r0 = rng.choice([1, -1]) * rng.randint(1, 20)
        assert segment_center_index(r0, q, r) == _center_index_oracle(r0, q, r)
        agreements += 1
    # assertion (2): full coprimality gives the product of the q's
    for _ in range(50):
        primes = [2, 3, 5, 7, 11, 13]
        rng.shuffle(primes)
        q = primes[:2]
        r = primes[2:4]
        r0 = primes[4]
        expect = abs(q[0] * q[1])
        assert segment_center_index(r0, q, r) == expect
    # assertion (4): exact p-power divisibility propagates to the index
    p, alpha = 3, 2
    q = [p**alpha * 2, p**alpha * 5]
    r = [p**alpha * 4, p**alpha * 7]
    n = segment_center_index(1, q, r)
    assert n % p**alpha == 0 and n % p ** (alpha + 1) != 0
    _announce(9, f"{agreements}/1000 oracle agreements; assertions (2) and (4) hold")


def test_criterion_10_rank_formula():
    assert mu(bs_graph(2, 3)).rank == 2
    assert mu(segment_graph([2, 3])).rank == 2
    for Q, R, X, Y in ((6, 2, 3, 6), (6, 16, 3, 6), (2, 9, 3, 25)):
        assert mu(lollipop_graph([Q, R], [X, Y])).rank == 2
    assert mu(segment_graph([2, 3, 3, 2])).rank == 3  # interior plateau
    # permuted enumeration order gives the same mu
    from itertools import combinations

    rng = random.Random(4)
    for _ in range(25):
        g = small_connected_graph(rng, max_vertices=4, max_label=6)
        if not g.is_reduced():
            continue
        report = mu(g)
        sets = plateau_family(g)
        verts = list(reversed(g.sorted_vertices()))
        alt = None
        for size in range(1, len(verts) + 1):
            for combo in combinations(verts, size):
                if all(set(combo) & s for s in sets):
                    alt = size
                    break
            if alt:
                break
        assert alt == report.mu
    _announce(10, "rank-2 family, interior plateau detected at rank 3, permuted search agrees")


def test_criterion_11_checker_and_mutations():
    from test_embeddings import _mutations

    rng = random.Random(1234)
    three_block = circle_bs_subgroup(circle_graph([2, 5, 3, 7]), 6, 35)
    power = embed_bs_construct(4, 8, 2, 4)
    total = 0
    for cert in (three_block, power):
        ok, _ = verify_embedding_certificate(cert)
        assert ok
        for mutant in _mutations(cert, rng, 100):
            bad, violations = check_weakly_admissible(mutant)
            assert not bad and violations, "mutation slipped through"
            total += 1
    _announce(11, f"both constructions verified; {total} single-field mutations all rejected with located violations")


def test_criterion_12_word_engine_volume():
    rng = random.Random(7)
    graphs_pool = []
    while len(graphs_pool) < 25:
        g = small_connected_graph(rng, max_vertices=4, max_label=8)
        if g.edges:
            graphs_pool.append(g)
    presentations = [Presentation(g) for g in graphs_pool]
    reduced_trivial = 0
    for i in range(10**4):
        pres = presentations[i % len(presentations)]
        rels = pres.relations()
        rel = rng.choice(rels)
        conj = random_letters(rng, pres, length=2, max_exp=3)
        word = letters_concat(conj, rel if rng.random() < 0.5 else letters_inverse(rel), letters_inverse(conj))
        assert britton_reduce(pres.graph, pres.letters_to_path(word)).trivial
        reduced_trivial += 1
    multiplicative = 0
    for i in range(10**3):
        pres = presentations[i % len(presentations)]
        w1 = pres.letters_to_path(random_letters(rng, pres, length=3))
        w2 = pres.letters_to_path(random_letters(rng, pres, length=3))
        assert modulus(pres.graph, w1 * w2) == modulus(pres.graph, w1) * modulus(pres.graph, w2)
        multiplicative += 1
    elliptic_checked = 0
    for i in range(2000):
        pres = presentations[i % len(presentations)]
        w = pres.letters_to_path(random_letters(rng, pres, length=3))
        if is_elliptic(pres.graph, w):
            assert modulus(pres.graph, w) == 1
            elliptic_checked += 1
    _announce(
        12,
        f"{reduced_trivial} relator conjugates trivial; {multiplicative} moduli multiplicative; "
        f"{elliptic_checked} elliptic words with modulus 1, no exceptions",
    )
