from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, factorize_uncapped

from gbs import arith, bs_arith
from gbs.arith import valuation
from gbs.bs_arith import (
    embeds_bs,
    embeds_elementary,
    exists_epi_bs,
    is_hopfian_bs,
    is_rf_bs,
    loop_match,
    multiple_direction,
    power_of_ratio,
)
from gbs.decision import Decision
from gbs.errors import DecisionError

GRID = [i for i in range(-8, 9) if i != 0]


def test_hopfian_examples():
    assert not is_hopfian_bs(2, 3)
    assert is_hopfian_bs(2, 4)
    assert is_hopfian_bs(1, 5)
    assert is_hopfian_bs(-1, 7)
    assert not is_hopfian_bs(4, 6)
    with pytest.raises(DecisionError):
        is_hopfian_bs(0, 3)


def test_exists_epi_examples():
    assert exists_epi_bs(18, 36, 9, 18)
    assert exists_epi_bs(6, 10, 3, 5)
    assert exists_epi_bs(6, 10, 5, 3)
    assert exists_epi_bs(4, 4, 1, -1)  # Klein bottle target, even m = n
    assert not exists_epi_bs(3, 3, 1, -1)
    assert not exists_epi_bs(2, 3, 3, 5)
    assert exists_epi_bs(4, 4, 1, 1)  # onto Z^2
    assert not exists_epi_bs(2, 4, 1, 1)


def _chains(relation, pairs) -> int:
    """Check a ~ c for every chain a ~ b ~ c of pairs; return the number of chains."""
    above = {a: {b for b in pairs if relation(*a, *b)} for a in pairs}
    chains = 0
    for a in pairs:
        for b in above[a]:
            for c in above[b]:
                assert c in above[a], (a, b, c)
            chains += len(above[b])
    return chains


def test_exists_epi_reflexive_transitive():
    pairs = [(m, n) for m in GRID for n in GRID]
    for m, n in pairs:
        assert exists_epi_bs(m, n, m, n)
    assert _chains(exists_epi_bs, pairs) >= 6464  # every chain of the box |m|, |n| <= 8


def test_power_of_ratio():
    assert power_of_ratio(4, 9, 2, 3) == 2
    assert power_of_ratio(1, 1, 5, 7) == 0
    assert power_of_ratio(2, 3, 3, 2) == -1
    assert power_of_ratio(8, 27, 2, 3) == 3
    assert power_of_ratio(-2, 2, 2, -2) == 1
    assert power_of_ratio(5, 7, 2, 3) is None
    assert power_of_ratio(2, 2, 3, 3) == 0
    assert power_of_ratio(2, -2, 3, 3) is None
    assert power_of_ratio(-1, 1, 1, -1) == 1
    assert power_of_ratio(4, 9, 6, 4) == -2
    assert power_of_ratio(2, 3, 4, 9) is None
    assert power_of_ratio(6, 10, 2, 3) is None


def test_embeds_examples():
    assert not embeds_bs(12, 20, 6, 10)
    assert embeds_bs(4, 9, 2, 3)
    assert not embeds_bs(4, 4, 2, 2)
    assert embeds_bs(2, 2, 6, 10)
    assert not embeds_bs(2, 3, 4, 9)
    with pytest.raises(DecisionError):
        embeds_bs(1, -1, 2, 3)


@pytest.mark.parametrize(
    "args, message",
    [((1, 1, 0, 2), "parameters must be nonzero"), ((1, 1, 2, 3), "elementary BS\\(r,s\\): use embeds_elementary")],
    ids=["zero-before-elementary", "elementary"],
)
def test_embeds_bs_refusals_keep_their_messages(args, message):
    """power_of_ratio makes the one nonzero check, before embeds_bs refuses an elementary source."""
    with pytest.raises(DecisionError, match=message):
        embeds_bs(*args)


def _relabel_search_reference(got, want):
    """The four-way (aexp, tdir) search loop_relabel_cert made before loop_match."""
    a, b = got
    m, n = want
    for aexp, tdir in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        pattern = (m, n) if tdir == 1 else (n, m)
        if (a * aexp, b * aexp) == pattern:
            return aexp, tdir
    return None


def _pair_matches_reference(got, want):
    """The embeddings helper the verifier and builder used before loop_match."""
    a, b = got
    return (a, b) in ((want[0], want[1]), (want[1], want[0])) or (-a, -b) in (
        (want[0], want[1]),
        (want[1], want[0]),
    )


def test_loop_match_agrees_with_both_old_matchers():
    """Every pair of label pairs with entries in [-6, 6] minus 0: negatives, m = n and m = -n included."""
    values = [v for v in range(-6, 7) if v != 0]
    pairs = list(product(values, repeat=2))
    for got in pairs:
        for want in pairs:
            match = loop_match(got, want)
            assert match == _relabel_search_reference(got, want), (got, want)
            assert (match is not None) == _pair_matches_reference(got, want), (got, want)


def test_embeds_reflexive():
    for m in GRID:
        for n in GRID:
            if abs(m) == 1 and abs(n) == 1:
                continue
            assert embeds_bs(m, n, m, n), (m, n)


def test_embeds_transitive_sample():
    pairs = [(r, s) for r in GRID for s in GRID if not (abs(r) == 1 and abs(s) == 1)]
    assert len(pairs) == 252
    assert _chains(embeds_bs, pairs) >= 27424  # every chain of the box, not a sample


def test_embeds_elementary():
    assert not embeds_elementary("Z2", 1, 2)
    assert embeds_elementary("Z2", 2, 3)
    assert embeds_elementary("Z2", 1, 1)
    assert embeds_elementary("Z2", 1, -1)
    assert embeds_elementary("K", 3, -3)
    assert not embeds_elementary("K", 3, 5)
    assert embeds_elementary("K", 2, 6)
    assert embeds_elementary("K", 3, 2)  # even n, |m| != 1
    assert not embeds_elementary("K", 2, 1)
    assert not embeds_elementary("K", 1, 2)
    with pytest.raises(DecisionError):
        embeds_elementary("F2", 2, 3)


def test_rf_table():
    assert not is_rf_bs(2, 4)
    assert is_rf_bs(1, 6)
    assert is_rf_bs(5, -5)
    assert is_rf_bs(2, 2)
    assert not is_rf_bs(2, 3)
    for m in GRID:
        for n in GRID:
            assert is_rf_bs(m, n) == (abs(m) == 1 or abs(n) == 1 or m == n or m == -n)


def test_multiple_direction():
    assert multiple_direction(6, 10, 3, 5) == 1
    assert multiple_direction(6, 10, 5, 3) == -1
    assert multiple_direction(4, 4, 2, 2) == 1  # (a, b) is checked first
    assert multiple_direction(-10, 6, 3, -5) == -1
    assert multiple_direction(2, 3, 3, 5) is None
    assert multiple_direction(6, 10, 3, 10) is None  # both divide, quotients differ


# -- the factor-based deciders the gcd layer replaced, kept as oracles ---------

BIG = 10**40  # a factorization cap that no small prime product reaches


def _prime_set_reference(n):
    return frozenset(factorize_uncapped(n))


def _is_hopfian_bs_reference(m, n):
    return abs(m) == 1 or abs(n) == 1 or _prime_set_reference(m) == _prime_set_reference(n)


def _power_of_ratio_reference(r, s, m, n):
    target, base = Fraction(r, s), Fraction(m, n)
    if base == 1:
        return 0 if target == 1 else None
    if base == -1:
        if target == 1:
            return 0
        return 1 if target == -1 else None
    if target == 1:
        return 0
    base_f = factorize_uncapped(base.numerator)
    for p, e in factorize_uncapped(base.denominator).items():
        base_f[p] = base_f.get(p, 0) - e
    tgt_f = factorize_uncapped(target.numerator)
    for p, e in factorize_uncapped(target.denominator).items():
        tgt_f[p] = tgt_f.get(p, 0) - e
    p0, d0 = next((p, e) for p, e in sorted(base_f.items()) if e != 0)
    if tgt_f.get(p0, 0) % d0 != 0:
        return None
    beta = tgt_f.get(p0, 0) // d0
    for p in set(base_f) | set(tgt_f):
        if tgt_f.get(p, 0) != beta * base_f.get(p, 0):
            return None
    if target != base**beta:
        return None
    return beta


def _embeds_bs_reference(r, s, m, n):
    beta = _power_of_ratio_reference(r, s, m, n)
    if beta is None:
        return Decision(False, "condition 1", (f"{r}/{s} is not a power of {m}/{n}",))
    primes = _prime_set_reference(r) | _prime_set_reference(s) | _prime_set_reference(m) | _prime_set_reference(n)
    for p in sorted(primes):
        vm, vn = valuation(m, p), valuation(n, p)
        if vm == vn and (valuation(r, p) > vm or valuation(s, p) > vm):
            return Decision(False, "condition 2", (f"p={p}, alpha={vm}",))
    if (abs(m) == 1 or abs(n) == 1) and not (abs(r) == 1 or abs(s) == 1):
        return Decision(False, "condition 3", ("target is solvable, source is not",))
    return Decision(True, f"conditions 1-3 hold (beta={beta})")


def test_deciders_match_factor_oracles_on_grid():
    for m, n in product(GRID, GRID):
        assert is_hopfian_bs(m, n) == _is_hopfian_bs_reference(m, n), (m, n)
        for r, s in product(GRID, GRID):
            assert power_of_ratio(r, s, m, n) == _power_of_ratio_reference(r, s, m, n), (r, s, m, n)
            if abs(r) == 1 and abs(s) == 1:
                continue
            got, want = embeds_bs(r, s, m, n), _embeds_bs_reference(r, s, m, n)
            assert got == want, (r, s, m, n)


small_prime_products = st.builds(
    lambda primes, sgn: sgn * prod(primes),
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=5),
    st.sampled_from([1, -1]),
)


@given(small_prime_products, small_prime_products, small_prime_products, small_prime_products, st.integers(-3, 3))
@settings(max_examples=400, deadline=None)
def test_deciders_match_factor_oracles_on_prime_products(a, b, m, n, beta):
    """(r, s) = (a, b), and k (m^beta, n^beta) (inverted for beta < 0) for
    k = a and k = ab, so that condition 1 often holds and condition 2
    decides.  Naming a failing prime factors a number that may pass the
    default cap, so the cap is raised; the primes are small."""
    assert is_hopfian_bs(m, n) == _is_hopfian_bs_reference(m, n)
    mb, nb = (m**beta, n**beta) if beta >= 0 else (n**-beta, m**-beta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GBS_TOOLKIT_FACTOR_CAP", str(BIG))
        for r, s in ((a, b), (a * mb, a * nb), (a * b * mb, a * b * nb)):
            assert power_of_ratio(r, s, m, n) == _power_of_ratio_reference(r, s, m, n), (r, s, m, n)
            if abs(r) == 1 and abs(s) == 1:
                continue
            got, want = embeds_bs(r, s, m, n), _embeds_bs_reference(r, s, m, n)
            assert got == want, (r, s, m, n)


P = 10**12 + 39  # a prime above the default factorization cap


def test_deciders_answer_above_the_factor_cap():
    assert embeds_bs(2 * P, P, P, 2 * P)
    assert embeds_bs(2 * P, P, P, 2 * P).clause == "conditions 1-3 hold (beta=-1)"
    assert is_hopfian_bs(P, P**2)
    assert not is_hopfian_bs(2 * P, P**2)
    a, b = 10**15 + 37, 10**15 - 11  # values near 10^30 below
    assert power_of_ratio(a**2, b**2, a, b) == 2
    assert power_of_ratio(b * 7, a * 7, a, b) == -1
    assert power_of_ratio(-(a**3), b**3, -a, b) == 3
    assert power_of_ratio(a**2 + 1, b**2, a, b) is None
    assert power_of_ratio(a**2, b**2, a * b, b) is None


def test_condition_2_names_the_failing_part_above_the_cap():
    # the failing part is p itself: above the cap it is named, not factored
    got = embeds_bs(P**2, P**2, P, P)
    assert not got and got.clause == "condition 2"
    assert got.reasons == (f"failing part {P} is above the factorization cap",)
    assert not embeds_bs(4, 4, 2, 2) and embeds_bs(4, 4, 2, 2).reasons == ("p=2, alpha=1",)


def _count_factorize(monkeypatch):
    """Count factorize calls, through arith and through any name bs_arith binds it to."""
    return count_calls(monkeypatch, [(mod, "factorize") for mod in (arith, bs_arith) if hasattr(mod, "factorize")])


def test_condition_2_names_its_prime_without_factoring(monkeypatch):
    """On the |.| <= 5 box every failing part has a divisor below
    TRIAL_BOUND, so naming the least prime factors nothing."""
    calls = _count_factorize(monkeypatch)
    box = [i for i in range(-5, 6) if i != 0]
    named = 0
    for r, s, m, n in product(box, box, box, box):
        if abs(r) != 1 or abs(s) != 1:
            named += embeds_bs(r, s, m, n).clause == "condition 2"
    assert calls["factorize"] == 0 and named == 468


def test_condition_2_cap_boundary(monkeypatch):
    # the failing part 7 is named by its prime at the cap, and as a part above it
    monkeypatch.setenv("GBS_TOOLKIT_FACTOR_CAP", "7")
    assert embeds_bs(49, 49, 7, 7).reasons == ("p=7, alpha=1",)
    monkeypatch.setenv("GBS_TOOLKIT_FACTOR_CAP", "6")
    assert embeds_bs(49, 49, 7, 7).reasons == ("failing part 7 is above the factorization cap",)


def test_condition_2_factors_a_failing_part_with_no_small_prime(monkeypatch):
    # N's primes are both above TRIAL_BOUND: least_prime_factor falls back to factorize(N)
    calls = _count_factorize(monkeypatch)
    N = 1009 * 1013
    assert 1009 > arith.TRIAL_BOUND
    got = embeds_bs(N**2, N**2, N, N)
    assert calls["factorize"] == 2  # once for each failing part, r's and s's
    assert got.clause == "condition 2" and got.reasons == ("p=1009, alpha=1",)
    assert got == _embeds_bs_reference(N**2, N**2, N, N)


def test_condition_2_reasons_under_a_low_cap(monkeypatch):
    """Answers and clauses never depend on the cap; a reason changes only
    where a failing part is above it, and then names that part."""
    monkeypatch.setenv("GBS_TOOLKIT_FACTOR_CAP", "4")
    named = same = 0
    for r, s, m, n in product(GRID, GRID, GRID, GRID):
        if abs(r) == 1 and abs(s) == 1:
            continue
        got, want = embeds_bs(r, s, m, n), _embeds_bs_reference(r, s, m, n)
        assert (got.answer, got.clause) == (want.answer, want.clause), (r, s, m, n)
        if got.reasons == want.reasons:
            same += want.clause == "condition 2"
            continue
        head, _, tail = got.reasons[0].partition(" is above")
        part = int(head.removeprefix("failing part "))
        assert tail == " the factorization cap" and part > 4 and (r * s) % part == 0, (r, s, m, n)
        named += 1
    assert named > 1000 and same > 1000
