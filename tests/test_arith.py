from fractions import Fraction
from itertools import product
from math import prod
from random import Random

import pytest
from hypothesis import given, strategies as st

from conftest import factorize_uncapped

from gbs.arith import (
    TRIAL_BOUND,
    coprime_base,
    factorize,
    gcd,
    least_prime_factor,
    split_power,
    valuation,
    xgcd,
)
from gbs.bs_arith import equal_exponent_part
from gbs.embeddings import _solve_exponent
from gbs.errors import DecisionError, FactorizationCapError
from gbs.homs import _find_i0, _solve_alpha_beta
from gbs.lattice import IntLattice, RationalMultGroup


def test_gcd_convention():
    assert gcd(-6, 4) == 2
    assert gcd(0, 0) == 0
    assert gcd(0, -7) == 7


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == gcd(a, b)
    assert a * x + b * y == g


def test_factorize(monkeypatch):
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-7) == {7: 1}
    assert valuation(48, 2) == 4
    for fn, args in ((factorize, (0,)), (valuation, (0, 2))):
        with pytest.raises(ValueError):
            fn(*args)
    monkeypatch.setenv("GBS_TOOLKIT_FACTOR_CAP", str(10**6))
    with pytest.raises(FactorizationCapError):
        factorize(10**9 + 7)


def test_least_prime_factor_matches_factorize():
    for n in list(range(-5000, 5000)) + [1009 * 1013, 1009**2, 1000003, 999983 * 2]:
        if abs(n) > 1:
            assert least_prime_factor(n) == min(factorize(n)), n
    assert least_prime_factor(1) == least_prime_factor(-1) == 1


def test_least_prime_factor_factors_only_without_a_small_divisor(monkeypatch):
    from gbs import arith

    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counting)
    big = 10**12 + 39
    assert least_prime_factor(2 * big) == 2  # above the cap, decided by its divisor 2
    assert least_prime_factor(999983) == 999983 and least_prime_factor(3 * 999983) == 3  # a prime below TRIAL_BOUND**2
    assert calls == []
    assert least_prime_factor(1009 * 1013) == 1009 and calls == [1009 * 1013]  # both above TRIAL_BOUND
    assert 1009 > TRIAL_BOUND
    with pytest.raises(FactorizationCapError):
        least_prime_factor(1009 * big)


nonzero = st.integers(-10**6, 10**6).filter(bool)


@given(nonzero, nonzero)
def test_split_power_matches_valuations(a, b):
    x, rest = split_power(a, b)
    fb = factorize(b) if abs(b) > 1 else {}
    assert x == max([-(-valuation(a, p) // e) for p, e in fb.items()], default=0)
    assert rest * prod(p ** valuation(a, p) for p in fb) == a
    assert gcd(rest, b) == 1


def test_split_power_of_zero():
    with pytest.raises(ValueError):
        split_power(0, 6)


@given(
    st.lists(st.integers(-10**6, 10**6), max_size=6)
    | st.lists(st.sampled_from([0, 1, -1, 4, 6, 9, 12, 18, 35, 100]), max_size=6)
)
def test_coprime_base_is_a_gcd_free_basis(nums):
    base = coprime_base(nums)
    assert base == sorted(base) and all(b > 1 for b in base)
    assert all(gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1 :])
    for a in nums:
        if a == 0:
            continue
        rest = abs(a)
        for b in base:
            while rest % b == 0:
                rest //= b
        assert rest == 1, (a, base)
        for p in factorize(a):  # a prime of an input lies in exactly one element
            assert sum(b % p == 0 for b in base) == 1


def test_coprime_base_examples():
    assert coprime_base([]) == coprime_base([0, 1, -1]) == []
    assert coprime_base([12, 18]) == [2, 3]
    assert coprime_base([6, 6, -36]) == [6]
    assert coprime_base([4, 6, 35]) == [2, 3, 35]
    assert coprime_base([10**30 + 57, 10**15]) == sorted([10**30 + 57, 10**15])


# -- the factor-and-loop routines split_power replaced, kept as oracles ----------


def _solve_exponent_reference(rhat, base, extra=1):
    fb = factorize(base)
    fr = factorize(rhat)
    fe = factorize(extra)
    for p in fr:
        if p not in fb and fr[p] > fe.get(p, 0):
            return None
    x = 1
    for p, e in fb.items():
        need = fr.get(p, 0) - fe.get(p, 0)
        if need > 0:
            x = max(x, -(-need // e))
    expr = extra * base**x
    assert expr % rhat == 0
    return x, expr // rhat


def _equal_exponent_part_reference(m, n, rhat):
    """delta1 and nu1 by prime loops; nu1 is a Fraction, an integer exactly
    when v_p(rhat) <= v_p(delta1) for every prime of delta1."""
    delta1 = 1
    for p in sorted(set(factorize(m)) | set(factorize(n))):
        vm, vn = valuation(m, p), valuation(n, p)
        if vm == vn and vm > 0:
            delta1 *= p**vm
    nu1 = Fraction(1)
    for p in factorize(delta1):
        nu1 *= Fraction(p) ** (valuation(delta1, p) - valuation(rhat, p))
    return delta1, nu1


def _unilateral_part_reference(label, bilateral):
    factor = 1
    for p in factorize(label):
        if bilateral % p != 0:
            factor *= p ** valuation(label, p)
    return factor


def _find_i0_reference(xs, ys, bilateral_primes):
    ell = len(xs)
    for i0 in range(ell):
        ok = True
        for p in bilateral_primes:
            if any(xs[i] % p == 0 for i in range(i0 + 1, ell)) or any(
                ys[j - 1] % p == 0 for j in range(1, i0 + 1)
            ):
                ok = False
                break
        if ok:
            return i0
    return None


def _solve_alpha_beta_reference(R, X, Y):
    alpha = beta = 0
    for p, c in factorize(R).items():
        if X % p == 0:
            alpha = max(alpha, -(-c // valuation(X, p)))
        elif Y % p == 0:
            beta = max(beta, -(-c // valuation(Y, p)))
        else:
            raise DecisionError(f"prime {p} of R divides neither X nor Y")
    power = X**alpha * Y**beta
    assert power % R == 0
    return alpha, beta, power // R


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DecisionError as exc:
        return str(exc)


def test_gcd_helpers_match_factor_oracles():
    small = [i for i in range(-24, 25) if i]
    for rhat, base, extra in product(small, small, (1, 2, -3, 4, 6, 9, 12)):
        got = _solve_exponent(rhat, base, extra)
        assert got == _solve_exponent_reference(rhat, base, extra), (rhat, base, extra)
    for m, n, rhat in product(small, small, (1, -2, 3, 4, -6, 8, 9, 12)):
        delta1 = equal_exponent_part(m, n)
        ref_delta1, ref_nu1 = _equal_exponent_part_reference(m, n, rhat)
        assert delta1 == ref_delta1, (m, n)
        if ref_nu1.denominator == 1:  # _construct_core's nu1
            assert delta1 // gcd(delta1, rhat) == ref_nu1, (m, n, rhat)
    for label, bilateral in product(small, range(1, 25)):
        got = abs(split_power(label, bilateral)[1])
        assert got == _unilateral_part_reference(label, bilateral), (label, bilateral)
    labels = (1, -1, 2, 3, -4, 5, 6, 9, 10, -12, 15)
    rng = Random(2024)
    for _ in range(4000):
        ell = rng.randint(1, 5)
        xs = tuple(rng.choice(labels) for _ in range(ell))
        ys = tuple(rng.choice(labels) for _ in range(ell))
        bilateral = gcd(prod(xs), prod(ys))
        assert _find_i0(xs, ys, bilateral) == _find_i0_reference(
            xs, ys, sorted(factorize(bilateral))
        ), (xs, ys)
    for R, X, Y in product(range(1, 61), small, small):
        got = _outcome(_solve_alpha_beta, R, X, Y)
        assert got == _outcome(_solve_alpha_beta_reference, R, X, Y), (R, X, Y)


def test_lattice_membership():
    lat = IntLattice.from_rows([[2, 0], [0, 3]], 2)
    assert lat.contains([4, 3])
    assert not lat.contains([1, 0])
    assert lat.rank == 2


def test_lattice_canonical():
    a = IntLattice.from_rows([[2, 4], [0, 6]], 2)
    b = IntLattice.from_rows([[2, 10], [2, 4]], 2)
    assert a == b


def test_mult_group_examples():
    g = RationalMultGroup([Fraction(2, 3)])
    assert g.contains(Fraction(4, 9))
    assert not g.contains(Fraction(2, 9))
    assert g.is_cyclic()
    assert not RationalMultGroup([2, 3]).is_cyclic()
    assert RationalMultGroup([-1]).is_subgroup_of_pm1()
    assert RationalMultGroup([-1]).is_cyclic()
    assert RationalMultGroup([]).is_trivial()
    assert not RationalMultGroup([2, -1]).is_cyclic()  # Z x Z/2
    assert RationalMultGroup([-2]).is_cyclic()
    assert not g.contains(0)
    with pytest.raises(ValueError, match="zero generator"):
        RationalMultGroup([2, 0])


def test_mult_group_equality_and_repr():
    six = RationalMultGroup([6, Fraction(-1, 2)])
    assert repr(six) == "RationalMultGroup(6, -1/2)"
    assert six == RationalMultGroup([-2, -3]) and six.basis == (2, 3)
    # another basis: compared by membership of the generators
    assert RationalMultGroup([6]) != RationalMultGroup([2, 3]) and RationalMultGroup([2, 3]) != RationalMultGroup([6])
    assert RationalMultGroup([6]) != 6 and not RationalMultGroup([6]) == RationalMultGroup([6]).generators


@given(
    st.lists(
        st.fractions(
            min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
        ).filter(lambda q: q != 0 and abs(q.numerator) <= 9),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
)
def test_mult_group_against_brute_force(gens, exps):
    """Membership agrees with a naive search over small exponent boxes."""
    group = RationalMultGroup(gens)
    value = Fraction(1)
    for g, e in zip(gens, exps):
        value *= Fraction(g) ** e
    assert group.contains(value)
    # a value outside every product over the box is rejected
    box = set()
    for combo in product(range(-2, 3), repeat=len(gens)):
        v = Fraction(1)
        for g, e in zip(gens, combo):
            v *= Fraction(g) ** e
        box.add(v)
    probe = Fraction(5, 7) * value
    if probe not in box and all(
        Fraction(g).numerator % 5 != 0 and Fraction(g).numerator % 7 != 0 for g in gens
    ):
        assert not group.contains(probe)


@given(
    st.lists(
        st.fractions(min_value=Fraction(-40), max_value=Fraction(40), max_denominator=40).filter(
            bool
        ),
        max_size=4,
    )
)
def test_exponent_rank_matches_sign_free_lattice(gens):
    """The rank read off the one echelon form equals the rank of the
    exponent lattice built without the sign coordinate."""
    group = RationalMultGroup(gens)
    n = len(group.basis)
    exp_lat = IntLattice.from_rows([group._vector(g)[:n] for g in group.generators], n)
    assert group.exponent_rank == exp_lat.rank
    assert group.is_subgroup_of_pm1() == (exp_lat.rank == 0)


def test_lattice_canonical_after_later_pivots():
    # reducing row 0 by the pivot row (0, 3, 1) must not undo column 2
    a = IntLattice.from_rows([[0, 3, 1], [-1, -3, 3], [1, -3, -3]], 3)
    b = IntLattice.from_rows([[0, 3, 1], [-1, -3, 3], [0, -6, 0]], 3)
    assert a.basis == b.basis == ((1, 0, 0), (0, 3, 1), (0, 0, 2))
    assert RationalMultGroup([6, -3]) == RationalMultGroup([-2, -3])


rows3 = st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=4)


@given(rows3, st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([1, -1])), max_size=8))
def test_lattice_echelon_is_canonical(rows, moves):
    """Unimodular row moves r_i <- r_i +- r_j keep the lattice and its form."""
    moved = [r[:] for r in rows]
    for i, j, e in moves:
        i, j = i % len(moved), j % len(moved)
        if i != j:
            moved[i] = [x + e * y for x, y in zip(moved[i], moved[j])]
    assert IntLattice.from_rows(rows, 3) == IntLattice.from_rows(moved, 3)


# -- the prime-vector RationalMultGroup the coprime base replaced, kept as oracle --


class _PrimeVectorGroupReference:
    def __init__(self, generators):
        self.generators = [Fraction(g) for g in generators]
        primes = set()
        for g in self.generators:
            primes |= set(factorize_uncapped(g.numerator)) | set(factorize_uncapped(g.denominator))
        self.primes = sorted(primes)
        rows = [self.vector(g) for g in self.generators] + [[0] * len(self.primes) + [2]]
        self.lat = IntLattice.from_rows(rows, len(self.primes) + 1)

    def vector(self, q):
        fq = factorize_uncapped(q.numerator)
        for p, e in factorize_uncapped(q.denominator).items():
            fq[p] = fq.get(p, 0) - e
        if set(fq) - set(self.primes):
            return None
        return [fq.get(p, 0) for p in self.primes] + [0 if q > 0 else 1]

    def contains(self, q):
        vec = self.vector(Fraction(q))
        return vec is not None and self.lat.contains(vec)

    @property
    def exponent_rank(self):
        return self.lat.rank - 1

    def is_cyclic(self):
        r = self.exponent_rank
        return r == 0 or (r == 1 and not self.lat.contains([0] * len(self.primes) + [1]))


small_rationals = st.fractions(min_value=Fraction(-60), max_value=Fraction(60), max_denominator=60).filter(bool)


@given(
    st.lists(small_rationals, max_size=4),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(5, 7), Fraction(4), Fraction(1, 6)]),
)
def test_mult_group_matches_prime_vector_oracle(gens, exps, twist):
    group, ref = RationalMultGroup(gens), _PrimeVectorGroupReference(gens)
    assert group.exponent_rank == ref.exponent_rank
    assert group.is_cyclic() == ref.is_cyclic()
    assert group.is_trivial() == (all(g == 1 for g in gens) or (ref.exponent_rank == 0 and not ref.contains(-1)))
    value = twist
    for g, e in zip(gens, exps):
        value *= g**e
    for q in (value, twist, -1, Fraction(2, 3)):
        assert group.contains(q) == ref.contains(q), q


@given(
    st.lists(small_rationals, min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([1, -1])), max_size=6),
    st.integers(0, 3),
    st.integers(-3, 3),
)
def test_mult_group_equality_survives_generator_moves(gens, moves, k, e):
    """g_i <- g_i g_j^+-1 and one extra power g_k^e generate the same group."""
    moved = list(gens)
    for i, j, sgn in moves:
        i, j = i % len(moved), j % len(moved)
        if i != j:
            moved[i] *= moved[j] ** sgn
    moved.append(gens[k % len(gens)] ** e)
    assert RationalMultGroup(gens) == RationalMultGroup(moved)
    assert RationalMultGroup(moved) == RationalMultGroup(gens)
