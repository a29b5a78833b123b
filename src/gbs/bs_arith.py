"""Arithmetic deciders on Baumslag-Solitar parameters (m, n).

BS(m, n) = < a, t | t a^m t^-1 = a^n >, m, n nonzero.  Everything here is
pure integer arithmetic; graph-level questions live in quotients.py and
embeddings.py.
"""

from .arith import factor_cap, gcd, least_prime_factor, split_power, valuation
from .decision import Decision
from .errors import DecisionError


def _require_nonzero(*values):
    if 0 in values:
        raise DecisionError("Baumslag-Solitar parameters must be nonzero")


def is_hopfian_bs(m: int, n: int) -> bool:
    """Hopfian iff m or n is a unit or |m|, |n| share their prime set."""
    _require_nonzero(m, n)
    if abs(m) == 1 or abs(n) == 1:
        return True
    return abs(split_power(m, n)[1]) == 1 and abs(split_power(n, m)[1]) == 1


def multiple_direction(m: int, n: int, a: int, b: int):
    """1 if (m, n) is an integral multiple of (a, b), else -1 if it is one
    of (b, a), else None."""
    for direction, (x, y) in ((1, (a, b)), (-1, (b, a))):
        if m % x == 0 and n % y == 0 and m // x == n // y:
            return direction
    return None


def exists_epi_bs(m: int, n: int, m2: int, n2: int) -> bool:
    """BS(m,n) ->> BS(m2,n2): (m,n) an integral multiple of (m2,n2) or
    (n2,m2), or the target is the Klein bottle group and m = n is even."""
    _require_nonzero(m, n, m2, n2)
    if multiple_direction(m, n, m2, n2) is not None:
        return True
    return (m2, n2) in ((1, -1), (-1, 1)) and m == n and m % 2 == 0


def _lowest_terms(p: int, q: int) -> tuple[int, int]:
    """p/q as (numerator, denominator) with gcd 1 and denominator > 0."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def loop_match(got: tuple[int, int], want: tuple[int, int]):
    """The first (sign, direction) of (1, 1), (1, -1), (-1, 1), (-1, -1) with sign * got equal to want
    (direction 1) or to want swapped (-1), or None: the one rule BS(m, n) = BS(n, m) = BS(-m, -n)."""
    m, n = want
    for sgn in (1, -1):
        a, b = sgn * got[0], sgn * got[1]
        if a == m and b == n:
            return sgn, 1
        if a == n and b == m:
            return sgn, -1
    return None


def power_of_ratio(r: int, s: int, m: int, n: int):
    """Integer beta with r/s = (m/n)^beta in Q*, or None.  beta = 0 only for
    r/s = 1; sign compatibility is part of the test.  Integers only: the
    final test cross-multiplies."""
    _require_nonzero(r, s, m, n)
    ta, tb = _lowest_terms(r, s)
    ba, bb = _lowest_terms(m, n)
    if ba == bb:
        return 0 if ta == tb else None
    if ba == -bb:
        if ta == tb:
            return 0
        return 1 if ta == -tb else None
    if ta == tb:
        return 0
    # r/s = a/b, m/n = c/d in lowest terms: beta > 0 forces |a| = |c|^beta and
    # b = d^beta, beta < 0 forces |a| = d^|beta| and b = |c|^|beta|
    a, b, c, d = abs(ta), tb, abs(ba), bb
    sgn = 1
    if gcd(a, c) == 1 and gcd(b, d) == 1:
        sgn, c, d = -1, d, c
    x, y = (a, c) if c > 1 else (b, d)
    beta = 0
    while x % y == 0:
        x //= y
        beta += sgn
    # r/s == (m/n)^beta, signs included, cross-multiplied
    up, down, k = (ba, bb, beta) if beta >= 0 else (bb, ba, -beta)
    if ta * down**k != tb * up**k:
        return None
    return beta


def equal_exponent_part(m: int, n: int) -> int:
    """delta1 > 0, the product of p^v_p(m) over the primes with v_p(m) =
    v_p(n) > 0: the primes of g = gcd(m, n) not dividing (m/g)(n/g)."""
    g = gcd(m, n)
    return split_power(g, (m // g) * (n // g))[1]


def embeds_bs(r: int, s: int, m: int, n: int) -> Decision:
    """BS(r,s) embeds into BS(m,n)?  Three-condition test; (r, s) must be
    non-elementary (route Z^2 and K through embeds_elementary)."""
    beta = power_of_ratio(r, s, m, n)  # checks that no parameter is 0 first
    if abs(r) == 1 and abs(s) == 1:
        raise DecisionError("elementary BS(r,s): use embeds_elementary")
    if beta is None:
        return Decision(False, "condition 1", (f"{r}/{s} is not a power of {m}/{n}",))
    # v_p(m) = v_p(n) iff p does not divide u, and then v_p(m) = v_p(delta1):
    # condition 2 asks that r and s without the primes of u divide delta1
    u, delta1 = m * n // gcd(m, n) ** 2, equal_exponent_part(m, n)
    rests = [abs(split_power(x, u)[1]) for x in (r, s)]
    failing = [rest // gcd(rest, delta1) for rest in rests if delta1 % rest]
    if failing:  # the answer is known; naming the least p tries small divisors first
        cap = factor_cap()
        for f in failing:
            if f > cap:
                return Decision(False, "condition 2", (f"failing part {f} is above the factorization cap",))
        p = min(map(least_prime_factor, failing))
        return Decision(False, "condition 2", (f"p={p}, alpha={valuation(m, p)}",))
    if (abs(m) == 1 or abs(n) == 1) and not (abs(r) == 1 or abs(s) == 1):
        return Decision(False, "condition 3", ("target is solvable, source is not",))
    return Decision(True, f"conditions 1-3 hold (beta={beta})")


def embeds_elementary(which: str, m: int, n: int) -> bool:
    """which = 'Z2' or 'K': does it embed into BS(m, n)?"""
    _require_nonzero(m, n)
    if which == "Z2":
        solvable = (abs(m) == 1) != (abs(n) == 1)
        return not solvable
    if which == "K":
        if m == -n:
            return True
        if m % 2 == 0 and abs(n) != 1:
            return True
        if n % 2 == 0 and abs(m) != 1:
            return True
        return False
    raise DecisionError(f"unknown elementary group {which!r} (want 'Z2' or 'K')")


def is_rf_bs(m: int, n: int) -> bool:
    """Residually finite iff m = +-1, n = +-1, or m = +-n."""
    _require_nonzero(m, n)
    return abs(m) == 1 or abs(n) == 1 or abs(m) == abs(n)
