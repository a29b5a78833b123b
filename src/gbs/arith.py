"""Exact integer arithmetic: gcd/Bezout, valuations by gcd, a coprime base,
and trial-division factoring (with a hard cap) on arbitrary-precision ints.

`split_power` and `coprime_base` compare valuations by gcd alone.  Only
three kinds of caller factor: to name a prime (of R, for a small lollipop),
to choose one (`non_hopf_endo`, `infinite_family`), or to find the least
one (`least_prime_factor`, only where trial division finds no divisor:
primality tests and the condition-2 prime of `embeds_bs`).
"""

import os
from math import gcd  # positive gcd, gcd(0, 0) == 0

from .errors import FactorizationCapError, InputError

TRIAL_BOUND = 1000  # least_prime_factor's trial divisors stay below this


def env_int(name: str, default: int) -> int:
    """Integer value of the environment variable `name`, `default` if unset."""
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        raise InputError(f"{name} must be an integer, not {os.environ[name]!r}") from None


def factor_cap() -> int:  # the largest |n| that factorize splits; every caller reads it here
    return env_int("GBS_TOOLKIT_FACTOR_CAP", 10**9)


def vertex_cap() -> int:  # the most vertices mu's hitting-set search takes; read only here
    return env_int("GBS_TOOLKIT_MAX_VERTICES", 24)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g, coefficients small."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    r0, r1 = a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return r0, x0, y0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}.  Raises above factor_cap()."""
    if n == 0:
        raise ValueError("cannot factor 0")
    cap = factor_cap()
    n = abs(n)
    if n > cap:
        raise FactorizationCapError(f"|{n}| exceeds factorization cap {cap}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def least_prime_factor(n: int) -> int:
    """The least prime dividing |n| > 1 (1 for a unit).  Trial division below
    TRIAL_BOUND finds it for most n, and proves |n| prime below
    TRIAL_BOUND**2; only when it finds none is |n| factored, under the cap."""
    n, d = abs(n), 2
    while d < TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n if d * d > n else min(factorize(n))


def valuation(n: int, p: int) -> int:
    """p-adic valuation of n != 0."""
    if n == 0:
        raise ValueError("valuation of 0")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def split_power(a: int, b: int) -> tuple[int, int]:
    """(x, rest) for a != 0: x = max over primes p | b of ceil(v_p(a) / v_p(b))
    (0 when there is none), the least x with the b-primary part of a dividing
    b^x; rest is a (signed) with every prime of b removed."""
    if a == 0:
        raise ValueError("split_power of 0")
    x = 0
    while (g := gcd(a, b)) > 1:
        a //= g
        x += 1
    return x, a


def coprime_base(nums) -> list[int]:
    """Sorted, pairwise coprime integers > 1, every nonzero input +- a product
    of their powers (a gcd-free basis by naive refinement): each prime of an
    input divides one element, whose primes all divide the same inputs."""
    base: list[int] = []
    pending = list({abs(a) for a in nums} - {0, 1})
    while pending:
        a = pending.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                if g < b:  # else b, a piece of a, stays as it is
                    del base[i]
                    pending += (g, b // g)
                if g < a:
                    pending.append(a // g)
                break
        else:
            base.append(a)
    return sorted(base)
