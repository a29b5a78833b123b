"""One SHA-256 over the compact JSON of a fixed set of quotient certificates.

Two commits that print the same digest build byte-identical certificates.
One line per group of certificates comes first, the digest of all last.
The set:

* descending_chain(n) for n = 1 .. 8 (three certificates each);
* infinite_family(m, n, count) for six (m, n, count), the first being
  (4, 6, 8), whose first members are the family ladder's smaller steps;
* minimal_bs_epi on the circles (2 3)^l for l = 1 .. 4;
* non_hopf_endo(m, n) for every non-Hopfian BS(m, n) with 0 < |m|, |n| <= 12.

    python3 scripts/cert_digest.py
"""

import hashlib
import json
import sys

import gbs
from gbs.arith import factorize

FAMILIES = ((4, 6, 8), (6, 10, 4), (4, 12, 5), (6, 6, 8), (9, 6, 3), (8, 12, 3))


def _prime_set(n: int) -> set:
    return set(factorize(n)) if abs(n) > 1 else set()


def groups():
    """(name, certificates) pairs in a fixed order."""
    for n in range(1, 9):
        member = gbs.descending_chain(n)
        yield f"chain {n}", [member.from_bs_18_36, member.to_next, member.to_bs_9_18]
    for m, n, count in FAMILIES:
        yield f"family {m} {n} {count}", [member.cert for member in gbs.infinite_family(m, n, count)]
    for l in range(1, 5):
        yield f"circle {l}", [gbs.minimal_bs_epi(gbs.circle_graph([2, 3] * l))]
    vals = [i for i in range(-12, 13) if i]
    pairs = [(m, n) for m in vals for n in vals if abs(m) != 1 and abs(n) != 1 and _prime_set(m) != _prime_set(n)]
    yield "non-Hopfian", [gbs.non_hopf_endo(m, n).cert for m, n in pairs]


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for name, certs in groups():
        part = hashlib.sha256()
        for cert in certs:
            text = json.dumps(cert.to_json(), separators=(",", ":")).encode()
            part.update(text + b"\n")
            total.update(text + b"\n")
        count += len(certs)
        print(f"{part.hexdigest()}  {name} ({len(certs)})")
    print(f"{total.hexdigest()}  {count} certificates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
