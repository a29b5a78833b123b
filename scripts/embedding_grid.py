#!/usr/bin/env python3
"""Sweep the Baumslag-Solitar embedding grid: decide BS(r,s) < BS(m,n) for
all parameters in a box, construct a certificate for every yes, verify it,
and print the seconds spent deciding, building and verifying, and the
number of certificates of each route kind (the groups of
scripts/cert_digest.py).  The default bound 12 is the full criterion-3 grid.

Usage: python scripts/embedding_grid.py [BOUND]  (default 12)
"""

import sys
import time
from collections import Counter

from cert_digest import _route, criterion3_grid
from gbs import embed_bs_construct, embeds_bs, verify_embedding_certificate


def main(bound: int = 12) -> int:
    routes = Counter()
    yes = bad = 0
    phases = Counter()
    clock = time.perf_counter
    t0 = clock()
    for r, s, m, n in criterion3_grid(bound):
        t = clock()
        dec = embeds_bs(r, s, m, n)
        phases["decide"] += clock() - t
        if not dec:
            continue
        yes += 1
        t = clock()
        cert = embed_bs_construct(r, s, m, n)
        phases["build"] += clock() - t
        t = clock()
        ok, violations = verify_embedding_certificate(cert)
        phases["verify"] += clock() - t
        if not ok:
            bad += 1
            print(f"FAILED ({r},{s}) in ({m},{n}): {violations[:1]}")
        routes[_route(cert)] += 1
    dt = clock() - t0
    print(f"bound {bound}: {yes} embeddings, {bad} failures, {dt:.1f}s")
    print("  " + ", ".join(f"{phase} {phases[phase]:.2f}s" for phase in ("decide", "build", "verify")))
    for route, count in routes.most_common():
        print(f"  {count:6d}  {route}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 12))
