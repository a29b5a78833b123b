"""Regression catalog: the worked examples the deciders must reproduce.

Every entry is an independent callable returning (ok, detail).  The CLI's
`catalog` subcommand and the acceptance suite both run this table.
"""

from fractions import Fraction

from . import (
    bs_graph,
    check_admissible,
    check_epi,
    circle_bs_subgroup,
    circle_graph,
    contains_bs,
    contains_z2_k,
    embed_bs_construct,
    embeds_bs,
    embeds_elementary,
    epi_equivalent_bs,
    exists_epi_bs,
    finitely_many_quotients,
    infinite_family,
    is_hopfian_bs,
    is_large,
    is_quotient_of_bs,
    is_rf_bs,
    is_two_generated,
    is_unimodular,
    lollipop_graph,
    maps_onto_minimal_bs,
    modular_image,
    mu,
    non_hopf_endo,
    segment_center_index,
    segment_graph,
    subgroup_of_bs_nn,
    bs_source_epi,
    verify_embedding_certificate,
)
from .arith import gcd
from .graphs import graph_from_edges, reduce_graph
from .homs import move_cert
from .quotients import descending_chain
from .words import Presentation, britton_reduce, modulus


def _table(fn, cases):
    """Check bool(fn(*args)) == want for each (args, want) case."""
    bad = [args for args, want in cases if bool(fn(*args)) != want]
    return not bad, f"{len(cases) - len(bad)}/{len(cases)} entries agree" + (
        f"; wrong: {bad[:4]}" if bad else ""
    )


def entry_hopfian():
    cases = [
        ((2, 3), False),
        ((2, 4), True),
        ((1, 5), True),
        ((4, 6), False),
        ((6, 10), False),
    ]
    return _table(is_hopfian_bs, cases)


def entry_bs_epi():
    cases = [
        ((18, 36, 9, 18), True),
        ((6, 10, 3, 5), True),
        ((4, 4, 1, -1), True),
        ((3, 3, 1, -1), False),
        ((2, 3, 2, 3), True),
    ]
    return _table(exists_epi_bs, cases)


def entry_embeds_table():
    cases = [
        ((12, 20, 6, 10), False),
        ((4, 9, 2, 3), True),
        ((4, 4, 2, 2), False),
    ]
    for a in range(3):
        for b in range(3):
            for c in range(3):
                r, s = 2 ** (a + b) * 3**c, 2**b * 3 ** (a + c)
                if (abs(r), abs(s)) == (1, 1):
                    continue
                cases.append(((r, s, 2, 3), True))
    for r in range(-6, 7):
        for s in range(-6, 7):
            if r == 0 or s == 0 or (abs(r) == 1 and abs(s) == 1):
                continue
            if abs(r) != abs(s):
                cases.append(((r, s, 3, 3), False))
    return _table(embeds_bs, cases)


def entry_non_hopf():
    res = non_hopf_endo(2, 3)
    pres = res.cert.source
    w = res.kernel_witness
    ok1 = check_epi(res.cert)
    ok2 = not britton_reduce(pres.graph, pres.letters_to_path(w)).trivial
    ok3 = britton_reduce(pres.graph, pres.letters_to_path(res.cert.image_of(w))).trivial
    return ok1 and ok2 and ok3, f"epi={ok1} kernel-witness nontrivial={ok2} killed={ok3}"


def entry_segment_sources():
    g = segment_graph([2, 3])
    checked = 0
    for m in range(1, 31):
        want = m % 2 == 0 or m % 3 == 0
        got = is_quotient_of_bs(g, m, m)
        if got != want:
            return False, f"m={m}: got {got}, want {want}"
        if got:
            if not check_epi(bs_source_epi(g, m, m)):
                return False, f"m={m}: certificate failed"
            checked += 1
    for m, n in ((2, 3), (4, 6), (6, 4)):
        if is_quotient_of_bs(g, m, n):
            return False, f"({m},{n}) wrongly accepted"
    return True, f"{checked} certificates verified"


def entry_descending_chain():
    ch = descending_chain(2)
    oks = [check_epi(ch.from_bs_18_36), check_epi(ch.to_next), check_epi(ch.to_bs_9_18)]
    return all(oks), f"BS(18,36)->>G_2->>G_3, G_2->>BS(9,18): {oks}"


def entry_onto_minimal():
    g = graph_from_edges([("e1", "u", "w", 3, 3), ("e2", "w", "u", 2, 4)])
    g1, c1, _ = move_cert(g, "contraction", "e1", "u")
    g2, c2, _ = move_cert(g, "contraction", "e2", "w")
    got1 = tuple(sorted(abs(l) for l in g1.labels()))
    got2 = tuple(sorted(abs(l) for l in g2.labels()))
    onto_min = maps_onto_minimal_bs(g).answer
    ok = (
        check_epi(c1)
        and check_epi(c2)
        and got1 == (2, 4)
        and got2 == (3, 6)
        and onto_min is False
    )
    return ok, f"onto BS(4,2): {check_epi(c1)}, onto BS(6,3): {check_epi(c2)}, onto BS(12,6): {onto_min}"


def entry_circle_grid():
    bad = []
    for alpha in range(1, 8):
        for betav in range(1, 8):
            for gamma in range(1, 8, 2):
                g = graph_from_edges(
                    [("e0", "w0", "w1", 2 * betav, 2), ("e1", "w1", "w0", gamma, 2 * alpha)]
                )
                g, _ = reduce_graph(g)
                two_gen, _ = is_two_generated(g)
                if not two_gen:
                    bad.append((alpha, betav, gamma, "not 2-generated"))
                    continue
                got = epi_equivalent_bs(g) is not None
                want = gcd(gamma, alpha) == 1
                if got != want:
                    bad.append((alpha, betav, gamma, got))
    return not bad, f"grid gamma odd, alpha,beta <= 7: {'ok' if not bad else bad[:3]}"


def entry_quotient_finiteness():
    cases = [
        ((2, 4), True),
        ((4, 6), False),
        ((3, -3), True),
        ((2, 2), False),
    ]
    ok, msg = _table(finitely_many_quotients, cases)
    if not ok:
        return ok, msg
    fam = infinite_family(4, 6, count=3)
    certs = all(check_epi(mem.cert) for mem in fam)
    equiv = all(
        epi_equivalent_bs(mem.graph) in ((4, 6), (6, 4), (-4, -6), (-6, -4))
        for mem in fam
    )
    return certs and equiv, f"{msg}; family certs={certs}, epi-equivalent={equiv}"


def entry_rf():
    cases = [
        ((2, 4), False),
        ((1, 6), True),
        ((5, -5), True),
        ((2, 2), True),
        ((2, 3), False),
    ]
    ok, msg = _table(is_rf_bs, cases)
    g = graph_from_edges([("e0", "u", "w", 2, 2), ("e1", "w", "w", 1, -1)])
    unim = is_unimodular(g) and modular_image(g).contains(Fraction(-1))
    return ok and unim, f"{msg}; <a,b,t|a2=b2,tbt-1=b-1> unimodular={unim}"


def entry_subgroup_maps():
    g = circle_graph([2, 5, 3, 7])
    cert = circle_bs_subgroup(g, 6, 35)
    ok1, _ = verify_embedding_certificate(cert)
    cert2 = embed_bs_construct(4, 8, 2, 4)
    ok2, _ = verify_embedding_certificate(cert2)
    adm = check_admissible(cert.map)
    return ok1 and ok2 and not adm, f"three-block circle ok={ok1} (admissible={adm}), power circle ok={ok2}"


def entry_elementary_subgroups():
    cases = [
        (("Z2", 1, 2), False),
        (("Z2", 2, 3), True),
        (("K", 3, -3), True),
        (("K", 3, 5), False),
        (("K", 2, 6), True),
    ]
    ok, msg = _table(embeds_elementary, cases)
    z2, _ = contains_z2_k(bs_graph(1, 5))
    _, k = contains_z2_k(bs_graph(4, -4))
    _, k2 = contains_z2_k(segment_graph([2, 3]))
    return ok and not z2 and k.answer and k2.answer, msg


def entry_gcd_chain():
    # coprime labels: N = product of the q's
    n1 = segment_center_index(1, [2, 3], [5, 7])
    want1 = 6
    # equal p-valuation labels with r0 = 1: N exactly divisible by p^alpha
    n2 = segment_center_index(1, [2, 6], [2, 10])
    ok2 = n2 % 2 == 0 and n2 % 4 != 0
    return n1 == want1 and ok2, f"coprime N={n1} (want {want1}); 2-adic N={n2}"


def entry_moduli():
    g23 = bs_graph(2, 3)
    ok1 = contains_bs(bs_graph(2, 4), 1, 2)
    ok2 = contains_bs(g23, 4, 9)
    ok3 = not modular_image(bs_graph(3, 3)).contains(Fraction(2, 3))
    return ok1 and ok2 and ok3, f"BS(2,4)>BS(1,2)={ok1}, BS(2,3)>BS(4,9)={ok2}, BS(3,3)!>BS(2,3)={ok3}"


def entry_large():
    cases = [
        ((bs_graph(2, 3),), False),
        ((bs_graph(2, 4),), True),
        ((segment_graph([2, 3]),), True),
    ]
    return _table(is_large, cases)


def entry_subnn():
    four_labels = graph_from_edges([("e0", "v", "v", 6, 6), ("e1", "v", "v", 6, 6)])
    cases = [
        ((four_labels, 6), True),
        ((bs_graph(2, 3), 6), False),
        ((segment_graph([2, 2]), 6), True),
    ]
    return _table(subgroup_of_bs_nn, cases)


def entry_lollipop_words():
    g = lollipop_graph([6, 16], [3, 6])
    pres = Presentation(g, frozenset({"s0"}))
    rel_ok = all(
        britton_reduce(g, pres.letters_to_path(rel)).trivial for rel in pres.relations()
    )
    tau_mod = modulus(g, pres.letters_to_path((("t", "c0", 1),)))
    rank_ok = mu(g).rank == 2
    return rel_ok and tau_mod == Fraction(1, 2) and rank_ok, (
        f"relators trivial={rel_ok}, tau modulus={tau_mod}, rank 2={rank_ok}"
    )


ENTRIES = [
    ("hopf-table", entry_hopfian),
    ("bs-epi", entry_bs_epi),
    ("embeds-table", entry_embeds_table),
    ("non-hopf", entry_non_hopf),
    ("segment-sources", entry_segment_sources),
    ("descending-chain", entry_descending_chain),
    ("onto-minimal", entry_onto_minimal),
    ("circle-grid", entry_circle_grid),
    ("quotient-finiteness", entry_quotient_finiteness),
    ("rf", entry_rf),
    ("subgroup-maps", entry_subgroup_maps),
    ("elementary", entry_elementary_subgroups),
    ("gcd-chain", entry_gcd_chain),
    ("moduli-subgroups", entry_moduli),
    ("large", entry_large),
    ("bsnn", entry_subnn),
    ("lollipop-words", entry_lollipop_words),
]


def run_catalog(only: str | None = None):
    """Run entries in table order and return a list of result dicts."""
    results = []
    for name, fn in ENTRIES:
        if only is None or name == only:
            ok, detail = _safe(fn)
            results.append({"name": name, "ok": ok, "detail": detail})
    return results


def _safe(fn):
    try:
        return fn()
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"
