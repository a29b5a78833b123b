"""Command-line front end.

Graphs are given as a file path or an inline description (shorthand like
"circle 2 3" / "bs 2 3", or the full vertex/edge format).  Words use the
letter syntax a(v)^k / t(e)^-1.  Exit codes: 0 = decision computed (yes or
no), 1 = input error, 2 = an internal cap was exceeded, 3 = a catalog entry
failed.
"""

import argparse
import json
import os
import sys

from .arith import factor_cap, least_prime_factor, vertex_cap
from .bs_arith import embeds_bs, exists_epi_bs, is_hopfian_bs, is_rf_bs
from .catalog import ENTRIES, run_catalog
from .embeddings import (
    EmbeddingCertificate,
    embed_bs_construct,
    embeds_in_some_bs_nn,
    subgroup_of_bs_nn,
    verify_embedding_certificate,
)
from .errors import (
    FactorizationCapError,
    GBSError,
    InputError,
    MalformedWordError,
    VertexCapError,
    WordCapError,
)
from .graphs import LabelledGraph, classify_shape, parse_graph, reduce_graph
from .homs import HomCertificate, check_epi, check_hom, minimal_bs_epi
from .plateaus import mu, plateaus
from .quotients import (
    bs_sources,
    descending_chain,
    epi_equivalent_bs,
    infinite_family,
    maps_onto_minimal_bs,
    minimal_bs_source,
)
from .words import (
    Presentation,
    britton_reduce,
    equal,
    format_letters,
    is_elliptic,
    modulus,
    parse_letters,
)


def load_graph(spec: str) -> LabelledGraph:
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_graph(fh.read())
    tokens = [t for line in spec.splitlines() for t in line.split("#", 1)[0].split()]
    if tokens and tokens[0] in ("vertex", "edge", "segment", "circle", "lollipop", "bs"):
        return parse_graph(spec)
    raise InputError(f"no such file and not an inline graph: {spec!r}")


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(human)


def _yes_no(args, got, human: str = "yes", **fields):
    """Emit a yes/no answer; `fields` join the JSON payload of a yes."""
    _emit(args, {"answer": "yes", **fields} if got else {"answer": "no"}, human if got else "no")


def _emit_cert(args, payload: dict, build) -> dict:
    """Write build()'s certificate to --emit-cert, if given, before any output."""
    if args.emit_cert:
        with open(args.emit_cert, "w") as fh:
            json.dump(build().to_json(), fh, indent=2)
        payload["certificate"] = args.emit_cert
    return payload


def cmd_graph_info(args):
    g = load_graph(args.graph)
    shape = classify_shape(g)
    payload = {
        "graph": g.to_json(),
        "betti": g.betti(),
        "reduced": g.is_reduced(),
        "shape": shape.kind,
    }
    if shape.kind != "other":
        payload["qrxy"] = {"Q": shape.Q, "R": shape.R, "X": shape.X, "Y": shape.Y}
    _emit(args, payload, "\n".join(f"{k}: {v}" for k, v in payload.items() if k != "graph"))


def cmd_graph_reduce(args):
    g = load_graph(args.graph)
    red, records = reduce_graph(g)
    payload = {"reduced": red.to_json(), "moves": [r.to_json() for r in records]}
    _emit(args, payload, red.to_text().rstrip())


def cmd_rank(args):
    g = load_graph(args.graph)
    report = mu(g)
    payload = {
        "beta": report.beta,
        "mu": report.mu,
        "rank": report.rank,
        "hitting_set": sorted(report.hitting_set),
    }
    _emit(args, payload, f"rank {report.rank} (beta {report.beta} + mu {report.mu})")


def cmd_plateaus(args):
    g = load_graph(args.graph)
    if args.prime > 1 and least_prime_factor(args.prime) != args.prime:
        raise InputError(f"--prime must be a prime, not {args.prime}")
    found = plateaus(g, args.prime)
    payload = {"prime": args.prime, "plateaus": [sorted(p.vertices) for p in found]}
    _emit(args, payload, "\n".join(str(sorted(p.vertices)) for p in found) or "none")


def cmd_quot_sources(args):
    g = load_graph(args.graph)
    src = bs_sources(g)
    payload, human = {"sources": src.describe()}, src.describe()
    if args.test:
        m, n = args.test
        got = src.contains(m, n)
        payload["test"] = {"m": m, "n": n, "answer": got}
        human += f"\nBS({m},{n}): {'yes' if got else 'no'}"
    _emit(args, payload, human)


def cmd_quot_minimal(args):
    g = load_graph(args.graph)
    ms = minimal_bs_source(g)
    if ms.unique:
        _emit(args, {"minimal": list(ms.unique)}, f"BS{ms.unique}")
    else:
        _emit(args, {"minimal_pair": [list(p) for p in ms.pair]}, f"BS{ms.pair[0]} and BS{ms.pair[1]}")


def cmd_quot_epi_equiv(args):
    g = load_graph(args.graph)
    got = epi_equivalent_bs(g)
    fields = _emit_cert(args, {"bs": list(got)}, lambda: minimal_bs_epi(g)) if got else {}
    _yes_no(args, got, f"epi-equivalent to BS{got}", **fields)


def cmd_quot_family(args):
    members = infinite_family(args.m, args.n, count=args.count)
    payload = {"members": []}
    lines = []
    for mem in members:
        ok = check_epi(mem.cert)
        payload["members"].append(
            {"params": mem.params, "graph": mem.graph.to_json(), "cert_ok": ok}
        )
        lines.append(f"N={mem.params['N']} kind={mem.params['kind']} cert={'ok' if ok else 'FAIL'}")
    _emit(args, payload, "\n".join(lines))


def cmd_quot_chain(args):
    ch = descending_chain(args.n)
    oks = {
        "from_bs_18_36": check_epi(ch.from_bs_18_36),
        "to_next": check_epi(ch.to_next),
        "to_bs_9_18": check_epi(ch.to_bs_9_18),
    }
    payload = {"n": args.n, "graph": ch.graph.to_json(), "certificates": oks}
    _emit(args, payload, "\n".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in oks.items()))


def cmd_quot_onto_minimal(args):
    g = load_graph(args.graph)
    dec = maps_onto_minimal_bs(g)
    payload = dec.to_json()
    if dec:
        _emit_cert(args, payload, lambda: minimal_bs_epi(g))
    _emit(args, payload, f"{'yes' if dec else 'no'} ({dec.clause})")


def cmd_bs_embeds(args):
    dec = embeds_bs(*args.params)
    reason = f"{dec.clause}: {dec.reasons[0]}" if dec.reasons else dec.clause
    _emit(args, {**dec.to_json(), "reason": reason}, f"{'yes' if dec else 'no'} ({reason})")


def cmd_embed_construct(args):
    dec = embeds_bs(args.r, args.s, args.m, args.n)
    if not dec:
        return _emit(args, dec.to_json(), f"no ({dec.clause})")
    cert = embed_bs_construct(args.r, args.s, args.m, args.n)
    ok, _ = verify_embedding_certificate(cert)
    fields = _emit_cert(args, {"verified": ok, "provenance": cert.provenance}, lambda: cert)
    _yes_no(args, True, f"yes; certificate {'verified' if ok else 'INVALID'} ({cert.provenance})", **fields)


def cmd_embed_bsnn(args):
    g = load_graph(args.graph)
    if args.n is not None:
        _yes_no(args, subgroup_of_bs_nn(g, args.n, up_to_sign=args.up_to_sign))
    else:
        n = embeds_in_some_bs_nn(g)
        _yes_no(args, n, f"yes, n = {n}", n=n)


def cmd_word(args):
    g = load_graph(args.graph)
    tree = None if args.tree is None else frozenset(args.tree.split(",") if args.tree else ())  # "" is the empty tree
    pres = Presentation(g, tree, args.base)
    w = pres.letters_to_path(parse_letters(args.word))
    if args.op == "reduce":
        nf = britton_reduce(g, w)
        reduced = format_letters(pres.path_to_letters(nf.word.syllables))
        _emit(args, {"trivial": nf.trivial, "reduced": reduced}, f"trivial: {nf.trivial}; reduced: {reduced}")
    elif args.op == "modulus":
        val = modulus(g, w)
        _emit(args, {"modulus": str(val)}, str(val))
    else:  # elliptic or equal: yes/no, keyed by the op in JSON
        got = (equal(g, w, pres.letters_to_path(parse_letters(args.word2))) if args.op == "equal"
               else is_elliptic(g, w))
        _emit(args, {args.op: got}, "yes" if got else "no")


def cmd_verify(args):
    with open(args.cert) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also an integer of more digits than int() reads
            raise InputError(f"certificate JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("certificate JSON must be an object")
    kind = data.get("kind")
    loader = {"embedding": EmbeddingCertificate, "hom": HomCertificate}.get(kind) if type(kind) is str else None
    if loader is None:
        raise InputError(f"unknown certificate kind {kind!r}")
    cert = loader.from_json(data)
    if kind == "embedding":
        ok, violations = verify_embedding_certificate(cert)
        fields, human = {"violations": violations}, "valid" if ok else f"invalid: {violations[0]}"
    else:
        hom = check_hom(cert)
        epi = hom and cert.witnesses is not None and check_epi(cert)
        ok = epi if cert.witnesses is not None else hom  # witnesses claim the map is onto
        fields, human = {"hom": hom, "epi": epi}, f"hom: {hom}, epi: {epi}"
    _emit(args, {"answer": "valid" if ok else "invalid", **fields}, human)


def cmd_catalog(args):
    """Print each entry's PASS or FAIL line; exit code 3 when an entry failed."""
    results = run_catalog(only=args.only)
    ok = all(r["ok"] for r in results)
    lines = [f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']:<18} {r['detail']}" for r in results]
    lines.append(f"{sum(r['ok'] for r in results)}/{len(results)} entries pass")
    _emit(args, {"ok": ok, "entries": results}, "\n".join(lines))
    if not ok:
        sys.exit(3)


# An argument is (name, kind, argparse options).  Kinds: graph (a graph file or an inline
# graph), word (letter syntax), int, cert (a certificate file to read), out (one to write),
# vertex, edges (comma-separated names), flag and entry (a catalog entry name).
_KINDS = {
    "int": {"type": int},
    "flag": {"action": "store_true"},
    "entry": {"choices": [name for name, _ in ENTRIES]},
}
_GRAPH, _CERT, _EMIT = ("graph", "graph", {}), ("cert", "cert", {}), ("--emit-cert", "out", {})
_WORD = (_GRAPH, ("word", "word", {}), ("--base", "vertex", {}),
         ("--tree", "edges", {"help": "comma-separated spanning tree edges"}))
_PARAMS2, _PARAMS4 = (("params", "int", {"nargs": 2}),), (("params", "int", {"nargs": 4}),)

# Every subcommand once: its path, its handler and its arguments in order.
COMMANDS = (
    ("graph info", cmd_graph_info, (_GRAPH,)),
    ("graph reduce", cmd_graph_reduce, (_GRAPH,)),
    ("rank", cmd_rank, (_GRAPH,)),
    ("plateaus", cmd_plateaus, (_GRAPH, ("--prime", "int", {"required": True}))),
    ("quot sources", cmd_quot_sources, (_GRAPH, ("--test", "int", {"nargs": 2, "metavar": ("M", "N")}))),
    ("quot minimal", cmd_quot_minimal, (_GRAPH,)),
    ("quot epi-equiv", cmd_quot_epi_equiv, (_GRAPH, _EMIT)),
    ("quot onto-minimal", cmd_quot_onto_minimal, (_GRAPH, _EMIT)),
    ("quot family", cmd_quot_family, (("m", "int", {}), ("n", "int", {}), ("--count", "int", {"default": 5}))),
    ("quot chain", cmd_quot_chain, (("--n", "int", {"required": True}),)),
    ("bs hopfian", lambda args: _yes_no(args, is_hopfian_bs(*args.params)), _PARAMS2),
    ("bs rf", lambda args: _yes_no(args, is_rf_bs(*args.params)), _PARAMS2),
    ("bs epi", lambda args: _yes_no(args, exists_epi_bs(*args.params)), _PARAMS4),
    ("bs embeds", cmd_bs_embeds, _PARAMS4),
    ("embed construct", cmd_embed_construct, (*((x, "int", {}) for x in "rsmn"), _EMIT)),
    ("embed check", cmd_verify, (_CERT,)),
    ("embed bsnn", cmd_embed_bsnn, (_GRAPH, ("n", "int", {"nargs": "?"}), ("--up-to-sign", "flag", {}))),
    ("word reduce", cmd_word, _WORD),
    ("word modulus", cmd_word, _WORD),
    ("word elliptic", cmd_word, _WORD),
    ("word equal", cmd_word, (*_WORD, ("word2", "word", {}))),
    ("verify", cmd_verify, (_CERT,)),
    ("catalog", cmd_catalog, (("--only", "entry", {}),)),
)
# the help of each top-level name; bs and word name their choice "op"
_HELP = {
    "graph": "inspect graphs",
    "rank": "rank = beta + mu (reduced graphs)",
    "plateaus": "list p-plateaus",
    "quot": "quotient-direction deciders",
    "bs": "Baumslag-Solitar parameter deciders",
    "embed": "subgroup certificates",
    "word": "word problem over a graph",
    "verify": "re-verify a certificate file",
    "catalog": "run the worked-example regression table",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argv problems are input errors (exit 1)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"input error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="gbs", description=__doc__)
    top.add_argument("--json", action="store_true", help="machine-readable output (accepted anywhere)")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    groups = {}
    for path, fn, arguments in COMMANDS:
        head, _, leaf = path.partition(" ")
        if leaf and head not in groups:
            dest = "op" if head in ("bs", "word") else "subcommand"
            groups[head] = sub.add_parser(head, help=_HELP[head]).add_subparsers(dest=dest, required=True)
        q = groups[head].add_parser(leaf) if leaf else sub.add_parser(head, help=_HELP[head])
        for name, kind, options in arguments:
            q.add_argument(name, **_KINDS.get(kind, {}), **options)
        q.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_flag = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.json = json_flag
    try:
        factor_cap()  # a malformed cap is an input error for every subcommand
        vertex_cap()
        args.fn(args)
    except (VertexCapError, FactorizationCapError, WordCapError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # the frames that held the memory are gone by now
        print("cap exceeded: out of memory", file=sys.stderr)
        return 2
    except (InputError, MalformedWordError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except GBSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
