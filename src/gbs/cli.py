"""Command-line front end.

Graphs are given as a file path or an inline description (shorthand like
"circle 2 3" / "bs 2 3", or the full vertex/edge format).  Words use the
letter syntax a(v)^k / t(e)^-1.  Exit codes: 0 = decision computed (yes or
no), 1 = input error, 2 = an internal cap was exceeded.
"""

import argparse
import json
import os
import sys

from .arith import env_int, least_prime_factor
from .bs_arith import embeds_bs, exists_epi_bs, is_hopfian_bs, is_rf_bs
from .catalog import run_catalog
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
from .graphs import LabelledGraph, classify_shape, parse_graph, qrxy, reduce_graph
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


def _presentation(args, g: LabelledGraph) -> Presentation:
    tree = frozenset(args.tree.split(",")) if getattr(args, "tree", None) else None
    base = getattr(args, "base", None)
    return Presentation(g, tree, base)


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
        prods = qrxy(shape)
        payload["qrxy"] = {"Q": prods.Q, "R": prods.R, "X": prods.X, "Y": prods.Y}
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
    payload = {"sources": src.describe()}
    if args.test:
        m, n = args.test
        payload["test"] = {"m": m, "n": n, "answer": src.contains(m, n)}
    human = src.describe()
    if args.test:
        human += f"\nBS({args.test[0]},{args.test[1]}): {'yes' if payload['test']['answer'] else 'no'}"
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
    payload = {"answer": "yes" if got else "no"}
    if got:
        payload["bs"] = list(got)
        if args.emit_cert:
            cert = minimal_bs_epi(g)
            with open(args.emit_cert, "w") as fh:
                json.dump(cert.to_json(), fh, indent=2)
            payload["certificate"] = args.emit_cert
    _emit(args, payload, f"epi-equivalent to BS{got}" if got else "no")


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
    if dec and args.emit_cert:
        cert = minimal_bs_epi(g)
        with open(args.emit_cert, "w") as fh:
            json.dump(cert.to_json(), fh, indent=2)
        payload["certificate"] = args.emit_cert
    _emit(args, payload, f"{'yes' if dec else 'no'} ({dec.clause})")


def cmd_bs(args):
    if args.op == "hopfian":
        got = is_hopfian_bs(args.params[0], args.params[1])
        _emit(args, {"answer": "yes" if got else "no"}, "yes" if got else "no")
    elif args.op == "rf":
        got = is_rf_bs(args.params[0], args.params[1])
        _emit(args, {"answer": "yes" if got else "no"}, "yes" if got else "no")
    elif args.op == "epi":
        got = exists_epi_bs(*args.params)
        _emit(args, {"answer": "yes" if got else "no"}, "yes" if got else "no")
    elif args.op == "embeds":
        dec = embeds_bs(*args.params)
        payload = dec.to_json()
        if dec.reasons:
            payload["reason"] = f"{dec.clause}: {dec.reasons[0]}"
        else:
            payload["reason"] = dec.clause
        _emit(args, payload, f"{'yes' if dec else 'no'} ({payload['reason']})")


def cmd_embed_construct(args):
    r, s, m, n = args.r, args.s, args.m, args.n
    dec = embeds_bs(r, s, m, n)
    if not dec:
        _emit(args, dec.to_json(), f"no ({dec.clause})")
        return
    cert = embed_bs_construct(r, s, m, n)
    ok, violations = verify_embedding_certificate(cert)
    payload = {"answer": "yes", "verified": ok, "provenance": cert.provenance}
    if args.emit_cert:
        with open(args.emit_cert, "w") as fh:
            json.dump(cert.to_json(), fh, indent=2)
        payload["certificate"] = args.emit_cert
    _emit(args, payload, f"yes; certificate {'verified' if ok else 'INVALID'} ({cert.provenance})")


def cmd_embed_bsnn(args):
    g = load_graph(args.graph)
    if args.n is not None:
        got = subgroup_of_bs_nn(g, args.n, up_to_sign=args.up_to_sign)
        _emit(args, {"answer": "yes" if got else "no"}, "yes" if got else "no")
    else:
        n = embeds_in_some_bs_nn(g)
        payload = {"answer": "yes" if n else "no"}
        if n:
            payload["n"] = n
        _emit(args, payload, f"yes, n = {n}" if n else "no")


def cmd_word(args):
    g = load_graph(args.graph)
    pres = _presentation(args, g)
    w = pres.letters_to_path(parse_letters(args.word))
    if args.op == "reduce":
        nf = britton_reduce(g, w)
        payload = {
            "trivial": nf.trivial,
            "reduced": format_letters(pres.path_to_letters(nf.word.syllables)),
        }
        _emit(args, payload, f"trivial: {nf.trivial}; reduced: {payload['reduced']}")
    elif args.op == "modulus":
        val = modulus(g, w)
        _emit(args, {"modulus": str(val)}, str(val))
    elif args.op == "elliptic":
        got = is_elliptic(g, w)
        _emit(args, {"elliptic": got}, "yes" if got else "no")
    elif args.op == "equal":
        w2 = pres.letters_to_path(parse_letters(args.word2))
        got = equal(g, w, w2)
        _emit(args, {"equal": got}, "yes" if got else "no")


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
    try:
        cert = loader.from_json(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed {kind} certificate: {type(exc).__name__}: {exc}") from exc
    if kind == "embedding":
        ok, violations = verify_embedding_certificate(cert)
        payload = {"answer": "valid" if ok else "invalid", "violations": violations}
        _emit(args, payload, payload["answer"] + ("" if ok else f": {violations[0]}"))
    else:
        hom_ok = check_hom(cert)
        epi_ok = hom_ok and cert.witnesses is not None and check_epi(cert)
        payload = {
            "answer": "valid" if hom_ok else "invalid",
            "hom": hom_ok,
            "epi": epi_ok,
        }
        _emit(args, payload, f"hom: {hom_ok}, epi: {epi_ok}")


def cmd_catalog(args):
    results = run_catalog(only=args.only)
    ok = all(r["ok"] for r in results)
    if args.json:
        print(json.dumps({"ok": ok, "entries": results}, indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']:<18} {r['detail']}")
        print(f"{sum(r['ok'] for r in results)}/{len(results)} entries pass")
    if not ok:
        sys.exit(3)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argv problems are input errors (exit 1)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"input error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="gbs", description=__doc__)
    top.add_argument("--json", action="store_true", help="machine-readable output (accepted anywhere)")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("graph", help="inspect graphs")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    q = gsub.add_parser("info")
    q.add_argument("graph")
    q.set_defaults(fn=cmd_graph_info)
    q = gsub.add_parser("reduce")
    q.add_argument("graph")
    q.set_defaults(fn=cmd_graph_reduce)

    q = sub.add_parser("rank", help="rank = beta + mu (reduced graphs)")
    q.add_argument("graph")
    q.set_defaults(fn=cmd_rank)

    q = sub.add_parser("plateaus", help="list p-plateaus")
    q.add_argument("graph")
    q.add_argument("--prime", type=int, required=True)
    q.set_defaults(fn=cmd_plateaus)

    p = sub.add_parser("quot", help="quotient-direction deciders")
    qsub = p.add_subparsers(dest="subcommand", required=True)
    q = qsub.add_parser("sources")
    q.add_argument("graph")
    q.add_argument("--test", type=int, nargs=2, metavar=("M", "N"))
    q.set_defaults(fn=cmd_quot_sources)
    q = qsub.add_parser("minimal")
    q.add_argument("graph")
    q.set_defaults(fn=cmd_quot_minimal)
    q = qsub.add_parser("epi-equiv")
    q.add_argument("graph")
    q.add_argument("--emit-cert")
    q.set_defaults(fn=cmd_quot_epi_equiv)
    q = qsub.add_parser("onto-minimal")
    q.add_argument("graph")
    q.add_argument("--emit-cert")
    q.set_defaults(fn=cmd_quot_onto_minimal)
    q = qsub.add_parser("family")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    q.add_argument("--count", type=int, default=5)
    q.set_defaults(fn=cmd_quot_family)
    q = qsub.add_parser("chain")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(fn=cmd_quot_chain)

    p = sub.add_parser("bs", help="Baumslag-Solitar parameter deciders")
    bsub = p.add_subparsers(dest="op", required=True)
    for op, nargs in (("hopfian", 2), ("rf", 2), ("epi", 4), ("embeds", 4)):
        q = bsub.add_parser(op)
        q.add_argument("params", type=int, nargs=nargs)
        q.set_defaults(fn=cmd_bs, op=op)

    p = sub.add_parser("embed", help="subgroup certificates")
    esub = p.add_subparsers(dest="subcommand", required=True)
    q = esub.add_parser("construct")
    for name in ("r", "s", "m", "n"):
        q.add_argument(name, type=int)
    q.add_argument("--emit-cert")
    q.set_defaults(fn=cmd_embed_construct)
    q = esub.add_parser("check")
    q.add_argument("cert")
    q.set_defaults(fn=cmd_verify)
    q = esub.add_parser("bsnn")
    q.add_argument("graph")
    q.add_argument("n", type=int, nargs="?")
    q.add_argument("--up-to-sign", action="store_true")
    q.set_defaults(fn=cmd_embed_bsnn)

    p = sub.add_parser("word", help="word problem over a graph")
    wsub = p.add_subparsers(dest="op", required=True)
    for op in ("reduce", "modulus", "elliptic"):
        q = wsub.add_parser(op)
        q.add_argument("graph")
        q.add_argument("word")
        q.add_argument("--base")
        q.add_argument("--tree", help="comma-separated spanning tree edges")
        q.set_defaults(fn=cmd_word, op=op)
    q = wsub.add_parser("equal")
    q.add_argument("graph")
    q.add_argument("word")
    q.add_argument("word2")
    q.add_argument("--base")
    q.add_argument("--tree")
    q.set_defaults(fn=cmd_word, op="equal")

    q = sub.add_parser("verify", help="re-verify a certificate file")
    q.add_argument("cert")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("catalog", help="run the worked-example regression table")
    q.add_argument("--only")
    q.set_defaults(fn=cmd_catalog)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_flag = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.json = json_flag
    try:
        for name in ("GBS_TOOLKIT_FACTOR_CAP", "GBS_TOOLKIT_MAX_VERTICES"):
            env_int(name, 0)  # a malformed value is an input error for every subcommand
        args.fn(args)
    except (VertexCapError, FactorizationCapError, WordCapError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (InputError, MalformedWordError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except GBSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
