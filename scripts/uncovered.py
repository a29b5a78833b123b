#!/usr/bin/env python3
"""Print, by function, the statements of src/gbs that no test reaches and
that ALLOWED does not list.

Runs pytest in this process under a standard-library line tracer
(sys.settrace) that records only frames of src/gbs, then compares the
recorded lines with the line starts of every code object compiled from
src/gbs.  The tracer starts before anything imports gbs, so lines run at
import count.  It traces the main thread only, and not the tests that run
gbs in a subprocess.  Tier-1 takes about three times as long under it.
Hypothesis draws from a fixed seed (HYPOTHESIS_SEED) unless the arguments
give one, so two runs reach the same statements.

It also prints the stale ALLOWED entries: those whose statements all ran,
and those that name no statement of the source.

Exit status: pytest's when the tests fail; otherwise 1 when an unreached
statement is not listed or an entry is stale, and 0 when neither.

Usage: python scripts/uncovered.py [PYTEST ARGS]   (default: the tests directory)
"""

import ast
import dis
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "gbs") + os.sep
HYPOTHESIS_SEED = 0

_SELF_CHECK = "self-check: raised only if a construction the module proves correct is wrong"

# (file in src/gbs, qualified name of the function, statement text) -> why no test runs it.  The
# text is the statement's first line without indent or trailing comment; an entry covers that
# statement and every statement inside it.
ALLOWED = {
    ("homs.py", "non_hopf_endo", 'raise AssertionError("non-Hopfian pair admits a one-sided prime")'):
        _SELF_CHECK + ": a non-Hopfian BS(m, n) has a prime dividing one parameter only",
    ("homs.py", "non_hopf_endo", 'raise AssertionError("gcd closure must succeed for the power map")'):
        _SELF_CHECK + ": the witness closure finds witnesses for a -> a^p, t -> t",
    ("homs.py", "non_hopf_endo", 'raise AssertionError("kernel witness collapsed")'):
        _SELF_CHECK + ": the commutator [t a^(m/p) t^-1, a] is nontrivial",
    ("homs.py", "non_hopf_endo", 'raise AssertionError("kernel witness not killed")'):
        _SELF_CHECK + ": the power map sends the commutator to 1",
    ("homs.py", "non_hopf_endo", 'raise AssertionError("non-Hopf endomorphism failed its own check")'):
        _SELF_CHECK + ": the certificate passes check_epi",
    ("embeddings.py", "_derive_map", "raise CertificateError("):
        _SELF_CHECK + ": every pattern has consistent edge multiplicities",
    ("embeddings.py", "_finish_cert", 'raise CertificateError(f"construction not weakly admissible: {violations[:3]}")'):
        _SELF_CHECK + ": every derived map is weakly admissible",
    ("embeddings.py", "_block_circle", 'raise CertificateError(f"no block-circle solution for ({rhat},{shat}) in ({m},{n})")'):
        _SELF_CHECK + ": the exponents x, y solve the block-circle equations",
    ("embeddings.py", "_block_circle_map", 'raise AssertionError("block circle does not close")'):
        _SELF_CHECK + ": the seven steps sum to (0, 0) for every x, y and beta",
    ("embeddings.py", "_power_circle", 'raise CertificateError(f"no power-circle form for ({rhat},{shat}) in ({m},{n})")'):
        _SELF_CHECK + ": a power-circle route is taken only where one form solves",
    ("embeddings.py", "_pendant_extend", 'raise CertificateError("no multiplicity coprime to the index: cannot extend")'):
        _SELF_CHECK + ": the ring has a vertex of multiplicity coprime to the index",
    ("embeddings.py", "_pendant_extend", 'raise CertificateError("pendant target does not reduce to BS(m, n)")'):
        _SELF_CHECK + ": the pendant target collapses to the loop of BS(m, n)",
    ("plateaus.py", "mu", 'raise AssertionError("unreachable: whole vertex set hits everything")'):
        _SELF_CHECK + ": the whole vertex set hits every plateau",
    ("cli.py", "main", "except MemoryError:"):
        "child process only: tests/test_cli.py runs it under setrlimit, and the tracer follows no child",
    ("cli.py", "<module>", 'if __name__ == "__main__":'):
        "child process only: python -m gbs.cli runs it, and the tracer follows no child",
}


def _code_objects(code):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _key(code) -> tuple:
    """The same key for a code object compiled here and the one imported."""
    return code.co_filename, code.co_firstlineno, code.co_name


def _text(line: str) -> str:
    """A statement's text: its first line without indent or trailing comment."""
    return re.sub(r"\s+#[^'\"]*$", "", line).strip()


def holders(name: str) -> dict:
    """line -> (qualified name of the function or class holding it, the
    texts of the statements of that function holding it, innermost first),
    for each line of a statement of src/gbs/<name>."""
    with open(os.path.join(PACKAGE, name)) as fh:
        source = fh.read()
    lines, out = source.splitlines(), {}

    def visit(nodes, qualname, in_function, outer):
        for node in nodes:
            chain = [_text(lines[node.lineno - 1]), *outer]
            for line in range(node.lineno, node.end_lineno + 1):
                out[line] = qualname, chain
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                prefix = f"{qualname}.<locals>." if in_function else "" if qualname == "<module>" else f"{qualname}."
                visit(node.body, prefix + node.name, not isinstance(node, ast.ClassDef), [])
            else:
                for field in ("body", "orelse", "handlers", "finalbody"):
                    visit(getattr(node, field, ()), qualname, in_function, chain)

    visit(ast.parse(source).body, "<module>", False, [])
    return out


def _entries(name: str, held) -> set:
    """The ALLOWED entries that cover a line of src/gbs/<name> held as `held`."""
    qualname, chain = held
    return {(name, qualname, text) for text in chain} & ALLOWED.keys()


def missing_entries() -> list:
    """The ALLOWED entries that name no statement of the source."""
    named = set()
    for name in {entry[0] for entry in ALLOWED}:
        named.update(*(_entries(name, held) for held in holders(name).values()))
    return [entry for entry in ALLOWED if entry not in named]


def statements() -> dict:
    """_key(code) -> (file name, qualified name, line starts) for each code
    object of the package."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                module = compile(fh.read(), path, "exec")
            for code in _code_objects(module):
                lines = {line for _, line in dis.findlinestarts(code) if line}  # 0: a module's entry
                out[_key(code)] = (name, getattr(code, "co_qualname", code.co_name), lines)
    return out


def main(args: list[str]) -> int:
    hits: dict = {}  # code object -> the lines it ran

    def trace(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        lines = hits.setdefault(code, set())
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    seed = [] if any(a.startswith("--hypothesis-seed") for a in args) else [f"--hypothesis-seed={HYPOTHESIS_SEED}"]
    sys.path.insert(0, SRC)
    sys.settrace(trace)
    try:
        import pytest

        status = pytest.main([*(args or [os.path.join(ROOT, "tests")]), *seed])
    finally:
        sys.settrace(None)
    reached: dict = {}
    for code, lines in hits.items():
        reached.setdefault(_key(code), set()).update(lines)
    total = missed = unlisted = 0
    used = set()  # the entries that cover an unreached line
    held = {name: holders(name) for name in os.listdir(PACKAGE) if name.endswith(".py")}
    for key, (name, qualname, lines) in statements().items():
        left = sorted(lines - reached.get(key, set()))
        total += len(lines)
        missed += len(left)
        covered = {line: _entries(name, held[name].get(line, (None, []))) for line in left}
        used.update(*covered.values())
        left = [line for line in left if not covered[line]]
        unlisted += len(left)
        if left:
            print(f"src/gbs/{name}:{key[1]} {qualname}: {', '.join(map(str, left))}")
    missing = missing_entries()
    stale = [entry for entry in ALLOWED if entry not in used]
    for entry in stale:
        print(f"stale ALLOWED entry ({'not in the source' if entry in missing else 'reached'}): {entry}")
    print(f"{missed} of {total} statements not reached, {missed - unlisted} of them allowed")
    return int(status) or int(bool(unlisted or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
