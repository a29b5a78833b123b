#!/usr/bin/env python3
"""Print, by function, the statements of src/gbs that no test reaches.

Runs pytest in this process under a standard-library line tracer
(sys.settrace) that records only frames of src/gbs, then compares the
recorded lines with the line starts of every code object compiled from
src/gbs.  The tracer starts before anything imports gbs, so lines run at
import count.  It traces the main thread only, and not the tests that run
gbs in a subprocess.  Tier-1 takes about three times as long under it.

Usage: python scripts/uncovered.py [PYTEST ARGS]   (default: the tests directory)
"""

import dis
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "gbs") + os.sep


def _code_objects(code):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _key(code) -> tuple:
    """The same key for a code object compiled here and the one imported."""
    return code.co_filename, code.co_firstlineno, code.co_name


def statements() -> dict:
    """_key(code) -> (qualified name, line starts) for each code object of the package."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                module = compile(fh.read(), path, "exec")
            for code in _code_objects(module):
                lines = {line for _, line in dis.findlinestarts(code) if line}  # 0: a module's entry
                out[_key(code)] = (getattr(code, "co_qualname", code.co_name), lines)
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

    sys.path.insert(0, SRC)
    sys.settrace(trace)
    try:
        import pytest

        status = pytest.main(args or [os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
    reached: dict = {}
    for code, lines in hits.items():
        reached.setdefault(_key(code), set()).update(lines)
    total = missed = 0
    for key, (qualname, lines) in statements().items():
        left = sorted(lines - reached.get(key, set()))
        total += len(lines)
        missed += len(left)
        if left:
            print(f"{os.path.relpath(key[0], ROOT)}:{key[1]} {qualname}: {', '.join(map(str, left))}")
    print(f"{missed} of {total} statements not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
