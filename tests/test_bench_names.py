"""The benchmark reaches into `gbs` by name: the span tracer wraps the
functions its TRACED table lists, and the workloads call package attributes
and import from submodules.  A name the package drops breaks `--trace 1` or
a workload only when the benchmark runs, so these checks resolve every such
name here.  The benchmark files are read as text, never imported."""

import ast
import importlib
from pathlib import Path

import pytest

from conftest import fresh_json

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYER = ("homs", "quotients", "embeddings")  # what `import gbs` leaves unloaded


def _resolves(module: str, qualname: str) -> bool:
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _traced() -> tuple:
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py has no TRACED table")


def _dotted(node):
    """'gbs.a.b' for an attribute chain rooted at the name gbs, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "gbs" and parts:
        return "gbs." + ".".join(reversed(parts))
    return None


def _bench_names() -> set:
    """(module, qualified name) of every gbs attribute and from-import in bench/*.py."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "gbs":
                names.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and (dotted := _dotted(node)):
                names.add(("gbs", dotted[len("gbs.") :]))
    return names


def test_traced_functions_resolve():
    traced = _traced()
    assert len(traced) >= 20
    missing = [(m, q) for m, q in traced if not _resolves(f"gbs.{m}", q)]
    assert not missing, missing


def test_names_the_workloads_use_resolve():
    names = _bench_names()
    for name in (
        ("gbs", "graphs.apply_move"),
        ("gbs", "graphs.MoveRecord.from_json"),
        ("gbs.words", "letters_concat"),
        ("gbs.words", "letters_inverse"),
    ):
        assert name in names, name
    missing = sorted(n for n in names if not _resolves(*n))
    assert not missing, missing


@pytest.mark.parametrize("name", ["finitely_many_quotients", "embed_bs_construct", "embeds_in_some_bs_nn"])
def test_one_layer_lookup_loads_every_traced_module(name):
    """The tracer reads every TRACED module from sys.modules, and each workload
    looks up one of these names before its first traced pass."""
    code = (
        "import json, sys, gbs\n"
        f"early = [m for m in {LAYER!r} if 'gbs.' + m in sys.modules]\n"
        f"gbs.{name}\n"
        f"print(json.dumps([early, [m for m, _ in {_traced()!r} if 'gbs.' + m not in sys.modules]]))"
    )
    assert fresh_json(code) == [[], []]
