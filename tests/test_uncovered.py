import time

from conftest import load_script

uncovered = load_script("uncovered")


def test_every_allowed_entry_names_a_statement_of_the_source():
    """scripts/uncovered.py lists the statements no test may reach, each with
    its reason.  An edit that moves, renames or deletes a listed statement
    fails here, without the traced run of the whole suite."""
    start = time.perf_counter()
    assert uncovered.missing_entries() == []
    assert time.perf_counter() - start < 0.5
    assert all(reason.startswith(("self-check: ", "child process only: ")) for reason in uncovered.ALLOWED.values())


def test_an_entry_covers_the_statements_inside_it(monkeypatch):
    """The out-of-memory entry names its except clause: it covers the return 2
    of that handler, not the one of the cap errors before it."""
    held = uncovered.holders("cli.py")
    returns = sorted(line for line, (qualname, chain) in held.items() if (qualname, chain[0]) == ("main", "return 2"))
    entry = ("cli.py", "main", "except MemoryError:")
    assert [uncovered._entries("cli.py", held[line]) for line in returns] == [set(), {entry}]
    monkeypatch.setitem(uncovered.ALLOWED, ("cli.py", "main", "print(exc)"), "self-check: names nothing")
    assert uncovered.missing_entries() == [("cli.py", "main", "print(exc)")]
