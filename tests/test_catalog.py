import pytest

from gbs import catalog
from gbs.catalog import ENTRIES, run_catalog
from gbs.cli import main
from gbs.decision import Decision


def test_every_entry_passes():
    results = run_catalog()
    failed = [r for r in results if not r["ok"]]
    assert not failed, failed
    assert len(results) == len(ENTRIES)


def test_single_entry_filter():
    results = run_catalog(only="hopf-table")
    assert len(results) == 1 and results[0]["ok"]


def _boom(*args):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "entry, name, wrong, detail",
    [
        ("segment-sources", "is_quotient_of_bs", lambda g, m, n: m == 1, "m=1: got True, want False"),
        ("segment-sources", "check_epi", lambda cert: False, "m=2: certificate failed"),
        ("segment-sources", "is_quotient_of_bs", lambda g, m, n: m % 2 == 0 or m % 3 == 0, "(2,3) wrongly accepted"),
        ("circle-grid", "is_two_generated", lambda g: (False, None),
         "grid gamma odd, alpha,beta <= 7: [(1, 1, 1, 'not 2-generated'), (1, 1, 3, 'not 2-generated'), "
         "(1, 1, 5, 'not 2-generated')]"),
        ("circle-grid", "epi_equivalent_bs", lambda g: None,
         "grid gamma odd, alpha,beta <= 7: [(1, 1, 1, False), (1, 1, 3, False), (1, 1, 5, False)]"),
        ("quotient-finiteness", "finitely_many_quotients", lambda m, n: Decision(False, "no clause applies"),
         "2/4 entries agree; wrong: [(2, 4), (3, -3)]"),
        ("non-hopf", "non_hopf_endo", _boom, "raised RuntimeError: boom"),
    ],
    ids=["segment-sources-answer", "segment-sources-certificate", "segment-sources-accepted", "circle-grid-two-gen",
         "circle-grid-answer", "quotient-finiteness-table", "non-hopf-raises"],
)
def test_a_failing_entry_reads_fail_and_exits_3(monkeypatch, capsys, entry, name, wrong, detail):
    """Each failure branch of an entry, seeded by a wrong decider or a raise
    in gbs.catalog: the entry reads FAIL with its detail, and gbs catalog
    exits 3."""
    monkeypatch.setattr(catalog, name, wrong)
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--only", entry])
    assert exc.value.code == 3
    assert capsys.readouterr().out == f"FAIL  {entry:<18} {detail}\n0/1 entries pass\n"
