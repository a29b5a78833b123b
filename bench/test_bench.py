"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gbs  # noqa: E402
import ladder  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_pass(name, tracer=None):
    wl = workloads.WORKLOADS[name](3, "tiny")
    rec = workloads.Pass(tracer)
    wl.run(rec)
    rec.finish(workloads.EXPECTED[name]["tiny"]["digests"])
    return wl, rec


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_is_correct(name):
    _, rec = _tiny_pass(name)
    assert rec.failed == 0, rec.errors
    assert all(rec.lat[phase] for phase in ("decide", "build", "verify"))
    assert rec.cert_bytes > 0


def test_wrong_answer_is_counted(monkeypatch):
    real = gbs.embeds_bs

    def flipped(r, s, m, n):
        d = real(r, s, m, n)
        return type(d)(not d.answer, d.clause) if (r, s, m, n) == (2, 2, 2, 2) else d

    monkeypatch.setattr(gbs, "embeds_bs", flipped)
    _, rec = _tiny_pass("embed_grid")
    assert rec.failed > 0
    assert any("digest" in e for e in rec.errors)


def test_crash_is_a_failed_operation(monkeypatch):
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(gbs, "mu", broken)
    _, rec = _tiny_pass("graph_scale")
    assert rec.failed >= 1 and None in rec.lat["decide"]


def test_tracer_sees_every_binding_and_restores_them():
    originals = (gbs.embeds_bs, gbs.embeddings.embeds_bs, gbs.graphs.LabelledGraph.edges_at)
    _, plain = _tiny_pass("embed_grid")
    tracer = Tracer()
    token = tracer.begin()
    with tracer:
        assert gbs.embeds_bs is not originals[0]
        assert gbs.embeddings.embeds_bs is gbs.embeds_bs is gbs.bs_arith.embeds_bs
        wl, traced = _tiny_pass("embed_grid", tracer)
    summary = tracer.summarize(token)
    assert (gbs.embeds_bs, gbs.embeddings.embeds_bs, gbs.graphs.LabelledGraph.edges_at) == originals
    assert traced.failed == 0 and traced.digests == plain.digests
    emb = summary["bs_arith.embeds_bs"]
    assert emb["root_calls"] == len(wl.points)
    # embed_bs_construct re-decides each point through the embeddings module's copy
    assert emb["calls"] == len(wl.points) + summary["embeddings.embed_bs_construct"]["calls"]
    assert summary["embeddings.verify_embedding_certificate"]["ok"] == len(traced.lat["verify"])
    assert all(row["self_s"] >= 0 for row in summary.values())


def test_tracer_wraps_class_methods():
    tracer = Tracer()
    token = tracer.begin()
    with tracer:
        _, rec = _tiny_pass("quot_certs", tracer)
    summary = tracer.summarize(token)
    assert rec.failed == 0
    assert summary["homs.HomCertificate.from_json"]["calls"] == len(rec.lat["verify"])
    assert summary["words.Presentation.letters_to_path"]["calls"] > 0
    assert isinstance(gbs.HomCertificate.__dict__["from_json"], classmethod)


def test_speed_probe_divides_by_the_local_mean():
    probe = run.SpeedProbe()
    probe.samples = [1.0] * 10 + [2.0] * 10
    local = probe.local()
    assert (local(0), local(10), local(20)) == (1.0, 1.5, 2.0)
    rec = workloads.Pass()
    rec.lat = {"decide": [3.0, None, 4.0], "build": [], "verify": []}
    rec.probed = {"decide": [0, 5, 20], "build": [], "verify": []}
    acc = {}
    run.merge(acc, rec, probe)
    assert run.means(acc, "decide") == [3.0, 2.0]


def test_ladder_runs_until_a_cap():
    ok = ladder.run_ladder("chain", 1, 2, cap_s=60, cap_mb=1024)
    assert ok["frontier"] == 2 and [s["outcome"] for s in ok["steps"]] == ["ok", "ok"]
    slow = ladder.run_ladder("circle", 5, 3, cap_s=0.5, cap_mb=1024)
    assert slow["frontier"] == 4 and [s["outcome"] for s in slow["steps"]] == ["over-cap"]
    big = ladder.run_ladder("family", 7, 3, cap_s=60, cap_mb=200)
    assert big["frontier"] == 6 and big["steps"][0]["detail"] == "over 200 MB"


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_metric(trace, section):
    proc = _run(ROOT, "--workload", "graph_scale", "--seed", "5", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_cli_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "embed_grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
