"""Certificate-JSON fuzz: `gbs verify` on mutated certificates answers or
exits with a documented code (0, 1 or 2), never with a traceback.

Each case mutates one node of a valid certificate (version-1 hom, version-2
hom, embedding): a value of the wrong type, a float, a bool, a huge integer,
a list of the wrong length, or a missing key.  The mutations are seeded, so a
failure names a case that replays.  The malformed shapes and inexact numbers
of test_cli come first, each an input error (exit 1)."""

import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest

from conftest import load_script
from gbs import circle_graph, descending_chain, embed_bs_construct, minimal_bs_epi
from gbs.cli import main
from gbs.errors import GBSError
from gbs.homs import HomCertificate, check_epi, check_hom
from gbs.words import expand_letters
from test_cli import INEXACT_NUMBERS, MALFORMED_EMBEDDINGS, edit_json, seed_certificate

HUGE = 10**40
VALUES = [None, True, False, 0, -1, 2, 1.5, 2.0, HUGE, -HUGE, "", "x", "a(v0)", [], [4], ["a", "b"], [[]], {}, {"x": 1}]


def _version_1_hom():
    cert = descending_chain(3).to_bs_9_18
    flat = {gen: expand_letters(word) for gen, word in cert.images.items()}
    return dataclasses.replace(cert, images=flat, witnesses={g: expand_letters(w) for g, w in cert.witnesses.items()})


def _seeds() -> dict:
    v1 = _version_1_hom().to_json()
    v2 = minimal_bs_epi(circle_graph([2, 3] * 3)).to_json()
    embedding = seed_certificate("embedding")
    assert "version" not in v1 and v2["version"] == 2
    return {"hom-v1": v1, "hom-v2": v2, "embedding": embedding}


def _nodes(data, path=()):
    """The path of every node under data (the root excluded)."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _mutate(data, rng: random.Random):
    data = json.loads(json.dumps(data))
    path = rng.choice(list(_nodes(data)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    roll = rng.random()
    if roll < 0.15 and isinstance(parent, dict):
        del parent[key]
    elif roll < 0.3 and isinstance(old, list):
        if old and rng.random() < 0.5:
            old.pop(rng.randrange(len(old)))
        else:
            old.append(rng.choice(old) if old else rng.choice(VALUES))
    elif roll < 0.4 and type(old) is int:
        parent[key] = rng.choice([float(old), old == 1, -old, old * HUGE, str(old)])
    else:
        parent[key] = rng.choice(VALUES)
    return data


def _verify(tmp_path, capsys, data) -> int:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code


@pytest.mark.parametrize("kind", ["hom-v1", "hom-v2", "embedding"])
def test_mutated_certificates_exit_with_a_documented_code(tmp_path, capsys, kind):
    seed = _seeds()[kind]
    assert _verify(tmp_path, capsys, seed) == 0
    family = kind.split("-")[0]
    for cert_kind, path, value in [*MALFORMED_EMBEDDINGS.values(), *INEXACT_NUMBERS.values()]:
        if cert_kind == family:
            data = json.loads(json.dumps(seed))
            edit_json(data, path, value)
            assert _verify(tmp_path, capsys, data) == 1, (kind, path, value)
    rng = random.Random(f"cert-fuzz {kind}")
    for i in range(300):
        data = _mutate(seed, rng)
        assert _verify(tmp_path, capsys, data) in (0, 1, 2), (kind, i, data)


def _replayed_past_the_limit(data):
    """The source reduces, by one collapse of a 2,501-digit label, to a loop
    with a label of 5,001 digits."""
    big = 10**2500
    data["map"]["source"] = {
        "vertices": ["z0", "z1"],
        "edges": [
            {"name": "d0", "endpoints": ["z0", "z1"], "labels": [big, 1]},
            {"name": "d1", "endpoints": ["z1", "z1"], "labels": [big, 1]},
        ],
    }
    data["source_reduce"] = [{"kind": "collapse", "params": ["d0", 1, "z1", "z0", big]}]
    wa = data["map"]  # keep only the entries that name the new source's vertices and edges
    for field, kept in (("vertex_map", {"z0", "z1"}), ("vertex_mult", {"z0", "z1"}), ("edge_mult", {"d0", "d1"})):
        wa[field] = {k: v for k, v in wa[field].items() if k in kept}
    wa["edge_map"] = {k: v for k, v in wa["edge_map"].items() if k.split(":")[0] in ("d0", "d1")}


def _scaled_past_the_limit(data):
    data["claimed"], data["aug_records"] = [10**2500, 1], [["scale", 10**2500]]


@pytest.mark.parametrize("edit", [_scaled_past_the_limit, _replayed_past_the_limit], ids=["scaled", "replayed"])
def test_products_past_the_int_to_str_limit_verify_invalid(tmp_path, capsys, edit):
    """A product of certificate integers can pass the digits that int-to-str
    allows; the violation message still prints, and the answer is invalid."""
    data = seed_certificate("embedding")
    edit(data)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert main(["--json", "verify", str(path)]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["answer"] == "invalid" and err == ""
    assert any("-bit integer>" in v for v in payload["violations"]), payload["violations"]


def _loop_target_params_edited():
    """BS(2, 3) < BS(2, 3), with a target claim the target does not meet."""
    data = embed_bs_construct(2, 3, 2, 3).to_json()
    data["target_params"] = [5, 7]
    return data


def _pendant_target_records_emptied():
    """A pendant certificate whose target records are dropped and whose
    target claim is changed."""
    data = embed_bs_construct(1, 2, 6, 12).to_json()
    assert data["target_reduce"]
    data["target_reduce"], data["target_params"] = [], [99, 100]
    return data


@pytest.mark.parametrize("make", [_loop_target_params_edited, _pendant_target_records_emptied], ids=["loop", "pendant"])
def test_target_claim_checked_without_target_records(tmp_path, capsys, make):
    """A target claim is checked whenever it is set: no records replay to
    the target itself."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(make()))
    assert main(["--json", "verify", str(path)]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["answer"] == "invalid" and err == "", payload


def _last_source_record_dropped():
    data = embed_bs_construct(4, 9, 2, 3).to_json()
    assert len(data["source_reduce"]) == 9
    data["source_reduce"].pop()
    return data


def _index_record(record):
    def make():
        data = embed_bs_construct(4, 9, 2, 3).to_json()
        data["aug_records"] = [record]
        return data

    return make


@pytest.mark.parametrize(
    "make, violation",
    [
        (_last_source_record_dropped, "source reduction does not end in a single loop"),
        (_index_record(["scale", 0]), "bad index record ('scale', 0)"),
        (_index_record(["grow", 2]), "bad index record ('grow', 2)"),
    ],
    ids=["source-short", "scale-0", "grow"],
)
def test_source_and_index_records_checked(tmp_path, capsys, make, violation):
    """A source replay that stops short of a loop, and an index record that
    is no nonzero scale, each name their violation."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(make()))
    assert main(["--json", "verify", str(path)]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["answer"] == "invalid" and err == "", payload
    assert violation in payload["violations"], payload["violations"]


def _outcome(check, cert):
    """What a check answers, or the type of what it raises."""
    try:
        return check(cert)
    except Exception as exc:
        return type(exc)


def _checks_agree(data):
    """check_hom then check_epi on one certificate, and again, answer or raise
    as each does on a fresh parse of its own; so does check_epi run first."""
    cert, fresh = HomCertificate.from_json(data), {}
    for check in (check_hom, check_epi):
        fresh[check] = _outcome(check, HomCertificate.from_json(data))
    got = [_outcome(check, cert) for check in (check_hom, check_epi, check_hom, check_epi)]
    assert got == [fresh[check_hom], fresh[check_epi]] * 2, data
    cert = HomCertificate.from_json(data)
    assert [_outcome(check, cert) for check in (check_epi, check_hom)] == [fresh[check_epi], fresh[check_hom]]
    return fresh[check_epi]


@pytest.mark.parametrize("kind", ["hom-v1", "hom-v2"])
def test_kept_relator_check_never_changes_a_verdict_on_mutations(kind):
    """Every readable mutation of a hom seed: among them are yes, no and raise."""
    seed = _seeds()[kind]
    rng = random.Random(f"cert-fuzz {kind}")
    verdicts = Counter()
    for _ in range(300):
        data = _mutate(seed, rng)
        try:
            HomCertificate.from_json(data)
        except GBSError:  # not readable
            continue
        got = _checks_agree(data)
        verdicts[got if type(got) is bool else got.__name__] += 1
    assert verdicts[True] and verdicts[False] and sum(verdicts.values()) - verdicts[True] - verdicts[False], verdicts


def test_kept_relator_check_never_changes_a_verdict_on_digest_certificates():
    """A seeded sample of scripts/cert_digest.py's hom certificates, after a JSON round trip."""
    script = load_script("cert_digest")
    rng = random.Random("kept relator check")
    certs = [c for _, group in itertools.islice(script.groups(), 19) for c in group]  # up to the non-Hopfian group
    certs += [c for g in rng.sample(list(script._seeded_graphs()), 12) for c in script._move_certs(g)]
    for cert in rng.sample(certs, 120):
        assert _checks_agree(cert.to_json()) is True, cert.provenance
