import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import gbs
from gbs import bs_graph, bs_source_epi, embed_bs_construct, non_hopf_endo, quotients
from gbs.cli import COMMANDS, main
from gbs.homs import identity_cert
from gbs.words import Presentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bs_embeds_reason(capsys):
    code, out, _ = run(capsys, "bs", "embeds", "12", "20", "6", "10", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["answer"] == "no"
    assert data["reason"] == "condition 2: p=2, alpha=1"


def test_human_and_json_agree(capsys):
    code, out_h, _ = run(capsys, "bs", "hopfian", "2", "3")
    code2, out_j, _ = run(capsys, "bs", "hopfian", "2", "3", "--json")
    assert code == code2 == 0
    assert out_h.strip() == "no"
    assert json.loads(out_j)["answer"] == "no"


def test_graph_info_inline(capsys):
    code, out, _ = run(capsys, "graph", "info", "lollipop 1 6 2 | 3 6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == "lollipop"
    assert data["qrxy"] == {"Q": 6, "R": 2, "X": 3, "Y": 6}


def test_graph_file_and_rank(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("vertex a\nvertex b\nedge s a b 6 2\nedge loop b b 3 6\n")
    code, out, _ = run(capsys, "rank", str(path))
    assert code == 0 and "rank 2" in out


def test_plateaus(capsys):
    code, out, _ = run(capsys, "plateaus", "segment 2 3", "--prime", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert ["v0"] in data["plateaus"]


def test_quot_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "quot", "sources", "segment 2 3", "--test", "4", "4")
    assert code == 0 and "yes" in out
    code, out, _ = run(capsys, "quot", "minimal", "lollipop 1 6 2 | 3 6")
    assert code == 0 and "(18, 36)" in out
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "quot", "epi-equiv", "circle 2 5 5 7", "--emit-cert", str(cert_path)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and "epi: True" in out


def test_word_commands(capsys):
    code, out, _ = run(capsys, "word", "modulus", "bs 2 3", "t(e0)")
    assert code == 0 and out.strip() == "2/3"
    code, out, _ = run(
        capsys, "word", "reduce", "bs 2 3", "t(e0) a(v0)^2 t(e0)^-1 a(v0)^-3"
    )
    assert code == 0 and "trivial: True" in out
    code, out, _ = run(capsys, "word", "elliptic", "bs 2 3", "t(e0) a(v0) t(e0)^-1")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "word", "equal", "bs 2 3", "a(v0)^2", "a(v0)^2")
    assert code == 0 and out.strip() == "yes"


def test_word_with_custom_tree_and_base(capsys):
    graph = "lollipop 1 6 2 | 3 6"
    code, out, _ = run(
        capsys, "word", "modulus", graph, "t(c0)", "--tree", "s0", "--base", "w0"
    )
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(
        capsys,
        "word",
        "reduce",
        graph,
        "a(v0)^6 a(w0)^-2",
        "--tree",
        "s0",
    )
    assert code == 0 and "trivial: True" in out


def test_word_empty_tree_is_the_empty_tree(capsys):
    # "" names the empty tree, not the default one: it spans one vertex, not two
    code, out, _ = run(capsys, "word", "reduce", "bs 2 3", "t(e0) a(v0)^2 t(e0)^-1 a(v0)^-3", "--tree", "")
    assert code == 0 and "trivial: True" in out
    for tree in ("", ","):
        code, out, err = run(capsys, "word", "reduce", "circle 2 3 5 7", "t(c1)", "--tree", tree)
        assert (code, out, err) == (1, "", "input error: not a spanning tree\n")


def test_embed_construct_verify_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "embed.json"
    code, out, _ = run(
        capsys, "embed", "construct", "4", "9", "2", "3", "--emit-cert", str(cert_path)
    )
    assert code == 0 and "verified" in out
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and out.strip() == "valid"
    # tamper with one multiplicity
    data = json.loads(cert_path.read_text())
    key = sorted(data["map"]["vertex_mult"])[0]
    data["map"]["vertex_mult"][key] += 1
    cert_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and "invalid" in out


def test_embed_decider_no(capsys):
    code, out, _ = run(capsys, "embed", "construct", "12", "20", "6", "10")
    assert code == 0 and out.startswith("no")


def test_embed_bsnn(capsys):
    code, out, _ = run(capsys, "embed", "bsnn", "segment 2 2", "6")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "embed", "bsnn", "segment 2 3")
    assert code == 0 and "n = 6" in out
    code, out, _ = run(capsys, "embed", "bsnn", "vertex v", "2")
    assert code == 0 and out.strip() == "yes"


def test_input_errors_exit_1(capsys):
    code, _, err = run(capsys, "rank", "segment 1")
    assert code == 1 and "input error" in err
    code, _, err = run(capsys, "word", "modulus", "bs 2 3", "a(zz)")
    assert code == 1
    code, _, err = run(capsys, "verify", "/nonexistent/cert.json")
    assert code == 1
    code, _, err = run(capsys, "quot", "sources", "segment 2 3", "--test", "0", "1")
    assert (code, err) == (1, "error: Baumslag-Solitar parameters must be nonzero\n")


NOT_REDUCED = "circle 1 2 3 5"  # its unit label sits on a non-loop edge


@pytest.mark.parametrize(
    "argv, message",
    [
        (("rank", NOT_REDUCED), "graph is not reduced"),
        (("quot", "sources", NOT_REDUCED), "graph is not reduced"),
        (("quot", "minimal", NOT_REDUCED), "graph is not reduced"),
        (("quot", "epi-equiv", NOT_REDUCED), "graph is not reduced"),
        (("quot", "onto-minimal", NOT_REDUCED), "graph is not reduced"),
        (("embed", "bsnn", NOT_REDUCED), "graph is not reduced"),
        (("quot", "family", "0", "2"), "Baumslag-Solitar parameters must be nonzero"),
        (("graph", "info", "bs 0 2"), "Baumslag-Solitar parameters must be nonzero"),
        (("bs", "hopfian", "0", "2"), "Baumslag-Solitar parameters must be nonzero"),
    ],
    ids=["rank", "quot-sources", "quot-minimal", "quot-epi-equiv", "quot-onto-minimal", "embed-bsnn", "quot-family-zero",
         "graph-info-bs-zero", "bs-hopfian-zero"],
)
def test_each_precondition_has_one_message(capsys, argv, message):
    """A graph that is not reduced, and a zero parameter, are refused with
    one wording whichever subcommand meets them."""
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph description"),
        ("bs 2 3\nvertex v\n", "shorthand 'bs' must be the only line"),
        ("bs 2\n", "bad shorthand line: 'bs 2'"),
        ("vertex\n", "line 1: cannot parse 'vertex'"),
        ("edge e a b 2 x\n", "line 1: bad integer in 'edge e a b 2 x'"),
    ],
    ids=["empty", "shorthand-then-more", "bs-one-parameter", "vertex-without-name", "non-integer-label"],
)
def test_graph_file_errors_exit_1(tmp_path, capsys, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert run(capsys, "graph", "info", str(path)) == (1, "", f"input error: {message}\n")


@pytest.mark.parametrize(
    "payload", [{"kind": "hom"}, {"kind": "embedding"}, [{"kind": "hom"}]], ids=["hom", "embedding", "array"]
)
def test_verify_malformed_certificate_exit_1(tmp_path, capsys, payload):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def _rename_stable_keys(data):
    data["witnesses"]["x(e0)"] = data["witnesses"].pop("t(e0)")
    data["images"]["y(e0)"] = data["images"].pop("t(e0)")
    data["images"]["bogus"] = "a(v0)"


@pytest.mark.parametrize(
    "edit",
    [
        _rename_stable_keys,
        lambda d: d["images"].__setitem__("a(v0)^2", "a(v0)"),
        lambda d: d["images"].__setitem__("a(v0) t(e0)", "a(v0)"),
        lambda d: d["witnesses"].__setitem__("1", "a(v0)"),
        lambda d: d["witnesses"].__setitem__("w0", "a(v0)"),
    ],
    ids=["renamed", "power", "two-letters", "empty", "shared"],
)
def test_verify_malformed_generator_key_exit_1(tmp_path, capsys, edit):
    data = non_hopf_endo(2, 3).cert.to_json()
    edit(data)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("field,value", [("labels", [2]), ("endpoints", ["v0", "v0", "v0"])], ids=["one-label", "three-ends"])
def test_verify_edge_of_wrong_arity_exit_1(tmp_path, capsys, field, value):
    data = non_hopf_endo(2, 3).cert.to_json()
    data["source"]["graph"]["edges"][0][field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("edges", ["ab", [5], 5], ids=["string", "list-of-numbers", "number"])
def test_verify_edges_that_are_no_objects_exit_1(tmp_path, capsys, edges):
    """The graph reader's own input error, not a raw TypeError the verifier rewraps."""
    data = non_hopf_endo(2, 3).cert.to_json()
    data["source"]["graph"]["edges"] = edges
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error: the edges must be a list of objects") and "TypeError" not in err


def seed_certificate(kind):
    """A valid certificate's JSON: a hom (BS(2, 3) onto itself) or an embedding."""
    return (non_hopf_endo(2, 3).cert if kind == "hom" else embed_bs_construct(4, 9, 2, 3)).to_json()


def edit_json(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


# (certificate kind, path to a node, value put there): each is an input error
MALFORMED_EMBEDDINGS = {
    "record-empty": ("embedding", ("aug_records",), [[]]),
    "record-index-not-int": ("embedding", ("aug_records",), [["scale", "x"]]),
    "claimed-strings": ("embedding", ("claimed",), ["a", "b"]),
    "claimed-one-int": ("embedding", ("claimed",), [4]),
    "map-claimed-one-int": ("embedding", ("map_claimed",), [4]),
    "edge-image-no-end": ("embedding", ("map", "edge_map", "d0:0"), ["e0"]),
}
INEXACT_NUMBERS = {
    f"{where}={value!r}": (kind, path, value)
    for where, (kind, path) in {
        "hom-label": ("hom", ("source", "graph", "edges", 0, "labels", 0)),
        "embedding-label": ("embedding", ("map", "source", "edges", 0, "labels", 0)),
        "vertex-mult": ("embedding", ("map", "vertex_mult", "z1")),
        "edge-mult": ("embedding", ("map", "edge_mult", "d0")),
    }.items()
    for value in (2.5, 2.0, True, "2")
}


@pytest.mark.parametrize("case", [*MALFORMED_EMBEDDINGS, *INEXACT_NUMBERS])
def test_verify_malformed_shape_or_inexact_number_exit_1(tmp_path, capsys, case):
    # int() would read a label 2.5 as 2 and true as 1, and the hom would verify
    kind, path, value = {**MALFORMED_EMBEDDINGS, **INEXACT_NUMBERS}[case]
    data = seed_certificate(kind)
    edit_json(data, path, value)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err
    assert case in MALFORMED_EMBEDDINGS or "must be an integer" in err


@pytest.mark.parametrize(
    "kind,field,key,value,message",
    [
        ("embedding", "edge_map", "zz:0", ["e0", 0], "the map has an entry for zz, not in the source graph"),
        ("embedding", "vertex_mult", "nope", 7, "the map has an entry for nope, not in the source graph"),
        ("embedding", "edge_mult", "zz", 3, "the map has an entry for zz, not in the source graph"),
        ("embedding", "vertex_map", "ghost", "v0", "the map has an entry for ghost, not in the source graph"),
        ("hom", "images", "a(nowhere)", "a(v0)", "certificate key 'a(nowhere)' names no generator of its presentation"),
        ("hom", "witnesses", "t(ghost)", "t(e0)", "certificate key 't(ghost)' names no generator of its presentation"),
    ],
    ids=["edge-map", "vertex-mult", "edge-mult", "vertex-map", "image", "witness"],
)
def test_verify_entry_naming_nothing_exit_1(tmp_path, capsys, kind, field, key, value, message):
    """An entry for no source vertex or edge, or for no generator, was read
    and ignored, and the certificate verified valid: one map had more than
    one text."""
    data = seed_certificate(kind)
    (data["map"] if kind == "embedding" else data)[field][key] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.strip() == f"input error: {message}"


@pytest.mark.parametrize(
    "field,key,value",
    [
        ("images", "a(v0)^1", "a(v0)^5"),
        ("images", "1 t(e0)^01", "t(e0)"),
        ("images", "a(v0)^+1", "a(v0)"),
        ("witnesses", " t(e0) ", "t(e0)"),
    ],
    ids=["power-1", "unit-and-01", "plus-1", "spaces"],
)
def test_verify_second_spelling_of_a_key_exit_1(tmp_path, capsys, field, key, value):
    """A key is read by the exact text gen_name writes.  Read as a letter
    word, "a(v0)^1" named a(v0) a second time, its image a(v0)^5 replaced
    the identity's, and the certificate verified as a hom."""
    data = identity_cert(Presentation(bs_graph(2, 3))).to_json()
    data[field][key] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.strip() == f"input error: certificate key {key!r} names no generator of its presentation"


def test_verify_repeated_source_edge_exit_1(tmp_path, capsys):
    """A second d0 listed first, with labels of its own, used to be read over
    by the first d0 and the certificate verified as valid."""
    data = seed_certificate("embedding")
    edges = data["map"]["source"]["edges"]
    assert edges[0]["name"] == "d0"
    edges.insert(0, {**edges[0], "labels": [97, 89]})
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error: edge 'd0' must have a string name no other edge has") and "Traceback" not in err


@pytest.mark.parametrize(
    "kind,path",
    [
        ("embedding", ("map", "source")),
        ("embedding", ("map", "target")),
        ("hom", ("source", "graph")),
        ("hom", ("target", "graph")),
    ],
    ids=["embedding-source", "embedding-target", "hom-source", "hom-target"],
)
def test_verify_disconnected_graph_exit_1(tmp_path, capsys, kind, path):
    """One graph of a valid certificate given an isolated vertex zz is refused
    when it is read.  An embedding whose target had one verified valid."""
    data = (embed_bs_construct(4, 9, 2, 3) if kind == "embedding" else bs_source_epi(bs_graph(2, 3), 4, 6)).to_json()
    graph = data
    for key in path:
        graph = graph[key]
    graph["vertices"].append("zz")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(data))
    code, out, err = run(capsys, "--json", "verify", str(cert))
    assert code == 1 and out == ""
    assert err == "error: graph is not connected\n"


def test_verify_integer_too_long_to_read_exit_1(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(seed_certificate("hom")).replace('"labels": [2,', f'"labels": [{"9" * 5000},'))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("prime", ["0", "1", "-2", "4", str(2 * (10**12 + 39))])  # the last is above the factor cap
def test_plateaus_non_prime_exit_1(capsys, prime):
    code, out, err = run(capsys, "plateaus", "segment 2 3", "--prime", prime)
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("word", "reduce", "bs 2 3", "a(v0)^x"),
        ("word", "equal", "bs 2 3", "a(v0)", "t(e0)^1.5"),
        ("word", "reduce", "bs 2 3", "a(v0)^"),
    ],
)
def test_non_integer_word_exponent_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_family_count_below_one_exit_1(capsys, monkeypatch, count):
    def refuse(*args, **kwargs):  # a member built means the count was not rejected
        raise AssertionError("a family member was built")

    monkeypatch.setattr(quotients, "lollipop_graph", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "quot", "family", "4", "6", "--count", count)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("GBS_TOOLKIT_MAX_VERTICES", "2")
    code, _, err = run(capsys, "rank", "segment 2 3 5 7 11 13")
    assert code == 2 and "cap" in err


def test_argv_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bs", "embeds", "12", "20", "6"])
    assert exc.value.code == 1


def test_catalog_single_entry(capsys):
    code, out, _ = run(capsys, "catalog", "--only", "hopf-table")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "catalog", "--only", "hopf-table", "--json")
    data = json.loads(out)
    assert data["ok"] is True


def test_quot_chain_and_family(capsys):
    code, out, _ = run(capsys, "quot", "chain", "--n", "1")
    assert code == 0 and out.count("ok") == 3
    code, out, _ = run(capsys, "quot", "family", "4", "6", "--count", "2")
    assert code == 0 and out.count("cert=ok") == 2


@pytest.mark.parametrize(
    "var, argv",
    [
        ("GBS_TOOLKIT_MAX_VERTICES", ("rank", "segment 2 3")),
        ("GBS_TOOLKIT_FACTOR_CAP", ("rank", "segment 2 3")),
    ],
)
def test_malformed_env_variable_exit_1(capsys, monkeypatch, var, argv):
    for value in ("abc", "", "1.5"):
        monkeypatch.setenv(var, value)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("input error:") and var in err and "Traceback" not in err


@pytest.mark.parametrize("var", ["GBS_TOOLKIT_MAX_VERTICES", "GBS_TOOLKIT_FACTOR_CAP"])
def test_malformed_env_variable_exit_1_on_any_subcommand(capsys, monkeypatch, var):
    monkeypatch.setenv(var, "abc")
    code, out, err = run(capsys, "bs", "rf", "2", "3")
    assert code == 1 and out == ""
    assert err.startswith("input error:") and var in err and "Traceback" not in err


P = 10**12 + 39  # a prime above the default factorization cap


def test_deciders_answer_above_the_factor_cap(capsys):
    assert run(capsys, "bs", "embeds", str(2 * P), str(P), str(P), str(2 * P)) == (
        0,
        "yes (conditions 1-3 hold (beta=-1))\n",
        "",
    )
    assert run(capsys, "bs", "hopfian", str(P), str(P**2)) == (0, "yes\n", "")
    assert run(capsys, "rank", f"segment {P} 6") == (0, "rank 2 (beta 0 + mu 2)\n", "")
    # the failing part p of condition 2 is above the cap: it is named, not factored
    assert run(capsys, "bs", "embeds", str(P**2), str(P**2), str(P), str(P)) == (
        0,
        f"no (condition 2: failing part {P} is above the factorization cap)\n",
        "",
    )


def test_unreadable_files_exit_1(tmp_path, capsys):
    binary = tmp_path / "cert.json"
    binary.write_bytes(b"\xff\xfe")
    for argv in (
        ("verify", str(tmp_path)),
        ("verify", str(binary)),
        ("embed", "check", str(tmp_path)),
        ("rank", str(tmp_path)),
        ("rank", str(binary)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("input error:") and "Traceback" not in err, argv


def test_unwritable_emit_cert_exit_1(tmp_path, capsys):
    for argv in (
        ("quot", "epi-equiv", "circle 2 5 5 7"),
        ("quot", "onto-minimal", "lollipop 1 2 5 | 5 7"),
        ("embed", "construct", "4", "9", "2", "3"),
    ):
        code, out, err = run(capsys, *argv, "--emit-cert", str(tmp_path))
        assert code == 1 and out == "", argv
        assert err.startswith("input error:") and "Traceback" not in err, argv


def test_missing_graph_file_named_like_a_shorthand(capsys):
    for spec in ("missing_segment.txt", "graphs/bs_edge.txt"):
        code, out, err = run(capsys, "rank", spec)
        assert code == 1 and out == "", spec
        assert err.startswith("input error: no such file and not an inline graph"), spec


def test_word_expansion_cap_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "word", "reduce", "bs 2 3", "t(e0)^100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("cap exceeded:")


def _nested_cert(words, images):
    bs = {"graph": {"vertices": ["v0"], "edges": [{"name": "e0", "endpoints": ["v0", "v0"], "labels": [2, 3]}]},
          "tree": [], "base": "v0"}
    return {"kind": "hom", "version": 2, "source": bs, "target": bs, "words": words,
            "images": images, "witnesses": None, "provenance": "", "flags": []}


def test_verify_nested_powers_cap_exit_2(tmp_path, capsys):
    path = tmp_path / "cert.json"
    data = _nested_cert(["a(v0) t(e0)", "w0^100000", "w1^100000"], {"a(v0)": "w2", "t(e0)": "t(e0)"})
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and err.startswith("cap exceeded:")
    # the same certificate with small powers is read and checked (it is no homomorphism)
    data["words"] = ["a(v0) t(e0)", "w0^3", "w1^2"]
    path.write_text(json.dumps(data))
    assert run(capsys, "verify", str(path)) == (0, "hom: False, epi: False\n", "")


def test_verify_hom_whose_witnesses_fail_is_invalid(tmp_path, capsys):
    """A certificate with witnesses claims an epimorphism, so it is valid
    only when the witnesses verify: a(v0) -> a(v0)^2 keeps the map a
    homomorphism but leaves the witnesses of BS(4, 6) ->> BS(2, 3) short."""
    path = tmp_path / "cert.json"
    data = bs_source_epi(bs_graph(2, 3), 4, 6).to_json()
    path.write_text(json.dumps(data))
    assert json.loads(run(capsys, "verify", str(path), "--json")[1])["answer"] == "valid"
    data["images"]["a(v0)"] = "a(v0)^2"
    path.write_text(json.dumps(data))
    assert run(capsys, "verify", str(path)) == (0, "hom: True, epi: False\n", "")
    code, out, err = run(capsys, "verify", str(path), "--json")
    assert (code, json.loads(out), err) == (0, {"answer": "invalid", "hom": True, "epi": False}, "")


def test_verify_deep_shared_word_table(tmp_path, capsys):
    # 5,000 entries, each naming the one before it: nesting has no recursion limit
    path = tmp_path / "cert.json"
    words = ["a(v0) t(e0)"] + [f"w{i}" for i in range(4999)]
    path.write_text(json.dumps(_nested_cert(words, {"a(v0)": "w4999", "t(e0)": "t(e0)"})))
    assert run(capsys, "verify", str(path)) == (0, "hom: False, epi: False\n", "")


@pytest.mark.parametrize(
    "words, images",
    [
        (["w1", "a(v0)"], {"a(v0)": "w0", "t(e0)": "t(e0)"}),
        (["a(v0)^2"], {"a(v0)": "w1", "t(e0)": "t(e0)"}),
        ("a(v0)", {"a(v0)": "a(v0)", "t(e0)": "t(e0)"}),
    ],
    ids=["forward", "out-of-range", "not-a-list"],
)
def test_verify_bad_shared_word_table_exit_1(tmp_path, capsys, words, images):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_nested_cert(words, images)))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_catalog_unknown_entry_exit_1(capsys):
    # a mistyped entry name once ran no entry and read "0/0 entries pass" (exit 0)
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--only", "nope"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: gbs catalog")
    assert "input error: argument --only: invalid choice: 'nope'" in err


# Every subcommand's outputs, pinned: (argv, environment, digest of the human run, digest of
# the --json run).  A digest is the first 16 hex digits of the SHA-256 of the JSON list
# [exit code, stdout, stderr, text of the written cert.json or null], run in a directory that
# holds hom.json and embedding.json (`seed_certificate`) with COLUMNS=80.  They were recorded
# from the hand-built parser that the subcommand table replaced.
CLI_PINS = [
    (("graph", "info", "lollipop 1 6 2 | 3 6"), {}, "cd008089aa20e797", "959f80273734a720"),
    (("graph", "info", "segment 2 3 5 7"), {}, "2f30f66c57f0194b", "9579154b21b330d2"),
    (("graph", "info", "segment 1"), {}, "acfea5664810366d", "acfea5664810366d"),
    (("graph", "reduce", "segment 1 2 3 5"), {}, "c824c4c4ed084ea4", "2ceb56a19b81773f"),
    (("graph", "reduce", "circle 2 3"), {}, "ceaaea279c408484", "f22d26784ec0b501"),
    (("rank", "lollipop 1 6 2 | 3 6"), {}, "a3d3ebf598c1bce2", "934c25d3668d7a0c"),
    (("rank", "segment 2 3 5 7 11 13"), {"GBS_TOOLKIT_MAX_VERTICES": "2"}, "185d901ac8c70348", "185d901ac8c70348"),
    (("rank", "missing_segment.txt"), {}, "38e7dd5631bd0c07", "38e7dd5631bd0c07"),
    (("plateaus", "segment 2 3", "--prime", "2"), {}, "c1a1e1c3da5363e9", "403a23f5238d309f"),
    (("plateaus", "segment 2 3", "--prime", "4"), {}, "8f65679ddc344f4f", "8f65679ddc344f4f"),
    (("quot", "sources", "segment 2 3", "--test", "4", "4"), {}, "45d44b6d93be691c", "aeef61da03cf1e21"),
    (("quot", "sources", "lollipop 1 6 2 | 3 6"), {}, "1246709297ed73b8", "425f101f9be75718"),
    (("quot", "minimal", "lollipop 1 6 2 | 3 6"), {}, "9b4e8e469a45a374", "f2f157db9f6ee911"),
    (("quot", "minimal", "segment 2 3"), {}, "7913b3231dbe13d7", "bf1a3a45f7ead9f4"),
    (("quot", "epi-equiv", "circle 2 5 5 7", "--emit-cert", "cert.json"), {}, "2884e3f98ee9fe11", "328725b2875d35ca"),
    (("quot", "epi-equiv", "lollipop 1 6 2 | 3 6", "--emit-cert", "cert.json"), {}, "2e664087c866bb82", "cfca6f589cee3c99"),
    (("quot", "onto-minimal", "lollipop 1 2 5 | 5 7", "--emit-cert", "cert.json"), {}, "8387088a5ae889a8", "1eeee4d909540207"),
    (("quot", "onto-minimal", "lollipop 1 6 2 | 3 6"), {}, "550a844fab2dced9", "758661e0752a4c28"),
    (("quot", "onto-minimal", "lollipop 1 2 2 | 2 3 2 3", "--emit-cert", "cert.json"), {}, "f5139148ac116115", "645601b5e85f32e9"),
    (("quot", "family", "4", "6", "--count", "2"), {}, "ec0a750c8b3820f8", "5251426c90ac0eb7"),
    (("quot", "family", "4", "6", "--count", "0"), {}, "35e46193a0376e01", "35e46193a0376e01"),
    (("quot", "chain", "--n", "1"), {}, "e0e2950a484fc93d", "dcbc8b1bf32db197"),
    (("bs", "hopfian", "2", "3"), {}, "2e664087c866bb82", "cfca6f589cee3c99"),
    (("bs", "hopfian", "2", "4"), {}, "af6e0cd10d51da7a", "e6284a23a90c61d2"),
    (("bs", "rf", "2", "3"), {}, "2e664087c866bb82", "cfca6f589cee3c99"),
    (("bs", "rf", "1", "3"), {}, "af6e0cd10d51da7a", "e6284a23a90c61d2"),
    (("bs", "rf", "2", "4"), {"GBS_TOOLKIT_FACTOR_CAP": "abc"}, "60848b1cb1117d20", "60848b1cb1117d20"),
    (("bs", "epi", "4", "6", "2", "3"), {}, "af6e0cd10d51da7a", "e6284a23a90c61d2"),
    (("bs", "epi", "2", "3", "2", "4"), {}, "2e664087c866bb82", "cfca6f589cee3c99"),
    (("bs", "embeds", "12", "20", "6", "10"), {}, "2472d1aa6d7d9801", "3beea9127d89325d"),
    (("bs", "embeds", "4", "9", "2", "3"), {}, "d40968f221c60a88", "f3b14ec59579a4d2"),
    (("bs", "embeds", "12", "20", "6"), {}, "ca20cdf44c87de32", "ca20cdf44c87de32"),
    (("embed", "construct", "4", "9", "2", "3", "--emit-cert", "cert.json"), {}, "ce9b037a5658364a", "3c599c47a86409aa"),
    (("embed", "construct", "12", "20", "6", "10", "--emit-cert", "cert.json"), {}, "6fbd8a004943a4ae", "d66c67f382fb4f0c"),
    (("embed", "check", "embedding.json"), {}, "073ee63cdbf125c2", "bc32b68caabf3fa8"),
    (("embed", "check", "missing.json"), {}, "64267a069c2f3fb2", "64267a069c2f3fb2"),
    (("embed", "bsnn", "segment 2 2", "6"), {}, "af6e0cd10d51da7a", "e6284a23a90c61d2"),
    (("embed", "bsnn", "segment 2 3", "2", "--up-to-sign"), {}, "2e664087c866bb82", "cfca6f589cee3c99"),
    (("embed", "bsnn", "segment 2 3"), {}, "48d76b4af8af9323", "c07c1b110bde4a59"),
    (("embed", "bsnn", "segment 2 4"), {}, "4c249a380b862f26", "0f339bf4c9439e4a"),
    (("word", "reduce", "bs 2 3", "t(e0) a(v0)^2 t(e0)^-1 a(v0)^-3"), {}, "9d53f0409284099d", "043ea02bca16fb25"),
    (("word", "reduce", "lollipop 1 6 2 | 3 6", "a(v0)^6 a(w0)^-2", "--tree", "s0"), {}, "9d53f0409284099d", "043ea02bca16fb25"),
    (("word", "reduce", "bs 2 3", "t(e0)^100000000"), {}, "975fe46534fc5b2e", "975fe46534fc5b2e"),
    (("word", "reduce", "bs 2 3", "a(v0)^x"), {}, "b723254ae4fd8f34", "b723254ae4fd8f34"),
    (("word", "modulus", "bs 2 3", "t(e0)"), {}, "c746e3467578f5cb", "ed8e62942b526b43"),
    (("word", "modulus", "lollipop 1 6 2 | 3 6", "t(c0)", "--tree", "s0", "--base", "w0"), {}, "407e6626e66e0a54", "dd4538ce93bab568"),
    (("word", "elliptic", "bs 2 3", "t(e0) a(v0) t(e0)^-1"), {}, "af6e0cd10d51da7a", "9c04be4070313dc1"),
    (("word", "elliptic", "bs 2 3", "t(e0)"), {}, "2e664087c866bb82", "11ddec5290a89a23"),
    (("word", "equal", "bs 2 3", "a(v0)^2", "a(v0)^2"), {}, "af6e0cd10d51da7a", "0d3e690d95d97e96"),
    (("word", "equal", "bs 2 3", "a(v0)", "t(e0)", "--base", "v0"), {}, "2e664087c866bb82", "7163dbdb10568a00"),
    (("verify", "hom.json"), {}, "3334722f0d934777", "7e0922b943979693"),
    (("verify", "embedding.json"), {}, "073ee63cdbf125c2", "bc32b68caabf3fa8"),
    (("verify", "missing.json"), {}, "64267a069c2f3fb2", "64267a069c2f3fb2"),
    (("catalog", "--only", "hopf-table"), {}, "e61cfb03ca1418ca", "b08d60e85756121b"),
    (("catalog", "--only", "rf"), {}, "a8b202d405b10ad8", "9369749dfcb62150"),
    (("bs",), {}, "53bc9c80e6b03bdc", "53bc9c80e6b03bdc"),
    (("word", "equal", "bs 2 3", "a(v0)"), {}, "9633cb95baff04c7", "9633cb95baff04c7"),
    (("nope",), {}, "6919040d45c4c6ad", "6919040d45c4c6ad"),
    (("--help",), {}, "2f1ac4b5dece8af3", "2f1ac4b5dece8af3"),
    (("graph", "--help"), {}, "ad8c3d5bc8133f97", "ad8c3d5bc8133f97"),
    (("quot", "--help"), {}, "5a9bdbb88796d9c0", "5a9bdbb88796d9c0"),
    (("bs", "--help"), {}, "911f29dba0ec4284", "911f29dba0ec4284"),
    (("embed", "--help"), {}, "28dded435cef1150", "28dded435cef1150"),
    (("word", "--help"), {}, "d03aa32e32e2f7ec", "d03aa32e32e2f7ec"),
    (("rank", "--help"), {}, "2bf765022d0bb0ef", "2bf765022d0bb0ef"),
    (("plateaus", "--help"), {}, "d747df5067368173", "d747df5067368173"),
    (("verify", "--help"), {}, "b2a5d65c7e40c425", "b2a5d65c7e40c425"),
    (("word", "equal", "bs 2 3", "1", "1"), {}, "af6e0cd10d51da7a", "0d3e690d95d97e96"),
    (("word", "reduce", "bs 2 3", "1"), {}, "9d53f0409284099d", "043ea02bca16fb25"),
]


def _pinned_run(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argv errors and --help leave through argparse
        code = exc.code
    out, err = capsys.readouterr()
    written = None
    if os.path.exists("cert.json"):
        with open("cert.json") as fh:
            written = fh.read()
        os.remove("cert.json")
    return hashlib.sha256(json.dumps([code, out, err, written]).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def seed_certificate_texts():
    return {kind: json.dumps(seed_certificate(kind)) for kind in ("hom", "embedding")}


@pytest.mark.parametrize("argv, env, human, as_json", CLI_PINS, ids=[" ".join(p[0]) for p in CLI_PINS])
def test_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys, seed_certificate_texts, argv, env, human, as_json):
    for kind, text in seed_certificate_texts.items():
        (tmp_path / f"{kind}.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert _pinned_run(capsys, argv) == human
    assert _pinned_run(capsys, (*argv, "--json")) == as_json


def test_every_subcommand_has_a_pinned_case():
    pinned = [argv for argv, _, _, _ in CLI_PINS]
    missing = [path for path, _, _ in COMMANDS if not any(argv[: len(path.split())] == tuple(path.split()) for argv in pinned)]
    assert not missing, missing


def test_running_out_of_memory_is_a_cap_exit_without_a_traceback():
    """The family witnesses double with each count, so under a 120 MB
    address-space limit (set in the child only) count 40 runs out of memory:
    exit 2 and one line, where a raw MemoryError traceback exited 1."""
    resource = pytest.importorskip("resource")
    limit = 120 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(gbs.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gbs.cli", "quot", "family", "4", "6", "--count", "40"],
        preexec_fn=cap, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (2, "cap exceeded: out of memory\n")
