"""The names `import gbs` gives a user.  Dropping or adding one is a visible,
deliberate edit of PUBLIC, and a lazily importing `gbs/__init__` must still
resolve every one of them."""

import inspect
import sys

import pytest

import gbs
from conftest import fresh_json

PUBLIC = [
    "EmbeddingCertificate", "HomCertificate", "LabelledGraph", "Presentation", "WeaklyAdmissibleMap",
    "britton_reduce", "bs_graph", "bs_source_epi", "bs_sources", "check_admissible", "check_epi",
    "check_hom", "check_weakly_admissible", "circle_bs_subgroup", "circle_graph", "classify_shape",
    "contains_bs", "contains_z2_k", "descending_chain", "embed_bs_construct",
    "embeds_bs", "embeds_elementary", "embeds_in_some_bs_nn", "epi_equivalent_bs", "equal",
    "exists_bs_quotient", "exists_epi_bs", "finitely_many_quotients", "has_nontrivial_center",
    "infinite_family", "is_elliptic", "is_hopfian_bs", "is_large", "is_quotient_of_bs", "is_rf_bs",
    "is_rf_gbs", "is_two_generated", "is_unimodular", "lollipop_graph", "maps_onto_minimal_bs",
    "minimal_bs_epi", "minimal_bs_source", "modular_image", "modulus", "move", "move_cert", "mu", "non_hopf_endo",
    "parse_graph", "plateaus", "power_of_ratio", "quotient_rigidity", "reduce_graph",
    "segment_center_index", "segment_graph", "subgroup_of_bs_nn", "verify_embedding_certificate",
]


def test_gbs_binds_exactly_the_pinned_public_names():
    bound = sorted(n for n in dir(gbs) if not n.startswith("_") and not inspect.ismodule(getattr(gbs, n)))
    assert bound == PUBLIC


def test_every_public_name_resolves_to_what_its_module_defines():
    for name in PUBLIC:
        obj = getattr(gbs, name)
        assert callable(obj) and getattr(obj, "__name__", name) == name, name


def test_star_import_binds_every_public_name():
    bound = fresh_json("from gbs import *\nimport json; print(json.dumps(sorted(dir())))")
    assert set(PUBLIC) <= set(bound)


def test_a_layer_module_resolves_after_a_plain_import():
    out = fresh_json(
        "import json, sys, gbs\n"
        "early = sorted(m for m in sys.modules if m.startswith('gbs.'))\n"
        "print(json.dumps([early, gbs.homs.__name__]))"
    )
    core = ["gbs.arith", "gbs.bs_arith", "gbs.decision", "gbs.errors", "gbs.graphs", "gbs.lattice", "gbs.plateaus"]
    assert out == [core + ["gbs.words"], "gbs.homs"]


@pytest.mark.parametrize("first", ["import gbs.cli, gbs", "import gbs.homs; from gbs import plateaus"])
def test_plateaus_stays_the_function_whatever_loads_first(first):
    # a layer module imported by its dotted path loads gbs.plateaus too; the
    # package's `plateaus` must still be the function, not its module
    out = fresh_json(f"{first}\nimport json, gbs\nprint(json.dumps(type(gbs.plateaus).__name__))")
    assert out == "function"


def test_each_public_name_is_its_defining_modules_attribute():
    for name in PUBLIC:
        obj = getattr(gbs, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gbs.no_such_name
