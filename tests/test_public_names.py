"""The names `import gbs` gives a user.  Dropping or adding one is a visible,
deliberate edit of PUBLIC, and a lazily importing `gbs/__init__` must still
resolve every one of them."""

import inspect

import gbs

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
