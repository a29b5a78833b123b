"""Toolkit for generalized Baumslag-Solitar groups presented by labelled
graphs: word problem, rank, quotient and subgroup deciders, and
machine-checkable certificates.

`import gbs` loads the deciding core: `graphs`, `words`, `plateaus`,
`bs_arith` and the modules they import.  The certificate layer (`homs`,
`quotients` and `embeddings`) loads as one unit on the first lookup of any
of its names or modules (PEP 562), which binds all its names here.  One
unit, because the benchmark's span tracer reads each traced module from
`sys.modules` once a workload has used any of them (ROADMAP item 1).
`plateaus` loads eagerly so that the name stays the function: a submodule
loaded later would bind the module over it."""

from .graphs import (
    LabelledGraph,
    bs_graph,
    circle_graph,
    classify_shape,
    lollipop_graph,
    move,
    parse_graph,
    reduce_graph,
    segment_graph,
)
from .words import (
    Presentation,
    britton_reduce,
    equal,
    is_elliptic,
    is_unimodular,
    has_nontrivial_center,
    modular_image,
    modulus,
    segment_center_index,
)
from .plateaus import is_two_generated, mu, plateaus
from .bs_arith import (
    embeds_bs,
    embeds_elementary,
    exists_epi_bs,
    is_hopfian_bs,
    is_rf_bs,
    power_of_ratio,
)

_LAYER = {  # module -> the names the package binds from it
    "homs": (
        "HomCertificate", "bs_source_epi", "check_epi", "check_hom", "minimal_bs_epi", "move_cert", "non_hopf_endo",
    ),
    "quotients": (
        "bs_sources", "descending_chain", "epi_equivalent_bs", "exists_bs_quotient", "finitely_many_quotients",
        "infinite_family", "is_large", "is_quotient_of_bs", "is_rf_gbs", "maps_onto_minimal_bs",
        "minimal_bs_source", "quotient_rigidity",
    ),
    "embeddings": (
        "EmbeddingCertificate", "WeaklyAdmissibleMap", "check_admissible", "check_weakly_admissible",
        "circle_bs_subgroup", "contains_bs", "contains_z2_k", "embed_bs_construct", "embeds_in_some_bs_nn",
        "subgroup_of_bs_nn", "verify_embedding_certificate",
    ),
}
_LAZY = {*_LAYER, *(n for names in _LAYER.values() for n in names)}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for mod, names in _LAYER.items():  # importing a module binds it here; its names come after
        module = import_module(f"{__name__}.{mod}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [n for n in __dir__() if not n.startswith("_")]
