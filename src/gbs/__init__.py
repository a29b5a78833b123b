"""Toolkit for generalized Baumslag-Solitar groups presented by labelled
graphs: word problem, rank, quotient and subgroup deciders, and
machine-checkable certificates."""

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
from .homs import (
    HomCertificate,
    check_epi,
    check_hom,
    non_hopf_endo,
    bs_source_epi,
    minimal_bs_epi,
    move_cert,
)
from .quotients import (
    bs_sources,
    descending_chain,
    epi_equivalent_bs,
    exists_bs_quotient,
    finitely_many_quotients,
    infinite_family,
    is_large,
    is_quotient_of_bs,
    is_rf_gbs,
    maps_onto_minimal_bs,
    minimal_bs_source,
    quotient_rigidity,
)
from .embeddings import (
    EmbeddingCertificate,
    WeaklyAdmissibleMap,
    check_admissible,
    check_weakly_admissible,
    circle_bs_subgroup,
    contains_bs,
    contains_z2_k,
    embed_bs_construct,
    embeds_in_some_bs_nn,
    subgroup_of_bs_nn,
    verify_embedding_certificate,
)
