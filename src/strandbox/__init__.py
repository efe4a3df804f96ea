"""String algebras of affine type C-tilde.

String/band combinatorics, the Butler-Ringel AR calculus, affine root
systems with Coxeter transformations, and an exhaustive verifier for the
bijection between positive roots and rank vectors of tau-locally free
modules.
"""

from .algebra import (
    Arrow,
    Presentation,
    build_type_C_algebra,
    validate_string_algebra,
)
from .artrans import (
    ARSequence,
    ComponentGraph,
    add_left,
    add_right,
    ar_sequence_starting_at,
    build_component,
    classify_component,
    component_to_dot,
    component_to_json,
    delete_left,
    delete_right,
    extendable,
    index,
    is_minimal,
    minimal_strings,
    orbit,
    ray,
    tau,
    tau_inv,
    tube_bottom,
    tube_rank,
)
from .errors import (
    DomainError,
    InternalCheckError,
    NotLocallyFree,
    StrandboxError,
    UnsupportedPresentation,
)
from .modules import (
    ZERO,
    BandModuleClass,
    Representation,
    StringModule,
    band_module,
    build_representation,
    canonical_simple_param,
    dim_vector,
    ext1_dim_locally_free,
    format_module,
    free_rank_vector,
    hom_dim,
    hom_dim_modules,
    injective_string,
    is_injective,
    is_locally_free,
    is_projective,
    is_rigid,
    parse_module,
    projective_string,
    rad_decomposition,
    rank_vector,
    relations_vanish,
    simple_module,
    soc_quotient_decomposition,
    string_module,
)
from .roots import (
    CartanData,
    admissible_sequences,
    beta,
    cartan,
    closed_form_families,
    closed_form_positive_roots,
    coxeter,
    delta,
    enumerate_positive_roots,
    gamma,
    is_admissible_sequence,
    quadratic,
    reflect,
    ringel_form,
    sym_form,
)
from .strings import (
    Band,
    Letter,
    StringWord,
    canonical_band,
    canonical_string,
    delta_length,
    enumerate_bands,
    enumerate_strings,
    format_word,
    is_band,
    is_string,
    parse_band,
    parse_word,
    spine_walk_word,
    string_word,
    trivial_word,
)
from .verify import (
    GLSReport,
    Witness,
    check_coxeter_compatibility,
    check_gls,
    check_tube_invariants,
    tau_locally_free_rank_vectors,
)

__all__ = [name for name in dir() if not name.startswith("_")]
