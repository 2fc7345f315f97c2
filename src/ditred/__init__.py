"""ditred: exact reduction calculus for layered tensor algebras with
derivations, with a bridge onto standardly filtered module categories and
realizations of generic modules over localized rational algebras.

Everything is exact: scalars are rationals, prime-field elements, or
rational functions; no floating point appears anywhere.
"""

from .errors import DitredError
from .scalars import (
    QQ,
    FracField,
    IrreducibleFactorizationUnavailable,
    Poly,
    PrimeField,
    RatFunc,
    RationalAlgebra,
    factor_squarefree,
    localize_membership,
    poly_gcd,
)
from .linalg import Mat
from .bigraph import (
    Arrow,
    Ditalgebra,
    PathAlgebra,
    PathElement,
    apply_derivation,
    build_path_algebra,
    check_directed,
    check_source,
    check_stellar,
    ditalgebra_from_text,
    ditalgebra_to_text,
    ideal_membership,
)
from .ditmod import (
    DitModule,
    DitMorphism,
    are_isomorphic,
    end_algebra,
    endolength,
    enumerate_indecomposables,
    enumerate_modules,
    hom_space,
    is_indecomposable,
    module_from_text,
    module_to_text,
    morphism_from_text,
    morphism_to_text,
)
from .algebras import (
    AlgMod,
    FDAlgebra,
    algebra_from_text,
    algebra_to_text,
    endolength_algmod,
    enumerate_algmods,
    ext1_dim,
    simple_modules,
    standard_modules,
)
from .reduction import (
    AdmissibleData,
    ReductionStep,
    ReductionTrace,
    build_admissible,
    detach_restrict_module,
    detach_restrict_morphism,
    fitting_split,
    reduce_to_minimal,
    step_absorb,
    step_absorb_loop,
    step_delete,
    step_detach,
    step_factor_out,
    step_reduce_X,
    step_regularize,
    step_unravel,
    trace_from_json,
    trace_to_json,
    verify_coverage,
)
from .qhbridge import (
    BasicReduction,
    QHCertificate,
    RightAlgebra,
    check_quasi_hereditary,
    delta_filtration,
    functor_H,
    induce,
    oracle_standard_modules,
    right_algebra,
)
from .generic import (
    GenericRealization,
    TransferBimodule,
    end_splitting_certificate,
    endolength_kx,
    generic_census,
    q_module,
    realize_generic,
    realization_to_text,
    realize_presentation,
    smith_normal_form,
    specialize,
    transfer_bimodule,
)

__all__ = [
    "DitredError",
    # scalars
    "QQ", "FracField", "IrreducibleFactorizationUnavailable", "Poly", "PrimeField",
    "RatFunc", "RationalAlgebra", "factor_squarefree", "localize_membership", "poly_gcd",
    # linear algebra
    "Mat",
    # layers
    "Arrow", "Ditalgebra", "PathAlgebra", "PathElement", "apply_derivation",
    "build_path_algebra", "check_directed", "check_source", "check_stellar",
    "ditalgebra_from_text", "ditalgebra_to_text", "ideal_membership",
    # modules
    "DitModule", "DitMorphism", "are_isomorphic", "end_algebra", "endolength",
    "enumerate_indecomposables", "enumerate_modules", "hom_space", "is_indecomposable",
    "module_from_text", "module_to_text", "morphism_from_text", "morphism_to_text",
    # finite-dimensional algebras
    "AlgMod", "FDAlgebra", "algebra_from_text", "algebra_to_text", "endolength_algmod",
    "enumerate_algmods", "ext1_dim", "simple_modules", "standard_modules",
    # reduction calculus
    "AdmissibleData", "ReductionStep", "ReductionTrace",
    "build_admissible", "detach_restrict_module", "detach_restrict_morphism",
    "fitting_split", "reduce_to_minimal", "step_absorb", "step_absorb_loop",
    "step_delete", "step_detach", "step_factor_out", "step_reduce_X",
    "step_regularize", "step_unravel", "trace_from_json", "trace_to_json", "verify_coverage",
    # bridge
    "BasicReduction", "QHCertificate", "RightAlgebra", "check_quasi_hereditary",
    "delta_filtration", "functor_H", "induce", "oracle_standard_modules", "right_algebra",
    # generic modules
    "GenericRealization", "TransferBimodule", "end_splitting_certificate",
    "endolength_kx", "generic_census", "q_module", "realization_to_text", "realize_generic",
    "realize_presentation", "smith_normal_form", "specialize", "transfer_bimodule",
]
