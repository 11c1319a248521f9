"""Symmetric multiqubit states: Majorana configurations, local-unitary
equivalence, and stabilizer classification.

Pure permutation-symmetric n-qubit states are represented by their n + 1
Dicke-basis coefficients and, geometrically, by a multiset of n points on the
Bloch sphere.  The package decides local-unitary equivalence of pure and
permutation-invariant mixed states, classifies stabilizer subgroups into the
continuous families and finite rotation groups, and cross-checks everything
against dense brute-force oracles at small n.
"""
from .classify import (
    ClassCensus,
    ClassificationResult,
    StabilizerClass,
    StabilizerSampler,
    canonical_state,
    class_census,
    classify_state,
    lu_equivalent_pure,
    stabilizer_generators,
)
from .errors import (
    AmbiguousClassificationError,
    DomainError,
    NormalizationError,
    NotGhzFormError,
    SymmluError,
)
from .majorana import (
    MajoranaConfiguration,
    config_from_points,
    majorana_points,
    mobius_apply,
    points_to_state,
)
from .mixed import (
    GhzForm,
    MixedEquivalenceResult,
    canonical_ghz_form,
    default_threshold,
    ghz_form_density,
    lu_equivalent_mixed,
    two_factor_search,
    two_qubit_support_check,
)
from .rotmatch import (
    PointGroup,
    all_matching_rotations,
    match_rotation,
    matching_distance,
    so3_to_su2,
    su2_to_so3,
    symmetry_group,
)
from .states import (
    DensityMatrix,
    LocalUnitary,
    PureState,
    SymmetricPureState,
    dicke,
    expand,
    ghz,
    is_permutation_invariant,
    random_local_unitary,
    random_su2,
    random_symmetric,
    random_symmetric_mixed,
    singlet,
    symmetrize,
    to_density,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .verify import (
    SpectraReport,
    StabilizerSearchConfig,
    StabilizerWitness,
    check_stabilizes,
    lu_equivalent_pure_bruteforce,
    sample_stabilizer,
    spectra_report,
    stabilizer_anomalies,
    witness_anomalies,
)

__version__ = "0.1.0"

# Benchmark reports record this; the kernels have one numpy implementation each.
USING_NUMBA = False

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "SymmluError",
    "DomainError",
    "NormalizationError",
    "AmbiguousClassificationError",
    "NotGhzFormError",
    "SymmetricPureState",
    "PureState",
    "DensityMatrix",
    "LocalUnitary",
    "dicke",
    "ghz",
    "singlet",
    "symmetrize",
    "expand",
    "to_density",
    "is_permutation_invariant",
    "random_su2",
    "random_local_unitary",
    "random_symmetric",
    "random_symmetric_mixed",
    "MajoranaConfiguration",
    "majorana_points",
    "points_to_state",
    "config_from_points",
    "mobius_apply",
    "su2_to_so3",
    "so3_to_su2",
    "PointGroup",
    "match_rotation",
    "all_matching_rotations",
    "matching_distance",
    "symmetry_group",
    "StabilizerClass",
    "StabilizerSampler",
    "ClassificationResult",
    "ClassCensus",
    "classify_state",
    "lu_equivalent_pure",
    "stabilizer_generators",
    "canonical_state",
    "class_census",
    "GhzForm",
    "MixedEquivalenceResult",
    "lu_equivalent_mixed",
    "two_factor_search",
    "canonical_ghz_form",
    "ghz_form_density",
    "two_qubit_support_check",
    "default_threshold",
    "StabilizerWitness",
    "StabilizerSearchConfig",
    "SpectraReport",
    "check_stabilizes",
    "sample_stabilizer",
    "stabilizer_anomalies",
    "witness_anomalies",
    "spectra_report",
    "lu_equivalent_pure_bruteforce",
]
