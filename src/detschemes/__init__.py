"""Exact computer algebra for standard and good determinantal schemes."""

from .field import GF, QQ, field_from_descriptor
from .ring import (
    NOT_HOMOGENEOUS,
    ZERO,
    Polynomial,
    PolyRing,
    random_homogeneous,
)
from .groebner import (
    ColumnModuleGB,
    DimensionReport,
    IdealBasis,
    buchberger,
    dimension_report,
    ensure_gb,
    height,
    ideal,
    minimal_generator_count,
    quotient_hilbert_function,
)
from .grading import (
    Coker,
    DegreeBasis,
    GradedFreeModule,
    HomogeneousMatrix,
    Ker,
    degree_basis,
    hilbert_function,
    matrix_from_polys,
    matrix_from_strings,
    matrix_piece,
    piece_rank,
)
from .determinantal import (
    ClassificationReport,
    DeterminantalPresentation,
    FlagResult,
    GeneralizedRowWitness,
    SectionSequence,
    augment_general_row,
    build_flag,
    classify,
    delete_row,
    find_generalized_row,
    generalized_deletion,
    minors,
    presentation_from_strings,
    section_sequence,
)
from .complexes import (
    AcyclicityReport,
    AnnihilatorReport,
    BettiTable,
    CanonicalModule,
    FreeComplex,
    betti_table,
    buchsbaum_eisenbud,
    buchsbaum_rim,
    canonical_module,
    cm_type,
    eagon_northcott,
    graded_exactness_check,
    koszul,
    rank_of_map,
    verify_annihilator,
    verify_complex,
)
from .errors import DetschemesError, InputError, VerificationError

__version__ = "0.1.0"
