"""Exact computations with totally nonnegative Grassmannians.

Representatives are matrices of arbitrary-precision rationals; every
published result of this package (positivity reports, convexity
certificates, section witnesses, equivalence certificates) is checked
with exact arithmetic, never floating point.
"""

from .amplituhedron_map import (
    AmplituhedronSetup,
    MappedPoint,
    build_setup,
    build_z0,
    hat_map,
    signs_alternate,
)
from .embeddings import PlueckerVector, VeroneseMatrix, embed_point, pluecker, veronese
from .equivalence import (
    EquivalenceCertificate,
    construct_equivalence,
    cyclic_polytope_vertices,
    equivalence_transport_check,
)
from .errors import (
    ConstructionError,
    DegeneracyError,
    DimensionError,
    DomainError,
    FiberMismatchError,
    InconsistentSystemError,
    InternalConsistencyError,
    NotInCellError,
    RankError,
    TnngrassError,
    UnsupportedParameterError,
    UserInputError,
    WellDefinednessError,
)
from .exact_linalg import (
    IndexSubset,
    RationalMatrix,
    all_maximal_minors,
    as_rational,
    det,
    invert,
    kernel_basis,
    outer_product,
    rank,
    rational_to_string,
    solve_for_left_factor,
    subsets_colex,
)
from .fiber import (
    FiberConvexityCertificate,
    FiberPair,
    SectionWitness,
    convexity_certificate,
    fiber_displacement,
    sample_fiber_partner,
    section_witness,
)
from .tnn_grassmannian import (
    PositroidCellSpec,
    TNNPoint,
    TNNWitnessReport,
    check_tnn,
    in_closed_cell,
    matroid_of,
    sample_top_cell,
    zero_columns,
)

__version__ = "0.1.0"
