"""Exact Specht module branching: restriction and induction of S^lam,
minimal polynomials of transposition sums, block decompositions, and
indecomposability certificates over the rationals and prime fields.
"""

from .central import (
    INDUCE,
    RESTRICT,
    BlockComponent,
    block_split,
    branching_factors,
    central_symmetric_action,
    predicted_min_poly,
)
from .endo import (
    DecompositionCertificate,
    certify_indecomposable,
    decompose,
    hom_space,
    is_isomorphic,
)
from .exact import (
    Matrix,
    Polynomial,
    RowBasis,
    Subspace,
    kernel,
    minimal_polynomial,
    rref,
)
from .fields import GF, QQ, FieldSpec
from .modules import (
    AlgebraElement,
    GroupActionModule,
    build_induction,
    build_restriction,
    build_specht,
    murphy_element,
    transposition_sum,
)
from .partitions import Partition, partitions_of, specht_dimension
from .tabloids import (
    ModuleVector,
    Tableau,
    canonical_tableau,
    extension,
    induced_polytabloid,
    polytabloid,
    standard_tableaux,
)
from .verify import (
    Check,
    VerificationReport,
    run_char2_counterexamples,
    sweep,
    verify_branching,
    verify_coefficient_induction,
    verify_coefficient_restriction,
    verify_en_scalar,
    verify_min_poly,
    verify_poly_transfer,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "BlockComponent", "Check",
    "DecompositionCertificate", "FieldSpec", "GF",
    "GroupActionModule", "INDUCE", "Matrix", "ModuleVector", "Partition",
    "Polynomial", "QQ", "RESTRICT", "RowBasis", "Subspace", "Tableau",
    "VerificationReport", "block_split", "branching_factors",
    "build_induction", "build_restriction", "build_specht",
    "canonical_tableau", "central_symmetric_action", "certify_indecomposable",
    "decompose", "extension", "hom_space",
    "induced_polytabloid", "is_isomorphic", "kernel", "minimal_polynomial",
    "murphy_element",
    "partitions_of", "polytabloid", "predicted_min_poly",
    "rref", "run_char2_counterexamples", "specht_dimension",
    "standard_tableaux", "sweep", "transposition_sum", "verify_branching",
    "verify_coefficient_induction", "verify_coefficient_restriction",
    "verify_en_scalar", "verify_min_poly", "verify_poly_transfer",
]
