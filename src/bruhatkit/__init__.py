"""bruhatkit: Bruhat decomposition over exact fields, Weyl group
combinatorics, the class-to-unipotent correspondence for types A and C,
and a finite-field laboratory that checks the structural statements
exhaustively at desk scale."""

from .cells import (
    BruhatFactorization,
    Flag,
    bruhat_cell_rank_profile,
    bruhat_decompose,
    enumerate_cell,
    relative_position,
    sp_bruhat_decompose,
    symplectic_form,
    symplectic_membership,
)
from .exact import GF, QQ, ExactMatrix, matrix_from_json
from .fflab import (
    FiniteGroupTable,
    GroupKind,
    count_unipotents,
    enumerate_group,
    jordan_type,
    parse_kind,
    verify_property_d,
    verify_theorem_a,
)
from .hecke import HeckeElement, hecke_mul, specialize, t_basis
from .partitions import Partition, dominance_leq, is_symplectic_partition, partitions_of
from .phimap import UnipotentClassLabel, map_i, map_j, map_j_image, phi, phi_table
from .polynomial import Poly
from .weyl import (
    ConjugacyClass,
    GroupSpec,
    WeylElement,
    chevalley_order,
    conjugacy_classes,
    gl_order,
    poincare_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BruhatFactorization",
    "ConjugacyClass",
    "ExactMatrix",
    "FiniteGroupTable",
    "Flag",
    "GF",
    "GroupKind",
    "GroupSpec",
    "HeckeElement",
    "Partition",
    "Poly",
    "QQ",
    "UnipotentClassLabel",
    "WeylElement",
    "bruhat_cell_rank_profile",
    "bruhat_decompose",
    "chevalley_order",
    "conjugacy_classes",
    "count_unipotents",
    "dominance_leq",
    "enumerate_cell",
    "enumerate_group",
    "gl_order",
    "hecke_mul",
    "is_symplectic_partition",
    "jordan_type",
    "map_i",
    "map_j",
    "map_j_image",
    "matrix_from_json",
    "parse_kind",
    "partitions_of",
    "phi",
    "phi_table",
    "poincare_polynomial",
    "relative_position",
    "sp_bruhat_decompose",
    "specialize",
    "symplectic_form",
    "symplectic_membership",
    "t_basis",
    "verify_property_d",
    "verify_theorem_a",
]
