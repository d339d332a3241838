"""Quiver path algebras realized concretely.

Truncated shift representations on the path basis, characters, families of
two-dimensional upper-triangular representations with their norm recursions,
and reconstruction of the multiplicity matrix from a scrambled presentation
of the algebra.
"""

from .quiver import (
    ISO_VERTEX_LIMIT,
    Arrow,
    Path,
    Quiver,
    apply_permutation,
    are_isomorphic,
    arrow_path,
    compose,
    enumerate_paths,
    vertex_path,
)
from .correspondence import (
    CorrespondenceElement,
    element_norm,
    inner_product,
    left_action,
    right_action,
)
from .polynomials import (
    MAX_DEGREE,
    PathPolynomial,
    format_path,
    format_polynomial,
    parse_polynomial,
)
from .fock import (
    CornerReport,
    FockSpace,
    check_isometric_covariance,
    corner_shift_report,
    creation_operator,
    diag_operator,
    evaluate_polynomial,
    operator_norm,
)
from .reps import (
    Character,
    TwoDimRep,
    char_eval,
    norm_table,
    rho_eval,
    t_tilde_product,
)
from .recovery import (
    HiddenTruth,
    ProbeMismatchError,
    RecoveryError,
    RecoveryReport,
    ScrambledPresentation,
    probe_character_dimension,
    probe_pair_dimension,
    recover,
    scramble,
)
from .graphio import (
    GRAPH_SCHEMA_VERSION,
    element_from_wire,
    element_to_wire,
    parse_quiver_dict,
    parse_quiver_file,
    quiver_to_dict,
    write_quiver_file,
)

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "Character",
    "CornerReport",
    "CorrespondenceElement",
    "FockSpace",
    "GRAPH_SCHEMA_VERSION",
    "HiddenTruth",
    "ISO_VERTEX_LIMIT",
    "MAX_DEGREE",
    "Path",
    "PathPolynomial",
    "ProbeMismatchError",
    "Quiver",
    "RecoveryError",
    "RecoveryReport",
    "ScrambledPresentation",
    "TwoDimRep",
    "apply_permutation",
    "are_isomorphic",
    "arrow_path",
    "char_eval",
    "check_isometric_covariance",
    "compose",
    "corner_shift_report",
    "creation_operator",
    "diag_operator",
    "element_from_wire",
    "element_norm",
    "element_to_wire",
    "enumerate_paths",
    "evaluate_polynomial",
    "format_path",
    "format_polynomial",
    "inner_product",
    "left_action",
    "norm_table",
    "operator_norm",
    "parse_polynomial",
    "parse_quiver_dict",
    "parse_quiver_file",
    "probe_character_dimension",
    "probe_pair_dimension",
    "quiver_to_dict",
    "recover",
    "rho_eval",
    "right_action",
    "scramble",
    "t_tilde_product",
    "vertex_path",
    "write_quiver_file",
]
