"""The package's public names: one public route per fact.

Four names left ``__all__`` for ``norm_table``; they stay importable from
``quiveralg.reps``, and as the shim imports in ``cli`` and ``recovery``,
because perfbench's tracer wraps those module attributes (ROADMAP item 8).
"""

import pytest

import quiveralg
from quiveralg import cli, recovery, reps

PUBLIC = [
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


def test_all_is_the_fifty_public_names():
    assert len(PUBLIC) == 50
    assert sorted(quiveralg.__all__) == PUBLIC
    assert all(getattr(quiveralg, name) is not None for name in PUBLIC)
    assert not hasattr(reps, "purity_bound")  # norm_table's bound column replaced it


@pytest.mark.parametrize(
    "name, shims",
    [
        ("membership_G", [recovery]),
        ("t_tilde_k_matrix", []),
        ("t_tilde_k_norm_closed", [cli]),
        ("t_tilde_k_norm_direct", [cli]),
    ],
)
def test_unexported_names_stay_in_reps_for_the_tracer(name, shims):
    assert name not in quiveralg.__all__ and not hasattr(quiveralg, name)
    assert callable(getattr(reps, name))
    assert all(getattr(m, name) is getattr(reps, name) for m in shims)
