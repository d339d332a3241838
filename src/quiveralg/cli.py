"""Command-line entry point.

Subcommands:

* ``verify``  -- run the truncated-shift consistency checks on a graph and
  emit {depth, dim, max_covariance_deviation, corner_isometry_ok,
  norm_checks} as JSON.  ``norm_checks`` holds two kinds of entry: one
  ``basis_arrow`` entry per arrow, named by the token ``paths`` prints for
  it (``"1<4:1"``), with all their operator norms read off the path tree in
  one pass; then ``VERIFY_RANDOM_NORM_CHECKS`` ``random`` entries, each with
  its element's wire vector.  The ``2 * VERIFY_COVARIANCE_PAIRS`` covariance
  elements and the random ones are the rows of one draw, and the covariance
  deviations and the random entries' norms are each one stacked pass over
  those rows, equal bit for bit to the one-element functions.
* ``norms``   -- tabulate {k, closed, direct, bound} for the compressed-map
  norms of a two-dimensional representation: the direct column of the whole
  table is one Gram recursion of k_max - 1 steps, O(k_max * (c_ii + c_ij +
  c_jj)) in all.
* ``recover`` -- scramble a graph, reconstruct its multiplicity matrix, and
  report the certified witness permutation; ``--expect`` compares against a
  reference by isomorphism search.
* ``iso``     -- the lexicographically least isomorphism witness between two
  graph files, found by signature-pruned backtracking.
* ``paths``   -- enumerate the paths of a graph up to a length.  The report
  is built as bytes: its head, then a level of names at a time, as
  ``quiver._path_levels`` walks the levels, each name with the separator
  that follows it in the report and each level one add of fixed-width
  byte-string arrays (an arrow's token before the name of the path it
  extends), then its tail.  It is written to the file or stdout as those
  chunks, with no string per path, no array of the whole path tree and no
  full-size join of the report.

``verify`` and ``recover`` draw all their randomness from a single
``--seed`` (default 0) through one numpy generator, so identical
configurations produce byte-identical reports; the other subcommands draw
none and take no ``--seed``.  Vertex numbers in files, flags, and reports
are 1-based.  ``verify`` judges every check against ``VERIFY_TOL``: the
covariance deviation and both sides of each norm check are closed-form.

``paths`` and ``verify`` refuse, before they build any path, graphs whose
paths hold more than ``quiver.PATH_TOKEN_LIMIT`` arrow tokens in all, or
more than ``quiver.PATH_LIMIT`` paths; ``recover --expect`` refuses a search
past ``quiver.ISO_VERTEX_LIMIT`` vertices before it scrambles, ``scramble``
refuses graphs past ``recovery.SCRAMBLE_LIMIT`` unitary entries before it
draws anything, and ``norms`` refuses blocks (i, i), (j, j) and (i, j) with
more than ``quiver.PATH_LIMIT`` arrows in all before it builds a vector.

``build_parser`` is the one place where a subcommand and its options, with
their defaults, are declared; each subcommand sets ``run`` to its runner,
which returns the exit code, the report and the detail of the summary line
``main`` prints on stderr.  ``main`` builds the parser on its first call and
reuses it for the rest of the process (``parse_args`` leaves a parser
unchanged); a command line that starts with a subcommand goes straight to
that subcommand's parser.  Reports are byte-identical to
``json.dumps(report, indent=2, sort_keys=True)``; ``_report_chunks`` writes
them with the stdlib's C encoder, which ``indent`` would switch off, built
once per indent level and reused (``json.dumps`` builds one per call), and
keys with ``encode_basestring_ascii``, appending every piece to one list
that is joined and encoded once.  A ``paths`` report is rendered ahead as
its byte chunks, which ``main`` writes as they are.

Exit codes: 0 success (also for ``--help`` and ``--version``), 1 validation
error (bad input, a usage error such as a missing or malformed option, or
a stdout closed before the whole report is written), 2 numerical check
failed, 3 recovery or isomorphism mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional

import numpy as np

from . import __version__
from .correspondence import CorrespondenceElement, _module_norms, _random_rows
# Not called here: perfbench's tracer wraps quiveralg.cli.element_norm and the
# three fock functions below, whose stacked forms verify calls, and its
# self-test requires every wrapped name to exist.
from .correspondence import element_norm  # noqa: F401
from .fock import check_isometric_covariance, creation_operator, operator_norm  # noqa: F401
from .fock import (
    DEFAULT_DEPTH,
    FockSpace,
    _arrow_shift_norms,
    _covariance_deviations,
    _shift_norms,
    corner_shift_report,
)
from .graphio import GRAPH_SCHEMA_VERSION, element_to_wire, parse_quiver_file
from .polynomials import format_path
from .quiver import PATH_LIMIT, Quiver, _check_iso_size, _path_levels, are_isomorphic, arrow_path, vertex_path
# Not called here: perfbench's tracer wraps quiveralg.cli.enumerate_paths and
# its self-test requires every wrapped name to exist.
from .quiver import enumerate_paths  # noqa: F401
from .recovery import RecoveryError, recover, scramble
from .reps import TwoDimRep, norm_table
# Not called here: perfbench's tracer wraps quiveralg.cli.t_tilde_k_norm_direct
# and quiveralg.cli.t_tilde_k_norm_closed, and its self-test requires every
# wrapped name to exist.
from .reps import t_tilde_k_norm_closed, t_tilde_k_norm_direct  # noqa: F401

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3

#: random draws per verify run (covariance pairs and norm-check elements)
VERIFY_COVARIANCE_PAIRS = 3
VERIFY_RANDOM_NORM_CHECKS = 2

#: largest --k-max that norms accepts (one table row per k)
NORMS_K_MAX = 100

#: the bound verify judges the covariance deviation and each norm check against
VERIFY_TOL = 1e-12


def _parse_complex_vector(text: Optional[str], dim: int, name: str) -> Optional[np.ndarray]:
    """Comma-separated complex literals; empty or omitted is None, which
    ``TwoDimRep`` reads as the zero vector."""
    if text is None or text.strip() == "":
        return None
    try:
        vec = np.array([complex(part.strip()) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"cannot parse {name}: {exc}") from exc
    if vec.shape[0] != dim:
        raise ValueError(f"{name} must have {dim} entries, got {vec.shape[0]}")
    return vec


def _run_verify(args: argparse.Namespace) -> tuple[int, dict, str]:
    q = parse_quiver_file(args.graph)
    space = FockSpace(q, args.depth)
    # one draw: the rows are the covariance pairs' xi and eta in turn, then
    # the random norm-check elements, as consecutive element draws would give
    pairs = 2 * VERIFY_COVARIANCE_PAIRS
    rows = _random_rows(q, np.random.default_rng(args.seed), pairs + VERIFY_RANDOM_NORM_CHECKS)
    max_cov = float(_covariance_deviations(space, rows[:pairs:2], rows[1:pairs:2]).max())

    corner_ok = True
    for v in q.vertices():
        if q.count(v, v) >= 1:
            corner_ok = corner_ok and corner_shift_report(space, v).ok

    # a basis element has module norm 1 and is named by its arrow's token
    norm_checks = [
        {
            "kind": "basis_arrow",
            "arrow": format_path(arrow_path(a)),
            "element_norm": 1.0,
            "operator_norm": n_op,
            "deviation": abs(1.0 - n_op),
        }
        for a, n_op in zip(q.arrows(), _arrow_shift_norms(space).tolist())
    ]
    randoms = rows[pairs:]
    n_elems = _module_norms(q, randoms).tolist()
    n_ops = _shift_norms(space, randoms[:, space.last_arrow]).tolist()
    for vec, n_elem, n_op in zip(randoms, n_elems, n_ops):
        norm_checks.append(
            {
                "kind": "random",
                "element": element_to_wire(CorrespondenceElement(q, vec)),
                "element_norm": n_elem,
                "operator_norm": n_op,
                "deviation": abs(n_elem - n_op),
            }
        )

    report = {
        "depth": args.depth,
        "dim": space.dim,
        "max_covariance_deviation": max_cov,
        "corner_isometry_ok": corner_ok,
        "norm_checks": norm_checks,
    }
    ok = max_cov <= VERIFY_TOL and corner_ok and all(c["deviation"] <= VERIFY_TOL for c in norm_checks)
    detail = f"dim {space.dim}, max covariance deviation {max_cov:.3e}, {len(norm_checks)} norm checks"
    return (EXIT_OK if ok else EXIT_NUMERICAL), report, detail


def _run_norms(args: argparse.Namespace) -> tuple[int, dict, str]:
    q = parse_quiver_file(args.graph)
    i, j = args.vertex_i - 1, args.vertex_j - 1
    if not (0 <= i < q.n and 0 <= j < q.n):
        raise ValueError(f"vertices must be in 1..{q.n}")
    dims = q.count(i, i), q.count(j, j), q.count(i, j)
    if sum(dims) > PATH_LIMIT:  # arrows are the paths of length 1
        raise ValueError(
            f"size limit exceeded: the blocks at vertices {args.vertex_i} and {args.vertex_j} "
            f"hold {sum(dims)} > {PATH_LIMIT} arrows"
        )
    texts = ((args.lam_i, "lambda-i"), (args.lam_j, "lambda-j"), (args.gamma, "gamma"))
    rep = TwoDimRep(q, i, j, *(_parse_complex_vector(t, d, name) for (t, name), d in zip(texts, dims)))
    if not 1 <= args.k_max <= NORMS_K_MAX:
        raise ValueError(f"k-max must be in 1..{NORMS_K_MAX}, got {args.k_max}")
    table = norm_table(rep, args.k_max)
    rows = [{"k": k, "closed": c, "direct": d, "bound": b} for k, (c, d, b) in enumerate(table, 1)]
    worst = max(abs(c - d) for c, d, _ in table)
    report = {
        "i": args.vertex_i,
        "j": args.vertex_j,
        "rows": rows,
        "max_closed_direct_gap": worst,
    }
    code = EXIT_OK if worst <= 1e-10 else EXIT_NUMERICAL
    return code, report, f"k up to {len(rows)}, closed/direct gap {worst:.3e}"


def _run_recover(args: argparse.Namespace) -> tuple[int, dict, str]:
    q = parse_quiver_file(args.graph)
    # the reference is read, and its search refused if too large, before the costly scramble
    expected = None if args.expect is None else parse_quiver_file(args.expect)
    if expected is not None and expected.n == q.n:
        _check_iso_size(q.n)
    presentation = scramble(q, args.seed)
    result = recover(presentation)
    report = {
        "n_recovered": result.n_recovered,
        "c_recovered": [list(row) for row in result.c_recovered],
        "witness": [t + 1 for t in result.witness],
        "seed": args.seed,
    }
    code = EXIT_OK
    if expected is not None:
        # None also when the vertex counts differ
        match = are_isomorphic(Quiver(result.c_recovered), expected)
        report["expect_met"] = match is not None
        if match is None:
            code = EXIT_MISMATCH
    return code, report, f"recovered {result.n_recovered} vertices, witness {report['witness']}"


def _run_iso(args: argparse.Namespace) -> tuple[int, dict, str]:
    q1 = parse_quiver_file(args.graph)
    q2 = parse_quiver_file(args.graph2)
    tau = are_isomorphic(q1, q2)
    report = {
        "isomorphic": tau is not None,
        "permutation": None if tau is None else [t + 1 for t in tau],
    }
    return (EXIT_OK if tau is not None else EXIT_MISMATCH), report, f"permutation {report['permutation']}"


def _run_paths(args: argparse.Namespace) -> tuple[int, _Rendered, str]:
    q = parse_quiver_file(args.graph)
    levels = _path_levels(q, args.max_len)
    # every name is made with the separator that follows it in the report; a
    # path's name is its last arrow's token before its parent's name, so each
    # level is one add of fixed-width byte strings gathered from the level
    # before it, written out as it is made
    level = np.char.add(np.array([format_path(vertex_path(v)) for v in q.vertices()], dtype="S"), _ITEM_SEP)
    if args.max_len:  # only then has the walk bounded the arrows
        tokens = np.array([format_path(arrow_path(a)) for a in q.arrows()], dtype="S")[q._by_source[0]]
        starred = np.char.add(tokens, b"*")
        arrow_names = np.char.add(tokens, _ITEM_SEP)  # level 1: every arrow, in out_arrow order
    chunks = [_joined(level)]
    count = q.n
    for rows, places, _ in levels:
        level = np.char.add(starred[places], level[rows]) if count > q.n else arrow_names
        chunks.append(_joined(level))
        count += len(rows)
    chunks[-1] = memoryview(chunks[-1])[: -len(_ITEM_SEP)]
    head = b'{\n  "count": %d,\n  "paths": [\n    "' % count
    return EXIT_OK, _Rendered((head, *chunks, b'"\n  ]\n}\n')), f"{count} paths"


#: what follows each name but the last in a ``paths`` report
_ITEM_SEP = b'",\n    "'


def _joined(names: np.ndarray) -> np.ndarray | bytes:
    """The bytes of a fixed-width byte-string array's names, each of which
    ends in ``_ITEM_SEP``: its buffer, less the padding of the names shorter
    than the widest (a name is printable ASCII, so it holds no NUL)."""
    data = names.view(np.uint8)
    return data if data.all() else names.tobytes().translate(None, b"\0")


class _Rendered(tuple):
    """A report written ahead as the UTF-8 chunks of its text and final
    newline, which ``_report_chunks`` passes through as they are."""

    __slots__ = ()


def _seed(text: str) -> int:
    """The type of ``--seed``: numpy's generators take non-negative integers."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so that ``main`` returns
    EXIT_VALIDATION instead of argparse's exit status 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="quiveralg",
        description="Quiver path algebras: shift representations and graph recovery.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (graph schema v{GRAPH_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, runner):
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.set_defaults(run=runner)

    p = sub.add_parser("verify", help="consistency checks on the truncated shifts")
    p.add_argument("--graph", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--seed", type=_seed, default=0)
    common(p, _run_verify)

    p = sub.add_parser("norms", help="compressed-map norm table for a 2-dim representation")
    p.add_argument("--graph", required=True)
    p.add_argument("--i", dest="vertex_i", type=int, required=True)
    p.add_argument("--j", dest="vertex_j", type=int, required=True)
    p.add_argument("--lambda-i", dest="lam_i")
    p.add_argument("--lambda-j", dest="lam_j")
    p.add_argument("--gamma")
    p.add_argument("--k-max", dest="k_max", type=int, default=6)
    common(p, _run_norms)

    p = sub.add_parser("recover", help="scramble a graph and reconstruct it")
    p.add_argument("--graph", required=True)
    p.add_argument("--expect")
    p.add_argument("--seed", type=_seed, default=0)
    common(p, _run_recover)

    p = sub.add_parser("iso", help="least isomorphism witness between two graph files (backtracking search)")
    p.add_argument("graph")
    p.add_argument("graph2")
    common(p, _run_iso)

    p = sub.add_parser("paths", help="enumerate paths up to a length")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-len", dest="max_len", type=int, default=4)
    common(p, _run_paths)

    return parser


#: the parser ``main`` uses, built on its first call
_cached_parser = functools.cache(build_parser)


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` (default ``sys.argv[1:]``) read by the parser ``main`` uses.
    A command line that starts with a subcommand's name goes straight to
    that subcommand's parser, which is what the parser would hand it to; the
    rest (``--help``, ``--version``, a missing or unknown subcommand) takes
    the parser's own pass."""
    parser = _cached_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if argv and argv[0] in sub.choices:
        return sub.choices[argv[0]].parse_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
    return parser.parse_args(argv)


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encoder(inner: str):
    """The C encoder of ``json.dumps(value, sort_keys=True, separators=(",\\n"
    + inner, ": "))``, which ``JSONEncoder.iterencode`` builds afresh on
    every call, built once per indent level: it writes a scalar as
    ``json.dumps`` does and a container of scalars with its items separated
    by a newline and ``inner`` (scalars hold no reference, so there is no
    cycle to check for)."""
    # (markers, default, encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan)
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + inner, True, False, True,
    )


def _report_chunks(value) -> list | _Rendered:
    """``json.dumps(value, indent=2, sort_keys=True)`` and a newline as bytes
    to write in turn, for str-keyed values: one encoded piece, or the chunks
    of a report written ahead as they are."""
    if type(value) is _Rendered:
        return value
    out: list[str] = []
    _write(value, "", out)
    out.append("\n")
    return ["".join(out).encode()]


def _write(value, indent: str, out: list) -> None:
    """Append the pieces of ``value``'s text, its lines after the first at
    ``indent``.  A scalar, an empty container or a container of scalars is
    one call of the C encoder; a key is one ``encode_basestring_ascii``."""
    inner = indent + "  "
    if not value or not isinstance(value, _CONTAINERS):
        out += _encoder(inner)(value, 0)
        return
    for v in value.values() if isinstance(value, dict) else value:
        if isinstance(v, _CONTAINERS):
            break
    else:
        text = "".join(_encoder(inner)(value, 0))
        out += text[0], "\n", inner, text[1:-1], "\n", indent, text[-1]
        return
    lead, sep = "\n" + inner, ",\n" + inner
    if isinstance(value, dict):
        out.append("{")
        for k in sorted(value):
            out += lead, encode_basestring_ascii(k), ": "
            _write(value[k], inner, out)
            lead = sep
        out += "\n", indent, "}"
    else:
        out.append("[")
        for v in value:
            out.append(lead)
            _write(v, inner, out)
            lead = sep
        out += "\n", indent, "]"


def _write_stdout(chunks: list) -> None:
    """Write the chunks to stdout's binary buffer, after any text pending
    before them; a stdout without one takes their decoded text."""
    sys.stdout.flush()
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.write(b"".join(chunks).decode())
        sys.stdout.flush()
    else:
        binary.writelines(chunks)
        binary.flush()


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        code, report, detail = args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RecoveryError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    chunks = _report_chunks(report)
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        try:
            _write_stdout(chunks)
        except BrokenPipeError as exc:  # the reader closed stdout early
            # the flush at exit would fail again, so it goes to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    status = {EXIT_OK: "OK", EXIT_NUMERICAL: "CHECK FAILED", EXIT_MISMATCH: "MISMATCH"}[code]
    print(f"{args.subcommand}: {detail} -- {status}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
