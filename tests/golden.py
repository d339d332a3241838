"""The golden CLI runs: one table, ``RUNS``, and the checks every run must pass.

An entry names a CLI run on the graphs in ``fixtures/graphs`` (``@name`` in
its arguments stands for ``fixtures/graphs/name.json``), its exit code and the
one line it prints on stderr.  A run that is not refused prints a report,
committed as ``fixtures/reports/<name>.json``.  ``paths``, ``iso`` and
``recover`` reports hold only integers and path names, so they must match
byte for byte.  ``verify`` and ``norms`` reports hold norms, which may move
in the last bit when the arithmetic is reordered: they must match in keys,
integers, booleans and strings, and in every float to within ``FLOAT_TOL``.

``python tests/golden.py`` runs every entry in a fresh interpreter of its
own, with ``src`` on the import path, and exits 1 naming the first run that
differs; ``test_reports.py`` runs the table in-process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
FLOAT_TOL = 1e-14

#: subcommands whose reports must match byte for byte
EXACT = {"paths", "iso", "recover"}

#: the CLI's exit code for refused input; a refused run prints no report
REFUSED = 1


class Run(NamedTuple):
    argv: list
    code: int
    stderr: str


def graph(name: str) -> str:
    return str(FIXTURES / "graphs" / f"{name}.json")


def _run(args: str, code: int, stderr: str) -> Run:
    return Run([graph(a[1:]) if a[0] == "@" else a for a in args.split()], code, stderr)


def _recover(name: str, seed: int, witness: str) -> Run:
    """``recover`` on a fixture graph, expecting its relabelled copy."""
    n = witness.count(",") + 1
    return _run(
        f"recover --graph @{name} --seed {seed} --expect @{name}_relabelled", 0,
        f"recover: recovered {n} vertices, witness [{witness}] -- OK",
    )


RUNS = {
    "paths_reference": _run("paths --graph @reference", 0, "paths: 30 paths -- OK"),
    "paths_four_cycle_loop_l6": _run(
        "paths --graph @four_cycle_loop --max-len 6", 0, "paths: 85 paths -- OK"
    ),
    # two-digit vertex numbers
    "paths_recover12_l2": _run("paths --graph @recover12 --max-len 2", 0, "paths: 2481 paths -- OK"),
    # acyclic: no path is longer than 10, so the last five levels are empty
    "paths_chain11_l15": _run("paths --graph @chain11 --max-len 15", 0, "paths: 96 paths -- OK"),
    "iso_relabelled": _run(
        "iso @recover6 @recover6_relabelled", 0, "iso: permutation [6, 5, 4, 3, 2, 1] -- OK"
    ),
    # no isomorphism: exit 3 with the mismatch report
    "iso_other": _run("iso @recover6 @recover6_other", 3, "iso: permutation None -- MISMATCH"),
    "recover4_expect": _recover("recover4", 14, "1, 4, 3, 2"),
    "recover6_expect": _recover("recover6", 16, "1, 3, 6, 2, 4, 5"),
    # blocks of 3, 4 and 5 arrows
    "recover5_wide_expect": _recover("recover5_wide", 5, "5, 3, 4, 2, 1"),
    # blocks of 1, 2 and 3 arrows alternating in (target, source) order
    "recover4_mixed_expect": _recover("recover4_mixed", 9, "2, 4, 3, 1"),
    "recover12_expect": _recover("recover12", 12, "8, 2, 10, 9, 1, 6, 5, 7, 12, 4, 3, 11"),
    # past ISO_VERTEX_LIMIT, so no --expect: the 65-cycle with a loop at
    # vertex 1 and 2 arrows 4 -> 11 (blocks of 1 and 2 arrows)
    "recover65": _run(
        "recover --graph @recover65 --seed 65", 0,
        "recover: recovered 65 vertices, witness [31, 20, 23, 3, 13, 62, 7, 29, 52, 41, 26, 4, 51, 44, "
        "15, 10, 53, 38, 19, 45, 46, 28, 61, 54, 17, 18, 27, 59, 40, 56, 8, 21, 39, 50, 16, 64, 6, 30, "
        "9, 5, 63, 34, 2, 22, 58, 48, 32, 36, 65, 49, 55, 1, 14, 37, 24, 47, 11, 43, 60, 12, 35, 57, 25, "
        "42, 33] -- OK",
    ),
    "verify_two_loops_d10": _run(
        "verify --graph @two_loops --depth 10 --seed 3", 0,
        "verify: dim 2047, max covariance deviation 2.220e-16, 4 norm checks -- OK",
    ),
    "verify_four_cycle_loop_d8": _run(
        "verify --graph @four_cycle_loop --depth 8 --seed 5", 0,
        "verify: dim 171, max covariance deviation 3.140e-16, 7 norm checks -- OK",
    ),
    # printed while the direct column still came from an SVD of the assembly
    "norms_three_blocks_k6": _run(
        "norms --graph @three_blocks --i 1 --j 2 --lambda-i 0.3,0.2j,-0.1 "
        "--lambda-j 0.25,-0.15j,0.1 --gamma 0.4,0.3j,-0.2 --k-max 6", 0,
        "norms: k up to 6, closed/direct gap 1.110e-16 -- OK",
    ),
    # 10^15 loops at vertex 1: refused before any vector is built
    "norms_oversized": _run(
        "norms --graph @norms_oversized --i 1 --j 2 --gamma 0.5", REFUSED,
        "error: size limit exceeded: the blocks at vertices 1 and 2 hold 1000000000000001 > 1048576 arrows",
    ),
}

#: the runs that print a report
REPORTS = sorted(name for name, run in RUNS.items() if run.code != REFUSED)


def assert_close(got, want, where="report"):
    """Equal structure, keys, integers, booleans and strings; floats within FLOAT_TOL."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, where


def check_report(name: str, text: str) -> None:
    """The report a run printed against its committed fixture."""
    want = (FIXTURES / "reports" / f"{name}.json").read_bytes().decode("utf-8")
    if RUNS[name].argv[0] in EXACT:
        assert text == want, "report differs from its fixture"
    else:
        assert_close(json.loads(text), json.loads(want))


def check_output(name: str, code: int, out: str, err: str) -> None:
    """Exit code, report and stderr line of one run of an entry."""
    run = RUNS[name]
    assert code == run.code, f"exit code {code}, expected {run.code}"
    if name in REPORTS:
        check_report(name, out)
    else:
        assert out == "", "a refused run printed a report"
    assert err == run.stderr + "\n", f"stderr {err!r}, expected {run.stderr!r}"


def python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with ``src`` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def main() -> int:
    for name, run in RUNS.items():
        proc = python("-m", "quiveralg", *run.argv)
        try:
            check_output(name, proc.returncode, proc.stdout, proc.stderr)
        except (AssertionError, ValueError) as exc:
            print(f"golden run {name} differs: {exc}", file=sys.stderr)
            return 1
    print(f"{len(RUNS)} golden runs match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
