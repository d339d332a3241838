"""CLI reports on committed fixtures, and the demo scripts, end to end.

The expected reports in ``fixtures/reports`` were printed by the CLI on the
graphs in ``fixtures/graphs``.  The ``paths``, ``iso`` and ``recover``
reports hold only integers and path names, so they do not depend on the
machine, and a change to the code must reproduce them byte for byte.  The
``verify`` and ``norms`` reports hold norms, which may move in the last bit
when the arithmetic is reordered (the ``norms`` fixture on a 3/3/3 block
graph was printed while its direct column still came from an SVD of the
explicit assembly): they must match in exit code, keys, integers, booleans
and strings, and in every float to within ``compare_report.FLOAT_TOL``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from compare_report import assert_close
from quiveralg.cli import EXIT_MISMATCH, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def graph(name: str) -> str:
    return str(FIXTURES / "graphs" / f"{name}.json")


#: report name -> (CLI arguments, exit code)
REPORTS = {
    "paths_reference": (["paths", "--graph", graph("reference")], EXIT_OK),
    "paths_four_cycle_loop_l6": (
        ["paths", "--graph", graph("four_cycle_loop"), "--max-len", "6"], EXIT_OK
    ),
    # two-digit vertex numbers
    "paths_recover12_l2": (["paths", "--graph", graph("recover12"), "--max-len", "2"], EXIT_OK),
    # acyclic: no path is longer than 10, so the last five levels are empty
    "paths_chain11_l15": (["paths", "--graph", graph("chain11"), "--max-len", "15"], EXIT_OK),
    "iso_relabelled": (["iso", graph("recover6"), graph("recover6_relabelled")], EXIT_OK),
    "iso_other": (["iso", graph("recover6"), graph("recover6_other")], EXIT_MISMATCH),
    "recover4_expect": (
        ["recover", "--graph", graph("recover4"), "--seed", "14",
         "--expect", graph("recover4_relabelled")],
        EXIT_OK,
    ),
    "recover6_expect": (
        ["recover", "--graph", graph("recover6"), "--seed", "16",
         "--expect", graph("recover6_relabelled")],
        EXIT_OK,
    ),
    "recover5_wide_expect": (
        ["recover", "--graph", graph("recover5_wide"), "--seed", "5",
         "--expect", graph("recover5_wide_relabelled")],
        EXIT_OK,
    ),
    # blocks of 1, 2 and 3 arrows alternating in (target, source) order
    "recover4_mixed_expect": (
        ["recover", "--graph", graph("recover4_mixed"), "--seed", "9",
         "--expect", graph("recover4_mixed_relabelled")],
        EXIT_OK,
    ),
    "recover12_expect": (
        ["recover", "--graph", graph("recover12"), "--seed", "12",
         "--expect", graph("recover12_relabelled")],
        EXIT_OK,
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_fixture(name, capsys):
    argv, code = REPORTS[name]
    assert main(argv) == code
    expected = (FIXTURES / "reports" / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


#: report name -> CLI arguments, for reports compared with a float
#: tolerance (each run exits EXIT_OK)
VERIFY_REPORTS = {
    "verify_two_loops_d10": ["verify", "--graph", graph("two_loops"), "--depth", "10", "--seed", "3"],
    "verify_four_cycle_loop_d8": [
        "verify", "--graph", graph("four_cycle_loop"), "--depth", "8", "--seed", "5"
    ],
    "norms_three_blocks_k6": [
        "norms", "--graph", graph("three_blocks"), "--i", "1", "--j", "2",
        "--lambda-i", "0.3,0.2j,-0.1", "--lambda-j", "0.25,-0.15j,0.1",
        "--gamma", "0.4,0.3j,-0.2", "--k-max", "6",
    ],
}

@pytest.mark.parametrize("name", sorted(VERIFY_REPORTS))
def test_verify_report_matches_fixture(name, capsys):
    assert main(VERIFY_REPORTS[name]) == EXIT_OK
    expected = json.loads((FIXTURES / "reports" / f"{name}.json").read_text(encoding="utf-8"))
    assert_close(json.loads(capsys.readouterr().out), expected)


@pytest.mark.parametrize("name", sorted(n for n in VERIFY_REPORTS if n.startswith("verify")))
def test_verify_takes_no_svd(name, capsys, monkeypatch):
    """Every norm ``verify`` takes is a weighted-shift norm: with the dense
    SVD disabled its reports are unchanged."""

    def no_svd(*args, **kwargs):
        raise AssertionError("verify took a dense SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    test_verify_report_matches_fixture(name, capsys)


#: report name -> the summary line ``main`` prints on stderr, as printed
#: when the fixtures were recorded
SUMMARIES = {
    "iso_other": "iso: permutation None -- MISMATCH",
    "iso_relabelled": "iso: permutation [6, 5, 4, 3, 2, 1] -- OK",
    "norms_three_blocks_k6": "norms: k up to 6, closed/direct gap 1.110e-16 -- OK",
    "paths_chain11_l15": "paths: 96 paths -- OK",
    "paths_four_cycle_loop_l6": "paths: 85 paths -- OK",
    "paths_recover12_l2": "paths: 2481 paths -- OK",
    "paths_reference": "paths: 30 paths -- OK",
    "recover12_expect": "recover: recovered 12 vertices, witness [8, 2, 10, 9, 1, 6, 5, 7, 12, 4, 3, 11] -- OK",
    "recover4_expect": "recover: recovered 4 vertices, witness [1, 4, 3, 2] -- OK",
    "recover4_mixed_expect": "recover: recovered 4 vertices, witness [2, 4, 3, 1] -- OK",
    "recover5_wide_expect": "recover: recovered 5 vertices, witness [5, 3, 4, 2, 1] -- OK",
    "recover6_expect": "recover: recovered 6 vertices, witness [1, 3, 6, 2, 4, 5] -- OK",
    "verify_four_cycle_loop_d8": "verify: dim 171, max covariance deviation 3.140e-16, 7 norm checks -- OK",
    "verify_two_loops_d10": "verify: dim 2047, max covariance deviation 2.220e-16, 4 norm checks -- OK",
}


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_summary_line_matches_fixture(name, capsys):
    assert set(SUMMARIES) == set(REPORTS) | set(VERIFY_REPORTS)
    argv = REPORTS[name][0] if name in REPORTS else VERIFY_REPORTS[name]
    main(argv)
    assert capsys.readouterr().err == SUMMARIES[name] + "\n"


def test_fresh_process_never_loads_scipy(tmp_path):
    """``import quiveralg`` and one CLI run of every fixture (all five
    subcommands) leave scipy unloaded: scipy is imported only where a CSR
    matrix is built, and the CLI builds none.  Only a fresh interpreter can
    show this, since the test helpers import scipy."""
    runs = list(REPORTS.values())
    runs += [(argv, EXIT_OK) for argv in VERIFY_REPORTS.values()]
    assert {argv[0] for argv, _ in runs} == {"verify", "norms", "recover", "iso", "paths"}
    out = str(tmp_path / "report.json")
    script = (
        "import json, sys\n"
        "import quiveralg\n"
        "from quiveralg import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps([argv + ["--output", out] for argv, _ in runs])],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in runs]
    assert result["scipy"] == []


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(script):
    # -W error: a warning fails a demo as filterwarnings = error fails a test
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / script)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
