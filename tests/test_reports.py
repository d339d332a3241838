"""CLI reports on committed fixtures, and the demo scripts, end to end.

The expected reports in ``fixtures/reports`` were printed by the CLI on the
graphs in ``fixtures/graphs``.  The ``paths``, ``iso`` and ``recover``
reports hold only integers and path names, so they do not depend on the
machine, and a change to the code must reproduce them byte for byte.  The
``verify`` and ``norms`` reports hold norms, which may move in the last bit
when the arithmetic is reordered (the ``norms`` fixture on a 3/3/3 block
graph was printed while its direct column still came from an SVD of the
explicit assembly): they must match in exit code, keys, integers, booleans
and strings, and in every float to within ``FLOAT_TOL``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

FLOAT_TOL = 1e-14


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


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
