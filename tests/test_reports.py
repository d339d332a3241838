"""CLI reports on committed fixtures, and the demo scripts, end to end.

The expected reports in ``fixtures/reports`` were printed by the CLI on the
graphs in ``fixtures/graphs``.  They hold only integers and path names, so
they do not depend on the machine, and a change to the code must reproduce
them byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quiveralg.cli import EXIT_MISMATCH, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def graph(name: str) -> str:
    return str(FIXTURES / "graphs" / f"{name}.json")


#: report name -> (CLI arguments, exit code)
REPORTS = {
    "paths_reference": (["paths", "--graph", graph("reference")], EXIT_OK),
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
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_fixture(name, capsys):
    argv, code = REPORTS[name]
    assert main(argv) == code
    expected = (FIXTURES / "reports" / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


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
