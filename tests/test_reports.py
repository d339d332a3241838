"""The golden CLI runs of ``golden.RUNS``, and the demo scripts, end to end.

Each run is checked in-process through ``main`` (report, stderr line, and
``verify`` with the dense SVD disabled), and all of them once more from one
fresh interpreter; ``python tests/golden.py`` gives each run its own.
"""

import json

import numpy as np
import pytest

from golden import FIXTURES, REPORTS, ROOT, RUNS, check_report, python
from quiveralg import fock
from quiveralg.cli import main


def test_every_fixture_has_a_run():
    fixtures = sorted(p.stem for p in (FIXTURES / "reports").glob("*.json"))
    assert fixtures == REPORTS


@pytest.mark.parametrize("name", REPORTS)
def test_report_matches_fixture(name, capsys):
    run = RUNS[name]
    assert main(run.argv) == run.code
    check_report(name, capsys.readouterr().out)


@pytest.mark.parametrize("name", [n for n in REPORTS if RUNS[n].argv[0] == "verify"])
def test_verify_takes_no_svd(name, capsys, monkeypatch):
    """Every norm ``verify`` takes is a weighted-shift norm: with the dense
    SVD disabled its reports are unchanged."""

    def no_svd(*args, **kwargs):
        raise AssertionError("verify took a dense SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    test_report_matches_fixture(name, capsys)


@pytest.mark.parametrize("name", [n for n in REPORTS if RUNS[n].argv[0] == "paths"])
def test_paths_builds_no_tree(name, capsys, monkeypatch):
    """``paths`` renders its names from the level walk: with the path tree
    of ``FockSpace`` disabled its reports are unchanged."""

    def no_tree(*args, **kwargs):
        raise AssertionError("paths built the path tree")

    monkeypatch.setattr(fock.FockSpace, "__init__", no_tree, raising=True)
    test_report_matches_fixture(name, capsys)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_summary_line_matches_fixture(name, capsys):
    main(RUNS[name].argv)
    assert capsys.readouterr().err == RUNS[name].stderr + "\n"


def test_fresh_process_never_loads_scipy(tmp_path):
    """``import quiveralg``, every golden run (all five subcommands) and the
    norm of a dense matrix in one fresh interpreter leave scipy unloaded,
    since neither builds a CSR matrix, and the runs' exit codes, reports and
    stderr lines match the table."""
    names = sorted(RUNS)
    assert {RUNS[n].argv[0] for n in names} == {"verify", "norms", "recover", "iso", "paths"}
    script = (
        "import json, sys\n"
        "import quiveralg\n"
        "from quiveralg import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "assert quiveralg.operator_norm([[1.0, 1.0], [0.0, 1.0]]) > 1.0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )
    argvs = [RUNS[n].argv + ["--output", str(tmp_path / f"{n}.json")] for n in names]
    proc = python("-c", script, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [RUNS[n].code for n in names]
    assert result["scipy"] == []
    assert proc.stderr == "".join(RUNS[n].stderr + "\n" for n in names)
    for name in REPORTS:
        check_report(name, (tmp_path / f"{name}.json").read_bytes().decode("utf-8"))
    assert sorted(p.stem for p in tmp_path.iterdir()) == REPORTS


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(script):
    # -W error: a warning fails a demo as filterwarnings = error fails a test
    proc = python("-W", "error", str(ROOT / "demos" / script))
    assert proc.returncode == 0, proc.stderr
