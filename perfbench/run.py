"""End-to-end benchmark for the quiveralg CLI.

Run from the root of a checkout (the directory holding ``src/quiveralg``):

    python3 perfbench/run.py --workload fock_verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

This process generates the workload's request pass from ``--seed``
(``workloads.py``), writes the graph files, times ``import quiveralg`` in
fresh interpreters (setup_s), and starts ``client.py``, which sends the
requests in a closed loop for ``--seconds`` and checks every report.  Every
time reported is scaled to the reference speed of ``speed.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` it carries the per-layer metrics of the traced passes and the
tracing overhead (``tracing.py``).  ``--workload all`` runs every workload
both ways and prints one table.

BLAS and OpenMP threads are pinned to 1 below, before numpy is imported; the
client inherits the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CLIENT = Path(__file__).resolve().parent / "client.py"

#: fresh interpreters timed for setup_s before the client runs, and after
SETUP_REPEATS = (5, 4)
#: the calibration task of ``speed.py`` that scales import times
SETUP_CALIBRATION = "dense"
#: a run, set-up included, ends within this many seconds
RUN_LIMIT_S = 175

END_TO_END = {
    "goodput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- a run -----------------------------------------------------------------------


def write_inputs(requests, workdir: Path) -> None:
    """Write every graph file and ``requests.json``, whose argv name the files."""
    docs = []
    for i, req in enumerate(requests):
        paths = {}
        for key, doc in req.files.items():
            p = workdir / f"{i}-{key}.json"
            p.write_text(json.dumps(doc), encoding="utf-8")
            paths[f"@{key}"] = str(p)
        docs.append({**asdict(req), "argv": [paths.get(a, a) for a in req.argv], "files": {}})
    (workdir / "requests.json").write_text(json.dumps(docs), encoding="utf-8")


def setup_times(repeats: int) -> list:
    """Times for fresh interpreters to finish ``import quiveralg``, at the
    reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    clock, times = speed.Clock(), []
    for _ in range(repeats):
        clock.start(SETUP_CALIBRATION)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quiveralg"], cwd=ROOT, env=env, check=True)
        times.append(clock.scale(time.perf_counter() - start))
    return times


def machine() -> dict:
    """Where and on what a result was measured."""
    import numpy
    import scipy

    import quiveralg

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "quiveralg").glob("*.py")),
        "public_names": len(quiveralg.__all__),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.perf_counter()
    requests = workloads.generate(name, seed)
    generate_s = time.perf_counter() - start
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    spans = STATE / f"spans-{name}-seed{seed}.csv"
    try:
        write_inputs(requests, workdir)
        setup = setup_times(SETUP_REPEATS[0])
        subprocess.run(
            [sys.executable, str(CLIENT), str(workdir), repr(seconds), str(int(traced)), str(spans)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
            timeout=max(RUN_LIMIT_S - (time.perf_counter() - start), 1),
        )
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        setup += setup_times(SETUP_REPEATS[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup_s=statistics.median(setup), generate_s=generate_s)
    if traced:
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


# -- output ----------------------------------------------------------------------


def print_run(name: str, seed: int, traced: bool, result: dict) -> dict:
    """Print the readable report and the detail line; return the final line's object."""
    s = result["summary"]
    print(f"workload {name}  seed {seed}  trace {int(traced)}  requests {s['requests']} per pass, "
          f"each sent {'-'.join(map(str, s['repeats']))} times  generate {result['generate_s']:.2f} s  "
          "calibration ms min/q1/median/q3 " + ", ".join(
              f"{task} " + "/".join(f"{c[k]:.1f}" for k in ("min_ms", "q1_ms", "median_ms", "q3_ms"))
              for task, c in result["calibration"].items()))
    shares = ", ".join(f"{k} {v:.0%}" for k, v in s["kind_share"].items())
    if not traced:
        rows = [
            ("goodput_ops_s", s["goodput_ops_s"], "1/s",
             f"{s['passing_requests']} passing / {s['pass_s']:.3f} s per pass ({shares})"),
            ("latency_p50_s", s["latency_p50_s"], "s", f"n={s['latency_n']}"),
            ("latency_tail_s", s["latency_tail_s"], "s",
             f"p{s['latency_tail_percentile']:.4g}, n={s['latency_n']}, {s['latency_tail_beyond']} beyond"),
            ("fail_frac", s["fail_frac"], "ratio",
             f"{s['requests'] - s['passing_requests']}/{s['requests']} requests; failed sends {s['fail_reasons']}"),
            ("ok_frac", s["ok_frac"], "ratio", f"{s['passing_requests']}/{s['requests']} requests"),
            ("setup_s", result["setup_s"], "s", f"median of {sum(SETUP_REPEATS)} fresh imports"),
            ("peak_rss_mb", result["peak_rss_mb"], "MB", "ru_maxrss of the client process"),
        ]
        for metric, value, unit, note in rows:
            print(f"  {metric:<16} {value:>12.6g} {unit:<6} {note}")
        metrics = {m: {"value": result[m] if m in result else s[m], "unit": u}
                   for m, u in END_TO_END.items()}
    else:
        for metric, value in result["layers"].items():
            print(f"  {metric:<36} {value:>14.6g} {tracing.PER_LAYER[metric][0]}")
        print(f"  {result['traced_passes']} traced passes; counts repeat exactly: {result['counts_repeat']}; "
              f"spans {result['spans']} written to {result['spans_file']}")
        if result["missing_hooks"]:
            print(f"  missing hooks: {', '.join(result['missing_hooks'])}")
        metrics = {m: {"value": v, "unit": tracing.PER_LAYER[m][0]}
                   for m, v in result["layers"].items()}
    detail = {"workload": name, "seed": seed, "trace": int(traced), "machine": machine(),
              **result}
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    return {
        "correct": s["wrong_answers"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a child process; one table."""
    details = {}
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(traced)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            line = next(x for x in proc.stdout.splitlines() if x.startswith("DETAIL "))
            details[name, traced] = json.loads(line[len("DETAIL "):])
    columns = [("goodput_ops_s", "1/s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
               ("fail_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
    print(f"\nend-to-end, untraced, seed {seed}, {seconds:g} s per run")
    print(f"  {'workload':<14}" + "".join(f"{f'{m} [{u}]':>22}" for m, u in columns) + "  tail / failures")
    for name in workloads.WORKLOADS:
        d = details[name, 0]
        row = {**d["summary"], "setup_s": d["setup_s"], "peak_rss_mb": d["peak_rss_mb"]}
        note = (f"p{row['latency_tail_percentile']:g} of n={row['latency_n']}; "
                f"{row['requests'] - row['passing_requests']}/{row['requests']} failed")
        print(f"  {name:<14}" + "".join(f"{row[m]:>22.6g}" for m, _ in columns) + f"  {note}")
    print("share of pass time by subcommand")
    for name in workloads.WORKLOADS:
        shares = details[name, 0]["summary"]["kind_share"]
        print(f"  {name:<14}  " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print("tracing overhead: traced / untraced pass time - 1 over the same requests")
    for name in workloads.WORKLOADS:
        layers = details[name, 1]["layers"]
        print(f"  {name:<14}{layers['trace.overhead_frac']:>22.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quiveralg" / "__init__.py").is_file():
        print(f"error: no quiveralg sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(print_run(args.workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
