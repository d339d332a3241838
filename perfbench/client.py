"""Measuring process of the benchmark: runs one prepared request pass in a closed loop.

    python3 perfbench/client.py WORKDIR SECONDS TRACE SPANS_CSV

``run.py`` generates the requests, writes their graph files and
``WORKDIR/requests.json``, and then starts this process, so that the peak
resident set measured here holds the CLI requests and this loop, not the
input generation.  One client sends one request after another (closed loop,
no threads): each is ``quiveralg.cli.main([... , "--output", file])`` called
in-process, and its report is read back and checked against the oracle in
``workloads.py``.  Each request's wall time is scaled to the reference speed
of ``speed.py`` by runs of its kind's calibration task before and after it.  The result goes to
``WORKDIR/result.json``.

With TRACE 0 the pass is sent over and over until SECONDS have passed.  With
TRACE 1 whole passes alternate, untraced then traced (``tracing.py``), until
SECONDS have passed; the span log of the traced passes goes to SPANS_CSV.

BLAS and OpenMP threads are pinned to 1 below, before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import tracing
import workloads

#: passing samples kept beyond the tail percentile
TAIL_BEYOND = 10
#: most times one request is sent in a round
REPEAT_CAP = 3
#: time the extra sends of a round may take, as a share of the pass's time
EXTRA_SHARE = 0.4


@dataclass
class Outcome:
    label: str
    kind: str
    seconds: float  # at the reference speed
    reason: object  # None when the request passed, else why it failed
    report_bytes: int = 0
    wall_s: float = 0.0


# -- one request ---------------------------------------------------------------


def _first_clause(stderr: str) -> str:
    for line in stderr.splitlines():
        if line.startswith(("error:", "internal check failed:")):
            return line.split(":", 2)[1].strip()
    return ""


def judge(req, code, stderr: str, report_text):
    """Why a finished request failed, or None when it passed."""
    if code != req.expect_code:
        return f"exit{code}:{_first_clause(stderr)}".rstrip(":")
    if report_text is None:
        return "report_missing"
    try:
        return workloads.check(req, json.loads(report_text))
    except (ValueError, KeyError, TypeError, AttributeError):
        return "report_malformed"


def run_request(req, argv, out: Path, clock: speed.Clock) -> Outcome:
    """Call the CLI once, time it, read the report back and judge it."""
    from quiveralg import cli

    out.unlink(missing_ok=True)
    err = io.StringIO()
    code, reason = None, None
    clock.start(workloads.CALIBRATION[req.kind])
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        except Exception as exc:
            reason = f"raised:{type(exc).__name__}"
        wall = time.perf_counter() - start
    seconds = clock.scale(wall)
    if reason is not None:
        return Outcome(req.label, req.kind, seconds, reason, wall_s=wall)
    text = out.read_text(encoding="utf-8") if out.exists() else None
    reason = judge(req, code, err.getvalue(), text)
    return Outcome(req.label, req.kind, seconds, reason, len(text.encode()) if text else 0, wall)


# -- a run -----------------------------------------------------------------------


def load(workdir: Path):
    """The prepared pass, [(request, argv)], and the report file it writes."""
    out = workdir / "report.json"
    docs = json.loads((workdir / "requests.json").read_text(encoding="utf-8"))
    return [(workloads.Request(**d), d["argv"] + ["--output", str(out)]) for d in docs], out


def run_pass(prepared, out: Path, clock: speed.Clock) -> list:
    return [run_request(req, argv, out, clock) for req, argv in prepared]


def round_order(costs) -> list:
    """Request indices of one round after the first.

    A request of cost c is sent min(REPEAT_CAP, q // c) times, once at least,
    so that cheap requests get more repeats for little time; q is the largest
    value at which the extra sends take at most EXTRA_SHARE of the pass's
    time.  Requests sent once come first, dearest first, so that a round cut
    short by the end of the run loses only repeats of cheap requests; the
    sends of the others follow, each request's spread evenly, in pass order.
    """
    n, budget = len(costs), EXTRA_SHARE * sum(costs)

    def sends(q):
        return [max(1, min(REPEAT_CAP, int(q / c))) if c > 0 else 1 for c in costs]

    q = 0.0
    for cand in sorted({c * k for c in costs for k in range(2, REPEAT_CAP + 1)}):
        if sum((m - 1) * c for m, c in zip(sends(cand), costs)) > budget:
            break
        q = cand
    counts = sends(q)
    once = sorted((i for i, m in enumerate(counts) if m == 1), key=lambda i: -costs[i])
    slots = [((j + (i + 0.5) / n) / m, i) for i, m in enumerate(counts) if m > 1 for j in range(m)]
    return once + [i for _, i in sorted(slots)]


def request_s(outcomes) -> float:
    """A request's time: the median over its repeats, at the reference speed."""
    return statistics.median(o.seconds for o in outcomes)


def closed_loop(prepared, out: Path, seconds: float, clock: speed.Clock) -> list:
    """Send the pass once, then rounds in ``round_order`` (costs taken from
    the repeats so far), until ``seconds`` have passed; return each request's
    outcomes."""
    start = time.perf_counter()
    runs = [[o] for o in run_pass(prepared, out, clock)]
    while time.perf_counter() - start < seconds:
        for i in round_order([request_s(r) for r in runs]):
            if time.perf_counter() - start >= seconds:
                break
            req, argv = prepared[i]
            runs[i].append(run_request(req, argv, out, clock))
    return runs


def traced_passes(prepared, out: Path, seconds: float, clock: speed.Clock):
    """Alternate whole untraced and traced passes, one of each at least and
    more while another pair fits in ``seconds``; return both sides' outcomes
    per request and one tracer per traced pass."""
    plain, traced, tracers = [[] for _ in prepared], [[] for _ in prepared], []
    start = time.perf_counter()
    while not tracers or (time.perf_counter() - start) * (1 + 1 / len(tracers)) <= seconds:
        for runs, o in zip(plain, run_pass(prepared, out, clock)):
            runs.append(o)
        tracer = tracing.Tracer()
        with tracer.installed():
            outcomes = run_pass(prepared, out, clock)
        tracer.counts["cli.report_bytes"] = sum(o.report_bytes for o in outcomes)
        tracer.time_scale = sum(o.seconds for o in outcomes) / sum(o.wall_s for o in outcomes)
        for runs, o in zip(traced, outcomes):
            runs.append(o)
        tracers.append(tracer)
    return plain, traced, tracers


def summarize(runs) -> dict:
    """End-to-end figures from each request's outcomes (all but setup_s and
    peak_rss_mb).

    A request's time is the median over its repeats of its time at the
    reference speed (``speed.py``).  Latencies are percentiles over the
    requests of the pass, which the seed does not change in number or mix;
    the tail is the highest percentile with TAIL_BEYOND passing requests beyond it.  Goodput
    is the passing requests of a pass over the sum of all its requests'
    times, failed ones included.  fail_frac and ok_frac count the requests of
    the pass, a request failing if any of its repeats failed, so that they do
    not depend on how many repeats a run had time for.
    """
    each = [request_s(r) for r in runs]
    ok = [all(o.reason is None for o in r) for r in runs]
    timed = sorted(b for b, k in zip(each, ok) if k) or sorted(each)
    n = len(timed)
    beyond = min(TAIL_BEYOND, n - 1)
    outcomes = [o for r in runs for o in r]
    failed = [o for o in outcomes if o.reason is not None]
    reasons, kinds, labels = {}, {}, {}
    for o in failed:
        reasons[o.reason] = reasons.get(o.reason, 0) + 1
    for r, b in zip(runs, each):
        kinds[r[0].kind] = kinds.get(r[0].kind, 0.0) + b
        labels.setdefault(r[0].label, []).append(b)
    return {
        "attempted": len(outcomes),
        "passed": len(outcomes) - len(failed),
        "failed": len(failed),
        "wrong_answers": sum(1 for o in failed if not _refusal(o.reason)),
        "requests": len(runs),
        "passing_requests": sum(ok),
        "repeats": [min(map(len, runs)), max(map(len, runs))],
        "pass_s": sum(each),
        "goodput_ops_s": sum(ok) / sum(each),
        "goodput_wall_ops_s": (len(outcomes) - len(failed)) / sum(o.wall_s for o in outcomes),
        "latency_p50_s": statistics.median(timed),
        "latency_tail_s": timed[n - 1 - beyond],
        "latency_tail_percentile": 100.0 * (n - beyond) / n,
        "latency_tail_beyond": beyond,
        "latency_n": n,
        "fail_frac": 1.0 - sum(ok) / len(runs),
        "ok_frac": sum(ok) / len(runs),
        "fail_reasons": reasons,
        "kind_share": {k: v / sum(each) for k, v in sorted(kinds.items())},
        "per_label": {k: {"n": len(v), "median_s": statistics.median(v), "sum_s": sum(v)}
                      for k, v in sorted(labels.items())},
    }


def _refusal(reason: str) -> bool:
    """Failures where the program gave no answer: it raised, refused the input
    (exit 1) or failed its own check (exit 2).  Exit 3 and exit 0 against the
    oracle's verdict are wrong answers."""
    return reason.startswith(("exit1", "exit2", "raised:"))


def measure(workdir: Path, seconds: float, traced: bool, spans_csv: Path) -> dict:
    prepared, out = load(workdir)
    clock = speed.Clock()
    kinds = {}
    for req, argv in prepared:  # warm-up: the first request of each kind
        kinds.setdefault(req.kind, (req, argv))
    for req, argv in kinds.values():
        run_request(req, argv, out, clock)
    result = {}
    if not traced:
        result["summary"] = summarize(closed_loop(prepared, out, seconds, clock))
    else:
        plain, traced_runs, tracers = traced_passes(prepared, out, seconds, clock)
        untraced, result["summary"] = summarize(plain), summarize(traced_runs)
        layers, result["counts_repeat"] = tracing.layer_metrics(tracers)
        layers["trace.requests"] = len(prepared)
        layers["trace.goodput_ops_s"] = result["summary"]["goodput_ops_s"]
        layers["trace.untraced_goodput_ops_s"] = untraced["goodput_ops_s"]
        layers["trace.overhead_frac"] = result["summary"]["pass_s"] / untraced["pass_s"] - 1.0
        tracing.write_spans(tracers, spans_csv)
        result.update(layers=layers, traced_passes=len(tracers),
                      spans=sum(len(t.spans) for t in tracers), missing_hooks=tracers[0].missing)
    result["calibration"] = clock.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv) -> int:
    workdir, seconds, traced, spans_csv = Path(argv[0]), float(argv[1]), argv[2] == "1", Path(argv[3])
    result = measure(workdir, seconds, traced, spans_csv)
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
