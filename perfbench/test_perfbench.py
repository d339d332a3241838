"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import client  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    first = workloads.render(workloads.generate(name, 5))
    assert first == workloads.render(workloads.generate(name, 5))
    assert first != workloads.render(workloads.generate(name, 6))


def _prepared(tmp_path, name="query_mix"):
    run.write_inputs(workloads.generate(name, 3), tmp_path)
    return client.load(tmp_path)


def _one(kind, tmp_path, name="query_mix"):
    prepared, out = _prepared(tmp_path, name)
    return next((req, argv) for req, argv in prepared if req.kind == kind), out


def test_corrupted_report_is_counted_as_failure(tmp_path):
    (req, argv), out = _one("paths", tmp_path)
    good = client.run_request(req, argv, out, speed.Clock())
    assert good.reason is None
    report = json.loads(out.read_text())
    report["paths"] = report["paths"][:-1]  # drop one path, keep the count
    reason = client.judge(req, 0, "", json.dumps(report))
    assert reason == "paths_count"
    bad = client.Outcome(req.label, req.kind, good.seconds, reason)
    summary = client.summarize([[good], [bad]])
    assert (summary["failed"], summary["wrong_answers"], summary["fail_frac"]) == (1, 1, 0.5)
    assert client.judge(req, 0, "", "{not json") == "report_malformed"
    assert client.judge(req, 0, "", None) == "report_missing"


def test_iso_oracle_rejects_a_wrong_permutation(tmp_path):
    (req, argv), out = _one("iso", tmp_path)
    assert client.run_request(req, argv, out, speed.Clock()).reason is None
    report = json.loads(out.read_text())
    if req.expect["isomorphic"]:
        report["permutation"] = report["permutation"][::-1]
        assert client.judge(req, 0, "", json.dumps(report)) is not None
    report["isomorphic"] = not report["isomorphic"]
    assert client.judge(req, req.expect_code, "", json.dumps(report)) == "iso_existence"


def test_traced_run_restores_every_wrapped_name(tmp_path):
    tracer = tracing.Tracer()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in tracer._hooks()]
    assert all(original is not None for _, _, original in before)
    (req, argv), out = _one("recover", tmp_path, name="recover_sweep")
    with tracer.installed():
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        assert client.run_request(req, argv, out, speed.Clock()).reason is None
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    layers = tracer.metrics()
    assert layers["recovery.recover.self_s"] > 0 and layers["polynomials.mul.calls"] > 0
    assert layers["fock.space.dim"] == 0  # fock is idle on recovery requests
    assert set(layers) == set(tracing.LAYER_METRICS)


def test_layer_counts_do_not_depend_on_run_length(tmp_path):
    prepared, out = _prepared(tmp_path, "recover_sweep")
    small = [(req, argv) for req, argv in prepared if req.label in ("recover/n4", "recover/n5")]
    tracers, clock = [], speed.Clock()
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            client.run_pass(small, out, clock)
        tracers.append(tracer)
    one, _ = tracing.layer_metrics(tracers[:1])
    two, repeat = tracing.layer_metrics(tracers)
    assert repeat
    counts = [m for m, (unit, _) in tracing.LAYER_METRICS.items() if unit != "s"]
    assert {m: one[m] for m in counts} == {m: two[m] for m in counts}
    assert two["reps.rho_eval.calls"] > 0 and two["quiver.iso.perms_tried"] > 0
    assert all(two[m] <= one[m] for m, (unit, _) in tracing.LAYER_METRICS.items() if unit == "s")


def test_latency_is_taken_over_each_requests_median_repeat():
    runs = [[client.Outcome("x", "k", float(t), None, wall_s=1.0) for t in (i + 1000, i, i - 0.5)]
            for i in range(1, 101)]
    summary = client.summarize(runs)
    assert (summary["latency_tail_s"], summary["latency_tail_percentile"]) == (90.0, 90.0)
    assert summary["latency_tail_beyond"] == 10
    assert summary["latency_p50_s"] == 50.5
    assert summary["goodput_ops_s"] == 100 / sum(range(1, 101))


def test_rounds_repeat_cheap_requests_within_the_time_budget():
    costs = [3.0, 0.1, 0.1, 1.0, 0.6]
    order = client.round_order(costs)
    sends = [order.count(i) for i in range(len(costs))]
    assert sends == [1, client.REPEAT_CAP, client.REPEAT_CAP, 1, client.REPEAT_CAP]
    assert sum((m - 1) * c for m, c in zip(sends, costs)) <= client.EXTRA_SHARE * sum(costs)
    assert order[:2] == [0, 3]  # requests sent once come first, dearest first
    assert order[2:] == [1, 2, 4] * client.REPEAT_CAP  # repeats spread out


def test_clock_scales_wall_time_by_the_calibrations_around_it(monkeypatch):
    times = iter([0.02, 0.03, 0.01, 0.5, 0.7])
    tasks = {"a": (lambda: next(times), 0.01), "b": (lambda: next(times), 0.1)}
    monkeypatch.setattr(speed, "TASKS", tasks)
    clock = speed.Clock()
    clock.start("a")
    assert clock.scale(1.0) == pytest.approx(2 * 0.01 / 0.05)
    clock.start("a")  # the run after the last call brackets this one too
    assert clock.scale(1.0) == pytest.approx(2 * 0.01 / 0.04)
    clock.start("b")
    assert clock.scale(3.0) == pytest.approx(3 * 2 * 0.1 / 1.2)
    assert set(clock.summary()) == {"a", "b"}


def test_every_request_kind_has_a_calibration_task():
    kinds = {r.kind for name in workloads.WORKLOADS for r in workloads.generate(name, 1)}
    assert kinds == set(workloads.CALIBRATION)
    assert set(workloads.CALIBRATION.values()) <= set(speed.TASKS)
    assert run.SETUP_CALIBRATION in speed.TASKS


def test_every_request_expects_an_answer():
    """Exit 0 everywhere, but for iso misses, where exit 3 is the answer."""
    for name in workloads.WORKLOADS:
        reqs = workloads.generate(name, 2)
        assert all(r.expect_code in (0, 3) for r in reqs)
        assert all(r.expect_code == 0 for r in reqs if r.kind != "iso")


def test_path_count_matches_enumeration():
    from quiveralg import Quiver, enumerate_paths

    c = [[1, 1, 0], [1, 0, 2], [0, 1, 1]]
    assert workloads.path_count(c, 5) == len(enumerate_paths(Quiver(c), 5))


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.PER_LAYER.items()
    ]
