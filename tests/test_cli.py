import json
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from quiveralg import GRAPH_SCHEMA_VERSION, FockSpace, Quiver, format_path, parse_quiver_dict, parse_quiver_file, quiver_to_dict, write_quiver_file
from quiveralg.quiver import Path as QuiverPath
from quiveralg import cli, quiver, recovery
from quiveralg.cli import NORMS_K_MAX, build_parser, main
from golden import RUNS, graph, python
from helpers import random_quiver, reference_enumerate_paths


def run(argv):
    """(exit code, report, summary detail) of one subcommand, without
    ``main``: the report is read back from the bytes ``main`` writes, since
    ``paths`` hands its report to the writer already rendered."""
    args = cli._cached_parser().parse_args(argv)
    code, report, detail = args.run(args)
    return code, json.loads(b"".join(cli._report_chunks(report))), detail


def graph_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def quiver_file(tmp_path, name, c):
    """A graph file of the quiver with multiplicity matrix c."""
    write_quiver_file(Quiver(c), tmp_path / name)
    return str(tmp_path / name)


@pytest.fixture
def two_loop():
    return graph("two_loops")


@pytest.fixture
def reference():
    return graph("reference")


@pytest.fixture
def dense3(tmp_path):
    # 195,023 paths of length <= 12
    return quiver_file(tmp_path, "dense3.json", [[1, 1, 1], [1, 1, 0], [1, 0, 1]])


class TestGraphFileParsing:
    def test_minimal_one_vertex(self, tmp_path):
        q = parse_quiver_file(graph_file(tmp_path, "g.json", {"n": 1}))
        assert q.c.tolist() == [[0]]

    def test_single_loop_pair(self, tmp_path):
        q = parse_quiver_file(
            graph_file(
                tmp_path, "g.json", {"n": 1, "edges": [{"from": 1, "to": 1, "count": 2}]}
            )
        )
        assert q.c.tolist() == [[2]]

    def test_duplicate_record_rejected(self):
        doc = {
            "n": 1,
            "edges": [
                {"from": 1, "to": 1, "count": 1},
                {"from": 1, "to": 1, "count": 2},
            ],
        }
        with pytest.raises(ValueError, match="duplicate"):
            parse_quiver_dict(doc)

    def test_infinite_count_rejected(self):
        doc = {"n": 1, "edges": [{"from": 1, "to": 1, "count": "inf"}]}
        with pytest.raises(ValueError, match="infinite multiplicities"):
            parse_quiver_dict(doc)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            parse_quiver_dict({"n": 0})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            parse_quiver_dict({"n": 1, "extra": True})

    def test_bad_vertex_index_rejected(self):
        doc = {"n": 2, "edges": [{"from": 3, "to": 1, "count": 1}]}
        with pytest.raises(ValueError, match="1..2"):
            parse_quiver_dict(doc)

    def test_malformed_record_rejected(self):
        doc = {"n": 1, "edges": [{"from": 1, "to": 1}]}
        with pytest.raises(ValueError, match="from/to/count"):
            parse_quiver_dict(doc)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([], "top level must be an object"),
            ({"n": 1, "edges": {}}, "'edges' must be a list"),
            ({"n": 1, "edges": [{"from": 1, "to": 1, "count": -1}]}, "'count' must be a nonnegative integer"),
            ({"n": 1, "edges": [{"from": 1, "to": 1, "count": 1.5}]}, "'count' must be a nonnegative integer"),
            ({"n": 1, "edges": [{"from": 1, "to": 1, "count": "2"}]}, "'count' must be a nonnegative integer"),
        ],
    )
    def test_malformed_document_rejected(self, doc, match):
        with pytest.raises(ValueError, match=f"^malformed graph file: .*{match}"):
            parse_quiver_dict(doc)

    def test_round_trip(self, tmp_path):
        q = Quiver([[1, 2], [0, 3]])
        path = tmp_path / "out.json"
        write_quiver_file(q, path)
        assert parse_quiver_file(path) == q
        assert parse_quiver_dict(quiver_to_dict(q)) == q

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            parse_quiver_file(path)

    def test_oversized_n_refused_before_the_matrix(self, monkeypatch):
        # 1025 x 1025 > PATH_LIMIT entries: refused before c is built, so
        # the Quiver constructor is never reached
        def refuse(self, c):
            raise AssertionError("Quiver built for an oversized graph")

        monkeypatch.setattr(Quiver, "__init__", refuse)
        with pytest.raises(ValueError, match="size limit exceeded"):
            parse_quiver_dict({"n": 1025})

    def test_largest_n_accepted(self):
        assert parse_quiver_dict({"n": 1024}).n == 1024

    @pytest.mark.parametrize(
        "counts, match",
        [([2**63], "count 9223372036854775808 > 9223372036854775807"), ([2**62, 2**62], "arrows in all")],
    )
    def test_counts_past_int64_refused(self, counts, match):
        edges = [{"from": 1, "to": k + 1, "count": d} for k, d in enumerate(counts)]
        with pytest.raises(ValueError, match=f"^size limit exceeded: .*{match}"):
            parse_quiver_dict({"n": 2, "edges": edges})
        edges[0]["count"] -= 1
        assert parse_quiver_dict({"n": 2, "edges": edges}).total_arrows() == sum(counts) - 1

    def test_cycle_1024_parse_views_and_permutation_within_budget(self):
        """Parsing the 1024-vertex cycle, every arrow-layout view and one
        relabelling take under 20 ms together, best of three: the records
        are written into one int64 array, which is checked as a whole, and
        the layout is read off its nonzero entries."""
        n = 1024
        doc = {"n": n, "edges": [{"from": v + 1, "to": (v + 1) % n + 1, "count": 1} for v in range(n)]}
        tau = np.random.default_rng(0).permutation(n).tolist()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            q = parse_quiver_dict(doc)
            q._nonempty_blocks, q.arrow_ends(), q._by_source, q.total_arrows(), q.block_start(1, 0)
            r = quiver.apply_permutation(q, tau)
            times.append(time.perf_counter() - t0)
        assert r.total_arrows() == n and r.c[tau.index(1), tau.index(0)] == 1
        assert min(times) < 0.02

    def test_oversized_n_exits_1(self, tmp_path, capsys):
        g = graph_file(tmp_path, "big.json", {"n": 1025})
        assert main(["paths", "--graph", g, "--max-len", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "size limit exceeded" in captured.err


class TestVerify:
    def test_passes_on_two_loops(self, two_loop):
        code, report, _ = run(["verify", "--graph", two_loop, "--depth", "3"])
        assert code == 0
        assert report["depth"] == 3
        assert report["dim"] == 1 + 2 + 4 + 8
        assert report["max_covariance_deviation"] <= 1e-12
        assert report["corner_isometry_ok"] is True
        assert all(c["deviation"] <= 1e-9 for c in report["norm_checks"])

    def test_reference_graph(self, reference):
        code, report, _ = run(["verify", "--graph", reference, "--depth", "4"])
        assert code == 0

    def test_impossible_tolerance_fails_numerically(self, two_loop, monkeypatch):
        # tolerance 0: the smallest positive covariance deviation fails the run
        monkeypatch.setattr(cli, "_covariance_deviations", lambda *args: np.full(3, 5e-324))
        monkeypatch.setattr(cli, "VERIFY_TOL", 0.0)
        code, report, _ = run(["verify", "--graph", two_loop, "--depth", "3"])
        assert report["max_covariance_deviation"] == 5e-324
        assert code == 2

    def test_depth_zero_rejected(self, two_loop):
        with pytest.raises(ValueError, match="depth"):
            run(["verify", "--graph", two_loop, "--depth", "0"])

    def test_two_loops_depth_10_within_budget(self, two_loop, tmp_path):
        # dim 2047; every norm here is a weighted-shift norm, so no SVD runs
        out = tmp_path / "verify.json"
        t0 = time.perf_counter()
        code = main(["verify", "--graph", two_loop, "--depth", "10", "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert json.loads(out.read_text())["dim"] == 2047
        assert elapsed < 0.5

    def test_dense3_depth_12_within_budget(self, dense3, tmp_path):
        out = tmp_path / "verify.json"
        t0 = time.perf_counter()
        code = main(["verify", "--graph", dense3, "--depth", "12", "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert json.loads(out.read_text())["dim"] == 195023
        assert elapsed < 1.0

    def test_basis_entries_named_by_arrow(self, reference):
        # one entry per arrow, named by the token paths prints for it, then
        # the random elements with their wire vectors
        _, report, _ = run(["verify", "--graph", reference, "--depth", "3"])
        _, listing, _ = run(["paths", "--graph", reference, "--max-len", "1"])
        q = parse_quiver_file(reference)
        checks = report["norm_checks"]
        basis, random = checks[: q.total_arrows()], checks[q.total_arrows():]
        assert [c["arrow"] for c in basis] == listing["paths"][q.n:]
        assert all(c["kind"] == "basis_arrow" and "element" not in c for c in basis)
        assert all(c["element_norm"] == c["operator_norm"] == 1.0 for c in basis)
        assert [c["kind"] for c in random] == ["random"] * cli.VERIFY_RANDOM_NORM_CHECKS
        assert all("element" in c and "arrow" not in c for c in random)

    def test_complete_30_depth_1_within_budget(self, tmp_path):
        # 900 arrows: every basis element is named by its arrow, so the
        # report grows with the arrows, not with arrows x blocks
        g = quiver_file(tmp_path, "complete30.json", [[1] * 30] * 30)
        out = tmp_path / "verify.json"
        t0 = time.perf_counter()
        code = main(["verify", "--graph", g, "--depth", "1", "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert len(json.loads(out.read_text())["norm_checks"]) == 902
        assert out.stat().st_size < 2**20
        assert elapsed < 1.0

    def test_complete_30_depth_1_peak_rss(self, tmp_path):
        g = quiver_file(tmp_path, "complete30.json", [[1] * 30] * 30)
        code = (
            "import resource, sys\n"
            "from quiveralg.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        # Linux counts the resident set of the process that starts a child in
        # the child's ru_maxrss, so the run is started by a small relay
        # interpreter, not by this one
        relay = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        argv = ["verify", "--graph", g, "--depth", "1", "--output", str(tmp_path / "v.json")]
        proc = python("-c", relay, sys.executable, "-c", code, *argv)
        assert proc.returncode == 0, proc.stderr
        exit_code, max_rss_kib = map(int, proc.stdout.split())
        assert exit_code == 0
        assert max_rss_kib < 100 * 1024

    def test_cycle_1024_depth_4_within_budget(self, tmp_path):
        # 1024 one-arrow blocks among 2^20 entries: the path count, the draws
        # and the arrows walk the nonempty blocks only
        n = 1024
        c = [[0] * n for _ in range(n)]
        for v in range(n):
            c[(v + 1) % n][v] = 1
        g = quiver_file(tmp_path, "cycle.json", c)
        out = tmp_path / "verify.json"
        t0 = time.perf_counter()
        code = main(["verify", "--graph", g, "--depth", "4", "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert json.loads(out.read_text())["dim"] == 5 * n
        assert elapsed < 2.0

    def test_depth_past_path_limit_exits_1(self, two_loop, capsys):
        t0 = time.perf_counter()
        assert main(["verify", "--graph", two_loop, "--depth", "20"]) == 1
        assert time.perf_counter() - t0 < 0.5
        assert "size limit" in capsys.readouterr().err

    def test_depth_past_token_budget_exits_1_at_once(self, tmp_path, capsys):
        # one loop: 100,001 paths pass the path limit, but they hold 5 * 10^9
        # arrows, and the Fock space is refused before its levels are built
        g = quiver_file(tmp_path, "loop.json", [[1]])
        t0 = time.perf_counter()
        assert main(["verify", "--graph", g, "--depth", "100000"]) == 1
        assert time.perf_counter() - t0 < 0.1
        err = capsys.readouterr().err
        assert "size limit exceeded" in err and "arrow tokens" in err


class TestNorms:
    def test_table_shape_and_agreement(self, reference):
        code, report, _ = run(
            ["norms", "--graph", reference, "--i", "1", "--j", "2", "--lambda-i", "0.5",
             "--gamma", "0.4,0.3", "--k-max", "4"]
        )
        assert code == 0
        assert [row["k"] for row in report["rows"]] == [1, 2, 3, 4]
        for row in report["rows"]:
            assert abs(row["closed"] - row["direct"]) <= 1e-10
            assert row["direct"] ** 2 <= row["bound"] + 1e-12

    def test_k6_three_blocks_within_budget(self, tmp_path):
        # [[3, 3], [0, 3]]: the explicit assembly at k = 6 has 2 x 5,832
        # entries, the Gram recursion only 2 x 2 blocks per vertex
        out = tmp_path / "norms.json"
        t0 = time.perf_counter()
        code = main(RUNS["norms_three_blocks_k6"].argv + ["--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert [row["k"] for row in json.loads(out.read_text())["rows"]] == list(range(1, 7))
        assert elapsed < 0.05
        # the same run to k = 100 is one recursion of 99 steps, not one per
        # row (4,950 steps in all); the later --k-max overrides the run's
        argv = RUNS["norms_three_blocks_k6"].argv + ["--k-max", "100", "--output", str(out)]
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            assert main(argv) == 0
            times.append(time.perf_counter() - t0)
        assert [row["k"] for row in json.loads(out.read_text())["rows"]] == list(range(1, 101))
        assert min(times) < 0.025

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--gamma", "1e200", "not contractive: ||gamma||^2 = inf exceeds 1 - ||lam_i||^2 = 1.0"),
            ("--lambda-i", "1e308j,0", "lam_i must lie in the open unit ball, got norm 1e+308"),
        ],
    )
    def test_huge_parameters_refused_without_overflow(self, tmp_path, capsys, option, value, message):
        # each norm is taken after dividing by the largest part, so none
        # overflows; the suite turns every warning into an error
        g = quiver_file(tmp_path, "g.json", [[2, 1], [0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norms", "--graph", g, "--i", "1", "--j", "2", option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_oversized_blocks_refused_before_any_vector(self, tmp_path, capsys):
        # 10^15 loops at vertex 1: an omitted lambda-i would be a 14 PiB zero
        # vector, so the block sizes are bounded first
        g = Path(graph("norms_oversized"))
        argv = ["norms", "--i", "1", "--j", "2", "--gamma", "0.5"]
        assert main([*argv, "--graph", str(g)]) == 1
        err = capsys.readouterr().err
        assert "size limit exceeded" in err and "Traceback" not in err
        # norms reads only the blocks (1, 1), (2, 2) and (1, 2): the same
        # loops at a third vertex are never read
        doc = json.loads(g.read_text())
        doc["n"] = 3
        doc["edges"][0].update({"from": 3, "to": 3})
        assert main([*argv, "--graph", graph_file(tmp_path, "third.json", doc)]) == 0

    def test_unrelated_loops_leave_report_and_time_unchanged(self, tmp_path):
        # the representation at (1, 2) is zero on the 10^5 loops at vertex 3,
        # so the report is byte for byte the one without them, and the Gram
        # recursion does not read them
        doc = json.loads(Path(graph("three_blocks")).read_text())
        doc["n"] = 3
        doc["edges"].append({"from": 3, "to": 3, "count": 10**5})
        loops = graph_file(tmp_path, "loops.json", doc)

        def report(g):
            out = tmp_path / "norms.json"
            # the second --graph overrides the golden run's
            assert main(RUNS["norms_three_blocks_k6"].argv + ["--graph", g, "--output", str(out)]) == 0
            return out.read_bytes()

        plain = report(graph("three_blocks"))
        t0 = time.perf_counter()
        with_loops = report(loops)
        elapsed = time.perf_counter() - t0
        assert with_loops == plain
        assert elapsed < 1.0

    def test_k_max_out_of_range_rejected(self, reference):
        for k_max in (0, -3, NORMS_K_MAX + 1):
            with pytest.raises(ValueError, match="k-max must be in 1"):
                run(["norms", "--graph", reference, "--i", "1", "--j", "2", "--k-max", str(k_max)])

    def test_k_max_past_six_accepted(self, reference):
        # the direct route is a Gram recursion, so k-max has no cap at 6
        code, report, _ = run(
            ["norms", "--graph", reference, "--i", "1", "--j", "2", "--k-max", str(NORMS_K_MAX)]
        )
        assert code == 0
        assert [row["k"] for row in report["rows"]] == list(range(1, NORMS_K_MAX + 1))

    def test_bad_vector_rejected(self, reference):
        with pytest.raises(ValueError, match="entries"):
            run(["norms", "--graph", reference, "--i", "1", "--j", "2", "--lambda-i", "0.5,0.5"])
        with pytest.raises(ValueError, match="^cannot parse gamma: "):
            run(["norms", "--graph", reference, "--i", "1", "--j", "2", "--gamma", "0.5,abc"])

    @pytest.mark.parametrize("i, j", [("0", "2"), ("3", "1"), ("1", "-1")])
    def test_vertex_out_of_range_rejected(self, reference, i, j):
        with pytest.raises(ValueError, match=r"^vertices must be in 1\.\.2$"):
            run(["norms", "--graph", reference, "--i", i, "--j", j])

    def test_omitted_and_empty_vectors_are_zero(self, tmp_path):
        # an omitted or empty flag reaches TwoDimRep as None, its zero vector
        flags = ["--lambda-i", "--lambda-j", "--gamma"]

        def report(values):
            out = tmp_path / "norms.json"
            argv = ["norms", "--graph", graph("three_blocks"), "--i", "1", "--j", "2", "--output", str(out)]
            for flag, value in zip(flags, values):
                argv += [] if value is None else [flag, value]
            assert main(argv) == 0
            return out.read_bytes()

        zeros = report(["0,0,0"] * 3)
        assert report([None] * 3) == report([""] * 3) == report([" ", None, ""]) == zeros

    def test_non_finite_parameter_exits_1(self, reference, capsys):
        # NaN fails every comparison, so it would pass the ball and
        # contractivity checks and print NaN norms under an OK status
        for flag, value in [("--gamma", "nan,0"), ("--gamma", "0,inf"), ("--lambda-i", "nan")]:
            assert main(["norms", "--graph", reference, "--i", "1", "--j", "2", flag, value]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "must be finite" in captured.err


class TestRecoverCommand:
    def test_self_expectation_met(self, reference):
        code, report, _ = run(["recover", "--graph", reference, "--seed", "5", "--expect", reference])
        assert code == 0
        assert report["expect_met"] is True
        assert report["witness"] is not None
        assert report["n_recovered"] == 2
        # each count is stated once, in c_recovered: no per-pair list
        assert set(report) == {"n_recovered", "c_recovered", "witness", "seed", "expect_met"}

    def test_nine_cycle_expectation_met(self, tmp_path):
        # past the old 8-vertex isomorphism cap
        g = graph_file(
            tmp_path, "c9.json", {"n": 9, "edges": [{"from": v, "to": v % 9 + 1, "count": 1} for v in range(1, 10)]}
        )
        out = tmp_path / "recover.json"
        assert main(["recover", "--graph", g, "--expect", g, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n_recovered"] == 9 and report["expect_met"] is True

    def test_late_witness_within_budget(self, tmp_path):
        # a graph without automorphisms whose scramble at seed 3 puts the
        # witness in the last eighth of the lexicographic order (it starts
        # with vertex 8); recover reads it off the labels, and a sweep over
        # permutations for --expect would try 7/8 of 8! first
        edges = [{"from": v, "to": v % 8 + 1, "count": 1} for v in range(1, 9)]
        edges += [{"from": 1, "to": 1, "count": 1}, {"from": 1, "to": 4, "count": 2},
                  {"from": 3, "to": 6, "count": 1}]
        g = graph_file(tmp_path, "g8.json", {"n": 8, "edges": edges})
        out = tmp_path / "recover.json"
        t0 = time.perf_counter()
        code = main(["recover", "--graph", g, "--expect", g, "--seed", "3", "--output", str(out)])
        elapsed = time.perf_counter() - t0
        report = json.loads(out.read_text())
        assert code == 0 and report["expect_met"] is True
        assert report["witness"][0] == 8
        assert elapsed < 0.5

    def test_wrong_expectation_exits_3(self, reference, tmp_path):
        other = quiver_file(tmp_path, "other.json", [[3]])
        code, report, _ = run(["recover", "--graph", reference, "--seed", "5", "--expect", other])
        assert code == 3
        assert report["expect_met"] is False

    def test_oversized_graph_recovers_and_its_expect_is_refused_before_scramble(
        self, tmp_path, monkeypatch, capsys
    ):
        # a random 0/1 graph on 70 > ISO_VERTEX_LIMIT vertices: recover reads
        # its witness off the labels, but --expect against a 70-vertex
        # reference needs the isomorphism search, which is refused before
        # the scramble, whose cost is most of a second
        rng = np.random.default_rng(70)
        edges = [
            {"from": s, "to": t, "count": 1}
            for t in range(1, 71)
            for s in range(1, 71)
            if rng.random() < 0.5
        ]
        g = graph_file(tmp_path, "g70.json", {"n": 70, "edges": edges})
        out = tmp_path / "recover.json"
        assert main(["recover", "--graph", g, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["n_recovered"] == 70
        capsys.readouterr()

        def no_scramble(*args, **kwargs):
            raise AssertionError("scramble ran")

        monkeypatch.setattr(cli, "scramble", no_scramble)
        t0 = time.perf_counter()
        assert main(["recover", "--graph", g, "--expect", g]) == 1
        assert time.perf_counter() - t0 < 0.2
        assert "size limit exceeded" in capsys.readouterr().err

    def test_unreadable_expect_refused_before_scramble(self, reference, tmp_path, monkeypatch, capsys):
        def no_scramble(*args, **kwargs):
            raise AssertionError("scramble ran")

        monkeypatch.setattr(cli, "scramble", no_scramble)
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{")
        for expect in (str(tmp_path / "missing.json"), str(malformed)):
            assert main(["recover", "--graph", reference, "--expect", expect]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")

    def test_oversized_blocks_refused_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # one vertex with 513 loops: a 513 x 513 unitary, 263,169 entries
        g = quiver_file(tmp_path, "loops.json", [[513]])

        def no_draw(*args, **kwargs):
            raise AssertionError("a unitary was drawn")

        monkeypatch.setattr(recovery, "_haar_unitaries", no_draw)
        t0 = time.perf_counter()
        assert main(["recover", "--graph", g]) == 1
        assert time.perf_counter() - t0 < 0.1
        assert "size limit exceeded" in capsys.readouterr().err


class TestIso:
    def test_non_isomorphic_exits_3(self, two_loop, tmp_path):
        three = quiver_file(tmp_path, "g3.json", [[3]])
        code, report, _ = run(["iso", two_loop, three])
        assert code == 3
        assert report["isomorphic"] is False

    def test_eight_vertex_miss_within_budget(self, tmp_path):
        # an 8-cycle against two 4-cycles: equal arrow counts and equal vertex
        # signatures, so only the search can tell them apart
        cycle = [{"from": v, "to": v % 8 + 1, "count": 1} for v in range(1, 9)]
        halves = [{"from": v, "to": (v - 1) // 4 * 4 + v % 4 + 1, "count": 1} for v in range(1, 9)]
        g1 = graph_file(tmp_path, "c8.json", {"n": 8, "edges": cycle})
        g2 = graph_file(tmp_path, "c4c4.json", {"n": 8, "edges": halves})
        out = tmp_path / "iso.json"
        t0 = time.perf_counter()
        code = main(["iso", g1, g2, "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 3
        assert json.loads(out.read_text()) == {"isomorphic": False, "permutation": None}
        assert elapsed < 0.1

    def test_swapped_copy_found(self, reference, tmp_path):
        # reference is [[1, 2], [0, 1]]
        code, report, _ = run(["iso", reference, quiver_file(tmp_path, "b.json", [[1, 0], [2, 1]])])
        assert code == 0
        assert report["permutation"] == [2, 1]


class TestPaths:
    def test_two_loop_enumeration(self, two_loop):
        code, report, _ = run(["paths", "--graph", two_loop, "--max-len", "2"])
        assert code == 0
        assert report["count"] == 7
        assert report["paths"][0] == "v1"
        assert "1<1:1*1<1:2" in report["paths"]

    @pytest.mark.parametrize("seed", range(10))
    def test_names_are_format_path_of_reference(self, seed, tmp_path):
        rng = np.random.default_rng(800 + seed)
        # acyclic graphs on at most 5 vertices have no path of length 5, so
        # their levels run out before max_len does; graphs of 10 to 12
        # vertices write two-digit vertex numbers
        acyclic_n = int(rng.integers(2, 6))
        sparse_n = int(rng.integers(10, 13))
        quivers = [
            random_quiver(rng, max_n=3, max_entry=2),
            Quiver(np.triu(rng.integers(0, 3, size=(acyclic_n, acyclic_n)), k=1).tolist()),
            Quiver(np.zeros((int(rng.integers(1, 13)),) * 2, dtype=int).tolist()),
            Quiver((rng.integers(1, 3, size=(sparse_n, sparse_n)) * (rng.random((sparse_n, sparse_n)) < 0.12)).tolist()),
        ]
        g = str(tmp_path / "g.json")
        for q in quivers:
            write_quiver_file(q, g)
            for max_len in range(6):
                code, report, _ = run(["paths", "--graph", g, "--max-len", str(max_len)])
                want = [format_path(p) for p in reference_enumerate_paths(q, max_len)]
                assert code == 0
                assert report == {"count": len(want), "paths": want}

    def test_dense3_max_len_12_within_budget(self, dense3, tmp_path):
        out = tmp_path / "paths.json"
        t0 = time.perf_counter()
        code = main(["paths", "--graph", dense3, "--max-len", "12", "--output", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert json.loads(out.read_text())["count"] == 195023
        assert elapsed < 0.5

    @pytest.mark.parametrize("max_len", [10, 13], ids=["three_loops", "mixed_width_120"])
    def test_traced_peak_within_four_report_sizes(self, max_len, tmp_path):
        """The names are rendered as bytes a level at a time and written as
        those chunks: the traced peak of ``main`` stays within 4 report
        sizes, on names of one width (three loops) and on names of widths 5
        to 129 at one level (2 loops at vertex 1, 1 at vertex 120, one arrow
        120 -> 1)."""
        if max_len == 10:
            c = [[3]]
        else:
            c = np.zeros((120, 120), dtype=int)
            c[0, 0], c[119, 119], c[0, 119] = 2, 1, 1
        g = quiver_file(tmp_path, "g.json", c)
        out = tmp_path / "paths.json"
        tracemalloc.start()
        try:
            assert main(["paths", "--graph", g, "--max-len", str(max_len), "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * out.stat().st_size

    def test_past_path_limit_exits_1(self, two_loop, capsys):
        # 2,097,151 paths: refused before any is built
        t0 = time.perf_counter()
        assert main(["paths", "--graph", two_loop, "--max-len", "20"]) == 1
        assert time.perf_counter() - t0 < 0.5
        assert "size limit" in capsys.readouterr().err

    @pytest.fixture
    def one_loop(self, tmp_path):
        return quiver_file(tmp_path, "loop.json", [[1]])

    def test_past_token_budget_exits_1_at_once(self, one_loop, capsys):
        # 100,001 paths pass the path limit, but they hold 5 * 10^9 arrows
        t0 = time.perf_counter()
        assert main(["paths", "--graph", one_loop, "--max-len", "100000"]) == 1
        assert time.perf_counter() - t0 < 0.1
        err = capsys.readouterr().err
        assert "size limit exceeded" in err and "arrow tokens" in err

    def test_token_budget_is_inclusive(self, one_loop, tmp_path, monkeypatch, capsys):
        # one loop up to length L holds L(L + 1)/2 arrows: 10 at L = 4
        monkeypatch.setattr(quiver, "PATH_TOKEN_LIMIT", 10)
        out = tmp_path / "paths.json"
        assert main(["paths", "--graph", one_loop, "--max-len", "4", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["count"] == 5
        assert main(["paths", "--graph", one_loop, "--max-len", "5"]) == 1
        assert "arrow tokens" in capsys.readouterr().err


#: two-vertex files with counts past what any per-arrow array can hold:
#: 2^40 fits int64 (every per-arrow array is refused), 2^64 does not, and
#: two counts of 2^62 do not fit int64 together
OVERSIZED_COUNTS = {"2^40": [2**40], "2^64": [2**64], "2x2^62": [2**62, 2**62]}


@pytest.mark.parametrize("counts", sorted(OVERSIZED_COUNTS))
@pytest.mark.parametrize(
    "argv, exit_at_2_40",
    [
        (["verify", "--graph", "{g}", "--depth", "0"], 1),
        (["paths", "--graph", "{g}", "--max-len", "0"], 0),
        (["norms", "--graph", "{g}", "--i", "1", "--j", "2"], 1),
        (["recover", "--graph", "{g}"], 1),
        (["iso", "{g}", "{g}"], 0),
    ],
    ids=["verify", "paths", "norms", "recover", "iso"],
)
def test_oversized_counts_exit_without_raising(counts, argv, exit_at_2_40, tmp_path, capsys):
    """No exception escapes ``main`` on counts that no int64 array or no
    per-arrow array holds, and every refusal names the size limit.  Only the
    2^40 file is a ``Quiver``; ``paths --max-len 0`` on it lists its 2
    vertices, and ``iso`` finds the identity."""
    edges = [{"from": 2, "to": 1, "count": OVERSIZED_COUNTS[counts][0]}]
    edges += [{"from": 1, "to": 1, "count": d} for d in OVERSIZED_COUNTS[counts][1:]]
    g = graph_file(tmp_path, "big.json", {"n": 2, "edges": edges})
    code = main([a.format(g=g) for a in argv])
    captured = capsys.readouterr()
    assert code == (exit_at_2_40 if counts == "2^40" else 1)
    if code == 1:
        assert captured.out == "" and "size limit exceeded" in captured.err
    elif argv[0] == "paths":
        assert json.loads(captured.out)["paths"] == ["v1", "v2"]


@pytest.mark.parametrize(
    "argv",
    [["paths", "--max-len", "6"], ["verify", "--depth", "6"]],
    ids=["paths", "verify"],
)
def test_builds_no_path_objects(argv, reference, tmp_path, monkeypatch):
    # only the vertex and arrow tokens of the path names are Path objects
    built = []
    post_init = QuiverPath.__post_init__
    monkeypatch.setattr(QuiverPath, "__post_init__", lambda p: (built.append(p), post_init(p)))
    out = tmp_path / "report.json"
    assert main([*argv, "--graph", reference, "--output", str(out)]) == 0
    q = parse_quiver_file(reference)
    assert len(built) <= q.n + q.total_arrows()
    assert all(p.length <= 1 for p in built)
    built.clear()
    space = FockSpace(q, 6)
    assert built == []
    assert not hasattr(space, "basis")  # the space holds its paths as arrays only


class TestMainEntry:
    def test_determinism_byte_identical(self, reference, capsys):
        assert main(["recover", "--graph", reference, "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["recover", "--graph", reference, "--seed", "9"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_verify_pipeline(self, two_loop, capsys):
        code = main(["verify", "--graph", two_loop, "--depth", "3", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "depth",
            "dim",
            "max_covariance_deviation",
            "corner_isometry_ok",
            "norm_checks",
        }
        assert "verify" in err

    def test_output_file(self, two_loop, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            ["paths", "--graph", two_loop, "--max-len", "1", "--output", str(target)]
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["count"] == 3

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-directory", "directory"])
    def test_unwritable_output_exits_1(self, target, two_loop, tmp_path, capsys):
        # the report is built, but the file cannot be opened: no traceback
        # and no summary line
        code = main(["paths", "--graph", two_loop, "--max-len", "1", "--output", str(tmp_path / target)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_closed_stdout_pipe_exits_1_without_traceback(self, tmp_path):
        # 32,767 paths, megabytes of report, far past a pipe's buffer: the
        # reader takes one line and closes the pipe while the CLI still writes
        g = quiver_file(tmp_path, "loops.json", [[2]])
        relay = (
            "import subprocess, sys\n"
            "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
            "child.stdout.readline()\n"
            "child.stdout.close()\n"
            "sys.stderr.write(child.stderr.read().decode())\n"
            "sys.exit(child.wait())\n"
        )
        proc = python("-c", relay, sys.executable, "-m", "quiveralg", "paths", "--graph", g, "--max-len", "14")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"

    def test_validation_error_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["verify", "--graph", missing]) == 1
        _, err = capsys.readouterr()
        assert "error" in err

    def test_recovery_error_exits_2(self, reference, monkeypatch, capsys):
        def fail(presentation):
            raise recovery.RecoveryError("not a vertex relabelling")

        monkeypatch.setattr(cli, "recover", fail)
        assert main(["recover", "--graph", reference]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal check failed: not a vertex relabelling\n"

    def test_missing_option_exits_1(self, capsys):
        assert main(["verify"]) == 1
        _, err = capsys.readouterr()
        assert "required: --graph" in err and "usage:" in err

    @pytest.mark.parametrize("subcommand", ["verify", "recover"])
    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_exits_1_naming_the_option(self, subcommand, seed, two_loop, capsys):
        # refused by the parser, before numpy's "expected non-negative integer"
        assert main([subcommand, "--graph", two_loop, "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: expected a non-negative integer, got '{seed}'" in captured.err

    def test_malformed_option_exits_1(self, two_loop, capsys):
        assert main(["paths", "--max-len", "abc"]) == 1
        assert main(["paths", "--graph", two_loop, "--max-len", "abc"]) == 1
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["iso", "{g}", "{g}", "--seed", "1"],
            ["paths", "--graph", "{g}", "--seed", "1"],
            ["norms", "--graph", "{g}", "--i", "1", "--j", "1", "--seed", "1"],
            ["verify", "--graph", "{g}", "--tolerance-iterative", "1e-9"],
            ["verify", "--graph", "{g}", "--tolerance-exact", "1e-9"],
        ],
        ids=["iso-seed", "paths-seed", "norms-seed", "tolerance-iterative", "tolerance-exact"],
    )
    def test_removed_options_exit_1(self, argv, two_loop, capsys):
        assert main([a.format(g=two_loop) for a in argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify", "--depth", "0"], "depth"),
            (["verify", "--depth", "-1"], "depth"),
            (["paths", "--max-len", "-1"], "max_len"),
        ],
        ids=["verify-depth-0", "verify-depth-negative", "paths-max-len-negative"],
    )
    def test_too_short_length_exits_1(self, argv, name, two_loop, capsys):
        # refused by the library (FockSpace, the covariance check, the path tree)
        assert main([*argv, "--graph", two_loop]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and name in captured.err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_version_mentions_schema(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert GRAPH_SCHEMA_VERSION in out
        assert "quiveralg" in out

    def test_cached_parser_carries_no_state(self, reference, capsys, monkeypatch):
        names = ["verify_four_cycle_loop_d8", "norms_three_blocks_k6", "recover4_expect", "iso_relabelled",
                 "paths_reference"]
        runs = [RUNS[name].argv for name in names]
        assert main(["paths", "--graph", reference, "--max-len", "abc"]) == 1
        for argv in (["verify", "--help"], ["--version"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        capsys.readouterr()
        cached = []
        for argv in runs:
            assert main(argv) == 0
            cached.append(capsys.readouterr())
        assert cli._cached_parser() is cli._cached_parser()
        # the same runs, each through a parser built for it alone
        monkeypatch.setattr(cli, "_cached_parser", build_parser)
        for argv, want in zip(runs, cached):
            assert main(argv) == 0
            assert capsys.readouterr() == want

    def test_import_builds_no_parser(self):
        code = (
            "import quiveralg, quiveralg.cli\n"
            "assert quiveralg.cli._cached_parser.cache_info().currsize == 0"
        )
        proc = python("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_parser_round_trip_to_config(self):
        parser = build_parser()
        args = parser.parse_args(
            ["norms", "--graph", "g.json", "--i", "1", "--j", "2", "--k-max", "3"]
        )
        assert args.subcommand == "norms" and args.run is cli._run_norms
        assert args.vertex_i == 1 and args.vertex_j == 2 and args.k_max == 3
        assert parser.parse_args(["verify", "--graph", "g.json"]).depth == cli.DEFAULT_DEPTH

    def test_subcommand_parser_reads_as_the_full_parser(self):
        # main hands a command line that starts with a subcommand straight to
        # that subcommand's parser; the namespace is the one the full pass gives
        parser = build_parser()
        extra = [["paths", "--graph", "g.json"], ["verify", "--graph", "g.json", "--seed", "3", "--output", "r.json"]]
        for argv in [run.argv for run in RUNS.values()] + extra:
            assert cli._parse_args(argv) == parser.parse_args(argv)

    def test_unrecognized_arguments_name_the_subcommand(self, two_loop, capsys):
        assert main(["paths", "--graph", two_loop, "--bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: quiveralg paths [-h] --graph GRAPH")
        assert err.endswith("error: quiveralg paths: unrecognized arguments: --bogus\n")
