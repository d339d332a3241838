import json
import time
from pathlib import Path

import numpy as np
import pytest

from quiveralg import GRAPH_SCHEMA_VERSION, FockSpace, Quiver, format_path, parse_quiver_dict, parse_quiver_file, quiver_to_dict, write_quiver_file
from quiveralg.quiver import Path as QuiverPath
from quiveralg.cli import NORMS_K_MAX, RunConfig, build_parser, config_from_args, main, run
from helpers import random_quiver, reference_enumerate_paths


def graph_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def two_loop(tmp_path):
    return graph_file(
        tmp_path, "g2.json", {"n": 1, "edges": [{"from": 1, "to": 1, "count": 2}]}
    )


@pytest.fixture
def reference(tmp_path):
    return graph_file(
        tmp_path,
        "g12.json",
        {
            "n": 2,
            "edges": [
                {"from": 1, "to": 1, "count": 1},
                {"from": 2, "to": 1, "count": 2},
                {"from": 2, "to": 2, "count": 1},
            ],
        },
    )


@pytest.fixture
def dense3(tmp_path):
    # C = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]: 195,023 paths of length <= 12
    return graph_file(
        tmp_path,
        "dense3.json",
        {
            "n": 3,
            "edges": [
                {"from": s, "to": t, "count": 1}
                for t, row in enumerate([[1, 1, 1], [1, 1, 0], [1, 0, 1]], start=1)
                for s, x in enumerate(row, start=1)
                if x
            ],
        },
    )


class TestGraphFileParsing:
    def test_minimal_one_vertex(self, tmp_path):
        q = parse_quiver_file(graph_file(tmp_path, "g.json", {"n": 1}))
        assert q.c == ((0,),)

    def test_single_loop_pair(self, tmp_path):
        q = parse_quiver_file(
            graph_file(
                tmp_path, "g.json", {"n": 1, "edges": [{"from": 1, "to": 1, "count": 2}]}
            )
        )
        assert q.c == ((2,),)

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


class TestVerify:
    def test_passes_on_two_loops(self, two_loop):
        code, report = run(RunConfig("verify", graph=two_loop, depth=3))
        assert code == 0
        assert report["depth"] == 3
        assert report["dim"] == 1 + 2 + 4 + 8
        assert report["max_covariance_deviation"] <= 1e-12
        assert report["corner_isometry_ok"] is True
        assert all(c["deviation"] <= 1e-9 for c in report["norm_checks"])

    def test_reference_graph(self, reference):
        code, report = run(RunConfig("verify", graph=reference, depth=4))
        assert code == 0

    def test_impossible_tolerance_fails_numerically(self, two_loop):
        cfg = RunConfig("verify", graph=two_loop, depth=3, tolerance_exact=-1.0)
        code, _ = run(cfg)
        assert code == 2

    def test_depth_zero_rejected(self, two_loop):
        with pytest.raises(ValueError, match="depth"):
            RunConfig("verify", graph=two_loop, depth=0)

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

    def test_depth_past_path_limit_exits_1(self, two_loop, capsys):
        t0 = time.perf_counter()
        assert main(["verify", "--graph", two_loop, "--depth", "20"]) == 1
        assert time.perf_counter() - t0 < 0.5
        assert "size limit" in capsys.readouterr().err


class TestNorms:
    def test_table_shape_and_agreement(self, reference):
        cfg = RunConfig(
            "norms",
            graph=reference,
            vertex_i=1,
            vertex_j=2,
            lam_i="0.5",
            gamma="0.4,0.3",
            k_max=4,
        )
        code, report = run(cfg)
        assert code == 0
        assert [row["k"] for row in report["rows"]] == [1, 2, 3, 4]
        for row in report["rows"]:
            assert abs(row["closed"] - row["direct"]) <= 1e-10
            assert row["direct"] ** 2 <= row["bound"] + 1e-12

    def test_k6_three_blocks_within_budget(self, tmp_path):
        # [[3, 3], [0, 3]]: the explicit assembly at k = 6 has 2 x 5,832
        # entries, the Gram recursion only 2 x 2 blocks per vertex
        g = str(Path(__file__).parent / "fixtures" / "graphs" / "three_blocks.json")
        out = tmp_path / "norms.json"
        t0 = time.perf_counter()
        code = main(
            ["norms", "--graph", g, "--i", "1", "--j", "2", "--lambda-i", "0.3,0.2j,-0.1",
             "--lambda-j", "0.25,-0.15j,0.1", "--gamma", "0.4,0.3j,-0.2", "--k-max", "6",
             "--output", str(out)]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert [row["k"] for row in json.loads(out.read_text())["rows"]] == list(range(1, 7))
        assert elapsed < 0.05

    def test_k_max_out_of_range_rejected(self, reference):
        for k_max in (0, -3, NORMS_K_MAX + 1):
            cfg = RunConfig("norms", graph=reference, vertex_i=1, vertex_j=2, k_max=k_max)
            with pytest.raises(ValueError, match="k-max must be in 1"):
                run(cfg)

    def test_k_max_past_six_accepted(self, reference):
        # the direct route is a Gram recursion, so k-max has no cap at 6
        cfg = RunConfig("norms", graph=reference, vertex_i=1, vertex_j=2, k_max=NORMS_K_MAX)
        code, report = run(cfg)
        assert code == 0
        assert [row["k"] for row in report["rows"]] == list(range(1, NORMS_K_MAX + 1))

    def test_bad_vector_rejected(self, reference):
        cfg = RunConfig(
            "norms", graph=reference, vertex_i=1, vertex_j=2, lam_i="0.5,0.5"
        )
        with pytest.raises(ValueError, match="entries"):
            run(cfg)


class TestRecoverCommand:
    def test_self_expectation_met(self, reference):
        cfg = RunConfig("recover", graph=reference, seed=5, expect=reference)
        code, report = run(cfg)
        assert code == 0
        assert report["expect_met"] is True
        assert report["witness"] is not None
        assert report["n_recovered"] == 2
        for ev in report["evidence"]:
            if ev["a"] != ev["b"]:
                assert ev["span_dim"] == ev["rep_dim"]

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
        # with vertex 8); a sweep over permutations tries 7/8 of 8! first
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
        other = graph_file(
            tmp_path, "other.json", {"n": 1, "edges": [{"from": 1, "to": 1, "count": 3}]}
        )
        cfg = RunConfig("recover", graph=reference, seed=5, expect=other)
        code, report = run(cfg)
        assert code == 3
        assert report["expect_met"] is False


class TestIso:
    def test_non_isomorphic_exits_3(self, two_loop, tmp_path):
        three = graph_file(
            tmp_path, "g3.json", {"n": 1, "edges": [{"from": 1, "to": 1, "count": 3}]}
        )
        code, report = run(RunConfig("iso", graph=two_loop, graph2=three))
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

    def test_swapped_copy_found(self, tmp_path):
        g1 = graph_file(
            tmp_path,
            "a.json",
            {"n": 2, "edges": [{"from": 1, "to": 1, "count": 1}, {"from": 2, "to": 1, "count": 2}, {"from": 2, "to": 2, "count": 1}]},
        )
        g2 = graph_file(
            tmp_path,
            "b.json",
            {"n": 2, "edges": [{"from": 1, "to": 1, "count": 1}, {"from": 1, "to": 2, "count": 2}, {"from": 2, "to": 2, "count": 1}]},
        )
        code, report = run(RunConfig("iso", graph=g1, graph2=g2))
        assert code == 0
        assert report["permutation"] == [2, 1]


class TestPaths:
    def test_two_loop_enumeration(self, two_loop):
        code, report = run(RunConfig("paths", graph=two_loop, max_len=2))
        assert code == 0
        assert report["count"] == 7
        assert report["paths"][0] == "v1"
        assert "1<1:1*1<1:2" in report["paths"]

    @pytest.mark.parametrize("seed", range(10))
    def test_names_are_format_path_of_reference(self, seed, tmp_path):
        rng = np.random.default_rng(800 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        g = str(tmp_path / "g.json")
        write_quiver_file(q, g)
        for max_len in range(4):
            code, report = run(RunConfig("paths", graph=g, max_len=max_len))
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
        assert elapsed < 1.0

    def test_past_path_limit_exits_1(self, two_loop, capsys):
        # 2,097,151 paths: refused before any is built
        t0 = time.perf_counter()
        assert main(["paths", "--graph", two_loop, "--max-len", "20"]) == 1
        assert time.perf_counter() - t0 < 0.5
        assert "size limit" in capsys.readouterr().err


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
    assert len(space.basis) == space.dim == len(built)  # built on first use


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

    def test_validation_error_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["verify", "--graph", missing]) == 1
        _, err = capsys.readouterr()
        assert "error" in err

    def test_version_mentions_schema(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert GRAPH_SCHEMA_VERSION in out
        assert "quiveralg" in out

    def test_parser_round_trip_to_config(self):
        parser = build_parser()
        args = parser.parse_args(
            ["norms", "--graph", "g.json", "--i", "1", "--j", "2", "--k-max", "3"]
        )
        cfg = config_from_args(args)
        assert cfg.subcommand == "norms"
        assert cfg.vertex_i == 1 and cfg.vertex_j == 2 and cfg.k_max == 3
