"""Seeded request lists for the three benchmark workloads, and their oracles.

A workload is one *pass*: a fixed composition of CLI requests whose graphs,
labels and flags are drawn from the workload seed.  The seed moves graphs,
labellings and random vectors, not the composition, so every seed asks for
the same amount of work and the percentiles fall on the same classes.

Every request carries the expectation its report is checked against.  The
expectations are computed here, from the generated inputs, by routes that do
not go through the code under test: path counts from integer matrix powers,
recovered matrices from the scramble's withheld permutation, isomorphism
from networkx's multigraph matcher.  The one library routine called here
is ``scramble`` itself, to read that withheld permutation.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("fock_verify", "recover_sweep", "query_mix")

#: the calibration task of ``speed.py`` that scales each kind of request:
#: the one whose slow-phase slowdown was closest to the kind's (see there)
CALIBRATION = {"verify": "dense",
               "recover": "interpreter", "iso": "interpreter", "norms": "interpreter", "paths": "interpreter"}

COVARIANCE_TOL = 1e-12
NORM_CHECK_TOL = 1e-9
NORMS_GAP_TOL = 1e-10
NORMS_BOUND_SLACK = 1e-12


@dataclass
class Request:
    """One CLI invocation: ``argv`` names graph files by key in ``files``."""

    kind: str
    label: str
    argv: list
    files: dict
    expect_code: int
    expect: dict = field(default_factory=dict)


def graph_doc(c) -> dict:
    """Graph file document (1-based) for a multiplicity matrix c[target][source]."""
    n = len(c)
    edges = [
        {"from": j + 1, "to": i + 1, "count": int(c[i][j])}
        for i in range(n)
        for j in range(n)
        if c[i][j]
    ]
    return {"n": n, "edges": edges}


def permute(c, tau):
    """``c'[i][j] = c[tau[i]][tau[j]]``, the relabelling ``apply_permutation`` defines."""
    n = len(c)
    return [[int(c[tau[i]][tau[j]]) for j in range(n)] for i in range(n)]


def path_count(c, max_len: int) -> int:
    """Number of paths of length <= max_len: sum over k of 1^T C^k 1."""
    m = np.array(c, dtype=np.int64)
    ones = np.ones(len(c), dtype=np.int64)
    total, power = 0, np.eye(len(c), dtype=np.int64)
    for _ in range(max_len + 1):
        total += int(ones @ power @ ones)
        power = power @ m
    return total


def _relabel(rng, c):
    return permute(c, [int(t) for t in rng.permutation(len(c))])


def _subseed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _interleave(rng, requests: list) -> list:
    """The requests in a seeded order, so that like requests are spread out."""
    return [requests[int(t)] for t in rng.permutation(len(requests))]


# -- fock_verify -------------------------------------------------------------

_FOUR_CYCLE_LOOP = [[1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
_DENSE3 = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
_TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

#: (label, multiplicity matrix, depth, requests per pass).  Fock dims run
#: from 40 to 4095 and straddle DENSE_SVD_LIMIT = 2000 (two loops at depth 10
#: is dim 2047).  Counts place the percentiles inside classes of equal cost:
#: of the 47 requests, six take 0.3-3.5 s each, the nine ~0.1 s
#: four_cycle_loop/d9 ones hold the tail (the 11th slowest), and the median
#: (the 24th) is the 5th of the twelve ~0.05 s four_cycle_loop/d8 ones, below
#: the four dense3/d4 ones.  A pass is ~10 s.
_FOCK_MIX = (
    ("two_loops", [[2]], 8, 1),
    ("two_loops", [[2]], 9, 1),
    ("two_loops", [[2]], 10, 1),
    ("two_loops", [[2]], 11, 1),
    ("four_cycle_loop", _FOUR_CYCLE_LOOP, 6, 8),
    ("four_cycle_loop", _FOUR_CYCLE_LOOP, 7, 8),
    ("four_cycle_loop", _FOUR_CYCLE_LOOP, 8, 12),
    ("four_cycle_loop", _FOUR_CYCLE_LOOP, 9, 9),
    ("dense3", _DENSE3, 4, 4),
    ("dense3", _DENSE3, 5, 1),
    ("triangle", _TRIANGLE, 6, 1),
)


def _fock_pass(rng) -> list[Request]:
    out = []
    for name, c, depth, count in _FOCK_MIX:
        for _ in range(count):
            g = _relabel(rng, c)
            out.append(
                Request(
                    kind="verify",
                    label=f"verify/{name}/d{depth}",
                    argv=["verify", "--graph", "@g", "--depth", str(depth),
                          "--seed", str(_subseed(rng))],
                    files={"g": graph_doc(g)},
                    expect_code=0,
                    expect={"dim": path_count(g, depth), "depth": depth,
                            "norm_checks": sum(map(sum, g)) + 2},
                )
            )
    return _interleave(rng, out)


# -- recover_sweep -----------------------------------------------------------

#: requests per pass at each vertex count.  Of the 38 requests, the median
#: falls inside the ten n = 6 ones and the tail (the 11th slowest) inside the
#: six n = 7 ones, below the eight n = 8.  n = 9 is left out: it is past the
#: 8-vertex isomorphism cap, so every such request fails today, and the
#: benchmark's workloads are ones on which no request fails.
_RECOVER_MIX = {4: 6, 5: 8, 6: 10, 7: 6, 8: 8}
#: where in the n! sweep the witness of an isomorphic pair sits, by size
#: (halfway when not listed), for recover and iso alike.  At n = 8 it is an
#: early hit, as in the profiled recoveries (~0.2 s); a late one would take
#: up to ~4 s and swamp the probes.
_WITNESS_AT = {8: 1 / 16}


def _random_matrix(rng, n: int) -> list:
    """An n x n multiplicity matrix with entries 0, 1, 2 in fixed proportions."""
    return rng.permutation(np.arange(n * n) % 3).reshape(n, n).tolist()


def _base_matrix(n: int) -> list:
    """The n-vertex recovery graph, the same for every seed.

    The probe cost of random graphs of one size differs by up to 1.7x with
    the placement of their arrows, so every request of one size recovers a
    relabelling of this graph; the seed draws the relabelling and the
    scramble, and every seed asks for the same work.
    """
    return _random_matrix(np.random.default_rng(n), n)


def _unrank(rank: int, n: int) -> list:
    """The permutation of 0..n-1 at position ``rank`` in lexicographic order."""
    rest, out = list(range(n)), []
    for i in range(n, 0, -1):
        d, rank = divmod(rank, math.factorial(i - 1))
        out.append(rest.pop(d))
    return out


def _rank(perm) -> int:
    rest, rank = sorted(perm), 0
    for i, v in enumerate(perm):
        d = rest.index(v)
        rank += d * math.factorial(len(perm) - 1 - i)
        rest.pop(d)
    return rank


def _scramble_seed(scramble, q, rng, fraction: float) -> tuple[int, tuple]:
    """A scramble seed whose witness sits near ``fraction`` of the sweep.

    The witness search tries vertex permutations in lexicographic order and
    stops at the inverse of the hidden permutation, so the rank of that
    inverse sets the search time.  Fixing it per request, instead of leaving
    it to the seed, keeps every run's sweep lengths the same.  Candidate seeds
    are screened on the arrowless graph of the same size (cheap to scramble);
    the oracle uses the permutation the real scramble withholds.
    """
    from quiveralg.quiver import Quiver

    size = math.factorial(q.n)
    target, slack = fraction * (size - 1), max(size // 128, 0.5)
    empty = Quiver([[0] * q.n for _ in range(q.n)])
    for _ in range(100 * 128):
        s = _subseed(rng)
        tau = scramble(empty, s).hidden_truth.tau
        if abs(_rank([tau.index(v) for v in range(q.n)]) - target) <= slack:
            break
    return s, scramble(q, s).hidden_truth.tau


def _recover_pass(rng) -> list[Request]:
    from quiveralg.quiver import Quiver
    from quiveralg.recovery import scramble

    out = []
    for n, reps in _RECOVER_MIX.items():
        for _ in range(reps):
            c = _relabel(rng, _base_matrix(n))
            seed, tau = _scramble_seed(scramble, Quiver(c), rng, _WITNESS_AT.get(n, 0.5))
            out.append(
                Request(
                    kind="recover",
                    label=f"recover/n{n}",
                    argv=["recover", "--graph", "@g", "--expect", "@g", "--seed", str(seed)],
                    files={"g": graph_doc(c)},
                    expect_code=0,
                    expect={"n": n, "c_recovered": permute(c, tau)},
                )
            )
    return _interleave(rng, out)


# -- query_mix ---------------------------------------------------------------

#: A pass is ~6 s, about a third each for iso, norms and paths.
#: norms graphs: every (loops at i, arrows j -> i, loops at j) with 1..3
#: arrows per block, and eleven more of 3/3/3, where the direct assembly is
#: largest (~0.17 s).  The twelve 3/3/3 requests hold the tail (the 11th
#: slowest request is the 9th of them), below the n = 8 and n = 7 iso misses.
_NORMS_BLOCKS = tuple(itertools.product((1, 2, 3), repeat=3)) + ((3, 3, 3),) * 11
#: iso pairs: (n, isomorphic, count).  Half are isomorphic; the misses sweep
#: all n! permutations, ~1.5 s at n = 8.
_ISO_MIX = ((6, True, 2), (6, False, 2), (7, True, 1), (7, False, 1), (8, True, 1), (8, False, 1))
#: paths graphs and lengths, 2.0k..3.3k paths each: ten each of the two
#: ~0.035 s shapes and twenty-five each of the three ~0.025 s ones.  Of the
#: 141 requests of a pass, 53 are dearer than the 75 ~0.025 s ones, so the
#: median (the 71st) falls well inside that class.
_PATHS_SHAPES = (
    (("two_loops", [[2]], 10),) * 25
    + (("k2_loops", [[1, 1], [1, 1]], 9),) * 25
    + (("dense3", _DENSE3, 7),) * 25
    + (("triangle", _TRIANGLE, 9),) * 10
    + (("three_loops", [[3]], 7),) * 10
)


def _complex_list(values) -> str:
    return ",".join(repr(complex(z)) for z in values)


def _ball_vector(rng, dim: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return np.round(radius * v / np.linalg.norm(v), 6)


def _norms_request(rng, blocks) -> Request:
    d_ii, d_ij, d_jj = blocks
    lam_i = _ball_vector(rng, d_ii, rng.uniform(0.3, 0.8))
    lam_j = _ball_vector(rng, d_jj, rng.uniform(0.3, 0.8))
    room = 1.0 - float(np.sum(np.abs(lam_i) ** 2))
    gamma = _ball_vector(rng, d_ij, np.sqrt(room) * rng.uniform(0.2, 0.9))
    c = [[d_ii, d_ij], [0, d_jj]]
    i, j = 1, 2
    if rng.integers(2):  # relabel the two vertices
        c = permute(c, [1, 0])
        i, j = 2, 1
    return Request(
        kind="norms",
        label=f"norms/{d_ii}{d_ij}{d_jj}",
        argv=["norms", "--graph", "@g", "--i", str(i), "--j", str(j),
              "--lambda-i", _complex_list(lam_i), "--lambda-j", _complex_list(lam_j),
              "--gamma", _complex_list(gamma), "--k-max", "6"],
        files={"g": graph_doc(c)},
        expect_code=0,
        expect={"k_max": 6},
    )


def _multigraph(c):
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(range(len(c)))
    for i, row in enumerate(c):
        for j, m in enumerate(row):
            g.add_edges_from([(j, i)] * int(m))
    return g


def _iso_request(rng, n: int, isomorphic: bool) -> Request:
    """A pair of n-vertex graphs; an isomorphic pair's witness sits at the
    size's place in the lexicographic sweep (see ``_scramble_seed``)."""
    from networkx.algorithms.isomorphism import MultiDiGraphMatcher

    c1 = _random_matrix(rng, n)
    fraction = _WITNESS_AT.get(n, 0.5)
    c2 = permute(c1, _unrank(round(fraction * (math.factorial(n) - 1)), n))
    while True:
        exists = MultiDiGraphMatcher(_multigraph(c1), _multigraph(c2)).is_isomorphic()
        if exists == isomorphic:
            break
        # move one arrow: same arrow count, (most likely) a different graph
        i, j = (int(t) for t in rng.choice(n, size=2, replace=False))
        a, b = next((a, b) for a in range(n) for b in range(n) if c2[a][b] and (a, b) != (i, j))
        c2[a][b] -= 1
        c2[i][j] += 1
    return Request(
        kind="iso",
        label=f"iso/n{n}/{'hit' if exists else 'miss'}",
        argv=["iso", "@g1", "@g2"],
        files={"g1": graph_doc(c1), "g2": graph_doc(c2)},
        expect_code=0 if exists else 3,
        expect={"isomorphic": exists, "c1": c1, "c2": c2},
    )


def _paths_request(rng, name, c, max_len) -> Request:
    g = _relabel(rng, c)
    return Request(
        kind="paths",
        label=f"paths/{name}/L{max_len}",
        argv=["paths", "--graph", "@g", "--max-len", str(max_len)],
        files={"g": graph_doc(g)},
        expect_code=0,
        expect={"count": path_count(g, max_len)},
    )


def _query_pass(rng) -> list[Request]:
    out = [_norms_request(rng, b) for b in _NORMS_BLOCKS]
    out += [_iso_request(rng, n, hit) for n, hit, count in _ISO_MIX for _ in range(count)]
    out += [_paths_request(rng, *shape) for shape in _PATHS_SHAPES]
    return _interleave(rng, out)


_PASSES = {"fock_verify": _fock_pass, "recover_sweep": _recover_pass, "query_mix": _query_pass}


def generate(workload: str, seed: int) -> list[Request]:
    """The request pass of a workload; equal seeds give equal passes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _PASSES[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def render(requests: list[Request]) -> bytes:
    """Canonical bytes of a request list: argv and graph files, in order."""
    return json.dumps([{"argv": r.argv, "files": r.files} for r in requests], sort_keys=True).encode()


# -- oracles -----------------------------------------------------------------


def check(req: Request, report: dict):
    """None when the report is right for the request, else the reason it is not."""
    return _CHECKS[req.kind](req.expect, report)


def _check_verify(e, r):
    if r["depth"] != e["depth"] or r["dim"] != e["dim"]:
        return "verify_dim"
    if not r["max_covariance_deviation"] <= COVARIANCE_TOL:
        return "verify_covariance"
    checks = r["norm_checks"]
    if len(checks) != e["norm_checks"] or not all(x["deviation"] <= NORM_CHECK_TOL for x in checks):
        return "verify_norm_check"
    if r["corner_isometry_ok"] is not True:
        return "verify_corner"
    return None


def _check_recover(e, r):
    if r["n_recovered"] != e["n"] or r["c_recovered"] != e["c_recovered"]:
        return "recover_matrix"
    if r.get("expect_met") is not True:
        return "recover_expect"
    return None


def _check_iso(e, r):
    if r["isomorphic"] != e["isomorphic"]:
        return "iso_existence"
    if e["isomorphic"]:
        tau = [t - 1 for t in r["permutation"]]
        if sorted(tau) != list(range(len(e["c1"]))) or permute(e["c1"], tau) != e["c2"]:
            return "iso_permutation"
    elif r["permutation"] is not None:
        return "iso_permutation"
    return None


def _check_norms(e, r):
    rows = r["rows"]
    if [row["k"] for row in rows] != list(range(1, e["k_max"] + 1)):
        return "norms_rows"
    if not r["max_closed_direct_gap"] <= NORMS_GAP_TOL:
        return "norms_gap"
    for row in rows:
        if not abs(row["closed"] - row["direct"]) <= NORMS_GAP_TOL:
            return "norms_gap"
        if not row["direct"] ** 2 <= row["bound"] + NORMS_BOUND_SLACK:
            return "norms_bound"
    return None


def _check_paths(e, r):
    if r["count"] != e["count"] or len(r["paths"]) != e["count"]:
        return "paths_count"
    if len(set(r["paths"])) != e["count"]:
        return "paths_distinct"
    return None


_CHECKS = {
    "verify": _check_verify,
    "recover": _check_recover,
    "iso": _check_iso,
    "norms": _check_norms,
    "paths": _check_paths,
}
