"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output) and then asserts, so the suite both reports and
enforces.  Tolerances and runtime budgets are fixed here, not configurable.
"""

import itertools
import time

import numpy as np

from quiveralg import (
    Character,
    CorrespondenceElement,
    FockSpace,
    PathPolynomial,
    Quiver,
    TwoDimRep,
    apply_permutation,
    are_isomorphic,
    char_eval,
    check_isometric_covariance,
    corner_shift_report,
    norm_table,
    recover,
    rho_eval,
    scramble,
)
from quiveralg.reps import t_tilde_k_matrix, t_tilde_k_norm_closed, t_tilde_k_norm_direct
from helpers import (
    dyadic_ball_vector,
    dyadic_polynomial,
    random_contractive_params,
    random_element,
    random_quiver,
    single_pair_probes,
    two_block_quiver,
)


def _report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}")


def test_criterion_1_compressed_map_product():
    """Assembled T~ T~* equals diag(q1 + t, q2) entrywise, 100 draws, dims <= 4."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d_i, d_g, d_j = (int(d) for d in rng.integers(0, 5, size=3))
        q = two_block_quiver(d_i, d_g, d_j)
        lam_i, lam_j, gamma = random_contractive_params(rng, d_i, d_g, d_j)
        tt = t_tilde_k_matrix(q, 0, 1, lam_i, lam_j, gamma, 1)
        assembled = tt @ tt.conj().T
        expected = np.diag(
            [
                np.linalg.norm(lam_i) ** 2 + np.linalg.norm(gamma) ** 2,
                np.linalg.norm(lam_j) ** 2,
            ]
        )
        worst = max(worst, float(np.max(np.abs(assembled - expected))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, elapsed, f"max entrywise deviation {worst:.3e} over 100 draws")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_norm_formula_and_decay_bound():
    """Closed form vs direct assembly within 1e-10 for k <= 6, 50 draws
    including exactly degenerate q1 = q2; squared direct norm below the decay
    bound in every draw."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_gap = 0.0
    bound_ok = True
    for draw in range(50):
        degenerate = draw % 5 == 0
        if degenerate:
            d = int(rng.integers(1, 4))
            quiv = two_block_quiver(d, int(rng.integers(0, 4)), d)
            lam_i, _, gamma = random_contractive_params(rng, d, quiv.c[0][1], d)
            lam_j = lam_i.copy()  # same floats: exactly equal squared norms
        else:
            d_i, d_g, d_j = (int(x) for x in rng.integers(0, 4, size=3))
            quiv = two_block_quiver(d_i, d_g, d_j)
            lam_i, lam_j, gamma = random_contractive_params(rng, d_i, d_g, d_j)
        rep = TwoDimRep(quiv, 0, 1, lam_i, lam_j, gamma)
        bounds = [bound for _, _, bound in norm_table(rep, 6)]
        for k in range(1, 7):
            closed = t_tilde_k_norm_closed(rep, k)
            direct = t_tilde_k_norm_direct(rep, k)
            worst_gap = max(worst_gap, abs(closed - direct))
            bound_ok = bound_ok and direct**2 <= bounds[k - 1] + 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-10 and bound_ok and elapsed < 10.0
    _report(2, ok, elapsed, f"max closed/direct gap {worst_gap:.3e}, bound held: {bound_ok}")
    assert worst_gap <= 1e-10
    assert bound_ok
    assert elapsed < 10.0


def test_criterion_3_contractivity_boundary():
    """At the saturated constraint the witness element is sent to a norm-one
    matrix; one step past it the compressed map exceeds norm one."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d_i = int(rng.integers(1, 4))
        d_g = int(rng.integers(1, 4))
        d_j = int(rng.integers(0, 4))
        q = two_block_quiver(d_i, d_g, d_j)
        lam_i, lam_j, gamma = random_contractive_params(rng, d_i, d_g, d_j, boundary=True)
        rep = TwoDimRep(q, 0, 1, lam_i, lam_j, gamma)
        xi = (
            CorrespondenceElement.zeros(q)
            .with_block(0, 0, lam_i / np.linalg.norm(lam_i))
            .with_block(0, 1, gamma / np.linalg.norm(gamma))
        )
        m = rho_eval(rep, PathPolynomial.from_correspondence(xi))
        worst = max(worst, abs(float(np.linalg.norm(m, 2)) - 1.0))

    # push the corner weight 0.01 past the admissible region
    q = two_block_quiver(1, 1, 1)
    lam_i = np.array([0.6])
    gamma = np.array([np.sqrt(1.0 - 0.36 + 0.01)])
    tt = t_tilde_k_matrix(q, 0, 1, lam_i, [0.0], gamma, 1)
    bumped = float(np.linalg.svd(tt, compute_uv=False)[0])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and bumped > 1.0
    _report(3, ok, elapsed, f"witness norm deviation {worst:.3e}, bumped norm {bumped:.6f}")
    assert worst <= 1e-12
    assert bumped > 1.0


def test_criterion_4_truncated_isometric_covariance():
    """20 random quivers (n <= 3, entries <= 3) at depth 4: restricted-block
    deviation of T_xi* T_eta from the diagonal of <xi, eta> is <= 1e-12."""
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        q = random_quiver(rng, max_n=3, max_entry=3)
        space = FockSpace(q, 4)
        dev = check_isometric_covariance(
            space, random_element(q, rng), random_element(q, rng)
        )
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    _report(4, ok, elapsed, f"max restricted-block deviation {worst:.3e}")
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_5_corner_shift_property():
    """At every vertex carrying loops, the compressed loop shifts are exact
    isometries with orthogonal ranges whose sum stays strictly below the
    corner identity."""
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    quivers = [
        Quiver([[1]]),
        Quiver([[2]]),
        Quiver([[3]]),
        Quiver([[2, 1], [0, 1]]),
        Quiver([[1, 2], [2, 1]]),
    ] + [random_quiver(rng, max_n=3, max_entry=3) for _ in range(10)]
    checked = 0
    all_ok = True
    for q in quivers:
        space = FockSpace(q, 4)
        for v in q.vertices():
            if q.c[v][v] >= 1:
                report = corner_shift_report(space, v)
                checked += 1
                all_ok = all_ok and report.ok
    elapsed = time.perf_counter() - t0
    ok = all_ok and checked > 0
    _report(5, ok, elapsed, f"{checked} corners checked, all exact: {all_ok}")
    assert checked > 0
    assert all_ok


def test_criterion_6_character_laws():
    """Multiplicativity holds with literal float equality on 200 dyadic
    polynomial pairs; the degree-1 pairing formula is reproduced to 1e-12."""
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    quivers = [Quiver([[2]]), Quiver([[2, 1], [0, 1]]), Quiver([[1, 2], [1, 1]])]
    failures = 0
    for trial in range(200):
        q = quivers[trial % len(quivers)]
        vertex = int(rng.integers(0, q.n))
        c = Character(q, vertex, dyadic_ball_vector(rng, q.c[vertex][vertex]))
        p = dyadic_polynomial(q, rng, max_degree=2, terms=4)
        r = dyadic_polynomial(q, rng, max_degree=2, terms=4)
        if char_eval(c, p * r) != char_eval(c, p) * char_eval(c, r):
            failures += 1

    worst = 0.0
    for _ in range(50):
        q = quivers[int(rng.integers(0, len(quivers)))]
        vertex = int(rng.integers(0, q.n))
        dim = q.c[vertex][vertex]
        lam = dyadic_ball_vector(rng, dim)
        c = Character(q, vertex, lam)
        xi = random_element(q, rng)
        got = char_eval(c, PathPolynomial.from_correspondence(xi))
        expected = complex(np.vdot(lam, xi.block(vertex, vertex))) if dim else 0j
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and worst <= 1e-12
    _report(
        6,
        ok,
        elapsed,
        f"{failures}/200 multiplicativity failures, pairing deviation {worst:.3e}",
    )
    assert failures == 0
    assert worst <= 1e-12


def _sweep_quivers() -> list[Quiver]:
    """The documented desk-scale enumeration with entries <= 2.

    Every quiver with n = 1 or n = 2 (3 + 81 of them).  For n = 3 the full
    3^9 sweep is capped: all 27 diagonal patterns are crossed with six fixed
    off-diagonal patterns and ten seeded pseudo-random ones, which keeps the
    sweep diagonal-complete while holding the runtime budget.
    """
    quivers = [Quiver([[d]]) for d in range(3)]
    for entries in itertools.product(range(3), repeat=4):
        quivers.append(Quiver([[entries[0], entries[1]], [entries[2], entries[3]]]))
    rng = np.random.default_rng(707)
    off_patterns = [
        (0, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 1, 1),
        (2, 2, 2, 2, 2, 2),
        (1, 0, 0, 0, 0, 1),
        (2, 1, 0, 0, 1, 2),
        (0, 2, 1, 1, 2, 0),
    ]
    off_patterns += [tuple(int(x) for x in rng.integers(0, 3, size=6)) for _ in range(10)]
    seen = set()
    for diag in itertools.product(range(3), repeat=3):
        for off in off_patterns:
            c = (
                (diag[0], off[0], off[1]),
                (off[2], diag[1], off[3]),
                (off[4], off[5], diag[2]),
            )
            if c not in seen:
                seen.add(c)
                quivers.append(Quiver(c))
    return quivers


def test_criterion_7_recovery_sweep():
    """Every sweep quiver, five scramble seeds each: recovery returns a
    matrix isomorphic to the source and the two probes agree entrywise, with
    no exceptions; 200 random non-isomorphic pairs never acquire a witness."""
    t0 = time.perf_counter()
    quivers = _sweep_quivers()
    recoveries = 0
    witness_failures = 0
    probe_disagreements = 0
    for q in quivers:
        for seed in range(5):
            s = scramble(q, seed)
            report = recover(s)
            recoveries += 1
            if apply_permutation(Quiver(report.c_recovered), report.witness) != q:
                witness_failures += 1
            # the single-pair probes against recover's batched route
            probe_disagreements += sum(
                single != batched
                for singles, row in zip(single_pair_probes(s), report.c_recovered)
                for single, batched in zip(singles, row)
            )

    rng = np.random.default_rng(708)
    separated = 0
    attempts = 0
    while separated < 200 and attempts < 5000:
        attempts += 1
        q1 = quivers[int(rng.integers(0, len(quivers)))]
        q2 = quivers[int(rng.integers(0, len(quivers)))]
        if q1.n != q2.n or are_isomorphic(q1, q2) is not None:
            continue
        report = recover(scramble(q1, seed=int(rng.integers(0, 100))))
        assert are_isomorphic(Quiver(report.c_recovered), q2) is None
        separated += 1
    elapsed = time.perf_counter() - t0
    ok = (
        witness_failures == 0
        and probe_disagreements == 0
        and separated == 200
        and elapsed < 300.0
    )
    _report(
        7,
        ok,
        elapsed,
        f"{recoveries} recoveries over {len(quivers)} quivers, "
        f"{witness_failures} witness failures, {probe_disagreements} probe "
        f"disagreements, {separated}/200 non-isomorphic pairs separated",
    )
    assert witness_failures == 0
    assert probe_disagreements == 0
    assert separated == 200
    assert elapsed < 300.0


def test_criterion_8_path_count_identity():
    """dim F_4 equals the sum over k <= 4 of the entry sum of C^k, exactly,
    for 20 random quivers."""
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    for _ in range(20):
        q = random_quiver(rng, max_n=4, max_entry=2)
        space = FockSpace(q, 4)
        expected = sum(
            int(np.linalg.matrix_power(q.matrix(), k).sum()) for k in range(5)
        )
        assert space.dim == expected
    elapsed = time.perf_counter() - t0
    _report(8, True, elapsed, "20 exact integer dimension identities")
