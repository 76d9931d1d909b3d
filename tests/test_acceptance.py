"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is exact; the only numeric thresholds are the two
wall-clock budgets stated alongside the criteria.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from delib.cli import main as cli_main
from delib.dynamics import (
    AdversarialScheduler,
    Coalition,
    CoalitionStructure,
    RandomScheduler,
    Transition,
    coalition_weight,
    enumerate_compromises,
    is_successful,
    run_deliberation,
    singleton_structure,
    validate_transition,
)
from delib.generators import (
    gen_euc_slow,
    gen_exp_compromise,
    gen_random,
    reduce_3sat_to_euc,
    reduce_is_to_hyp,
    verify_exp_compromise,
)
from delib.grid import grid_converge
from delib.solvers import (
    hyp_unanimous_proposal,
    solve_euc_cells,
    solve_euc_perfect,
    solve_euc_subsets,
    solve_hyp_bruteforce,
    solve_hyp_popular_via_ilp,
)
from delib.space import Agent, DeliberationSpace, Kind, grid_point, score


def report(number, title, detail):
    print(f"ACCEPTANCE {number} PASS  {title}: {detail}")


def test_criterion_1_hypercube_oracle_equivalence():
    rng = random.Random(0xC1)
    start = time.monotonic()
    for trial in range(200):
        n, d = rng.randint(1, 5), rng.randint(1, 10)
        space = gen_random("hypercube", n, d, seed=rng.randrange(2 ** 31))
        brute = solve_hyp_bruteforce(space)
        ilp = solve_hyp_popular_via_ilp(space)
        assert brute.best_score == ilp.best_score, (trial, n, d)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 exceeded its 60 s budget: {elapsed:.1f}s"
    report(1, "hypercube oracle equivalence", f"200 instances agree, {elapsed:.1f}s")


def test_criterion_2_euclidean_oracle_equivalence():
    rng = random.Random(0xC2)
    start = time.monotonic()
    for trial in range(200):
        n, d = rng.randint(1, 8), rng.randint(1, 3)
        space = gen_random("euclidean", n, d, seed=rng.randrange(2 ** 31))
        subsets = solve_euc_subsets(space)
        cells = solve_euc_cells(space)
        assert subsets.best_score == cells.best_score, (trial, n, d)
        perfect = solve_euc_perfect(space)
        assert (perfect is not None) == (subsets.best_score == space.total_weight), trial
    elapsed = time.monotonic() - start
    report(2, "Euclidean oracle equivalence", f"200 instances agree, {elapsed:.1f}s")


def test_criterion_3_potential_law():
    rng = random.Random(0xC3)
    runs = 0
    for trial in range(100):
        euclidean = trial % 2 == 0
        n = rng.randint(2, 8)
        if euclidean:
            space = gen_random("euclidean", n, rng.randint(1, 3), seed=rng.randrange(2 ** 31))
        else:
            space = gen_random("hypercube", n, rng.randint(2, 6), seed=rng.randrange(2 ** 31))
        trace = run_deliberation(
            space, singleton_structure(space), RandomScheduler(), k=2, seed=rng.randrange(2 ** 31)
        )
        assert all(s.phi_after - s.phi_before >= 1 for s in trace.steps), trial
        assert trace.total_steps <= 2 ** space.n, trial
        assert trace.terminal
        if euclidean:
            popular = solve_euc_subsets(space).best_score
            assert is_successful(space, trace.final, popular), trial
        runs += 1
    report(3, "potential law", f"{runs} runs: every step raised phi, Euclidean runs successful")


def test_criterion_4_slow_convergence():
    start = time.monotonic()
    counts = {}
    for n in (64, 100):
        fam = gen_euc_slow(n)
        trace = run_deliberation(
            fam.space,
            singleton_structure(fam.space),
            AdversarialScheduler(fam.support_oracle),
            k=2,
            seed=0,
            record_steps=False,  # 1.5M transitions at n=100; each is validated inline
        )
        root = int(n ** 0.5)
        assert root * root == n and root % 2 == 0
        # (2/3) * (2^(sqrt(n)/2) - 2n / 2^(sqrt(n)/2)), exact since sqrt(n) is even
        half_pow = 2 ** (root // 2)
        lower = Fraction(2, 3) * (Fraction(half_pow) - Fraction(2 * n, half_pow))
        assert trace.total_steps > lower, (n, trace.total_steps, lower)
        counts[n] = (trace.total_steps, lower)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 4 exceeded its 5 min budget: {elapsed:.1f}s"
    detail = ", ".join(
        f"n={n}: {steps} steps > {float(low):.2f}" for n, (steps, low) in counts.items()
    )
    report(4, "slow convergence", f"{detail}; {elapsed:.0f}s")


def _all_graphs(max_vertices):
    for m in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        for bits in range(1 << len(pairs)):
            yield m, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]


def _has_independent_set(m, edges, kappa):
    forbidden = {frozenset(e) for e in edges}
    return any(
        all(frozenset(p) not in forbidden for p in itertools.combinations(combo, 2))
        for combo in itertools.combinations(range(1, m + 1), kappa)
    )


def _sat_satisfiable(m, clauses):
    return any(
        all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses)
        for bits in itertools.product((0, 1), repeat=m)
    )


def test_criterion_5_reductions():
    graph_cases = 0
    for m, edges in _all_graphs(4):
        for kappa in range(1, min(3, m) + 1):
            cert = reduce_is_to_hyp(m, edges, kappa)
            assert cert.space.dim <= 13
            got = hyp_unanimous_proposal(cert.space) is not None
            expected = _has_independent_set(m, edges, kappa)
            assert got == expected, (m, edges, kappa)
            graph_cases += 1

    clauses_universe = [
        [s1 * 1, s2 * 2, s3 * 3] for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    ]
    formulas = [[cl] for cl in clauses_universe]
    formulas += [list(pair) for pair in itertools.combinations(clauses_universe, 2)]
    sat_cases = 0
    for clauses in formulas:
        cert = reduce_3sat_to_euc(3, clauses)
        assert len({a.position for a in cert.space.agents}) <= 11
        got = solve_euc_subsets(cert.space).best_score >= cert.eta
        expected = _sat_satisfiable(3, clauses)
        assert got == expected, clauses
        sat_cases += 1
    report(5, "reductions", f"{graph_cases} graph cases and {sat_cases} formulas, zero mismatches")


def test_criterion_6_exp_compromise_and_grid_examples():
    inst = gen_exp_compromise(28)
    assert inst.compromise_size == 2
    assert len(inst.seed_proposals) == 3
    assert inst.types_per_proposal == 162
    result = verify_exp_compromise(inst)
    assert result.passed, result.failures
    pivot_move = Transition(tuple(range(len(inst.initial.coalitions))), inst.pivot)
    new_members, reason = validate_transition(inst.space, inst.initial, pivot_move, k=3)
    assert new_members, reason
    new_weight = coalition_weight(inst.space, new_members)
    assert all(
        new_weight > coalition_weight(inst.space, c.members) for c in inst.initial.coalitions
    )

    five = DeliberationSpace(
        Kind.GRID,
        2,
        tuple(Agent(grid_point(*p)) for p in [(0, 1), (0, 1), (1, 1), (1, 1), (1, 0)]),
        grid_nonneg=True,
    )
    five_initial = CoalitionStructure(
        (
            Coalition(frozenset({0, 1}), grid_point(0, 1)),
            Coalition(frozenset({2, 3, 4}), grid_point(1, 0)),
        )
    )
    found = enumerate_compromises(five, five_initial, 2)
    assert found
    assert len(validate_transition(five, five_initial, found[0], 2)[0]) == 4
    assert found[0].new_proposal.coords() == (0, 1)

    nine = DeliberationSpace(
        Kind.GRID,
        2,
        tuple(
            Agent(grid_point(*p))
            for p in [(0, 1), (-1, 0), (-1, 0), (-1, 1), (-1, 1), (1, 1), (1, 1), (1, 0), (1, 0)]
        ),
    )
    nine_initial = CoalitionStructure(
        (
            Coalition(frozenset({1, 2, 3, 4}), grid_point(-1, 0)),
            Coalition(frozenset({5, 6, 7, 8}), grid_point(1, 0)),
            Coalition(frozenset({0}), grid_point(0, 1)),
        )
    )
    assert enumerate_compromises(nine, nine_initial, 2) == []
    three_way = enumerate_compromises(nine, nine_initial, 3)
    assert three_way
    assert len(validate_transition(nine, nine_initial, three_way[0], 3)[0]) == 5
    assert three_way[0].new_proposal.coords() == (0, 1)
    report(6, "exp-compromise and grid witnesses", "five checks pass; grid examples exact")


def test_criterion_7_grid_convergence(grid_window_popular):
    rng = random.Random(0xC7)
    for trial in range(100):
        nonneg = trial % 2 == 0
        n = rng.randint(1, 20)
        space = gen_random(
            "grid_nonneg" if nonneg else "grid", n, 2, seed=rng.randrange(2 ** 31), coord_range=(-5, 5)
        )
        trace = grid_converge(space)
        assert trace.total_steps <= n, trial
        best = max(score(space, c.proposal) for c in trace.final.coalitions)
        _, window_best = grid_window_popular(space)
        assert best == window_best, trial
        if nonneg:
            assert all(s.transition.ell <= 2 for s in trace.steps), trial
    report(7, "grid convergence", "100 instances: <= n transitions, windowed optimum reached")


def test_criterion_8_determinism(tmp_path):
    euc = tmp_path / "euc.json"
    for target in ("first", "second"):
        assert cli_main(
            ["generate", "--family", "euc-slow", "--n", "9", "--out", str(tmp_path / f"{target}.json")]
        ) == 0
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    (tmp_path / "first.json").rename(euc)
    traces = []
    for target in ("a.csv", "b.csv"):
        assert cli_main(
            ["simulate", "--space", str(euc), "--scheduler", "adversarial",
             "--seed", "1", "--trace", str(tmp_path / target)]
        ) == 0
        traces.append((tmp_path / target).read_bytes())
    assert traces[0] == traces[1]

    rnd = tmp_path / "rnd.json"
    assert cli_main(
        ["generate", "--family", "random", "--kind", "hypercube", "--n", "5",
         "--d", "6", "--seed", "11", "--out", str(rnd)]
    ) == 0
    reports = []
    for target in ("r1.json", "r2.json"):
        assert cli_main(["solve", "--space", str(rnd), "--json", str(tmp_path / target)]) == 0
        reports.append((tmp_path / target).read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert set(doc) == {"method", "score", "proposal", "supporters", "work"}
    report(8, "determinism", "generate, simulate, solve byte-identical on repeat")
