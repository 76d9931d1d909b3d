"""Independent checkers for the benchmark's outputs.

Nothing here imports ``delib``: each checker recomputes what it checks from
the input files and the command outputs, with its own code.  Every checker
raises :class:`CheckFailed` with a one-line reason when an output is wrong.

Run ``python3 bench/checkers.py`` for the self-tests.  Each self-test feeds
its checker a right answer, which must pass, and a deliberately wrong one,
which must be rejected.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

TRACE_HEADER = "step,ell,participant_sizes,new_size,phi_before,phi_after"


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Adversarial pairing schedule, replayed on coalition sizes alone.


def adversarial_replay(n: int) -> list[tuple[int, int, int]]:
    """(smaller, larger, new) sizes of every step of the slow pairing rule.

    Merge the first repeated size of a left-to-right scan (else the two
    smallest coalitions) into one coalition one larger than the larger
    participant; the smaller keeps floor((a-1)/2) members behind, the larger
    the rest.  Survivors keep their order, then the new coalition, then the
    non-empty leftovers, smaller participant first.
    """
    sizes = [1] * n
    steps = []
    while len(sizes) >= 2:
        seen: dict[int, int] = {}
        pick = None
        for i, s in enumerate(sizes):
            if s in seen:
                pick = (seen[s], i)
                break
            seen[s] = i
        if pick is None:
            pick = tuple(sorted(range(len(sizes)), key=lambda j: (sizes[j], j))[:2])
        i, j = pick
        a, b = sizes[i], sizes[j]
        if a > b:
            i, j, a, b = j, i, b, a
        left_small = (a - 1) // 2
        take_small = a - left_small
        left_large = b - ((b + 1) - take_small)
        rest = [s for k, s in enumerate(sizes) if k not in (i, j)]
        rest.append(b + 1)
        rest.extend(x for x in (left_small, left_large) if x)
        sizes = rest
        steps.append((a, b, b + 1))
    return steps


def slow_lower_bound(n: int) -> float:
    """Closed-form lower bound on the slow family's step count."""
    root = math.sqrt(n)
    return (2.0 / 3.0) * (2 ** (root / 2) - 2 * n / 2 ** (root / 2))


def check_adversarial(n: int, steps: int, csv_text: str):
    """The step count and every row's sizes follow the size-only replay."""
    replay = adversarial_replay(n)
    _require(steps == len(replay), f"adversarial n={n}: {steps} steps, replay gives {len(replay)}")
    _require(steps > slow_lower_bound(n), f"adversarial n={n}: {steps} steps do not beat the lower bound")
    rows = csv_text.splitlines()[1:]
    _require(len(rows) == steps, f"adversarial n={n}: {len(rows)} trace rows for {steps} steps")
    for lineno, (row, (a, b, new)) in enumerate(zip(rows, replay)):
        parts = row.split(",")
        got = sorted(int(s) for s in parts[2].split("+"))
        _require(got == [a, b] and int(parts[3]) == new, f"adversarial n={n}: row {lineno} differs from the replay")


# ---------------------------------------------------------------------------
# Source problems of the reductions, by brute force.


def satisfiable(num_vars: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


def independence_number(num_vertices: int, edges) -> int:
    adjacent = {frozenset(e) for e in edges}
    best = 0
    for size in range(1, num_vertices + 1):
        if any(
            all(frozenset(p) not in adjacent for p in itertools.combinations(combo, 2))
            for combo in itertools.combinations(range(1, num_vertices + 1), size)
        ):
            best = size
        else:
            break
    return best


def check_sat_reduction(num_vars: int, clauses, reaches_eta: bool):
    expected = satisfiable(num_vars, clauses)
    _require(reaches_eta == expected, f"3-SAT reduction reaches eta={reaches_eta}, formula satisfiable={expected}")


def check_is_reduction(num_vertices: int, edges, kappa: int, unanimous: bool):
    expected = independence_number(num_vertices, edges) >= kappa
    _require(unanimous == expected, f"independent-set reduction unanimous={unanimous}, set of size {kappa} exists={expected}")


# ---------------------------------------------------------------------------
# Exact approval recount, read straight from instance files.


def read_instance(text: str) -> tuple[str, list[tuple[tuple, Fraction]]]:
    """(kind tag, [(coordinates, weight)]) of an instance file."""
    doc = json.loads(text)
    kind = doc["kind"]
    agents = []
    for a in doc["agents"]:
        if kind == "euclidean":
            coords = tuple(Fraction(c) for c in a["coords"])
        else:
            coords = tuple(int(c) for c in a["coords"])
        agents.append((coords, Fraction(a.get("weight", "1"))))
    return kind, agents


def parse_point(text: str) -> tuple:
    """A ``proposal=(...)`` value as printed by ``delib solve``."""
    return tuple(Fraction(c) for c in text.strip().strip("()").split(","))


def approves(kind: str, agent: tuple, proposal: tuple) -> bool:
    if kind == "hypercube":
        # |X| < 2 |V cap X|
        return sum(proposal) < 2 * sum(v & p for v, p in zip(agent, proposal))
    if kind == "euclidean":
        # ||p||^2 < 2 <v, p>
        return sum(p * p for p in proposal) < 2 * sum(v * p for v, p in zip(agent, proposal))
    # grid, l1 distance: |v - p|_1 < |v|_1
    return sum(abs(v - p) for v, p in zip(agent, proposal)) < sum(abs(v) for v in agent)


def recount(kind: str, agents, proposal: tuple) -> Fraction:
    _require(any(proposal), "the status quo was returned as a proposal")
    proposal = tuple(int(c) for c in proposal) if kind != "euclidean" else proposal
    return sum((w for coords, w in agents if approves(kind, coords, proposal)), Fraction(0))


def check_score(kind: str, agents, proposal: tuple, reported: Fraction):
    got = recount(kind, agents, proposal)
    _require(got == reported, f"{kind} proposal {proposal}: reported score {reported}, recount {got}")


def best_unit_target(kind: str, agents) -> Fraction:
    """The best axis unit proposal's score; it is the grid optimum."""
    targets = [(1, 0), (0, 1)]
    if kind == "grid":
        targets += [(-1, 0), (0, -1)]
    return max(recount("grid", agents, t) for t in targets)


# ---------------------------------------------------------------------------
# Trace CSV laws.


def check_trace(csv_text: str, n: int, k: int = 2):
    """Growth, conservation, the potential chain and ell bounds, row by row.

    Unit weights and a singleton start are assumed, so the first row's
    potential is -n + 2n = n and no potential exceeds 2^n - 1.
    """
    lines = csv_text.splitlines()
    _require(bool(lines) and lines[0] == TRACE_HEADER, "trace header")
    prev = n
    for lineno, line in enumerate(lines[1:]):
        parts = line.split(",")
        _require(len(parts) == 6, f"trace row {lineno}: {len(parts)} fields")
        step, ell, sizes_s, new_size, phi_b, phi_a = parts
        sizes = [int(s) for s in sizes_s.split("+")]
        ell, new_size = int(ell), int(new_size)
        _require(int(step) == lineno, f"trace row {lineno}: step numbering")
        _require(2 <= ell <= k and len(sizes) == ell, f"trace row {lineno}: ell outside 2..{k}")
        _require(all(new_size > s for s in sizes), f"trace row {lineno}: growth")
        _require(new_size <= sum(sizes), f"trace row {lineno}: conservation")
        before, after = int(phi_b), int(phi_a)
        _require(before == prev, f"trace row {lineno}: potential chain")
        _require(after - before >= 1 and after <= 2 ** n - 1, f"trace row {lineno}: potential")
        prev = after
    if k == 2:
        _require(len(lines) - 1 <= 2 ** n, "more than 2^n transitions")


# ---------------------------------------------------------------------------
# Self-tests.


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def _csv(rows) -> str:
    return "\n".join([TRACE_HEADER, *rows]) + "\n"


def _expect(cond: bool, what: str):
    if not cond:
        raise RuntimeError(f"checker self-test failed: {what}")


def selftest():
    """Each checker accepts a right answer and rejects a wrong one."""
    counts = [len(adversarial_replay(n)) for n in (9, 16, 36, 64)]
    _expect(counts == [22, 95, 1816, 47479], f"replay step counts {counts}")
    replay = adversarial_replay(9)
    good = _csv([f"{i},2,{a}+{b},{new},0,0" for i, (a, b, new) in enumerate(replay)])
    check_adversarial(9, 22, good)
    _expect(_rejects(check_adversarial, 9, 23, good), "wrong adversarial step count")
    bad_row = good.replace(",2,1+1,2,", ",2,1+1,3,", 1)
    _expect(_rejects(check_adversarial, 9, 22, bad_row), "wrong adversarial row")

    unsat = [[a * 1, b * 2, c * 3] for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    check_sat_reduction(3, unsat, False)
    check_sat_reduction(3, unsat[:7], True)
    _expect(_rejects(check_sat_reduction, 3, unsat, True), "unsatisfiable formula reaching eta")
    _expect(_rejects(check_sat_reduction, 3, unsat[:7], False), "satisfiable formula missing eta")
    cycle = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    check_is_reduction(5, cycle, 2, True)
    check_is_reduction(5, cycle, 3, False)
    _expect(_rejects(check_is_reduction, 5, cycle, 3, True), "unanimity without an independent set")

    hyp = [((1, 1, 0), Fraction(1)), ((0, 1, 1), Fraction(2)), ((1, 0, 0), Fraction(1))]
    check_score("hypercube", hyp, (0, 1, 0), Fraction(3))
    _expect(_rejects(check_score, "hypercube", hyp, (0, 1, 0), Fraction(4)), "wrong hypercube score")
    euc = [((Fraction(1), Fraction(0)), Fraction(1)), ((Fraction(0), Fraction(1)), Fraction(1))]
    half = (Fraction(1, 2), Fraction(1, 2))
    check_score("euclidean", euc, half, Fraction(2))
    check_score("euclidean", euc, (Fraction(1), Fraction(1)), Fraction(0))  # on both boundaries
    _expect(_rejects(check_score, "euclidean", euc, (Fraction(1), Fraction(1)), Fraction(2)), "boundary counted")
    grid = [((2, 0), Fraction(1)), ((1, 1), Fraction(1)), ((0, -3), Fraction(1))]
    check_score("grid", grid, (1, 0), Fraction(2))
    _expect(best_unit_target("grid", grid) == 2, "grid unit target")
    _expect(_rejects(check_score, "grid", grid, (0, -1), Fraction(2)), "wrong grid score")
    _expect(_rejects(check_score, "grid", grid, (0, 0), Fraction(0)), "status quo as a proposal")

    # Singletons 1,1,1 -> {2},1 -> {3}: potentials 3 -> 4 -> 7.
    trace = _csv(["0,2,1+1,2,3,4", "1,2,2+1,3,4,7"])
    check_trace(trace, 3)
    for what, wrong in (
        ("growth", trace.replace("1,3,4,7", "1,2,4,7")),
        ("potential chain", trace.replace("1,2,2+1,3,4,7", "1,2,2+1,3,5,7")),
        ("potential rise", trace.replace("0,2,1+1,2,3,4", "0,2,1+1,2,3,3")),
        ("ell", trace.replace("1,2,2+1,3,4,7", "1,3,2+1,3,4,7")),
        ("conservation", _csv(["0,2,1+1,3,3,4"])),
    ):
        _expect(_rejects(check_trace, wrong, 3), f"trace without {what}")


if __name__ == "__main__":
    selftest()
    print("checkers self-test: pass")
