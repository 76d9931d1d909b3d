"""Popular-proposal solvers, one route per method.

Each :class:`Method` has one private route ``(space, limits, stop_below) ->
(proposal or None, work)``: the proposal the agents approve most, or None
when its score does not exceed ``stop_below``.  The public ``solve_*``
solvers check the space's kind and run their route in full, reporting a
score recomputed from the proposal, so cross-checking two solvers amounts
to comparing reports.  :func:`score_exceeds` and the compromise search in
:mod:`.dynamics` run a route with a threshold.

The routes are deliberately independent of each other: hypercube brute
force against the dimension-type ILP, and the subset LP against
hyperplane-arrangement cell enumeration, so each pair can act as oracle for
the other.

The hypercube brute force is the mask scan, :func:`_heaviest_mask`.  It is
word-parallel: Python ints serve as bitsets over 2^12 proposal masks at a
time, each position's approval set for such a chunk is one table lookup,
and the integer-scaled weights are summed in bit-sliced counters.  The same approval tables serve
the unanimity scan, :func:`hyp_unanimous_proposal`, which ANDs a chunk's
sets instead of adding weights.

All problems solved here are NP-hard in general; the exponential routes are
protected by explicit guards and fail loudly instead of hanging.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .linprog import solve_strict_rows
from .space import (
    Agent,
    DeliberationSpace,
    Kind,
    Point,
    approval_test,
    approver_indices,
    distinct_positions,
    euclidean_point,
    group_positions,
    grid_point,
    hypercube_point,
    score,
)

_ZERO = Fraction(0)


class GuardExceeded(RuntimeError):
    """An exponential search would exceed its configured guard."""


_GUARD_MESSAGES = {
    "hyp_brute_max_dim": "brute force over 2^{size} proposals exceeds the guard (d <= {limit})",
    "ilp_max_groups": "{size} distinct positions exceed the ILP guard ({limit})",
    "subset_max_groups": "{size} distinct positions exceed the subset guard ({limit})",
}


@dataclass(frozen=True)
class SolverLimits:
    """Size guards; exceeding one raises :class:`GuardExceeded`."""

    # At d = 26 on a 2-vCPU x86 machine, brute force over 8 random agents
    # takes 0.25 s in the mask scan.  When no proposal is unanimous, the
    # unanimity scan takes 0.01-0.03 s on two antipodal agents at d = 26,
    # and 0.10-0.16 s at d = 25 on the kappa 4 independent-set reduction of
    # three disjoint triangles (37 distinct positions).
    hyp_brute_max_dim: int = 26
    ilp_max_groups: int = 10
    subset_max_groups: int = 22

    def check(self, guard: str, size: int) -> None:
        """Raise :class:`GuardExceeded` when ``size`` exceeds the field named ``guard``."""
        limit = getattr(self, guard)
        if size > limit:
            raise GuardExceeded(_GUARD_MESSAGES[guard].format(size=size, limit=limit))


DEFAULT_LIMITS = SolverLimits()


class Method(enum.Enum):
    HYP_BRUTE = "brute"
    HYP_TYPE_ILP = "ilp"
    EUC_SUBSET_LP = "subset-lp"
    EUC_CELLS = "cells"
    GRID_FOUR = "grid"


@dataclass(frozen=True)
class SolverReport:
    best_proposal: Point
    best_score: Fraction
    supporters: tuple[int, ...]
    method: Method
    work: int


# A route's answer: the proposal, or None when its score does not exceed
# ``stop_below``, and the work done.
_Found = tuple[Point | None, int]


def _report(space: DeliberationSpace, proposal: Point, method: Method, work: int) -> SolverReport:
    supporters = approver_indices(space, proposal)
    total = sum((space.agents[i].weight for i in supporters), _ZERO)
    return SolverReport(proposal, total, supporters, method, work)


def _over_common_denominator(weights: Iterable[Fraction]) -> tuple[int, list[int]]:
    """``(q, numerators)``: q is the lcm of the weights' denominators, and
    each weight is its numerator over q."""
    weights = list(weights)
    scale = math.lcm(*(w.denominator for w in weights))
    return scale, [w.numerator * (scale // w.denominator) for w in weights]


# ---------------------------------------------------------------------------
# Hypercube: exhaustive scan.


# The mask scan's chunk: proposals are tested 2^12 at a time, as the bits of
# one Python int indexed by the low 12 coordinates of the mask.
_CHUNK_BITS = 12


def _approval_table(low: int, width: int) -> list[int]:
    """The chunk-wide approval sets of one position's low ``width`` bits.

    Entry ``t + width + 1`` (t from -width-1 to width) is the bitset of the
    low masks ``lo`` with ``2|lo & low| - |lo| > t``.  It is built by doubling:
    the level sets of that difference over the first b bits, shifted by 2^b,
    give those with bit b set.
    """
    levels = {0: 1}
    for b in range(width):
        step, shift = (1 if low >> b & 1 else -1), 1 << b
        grown: dict[int, int] = {}
        for diff, bits in levels.items():
            grown[diff] = grown.get(diff, 0) | bits
            grown[diff + step] = grown.get(diff + step, 0) | bits << shift
        levels = grown
    above, acc = [], 0
    for t in range(width, -width - 2, -1):
        above.append(acc)
        acc |= levels.get(t, 0)
    above.reverse()
    return above


def _chunked_positions(masks: Iterable[int], d: int) -> tuple[int, list[tuple[list[int], int]]]:
    """The per-position set-up of the chunked mask scans.

    Returns the chunk width ``L = min(d, 12)`` and, per position mask in
    order, its ``(approval table, high bits)`` pair.  Positions sharing
    their low ``L`` bits share one :func:`_approval_table`.
    """
    width = min(d, _CHUNK_BITS)
    tables: dict[int, list[int]] = {}
    positions = []
    for mask in masks:
        low = mask & ((1 << width) - 1)
        if low not in tables:
            tables[low] = _approval_table(low, width)
        positions.append((tables[low], mask >> width))
    return width, positions


def _heaviest_mask(groups: Sequence[tuple[int, Fraction]], d: int) -> tuple[int, Fraction]:
    """First of the 2^d - 1 proposal masks with the largest approving weight.

    ``groups`` holds one ``(mask, weight)`` pair per position.  Masks are
    scanned in increasing order, which is lexicographic order on
    coordinates, so ties go to the lexicographically smallest proposal.

    The scan is word-parallel.  Write a mask as ``(h << L) | lo`` with
    ``L = min(d, 12)``; a position g approves it iff
    ``2|m & g| - |m| > 0``, and that difference splits into a part of ``lo``
    and a part of ``h``.  So for each chunk ``h`` a position's approval set
    over all 2^L low masks is one lookup in its :func:`_approval_table`.
    Weights are scaled to integers over their common denominator and added
    into bit-sliced counters, one 2^L-bit plane per bit of the total; the
    chunk's maximum is read from the top plane down, keeping the masks that
    have each plane's bit when any do.  A later chunk wins only when it is
    strictly heavier.
    """
    width, positions = _chunked_positions([mask for mask, _ in groups], d)
    scale, scaled = _over_common_denominator(w for _, w in groups)
    # (approval table, high bits, set bits of the scaled weight) per position
    scan = [(above, high, [j for j in range(iw.bit_length()) if iw >> j & 1])
            for (above, high), iw in zip(positions, scaled)]
    n_planes = sum(scaled).bit_length()
    everything = (1 << (1 << width)) - 1
    best_mask, best_value = None, 0
    for h in range(1 << (d - width)):
        size = h.bit_count()
        planes = [0] * n_planes
        for above, high, weight_bits in scan:
            t = size - 2 * (h & high).bit_count()
            if t > width:
                continue
            approving = above[max(t, -width - 1) + width + 1]
            for j in weight_bits:
                carry, k = approving, j
                while carry:
                    planes[k], carry = planes[k] ^ carry, planes[k] & carry
                    k += 1
        alive, value = everything if h else everything ^ 1, 0
        for k in range(n_planes - 1, -1, -1):
            top = alive & planes[k]
            if top:
                alive, value = top, value | 1 << k
        if best_mask is None or value > best_value:
            best_mask, best_value = h << width | ((alive & -alive).bit_length() - 1), value
    return best_mask, Fraction(best_value, scale)


def _brute_route(space: DeliberationSpace, limits: SolverLimits, stop_below: Fraction | None) -> _Found:
    """The mask scan over all 2^d - 1 proposals; ties go to the
    lexicographically smallest."""
    limits.check("hyp_brute_max_dim", space.dim)
    best_mask, best_weight = _heaviest_mask([(pos.data, w) for pos, w in distinct_positions(space)], space.dim)
    work = (1 << space.dim) - 1
    if stop_below is not None and best_weight <= stop_below:
        return None, work
    return hypercube_point(best_mask, space.dim), work


def hyp_unanimous_proposal(
    space: DeliberationSpace, limits: SolverLimits = DEFAULT_LIMITS
) -> Point | None:
    """First proposal approved by every agent, in increasing mask order.

    The scan is chunked like :func:`_heaviest_mask`: for each chunk ``h`` the
    unanimous set is the AND of the positions' approval sets, one table
    lookup each.  A chunk stops at the first position that empties the set,
    and the scan at the first chunk with a mask left.
    """
    _check_kind(space, Kind.HYPERCUBE)
    d = space.dim
    limits.check("hyp_brute_max_dim", d)
    width, positions = _chunked_positions((pos.data for pos, _ in distinct_positions(space)), d)
    everything = (1 << (1 << width)) - 1
    for h in range(1 << (d - width)):
        size = h.bit_count()
        alive = everything if h else everything ^ 1
        for above, high in positions:
            t = size - 2 * (h & high).bit_count()
            if t > width:
                alive = 0
                break
            alive &= above[max(t, -width - 1) + width + 1]
            if not alive:
                break
        if alive:
            return hypercube_point(h << width | ((alive & -alive).bit_length() - 1), d)
    return None


# ---------------------------------------------------------------------------
# Hypercube: dimension types and the membership ILP.


def _type_dimensions(space: DeliberationSpace, positions: Sequence[Point]) -> dict[int, list[int]]:
    """The dimensions of each signature (bit g = position g's coordinate).

    Dimensions sharing a signature are interchangeable, which is what makes
    the ILP formulation over per-type counters sound.
    """
    out: dict[int, list[int]] = {}
    for j in range(space.dim):
        bit = 1 << (space.dim - 1 - j)
        sig = sum(1 << g for g, pos in enumerate(positions) if pos.data & bit)
        out.setdefault(sig, []).append(j)
    return out


def _ilp_feasible(types: list[tuple[int, int]], n_groups: int, target: set[int]) -> dict[int, int] | None:
    """Depth-first search with interval pruning over the per-type counters.

    Row per group g: sum over types with bit g clear minus sum with bit g set,
    required <= -1 for g in the target set and >= 0 otherwise.
    """
    rows = []
    for g in range(n_groups):
        coeffs = [1 if not (sig >> g) & 1 else -1 for sig, _ in types]
        limit = -1 if g in target else 0
        rows.append((coeffs, limit, g in target))
    # The status quo is not a proposal: at least one coordinate must be set.
    rows.append(([1] * len(types), 1, False))
    nvars = len(types)
    partial = [0] * len(rows)
    # Remaining extreme contributions for suffixes of the variable order.
    suffix_min = [[0] * len(rows) for _ in range(nvars + 1)]
    suffix_max = [[0] * len(rows) for _ in range(nvars + 1)]
    for v in range(nvars - 1, -1, -1):
        _, count = types[v]
        for r, (coeffs, _, _) in enumerate(rows):
            lo = coeffs[v] * count if coeffs[v] < 0 else 0
            hi = coeffs[v] * count if coeffs[v] > 0 else 0
            suffix_min[v][r] = suffix_min[v + 1][r] + lo
            suffix_max[v][r] = suffix_max[v + 1][r] + hi
    assignment = [0] * nvars

    def feasible_here(v: int) -> bool:
        for r, (_, limit, member) in enumerate(rows):
            lo = partial[r] + suffix_min[v][r]
            hi = partial[r] + suffix_max[v][r]
            if member:
                if lo > limit:
                    return False
            else:
                if hi < limit:
                    return False
        return True

    def dfs(v: int) -> bool:
        if not feasible_here(v):
            return False
        if v == nvars:
            return True
        sig, count = types[v]
        for value in range(count + 1):
            assignment[v] = value
            for r, (coeffs, _, _) in enumerate(rows):
                partial[r] += coeffs[v] * value
            if dfs(v + 1):
                return True
            for r, (coeffs, _, _) in enumerate(rows):
                partial[r] -= coeffs[v] * value
        assignment[v] = 0
        return False

    if dfs(0):
        return {sig: assignment[i] for i, (sig, _) in enumerate(types)}
    return None


def _proposal_from_types(space: DeliberationSpace, by_type: dict[int, list[int]], counts: dict[int, int]) -> Point:
    mask = 0
    for sig, dims in by_type.items():
        k = counts.get(sig, 0)
        for j in dims[len(dims) - k:]:
            mask |= 1 << (space.dim - 1 - j)
    return hypercube_point(mask, space.dim)


def _subsets_by_weight_desc(weights: Sequence[Fraction]) -> Iterator[tuple[Fraction, tuple[int, ...]]]:
    """All nonempty index subsets, lazily, by descending total weight.

    Subsets are keyed by their sorted tuple of removed indices; children
    remove one further index beyond the last removed one, so each subset is
    generated exactly once.  The heap holds the weights as integers over
    their common denominator.
    """
    m = len(weights)
    scale, scaled = _over_common_denominator(weights)
    heap: list[tuple[int, tuple[int, ...]]] = [(-sum(scaled), ())]
    while heap:
        negw, removed = heapq.heappop(heap)
        gone = set(removed)
        kept = tuple(i for i in range(m) if i not in gone)
        if kept:
            yield Fraction(-negw, scale), kept
        start = removed[-1] + 1 if removed else 0
        for j in range(start, m):
            heapq.heappush(heap, (negw + scaled[j], removed + (j,)))


def _heaviest_feasible(
    weights: Sequence[Fraction], feasible: Callable[[tuple[int, ...]], object], stop_below: Fraction | None = None
) -> tuple[tuple[tuple[int, ...], Fraction, object] | None, int]:
    """Heaviest nonempty index subset whose ``feasible(kept)`` witness is not None.

    Scans subsets by descending weight, so the first feasible one is the
    maximum.  Returns ``((kept, weight, witness) or None, work)``, where
    ``work`` counts the subsets decided; the subset is ``None`` when nothing
    heavier than ``stop_below`` is feasible.
    """
    work = 0
    for weight, kept in _subsets_by_weight_desc(weights):
        if stop_below is not None and weight <= stop_below:
            return None, work
        work += 1
        witness = feasible(kept)
        if witness is not None:
            return (kept, weight, witness), work
    return None, work


def _type_ilp_route(space: DeliberationSpace, limits: SolverLimits, stop_below: Fraction | None) -> _Found:
    """``(proposal or None, work)`` of the heaviest position subset the membership ILP admits."""
    grouped = distinct_positions(space)
    limits.check("ilp_max_groups", len(grouped))
    by_type = _type_dimensions(space, [pos for pos, _ in grouped])
    types = sorted((sig, len(dims)) for sig, dims in by_type.items())
    weights = [w for _, w in grouped]
    found, work = _heaviest_feasible(weights, lambda kept: _ilp_feasible(types, len(grouped), set(kept)), stop_below)
    if found is None:
        return None, work
    return _proposal_from_types(space, by_type, found[2]), work


def best_strict_support(
    positions: Sequence[Point],
    weights: Sequence[Fraction],
    stop_below: Fraction | None = None,
) -> tuple[tuple[tuple[int, ...], Fraction, tuple[Fraction, ...]] | None, int]:
    """Heaviest position subset admitting a common strictly-approving direction.

    Runs :func:`_heaviest_feasible` with a strict-feasibility LP per subset.
    Only one-sided conditions are imposed: extra approvers of the witness can
    only add weight, and the scan order makes the first hit exact anyway.
    Returns ``((indices, weight, direction) or None, work)``.

    Each infeasible LP yields a verified certificate whose support (the rows
    with nonzero multipliers) is itself infeasible, so every later subset
    containing a recorded support is decided without an LP.
    """
    rows = [(">",) + p.data for p in positions]
    cores: list[int] = []  # certificate supports as bit masks over positions

    def feasible(kept: tuple[int, ...]) -> tuple[Fraction, ...] | None:
        mask = sum(1 << i for i in kept)
        if any(core & mask == core for core in cores):
            return None
        x, y = solve_strict_rows(positions[0].dim, [rows[i] for i in kept])
        if x is None and y is not None:
            cores.append(sum(1 << i for i, yi in zip(kept, y) if yi))
        return x

    return _heaviest_feasible(weights, feasible, stop_below)


def proposal_from_direction(positions: Sequence[Point], direction: Sequence[Fraction]) -> Point:
    """Scale a feasible direction into an actual approved proposal.

    Picks the positive rational epsilon with eps*||x||^2 < 2*min <v, x>, so
    every position with a strictly positive inner product approves eps*x.
    """
    sqnorm = sum(c * c for c in direction)
    inners = [sum(v * c for v, c in zip(p.coords(), direction)) for p in positions]
    m = min(i for i in inners if i > 0)
    eps = m / sqnorm
    return euclidean_point(tuple(eps * c for c in direction))


def _perfect_proposal(agents: Sequence[Agent]) -> Point | None:
    """A proposal every one of the Euclidean ``agents`` approves, or None."""
    positions = [pos for pos, _ in group_positions(agents)]
    x, _ = solve_strict_rows(positions[0].dim, [(">",) + p.data for p in positions])
    if x is None:
        return None
    return proposal_from_direction(positions, x)


def _subset_lp_route(space: DeliberationSpace, limits: SolverLimits, stop_below: Fraction | None) -> _Found:
    """The proposal of the heaviest strict support among the distinct
    positions (:func:`best_strict_support`)."""
    grouped = distinct_positions(space)
    limits.check("subset_max_groups", len(grouped))
    positions = [pos for pos, _ in grouped]
    found, work = best_strict_support(positions, [w for _, w in grouped], stop_below)
    if found is None:
        return None, work
    kept, _, direction = found
    return proposal_from_direction([positions[i] for i in kept], direction), work


def solve_euc_perfect(space: DeliberationSpace) -> Point | None:
    """A proposal approved by every agent, or None when no such point exists."""
    _check_kind(space, Kind.EUCLIDEAN)
    proposal = _perfect_proposal(space.agents)
    if proposal is None:
        return None
    test = approval_test(space, proposal)
    if not all(test(a) for a in space.agents):
        raise ValueError("the strictly feasible direction lost an agent's approval")
    return proposal


def _cells_scan_cost(n: int, d: int) -> int:
    """Estimated cost of the cells scan over ``n`` distinct positions in R^d.

    Before position m + 1 the scan holds at most about 2 * sum_{k<d} C(m-1, k)
    sign patterns, the cells of a central arrangement of m hyperplanes in
    general position, and extending one solves an LP over m + 1 rows, whose
    cost grows about as (m + 1)^2: more rows take more pivots, and each pivot
    updates every row.
    """
    return sum(
        (2 * sum(math.comb(m - 1, k) for k in range(d)) if m else 1) * (m + 1) ** 2
        for m in range(n)
    )


# The cells guard: the estimate at 32 positions in R^3.  On a 2-vCPU x86
# machine, random instances with distinct positions at the largest accepted
# sizes took 3.4-3.7 s at 32 positions in R^3, 0.9-1.1 s at 59 in R^2 and
# 0.6-0.8 s at 212 in R^1; the rejected 33 positions in R^3 took 4.1-4.7 s,
# and 40 took 7.6-10.2 s.
_CELLS_SCAN_BUDGET = _cells_scan_cost(32, 3)


def _cells_route(space: DeliberationSpace, limits: SolverLimits, stop_below: Fraction | None) -> _Found:
    """Popular proposal via the incremental sign patterns of the normal arrangement.

    Maintains the achievable patterns of (sign <v_1, x>, ..., sign <v_i, x>)
    with signs collapsed to {positive, non-positive}; each pattern carries a
    witness direction, so one of the two extensions per pattern is free and
    the other costs one strict-feasibility LP.  The supported set of a
    pattern is its strictly-positive coordinate set.  An infeasible
    extension's certificate names signs on a few positions that no direction
    achieves; later extensions with those signs are decided without an LP.

    The proposal is that of the first heaviest complete pattern, scaled
    from its witness, and the work counts the extensions decided.  With
    ``stop_below`` the scan answers only whether some pattern is heavier: a
    pattern that cannot outweigh it even with every position not yet placed
    is dropped before its LP, and the first pattern heavier than it is
    returned at once.
    """
    grouped = distinct_positions(space)
    d = space.dim
    if _cells_scan_cost(len(grouped), d) > _CELLS_SCAN_BUDGET:
        raise GuardExceeded(f"{len(grouped)} distinct positions in R^{d} exceed the cells guard")
    positions = [pos for pos, _ in grouped]
    weights = [w for _, w in grouped]
    unplaced = sum(weights, _ZERO)
    if stop_below is not None:  # only the empty pattern weighs 0, and it is no proposal
        stop_below = max(stop_below, _ZERO)

    def proposal(plus: int, witness: tuple[Fraction, ...]) -> Point:
        return proposal_from_direction([p for j, p in enumerate(positions) if plus >> j & 1], witness)

    work = 0
    # Certificate supports: (positive, non-positive) position masks no direction achieves.
    cores: list[tuple[int, int]] = []
    # Each entry: (mask of the positive positions so far, their weight, witness direction).
    patterns: list[tuple[int, Fraction, tuple[Fraction, ...]]] = [(0, _ZERO, (_ZERO,) * d)]
    for i, pos in enumerate(positions):
        pairs, bit, wi = pos.data[1], 1 << i, weights[i]
        unplaced -= wi
        extended = []
        for plus, w, witness in patterns:
            w_other = w + wi
            if sum(c * witness[j] for j, c in pairs) > 0:
                plus, w, w_other = plus | bit, w_other, w
            if stop_below is None or w + unplaced > stop_below:
                if stop_below is not None and w > stop_below:
                    return proposal(plus, witness), work
                extended.append((plus, w, witness))
            work += 1
            if stop_below is not None and w_other + unplaced <= stop_below:
                continue
            other = plus ^ bit
            if any(cp & other == cp and not cn & other for cp, cn in cores):
                continue
            rows = [(">" if other >> j & 1 else "<=",) + positions[j].data for j in range(i + 1)]
            x, y = solve_strict_rows(d, rows)
            if x is not None:
                if stop_below is not None and w_other > stop_below:
                    return proposal(other, x), work
                extended.append((other, w_other, x))
            elif y is not None:
                support = sum(1 << j for j, yj in enumerate(y) if yj)
                cores.append((support & other, support & ~other))
        patterns = extended
    if stop_below is not None:
        return None, work
    plus, _, witness = max(patterns, key=lambda pattern: pattern[1])
    return proposal(plus, witness), work


# ---------------------------------------------------------------------------
# Grid.


def grid_targets(nonneg: bool) -> tuple[Point, ...]:
    """The unit proposals that dominate every grid proposal's support."""
    targets = (grid_point(1, 0), grid_point(0, 1), grid_point(-1, 0), grid_point(0, -1))
    return targets[:2] if nonneg else targets


def _grid_route(space: DeliberationSpace, limits: SolverLimits, stop_below: Fraction | None) -> _Found:
    """The first most approved unit target, which is globally popular: every
    proposal's approvers are among some target's."""
    targets = grid_targets(space.grid_nonneg)
    best, best_score = None, stop_below
    for t in targets:
        s = score(space, t)
        if best_score is None or s > best_score:
            best, best_score = t, s
    return best, len(targets)


# ---------------------------------------------------------------------------
# Dispatch.

# Per method: the space kind it solves, its route, and its public solver's
# name.  solve_popular looks the solver up by name when called, so that
# rebinding the module attribute (as bench/tracing.py does to time and count
# solves) takes effect.
_ROUTES = {
    Method.HYP_BRUTE: (Kind.HYPERCUBE, _brute_route, "solve_hyp_bruteforce"),
    Method.HYP_TYPE_ILP: (Kind.HYPERCUBE, _type_ilp_route, "solve_hyp_popular_via_ilp"),
    Method.EUC_SUBSET_LP: (Kind.EUCLIDEAN, _subset_lp_route, "solve_euc_subsets"),
    Method.EUC_CELLS: (Kind.EUCLIDEAN, _cells_route, "solve_euc_cells"),
    Method.GRID_FOUR: (Kind.GRID, _grid_route, "solve_grid_four"),
}

_METHODS = {"auto": None, **{m.value: m for m in Method}}


def _check_kind(space: DeliberationSpace, kind: Kind) -> None:
    if space.kind is not kind:
        name = "Euclidean" if kind is Kind.EUCLIDEAN else kind.value
        raise ValueError(f"{name} solver called on a non-{name} space")


def _run_route(
    method: Method, space: DeliberationSpace, limits: SolverLimits, stop_below: Fraction | None
) -> _Found:
    """``(proposal or None, work)`` of ``method``'s route on a space of its kind."""
    return _ROUTES[method][1](space, limits, stop_below)


def _solve(space: DeliberationSpace, method: Method, limits: SolverLimits) -> SolverReport:
    _check_kind(space, _ROUTES[method][0])
    proposal, work = _run_route(method, space, limits, None)
    if proposal is None:
        raise AssertionError("no proposal found; every agent approves its own position")
    return _report(space, proposal, method, work)


def solve_hyp_bruteforce(space: DeliberationSpace, limits: SolverLimits = DEFAULT_LIMITS) -> SolverReport:
    """Scan all 2^d - 1 proposals; ties go to the lexicographically smallest."""
    return _solve(space, Method.HYP_BRUTE, limits)


def solve_hyp_popular_via_ilp(space: DeliberationSpace, limits: SolverLimits = DEFAULT_LIMITS) -> SolverReport:
    """Popular proposal by scanning position subsets with the membership ILP."""
    return _solve(space, Method.HYP_TYPE_ILP, limits)


def solve_euc_subsets(space: DeliberationSpace, limits: SolverLimits = DEFAULT_LIMITS) -> SolverReport:
    """Popular proposal by scanning subsets of distinct positions with LPs."""
    return _solve(space, Method.EUC_SUBSET_LP, limits)


def solve_euc_cells(space: DeliberationSpace, limits: SolverLimits = DEFAULT_LIMITS) -> SolverReport:
    """Popular proposal via the sign patterns of the normal arrangement."""
    return _solve(space, Method.EUC_CELLS, limits)


def solve_grid_four(space: DeliberationSpace, limits: SolverLimits = DEFAULT_LIMITS) -> SolverReport:
    """Popular proposal among the axis unit targets (which is globally popular)."""
    return _solve(space, Method.GRID_FOUR, limits)


def _auto_method(space: DeliberationSpace) -> Method:
    """The route ``auto`` takes: by kind, then by dimension."""
    if space.kind is Kind.HYPERCUBE:
        return Method.HYP_BRUTE if space.dim <= 20 else Method.HYP_TYPE_ILP
    if space.kind is Kind.EUCLIDEAN:
        return Method.EUC_CELLS if space.dim <= 3 else Method.EUC_SUBSET_LP
    return Method.GRID_FOUR


def score_exceeds(
    space: DeliberationSpace, threshold: Fraction, limits: SolverLimits = DEFAULT_LIMITS
) -> bool:
    """Whether some proposal scores more than ``threshold``.

    Runs the route ``auto`` takes, with ``stop_below=threshold``, so the
    same guard fires first; a hypercube within the ILP guard, where no guard
    fires, runs the type ILP.  The subset scans and the cells scan stop at
    the first proposal heavier than the threshold, and at a threshold of at
    least the total weight the answer is no without an LP.
    """
    if space.kind is Kind.HYPERCUBE and len(distinct_positions(space)) <= limits.ilp_max_groups:
        method = Method.HYP_TYPE_ILP
    else:
        method = _auto_method(space)
    proposal, _ = _run_route(method, space, limits, threshold)
    return proposal is not None


def solve_popular(
    space: DeliberationSpace, method: str = "auto", limits: SolverLimits = DEFAULT_LIMITS
) -> SolverReport:
    """Dispatch to a solver; ``auto`` picks by kind and instance size."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    chosen = _METHODS[method] or _auto_method(space)
    return globals()[_ROUTES[chosen][2]](space, limits)
