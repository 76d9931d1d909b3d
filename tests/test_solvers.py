"""Every solver against spec'd values and an independent oracle.

The brute-force oracle here is test-local and tuple-based, deliberately not
sharing code with the package's mask-based scan; the planar Euclidean
oracle is the angular sweep, not an LP.
"""

import heapq
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delib import solvers
from delib.generators import gen_euc_slow, gen_hyp_slow, gen_random, reduce_3sat_to_euc, reduce_is_to_hyp
from delib.linprog import solve_strict_rows
from delib.solvers import (
    GuardExceeded,
    Method,
    best_strict_support,
    hyp_unanimous_proposal,
    solve_euc_cells,
    solve_euc_perfect,
    solve_euc_subsets,
    solve_grid_four,
    solve_hyp_bruteforce,
    solve_hyp_popular_via_ilp,
    solve_popular,
    score_exceeds,
)
from delib.space import (
    Agent,
    DeliberationSpace,
    Kind,
    Point,
    approval_test,
    approver_indices,
    distinct_positions,
    euclidean_point,
    grid_point,
    hypercube_point,
    score,
)


def local_hyp_popular(space):
    """Tuple-based exhaustive oracle, independent of the mask scan."""
    d = space.dim
    agents = [(a.position.coords(), a.weight) for a in space.agents]
    best = Fraction(0)
    for bits in itertools.product((0, 1), repeat=d):
        if not any(bits):
            continue
        w = Fraction(0)
        for coords, weight in agents:
            dist = sum(b != c for b, c in zip(bits, coords))
            home = sum(coords)
            if dist < home:
                w += weight
        best = max(best, w)
    return best


def local_euc_popular_2d(space):
    """Angular sweep with symbolic perturbation; exact for d <= 2."""
    pts = [(a.position.coords(), a.weight) for a in space.agents]
    if space.dim == 1:
        best = Fraction(0)
        for direction in (Fraction(1), Fraction(-1)):
            w = sum((wt for (x,), wt in pts if x * direction > 0), Fraction(0))
            best = max(best, w)
        return best
    candidates = []
    for (vx, vy), _ in pts:
        candidates.append(((vx, vy), None))
        candidates.append(((-vy, vx), (vx, vy)))
        candidates.append(((vy, -vx), (vx, vy)))
    best = Fraction(0)
    for u, tie in candidates:
        w = Fraction(0)
        for (vx, vy), wt in pts:
            primary = vx * u[0] + vy * u[1]
            if primary > 0:
                w += wt
            elif primary == 0 and tie is not None and vx * tie[0] + vy * tie[1] > 0:
                w += wt
        best = max(best, w)
    return best


def hyp_space(coord_lists, weights=None):
    weights = weights or [1] * len(coord_lists)
    return DeliberationSpace(
        Kind.HYPERCUBE,
        len(coord_lists[0]),
        tuple(Agent(hypercube_point(c), Fraction(w)) for c, w in zip(coord_lists, weights)),
    )


def euc_space(coord_lists, weights=None):
    weights = weights or [1] * len(coord_lists)
    return DeliberationSpace(
        Kind.EUCLIDEAN,
        len(coord_lists[0]),
        tuple(Agent(euclidean_point(c), Fraction(w)) for c, w in zip(coord_lists, weights)),
    )


class TestHypBruteforce:
    def test_slow_family_n2(self):
        space = gen_hyp_slow(2).space
        assert local_hyp_popular(space) == 1  # oracle first
        report = solve_hyp_bruteforce(space)
        assert report.best_score == 1
        assert report.work == 15

    def test_single_agent(self):
        space = hyp_space([[1, 1, 0]])
        report = solve_hyp_bruteforce(space)
        assert report.best_score == 1

    def test_triangle_reduction_has_no_unanimous(self):
        # a triangle has no independent set of two vertices
        cert = reduce_is_to_hyp(3, [(1, 2), (2, 3), (1, 3)], 2)
        report = solve_hyp_bruteforce(cert.space)
        assert report.best_score < cert.space.total_weight
        assert hyp_unanimous_proposal(cert.space) is None

    def test_tie_break_lexicographic(self):
        space = hyp_space([[1, 0], [0, 1]])
        report = solve_hyp_bruteforce(space)
        # both agents alone score 1; ties go to the smallest coordinate tuple
        assert report.best_proposal.coords() == (0, 1)

    def test_guard(self):
        assert solve_hyp_bruteforce(hyp_space([[1] + [0] * 25])).best_score == 1
        with pytest.raises(GuardExceeded, match=r"^brute force over 2\^27 proposals exceeds the guard \(d <= 26\)$"):
            solve_hyp_bruteforce(hyp_space([[1] + [0] * 26]))
        with pytest.raises(GuardExceeded, match=r"^brute force over 2\^30 proposals exceeds the guard \(d <= 26\)$"):
            solve_hyp_bruteforce(hyp_space([[1] + [0] * 29]))

    def test_unanimity_guard(self):
        assert hyp_unanimous_proposal(hyp_space([[1] + [0] * 25])) is not None
        with pytest.raises(GuardExceeded, match=r"^brute force over 2\^27 proposals exceeds the guard \(d <= 26\)$"):
            hyp_unanimous_proposal(hyp_space([[1] + [0] * 26]))

    def test_report_consistency(self):
        space = gen_hyp_slow(3).space
        report = solve_hyp_bruteforce(space)
        assert report.best_score == score(space, report.best_proposal)
        test = approval_test(space, report.best_proposal)
        assert all(test(space.agents[i]) for i in report.supporters)


_ZERO = Fraction(0)


def reference_heaviest_mask(groups, d):
    """The scalar mask loop that ``solvers._heaviest_mask`` replaced, kept
    verbatim as the reference for the word-parallel scan."""
    best_mask, best_weight = None, _ZERO
    for mask in range(1, 1 << d):
        size = mask.bit_count()
        w = _ZERO
        for gmask, gw in groups:
            if size < 2 * (gmask & mask).bit_count():
                w += gw
        if w > best_weight or best_mask is None:
            best_mask, best_weight = mask, w
    return best_mask, best_weight


class TestMaskScan:
    """``_heaviest_mask`` against the scalar loop, on both sides of its
    12-bit chunk."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 16), st.data())
    def test_matches_scalar_loop(self, d, data):
        pool = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=4))
        weights = st.builds(Fraction, st.integers(1, 50), st.integers(1, 12))
        groups = data.draw(st.lists(st.tuples(st.sampled_from(pool), weights), min_size=1, max_size=10))
        assert solvers._heaviest_mask(groups, d) == reference_heaviest_mask(groups, d)

    @pytest.mark.parametrize("d", [17, 18])
    def test_unit_weights_past_the_chunk(self, d):
        rng = random.Random(d)
        groups = [(rng.getrandbits(d), Fraction(1)) for _ in range(8)]
        assert solvers._heaviest_mask(groups, d) == reference_heaviest_mask(groups, d)

    def test_wide_weights(self):
        rng = random.Random(13)
        groups = [(rng.getrandbits(13), Fraction(rng.getrandbits(64) + 1, rng.getrandbits(64) + 1)) for _ in range(8)]
        groups += groups[:2]
        assert solvers._heaviest_mask(groups, 13) == reference_heaviest_mask(groups, 13)

    def test_chunks_replace_only_when_heavier(self):
        # A position approves only its own singleton, which here lies in the
        # last chunk; with a second position at mask 1 the two tie, and the
        # first chunk keeps its mask.
        top, one = (1 << 13, Fraction(1)), (1, Fraction(1))
        assert solvers._heaviest_mask([], 14) == (1, 0)
        assert solvers._heaviest_mask([top], 14) == (1 << 13, 1)
        assert solvers._heaviest_mask([top, one], 14) == (1, 1)


def reference_unanimous_proposal(space: DeliberationSpace) -> Point | None:
    """The scalar loop that ``solvers.hyp_unanimous_proposal`` replaced, kept
    as the reference for the chunked scan; its callers stay far below the
    brute-force guard, so it has none."""
    if space.kind is not Kind.HYPERCUBE:
        raise ValueError("hypercube solver called on a non-hypercube space")
    masks = [pos.data for pos, _ in distinct_positions(space)]
    for mask in range(1, 1 << space.dim):
        size = mask.bit_count()
        if all(size < 2 * (g & mask).bit_count() for g in masks):
            return hypercube_point(mask, space.dim)
    return None


def mask_space(d, masks):
    return DeliberationSpace(Kind.HYPERCUBE, d, tuple(Agent(hypercube_point(m, d)) for m in masks))


@st.composite
def unanimity_spaces(draw):
    """Hypercube spaces on both sides of the 12-bit chunk whose positions
    are supersets of a shared base, the full mask, or complements of one
    another, so that both answers occur often."""
    d = draw(st.integers(1, 16))
    full = (1 << d) - 1
    base = draw(st.integers(0, full))
    superset = st.integers(1, full).map(lambda extra: base | extra)
    masks = draw(st.lists(st.one_of(superset, st.just(full), st.integers(1, full)), min_size=1, max_size=6))
    complements = draw(st.lists(st.sampled_from(masks), max_size=2))
    masks += [full ^ m for m in complements]
    return mask_space(d, [m for m in masks if m])


class TestUnanimityScan:
    """``hyp_unanimous_proposal`` against the scalar loop: the same Point,
    or None, on both sides of the 12-bit chunk."""

    @settings(max_examples=150, deadline=None)
    @given(unanimity_spaces())
    def test_matches_scalar_loop(self, space):
        assert hyp_unanimous_proposal(space) == reference_unanimous_proposal(space)

    @pytest.mark.parametrize("edges, found", [
        ([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)], False),
        ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)], True),
    ])
    def test_reductions_past_the_chunk(self, edges, found):
        # m = 6 vertices at kappa = 3 give d = 17; two disjoint triangles
        # have no independent set of size 3, the 6-cycle has one.
        space = reduce_is_to_hyp(6, edges, 3).space
        assert space.dim == 17
        got = hyp_unanimous_proposal(space)
        assert (got is not None) == found
        assert got == reference_unanimous_proposal(space)

    def test_antipodal_pair_at_the_guard_edge(self):
        x = 0b10110011100011110000101101
        assert hyp_unanimous_proposal(mask_space(26, [x, x ^ ((1 << 26) - 1)])) is None

    def test_position_that_rejects_a_whole_chunk(self):
        # Only past d = 24 can a chunk's high part alone put a position out
        # of reach of every low mask.  Position 1 approves mask 1 alone, which
        # the position on the 13 high bits does not approve, so no proposal
        # is unanimous.  In the chunk of all 13 high bits, the high position
        # approves every low mask and position 1 none.
        assert hyp_unanimous_proposal(mask_space(25, [((1 << 13) - 1) << 12, 1])) is None


def type_ilp_parts(space):
    """The type ILP's inputs: distinct positions, dimensions by type, (type, count) pairs."""
    positions = [pos for pos, _ in distinct_positions(space)]
    by_type = solvers._type_dimensions(space, positions)
    return positions, by_type, sorted((sig, len(dims)) for sig, dims in by_type.items())


class TestTypeIlp:
    def test_colocated_split_infeasible(self):
        # Co-located agents share one ILP group, so no proposal splits them.
        report = solve_hyp_popular_via_ilp(hyp_space([[1, 0, 1], [1, 0, 1]]))
        assert report.supporters == (0, 1)

    def test_slow_family_singleton_feasible(self):
        space = gen_hyp_slow(2).space
        positions, by_type, types = type_ilp_parts(space)
        counts = solvers._ilp_feasible(types, len(positions), {positions.index(space.agents[0].position)})
        assert counts is not None
        proposal = solvers._proposal_from_types(space, by_type, counts)
        assert approver_indices(space, proposal) == (0,)

    def test_empty_target_matches_scan(self):
        rng = random.Random(5)
        for _ in range(20):
            n, d = rng.randint(1, 4), rng.randint(2, 8)
            space = gen_random("hypercube", n, d, seed=rng.randrange(2 ** 30))
            positions, by_type, types = type_ilp_parts(space)
            counts = solvers._ilp_feasible(types, len(positions), set())
            exists = any(
                score(space, hypercube_point(m, d)) == 0 for m in range(1, 1 << d)
            )
            assert (counts is not None) == exists
            if counts is not None:
                proposal = solvers._proposal_from_types(space, by_type, counts)
                assert score(space, proposal) == 0

    def test_nonempty_targets_match_scan(self):
        rng = random.Random(5)
        for _ in range(20):
            n, d = rng.randint(1, 4), rng.randint(2, 8)
            space = gen_random("hypercube", n, d, seed=rng.randrange(2 ** 30))
            positions, by_type, types = type_ilp_parts(space)
            # Position g approves mask m when more than half of m's ones are g's.
            supports = {
                frozenset(g for g, pos in enumerate(positions) if m.bit_count() < 2 * (pos.data & m).bit_count())
                for m in range(1, 1 << d)
            }
            for size in range(1, len(positions) + 1):
                for target in itertools.combinations(range(len(positions)), size):
                    counts = solvers._ilp_feasible(types, len(positions), set(target))
                    assert (counts is not None) == (frozenset(target) in supports)
                    if counts is not None:
                        proposal = solvers._proposal_from_types(space, by_type, counts)
                        approvers = {positions.index(space.agents[i].position) for i in approver_indices(space, proposal)}
                        assert approvers == set(target)

    def test_type_counts_partition_dimensions(self):
        space = gen_hyp_slow(4).space
        _, by_type, _ = type_ilp_parts(space)
        assert sorted(j for dims in by_type.values() for j in dims) == list(range(space.dim))

    def test_guard(self):
        space = gen_random("hypercube", 11, 12, seed=1)
        assert len(distinct_positions(space)) == 11
        message = r"^11 distinct positions exceed the ILP guard \(10\)$"
        with pytest.raises(GuardExceeded, match=message):
            solve_hyp_popular_via_ilp(space)
        at_limit = DeliberationSpace(Kind.HYPERCUBE, 12, space.agents[:10])
        assert len(distinct_positions(at_limit)) == 10
        report = solve_hyp_popular_via_ilp(at_limit)
        assert report.best_score == solve_hyp_bruteforce(at_limit).best_score


class TestHypOracleAgreement:
    def test_brute_equals_ilp_on_random_instances(self):
        rng = random.Random(123)
        for trial in range(60):
            n, d = rng.randint(1, 5), rng.randint(1, 8)
            space = gen_random("hypercube", n, d, seed=rng.randrange(2 ** 30))
            b = solve_hyp_bruteforce(space)
            i = solve_hyp_popular_via_ilp(space)
            assert b.best_score == i.best_score, (trial, n, d)
            assert b.best_score == local_hyp_popular(space)

    def test_all_agents_identical(self):
        space = hyp_space([[1, 0, 1]] * 3)
        report = solve_hyp_popular_via_ilp(space)
        assert report.best_score == 3
        assert len(report.supporters) == 3


class TestEucPerfect:
    def test_two_basis_agents(self):
        space = euc_space([[1, 0], [0, 1]])
        p = solve_euc_perfect(space)
        assert p is not None
        assert score(space, p) == 2

    def test_antipodal_absent(self):
        space = euc_space([[1], [-1]])
        assert solve_euc_perfect(space) is None

    def test_single_agent(self):
        space = euc_space([[3, -2]])
        p = solve_euc_perfect(space)
        assert p is not None and score(space, p) == 1


class TestEucSubsets:
    def test_slow_family_everyone(self):
        space = gen_euc_slow(3).space
        report = solve_euc_subsets(space)
        assert report.best_score == 3

    def test_weighted_antipodal(self):
        space = euc_space([[1], [-1]], weights=[2, 1])
        report = solve_euc_subsets(space)
        assert report.best_score == 2

    def test_guard(self):
        assert solve_euc_subsets(gen_euc_slow(22).space).best_score == 22
        with pytest.raises(GuardExceeded, match=r"^23 distinct positions exceed the subset guard \(22\)$"):
            solve_euc_subsets(gen_euc_slow(23).space)


class TestEucCells:
    def test_one_dimensional_weighted(self):
        space = euc_space([[1], [-1]], weights=[2, 1])
        report = solve_euc_cells(space)
        assert report.best_score == 2

    def test_slow_family(self):
        space = gen_euc_slow(3).space
        assert solve_euc_cells(space).best_score == 3

    def test_agreement_with_subsets_and_sweep(self):
        rng = random.Random(77)
        for trial in range(40):
            n, d = rng.randint(1, 8), rng.randint(1, 2)
            space = gen_random("euclidean", n, d, seed=rng.randrange(2 ** 30))
            c = solve_euc_cells(space)
            s = solve_euc_subsets(space)
            assert c.best_score == s.best_score, trial
            assert c.best_score == local_euc_popular_2d(space), trial


def unpruned_strict_support(positions, weights, stop_below=None):
    """best_strict_support without certificates: one LP per subset."""
    work = 0
    for weight, kept in solvers._subsets_by_weight_desc(weights):
        if not kept:
            continue
        if stop_below is not None and weight <= stop_below:
            return None, work
        work += 1
        x, _ = solve_strict_rows(positions[0].dim, [(">",) + positions[i].data for i in kept])
        if x is not None:
            return (kept, weight, x), work
    return None, work


def reference_subsets_by_weight_desc(weights):
    """The Fraction-keyed subset heap that ``solvers._subsets_by_weight_desc``
    replaced, kept verbatim as its reference."""
    m = len(weights)
    total = sum(weights, _ZERO)
    heap: list[tuple[Fraction, tuple[int, ...]]] = [(-total, ())]
    while heap:
        negw, removed = heapq.heappop(heap)
        kept = tuple(i for i in range(m) if i not in removed)
        if kept:
            yield -negw, kept
        start = removed[-1] + 1 if removed else 0
        for j in range(start, m):
            heapq.heappush(heap, (negw + weights[j], removed + (j,)))


class TestSubsetHeap:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.builds(Fraction, st.integers(1, 50), st.integers(1, 12)), min_size=1, max_size=9))
    def test_matches_fraction_heap(self, weights):
        assert list(solvers._subsets_by_weight_desc(weights)) == list(reference_subsets_by_weight_desc(weights))

    def test_unsatisfiable_reduction_order(self):
        # All eight sign patterns on three variables: 17 distinct positions
        # over three weights, so the order rests on the tie-breaks.
        clauses = [[a, b, c] for a in (1, -1) for b in (2, -2) for c in (3, -3)]
        weights = [w for _, w in distinct_positions(reduce_3sat_to_euc(3, clauses).space)]
        assert len(weights) == 17
        count = 20_000
        assert list(itertools.islice(solvers._subsets_by_weight_desc(weights), count)) == list(
            itertools.islice(reference_subsets_by_weight_desc(weights), count)
        )


def unpruned_cells(positions):
    """solve_euc_cells' pattern scan without certificates: (final patterns, work)."""
    d = positions[0].dim
    work = 0
    patterns = [((), (Fraction(0),) * d)]
    for pos in positions:
        v = pos.coords()
        extended = []
        for flags, witness in patterns:
            free_plus = sum(a * b for a, b in zip(v, witness)) > 0
            extended.append((flags + (free_plus,), witness))
            rows = [(">" if f else "<=",) + positions[j].data for j, f in enumerate(flags)]
            rows.append(("<=" if free_plus else ">",) + pos.data)
            work += 1
            x, _ = solve_strict_rows(d, rows)
            if x is not None:
                extended.append((flags + (not free_plus,), x))
        patterns = extended
    return patterns, work


def _count_lps(monkeypatch):
    calls = []
    real = solvers.solve_strict_rows
    monkeypatch.setattr(solvers, "solve_strict_rows", lambda d, rows: calls.append(len(rows)) or real(d, rows))
    return calls


def _pruning_instances():
    rng = random.Random(2024)
    for _ in range(25):
        n, d = rng.randint(2, 8), rng.randint(1, 3)
        yield gen_random("euclidean", n, d, seed=rng.randrange(2 ** 30), coord_range=(-2, 2))


class TestCertificatePruning:
    def test_subset_scan_matches_unpruned_loop(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        total_work = 0
        for space in _pruning_instances():
            grouped = distinct_positions(space)
            positions, weights = [p for p, _ in grouped], [w for _, w in grouped]
            for stop_below in (None, space.total_weight / 2):
                expected = unpruned_strict_support(positions, weights, stop_below)
                assert best_strict_support(positions, weights, stop_below) == expected
                total_work += expected[1]
        assert len(calls) < total_work  # some subsets were decided by a certificate

    def test_cells_match_unpruned_loop(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        total_work = 0
        for space in _pruning_instances():
            grouped = distinct_positions(space)
            positions, weights = [p for p, _ in grouped], [w for _, w in grouped]
            patterns, work = unpruned_cells(positions)
            best, best_w = None, None
            for flags, witness in patterns:
                w = sum((weights[i] for i, f in enumerate(flags) if f), Fraction(0))
                if best is None or w > best_w:
                    best, best_w = (flags, witness), w
            flags, witness = best
            supported = [positions[i] for i, f in enumerate(flags) if f]
            report = solve_euc_cells(space)
            assert report.work == work
            assert report.best_proposal == solvers.proposal_from_direction(supported, witness)
            total_work += work
        assert len(calls) < total_work

    def test_sat2_scan_needs_few_lps(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        space = reduce_3sat_to_euc(3, [[1, 2, 3], [-1, -2, -3]]).space
        report = solve_euc_subsets(space)
        assert report.work == 95
        assert len(calls) <= 10


class TestCellsGuard:
    def axis(self, count, d):
        # ``count`` distinct positions on the first axis of R^d: 1, -1, 2, -2, ...
        return euc_space([[(k // 2 + 1) * (-1) ** k] + [0] * (d - 1) for k in range(count)])

    def test_guard_both_sides(self):
        # The guard estimates the cost from the position count and d alone, so
        # points on one axis reach its limits cheaply.
        for d, limit in ((1, 212), (2, 59), (3, 32), (4, 22)):
            if d > 1:
                assert solve_euc_cells(self.axis(limit, d)).best_score == (limit + 1) // 2
            with pytest.raises(GuardExceeded, match=f"{limit + 1} distinct positions in R\\^{d}"):
                solve_euc_cells(self.axis(limit + 1, d))
            with pytest.raises(GuardExceeded):
                solve_popular(self.axis(limit + 1, d), "cells")

    def test_low_dimensions_take_more_positions(self):
        for space in (
            gen_random("euclidean", 40, 1, seed=1, coord_range=(-50, 50)),
            gen_random("euclidean", 36, 2, seed=1, coord_range=(-50, 50)),
        ):
            assert len(distinct_positions(space)) > 32
            report = solve_popular(space)  # auto picks cells for d <= 3
            assert report.method is Method.EUC_CELLS
            assert report.best_score == local_euc_popular_2d(space)


class TestEucProperties:
    def test_perfect_iff_total(self):
        rng = random.Random(31)
        for _ in range(30):
            n, d = rng.randint(1, 6), rng.randint(1, 3)
            space = gen_random("euclidean", n, d, seed=rng.randrange(2 ** 30))
            perfect = solve_euc_perfect(space)
            popular = solve_euc_subsets(space).best_score
            assert (perfect is not None) == (popular == space.total_weight)

    def test_scale_invariance(self):
        space = euc_space([[1, 2], [-3, 1], [0, -2], [2, 2]])
        report = solve_euc_subsets(space)
        factor = Fraction(7, 5)
        scaled = euc_space([[factor * c for c in a.position.coords()] for a in space.agents])
        assert solve_euc_subsets(scaled).best_score == report.best_score

    def test_monotone_in_agents(self):
        rng = random.Random(8)
        for _ in range(15):
            n, d = rng.randint(1, 5), rng.randint(1, 2)
            space = gen_random("euclidean", n + 1, d, seed=rng.randrange(2 ** 30))
            smaller = DeliberationSpace(Kind.EUCLIDEAN, d, space.agents[:-1])
            s_small = solve_euc_subsets(smaller).best_score
            s_big = solve_euc_subsets(space).best_score
            assert s_small <= s_big <= s_small + space.agents[-1].weight


class TestGridSolver:
    def test_five_player_example(self):
        agents = [
            Agent(grid_point(0, 1)),
            Agent(grid_point(0, 1)),
            Agent(grid_point(1, 1)),
            Agent(grid_point(1, 1)),
            Agent(grid_point(1, 0)),
        ]
        space = DeliberationSpace(Kind.GRID, 2, tuple(agents), grid_nonneg=True)
        report = solve_grid_four(space)
        assert report.best_score == 4
        assert report.best_proposal.coords() == (0, 1)

    def test_full_grid_four_targets(self):
        space = DeliberationSpace(
            Kind.GRID, 2, (Agent(grid_point(0, -3)), Agent(grid_point(1, -2)))
        )
        report = solve_grid_four(space)
        assert report.best_score == 2
        assert report.best_proposal.coords() == (0, -1)


class TestDispatch:
    def test_auto_choices(self):
        grid_space = DeliberationSpace(Kind.GRID, 2, (Agent(grid_point(1, 1)),))
        assert solve_popular(grid_space).method.value == "grid"
        euc = euc_space([[1, 0]])
        assert solve_popular(euc).method.value == "cells"
        hyp = hyp_space([[1, 0]])
        assert solve_popular(hyp).method.value == "brute"

    def test_single_agent_weight(self):
        space = euc_space([[2, 1]], weights=[Fraction(7, 2)])
        assert solve_popular(space).best_score == Fraction(7, 2)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_popular(euc_space([[1]]), "magic")


class TestScoreExceeds:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_matches_the_popular_score(self, d, data):
        # Cells route for d <= 3, subset route above; both answers occur.
        n = data.draw(st.integers(1, 9 if d <= 3 else 7))
        coords = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
        weights = st.builds(Fraction, st.integers(1, 6), st.integers(1, 3))
        agents = data.draw(st.lists(st.tuples(coords, weights), min_size=n, max_size=n))
        space = DeliberationSpace(
            Kind.EUCLIDEAN, d, tuple(Agent(euclidean_point(c), w) for c, w in agents)
        )
        popular = solve_popular(space, "auto").best_score
        smallest = min(a.weight for a in space.agents)
        for s in (popular, popular - smallest, Fraction(0), -smallest, space.total_weight):
            assert score_exceeds(space, s) == (popular > s)

    @pytest.mark.parametrize("d", [2, 4])
    def test_total_weight_needs_no_lp(self, monkeypatch, d):
        calls = _count_lps(monkeypatch)
        space = gen_random("euclidean", 8, d, seed=3)
        assert not score_exceeds(space, space.total_weight)
        assert calls == []

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_matches_the_popular_score_on_hypercubes(self, d, data):
        # Up to 13 agents: the type ILP within its guard, brute force past it.
        n = data.draw(st.integers(1, 13))
        coords = st.lists(st.integers(0, 1), min_size=d, max_size=d).filter(any)
        weights = st.builds(Fraction, st.integers(1, 6), st.integers(1, 3))
        agents = data.draw(st.lists(st.tuples(coords, weights), min_size=n, max_size=n))
        space = DeliberationSpace(Kind.HYPERCUBE, d, tuple(Agent(hypercube_point(c), w) for c, w in agents))
        popular = solve_popular(space, "auto").best_score
        smallest = min(a.weight for a in space.agents)
        for s in (popular, popular - smallest, Fraction(0), -smallest, space.total_weight):
            assert score_exceeds(space, s) == (popular > s)

    def test_hypercube_within_the_ilp_guard_skips_the_mask_scan(self, monkeypatch):
        space = gen_random("hypercube", 10, 14, seed=2)
        assert len(distinct_positions(space)) == 10
        popular = solve_popular(space).best_score

        def mask_scan(*args):
            raise AssertionError("the mask scan ran")

        monkeypatch.setattr(solvers, "_heaviest_mask", mask_scan)
        assert score_exceeds(space, popular - 1) and not score_exceeds(space, popular)

    def test_guard_past_the_ilp_guard_matches_auto(self):
        space = gen_random("hypercube", 11, 21, seed=1)
        assert len(distinct_positions(space)) == 11
        message = r"^11 distinct positions exceed the ILP guard \(10\)$"
        with pytest.raises(GuardExceeded, match=message):
            solve_popular(space, "auto")
        with pytest.raises(GuardExceeded, match=message):
            score_exceeds(space, Fraction(0))

    def test_hypercube_and_grid_solve_in_full(self):
        for space in (gen_random("hypercube", 5, 6, seed=1), gen_random("grid", 5, 2, seed=1)):
            popular = solve_popular(space).best_score
            assert score_exceeds(space, popular - 1) and not score_exceeds(space, popular)
