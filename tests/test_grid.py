"""Grid pulls, unit targets, and the constructive convergence procedure."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delib.dynamics import (
    Coalition,
    CoalitionStructure,
    DynamicsError,
    Transition,
    enumerate_compromises,
    is_successful,
    singleton_structure,
)
from delib.generators import gen_random
from delib.grid import _GridScheduler, _pull_to_core, grid_converge, pull_toward_origin
from delib.solvers import grid_targets
from delib.space import Agent, DeliberationSpace, Kind, approver_indices, approves, grid_point, score


def grid_space(points, nonneg=False):
    return DeliberationSpace(
        Kind.GRID, 2, tuple(Agent(grid_point(*p)) for p in points), grid_nonneg=nonneg
    )


def local_window_popular(space, expand=1):
    """Independent window scan using raw integer arithmetic."""
    pts = [(a.position.data, a.weight) for a in space.agents]
    xs = [p[0] for p, _ in pts] + [0]
    ys = [p[1] for p, _ in pts] + [0]
    best = Fraction(0)
    for x in range(min(xs) - expand, max(xs) + expand + 1):
        for y in range(min(ys) - expand, max(ys) + expand + 1):
            if (x, y) == (0, 0) or (space.grid_nonneg and (x < 0 or y < 0)):
                continue
            w = sum(
                (
                    wt
                    for (u, v), wt in pts
                    if abs(u - x) + abs(v - y) < abs(u) + abs(v)
                ),
                Fraction(0),
            )
            best = max(best, w)
    return best


class TestPull:
    def test_examples(self):
        assert pull_toward_origin(grid_point(3, 2)).coords() == (2, 1)
        assert pull_toward_origin(grid_point(-2, 0)).coords() == (-1, 0)

    def test_core_rejected(self):
        with pytest.raises(ValueError):
            pull_toward_origin(grid_point(1, 1))

    def test_chain_reaches_units(self):
        space = grid_space([(2, 2)])
        p = grid_point(3, 3)
        agent = space.agents[0]
        assert approves(agent, p, space)
        while abs(p.data[0]) > 1 or abs(p.data[1]) > 1:
            p = pull_toward_origin(p)
            assert approves(agent, p, space)
        assert p.coords() == (1, 1)
        assert approves(agent, grid_point(1, 0), space)
        assert approves(agent, grid_point(0, 1), space)

    def test_pull_preserves_support_on_window(self):
        # exhaustive over agents and proposals in [-4, 4]^2
        cells = [
            (x, y) for x in range(-4, 5) for y in range(-4, 5) if (x, y) != (0, 0)
        ]
        for px, py in cells:
            if abs(px) <= 1 and abs(py) <= 1:
                continue
            pulled = pull_toward_origin(grid_point(px, py))
            for ax, ay in cells:
                space = grid_space([(ax, ay)])
                agent = space.agents[0]
                if approves(agent, grid_point(px, py), space):
                    assert approves(agent, pulled, space), ((ax, ay), (px, py))


_coord = st.integers(-60, 60)
# Off-axis points, the axes and both diagonals, where pulls reach 0 or shrink
# both coordinates together, and the core, where no pull is taken.
_grid_pairs = st.one_of(
    st.tuples(_coord, _coord),
    _coord.map(lambda v: (v, 0)),
    _coord.map(lambda v: (0, v)),
    _coord.map(lambda v: (v, v)),
    _coord.map(lambda v: (v, -v)),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
).filter(lambda xy: xy != (0, 0))


class TestPullToCore:
    @settings(max_examples=400, deadline=None)
    @given(_grid_pairs)
    def test_matches_repeated_pulls(self, xy):
        p = grid_point(*xy)
        while abs(p.data[0]) > 1 or abs(p.data[1]) > 1:
            p = pull_toward_origin(p)
        assert _pull_to_core(grid_point(*xy)) == p


class TestTargets:
    def test_counts(self):
        assert len(grid_targets(True)) == 2
        assert len(grid_targets(False)) == 4

    def test_diagonal_exclusivity(self):
        diagonals = [grid_point(1, 1), grid_point(1, -1), grid_point(-1, 1), grid_point(-1, -1)]
        for x in range(-4, 5):
            for y in range(-4, 5):
                if (x, y) == (0, 0):
                    continue
                space = grid_space([(x, y)])
                approved = [
                    d for d in diagonals if approves(space.agents[0], d, space)
                ]
                assert len(approved) <= 1, (x, y)

    def test_targets_reach_window_popular(self):
        rng = random.Random(9)
        for trial in range(40):
            nonneg = trial % 2 == 0
            space = gen_random(
                "grid_nonneg" if nonneg else "grid",
                rng.randint(1, 10),
                2,
                seed=rng.randrange(2 ** 30),
            )
            targets = grid_targets(space.grid_nonneg)
            best_target = max(score(space, t) for t in targets)
            assert best_target == local_window_popular(space), trial

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_every_support_lies_in_a_target_support(self, nonneg):
        # Exhaustive: agents in [-9, 9]^2 and proposals in [-12, 12]^2 (the
        # non-negative quadrant of both on the non-negative variant).  The
        # compromise search tallies only the targets, which is complete
        # because of this containment.
        low = 0 if nonneg else -9
        window = [(x, y) for x in range(low, 10) for y in range(low, 10) if (x, y) != (0, 0)]
        space = grid_space(window, nonneg=nonneg)
        targets = [set(approver_indices(space, t)) for t in grid_targets(nonneg)]
        low = 0 if nonneg else -12
        for x in range(low, 13):
            for y in range(low, 13):
                if (x, y) == (0, 0):
                    continue
                support = set(approver_indices(space, grid_point(x, y)))
                assert any(support <= t for t in targets), (x, y)


class TestConverge:
    def test_five_player_example(self):
        space = grid_space([(0, 1), (0, 1), (1, 1), (1, 1), (1, 0)], nonneg=True)
        initial = CoalitionStructure(
            (
                Coalition(frozenset({0, 1}), grid_point(0, 1)),
                Coalition(frozenset({2, 3, 4}), grid_point(1, 0)),
            )
        )
        trace = grid_converge(space, initial)
        sizes = sorted(len(c.members) for c in trace.final.coalitions)
        assert sizes == [1, 4]
        big = max(trace.final.coalitions, key=lambda c: len(c.members))
        assert big.proposal.coords() == (0, 1)
        assert all(step.transition.ell == 2 for step in trace.steps)

    def test_nine_player_example_needs_three_way(self):
        space = grid_space(
            [(0, 1), (-1, 0), (-1, 0), (-1, 1), (-1, 1), (1, 1), (1, 1), (1, 0), (1, 0)]
        )
        initial = CoalitionStructure(
            (
                Coalition(frozenset({1, 2, 3, 4}), grid_point(-1, 0)),
                Coalition(frozenset({5, 6, 7, 8}), grid_point(1, 0)),
                Coalition(frozenset({0}), grid_point(0, 1)),
            )
        )
        assert enumerate_compromises(space, initial, 2) == []
        trace = grid_converge(space, initial)
        big = max(trace.final.coalitions, key=lambda c: len(c.members))
        assert len(big.members) == 5
        assert big.proposal.coords() == (0, 1)
        assert max(step.transition.ell for step in trace.steps) == 3

    def test_five_player_has_no_unanimous_proposal(self):
        # merges need a proposal everyone approves; here none exists, which
        # is why the witness structure needs a genuine compromise
        space = grid_space([(0, 1), (0, 1), (1, 1), (1, 1), (1, 0)], nonneg=True)
        assert local_window_popular(space) == 4 < space.n

    def test_single_agent_trivial(self):
        space = grid_space([(2, 3)])
        trace = grid_converge(space)
        assert trace.total_steps <= 1
        assert is_successful(space, trace.final, Fraction(1))

    def test_random_windows(self):
        rng = random.Random(13)
        for trial in range(40):
            nonneg = trial % 2 == 0
            space = gen_random(
                "grid_nonneg" if nonneg else "grid",
                rng.randint(1, 15),
                2,
                seed=rng.randrange(2 ** 30),
            )
            trace = grid_converge(space)
            assert trace.total_steps <= space.n
            best = max(score(space, c.proposal) for c in trace.final.coalitions)
            assert best == local_window_popular(space)
            if nonneg:
                assert all(step.transition.ell <= 2 for step in trace.steps)
            else:
                assert all(step.transition.ell <= 3 for step in trace.steps)

    def test_terminal_only_without_compromises(self):
        # On the full grid a 3-compromise can remain after the final one.
        space = grid_space([(-5, 1), (4, -4), (3, -4), (-5, 0)])
        trace = grid_converge(space)
        assert not trace.terminal
        assert enumerate_compromises(space, trace.final, 3)
        rng = random.Random(19)
        for trial in range(40):
            kind = "grid_nonneg" if trial % 2 else "grid"
            space = gen_random(kind, rng.randint(1, 9), 2, seed=rng.randrange(2 ** 30))
            trace = grid_converge(space)
            if trace.terminal:
                assert enumerate_compromises(space, trace.final, 2 if space.grid_nonneg else 3) == []

    def test_relabels_recorded_not_counted(self):
        space = grid_space([(4, 4), (4, 4)], nonneg=True)
        trace = grid_converge(space)
        assert any("relabel" in note for note in trace.notes)
        assert trace.total_steps <= 2

    def test_scheduler_rejects_a_structure_it_did_not_build(self):
        # The scheduler's coalition ids track exactly the structure it was
        # built from and its own transitions; one coalition more fails fast.
        space = grid_space([(1, 0), (1, 0), (0, 1)], nonneg=True)
        structure = singleton_structure(space)
        scheduler = _GridScheduler(structure, grid_point(1, 0), Fraction(2))
        longer = CoalitionStructure(structure.coalitions + structure.coalitions[:1])
        with pytest.raises(DynamicsError, match="coalition ids"):
            scheduler(space, longer, 2, random.Random(0))
        assert scheduler(space, structure, 2, random.Random(0)) == Transition((0, 1), grid_point(1, 0))


class TestWindowOracle:
    def test_matches_local(self, grid_window_popular):
        rng = random.Random(3)
        for _ in range(20):
            space = gen_random("grid", rng.randint(1, 8), 2, seed=rng.randrange(2 ** 30))
            _, s = grid_window_popular(space)
            assert s == local_window_popular(space)
