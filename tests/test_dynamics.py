"""Coalition structures, transitions, potential accounting, schedulers."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delib.dynamics import (
    AdversarialScheduler,
    Coalition,
    CoalitionStructure,
    DynamicsError,
    GreedyFastScheduler,
    RandomScheduler,
    Transition,
    apply_transition,
    enumerate_compromises,
    is_successful,
    potential,
    reaches_popular,
    run_deliberation,
    singleton_structure,
    trace_to_csv,
    validate_structure,
    validate_transition,
)
from delib import dynamics
from delib.generators import gen_euc_slow, gen_hyp_slow, gen_random
from delib.grid import grid_converge
from delib.solvers import GuardExceeded, solve_euc_subsets, solve_popular
from delib.space import (
    Agent,
    DeliberationSpace,
    Kind,
    euclidean_point,
    grid_point,
    hypercube_point,
)


def euc_space(coord_lists, weights=None):
    weights = weights or [1] * len(coord_lists)
    return DeliberationSpace(
        Kind.EUCLIDEAN,
        len(coord_lists[0]),
        tuple(Agent(euclidean_point(c), Fraction(w)) for c, w in zip(coord_lists, weights)),
    )


def structure_of(space, groups):
    return CoalitionStructure(
        tuple(Coalition(frozenset(m), p) for m, p in groups)
    )


class TestPotential:
    def local_potential(self, sizes):
        return -len(sizes) + sum(2 ** s for s in sizes)

    def test_all_singletons_hits_floor(self):
        fam = gen_euc_slow(3)
        structure = singleton_structure(fam.space)
        assert potential(structure, fam.space) == 3 == self.local_potential([1, 1, 1])

    def test_grand_coalition_hits_ceiling(self):
        fam = gen_euc_slow(3)
        grand = structure_of(
            fam.space, [(range(3), fam.support_oracle(frozenset({0, 1, 2})))]
        )
        assert potential(grand, fam.space) == 7 == 2 ** 3 - 1

    def test_mixed_sizes(self):
        fam = gen_euc_slow(3)
        structure = structure_of(
            fam.space,
            [
                ({0, 1}, fam.support_oracle(frozenset({0, 1}))),
                ({2}, fam.space.agents[2].position),
            ],
        )
        assert potential(structure, fam.space) == -2 + 4 + 2

    def test_fractional_weights_rejected(self):
        space = euc_space([[1], [2]], weights=[Fraction(1, 2), 1])
        with pytest.raises(DynamicsError):
            potential(singleton_structure(space), space)

    def test_integer_weights_count_as_multiplicity(self):
        space = euc_space([[1], [2]], weights=[2, 1])
        assert potential(singleton_structure(space), space) == -2 + 4 + 2


def new_coalition(space, structure, t):
    """The new coalition of ``t``, as validate_transition derives it."""
    new_members, reason = validate_transition(space, structure, t, t.ell)
    assert new_members is not None, reason
    return new_members


def assert_potentials_from_scratch(space, initial, trace):
    """Replay the trace and compare each recorded potential with potential()
    and each recorded new-coalition size with the derived coalition."""
    structure = initial
    for step in trace.steps:
        assert step.phi_before == potential(structure, space)
        assert step.new_size == len(new_coalition(space, structure, step.transition))
        structure = apply_transition(space, structure, step.transition)
        assert step.phi_after == potential(structure, space)
    assert structure == trace.final


class TestIncrementalPotential:
    @pytest.mark.parametrize("kind,n,d", [("hypercube", 5, 4), ("euclidean", 6, 2), ("grid", 7, 2)])
    def test_random_runs(self, kind, n, d):
        steps = 0
        for seed in range(4):
            space = gen_random(kind, n, d, seed=seed)
            initial = singleton_structure(space)
            trace = run_deliberation(space, initial, RandomScheduler(), 2, seed=seed)
            assert_potentials_from_scratch(space, initial, trace)
            steps += len(trace.steps)
        assert steps > 0

    def test_adversarial_slow_run(self):
        fam = gen_euc_slow(12)
        initial = singleton_structure(fam.space)
        trace = run_deliberation(fam.space, initial, AdversarialScheduler(fam.support_oracle), 2)
        assert len(trace.steps) > 20
        assert_potentials_from_scratch(fam.space, initial, trace)

    def test_adversarial_n40_matches_replay(self):
        # 3,012 steps on the run's live coalition list, against a fresh
        # structure per step from apply_transition, and apply_transition
        # against the order the transition clause defines.
        fam = gen_euc_slow(40)
        initial = singleton_structure(fam.space)
        trace = run_deliberation(fam.space, initial, AdversarialScheduler(fam.support_oracle), 2)
        assert len(trace.steps) == trace.total_steps == 3012
        assert_potentials_from_scratch(fam.space, initial, trace)
        structure = initial
        for step in trace.steps:
            t = step.transition
            part = set(t.participants)
            new_members = new_coalition(fam.space, structure, t)
            leftovers = [
                (structure.coalitions[j].members - new_members, structure.coalitions[j].proposal)
                for j in t.participants
            ]
            expected = [c for j, c in enumerate(structure.coalitions) if j not in part]
            expected.append(Coalition(new_members, t.new_proposal))
            expected += [Coalition(rest, proposal) for rest, proposal in leftovers if rest]
            structure = apply_transition(fam.space, structure, t)
            assert structure.coalitions == tuple(expected)

    @pytest.mark.parametrize("kind", ["grid", "grid_nonneg"])
    def test_grid_convergence(self, kind):
        space = gen_random(kind, 30, 2, seed=4, coord_range=(-4, 4))
        initial = singleton_structure(space)
        trace = grid_converge(space, initial)
        assert len(trace.steps) > 5
        assert_potentials_from_scratch(space, initial, trace)

    def test_broken_potential_update_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(dynamics, "potential_change", lambda space, structure, t, new_members: 0)
        fam = gen_euc_slow(4)
        with pytest.raises(DynamicsError, match="raise the potential"):
            run_deliberation(
                fam.space, singleton_structure(fam.space), AdversarialScheduler(fam.support_oracle), 2
            )


class TestTransitions:
    def test_merge_is_a_two_compromise(self):
        fam = gen_euc_slow(4)
        structure = structure_of(
            fam.space,
            [
                ({0}, fam.space.agents[0].position),
                ({1}, fam.space.agents[1].position),
                ({2, 3}, fam.support_oracle(frozenset({2, 3}))),
            ],
        )
        t = Transition((0, 1), fam.support_oracle(frozenset({0, 1})))
        ok, reason = validate_transition(fam.space, structure, t, 2)
        assert ok, reason
        after = apply_transition(fam.space, structure, t)
        validate_structure(fam.space, after)
        assert len(after) == 2

    def test_strict_growth_required(self):
        fam = gen_euc_slow(4)
        structure = structure_of(
            fam.space,
            [
                ({0, 1}, fam.support_oracle(frozenset({0, 1}))),
                ({2, 3}, fam.support_oracle(frozenset({2, 3}))),
            ],
        )
        # proposal supported only by {0, 2}: same size as each participant
        t = Transition((0, 1), fam.support_oracle(frozenset({0, 2})))
        ok, reason = validate_transition(fam.space, structure, t, 2)
        assert not ok and "strict growth" in reason

    def test_apply_rejects_invalid_transitions(self):
        fam = gen_euc_slow(4)
        structure = structure_of(
            fam.space,
            [
                ({0, 1}, fam.support_oracle(frozenset({0, 1}))),
                ({2, 3}, fam.support_oracle(frozenset({2, 3}))),
            ],
        )
        with pytest.raises(DynamicsError, match="no strict growth over participant 0"):
            apply_transition(fam.space, structure, Transition((0, 1), fam.support_oracle(frozenset({0, 2}))))
        with pytest.raises(DynamicsError, match="participant count 1 outside 2..1"):
            apply_transition(fam.space, structure, Transition((0,), fam.support_oracle(frozenset({0, 1, 2}))))
        with pytest.raises(DynamicsError, match="distinct coalition indices"):
            apply_transition(fam.space, structure, Transition((0, 2), fam.support_oracle(frozenset({0, 1, 2}))))

    def test_ell_bounds(self):
        fam = gen_euc_slow(3)
        structure = singleton_structure(fam.space)
        p = fam.support_oracle(frozenset({0, 1, 2}))
        t = Transition((0, 1, 2), p)
        ok, reason = validate_transition(fam.space, structure, t, 2)
        assert not ok and "outside 2..2" in reason
        ok, _ = validate_transition(fam.space, structure, t, 3)
        assert ok

    def test_apply_drops_empty_leftovers(self):
        fam = gen_euc_slow(2)
        structure = singleton_structure(fam.space)
        t = Transition((0, 1), fam.support_oracle(frozenset({0, 1})))
        after = apply_transition(fam.space, structure, t)
        assert len(after) == 1

    def test_partition_preserved_on_random_runs(self):
        rng = random.Random(2)
        for _ in range(10):
            space = gen_random("hypercube", rng.randint(2, 5), 6, seed=rng.randrange(2 ** 30))
            trace = run_deliberation(
                space, singleton_structure(space), RandomScheduler(), 2, seed=3
            )
            validate_structure(space, trace.final)


class TestFindKCompromise:
    """The compromise search, ``enumerate_compromises``."""

    def test_nine_player_grid_example(self):
        agents = [Agent(grid_point(0, 1))] + [
            Agent(grid_point(*p))
            for p in [(-1, 0), (-1, 0), (-1, 1), (-1, 1), (1, 1), (1, 1), (1, 0), (1, 0)]
        ]
        space = DeliberationSpace(Kind.GRID, 2, tuple(agents))
        structure = structure_of(
            space,
            [
                ({1, 2, 3, 4}, grid_point(-1, 0)),
                ({5, 6, 7, 8}, grid_point(1, 0)),
                ({0}, grid_point(0, 1)),
            ],
        )
        assert enumerate_compromises(space, structure, 2) == []
        found = enumerate_compromises(space, structure, 3)
        assert found
        assert len(new_coalition(space, structure, found[0])) == 5
        assert found[0].new_proposal.coords() == (0, 1)

    def test_successful_structure_terminal(self):
        fam = gen_euc_slow(3)
        grand = structure_of(
            fam.space, [(range(3), fam.support_oracle(frozenset({0, 1, 2})))]
        )
        for k in (2, 3):
            assert enumerate_compromises(fam.space, grand, k) == []

    def test_found_transitions_validate(self):
        # Every canonical candidate is a valid transition, from the singletons
        # and from structures part-way through a random run.
        rng = random.Random(11)
        for kind, k, _ in itertools.product(["hypercube", "euclidean", "grid", "grid_nonneg"], (2, 3), range(6)):
            dim = 2 if kind.startswith("grid") else rng.randint(2, 4)
            space = gen_random(kind, rng.randint(2, 6), dim, seed=rng.randrange(2 ** 30))
            structure = singleton_structure(space)
            for _ in range(3):
                found = enumerate_compromises(space, structure, k)
                for t in found:
                    ok, reason = validate_transition(space, structure, t, k)
                    assert ok, (kind, k, reason)
                if not found:
                    break
                structure = apply_transition(space, structure, found[rng.randrange(len(found))])

    def test_hypercube_guard(self):
        # Both agents approve the all-ones proposal, so at the limit the pair merges.
        for d in (26, 27):
            agents = (Agent(hypercube_point([1] * d)), Agent(hypercube_point([1] * (d - 1) + [0])))
            space = DeliberationSpace(Kind.HYPERCUBE, d, agents)
            if d > 26:
                with pytest.raises(GuardExceeded, match=r"^brute force over 2\^27 proposals exceeds the guard \(d <= 26\)$"):
                    enumerate_compromises(space, singleton_structure(space), 2)
            else:
                assert enumerate_compromises(space, singleton_structure(space), 2)

    def test_euclidean_guard(self):
        # Every agent at (1, y) approves (1, 0), so two coalitions can hold
        # any number of distinct positions; their union is what the guard counts.
        for count in (22, 23):
            space = euc_space([[1, y] for y in range(count)])
            structure = structure_of(
                space, [(range(12), euclidean_point([1, 0])), (range(12, count), euclidean_point([1, 0]))]
            )
            if count > 22:
                with pytest.raises(GuardExceeded, match=r"^23 distinct positions exceed the subset guard \(22\)$"):
                    enumerate_compromises(space, structure, 2)
            else:
                found = enumerate_compromises(space, structure, 2)
                assert found and len(new_coalition(space, structure, found[0])) == 22


class TestAdversarialScheduler:
    def test_singleton_pair_merges(self):
        fam = gen_euc_slow(2)
        sched = AdversarialScheduler(fam.support_oracle)
        structure = singleton_structure(fam.space)
        t = sched(fam.space, structure, 2, random.Random(0))
        new_members = new_coalition(fam.space, structure, t)
        assert len(new_members) == 2
        assert all(not structure.coalitions[j].members - new_members for j in t.participants)

    def test_equal_pair_split(self):
        fam = gen_euc_slow(4)
        structure = structure_of(
            fam.space,
            [
                ({0, 1}, fam.support_oracle(frozenset({0, 1}))),
                ({2, 3}, fam.support_oracle(frozenset({2, 3}))),
            ],
        )
        sched = AdversarialScheduler(fam.support_oracle)
        t = sched(fam.space, structure, 2, random.Random(0))
        # (2) + (2) -> (3) + (0) + (1)
        new_members = new_coalition(fam.space, structure, t)
        assert len(new_members) == 3
        leftover_sizes = sorted(len(structure.coalitions[j].members - new_members) for j in t.participants)
        assert leftover_sizes == [0, 1]

    def test_unequal_smallest_pair(self):
        fam = gen_euc_slow(5)
        structure = structure_of(
            fam.space,
            [
                ({0, 1}, fam.support_oracle(frozenset({0, 1}))),
                ({2, 3, 4}, fam.support_oracle(frozenset({2, 3, 4}))),
            ],
        )
        sched = AdversarialScheduler(fam.support_oracle)
        t = sched(fam.space, structure, 2, random.Random(0))
        # (2) + (3) -> (4) + (0) + (1)
        new_members = new_coalition(fam.space, structure, t)
        assert len(new_members) == 4
        assert sorted(len(structure.coalitions[j].members - new_members) for j in t.participants) == [0, 1]

    def test_full_run_terminates_and_raises_potential(self):
        fam = gen_euc_slow(6)
        trace = run_deliberation(
            fam.space, singleton_structure(fam.space), AdversarialScheduler(fam.support_oracle), 2
        )
        assert trace.terminal
        assert all(s.phi_after - s.phi_before >= 1 for s in trace.steps)
        assert [len(c.members) for c in trace.final.coalitions] == [6]

    def test_hypercube_family_runs_until_oracle_limit(self):
        fam = gen_hyp_slow(4)
        trace = run_deliberation(
            fam.space, singleton_structure(fam.space), AdversarialScheduler(fam.support_oracle), 2
        )
        # the family realises subsets up to n-1 members only, so the final
        # merge into a grand coalition is out of the schedule's reach
        assert not trace.terminal
        assert max(len(c.members) for c in trace.final.coalitions) == 3


class TestGreedyFast:
    def test_reaches_success_quickly(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(1, 6)
            space = gen_random("euclidean", n, 2, seed=rng.randrange(2 ** 30))
            trace = run_deliberation(
                space, singleton_structure(space), GreedyFastScheduler(), 2, seed=0
            )
            assert len(trace.steps) <= n * n + 1
            popular = solve_euc_subsets(space).best_score
            assert is_successful(space, trace.final, popular)

    def test_requires_euclidean(self):
        space = DeliberationSpace(Kind.HYPERCUBE, 2, (Agent(hypercube_point([1, 0])),))
        with pytest.raises(DynamicsError):
            GreedyFastScheduler()(space, singleton_structure(space), 2, random.Random(0))

    def test_merge_preferred_when_available(self):
        space = euc_space([[1, 0], [1, 1]])
        structure = singleton_structure(space)
        t = GreedyFastScheduler()(space, structure, 2, random.Random(0))
        assert t is not None and len(new_coalition(space, structure, t)) == 2


class TestRandomScheduler:
    def test_terminal_returns_none(self):
        fam = gen_euc_slow(2)
        grand = structure_of(fam.space, [({0, 1}, fam.support_oracle(frozenset({0, 1})))])
        assert RandomScheduler()(fam.space, grand, 2, random.Random(0)) is None

    def test_seed_determinism(self):
        space = gen_random("hypercube", 5, 6, seed=99)
        t1 = run_deliberation(space, singleton_structure(space), RandomScheduler(), 2, seed=4)
        t2 = run_deliberation(space, singleton_structure(space), RandomScheduler(), 2, seed=4)
        assert trace_to_csv(t1) == trace_to_csv(t2)
        assert t1.final == t2.final

    def test_hypercube_runs_stay_within_bound(self):
        rng = random.Random(55)
        for _ in range(8):
            n = rng.randint(2, 5)
            space = gen_random("hypercube", n, rng.randint(2, 6), seed=rng.randrange(2 ** 30))
            trace = run_deliberation(
                space, singleton_structure(space), RandomScheduler(), 2, seed=1
            )
            assert trace.total_steps <= 2 ** n
            assert trace.terminal


_KINDS = st.sampled_from(["hypercube", "euclidean", "grid", "grid_nonneg"])


def _random_space(kind, n, seed):
    """A random space of ``kind``: hypercube d = 2-6, Euclidean d = 1-3."""
    dim = {"hypercube": 2 + seed % 5, "euclidean": 1 + seed % 3}.get(kind, 2)
    return gen_random(kind, n, dim, seed=seed)


class TestCandidateMemo:
    @settings(max_examples=60, deadline=None)
    @given(_KINDS, st.sampled_from([2, 3]), st.integers(2, 7), st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
    def test_scheduler_plays_the_fresh_transitions(self, kind, k, n, seed, run_seed):
        # Each step, the carried candidates give the same list as a fresh
        # search, and the scheduler draws the same transition from it.
        space = _random_space(kind, n, seed)
        scheduler, known = RandomScheduler(), {}
        rng, fresh_rng = random.Random(run_seed), random.Random(run_seed)
        structure = singleton_structure(space)
        while True:
            fresh = enumerate_compromises(space, structure, k)
            assert enumerate_compromises(space, structure, k, known=known) == fresh
            assert len(known) == sum(math.comb(len(structure), ell) for ell in range(2, min(k, len(structure)) + 1))
            t = scheduler(space, structure, k, rng)
            if not fresh:
                assert t is None
                break
            assert t == fresh[fresh_rng.randrange(len(fresh))]
            structure = apply_transition(space, structure, t)

    def test_scheduler_reused_on_another_space(self):
        # The carried candidates belong to one space; a second space starts afresh.
        first, second = gen_random("hypercube", 5, 4, seed=1), gen_random("hypercube", 5, 4, seed=2)
        shared = RandomScheduler()
        for space in (first, second, first):
            reused = run_deliberation(space, singleton_structure(space), shared, 3, seed=7)
            fresh = run_deliberation(space, singleton_structure(space), RandomScheduler(), 3, seed=7)
            assert reused == fresh


class TestIsSuccessful:
    def test_grand_coalition_on_slow_family(self):
        fam = gen_euc_slow(4)
        grand = structure_of(
            fam.space, [(range(4), fam.support_oracle(frozenset(range(4))))]
        )
        assert is_successful(fam.space, grand, Fraction(4))

    def test_singleton_instance(self):
        space = euc_space([[2, 2]])
        assert is_successful(space, singleton_structure(space), Fraction(1))

    def test_popular_score_unmet(self):
        fam = gen_euc_slow(3)
        assert not is_successful(fam.space, singleton_structure(fam.space), Fraction(3))


class TestReachesPopular:
    @settings(max_examples=80, deadline=None)
    @given(_KINDS, st.integers(1, 7), st.integers(0, 2 ** 30), st.integers(0, 6), st.booleans())
    def test_matches_is_successful(self, kind, n, seed, steps, weighted):
        # Structures part-way through and at the end of random runs.
        space = _random_space(kind, n, seed)
        if weighted and kind == "euclidean":
            rng = random.Random(seed)
            agents = tuple(Agent(a.position, Fraction(rng.randint(1, 6), rng.randint(1, 3))) for a in space.agents)
            space = DeliberationSpace(Kind.EUCLIDEAN, space.dim, agents)
        structure, scheduler, rng = singleton_structure(space), RandomScheduler(), random.Random(seed)
        for _ in range(steps):
            t = scheduler(space, structure, 3, rng)
            if t is None:
                break
            structure = apply_transition(space, structure, t)
        popular = solve_popular(space, "auto").best_score
        assert reaches_popular(space, structure) == is_successful(space, structure, popular)

    def test_unsuccessful_structure(self):
        # Only the singleton at -1 holds its whole approver set, and it
        # weighs 1 where the popular score is 2.
        space = euc_space([[1], [2], [-1]])
        structure = singleton_structure(space)
        assert not is_successful(space, structure, Fraction(2))
        assert not reaches_popular(space, structure)
        grown = structure_of(space, [({0, 1}, euclidean_point([1])), ({2}, euclidean_point([-1]))])
        assert reaches_popular(space, grown)

    def test_guard_fires_as_in_solve_popular(self):
        # 33 distinct positions on the first axis of R^3 exceed the cells
        # guard, whichever coalition is heaviest.
        space = euc_space([[(k // 2 + 1) * (-1) ** k, 0, 0] for k in range(33)])
        positive = [k for k in range(33) if k % 2 == 0]
        halves = structure_of(
            space,
            [(positive, euclidean_point([Fraction(1, 100), 0, 0]))]
            + [({k}, space.agents[k].position) for k in range(33) if k % 2],
        )
        for structure in (singleton_structure(space), halves):
            with pytest.raises(GuardExceeded, match="exceed the cells guard"):
                reaches_popular(space, structure)


class TestTraceCsv:
    def test_schema(self):
        fam = gen_euc_slow(3)
        trace = run_deliberation(
            fam.space, singleton_structure(fam.space), AdversarialScheduler(fam.support_oracle), 2
        )
        lines = trace_to_csv(trace).splitlines()
        assert lines[0] == "step,ell,participant_sizes,new_size,phi_before,phi_after"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2"

    def test_weighted_space_leaves_phi_blank(self):
        space = euc_space([[1], [-1]], weights=[Fraction(1, 2), 1])
        structure = singleton_structure(space)
        assert enumerate_compromises(space, structure, 2) == []  # 1/2 vs 1: no strict growth possible together
        space2 = euc_space([[1], [1, ], [2]], weights=[Fraction(1, 2), Fraction(1, 2), 1])
        trace = run_deliberation(space2, singleton_structure(space2), RandomScheduler(), 2, seed=0)
        csv = trace_to_csv(trace)
        if trace.steps:
            assert ",," in csv  # blank potentials on fractional weights
