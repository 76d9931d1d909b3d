"""Coalition structures, k-compromise transitions, schedulers and runs.

A transition is its participating coalitions (up to ``k``) and a proposal.
The new coalition is derived, not chosen: exactly the participants' members
who approve the proposal, which must be strictly heavier than every
participating coalition; dissenters stay behind under their old proposals.
:func:`validate_transition` derives it, once per applied step.

Single-coalition "transitions" are vacuous (strict growth inside a subset of
one coalition is impossible) and are never searched.

A subset's candidate depends only on the space, the limits and its
coalitions in structure order, and a transition keeps the surviving
coalitions in order.  So the random scheduler keeps, for its run, a map from
each subset of the current structure (as its tuple of coalitions) to the
candidate's proposal, or None when the subset has none.  The next step
rebuilds the map for the new structure's subsets: those of survivors only
are looked up, and only the subsets that contain a new coalition are
searched.  The map never holds more than the current structure's subsets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import solvers
from .solvers import DEFAULT_LIMITS, Method, SolverLimits
from .space import (
    DeliberationSpace,
    Kind,
    Point,
    approval_test,
    score,
)

_ZERO = Fraction(0)


class DynamicsError(ValueError):
    pass


@dataclass(frozen=True)
class Coalition:
    """A non-empty agent set together with a proposal they all approve."""

    members: frozenset[int]
    proposal: Point

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise DynamicsError("coalitions are non-empty")


@dataclass(frozen=True)
class CoalitionStructure:
    coalitions: tuple[Coalition, ...]

    def __post_init__(self):
        object.__setattr__(self, "coalitions", tuple(self.coalitions))

    def __len__(self) -> int:
        return len(self.coalitions)


def validate_structure(space: DeliberationSpace, structure: CoalitionStructure):
    """Exact partition of all agents; every member approves its proposal."""
    seen: set[int] = set()
    for c in structure.coalitions:
        if seen & c.members:
            raise DynamicsError("coalitions overlap")
        seen |= c.members
        test = approval_test(space, c.proposal)
        for i in c.members:
            if not 0 <= i < space.n:
                raise DynamicsError(f"agent index {i} out of range")
            if not test(space.agents[i]):
                raise DynamicsError(f"agent {i} does not approve its coalition's proposal")
    if seen != set(range(space.n)):
        raise DynamicsError("coalition structure does not cover all agents")


def singleton_structure(space: DeliberationSpace) -> CoalitionStructure:
    """Everyone alone at their own position (which they always approve)."""
    return CoalitionStructure(
        tuple(Coalition(frozenset({i}), a.position) for i, a in enumerate(space.agents))
    )


def coalition_weight(space: DeliberationSpace, members) -> Fraction | int:
    """Total weight; plain int on unit-weight spaces (compares fine with Fractions)."""
    if space.unit_weights:
        return len(members)
    return sum((space.agents[i].weight for i in members), _ZERO)


@dataclass(frozen=True)
class Transition:
    """One k-compromise: the participating coalitions' indices and the new
    proposal.  The new coalition follows from them (see
    :func:`validate_transition`)."""

    participants: tuple[int, ...]
    new_proposal: Point

    @property
    def ell(self) -> int:
        return len(self.participants)


def validate_transition(
    space: DeliberationSpace,
    structure: CoalitionStructure,
    t: Transition,
    k: int,
) -> tuple[frozenset[int] | None, str | None]:
    """Exact check of every transition clause.

    Returns ``(new_members, None)`` when ``t`` is valid, ``new_members``
    being the participants' members who approve the proposal (never empty,
    so it reads as true), and ``(None, reason)`` naming the first violation
    otherwise.
    """
    idx = t.participants
    if len(set(idx)) != len(idx) or any(not 0 <= j < len(structure) for j in idx):
        return None, "participants must be distinct coalition indices"
    if not 2 <= t.ell <= k:
        return None, f"participant count {t.ell} outside 2..{k}"
    try:
        test = approval_test(space, t.new_proposal)
    except Exception:
        return None, "new proposal is not a proposal of this space"
    new_members = frozenset(
        i for j in idx for i in structure.coalitions[j].members if test(space.agents[i])
    )
    if not new_members:
        return None, "new coalition is empty"
    new_weight = coalition_weight(space, new_members)
    for j in idx:
        if new_weight <= coalition_weight(space, structure.coalitions[j].members):
            return None, f"no strict growth over participant {j}"
    return new_members, None


def _apply_in_place(coalitions: list[Coalition], t: Transition, new_members: frozenset[int]):
    """Apply ``t``, whose new coalition is ``new_members``, to a list of
    coalitions: survivors keep their order, then the new coalition, then the
    non-empty leftovers in participant order."""
    left = [(coalitions[j].members - new_members, coalitions[j].proposal) for j in t.participants]
    for j in sorted(t.participants, reverse=True):
        del coalitions[j]
    coalitions.append(Coalition(new_members, t.new_proposal))
    coalitions.extend(Coalition(rest, p) for rest, p in left if rest)


def apply_transition(
    space: DeliberationSpace,
    structure: CoalitionStructure,
    t: Transition,
) -> CoalitionStructure:
    """The structure after ``t``, as :func:`run_deliberation` leaves it.

    Raises :class:`DynamicsError` when ``t`` is not a valid transition of
    ``structure`` (with ``k = t.ell``).
    """
    new_members, reason = validate_transition(space, structure, t, t.ell)
    if new_members is None:
        raise DynamicsError(f"invalid transition: {reason}")
    coalitions = list(structure.coalitions)
    _apply_in_place(coalitions, t, new_members)
    return CoalitionStructure(tuple(coalitions))


def _potential_term(space: DeliberationSpace, members) -> int:
    """One coalition's share of the potential: 2^size - 1."""
    w = coalition_weight(space, members)
    if w.denominator != 1:
        raise DynamicsError("the potential is defined for integer weights only")
    return (1 << int(w)) - 1


def potential(structure: CoalitionStructure, space: DeliberationSpace) -> int:
    """-(number of coalitions) + sum over coalitions of 2^size.

    Sizes are integer total weights; defined only when every weight is an
    integer, since the bound claims are about counts.
    """
    return sum(_potential_term(space, c.members) for c in structure.coalitions)


def potential_change(
    space: DeliberationSpace, structure: CoalitionStructure, t: Transition, new_members: frozenset[int]
) -> int:
    """Potential after applying ``t``, whose new coalition is ``new_members``,
    to ``structure`` minus the potential before.

    Only the coalitions ``t`` touches change, so this costs O(ell) terms
    where :func:`potential` costs one per coalition (an empty leftover's
    term is 0).
    """
    change = _potential_term(space, new_members)
    for j in t.participants:
        members = structure.coalitions[j].members
        change += _potential_term(space, members - new_members) - _potential_term(space, members)
    return change


# ---------------------------------------------------------------------------
# Searching for compromises.


# The route the compromise search runs, per kind.
_SEARCH_METHODS = {
    Kind.HYPERCUBE: Method.HYP_BRUTE, Kind.EUCLIDEAN: Method.EUC_SUBSET_LP, Kind.GRID: Method.GRID_FOUR
}
_UNSEEN = object()


def _candidate_proposal(
    space: DeliberationSpace, coalitions: tuple[Coalition, ...], limits: SolverLimits
) -> Point | None:
    """Proposal of the participating ``coalitions``' canonical candidate.

    It is the popular proposal of their agents, found by the kind's search
    route with the heaviest participant as ``stop_below``, so it is None
    exactly when no proposal's approvers among them strictly outweigh every
    participant, that is, when no transition exists for them.
    """
    agents = tuple(space.agents[i] for c in coalitions for i in c.members)
    union = DeliberationSpace(space.kind, space.dim, agents, space.grid_nonneg)
    heaviest = max(coalition_weight(space, c.members) for c in coalitions)
    proposal, _ = solvers._run_route(_SEARCH_METHODS[space.kind], union, limits, heaviest)
    return proposal


def enumerate_compromises(
    space: DeliberationSpace,
    structure: CoalitionStructure,
    k: int,
    limits: SolverLimits = DEFAULT_LIMITS,
    known: dict | None = None,
) -> list[Transition]:
    """The canonical candidate of every participant subset that admits one.

    Subsets come in a fixed order (by size, then lexicographic), and the
    per-subset candidate is complete: if any transition exists for a
    participant set, its candidate, whose approvers weigh the most, is one.
    An empty list therefore certifies k-terminality.

    A candidate depends only on the space, the limits and the participating
    coalitions in structure order.  ``known`` maps such tuples of coalitions
    to their candidate's proposal (None when there is none), as an earlier
    call on the same space and limits left it: the subsets it holds are
    rebuilt at their current indices without a search, and on return it
    holds exactly this structure's subsets.  Without it every subset is
    searched.
    """
    known = {} if known is None else known
    out = []
    current = {}
    m = len(structure)
    for ell in range(2, min(k, m) + 1):
        for subset in itertools.combinations(range(m), ell):
            key = tuple(structure.coalitions[j] for j in subset)
            proposal = known.get(key, _UNSEEN)
            if proposal is _UNSEEN:
                proposal = _candidate_proposal(space, key, limits)
            current[key] = proposal
            if proposal is not None:
                out.append(Transition(subset, proposal))
    known.clear()
    known.update(current)
    return out


# ---------------------------------------------------------------------------
# Schedulers.  A scheduler maps (space, structure, k, rng) to the next
# transition, or None when it has nothing further to play.  ``complete``
# means None certifies k-terminality.


class Scheduler:
    name = "scheduler"
    complete = False

    def __call__(self, space, structure, k, rng) -> Transition | None:
        raise NotImplementedError


class RandomScheduler(Scheduler):
    """Uniform choice among the per-subset canonical candidates."""

    name = "random"
    complete = True

    def __init__(self, limits: SolverLimits = DEFAULT_LIMITS):
        self.limits = limits
        self.space, self.known = None, {}

    def __call__(self, space, structure, k, rng):
        # The candidates of the last structure's subsets, for the coalitions
        # that survived into this one; valid while the space stays the same.
        if space is not self.space:
            self.space, self.known = space, {}
        options = enumerate_compromises(space, structure, k, self.limits, self.known)
        if not options:
            return None
        return options[rng.randrange(len(options))]


class AdversarialScheduler(Scheduler):
    """The slow pairing schedule on all-subsets-realizable families.

    Merge an equal-size pair into a coalition one larger, splitting the
    remainder in half; with no equal pair, do the same to the two smallest
    coalitions.  Requires a support oracle, i.e. a family where every agent
    subset has a proposal approved by exactly that subset.
    """

    name = "adversarial"
    complete = False

    def __init__(self, support_oracle: Callable[[frozenset[int]], Point | None]):
        self.oracle = support_oracle

    def _pick(self, structure) -> tuple[int, int] | None:
        # Oracle families are unit weight, so sizes are cardinalities.  The
        # equal pair is the first repeated size in a left-to-right scan.
        sizes = [len(c.members) for c in structure.coalitions]
        seen: dict[int, int] = {}
        for i, s in enumerate(sizes):
            if s in seen:
                return seen[s], i
            seen[s] = i
        if len(sizes) < 2:
            return None
        best = sorted(range(len(sizes)), key=lambda j: (sizes[j], j))[:2]
        return best[0], best[1]

    def __call__(self, space, structure, k, rng):
        pick = self._pick(structure)
        if pick is None:
            return None
        i, j = pick
        first = sorted(structure.coalitions[i].members)
        second = sorted(structure.coalitions[j].members)
        a, b = len(first), len(second)
        if a > b:
            i, j, first, second, a, b = j, i, second, first, b, a
        # New coalition of size b+1, leaving floor((a-1)/2) from the smaller
        # coalition and ceil((a-1)/2) from the larger one.
        take_first = a - (a - 1) // 2
        take_second = (b + 1) - take_first
        members = frozenset(first[:take_first]) | frozenset(second[:take_second])
        proposal = self.oracle(members)
        if proposal is None:
            return None
        return Transition((i, j), proposal)


class GreedyFastScheduler(Scheduler):
    """Fast convergence for Euclidean spaces.

    Plays the first applicable of: (i) merge two coalitions that share an
    approvable proposal; (ii) grow a maximum-weight coalition by one outside
    agent; (iii) with exactly two coalitions left, compromise directly on a
    popular proposal.  Reaches a successful structure within n^2 + 1 steps.
    """

    name = "greedy-fast"
    complete = False

    def __init__(self, limits: SolverLimits = DEFAULT_LIMITS):
        self.limits = limits

    def __call__(self, space, structure, k, rng):
        if space.kind is not Kind.EUCLIDEAN:
            raise DynamicsError("the greedy-fast scheduler requires a Euclidean space")
        m = len(structure)
        # (i) merge
        for i in range(m):
            for j in range(i + 1, m):
                both = structure.coalitions[i].members | structure.coalitions[j].members
                p = solvers._perfect_proposal([space.agents[a] for a in both])
                if p is not None:
                    return Transition((i, j), p)
        # (ii) one agent joins a maximum-weight coalition
        weights = [coalition_weight(space, c.members) for c in structure.coalitions]
        top = max(range(m), key=lambda j: (weights[j], -j))
        owner = {i: j for j, c in enumerate(structure.coalitions) for i in c.members}
        for agent in range(space.n):
            j = owner[agent]
            if j == top:
                continue
            joined = sorted(structure.coalitions[top].members) + [agent]
            p = solvers._perfect_proposal([space.agents[a] for a in joined])
            if p is not None:
                return Transition((top, j), p)
        # (iii) two coalitions: aim straight at a popular proposal
        if m == 2:
            report = solvers.solve_popular(space, "auto", self.limits)
            t = Transition((0, 1), report.best_proposal)
            new_members, _ = validate_transition(space, structure, t, k=2)
            if new_members:
                return t
        return None


# ---------------------------------------------------------------------------
# Runs and traces.


class _LiveStructure:
    """The coalition list a run updates in place, read like a structure."""

    __slots__ = ("coalitions",)

    def __init__(self, coalitions):
        self.coalitions = list(coalitions)

    def __len__(self) -> int:
        return len(self.coalitions)


@dataclass(frozen=True)
class TraceStep:
    transition: Transition
    participant_sizes: tuple[int, ...]
    new_size: int
    phi_before: int | None
    phi_after: int | None


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]
    terminal: bool
    scheduler: str
    seed: int
    final: CoalitionStructure
    total_steps: int  # equals len(steps) unless step recording was off
    notes: tuple[str, ...] = ()


TRACE_CSV_HEADER = "step,ell,participant_sizes,new_size,phi_before,phi_after"


def trace_to_csv(trace: Trace) -> str:
    lines = [TRACE_CSV_HEADER]
    for i, step in enumerate(trace.steps):
        t = step.transition
        sizes = "+".join(str(s) for s in step.participant_sizes)
        phi_b = "" if step.phi_before is None else str(step.phi_before)
        phi_a = "" if step.phi_after is None else str(step.phi_after)
        lines.append(f"{i},{t.ell},{sizes},{step.new_size},{phi_b},{phi_a}")
    return "\n".join(lines) + "\n"


def run_deliberation(
    space: DeliberationSpace,
    initial: CoalitionStructure,
    scheduler: Scheduler,
    k: int,
    seed: int = 0,
    record_steps: bool = True,
) -> Trace:
    """Apply scheduler-chosen transitions until none remains.

    Every transition is validated before it is applied, which derives its
    new coalition once for the potential update, the application and the
    trace; a scheduler producing an invalid transition is a bug and fails
    hard.  On integer weights the potential is computed once from scratch
    and then updated from each step's :func:`potential_change`; for k = 2
    each step must raise it by at least 1, which also enforces the 2^n step
    bound.  Very long runs can skip step recording; the trace then reports
    the count only.

    The run applies each transition in place to one live list of coalitions,
    as :func:`apply_transition` orders them, instead of copying the
    structure.  Schedulers read it (``.coalitions[j]``, ``len``) and must
    not keep it; ``final`` is a snapshot taken at the end.
    """
    validate_structure(space, initial)
    rng = random.Random(seed)
    integer_weights = all(a.weight.denominator == 1 for a in space.agents)
    cap = k ** space.n + 1 if integer_weights else None
    structure = _LiveStructure(initial.coalitions)
    steps: list[TraceStep] = []
    count = 0
    phi_current = potential(structure, space) if integer_weights else None
    while True:
        t = scheduler(space, structure, k, rng)
        if t is None:
            break
        new_members, reason = validate_transition(space, structure, t, k)
        if new_members is None:
            raise DynamicsError(f"scheduler produced an invalid transition: {reason}")
        sizes = tuple(len(structure.coalitions[j].members) for j in t.participants)
        phi_before = phi_current
        if integer_weights:
            phi_current = phi_before + potential_change(space, structure, t, new_members)
            if k == 2 and phi_current - phi_before < 1:
                raise DynamicsError("a 2-compromise must raise the potential; this is a bug")
        _apply_in_place(structure.coalitions, t, new_members)
        count += 1
        if record_steps:
            steps.append(TraceStep(t, sizes, len(new_members), phi_before, phi_current))
        if cap is not None and count > cap:
            raise DynamicsError("run exceeded the k^n transition bound; this is a bug")
    if k == 2 and integer_weights and count > 2 ** space.n:
        raise DynamicsError("2-deliberations halt within 2^n transitions; this is a bug")
    terminal = scheduler.complete or len(structure) == 1
    final = CoalitionStructure(tuple(structure.coalitions))
    return Trace(tuple(steps), terminal, scheduler.name, seed, final, count)


def is_successful(
    space: DeliberationSpace, structure: CoalitionStructure, popular_score: Fraction
) -> bool:
    """Some coalition holds a proposal of popular score together with its
    entire approver set."""
    for c in structure.coalitions:
        if score(space, c.proposal) == popular_score:
            test = approval_test(space, c.proposal)
            approvers = {i for i, a in enumerate(space.agents) if test(a)}
            if approvers == set(c.members):
                return True
    return False


def reaches_popular(
    space: DeliberationSpace, structure: CoalitionStructure, limits: SolverLimits = DEFAULT_LIMITS
) -> bool:
    """:func:`is_successful` without computing the popular score.

    On a valid structure every member approves its coalition's proposal,
    so a coalition's proposal scores at least its weight ``w``, and it
    scores exactly ``w`` with exactly its members approving when ``w`` is
    the popular score (weights are positive).  The structure is therefore
    successful exactly when no proposal scores more than its heaviest
    coalition weighs, which :func:`solvers.score_exceeds` decides on the
    route ``auto`` takes.  Raises :class:`solvers.GuardExceeded` where
    ``solve_popular(space, "auto")`` would.
    """
    heaviest = max(coalition_weight(space, c.members) for c in structure.coalitions)
    return not solvers.score_exceeds(space, heaviest, limits)
