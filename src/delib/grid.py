"""Two-dimensional grid deliberation and its constructive convergence.

On the grid every supportable proposal can be pulled one step toward the
origin without losing a single supporter (:func:`pull_toward_origin`), so
support concentrates on the axis unit proposals; convergence then amounts to
relabelling each coalition's proposal to a unit target, merging same-target
coalitions, and one final compromise onto the best target.  The non-negative
quadrant needs 2-way compromises only, the full grid at most 3-way.

Relabelling uses the pulls' closed form: from (x, y) they reach the 3x3 core
after t = max(|x|, |y|) - 1 steps, at (sign x * max(|x| - t, 0), sign y *
max(|y| - t, 0)), which by the lemma keeps every supporter of (x, y).

Relabelling a coalition's proposal in place is not itself a transition; it
is recorded in the trace notes and excluded from the transition count.
"""

from __future__ import annotations

import dataclasses
import itertools
from bisect import bisect_left
from fractions import Fraction

from .dynamics import (
    Coalition,
    CoalitionStructure,
    DynamicsError,
    Scheduler,
    Trace,
    Transition,
    is_successful,
    run_deliberation,
    singleton_structure,
    validate_structure,
)
from .solvers import grid_targets, solve_grid_four
from .space import DeliberationSpace, Kind, Point, approval_test, grid_point, score


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def pull_toward_origin(p: Point) -> Point:
    """(x, y) -> (x - sign x, y - sign y); keeps every supporter supporting.

    Only defined outside the 3x3 core, i.e. when |x| > 1 or |y| > 1.
    """
    if p.kind is not Kind.GRID:
        raise ValueError("not a grid point")
    x, y = p.data
    if abs(x) <= 1 and abs(y) <= 1:
        raise ValueError("point already in the 3x3 core; nothing to pull")
    return grid_point(x - _sign(x), y - _sign(y))


def _pull_to_core(p: Point) -> Point:
    """Where repeated :func:`pull_toward_origin` takes ``p``: the first point
    in the 3x3 core, in closed form."""
    x, y = p.data
    t = max(abs(x), abs(y)) - 1
    if t <= 0:
        return p
    return grid_point(_sign(x) * max(abs(x) - t, 0), _sign(y) * max(abs(y) - t, 0))


def _canonical_target(space: DeliberationSpace, coalition: Coalition, targets: tuple[Point, ...]) -> Point:
    """A unit target every member approves: the proposal pulled into the core
    in closed form (every member still approves it, by the pull lemma)."""
    p = _pull_to_core(coalition.proposal)
    if p in targets:
        return p
    # Diagonal core proposal: its supporters approve both adjacent targets.
    for t in targets:
        test = approval_test(space, t)
        if all(test(space.agents[i]) for i in coalition.members):
            return t
    raise DynamicsError("no unit target approved by the whole coalition; not a valid grid coalition")


def grid_popular_bruteforce(space: DeliberationSpace, expand: int = 1) -> tuple[Point, Fraction]:
    """Popular proposal over the agents' bounding window grown by ``expand``.

    A belt-and-braces oracle: the pull argument guarantees the optimum is
    already among the unit targets.
    """
    xs = [a.position.data[0] for a in space.agents]
    ys = [a.position.data[1] for a in space.agents]
    lo_x, hi_x = min(min(xs), 0) - expand, max(max(xs), 0) + expand
    lo_y, hi_y = min(min(ys), 0) - expand, max(max(ys), 0) + expand
    if space.grid_nonneg:
        lo_x, lo_y = max(lo_x, 0), max(lo_y, 0)
    best, best_score = None, None
    for x in range(lo_x, hi_x + 1):
        for y in range(lo_y, hi_y + 1):
            if (x, y) == (0, 0):
                continue
            s = score(space, grid_point(x, y))
            if best is None or s > best_score:
                best, best_score = grid_point(x, y), s
    return best, best_score


class _GridScheduler(Scheduler):
    """Merge same-target coalitions, then one compromise onto ``best``.

    Merges are plain 2-compromises, always the first two coalitions of the
    target that appears first.  Coalitions carry increasing ids in structure
    order (a merged one is appended with a fresh id), so a coalition's index
    is its id's rank among the live ids and no merge rescans the structure.
    The ids assume every transition returned is applied, as
    :func:`run_deliberation` does, and that a merge leaves no member behind;
    a structure whose length differs from the live ids breaks either and
    raises.
    """

    name = "grid-converge"

    def __init__(self, structure: CoalitionStructure, best: Point, popular_score: Fraction):
        self.best, self.popular_score = best, popular_score
        self.live = list(range(len(structure)))
        self.by_target: dict[Point, list[int]] = {}
        for i, c in enumerate(structure.coalitions):
            self.by_target.setdefault(c.proposal, []).append(i)
        self.fresh_ids = itertools.count(len(structure))
        self.finished = False

    def __call__(self, space, structure, k, rng):
        if self.finished:
            return None
        if len(structure) != len(self.live):
            raise DynamicsError("the structure no longer matches the scheduler's coalition ids")
        ready = [ids for ids in self.by_target.values() if len(ids) >= 2]
        if ready:
            ids = min(ready, key=lambda group: group[0])
            i, j = bisect_left(self.live, ids[0]), bisect_left(self.live, ids[1])
            del self.live[j], self.live[i], ids[:2]
            new_id = next(self.fresh_ids)
            self.live.append(new_id)
            ids.append(new_id)
            return Transition((i, j), structure.coalitions[i].proposal)
        self.finished = True
        if is_successful(space, structure, self.popular_score):
            return None
        test = approval_test(space, self.best)
        participants = tuple(
            j
            for j, c in enumerate(structure.coalitions)
            if any(test(space.agents[i]) for i in c.members)
        )
        return Transition(participants, self.best)


def grid_converge(
    space: DeliberationSpace, initial: CoalitionStructure | None = None
) -> Trace:
    """Reach a successful structure in at most n transitions.

    Relabel every coalition onto a unit target (zero-cost, recorded in the
    notes), merge same-target coalitions, then make one compromise onto the
    most approved target; on the non-negative quadrant every transition is a
    2-compromise, on the full grid the last one involves at most three
    coalitions.  The transitions are played through :func:`run_deliberation`.
    """
    if space.kind is not Kind.GRID:
        raise ValueError("grid convergence needs a grid space")
    structure = initial if initial is not None else singleton_structure(space)
    validate_structure(space, structure)
    notes: list[str] = []
    relabeled = []
    targets = grid_targets(space.grid_nonneg)
    for i, c in enumerate(structure.coalitions):
        target = _canonical_target(space, c, targets)
        if target != c.proposal:
            notes.append(f"relabel coalition {i}: {c.proposal} -> {target}")
        relabeled.append(Coalition(c.members, target))
    structure = CoalitionStructure(tuple(relabeled))

    popular = solve_grid_four(space)
    scheduler = _GridScheduler(structure, popular.best_proposal, popular.best_score)
    trace = run_deliberation(space, structure, scheduler, k=2 if space.grid_nonneg else 3)
    if not is_successful(space, trace.final, popular.best_score):
        raise DynamicsError("grid convergence failed to reach a successful structure")
    if trace.total_steps > space.n:
        raise DynamicsError("grid convergence exceeded the n-transition bound")
    return dataclasses.replace(trace, notes=tuple(notes))
