"""Hard-instance families, reductions, and random instance supply.

Each generator ships with the machinery needed to check it: the slow
families carry a closed-form support oracle mapping agent subsets to
proposals approved by exactly that subset; the reductions carry
certificates (threshold or unanimity target plus the dimension
bookkeeping) so the produced instance can be cross-examined against the
source problem with an ordinary solver.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .dynamics import Coalition, CoalitionStructure
from .solvers import GuardExceeded
from .space import (
    Agent,
    DeliberationSpace,
    Kind,
    Point,
    euclidean_point,
    grid_point,
    hypercube_point,
    hypercube_point_from_set,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class SlowFamilyInstance:
    """A space on which every agent subset is the exact support of some proposal."""

    space: DeliberationSpace
    support_oracle: Callable[[frozenset[int]], Point | None]
    family: str
    n: int


# ---------------------------------------------------------------------------
# Slow-convergence families.


def gen_hyp_slow(n: int) -> SlowFamilyInstance:
    """Hypercube family with d = 2n: agent i is all-ones on the last half
    except one private dimension; any subset of fewer than n agents has a
    proposal approved by exactly that subset."""
    if n < 2:
        raise GeneratorError("the hypercube slow family needs n >= 2")
    d = 2 * n
    half = d // 2
    agents = []
    for i in range(n):
        coords = [0] * d
        for j in range(half, d):
            coords[j] = 0 if j == half + i else 1
        agents.append(Agent(hypercube_point(coords)))
    space = DeliberationSpace(Kind.HYPERCUBE, d, tuple(agents))

    def oracle(members: frozenset[int]) -> Point | None:
        m = len(members)
        if m == 0 or m >= n:
            return None
        # 1s on the first (half - m - 1) dimensions, plus the last-half
        # dimensions on which all chosen agents agree.
        ones = set(range(half - m - 1))
        private = {half + i for i in members}
        ones |= {j for j in range(half, d) if j not in private}
        return hypercube_point_from_set(ones, d)

    return SlowFamilyInstance(space, oracle, "hyp-slow", n)


def gen_euc_slow(n: int) -> SlowFamilyInstance:
    """Standard-basis agents in n dimensions; subset S is supported exactly
    by the proposal with 1/|S| on the coordinates of S."""
    if n < 1:
        raise GeneratorError("the Euclidean slow family needs n >= 1")
    units = [(i, 1) for i in range(n)]  # (index, numerator) pairs shared by every point
    agents = tuple(Agent(Point(Kind.EUCLIDEAN, n, (1, (units[i],)))) for i in range(n))
    space = DeliberationSpace(Kind.EUCLIDEAN, n, agents)

    def oracle(members: frozenset[int]) -> Point | None:
        if not members:
            return None
        return Point.trusted(Kind.EUCLIDEAN, n, (len(members), tuple(units[i] for i in sorted(members))))

    return SlowFamilyInstance(space, oracle, "euc-slow", n)


# ---------------------------------------------------------------------------
# The many-coalition compromise construction.


@dataclass(frozen=True)
class ExpCompromiseInstance:
    """A weighted hypercube instance whose initial structure needs one big
    compromise: k + 1 coalitions sit on pairwise-chained disjoint proposals
    with geometrically decaying weights, and only the single-dimension pivot
    proposal can beat them all, by pulling a fixed fraction from everyone."""

    space: DeliberationSpace
    initial: CoalitionStructure
    seed_proposals: tuple[Point, ...]
    pivot: Point
    compromise_size: int  # number of coalitions a winning compromise needs
    capture_fraction: Fraction  # share of each coalition approving the pivot
    decay: Fraction  # weight ratio of consecutive coalitions
    rival_cap: Fraction  # largest share any non-pivot proposal can capture
    dim: int
    triplets_per_proposal: int
    types_per_proposal: int


def _chain_disjoint(sets: list[frozenset[int]]) -> list[int] | None:
    """Order the sets so consecutive ones are disjoint (backtracking)."""
    m = len(sets)
    adj = [[bool(sets[i].isdisjoint(sets[j])) for j in range(m)] for i in range(m)]
    path = [0]
    used = [False] * m
    used[0] = True

    def extend() -> bool:
        if len(path) == m:
            return True
        last = path[-1]
        for nxt in range(m):
            if not used[nxt] and adj[last][nxt]:
                used[nxt] = True
                path.append(nxt)
                if extend():
                    return True
                path.pop()
                used[nxt] = False
        return False

    for start in range(m):
        path[:] = [start]
        used[:] = [False] * m
        used[start] = True
        if extend():
            return list(path)
    return None


def _decay_between(capture: Fraction, terms: int) -> Fraction:
    """A rational decay ratio r in (0, 1) with
    capture*(1 + r + ... + r^(terms-1)) <= 1 < that sum extended by r^terms."""

    def head(r: Fraction) -> Fraction:
        return capture * sum((r ** i for i in range(terms)), _ZERO)

    def headplus(r: Fraction) -> Fraction:
        return head(r) + capture * r ** terms

    lo, hi = _ZERO, _ONE
    for _ in range(10000):
        mid = (lo + hi) / 2
        if head(mid) <= 1:
            if headplus(mid) > 1:
                return mid
            lo = mid
        else:
            hi = mid
    raise GeneratorError("no suitable decay ratio found; this cannot happen for k >= 2")


# The most agents the exp-compromise construction may hold: those of d=55.
# There, on 2 vCPUs, `generate` took 31 s and 2.9 GB to write a 513 MB file,
# and `verify` took 52 s; the next admissible d, 82, would hold 416,649,744.
_EXP_MAX_AGENTS = 328_050


def gen_exp_compromise(d: int) -> ExpCompromiseInstance:
    """Instantiate the construction for dimension d with (d-1) % 27 == 0.

    The first d-1 dimensions split into triplets and nonuplets; every seed
    proposal takes (d-1)/27 nonuplets, agent types around a proposal take two
    elements from just over half of its triplets and one from each of the
    rest, optionally plus the special last dimension, and weights decay
    geometrically along a chain of pairwise-disjoint seed proposals.
    """
    if d < 28 or (d - 1) % 27 != 0:
        raise GeneratorError("dimension must satisfy (d-1) % 27 == 0 and d >= 28")
    base = d - 1
    n_triplets = base // 3
    n_nonuplets = n_triplets // 3
    per_proposal_nonuplets = base // 27
    t_count = 3 * per_proposal_nonuplets  # triplets per proposal
    two_triplets = t_count // 2 + 1  # strict majority of the proposal's triplets
    types_per_proposal = math.comb(t_count, two_triplets) * 3 ** t_count * 2
    # The chain orders every seed proposal, and each seeds one coalition.
    size = math.comb(n_nonuplets, per_proposal_nonuplets) * types_per_proposal
    if size > _EXP_MAX_AGENTS:
        raise GuardExceeded(
            f"the construction for d={d} would hold {size} agents, "
            f"over the exp-compromise guard ({_EXP_MAX_AGENTS})"
        )
    triplets = [tuple(range(3 * t, 3 * t + 3)) for t in range(n_triplets)]
    nonuplets = [tuple(range(3 * q, 3 * q + 3)) for q in range(n_nonuplets)]  # triplet ids

    combos = [frozenset(c) for c in itertools.combinations(range(n_nonuplets), per_proposal_nonuplets)]
    order = _chain_disjoint(combos)
    if order is None:
        raise GeneratorError("no disjoint chain of seed proposals found within the search budget")
    chained = [combos[i] for i in order]

    def proposal_of(combo: frozenset[int]) -> tuple[Point, list[int]]:
        triplet_ids = sorted(t for q in sorted(combo) for t in nonuplets[q])
        dims = [x for t in triplet_ids for x in triplets[t]]
        return hypercube_point_from_set(dims, d), triplet_ids

    seed_points: list[Point] = []
    seed_triplets: list[list[int]] = []
    for combo in chained:
        p, tids = proposal_of(combo)
        seed_points.append(p)
        seed_triplets.append(tids)

    k = len(chained) - 1
    rival_cap = 1 - Fraction(1, types_per_proposal)
    capture = (1 + rival_cap) / 2
    if k == 2:
        # capture * (1 + r) = 1 has the exact rational root.
        decay = 1 / capture - 1
    else:
        decay = _decay_between(capture, k)

    special = d - 1  # 0-based index of the special dimension
    agents: list[Agent] = []
    coalitions: list[Coalition] = []
    for i, tids in enumerate(seed_triplets):
        level = decay ** i
        # Shared across the coalition's agents; the per-type Fractions can get
        # big denominators, so never materialise one per agent.
        weight_special = capture * level
        weight_plain = (1 - capture) * level
        members: list[int] = []
        for chosen_two in itertools.combinations(range(t_count), two_triplets):
            two_set = set(chosen_two)
            element_choices = []
            for pos in range(t_count):
                triplet = triplets[tids[pos]]
                if pos in two_set:
                    # two of three elements: enumerate by the excluded one
                    element_choices.append([tuple(x for x in triplet if x != e) for e in triplet])
                else:
                    element_choices.append([(x,) for x in triplet])
            for picks in itertools.product(*element_choices):
                dims = [x for pick in picks for x in pick]
                for with_special in (True, False):
                    chosen = dims + [special] if with_special else dims
                    weight = weight_special if with_special else weight_plain
                    members.append(len(agents))
                    agents.append(Agent(hypercube_point_from_set(chosen, d), weight))
        coalitions.append(Coalition(frozenset(members), seed_points[i]))

    space = DeliberationSpace(Kind.HYPERCUBE, d, tuple(agents))
    initial = CoalitionStructure(tuple(coalitions))
    pivot = hypercube_point_from_set([special], d)
    return ExpCompromiseInstance(
        space=space,
        initial=initial,
        seed_proposals=tuple(seed_points),
        pivot=pivot,
        compromise_size=k,
        capture_fraction=capture,
        decay=decay,
        rival_cap=rival_cap,
        dim=d,
        triplets_per_proposal=t_count,
        types_per_proposal=types_per_proposal,
    )


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    failures: tuple[str, ...]
    checks: tuple[str, ...]


def verify_exp_compromise(inst: ExpCompromiseInstance) -> VerificationReport:
    """Exact structural checks of the construction.

    (1) every agent approves its own seed proposal and no other seed;
    (2) the pivot is approved exactly by the agents holding the special
        dimension; (3) the pivot's supporter weight strictly exceeds every
        coalition; (4) for every proper subset of at most ``k`` coalitions,
        the weight the pivot captures there does not exceed the heaviest
        participant; (5) the calibration constants are in range, the decay
        solves the geometric-sum equation up to its rational relaxation, and
        the capture fraction is at least the rival cap.
    """
    space, failures, checks = inst.space, [], []
    special_bit = 1  # dimension d-1 sits at bit 0 under the MSB-first packing

    coalition_of = {}
    for ci, coal in enumerate(inst.initial.coalitions):
        for i in coal.members:
            coalition_of[i] = ci

    ok = True
    for i, agent in enumerate(space.agents):
        mine = coalition_of[i]
        amask = agent.position.data
        for ci, seed in enumerate(inst.seed_proposals):
            smask = seed.data
            approves_seed = smask.bit_count() < 2 * (amask & smask).bit_count()
            if approves_seed != (ci == mine):
                ok = False
                break
        if not ok:
            failures.append("check1: an agent type approves a seed proposal other than its own")
            break
    if ok:
        checks.append("check1: types support exactly their own seed proposal")

    pmask = inst.pivot.data
    weights = [
        sum((space.agents[i].weight for i in coal.members), _ZERO)
        for coal in inst.initial.coalitions
    ]
    ok = True
    for ci, coal in enumerate(inst.initial.coalitions):
        share = _ZERO
        for i in coal.members:
            agent = space.agents[i]
            has_special = bool(agent.position.data & special_bit)
            approves_pivot = pmask.bit_count() < 2 * (agent.position.data & pmask).bit_count()
            if approves_pivot != has_special:
                ok = False
                break
            if approves_pivot:
                share += agent.weight
        if not ok or share != inst.capture_fraction * weights[ci]:
            ok = False
            failures.append(
                "check2: pivot support is not exactly the capture fraction of every coalition"
            )
            break
    if ok:
        checks.append("check2: pivot captures exactly its fraction of every coalition")

    pivot_weight = sum(
        (a.weight for a in space.agents if a.position.data & special_bit), _ZERO
    )
    if all(pivot_weight > w for w in weights):
        checks.append("check3: pivot supporters outweigh every coalition")
    else:
        failures.append("check3: pivot supporters do not outweigh every coalition")

    k = inst.compromise_size
    captured = [inst.capture_fraction * w for w in weights]
    ok = True
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(len(weights)), size):
            got = sum((captured[j] for j in subset), _ZERO)
            heaviest = max(weights[j] for j in subset)
            if got > heaviest:
                ok = False
                failures.append(
                    f"check4: a {size}-coalition compromise at the pivot already beats its heaviest participant"
                )
                break
        if not ok:
            break
    if ok:
        checks.append("check4: no compromise of at most k coalitions succeeds at the pivot")

    a, r = inst.capture_fraction, inst.decay
    head = a * sum((r ** i for i in range(k)), _ZERO)
    headplus = head + a * r ** k
    if not (0 < a < 1 and 0 < r < 1):
        failures.append("check5: calibration constants must lie strictly in (0, 1)")
    elif not head <= 1 < headplus:
        failures.append("check5: decay does not solve the geometric-sum equation within its relaxation")
    elif not a >= inst.rival_cap:
        failures.append("check5: capture fraction below the rival cap")
    else:
        checks.append("check5: calibration constants satisfy their constraints")

    return VerificationReport(not failures, tuple(failures), tuple(checks))



# ---------------------------------------------------------------------------
# Reductions.


@dataclass(frozen=True)
class ReductionCertificate:
    """What the reduced instance promises about the source problem."""

    problem: str  # "indep-set" or "3sat"
    space: DeliberationSpace
    eta: Fraction | None  # Euclidean score threshold
    unanimous: bool  # hypercube target is a unanimously approved proposal
    dim_labels: tuple[str, ...]
    source: dict


def _characteristic_agent(d: int, rhs_dims: Sequence[int]) -> Agent:
    """Agent whose approval condition is 1 + (sum of the other dims) <= (sum
    of ``rhs_dims``); the agent simply sits on the right-hand-side set."""
    return Agent(hypercube_point_from_set(rhs_dims, d))


# The most coordinates an independent-set reduction may hold: 311 vertices,
# 349 edges and kappa 2 give exactly this many, an 11 MB file that `reduce`
# wrote in 1.1-1.3 s (2 vCPU).  The count grows with the square of the
# vertices; 2,000 took 38.5 s.
_IS_MAX_COORDINATES = 1_000_000


def _check_reduction_size(n_agents: int, base: str, d: int, limit: int) -> None:
    """Refuse a reduction of ``n_agents`` agents in ``base``^``d`` past ``limit`` coordinates."""
    if d * n_agents > limit:
        raise GuardExceeded(
            f"the reduction would hold {d * n_agents} coordinates ({n_agents} agents in {base}^{d}), "
            f"over the reduction guard ({limit})"
        )


def reduce_is_to_hyp(num_vertices: int, edges: Sequence[tuple[int, int]], kappa: int) -> ReductionCertificate:
    """Independent-set instance (kappa sought) to a hypercube unanimity instance.

    Dimensions: a pair x_i, x_i' per vertex plus 2*kappa - 1 auxiliary
    dimensions forced to one; d = 2m + 2*kappa - 1.  The graph has an
    independent set of size kappa iff some proposal is approved by all
    agents.

    With kappa = 1 the edge constraints are unrepresentable in the
    characteristic-inequality form (the auxiliary budget is a single
    dimension) and also unnecessary, since any single vertex is independent;
    they are omitted and the certificate still holds.
    """
    m = num_vertices
    if not 1 <= kappa <= m:
        raise GeneratorError("kappa must lie in 1..num_vertices")
    edge_set = set()
    for u, v in edges:
        if u == v or not (1 <= u <= m and 1 <= v <= m):
            raise GeneratorError(f"bad edge ({u}, {v})")
        edge_set.add((min(u, v), max(u, v)))
    d = 2 * m + 2 * kappa - 1
    # Two agents per auxiliary dimension, four per vertex, one per edge (kappa >= 2), one for the size.
    n_agents = 2 * (2 * kappa - 1) + 4 * m + (len(edge_set) if kappa >= 2 else 0) + 1
    _check_reduction_size(n_agents, "{0,1}", d, _IS_MAX_COORDINATES)
    x = list(range(m))  # x_i at dimension i-1
    xp = [m + i for i in range(m)]  # x_i' at dimension m+i-1
    aux = list(range(2 * m, d))  # alpha_0, alpha_1, alpha_1', ...
    labels = (
        tuple(f"x{i+1}" for i in range(m))
        + tuple(f"x{i+1}'" for i in range(m))
        + tuple(
            "a0" if j == 0 else (f"a{(j + 1) // 2}" if j % 2 == 1 else f"a{j // 2}'")
            for j in range(2 * kappa - 1)
        )
    )

    agents: list[Agent] = []
    # Force every auxiliary dimension to 1 with a pair of agents whose
    # characteristic inequalities sum to alpha >= 1.
    for a_dim in aux:
        others = [o for o in aux if o != a_dim]
        b, rest = others[: kappa - 1], others[kappa - 1:]
        agents.append(_characteristic_agent(d, xp + rest + [a_dim]))
        agents.append(_characteristic_agent(d, x + b + [a_dim]))
    # Tie each pair together: x_i = x_i'.
    for i in range(m):
        others = [o for o in aux if o != aux[0]]
        left_half, right_half = others[: kappa - 1], others[kappa - 1:]
        xs_wo = [x[j] for j in range(m) if j != i]
        xps_wo = [xp[j] for j in range(m) if j != i]
        agents.append(_characteristic_agent(d, [aux[0], xp[i]] + xps_wo + right_half))
        agents.append(_characteristic_agent(d, [aux[0], xp[i]] + xs_wo + right_half))
        agents.append(_characteristic_agent(d, [aux[0], x[i]] + xps_wo + right_half))
        agents.append(_characteristic_agent(d, [aux[0], x[i]] + xs_wo + right_half))
    # Edge constraints x_i + x_j <= 1: net three forced-one dimensions on the
    # right-hand side (the left side implicitly holds x_i, x_j, x_i', x_j',
    # the remaining x's and the first kappa-2 auxiliaries).
    if kappa >= 2:
        for (u, v) in sorted(edge_set):
            i, j = u - 1, v - 1
            rhs_aux = aux[kappa - 2:]
            other_xp = [xp[t] for t in range(m) if t not in (i, j)]
            agents.append(_characteristic_agent(d, rhs_aux + other_xp))
    # Cardinality: 2*kappa <= 2 * sum x_i.
    agents.append(_characteristic_agent(d, x + xp))

    space = DeliberationSpace(Kind.HYPERCUBE, d, tuple(agents))
    return ReductionCertificate(
        problem="indep-set",
        space=space,
        eta=None,
        unanimous=True,
        dim_labels=labels,
        source={"vertices": m, "edges": sorted(edge_set), "kappa": kappa},
    )


# The most coordinates a 3-SAT reduction may hold (dimension times agents):
# 100 variables with 200 clauses, about 1.3 MB of instance file, which
# `reduce` wrote in 0.30 s (2 vCPU).  The count grows with the square of the
# variables; 800 variables took 11 s and 49 MB.
_SAT_MAX_COORDINATES = 100_000


def reduce_3sat_to_euc(num_vars: int, clauses: Sequence[Sequence[int]]) -> ReductionCertificate:
    """3-CNF satisfiability to a Euclidean score-threshold instance in R^{2m}.

    Variable i owns a coordinate pair; anchor agents at (-1,-1) on their own
    pair force any heavy proposal to stay balanced, literal agents at (1,0)
    and (0,1) encode the assignment, and one agent per clause sits at -1 on
    the pair-halves of its negated literals.  The formula is satisfiable iff
    some proposal reaches score eta.  Raises :class:`GuardExceeded` when the
    instance would hold more than ``_SAT_MAX_COORDINATES`` coordinates.
    """
    m = num_vars
    if m < 1:
        raise GeneratorError("need at least one variable")
    for cl in clauses:
        if len(cl) != 3 or len({abs(l) for l in cl}) != 3:
            raise GeneratorError(f"clause {cl!r} must use exactly 3 distinct variables")
        if any(l == 0 or abs(l) > m for l in cl):
            raise GeneratorError(f"clause {cl!r} references an unknown variable")
    d = 2 * m
    n_clauses = len(clauses)
    _check_reduction_size(3 * m + n_clauses, "R", d, _SAT_MAX_COORDINATES)
    lit_weight = Fraction(n_clauses + 1)
    anchor_weight = Fraction(2 * m) * lit_weight + 1
    eta = m * anchor_weight + m * lit_weight + n_clauses

    def pair_point(values: dict[int, tuple[int, int]]) -> Point:
        coords = [_ZERO] * d
        for i, (pos_half, neg_half) in values.items():
            coords[2 * i] = Fraction(pos_half)
            coords[2 * i + 1] = Fraction(neg_half)
        return euclidean_point(coords)

    agents: list[Agent] = []
    for i in range(m):
        agents.append(Agent(pair_point({i: (-1, -1)}), anchor_weight))
    for i in range(m):
        agents.append(Agent(pair_point({i: (1, 0)}), lit_weight))
        agents.append(Agent(pair_point({i: (0, 1)}), lit_weight))
    for cl in clauses:
        values: dict[int, tuple[int, int]] = {}
        for lit in cl:
            i = abs(lit) - 1
            pos_half, neg_half = values.get(i, (0, 0))
            if lit > 0:
                neg_half = -1  # clause satisfied by x_i true punishes the negated half
            else:
                pos_half = -1
            values[i] = (pos_half, neg_half)
        agents.append(Agent(pair_point(values), _ONE))

    labels = tuple(
        lab for i in range(m) for lab in (f"x{i+1}", f"~x{i+1}")
    )
    space = DeliberationSpace(Kind.EUCLIDEAN, d, tuple(agents))
    return ReductionCertificate(
        problem="3sat",
        space=space,
        eta=eta,
        unanimous=False,
        dim_labels=labels,
        source={"variables": m, "clauses": [list(cl) for cl in clauses]},
    )


# ---------------------------------------------------------------------------
# Random instances.


def gen_random(
    kind: str,
    n: int,
    d: int,
    seed: int,
    coord_range: tuple[int, int] = (-5, 5),
) -> DeliberationSpace:
    """Uniform agents excluding the origin; identical for identical seeds."""
    if n < 1:
        raise GeneratorError("empty agent sets are not allowed")
    rng = random.Random(seed)
    lo, hi = coord_range
    if lo > hi:
        raise GeneratorError("empty coordinate range")
    if kind in ("hypercube", "euclidean") and d < 1:
        raise GeneratorError("the dimension must be at least 1")
    if kind in ("euclidean", "grid") and lo == hi == 0:
        raise GeneratorError("the coordinate range holds only 0")
    if kind == "grid_nonneg" and hi < 1:
        raise GeneratorError("the coordinate range holds no positive value")
    agents: list[Agent] = []
    if kind == "hypercube":
        for _ in range(n):
            agents.append(Agent(hypercube_point(rng.randrange(1, 1 << d), d)))
        return DeliberationSpace(Kind.HYPERCUBE, d, tuple(agents))
    if kind == "euclidean":
        while len(agents) < n:
            den = rng.choice((1, 2, 3, 4))
            coords = [Fraction(rng.randint(lo * den, hi * den), den) for _ in range(d)]
            if all(c == 0 for c in coords):
                continue
            agents.append(Agent(euclidean_point(coords)))
        return DeliberationSpace(Kind.EUCLIDEAN, d, tuple(agents))
    if kind in ("grid", "grid_nonneg"):
        nonneg = kind == "grid_nonneg"
        low = max(lo, 0) if nonneg else lo
        while len(agents) < n:
            p = (rng.randint(low, hi), rng.randint(low, hi))
            if p == (0, 0):
                continue
            agents.append(Agent(grid_point(*p)))
        return DeliberationSpace(Kind.GRID, 2, tuple(agents), grid_nonneg=nonneg)
    raise GeneratorError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Source-problem file formats.


def parse_dimacs_cnf(text: str) -> tuple[int, list[list[int]]]:
    """Standard DIMACS CNF: one 'p cnf VARS CLAUSES' header, 0-terminated clauses."""
    num_vars = None
    expected = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise GeneratorError(f"malformed DIMACS header: {line!r}")
            num_vars, expected = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise GeneratorError("clause before DIMACS header")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise GeneratorError("unterminated clause (missing trailing 0)")
    if num_vars is None:
        raise GeneratorError("missing DIMACS header")
    if expected is not None and expected != len(clauses):
        raise GeneratorError(f"header promised {expected} clauses, found {len(clauses)}")
    return num_vars, clauses


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Graphs as 'p VERTICES EDGES' followed by one 1-indexed edge per line."""
    num_vertices = None
    expected = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 3:
                raise GeneratorError(f"malformed graph header: {line!r}")
            num_vertices, expected = int(parts[1]), int(parts[2])
            continue
        if num_vertices is None:
            raise GeneratorError("edge before graph header")
        parts = line.split()
        if len(parts) != 2:
            raise GeneratorError(f"malformed edge line: {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if num_vertices is None:
        raise GeneratorError("missing graph header")
    if expected is not None and expected != len(edges):
        raise GeneratorError(f"header promised {expected} edges, found {len(edges)}")
    return num_vertices, edges
