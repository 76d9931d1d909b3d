"""Deliberation spaces: points, agents, distances, approval and scores.

Three space kinds are supported.  Hypercube points are packed bit masks
(coordinate ``i`` lives at bit ``d - 1 - i`` so that integer order equals
lexicographic order on coordinate tuples).  Grid points are integer pairs
under the l1 distance.

A Euclidean point ``N / q`` is stored in one canonical exact form: a
denominator ``q >= 1`` and a sorted tuple of ``(index, numerator)`` pairs
holding the nonzero integer numerators, with ``q`` and the numerators
coprime.  Equality and hashing use this form, so ``2/4`` and ``1/2`` make
the same point, and a point with few nonzero coordinates stays small in any
dimension.  The dense tuple of Fractions is a derived view
(:meth:`Point.coords`) for the places that need a full vector: LP rows,
instance files, printing and the lexicographic sort key.  Distances between
Euclidean points are squared, which is order-equivalent to the norm.

The status quo is always the origin.  An agent approves a proposal when it
is strictly closer to the agent than the origin is; every comparison is
exact, there is no tolerance anywhere.  For an agent ``V = U / r`` and a
Euclidean proposal ``P = N / q`` that reads ``|P|^2 < 2 <V, P>``, and after
multiplying by ``r q^2`` the approval kernel tests, in integers only,

    r |N|^2 < 2 q <U, N>

where the inner product runs over the agent's nonzero coordinates.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence


class Kind(enum.Enum):
    HYPERCUBE = "hypercube"
    EUCLIDEAN = "euclidean"
    GRID = "grid"


class SpaceError(ValueError):
    """Invalid space, point or agent data."""


class KindMismatch(SpaceError):
    """Points of different kinds or dimensions were combined."""


class StatusQuoProposal(SpaceError):
    """The status quo itself was offered as a proposal."""


# Python refuses to turn a string of more digits than this into an int
# (sys.int_info.default_max_str_digits, a guard against quadratic work);
# ``rational`` holds numerators and denominators to the same budget.
_RATIONAL_DIGITS = 4300

# The forms ``Fraction`` accepts ("p/q", or a decimal with an optional
# exponent), with the digit runs captured; Python 3.10's Fraction takes no
# "_" separators, and refuses them itself.
_RATIONAL_FORM = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?P<num>\d*(?:_\d+)*)"
    r"(?:\s*/\s*(?P<den>\d+(?:_\d+)*)|(?:\.(?P<dec>\d*(?:_\d+)*))?(?:E(?P<exp>[-+]?\d+(?:_\d+)*))?)\s*",
    re.IGNORECASE,
)


def _echo(value) -> str:
    """``repr(value)`` for an error line, cut after 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _digits(run: str | None) -> int:
    return len(run.replace("_", "")) if run else 0


def rational(text) -> Fraction:
    """``Fraction(text)``, refusing a string whose numerator or denominator
    has more than 4,300 digits with ``OverflowError``.

    The digits are counted on the text, before any integer is built: a
    decimal ``m.f`` with exponent ``e`` is the integer ``mf`` times 10 to
    the ``e - len(f)``, so "1e4299" and "1e-4299" pass while "1e4300" and
    "1e-4300" are refused.  The nine characters "1e-300000" would otherwise
    build a 300,001-digit denominator for every later sum to carry.  A value
    that is not a string goes to ``Fraction`` unchanged.
    """
    if type(text) is not str:
        return Fraction(text)
    form = _RATIONAL_FORM.fullmatch(text)
    if form is not None:
        num, den, dec, exp = form.group("num", "den", "dec", "exp")
        if den is not None:
            sizes = (_digits(num), _digits(den))
        else:
            exp = (exp or "0").replace("_", "")
            # Past six digits the exponent alone is over budget either way.
            shift = int(exp) if len(exp.lstrip("+-0")) <= 6 else (-1 if exp[0] == "-" else 1) * 10**6
            shift -= _digits(dec)
            sizes = (_digits(num) + _digits(dec) + max(shift, 0), 1 + max(-shift, 0))
        if max(sizes) > _RATIONAL_DIGITS:
            raise OverflowError(
                f"{_echo(text)} has a numerator or denominator of more than {_RATIONAL_DIGITS} digits"
            )
    return Fraction(text)


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise SpaceError(f"refusing float coordinate {value!r}; use exact rationals")
    return rational(value)


_ZERO = Fraction(0)


def _canonical_euclidean(dim: int, data) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Reduce ``(q, pairs)`` to the canonical form described in the module docstring."""
    try:
        q, pairs = data
        pairs = sorted(pair for pair in pairs if pair[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise SpaceError("Euclidean point data is (denominator, ((index, numerator), ...))") from exc
    if type(q) is not int or q < 1:
        raise SpaceError("the denominator must be a positive integer")
    g, last = q, -1
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2:
            raise SpaceError("each coordinate is an (index, numerator) tuple")
        i, c = pair
        if type(i) is not int or type(c) is not int:
            raise SpaceError("indices and numerators must be integers")
        if not last < i < dim:
            raise SpaceError(f"coordinate index {i} repeated or out of range")
        last = i
        g = gcd(g, c)
    if g > 1:
        return q // g, tuple((i, c // g) for i, c in pairs)
    return q, tuple(pairs)


@dataclass(frozen=True)
class Point:
    """A location in one of the three space kinds.

    ``data`` is an ``int`` bit mask for hypercube points, the canonical
    ``(q, ((index, numerator), ...))`` form for Euclidean points (any
    ``(q, pairs)`` given is reduced to it), and an integer pair for grid
    points.
    """

    kind: Kind
    dim: int
    data: object

    def __post_init__(self):
        if self.dim <= 0:
            raise SpaceError("dimension must be positive")
        if self.kind is Kind.HYPERCUBE:
            if not isinstance(self.data, int) or not 0 <= self.data < (1 << self.dim):
                raise SpaceError("hypercube point must be a mask in [0, 2^d)")
        elif self.kind is Kind.EUCLIDEAN:
            object.__setattr__(self, "data", _canonical_euclidean(self.dim, self.data))
        else:
            data = tuple(self.data)
            object.__setattr__(self, "data", data)
            if self.dim != 2 or len(data) != 2:
                raise SpaceError("grid points are integer pairs")
            if not (isinstance(data[0], int) and isinstance(data[1], int)):
                raise SpaceError("grid coordinates must be integers")

    @classmethod
    def trusted(cls, kind: Kind, dim: int, data) -> Point:
        """A point from ``data`` already in canonical form, left unchecked:
        for callers whose points are canonical by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "kind", kind)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "data", data)
        return p

    def coords(self) -> tuple:
        """Coordinates as a dense tuple (Fractions for Euclidean points)."""
        if self.kind is Kind.HYPERCUBE:
            return tuple((self.data >> (self.dim - 1 - i)) & 1 for i in range(self.dim))
        if self.kind is Kind.EUCLIDEAN:
            q, pairs = self.data
            dense = [_ZERO] * self.dim
            for i, c in pairs:
                dense[i] = Fraction(c, q)
            return tuple(dense)
        return self.data

    def is_origin(self) -> bool:
        if self.kind is Kind.HYPERCUBE:
            return self.data == 0
        if self.kind is Kind.EUCLIDEAN:
            return not self.data[1]
        return not any(self.data)

    def sort_key(self):
        """Key realising lexicographic order on coordinates."""
        if self.kind is Kind.HYPERCUBE:
            return self.data
        return self.coords()

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords()) + ")"


_BITS = frozenset((0, 1))
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def hypercube_point(coords: Sequence[int] | int, dim: int | None = None) -> Point:
    """Build a hypercube point from a 0/1 coordinate sequence or a mask."""
    if isinstance(coords, int):
        if dim is None:
            raise SpaceError("mask form requires an explicit dimension")
        return Point(Kind.HYPERCUBE, dim, coords)
    bits = coords if type(coords) is list else list(coords)
    try:
        binary = _BITS.issuperset(bits)
    except TypeError:  # an unhashable coordinate is not 0 or 1 either
        binary = False
    if not binary:
        raise SpaceError("hypercube coordinates must be 0 or 1")
    if not bits:
        raise SpaceError("dimension must be positive")
    # The mask of d bits lies in [0, 2^d) by construction.
    return Point.trusted(Kind.HYPERCUBE, len(bits), int(bytes(bits).translate(_BIT_CHARS), 2))


def hypercube_point_from_set(members: Iterable[int], dim: int) -> Point:
    """Hypercube point with the 1-coordinates listed by index (0-based)."""
    mask = 0
    for i in members:
        if not 0 <= i < dim:
            raise SpaceError(f"dimension index {i} out of range")
        mask |= 1 << (dim - 1 - i)
    return Point(Kind.HYPERCUBE, dim, mask)


def euclidean_point(coords: Sequence) -> Point:
    """Euclidean point from a dense sequence of exact rationals."""
    vec = [_as_fraction(c) for c in coords]
    q = lcm(1, *(c.denominator for c in vec))
    pairs = tuple((i, c.numerator * (q // c.denominator)) for i, c in enumerate(vec) if c)
    return Point(Kind.EUCLIDEAN, len(vec), (q, pairs))


def grid_point(x: int, y: int) -> Point:
    return Point(Kind.GRID, 2, (int(x), int(y)))


def origin(kind: Kind, dim: int) -> Point:
    if kind is Kind.HYPERCUBE:
        return Point(kind, dim, 0)
    if kind is Kind.EUCLIDEAN:
        return Point(kind, dim, (1, ()))
    return Point(kind, 2, (0, 0))


def _check_compatible(a: Point, b: Point):
    if a.kind is not b.kind or a.dim != b.dim:
        raise KindMismatch(f"incompatible points: {a.kind.value}^{a.dim} vs {b.kind.value}^{b.dim}")


def distance(a: Point, b: Point) -> Fraction | int:
    """Hamming count, SQUARED Euclidean distance, or l1 grid distance.

    The squared form is used for Euclidean points throughout; it is
    order-equivalent to the norm for every comparison made here.
    """
    _check_compatible(a, b)
    if a.kind is Kind.HYPERCUBE:
        return (a.data ^ b.data).bit_count()
    if a.kind is Kind.EUCLIDEAN:
        # A/qa - B/qb = (qb A - qa B) / (qa qb)
        (qa, pa), (qb, pb) = a.data, b.data
        diff = {i: c * qb for i, c in pa}
        for i, c in pb:
            diff[i] = diff.get(i, 0) - c * qa
        return Fraction(sum(v * v for v in diff.values()), (qa * qb) ** 2)
    return abs(a.data[0] - b.data[0]) + abs(a.data[1] - b.data[1])


@dataclass(frozen=True)
class Agent:
    """A position with a positive rational weight (1 for unweighted)."""

    position: Point
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        if type(self.weight) is not Fraction:
            object.__setattr__(self, "weight", _as_fraction(self.weight))
        if self.weight.numerator <= 0:
            raise SpaceError("agent weight must be positive")
        if self.position.is_origin():
            raise SpaceError("agents at the status quo approve nothing and are rejected")

    @cached_property
    def origin_distance(self) -> Fraction | int:
        p = self.position
        if p.kind is Kind.HYPERCUBE:
            return p.data.bit_count()
        if p.kind is Kind.EUCLIDEAN:
            q, pairs = p.data
            return Fraction(sum(c * c for _, c in pairs), q * q)
        return abs(p.data[0]) + abs(p.data[1])


@dataclass(frozen=True)
class DeliberationSpace:
    """A space kind, a dimension, agents, and the implicit origin status quo."""

    kind: Kind
    dim: int
    agents: tuple[Agent, ...]
    grid_nonneg: bool = False

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise SpaceError("a deliberation space needs at least one agent")
        for a in self.agents:
            if a.position.kind is not self.kind or a.position.dim != self.dim:
                raise KindMismatch("agent position does not match the space")
        if self.grid_nonneg:
            if self.kind is not Kind.GRID:
                raise SpaceError("grid_nonneg applies to grid spaces only")
            for a in self.agents:
                if min(a.position.data) < 0:
                    raise SpaceError("non-negative grid variant forbids negative coordinates")

    @property
    def n(self) -> int:
        return len(self.agents)

    @cached_property
    def total_weight(self) -> Fraction:
        return sum(a.weight for a in self.agents)

    @cached_property
    def unit_weights(self) -> bool:
        return all(a.weight == 1 for a in self.agents)

    def validate_proposal(self, p: Point):
        """Reject proposals outside the space or equal to the status quo."""
        if p.kind is not self.kind or p.dim != self.dim:
            raise KindMismatch("proposal does not live in this space")
        if p.is_origin():
            raise StatusQuoProposal("the status quo is not a proposal")
        if self.grid_nonneg and min(p.data) < 0:
            raise SpaceError("proposal outside the non-negative quadrant")


class _ApprovalTest:
    """The approval kernel: exact strict-distance approval of one fixed
    proposal, dist(v, p) < dist(v, origin), with per-proposal work done once."""

    def __init__(self, space: DeliberationSpace, proposal: Point):
        space.validate_proposal(proposal)
        self.proposal = proposal
        self._kind = space.kind
        if space.kind is Kind.EUCLIDEAN:
            q, pairs = proposal.data
            self._twice_q = 2 * q
            self._numerators = dict(pairs)
            self._sqnorm = sum(c * c for _, c in pairs)
        elif space.kind is Kind.HYPERCUBE:
            self._size = proposal.data.bit_count()
        else:
            self._pair = proposal.data

    def __call__(self, agent: Agent) -> bool:
        if self._kind is Kind.EUCLIDEAN:
            # r |N|^2 < 2 q <U, N> for V = U / r and P = N / q.
            r, support = agent.position.data
            numerators = self._numerators
            inner = 0
            for i, u in support:
                if i in numerators:
                    inner += u * numerators[i]
            return r * self._sqnorm < self._twice_q * inner
        if self._kind is Kind.HYPERCUBE:
            # |X| < 2 |V cap X| in set notation.
            return self._size < 2 * (agent.position.data & self.proposal.data).bit_count()
        # |V - P|_1 < |V|_1 on the grid.
        (x, y), (px, py) = agent.position.data, self._pair
        return abs(x - px) + abs(y - py) < agent.origin_distance


def approves(agent: Agent, proposal: Point, space: DeliberationSpace) -> bool:
    """Exact strict-distance approval: dist(v, p) < dist(v, origin)."""
    _check_compatible(agent.position, proposal)
    return _ApprovalTest(space, proposal)(agent)


def approval_test(space: DeliberationSpace, proposal: Point) -> _ApprovalTest:
    return _ApprovalTest(space, proposal)


def approver_indices(space: DeliberationSpace, proposal: Point) -> tuple[int, ...]:
    test = approval_test(space, proposal)
    return tuple(i for i, a in enumerate(space.agents) if test(a))


def score(space: DeliberationSpace, proposal: Point) -> Fraction:
    """Total weight of the agents approving the proposal."""
    test = approval_test(space, proposal)
    return sum((a.weight for a in space.agents if test(a)), Fraction(0))


def group_positions(agents: Iterable[Agent]) -> tuple[tuple[Point, Fraction], ...]:
    """Group agents by exact position, weights summed, in lexicographic order.

    Co-located agents approve identical proposal sets, so solvers work on
    these groups instead of raw agents.
    """
    acc: dict[Point, Fraction] = {}
    for a in agents:
        p = a.position
        acc[p] = acc[p] + a.weight if p in acc else a.weight
    return tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key()))


def distinct_positions(space: DeliberationSpace) -> tuple[tuple[Point, Fraction], ...]:
    """The space's agents grouped by :func:`group_positions`."""
    return group_positions(space.agents)
