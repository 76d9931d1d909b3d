"""Exact rational linear programming for strict feasibility questions.

The systems solved here are tiny and must be decided exactly.  The solver
is a dense tableau simplex with Bland's rule (which cannot cycle), run in
scaled integer arithmetic: every tableau row is a vector of integer
numerators with one positive denominator, so a pivot is integer
cross-multiplication plus a gcd normalisation, and ratio tests compare
integer products.  Fractions appear only at the boundary.

Strict rows ``<a, x> > c`` are handled by a margin variable: replace them
by ``<a, x> >= c + delta``, clamp the free variables into the box
``-1 <= x_i <= 1`` (the callers' systems are homogeneous, so the box loses
no solutions), and maximise ``delta``; the strict system is feasible
exactly when the optimum is positive.

Rows enter the core as integers: ``<N / q, x> REL b / q`` is
``(REL, q, N)`` with ``N`` sparse ``(index, numerator)`` pairs, the
canonical form of a Euclidean point (``Point.data`` is ``(q, N)``), and a
strict row's margin coefficient is ``q``.  As gcd(q, N) = 1, ``q`` is the lcm
of the coordinates' denominators, so this is the row the Fraction path
builds for the same point.  Fraction systems
(:func:`solve_lp_feasible_strict`) are scaled once, row by row, by the lcm
of their denominators into the same form.

When a homogeneous system of ``>`` and ``<=`` rows is strictly infeasible,
the margin optimum is 0 and the final objective row's slack columns hold
multipliers ``y >= 0`` with

    sum over ``>`` rows of y_i N_i  -  sum over ``<=`` rows of y_i N_i  =  0

and some ``y_i > 0`` on a ``>`` row.  By Motzkin's transposition theorem
no ``x`` satisfies the rows it names, and neither does any system that
contains them; :func:`solve_strict_rows` returns such a certificate only
after checking it in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

_ZERO = Fraction(0)

RELATIONS = ("<=", ">=", "=", ">")


class MalformedSystem(ValueError):
    """Raised for inconsistent row shapes or an unbounded margin objective."""


@dataclass(frozen=True)
class Row:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearSystem:
    """Rows ``<a, x> REL b`` over ``variables`` free rational unknowns."""

    variables: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row.coeffs) != self.variables:
                raise MalformedSystem("coefficient vector length must equal the variable count")
            if row.relation not in RELATIONS:
                raise MalformedSystem(f"unknown relation {row.relation!r}")


def make_system(variables: int, rows: Sequence[tuple[Sequence, str, object]]) -> LinearSystem:
    built = tuple(
        Row(tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs)) for coeffs, rel, rhs in rows
    )
    return LinearSystem(variables, built)


# ---------------------------------------------------------------------------
# Integer tableau core.  nums[i] is a list of integer numerators, dens[i] the
# shared positive denominator of row i; the last row is the objective and the
# last column the right-hand side.


def _normalise(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    if g > 1:
        return [v // g for v in nums], den // g
    return nums, den


def _pivot(nums, dens, basis, row, col):
    prow = nums[row]
    q = prow[col]
    if q < 0:
        prow = [-v for v in prow]
        q = -q
    prow, pden = _normalise(prow, q)
    nums[row], dens[row] = prow, pden
    for i in range(len(nums)):
        if i == row:
            continue
        line = nums[i]
        f = line[col]
        if f == 0:
            continue
        merged = [a * pden - f * p for a, p in zip(line, prow)]
        nums[i], dens[i] = _normalise(merged, dens[i] * pden)
    if basis is not None:
        basis[row] = col


def _simplex_max(nums, dens, basis, ncols):
    """Maximise the objective held in the last row.  Bland's rule."""
    obj = len(nums) - 1
    while True:
        objrow = nums[obj]
        col = next((j for j in range(ncols) if objrow[j] < 0), None)
        if col is None:
            return
        best_row = None
        best_num = best_den = 0  # ratio = best_num / best_den, best_den > 0
        for r in range(obj):
            a = nums[r][col]
            if a > 0:
                num, den = nums[r][-1], a
                if (
                    best_row is None
                    or num * best_den < best_num * den
                    or (num * best_den == best_num * den and basis[r] < basis[best_row])
                ):
                    best_row, best_num, best_den = r, num, den
        if best_row is None:
            raise MalformedSystem("objective unbounded; the system is missing box constraints")
        _pivot(nums, dens, basis, best_row, col)


def _max_margin(d: int, rows, rhs: Sequence[int] | None = None):
    """Maximise the margin over integer rows ``(REL, q, N)`` with right-hand sides ``rhs``.

    ``A z <= b`` holds the rows over ``z = (p, r, delta)`` with ``x = p - r``,
    then the cap ``delta <= 1`` and the box rows.  Returns ``(x, y)``: the
    witness if the optimum is positive, else None, and the objective row on
    the rows' slack columns (None if phase 1 finds the rows infeasible).
    """
    n = 2 * d + 1
    delta = 2 * d
    A: list[list[int]] = []
    b: list[int] = []

    def emit(sign, pairs, bi, margin=0):
        row = [0] * n
        for j, c in pairs:
            row[j] = sign * c
            row[d + j] = -sign * c
        row[delta] = margin
        A.append(row)
        b.append(bi)

    for k, (rel, q, pairs) in enumerate(rows):
        bk = 0 if rhs is None else rhs[k]
        if rel == "<=":
            emit(1, pairs, bk)
        elif rel == ">=":
            emit(-1, pairs, -bk)
        elif rel == "=":
            emit(1, pairs, bk)
            emit(-1, pairs, -bk)
        else:  # strict: <N, x> >= b + q delta
            emit(-1, pairs, -bk, margin=q)
    # Cap the margin so the objective stays bounded even without strict rows;
    # any positive optimum still certifies strict feasibility.
    A.append([0] * delta + [1])
    b.append(1)
    for j in range(d):
        emit(1, ((j, 1),), 1)
        emit(-1, ((j, 1),), 1)

    m = len(A)
    need_art = [i for i in range(m) if b[i] < 0]
    art_col = {i: n + m + k for k, i in enumerate(need_art)}
    ncols = n + m + len(need_art)
    nums: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for i in range(m):
        row = A[i] + [0] * (m + len(need_art)) + [b[i]]
        row[n + i] = 1  # slack
        if i in art_col:
            row = [-v for v in row]
            row[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            basis.append(n + i)
        nums.append(row)
        dens.append(1)

    if need_art:
        # Phase 1: maximise minus the artificial total.  Start from +1 on the
        # artificial columns and zero the basic ones out by subtracting their
        # rows, keeping everything over one integer denominator.
        obj_num = [0] * (ncols + 1)
        for col in art_col.values():
            obj_num[col] = 1
        obj_den = 1
        for i in need_art:
            r = basis.index(art_col[i])
            prow, pden = nums[r], dens[r]
            obj_num = [a * pden - obj_den * p for a, p in zip(obj_num, prow)]
            obj_num, obj_den = _normalise(obj_num, obj_den * pden)
        nums.append(obj_num)
        dens.append(obj_den)
        _simplex_max(nums, dens, basis, ncols)
        if nums[-1][-1] != 0:
            return None, None
        nums.pop()
        dens.pop()
        # Drive leftover artificials out of the basis (degenerate rows).
        for r in range(m):
            if basis[r] >= n + m:
                col = next((j for j in range(n + m) if nums[r][j] != 0), None)
                if col is not None:
                    _pivot(nums, dens, basis, r, col)
        for r in range(m):
            nums[r] = nums[r][: n + m] + [nums[r][-1]]
        ncols = n + m

    # Phase 2: maximise delta.
    obj_num = [0] * (ncols + 1)
    obj_num[delta] = -1
    obj_den = 1
    if delta in basis:
        r = basis.index(delta)
        prow, pden = nums[r], dens[r]
        obj_num = [a * pden + obj_den * p for a, p in zip(obj_num, prow)]
        obj_num, obj_den = _normalise(obj_num, obj_den * pden)
    nums.append(obj_num)
    dens.append(obj_den)
    _simplex_max(nums, dens, basis, ncols)

    y = nums[-1][n : n + m - 1 - 2 * d]
    if nums[-1][-1] <= 0:
        return None, y
    z = [_ZERO] * n
    for r in range(m):
        if basis[r] < n:
            z[basis[r]] = Fraction(nums[r][-1], dens[r])
    return tuple(z[j] - z[d + j] for j in range(d)), y


def solve_strict_rows(d: int, rows) -> tuple[tuple[Fraction, ...] | None, tuple[int, ...] | None]:
    """Decide the homogeneous system ``<N / q, x> REL 0`` over integer rows.

    ``rows`` holds ``(REL, q, N)`` with ``REL`` one of ``>`` and ``<=`` and
    ``N`` sparse ``(index, numerator)`` pairs.  Returns ``(x, None)`` with a
    rational ``x`` satisfying every row, strict rows strictly (the witness
    the Fraction path returns for the same system), or ``(None, y)`` with
    one multiplier per row that passed the check in the module docstring;
    ``(None, None)`` if they did not.
    """
    x, y = _max_margin(d, rows)
    if x is not None:
        return x, None
    total = [0] * d
    strict = False
    for (rel, _, pairs), v in zip(rows, y):
        if v < 0 or rel not in (">", "<="):
            return None, None
        strict = strict or (v > 0 and rel == ">")
        v = v if rel == ">" else -v
        for j, c in pairs:
            total[j] += v * c
    if len(y) == len(rows) and strict and not any(total):
        return None, tuple(y)
    return None, None


def solve_lp_feasible_strict(system: LinearSystem) -> tuple[Fraction, ...] | None:
    """A rational point satisfying the system with every strict row slack.

    Returns ``None`` when no such point exists.  Intended for homogeneous
    systems (all right-hand sides zero); inhomogeneous callers must ensure a
    witness inside the unit box exists, since the box is always imposed.
    """
    rows, rhs = [], []
    for r in system.rows:
        q = lcm(r.rhs.denominator, *(c.denominator for c in r.coeffs))
        rows.append((r.relation, q, [(j, int(c * q)) for j, c in enumerate(r.coeffs) if c]))
        rhs.append(int(r.rhs * q))
    return _max_margin(system.variables, rows, rhs)[0]

