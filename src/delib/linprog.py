"""Exact rational linear programming for strict feasibility questions.

The systems solved here are tiny and must be decided exactly.  The solver
is a dense tableau simplex with Bland's rule (which cannot cycle), run in
scaled integer arithmetic: every tableau row is a vector of integer
numerators with one positive denominator, so a pivot is integer
cross-multiplication plus a gcd normalisation, and ratio tests compare
integer products.  Fractions appear only in the witness.

Every system is homogeneous: rows ``<N / q, x> > 0`` and ``<N / q, x> <= 0``
given as integer rows ``(REL, q, N)`` with ``N`` sparse ``(index,
numerator)`` pairs, the canonical form of a Euclidean point (``Point.data``
is ``(q, N)``).  Strict rows are handled by a margin variable: replace them
by ``<N, x> >= q delta``, clamp the free variables into the box
``-1 <= x_i <= 1`` (which loses no solutions, since the system is
homogeneous), cap ``delta <= 1`` and maximise ``delta``; the strict system
is feasible exactly when the optimum is positive.  Every right-hand side is
0 or 1, so the slack basis is feasible from the start and one simplex phase
suffices.

When the system is strictly infeasible, the margin optimum is 0 and the
final objective row's slack columns hold multipliers ``y >= 0`` with

    sum over ``>`` rows of y_i N_i  -  sum over ``<=`` rows of y_i N_i  =  0

and some ``y_i > 0`` on a ``>`` row.  By Motzkin's transposition theorem
no ``x`` satisfies the rows it names, and neither does any system that
contains them; :func:`solve_strict_rows` returns such a certificate only
after checking it in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)


class MalformedSystem(ValueError):
    """Raised for an unbounded margin objective."""


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


def _max_margin(d: int, rows):
    """Maximise the margin over the homogeneous integer rows ``(REL, q, N)``.

    ``A z <= b`` holds the rows over ``z = (p, r, delta)`` with ``x = p - r``,
    then the cap ``delta <= 1`` and the box rows.  Returns ``(x, y)``: the
    witness if the optimum is positive, else None, and the objective row on
    the rows' slack columns.
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

    for rel, q, pairs in rows:
        if rel == "<=":
            emit(1, pairs, 0)
        else:  # strict: <N, x> >= q delta
            emit(-1, pairs, 0, margin=q)
    # Cap the margin so the objective stays bounded even without strict rows;
    # any positive optimum still certifies strict feasibility.
    A.append([0] * delta + [1])
    b.append(1)
    for j in range(d):
        emit(1, ((j, 1),), 1)
        emit(-1, ((j, 1),), 1)

    m = len(A)
    nums = [row + [0] * m + [bi] for row, bi in zip(A, b)]
    for i, row in enumerate(nums):
        row[n + i] = 1  # slack
    basis = list(range(n, n + m))
    dens = [1] * m
    # Maximise delta.  Every b is 0 or 1, so the slack basis is feasible, and
    # delta is nonbasic there, so the objective row needs no reduction.
    nums.append([0] * delta + [-1] + [0] * (m + 1))
    dens.append(1)
    _simplex_max(nums, dens, basis, n + m)

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
    rational ``x`` satisfying every row, strict rows strictly, or
    ``(None, y)`` with one multiplier per row that passed the check in the
    module docstring; ``(None, None)`` if they did not.
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
