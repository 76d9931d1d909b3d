"""Exact rational linear programming for strict feasibility questions.

The systems solved here are tiny and must be decided exactly.  The solver
is a simplex with Bland's rule (which cannot cycle) on a condensed,
fraction-free tableau.  Condensed (Tucker's Jordan exchange): only the
nonbasic columns and the right-hand side are stored; ``labels[j]`` names
the variable in column j, ``basis[i]`` the one basic in row i, and a pivot
swaps the two.  Fraction-free (Bareiss 1968; Edmonds 1967): every entry is
an integer numerator over one denominator ``D > 0``, the previous pivot
element (the basis determinant), so a pivot is integer cross-multiplication
divided exactly by ``D``, and ratio tests compare integer products.
Fractions appear only in the witness.

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

When the system is strictly infeasible, the margin optimum is 0, and the
final objective row, read at the rows' slack labels (0 for a basic slack)
and reduced to lowest terms, holds multipliers ``y >= 0`` with

    sum over ``>`` rows of y_i N_i  -  sum over ``<=`` rows of y_i N_i  =  0

and some ``y_i > 0`` on a ``>`` row.  By Motzkin's transposition theorem
no ``x`` satisfies the rows it names, and neither does any system that
contains them.  :func:`solve_strict_rows` checks a witness or a certificate
in integers before it returns either.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class MalformedSystem(ValueError):
    """Raised for an unknown relation, an unbounded objective or a failed witness."""


# ---------------------------------------------------------------------------
# Condensed integer tableau core.  T[i] holds the numerators of row i over
# the shared denominator D: one per nonbasic column, then the right-hand side;
# the last row is the objective.


def _pivot(T, basis, labels, row, col, D):
    """Exchange ``basis[row]`` with ``labels[col]``; returns the new ``D``."""
    prow = T[row]
    q = prow[col]
    for i, line in enumerate(T):
        if i == row:
            continue
        f = line[col]
        if f:
            line = [(a * q - f * p) // D for a, p in zip(line, prow)]
            line[col] = -f
        elif q != D:
            line = [a * q // D for a in line]
        T[i] = line
    prow[col] = D
    basis[row], labels[col] = labels[col], basis[row]
    return q


def _simplex_max(T, basis, labels):
    """Maximise the objective held in the last row.  Bland's rule: enter the
    negative reduced cost with the smallest label, leave by the least ratio,
    ties to the smallest basic label.  Returns the final ``D``."""
    obj = len(T) - 1
    D = 1
    while True:
        objrow = T[obj]
        col = min((j for j, v in enumerate(objrow[:-1]) if v < 0), key=labels.__getitem__, default=None)
        if col is None:
            return D
        best_row = None
        best_num = best_den = 0  # ratio = best_num / best_den, best_den > 0
        for r in range(obj):
            a = T[r][col]
            if a > 0:
                num, den = T[r][-1], a
                if (
                    best_row is None
                    or num * best_den < best_num * den
                    or (num * best_den == best_num * den and basis[r] < basis[best_row])
                ):
                    best_row, best_num, best_den = r, num, den
        if best_row is None:
            raise MalformedSystem("objective unbounded; the system is missing box constraints")
        D = _pivot(T, basis, labels, best_row, col, D)


def _max_margin(d: int, rows):
    """Maximise the margin over the homogeneous integer rows ``(REL, q, N)``.

    ``A z <= b`` holds the rows over ``z = (p, r, delta)`` with ``x = p - r``,
    then the cap ``delta <= 1`` and the box rows.  Returns ``(x, y)``: if the
    optimum is positive, ``x = (D, u)`` with witness ``u / D``, else None;
    and the objective row on the rows' slack labels, in lowest terms.
    """
    n = 2 * d + 1
    delta = 2 * d
    T: list[list[int]] = []

    def emit(sign, pairs, bi, margin=0):
        row = [0] * (n + 1)
        for j, c in pairs:
            row[j] = sign * c
            row[d + j] = -sign * c
        row[delta] = margin
        row[n] = bi
        T.append(row)

    for rel, q, pairs in rows:
        if rel == "<=":
            emit(1, pairs, 0)
        elif rel == ">":  # <N, x> >= q delta
            emit(-1, pairs, 0, margin=q)
        else:
            raise MalformedSystem(f"unknown relation {rel!r}; expected '>' or '<='")
    # Cap the margin so the objective stays bounded even without strict rows;
    # any positive optimum still certifies strict feasibility.
    T.append([0] * delta + [1, 1])
    for j in range(d):
        emit(1, ((j, 1),), 1)
        emit(-1, ((j, 1),), 1)

    m = len(T)
    labels = list(range(n))
    basis = list(range(n, n + m))
    # Maximise delta.  Every b is 0 or 1, so the slack basis is feasible, and
    # delta is nonbasic there, so the objective row needs no reduction.
    T.append([0] * delta + [-1, 0])
    D = _simplex_max(T, basis, labels)

    objrow = T[-1]
    g = gcd(D, *objrow)
    column = {label: j for j, label in enumerate(labels)}
    y = [objrow[column[s]] // g if s in column else 0 for s in range(n, n + len(rows))]
    if objrow[-1] <= 0:
        return None, y
    z = {label: T[r][-1] for r, label in enumerate(basis)}
    return (D, [z.get(j, 0) - z.get(d + j, 0) for j in range(d)]), y


def solve_strict_rows(d: int, rows) -> tuple[tuple[Fraction, ...] | None, tuple[int, ...] | None]:
    """Decide the homogeneous system ``<N / q, x> REL 0`` over integer rows.

    ``rows`` holds ``(REL, q, N)`` with ``REL`` one of ``>`` and ``<=`` and
    ``N`` sparse ``(index, numerator)`` pairs.  Returns ``(x, None)`` with a
    rational ``x`` satisfying every row, strict rows strictly, or
    ``(None, y)`` with one multiplier per row that passed the check in the
    module docstring; ``(None, None)`` if they did not.  Raises
    :class:`MalformedSystem` for another relation, or if the witness fails.
    """
    x, y = _max_margin(d, rows)
    if x is not None:
        D, u = x
        for rel, _, pairs in rows:
            value = sum(c * u[j] for j, c in pairs)
            if value <= 0 if rel == ">" else value > 0:
                raise MalformedSystem(f"the simplex witness fails the row {rel} {pairs}")
        return tuple(Fraction(v, D) for v in u), None
    total = [0] * d
    strict = False
    for (rel, _, pairs), v in zip(rows, y):
        if v < 0:
            return None, None
        strict = strict or (v > 0 and rel == ">")
        v = v if rel == ">" else -v
        for j, c in pairs:
            total[j] += v * c
    if len(y) == len(rows) and strict and not any(total):
        return None, tuple(y)
    return None, None
