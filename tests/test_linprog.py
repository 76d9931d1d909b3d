"""Exact simplex and strict feasibility, cross-checked against geometry.

For planar homogeneous systems, strict feasibility has an independent exact
answer via an angular sweep with symbolic perturbation; the LP must agree
with it on random instances.  The integer-row entry point must return either
a witness that satisfies every row or an infeasibility certificate that
checks out in plain Fractions.  The condensed fraction-free core must take
the same pivots and give the same witness and multipliers as the dense
tableau with per-row denominators, kept below as the reference.
"""

import random
import sys
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from delib import linprog
from delib.generators import gen_euc_slow
from delib.linprog import MalformedSystem, solve_strict_rows
from delib.space import euclidean_point


def dense_rows(rows):
    """Integer rows from ``(relation, dense normal)`` pairs."""
    return [(rel,) + euclidean_point(v).data for rel, v in rows]


def check_solution(rows, x):
    for rel, v in rows:
        value = sum(Fraction(c) * xi for c, xi in zip(v, x))
        assert value > 0 if rel == ">" else value <= 0


class TestBasics:
    def test_single_strict(self):
        x, _ = solve_strict_rows(1, dense_rows([(">", (1,))]))
        assert x is not None and x[0] > 0

    def test_antipodal_infeasible(self):
        x, y = solve_strict_rows(2, dense_rows([(">", (1, 0)), (">", (-1, 0))]))
        assert x is None and y == (1, 1)

    def test_two_basis_directions(self):
        rows = [(">", (1, 0)), (">", (0, 1))]
        x, _ = solve_strict_rows(2, dense_rows(rows))
        check_solution(rows, x)

    def test_weak_rows_only(self):
        # no strict rows: any point of the weak system qualifies
        x, _ = solve_strict_rows(1, dense_rows([("<=", (-1,))]))
        assert x is not None and x[0] >= 0


def _sweep_feasible_2d(normals):
    """Exact independent oracle: do all normals fit in an open half-plane?

    Scans candidate directions orthogonal to each normal, perturbed
    symbolically toward the normal, plus the normals themselves.
    """
    candidates = []
    for v in normals:
        candidates.append((v, None))
        candidates.append(((-v[1], v[0]), v))
        candidates.append(((v[1], -v[0]), v))
    for u, tie in candidates:
        ok = True
        for w in normals:
            primary = w[0] * u[0] + w[1] * u[1]
            if primary > 0:
                continue
            if primary < 0 or tie is None:
                ok = False
                break
            secondary = w[0] * tie[0] + w[1] * tie[1]
            if secondary <= 0:
                ok = False
                break
        if ok:
            return True
    return False


class TestAgainstPlanarSweep:
    def test_random_strict_systems(self):
        rng = random.Random(99)
        for trial in range(300):
            count = rng.randint(1, 6)
            normals = []
            while len(normals) < count:
                v = (rng.randint(-4, 4), rng.randint(-4, 4))
                if v != (0, 0):
                    normals.append(v)
            rows = [(">",) + euclidean_point(v).data for v in normals]
            x, _ = solve_strict_rows(2, rows)
            expected = _sweep_feasible_2d(normals)
            assert (x is not None) == expected, (trial, normals)
            if x is not None:
                assert all(a * x[0] + b * x[1] > 0 for a, b in normals)


class TestScaleAndBox:
    def test_solution_lies_in_unit_box(self):
        rows = [(">", (1, 3)), (">", (2, -1))]
        x, _ = solve_strict_rows(2, dense_rows(rows))
        check_solution(rows, x)
        assert all(-1 <= xi <= 1 for xi in x)

    def test_scaling_normals_preserves_feasibility(self):
        # Rows need not be in canonical form: scaling q and N by different
        # positive integers rescales the normal and keeps the answer.
        rows = dense_rows([(">", (3, 5, -1)), (">", (-2, 1, 1)), (">", (0, 1, 4))])
        scaled = [(rel, 3 * q, tuple((j, 7 * c) for j, c in pairs)) for rel, q, pairs in rows]
        a, _ = solve_strict_rows(3, rows)
        b, _ = solve_strict_rows(3, scaled)
        assert (a is None) == (b is None)


def test_big_degenerate_system():
    # many duplicate rows; must stay exact and terminate (Bland)
    rows = []
    for _ in range(8):
        rows.append((">", (1, 1)))
        rows.append(("<=", (-1, 0)))
        rows.append(("<=", (0, 1)))
    x, _ = solve_strict_rows(2, dense_rows(rows))
    assert x is not None and x[0] + x[1] > 0
    check_solution(rows, x)


def homogeneous_systems():
    """(d, [(relation, dense Fraction normal), ...]) with d <= 4; zero normals included."""
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    row = lambda d: st.tuples(st.sampled_from((">", "<=")), st.lists(coord, min_size=d, max_size=d))
    return st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(row(d), min_size=1, max_size=7))
    )


class TestIntegerRows:
    @settings(max_examples=400, deadline=None)
    @given(homogeneous_systems())
    def test_witness_or_verified_certificate(self, system):
        d, normals = system
        rows = dense_rows(normals)
        for (_, q, pairs), (_, v) in zip(rows, normals):
            # A point's (q, N) is its normal scaled by the lcm of the denominators.
            scale = lcm(1, *(c.denominator for c in v))
            assert (q, pairs) == (scale, tuple((j, int(c * scale)) for j, c in enumerate(v) if c))
        x, y = solve_strict_rows(d, rows)
        assert (x is None) != (y is None)
        if x is not None:
            check_solution(normals, x)
            return
        # Motzkin: sum_> y_i q_i v_i - sum_<= y_i q_i v_i = 0, y >= 0, some strict y_i > 0.
        assert len(y) == len(rows) and all(v >= 0 for v in y)
        assert any(yi > 0 for yi, (rel, _) in zip(y, normals) if rel == ">")
        total = [Fraction(0)] * d
        for yi, (rel, q, _), (_, v) in zip(y, rows, normals):
            sign = 1 if rel == ">" else -1
            for j in range(d):
                total[j] += sign * yi * q * v[j]
        assert total == [0] * d

    def test_canonical_point_is_the_scaled_row(self):
        v = (Fraction(3, 4), Fraction(0), Fraction(-1, 6))
        assert euclidean_point(v).data == (12, ((0, 9), (2, -2)))
        x, _ = solve_strict_rows(3, dense_rows([(">", v)]))
        check_solution([(">", v)], x)

    def test_unverified_multipliers_are_dropped(self, monkeypatch):
        rows = [(">", 1, ((0, 1),)), (">", 1, ((0, -1),))]
        assert solve_strict_rows(1, rows) == (None, (1, 1))
        real = linprog._max_margin
        monkeypatch.setattr(linprog, "_max_margin", lambda d, r: (real(d, r)[0], [1, 2]))
        assert solve_strict_rows(1, rows) == (None, None)


class TestMalformed:
    def test_unknown_relation_is_refused(self):
        with pytest.raises(MalformedSystem, match="unknown relation"):
            solve_strict_rows(1, [(">", 1, ((0, 1),)), (">=", 1, ((0, 1),))])

    def test_wrong_witness_is_refused(self, monkeypatch):
        rows = [(">", 1, ((0, 1),)), ("<=", 1, ((0, -1), (1, 1)))]
        assert solve_strict_rows(2, rows)[0] is not None
        # x = (1, 2) / 3 is strict on the first row but breaks the second.
        monkeypatch.setattr(linprog, "_max_margin", lambda d, r: ((3, [1, 2]), None))
        with pytest.raises(MalformedSystem, match="witness"):
            solve_strict_rows(2, rows)


# ---------------------------------------------------------------------------
# Reference core: the dense tableau (identity columns carried along) with one
# denominator per row and a gcd normalisation per row update, verbatim.

_ZERO = Fraction(0)


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


# ---------------------------------------------------------------------------


def assert_matches_reference(d, rows):
    """Same witness, multipliers and pivot count as the reference core."""
    with mock.patch.object(linprog, "_pivot", wraps=linprog._pivot) as new, \
            mock.patch.object(sys.modules[__name__], "_pivot", wraps=_pivot) as old:
        x, y = linprog._max_margin(d, rows)
        expected = _max_margin(d, rows)
    if x is not None:
        D, u = x
        x = tuple(Fraction(v, D) for v in u)
    assert (x, y) == expected
    assert new.call_count == old.call_count


@st.composite
def mixed_systems(draw):
    """(d, rows): ``>``/``<=`` integer rows with d <= 6 and coefficients in
    +-9, so ratio ties and degenerate pivots occur; a row may repeat an
    earlier one or be its antipode."""
    d = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        rel = draw(st.sampled_from((">", "<=")))
        if rows and draw(st.booleans()):
            _, q, pairs = draw(st.sampled_from(rows))
            if draw(st.booleans()):
                pairs = tuple((j, -c) for j, c in pairs)
        else:
            q = draw(st.integers(1, 9))
            coeffs = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
            pairs = tuple((j, c) for j, c in enumerate(coeffs) if c)
        rows.append((rel, q, pairs))
    return d, rows


class TestAgainstReferenceCore:
    @settings(max_examples=400, deadline=None)
    @given(mixed_systems())
    def test_random_mixed_rows(self, system):
        assert_matches_reference(*system)

    def test_euc_slow_16_strict_supports(self):
        # The strict-support LPs of the d = 16 slow family: each prefix of the
        # unit positions (all 16 is what the subset scan solves), that prefix
        # with its own support proposal made weak (infeasible, so the
        # certificate path runs) and with the complement's (feasible).
        inst = gen_euc_slow(16)
        units = [(">",) + a.position.data for a in inst.space.agents]
        support = lambda members: ("<=",) + inst.support_oracle(frozenset(members)).data
        for k in range(1, 17):
            assert_matches_reference(16, units[:k])
            assert_matches_reference(16, units[:k] + [support(range(k))])
            assert solve_strict_rows(16, units[:k] + [support(range(k))])[1] is not None
            if k < 16:
                assert_matches_reference(16, units[:k] + [support(range(k, 16))])
