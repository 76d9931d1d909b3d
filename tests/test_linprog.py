"""Exact simplex and strict feasibility, cross-checked against geometry.

For planar homogeneous systems, strict feasibility has an independent exact
answer via an angular sweep with symbolic perturbation; the LP must agree
with it on random instances.  The integer-row entry point must return either
a witness that satisfies every row or an infeasibility certificate that
checks out in plain Fractions.
"""

import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from delib import linprog
from delib.linprog import solve_strict_rows
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
