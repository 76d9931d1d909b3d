"""Exact simplex and strict feasibility, cross-checked against geometry.

For planar homogeneous systems, strict feasibility has an independent exact
answer via an angular sweep with symbolic perturbation; the LP must agree
with it on random instances.  The integer-row entry point must return either
a witness or an infeasibility certificate that checks out in plain
Fractions, and the same witness as the Fraction entry point.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delib import linprog
from delib.linprog import (
    LinearSystem,
    MalformedSystem,
    Row,
    make_system,
    solve_lp_feasible_strict,
    solve_strict_rows,
)
from delib.space import euclidean_point


def check_solution(system, x):
    for row in system.rows:
        val = sum(c * xi for c, xi in zip(row.coeffs, x))
        if row.relation == "<=":
            assert val <= row.rhs
        elif row.relation == ">=":
            assert val >= row.rhs
        elif row.relation == "=":
            assert val == row.rhs
        else:
            assert val > row.rhs


class TestBasics:
    def test_single_strict(self):
        sys_ = make_system(1, [((1,), ">", 0)])
        x = solve_lp_feasible_strict(sys_)
        assert x is not None and x[0] > 0

    def test_antipodal_infeasible(self):
        sys_ = make_system(2, [((1, 0), ">", 0), ((-1, 0), ">", 0)])
        assert solve_lp_feasible_strict(sys_) is None

    def test_two_basis_directions(self):
        sys_ = make_system(2, [((1, 0), ">", 0), ((0, 1), ">", 0)])
        x = solve_lp_feasible_strict(sys_)
        check_solution(sys_, x)

    def test_mixed_relations(self):
        sys_ = make_system(
            2, [((2, 0), "=", 1), ((0, 1), ">", 0), ((1, 1), "<=", 1)]
        )
        x = solve_lp_feasible_strict(sys_)
        assert x is not None and x[0] == Fraction(1, 2)
        check_solution(sys_, x)

    def test_equalities_can_be_infeasible(self):
        sys_ = make_system(1, [((1,), "=", Fraction(1, 4)), ((1,), "=", Fraction(1, 2))])
        assert solve_lp_feasible_strict(sys_) is None

    def test_weak_rows_only(self):
        # no strict rows: any point of the weak system qualifies
        sys_ = make_system(1, [((1,), ">=", 0)])
        x = solve_lp_feasible_strict(sys_)
        assert x is not None and x[0] >= 0
        sys_ = make_system(1, [((1,), ">=", 1), ((1,), "<=", Fraction(1, 2))])
        assert solve_lp_feasible_strict(sys_) is None

    def test_row_shape_checked(self):
        with pytest.raises(MalformedSystem):
            LinearSystem(2, (Row((Fraction(1),), "<=", Fraction(0)),))
        with pytest.raises(MalformedSystem):
            make_system(1, [((1,), "<", 0)])


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
        sys_ = make_system(2, [((1, 3), ">", 0), ((2, -1), ">", 0)])
        x = solve_lp_feasible_strict(sys_)
        assert all(-1 <= xi <= 1 for xi in x)

    def test_scaling_normals_preserves_feasibility(self):
        rows = [((3, 5, -1), ">", 0), ((-2, 1, 1), ">", 0), ((0, 1, 4), ">", 0)]
        scaled = [(tuple(Fraction(7, 3) * Fraction(c) for c in r[0]), r[1], 0) for r in rows]
        a = solve_lp_feasible_strict(make_system(3, rows))
        b = solve_lp_feasible_strict(make_system(3, scaled))
        assert (a is None) == (b is None)


def test_big_degenerate_system():
    # many duplicate and opposite rows; must stay exact and terminate (Bland)
    rows = []
    for _ in range(8):
        rows.append(((1, 1), ">", 0))
        rows.append(((1, 0), ">=", 0))
        rows.append(((0, 1), "<=", 1))
    x = solve_lp_feasible_strict(make_system(2, rows))
    assert x is not None and x[0] + x[1] > 0


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
        rows = [(rel,) + euclidean_point(v).data for rel, v in normals]
        x, y = solve_strict_rows(d, rows)
        assert (x is None) != (y is None)
        same = solve_lp_feasible_strict(make_system(d, [(v, rel, 0) for rel, v in normals]))
        assert x == same
        if x is not None:
            for rel, v in normals:
                value = sum(a * b for a, b in zip(v, x))
                assert value > 0 if rel == ">" else value <= 0
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
        rows = [(">",) + euclidean_point(v).data]
        assert solve_strict_rows(3, rows)[0] == solve_lp_feasible_strict(make_system(3, [(v, ">", 0)]))

    def test_unverified_multipliers_are_dropped(self, monkeypatch):
        rows = [(">", 1, ((0, 1),)), (">", 1, ((0, -1),))]
        assert solve_strict_rows(1, rows) == (None, (1, 1))
        real = linprog._max_margin
        monkeypatch.setattr(linprog, "_max_margin", lambda d, r: (real(d, r)[0], [1, 2]))
        assert solve_strict_rows(1, rows) == (None, None)
