"""Hard families, the big-compromise construction, reductions, parsing."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delib.generators import (
    GeneratorError,
    gen_euc_slow,
    gen_exp_compromise,
    gen_hyp_slow,
    gen_random,
    parse_dimacs_cnf,
    parse_edge_list,
    reduce_3sat_to_euc,
    reduce_is_to_hyp,
    verify_exp_compromise,
)
from delib.dynamics import Transition, coalition_weight, validate_transition
from delib.solvers import GuardExceeded, hyp_unanimous_proposal, solve_euc_subsets
from delib.space import Agent, Point, approver_indices, distance, distinct_positions


class TestSlowFamilies:
    @pytest.mark.parametrize("gen,n", [(gen_hyp_slow, 2), (gen_hyp_slow, 5), (gen_euc_slow, 1), (gen_euc_slow, 6)])
    def test_oracle_support_is_exact(self, gen, n):
        fam = gen(n)
        top = n if fam.family == "hyp-slow" else n + 1
        for r in range(1, top):
            for subset in itertools.combinations(range(n), r):
                p = fam.support_oracle(frozenset(subset))
                assert p is not None
                assert set(approver_indices(fam.space, p)) == set(subset)

    def test_oracle_exhaustive_n12(self):
        # every one of the 2^12 - 2 realizable subsets, both families
        for fam in (gen_hyp_slow(12), gen_euc_slow(12)):
            for bits in range(1, 1 << 12):
                subset = frozenset(i for i in range(12) if (bits >> i) & 1)
                if fam.family == "hyp-slow" and len(subset) == 12:
                    assert fam.support_oracle(subset) is None
                    continue
                p = fam.support_oracle(subset)
                assert set(approver_indices(fam.space, p)) == set(subset)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_oracle_points_equal_checked_points(self, n, data):
        # The euc-slow oracle builds its points unchecked; the checked
        # constructor gives the same canonical data, equality and hash.
        fam = gen_euc_slow(n)
        members = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        p = fam.support_oracle(members)
        checked = Point(p.kind, p.dim, p.data)
        assert (p.data, p, hash(p)) == (checked.data, checked, hash(checked))

    def test_hyp_layout_matches_construction(self):
        fam = gen_hyp_slow(2)
        assert [a.position.coords() for a in fam.space.agents] == [
            (0, 0, 0, 1),
            (0, 0, 1, 0),
        ]
        p = fam.support_oracle(frozenset({0}))
        assert p.coords() == (0, 0, 0, 1)
        # member sits at distance d/2 - 2, origin distance d/2 - 1
        assert distance(fam.space.agents[0].position, p) == 0

    def test_hyp_full_and_empty_sets_absent(self):
        fam = gen_hyp_slow(3)
        assert fam.support_oracle(frozenset()) is None
        assert fam.support_oracle(frozenset({0, 1, 2})) is None

    def test_euc_member_and_outsider_distances(self):
        fam = gen_euc_slow(4)
        p = fam.support_oracle(frozenset({0, 1}))
        assert distance(fam.space.agents[0].position, p) == Fraction(1, 2)  # 1 - 1/|S|
        assert distance(fam.space.agents[2].position, p) == Fraction(3, 2)  # 1 + 1/|S|

    def test_bad_sizes_rejected(self):
        with pytest.raises(GeneratorError):
            gen_hyp_slow(1)
        with pytest.raises(GeneratorError):
            gen_euc_slow(0)

    def test_size_guard(self):
        # Files write every coordinate: n x n for euc-slow, n x 2n for
        # hyp-slow, up to 1,000,000.
        assert gen_euc_slow(1000).space.n == 1000
        assert gen_hyp_slow(707).space.dim == 1414
        with pytest.raises(GuardExceeded, match=(
            r"^the euc-slow family would hold 1002001 coordinates \(1001 agents in R\^1001\), "
            r"over the euc-slow family guard \(1000000\)$"
        )):
            gen_euc_slow(1001)
        with pytest.raises(GuardExceeded, match=(
            r"^the hyp-slow family would hold 1002528 coordinates \(708 agents in \{0,1\}\^1416\), "
            r"over the hyp-slow family guard \(1000000\)$"
        )):
            gen_hyp_slow(708)


class TestExpCompromise:
    def test_d28_parameters(self):
        inst = gen_exp_compromise(28)
        assert inst.compromise_size == 2
        assert len(inst.seed_proposals) == 3
        assert inst.types_per_proposal == 162
        assert inst.space.n == 486
        assert inst.rival_cap == Fraction(161, 162)
        assert inst.capture_fraction == Fraction(323, 324)
        assert inst.decay == Fraction(1, 323)
        # coalition weights decay geometrically
        weights = [
            coalition_weight(inst.space, c.members) for c in inst.initial.coalitions
        ]
        assert weights[1] / weights[0] == inst.decay
        assert weights[2] / weights[1] == inst.decay

    def test_d28_verifies(self):
        report = verify_exp_compromise(gen_exp_compromise(28))
        assert report.passed, report.failures

    def test_pivot_compromise_validates_and_outweighs(self):
        inst = gen_exp_compromise(28)
        t = Transition((0, 1, 2), inst.pivot)
        new_members, reason = validate_transition(inst.space, inst.initial, t, k=3)
        assert new_members, reason
        new_weight = coalition_weight(inst.space, new_members)
        for c in inst.initial.coalitions:
            assert new_weight > coalition_weight(inst.space, c.members)

    def test_decay_perturbation_fails_check5(self):
        inst = gen_exp_compromise(28)
        # pushing the decay up breaks the geometric-sum ceiling
        broken = replace(inst, decay=inst.decay * 200)
        report = verify_exp_compromise(broken)
        assert not report.passed
        assert any("check5" in f for f in report.failures)

    def test_dropping_special_dimension_fails_check2(self):
        inst = gen_exp_compromise(28)
        special_bit = 1
        agents = list(inst.space.agents)
        victim = next(
            i for i, a in enumerate(agents) if a.position.data & special_bit
        )
        stripped = replace(
            agents[victim].position, data=agents[victim].position.data & ~special_bit
        )
        agents[victim] = Agent(stripped, agents[victim].weight)
        broken = replace(inst, space=replace(inst.space, agents=tuple(agents)))
        report = verify_exp_compromise(broken)
        assert not report.passed
        assert any("check1" in f or "check2" in f for f in report.failures)

    def test_inadmissible_dimensions(self):
        for d in (27, 29, 54, 10):
            with pytest.raises(GeneratorError):
                gen_exp_compromise(d)

    def test_seed_proposals_chain_disjoint(self):
        inst = gen_exp_compromise(28)
        for a, b in zip(inst.seed_proposals, inst.seed_proposals[1:]):
            assert a.data & b.data == 0

    @pytest.mark.slow
    def test_d55_generalised_construction(self):
        inst = gen_exp_compromise(55)
        assert inst.compromise_size == 14
        assert len(inst.seed_proposals) == 15
        assert inst.types_per_proposal == 21870
        report = verify_exp_compromise(inst)
        assert report.passed, report.failures


def all_graphs(max_vertices):
    for m in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        for bits in range(1 << len(pairs)):
            yield m, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]


def has_independent_set(m, edges, kappa):
    forbidden = {frozenset(e) for e in edges}
    return any(
        all(frozenset(p) not in forbidden for p in itertools.combinations(combo, 2))
        for combo in itertools.combinations(range(1, m + 1), kappa)
    )


class TestIndependentSetReduction:
    def test_dimension_formula(self):
        cert = reduce_is_to_hyp(3, [(1, 2), (2, 3), (1, 3)], 2)
        assert cert.space.dim == 2 * 3 + 2 * 2 - 1
        assert len(cert.dim_labels) == cert.space.dim

    def test_agent_count(self):
        m, edges, kappa = 4, [(1, 2), (3, 4)], 3
        cert = reduce_is_to_hyp(m, edges, kappa)
        assert cert.space.n == 2 * (2 * kappa - 1) + 4 * m + len(edges) + 1

    def test_triangle_path_single(self):
        triangle = reduce_is_to_hyp(3, [(1, 2), (2, 3), (1, 3)], 2)
        assert hyp_unanimous_proposal(triangle.space) is None
        path = reduce_is_to_hyp(3, [(1, 2), (2, 3)], 2)
        assert hyp_unanimous_proposal(path.space) is not None
        single = reduce_is_to_hyp(1, [], 1)
        assert hyp_unanimous_proposal(single.space) is not None

    def test_biconditional_sample(self):
        # exhaustive coverage lives in the acceptance suite; spot-check here
        rng = random.Random(10)
        cases = list(all_graphs(3))
        for m, edges in cases:
            for kappa in range(1, m + 1):
                cert = reduce_is_to_hyp(m, edges, kappa)
                got = hyp_unanimous_proposal(cert.space) is not None
                assert got == has_independent_set(m, edges, kappa), (m, edges, kappa)

    def test_kappa_bounds(self):
        with pytest.raises(GeneratorError):
            reduce_is_to_hyp(3, [], 0)
        with pytest.raises(GeneratorError):
            reduce_is_to_hyp(3, [], 4)
        with pytest.raises(GeneratorError):
            reduce_is_to_hyp(3, [(1, 1)], 1)


def sat_satisfiable(m, clauses):
    for bits in itertools.product((0, 1), repeat=m):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


class TestSatReduction:
    def test_dimension_and_threshold(self):
        cert = reduce_3sat_to_euc(3, [[1, 2, 3]])
        assert cert.space.dim == 6
        # one clause: literal weight 2, anchor weight 13, threshold 46
        assert cert.eta == 3 * 13 + 3 * 2 + 1

    def test_distinct_position_count(self):
        cert = reduce_3sat_to_euc(3, [[1, 2, 3], [-1, -2, -3]])
        assert len(distinct_positions(cert.space)) == 3 + 6 + 2

    def test_witness_assignment_scores(self):
        cert = reduce_3sat_to_euc(3, [[1, 2, 3]])
        report = solve_euc_subsets(cert.space)
        assert report.best_score >= cert.eta

    def test_two_clause_formulas(self):
        for clauses in ([[1, 2, 3], [-1, -2, -3]], [[1, -2, 3], [-1, 2, -3]]):
            cert = reduce_3sat_to_euc(3, clauses)
            assert sat_satisfiable(3, clauses)
            assert solve_euc_subsets(cert.space).best_score >= cert.eta

    def test_malformed_clauses_rejected(self):
        with pytest.raises(GeneratorError):
            reduce_3sat_to_euc(3, [[1, 1, 2]])
        with pytest.raises(GeneratorError):
            reduce_3sat_to_euc(3, [[1, 2]])
        with pytest.raises(GeneratorError):
            reduce_3sat_to_euc(3, [[1, 2, 4]])

    @pytest.mark.slow
    def test_unsatisfiable_full_clause_set_misses_eta(self):
        # all eight sign patterns over three variables exclude every assignment
        clauses = [
            [s1 * 1, s2 * 2, s3 * 3]
            for s1 in (1, -1)
            for s2 in (1, -1)
            for s3 in (1, -1)
        ]
        assert not sat_satisfiable(3, clauses)
        cert = reduce_3sat_to_euc(3, clauses)
        report = solve_euc_subsets(cert.space)
        assert report.best_score < cert.eta


class TestRandomInstances:
    def test_seed_replay(self):
        a = gen_random("euclidean", 5, 3, seed=7)
        b = gen_random("euclidean", 5, 3, seed=7)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(GeneratorError):
            gen_random("euclidean", 0, 3, seed=1)

    def test_all_kinds_valid(self):
        for kind in ("hypercube", "euclidean", "grid", "grid_nonneg"):
            space = gen_random(kind, 5, 8 if kind == "hypercube" else 2, seed=3)
            assert space.n == 5
            for a in space.agents:
                assert not a.position.is_origin()

    def test_nonneg_grid_range(self):
        space = gen_random("grid_nonneg", 10, 2, seed=4)
        assert all(min(a.position.data) >= 0 for a in space.agents)


class TestParsers:
    def test_dimacs_roundtrip(self):
        text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
        num_vars, clauses = parse_dimacs_cnf(text)
        assert num_vars == 3 and clauses == [[1, -2, 3], [-1, 2, -3]]

    def test_dimacs_errors(self):
        with pytest.raises(GeneratorError):
            parse_dimacs_cnf("1 2 3 0\n")
        with pytest.raises(GeneratorError):
            parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")
        with pytest.raises(GeneratorError):
            parse_dimacs_cnf("p cnf 3 2\n1 2 3 0\n")

    def test_edge_list(self):
        text = "c triangle\np 3 3\n1 2\n2 3\n1 3\n"
        n, edges = parse_edge_list(text)
        assert n == 3 and edges == [(1, 2), (2, 3), (1, 3)]

    def test_edge_list_errors(self):
        with pytest.raises(GeneratorError):
            parse_edge_list("1 2\n")
        with pytest.raises(GeneratorError):
            parse_edge_list("p 3 2\n1 2\n")
