"""Core vocabulary: distances, approval, scores, grouping."""

from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delib.space import (
    Agent,
    DeliberationSpace,
    Kind,
    KindMismatch,
    Point,
    SpaceError,
    StatusQuoProposal,
    approval_test,
    approves,
    distance,
    distinct_positions,
    euclidean_point,
    grid_point,
    hypercube_point,
    hypercube_point_from_set,
    origin,
    score,
)

getcontext().prec = 60


def hyp_space(coord_lists, weights=None):
    weights = weights or [1] * len(coord_lists)
    agents = tuple(
        Agent(hypercube_point(c), Fraction(w)) for c, w in zip(coord_lists, weights)
    )
    return DeliberationSpace(Kind.HYPERCUBE, len(coord_lists[0]), agents)


def euc_space(coord_lists, weights=None):
    weights = weights or [1] * len(coord_lists)
    agents = tuple(
        Agent(euclidean_point(c), Fraction(w)) for c, w in zip(coord_lists, weights)
    )
    return DeliberationSpace(Kind.EUCLIDEAN, len(coord_lists[0]), agents)


class TestDistance:
    def test_hamming_popcount(self):
        assert distance(hypercube_point([0, 0, 1, 1]), hypercube_point([0, 0, 0, 0])) == 2

    def test_euclidean_squared_basis(self):
        # basis vector against the singleton's support point, and against the origin
        e1 = euclidean_point([1, 0])
        x_single = euclidean_point([1, 0])
        assert distance(e1, x_single) == 0
        assert distance(euclidean_point([0, 0]), e1) == 1

    def test_grid_l1(self):
        assert distance(grid_point(1, 1), grid_point(0, 0)) == 2

    def test_kind_mismatch_rejected(self):
        with pytest.raises(KindMismatch):
            distance(hypercube_point([0, 1]), grid_point(0, 1))
        with pytest.raises(KindMismatch):
            distance(euclidean_point([1]), euclidean_point([1, 2]))


class TestApproval:
    def test_hypercube_halfcount(self):
        # agent {1,2}, proposal {1}: |X| = 1 < 2|V cap X| = 2
        space = hyp_space([[1, 1, 0]])
        assert approves(space.agents[0], hypercube_point([1, 0, 0]), space)

    def test_euclidean_outside_support_set(self):
        # agent off the support set of x^S sits at squared distance 1 + 1/|S| > 1
        space = euc_space([[1, 0], [0, 1]])
        x_s = euclidean_point([1, 0])  # S = {v_1}
        assert not approves(space.agents[1], x_s, space)
        assert approves(space.agents[0], x_s, space)

    def test_grid_wrong_quadrant(self):
        space = DeliberationSpace(Kind.GRID, 2, (Agent(grid_point(-1, 2)),))
        assert not approves(space.agents[0], grid_point(1, 1), space)

    def test_status_quo_rejected(self):
        space = euc_space([[1, 0]])
        with pytest.raises(StatusQuoProposal):
            approves(space.agents[0], euclidean_point([0, 0]), space)
        with pytest.raises(StatusQuoProposal):
            score(space, euclidean_point([0, 0]))


class TestScore:
    def test_hyp_slow_family_single_supporter(self):
        # the two-agent hypercube family: only the first agent approves (0,0,0,1)
        space = hyp_space([[0, 0, 0, 1], [0, 0, 1, 0]])
        assert score(space, hypercube_point([0, 0, 0, 1])) == 1

    def test_shared_support_point_counts_everyone(self):
        space = euc_space([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        x_all = euclidean_point([Fraction(1, 3)] * 3)
        assert score(space, x_all) == 3

    def test_colocated_cluster_approves_itself(self):
        space = euc_space([[2, 1], [2, 1], [2, 1], [5, 5]], weights=[1, 2, 3, 1])
        assert score(space, euclidean_point([2, 1])) >= 6


class TestDistinctPositions:
    def test_grouping_and_order(self):
        space = euc_space([[0, 1], [1, 0], [1, 0], [1, 0]], weights=[1, 1, 1, 1])
        groups = distinct_positions(space)
        assert [(str(p), w) for p, w in groups] == [("(0,1)", 1), ("(1,0)", 3)]

    def test_all_distinct(self):
        space = hyp_space([[1, 0], [0, 1], [1, 1]])
        assert len(distinct_positions(space)) == 3


class TestInvariants:
    def test_origin_agent_rejected(self):
        with pytest.raises(SpaceError):
            Agent(euclidean_point([0, 0]))
        with pytest.raises(SpaceError):
            Agent(hypercube_point([0, 0, 0]))

    def test_weight_positive(self):
        with pytest.raises(SpaceError):
            Agent(euclidean_point([1]), Fraction(0))

    def test_float_coordinates_rejected(self):
        with pytest.raises(SpaceError):
            euclidean_point([0.5, 1])

    def test_empty_space_rejected(self):
        with pytest.raises(SpaceError):
            DeliberationSpace(Kind.EUCLIDEAN, 2, ())

    def test_self_approval(self):
        space = euc_space([[1, 2], [Fraction(-1, 2), Fraction(1, 3)]])
        for a in space.agents:
            assert approves(a, a.position, space)

    @given(st.integers(0, 2 ** 12 - 1), st.integers(1, 2 ** 12 - 1))
    def test_colocation_hypercube(self, agent_bits, proposal_bits):
        a1 = Agent(hypercube_point(agent_bits | 1, 12))
        a2 = Agent(hypercube_point(agent_bits | 1, 12))
        space = DeliberationSpace(Kind.HYPERCUBE, 12, (a1, a2))
        p = hypercube_point(proposal_bits, 12)
        assert approves(a1, p, space) == approves(a2, p, space)


@st.composite
def rational_points(draw, dim=3):
    coords = [
        Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 6))) for _ in range(dim)
    ]
    return euclidean_point(coords)


class TestSquaredOrderEquivalence:
    @settings(max_examples=1000, deadline=None)
    @given(rational_points(), rational_points(), rational_points())
    def test_squared_comparison_matches_norm(self, a, b, c):
        # independent route: high-precision decimal square roots
        def norm(p, q):
            s = sum((x - y) ** 2 for x, y in zip(p.coords(), q.coords()))
            return (Decimal(s.numerator) / Decimal(s.denominator)).sqrt()

        squared = distance(a, b) < distance(a, c)
        by_norm = norm(a, b) < norm(a, c)
        if distance(a, b) != distance(a, c):
            assert squared == by_norm


class TestApprovalTestConsistency:
    def test_matches_pointwise_approves(self):
        space = euc_space([[1, 0], [0, 2], [-1, -1]])
        p = euclidean_point([Fraction(1, 2), Fraction(1, 2)])
        test = approval_test(space, p)
        for a in space.agents:
            assert test(a) == approves(a, p, space)


def test_hypercube_lex_order_is_int_order():
    pts = [hypercube_point(bits, 3) for bits in range(8)]
    coord_sorted = sorted(pts, key=lambda p: p.coords())
    key_sorted = sorted(pts, key=lambda p: p.sort_key())
    assert coord_sorted == key_sorted


def test_origin_helper():
    for kind, dim in ((Kind.HYPERCUBE, 5), (Kind.EUCLIDEAN, 3), (Kind.GRID, 2)):
        assert origin(kind, dim).is_origin()


def test_point_from_set_roundtrip():
    p = hypercube_point_from_set([0, 3], 4)
    assert p.coords() == (1, 0, 0, 1)


# Coordinates: zero, small signed rationals, and large numerators and
# denominators.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(Fraction, st.integers(-(10 ** 12), 10 ** 12), st.integers(1, 10 ** 12)),
)


def rational_vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim)


def nonzero_vectors(dim):
    return rational_vectors(dim).filter(any)


class TestEuclideanRepresentation:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(nonzero_vectors(d), nonzero_vectors(d))))
    def test_integer_kernel_matches_distance_definition(self, vectors):
        v, p = vectors
        # The definition in plain Fractions: dist(v, p)^2 < dist(v, origin)^2.
        by_definition = sum((x - y) ** 2 for x, y in zip(v, p)) < sum(x * x for x in v)
        agent = Agent(euclidean_point(v))
        space = DeliberationSpace(Kind.EUCLIDEAN, len(v), (agent,))
        proposal = euclidean_point(p)
        assert approves(agent, proposal, space) == by_definition
        assert approval_test(space, proposal)(agent) == by_definition
        assert distance(agent.position, proposal) == sum((x - y) ** 2 for x, y in zip(v, p))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(rational_vectors), st.integers(1, 30))
    def test_equal_vectors_give_equal_points(self, v, scale):
        dense = euclidean_point(v)
        # The same vector as strings, and as unreduced numerators over a
        # common denominator multiplied by ``scale``.
        as_text = euclidean_point([str(c) for c in v])
        q = scale
        for c in v:
            q *= c.denominator
        unreduced = Point(Kind.EUCLIDEAN, len(v), (q, [(i, int(c * q)) for i, c in enumerate(v)]))
        for other in (as_text, unreduced):
            assert other == dense
            assert hash(other) == hash(dense)
        assert dense.coords() == tuple(v)
        assert dense.is_origin() == (not any(v))

    def test_half_equals_two_quarters(self):
        half = euclidean_point([Fraction(1, 2), 0])
        assert Point(Kind.EUCLIDEAN, 2, (4, ((0, 2),))) == half
        assert half.data == (2, ((0, 1),))
        assert half != euclidean_point([Fraction(1, 2), Fraction(1, 2)])

    def test_malformed_data_rejected(self):
        for data in ((0, ()), (2, ((0, Fraction(1, 2)),)), (1, ((2, 1),)), (1, ((0, 1), (0, 2))), (1, ([0, 1],)), (1, 2)):
            with pytest.raises(SpaceError):
                Point(Kind.EUCLIDEAN, 2, data)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(rational_vectors(d), min_size=1, max_size=8)))
    def test_sort_key_is_lexicographic_on_dense_coordinates(self, vectors):
        pts = [euclidean_point(v) for v in vectors]
        by_key = [p.coords() for p in sorted(pts, key=lambda p: p.sort_key())]
        assert by_key == sorted(tuple(v) for v in vectors)
