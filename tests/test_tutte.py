import pytest
from hypothesis import given, settings, strategies as st

from omrev import (
    EVAL_POINTS,
    InvalidOrientedMatroid,
    OrientedMatroid,
    SignedSet,
    TuttePolynomial,
    build_from_graph,
    build_from_matrix,
    build_uniform,
    catalog_instances,
    dual,
    evaluations,
    get_instance,
    rank,
    tutte_polynomial,
    tutte_via_activities,
)
from omrev.core import _greedy_rank
from oracles import matrix_rank, tutte_coeffs_from_matrix, tutte_polynomial_ref
from test_activity import SMALL_MATRICES

TRIANGLE = [[1, 0, 1], [0, 1, 1]]
U24_MATRIX = [[1, 0, 1, 1], [0, 1, 1, 2]]


class TestRank:
    def test_triangle_subsets(self):
        M = build_from_matrix(TRIANGLE)
        assert rank(M) == 2
        assert rank(M, 0) == 0
        assert rank(M, 0b011) == 2
        assert rank(M, 0b111) == 2
        assert rank(M, [2]) == 1

    def test_loop_has_rank_zero(self):
        M = build_from_graph([(0, 0)])
        assert rank(M) == 0

    def test_out_of_range_subset(self):
        M = build_from_matrix(TRIANGLE)
        with pytest.raises(ValueError):
            rank(M, 1 << 10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 31))
    def test_matches_elimination_on_u25(self, mask):
        M = build_uniform(2, 5)
        vandermonde = [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]]
        cols = [e for e in range(5) if (mask >> e) & 1]
        assert rank(M, mask) == matrix_rank(vandermonde, cols)


class TestTuttePolynomial:
    def test_triangle_coeffs(self):
        T = tutte_polynomial(build_from_matrix(TRIANGLE))
        assert T.rank == 2 and T.nullity == 1
        assert T.coeffs == ((0, 1), (1, 0), (1, 0))
        assert str(T) == "x^2 + x + y"

    def test_u24_coeffs(self):
        T = tutte_polynomial(build_uniform(2, 4))
        assert T.coeffs == ((0, 2, 1), (2, 0, 0), (1, 0, 0))
        assert str(T) == "x^2 + 2x + 2y + y^2"

    def test_u25_coeffs(self):
        T = tutte_polynomial(build_uniform(2, 5))
        assert T.coeffs == ((0, 3, 2, 1), (3, 0, 0, 0), (1, 0, 0, 0))

    def test_loop_and_coloop(self):
        assert str(tutte_polynomial(build_from_graph([(0, 0)]))) == "y"
        assert str(tutte_polynomial(build_from_graph([(0, 1), (1, 2)]))) == "x^2"

    def test_matches_brute_corank_nullity(self):
        for rows, n in ((TRIANGLE, 3), (U24_MATRIX, 4), ([[1, 1, 1], [1, 2, 3]], 3)):
            r, coeffs = tutte_coeffs_from_matrix(rows, n)
            T = tutte_polynomial(build_from_matrix(rows))
            assert T.rank == r
            assert [list(row) for row in T.coeffs] == coeffs

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=4, max_size=4),
            min_size=2,
            max_size=3,
        )
    )
    def test_matches_brute_on_random_matrices(self, rows):
        r, coeffs = tutte_coeffs_from_matrix(rows, 4)
        T = tutte_polynomial(build_from_matrix(rows))
        assert T.rank == r
        assert [list(row) for row in T.coeffs] == coeffs

    def test_dual_transposes_coefficients(self):
        for entry in catalog_instances():
            M = entry.build()
            T = tutte_polynomial(M)
            D = tutte_polynomial(dual(M))
            assert D.rank == M.n - M.rank
            for i in range(T.rank + 1):
                for j in range(T.nullity + 1):
                    assert T.coeffs[i][j] == D.coeffs[j][i]

    def test_two_two_counts_all_subsets(self):
        # t(2,2) = 2^n regardless of the matroid
        for entry in catalog_instances():
            M = entry.build()
            assert tutte_polynomial(M).evaluate(2, 2) == 1 << M.n


class TestEvaluation:
    def test_eval_points_order(self):
        assert EVAL_POINTS == ((1, 1), (1, 2), (2, 1), (1, 0), (0, 1))

    def test_catalog_expected_tables(self):
        for entry in catalog_instances():
            expected = entry.expected["tutte_evaluations"].value
            assert evaluations(tutte_polynomial(entry.build())) == expected


class TestValidation:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            TuttePolynomial(1, [[0, 1], [-1, 0]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            TuttePolynomial(1, [[0, 1], [1]])

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError):
            TuttePolynomial(2, [[0, 1], [1, 0]])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            TuttePolynomial(0, [[0]])

    def test_wrong_stored_rank_raises(self):
        M = get_instance("tri")
        for wrong in (M.rank - 1, M.rank + 1):
            bad = OrientedMatroid(M.n, wrong, M.circuits, M.cocircuits, "tri-bad-rank")
            with pytest.raises(InvalidOrientedMatroid):
                tutte_polynomial(bad)

    def test_equal_builds_hash_equal(self):
        M = build_uniform(2, 4)
        T, again = tutte_polynomial(M), tutte_via_activities(M)
        assert again is not T and again == T and hash(again) == hash(T)
        assert T.to_json_dict() == {"rank": 2, "coeffs": [[0, 2, 1], [2, 0, 0], [1, 0, 0]]}


def _outcome(polynomial, M):
    """polynomial(M), or the type of the ValueError it raises."""
    try:
        return polynomial(M)
    except ValueError as exc:
        return type(exc)


class TestAgainstPerWordSum:
    """The bit-sliced corank-nullity sum against the per-word greedy loop."""

    @settings(max_examples=30, deadline=None)
    @given(SMALL_MATRICES)
    def test_random_matrices(self, rows):
        M = build_from_matrix(rows)
        assert tutte_polynomial(M) == tutte_polynomial_ref(M)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(1, (1 << n) - 1), max_size=8),
                st.sampled_from((0, 0, 0, -1, 1)),
            )
        )
    )
    def test_unvalidated_circuit_lists(self, case):
        # any supports, comparable or not; the stored rank is mostly the
        # greedy rank of the ground set and sometimes off by one, and the
        # constructor rejects it outside 0..n
        n, supports, shift = case
        rank = _greedy_rank(supports, (1 << n) - 1) + shift
        circuits = [SignedSet([e for e in range(n) if s >> e & 1]) for s in supports]
        if not 0 <= rank <= n:
            with pytest.raises(ValueError, match="rank"):
                OrientedMatroid(n, rank, circuits, [])
            return
        M = OrientedMatroid(n, rank, circuits, [])
        assert _outcome(tutte_polynomial, M) == _outcome(tutte_polynomial_ref, M)
