import ast
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omrev import (
    MAX_ELEMENTS,
    InvalidOrientedMatroid,
    OrientedMatroid,
    SignedSet,
    build_from_graph,
    build_from_matrix,
    build_from_signed_sets,
    build_uniform,
    dual,
    instance_from_dict,
    load_instance_file,
    part_decomposition,
    positive_sets,
    validate,
)
from omrev import core
from omrev.core import _untiled_word
from oracles import orthogonality_ref, tiling_ref

TRIANGLE = [[1, 0, 1], [0, 1, 1]]
U24_MATRIX = [[1, 0, 1, 1], [0, 1, 1, 2]]


def ss(pos, neg=()):
    return SignedSet(pos, neg)


class TestSignedSet:
    def test_canonical_flip(self):
        # min of support lands in the positive part
        assert ss((2,), (0, 1)) == ss((0, 1), (2,))

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            SignedSet((0, 1), (1,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SignedSet((), ())

    def test_sign(self):
        x = ss((0, 1), (2,))
        assert x.sign(0) == 1
        assert x.sign(2) == -1
        assert x.sign(5) == 0

    def test_support(self):
        x = ss((0, 3), (2,))
        assert x.support == frozenset({0, 2, 3})
        assert x.support_mask == 0b1101
        assert x.min_element == 0

    def test_is_positive_in(self):
        x = ss((0, 1), (2,))
        assert not x.is_positive_in(0)
        assert x.is_positive_in(0b100)  # reversing 2 aligns all signs
        assert x.is_positive_in(0b011)  # reversing the positive part too
        assert not x.is_positive_in(0b001)

    def test_reoriented(self):
        x = ss((0, 1), (2,))
        assert x.reoriented(0b100) == ss((0, 1, 2))
        assert x.reoriented(0) == x
        # reorienting outside the support does nothing
        assert x.reoriented(0b11000) == x

    def test_json_dict(self):
        d = ss((0, 2), (1,)).to_json_dict()
        assert d == {"pos": [0, 2], "neg": [1]}

    @given(st.sets(st.integers(0, 9), min_size=1))
    def test_canonical_idempotent(self, support):
        support = sorted(support)
        pos = support[::2]
        neg = support[1::2]
        x = ss(pos, neg)
        y = SignedSet(x.pos, x.neg)
        assert x == y and hash(x) == hash(y)
        assert x.min_element in x.pos

    @given(
        st.sets(st.integers(0, 9), min_size=1),
        st.integers(0, (1 << 10) - 1),
    )
    def test_double_reorient_identity(self, support, A):
        support = sorted(support)
        x = ss(support[::2], support[1::2])
        assert x.reoriented(A).reoriented(A) == x


class TestMatrixBuild:
    def test_triangle_circuits(self):
        M = build_from_matrix(TRIANGLE)
        assert M.n == 3 and M.rank == 2
        assert M.circuits == (ss((0, 1), (2,)),)
        assert M.cocircuits == (ss((0,), (1,)), ss((0, 2)), ss((1, 2)))

    def test_u24_circuits(self):
        M = build_from_matrix(U24_MATRIX)
        assert M.circuits == (
            ss((0, 1), (2,)),
            ss((0, 1), (3,)),
            ss((0, 3), (2,)),
            ss((1, 2), (3,)),
        )
        assert len(M.cocircuits) == 4
        assert ss((1, 2, 3)) in M.cocircuits

    def test_zero_column_is_loop(self):
        M = build_from_matrix([[0, 1]])
        assert M.loops_mask == 0b01
        assert ss((0,)) in M.circuits

    def test_empty_matrix_needs_n(self):
        with pytest.raises(ValueError):
            build_from_matrix([])
        M = build_from_matrix([], n=2)
        assert M.rank == 0 and len(M.circuits) == 2

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            build_from_matrix([[1, 0.5]])

    def test_too_many_columns(self):
        with pytest.raises(ValueError):
            build_from_matrix([[1] * 21])

    @pytest.mark.parametrize(
        "rows, n, message",
        [
            ([[1, 0], [1]], None, "unequal lengths"),
            ([[1, 0]], 3, "n=3 does not match row length 2"),
        ],
    )
    def test_row_lengths_must_agree(self, rows, n, message):
        with pytest.raises(ValueError, match=message):
            build_from_matrix(rows, n=n)


class TestGraphBuild:
    def test_triangle_matches_matrix(self):
        G = build_from_graph([(0, 1), (1, 2), (0, 2)])
        M = build_from_matrix(TRIANGLE)
        assert G.circuits == M.circuits
        assert G.cocircuits == M.cocircuits

    def test_loop_edge(self):
        M = build_from_graph([(0, 1), (1, 2), (0, 2), (0, 0)])
        assert ss((3,)) in M.circuits
        assert M.loops_mask == 0b1000

    def test_path_has_no_circuits(self):
        M = build_from_graph([(0, 1), (1, 2)])
        assert M.circuits == ()
        assert M.cocircuits == (ss((0,)), ss((1,)))
        assert M.coloops_mask == 0b11

    def test_isolated_vertices_allowed(self):
        M = build_from_graph([(0, 1)], vertices=4)
        assert M.rank == 1

    def test_bad_edge(self):
        with pytest.raises(ValueError):
            build_from_graph([(0, 1)], vertices=1)

    def test_too_many_edges(self):
        with pytest.raises(ValueError, match="too many edges: 21 exceeds the hard cap 20"):
            build_from_graph([(0, 1)] * 21)

    def test_large_vertex_ids_add_no_rows(self, monkeypatch):
        # only endpoints of non-loop edges get incidence rows, so a vertex
        # id of a million costs what a compact numbering costs
        heights = []

        def spy(matrix, real=core.build_from_matrix, **kwargs):
            heights.append(len(matrix))
            return real(matrix, **kwargs)

        monkeypatch.setattr(core, "build_from_matrix", spy)
        M = build_from_graph([(0, 1), (1, 0), (0, 10**6)])
        compact = build_from_graph([(0, 1), (1, 0), (0, 2)])
        assert M == compact and M.rank == compact.rank == 2
        assert heights == [3, 3]


class TestUniformBuild:
    def test_u24(self):
        M = build_uniform(2, 4)
        assert M.name == "U(2,4)"
        assert len(M.circuits) == 4 and len(M.cocircuits) == 4
        assert all(len(X.support) == 3 for X in M.circuits)

    def test_u25_counts(self):
        M = build_uniform(2, 5)
        assert len(M.circuits) == 10  # every 3-subset
        assert len(M.cocircuits) == 5

    def test_rank_zero(self):
        M = build_uniform(0, 3)
        assert M.circuits == (ss((0,)), ss((1,)), ss((2,)))
        assert M.cocircuits == ()

    def test_full_rank(self):
        M = build_uniform(3, 3)
        assert M.circuits == () and len(M.cocircuits) == 3

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            build_uniform(4, 3)

    def test_matches_vandermonde_matrix(self):
        # the alternating lists against the subset scan of the same columns
        for n in range(9):
            for r in range(n + 1):
                M = build_uniform(r, n)
                V = build_from_matrix([[(t + 1) ** p for t in range(n)] for p in range(r)], n=n)
                assert (M.circuits, M.cocircuits, M.rank) == (V.circuits, V.cocircuits, r), (r, n)


class TestSignedSetBuild:
    def test_accepts_valid_triangle(self):
        M = build_from_matrix(TRIANGLE)
        rebuilt = build_from_signed_sets(
            [(X.pos, X.neg) for X in M.circuits],
            [(Y.pos, Y.neg) for Y in M.cocircuits],
        )
        assert rebuilt == M

    def test_free_matroid(self):
        M = build_from_signed_sets([], [((0,), ()), ((1,), ())])
        assert M.n == 2 and M.rank == 2

    def test_rejects_orthogonality_violation(self):
        # a single common element with agreeing signs cannot happen
        with pytest.raises(InvalidOrientedMatroid):
            build_from_signed_sets([((0,), ())], [((0,), ())])

    def test_deduplicates_negatives(self):
        M = build_from_signed_sets(
            [((0, 1), (2,)), ((2,), (0, 1))],
            [((0,), (1,)), ((0, 2), ()), ((1, 2), ())],
        )
        assert len(M.circuits) == 1

    def test_element_past_the_cap_rejected_before_the_rank(self, monkeypatch):
        # the element is checked before its shift: no 2^100000-bit ground
        # mask reaches the rank oracle
        def fail(*args):
            raise AssertionError("_greedy_rank ran")

        monkeypatch.setattr(core, "_greedy_rank", fail)
        source = {"signed": {"circuits": [{"pos": [0, 10**5]}], "cocircuits": []}}
        with pytest.raises(ValueError, match="hard cap is %d" % MAX_ELEMENTS):
            instance_from_dict({"source": source})

    def test_mask_past_the_cap_rejected_before_the_rank(self, monkeypatch):
        # integer masks are checked in SignedSet: no 40,001-bit ground mask
        # reaches the rank oracle
        def fail(*args):
            raise AssertionError("_greedy_rank ran")

        monkeypatch.setattr(core, "_greedy_rank", fail)
        with pytest.raises(ValueError, match="hard cap"):
            build_from_signed_sets([(1 | 1 << 40000, 0)], [])
        with pytest.raises(ValueError, match="below bit %d" % MAX_ELEMENTS):
            SignedSet(0, 1 << MAX_ELEMENTS)
        assert SignedSet(1 << (MAX_ELEMENTS - 1), 1).support_mask == 1 | 1 << (MAX_ELEMENTS - 1)

    @pytest.mark.parametrize("n, rank", [(3, -1), (3, 4), (True, 0), (3.0, 1), (3, 1.0), (-1, 0)])
    def test_constructor_rejects_impossible_sizes(self, n, rank):
        # a rank outside 0..n, or a non-int n, used to be stored and fail
        # later as an activity range error at word 0
        with pytest.raises(ValueError, match=r"n=%r and rank=%r" % (n, rank)):
            OrientedMatroid(n, rank, [], [])

    def test_constructor_rejects_a_ground_set_past_the_cap(self):
        with pytest.raises(ValueError, match="n=21 exceeds the hard cap 20"):
            OrientedMatroid(21, 0, [], [])

    def test_constructor_rejects_elements_outside_the_ground_set(self):
        with pytest.raises(ValueError, match=r"outside 0\.\.n-1"):
            OrientedMatroid(2, 1, [ss((0, 2))], [])

    def test_dict_form(self):
        M = build_from_signed_sets(
            [{"pos": [0, 1], "neg": [2]}],
            [{"pos": [0], "neg": [1]}, {"pos": [0, 2]}, {"pos": [1, 2]}],
        )
        assert M == build_from_matrix(TRIANGLE)


class TestValidate:
    def test_catalog_triangle_ok(self):
        report = validate(build_from_matrix(TRIANGLE))
        assert report.ok and report.failures == []

    def test_tampered_sign_fails_orthogonality(self):
        M = build_from_matrix(U24_MATRIX)
        bad = list(M.circuits)
        x = bad[0]
        bad[0] = SignedSet(x.pos - {1}, x.neg | {1})
        tampered = OrientedMatroid(M.n, M.rank, bad, M.cocircuits)
        report = validate(tampered)
        assert not report.ok
        assert any("orthogonality" in f for f in report.failures)

    def test_nested_support_fails(self):
        M = OrientedMatroid(
            2, 1, [ss((0,)), ss((0, 1))], [ss((1,))]
        )
        report = validate(M)
        assert not report.ok
        assert any("comparable" in f for f in report.failures)

    def test_wrong_rank_fails(self):
        M = build_from_matrix(TRIANGLE)
        wrong = OrientedMatroid(M.n, 1, M.circuits, M.cocircuits)
        assert not validate(wrong).ok

    # (sets in storage order, the pair the pairwise scan reports first)
    COMPARABLE = (
        # one support with two sign patterns
        (
            [ss((0, 1)), ss((0,), (1,)), ss((2, 3))],
            "SignedSet(pos=[0, 1], neg=[]) vs SignedSet(pos=[0], neg=[1])",
        ),
        # a strict subset two size groups up, behind an incomparable pair
        (
            [ss((0, 1)), ss((0, 1, 2, 5)), ss((2, 3, 4))],
            "SignedSet(pos=[0, 1], neg=[]) vs SignedSet(pos=[0, 1, 2, 5], neg=[])",
        ),
        # two comparable pairs: the first in list order is reported
        (
            [ss((0, 2), (5,)), ss((1, 3)), ss((1, 3, 5)), ss((2, 4)), ss((2, 4, 5))],
            "SignedSet(pos=[1, 3], neg=[]) vs SignedSet(pos=[1, 3, 5], neg=[])",
        ),
    )

    @pytest.mark.parametrize("kind", ["circuit", "cocircuit"])
    @pytest.mark.parametrize("sets, pair", COMPARABLE)
    def test_comparable_supports_report_first_pair(self, kind, sets, pair):
        lists = (sets, []) if kind == "circuit" else ([], sets)
        M = OrientedMatroid(6, 0, *lists)
        assert (M.circuits, M.cocircuits)[kind == "cocircuit"] == tuple(sets)
        expected = "%s supports are comparable: %s" % (kind, pair)
        assert [f for f in validate(M).failures if "comparable" in f] == [expected]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 63), max_size=12))
    def test_incomparability_matches_pairwise_scan(self, supports):
        sets = [SignedSet(s, 0) for s in supports]
        M = OrientedMatroid(6, 0, sets, [])
        expected = []
        for i, X in enumerate(M.circuits):
            for Y in M.circuits[i + 1 :]:
                a, b = X.support_mask, Y.support_mask
                if not expected and (a & b == a or a & b == b):
                    expected = ["circuit supports are comparable: %r vs %r" % (X, Y)]
        assert [f for f in validate(M).failures if "comparable" in f] == expected


def _tiling_failures(M):
    """The tiling line validate must report, from the per-word scan.

    validate runs the tiling check only once every other check passes.
    """
    others = [f for f in validate(M).failures if "does not split" not in f]
    A = tiling_ref(M)
    if others or A is None:
        return []
    return ["reorientation %d does not split into acyclic and cyclic parts" % A]


def _unvalidated_lists(max_n):
    """n <= max_n, then (support, negative part) pairs for the circuits and
    the cocircuits."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            *(
                st.lists(
                    st.tuples(st.integers(1, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
                    max_size=8,
                )
                for _ in range(2)
            ),
        )
    )


def _unvalidated_om(case):
    """The OrientedMatroid of an _unvalidated_lists case, built without validate."""
    n, *lists = case
    circuits, cocircuits = (
        [SignedSet(supp & ~neg, supp & neg) for supp, neg in sets] for sets in lists
    )
    return OrientedMatroid(n, 0, circuits, cocircuits)


class TestBitsetChecksAgainstScans:
    """validate's bitset tiling and orthogonality checks against the
    per-word scan tiling_ref and the pairwise scan orthogonality_ref."""

    @settings(max_examples=80, deadline=None)
    @given(_unvalidated_lists(10))
    def test_random_unvalidated_lists(self, case):
        M = _unvalidated_om(case)
        failures = validate(M).failures
        assert _untiled_word(M) == tiling_ref(M)
        assert [f for f in failures if "does not split" in f] == _tiling_failures(M)
        pair = orthogonality_ref(M)
        assert [f for f in failures if "orthogonality" in f] == (
            [] if pair is None else ["orthogonality fails for circuit %r and cocircuit %r" % pair]
        )

    def test_catalog_and_one_set_dropped(self):
        # dropping one stored set often leaves lists that pass every other
        # check, so validate's own tiling line is compared here
        from test_activity import _catalog_and_duals

        rejected = 0
        for M in _catalog_and_duals():
            assert _untiled_word(M) is None and tiling_ref(M) is None, M.name
            for kind in ("circuits", "cocircuits"):
                sets = getattr(M, kind)
                for i in range(len(sets)):
                    kept = sets[:i] + sets[i + 1 :]
                    lists = (kept, M.cocircuits) if kind == "circuits" else (M.circuits, kept)
                    D = OrientedMatroid(M.n, M.rank, *lists, M.name)
                    tiling = [f for f in validate(D).failures if "does not split" in f]
                    assert tiling == _tiling_failures(D), (M.name, kind, i)
                    rejected += bool(tiling)
        assert rejected > 0


class TestWordsByMinimum:
    """core._words_by_minimum, the one pass over the stored sets of a kind."""

    def test_positive_words_has_two_callers(self):
        callers = []
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef):
                    callers += [
                        node.name
                        for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and getattr(call.func, "id", getattr(call.func, "attr", None))
                        == "_positive_words"
                    ]
        assert sorted(callers) == ["_words_by_minimum", "greedy_ends"]

    def test_each_set_once_in_descending_minimum_groups(self):
        from test_activity import _catalog_and_duals  # test_activity imports this module

        for M in _catalog_and_duals():
            shuffled = list(range(M.n))
            random.Random(M.n).shuffle(shuffled)
            for order in (None, range(M.n - 1, -1, -1), shuffled):
                position = {e: k for k, e in enumerate(order or range(M.n))}
                positions = None if order is None else [position[e] for e in range(M.n)]
                for data in (M.circuit_data, M.cocircuit_data):
                    out = list(core._words_by_minimum(data, M.n, positions))
                    assert sorted(supp for _, supp, _ in out) == sorted(t[0] for t in data)
                    for a, supp, words in out:
                        elements = [e for e in range(M.n) if supp >> e & 1]
                        assert a == min(elements, key=position.__getitem__), (M.name, order)
                        _, pos, neg = next(t for t in data if t[0] == supp)
                        X = SignedSet(pos, neg)
                        assert words == sum(
                            1 << A for A in range(1 << M.n) if X.is_positive_in(A)
                        ), (M.name, supp)
                    keys = [position[a] for a, _ in itertools.groupby(a for a, _, _ in out)]
                    assert all(x > y for x, y in zip(keys, keys[1:])), (M.name, order)


class TestDual:
    def test_swaps_lists(self):
        M = build_from_matrix(TRIANGLE)
        D = dual(M)
        assert D.circuits == M.cocircuits
        assert D.cocircuits == M.circuits
        assert D.rank == M.n - M.rank

    def test_involution(self):
        M = build_uniform(2, 5)
        assert dual(dual(M)) == M

    def test_uniform_dual_supports(self):
        # same underlying matroid as U(3,5); signs come out reoriented
        D = dual(build_uniform(2, 5))
        U = build_uniform(3, 5)
        assert [X.support for X in D.circuits] == [X.support for X in U.circuits]
        assert [X.support for X in D.cocircuits] == [X.support for X in U.cocircuits]
        assert validate(D).ok


class TestReorientationGeometry:
    def test_positive_sets_triangle(self):
        M = build_from_matrix(TRIANGLE)
        assert positive_sets(M, 0, "circuit") == []
        assert positive_sets(M, 0, "cocircuit") == [ss((0, 2)), ss((1, 2))]
        assert positive_sets(M, 0b010, "cocircuit")[0] == ss((0,), (1,))
        assert positive_sets(M, 0b100, "circuit") == [ss((0, 1), (2,))]

    def test_part_decomposition_triangle(self):
        M = build_from_matrix(TRIANGLE)
        acyclic, cyclic = part_decomposition(M, 0)
        assert acyclic == frozenset({0, 1, 2}) and cyclic == frozenset()
        acyclic, cyclic = part_decomposition(M, 0b100)
        assert acyclic == frozenset() and cyclic == frozenset({0, 1, 2})

    def test_parts_tile_everywhere(self):
        M = build_from_matrix(U24_MATRIX)
        for A in range(1 << M.n):
            acyclic, cyclic = part_decomposition(M, A)
            assert acyclic | cyclic == frozenset(range(M.n))
            assert not (acyclic & cyclic)

    def test_reorientation_out_of_range(self):
        M = build_from_matrix(TRIANGLE)
        with pytest.raises(ValueError):
            positive_sets(M, 1 << 5, "circuit")


@st.composite
def small_int_matrices(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 5))
    return [
        [draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)
    ]


class TestRandomizedMatrix:
    @settings(max_examples=40, deadline=None)
    @given(small_int_matrices())
    def test_build_validates_and_dualizes(self, rows):
        M = build_from_matrix(rows)
        assert validate(M).ok
        D = dual(M)
        assert validate(D).ok
        assert dual(D) == M

    @settings(max_examples=40, deadline=None)
    @given(small_int_matrices())
    def test_rank_matches_elimination(self, rows):
        from oracles import matrix_rank

        M = build_from_matrix(rows)
        assert M.rank == matrix_rank(rows, list(range(M.n)))

    @settings(max_examples=25, deadline=None)
    @given(small_int_matrices())
    def test_build_is_deterministic(self, rows):
        assert build_from_matrix(rows) == build_from_matrix(rows)


class TestRealizationIndependence:
    def test_u24_from_two_generic_frames(self):
        from omrev import classify, minimal_counts, reversal_counts, tutte_polynomial

        A = build_uniform(2, 4)
        B = build_from_matrix(U24_MATRIX)
        assert tutte_polynomial(A) == tutte_polynomial(B)
        assert reversal_counts(A) == reversal_counts(B)
        assert minimal_counts(A) == minimal_counts(B)
        assert classify(A) == classify(B) == "non-regular"

    def test_permuted_columns_keep_all_counts(self):
        from omrev import minimal_counts, reversal_counts, tutte_polynomial

        rows = [[1, 1, 1, 1], [1, 2, 3, 4]]
        perm = (2, 0, 3, 1)
        permuted = [[row[e] for e in perm] for row in rows]
        A = build_from_matrix(rows)
        B = build_from_matrix(permuted)
        assert tutte_polynomial(A) == tutte_polynomial(B)
        assert reversal_counts(A) == reversal_counts(B)
        assert minimal_counts(A) == minimal_counts(B)


class TestInstanceLoading:
    def test_matrix_source(self):
        M = instance_from_dict(
            {"name": "tri", "source": {"matrix": TRIANGLE}}
        )
        assert M.name == "tri" and M.rank == 2

    def test_graph_source(self):
        M = instance_from_dict(
            {"source": {"graph": {"edges": [[0, 1], [1, 2], [0, 2]]}}}
        )
        assert M == build_from_graph([(0, 1), (1, 2), (0, 2)])

    def test_uniform_source(self):
        M = instance_from_dict({"source": {"uniform": {"r": 2, "n": 4}}})
        assert M == build_uniform(2, 4)

    def test_signed_source(self):
        M = instance_from_dict(
            {
                "source": {
                    "signed": {
                        "circuits": [{"pos": [0, 1], "neg": [2]}],
                        "cocircuits": [
                            {"pos": [0], "neg": [1]},
                            {"pos": [0, 2]},
                            {"pos": [1, 2]},
                        ],
                    }
                }
            }
        )
        assert M == build_from_matrix(TRIANGLE)

    def test_two_sources_rejected(self):
        with pytest.raises(ValueError):
            instance_from_dict(
                {"source": {"matrix": TRIANGLE, "uniform": [2, 4]}}
            )

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            instance_from_dict([{"source": {"matrix": TRIANGLE}}])

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            instance_from_dict({"source": {"wheel": 4}})

    def test_load_file(self, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"source": {"matrix": TRIANGLE}}))
        assert load_instance_file(str(path)) == build_from_matrix(TRIANGLE)

    def test_load_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_instance_file(str(path))
