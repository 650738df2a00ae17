import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from omrev import (
    ActivityData,
    InvalidOrientedMatroid,
    OrientedMatroid,
    SignedSet,
    activities,
    active_partition,
    activity_classes,
    activity_report,
    build_from_graph,
    build_from_matrix,
    build_from_signed_sets,
    build_uniform,
    catalog_instances,
    dual,
    get_instance,
    greedy_ends,
    greedy_minimalize,
    is_minimal,
    minimal_counts,
    part_decomposition,
    same_class,
    tutte_polynomial,
    tutte_via_activities,
)
from omrev import activity, reversal
from omrev.cli import analyze_instance
from omrev.core import LOWEST_WORDS, _bit_table, _greedy_rank
from oracles import (
    cube_minima_ref,
    greedy_minimalize_ref,
    is_minimal_ref,
    minimal_counts_ref,
    tutte_via_activities_ref,
)
from test_core import _unvalidated_lists, _unvalidated_om

# small integer matrices: 2 or 3 rows of 4 columns, entries in -2..2
SMALL_MATRICES = st.lists(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    min_size=2,
    max_size=3,
)


def _shuffled_orders(n, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        out.append(tuple(order))
    return out


def _tables(M, order=None):
    """_cube's per-element hits of both kinds, as one array entry per word."""
    return tuple(_bit_table(hits, M.n) for hits in activity._cube(M, order))


def _outcome(function, M, order):
    """function(M, order), or the type and message of the ValueError it raises."""
    try:
        return function(M, order)
    except ValueError as exc:
        return type(exc), str(exc)


def _catalog_and_duals(max_n=10):
    """Every catalog instance and its dual with at most max_n elements."""
    out = []
    for entry in catalog_instances():
        M = entry.build()
        out += [X for X in (M, dual(M)) if X.n <= max_n]
    return out


class TestActivities:
    def test_triangle_values(self):
        M = get_instance("tri")
        assert activities(M, 0) == ActivityData((), (0, 1))
        assert activities(M, 0b100) == ActivityData((0,), ())
        a = activities(M, 0)
        assert (a.o, a.o_star) == (0, 2)

    def test_loop_is_always_active(self):
        M = get_instance("loop1")
        for A in range(2):
            assert activities(M, A).active_elements == frozenset({0})

    def test_order_changes_minima(self):
        M = get_instance("tri")
        # under order 2 < 1 < 0 the positive circuit at A=4 has minimum 2
        assert activities(M, 0b100, order=(2, 1, 0)).active_elements == frozenset({2})

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            activities(get_instance("tri"), 0, order=(0, 1))
        with pytest.raises(ValueError):
            activities(get_instance("tri"), 0, order=(0, 1, 1))


class TestIsMinimal:
    def test_triangle_spot_values(self):
        M = get_instance("tri")
        assert is_minimal(M, 0, "both")
        assert not is_minimal(M, 0b001, "cocircuit")
        assert is_minimal(M, 0b100, "cocircuit")
        assert is_minimal(M, 0b100, "circuit")  # minimum 0 of the circuit is outside
        assert not is_minimal(M, 0b011, "circuit")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            is_minimal(get_instance("tri"), 0, "bogus")

    def test_matches_reference_everywhere(self):
        for name in ("tri", "u24", "u35"):
            M = get_instance(name)
            for A in range(1 << M.n):
                for mode in ("circuit", "cocircuit", "both"):
                    assert is_minimal(M, A, mode) == is_minimal_ref(M, A, mode)


class TestMinimalCounts:
    def test_frozen_tables(self):
        assert minimal_counts(get_instance("tri")) == (3, 4, 7, 2, 1)
        assert minimal_counts(get_instance("u24")) == (6, 11, 11, 3, 3)
        assert minimal_counts(get_instance("loop1")) == (1, 2, 1, 0, 1)

    def test_order_invariance(self):
        for name in ("tri", "u24", "u35"):
            M = get_instance(name)
            base = minimal_counts(M)
            for order in _shuffled_orders(M.n, 3, seed=7):
                assert minimal_counts(M, order) == base

    def test_matches_reference_with_orders(self):
        for M in _catalog_and_duals():
            for order in (None,) + tuple(_shuffled_orders(M.n, 2, seed=11)):
                assert minimal_counts(M, order) == minimal_counts_ref(M, order)

    def test_builds_no_forests(self, monkeypatch):
        # the reversal forests are built only for reversal queries
        M = get_instance("u35")
        monkeypatch.setattr(reversal, "_forest", None)
        minimal_counts(M)
        minimal_counts(M, tuple(range(M.n))[::-1])
        assert not [key for key in M._cache if key[0] == "reversal"]

    def test_one_planes_build_per_call(self, monkeypatch):
        # on a warm memo the three modes' excluded words share one planes build
        M = get_instance("u35")
        reversed_order = tuple(range(M.n))[::-1]
        minimal_counts(M)
        minimal_counts(M, reversed_order)
        calls = []
        build = activity._word_planes
        monkeypatch.setattr(activity, "_word_planes", lambda n: calls.append(n) or build(n))
        for k, order in enumerate((None, reversed_order, None), 1):
            minimal_counts(M, order)
            assert calls == [M.n] * k

    def test_tables_read_the_bitsets_validate_left(self, monkeypatch):
        # validate's tiling pass leaves the identity order's per-element
        # bitsets on M; the tables read them instead of recomputing the
        # sets' positive words, and other orders still compute their own
        for name in ("tri", "u35", "loop-plus-triangle"):
            stored = get_instance(name)
            M = build_from_signed_sets(stored.circuits, stored.cocircuits, n=stored.n)
            assert LOWEST_WORDS in M._cache, name
            with monkeypatch.context() as patched:
                patched.setattr(activity, "_positive_words", None)
                tables = _tables(M)
                counts = minimal_counts(M)
            assert LOWEST_WORDS not in M._cache, name
            assert tables == cube_minima_ref(M), name
            assert counts == minimal_counts_ref(M, None), name
            reversed_order = tuple(range(M.n))[::-1]
            assert _tables(M, reversed_order) == cube_minima_ref(M, reversed_order)

    @settings(max_examples=20, deadline=None)
    @given(SMALL_MATRICES)
    def test_equals_tutte_evaluations_on_random_matrices(self, rows):
        from omrev import evaluations

        M = build_from_matrix(rows)
        assert minimal_counts(M) == evaluations(tutte_polynomial(M))

    def test_memory_peak_at_seventeen_elements(self):
        # the cube keeps n bitsets of 2^n bits per kind, 0.99 MB here; two
        # tables of one 8-byte entry per word would take it to 4.33 MB
        from test_reversal import _seventeen

        M = _seventeen()
        tracemalloc.start()
        try:
            minimal_counts(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, peak

    def test_analysis_memoizes_no_table(self):
        # activity_report turns the hits into tables for its own records
        # and drops them; the memo keeps bitsets, lists and partitions
        def leaves(values):
            for value in values:
                if isinstance(value, tuple):
                    yield from leaves(value)
                else:
                    yield value

        M = get_instance("u25")
        analyze_instance(M, tuple(range(M.n))[::-1], verbose=True)
        assert M._cache and not any(isinstance(v, array) for v in leaves(M._cache.values()))


class TestGreedyMinimalize:
    def test_fixed_point_when_already_minimal(self):
        assert greedy_minimalize(get_instance("tri"), 0) == 0

    def test_frozen_walk(self):
        assert greedy_minimalize(get_instance("tri"), 0b111) == 0b010

    def test_reaches_minimal_in_same_class(self):
        for name in ("tri", "u24", "loop-plus-triangle"):
            M = get_instance(name)
            for A in range(1 << M.n):
                B = greedy_minimalize(M, A)
                assert is_minimal(M, B, "both")
                assert same_class(M, A, B, "both", "all")

    def test_respects_order(self):
        M = get_instance("u24")
        order = (3, 2, 1, 0)
        for A in range(1 << M.n):
            B = greedy_minimalize(M, A, order)
            assert is_minimal(M, B, "both", order)
            assert same_class(M, A, B, "both", "all")

    def test_matches_reference_choice_rule(self):
        for M in _catalog_and_duals():
            orders = [None, tuple(reversed(range(M.n)))] + _shuffled_orders(M.n, 1, seed=11)
            for order in orders:
                ends = greedy_ends(M, order)
                assert greedy_minimalize(M, order=order) == ends
                for A in range(1 << M.n):
                    B = greedy_minimalize(M, A, order)
                    assert B == greedy_minimalize_ref(M, A, order) == ends[A]

    def test_ends_match_the_walk_at_n9_and_n10(self):
        K5 = build_from_graph([(i, j) for i in range(5) for j in range(i + 1, 5)], name="K5")
        for M, order in ((build_uniform(3, 9), None), (K5, _shuffled_orders(10, 1, seed=5)[0])):
            ends = greedy_ends(M, order)
            for A in range(1 << M.n):
                assert ends[A] == greedy_minimalize(M, A, order) == greedy_minimalize_ref(M, A, order)

    def test_stops_on_unvalidated_input(self):
        # X_m = (+m, -(m+1..n-1)) is the only candidate while m is the
        # largest element of the word, and flipping it is a binary
        # decrement: from the full word the walk takes all 2^n - 1 flips
        n = 10
        counter = OrientedMatroid(
            n, 0, [SignedSet((m,), range(m + 1, n)) for m in range(n)], [], "counter"
        )
        assert greedy_minimalize(counter, counter.ground_mask) == 0
        assert greedy_minimalize_ref(counter, counter.ground_mask) == 0
        # the longest walk the doubling in greedy_ends has to resolve
        assert greedy_ends(counter) == [0] * (1 << n)
        rng = random.Random(3)
        for _ in range(20):
            sets = []
            for _ in range(12):
                signs = [rng.choice((-1, 0, 0, 1)) for _ in range(7)]
                if any(signs):
                    pos = [e for e, s in enumerate(signs) if s > 0]
                    neg = [e for e, s in enumerate(signs) if s < 0]
                    sets.append(SignedSet(pos, neg))
            junk = OrientedMatroid(7, 3, sets[:6], sets[6:], "junk")
            order = list(range(7))
            rng.shuffle(order)
            ends = greedy_ends(junk, order)
            for A in range(1 << junk.n):
                B = greedy_minimalize(junk, A, order)
                assert is_minimal_ref(junk, B, "both", order)
                assert B == greedy_minimalize_ref(junk, A, order) == ends[A]


class TestActivePartition:
    def test_triangle_parts(self):
        M = get_instance("tri")
        p = active_partition(M, 0)
        assert [(x.leader, sorted(x.elements), x.side) for x in p.parts] == [
            (0, [0], "cocircuit"),
            (1, [1, 2], "cocircuit"),
        ]
        p = active_partition(M, 0b100)
        assert [(x.leader, sorted(x.elements), x.side) for x in p.parts] == [
            (0, [0, 1, 2], "circuit")
        ]

    def test_u24_parts_at_zero(self):
        p = active_partition(get_instance("u24"), 0)
        assert [(x.leader, sorted(x.elements)) for x in p.parts] == [
            (0, [0]),
            (1, [1, 2, 3]),
        ]

    def test_sides_tile_the_parts(self):
        for name in ("tri", "u24", "k4"):
            M = get_instance(name)
            for A in range(1 << M.n):
                p = active_partition(M, A)
                acyclic, cyclic = part_decomposition(M, A)
                circ = frozenset().union(*(x.elements for x in p.side("circuit")), frozenset())
                coc = frozenset().union(*(x.elements for x in p.side("cocircuit")), frozenset())
                assert circ == cyclic and coc == acyclic
                for x in p.parts:
                    assert x.leader == min(x.elements)


class TestActivityClasses:
    def test_triangle_frozen(self):
        AC = activity_classes(get_instance("tri"))
        assert AC.classes == ((0, 1, 6, 7), (2, 5), (3, 4))
        assert AC.sizes() == (4, 2, 2)
        assert AC.class_of(6) == 0 and AC.class_of(5) == 2

    def test_partition_invariants(self):
        for entry in catalog_instances():
            M = entry.build()
            if M.n > 6:
                continue
            AC = activity_classes(M)
            assert sum(AC.sizes()) == 1 << M.n
            assert AC.class_count == tutte_polynomial(M).evaluate(1, 1)
            for members in AC.classes:
                size = len(members)
                assert size & (size - 1) == 0  # power of two
                assert sum(1 for m in members if is_minimal(M, m, "both")) == 1

    def test_members_share_the_partition(self):
        for name in ("tri", "u24"):
            M = get_instance(name)
            AC = activity_classes(M)
            for members in AC.classes:
                shapes = {
                    tuple(
                        (x.leader, x.elements_mask, x.side)
                        for x in active_partition(M, m).parts
                    )
                    for m in members
                }
                assert len(shapes) == 1

    def test_size_guard(self):
        big = OrientedMatroid(17, 1, [], [])
        with pytest.raises(ValueError):
            activity_classes(big)

    @pytest.mark.parametrize("A", [-1, -8, 8, 1 << 9])
    def test_class_of_rejects_words_outside_the_cube(self, A):
        AC = activity_classes(get_instance("tri"))
        with pytest.raises(ValueError, match="reorientation %d is not an n-bit word for n=3" % A):
            AC.class_of(A)


class TestTutteViaActivities:
    def test_matches_subset_expansion(self):
        for name in ("tri", "u24", "u35", "loop-plus-triangle", "path2"):
            M = get_instance(name)
            assert tutte_via_activities(M) == tutte_polynomial(M)

    def test_matches_under_orders(self):
        M = get_instance("u24")
        for order in _shuffled_orders(M.n, 3, seed=3):
            assert tutte_via_activities(M, order) == tutte_polynomial(M)

    @settings(max_examples=120, deadline=None)
    @given(_unvalidated_lists(9), st.sampled_from((0, 0, 0, -1, 1)))
    def test_unvalidated_lists_against_per_word_sum(self, case, shift):
        # any signed lists; the stored rank is mostly the greedy rank of
        # the circuit supports and sometimes off by one, and the
        # constructor rejects it outside 0..n
        lists = _unvalidated_om(case)
        rank = _greedy_rank([s for s, _, _ in lists.circuit_data], lists.ground_mask) + shift
        if not 0 <= rank <= lists.n:
            with pytest.raises(ValueError, match="rank"):
                OrientedMatroid(lists.n, rank, lists.circuits, lists.cocircuits)
            return
        M = OrientedMatroid(lists.n, rank, lists.circuits, lists.cocircuits)
        for order in (None, tuple(range(M.n))[::-1]):
            assert _outcome(tutte_via_activities, M, order) == _outcome(
                tutte_via_activities_ref, M, order
            )

    def test_range_check_names_the_lowest_word(self):
        # the loop {1} is positive everywhere and the circuit 0+ 1- at the
        # words 1 and 2, so word 1 is the first with two active elements
        # against nullity 1
        M = OrientedMatroid(2, 1, [SignedSet((1,)), SignedSet((0,), (1,))], [], "hand")
        message = "activities (2, 0) at reorientation 1 exceed rank/nullity of hand"
        assert _outcome(tutte_via_activities_ref, M, None) == (InvalidOrientedMatroid, message)
        with pytest.raises(InvalidOrientedMatroid, match=re.escape(message)):
            tutte_via_activities(M)


class TestActivityReport:
    def test_triangle_records(self):
        records = activity_report(get_instance("tri"))
        assert len(records) == 8
        assert records[0] == {
            "A": 0,
            "o": 0,
            "o_star": 2,
            "minimal": {"circuit": True, "cocircuit": True, "both": True},
        }

    def test_matches_per_word_queries_under_orders(self):
        for M in _catalog_and_duals():
            for order in _shuffled_orders(M.n, 2, seed=5):
                for record in activity_report(M, order):
                    A = record["A"]
                    acts = activities(M, A, order)
                    assert (record["o"], record["o_star"]) == (acts.o, acts.o_star)
                    for mode in ("circuit", "cocircuit", "both"):
                        assert record["minimal"][mode] == is_minimal(M, A, mode, order)

    def test_size_guard(self):
        big = OrientedMatroid(13, 1, [], [])
        with pytest.raises(ValueError):
            activity_report(big)
