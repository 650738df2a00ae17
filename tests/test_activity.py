import importlib.util
import random
import re
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omrev import (
    ActivityData,
    InvalidOrientedMatroid,
    OrientedMatroid,
    SignedSet,
    activities,
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
    instance_from_dict,
    is_minimal,
    minimal_counts,
    part_decomposition,
    same_class,
    tutte_polynomial,
    tutte_via_activities,
)
from omrev import activity, core, reversal
from omrev.cli import analyze_instance
from omrev.core import _bit_table, _greedy_rank
from oracles import (
    active_partition,
    activity_classes_ref,
    cube_minima_ref,
    greedy_minimalize_ref,
    is_minimal_ref,
    minimal_counts_ref,
    tiling_ref,
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
    return tuple(_bit_table(hits, M.n) for hits in core._cube(M, activity._positions(M.n, order)))


def _signed_copy(M):
    """M rebuilt from its signed lists, so validate has left its hits on the copy."""
    return build_from_signed_sets(M.circuits, M.cocircuits, n=M.n)


def _outcome(function, M, order):
    """function(M, order), or the type and message of the ValueError it raises."""
    try:
        return function(M, order)
    except ValueError as exc:
        return type(exc), str(exc)


def _bench_instance(base, seed):
    """A signed instance of the benchmark's generator, relabelled and
    reoriented by the seed (None: untransformed)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return instance_from_dict(module.instance_source(base, "signed", seed))


def _classes(AC):
    """Everything an ActivityClasses shows: n, the classes and every class_of."""
    return AC.n, AC.classes, [AC.class_of(A) for A in range(1 << AC.n)]


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
        # floats and bools compare equal to ints, so sorting alone passes them
        M = get_instance("tri")
        for order in ((0, 1), (0, 1, 1), (0.0, 1, 2), (True, 0, 2)):
            with pytest.raises(ValueError, match="permutation"):
                activities(M, 0, order=order)
            with pytest.raises(ValueError, match="permutation"):
                minimal_counts(M, order)


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
        # on a warm identity memo the three modes' excluded words share one
        # planes build, and _cube builds none
        M = get_instance("u35")
        minimal_counts(M)
        calls = []
        for module in (activity, core):
            build = module._word_planes
            monkeypatch.setattr(module, "_word_planes", lambda n, b=build: calls.append(n) or b(n))
        for k, order in enumerate((None, range(M.n), None), 1):
            minimal_counts(M, order)
            assert calls == [M.n] * k

    def test_tables_read_the_bitsets_validate_left(self, monkeypatch):
        # validate's tiling pass leaves the identity order's per-element
        # bitsets on M, in the one memo entry _cube reads: the tables read
        # them instead of recomputing the sets' positive words, and other
        # orders still compute their own
        for name in ("tri", "u35", "loop-plus-triangle"):
            M = _signed_copy(get_instance(name))
            assert list(M._cache) == ["cube"], name
            with monkeypatch.context() as patched:
                patched.setattr(core, "_positive_words", None)
                tables = _tables(M)
                counts = minimal_counts(M)
            assert list(M._cache) == ["cube"], name
            assert tables == cube_minima_ref(M), name
            assert counts == minimal_counts_ref(M, None), name
            reversed_order = tuple(range(M.n))[::-1]
            assert _tables(M, reversed_order) == cube_minima_ref(M, reversed_order)

    def test_identity_order_is_the_default_order(self, monkeypatch):
        # an explicit identity order reads the default order's memo entry,
        # which validate filled; the report still echoes the order as given
        for name in ("tri", "u24"):
            M = _signed_copy(dual(get_instance(name)))
            hits = M._cache["cube"]
            assert activity._positions(M.n, range(M.n)) is None
            with monkeypatch.context() as patched:
                patched.setattr(core, "_positive_words", None)
                assert minimal_counts(M, range(M.n)) == minimal_counts_ref(M, None), name
            report = analyze_instance(M, order=range(M.n))
            assert M._cache["cube"] is hits, name
            assert [key for key in M._cache if key[0] != "reversal"] == ["cube"], name
            assert report.order == tuple(range(M.n))
            assert report.to_json_dict()["order"] == list(range(M.n))

    def test_other_orders_keep_no_hits(self):
        # only the identity order's hits are memoized: calls under other
        # orders build their own and leave M's memo as it was
        orders = _shuffled_orders(5, 2, seed=13) + [(4, 3, 2, 1, 0)]
        for M in (get_instance("u25"), _signed_copy(get_instance("u25"))):
            before = dict(M._cache)
            for order in orders:
                minimal_counts(M, order)
                activity_classes(M, order)
                tutte_via_activities(M, order)
            assert M._cache == before, M.name
            assert all(M._cache[key] is value for key, value in before.items())

    def test_one_shot_orders(self):
        # each public function reads its order once, so an iterator serves
        M = get_instance("u24")
        order = (3, 2, 1, 0)
        for function in (
            minimal_counts,
            activity_classes,
            tutte_via_activities,
            activity_report,
            greedy_ends,
            lambda M, order: greedy_minimalize(M, order=order),
            lambda M, order: activities(M, 5, order),
            lambda M, order: is_minimal(M, 5, "both", order),
            lambda M, order: greedy_minimalize(M, 15, order),
        ):
            once, given = function(M, iter(order)), function(M, order)
            if isinstance(given, activity.ActivityClasses):
                once, given = _classes(once), _classes(given)
            assert once == given
        for verbose in (False, True):
            report = analyze_instance(M, iter(order), verbose=verbose)
            assert report.order == order
            assert report == analyze_instance(M, order, verbose=verbose)

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

    def test_ends_match_the_per_word_walk_on_u38(self):
        # each set claims one AND of planes, of the part holding its
        # order-minimum; every word's walk checks the claims
        for M in (build_uniform(3, 8), dual(build_uniform(3, 8))):
            shuffled = _shuffled_orders(M.n, 1, seed=8)[0]
            for order in (None, tuple(range(M.n))[::-1], shuffled):
                ends = greedy_ends(M, order)
                assert ends == [greedy_minimalize(M, A, order) for A in range(1 << M.n)], (
                    M.name,
                    order,
                )

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
        # checked with active_partition at every member, not with the sweep
        for M in _catalog_and_duals(max_n=8):
            AC = activity_classes(M)
            for members in AC.classes:
                shapes = {
                    tuple(
                        (x.leader, x.elements_mask, x.side)
                        for x in active_partition(M, m).parts
                    )
                    for m in members
                }
                assert len(shapes) == 1, (M.name, members)

    def test_matches_the_per_class_loop_on_the_catalog(self):
        for M in _catalog_and_duals(max_n=16):
            reverse = tuple(range(M.n))[::-1]
            for order in (None, reverse) + tuple(_shuffled_orders(M.n, 1, seed=M.n)):
                assert _classes(activity_classes(M, order)) == _classes(
                    activity_classes_ref(M, order)
                ), (M.name, order)

    @pytest.mark.parametrize("base", ["U(3,12)", "U(6,12)", "K5", "W6"])
    def test_matches_the_per_class_loop_on_relabelled_instances(self, base):
        M = _bench_instance(base, 5)
        (order,) = _shuffled_orders(M.n, 1, seed=11)
        assert _classes(activity_classes(M, order)) == _classes(activity_classes_ref(M, order))

    @settings(max_examples=150, deadline=None)
    @given(_unvalidated_lists(9))
    def test_unvalidated_lists_against_the_per_class_loop(self, case):
        # the sweep checks every word, the loop only each representative:
        # it may raise where the loop returns, never the other way round
        M = _unvalidated_om(case)
        untiled = tiling_ref(M)
        for order in (None, tuple(range(M.n))[::-1]):
            try:
                expected = _classes(activity_classes_ref(M, order))
            except InvalidOrientedMatroid:
                expected = None
            try:
                got = _classes(activity_classes(M, order))
            except InvalidOrientedMatroid as exc:
                assert untiled is None or "at reorientation %d of" % untiled in str(exc)
                continue
            assert untiled is None and got == expected

    def test_a_member_with_other_parts_is_named(self):
        # at word 0 the positive cocircuits 0+1+, 1+2+ and 2+ give the parts
        # {0}, {1}, {2}, which the per-class loop flips into one class of all
        # eight words; at word 3 only 0+1+ and 2+ are positive, so its parts
        # are {0, 1} and {2}, though its key is 0
        cocircuits = [SignedSet((0, 1)), SignedSet((0,), (1,)), SignedSet((1, 2)), SignedSet((2,))]
        M = OrientedMatroid(3, 0, [], cocircuits, "hand")
        assert activity_classes_ref(M).classes == (tuple(range(8)),)
        with pytest.raises(
            InvalidOrientedMatroid, match="disagree around reorientation 3 of hand"
        ):
            activity_classes(M)

    def test_class_sizes_follow_the_cube_leaders(self, monkeypatch):
        # the group sizes are checked against _cube's leaders, counted apart
        # from the sweep: one leader dropped at word 0 halves its class
        M = get_instance("tri")
        circuit_hits, cocircuit_hits = core._cube(M)
        dropped = [cocircuit_hits[0] & ~1] + cocircuit_hits[1:]
        monkeypatch.setattr(activity, "_cube", lambda M, positions=None: (circuit_hits, dropped))
        with pytest.raises(
            InvalidOrientedMatroid, match="disagree around reorientation 0 of tri"
        ):
            activity_classes(M)

    def test_sixteen_elements(self):
        # n * ceil(log2 n) = 64 part-leader bits: the largest size accepted
        M = _bench_instance("U(3,16)", None)
        AC = activity_classes(M)
        assert AC.class_count == tutte_polynomial(M).evaluate(1, 1) == 560
        assert sum(AC.sizes()) == 1 << 16

    def test_size_guard(self):
        big = OrientedMatroid(17, 1, [], [])
        with pytest.raises(ValueError, match=r"ceil\(log2 n\) bits; n=17 needs 85 > 64"):
            activity_classes(big)

    @pytest.mark.parametrize("A", [-1, -8, 8, 1 << 9, True])
    def test_class_of_rejects_words_outside_the_cube(self, A):
        AC = activity_classes(get_instance("tri"))
        with pytest.raises(ValueError, match="reorientation %r is not an n-bit word for n=3" % A):
            AC.class_of(A)

    @pytest.mark.parametrize("A", [-1, 8, True])
    @pytest.mark.parametrize("query", [activities, is_minimal, greedy_minimalize])
    def test_one_word_queries_reject_words_outside_the_cube(self, query, A):
        with pytest.raises(ValueError, match="reorientation %r is not an n-bit word for n=3" % A):
            query(get_instance("tri"), A)


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
