import random
import tracemalloc

import pytest
from hypothesis import given, settings

from omrev import (
    InvalidOrientedMatroid,
    OrientedMatroid,
    SignedSet,
    build_from_graph,
    build_from_matrix,
    build_uniform,
    catalog_instances,
    dual,
    find_minimal_pair_in_class,
    get_instance,
    is_minimal,
    minimal_counts,
    part_decomposition,
    positive_sets,
    reversal_counts,
    same_class,
)
from omrev import reversal
from omrev.cli import analyze_instance
from omrev.reversal import MODES, RESTRICTIONS, SETTINGS, reversal_classes
from oracles import (
    bfs_classes,
    cube_minima_ref,
    is_minimal_ref,
    reversal_classes_ref,
    sweep_ref,
)
from test_activity import SMALL_MATRICES, _catalog_and_duals, _tables
from test_core import _unvalidated_lists, _unvalidated_om

ORACLE_NAMES = ("tri", "u24", "u25", "u35", "loop-plus-triangle", "path2", "loop1")

# every (mode, restriction) pair reversal_classes accepts
ACCEPTED = tuple((mode, restriction) for _, mode, restriction, _ in SETTINGS) + (
    ("both", "acyclic"),
    ("both", "totally_cyclic"),
)

# inconsistent lists: reversing circuit {0,1} flips acyclicity
BAD = OrientedMatroid(2, 1, [SignedSet((0, 1), ())], [SignedSet((0,), ())])


class TestSettings:
    def test_fixed_order(self):
        assert [s[0] for s in SETTINGS] == [
            "circuit_cocircuit",
            "cocircuit",
            "circuit",
            "acyclic_cocircuit",
            "totally_cyclic_circuit",
        ]
        assert [s[3] for s in SETTINGS] == [(1, 1), (1, 2), (2, 1), (1, 0), (0, 1)]

    def test_rejected_combinations(self):
        M = get_instance("tri")
        with pytest.raises(ValueError):
            reversal_classes(M, "circuit", "acyclic")
        with pytest.raises(ValueError):
            reversal_classes(M, "cocircuit", "totally_cyclic")
        with pytest.raises(ValueError):
            reversal_classes(M, "bogus", "all")
        with pytest.raises(ValueError):
            reversal_classes(M, "both", "bogus")

    def test_both_with_restrictions_allowed(self):
        M = get_instance("tri")
        assert reversal_classes(M, "both", "acyclic").class_count == 2
        assert reversal_classes(M, "both", "totally_cyclic").class_count == 1


class TestPartition:
    def test_triangle_acyclic_cocircuit_classes(self):
        P = reversal_classes(get_instance("tri"), "cocircuit", "acyclic")
        assert P.class_count == 2
        assert P.classes() == [(0, 3), (1, 3)]
        assert P.members(0) == [0, 5, 6]
        assert P.members(1) == [1, 2, 7]

    def test_non_admitted_words(self):
        P = reversal_classes(get_instance("tri"), "cocircuit", "acyclic")
        assert not P.is_admitted(3)  # {0,1}: reversing both makes the circuit positive
        with pytest.raises(ValueError):
            P.representative(3)

    def test_representative_is_minimum_member(self):
        for name in ORACLE_NAMES:
            M = get_instance(name)
            P = reversal_classes(M, "both", "all")
            for rep, size in P.classes():
                members = P.members(rep)
                assert rep == members[0] == min(members)
                assert size == len(members)

    def test_counts_spot_values(self):
        assert reversal_counts(get_instance("tri")) == (3, 4, 7, 2, 1)
        assert reversal_counts(get_instance("u24")) == (2, 9, 9, 1, 1)

    def test_memoized_per_instance(self):
        M = get_instance("c4")
        assert reversal_classes(M, "both", "all") is reversal_classes(M, "both", "all")


def _class_lists(M, mode, restriction):
    P = reversal_classes(M, mode, restriction)
    return sorted(P.members(rep) for rep, _ in P.classes())


class TestAgainstClosureOracle:
    def test_all_settings_match_bfs(self):
        for name in ORACLE_NAMES:
            M = get_instance(name)
            for mode, restriction in ACCEPTED:
                mine = _class_lists(M, mode, restriction)
                assert mine == bfs_classes(M, mode, restriction), (name, mode, restriction)

    @settings(max_examples=20, deadline=None)
    @given(SMALL_MATRICES)
    def test_random_matrices_match_bfs(self, rows):
        M = build_from_matrix(rows)
        for mode, restriction in ACCEPTED:
            assert _class_lists(M, mode, restriction) == bfs_classes(M, mode, restriction)


def _relabelled(M, seed):
    """M with its element labels shuffled by a seeded permutation."""
    perm = list(range(M.n))
    random.Random(seed).shuffle(perm)

    def move(X):
        return SignedSet([perm[e] for e in X.pos], [perm[e] for e in X.neg])

    return OrientedMatroid(
        M.n, M.rank, map(move, M.circuits), map(move, M.cocircuits), "%s/%d" % (M.name, seed)
    )


def _assert_matches_flat_loops(M, *orders):
    """Both kernel tables under the reversed, the identity and any given
    order, then both forests and every setting's partition.

    M must be fresh: the forests are first built after the reversed
    order's tables, and the later table builds must leave that memoized
    copy in place.
    """
    assert not M._cache, M.name
    reversed_order = tuple(range(M.n))[::-1]
    assert _tables(M, reversed_order) == cube_minima_ref(M, reversed_order), M.name
    bases = _base_partitions(M)
    for order in (None,) + orders:
        assert _tables(M, order) == cube_minima_ref(M, order), (M.name, order)
    assert all(P is Q for P, Q in zip(_base_partitions(M), bases)), M.name
    forests = tuple((P.rep_of, P.class_count) for P in bases)
    assert forests == (sweep_ref(M, M.circuit_data), sweep_ref(M, M.cocircuit_data)), M.name
    for mode, restriction in ACCEPTED:
        expected = reversal_classes_ref(M, mode, restriction)
        if expected is None:
            with pytest.raises(InvalidOrientedMatroid):
                reversal_classes(M, mode, restriction)
            continue
        P = reversal_classes(M, mode, restriction)
        assert (P.rep_of, P.class_count) == expected, (M.name, mode, restriction)


def _wheel(k):
    """Edge list of the wheel with k spokes: hub 0, rim 1..k."""
    return [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]


def _seventeen():
    """A coloop and eight parallel pairs (n = 17)."""
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(8)]
    return OrientedMatroid(
        17,
        9,
        [SignedSet((a,), (b,)) for a, b in pairs],
        [SignedSet((0,))] + [SignedSet((a, b)) for a, b in pairs],
    )


def _base_partitions(M):
    """circuit/all and cocircuit/all, each built by reversal._forest on first request."""
    return [reversal_classes(M, kind, "all") for kind in ("circuit", "cocircuit")]


def _forests(M):
    return tuple((P.rep_of, P.class_count) for P in _base_partitions(M))


def _forests_ref(M):
    return sweep_ref(M, M.circuit_data), sweep_ref(M, M.cocircuit_data)


PAIRS, PEELING = "_pair_edges", "_peeled_edges"
K5_EDGES = [(i, j) for i in range(5) for j in range(i + 1, 5)]

# instances on both sides of the cost model in reversal._stage_edges, with
# the edge paths their two forests take: low-rank uniform circuits have
# half-cubes far larger than their stage's class count, graphs have many
# classes, and the n = 17 instance peels two of its cocircuits
EDGE_PATH_CASES = {
    "U(2,9)": (lambda: build_uniform(2, 9), {PAIRS, PEELING}),
    "U(3,12)": (lambda: build_uniform(3, 12), {PAIRS, PEELING}),
    "K5": (lambda: build_from_graph(K5_EDGES, name="K5"), {PAIRS}),
    "dual K5": (lambda: dual(build_from_graph(K5_EDGES, name="K5")), {PAIRS}),
    "W5": (lambda: build_from_graph(_wheel(5), name="W5"), {PAIRS}),
    "W6": (lambda: build_from_graph(_wheel(6), name="W6"), {PAIRS}),
    "n17": (_seventeen, {PAIRS, PEELING}),
}


def _spy_on_edge_paths(monkeypatch):
    """The set of edge paths reversal._stage_edges takes from now on."""
    taken = set()
    for name in (PAIRS, PEELING):

        def spy(*args, real=getattr(reversal, name), name=name):
            taken.add(name)
            return real(*args)

        monkeypatch.setattr(reversal, name, spy)
    return taken


def _spy_on_forest(monkeypatch, M):
    """The stored kinds of M, by name, that reversal._forest builds from now on."""
    kinds = {id(M.circuit_data): "circuit", id(M.cocircuit_data): "cocircuit"}
    built = []

    def spy(data, n, real=reversal._forest):
        built.append(kinds[id(data)])
        return real(data, n)

    monkeypatch.setattr(reversal, "_forest", spy)
    return built


def _spy_on_peeled_sets(monkeypatch):
    """Per stage reversal._stage_edges reads from now on: (a copy of rep, the
    group, k, the class count, and the (S, d, edges) of each _peeled_edges call)."""
    stages = []

    def stage_spy(rep, group, k, count, real=reversal._stage_edges):
        stages.append((list(rep), group, k, count, []))
        return real(rep, group, k, count)

    def peel_spy(rep, S, d, classes, real=reversal._peeled_edges):
        edges = real(rep, S, d, classes)
        stages[-1][4].append((S, d, edges))
        return edges

    monkeypatch.setattr(reversal, "_stage_edges", stage_spy)
    monkeypatch.setattr(reversal, "_peeled_edges", peel_spy)
    return stages


class TestAgainstFlatLoops:
    """The doubling builds against the flat loops they replaced."""

    def test_catalog_and_duals(self):
        # a fresh copy: validate leaves the identity hits on a signed build
        for M in _catalog_and_duals():
            _assert_matches_flat_loops(OrientedMatroid(M.n, M.rank, M.circuits, M.cocircuits, M.name))

    def test_relabelled_under_three_orders(self):
        K5 = build_from_graph(K5_EDGES, name="K5")
        for seed, M in enumerate((build_uniform(3, 9), K5, dual(K5))):
            M = _relabelled(M, seed)
            shuffled = list(range(M.n))
            random.Random(seed + 10).shuffle(shuffled)
            _assert_matches_flat_loops(M, shuffled)

    @settings(max_examples=20, deadline=None)
    @given(SMALL_MATRICES)
    def test_random_matrices(self, rows):
        # a fresh copy: validate leaves the identity hits on a matrix build
        M = build_from_matrix(rows)
        _assert_matches_flat_loops(OrientedMatroid(M.n, M.rank, M.circuits, M.cocircuits, M.name))

    def test_seventeen_elements(self):
        # table bits 16 and up fill a third byte of each entry, and under
        # the reversed order the last pair's minimum is element 16
        M = _seventeen()
        for order in (None, tuple(range(17))[::-1]):
            assert _tables(M, order) == cube_minima_ref(M, order), order
        assert _forests(M) == _forests_ref(M)

    def test_seventeen_elements_memory_peak(self):
        # peeling's class bitsets are capped per word, so they stay below
        # the class lists' own size and the forests' peak within 10 % of
        # 6.9 MB
        M = _seventeen()
        tracemalloc.start()
        try:
            _forests(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 6.9e6, peak

    @pytest.mark.parametrize("name", list(EDGE_PATH_CASES))
    def test_both_edge_paths(self, name, monkeypatch):
        # each instance takes the edge paths the cost model picks for it,
        # so the test fails if no instance is peeled
        make, paths = EDGE_PATH_CASES[name]
        M = make()
        taken = _spy_on_edge_paths(monkeypatch)
        assert _forests(M) == _forests_ref(M), name
        assert taken == paths, name

    @pytest.mark.parametrize("name", ["U(2,9)", "U(3,12)", "n17"])
    def test_each_peeled_set_matches_its_pairs(self, name, monkeypatch):
        # set by set, not only whole forests: a peel that dropped an edge
        # other sets imply would still give the right forest.  A set with
        # top element k reads the words B | t, B within the bits 0..k-1
        # outside its support but the top one of them, and is peeled when
        # those outnumber the stage's classes and the classes are few
        M = EDGE_PATH_CASES[name][0]()
        stages = _spy_on_peeled_sets(monkeypatch)
        _forests(M)
        peeled = 0
        for rep, group, k, count, calls in stages:
            top = 1 << k
            halves = []
            for supp, pos, neg in group:
                t = neg if pos & top else pos
                comp = (top - 1) & ~supp
                free = comp ^ (1 << comp.bit_length() >> 1)
                if 1 << free.bit_count() > count and count <= reversal._PEEL_CLASSES:
                    halves.append((t, (supp ^ top ^ t) - t, free))
            assert len(calls) == len(halves), (name, k)
            for (t, d, free), (S, d_read, edges) in zip(halves, calls):
                assert S == sum(1 << w for w in range(top) if w & ~free == t), (name, k, t)
                assert d_read == d, (name, k, t)
                assert edges == reversal._pair_edges(rep, t, d, free), (name, k, t)
            peeled += len(calls)
        assert peeled > 0, name

    @settings(max_examples=60, deadline=None)
    @given(_unvalidated_lists(9))
    def test_random_unvalidated_lists(self, case):
        # complement halving needs no axiom: a stored set is positive at A
        # iff it is positive at the complement of A, for any signed list
        M = _unvalidated_om(case)
        assert _forests(M) == _forests_ref(M)

    def test_unvalidated_and_tiny(self):
        cases = (
            OrientedMatroid(0, 0, [], []),
            OrientedMatroid(1, 0, [SignedSet((0,))], []),
            OrientedMatroid(1, 1, [], [SignedSet((0,))]),
            OrientedMatroid(1, 0, [SignedSet((0,))], [SignedSet((0,))]),
            # a loop and a coloop at the top bit
            OrientedMatroid(
                4, 2, [SignedSet((3,)), SignedSet((0, 1), (2,))], [SignedSet((0,), (1,))]
            ),
            OrientedMatroid(4, 3, [SignedSet((0, 2), (1,))], [SignedSet((3,)), SignedSet((1, 2))]),
            # junk: element 3 is both a loop and a coloop
            OrientedMatroid(
                4, 1, [SignedSet((3,)), SignedSet((0, 2), (1,))], [SignedSet((3,)), SignedSet((0, 1))]
            ),
            OrientedMatroid(BAD.n, BAD.rank, BAD.circuits, BAD.cocircuits),  # a fresh BAD
            dual(BAD),
        )
        for M in cases:
            _assert_matches_flat_loops(M)


class TestBuiltOnFirstRequest:
    """Each base partition is built from its own kind, once, when first needed."""

    def test_one_cocircuit_setting_builds_cocircuits_only(self, monkeypatch):
        M = get_instance("u35")
        built = _spy_on_forest(monkeypatch, M)
        reversal_classes(M, "cocircuit", "acyclic")
        find_minimal_pair_in_class(M, "cocircuit", "all")
        assert built == ["cocircuit"]

    def test_same_class_in_circuit_mode_builds_circuits_only(self, monkeypatch):
        M = get_instance("tri")
        built = _spy_on_forest(monkeypatch, M)
        assert same_class(M, 0b100, 0b011, "circuit")
        assert not same_class(M, 0, 0b100, "circuit")
        assert built == ["circuit"]

    @pytest.mark.parametrize("name", ["u35", "k4"])
    def test_analysis_builds_each_kind_once(self, name, monkeypatch):
        M = get_instance(name)
        built = _spy_on_forest(monkeypatch, M)
        analyze_instance(M)
        analyze_instance(M, order=tuple(range(M.n))[::-1])
        assert sorted(built) == ["circuit", "cocircuit"]


class TestWordChecks:
    """Word lookups reject what _check_reorientation rejects, with its message."""

    @pytest.mark.parametrize("A", [-1, -2, 8, 1 << 9, True])
    def test_partition_lookups(self, A):
        M = get_instance("tri")
        message = "reorientation %r is not an n-bit word for n=3" % A
        for mode, restriction in ACCEPTED:
            P = reversal_classes(M, mode, restriction)
            with pytest.raises(ValueError, match=message):
                P.is_admitted(A)
            with pytest.raises(ValueError, match=message):
                P.representative(A)


class TestSameClass:
    def test_triangle_pairs(self):
        M = get_instance("tri")
        assert same_class(M, 0b100, 0b011, "circuit", "all")
        assert not same_class(M, 0, 0b100, "both", "all")
        assert same_class(M, 0, 0b101, "cocircuit", "acyclic")

    def test_word_out_of_range(self):
        with pytest.raises(ValueError):
            same_class(get_instance("tri"), 0, 1 << 9)

    def test_non_admitted_word_rejected(self):
        with pytest.raises(ValueError):
            same_class(get_instance("tri"), 0, 0b011, "cocircuit", "acyclic")


class TestGeneratorInvariants:
    def test_parts_invariant_along_generators(self):
        # reversing a positive support never moves the acyclic/cyclic split
        for name in ("tri", "u24", "loop-plus-triangle"):
            M = get_instance(name)
            for A in range(1 << M.n):
                parts = part_decomposition(M, A)
                for kind in ("circuit", "cocircuit"):
                    for X in positive_sets(M, A, kind):
                        assert part_decomposition(M, A ^ X.support_mask) == parts

    def test_generator_step_is_an_involution(self):
        M = get_instance("u24")
        for A in range(1 << M.n):
            for kind in ("circuit", "cocircuit"):
                for X in positive_sets(M, A, kind):
                    assert X.is_positive_in(A ^ X.support_mask)

    def test_escape_from_admitted_set_raises(self):
        with pytest.raises(InvalidOrientedMatroid):
            reversal_classes(BAD, "cocircuit", "acyclic")

    def test_escape_raises_in_dual_and_both_settings(self):
        with pytest.raises(InvalidOrientedMatroid):
            reversal_classes(dual(BAD), "circuit", "totally_cyclic")
        with pytest.raises(InvalidOrientedMatroid):
            reversal_classes(BAD, "both", "acyclic")


def _greedy_peel_reaches(M, start, target):
    """Peel start toward target by positive supports inside the difference."""
    A = start
    rem = A ^ target
    guard = 0
    while rem:
        guard += 1
        if guard > 4 ** M.n:
            return False
        for X in M.circuits + M.cocircuits:
            s = X.support_mask
            if s & rem == s and X.is_positive_in(A):
                A ^= s
                rem ^= s
                break
        else:
            return False
    return True


class TestRegularPeeling:
    def test_same_class_difference_peels_greedily(self):
        # regular instances: the difference of same-class words splits into
        # disjoint positive supports, and any greedy peel order finds them
        for entry in catalog_instances():
            if "regular" not in entry.tags:
                continue
            M = entry.build()
            if M.n > 10:
                continue
            P = reversal_classes(M, "both", "all")
            for A in range(1 << M.n):
                assert _greedy_peel_reaches(M, A, P.rep_of[A]), (entry.name, A)


class TestDualitySwap:
    def test_counts_swap_under_duality(self):
        for name in ORACLE_NAMES:
            M = get_instance(name)
            c = reversal_counts(M)
            d = reversal_counts(dual(M))
            assert d == (c[0], c[2], c[1], c[4], c[3])


class TestMinimalPair:
    def test_regular_instances_have_none(self):
        for entry in catalog_instances():
            if "regular" not in entry.tags:
                continue
            M = entry.build()
            for _, mode, restriction, _ in SETTINGS:
                assert find_minimal_pair_in_class(M, mode, restriction) is None

    def test_u24_pair_frozen(self):
        M = get_instance("u24")
        pair = find_minimal_pair_in_class(M, "cocircuit", "acyclic")
        assert pair == (0, 8)
        A, B = pair
        assert A != B
        assert is_minimal(M, A, "cocircuit") and is_minimal(M, B, "cocircuit")
        assert same_class(M, A, B, "cocircuit", "acyclic")

    def test_matches_brute_force_pair_search(self):
        # lexicographically first pair: the two smallest minimal members of
        # some class, smallest over all classes
        for name in ORACLE_NAMES:
            M = get_instance(name)
            for mode, restriction in ACCEPTED:
                expected = None
                for members in bfs_classes(M, mode, restriction):
                    minimal = [A for A in members if is_minimal_ref(M, A, mode)]
                    if len(minimal) > 1 and (expected is None or tuple(minimal[:2]) < expected):
                        expected = tuple(minimal[:2])
                got = find_minimal_pair_in_class(M, mode, restriction)
                assert got == expected, (name, mode, restriction)

    def test_deterministic_across_builds(self):
        one = find_minimal_pair_in_class(get_instance("u25"))
        two = find_minimal_pair_in_class(get_instance("u25"))
        assert one == two and one is not None


class TestCountIdentities:
    def test_bounded_by_minimal_counts(self):
        # one minimal reorientation per class, so counts <= minimality counts
        for name in ORACLE_NAMES:
            M = get_instance(name)
            for c, m in zip(reversal_counts(M), minimal_counts(M)):
                assert c <= m
