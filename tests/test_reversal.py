import itertools
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
    build_from_signed_sets,
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
from omrev import activity
from omrev.activity import _cube_forests, _cube_minima
from omrev.reversal import MODES, RESTRICTIONS, SETTINGS, reversal_classes
from oracles import (
    bfs_classes,
    cube_minima_ref,
    is_minimal_ref,
    reversal_classes_ref,
    sweep_ref,
)
from test_activity import SMALL_MATRICES, _catalog_and_duals
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

    def test_json_shape(self):
        P = reversal_classes(get_instance("tri"), "cocircuit", "acyclic")
        d = P.to_json_dict(verbose=True)
        assert d["mode"] == "cocircuit" and d["restriction"] == "acyclic"
        assert d["class_count"] == 2
        assert d["classes"][0] == {"representative": 0, "size": 3, "members": [0, 5, 6]}
        assert "members" not in P.to_json_dict()["classes"][0]

    def test_json_members_match_per_class_members(self):
        for M in (get_instance("u36"), dual(get_instance("k4")), BAD):
            for mode, restriction in (("both", "all"), ("cocircuit", "all"), ("circuit", "all")):
                P = reversal_classes(M, mode, restriction)
                entries = P.to_json_dict(verbose=True)["classes"]
                assert [e["members"] for e in entries] == [
                    P.members(e["representative"]) for e in entries
                ]

    def test_json_members_above_twelve_elements(self):
        # 13 coloops: circuit/all has 8192 singleton classes, cocircuit/all one class
        M = OrientedMatroid(13, 13, [], [SignedSet((e,)) for e in range(13)], "free13")
        for mode, restriction in ACCEPTED:
            P = reversal_classes(M, mode, restriction)
            entries = P.to_json_dict(verbose=True)["classes"]
            assert all(e["members"][0] == e["representative"] for e in entries)
            covered = sorted(A for e in entries for A in e["members"])
            assert covered == [A for A in range(1 << 13) if P.is_admitted(A)], (mode, restriction)


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
    assert _cube_minima(M, reversed_order) == cube_minima_ref(M, reversed_order), M.name
    forests = _cube_forests(M)
    for order in (None,) + orders:
        assert _cube_minima(M, order) == cube_minima_ref(M, order), (M.name, order)
    assert _cube_forests(M) is forests, M.name
    assert forests == (sweep_ref(M, M.circuit_data), sweep_ref(M, M.cocircuit_data)), M.name
    for mode, restriction in ACCEPTED:
        expected = reversal_classes_ref(M, mode, restriction)
        if expected is None:
            with pytest.raises(InvalidOrientedMatroid):
                reversal_classes(M, mode, restriction)
            continue
        P = reversal_classes(M, mode, restriction)
        assert (P.rep_of, P.class_count) == expected, (M.name, mode, restriction)


def _alternating(r, n):
    """U(r, n) from the signs of its Vandermonde columns t = 1..n.

    Every r-minor in increasing column order is positive, so a circuit
    alternates in sign along its sorted support, and the cocircuit of the
    hyperplane spanned by an (r-1)-set T gives e the sign (-1)^(number of
    elements of T above e).  Built from the signed lists, with no subset
    scan.
    """
    circuits = [(S[0::2], S[1::2]) for S in itertools.combinations(range(n), r + 1)]
    cocircuits = []
    for T in itertools.combinations(range(n), r - 1):
        parts = ([], [])
        for e in range(n):
            if e not in T:
                parts[sum(x > e for x in T) % 2].append(e)
        cocircuits.append(parts)
    return build_from_signed_sets(circuits, cocircuits, n=n, name="U(%d,%d)" % (r, n))


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


def _forests_ref(M):
    return sweep_ref(M, M.circuit_data), sweep_ref(M, M.cocircuit_data)


PAIRS, PEELING = "_pair_edges", "_peeled_edges"
K5_EDGES = [(i, j) for i in range(5) for j in range(i + 1, 5)]

# instances on both sides of the cost model in activity._stage_edges, with
# the edge paths their two forests take: low-rank uniform circuits have
# half-cubes far larger than their stage's class count, graphs have many
# classes, and the n = 17 instance peels two of its cocircuits
EDGE_PATH_CASES = {
    "U(2,9)": (lambda: _alternating(2, 9), {PAIRS, PEELING}),
    "U(3,12)": (lambda: _alternating(3, 12), {PAIRS, PEELING}),
    "K5": (lambda: build_from_graph(K5_EDGES, name="K5"), {PAIRS}),
    "dual K5": (lambda: dual(build_from_graph(K5_EDGES, name="K5")), {PAIRS}),
    "W5": (lambda: build_from_graph(_wheel(5), name="W5"), {PAIRS}),
    "W6": (lambda: build_from_graph(_wheel(6), name="W6"), {PAIRS}),
    "n17": (_seventeen, {PAIRS, PEELING}),
}


def _spy_on_edge_paths(monkeypatch):
    """The set of edge paths activity._stage_edges takes from now on."""
    taken = set()
    for name in (PAIRS, PEELING):

        def spy(*args, real=getattr(activity, name), name=name):
            taken.add(name)
            return real(*args)

        monkeypatch.setattr(activity, name, spy)
    return taken


class TestAgainstFlatLoops:
    """The doubling builds against the flat loops they replaced."""

    def test_catalog_and_duals(self):
        for M in _catalog_and_duals():
            _assert_matches_flat_loops(M)

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
        _assert_matches_flat_loops(build_from_matrix(rows))

    def test_seventeen_elements(self):
        # table bits 16 and up fill a third byte of each entry, and under
        # the reversed order the last pair's minimum is element 16
        M = _seventeen()
        for order in (None, tuple(range(17))[::-1]):
            assert _cube_minima(M, order) == cube_minima_ref(M, order), order
        assert _cube_forests(M) == _forests_ref(M)

    def test_seventeen_elements_memory_peak(self):
        # peeling's class bitsets are capped per word, so they stay below
        # the class lists' own size and the forests' peak within 10 % of
        # 6.9 MB
        M = _seventeen()
        tracemalloc.start()
        try:
            _cube_forests(M)
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
        assert _cube_forests(M) == _forests_ref(M), name
        assert taken == paths, name

    @settings(max_examples=60, deadline=None)
    @given(_unvalidated_lists(9))
    def test_random_unvalidated_lists(self, case):
        # complement halving needs no axiom: a stored set is positive at A
        # iff it is positive at the complement of A, for any signed list
        M = _unvalidated_om(case)
        assert _cube_forests(M) == _forests_ref(M)

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


class TestWordChecks:
    """Word lookups reject what _check_reorientation rejects, with its message."""

    @pytest.mark.parametrize("A", [-1, -2, 8, 1 << 9])
    def test_partition_lookups(self, A):
        M = get_instance("tri")
        message = "reorientation %d is not an n-bit word for n=3" % A
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
