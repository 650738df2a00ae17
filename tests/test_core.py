import ast
import gc
import importlib.util
import io
import json
import random
import tracemalloc
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
from omrev.catalog import _DEFS
from omrev.core import _untiled_word
from oracles import elements_of_ref, orthogonality_ref, tiling_ref

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

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="element masks must be nonnegative"):
            SignedSet(-1, 0)

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


@st.composite
def _multigraphs(draw):
    """(vertex count, edges): at most 10 edges on up to 7 vertices, with
    loops, parallel and antiparallel copies, isolated vertices and several
    components, in a drawn edge order."""
    vertices = draw(st.integers(1, 7))
    vertex = st.integers(0, vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=7))
    if edges:
        copy = st.tuples(st.sampled_from(edges), st.booleans())
        copies = draw(st.lists(copy, max_size=10 - len(edges)))
        edges += [(v, u) if flip else (u, v) for (u, v), flip in copies]
    return vertices, draw(st.permutations(edges))


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
        # only endpoints of non-loop edges become search vertices and
        # incidence rows, so a vertex id of a million costs what a compact
        # numbering costs
        inputs = []

        def spy_cycles(arcs, order, real=core._graph_cycles):
            inputs.append(("search", (order, arcs)))
            return real(arcs, order)

        def spy_kernel(rows, ncols, real=core._kernel_basis):
            inputs.append(("incidence rows", len(rows)))
            return real(rows, ncols)

        monkeypatch.setattr(core, "_graph_cycles", spy_cycles)
        monkeypatch.setattr(core, "_kernel_basis", spy_kernel)
        M = build_from_graph([(0, 1), (1, 0), (0, 10**6)])
        sparse, inputs[:] = inputs[:], []
        compact = build_from_graph([(0, 1), (1, 0), (0, 2)])
        assert M == compact and M.rank == compact.rank == 2
        assert sparse == inputs
        assert dict(inputs) == {"search": (3, [(0, 1), (1, 0), (0, 2)]), "incidence rows": 3}

    @pytest.mark.parametrize("name", sorted(n for n, row in _DEFS.items() if "graph" in row[1]))
    def test_catalog_graphs_match_the_scan(self, name):
        body = _DEFS[name][1]["graph"]
        _assert_matches_the_scan(body["edges"], body.get("vertices"))

    @pytest.mark.parametrize("base", ["K4", "K5", "K3,3", "W5", "W6", "W7"])
    def test_relabelled_graphs_match_the_scan(self, base):
        body = _bench().instance_source(base, "matrix", 3)["source"]["graph"]
        _assert_matches_the_scan(body["edges"], body["vertices"])

    @settings(max_examples=60, deadline=None)
    @given(_multigraphs())
    def test_multigraphs_match_the_scan(self, graph):
        vertices, edges = graph
        _assert_matches_the_scan(edges, vertices)

    @pytest.mark.parametrize("base", ["K6", "W8", "K4,4"])
    def test_cycles_match_the_generator_at_n_15_and_16(self, base, monkeypatch):
        # too many elements for the subset scan in a quick run: the circuit
        # list handed to build_from_signed_sets is checked against the
        # benchmark generator's own search, and its vertex-cut bonds stand in
        # for the bond scan
        bench = _bench()
        vertices, edges = {
            "K6": bench.complete(6),
            "W8": bench.wheel(8),
            "K4,4": bench.complete_bipartite(4, 4),
        }[base]
        edges = bench.Transform(len(edges), vertices, random.Random(base)).graph(edges)
        cycles, bonds = bench.graph_signed(vertices, edges)
        listed = []

        def spy(circuits, cocircuits, real=core.build_from_signed_sets, **kwargs):
            listed.extend(circuits)
            return real(circuits, cocircuits, **kwargs)

        monkeypatch.setattr(core, "_circuits_of_matrix", lambda rows, n: bonds)
        monkeypatch.setattr(core, "build_from_signed_sets", spy)
        M = build_from_graph(edges, vertices=vertices)
        expected = _scan_order(_canonical(_mask(p), _mask(q)) for p, q in cycles)
        assert [_canonical(p, q) for p, q in listed] == expected
        assert len(M.circuit_data) == len(cycles)


def _bench():
    """bench/instances.py, loaded by path: it imports nothing from omrev."""
    path = Path(__file__).resolve().parent.parent / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mask(elements):
    return sum(1 << e for e in elements)


def _canonical(pos, neg):
    """(pos, neg) masks flipped so that the lowest support element is +."""
    low = (pos | neg) & -(pos | neg)
    return (pos, neg) if pos & low else (neg, pos)


def _scan_order(pairs):
    """Signed sets by size, then by sorted element list: the subset scan's order."""
    return sorted(pairs, key=lambda t: (len(e := elements_of_ref(t[0] | t[1])), e))


def _assert_matches_the_scan(edges, vertices):
    """build_from_graph equals build_from_matrix on the graph's incidence
    matrix, one row per vertex, stored lists in the same order."""
    vertices = vertices or 1 + max((max(e) for e in edges), default=-1)
    rows = [[0] * len(edges) for _ in range(vertices)]
    for j, (u, v) in enumerate(edges):
        if u != v:
            rows[v][j] += 1
            rows[u][j] -= 1
    G = build_from_graph(edges, vertices=vertices)
    M = build_from_matrix(rows, n=len(edges))
    assert (G.rank, G.circuit_data, G.cocircuit_data) == (M.rank, M.circuit_data, M.cocircuit_data)


@st.composite
def degenerate_matrices(draw):
    """Integer matrices of at most 7 columns with a zero column, a column
    that is a +-k multiple of another and a row that is a combination of
    the others, in a drawn column order."""
    height = draw(st.integers(1, 3))
    width = draw(st.integers(1, 5))
    rows = [[draw(st.integers(-3, 3)) for _ in range(width)] for _ in range(height)]
    source = draw(st.integers(0, width - 1))
    k = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    for row in rows:
        row += [0, k * row[source]]
    weights = [draw(st.integers(-2, 2)) for _ in rows]
    rows.append([sum(w * x for w, x in zip(weights, column)) for column in zip(*rows)])
    order = draw(st.permutations(range(width + 2)))
    return [[row[j] for j in order] for row in rows]


class TestOneBuilderExit:
    """Every source is constructed, and validated, by build_from_signed_sets."""

    def test_oriented_matroid_has_two_constructors(self):
        # dual is the other one: it swaps the lists of a built instance
        callers = []
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    # breadth-first, so a nested function overwrites its parent
                    owner.update((call, node.name) for call in ast.walk(node))
            callers += [
                owner.get(call, "<module>")
                for call in ast.walk(tree)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None))
                == "OrientedMatroid"
            ]
        assert sorted(callers) == ["build_from_signed_sets", "dual"]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_from_matrix(U24_MATRIX),
            lambda: build_from_graph([(0, 1), (1, 2), (0, 2), (0, 0)]),
        ],
        ids=["matrix", "graph"],
    )
    def test_matrix_and_graph_builds_are_validated(self, build, monkeypatch):
        # validate's tiling pass leaves the identity hits behind
        assert "cube" in build()._cache
        monkeypatch.setattr(core, "validate", lambda M: core.ValidationReport(False, ["stub"]))
        with pytest.raises(InvalidOrientedMatroid, match="stub"):
            build()

    @settings(max_examples=25, deadline=None)
    @given(degenerate_matrices())
    def test_degenerate_matrices(self, rows):
        from omrev import tutte_polynomial
        from oracles import matrix_rank, tutte_coeffs_from_matrix

        M = build_from_matrix(rows)
        assert "cube" in M._cache
        assert M.rank == matrix_rank(rows, list(range(M.n)))
        r, coeffs = tutte_coeffs_from_matrix(rows, M.n)
        T = tutte_polynomial(M)
        assert T.rank == r
        assert [list(row) for row in T.coeffs] == coeffs


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


def _mixed_forms(sets, rng):
    """The sets of a SignedSet tuple as a shuffled input list that repeats
    some of them, negates some and mixes every accepted entry form."""
    forms = (
        lambda X: X,
        lambda X: X.to_json_dict(),
        lambda X: (sorted(X.neg), sorted(X.pos)),  # -X, the same stored set
        lambda X: (X.pos_mask, X.neg_mask),
        lambda X: (X.support_mask, X.pos_mask, X.neg_mask),
        lambda X: (X.support_mask, X.neg_mask, X.pos_mask),  # a triple of -X
    )
    out = [rng.choice(forms)(X) for X in sets for _ in range(rng.choice((1, 1, 2)))]
    rng.shuffle(out)
    return out


def _eager(entries):
    """The SignedSet tuple the constructor stored before the triples were
    the stored form: each entry as a SignedSet, exact duplicates dropped,
    sorted by support as an ascending element list."""
    as_set = {
        dict: lambda x: SignedSet(x.get("pos", ()), x.get("neg", ())),
        SignedSet: lambda x: x,
    }
    sets = (as_set.get(type(x), lambda x: SignedSet(*x[-2:]))(x) for x in entries)
    return tuple(sorted(dict.fromkeys(sets), key=lambda X: sorted(X.support)))


# (case, entry, its JSON form or None, n, the message every path keeps)
REJECTED_SETS = (
    ("bool element", ((True,), ()), {"pos": [True]}, MAX_ELEMENTS,
     "elements must be ints in 0..19 (the hard cap is 20), got True"),
    ("element past the cap", ((0, 20), ()), {"pos": [0, 20]}, MAX_ELEMENTS,
     "elements must be ints in 0..19 (the hard cap is 20), got 20"),
    ("negative element", ((-1,), ()), {"neg": [-1]}, MAX_ELEMENTS,
     "elements must be ints in 0..19 (the hard cap is 20), got -1"),
    ("negative mask", (-1, 0), None, MAX_ELEMENTS, "element masks must be nonnegative"),
    ("mask past the cap", (0, 1 << 20), None, MAX_ELEMENTS,
     "element masks must lie below bit 20, the hard cap"),
    ("overlapping parts", ((0, 1), (1,)), {"pos": [0, 1], "neg": [1]}, MAX_ELEMENTS,
     "positive and negative parts overlap"),
    ("empty set", ((), ()), {}, MAX_ELEMENTS, "signed set must be nonempty"),
    ("element outside the ground set", ((0, 3), ()), None, 3,
     "signed set mentions an element outside 0..n-1"),
    ("support other than pos | neg", (0b111, 0b001, 0b010), None, MAX_ELEMENTS,
     "support mask 7 is not the union of the sign parts"),
    ("bool mask", (True, ()), None, MAX_ELEMENTS,
     "a sign part must be an int mask or an element list, got True"),
    ("bool negative mask", ((0,), True), None, MAX_ELEMENTS,
     "a sign part must be an int mask or an element list, got True"),
)


class TestStorage:
    """Each stored set is one canonical mask triple; circuits and
    cocircuits are SignedSet views of the triples."""

    def test_views_equal_the_eager_construction(self):
        from test_activity import _catalog_and_duals

        rng = random.Random(21)
        for M in _catalog_and_duals():
            circuits, cocircuits = _mixed_forms(M.circuits, rng), _mixed_forms(M.cocircuits, rng)
            N = build_from_signed_sets(circuits, cocircuits, n=M.n, name=M.name)
            assert "circuits" not in vars(N) and "cocircuits" not in vars(N), M.name
            assert (N.circuits, N.cocircuits) == (_eager(circuits), _eager(cocircuits)), M.name
            assert (N.circuits, N.cocircuits) == (M.circuits, M.cocircuits), M.name
            for sets, data in ((N.circuits, N.circuit_data), (N.cocircuits, N.cocircuit_data)):
                assert data == tuple((X.support_mask, X.pos_mask, X.neg_mask) for X in sets)
            assert N.circuits is N.circuits and N == M, M.name

    def test_shuffled_signed_source_with_duplicates(self, tmp_path):
        M = build_uniform(3, 7)
        rng = random.Random(5)
        lists = [
            [X.to_json_dict() for X in sets for _ in range(rng.choice((1, 2)))]
            for sets in (M.circuits, M.cocircuits)
        ]
        for sets in lists:
            rng.shuffle(sets)
        path = tmp_path / "u37.json"
        signed = dict(zip(("circuits", "cocircuits"), lists))
        path.write_text(json.dumps({"source": {"signed": signed}}))
        N = load_instance_file(str(path))
        assert (N.circuits, N.cocircuits) == (_eager(lists[0]), _eager(lists[1])) == (
            M.circuits,
            M.cocircuits,
        )
        assert (N.circuit_data, N.cocircuit_data) == (M.circuit_data, M.cocircuit_data)

    @pytest.mark.parametrize("case, entry, as_json, n, message", REJECTED_SETS)
    def test_each_path_keeps_the_rejection_message(
        self, tmp_path, case, entry, as_json, n, message
    ):
        for build in (
            lambda: build_from_signed_sets([entry], [], n=n),
            lambda: build_from_signed_sets([], [entry], n=n),
            lambda: OrientedMatroid(n, 0, [entry], []),
            lambda: OrientedMatroid(n, 0, [], [entry]),
        ):
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == message, case
        if as_json is not None:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"source": {"signed": {"circuits": [as_json]}}}))
            with pytest.raises(ValueError) as caught:
                load_instance_file(str(path))
            assert str(caught.value) == message, case

    @pytest.mark.parametrize("name", ["k4", "u24"])
    def test_analysis_and_verify_build_no_view(self, name):
        from omrev import get_entry
        from omrev.catalog import CatalogEntry
        from omrev.cli import analyze_instance, cmd_verify

        E = get_entry(name)
        M = E.build()
        source = {
            "signed": {
                "circuits": [X.to_json_dict() for X in M.circuits],
                "cocircuits": [X.to_json_dict() for X in M.cocircuits],
            }
        }
        built = []

        def build():
            built.append(instance_from_dict({"name": name, "source": source}))
            return built[-1]

        analyze_instance(build())
        entry = CatalogEntry(name, "signed copy", E.tags, E.expected, build)
        assert cmd_verify(entries=[entry], stream=io.StringIO()) == 0
        for M in built:
            assert not {"circuits", "cocircuits"} & vars(M).keys(), name

    def test_memory_peak_of_a_signed_build_at_sixteen_elements(self):
        # one triple per stored set and no SignedSet: 1.39 MB here, 2.09 MB
        # when each set was also a SignedSet.  The word planes are a shared
        # cache built once per n (274 KiB at n = 16), warmed first so the
        # figure is the build's own; collecting empties the free lists, so
        # every allocation of the build is traced
        U = build_uniform(4, 16)
        lists = [[X.to_json_dict() for X in sets] for sets in (U.circuits, U.cocircuits)]
        del U
        core._word_planes(16)
        gc.collect()
        tracemalloc.start()
        try:
            build_from_signed_sets(*lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6e6, peak


class TestWordsByMinimum:
    """core._words_by_minimum, the one pass over the stored sets of a kind."""

    def test_positive_words_has_one_caller(self):
        # greedy_ends ANDs the planes of the part holding each set's
        # order-minimum itself, so only the by-minimum pass calls it
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
        assert callers == ["_words_by_minimum"]

    def test_each_set_once_in_descending_minimum_groups(self):
        from test_activity import _catalog_and_duals  # test_activity imports this module

        for M in _catalog_and_duals():
            shuffled = list(range(M.n))
            random.Random(M.n).shuffle(shuffled)
            for order in (None, range(M.n - 1, -1, -1), shuffled):
                position = {e: k for k, e in enumerate(order or range(M.n))}
                positions = None if order is None else [position[e] for e in range(M.n)]
                for data in (M.circuit_data, M.cocircuit_data):
                    stream = core._words_by_minimum(data, M.n, positions)
                    groups = [(a, list(group)) for a, group in stream]
                    out = [(a, supp, words) for a, group in groups for supp, words in group]
                    assert sorted(supp for _, supp, _ in out) == sorted(t[0] for t in data)
                    for a, supp, words in out:
                        elements = [e for e in range(M.n) if supp >> e & 1]
                        assert a == min(elements, key=position.__getitem__), (M.name, order)
                        _, pos, neg = next(t for t in data if t[0] == supp)
                        X = SignedSet(pos, neg)
                        assert words == sum(
                            1 << A for A in range(1 << M.n) if X.is_positive_in(A)
                        ), (M.name, supp)
                    keys = [position[a] for a, _ in groups]
                    assert all(x > y for x, y in zip(keys, keys[1:])), (M.name, order)


class TestElementsOf:
    """core._elements_of, the byte-lane table, against the bit-peeling loop."""

    def test_every_mask_below_two_bytes(self):
        for mask in range(1 << 16):
            assert core._elements_of(mask) == elements_of_ref(mask), mask

    def test_random_masks_up_to_the_cap(self):
        rng = random.Random(19)
        masks = [0, (1 << MAX_ELEMENTS) - 1, 1 << (MAX_ELEMENTS - 1)]
        masks += [rng.getrandbits(MAX_ELEMENTS) for _ in range(5000)]
        for mask in masks:
            assert core._elements_of(mask) == elements_of_ref(mask), mask
        assert core._elements_of(0) == []

    @pytest.mark.parametrize("mask", [-1, -(1 << 8), 1 << MAX_ELEMENTS, 3 << MAX_ELEMENTS, 1 << 64])
    def test_mask_outside_the_cap_rejected(self, mask):
        with pytest.raises(ValueError, match="not a mask below bit %d" % MAX_ELEMENTS):
            core._elements_of(mask)


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

    def test_bad_kind_rejected(self):
        M = build_from_matrix(TRIANGLE)
        with pytest.raises(ValueError, match="kind must be 'circuit' or 'cocircuit', got 'loop'"):
            positive_sets(M, 0, "loop")

    def test_untiled_word_rejected(self):
        # unvalidated: with no stored sets, no element lies in either part
        M = OrientedMatroid(2, 1, [], [])
        with pytest.raises(
            InvalidOrientedMatroid,
            match="reorientation 0 of om does not split into acyclic and cyclic parts",
        ):
            part_decomposition(M, 0)


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

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                {"signed": {"circuit": [], "cocircuits": []}},
                "signed source has unknown key 'circuit' (allowed: circuits, cocircuits)",
            ),
            (
                {"graph": {"edges": [[0, 1]], "vertexes": 3}},
                "graph source has unknown key 'vertexes' (allowed: edges, vertices)",
            ),
            (
                {"uniform": {"r": 2, "n": 4, "k": 1}},
                "uniform source has unknown key 'k' (allowed: n, r)",
            ),
            (
                {"signed": {"circuits": [{"pos": [0, 1], "ng": [2]}]}},
                "signed set has unknown key 'ng' (allowed: neg, pos)",
            ),
        ],
        ids=["signed", "graph", "uniform", "signed set"],
    )
    def test_unknown_key_is_named(self, source, message):
        with pytest.raises(ValueError) as info:
            instance_from_dict({"source": source})
        assert str(info.value) == message

    def test_unknown_key_is_the_only_fault(self):
        # the same lists under "circuits" build U(2,4)
        M = build_uniform(2, 4)
        body = {
            "circuits": [{"pos": sorted(X.pos), "neg": sorted(X.neg)} for X in M.circuits],
            "cocircuits": [{"pos": sorted(X.pos), "neg": sorted(X.neg)} for X in M.cocircuits],
        }
        assert instance_from_dict({"source": {"signed": body}}) == M
        body["circuit"] = body.pop("circuits")
        with pytest.raises(ValueError, match="unknown key 'circuit'"):
            instance_from_dict({"source": {"signed": body}})

    @pytest.mark.parametrize("name", [[1, 2], 3, True, {"a": 1}, None])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValueError) as info:
            instance_from_dict({"name": name, "source": {"matrix": TRIANGLE}})
        assert str(info.value) == "instance name must be a string, got %r" % (name,)

    def test_default_and_empty_names(self):
        # an empty name is a missing one, whatever the source kind
        bodies = {
            "matrix": TRIANGLE,
            "graph": {"edges": [[0, 1], [1, 2], [0, 2]]},
            "uniform": {"r": 2, "n": 4},
            "signed": {
                "circuits": [{"pos": [0, 1], "neg": [2]}],
                "cocircuits": [{"pos": [0], "neg": [1]}, {"pos": [0, 2]}, {"pos": [1, 2]}],
            },
        }
        assert bodies.keys() == core._SOURCE_SHAPES.keys()
        for kind, body in bodies.items():
            for data in ({}, {"name": ""}):
                M = instance_from_dict({**data, "source": {kind: body}})
                assert M.name == "instance", (kind, data)
            assert instance_from_dict({"name": "x", "source": {kind: body}}).name == "x"

    def test_other_top_level_keys_are_allowed(self):
        M = instance_from_dict({"name": "t", "note": [1], "source": {"matrix": TRIANGLE}})
        assert M == build_from_matrix(TRIANGLE)

    def test_no_kind_branch_outside_the_table(self):
        # a new source kind is one row of _SOURCE_SHAPES, not a new branch
        tree = ast.parse(Path(core.__file__).read_text(encoding="utf-8"))
        compared = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                literals = [
                    c
                    for o in operands
                    for c in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                ]
                if literals and any(getattr(o, "id", None) == "kind" for o in operands):
                    compared.append(ast.unparse(node))
        assert compared == []

    def test_load_file(self, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"source": {"matrix": TRIANGLE}}))
        assert load_instance_file(str(path)) == build_from_matrix(TRIANGLE)

    def test_load_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_instance_file(str(path))
