import importlib.util
from pathlib import Path

from hypothesis import given, settings, strategies as st

from omrev import (
    RegularityVerdict,
    build_from_graph,
    build_from_matrix,
    catalog_instances,
    classify,
    dual,
    get_instance,
    is_binary,
)
from oracles import is_binary_ref
from test_core import _unvalidated_lists, _unvalidated_om


class TestCatalogVerdicts:
    def test_matches_tags(self):
        for entry in catalog_instances():
            want = "regular" if "regular" in entry.tags else "non-regular"
            assert classify(entry.build()) == want, entry.name

    def test_u24_witness_frozen(self):
        v = is_binary(get_instance("u24"))
        assert not v.regular
        assert v.witness == (frozenset({0, 1, 2}), frozenset({0, 1, 2}))

    def test_regular_has_no_witness(self):
        v = is_binary(get_instance("k4"))
        assert v.regular and v.witness is None

    def test_witness_intersection_is_odd(self):
        for entry in catalog_instances():
            v = is_binary(entry.build())
            if v.witness is not None:
                c, d = v.witness
                assert len(c & d) % 2 == 1


class TestJson:
    def test_regular_shape(self):
        assert RegularityVerdict(True, None).to_json_dict() == {
            "regular": True,
            "witness": None,
        }

    def test_witness_shape(self):
        d = is_binary(get_instance("u24")).to_json_dict()
        assert d == {
            "regular": False,
            "witness": {"circuit": [0, 1, 2], "cocircuit": [0, 1, 2]},
        }


class TestInvariance:
    def test_dual_preserves_verdict(self):
        for entry in catalog_instances():
            M = entry.build()
            assert classify(dual(M)) == classify(M)

    def test_vacuous_without_circuits(self):
        M = build_from_matrix([[1, 0], [0, 1]])
        assert classify(M) == "regular"

    def test_all_loops_regular(self):
        assert classify(build_from_matrix([], n=2)) == "regular"


@st.composite
def random_digraphs(draw):
    nv = draw(st.integers(2, 4))
    count = draw(st.integers(1, 5))
    edges = [
        (draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)))
        for _ in range(count)
    ]
    return edges


class TestGraphicAlwaysRegular:
    @settings(max_examples=40, deadline=None)
    @given(random_digraphs())
    def test_even_intersections(self, edges):
        M = build_from_graph(edges)
        assert classify(M) == "regular"
        for X in M.circuits:
            for Y in M.cocircuits:
                assert len(X.support & Y.support) % 2 == 0


def _bench_bases():
    """The graph bases of the benchmark and its uniform bases, with duals."""
    from test_activity import _bench_instance

    path = Path(__file__).resolve().parent.parent / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    uniform = ["U(%d,%d)" % (r, k) for k in range(8, 11) for r in range(2, k - 1)]
    uniform += ["U(2,11)", "U(3,11)", "U(3,14)"]
    bases = list(module.GRAPHS) + uniform + ["dual " + base for base in uniform]
    return [_bench_instance(base, 5) for base in bases]


class TestParityBitsets:
    """is_binary's per-element parity bitsets against the pairwise scan."""

    def test_catalog_and_duals(self):
        for entry in catalog_instances():
            M = entry.build()
            for N in (M, dual(M)):
                assert is_binary(N) == is_binary_ref(N), N.name

    def test_bench_graph_and_uniform_bases(self):
        verdicts = set()
        for M in _bench_bases():
            verdict = is_binary(M)
            assert verdict == is_binary_ref(M), M.name
            verdicts.add(verdict.regular)
        assert verdicts == {True, False}

    @settings(max_examples=80, deadline=None)
    @given(_unvalidated_lists(10))
    def test_signed_lists(self, case):
        M = _unvalidated_om(case)
        assert is_binary(M) == is_binary_ref(M)
        assert is_binary(dual(M)) == is_binary_ref(dual(M))
