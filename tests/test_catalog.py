import ast
import json
from pathlib import Path

import pytest

from omrev import (
    build_uniform,
    catalog_instances,
    classify,
    evaluations,
    get_entry,
    get_instance,
    instance_from_dict,
    minimal_counts,
    reversal_counts,
    tutte_polynomial,
    validate,
)
from omrev import catalog, core
from omrev.reversal import reversal_classes

EXPECTED_NAMES = [
    "tri",
    "c4",
    "c5",
    "k4",
    "path2",
    "loop1",
    "loop-plus-triangle",
    "u24",
    "u25",
    "u26",
    "u35",
    "u36",
]


class TestListing:
    def test_names_and_order(self):
        assert [e.name for e in catalog_instances()] == EXPECTED_NAMES

    def test_every_entry_builds_and_validates(self):
        for entry in catalog_instances():
            M = entry.build()
            assert M.name == entry.name
            assert validate(M).ok, entry.name

    def test_get_entry_and_instance(self):
        assert get_entry("u24").name == "u24"
        assert get_instance("tri").n == 3
        with pytest.raises(KeyError):
            get_entry("no-such-instance")

    def test_fresh_objects_per_build(self):
        assert get_instance("tri") is not get_instance("tri")


class TestTags:
    def test_one_regularity_claim_each(self):
        for entry in catalog_instances():
            assert ("regular" in entry.tags) != ("non-regular" in entry.tags)

    def test_loop_tags_match_structure(self):
        for entry in catalog_instances():
            M = entry.build()
            if "has-loop" in entry.tags:
                assert M.has_loops
            if "has-coloop" in entry.tags:
                assert M.has_coloops
            if "loopless-coloopless" in entry.tags:
                assert not M.has_loops and not M.has_coloops

    def test_family_tag_each(self):
        for entry in catalog_instances():
            assert ("graphic" in entry.tags) != ("uniform" in entry.tags)


class TestExpectedTables:
    def test_provenance_vocabulary(self):
        for entry in catalog_instances():
            for exp in entry.expected.values():
                assert exp.provenance in ("literature", "oracle")

    def test_regular_flags(self):
        for entry in catalog_instances():
            exp = entry.expected["regular"]
            assert (classify(entry.build()) == "regular") == exp.value

    def test_tutte_evaluations(self):
        for entry in catalog_instances():
            exp = entry.expected["tutte_evaluations"]
            assert evaluations(tutte_polynomial(entry.build())) == exp.value, entry.name

    def test_reversal_counts(self):
        for entry in catalog_instances():
            exp = entry.expected["reversal_counts"]
            assert reversal_counts(entry.build()) == exp.value, entry.name

    def test_minimal_counts_equal_evaluations(self):
        for entry in catalog_instances():
            M = entry.build()
            assert minimal_counts(M) == entry.expected["tutte_evaluations"].value

    def test_acyclic_cocircuit_class_counts(self):
        for entry in catalog_instances():
            exp = entry.expected.get("acyclic_cocircuit_classes")
            if exp is None:
                continue
            got = reversal_classes(entry.build(), "cocircuit", "acyclic").class_count
            assert got == exp.value, entry.name


class TestLineFamily:
    def test_acyclic_class_parity(self):
        # one acyclic cocircuit class for even k, two for odd k
        counts = [
            reversal_classes(build_uniform(2, k), "cocircuit", "acyclic").class_count
            for k in range(3, 9)
        ]
        assert counts == [2, 1, 2, 1, 2, 1]


class TestOneInstanceFormat:
    """Catalog entries are written as instance-file sources."""

    def test_entries_are_instance_files(self):
        for name, (_, source, _, _) in catalog._DEFS.items():
            (kind,) = source
            assert kind in core._SOURCE_SHAPES, name
            text = json.dumps({"name": name, "source": source})
            assert instance_from_dict(json.loads(text)) == get_instance(name)

    def test_imports_and_no_builder_closure(self):
        tree = ast.parse(Path(catalog.__file__).read_text(encoding="utf-8"))
        from_core = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "core"
            for alias in node.names
        ]
        assert sorted(from_core) == ["OrientedMatroid", "instance_from_dict"]
        nested = [
            inner.name
            for outer in ast.walk(tree)
            if isinstance(outer, ast.FunctionDef)
            for inner in ast.walk(outer)
            if inner is not outer and isinstance(inner, ast.FunctionDef)
        ]
        assert nested == []
