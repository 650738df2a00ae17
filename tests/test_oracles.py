"""The independent references: what they may import, and the closed forms
checked on graph builds."""

import ast
from pathlib import Path

import pytest

import omrev
from omrev import SETTINGS, build_from_graph, reversal_classes, tutte_polynomial
import closed_forms

TESTS = Path(__file__).resolve().parent


def _omrev_imports(path):
    """(module, name) of every name a source file takes from omrev."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names if a.name.split(".")[0] == "omrev"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "omrev":
            out += [(node.module, a.name) for a in node.names]
    return out


class TestIndependence:
    def test_oracles_import_only_exported_names(self):
        init = ast.parse(Path(omrev.__file__).read_text(encoding="utf-8"))
        exported = {
            a.asname or a.name
            for node in init.body
            if isinstance(node, ast.ImportFrom)
            for a in node.names
        }
        imports = _omrev_imports(TESTS / "oracles.py")
        assert imports and all(m == "omrev" and name in exported for m, name in imports), imports

    def test_closed_forms_import_nothing_from_omrev(self):
        assert _omrev_imports(TESTS / "closed_forms.py") == []


class TestGraphClosedForms:
    def test_lucas_numbers(self):
        assert [closed_forms.lucas(i) for i in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]

    @pytest.mark.parametrize("name", sorted(closed_forms.FAMILIES))
    def test_evaluations_and_class_counts(self, name):
        edges, expected = closed_forms.FAMILIES[name]
        M = build_from_graph(edges, name=name)
        T = tutte_polynomial(M)
        assert {point: T.evaluate(*point) for point in expected} == expected
        # graphic matroids are regular: each setting's class count is its evaluation
        for _, mode, restriction, point in SETTINGS:
            if point in expected:
                assert reversal_classes(M, mode, restriction).class_count == expected[point]
