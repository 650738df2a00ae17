import argparse
import ast
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import omrev
from omrev import (
    MAX_ELEMENTS,
    InvalidOrientedMatroid,
    OrientedMatroid,
    SignedSet,
    build_uniform,
    get_entry,
    get_instance,
    tutte_polynomial,
)
from omrev import cli
from omrev.activity import MODES, RESTRICTIONS
from omrev.catalog import FAMILIES, CatalogEntry, Expected
from omrev.tutte import SETTINGS
from omrev.cli import (
    analyze_instance,
    cmd_analyze,
    cmd_catalog_list,
    cmd_survey,
    cmd_verify,
    cmd_witness,
    main,
)

TRIANGLE = [[1, 0, 1], [0, 1, 1]]
REPO_ROOT = Path(__file__).resolve().parent.parent


def _callers(name):
    """The top-level function or class of each call to name in the package,
    "<module>" for a call outside both."""
    callers = []
    for path in sorted(Path(omrev.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner.update((call, node.name) for call in ast.walk(node))
        callers += [
            owner.get(call, "<module>")
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
        ]
    return callers


def _run(fn, *args, **kwargs):
    buf = io.StringIO()
    code = fn(*args, stream=buf, **kwargs)
    return code, buf.getvalue()


class TestAnalyze:
    def test_table_output(self):
        code, text = _run(cmd_analyze, "tri")
        assert code == 0
        assert "instance: tri" in text
        assert "tutte: x^2 + x + y" in text
        assert "regular: yes" in text
        assert "circuit_cocircuit" in text

    def test_byte_identical_reruns(self):
        one = _run(cmd_analyze, "u24")[1]
        two = _run(cmd_analyze, "u24")[1]
        assert one == two
        one = _run(cmd_analyze, "u24", out="json")[1]
        two = _run(cmd_analyze, "u24", out="json")[1]
        assert one == two

    def test_json_equality_rows(self):
        data = json.loads(_run(cmd_analyze, "u24", out="json")[1])
        assert data["evaluations"] == [6, 11, 11, 3, 3]
        assert data["reversal_counts"] == [2, 9, 9, 1, 1]
        for row in data["equality"]:
            assert not row["equal"] and row["tutte_greater"]
        assert data["witness_pair"] == [0, 8]
        assert data["regularity"]["witness"]["circuit"] == [0, 1, 2]

    def test_regular_json_has_no_witnesses(self):
        data = json.loads(_run(cmd_analyze, "c4", out="json")[1])
        assert data["regularity"] == {"regular": True, "witness": None}
        assert data["witness_pair"] is None
        assert all(row["equal"] for row in data["equality"])

    def test_verbose_includes_activities(self):
        data = json.loads(_run(cmd_analyze, "tri", out="json", verbose=True)[1])
        assert len(data["activities"]) == 8
        assert data["activities"][0]["minimal"] == {
            "circuit": True,
            "cocircuit": True,
            "both": True,
        }

    def test_timing_includes_the_build(self, monkeypatch):
        resolve = cli._resolve_instance

        def slow(target):
            time.sleep(0.05)
            return resolve(target)

        monkeypatch.setattr(cli, "_resolve_instance", slow)
        timed = json.loads(_run(cmd_analyze, "tri", out="json", timing=True)[1])
        assert timed["timing_seconds"] >= 0.05

    def test_timing_table_line(self):
        code, text = _run(cmd_analyze, "tri", timing=True)
        assert code == 0
        assert re.fullmatch(r"timing_seconds: \d+\.\d{3}", text.splitlines()[-1])

    def test_large_ground_set_warns(self, monkeypatch, capsys):
        # the warning comes before the analysis, which is stubbed out here
        big = OrientedMatroid(17, 0, [], [], name="big")
        monkeypatch.setattr(cli, "_resolve_instance", lambda target: big)
        tri = analyze_instance(get_instance("tri"))
        monkeypatch.setattr(cli, "analyze_instance", lambda M, **kwargs: tri)
        code, text = _run(cmd_analyze, "big")
        assert code == 0 and "instance: tri" in text
        assert capsys.readouterr().err == (
            "warning: n=17 reorientations number 2^17; expect a long run\n"
        )

    def test_timing_is_opt_in(self):
        plain = json.loads(_run(cmd_analyze, "tri", out="json")[1])
        timed = json.loads(_run(cmd_analyze, "tri", out="json", timing=True)[1])
        assert "timing_seconds" not in plain
        assert timed["timing_seconds"] >= 0

    def test_order_is_recorded_and_harmless(self):
        data = json.loads(
            _run(cmd_analyze, "tri", order=(2, 0, 1), out="json")[1]
        )
        assert data["order"] == [2, 0, 1]
        assert data["minimal_counts"] == [3, 4, 7, 2, 1]


class TestAnalyzeFiles:
    def test_matrix_file(self, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"name": "filed", "source": {"matrix": TRIANGLE}}))
        code, text = _run(cmd_analyze, str(path))
        assert code == 0 and "instance: filed" in text

    def test_unknown_target_exits_1(self, capsys):
        assert main(["analyze", "no-such-thing"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["analyze", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_signed_sets_exit_1(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(
            json.dumps(
                {
                    "source": {
                        "signed": {
                            "circuits": [{"pos": [0]}],
                            "cocircuits": [{"pos": [0]}],
                        }
                    }
                }
            )
        )
        assert main(["analyze", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source",
        [
            {"uniform": [3, 5]},
            {"signed": [1]},
            {"matrix": [1, 2]},
            {"signed": {"circuits": [{"pos": "ab"}], "cocircuits": []}},
            {"graph": {"vertices": "3", "edges": [[0, 1]]}},
            {"signed": {"circuits": [{"pos": [-1]}], "cocircuits": []}},
            {"signed": {"circuits": [{"pos": [1.0]}], "cocircuits": []}},
            # JSON booleans are not integers
            {"uniform": {"r": True, "n": 3}},
            {"matrix": [[True, False, 1]]},
            {"graph": {"edges": [[0, True]]}},
            {"graph": {"vertices": True, "edges": [[0, 0]]}},
            {"signed": {"circuits": [], "cocircuits": [{"pos": [False]}, {"pos": [True]}]}},
            # u24's lists under "circuit", a typo for "circuits"
            {
                "signed": {
                    "circuit": [
                        {"pos": [0, 2], "neg": [1]},
                        {"pos": [0, 3], "neg": [1]},
                        {"pos": [0, 3], "neg": [2]},
                        {"pos": [1, 3], "neg": [2]},
                    ],
                    "cocircuits": [
                        {"pos": [], "neg": [1, 2, 3]},
                        {"pos": [0], "neg": [2, 3]},
                        {"pos": [0, 1], "neg": [3]},
                        {"pos": [0, 1, 2], "neg": []},
                    ],
                }
            },
            {"graph": {"edges": [[0, 1]], "vertexes": 3}},
        ],
    )
    def test_misshapen_source_exits_1(self, tmp_path, capsys, source):
        path = tmp_path / "misshapen.json"
        path.write_text(json.dumps({"source": source}))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name", [[1, 2], 3, {"a": 1}, None])
    def test_name_that_is_not_a_string_exits_1(self, tmp_path, capsys, name):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"name": name, "source": {"matrix": TRIANGLE}}))
        assert main(["analyze", str(path), "--out", "json"]) == 1
        assert capsys.readouterr().err == "error: instance name must be a string, got %r\n" % (
            name,
        )

    @pytest.mark.parametrize(
        "n, word", [(12, 1024), (13, 2048)], ids=["n12", "n13"]
    )
    def test_line_missing_a_circuit_exits_1(self, tmp_path, capsys, n, word):
        # caught by validate's acyclic/cyclic tiling check, which runs at every n
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"source": _line(n, drop_circuit=-1)}))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "reorientation %d does not split into acyclic and cyclic parts" % word in err

    def test_line_missing_a_cocircuit_exits_1(self, tmp_path, capsys):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"source": _line(13, drop_cocircuit=0)}))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "reorientation 0 does not split into acyclic and cyclic parts" in err


class TestChecksBehindValidate:
    """The checks analyze runs after the build, on lists validate never saw."""

    def test_tutte_range_check(self):
        # the corank-nullity sum rejects a circuit list no matroid has
        M = _unvalidated(_line(13, drop_circuit=-1), rank=2)
        message = (
            "subset {10, 11, 12} (word 7168) of line has greedy rank 3 and "
            "nullity 0, above the rank 2 and nullity 11 of the ground set"
        )
        for call in (tutte_polynomial, analyze_instance):
            with pytest.raises(InvalidOrientedMatroid) as err:
                call(M)
            assert str(err.value) == message

    COUNTS_MESSAGE = (
        "line: minimal-reorientation counts equal the five Tutte evaluations "
        "(evals (78, 8178, 92, 12, 66), minimal counts (79, 8179, 92, 13, 66))"
    )

    def test_minimal_counts_check(self):
        # the circuit list is intact, so the Tutte polynomial is; only the
        # count check sees that the lists are not an oriented matroid
        M = _unvalidated(_line(13, drop_cocircuit=0), rank=2)
        with pytest.raises(InvalidOrientedMatroid) as err:
            analyze_instance(M)
        assert str(err.value) == self.COUNTS_MESSAGE

    def test_witness_runs_the_minimal_counts_check(self, tmp_path, monkeypatch, capsys):
        # the file's loader is replaced so validate never sees the lists
        M = _unvalidated(_line(13, drop_cocircuit=0), rank=2)
        monkeypatch.setattr(cli, "load_instance_file", lambda path: M)
        path = tmp_path / "line.json"
        path.write_text("{}")
        assert main(["witness", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % self.COUNTS_MESSAGE and not captured.out


class TestAnalyzeRunsTheTheoremChecks:
    """analyze runs verify's theorem checks and exits 1 on a failed one."""

    def test_regular_instance_with_too_few_classes_exits_1(self, monkeypatch, capsys):
        partition = SimpleNamespace(class_count=1)
        monkeypatch.setattr(cli, "reversal_classes", lambda M, mode, restriction: partition)
        assert main(["analyze", "tri"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: tri: regular instance: class counts equal the Tutte evaluations "
            "(evals (3, 4, 7, 2, 1), classes (1, 1, 1, 1, 1))\n"
        )

    def test_non_regular_instance_without_a_gap_exits_1(self, monkeypatch, capsys):
        # u24's class counts stubbed to its Tutte evaluations
        evals = dict(zip([(mode, r) for _, mode, r, _ in SETTINGS], (6, 11, 11, 3, 3)))
        monkeypatch.setattr(
            cli,
            "reversal_classes",
            lambda M, mode, restriction: SimpleNamespace(class_count=evals[mode, restriction]),
        )
        assert main(["analyze", "u24"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: u24: non-regular instance: strict gap in setting circuit_cocircuit "
            "(tutte 6, classes 6)\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_each_setting_is_requested_once(self, monkeypatch, command):
        real, requested = cli.reversal_classes, []

        def counted(M, mode, restriction):
            requested.append((mode, restriction))
            return real(M, mode, restriction)

        monkeypatch.setattr(cli, "reversal_classes", counted)
        if command == "analyze":
            analyze_instance(get_instance("k4"))
        else:
            assert _run(cmd_verify, entries=[get_entry("k4")])[0] == 0
        assert requested == [(mode, r) for _, mode, r, _ in SETTINGS]


def _line(n, drop_circuit=None, drop_cocircuit=None):
    """U(2, n) points on a line in order, optionally missing one signed set.

    Circuit {a < b < c} has parts {a, c} and {b}; the cocircuit of point p
    splits E minus p into the points before and after it.  Dropping one
    set, by its list index, leaves lists that pass the pairwise checks but
    are not an oriented matroid.
    """
    circuits = [{"pos": [a, c], "neg": [b]} for a, b, c in itertools.combinations(range(n), 3)]
    cocircuits = [
        {"pos": list(range(p)), "neg": list(range(p + 1, n))} for p in range(n)
    ]
    for sets, index in ((circuits, drop_circuit), (cocircuits, drop_cocircuit)):
        if index is not None:
            del sets[index]
    return {"signed": {"circuits": circuits, "cocircuits": cocircuits}}


def _cycle(n, drop_cut=None):
    """A directed n-cycle, edge j from vertex j to j + 1 mod n.

    The one circuit is the whole cycle, all positive; each cut {i < j}
    takes one edge into a vertex arc and one out, so its signs differ.
    drop_cut leaves one cut out.
    """
    cuts = [
        {"pos": [i], "neg": [j]}
        for i, j in itertools.combinations(range(n), 2)
        if (i, j) != drop_cut
    ]
    return {"signed": {"circuits": [{"pos": list(range(n))}], "cocircuits": cuts}}


def _unvalidated(source, rank):
    """The OrientedMatroid named line of a "signed" source, built without validate."""
    circuits, cocircuits = (
        [SignedSet(X.get("pos", ()), X.get("neg", ())) for X in source["signed"][kind]]
        for kind in ("circuits", "cocircuits")
    )
    n = 1 + max(max(X.support) for X in circuits + cocircuits)
    return OrientedMatroid(n, rank, circuits, cocircuits, "line")


# signed lists that pass every check but the acyclic/cyclic tiling, with
# the lowest word where the tiling fails
NOT_ORIENTED = [
    # the middle point's cocircuit is missing; the circuits fix it
    (_line(13, drop_cocircuit=6), 63),
    # a directed cycle missing the cut of two of its edges, at n = 14 and
    # at the largest n accepted
    (_cycle(14, drop_cut=(5, 9)), 32),
    (_cycle(MAX_ELEMENTS, drop_cut=(7, 12)), 128),
]


@pytest.mark.parametrize("command", ["analyze", "witness"])
@pytest.mark.parametrize("source, word", NOT_ORIENTED, ids=["line13", "cycle14", "cycle20"])
def test_tiling_rejects_lists_that_pass_the_other_checks(tmp_path, capsys, command, source, word):
    path = tmp_path / "not-oriented.json"
    path.write_text(json.dumps({"source": source}))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        "error: reorientation %d does not split into acyclic and cyclic parts\n" % word
    )


def test_cycle_with_every_cut_is_accepted(tmp_path):
    # the lists NOT_ORIENTED drops a cut from are an oriented matroid
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"source": _cycle(14)}))
    code, text = _run(cmd_witness, str(path))
    assert code == 0 and "no two minimal reorientations share a class" in text


class TestVerify:
    def test_full_catalog_passes(self):
        code, text = _run(cmd_verify)
        assert code == 0
        assert sum(1 for line in text.splitlines() if line.startswith("ok ")) == 12
        assert "PASS (12 instances)" in text

    def test_scopes(self):
        code, text = _run(cmd_verify, scope="regular")
        assert code == 0 and "PASS (7 instances)" in text
        code, text = _run(cmd_verify, scope="nonregular")
        assert code == 0 and "PASS (5 instances)" in text

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            cmd_verify(scope="everything")

    def test_mislabeled_tag_fails(self):
        bad = CatalogEntry(
            name="u24-mislabeled",
            description="u24 wearing a regular tag",
            tags=frozenset({"regular", "loopless-coloopless", "uniform"}),
            expected={"regular": Expected(True, "oracle")},
            factory=lambda: build_uniform(2, 4, name="u24-mislabeled"),
        )
        code, text = _run(cmd_verify, entries=[bad])
        assert code == 2
        assert "FAIL" in text and "regularity tag" in text

    @pytest.mark.parametrize(
        "name, end, detail",
        [
            # every walk "ends" at a word that is not minimal
            ("tri", 0b111, "A=0 gave B=7"),
            # at a minimal word, outside the class of A = 2
            ("u24", 0, "A=2 gave B=0"),
        ],
    )
    def test_greedy_walk_failure(self, monkeypatch, name, end, detail):
        # cli walks every word at once through greedy_minimalize(M)
        monkeypatch.setattr(cli, "greedy_minimalize", lambda M: [end] * (1 << M.n))
        code, text = _run(cmd_verify, entries=[get_entry(name)])
        assert code == 2
        assert text.splitlines()[-1] == (
            "FAIL %s: greedy walk reaches a minimal reorientation of the same class (%s)"
            % (name, detail)
        )

    @pytest.mark.parametrize(
        "rows, classes",
        [
            # a loop: no word is acyclic, so acyclic_cocircuit counts 0 of 0
            ([[1, 1, 1, 1, 0], [1, 2, 3, 4, 0]], (2, 18, 9, 0, 1)),
            # a coloop: no word is totally cyclic
            ([[1, 1, 1, 1, 0], [1, 2, 3, 4, 0], [0, 0, 0, 0, 1]], (2, 9, 18, 1, 0)),
        ],
        ids=["loop", "coloop"],
    )
    def test_empty_restriction_has_no_gap_to_show(self, rows, classes):
        # a non-regular instance shows a strict gap in every setting except
        # a restriction that admits no word, where both counts are 0
        name = "u24-plus-%s" % ("loop" if len(rows) == 2 else "coloop")
        entry = CatalogEntry(
            name=name,
            description="U(2,4) with an extra element",
            tags=frozenset({"non-regular"}),
            expected={},
            factory=lambda: omrev.build_from_matrix(rows, name=name),
        )
        assert omrev.reversal_counts(entry.build()) == classes
        code, text = _run(cmd_verify, entries=[entry])
        assert code == 0
        assert text == "ok %-18s  9 assertions\nPASS (1 instances)\n" % name

    def test_corrupted_expected_table_fails(self):
        bad = CatalogEntry(
            name="tri-corrupt",
            description="triangle with a wrong frozen table",
            tags=frozenset({"regular", "loopless-coloopless", "graphic"}),
            expected={"tutte_evaluations": Expected((3, 4, 7, 2, 2), "oracle")},
            factory=lambda: get_instance("tri"),
        )
        code, text = _run(cmd_verify, entries=[bad])
        assert code == 2 and "expected tutte_evaluations table" in text


class TestSurvey:
    def test_catalog_nonregular_table(self):
        code, text = _run(cmd_survey)
        assert code == 0
        assert "minimum ratio over non-regular instances: 3" in text

    def test_u2k_csv(self):
        code, text = _run(cmd_survey, family="u2k", max_n=6, out="csv")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "name,n,bases,classes,ratio,min_ratio,note"
        assert lines[1] == "U(2,3),3,3,3,1,,regular - excluded from minimum"
        assert lines[2].startswith("U(2,4),4,6,2,3,3")

    def test_u2k_up_to_sixteen_elements(self):
        # uniform sources are written as signed lists, so n = 16 builds at once
        code, text = _run(cmd_survey, family="u2k", max_n=16, out="csv")
        assert code == 0
        assert text.strip().split("\n")[-1] == "U(2,16),16,120,2,60,3,"

    def test_json_min_ratio(self):
        data = json.loads(_run(cmd_survey, out="json")[1])
        assert data["family"] == "catalog-nonregular"
        assert data["min_ratio"] == "3"
        assert all(r["note"] == "" for r in data["rows"])

    @pytest.mark.parametrize(
        "family, max_n, classes, message",
        [
            (
                "u2k",
                3,
                1,
                "FAIL U(2,3): regular instance: class counts equal the Tutte evaluations "
                "(evals (3, 4, 7, 2, 1), classes (1, 1, 1, 1, 1))\n",
            ),
            (
                "catalog-nonregular",
                8,
                10**6,
                "FAIL u24: expected reversal_counts table matches (expected (2, 9, 9, 1, 1) "
                "got (1000000, 1000000, 1000000, 1000000, 1000000))\n",
            ),
        ],
        ids=["u2k", "catalog-nonregular"],
    )
    def test_impossible_ratio_fails(self, monkeypatch, family, max_n, classes, message):
        # survey rows go through verify's checks and fail with its FAIL line
        partition = SimpleNamespace(class_count=classes)
        monkeypatch.setattr(cli, "reversal_classes", lambda M, mode, restriction: partition)
        code, text = _run(cmd_survey, family=family, max_n=max_n)
        assert (code, text) == (2, message)

    def test_wrong_acyclic_cocircuit_count_fails_u2k(self, monkeypatch):
        # from U(2,4) on, one acyclic cocircuit class too many still leaves a
        # strict gap, so only the entry's literature count can catch it
        real = cli.reversal_classes

        def off_by_one(M, mode, restriction):
            P = real(M, mode, restriction)
            if (mode, restriction) != ("cocircuit", "acyclic") or M.n < 4:
                return P
            return SimpleNamespace(class_count=P.class_count + 1, rep_of=P.rep_of)

        monkeypatch.setattr(cli, "reversal_classes", off_by_one)
        code, text = _run(cmd_survey, family="u2k", max_n=6)
        assert code == 2
        assert text == (
            "FAIL U(2,4): expected acyclic cocircuit class count matches (expected 1 got 2)\n"
        )

    @pytest.mark.parametrize("family, max_n", [("u2k", 10), ("catalog-nonregular", 8)])
    def test_rows_are_views_over_verify(self, family, max_n):
        rows, _ = cli._survey_rows(family, max_n)
        entries = FAMILIES[family](max_n)
        assert [row["name"] for row in rows] == [entry.name for entry in entries]
        for row, entry in zip(rows, entries):
            M, evals, counts, regular, _ = cli._verify_entry(entry)
            assert (row["n"], row["bases"], row["classes"]) == (M.n, evals[0], counts[0])
            assert (row["note"] != "") == regular

    def test_u2k_entries_state_their_claims(self):
        for entry in FAMILIES["u2k"](16):
            k = entry.build().n
            assert entry.name == "U(2,%d)" % k
            assert ("regular" in entry.tags) == (k == 3)
            assert ("non-regular" in entry.tags) == (k > 3)
            count = entry.expected.get("acyclic_cocircuit_classes")
            assert (count is None) if k == 3 else count.value == 1 + k % 2

    def test_unknown_family_is_an_input_error(self):
        with pytest.raises(ValueError, match="family must be catalog-nonregular or u2k, got 'k4'"):
            cli._survey_rows("k4", 8)

    def test_bad_max_n_exits_1(self, capsys):
        assert main(["survey", "--family", "u2k", "--max-n", "2"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOneChecker:
    """_verify_entry is the one per-instance checker; survey reads its results.

    analyze and verify share one analysis record (_analysis) and one set of
    theorem checks (_check_theorem).
    """

    def test_only_verify_entry_raises_verification_failure(self):
        assert set(_callers("VerificationFailure")) == {"_verify_entry"}

    def test_survey_rows_call_verify_entry_and_no_checks_of_their_own(self):
        assert "_survey_rows" in _callers("_verify_entry")
        own = {
            "tutte_polynomial", "evaluations", "reversal_classes", "reversal_counts",
            "classify", "is_binary", "minimal_counts",
        }
        assert [name for name in own if "_survey_rows" in _callers(name)] == []
        (function,) = [
            node
            for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and node.name == "_survey_rows"
        ]
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(function))

    def test_one_record_and_one_theorem_check(self):
        assert sorted(_callers("_check_theorem")) == ["_verify_entry", "analyze_instance"]
        assert sorted(_callers("_analysis")) == ["_verify_entry", "analyze_instance"]
        computed = ("tutte_polynomial", "reversal_classes", "minimal_counts")
        for caller in ("_verify_entry", "_survey_rows"):
            assert [name for name in computed if caller in _callers(name)] == [], caller

    def test_family_choices_are_the_table_keys(self):
        actions = cli.build_parser()._actions
        (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        (family,) = [a for a in sub.choices["survey"]._actions if a.dest == "family"]
        assert family.choices == sorted(FAMILIES)


class TestVocabularies:
    """The parser reads each choice list from the module that owns it."""

    def _choices(self, command, dest):
        actions = cli.build_parser()._actions
        (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        (action,) = [a for a in sub.choices[command]._actions if a.dest == dest]
        return action.choices

    def test_witness_mode_and_restriction(self):
        assert self._choices("witness", "mode") is MODES
        assert self._choices("witness", "restriction") is RESTRICTIONS

    def test_verify_scopes(self):
        assert self._choices("verify", "scope") == tuple(cli.VERIFY_SCOPES)
        message = "^scope must be all, regular, or nonregular, got 'x'$"
        with pytest.raises(ValueError, match=message):
            cmd_verify("x")


class TestCatalogList:
    def test_table(self):
        code, text = _run(cmd_catalog_list)
        assert code == 0
        for name in ("tri", "k4", "u36", "loop-plus-triangle"):
            assert name in text

    def test_json(self):
        data = json.loads(_run(cmd_catalog_list, out="json")[1])
        assert len(data) == 12
        u24 = next(d for d in data if d["name"] == "u24")
        assert u24["n"] == 4 and u24["rank"] == 2
        assert "non-regular" in u24["tags"]


class TestWitness:
    def test_u24_pair(self):
        code, text = _run(cmd_witness, "u24")
        assert code == 0
        assert "0 and 8" in text

    def test_regular_none(self):
        code, text = _run(cmd_witness, "tri")
        assert code == 0
        assert "no two minimal reorientations share a class" in text

    def test_json(self):
        data = json.loads(_run(cmd_witness, "u24", out="json")[1])
        assert data == {
            "instance": "u24",
            "mode": "cocircuit",
            "restriction": "acyclic",
            "pair": [0, 8],
        }
        data = json.loads(_run(cmd_witness, "tri", out="json")[1])
        assert data["pair"] is None

    def test_rejected_setting_exits_1(self, capsys):
        assert main(["witness", "tri", "--mode", "circuit", "--restriction", "acyclic"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source",
        [_line(13, drop_circuit=-1), _line(13, drop_cocircuit=0)],
        ids=["circuit", "cocircuit"],
    )
    def test_line_missing_a_signed_set_exits_1(self, tmp_path, capsys, source):
        # validate's tiling check rejects both files at load time;
        # TestChecksBehindValidate covers the checks that come after it
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"source": source}))
        assert main(["witness", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and not captured.out


class TestMainContract:
    def test_analyze_via_main(self, capsys):
        assert main(["analyze", "tri"]) == 0
        assert "instance: tri" in capsys.readouterr().out

    def test_non_integer_order_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "tri", "--order", "a,b"])
        assert err.value.code == 1
        assert "order must be comma-separated integers" in capsys.readouterr().err

    def test_bad_order_string(self, capsys):
        assert main(["analyze", "tri", "--order", "0,0,1"]) == 1
        assert "permutation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message", [(["--order", "0,1,2"], "permutation"), (["--verbose"], "n <= 12")]
    )
    def test_bad_analyze_options_fail_before_the_analysis(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def fail(M):
            raise AssertionError("tutte_polynomial ran")

        monkeypatch.setattr(cli, "tutte_polynomial", fail)
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"source": _line(13)}))
        assert main(["analyze", str(path), *flags]) == 1
        assert message in capsys.readouterr().err

    def test_usage_errors_exit_1(self):
        for argv in ([], ["bogus"], ["analyze"], ["analyze", "tri", "--out", "xml"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 1

    def test_console_script(self, tmp_path):
        # The [project.scripts] target, run the way pip's wrapper runs it,
        # and `python -m omrev`; both from this checkout, not from PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["omrev"]
        assert target == "omrev.cli:main"
        module, func = target.split(":")
        wrapper = "import sys; from %s import %s; sys.exit(%s())" % (module, func, func)
        src = Path(omrev.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}

        def run(*argv):
            return subprocess.run(
                [sys.executable, *argv],
                capture_output=True,
                text=True,
                timeout=120,
                cwd=tmp_path,
                env=env,
            )

        for entry in (["-c", wrapper], ["-m", "omrev"]):
            proc = run(*entry, "catalog", "list")
            assert proc.returncode == 0, proc.stderr
            assert "u24" in proc.stdout
        proc = run("-m", "omrev", "analyze", "tri", "--order", "0,0,1")
        assert proc.returncode == 1
        assert "error:" in proc.stderr and "permutation" in proc.stderr
