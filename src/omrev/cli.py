"""Command line front end: analyze, verify, survey, catalog, witness.

There are two entry points: the ``omrev`` console script declared in
``[project.scripts]`` and ``python -m omrev``. Both call ``main()`` and exit
with its return value, so they share the exit-code contract below.

Exit codes follow a CI-friendly contract: 0 on success, 1 on input or
build errors (including bad flags, and a failed theorem check in analyze
or witness), 2 on a failed verification assertion.
Reports are deterministic byte for byte across runs with the same flags;
wall-clock timing is therefore only emitted under the opt-in --timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import catalog as _catalog
from .activity import (
    MODES,
    RESTRICTIONS,
    _held,
    activity_report,
    greedy_minimalize,
    is_minimal,
    minimal_counts,
)
from .core import InvalidOrientedMatroid, OrientedMatroid, _cube, load_instance_file
from .regularity import RegularityVerdict, is_binary
from .reversal import find_minimal_pair_in_class, reversal_classes, same_class
from .tutte import SETTINGS, TuttePolynomial, evaluations, tutte_polynomial

WARN_ELEMENTS = 16


def _resolve_instance(target: str) -> OrientedMatroid:
    """A catalog name, else a path to a JSON instance file."""
    try:
        return _catalog.get_instance(target)
    except KeyError:
        pass
    if os.path.exists(target):
        return load_instance_file(target)
    raise ValueError("no catalog instance or instance file named %r" % (target,))


def _equality_rows(evals, counts):
    rows = []
    for (label, _, _, point), e, c in zip(SETTINGS, evals, counts):
        rows.append(
            {
                "setting": label,
                "point": list(point),
                "tutte": e,
                "classes": c,
                "equal": e == c,
                "tutte_greater": e > c,
            }
        )
    return rows


@dataclass
class AnalysisReport:
    """Everything cmd_analyze knows about one instance.

    partitions holds the five reversal partitions, in SETTINGS order, and
    reversal_counts their class counts; only the counts are printed.
    """

    name: str
    n: int
    rank: int
    order: tuple | None
    tutte: TuttePolynomial
    evaluations: tuple
    partitions: tuple
    reversal_counts: tuple
    minimal_counts: tuple
    regularity: RegularityVerdict
    witness_pair: tuple | None
    activities: tuple | None = None
    timing_seconds: float | None = None

    @property
    def regular(self) -> bool:
        return self.regularity.regular

    def to_json_dict(self):
        out = {
            "name": self.name,
            "n": self.n,
            "rank": self.rank,
            "order": list(self.order) if self.order is not None else None,
            "tutte": self.tutte.to_json_dict(),
            "evaluations": list(self.evaluations),
            "reversal_counts": list(self.reversal_counts),
            "minimal_counts": list(self.minimal_counts),
            "regularity": self.regularity.to_json_dict(),
            "witness_pair": list(self.witness_pair) if self.witness_pair else None,
            "equality": _equality_rows(self.evaluations, self.reversal_counts),
        }
        if self.activities is not None:
            out["activities"] = list(self.activities)
        if self.timing_seconds is not None:
            out["timing_seconds"] = self.timing_seconds
        return out

    def to_table(self) -> str:
        lines = []
        lines.append("instance: %s" % self.name)
        lines.append("n: %d  rank: %d" % (self.n, self.rank))
        lines.append(
            "order: %s" % ("identity" if self.order is None else ",".join(map(str, self.order)))
        )
        lines.append("tutte: %s" % self.tutte)
        lines.append("")
        lines.append(
            "%-24s %-6s %7s %8s %8s  %s"
            % ("setting", "point", "tutte", "classes", "minimal", "equal")
        )
        for row, m in zip(
            _equality_rows(self.evaluations, self.reversal_counts), self.minimal_counts
        ):
            lines.append(
                "%-24s (%d,%d) %7d %8d %8d  %s"
                % (
                    row["setting"],
                    row["point"][0],
                    row["point"][1],
                    row["tutte"],
                    row["classes"],
                    m,
                    "yes" if row["equal"] else "no",
                )
            )
        lines.append("")
        lines.append("regular: %s" % ("yes" if self.regular else "no"))
        if self.regularity.witness is not None:
            c, d = self.regularity.witness
            lines.append(
                "odd intersection witness: circuit %s, cocircuit %s"
                % (sorted(c), sorted(d))
            )
        if self.witness_pair is not None:
            lines.append(
                "minimal pair sharing an acyclic cocircuit class: %d and %d"
                % self.witness_pair
            )
        if self.timing_seconds is not None:
            lines.append("timing_seconds: %.3f" % self.timing_seconds)
        return "\n".join(lines) + "\n"


def _analysis(M: OrientedMatroid, order=None, verbose=False) -> AnalysisReport:
    """The analysis record of M: every figure analyze prints and verify checks.

    The order-dependent steps run first, so a bad order or too large a
    verbose report fails fast.  Each setting's partition is requested once,
    through this module's reversal_classes name.
    """
    order = None if order is None else tuple(order)
    mins = minimal_counts(M, order)
    acts = tuple(activity_report(M, order)) if verbose else None
    T = tutte_polynomial(M)
    partitions = tuple(
        reversal_classes(M, mode, restriction) for _, mode, restriction, _ in SETTINGS
    )
    verdict = is_binary(M)
    return AnalysisReport(
        name=M.name,
        n=M.n,
        rank=M.rank,
        order=order,
        tutte=T,
        evaluations=evaluations(T),
        partitions=partitions,
        reversal_counts=tuple(P.class_count for P in partitions),
        minimal_counts=mins,
        regularity=verdict,
        witness_pair=(
            None if verdict.regular else find_minimal_pair_in_class(M, "cocircuit", "acyclic")
        ),
        activities=acts,
    )


def _check_minimal(check, mins, evals):
    """Check that the minimal counts mins equal the Tutte evaluations evals."""
    check(
        "minimal-reorientation counts equal the five Tutte evaluations",
        mins == evals,
        "evals %r, minimal counts %r" % (evals, mins),
    )


def _check_theorem(M, report, check):
    """Run the paper's identities on report through check(label, ok, detail).

    Minimal counts equal the five Tutte evaluations; class counts are at
    most them, and equal them if M is regular.  A non-regular M shows a
    strict gap in every setting that admits a word: with a loop (coloop)
    no word is acyclic (totally cyclic), and both counts are 0.
    """
    evals, counts = report.evaluations, report.reversal_counts
    _check_minimal(check, report.minimal_counts, evals)
    classes = "evals %r, classes %r" % (evals, counts)
    check(
        "class counts never exceed the Tutte evaluations",
        all(c <= e for c, e in zip(counts, evals)),
        classes,
    )
    if report.regular:
        check(
            "regular instance: class counts equal the Tutte evaluations", counts == evals, classes
        )
    else:
        empty = {"all": False, "acyclic": M.has_loops, "totally_cyclic": M.has_coloops}
        for (label, _, restriction, _), c, e in zip(SETTINGS, counts, evals):
            if not empty[restriction]:
                check(
                    "non-regular instance: strict gap in setting %s" % label,
                    c < e,
                    "tutte %d, classes %d" % (e, c),
                )


def _invalid(name):
    """A check callback that raises InvalidOrientedMatroid on a failed check.

    The checks are theorems for every oriented matroid, so a failure means
    the input is not one: an input error, exit 1.
    """

    def check(label, ok, detail):
        if not ok:
            raise InvalidOrientedMatroid("%s: %s (%s)" % (name, label, detail))

    return check


def analyze_instance(M: OrientedMatroid, order=None, verbose=False) -> AnalysisReport:
    """The analysis record of M, after the theorem checks verify runs.

    A failed check raises InvalidOrientedMatroid naming the instance, the
    check and its detail.
    """
    report = _analysis(M, order, verbose)
    _check_theorem(M, report, _invalid(M.name))
    return report


def _emit(text, stream=None):
    (stream or sys.stdout).write(text)


def cmd_analyze(target, order=None, out="table", verbose=False, timing=False, stream=None) -> int:
    started = time.perf_counter()
    M = _resolve_instance(target)
    if M.n > WARN_ELEMENTS:
        print(
            "warning: n=%d reorientations number 2^%d; expect a long run" % (M.n, M.n),
            file=sys.stderr,
        )
    report = analyze_instance(M, order=order, verbose=verbose)
    if timing:
        report.timing_seconds = time.perf_counter() - started
    if out == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", stream)
    else:
        _emit(report.to_table(), stream)
    return 0


# ----------------------------------------------------------------------
# verify harness


class VerificationFailure(AssertionError):
    pass


def _verify_entry(entry):
    """All assertions for one catalog entry; raises VerificationFailure.

    Builds the entry's analysis record once, then checks the tags and
    expected tables, runs analyze's theorem checks (_check_theorem), and
    checks that the greedy walk from every word ends at a minimal word of
    its circuit-cocircuit class, at every n.  This is the one per-instance
    checker: verify and survey both run every entry through it.

    Returns (M, evaluations, class counts, regular, checks passed), the
    five-tuples in the setting order of tutte.SETTINGS.
    """

    checked = 0

    def check(label, ok, detail=""):
        nonlocal checked
        if not ok:
            raise VerificationFailure(
                "%s: %s%s" % (entry.name, label, (" (%s)" % detail) if detail else "")
            )
        checked += 1

    M = entry.build()
    report = _analysis(M)

    tag_regular = "regular" in entry.tags
    check("tags carry exactly one regularity claim", tag_regular != ("non-regular" in entry.tags))
    check(
        "regularity tag matches the even-intersection scan",
        report.regular == tag_regular,
        "scan says %s" % ("regular" if report.regular else "non-regular"),
    )

    for key, what, computed in (
        ("regular", "regular table", report.regular),
        ("tutte_evaluations", "tutte_evaluations table", report.evaluations),
        ("reversal_counts", "reversal_counts table", report.reversal_counts),
        # SETTINGS order: acyclic_cocircuit is the fourth setting
        ("acyclic_cocircuit_classes", "acyclic cocircuit class count", report.reversal_counts[3]),
    ):
        exp = entry.expected.get(key)
        if exp is not None:
            check(
                "expected %s matches" % what,
                exp.value == computed,
                "expected %r got %r" % (exp.value, computed),
            )

    _check_theorem(M, report, check)

    # every word's walk ends at a minimal word of its own both/all class;
    # only on failure is the first failing word looked for, word by word
    ends = greedy_minimalize(M)
    held = _held(_cube(M))["both"]
    rep = report.partitions[0].rep_of
    walked = not any(held >> B & 1 for B in set(ends)) and list(map(rep.__getitem__, ends)) == rep
    detail = ""
    if not walked:
        A = next(
            A
            for A, B in enumerate(ends)
            if not is_minimal(M, B, "both") or not same_class(M, A, B, "both", "all")
        )
        detail = "A=%d gave B=%d" % (A, ends[A])
    check("greedy walk reaches a minimal reorientation of the same class", walked, detail)

    return M, report.evaluations, report.reversal_counts, report.regular, checked


# each verify scope and the catalog tag it keeps (None keeps every entry)
VERIFY_SCOPES = {"all": None, "regular": "regular", "nonregular": "non-regular"}


def cmd_verify(scope="all", entries=None, stream=None) -> int:
    """Run the assertion suite over the catalog (or injected entries).

    scope: a key of VERIFY_SCOPES.
    """
    stream = stream or sys.stdout
    if scope not in VERIFY_SCOPES:
        *head, last = VERIFY_SCOPES
        raise ValueError("scope must be %s, or %s, got %r" % (", ".join(head), last, scope))
    if entries is None:
        entries = _catalog.catalog_instances()
    tag = VERIFY_SCOPES[scope]
    if tag:
        entries = [e for e in entries if tag in e.tags]
    try:
        for entry in entries:
            checked = _verify_entry(entry)[-1]
            print("ok %-18s %2d assertions" % (entry.name, checked), file=stream)
    except VerificationFailure as exc:
        print("FAIL %s" % exc, file=stream)
        return 2
    print("PASS (%d instances)" % len(entries), file=stream)
    return 0


# ----------------------------------------------------------------------
# survey


def _survey_rows(family, max_n):
    """Rows of bases over circuit-cocircuit classes, one per family entry.

    The entries are catalog.FAMILIES[family](max_n).  Each row is a view
    over _verify_entry's result, so every entry passes all of verify's
    checks first (a failed one raises VerificationFailure); those checks
    make a regular row's ratio exactly 1 and a non-regular one's above 1.
    Returns the rows and the least ratio over the non-regular rows, or None.
    """
    if family not in _catalog.FAMILIES:
        raise ValueError(
            "family must be %s, got %r" % (" or ".join(sorted(_catalog.FAMILIES)), family)
        )
    rows = []
    running_min = None
    for entry in _catalog.FAMILIES[family](max_n):
        M, evals, counts, regular, _ = _verify_entry(entry)
        ratio = Fraction(evals[0], counts[0])
        if not regular:
            running_min = ratio if running_min is None else min(running_min, ratio)
        rows.append(
            {
                "name": M.name,
                "n": M.n,
                "bases": evals[0],
                "classes": counts[0],
                "ratio": str(ratio),
                "min_ratio": str(running_min) if running_min is not None else "",
                "note": "regular - excluded from minimum" if regular else "",
            }
        )
    return rows, running_min


def cmd_survey(family="catalog-nonregular", max_n=8, out="table", stream=None) -> int:
    stream = stream or sys.stdout
    try:
        rows, minimum = _survey_rows(family, max_n)
    except VerificationFailure as exc:
        print("FAIL %s" % exc, file=stream)
        return 2
    if out == "json":
        ratio = None if minimum is None else str(minimum)
        record = {"family": family, "rows": rows, "min_ratio": ratio}
        _emit(json.dumps(record, indent=2) + "\n", stream)
        return 0
    # one line per row, its fields in the order _survey_rows writes them
    if out == "csv":
        header, line = "name,n,bases,classes,ratio,min_ratio,note\n", "%s,%d,%d,%d,%s,%s,%s\n"
    else:
        header = "%-10s %3s %7s %8s %8s %10s  %s\n" % (
            "name", "n", "bases", "classes", "ratio", "min", "note"
        )
        line = "%-10s %3d %7d %8d %8s %10s  %s\n"
    _emit(header + "".join(line % tuple(r.values()) for r in rows), stream)
    if out != "csv":
        summary = "n/a" if minimum is None else minimum
        _emit("minimum ratio over non-regular instances: %s\n" % summary, stream)
    return 0


# ----------------------------------------------------------------------
# catalog listing and witness search


def cmd_catalog_list(out="table", stream=None) -> int:
    stream = stream or sys.stdout
    rows = []
    for e in _catalog.catalog_instances():
        M = e.build()
        rows.append(
            {
                "name": e.name,
                "n": M.n,
                "rank": M.rank,
                "tags": sorted(e.tags),
                "description": e.description,
            }
        )
    if out == "json":
        _emit(json.dumps(rows, indent=2) + "\n", stream)
        return 0
    _emit("%-20s %2s %4s  %-42s %s\n" % ("name", "n", "rank", "tags", "description"), stream)
    for r in rows:
        _emit(
            "%-20s %2d %4d  %-42s %s\n"
            % (r["name"], r["n"], r["rank"], ",".join(r["tags"]), r["description"]),
            stream,
        )
    return 0


def cmd_witness(target, mode="cocircuit", restriction="acyclic", out="table", stream=None) -> int:
    M = _resolve_instance(target)
    _check_minimal(_invalid(M.name), minimal_counts(M), evaluations(tutte_polynomial(M)))
    pair = find_minimal_pair_in_class(M, mode, restriction)
    record = {
        "instance": M.name,
        "mode": mode,
        "restriction": restriction,
        "pair": list(pair) if pair else None,
    }
    if out == "json":
        _emit(json.dumps(record, indent=2) + "\n", stream)
    elif pair is None:
        _emit(
            "no two minimal reorientations share a class (%s, %s)\n" % (mode, restriction),
            stream,
        )
    else:
        _emit(
            "minimal reorientations %d and %d share a class (%s, %s)\n"
            % (pair[0], pair[1], mode, restriction),
            stream,
        )
    return 0


# ----------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # bad flags are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _parse_order(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("order must be comma-separated integers")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="omrev", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="full report for one instance")
    p.add_argument("target", help="catalog name or JSON instance file")
    p.add_argument("--order", type=_parse_order, default=None, help="ground order, e.g. 2,0,1")
    p.add_argument("--out", choices=("json", "table"), default="table")
    p.add_argument("--verbose", action="store_true",
                   help="add per-reorientation activities to the JSON report; the table "
                   "omits them (n <= 12)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock seconds of build and analysis (breaks byte-identity)")
    p.set_defaults(
        func=lambda a: cmd_analyze(a.target, a.order, a.out, a.verbose, a.timing)
    )

    p = sub.add_parser("verify", help="assertion suite over the catalog")
    p.add_argument("--scope", choices=tuple(VERIFY_SCOPES), default="all")
    p.set_defaults(func=lambda a: cmd_verify(a.scope))

    p = sub.add_parser("survey", help="bases vs class-count ratios")
    p.add_argument("--family", choices=sorted(_catalog.FAMILIES), default="catalog-nonregular")
    p.add_argument("--max-n", type=int, default=8, dest="max_n",
                   help="largest k for the u2k family (3..16)")
    p.add_argument("--out", choices=("csv", "json", "table"), default="table")
    p.set_defaults(func=lambda a: cmd_survey(a.family, a.max_n, a.out))

    p = sub.add_parser("catalog", help="catalog inspection")
    csub = p.add_subparsers(dest="catalog_command", required=True, parser_class=_Parser)
    pl = csub.add_parser("list", help="list the named instances")
    pl.add_argument("--out", choices=("json", "table"), default="table")
    pl.set_defaults(func=lambda a: cmd_catalog_list(a.out))

    p = sub.add_parser("witness", help="two minimal reorientations sharing a class")
    p.add_argument("target", help="catalog name or JSON instance file")
    p.add_argument("--mode", choices=MODES, default="cocircuit")
    p.add_argument("--restriction", choices=RESTRICTIONS, default="acyclic")
    p.add_argument("--out", choices=("json", "table"), default="table")
    p.set_defaults(func=lambda a: cmd_witness(a.target, a.mode, a.restriction, a.out))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
