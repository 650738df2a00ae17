"""Command line front end: analyze, verify, survey, catalog, witness.

There are two entry points: the ``omrev`` console script declared in
``[project.scripts]`` and ``python -m omrev``. Both call ``main()`` and exit
with its return value, so they share the exit-code contract below.

Exit codes follow a CI-friendly contract: 0 on success, 1 on input or
build errors (including bad flags), 2 on a failed verification assertion.
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
    _held,
    activity_report,
    greedy_minimalize,
    is_minimal,
    minimal_counts,
)
from .core import InvalidOrientedMatroid, OrientedMatroid, build_uniform, load_instance_file
from .regularity import RegularityVerdict, classify, is_binary
from .reversal import (
    find_minimal_pair_in_class,
    reversal_classes,
    reversal_counts,
    same_class,
)
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
    """Everything cmd_analyze knows about one instance."""

    name: str
    n: int
    rank: int
    order: tuple | None
    tutte: TuttePolynomial
    evaluations: tuple
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


def _check_minimal_counts(M, mins, evals):
    """Raise unless the minimal counts mins equal the Tutte evaluations evals.

    The equality is a theorem for every oriented matroid and order, so a
    mismatch means the input is not one and raises InvalidOrientedMatroid.
    """
    if mins != evals:
        raise InvalidOrientedMatroid(
            "minimal counts %r differ from the Tutte evaluations %r of %s"
            % (mins, evals, M.name)
        )


def analyze_instance(M: OrientedMatroid, order=None, verbose=False) -> AnalysisReport:
    """Compute the full analysis record for one oriented matroid."""
    # order-dependent steps first: a bad order or too large a verbose report fails fast
    mins = minimal_counts(M, order)
    acts = tuple(activity_report(M, order)) if verbose else None
    T = tutte_polynomial(M)
    evals = evaluations(T)
    counts = reversal_counts(M)
    _check_minimal_counts(M, mins, evals)
    verdict = is_binary(M)
    pair = None
    if not verdict.regular:
        pair = find_minimal_pair_in_class(M, "cocircuit", "acyclic")
    return AnalysisReport(
        name=M.name,
        n=M.n,
        rank=M.rank,
        order=tuple(order) if order is not None else None,
        tutte=T,
        evaluations=evals,
        reversal_counts=counts,
        minimal_counts=mins,
        regularity=verdict,
        witness_pair=pair,
        activities=acts,
    )


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


def _verify_entry(entry, stream):
    """All assertions for one catalog entry; raises VerificationFailure.

    Checks the tags and expected tables, the minimal counts against the
    Tutte evaluations, the class counts against them (equal iff regular),
    and that the greedy walk from every word ends at a minimal word of its
    circuit-cocircuit class, at every n.
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

    tag_regular = "regular" in entry.tags
    tag_nonregular = "non-regular" in entry.tags
    check("tags carry exactly one regularity claim", tag_regular != tag_nonregular)
    fresh = classify(M)
    check(
        "regularity tag matches the even-intersection scan",
        fresh == ("regular" if tag_regular else "non-regular"),
        "scan says %s" % fresh,
    )

    T = tutte_polynomial(M)
    evals = evaluations(T)
    # each setting's partition is built once; the greedy-walk check below
    # reads the both/all one
    partitions = [reversal_classes(M, mode, restriction) for _, mode, restriction, _ in SETTINGS]
    counts = tuple(P.class_count for P in partitions)
    by_label = {label: c for (label, _, _, _), c in zip(SETTINGS, counts)}
    mins = minimal_counts(M)

    for key, what, computed in (
        ("regular", "regular table", fresh == "regular"),
        ("tutte_evaluations", "tutte_evaluations table", evals),
        ("reversal_counts", "reversal_counts table", counts),
        (
            "acyclic_cocircuit_classes",
            "acyclic cocircuit class count",
            by_label["acyclic_cocircuit"],
        ),
    ):
        exp = entry.expected.get(key)
        if exp is not None:
            check(
                "expected %s matches" % what,
                exp.value == computed,
                "expected %r got %r" % (exp.value, computed),
            )

    check(
        "minimal-reorientation counts equal the five Tutte evaluations",
        mins == evals,
        "evals %r, minimal counts %r" % (evals, mins),
    )
    check(
        "class counts never exceed the Tutte evaluations",
        all(c <= e for c, e in zip(counts, evals)),
        "evals %r, classes %r" % (evals, counts),
    )

    if tag_regular:
        check(
            "regular instance: class counts equal the Tutte evaluations",
            counts == evals,
            "evals %r, classes %r" % (evals, counts),
        )
    else:
        # with a loop (coloop) no word is acyclic (totally cyclic): no gap to show
        empty = {"all": False, "acyclic": M.has_loops, "totally_cyclic": M.has_coloops}
        for (label, _, restriction, _), c, e in zip(SETTINGS, counts, evals):
            if empty[restriction]:
                continue
            check(
                "non-regular instance: strict gap in setting %s" % label,
                c < e,
                "tutte %d, classes %d" % (e, c),
            )

    # every word's walk ends at a minimal word of its own both/all class;
    # only on failure is the first failing word looked for, word by word
    ends = greedy_minimalize(M)
    held = _held(M)["both"]
    rep = partitions[0].rep_of
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

    print("ok %-18s %2d assertions" % (entry.name, checked), file=stream)


def cmd_verify(scope="all", entries=None, stream=None) -> int:
    """Run the assertion suite over the catalog (or injected entries).

    scope: all | regular | nonregular.
    """
    stream = stream or sys.stdout
    if scope not in ("all", "regular", "nonregular"):
        raise ValueError("scope must be all, regular, or nonregular, got %r" % (scope,))
    if entries is None:
        entries = _catalog.catalog_instances()
    if scope == "regular":
        entries = [e for e in entries if "regular" in e.tags]
    elif scope == "nonregular":
        entries = [e for e in entries if "non-regular" in e.tags]
    try:
        for entry in entries:
            _verify_entry(entry, stream)
    except VerificationFailure as exc:
        print("FAIL %s" % exc, file=stream)
        return 2
    print("PASS (%d instances)" % len(entries), file=stream)
    return 0


# ----------------------------------------------------------------------
# survey


def _survey_rows(family, max_n):
    if family == "u2k":
        if not 3 <= max_n <= 16:
            raise ValueError("u2k survey needs 3 <= max-n <= 16, got %r" % (max_n,))
        builds = [
            (lambda k=k: build_uniform(2, k, name="U(2,%d)" % k))
            for k in range(3, max_n + 1)
        ]
    elif family == "catalog-nonregular":
        builds = [
            e.build
            for e in _catalog.catalog_instances()
            if "non-regular" in e.tags
        ]
    else:
        raise ValueError("family must be u2k or catalog-nonregular, got %r" % (family,))

    rows = []
    running_min = None
    for build in builds:
        M = build()
        bases = tutte_polynomial(M).evaluate(1, 1)
        classes = reversal_classes(M, "both", "all").class_count
        ratio = Fraction(bases, classes)
        regular = classify(M) == "regular"
        if regular:
            note = "regular - excluded from minimum"
            if ratio != 1:
                raise VerificationFailure(
                    "%s: regular instance must have ratio exactly 1, got %s" % (M.name, ratio)
                )
        else:
            note = ""
            if ratio <= 1:
                raise VerificationFailure(
                    "%s: non-regular instance must have ratio > 1, got %s" % (M.name, ratio)
                )
            running_min = ratio if running_min is None else min(running_min, ratio)
        rows.append(
            {
                "name": M.name,
                "n": M.n,
                "bases": bases,
                "classes": classes,
                "ratio": str(ratio),
                "min_ratio": str(running_min) if running_min is not None else "",
                "note": note,
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
    _check_minimal_counts(M, minimal_counts(M), evaluations(tutte_polynomial(M)))
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
    p.add_argument("--scope", choices=("all", "regular", "nonregular"), default="all")
    p.set_defaults(func=lambda a: cmd_verify(a.scope))

    p = sub.add_parser("survey", help="bases vs class-count ratios")
    p.add_argument("--family", choices=("u2k", "catalog-nonregular"), default="catalog-nonregular")
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
    p.add_argument("--mode", choices=("circuit", "cocircuit", "both"), default="cocircuit")
    p.add_argument("--restriction", choices=("all", "acyclic", "totally_cyclic"), default="acyclic")
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
