#!/usr/bin/env python3
"""Seeded closed-loop benchmark of `omrev analyze` and `omrev verify`.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each operation starts only after the
previous one has finished and been checked.  A pass runs every instance of
the workload once.  The run makes one warm-up pass whose times are
discarded, then runs passes while the next one is expected to end within
--seconds of wall time, and always at least one.  Before every pass the
set-up generates that pass's instances from the seed and the pass number,
repeating the generation for at least SETUP_BURST_SECONDS, and writes
their files once, untimed; setup_s is the median of all repetitions.

Every time is reported in reference seconds (bench/hostclock.py): wall
time with the shared host's speed drift taken out, by a short calibration
kernel that SIGALRM runs every 25 ms.  The pass wall times are printed
on the line before the result.

With --trace 0 it prints the end-to-end metrics: setup_s, solve_s (median
pass time), max_op_s (the largest per-instance median operation time) and
peak_rss_mb.  Passes last seconds, so a run holds only a handful of them
and no tail percentile has ten samples beyond it; the pass count is
printed on the line before the result.  With --trace 1 the measured
passes run under bench/spans.py and it prints the per-layer metrics, each
the median over passes of its per-pass sum.

Every operation is checked against the frozen tables in
bench/expected.json; `attempted` and `failed` count operations, and a
failure is an exception, a non-zero exit code or a failed check.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from omrev import activity, cli, core, tutte  # noqa: E402
from omrev.catalog import CatalogEntry, Expected  # noqa: E402

from hostclock import HostClock  # noqa: E402
from instances import instance_texts, load_expected, uniform_name, write_texts  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-up repeats before every pass for at least this long, so its median
# samples the machine over the whole run as the pass times do.
SETUP_BURST_SECONDS = 0.2


class Stopwatch:
    """Untraced counterpart of Tracer.operation(): sets `interval` on exit."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.interval = (self.start, time.perf_counter())
        return False


def check_analysis(report, table):
    """Problems with one `analyze --out json` report, as strings."""
    problems = []
    evals, classes = report["evaluations"], report["reversal_counts"]
    regular = report["regularity"]["regular"]
    for key, got, want in (
        ("n", report["n"], table["n"]),
        ("rank", report["rank"], table["rank"]),
        ("evaluations", evals, table["evaluations"]),
        ("reversal counts", classes, table["reversal_counts"]),
        ("regular flag", regular, table["regular"]),
        ("minimal counts", report["minimal_counts"], evals),
    ):
        if got != want:
            problems.append("%s: expected %r, got %r" % (key, want, got))
    if any(c > e for c, e in zip(classes, evals)):
        problems.append("a class count exceeds its evaluation")
    if (classes == evals) != regular:
        problems.append("class counts equal the evaluations iff regular: violated")
    # t(1,0) > 0 iff loopless, t(0,1) > 0 iff coloopless
    if not regular and evals[3] and evals[4] and not all(c < e for c, e in zip(classes, evals)):
        problems.append("non-regular instance without a strict gap in every setting")
    if (report["witness_pair"] is not None) == regular:
        problems.append("witness pair present iff non-regular: violated")
    return problems


def analyze_op(name, path, table, timing):
    """`omrev analyze <file> --out json` in process; (wall interval, problems)."""
    out = io.StringIO()
    with timing() as watch, contextlib.redirect_stdout(out):
        code = cli.main(["analyze", path, "--out", "json"])
    if code != 0:
        return watch.interval, ["exit code %d" % code]
    return watch.interval, check_analysis(json.loads(out.getvalue()), table)


def verify_entry(name, path, table, built):
    """Catalog entry whose build reads the instance file and keeps each M."""

    def build():
        M = core.load_instance_file(path)
        built.append(M)
        return M

    return CatalogEntry(
        name=name,
        description="benchmark instance",
        tags=frozenset(["regular" if table["regular"] else "non-regular"]),
        expected={
            "regular": Expected(table["regular"], "oracle"),
            "tutte_evaluations": Expected(tuple(table["evaluations"]), "oracle"),
            "reversal_counts": Expected(tuple(table["reversal_counts"]), "oracle"),
        },
        factory=build,
    )


def verify_op(name, path, table, timing):
    """cmd_verify on one instance, then the two activity cross-checks."""
    built = []
    entry = verify_entry(name, path, table, built)
    out = io.StringIO()
    with timing() as watch:
        code = cli.cmd_verify(entries=[entry], stream=out)
        M = built[-1]
        via_activities = activity.tutte_via_activities(M)
        direct = tutte.tutte_polynomial(M)
        class_count = activity.activity_classes(M).class_count
    problems = []
    lines = out.getvalue().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("PASS"):
        problems.append("verify: exit code %d, last line %r" % (code, lines[-1:]))
    if via_activities != direct:
        problems.append("activity expansion differs from the corank-nullity sum")
    if class_count != table["evaluations"][0]:
        problems.append(
            "activity classes %d, expected t(1,1) = %d" % (class_count, table["evaluations"][0])
        )
    return watch.interval, problems


@dataclass(frozen=True)
class Workload:
    kind: str  # instance source kind written by set-up: "matrix" or "signed"
    bases: tuple
    op: object


VERIFY_BASES = tuple(
    uniform_name(r, k) for k in range(8, 11) for r in range(2, k - 1)
) + ("K4", "K5", "K3,3", "W5", "W6")

# Sizes keep one pass at a few seconds so a run holds several passes.
WORKLOADS = {
    # build-bound: the subset-scan circuit search is most of each operation
    "analyze-matrix": Workload("matrix", ("U(2,11)", "U(3,11)", "W6", "W7"), analyze_op),
    # sweep-bound: signed lists make the build cheap; the dual swaps sides
    "analyze-signed-n14": Workload("signed", ("U(3,14)", "dual U(3,14)", "W7"), analyze_op),
    # many short operations: per-word calls and the 2^n tiling validation
    "verify-batch": Workload("signed", VERIFY_BASES, verify_op),
}


class Tally:
    """Attempted and failed operations; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print("FAILED %s: %s" % (name, "; ".join(problems)), file=sys.stderr)


def run_pass(workload, paths, expected, tally, timing):
    """One closed-loop pass; (pass wall interval, {instance: operation interval}).

    An operation that raised has no interval.
    """
    op_intervals = {}
    start = time.perf_counter()
    for base, path in zip(workload.bases, paths):
        try:
            op_intervals[base], problems = workload.op(base, path, expected[base], timing)
        except Exception:
            problems = [traceback.format_exc()]
        tally.record(base, problems)
    return (start, time.perf_counter()), op_intervals


def set_up(workload, directory, seed, intervals):
    """Generate the instance texts at least once and for SETUP_BURST_SECONDS.

    Appends the wall interval of each repetition to intervals, then writes
    the files once, untimed, and returns their paths.  The file-system
    calls are left out of the time: on the VM this benchmark was built on
    their cost swung 1.5x between runs apart from the host's speed, and
    no omrev code runs in them.
    """
    burst = time.perf_counter()
    while True:
        start = time.perf_counter()
        texts = instance_texts(workload.bases, workload.kind, seed)
        intervals.append((start, time.perf_counter()))
        if time.perf_counter() - burst >= SETUP_BURST_SECONDS:
            return write_texts(directory, texts)


def measure(workload, directory, seed, expected, seconds, tracer):
    """Set-up plus warm-up pass, then set-up plus measured pass while time is left.

    Each pass gets its own relabelling of the instances, drawn from the run
    seed and the pass number, so that no pass can reuse a result that the
    program kept from an earlier one.  Runs under a HostClock and reports
    every time in its reference seconds.
    Returns the per-pass records, the tally, the set-up times and the
    wall seconds of the measured passes.
    """
    tally = Tally()
    setup_intervals = []
    passes, walls = [], []
    with HostClock() as clock:
        paths = set_up(workload, directory, "%d-0" % seed, setup_intervals)
        run_pass(workload, paths, expected, tally, Stopwatch)
        timing = Stopwatch
        if tracer is not None:
            tracer.install()
            timing = tracer.operation
        try:
            while True:
                pass_seed = "%d-%d" % (seed, len(passes) + 1)
                paths = set_up(workload, directory, pass_seed, setup_intervals)
                interval, op_intervals = run_pass(workload, paths, expected, tally, timing)
                solve = clock.seconds(*interval)
                if tracer is None:
                    op_times = {base: clock.seconds(*i) for base, i in op_intervals.items()}
                    passes.append({"solve_s": solve, "op_times": op_times})
                else:
                    passes.append({**tracer.take_pass(clock.seconds), "trace.solve_s": solve})
                walls.append(interval[1] - interval[0])
                if sum(walls) * (1 + 1 / len(walls)) > seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times = [clock.seconds(*i) for i in setup_intervals]
    return passes, tally, setup_times, walls


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def max_op_s(passes):
    """Largest median over passes of one instance's operation time.

    Taking the median per instance before the maximum keeps a slow moment
    of the host, which can hit any operation, out of the figure.
    """
    times = {}
    for p in passes:
        for base, elapsed in p["op_times"].items():
            times.setdefault(base, []).append(elapsed)
    return max((statistics.median(t) for t in times.values()), default=0.0)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "cli.min_coverage" else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "omrev":
        sys.exit("bench: omrev was imported from %s, not from %s" % (cli.__file__, ROOT / "src"))

    workload = WORKLOADS[args.workload]
    expected = load_expected()
    workdir = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        tracer = Tracer() if args.trace else None
        passes, tally, setup_times, walls = measure(
            workload, workdir, args.seed, expected, args.seconds, tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    if args.trace:
        metrics = {k: {"value": median_of(passes, k), "unit": unit_of(k)} for k in passes[0]}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_s": {"value": median_of(passes, "solve_s"), "unit": "s"},
            "max_op_s": {"value": max_op_s(passes), "unit": "s"},
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    wall_key = "trace.solve_s" if args.trace else "solve_s"
    print(
        "%s seed %d: %d measured passes after 1 warm-up pass, %d operations each "
        "(pass reference seconds: %s; pass wall seconds: %s); medians over passes, "
        "no tail percentile (fewer than ten samples beyond it)"
        % (
            args.workload,
            args.seed,
            len(passes),
            len(workload.bases),
            " ".join("%.3f" % p[wall_key] for p in passes),
            " ".join("%.3f" % w for w in walls),
        )
    )
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
