"""In-memory spans around the public calls the benchmark makes into omrev.

A traced run replaces selected module attributes with timing wrappers, so
every call that `cli.analyze_instance`, `cli._verify_entry` or the
benchmark itself makes through those names records a span: its name,
start, end, parent span and operation id.  Nothing inside omrev changes.
Spans stay in memory; `Tracer.take_pass` folds them into per-layer sums
and clears them at the end of each pass.

Counters are exact work figures taken from the built instance and the
returned partitions:

    core.words                       sum of 2^n
    core.sets                        sum of |C| + |C*|
    activity.set_checks_bound        sum of 2^n * (|C| + |C*|)
    reversal.<setting>.pairs         sum of 2^(n - |X|) over the generators swept
    reversal.<setting>.classes       class count of each sweep
    reversal.<restricted>.admitted   admitted words of the two restricted sweeps
"""

from __future__ import annotations

import time
from collections import defaultdict

from omrev import activity, cli, core, regularity, reversal, tutte

SETTING_OF = {(mode, restriction): label for label, mode, restriction, _ in reversal.SETTINGS}
SETTING_LABELS = tuple(label for label, _, _, _ in reversal.SETTINGS)
RESTRICTED = ("acyclic_cocircuit", "totally_cyclic_circuit")

# every span time the traced run reports, as "<module>.<function>" + "_s"
SPAN_NAMES = (
    "core.build",
    "core.validate",
    "tutte.tutte_polynomial",
    "activity.minimal_counts",
    *("reversal." + label for label in SETTING_LABELS),
    "regularity.is_binary",
    "reversal.find_minimal_pair_in_class",
    "activity.greedy_minimalize",
    "activity.is_minimal",
    "reversal.same_class",
    "activity.tutte_via_activities",
    "activity.activity_classes",
)

COUNTER_NAMES = (
    "core.words",
    "core.sets",
    "activity.set_checks_bound",
    *("reversal.%s.pairs" % label for label in SETTING_LABELS),
    *("reversal.%s.classes" % label for label in SETTING_LABELS),
    *("reversal.%s.admitted" % label for label in RESTRICTED),
)


def _sweep_name(M, mode="both", restriction="all"):
    return "reversal." + SETTING_OF.get((mode, restriction), "%s/%s" % (mode, restriction))


class _Operation:
    """Root span of one benchmark operation; `interval` is set on exit."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        t.op += 1
        self.index = len(t.spans)
        t.spans.append(None)
        t.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.stack.pop()
        t.spans[self.index] = ("op", self.start, end, -1, t.op)
        self.interval = (self.start, end)
        for record, result, args, kwargs in t.pending:
            record(result, *args, **kwargs)
        t.pending.clear()
        return False


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, operation id)
        self.stack = []
        self.pending = []  # counter updates run after their operation ends
        self.counters = defaultdict(int)
        self.op = -1
        self._saved = []

    def operation(self):
        return _Operation(self)

    def _wrap(self, fn, name, top_only=False, record=None):
        """Timing wrapper; name is a string or a function of the call's args.

        top_only: record only when called directly under the operation
        span (a memo hit inside same_class or the witness search is part
        of that caller's time, not a sweep).
        """
        spans, stack, pending, clock = self.spans, self.stack, self.pending, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not stack or (top_only and len(stack) > 1):
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, tracer.op)
            if record is not None:
                pending.append((record, result, args, kwargs))
            return result

        return traced

    def _patch(self, module, attribute, wrapper):
        self._saved.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, wrapper)

    def install(self):
        """Patch the names cli and the benchmark call through."""
        build = self._wrap(core.load_instance_file, "core.build", record=self._record_build)
        self._patch(cli, "load_instance_file", build)
        self._patch(core, "load_instance_file", build)
        self._patch(core, "validate", self._wrap(core.validate, "core.validate"))
        tp = self._wrap(tutte.tutte_polynomial, "tutte.tutte_polynomial")
        self._patch(cli, "tutte_polynomial", tp)
        self._patch(tutte, "tutte_polynomial", tp)
        self._patch(cli, "minimal_counts", self._wrap(activity.minimal_counts, "activity.minimal_counts"))
        sweep = self._wrap(
            reversal.reversal_classes, _sweep_name, top_only=True, record=self._record_sweep
        )
        self._patch(reversal, "reversal_classes", sweep)
        self._patch(cli, "reversal_classes", sweep)
        binary = self._wrap(regularity.is_binary, "regularity.is_binary")
        self._patch(cli, "is_binary", binary)
        self._patch(regularity, "is_binary", binary)
        for module, fn_name, layer in (
            (cli, "find_minimal_pair_in_class", "reversal"),
            (cli, "greedy_minimalize", "activity"),
            (cli, "is_minimal", "activity"),
            (cli, "same_class", "reversal"),
            (activity, "tutte_via_activities", "activity"),
            (activity, "activity_classes", "activity"),
        ):
            fn = getattr(module, fn_name)
            self._patch(module, fn_name, self._wrap(fn, "%s.%s" % (layer, fn_name)))

    def uninstall(self):
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _record_build(self, M, path):
        sets = len(M.circuits) + len(M.cocircuits)
        self.counters["core.words"] += 1 << M.n
        self.counters["core.sets"] += sets
        self.counters["activity.set_checks_bound"] += (1 << M.n) * sets

    def _record_sweep(self, partition, M, mode="both", restriction="all"):
        label = _sweep_name(M, mode, restriction)[len("reversal.") :]
        data = ()
        if mode in ("circuit", "both"):
            data += M.circuit_data
        if mode in ("cocircuit", "both"):
            data += M.cocircuit_data
        self.counters["reversal.%s.pairs" % label] += sum(
            1 << (M.n - supp.bit_count()) for supp, _, _ in data
        )
        self.counters["reversal.%s.classes" % label] += partition.class_count
        if label in RESTRICTED:
            rep_of = partition.rep_of
            self.counters["reversal.%s.admitted" % label] += len(rep_of) - rep_of.count(-1)

    def take_pass(self, seconds=lambda start, end: end - start):
        """Per-layer figures of the spans and counters since the last call.

        seconds(start, end) turns a span's wall interval into its duration.
        """
        times = dict.fromkeys(SPAN_NAMES, 0.0)
        op_total = self_total = 0.0
        min_coverage = 1.0
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                duration = seconds(start, end)
                if name in times:
                    times[name] += duration
                if self.spans[parent][3] == -1:
                    child_time[parent] += duration
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if parent == -1:
                elapsed = seconds(start, end)
                covered = child_time[index]
                op_total += elapsed
                self_total += elapsed - covered
                if elapsed > 0:
                    min_coverage = min(min_coverage, covered / elapsed)
        out = {name + "_s": value for name, value in times.items()}
        out["cli.op_s"] = op_total
        out["cli.self_s"] = self_total
        out["cli.min_coverage"] = min_coverage
        out["trace.spans"] = len(self.spans)
        for name in COUNTER_NAMES:
            out[name] = self.counters.get(name, 0)
        self.spans.clear()
        self.counters.clear()
        return out
