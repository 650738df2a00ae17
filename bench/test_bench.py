"""Self-tests of the benchmark: generator, frozen tables, checks, tracing.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import signal
import time

import pytest

import hostclock
import run
from instances import GRAPHS, _parse_uniform, instance_source, write_instances
from omrev import build_from_graph, build_uniform, instance_from_dict
from omrev.cli import analyze_instance
from spans import Tracer

EXPECTED = run.load_expected()
SMALL = [b for b in run.VERIFY_BASES if EXPECTED[b]["n"] <= 9]


def _build(base, kind, seed):
    return instance_from_dict(instance_source(base, kind, seed))


@pytest.mark.parametrize("base", SMALL)
def test_generator_matches_build_functions(base):
    if base in GRAPHS:
        reference = build_from_graph(GRAPHS[base][1])
    else:
        reference = build_uniform(*_parse_uniform(base))
    assert _build(base, "signed", None) == reference
    # relabelled and reoriented: determinant signs agree with the matrix path
    assert _build(base, "signed", 7) == _build(base, "matrix", 7)


def test_dual_swaps_lists():
    primal = instance_source("U(2,6)", "signed", 3)["source"]["signed"]
    dual = instance_source("dual U(2,6)", "signed", 3)["source"]["signed"]
    assert dual["circuits"] == primal["cocircuits"]
    assert dual["cocircuits"] == primal["circuits"]


def test_seeds_change_inputs_but_not_tables():
    assert instance_source("U(3,9)", "signed", 1) != instance_source("U(3,9)", "signed", 2)
    assert instance_source("U(3,9)", "signed", 1) == instance_source("U(3,9)", "signed", 1)
    for base in SMALL:
        tables = []
        for seed in (1, 2):
            report = analyze_instance(_build(base, "signed", seed))
            tables.append(
                [list(report.evaluations), list(report.reversal_counts), report.regular]
            )
        frozen = EXPECTED[base]
        assert tables[0] == tables[1] == [
            frozen["evaluations"],
            frozen["reversal_counts"],
            frozen["regular"],
        ], base


@pytest.fixture
def small_file(tmp_path):
    return write_instances(tmp_path, ["U(2,8)", "K4"], "signed", 5)


def test_analyze_op_passes_and_corruption_is_counted(small_file):
    (start, end), problems = run.analyze_op(
        "U(2,8)", small_file[0], EXPECTED["U(2,8)"], run.Stopwatch
    )
    assert problems == [] and end > start

    good = json.loads(json.dumps(analyze_instance(_build("U(2,8)", "signed", 5)).to_json_dict()))
    assert run.check_analysis(good, EXPECTED["U(2,8)"]) == []
    corruptions = [
        ("evaluations", [28, 247, 37, 7, 20]),
        ("reversal_counts", [2, 241, 17, 1, 2]),
        ("minimal_counts", [28, 247, 37, 7, 22]),
        ("witness_pair", None),
    ]
    for key, value in corruptions:
        bad = dict(good, **{key: value})
        assert run.check_analysis(bad, EXPECTED["U(2,8)"]), key

    def corrupted_op(name, path, table, timing):
        return (0.0, 0.0), run.check_analysis(dict(good, reversal_counts=[1, 1, 1, 1, 1]), table)

    workload = run.Workload("signed", ("U(2,8)",), corrupted_op)
    tally = run.Tally()
    run.run_pass(workload, small_file[:1], EXPECTED, tally, run.Stopwatch)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_verify_op_passes_and_wrong_table_fails(small_file):
    _, problems = run.verify_op("K4", small_file[1], EXPECTED["K4"], run.Stopwatch)
    assert problems == []
    wrong = dict(EXPECTED["K4"], evaluations=[15, 38, 38, 6, 6])
    _, problems = run.verify_op("K4", small_file[1], wrong, run.Stopwatch)
    assert problems


def test_tracer_covers_operation_and_restores_names(small_file):
    from omrev import cli, reversal

    originals = (cli.load_instance_file, reversal.reversal_classes, cli.greedy_minimalize)
    tracer = Tracer()
    tracer.install()
    try:
        _, problems = run.verify_op("K4", small_file[1], EXPECTED["K4"], tracer.operation)
        figures = tracer.take_pass()
    finally:
        tracer.uninstall()
    assert problems == []
    assert (cli.load_instance_file, reversal.reversal_classes, cli.greedy_minimalize) == originals
    assert figures["core.words"] == 64 and figures["core.sets"] == 14
    assert figures["reversal.circuit_cocircuit.classes"] == 16
    assert figures["activity.greedy_minimalize_s"] > 0
    assert figures["core.validate_s"] <= figures["core.build_s"]
    assert 0 < figures["cli.min_coverage"] <= 1
    assert figures["cli.self_s"] == pytest.approx(
        figures["cli.op_s"]
        - sum(v for k, v in figures.items() if k.endswith("_s") and k.startswith(
            ("core.build", "tutte.", "activity.", "reversal.", "regularity.")
        ))
    )


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    traced = set(tracer.take_pass()) | {"trace.solve_s"}
    assert traced == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "solve_s", "max_op_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_max_op_s_is_largest_per_instance_median():
    passes = [
        {"op_times": {"a": 1.0, "b": 2.0}},
        {"op_times": {"a": 9.0, "b": 2.2}},
        {"op_times": {"a": 1.2, "b": 2.1}},
    ]
    assert run.max_op_s(passes) == 2.1


def test_hostclock_rescales_and_leaves_out_kernel_time():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_S
    # kernel runs at t = 1, 2, ..., each taking twice the reference time
    for t in range(1, 21):
        clock.starts.append(float(t))
        clock.ends.append(t + 2 * ref)
    # [1.5, 3.5] holds 2 - 4 * ref of program time at half the reference speed
    assert clock.seconds(1.5, 3.5) == pytest.approx((2 - 4 * ref) / 2)
    # additive over adjacent intervals
    assert clock.seconds(1.5, 2.5) + clock.seconds(2.5, 3.5) == pytest.approx(
        clock.seconds(1.5, 3.5)
    )


def test_hostclock_samples_while_started_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(clock.starts) >= 3
    assert 0 < clock.seconds(start, end)
