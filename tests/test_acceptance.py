"""Acceptance gate: the headline guarantees, one test per criterion.

Each test prints a single pass/fail line straight to the terminal (outside
pytest capture) before asserting, so a full run always shows the eleven
verdicts at a glance.
"""

import random
import time

import pytest

from omrev import (
    activity_classes,
    build_uniform,
    catalog_instances,
    dual,
    evaluations,
    find_minimal_pair_in_class,
    greedy_minimalize,
    is_minimal,
    minimal_counts,
    part_decomposition,
    positive_sets,
    reversal_counts,
    same_class,
    tutte_polynomial,
    tutte_via_activities,
)
from omrev.cli import _survey_rows
from omrev.reversal import SETTINGS, reversal_classes

SEED = 20260817

REGULAR = ("tri", "c4", "c5", "k4", "path2", "loop1", "loop-plus-triangle")
NON_REGULAR = ("u24", "u25", "u26", "u35", "u36")


@pytest.fixture
def announce(capsys):
    def _announce(number, label, ok, detail=""):
        tail = (" [%s]" % detail) if detail else ""
        with capsys.disabled():
            print(
                "criterion %2d %-34s %s%s"
                % (number, label, "PASS" if ok else "FAIL", tail)
            )
        assert ok, "criterion %d (%s)%s" % (number, label, tail)

    return _announce


def _instances():
    return [(e.name, e.build()) for e in catalog_instances()]


def _orders(n, count, rng):
    out = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        out.append(tuple(order))
    return out


def test_criterion_1_minimal_counts_match_tutte(announce):
    rng = random.Random(SEED)
    started = time.perf_counter()
    ok = True
    detail = ""
    for name, M in _instances():
        evals = evaluations(tutte_polynomial(M))
        for order in [None] + _orders(M.n, 5, rng):
            if minimal_counts(M, order) != evals:
                ok = False
                detail = "%s order %r" % (name, order)
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    if ok and elapsed >= 10.0:
        ok, detail = False, "took %.2fs" % elapsed
    announce(1, "minimal counts = five Tutte evals", ok, detail or "%.2fs" % elapsed)


def test_criterion_2_line_acyclic_classes(announce):
    started = time.perf_counter()
    want = {4: 1, 5: 2, 6: 1, 7: 2}
    got = {
        k: reversal_classes(build_uniform(2, k), "cocircuit", "acyclic").class_count
        for k in want
    }
    elapsed = time.perf_counter() - started
    ok = got == want and elapsed < 5.0
    announce(2, "U(2,k) acyclic classes 1/2 by parity", ok, "got %r in %.2fs" % (got, elapsed))


def test_criterion_3_regular_equality(announce):
    ok = True
    detail = ""
    seen = []
    for name, M in _instances():
        if name not in REGULAR:
            continue
        seen.append(name)
        evals = evaluations(tutte_polynomial(M))
        counts = reversal_counts(M)
        if counts != evals:
            ok, detail = False, "%s: %r vs %r" % (name, counts, evals)
            break
        if name == "tri" and counts != (3, 4, 7, 2, 1):
            ok, detail = False, "tri gave %r" % (counts,)
            break
    if ok and sorted(seen) != sorted(REGULAR):
        ok, detail = False, "catalog lost a regular entry"
    announce(3, "regular: class counts = evals", ok, detail)


def test_criterion_4_nonregular_strictly_below(announce):
    ok = True
    detail = ""
    for name, M in _instances():
        if name not in NON_REGULAR:
            continue
        evals = evaluations(tutte_polynomial(M))
        counts = reversal_counts(M)
        baseline = next(
            e for e in catalog_instances() if e.name == name
        ).expected["reversal_counts"].value
        if counts != baseline:
            ok, detail = False, "%s drifted from frozen %r to %r" % (name, baseline, counts)
            break
        if not all(c < e for c, e in zip(counts, evals)):
            ok, detail = False, "%s: %r not strictly below %r" % (name, counts, evals)
            break
    announce(4, "non-regular: strictly below evals", ok, detail)


def test_criterion_5_greedy_reaches_minimal(announce):
    ok = True
    detail = ""
    for name, M in _instances():
        if M.n > 12:
            continue
        for A in range(1 << M.n):
            B = greedy_minimalize(M, A)  # stops within 2^n - 1 flips on any input
            if not is_minimal(M, B, "both") or not same_class(M, A, B, "both", "all"):
                ok, detail = False, "%s A=%d -> B=%d" % (name, A, B)
                break
        if not ok:
            break
    announce(5, "greedy walk: minimal, same class", ok, detail)


def test_criterion_6_counts_never_exceed_evals(announce):
    ok = True
    detail = ""
    for name, M in _instances():
        evals = evaluations(tutte_polynomial(M))
        counts = reversal_counts(M)
        if not all(c <= e for c, e in zip(counts, evals)):
            ok, detail = False, "%s: %r exceeds %r" % (name, counts, evals)
            break
    announce(6, "class counts <= Tutte evals", ok, detail)


def test_criterion_7_activity_expansion_matches(announce):
    rng = random.Random(SEED + 7)
    ok = True
    detail = ""
    for name, M in _instances():
        T = tutte_polynomial(M)
        for order in [None] + _orders(M.n, 3, rng):
            if tutte_via_activities(M, order) != T:
                ok, detail = False, "%s order %r" % (name, order)
                break
        if not ok:
            break
    announce(7, "activity sum = Tutte polynomial", ok, detail)


def test_criterion_8_activity_classes_tile(announce):
    ok = True
    detail = ""
    for name, M in _instances():
        AC = activity_classes(M)
        bases = tutte_polynomial(M).evaluate(1, 1)
        if AC.class_count != bases:
            ok, detail = False, "%s: %d classes vs t(1,1)=%d" % (name, AC.class_count, bases)
            break
        if sum(AC.sizes()) != 1 << M.n:
            ok, detail = False, "%s: classes do not tile the cube" % name
            break
        for members in AC.classes:
            size = len(members)
            minimal = sum(1 for m in members if is_minimal(M, m, "both"))
            if size & (size - 1) or minimal != 1:
                ok, detail = False, "%s class at %d" % (name, members[0])
                break
        if not ok:
            break
    announce(8, "activity classes: tile, 1 minimal", ok, detail)


def test_criterion_9_minimal_pair_witnesses(announce):
    ok = True
    detail = ""
    for name, M in _instances():
        if name in REGULAR:
            for _, mode, restriction, _ in SETTINGS:
                if find_minimal_pair_in_class(M, mode, restriction) is not None:
                    ok, detail = False, "%s yields a pair in %s/%s" % (name, mode, restriction)
                    break
        else:
            if M.has_loops:
                continue
            if find_minimal_pair_in_class(M, "cocircuit", "acyclic") is None:
                ok, detail = False, "%s yields no pair" % name
        if not ok:
            break
    announce(9, "pair witnesses iff non-regular", ok, detail)


def test_criterion_10_structural_invariants(announce):
    ok = True
    detail = ""
    for name, M in _instances():
        if M.n <= 12:
            for A in range(1 << M.n):
                acyclic, cyclic = part_decomposition(M, A)  # raises on a bad split
                if acyclic | cyclic != frozenset(range(M.n)):
                    ok, detail = False, "%s A=%d" % (name, A)
                    break
                for kind in ("circuit", "cocircuit"):
                    for X in positive_sets(M, A, kind):
                        if part_decomposition(M, A ^ X.support_mask) != (acyclic, cyclic):
                            ok, detail = False, "%s A=%d flip %r" % (name, A, X)
                            break
                    if not ok:
                        break
                if not ok:
                    break
        if not ok:
            break
        c, m = reversal_counts(M), minimal_counts(M)
        cd, md = reversal_counts(dual(M)), minimal_counts(dual(M))
        if cd != (c[0], c[2], c[1], c[4], c[3]) or md != (m[0], m[2], m[1], m[4], m[3]):
            ok, detail = False, "%s duality swap" % name
            break
    announce(10, "partition + duality invariants", ok, detail)


def test_criterion_11_survey_ratios(announce):
    ok = True
    detail = ""
    try:
        rows, minimum = _survey_rows("catalog-nonregular", 8)
    except AssertionError as exc:
        ok, detail = False, str(exc)
    else:
        if minimum is None or minimum <= 1:
            ok, detail = False, "minimum ratio %r" % minimum
        else:
            detail = "min ratio %s over %d instances" % (minimum, len(rows))
    announce(11, "survey: ratio > 1 when non-regular", ok, detail)
