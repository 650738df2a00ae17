"""Orientation activities and the activity decomposition of the 2^n cube.

Fix a linear order on the ground set (the identity order by default, or any
permutation).  In a reorientation -_A M, an element is active when it is
the minimum of the support of some positive circuit, and dual-active when
it is the minimum of some positive cocircuit support.  Writing o(A) and
o*(A) for the two counts, the orientation-activity generating sum

    t(M; x, y) = sum over A of (x/2)^(o*(A)) * (y/2)^(o(A))

recovers the Tutte polynomial exactly, and the counts of minimal
reorientations (those containing no such minimum of the permitted kind)
match t at (1,1), (1,2), (2,1), (1,0), (0,1) for every oriented matroid
and every order.

The active partition splits the ground set by threshold unions of positive
supports; flipping whole parts generates the activity classes, which tile
the cube with one minimal reorientation in each class.

Whole-cube questions, here and in module reversal, are views over one
memoized pass, _cube_minima.  A stored set X is positive exactly at the
words a = B | X- and b = B | X+ over the subsets B of the complement of
its support, and reversing X swaps them.  For each such generator pair
the pass ORs the bit of min supp(X) into the entries of a and b in its
kind's table and unites a and b in its kind's union-find forest.  Both
are built one element at a time: a set whose largest element is k never
reads or flips bit k+1 or above, so the table and forest over bits
0..k-1 are doubled onto the words with bit k set, and only then are the
sets with top element k applied, over B within bits 0..k.  That visits
sum over X of 2^(max X + 1 - |X|) pairs.  Entry bits are the
(dual-)active elements, a zero entry means no positive set of that kind,
and A & entry == 0 means A is minimal for that kind.  Forest pointers
go to smaller words, so each root is its class minimum; the forests are
the circuit/all and cocircuit/all reversal partitions.  One-word queries
are views over core._positive, which lists the stored sets of one kind
that are positive at a word; they never build the arrays.
"""

from __future__ import annotations

from array import array

from .core import (
    InvalidOrientedMatroid,
    _by_top,
    _check_reorientation,
    _elements_of,
    _positive,
)
from .tutte import TuttePolynomial

MODES = ("circuit", "cocircuit", "both")


def _positions(n, order):
    """position[e] of each element in the given ground order; None = identity.

    order lists the elements from smallest to largest and must be a
    permutation of range(n).
    """
    if order is None:
        return None
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(%d)" % n)
    pos = [0] * n
    for k, e in enumerate(order):
        pos[e] = k
    return pos


def _element_key(positions):
    """Sort key of an element under the order: its position in it."""
    return (lambda e: e) if positions is None else positions.__getitem__


def _min_bit(supp_mask, positions):
    """Bit of the minimum element of a support under the order."""
    if positions is None:
        return supp_mask & -supp_mask
    return 1 << min(_elements_of(supp_mask), key=positions.__getitem__)


def _union_find(parent):
    """union(a, b) with path halving, on a forest whose pointers go to smaller words."""

    def union(a, b):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b

    return union


def _classes(parent):
    """(rep_of, class count) of a finished forest, reusing its list.

    Parents are smaller words, so an ascending pass has already resolved
    each parent's representative when it reaches the child.
    """
    count = 0
    for A, p in enumerate(parent):
        if p == A:
            count += 1
        else:
            parent[A] = parent[p]
    return parent, count


def _cube_minima(M, order=None):
    """(circuit minima, cocircuit minima): one array entry per word A.

    An entry is the OR of the order-minimum bits of the stored sets of that
    kind that are positive at A.  The same pass builds both kinds'
    forests.  Only the minimum bit depends on the order, so the memo keeps
    the first pass's forests for _cube_forests and later passes drop
    theirs.  Memoized on M; equal orders share one entry whatever their
    sequence type.
    """
    positions = _positions(M.n, order)
    key = ("cube", positions if positions is None else tuple(positions))
    hit = M._cache.get(key)
    if hit is not None:
        return hit
    tables = []
    forests = []
    for data in (M.circuit_data, M.cocircuit_data):
        table = array("L", [0])
        parent = [0]
        union = _union_find(parent)
        for k, group in enumerate(_by_top(data, M.n)):
            table *= 2
            parent += [p | 1 << k for p in parent]
            low = (2 << k) - 1
            for supp, pos, neg in group:
                mb = _min_bit(supp, positions)
                comp = low & ~supp
                B = comp
                while True:
                    a = B | neg
                    b = B | pos
                    table[a] |= mb
                    table[b] |= mb
                    union(a, b)
                    if B == 0:
                        break
                    B = (B - 1) & comp
        tables.append(table)
        forests.append(_classes(parent))
    M._cache.setdefault("forests", tuple(forests))
    hit = M._cache[key] = tuple(tables)
    return hit


def _cube_forests(M):
    """((rep_of, class count) of circuit/all, the same of cocircuit/all)."""
    if "forests" not in M._cache:
        _cube_minima(M)
    return M._cache["forests"]


class ActivityData:
    """Active and dual-active element sets of one reorientation."""

    __slots__ = ("active_elements", "dual_active_elements")

    def __init__(self, active_elements, dual_active_elements):
        self.active_elements = frozenset(active_elements)
        self.dual_active_elements = frozenset(dual_active_elements)

    @property
    def o(self) -> int:
        return len(self.active_elements)

    @property
    def o_star(self) -> int:
        return len(self.dual_active_elements)

    def __eq__(self, other):
        if not isinstance(other, ActivityData):
            return NotImplemented
        return (
            self.active_elements == other.active_elements
            and self.dual_active_elements == other.dual_active_elements
        )

    def __repr__(self):
        return "ActivityData(active=%r, dual_active=%r)" % (
            sorted(self.active_elements),
            sorted(self.dual_active_elements),
        )


def activities(M, A: int, order=None) -> ActivityData:
    """Active and dual-active elements of -_A M under the given order."""
    _check_reorientation(M, A)
    positions = _positions(M.n, order)
    minima = []
    for data in (M.circuit_data, M.cocircuit_data):
        mask = 0
        for supp, _, _ in _positive(data, A):
            mask |= _min_bit(supp, positions)
        minima.append(_elements_of(mask))
    return ActivityData(*minima)


def is_minimal(M, A: int, mode: str = "both", order=None) -> bool:
    """True iff A contains no minimum of a positive set of the permitted kind.

    mode 'circuit' looks at positive circuits only, 'cocircuit' at positive
    cocircuits only, 'both' at both lists.
    """
    _check_reorientation(M, A)
    if mode not in MODES:
        raise ValueError("mode must be one of %r, got %r" % (MODES, mode))
    positions = _positions(M.n, order)
    kinds = []
    if mode in ("circuit", "both"):
        kinds.append(M.circuit_data)
    if mode in ("cocircuit", "both"):
        kinds.append(M.cocircuit_data)
    for data in kinds:
        for supp, _, _ in _positive(data, A):
            if A & _min_bit(supp, positions):
                return False
    return True


def minimal_counts(M, order=None):
    """Exhaustive counts over all 2^n reorientations, as the tuple

        (circuit-cocircuit minimal, cocircuit minimal, circuit minimal,
         acyclic cocircuit minimal, totally cyclic circuit minimal).

    These equal the Tutte evaluations t(1,1), t(1,2), t(2,1), t(1,0),
    t(0,1) for every oriented matroid and every ground order.
    """
    c_both = c_co = c_ci = c_ac = c_tc = 0
    for A, act, dact in zip(range(1 << M.n), *_cube_minima(M, order)):
        circ_min = not A & act
        coc_min = not A & dact
        c_both += circ_min and coc_min
        c_co += coc_min
        c_ci += circ_min
        c_ac += coc_min and not act
        c_tc += circ_min and not dact
    return (c_both, c_co, c_ci, c_ac, c_tc)


def greedy_minimalize(M, A: int, order=None) -> int:
    """Walk A down to a circuit-cocircuit minimal reorientation of its class.

    While some positive circuit or cocircuit has its support minimum inside
    the current set, reverse one such support: the one with the smallest
    minimum, ties broken by lexicographically smallest support (both under
    the order).  Each step is a legal reversal, so the result stays in the
    circuit-cocircuit reversal class of A.

    A flip takes the reversed support's minimum out of the current set and
    toggles only larger elements, so the set falls strictly in the
    lexicographic ranking of words read from the order's smallest element
    first.  The walk therefore stops within 2**n - 1 flips on any input,
    valid oriented matroid or not.
    """
    _check_reorientation(M, A)
    positions = _positions(M.n, order)
    key = _element_key(positions)
    data = M.circuit_data + M.cocircuit_data
    B = A
    while True:
        candidates = [supp for supp, _, _ in _positive(data, B) if B & _min_bit(supp, positions)]
        if not candidates:
            return B
        # ascending position lists: comparing these lexicographically is
        # "smallest minimum first, ties by lex-smallest support"
        B ^= min(candidates, key=lambda supp: sorted(map(key, _elements_of(supp))))


class ActivePart:
    """One part of an active partition: a leader and its element block."""

    __slots__ = ("leader", "elements_mask", "side")

    def __init__(self, leader, elements_mask, side):
        self.leader = leader
        self.elements_mask = elements_mask
        self.side = side  # "circuit" or "cocircuit"

    @property
    def elements(self) -> frozenset:
        return frozenset(_elements_of(self.elements_mask))

    def __repr__(self):
        return "ActivePart(leader=%d, elements=%r, side=%r)" % (
            self.leader,
            _elements_of(self.elements_mask),
            self.side,
        )


class ActivePartition:
    """Active partition of the ground set at one reorientation."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def side(self, which):
        return tuple(p for p in self.parts if p.side == which)

    @property
    def part_masks(self):
        return tuple(p.elements_mask for p in self.parts)

    def __repr__(self):
        return "ActivePartition(%r)" % (list(self.parts),)


def _side_parts(entries, key, side):
    """Threshold-union parts for one side.

    entries: (support mask, min element) of each positive set of that kind;
    key: the order's element key.
    F(a) = union of supports whose minimum is >= a in the order; the part
    of leader a_i is F(a_i) minus F(a_(i+1)) over the sorted leaders, so
    one walk down the leaders builds every part.
    """
    parts = []
    acc = 0
    for a in sorted({m for _, m in entries}, key=key, reverse=True):
        upper = acc
        for supp, m in entries:
            if m == a:
                acc |= supp
        parts.append(ActivePart(a, acc & ~upper, side))
    return parts[::-1]


def active_partition(M, A: int, order=None) -> ActivePartition:
    """Partition of the ground set induced by the activities of -_A M.

    Circuit-side parts tile the cyclic part, cocircuit-side parts the
    acyclic part; each leader is the minimum of its part under the order.
    Violations raise InvalidOrientedMatroid (they cannot occur for a valid
    oriented matroid).
    """
    _check_reorientation(M, A)
    positions = _positions(M.n, order)
    key = _element_key(positions)
    sides = []
    for data, side in ((M.circuit_data, "circuit"), (M.cocircuit_data, "cocircuit")):
        entries = [
            (supp, _min_bit(supp, positions).bit_length() - 1)
            for supp, _, _ in _positive(data, A)
        ]
        sides.append(_side_parts(entries, key, side))
    parts = sides[0] + sides[1]

    covered = 0
    for p in parts:
        if covered & p.elements_mask:
            raise InvalidOrientedMatroid(
                "active partition parts overlap at reorientation %d of %s" % (A, M.name)
            )
        covered |= p.elements_mask
        if not (p.elements_mask >> p.leader) & 1:
            raise InvalidOrientedMatroid(
                "leader %d dropped out of its part at reorientation %d" % (p.leader, A)
            )
        if _min_bit(p.elements_mask, positions) != 1 << p.leader:
            raise InvalidOrientedMatroid(
                "leader %d is not the minimum of its part at reorientation %d"
                % (p.leader, A)
            )
    if covered != M.ground_mask:
        raise InvalidOrientedMatroid(
            "active partition misses elements at reorientation %d of %s" % (A, M.name)
        )
    return ActivePartition(sorted(parts, key=lambda p: key(p.leader)))


class ActivityClasses:
    """Partition of all 2^n reorientations into activity classes.

    A class is generated from any member by flipping arbitrary unions of
    its active-partition parts; classes are listed by ascending
    representative (the minimum member).
    """

    def __init__(self, n, classes, class_of):
        self.n = n
        self.classes = tuple(tuple(c) for c in classes)
        self._class_of = class_of

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_of(self, A: int) -> int:
        """Representative of the class containing A."""
        return self._class_of[A]

    def sizes(self):
        return tuple(len(c) for c in self.classes)


def activity_classes(M, order=None) -> ActivityClasses:
    """Tile the reorientation cube by flipping active-partition parts.

    Every class size is a power of two (2^(number of parts)) and each class
    contains exactly one circuit-cocircuit minimal reorientation; the class
    count equals the basis count t(1,1).  Two members generating different
    classes would mean the input is not a valid oriented matroid; that
    inconsistency raises InvalidOrientedMatroid.
    """
    if M.n > 16:
        raise ValueError("activity_classes enumerates 2^n classes; n=%d > 16" % M.n)
    size = 1 << M.n
    class_of = [-1] * size
    classes = []
    for A in range(size):
        if class_of[A] >= 0:
            continue
        parts = active_partition(M, A, order).part_masks
        members = [A]
        for pm in parts:
            members += [m ^ pm for m in members]
        members.sort()
        if members[0] != A or any(class_of[m] >= 0 for m in members):
            raise InvalidOrientedMatroid(
                "activity classes disagree around reorientation %d of %s" % (A, M.name)
            )
        for m in members:
            class_of[m] = A
        classes.append(tuple(members))
    return ActivityClasses(M.n, classes, class_of)


def tutte_via_activities(M, order=None) -> TuttePolynomial:
    """Tutte polynomial from the orientation-activity generating sum.

    Groups reorientations by (o, o*) and divides each count by 2^(o + o*);
    a non-integral division or an out-of-range activity means the input is
    not a valid oriented matroid and raises InvalidOrientedMatroid.
    """
    r, nul = M.rank, M.n - M.rank
    counts = [[0] * (nul + 1) for _ in range(r + 1)]
    for A, act, dact in zip(range(1 << M.n), *_cube_minima(M, order)):
        o = act.bit_count()
        o_star = dact.bit_count()
        if o_star > r or o > nul:
            raise InvalidOrientedMatroid(
                "activities (%d, %d) at reorientation %d exceed rank/nullity of %s"
                % (o, o_star, A, M.name)
            )
        counts[o_star][o] += 1
    coeffs = [[0] * (nul + 1) for _ in range(r + 1)]
    for i in range(r + 1):
        for j in range(nul + 1):
            c = counts[i][j]
            denom = 1 << (i + j)
            if c % denom:
                raise InvalidOrientedMatroid(
                    "activity count %d at (o*=%d, o=%d) of %s is not divisible by 2^%d"
                    % (c, i, j, M.name, i + j)
                )
            coeffs[i][j] = c // denom
    return TuttePolynomial(r, coeffs)


def activity_report(M, order=None):
    """Per-reorientation activity records for small instances (n <= 12).

    Each record: {"A": word, "o": ..., "o_star": ..., "minimal":
    {"circuit": ..., "cocircuit": ..., "both": ...}}.
    """
    if M.n > 12:
        raise ValueError("activity_report is limited to n <= 12, got n=%d" % M.n)
    records = []
    for A, act, dact in zip(range(1 << M.n), *_cube_minima(M, order)):
        circ_hit = A & act
        coc_hit = A & dact
        records.append(
            {
                "A": A,
                "o": act.bit_count(),
                "o_star": dact.bit_count(),
                "minimal": {
                    "circuit": not circ_hit,
                    "cocircuit": not coc_hit,
                    "both": not (circ_hit or coc_hit),
                },
            }
        )
    return records
