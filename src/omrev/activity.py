"""Orientation activities and the activity decomposition of the 2^n cube.

Fix a linear order on the ground set (the identity order by default, or any
permutation).  In a reorientation -_A M, an element is active when it is
the minimum of the support of some positive circuit, and dual-active when
it is the minimum of some positive cocircuit support.  Writing o(A) and
o*(A) for the two counts, the orientation-activity generating sum

    t(M; x, y) = sum over A of (x/2)^(o*(A)) * (y/2)^(o(A))

recovers the Tutte polynomial exactly, and the counts of minimal
reorientations (those containing no such minimum of the permitted kind)
match t at the points of tutte.SETTINGS for every oriented matroid and
every order.

The active partition splits the ground set by threshold unions of positive
supports; flipping whole parts generates the activity classes, which tile
the cube with one minimal reorientation in each class.

Whole-cube questions are views over builds memoized on M: here the
per-element activity bitsets of _cube, which _held, _outside and
tutte_via_activities read, in module reversal the reversal forests.  Both
work on Python big-int bitsets and whole lists at C speed rather than in
per-word Python loops; so does greedy_ends, which walks every word at
once.

One-word queries are views over core._positive, which lists the stored
sets of one kind that are positive at a word; they never build the
bitsets.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .core import (
    LOWEST_WORDS,
    InvalidOrientedMatroid,
    _bit_table,
    _check_reorientation,
    _elements_of,
    _positive,
    _positive_words,
    _word_planes,
)
from .tutte import SETTINGS, TuttePolynomial, _joint_counts

MODES = ("circuit", "cocircuit", "both")
RESTRICTIONS = ("all", "acyclic", "totally_cyclic")


def _check_setting(mode, restriction="all"):
    if mode not in MODES:
        raise ValueError("mode must be one of %r, got %r" % (MODES, mode))
    if restriction not in RESTRICTIONS:
        raise ValueError("restriction must be one of %r, got %r" % (RESTRICTIONS, restriction))
    needs = {"acyclic": "cocircuit", "totally_cyclic": "circuit"}.get(restriction, mode)
    if mode not in (needs, "both"):
        raise ValueError("restriction=%r requires mode %r or 'both'" % (restriction, needs))


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


def _cube(M, order=None):
    """(circuit hits, cocircuit hits): n bitsets per kind over the 2^n words.

    Bit A of hits[e] is set when e is the order-minimum of a positive set
    of that kind at A, that is, when e is (dual-)active at A.  A stored set
    X is positive exactly at the words B | X- and B | X+ over the subsets B
    of the complement of its support, one bitset by core._positive_words,
    which is ORed into hits[e] of its order-minimum e.  Equal orders share
    one memo entry whatever their sequence type.  The identity order's hits
    are the ones validate's tiling pass left on M, when it ran; they are
    taken off the memo once read.
    """
    positions = _positions(M.n, order)
    key = ("cube", positions if positions is None else tuple(positions))
    hits = M._cache.get(key)
    if hits is None:
        # validate's tiling pass leaves the identity order's bitsets on M
        hits = M._cache.pop(LOWEST_WORDS, None) if positions is None else None
        if hits is None:
            planes = _word_planes(M.n)
            hits = ([0] * M.n, [0] * M.n)
            for data, per_element in zip((M.circuit_data, M.cocircuit_data), hits):
                for supp, pos, neg in data:
                    e = _min_bit(supp, positions).bit_length() - 1
                    per_element[e] |= _positive_words(planes, supp, pos, neg)
        M._cache[key] = hits
    return hits


def _held(M, order=None):
    """The words each mode's minimality excludes, keyed by mode.

    A kind excludes the OR of hits[e] & P_e, the words holding an
    order-minimum of a positive set of that kind; 'both' excludes the
    union.  One planes build serves every mode.
    """
    hits = _cube(M, order)
    planes = _word_planes(M.n)  # after _cube: one set of planes alive at a time
    circuit, cocircuit = (
        reduce(or_, (h & P for (_, P), h in zip(planes, per_element)), 0) for per_element in hits
    )
    return {"circuit": circuit, "cocircuit": cocircuit, "both": circuit | cocircuit}


def _outside(M, restriction, order=None):
    """OR of the forbidden kind's hits, alike under any order: the words it excludes."""
    if restriction == "all":
        return 0
    return reduce(or_, _cube(M, order)[0 if restriction == "acyclic" else 1], 0)


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
    _check_setting(mode)
    positions = _positions(M.n, order)
    for kind, data in zip(("circuit", "cocircuit"), (M.circuit_data, M.cocircuit_data)):
        if mode in (kind, "both"):
            for supp, _, _ in _positive(data, A):
                if A & _min_bit(supp, positions):
                    return False
    return True


def minimal_counts(M, order=None):
    """Per setting of SETTINGS, the words outside _held of its mode and
    _outside of its restriction: its minimal reorientations.

    These equal the Tutte evaluations at the settings' points for every
    oriented matroid and every ground order.
    """
    held = _held(M, order)
    return tuple(
        (1 << M.n) - (held[mode] | _outside(M, restriction, order)).bit_count()
        for _, mode, restriction, _ in SETTINGS
    )


def greedy_minimalize(M, A=None, order=None):
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

    With A omitted, walk every word at once: the result is greedy_ends(M,
    order), the list of every word's endpoint.
    """
    if A is None:
        return greedy_ends(M, order)
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


def greedy_ends(M, order=None):
    """List whose entry A is greedy_minimalize(M, A, order), for every word A.

    The distinct supports of both kinds are visited in the walk's key
    order; each claims the words, not yet claimed, where it is positive
    and that hold its order-minimum, which are the words where the walk
    flips it.  _bit_table turns the claims into one flip mask per word, so
    one step of the walk is a list, and pointer doubling composes it with
    itself.  Every walk stops within 2^n - 1 flips, so n doublings reach
    the endpoints and one more must change nothing.
    """
    positions = _positions(M.n, order)
    key = _element_key(positions)
    planes = _word_planes(M.n)
    by_support = {}
    for t in M.circuit_data + M.cocircuit_data:
        by_support.setdefault(t[0], []).append(t)
    claimed = 0
    hits = [0] * M.n
    for supp in sorted(by_support, key=lambda supp: sorted(map(key, _elements_of(supp)))):
        positive = 0
        for t in by_support[supp]:
            positive |= _positive_words(planes, *t)
        mine = positive & planes[_min_bit(supp, positions).bit_length() - 1][1] & ~claimed
        if mine:
            claimed |= mine
            for e in _elements_of(supp):
                hits[e] |= mine
    end = list(map(int.__xor__, range(1 << M.n), _bit_table(hits, M.n)))
    for _ in range(M.n + 1):
        later = list(map(end.__getitem__, end))
        if later == end:
            return end
        end = later
    raise RuntimeError("greedy walks of %s did not stop within 2^%d flips" % (M.name, M.n))


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
        _check_reorientation(self, A)
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
        raise ValueError("activity_classes walks 2^n words; n=%d > 16" % M.n)
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

    Counts the reorientations by (o, o*), bit-sliced over _cube's hits,
    and divides each count by 2^(o + o*); a non-integral division or an
    out-of-range activity (reported at the lowest such word) means the
    input is not a valid oriented matroid and raises InvalidOrientedMatroid.
    """
    r, nul = M.rank, M.n - M.rank
    act, dact = _cube(M, order)
    counts, A = _joint_counts(dact, act, r, nul, M.n)
    if A is not None:
        raise InvalidOrientedMatroid(
            "activities (%d, %d) at reorientation %d exceed rank/nullity of %s"
            % (sum(h >> A & 1 for h in act), sum(h >> A & 1 for h in dact), A, M.name)
        )
    for i, row in enumerate(counts):
        for j, c in enumerate(row):
            if c % (1 << (i + j)):
                raise InvalidOrientedMatroid(
                    "activity count %d at (o*=%d, o=%d) of %s is not divisible by 2^%d"
                    % (c, i, j, M.name, i + j)
                )
    coeffs = [[c >> i + j for j, c in enumerate(row)] for i, row in enumerate(counts)]
    return TuttePolynomial(r, coeffs)


def activity_report(M, order=None):
    """Per-reorientation activity records for small instances (n <= 12).

    Each record: {"A": word, "o": ..., "o_star": ..., "minimal":
    {"circuit": ..., "cocircuit": ..., "both": ...}}.
    """
    if M.n > 12:
        raise ValueError("activity_report is limited to n <= 12, got n=%d" % M.n)
    records = []
    tables = (_bit_table(hits, M.n) for hits in _cube(M, order))
    for A, act, dact in zip(range(1 << M.n), *tables):
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
