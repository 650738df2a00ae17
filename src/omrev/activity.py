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

At a word A, the part leader L_A(f) of an element f is the largest
order-minimum of a positive set holding f, a circuit if f is cyclic and a
cocircuit if it is acyclic; the elements sharing a leader form one part of
the active partition of A.  Flipping unions of parts generates the
activity classes, which tile the cube with one minimal reorientation in
each class.

Whole-cube questions are views over core._cube's per-element activity
bitsets, which _held, _outside and tutte_via_activities read: memoized on
M for the identity order, where validate's tiling pass leaves them, and
built per call under any other.  Each public function resolves its order
once, by _positions.  Like module reversal's forests, the views work on
Python big-int bitsets and whole lists at C speed rather than in per-word
Python loops; so do greedy_ends, which walks every word at once, and
activity_classes, which finds every word's part leaders in one sweep over
core._words_by_minimum, the by-minimum stream of stored sets that _cube
and validate's tiling pass also read, and takes its tiling verdict from
core._lowest_untiled, as validate does.

One-word queries are views over core._positive, which lists the stored
sets of one kind that are positive at a word; they never build the
bitsets.
"""

from __future__ import annotations

from array import array
from functools import reduce
from itertools import groupby
from operator import itemgetter, ne, or_, xor

from .core import (
    InvalidOrientedMatroid,
    _TABLE_BITS,
    _bit_table,
    _check_reorientation,
    _cube,
    _element_key,
    _elements_of,
    _is_int,
    _lowest_untiled,
    _min_bit,
    _positive,
    _word_planes,
    _words_by_minimum,
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
    permutation of range(n) made of ints (not bools or floats).  The
    identity permutation also gives None, so it reads the memoized hits.
    """
    if order is None:
        return None
    order, identity = list(order), list(range(n))
    if not all(map(_is_int, order)) or sorted(order) != identity:
        raise ValueError("order must be a permutation of range(%d)" % n)
    if order == identity:
        return None
    pos = [0] * n
    for k, e in enumerate(order):
        pos[e] = k
    return pos


def _held(hits):
    """The words each mode's minimality excludes, keyed by mode.

    A kind excludes the OR of hits[e] & P_e, the words holding an
    order-minimum of a positive set of that kind; 'both' excludes the
    union.  One planes build serves every mode.
    """
    planes = _word_planes(len(hits[0]))
    circuit, cocircuit = (
        reduce(or_, (h & P for (_, P), h in zip(planes, per_element)), 0) for per_element in hits
    )
    return {"circuit": circuit, "cocircuit": cocircuit, "both": circuit | cocircuit}


def _outside(hits, restriction):
    """OR of the forbidden kind's hits, alike under any order: the words it excludes."""
    if restriction == "all":
        return 0
    return reduce(or_, hits[0 if restriction == "acyclic" else 1], 0)


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
    hits = _cube(M, _positions(M.n, order))
    held = _held(hits)
    return tuple(
        (1 << M.n) - (held[mode] | _outside(hits, restriction)).bit_count()
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
    and that hold its order-minimum m, which are the words where the walk
    flips it.  A stored set is positive at a word holding m exactly when
    the word meets its support in the sign part that holds m, so its
    claim is one AND of _word_planes, per support element, of the plane
    that agrees with that part.  _bit_table turns the claims into one flip
    mask per word, so one step of the walk is a list, and pointer doubling
    composes it with itself.  Every walk stops within 2^n - 1 flips, so n
    doublings reach the endpoints and one more must change nothing.
    """
    positions = _positions(M.n, order)
    planes = _word_planes(M.n)
    by_support = {}
    for t in M.circuit_data + M.cocircuit_data:
        by_support.setdefault(t[0], []).append(t)
    if positions is None:
        supports = sorted(by_support, key=_elements_of)
    else:
        key = positions.__getitem__
        supports = sorted(by_support, key=lambda supp: sorted(map(key, _elements_of(supp))))
    claimed = 0
    hits = [0] * M.n
    for supp in supports:
        low = _min_bit(supp, positions)
        elements = _elements_of(supp)
        mine = 0
        for _, pos, neg in by_support[supp]:
            part = pos if pos & low else neg
            words = -1
            for i in elements:
                words &= planes[i][part >> i & 1]
            mine |= words
        mine &= ~claimed
        if mine:
            claimed |= mine
            for e in elements:
                hits[e] |= mine
    end = list(map(int.__xor__, range(1 << M.n), _bit_table(hits, M.n)))
    for _ in range(M.n + 1):
        later = list(map(end.__getitem__, end))
        if later == end:
            return end
        end = later
    raise RuntimeError("greedy walks of %s did not stop within 2^%d flips" % (M.name, M.n))


class ActivityClasses:
    """Partition of all 2^n reorientations into activity classes.

    A class is generated from any member by flipping arbitrary unions of
    the parts of that member's active partition; classes are listed by
    ascending representative (the minimum member).
    """

    def __init__(self, n, classes, class_of):
        self.n = n
        self.classes = tuple(map(tuple, classes))
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
    count equals the basis count t(1,1).

    Every word is classified at once.  For each kind,
    core._words_by_minimum yields the stored sets grouped by order-minimum,
    from the largest minimum down; covered[f] holds the words where f
    already lies in a positive set of a larger minimum, so the words a
    group adds to it are those where f's part leader L_A(f) (see the module
    docstring) is that group's minimum.  Two tables come out: U[A],
    the elements whose leader lies in A, so key[A] = A ^ U[A] flips away
    every part whose leader A holds and is the class's circuit-cocircuit
    minimal word; and sig[A], each L_A(f) bit-sliced into ceil(log2 n)
    bits, which must fit in one 64-bit table entry.  The words are grouped
    by key and the classes listed by ascending representative (minimum
    member).

    Three checks cover every word; a failure raises InvalidOrientedMatroid
    (none can occur for a valid oriented matroid):

    1. the supports of the positive circuits and of the positive
       cocircuits cover the ground set disjointly, so the parts tile it,
       reported at the lowest word where they overlap or miss an element
       (core._lowest_untiled, validate's tiling verdict);
    2. sig[A] == sig[key[A]]: every word has its key's active partition,
       reported at the lowest word that does not;
    3. the words of key K number 2^p, p the parts at K, counted by the
       leaders of _cube's hits, reported at the least word of the first
       class that does not.

    By 1 the parts at K are disjoint, nonempty (each holds its leader) and
    number p, since each order-minimum of a positive set at K leads the part
    that holds it; so flipping their unions from K gives exactly 2^p words,
    span(K).  By 2 each word A of key K has K's parts, and A = K ^ U[A] with
    U[A] a union of them, so the group of K lies in span(K); by 3 it is all
    of span(K).  Hence each group is the set generated from any of its
    members by flipping that member's parts: a per-class loop that flips the
    parts at each representative returns these classes, and raises only on
    inputs that fail a check here.
    """
    n = M.n
    bits = max(n - 1, 0).bit_length()
    if n * bits > _TABLE_BITS:
        raise ValueError(
            "activity_classes packs the n part leaders of a word into n * ceil(log2 n) "
            "bits; n=%d needs %d > %d" % (n, n * bits, _TABLE_BITS)
        )
    positions = _positions(n, order)
    planes = _word_planes(n)
    flipped = [0] * n  # bit A set iff L_A(f) lies in A
    code = [0] * (n * bits)  # bit A of code[f * bits + j] is bit j of L_A(f)
    cover = []
    for data in (M.circuit_data, M.cocircuit_data):
        covered = [0] * n
        for a, group in _words_by_minimum(data, n, positions):
            reach = [0] * n
            for supp, words in group:
                for f in _elements_of(supp):
                    reach[f] |= words
            for f, words in enumerate(reach):
                led = words & ~covered[f]
                if led:
                    covered[f] |= led
                    flipped[f] |= led & planes[a][1]
                    for j in _elements_of(a):  # the set bits of the leader's index
                        code[f * bits + j] |= led
        cover.append(covered)

    A, overlap = _lowest_untiled(*cover, n)
    if A is not None:
        raise InvalidOrientedMatroid(
            "active partition %s at reorientation %d of %s"
            % ("parts overlap" if overlap >> A & 1 else "misses elements", A, M.name)
        )

    size = 1 << n
    key = array("Q", map(xor, range(size), _bit_table(flipped, n)))
    sig = _bit_table(code, n)
    at_key = array("Q", map(sig.__getitem__, key))
    by_key = sorted(range(size), key=key.__getitem__)
    classes = sorted(map(tuple, map(itemgetter(1), groupby(by_key, key.__getitem__))))
    leaders = _bit_table(list(map(or_, *_cube(M, positions))), n)
    parts = map(leaders.__getitem__, map(key.__getitem__, map(itemgetter(0), classes)))
    sizes = list(map(len, classes))
    spans = list(map((1).__lshift__, map(int.bit_count, parts)))
    if at_key != sig:
        A = list(map(ne, at_key, sig)).index(True)
    elif sizes != spans:
        A = classes[list(map(ne, sizes, spans)).index(True)][0]
    else:
        rep = dict(zip(key[::-1], range(size - 1, -1, -1)))  # the least word of each key
        return ActivityClasses(n, classes, list(map(rep.__getitem__, key)))
    raise InvalidOrientedMatroid(
        "activity classes disagree around reorientation %d of %s" % (A, M.name)
    )


def tutte_via_activities(M, order=None) -> TuttePolynomial:
    """Tutte polynomial from the orientation-activity generating sum.

    Counts the reorientations by (o, o*), bit-sliced over _cube's hits,
    and divides each count by 2^(o + o*); a non-integral division or an
    out-of-range activity (reported at the lowest such word) means the
    input is not a valid oriented matroid and raises InvalidOrientedMatroid.
    """
    r, nul = M.rank, M.n - M.rank
    act, dact = _cube(M, _positions(M.n, order))
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
    tables = (_bit_table(hits, M.n) for hits in _cube(M, _positions(M.n, order)))
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
