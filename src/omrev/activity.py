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

Whole-cube questions, here and in module reversal, are views over two
builds memoized on M.  Both work on Python big-int bitsets and whole lists
at C speed rather than in per-word Python loops.

_cube_minima builds one table per kind and order.  A stored set X is
positive exactly at the words B | X- and B | X+ over the subsets B of the
complement of its support; core._positive_words gives those words as one
bitset over the 2^n words.  The bitsets of the sets whose order-minimum
is e are ORed into one bitset per element, and _bit_table turns the n
bitsets into one array entry per word.  Entry bits are the (dual-)active
elements, a zero entry means no positive set of that kind, and
A & entry == 0 means A is minimal for that kind.  The same pass keeps, per
kind, the bitsets of the words with a nonzero entry and of those with
A & entry nonzero; minimal_counts is popcounts of them.

greedy_ends gives the endpoint of the greedy walk from every word at
once: the supports, in the walk's key order, claim the words where the
walk flips them, _bit_table turns the claims into one step list, and
pointer doubling composes it.

_cube_forests builds the circuit/all and cocircuit/all reversal
partitions, once per M and for no order, as lists mapping each word to
its class minimum.  They grow one element at a time: a set whose largest
element is k never reads or flips bit k+1 or above, so the partition over
bits 0..k-1 is doubled onto the words with bit k set, and only then do
the sets with top element k join classes, by the distinct class edges of
their generator pairs.  No set reads all of its pairs.  A set is positive
at A iff it is positive at the complement of A, so complementing bits
0..k-1 maps classes to classes and each pair to a pair: half the pairs
give every edge.  A set whose half has more words than its stage has
classes, while those are at most _PEEL_CLASSES, peels classes off the
half as bitsets, one big-int step per distinct class and edge; the others
read their half word by word.  The class counts come from the merges.

When validate ran on M, its tiling pass has already ORed every stored
set's positive words into the bitset of the set's lowest element; _cube
takes those for the identity order instead of computing them again.

One-word queries are views over core._positive, which lists the stored
sets of one kind that are positive at a word; they never build the
arrays.
"""

from __future__ import annotations

import sys
from array import array

from .core import (
    LOWEST_WORDS,
    InvalidOrientedMatroid,
    _by_top,
    _check_reorientation,
    _elements_of,
    _positive,
    _positive_words,
    _word_planes,
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


# bytes per table entry, and per lane bit j the translation of binary
# digits "0"/"1" into bytes 0 and 1 << j
_TABLE_ITEM = array("L").itemsize
_LANE_BITS = [bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8)]


def _bit_table(hits, n):
    """array("L") whose entry A has bit e set iff bit A of hits[e] is set.

    Each bitset is written out as binary digits, one byte per word with word
    2^n - 1 first, and translated to 0 or its element's bit within a lane of
    eight elements; the elements of a lane are ORed as big-endian ints, and
    the lanes are interleaved into the entries' bytes.
    """
    size = 1 << n
    item = _TABLE_ITEM
    buf = bytearray(size * item)
    for lane in range(0, n, 8):
        acc = 0
        for e in range(lane, min(n, lane + 8)):
            if hits[e]:
                digits = format(hits[e], "0%db" % size).encode()
                acc |= int.from_bytes(digits.translate(_LANE_BITS[e - lane]), "big")
        byte = lane // 8 if sys.byteorder == "little" else item - 1 - lane // 8
        buf[byte::item] = acc.to_bytes(size, "little")
    table = array("L")
    table.frombytes(buf)
    return table


def _cube_minima(M, order=None):
    """(circuit minima, cocircuit minima): one array entry per word A.

    An entry is the OR of the order-minimum bits of the stored sets of that
    kind that are positive at A.  Per element e, the words where e is the
    minimum of some positive set form the OR of those sets'
    _positive_words; _bit_table turns the n bitsets into the table.
    Memoized on M by _cube; equal orders share one entry whatever their
    sequence type.
    """
    return _cube(M, order)[0]


def _cube(M, order):
    """(_cube_minima tables, (held, positive) bitsets of each kind).

    The bitsets are over the 2^n words, circuits first: "positive" holds
    the words where the kind's table entry is nonzero, i.e. with some
    positive set of that kind, and "held" those where A & entry is
    nonzero, i.e. that hold the order-minimum of one.  The identity
    order's per-element bitsets are the ones validate's tiling pass left
    on M, when it ran; they are taken off the memo once read.
    """
    positions = _positions(M.n, order)
    key = ("cube", positions if positions is None else tuple(positions))
    hit = M._cache.get(key)
    if hit is not None:
        return hit
    planes = _word_planes(M.n)
    # validate's tiling pass leaves the identity order's bitsets on M
    per_kind = M._cache.pop(LOWEST_WORDS, None) if positions is None else None
    if per_kind is None:
        per_kind = []
        for data in (M.circuit_data, M.cocircuit_data):
            hits = [0] * M.n
            for supp, pos, neg in data:
                e = _min_bit(supp, positions).bit_length() - 1
                hits[e] |= _positive_words(planes, supp, pos, neg)
            per_kind.append(hits)
    tables = []
    bits = []
    for hits in per_kind:
        tables.append(_bit_table(hits, M.n))
        held = positive = 0
        for (_, P), words in zip(planes, hits):
            held |= words & P
            positive |= words
        bits += [held, positive]
    hit = M._cache[key] = (tuple(tables), tuple(bits))
    return hit


def _joined(rep, edges):
    """(rep with the classes at the two ends of each edge merged, merges).

    rep maps each word to its class minimum and every edge end is a class
    minimum, so rep is a forest of depth one whose roots include the ends.
    Uniting two roots points the larger at the smaller and records it;
    path halving only shortens pointers of recorded words.  Resolving the
    recorded words in ascending order points each at its root, and one
    C-speed map then carries every word to its root, the class minimum.
    Each recorded word is one merge, so the class count falls by their
    number.
    """
    moved = []
    for a, b in edges:
        while rep[a] != a:
            rep[a] = a = rep[rep[a]]
        while rep[b] != b:
            rep[b] = b = rep[rep[b]]
        if a != b:
            if b < a:
                a, b = b, a
            rep[b] = a
            moved.append(b)
    for x in sorted(moved):
        rep[x] = rep[rep[x]]
    return list(map(rep.__getitem__, rep)), len(moved)


# peeling keeps one bitset over the 2^k words per class of the stage; at
# most this many classes, i.e. 32 bytes per word, about what the class list
# itself takes per word (an 8-byte slot and, past 256, a 32-byte int)
_PEEL_CLASSES = 256

# per lane bit j, the translation of a byte into the digit "1" or "0" of
# its bit j
_LANE_DIGITS = [bytes(0x31 if x >> j & 1 else 0x30 for x in range(256)) for j in range(8)]


class _ClassBits(dict):
    """Bitset over the 2^k words of each class of rep, built on first lookup.

    The bit planes of rep come from its entries' bytes, one lane byte per
    word, translated to binary digits (the reverse of _bit_table); a
    class's bitset is one AND per bit of its minimum, of the plane or its
    complement.
    """

    def __init__(self, rep, k):
        super().__init__()
        item = _TABLE_ITEM
        buf = array("L", rep).tobytes()
        self.full = full = (1 << len(rep)) - 1
        self.planes = []
        for j in range(k):
            byte = j // 8 if sys.byteorder == "little" else item - 1 - j // 8
            P = int(buf[byte::item].translate(_LANE_DIGITS[j % 8])[::-1], 2)
            self.planes.append((full ^ P, P))

    def __missing__(self, c):
        bits = self.full
        for j, plane in enumerate(self.planes):
            bits &= plane[c >> j & 1]
        self[c] = bits
        return bits


def _pair_edges(rep, t, d, free):
    """The class edges (rep[w], rep[w + d]) of the words w = B | t, B within free."""
    lower = [t]
    while free:
        bit = free & -free
        free ^= bit
        lower += [w | bit for w in lower]
    return {(rep[w], rep[w + d]) for w in lower}


def _peeled_edges(rep, S, d, classes):
    """The class edges (rep[w], rep[w + d]) of the words w in the bitset S.

    The class a of the lowest word of S is peeled off S with its bitset;
    those words shifted by d are the partners, and each partner class b is
    peeled off them in turn.  One pass per distinct class and edge.
    """
    edges = set()
    while S:
        a = rep[(S & -S).bit_length() - 1]
        mine = S & classes[a]
        S ^= mine
        partners = mine << d if d >= 0 else mine >> -d
        while partners:
            b = rep[(partners & -partners).bit_length() - 1]
            edges.add((a, b))
            partners ^= partners & classes[b]
    return edges


def _stage_edges(rep, group, k, count):
    """The distinct class edges of the sets with top element k.

    rep is the partition over bits 0..k-1, with count classes.  An edge
    (a, b) joins class a to the copy of class b on the words with bit k
    set.  Each set reads its half-cube by the path the cost model in
    _forest picks, and complementing bits 0..k-1 gives the other half.
    """
    top = 1 << k
    low = top - 1
    edges = set()
    planes = classes = None
    for supp, pos, neg in group:
        t = neg if pos & top else pos
        d = (supp ^ top ^ t) - t
        comp = low & ~supp
        free = comp ^ (1 << comp.bit_length() >> 1)
        if 1 << free.bit_count() > count and count <= _PEEL_CLASSES:
            if classes is None:
                planes, classes = _word_planes(k), _ClassBits(rep, k)
            S = classes.full
            for i in _elements_of(low & ~free):
                S &= planes[i][t >> i & 1]
            edges |= _peeled_edges(rep, S, d, classes)
        else:
            edges |= _pair_edges(rep, t, d, free)
    # complementing bits 0..k-1 maps the pair of B, (B | t, B | u), to the
    # pair of C - B with its sides swapped, and each class to a class
    edges |= {(rep[low ^ b], rep[low ^ a]) for a, b in edges}
    return edges


def _forest(data, n):
    """(rep_of, class count) of the reversal partition one stored kind generates.

    After the elements 0..k-1, rep maps each of the 2^k words to its class
    minimum.  A set X with top element k pairs the word w = B | t with
    w ^ supp(X), where t is the sign part of X without k and B runs over
    the subsets of C, the bits 0..k-1 outside its support; the partner is
    the word w + d, with d = u - t for the other part u without k, plus
    bit k.  So the sets with top element k join the class of w to the copy
    of the class of w + d on the words with bit k set: _stage_edges finds
    the distinct class edges, which are united once rep is doubled onto
    those words.

    A stored set is positive at A iff it is positive at the complement of
    A, for any (pos, neg) list, so complementing bits 0..k-1 maps each
    class over them to a class, and it maps the pair of B to the pair of
    C - B with its two sides swapped.  Each set therefore reads only the
    half-cube of the B that leave the top bit of C clear, and every edge
    (a, b) found also gives (rep[low ^ b], rep[low ^ a]), low = 2^k - 1.

    The half-cube is read one of two ways.  The pair path reads every word
    through rep; peeling takes the half-cube as a bitset S over the 2^k
    words (an AND of _word_planes(k) over the fixed bits) and, while S is
    not empty, takes the class a of its lowest word, removes a's words
    from S, shifts them by d, and peels each partner class b off the
    shifted set, one edge (a, b) each.  The class bitsets are built per
    stage on first use.  The cost model: peeling costs a few big-int
    operations per distinct class and edge instead of one set insertion
    per word, so a set is peeled when its half-cube has more words than
    the stage has classes; and the class bitsets take count bits per word,
    so peeling runs only while count is at most _PEEL_CLASSES (256 bits,
    about the class list's own size per word).

    The class count doubles with rep and falls by one per merge.
    """
    rep = [0]
    count = 1
    for k, group in enumerate(_by_top(data, n)):
        edges = _stage_edges(rep, group, k, count)
        top = 1 << k
        rep += [r | top for r in rep]
        count *= 2
        if edges:
            rep, merges = _joined(rep, ((x, y | top) for x, y in edges))
            count -= merges
    return rep, count


def _cube_forests(M):
    """((rep_of, class count) of circuit/all, the same of cocircuit/all).

    Built once per M on first use; the forests depend on no order, and
    _cube_minima never builds them.
    """
    hit = M._cache.get("forests")
    if hit is None:
        hit = M._cache["forests"] = (_forest(M.circuit_data, M.n), _forest(M.cocircuit_data, M.n))
    return hit


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
    t(0,1) for every oriented matroid and every ground order.  Each count
    is 2^n less the popcount of the words it excludes, read from the
    bitsets _cube keeps next to the tables.
    """
    held_c, positive_c, held_d, positive_d = _cube(M, order)[1]
    excluded = (held_c | held_d, held_d, held_c, held_d | positive_c, held_c | positive_d)
    return tuple((1 << M.n) - words.bit_count() for words in excluded)


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
