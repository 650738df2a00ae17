"""Reversal classes of reorientations under positive circuit/cocircuit flips.

Two reorientations A and B are in the same class when one reaches the other
by repeatedly reversing the support of a circuit or cocircuit that is
positive there.  Each setting's partition is a list mapping every word to
its class minimum, built on its first request and memoized on M.

_forest builds a base partition, circuit/all or cocircuit/all, from its
one stored kind, one element at a time; no activity bitset or order is
involved.

both/all is the join of the two base partitions: every word links its
class in the coarser one to the class there of its representative in the
finer one, and the distinct links are united; its class count is the
coarser one's less the merges.  A restricted setting is its mode's all
partition cut down to the admitted words: acyclic (no positive circuit)
or totally cyclic (no positive cocircuit), the complement of
activity._outside over core._cube's identity-order hits (the admitted
words do not depend on the order).  In a valid oriented matroid no
reversal moves the acyclic/cyclic split, so every class is wholly
admitted or wholly outside; a mixed class means a permitted reversal
leaves the admitted set and raises InvalidOrientedMatroid.

The class counts in the five settings of tutte.SETTINGS are bounded
above by, and for regular instances equal to, the Tutte evaluations at
their points.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from .activity import MODES, RESTRICTIONS, _check_setting, _held, _outside  # noqa: F401
from .core import (
    InvalidOrientedMatroid,
    _by_top,
    _check_reorientation,
    _cube,
    _elements_of,
    _table_planes,
    _word_planes,
)
from .tutte import SETTINGS


class ReversalPartition:
    """Disjoint-set partition of the admitted reorientations.

    Representatives are minimum members.  rep_of[A] is -1 for words outside
    the admitted set.
    """

    def __init__(self, mode, restriction, n, rep_of, class_count):
        self.mode = mode
        self.restriction = restriction
        self.n = n
        self.rep_of = rep_of
        self.class_count = class_count

    def is_admitted(self, A: int) -> bool:
        _check_reorientation(self, A)
        return self.rep_of[A] >= 0

    def representative(self, A: int) -> int:
        _check_reorientation(self, A)
        r = self.rep_of[A]
        if r < 0:
            raise ValueError(
                "reorientation %d is outside the admitted set (%s)" % (A, self.restriction)
            )
        return r

    def classes(self):
        """(representative, size) pairs by ascending representative."""
        sizes = Counter(self.rep_of)
        sizes.pop(-1, None)  # the words outside the admitted set
        return sorted(sizes.items())

    def members(self, rep: int):
        return [A for A in range(1 << self.n) if self.rep_of[A] == rep]


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


class _ClassBits(dict):
    """Bitset over the 2^k words of each class of rep, built on first lookup.

    The bit planes of rep, read as a table by core._table_planes, and their
    complements; a class's bitset is one AND per bit of its minimum, of the
    plane or its complement.
    """

    def __init__(self, rep, k):
        super().__init__()
        self.full = full = (1 << len(rep)) - 1
        self.planes = [(full ^ P, P) for P in _table_planes(rep, k)]

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

    The class a of the highest word of S is peeled off S with its bitset;
    those words shifted by d are the partners, and each partner class b is
    peeled off them in turn, again from the highest word.  One pass per
    distinct class and edge; bit_length finds the highest word with no
    full-width temporary.
    """
    edges = set()
    while S:
        a = rep[S.bit_length() - 1]
        mine = S & classes[a]
        S ^= mine
        partners = mine << d if d >= 0 else mine >> -d
        while partners:
            b = rep[partners.bit_length() - 1]
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
    not empty, takes the class a of its highest word, removes a's words
    from S, shifts them by d, and peels each partner class b off the
    shifted set, again from its highest word, one edge (a, b) each.  The
    class bitsets are built per stage on first use.  The cost model:
    peeling costs three full-width big-int operations per distinct class
    (an AND, an XOR and a shift) and two per edge (an AND and an XOR),
    the highest word coming from bit_length in O(1), instead of one set
    insertion per word, so a set is peeled when its half-cube has more
    words than the stage has classes; and the class bitsets take count
    bits per word, so peeling runs only while count is at most
    _PEEL_CLASSES (256 bits, about the class list's own size per word).

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


def _clear_words(bits, size):
    """One byte per word A < size: 1 if bit A of bits is clear, else 0."""
    return format(bits, "0%db" % size)[::-1].encode().translate(bytes.maketrans(b"01", b"\1\0"))


def _restrict(M, rep_of, restriction):
    """(rep_of, class count) cut down to the admitted words."""
    size = len(rep_of)
    outside = _outside(_cube(M), restriction)
    admitted = _clear_words(outside, size)
    kept = set(compress(rep_of, admitted))
    if not kept.isdisjoint(compress(rep_of, _clear_words(outside ^ (1 << size) - 1, size))):
        rep = next(rep for A, rep in enumerate(rep_of) if admitted[A] != admitted[rep])
        raise InvalidOrientedMatroid(
            "reversal class of %d mixes %s and other words of %s: a reversal "
            "leaves the admitted set" % (rep, restriction, M.name)
        )
    table = [-1] * size  # each kept class's minimum maps to itself, all else to -1
    for rep in kept:
        table[rep] = rep
    return list(map(table.__getitem__, rep_of)), len(kept)


def reversal_classes(M, mode: str = "both", restriction: str = "all") -> ReversalPartition:
    """Build the reversal-class partition in one setting (memoized on M)."""
    _check_setting(mode, restriction)
    key = ("reversal", mode, restriction)
    hit = M._cache.get(key)
    if hit is not None:
        return hit

    if restriction != "all":
        rep_of, count = _restrict(M, reversal_classes(M, mode, "all").rep_of, restriction)
    elif mode == "both":  # join of the two base partitions
        fine, coarse = sorted(
            (reversal_classes(M, kind, "all") for kind in ("circuit", "cocircuit")),
            key=lambda P: -P.class_count,
        )
        # A and its representative in the finer partition share a class, and
        # so do their representatives in the coarser one: one edge per word
        # between coarse classes, of which few are distinct
        base = coarse.rep_of
        rep_of, merges = _joined(list(base), set(zip(base, map(base.__getitem__, fine.rep_of))))
        count = coarse.class_count - merges
    else:
        rep_of, count = _forest(M.circuit_data if mode == "circuit" else M.cocircuit_data, M.n)

    partition = ReversalPartition(mode, restriction, M.n, rep_of, count)
    M._cache[key] = partition
    return partition


def reversal_counts(M):
    """Class counts in the five standard settings, in SETTINGS order."""
    return tuple(
        reversal_classes(M, mode, restriction).class_count
        for _, mode, restriction, _ in SETTINGS
    )


def same_class(M, A: int, B: int, mode: str = "both", restriction: str = "all") -> bool:
    """True iff A and B fall in the same reversal class of the setting."""
    _check_reorientation(M, A)
    _check_reorientation(M, B)
    partition = reversal_classes(M, mode, restriction)
    return partition.representative(A) == partition.representative(B)


def find_minimal_pair_in_class(M, mode: str = "cocircuit", restriction: str = "acyclic"):
    """Two distinct minimal reorientations sharing a reversal class, or None.

    A word is minimal when it lies outside activity._held of the mode, as
    in module activity's is_minimal, and admitted when it lies outside
    activity._outside of the restriction.  Only the admitted minimal words
    are visited, in ascending order, so among all classes holding two or
    more minimal members the scan returns the lexicographically first pair
    (A, B), A < B.
    For a regular instance every setting returns None; a non-regular
    loopless instance must yield a pair in the default setting
    (mode='cocircuit', restriction='acyclic').
    """
    rep_of = reversal_classes(M, mode, restriction).rep_of
    hits = _cube(M)
    outside = _held(hits)[mode] | _outside(hits, restriction)
    first_minimal = {}
    best = None
    for A in compress(range(len(rep_of)), _clear_words(outside, len(rep_of))):
        rep = rep_of[A]
        if rep in first_minimal:
            pair = (first_minimal[rep], A)
            if best is None or pair < best:
                best = pair
        else:
            first_minimal[rep] = A
    return best
