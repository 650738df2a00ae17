"""Reversal classes of reorientations under positive circuit/cocircuit flips.

Two reorientations A and B are in the same class when one reaches the other
by repeatedly reversing the support of a circuit or cocircuit that is
positive there.  Two partitions are swept, circuit/all and cocircuit/all,
each with a disjoint-set forest united along every generator pair.  For a
stored set X with parts (X+, X-) the reorientations where X is positive
are exactly B | X- and B | X+ over subsets B of the complement of the
support, and those two words are each other's flip partners.  A set whose
largest element is k never reads or flips bit k+1 or above, so the forest
is grown one element at a time: the forest over bits 0..k-1 is doubled
onto the words with bit k set, then each set with top element k makes one
union per complement subset within bits 0..k.  That is sum over X of
2^(max X + 1 - |X|) unions instead of 2^(n - |X|).  Forest pointers always
go to a smaller word, so each root is its class minimum.

both/all is the join of the two swept partitions.  A restricted setting is
its mode's all partition cut down to the admitted words: acyclic (no
positive circuit) or totally cyclic (no positive cocircuit).  In a valid
oriented matroid no reversal moves the acyclic/cyclic split, so every
class is wholly admitted or wholly outside; a mixed class means a
permitted reversal leaves the admitted set and raises
InvalidOrientedMatroid.

The class counts in the five standard settings are bounded below by, and
for regular instances equal to, the Tutte evaluations t(1,1), t(1,2),
t(2,1), t(1,0), t(0,1).
"""

from __future__ import annotations

from .activity import MODES, _cube_minima
from .core import InvalidOrientedMatroid, _by_top, _check_reorientation

RESTRICTIONS = ("all", "acyclic", "totally_cyclic")

# (label, mode, restriction, Tutte evaluation point), in the fixed order
# used by reversal_counts and the analysis reports
SETTINGS = (
    ("circuit_cocircuit", "both", "all", (1, 1)),
    ("cocircuit", "cocircuit", "all", (1, 2)),
    ("circuit", "circuit", "all", (2, 1)),
    ("acyclic_cocircuit", "cocircuit", "acyclic", (1, 0)),
    ("totally_cyclic_circuit", "circuit", "totally_cyclic", (0, 1)),
)


def _check_setting(mode, restriction):
    if mode not in MODES:
        raise ValueError("mode must be one of %r, got %r" % (MODES, mode))
    if restriction not in RESTRICTIONS:
        raise ValueError("restriction must be one of %r, got %r" % (RESTRICTIONS, restriction))
    if restriction == "acyclic" and mode == "circuit":
        raise ValueError("restriction='acyclic' requires mode 'cocircuit' or 'both'")
    if restriction == "totally_cyclic" and mode == "cocircuit":
        raise ValueError("restriction='totally_cyclic' requires mode 'circuit' or 'both'")


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
        return self.rep_of[A] >= 0

    def representative(self, A: int) -> int:
        r = self.rep_of[A]
        if r < 0:
            raise ValueError(
                "reorientation %d is outside the admitted set (%s)" % (A, self.restriction)
            )
        return r

    def classes(self):
        """(representative, size) pairs by ascending representative."""
        sizes = {}
        for A in range(1 << self.n):
            r = self.rep_of[A]
            if r >= 0:
                sizes[r] = sizes.get(r, 0) + 1
        return sorted(sizes.items())

    def members(self, rep: int):
        return [A for A in range(1 << self.n) if self.rep_of[A] == rep]

    def to_json_dict(self, verbose=False):
        out = {
            "mode": self.mode,
            "restriction": self.restriction,
            "class_count": self.class_count,
            "classes": [
                {"representative": r, "size": s} for r, s in self.classes()
            ],
        }
        if verbose and self.n <= 12:
            members = {}
            for A, r in enumerate(self.rep_of):
                if r >= 0:
                    members.setdefault(r, []).append(A)
            for entry in out["classes"]:
                entry["members"] = members[entry["representative"]]
        return out


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


def _sweep(M, generators):
    """Union every generator pair, doubling the forest one element at a time.

    Before the sets with top element k are applied, the forest over the
    words of bits 0..k-1 is copied onto the words with bit k set; the sets
    applied so far never touch bit k, so the copy holds their classes on
    the upper half.  The sets with top element k are then united over the
    complement subsets within bits 0..k only.
    """
    parent = [0]
    union = _union_find(parent)
    for k, group in enumerate(_by_top(generators, M.n)):
        bit = 1 << k
        parent += [p | bit for p in parent]
        low = (2 << k) - 1
        for supp, pos, neg in group:
            comp = low & ~supp
            B = comp
            while True:
                union(B | neg, B | pos)
                if B == 0:
                    break
                B = (B - 1) & comp
    return _classes(parent)


def _restrict(M, rep_of, restriction):
    """(rep_of, class count) cut down to the admitted words."""
    outside = _cube_minima(M)[0 if restriction == "acyclic" else 1]
    out = [-1] * len(rep_of)
    count = 0
    for A, rep in enumerate(rep_of):
        if (outside[A] == 0) != (outside[rep] == 0):
            raise InvalidOrientedMatroid(
                "reversal class of %d mixes %s and other words of %s: a reversal "
                "leaves the admitted set" % (rep, restriction, M.name)
            )
        if outside[A] == 0:
            out[A] = rep
            count += rep == A
    return out, count


def reversal_classes(M, mode: str = "both", restriction: str = "all") -> ReversalPartition:
    """Build the reversal-class partition in one setting (memoized on M)."""
    _check_setting(mode, restriction)
    key = ("reversal", mode, restriction)
    hit = M._cache.get(key)
    if hit is not None:
        return hit

    if restriction != "all":
        rep_of, count = _restrict(M, reversal_classes(M, mode, "all").rep_of, restriction)
    elif mode == "both":  # join of the two swept partitions
        parent = list(reversal_classes(M, "circuit", "all").rep_of)
        union = _union_find(parent)
        for A, rep in enumerate(reversal_classes(M, "cocircuit", "all").rep_of):
            union(A, rep)
        rep_of, count = _classes(parent)
    else:
        rep_of, count = _sweep(M, M.circuit_data if mode == "circuit" else M.cocircuit_data)

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

    Minimality is module activity's is_minimal with the matching mode.  The
    scan is deterministic: among all classes holding two or more minimal
    members, it returns the lexicographically first pair (A, B), A < B.
    For a regular instance every setting returns None; a non-regular
    loopless instance must yield a pair in the default setting
    (mode='cocircuit', restriction='acyclic').
    """
    partition = reversal_classes(M, mode, restriction)
    circ, cocirc = _cube_minima(M)
    first_minimal = {}
    best = None
    for A, rep in enumerate(partition.rep_of):
        hits = (0 if mode == "cocircuit" else circ[A]) | (0 if mode == "circuit" else cocirc[A])
        if rep < 0 or A & hits:
            continue
        if rep in first_minimal:
            pair = (first_minimal[rep], A)
            if best is None or pair < best:
                best = pair
        else:
            first_minimal[rep] = A
    return best
