"""Reversal classes of reorientations under positive circuit/cocircuit flips.

Two reorientations A and B are in the same class when one reaches the other
by repeatedly reversing the support of a circuit or cocircuit that is
positive there.  The two base partitions, circuit/all and cocircuit/all,
are the class-minimum lists that activity._cube_forests builds once per
instance from the distinct class edges of the generator pairs; no minima
table or order is involved.

both/all is the join of the two base partitions: every word links its
class in the coarser one to the class there of its representative in the
finer one, and the distinct links are united; its class count is the
coarser one's less the merges.  A restricted setting is its mode's all
partition cut down to the admitted words: acyclic (no positive circuit)
or totally cyclic (no positive cocircuit), read from the minima tables.
In a valid oriented matroid no reversal moves the acyclic/cyclic split,
so every class is wholly admitted or wholly outside; a mixed class means
a permitted reversal leaves the admitted set and raises
InvalidOrientedMatroid.

The class counts in the five standard settings are bounded above by, and
for regular instances equal to, the Tutte evaluations t(1,1), t(1,2),
t(2,1), t(1,0), t(0,1).
"""

from __future__ import annotations

from .activity import MODES, _cube_forests, _cube_minima, _joined
from .core import InvalidOrientedMatroid, _check_reorientation

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
        if verbose:
            members = {}
            for A, r in enumerate(self.rep_of):
                if r >= 0:
                    members.setdefault(r, []).append(A)
            for entry in out["classes"]:
                entry["members"] = members[entry["representative"]]
        return out


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
        rep_of, count = _cube_forests(M)[0 if mode == "circuit" else 1]

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

    Minimality is read from activity's minima tables with the
    matching mode: a member is minimal when it holds the minimum of no
    positive set of the mode's kinds, as in module activity's is_minimal.
    The scan is deterministic: among all classes holding two or more minimal
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
