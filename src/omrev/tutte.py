"""Tutte polynomial of a small matroid by corank-nullity subset expansion.

t(M; x, y) = sum over S subset of E of (x-1)^(r(E)-r(S)) * (y-1)^(|S|-r(S)).

The sum is accumulated exactly in the (x-1, y-1) basis over all 2^n subsets
and converted to monomial coefficients with binomial expansion; everything
is integer arithmetic.  Subset ranks come from a greedy oracle driven by
circuit supports alone.  By the prefix property of the greedy scan
(dropping the top element of S leaves the greedy decisions on the rest
unchanged), whether the scan keeps e depends only on the smaller
elements' decisions, so it is decided for all 2^n subsets at once on
Python big-int bitsets with bit S per subset.  Ranks and nullities are
then summed bit-sliced, and each corank-nullity count is one popcount.
"""

from __future__ import annotations

from math import comb

from .core import InvalidOrientedMatroid, _by_top, _elements_of, _greedy_rank, _mask_of, _word_planes


def rank(M, S=None) -> int:
    """Matroid rank of a subset of the ground set.

    S may be a bitmask, an iterable of elements, or None for all of E.
    Greedy: scan S in ground order, keep e while no circuit support fits
    inside the kept set plus e.
    """
    if S is None:
        mask = M.ground_mask
    elif isinstance(S, int):
        mask = S
    else:
        mask = _mask_of(S)
    if mask < 0 or mask & ~M.ground_mask:
        raise ValueError("subset %r leaves the ground set of %s" % (S, M.name))
    return _greedy_rank([s for s, _, _ in M.circuit_data], mask)


class TuttePolynomial:
    """Integer polynomial t(x, y); coeffs[i][j] is the x^i y^j coefficient.

    Rows run over x-degree 0..rank, columns over y-degree 0..nullity.
    Coefficients of a matroid Tutte polynomial are nonnegative and the
    basis count t(1,1) is at least 1; both are enforced here.
    """

    def __init__(self, rank, coeffs):
        self.rank = int(rank)
        self.coeffs = tuple(tuple(int(c) for c in row) for row in coeffs)
        if len(self.coeffs) != self.rank + 1:
            raise ValueError("need one coefficient row per x-degree 0..rank")
        width = len(self.coeffs[0]) if self.coeffs else 0
        if any(len(row) != width for row in self.coeffs):
            raise ValueError("ragged coefficient table")
        if any(c < 0 for row in self.coeffs for c in row):
            raise ValueError("Tutte coefficients must be nonnegative")
        if self.evaluate(1, 1) < 1:
            raise ValueError("t(1,1) must be at least 1 (every matroid has a basis)")

    @property
    def nullity(self) -> int:
        return len(self.coeffs[0]) - 1

    def evaluate(self, x: int, y: int) -> int:
        total = 0
        xp = 1
        for row in self.coeffs:
            yp = xp
            for c in row:
                total += c * yp
                yp *= y
            xp *= x
        return total

    def __eq__(self, other):
        if not isinstance(other, TuttePolynomial):
            return NotImplemented
        return self.rank == other.rank and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.rank, self.coeffs))

    def __str__(self):
        terms = []
        for i in range(self.rank, -1, -1):
            for j, c in enumerate(self.coeffs[i]):
                if not c:
                    continue
                piece = "" if c == 1 and (i or j) else str(c)
                if i:
                    piece += "x" if i == 1 else "x^%d" % i
                if j:
                    piece += "y" if j == 1 else "y^%d" % j
                terms.append(piece)
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return "TuttePolynomial(rank=%d, %s)" % (self.rank, self)

    def to_json_dict(self):
        return {"rank": self.rank, "coeffs": [list(row) for row in self.coeffs]}


def _kept_planes(M, planes):
    """kept[e]: bitset of the words S whose circuit-greedy set holds e.

    The greedy scan keeps e in S exactly when e is in S and no circuit with
    top element e has the rest of its support kept in S: by the prefix
    property the decisions on smaller elements are those of S alone.  So
    kept[e] is P[e] minus, over those circuits, the AND of the smaller
    elements' kept bitsets.  This holds for any list of supports, matroid
    or not.
    """
    kept = []
    for (_, P), group in zip(planes, _by_top(M.circuit_data, M.n)):
        closed = 0
        for supp, _, _ in group:
            rest = -1
            for i in _elements_of(supp)[:-1]:
                rest &= kept[i]
            closed |= rest
        kept.append(P & ~closed)
    return kept


def _count_planes(bitsets, full):
    """eq[v]: bitset of the words at which exactly v of the bitsets hold.

    The count is summed bit-sliced: digits[j] holds bit j of every word's
    running count, and each bitset is added with a ripple carry.
    """
    digits = []
    for carry in bitsets:
        for j, d in enumerate(digits):
            digits[j], carry = d ^ carry, d & carry
        if carry:
            digits.append(carry)
    eq = []
    for v in range(1 << len(digits)):
        words = full
        for j, d in enumerate(digits):
            words &= d if v >> j & 1 else ~d
        eq.append(words)
    return eq


def _joint_counts(rows, cols, r, nul, n):
    """(counts, lowest word out of range) of two lists of bitsets over the 2^n words.

    counts[i][j] is the number of words held by exactly i of rows and j
    of cols, for i <= r and j <= nul; the word is the lowest one held by
    more than r of rows or more than nul of cols, or None.
    """
    full = (1 << (1 << n)) - 1
    over = 0
    eqs = []
    for bitsets, limit in ((rows, r), (cols, nul)):
        k = max(limit + 1, 0)
        eq = _count_planes(bitsets, full) + [0] * k
        for words in eq[k:]:
            over |= words
        eqs.append(eq[:k])
    counts = [[(a & b).bit_count() for b in eqs[1]] for a in eqs[0]]
    return counts, (over & -over).bit_length() - 1 if over else None


def tutte_polynomial(M) -> TuttePolynomial:
    """Exact Tutte polynomial of M by the 2^n corank-nullity sum.

    Subset ranks and nullities are summed over all words at once, bit-sliced;
    counts[r - a][b] counts the words of corank a and nullity b.  A word whose
    greedy rank or nullity exceeds that of the ground set means the circuit
    list is not a matroid's and raises InvalidOrientedMatroid.
    """
    n, r = M.n, M.rank
    nul = n - r
    planes = _word_planes(n)
    kept = _kept_planes(M, planes)
    oracle_rank = sum(k >> M.ground_mask & 1 for k in kept)
    if oracle_rank != r:
        raise InvalidOrientedMatroid(
            "stored rank %d of %s differs from circuit rank %d" % (r, M.name, oracle_rank)
        )
    counts, S = _joint_counts(kept, [P ^ k for (_, P), k in zip(planes, kept)], r, nul, n)
    if S is not None:
        rs = sum(k >> S & 1 for k in kept)
        raise InvalidOrientedMatroid(
            "subset %s (word %d) of %s has greedy rank %d and nullity %d, above the "
            "rank %d and nullity %d of the ground set"
            % (set(_elements_of(S)), S, M.name, rs, S.bit_count() - rs, r, nul)
        )
    coeffs = [[0] * (nul + 1) for _ in range(r + 1)]
    for i in range(r + 1):
        for j in range(nul + 1):
            total = 0
            for a in range(i, r + 1):
                row = counts[r - a]
                ca = comb(a, i) * (-1) ** (a - i)
                for b in range(j, nul + 1):
                    if row[b]:
                        total += row[b] * ca * comb(b, j) * (-1) ** (b - j)
            coeffs[i][j] = total
    return TuttePolynomial(r, coeffs)


# (label, mode, restriction, Tutte point) of the five settings, in count-tuple order
SETTINGS = (
    ("circuit_cocircuit", "both", "all", (1, 1)),
    ("cocircuit", "cocircuit", "all", (1, 2)),
    ("circuit", "circuit", "all", (2, 1)),
    ("acyclic_cocircuit", "cocircuit", "acyclic", (1, 0)),
    ("totally_cyclic_circuit", "circuit", "totally_cyclic", (0, 1)),
)
EVAL_POINTS = tuple(point for _, _, _, point in SETTINGS)


def evaluations(T: TuttePolynomial):
    """The five standard evaluations as a tuple, in EVAL_POINTS order."""
    return tuple(T.evaluate(x, y) for x, y in EVAL_POINTS)
