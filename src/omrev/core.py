"""Exact representation of small oriented matroids.

An oriented matroid on ground set {0, ..., n-1} is stored by its signed
circuits and signed cocircuits.  A signed set X is a pair of disjoint
element sets (X+, X-); each circuit or cocircuit is kept once, as the mask
triple (supp, pos, neg) of the canonical orientation that puts the
minimum element of the support in the positive part, and stands for the
pair {X, -X}.  SignedSet objects are views, made only when asked for.

A reorientation is a plain int A with bit e set iff element e is reversed.
A stored set X counts as positive in -_A M exactly when A picks out one of
its two sign parts over the support, i.e. A & supp(X) is X- or X+.

Builders: an integer matrix (sign patterns of rational kernel vectors on
minimal dependent column sets), a directed graph (signed simple cycles by
a depth-first search, bonds from the signed incidence matrix), a uniform
matroid U(r, n) (the signs of Vandermonde columns, written out with no
arithmetic), or explicit signed-set lists.  Every source leaves through
build_from_signed_sets, the one builder that constructs and validates an
instance.  All arithmetic is exact rational; no floats
anywhere.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import and_, or_, xor

MAX_ELEMENTS = 20


class InvalidOrientedMatroid(ValueError):
    """Input data violates an oriented-matroid invariant."""


def _is_int(x):
    """True for an int that is not a bool (JSON true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _mask_of(elements):
    """Bitmask of an element iterable; each element is checked before its shift."""
    m = 0
    for e in elements:
        if not (type(e) is int or _is_int(e)) or not 0 <= e < MAX_ELEMENTS:
            raise ValueError(
                "elements must be ints in 0..%d (the hard cap is %d), got %r"
                % (MAX_ELEMENTS - 1, MAX_ELEMENTS, e)
            )
        m |= 1 << e
    return m


# per byte lane j of a mask below bit MAX_ELEMENTS, the ascending elements
# 8j.. of each byte value; the unpacking fails if the cap needs a fourth lane
_E0, _E1, _E2 = (
    [tuple(8 * j + i for i in range(8) if x >> i & 1) for x in range(256)]
    for j in range(-(-MAX_ELEMENTS // 8))
)


def _elements_of(mask):
    """Set bits of mask as an ascending element list, one table read per byte.

    A mask that is negative or reaches bit MAX_ELEMENTS raises ValueError.
    """
    if mask >> MAX_ELEMENTS:
        raise ValueError("element mask %r is not a mask below bit %d" % (mask, MAX_ELEMENTS))
    return [*_E0[mask & 255], *_E1[mask >> 8 & 255], *_E2[mask >> 16]]


class SignedSet:
    """A signed subset of the ground set: disjoint positive/negative parts.

    Instances are always canonical: the minimum element of the support sits
    in the positive part, so one object represents the pair {X, -X}.  Parts
    may be given as element iterables or directly as bitmasks.
    """

    __slots__ = ("pos_mask", "neg_mask")

    def __init__(self, pos=(), neg=()):
        _, self.pos_mask, self.neg_mask = _signed_triple((pos, neg))

    @property
    def support_mask(self) -> int:
        return self.pos_mask | self.neg_mask

    @property
    def pos(self) -> frozenset:
        return frozenset(_elements_of(self.pos_mask))

    @property
    def neg(self) -> frozenset:
        return frozenset(_elements_of(self.neg_mask))

    @property
    def support(self) -> frozenset:
        return frozenset(_elements_of(self.support_mask))

    @property
    def min_element(self) -> int:
        supp = self.support_mask
        return (supp & -supp).bit_length() - 1

    def sign(self, e: int) -> int:
        bit = 1 << e
        if self.pos_mask & bit:
            return 1
        if self.neg_mask & bit:
            return -1
        return 0

    def is_positive_in(self, A: int) -> bool:
        """True iff X or -X is all-positive after reversing the elements of A."""
        inter = A & self.support_mask
        return inter == self.neg_mask or inter == self.pos_mask

    def reoriented(self, A: int) -> "SignedSet":
        """Canonical form of this signed set with signs flipped on A."""
        pos = (self.pos_mask & ~A) | (self.neg_mask & A)
        neg = (self.neg_mask & ~A) | (self.pos_mask & A)
        return SignedSet(pos, neg)

    def __eq__(self, other):
        if not isinstance(other, SignedSet):
            return NotImplemented
        return self.pos_mask == other.pos_mask and self.neg_mask == other.neg_mask

    def __hash__(self):
        return hash((self.pos_mask, self.neg_mask))

    def __repr__(self):
        return "SignedSet(pos=%r, neg=%r)" % (
            _elements_of(self.pos_mask),
            _elements_of(self.neg_mask),
        )

    def to_json_dict(self):
        return {"pos": _elements_of(self.pos_mask), "neg": _elements_of(self.neg_mask)}


def _signed_triple(obj):
    """The canonical mask triple (supp, pos, neg) of one signed set.

    obj is a SignedSet, a {"pos": ..., "neg": ...} mapping, a (pos, neg)
    pair or a (supp, pos, neg) triple; each part is an element iterable or
    an int bitmask, and a bool is neither.  Every form gets the same checks,
    a triple included: the parts must be nonnegative masks below bit
    MAX_ELEMENTS, disjoint and not both empty, and a triple's supp must be
    the int pos | neg.  The canonical form puts the minimum element of the
    support in pos; a mask triple already in it is returned as given, so a
    stored triple passed back in is checked without a copy.
    """
    supp = None
    if isinstance(obj, dict):
        pos, neg = obj.get("pos", ()), obj.get("neg", ())
    elif isinstance(obj, SignedSet):
        pos, neg = obj.pos_mask, obj.neg_mask
    else:
        parts = tuple(obj)
        if len(parts) == 3:
            supp, pos, neg = parts
        else:
            pos, neg = parts
    try:
        pos = pos if type(pos) is int or _is_int(pos) else _mask_of(pos)
        neg = neg if type(neg) is int or _is_int(neg) else _mask_of(neg)
    except TypeError:  # a part that is neither an int nor iterable
        bad = neg if _is_int(pos) else pos
        raise ValueError(
            "a sign part must be an int mask or an element list, got %r" % (bad,)
        ) from None
    union = pos | neg
    if pos < 0 or neg < 0:
        raise ValueError("element masks must be nonnegative")
    if union >> MAX_ELEMENTS:
        raise ValueError("element masks must lie below bit %d, the hard cap" % MAX_ELEMENTS)
    if pos & neg:
        raise ValueError("positive and negative parts overlap")
    if union == 0:
        raise ValueError("signed set must be nonempty")
    if supp is not None and not (_is_int(supp) and supp == union):
        raise ValueError("support mask %r is not the union of the sign parts" % (supp,))
    if union & -union & neg:
        return union, neg, pos
    if supp is not None and parts[1:] == (pos, neg):  # given as canonical masks
        return parts
    return union, pos, neg


def _storage_key(triple):
    """Storage order: supports as ascending element lists, compared lexicographically.

    The key holds the elements as bytes, which compare as the lists do
    (every element is below 256, and a prefix sorts first) but take less
    memory while a whole kind is being sorted.
    """
    return bytes(_elements_of(triple[0]))


def _greedy_rank(circuit_supports, subset_mask: int) -> int:
    """Greedy rank oracle: scan elements of the subset in ground order and
    keep e while no circuit support fits inside the kept set plus e."""
    kept = 0
    rest = subset_mask
    while rest:
        low = rest & -rest
        rest ^= low
        cand = kept | low
        for c in circuit_supports:
            if c & cand == c:
                break
        else:
            kept = cand
    return kept.bit_count()


class OrientedMatroid:
    """Signed circuits and cocircuits on ground set {0, ..., n-1}.

    Each stored set is held once, as the canonical mask triple (supp, pos,
    neg) of _signed_triple, which checks every entry given here; the
    triples of each kind sit in circuit_data and cocircuit_data, in
    storage order: sorted by support as ascending element lists.  The
    circuits and cocircuits attributes are SignedSet views of them, built
    on first access.

    Immutable after construction (an internal memo for derived partitions
    and the views do not affect observable state, so concurrent read-only
    use is safe).
    """

    def __init__(self, n, rank, circuits, cocircuits, name=""):
        if not (_is_int(n) and _is_int(rank) and 0 <= rank <= n):
            raise ValueError("need integers 0 <= rank <= n, got n=%r and rank=%r" % (n, rank))
        if n > MAX_ELEMENTS:
            raise ValueError(
                "ground set too large: n=%d exceeds the hard cap %d" % (n, MAX_ELEMENTS)
            )
        self.n = n
        self.rank = rank
        self.circuit_data = tuple(sorted(map(_signed_triple, circuits), key=_storage_key))
        self.cocircuit_data = tuple(sorted(map(_signed_triple, cocircuits), key=_storage_key))
        self.name = name or "om"
        self.ground_mask = (1 << n) - 1
        for supp, _, _ in self.circuit_data + self.cocircuit_data:
            if supp & ~self.ground_mask:
                raise ValueError("signed set mentions an element outside 0..n-1")
        self._cache = {}

    @cached_property
    def circuits(self) -> tuple:
        """The stored circuits as SignedSet objects, in storage order."""
        return tuple(SignedSet(pos, neg) for _, pos, neg in self.circuit_data)

    @cached_property
    def cocircuits(self) -> tuple:
        """The stored cocircuits as SignedSet objects, in storage order."""
        return tuple(SignedSet(pos, neg) for _, pos, neg in self.cocircuit_data)

    @property
    def loops_mask(self) -> int:
        m = 0
        for supp, _, _ in self.circuit_data:
            if supp & (supp - 1) == 0:
                m |= supp
        return m

    @property
    def coloops_mask(self) -> int:
        m = 0
        for supp, _, _ in self.cocircuit_data:
            if supp & (supp - 1) == 0:
                m |= supp
        return m

    @property
    def has_loops(self) -> bool:
        return self.loops_mask != 0

    @property
    def has_coloops(self) -> bool:
        return self.coloops_mask != 0

    def __eq__(self, other):
        if not isinstance(other, OrientedMatroid):
            return NotImplemented
        return (
            self.n == other.n
            and self.circuit_data == other.circuit_data
            and self.cocircuit_data == other.cocircuit_data
        )

    def __repr__(self):
        return "<OrientedMatroid %s: n=%d rank=%d, %d circuits, %d cocircuits>" % (
            self.name,
            self.n,
            self.rank,
            len(self.circuit_data),
            len(self.cocircuit_data),
        )


# ----------------------------------------------------------------------
# exact linear algebra over the rationals


def _row_reduce(rows, ncols):
    """Reduced row echelon form over Fraction.

    Returns (pivot column list, reduced nonzero rows).
    """
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        hit = None
        for i in range(r, len(work)):
            if work[i][c]:
                hit = i
                break
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        pivot = work[r][c]
        work[r] = [x / pivot for x in work[r]]
        row_r = work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots, work[:r]


def _primitive_int_vector(vec):
    """Scale a nonzero rational vector to coprime integers, sign preserved."""
    denom = reduce(math.lcm, (x.denominator for x in vec), 1)
    ints = [int(x * denom) for x in vec]
    g = reduce(math.gcd, ints)
    return [x // g for x in ints]


def _kernel_basis(rows, ncols):
    """Primitive integer basis of the rational kernel of an integer matrix."""
    pivots, red = _row_reduce(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(_primitive_int_vector(v))
    return basis


def _circuits_of_matrix(rows, n):
    """Signed circuits of the column matroid of an integer matrix.

    Column subsets are scanned in increasing size up to rank+1; a subset
    with no smaller circuit inside that turns out dependent is a circuit,
    and its sign pattern is the one-dimensional rational kernel of the
    chosen columns.
    """
    rank = len(_row_reduce(rows, n)[0])
    circuits = []
    supports = []
    for size in range(1, rank + 2):
        for combo in itertools.combinations(range(n), size):
            mask = _mask_of(combo)
            if any(s & mask == s for s in supports):
                continue
            sub = [[row[e] for e in combo] for row in rows]
            pivots, red = _row_reduce(sub, size)
            if len(pivots) == size:
                continue
            if len(pivots) != size - 1:
                raise InvalidOrientedMatroid("kernel of circuit columns %r is not a line" % (combo,))
            free = next(c for c in range(size) if c not in pivots)
            v = [Fraction(0)] * size
            v[free] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -red[i][free]
            w = _primitive_int_vector(v)
            if not all(w):
                raise InvalidOrientedMatroid("kernel of circuit columns %r lacks full support" % (combo,))
            pos = _mask_of(combo[i] for i in range(size) if w[i] > 0)
            neg = _mask_of(combo[i] for i in range(size) if w[i] < 0)
            circuits.append((pos, neg))
            supports.append(mask)
    return circuits


# ----------------------------------------------------------------------
# builders


def build_from_matrix(matrix, *, n=None, name="matrix") -> OrientedMatroid:
    """Oriented matroid realized by the columns of an integer matrix.

    matrix __ sequence of equal-length integer rows; may be rank-deficient.
    n      __ column count, required only when the matrix has no rows
              (every element is then a loop).

    Cocircuits are the circuits of the dual realization: any integer matrix
    whose rows span the orthogonal complement of the row space, here a
    primitive kernel basis.  Both lists go through build_from_signed_sets,
    which infers the rank and validates them.
    """
    rows = [list(r) for r in matrix]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows have unequal lengths")
        if n is not None and n != width:
            raise ValueError("explicit n=%r does not match row length %d" % (n, width))
        n = width
    elif n is None:
        raise ValueError("a matrix with no rows needs an explicit column count n")
    if not 0 <= n <= MAX_ELEMENTS:
        raise ValueError("ground set too large: n=%d exceeds the hard cap %d" % (n, MAX_ELEMENTS))
    for row in rows:
        for x in row:
            if not _is_int(x):
                raise ValueError("matrix entries must be integers, got %r" % (x,))
    circuits = _circuits_of_matrix(rows, n)
    cocircuits = _circuits_of_matrix(_kernel_basis(rows, n), n)
    return build_from_signed_sets(circuits, cocircuits, n=n, name=name)


def _graph_cycles(arcs, order):
    """Signed simple cycles of a directed multigraph, in the subset scan's order.

    arcs[j] is edge j as a (tail, head) pair of vertices in range(order),
    or None for a loop, which is a one-element circuit.  A depth-first
    search from each vertex s runs through vertices above s only and
    closes a cycle on any unused edge back to s, so two parallel edges
    close a two-element cycle.  It meets each cycle once per direction and
    keeps the first by its edge set.  An edge is + when the cycle runs from
    its tail to its head.  The cycles come out as (pos, neg) masks, by size
    and then by sorted edge list, the order the column-subset scan finds
    them in.
    """
    found = {1 << j: (1 << j, 0) for j, arc in enumerate(arcs) if arc is None}
    steps = [[] for _ in range(order)]
    for j, arc in enumerate(arcs):
        if arc is not None:
            steps[arc[0]].append((arc[1], 1 << j, True))
            steps[arc[1]].append((arc[0], 1 << j, False))

    def extend(start, v, pos, neg, on_path):
        for w, bit, forward in steps[v]:
            if (pos | neg) & bit:
                continue
            p, q = (pos | bit, neg) if forward else (pos, neg | bit)
            if w == start:
                found.setdefault(p | q, (p, q))
            elif w > start and not on_path >> w & 1:
                extend(start, w, p, q, on_path | 1 << w)

    for s in range(order):
        extend(s, s, 0, 0, 1 << s)
    scan_order = sorted(found, key=lambda supp: (supp.bit_count(), _elements_of(supp)))
    return [found[supp] for supp in scan_order]


def build_from_graph(edges, *, vertices=None, name="graph") -> OrientedMatroid:
    """Graphic oriented matroid of a directed multigraph.

    Edge j = (u, v) becomes ground element j.  The circuits are the signed
    simple cycles, listed by _graph_cycles' depth-first search: an edge is +
    when the cycle runs from its tail u to its head v, a loop (u, u) is a
    one-element circuit and two parallel edges form a two-element one.
    The cocircuits are the circuits of a kernel basis of the incidence
    matrix (column j is +1 at v and -1 at u, a loop's column is zero),
    found by the column-subset scan.  Positive circuits are then
    consistently directed cycles and positive cocircuits consistently
    directed minimal edge cuts.  Only endpoints of non-loop edges become
    search vertices and incidence rows, numbered in ascending vertex
    order, so a vertex id costs nothing beyond its edges.  Both lists go
    through build_from_signed_sets, which infers the rank and validates
    them.
    """
    edge_list = [tuple(e) for e in edges]
    if len(edge_list) > MAX_ELEMENTS:
        raise ValueError("too many edges: %d exceeds the hard cap %d" % (len(edge_list), MAX_ELEMENTS))
    for e in edge_list:
        if len(e) != 2 or not all(_is_int(v) and v >= 0 for v in e):
            raise ValueError("edges must be (tail, head) pairs of nonnegative ints, got %r" % (e,))
    if vertices is not None and vertices < 1 + max((max(e) for e in edge_list), default=-1):
        raise ValueError("vertex count %d too small for the edge endpoints" % vertices)
    # one search vertex and incidence row per endpoint of a non-loop edge, in
    # ascending vertex order: isolated vertices change no circuit or cocircuit
    ends = sorted({v for e in edge_list if e[0] != e[1] for v in e})
    row = {v: i for i, v in enumerate(ends)}
    n = len(edge_list)
    matrix = [[0] * n for _ in row]
    for j, (u, v) in enumerate(edge_list):
        if u != v:
            matrix[row[v]][j] += 1
            matrix[row[u]][j] -= 1
    arcs = [(row[u], row[v]) if u != v else None for u, v in edge_list]
    cocircuits = _circuits_of_matrix(_kernel_basis(matrix, n), n)
    return build_from_signed_sets(_graph_cycles(arcs, len(ends)), cocircuits, n=n, name=name)


def build_uniform(r, n, name=None) -> OrientedMatroid:
    """U(r, n) oriented as by Vandermonde columns (1, t, ..., t^(r-1)), t = 1..n.

    Every r columns in increasing order have a positive determinant, so no
    arithmetic is needed: the circuit on an (r+1)-set alternates in sign
    along the sorted set, and the cocircuit of the hyperplane spanned by an
    (r-1)-set T gives each e outside T the sign (-1)^|{t in T : t > e}|.
    The lists go through build_from_signed_sets, which validates them.
    """
    if not (_is_int(r) and _is_int(n) and 0 <= r <= n <= MAX_ELEMENTS):
        raise ValueError("invalid r, n: need integers 0 <= r <= n <= %d" % MAX_ELEMENTS)
    circuits = [(S[0::2], S[1::2]) for S in itertools.combinations(range(n), r + 1)]
    cocircuits = []
    for T in itertools.combinations(range(n), r - 1) if r else ():
        parts = ([], [])
        for e in range(n):
            if e not in T:
                parts[sum(t > e for t in T) % 2].append(e)
        cocircuits.append(parts)
    return build_from_signed_sets(circuits, cocircuits, n=n, name=name or "U(%d,%d)" % (r, n))


def build_from_signed_sets(circuits, cocircuits, *, n=None, name="signed") -> OrientedMatroid:
    """Oriented matroid from explicit circuit and cocircuit lists.

    Entries may be SignedSet instances, (pos, neg) pairs of element
    iterables or masks, {"pos": [...], "neg": [...]} mappings, or (supp,
    pos, neg) mask triples; _signed_triple checks each and turns it into
    its canonical mask triple, the one form stored, and exact duplicates
    (after canonicalization) are dropped.  No SignedSet is made.  The
    ground set size defaults to one past the largest mentioned element.
    The result is validated and rejected on any failure; rank is inferred
    from the circuit list with the greedy rank oracle.
    """
    circ = list(dict.fromkeys(map(_signed_triple, circuits)))
    cocirc = list(dict.fromkeys(map(_signed_triple, cocircuits)))
    if n is None:
        n = max((supp.bit_length() for supp, _, _ in circ + cocirc), default=0)
    rank = _greedy_rank([supp for supp, _, _ in circ], (1 << n) - 1)
    M = OrientedMatroid(n, rank, circ, cocirc, name)
    report = validate(M)
    if not report.ok:
        raise InvalidOrientedMatroid(report.failures[0])
    return M


# ----------------------------------------------------------------------
# queries


@dataclass
class ValidationReport:
    ok: bool
    failures: list = field(default_factory=list)


def _incomparability_failures(kind, data):
    """The first comparable pair of supports in list order, as a failure line.

    Distinct supports of equal size are never comparable, so when all
    supports are distinct only pairs across size groups need a subset
    test.  The pairwise scan in list order runs only once such a test (or a
    repeated support) has shown that a comparable pair exists.
    """
    supports = [supp for supp, _, _ in data]
    if len(set(supports)) == len(supports):
        by_size = {}
        for s in supports:
            by_size.setdefault(s.bit_count(), []).append(s)
        larger = []
        for size in sorted(by_size, reverse=True):
            group = by_size[size]
            if any(a & b == a for a in group for b in larger):
                break
            larger += group
        else:
            return []
    for i, a in enumerate(supports):
        for j, b in enumerate(supports[i + 1 :], i + 1):
            if a & b == a or a & b == b:
                X, Y = (SignedSet(*data[k][1:]) for k in (i, j))
                return ["%s supports are comparable: %r vs %r" % (kind, X, Y)]
    return []


def _orthogonality_failures(M):
    """The first circuit, and its first cocircuit, in list order that are
    not orthogonal, as a failure line.

    X and Y are orthogonal when their signs agree somewhere on the common
    support iff they differ somewhere.  Per element, bitsets over the
    cocircuit list mark the cocircuits holding it positively and
    negatively (the positive and the negative parts read as tables and
    transposed by _table_planes); ORed over a circuit's signed elements
    they give the cocircuits that agree with it somewhere and those that
    differ, and the pairs that fail are in exactly one of the two.
    """
    positive, negative = (
        _table_planes([t[i] for t in M.cocircuit_data], M.n) for i in (1, 2)
    )
    for _, pos, neg in M.circuit_data:
        agree = differ = 0
        for e in _elements_of(pos):
            agree |= positive[e]
            differ |= negative[e]
        for e in _elements_of(neg):
            agree |= negative[e]
            differ |= positive[e]
        bad = agree ^ differ
        if bad:
            X = SignedSet(pos, neg)
            Y = SignedSet(*M.cocircuit_data[(bad & -bad).bit_length() - 1][1:])
            return ["orthogonality fails for circuit %r and cocircuit %r" % (X, Y)]
    return []


def validate(M: OrientedMatroid) -> ValidationReport:
    """Check the stored lists against the cross-set invariants.

    The per-set invariants are held by the constructor: OrientedMatroid
    runs every entry through _signed_triple, which rejects overlapping
    sign parts and an empty support and stores the canonical form, and
    rejects a set with an element outside 0..n-1.  validate checks what
    relates sets to each other: support incomparability within each list,
    circuit/cocircuit sign orthogonality, rank duality between the two
    lists and the stored rank, and that every reorientation splits the
    ground set into its acyclic and cyclic parts (Bjorner et al., Oriented
    Matroids, section 3.4).  Each failed check reports its first
    counterexample; the tiling check, which reads every word, runs only
    once the others pass.
    """
    failures = _incomparability_failures("circuit", M.circuit_data)
    failures += _incomparability_failures("cocircuit", M.cocircuit_data)
    failures += _orthogonality_failures(M)

    circ_rank = _greedy_rank([s for s, _, _ in M.circuit_data], M.ground_mask)
    cocirc_rank = _greedy_rank([s for s, _, _ in M.cocircuit_data], M.ground_mask)
    if circ_rank + cocirc_rank != M.n:
        failures.append(
            "rank duality fails: circuits give rank %d, cocircuits corank %d, n=%d"
            % (circ_rank, cocirc_rank, M.n)
        )
    if M.rank != circ_rank:
        failures.append("stored rank %d differs from circuit rank %d" % (M.rank, circ_rank))

    if not failures:
        A = _untiled_word(M)
        if A is not None:
            failures.append(
                "reorientation %d does not split into acyclic and cyclic parts" % A
            )
    return ValidationReport(not failures, failures)


def _untiled_word(M):
    """The lowest word A where -_A M does not split into acyclic and cyclic
    parts, or None when every word does.

    One pass per stored kind over _words_by_minimum: cyclic[e] (acyclic[e])
    ORs the words of the circuits (cocircuits) whose support holds e, so bit
    A is set iff e lies in the cyclic (acyclic) part at A, and
    _lowest_untiled gives the verdict.  The same pass ORs each set's words
    into hits[a] of its minimum a: the identity order's hits, which it
    writes to _cube's memo entry.
    """
    parts = []
    lowest = []
    for data in (M.circuit_data, M.cocircuit_data):
        held = [0] * M.n
        hits = [0] * M.n
        for a, group in _words_by_minimum(data, M.n):
            for supp, words in group:
                hits[a] |= words
                for e in _elements_of(supp):
                    held[e] |= words
        parts.append(held)
        lowest.append(hits)
    M._cache["cube"] = tuple(lowest)
    return _lowest_untiled(*parts, M.n)[0]


def _lowest_untiled(cyclic, acyclic, n):
    """(A, overlap) for per-element bitsets over the 2^n words: bit A of
    cyclic[e] (acyclic[e]) is set iff e lies in the cyclic (acyclic) part
    at A.

    A word tiles iff every e lies in exactly one part; A is the lowest word
    that does not, or None, and overlap holds the words where some e lies
    in both parts.
    """
    full = (1 << (1 << n)) - 1
    bad = full ^ reduce(and_, map(xor, cyclic, acyclic), full)
    overlap = reduce(or_, map(and_, cyclic, acyclic), 0)
    return ((bad & -bad).bit_length() - 1 if bad else None), overlap


def _element_key(positions):
    """Sort key of an element under the order: its position in it."""
    return (lambda e: e) if positions is None else positions.__getitem__


def _min_bit(supp_mask, positions):
    """Bit of the minimum element of a support; positions None: identity order."""
    if positions is None:
        return supp_mask & -supp_mask
    return 1 << min(_elements_of(supp_mask), key=positions.__getitem__)


def _words_by_minimum(data, n, positions=None):
    """(a, group) for each order-minimum a of one stored kind.

    The (supp, pos, neg) triples are grouped by a, the order-minimum of
    supp (positions None: identity order), and the groups come from the
    largest a down in the order, one tuple each.  group yields (supp,
    words) for its sets in storage order, words the bitset of the 2^n
    words where the set is positive, from _positive_words; it is a
    generator, so only one set's words are alive at a time (a list would
    hold a whole group's, over 10 MB for the largest group of U(4,16)).
    Every whole-cube pass over the stored sets reads them here, except
    greedy_ends, whose walk visits the distinct supports of both kinds.
    """
    planes = _word_planes(n)
    groups = {}
    for t in data:
        groups.setdefault(_min_bit(t[0], positions).bit_length() - 1, []).append(t)
    for a in sorted(groups, key=_element_key(positions), reverse=True):
        yield a, ((supp, _positive_words(planes, supp, pos, neg)) for supp, pos, neg in groups[a])


def _cube(M, positions=None):
    """(circuit hits, cocircuit hits): n bitsets per kind over the 2^n words.

    Bit A of hits[e] is set when e is the order-minimum of a positive set
    of that kind at A, that is, when e is (dual-)active at A: the OR of the
    words _words_by_minimum yields for minimum e.  Only the identity order
    (positions None) is memoized, under the one key "cube" that validate's
    tiling pass also fills; any other order is built per call and not kept.
    """
    hits = M._cache.get("cube") if positions is None else None
    if hits is None:
        hits = ([0] * M.n, [0] * M.n)
        for data, per_element in zip((M.circuit_data, M.cocircuit_data), hits):
            for a, group in _words_by_minimum(data, M.n, positions):
                for _, words in group:
                    per_element[a] |= words
        if positions is None:
            M._cache["cube"] = hits
    return hits


def dual(M: OrientedMatroid) -> OrientedMatroid:
    """The dual oriented matroid: circuit and cocircuit lists swapped."""
    return OrientedMatroid(
        M.n, M.n - M.rank, M.cocircuit_data, M.circuit_data, name="dual(%s)" % M.name
    )


def _check_reorientation(M, A):
    """Reject A unless it is an n-bit word; M is anything with a ground-set size n."""
    if not _is_int(A) or A < 0 or A >> M.n:
        raise ValueError("reorientation %r is not an n-bit word for n=%d" % (A, M.n))


def positive_sets(M: OrientedMatroid, A: int, kind: str):
    """Stored sets of one kind that are positive in -_A M, in storage order."""
    _check_reorientation(M, A)
    data = {"circuit": M.circuit_data, "cocircuit": M.cocircuit_data}.get(kind)
    if data is None:
        raise ValueError("kind must be 'circuit' or 'cocircuit', got %r" % (kind,))
    return [SignedSet(pos, neg) for _, pos, neg in _positive(data, A)]


def _positive(data, A):
    """The (supp, pos, neg) triples of one stored kind that are positive at A.

    The mask-triple form of SignedSet.is_positive_in: A & supp is X- or X+.
    The one-word queries over mask triples read their positive sets here;
    _positive_words answers the same question for every word at once.
    """
    return [t for t in data if (inter := A & t[0]) == t[2] or inter == t[1]]


def _by_top(data, n):
    """The (supp, pos, neg) triples of one stored kind grouped by top element.

    Entry k lists, in storage order, the triples whose support has k as its
    largest element; such a set never reads or flips a bit above k.
    """
    groups = [[] for _ in range(n)]
    for t in data:
        groups[t[0].bit_length() - 1].append(t)
    return groups


@lru_cache(maxsize=None)
def _word_planes(n):
    """(~P, P) for each element i < n, where P is a bitset over the 2^n words.

    Bit A of P is set iff word A holds element i, and ~P is its complement
    within the 2^n words.  P runs of 2^i clear bits then 2^i set bits, so
    it is one byte pattern repeated (one fixed byte for i < 3).

    Built once per n and shared, as a tuple, by every reader and every
    forest stage.  The cache keeps n * 2^(n+1) bits for each n requested;
    traced, that is 274 KiB at n = 16, 520 KiB for every n up to 16
    together and 10.1 MiB for every n up to the cap of 20.
    """
    size = 1 << n
    full = (1 << size) - 1
    planes = []
    for i in range(n):
        if i < 3:
            pattern = (b"\xaa", b"\xcc", b"\xf0")[i]
        else:
            pattern = bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
        P = int.from_bytes(pattern * max(1, size // (8 * len(pattern))), "little") & full
        planes.append((full ^ P, P))
    return tuple(planes)


def _positive_words(planes, supp, pos, neg):
    """Bitset of the words where the stored set (supp, pos, neg) is positive.

    The mask-triple form of _positive over all words at once, from the
    _word_planes of the ground set.  S holds the words with A & supp ==
    neg; on those A ^ supp = A - neg + pos, so S shifted by pos - neg holds
    the words with A & supp == pos.  S starts from -1, every bit set, not
    from a 2^n-bit all-ones temporary: a stored support is never empty
    (_signed_triple rejects one), so the first plane ANDed in brings S within
    the 2^n words.
    """
    S = -1
    for i in _elements_of(supp):
        S &= planes[i][neg >> i & 1]
    d = pos - neg
    return S | (S << d if d >= 0 else S >> -d)


# A table holds one array("Q") entry per word, 64 bits on every platform;
# bit e of an entry sits in byte _lane_byte(e) of its item, lane e // 8.
# Per lane bit j, _LANE_BITS translates the binary digits "0"/"1" into the
# bytes 0 and 1 << j, and _LANE_DIGITS translates a byte into the digit
# "1" or "0" of its bit j.
_TABLE_ITEM = array("Q").itemsize
_TABLE_BITS = 8 * _TABLE_ITEM
_LANE_BITS = [bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8)]
_LANE_DIGITS = [bytes(0x31 if x >> j & 1 else 0x30 for x in range(256)) for j in range(8)]


def _lane_byte(e):
    """Index, within a table item, of the byte that holds bit e."""
    return e // 8 if sys.byteorder == "little" else _TABLE_ITEM - 1 - e // 8


def _bit_table(hits, n):
    """array("Q") whose entry A has bit e set iff bit A of hits[e] is set.

    hits holds at most _TABLE_BITS bitsets over the 2^n words.  Each bitset
    is written out as binary digits, one byte per word with word 2^n - 1
    first, and translated to 0 or its bit within a lane of eight bitsets;
    the bitsets of a lane are ORed as big-endian ints, and the lanes are
    interleaved into the entries' bytes.
    """
    size = 1 << n
    item = _TABLE_ITEM
    buf = bytearray(size * item)
    for lane in range(0, len(hits), 8):
        acc = 0
        for e in range(lane, min(len(hits), lane + 8)):
            if hits[e]:
                digits = format(hits[e], "0%db" % size).encode()
                acc |= int.from_bytes(digits.translate(_LANE_BITS[e - lane]), "big")
        buf[_lane_byte(lane)::item] = acc.to_bytes(size, "little")
    table = array("Q")
    table.frombytes(buf)
    return table


def _table_planes(table, n):
    """The reverse of _bit_table: per e < n, the bitset of the entries with
    bit e set, from their bytes of e's lane translated to binary digits.

    The table may have any length; an empty one gives n empty bitsets.
    """
    if not table:
        return [0] * n
    buf = array("Q", table).tobytes()
    return [
        int(buf[_lane_byte(e)::_TABLE_ITEM].translate(_LANE_DIGITS[e % 8])[::-1], 2)
        for e in range(n)
    ]


def _part_masks(M, A):
    """(acyclic part, cyclic part) of -_A M as masks, without the tiling check."""
    acyc = cyc = 0
    for supp, _, _ in _positive(M.cocircuit_data, A):
        acyc |= supp
    for supp, _, _ in _positive(M.circuit_data, A):
        cyc |= supp
    return acyc, cyc


def part_decomposition(M: OrientedMatroid, A: int):
    """Acyclic and cyclic parts of -_A M, returned as (acyclic, cyclic) frozensets.

    The cyclic part is the union of supports of positive circuits, the
    acyclic part the union of supports of positive cocircuits; for a valid
    oriented matroid the two tile the ground set, and a failed tiling
    raises InvalidOrientedMatroid.
    """
    _check_reorientation(M, A)
    acyc, cyc = _part_masks(M, A)
    if (acyc & cyc) or (acyc | cyc) != M.ground_mask:
        raise InvalidOrientedMatroid(
            "reorientation %d of %s does not split into acyclic and cyclic parts" % (A, M.name)
        )
    return frozenset(_elements_of(acyc)), frozenset(_elements_of(cyc))


# ----------------------------------------------------------------------
# instance files


def _is_list_of(value, item_type):
    return isinstance(value, list) and all(isinstance(x, item_type) for x in value)


def _mapping_fits(where, value, keys):
    """True iff value is a dict; a key outside keys raises ValueError naming it."""
    if not isinstance(value, dict):
        return False
    if not value.keys() <= keys:
        unknown = next(k for k in value if k not in keys)
        raise ValueError(
            "%s has unknown key %r (allowed: %s)" % (where, unknown, ", ".join(sorted(keys)))
        )
    return True


_SET_KEYS = frozenset(("pos", "neg"))


def _signed_fits(body):
    """True iff both lists hold only {"pos": list, "neg": list} mappings.

    A set with another key raises ValueError naming it; the key test is
    inlined, since it runs once per set of every loaded file.
    """
    lists = [body.get("circuits", []), body.get("cocircuits", [])]
    return all(isinstance(sets, list) for sets in lists) and all(
        isinstance(X, dict)
        and (X.keys() <= _SET_KEYS or _mapping_fits("signed set", X, _SET_KEYS))
        and isinstance(X.get("pos", []), list)
        and isinstance(X.get("neg", []), list)
        for sets in lists
        for X in sets
    )


# The one table of source kinds an instance file may hold.  Each row is
# (the body's shape, its container check, the keys a mapping body may
# have or None for a list body, the call that builds it).  Element and
# entry values are checked by the builders themselves.
_SOURCE_SHAPES = {
    "matrix": (
        "[[int, ...], ...]",
        lambda body: _is_list_of(body, list),
        None,
        lambda body, name: build_from_matrix(body, name=name),
    ),
    "graph": (
        '{"vertices": int, "edges": [[tail, head], ...]}',
        lambda body: _is_list_of(body.get("edges"), list) and _is_int(body.get("vertices", 0)),
        frozenset(("vertices", "edges")),
        lambda body, name: build_from_graph(
            body["edges"], vertices=body.get("vertices"), name=name
        ),
    ),
    "uniform": (
        '{"r": int, "n": int}',
        lambda body: "r" in body and "n" in body,
        frozenset(("r", "n")),
        lambda body, name: build_uniform(body["r"], body["n"], name=name),
    ),
    "signed": (
        '{"circuits": [{"pos": [...], "neg": [...]}, ...], "cocircuits": [...]}',
        _signed_fits,
        frozenset(("circuits", "cocircuits")),
        lambda body, name: build_from_signed_sets(
            body.get("circuits", ()), body.get("cocircuits", ()), name=name
        ),
    ),
}


def instance_from_dict(data) -> OrientedMatroid:
    """Build an instance from a parsed mapping {"name": ..., "source": {...}}.

    This is the one way an instance is written: instance files, the
    catalog and the survey families all hold such mappings.  The name, if
    given, must be a string; a missing or empty name gives "instance", for
    every kind.  The source holds exactly one kind of
    _SOURCE_SHAPES, with a body of that kind's shape and no key the row
    does not list; anything else raises ValueError.  Top-level keys other
    than name and source are ignored.
    """
    if not isinstance(data, dict) or "source" not in data:
        raise ValueError("instance data must be a mapping with a 'source' entry")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError("instance name must be a string, got %r" % (name,))
    source = data["source"]
    if not isinstance(source, dict) or len(source) != 1:
        raise ValueError("source must hold exactly one of %s" % "/".join(_SOURCE_SHAPES))
    (kind, body), = source.items()
    if kind not in _SOURCE_SHAPES:
        raise ValueError("unknown source kind %r" % (kind,))
    shape, fits, keys, build = _SOURCE_SHAPES[kind]
    if not ((keys is None or _mapping_fits("%s source" % kind, body, keys)) and fits(body)):
        raise ValueError("%s source must have the shape %s" % (kind, shape))
    return build(body, name or "instance")


def load_instance_file(path) -> OrientedMatroid:
    """Read a JSON instance file and build it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("malformed instance file %s: %s" % (path, exc)) from exc
    return instance_from_dict(data)
