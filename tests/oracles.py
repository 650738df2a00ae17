"""Independent reference implementations used to pin expected values.

These deliberately avoid the package's code paths: subset ranks come from
exact matrix elimination instead of the circuit-greedy oracle, positivity
checks rebuild per-element signs instead of comparing masks, and class
structure comes from breadth-first closure instead of a union-find forest.

The exceptions are the per-word loops the package's bitset kernels
replaced.  cube_minima_ref and sweep_ref visit, for each stored set, all
2^(n - |X|) words where it is positive, one word at a time; they pin the
per-element word bitsets, as tables, and the forests built from class
edges.  cube_minima_ref takes each set's order-minimum with this
module's minimum_under.  tutte_via_activities_ref sums the activities
word by word over cube_minima_ref's tables; it pins the bit-sliced
activity sum, on any signed lists.
subset_greedy_ref runs the circuit-greedy rank word by word, and
tutte_polynomial_ref sums the corank-nullity expansion over it; they pin
the bit-sliced sum in tutte_polynomial, on any circuit list.
active_partition builds one word's parts as threshold unions of the
supports positive_in finds positive there, and checks that they tile the
ground set; activity_classes_ref flips those parts at each class
representative, one class at a time.  They pin the leader sweep in
activity_classes, on any signed lists and order.
tiling_ref scans the acyclic/cyclic split word by word, and
orthogonality_ref compares every circuit with every cocircuit; they pin
the bitset checks in validate, on any lists.
elements_of_ref peels a mask's lowest set bit once per loop pass; it pins
the byte-lane table in core._elements_of.
Every name this module takes from omrev is one the package exports; the
word and order checks and the class listing are its own.
is_binary_ref tests every circuit/cocircuit support pair for an even
intersection, in storage order; it pins the per-element parity bitsets in
regularity.is_binary, verdict and witness, on any lists.
uniform_lists_ref writes U(r, n)'s Vandermonde-oriented lists from the
alternating formulas; it pins the chirotope-to-lists function at chi = +.
"""

import itertools
from array import array
from fractions import Fraction
from functools import lru_cache
from math import comb

from omrev import InvalidOrientedMatroid, RegularityVerdict, TuttePolynomial


def matrix_rank(rows, cols):
    """Exact rank of the selected columns of an integer matrix."""
    work = [[Fraction(row[c]) for c in cols] for row in rows]
    rank = 0
    for c in range(len(cols)):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][c]
        work[rank] = [x / pv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def uniform_lists_ref(r, n):
    """(circuits, cocircuits) of U(r, n) under Vandermonde columns, as
    (pos, neg) element tuples, from the alternating formulas.

    Every r columns in increasing order have a positive determinant, so the
    circuit on an (r+1)-set alternates in sign along the sorted set, and
    the cocircuit of the hyperplane spanned by an (r-1)-set T gives each e
    outside T the sign (-1)^|{t in T : t > e}|.  Both lists come in
    itertools.combinations order.
    """
    circuits = [(S[0::2], S[1::2]) for S in itertools.combinations(range(n), r + 1)]
    cocircuits = []
    for T in itertools.combinations(range(n), r - 1) if r else ():
        parts = ([], [])
        for e in range(n):
            if e not in T:
                parts[sum(t > e for t in T) % 2].append(e)
        cocircuits.append((tuple(parts[0]), tuple(parts[1])))
    return circuits, cocircuits


def tutte_coeffs_from_matrix(rows, n, rank=None):
    """Tutte coefficients of the column matroid by brute corank-nullity.

    Works directly on matrix ranks; returns (rank, coeffs) in the same
    row-per-x-degree layout the package uses.
    """
    all_cols = list(range(n))
    r = matrix_rank(rows, all_cols) if rank is None else rank
    nul = n - r
    cn = [[0] * (nul + 1) for _ in range(r + 1)]
    for S in range(1 << n):
        cols = [e for e in all_cols if (S >> e) & 1]
        rs = matrix_rank(rows, cols)
        cn[r - rs][len(cols) - rs] += 1
    return r, _coeffs_of_corank_nullity(cn)


def _coeffs_of_corank_nullity(cn):
    """Tutte coefficients from cn[a][b], the count of subsets of corank a and nullity b."""
    r, nul = len(cn) - 1, len(cn[0]) - 1
    coeffs = [[0] * (nul + 1) for _ in range(r + 1)]
    for i in range(r + 1):
        for j in range(nul + 1):
            total = 0
            for a in range(i, r + 1):
                for b in range(j, nul + 1):
                    total += (
                        cn[a][b]
                        * comb(a, i)
                        * comb(b, j)
                        * (-1) ** ((a - i) + (b - j))
                    )
            coeffs[i][j] = total
    return coeffs


def subset_greedy_ref(M):
    """Greedy independent-set mask for every subset word, by the prefix property.

    Word S keeps the greedy set of S minus its top element and adds that
    element unless a circuit with the same top element then fits inside.
    The circuits are grouped by top element here, apart from core's
    grouping that tutte_polynomial reads.
    """
    n = M.n
    by_top = [[] for _ in range(n)]
    for X in M.circuits:
        by_top[max(X.support)].append(X.support_mask)
    greedy = [0] * (1 << n)
    for S in range(1, 1 << n):
        top = 1 << (S.bit_length() - 1)
        prev = greedy[S ^ top]
        cand = prev | top
        for c in by_top[top.bit_length() - 1]:
            if c & cand == c:
                cand = prev
                break
        greedy[S] = cand
    return greedy


def tutte_polynomial_ref(M):
    """The Tutte polynomial by a per-word corank-nullity sum over subset_greedy_ref.

    Raises InvalidOrientedMatroid when the stored rank is not the ground
    set's greedy rank, or when some word's greedy rank or nullity exceeds
    the ground set's; TuttePolynomial itself rejects what is left over.
    """
    greedy = subset_greedy_ref(M)
    r = M.rank
    nul = M.n - r
    if greedy[-1].bit_count() != r:
        raise InvalidOrientedMatroid("stored rank %d is not the circuit rank" % r)
    cn = [[0] * (nul + 1) for _ in range(r + 1)]
    for S, kept in enumerate(greedy):
        rs = kept.bit_count()
        if rs > r or S.bit_count() - rs > nul:
            raise InvalidOrientedMatroid("word %d leaves the rank or nullity range" % S)
        cn[r - rs][S.bit_count() - rs] += 1
    return TuttePolynomial(r, _coeffs_of_corank_nullity(cn))


def check_word(n, A):
    """Reject A unless it is an n-bit word, with the package's message."""
    if not isinstance(A, int) or isinstance(A, bool) or A < 0 or A >> n:
        raise ValueError("reorientation %r is not an n-bit word for n=%d" % (A, n))


def check_order(n, order):
    """Reject an order that is not a permutation of range(n) made of ints
    (not bools or floats), with the package's message; None is the identity."""
    if order is None:
        return
    order = list(order)
    ints = all(isinstance(e, int) and not isinstance(e, bool) for e in order)
    if not ints or sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(%d)" % n)


def elements_of_ref(mask):
    """Set bits of a non-negative mask as an ascending element list."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@lru_cache(maxsize=1 << 14)
def _element_signs(pos_mask, neg_mask):
    """(e, 1 if e is in X+ else 0) for each element e of supp(X), ascending."""
    return tuple((e, pos_mask >> e & 1) for e in elements_of_ref(pos_mask | neg_mask))


def positive_in(X, A):
    """Sign-by-sign positivity of {X, -X} in the reorientation word A.

    Every element's sign after reorienting by A must equal the first
    element's; the first mismatch ends the scan.
    """
    signs = _element_signs(X.pos_mask, X.neg_mask)
    if not signs:
        return True
    first = signs[0][1] ^ (A >> signs[0][0] & 1)
    for e, s in signs:
        if s ^ (A >> e & 1) != first:
            return False
    return True


def _kind_sets(M, mode):
    sets = []
    if mode in ("circuit", "both"):
        sets.extend(M.circuits)
    if mode in ("cocircuit", "both"):
        sets.extend(M.cocircuits)
    return sets


def admitted(M, A, restriction):
    if restriction == "acyclic":
        return not any(positive_in(X, A) for X in M.circuits)
    if restriction == "totally_cyclic":
        return not any(positive_in(X, A) for X in M.cocircuits)
    return True


def bfs_classes(M, mode="both", restriction="all"):
    """Reversal classes by breadth-first closure; list of sorted member lists."""
    sets = _kind_sets(M, mode)
    seen = {}
    classes = []
    for start in range(1 << M.n):
        if start in seen or not admitted(M, start, restriction):
            continue
        comp = [start]
        seen[start] = start
        queue = [start]
        while queue:
            A = queue.pop()
            for X in sets:
                if not positive_in(X, A):
                    continue
                B = A ^ X.support_mask
                if B not in seen:
                    seen[B] = start
                    comp.append(B)
                    queue.append(B)
        classes.append(sorted(comp))
    return sorted(classes)


def tiling_ref(M):
    """The lowest word A whose acyclic and cyclic parts do not tile the
    ground set, or None.

    The acyclic part of -_A M is the union of the positive cocircuit
    supports, the cyclic part that of the positive circuit supports; they
    tile when they are disjoint and cover every element.
    """
    for A in range(1 << M.n):
        acyclic = cyclic = 0
        for X in M.cocircuits:
            if positive_in(X, A):
                acyclic |= X.support_mask
        for X in M.circuits:
            if positive_in(X, A):
                cyclic |= X.support_mask
        if acyclic & cyclic or acyclic | cyclic != M.ground_mask:
            return A
    return None


def orthogonality_ref(M):
    """The first (circuit, cocircuit) pair in list order whose signs agree
    somewhere on the common support but never differ, or the reverse;
    None when every pair is orthogonal."""
    for X in M.circuits:
        for Y in M.cocircuits:
            signs = {X.sign(e) * Y.sign(e) for e in X.support & Y.support}
            if len(signs) == 1:
                return X, Y
    return None


def is_binary_ref(M):
    """The even-intersection scan over all circuit/cocircuit support pairs:
    the first odd pair in storage order is the witness."""
    for X in M.circuits:
        for Y in M.cocircuits:
            if (X.support_mask & Y.support_mask).bit_count() % 2:
                return RegularityVerdict(False, (X.support, Y.support))
    return RegularityVerdict(True, None)


@lru_cache(maxsize=None)
def _position_key(order):
    """Key giving each element's position in the tuple order, built once per order."""
    return {e: k for k, e in enumerate(order)}.__getitem__


def minimum_under(elements, order):
    if order is None:
        return min(elements)
    return min(elements, key=_position_key(tuple(order)))


def is_minimal_ref(M, A, mode="both", order=None):
    for X in _kind_sets(M, mode):
        if positive_in(X, A) and (A >> minimum_under(X.support, order)) & 1:
            return False
    return True


def minimal_counts_ref(M, order=None):
    """The five minimality counts by direct per-word scans."""
    counts = [0] * 5
    for A in range(1 << M.n):
        c_min = is_minimal_ref(M, A, "circuit", order)
        d_min = is_minimal_ref(M, A, "cocircuit", order)
        acyclic = not any(positive_in(X, A) for X in M.circuits)
        tot_cyc = not any(positive_in(X, A) for X in M.cocircuits)
        counts[0] += c_min and d_min
        counts[1] += d_min
        counts[2] += c_min
        counts[3] += acyclic and d_min
        counts[4] += tot_cyc and c_min
    return tuple(counts)


def greedy_minimalize_ref(M, A, order=None):
    """The greedy walk by its stated rule, one flip per pass over all sets.

    Among the positive sets whose order-minimum lies in the current word,
    flip the one whose support, as a sorted list of order positions, is
    smallest.  Fails if the walk makes 2^n flips, more than the bound the
    walk is documented to keep on any input.
    """
    rank = {e: k for k, e in enumerate(range(M.n) if order is None else order)}
    B = A
    for _ in range(1 << M.n):
        best = None
        for X in M.circuits + M.cocircuits:
            if positive_in(X, B) and (B >> minimum_under(X.support, order)) & 1:
                key = sorted(rank[e] for e in X.support)
                if best is None or key < best[0]:
                    best = (key, X.support_mask)
        if best is None:
            return B
        B ^= best[1]
    raise AssertionError("greedy walk made 2^%d flips" % M.n)


def cube_minima_ref(M, order=None):
    """(circuit minima, cocircuit minima) tables by the flat visit, unmemoized.

    For each stored set X, OR its order-minimum bit into the entries of
    B | X- and B | X+ over all subsets B of the complement of supp(X).
    """
    check_order(M.n, order)
    full = M.ground_mask
    tables = []
    for data in (M.circuit_data, M.cocircuit_data):
        table = array("L", [0]) * (1 << M.n)
        for supp, pos, neg in data:
            mb = 1 << minimum_under(elements_of_ref(supp), order)
            comp = full & ~supp
            B = comp
            while True:
                table[B | neg] |= mb
                table[B | pos] |= mb
                if B == 0:
                    break
                B = (B - 1) & comp
        tables.append(table)
    return tuple(tables)


def tutte_via_activities_ref(M, order=None):
    """The activity generating sum word by word over the cube_minima_ref tables.

    Raises on the first word whose o exceeds the nullity or o* the rank,
    then on the first (o*, o) count not divisible by 2^(o + o*), with the
    package's messages.
    """
    r, nul = M.rank, M.n - M.rank
    counts = [[0] * (nul + 1) for _ in range(r + 1)]
    for A, act, dact in zip(range(1 << M.n), *cube_minima_ref(M, order)):
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
            if c % (1 << (i + j)):
                raise InvalidOrientedMatroid(
                    "activity count %d at (o*=%d, o=%d) of %s is not divisible by 2^%d"
                    % (c, i, j, M.name, i + j)
                )
            coeffs[i][j] = c >> (i + j)
    return TuttePolynomial(r, coeffs)


class ActivePart:
    """One part of an active partition: a leader and its element block."""

    __slots__ = ("leader", "elements_mask", "side")

    def __init__(self, leader, elements_mask, side):
        self.leader = leader
        self.elements_mask = elements_mask
        self.side = side  # "circuit" or "cocircuit"

    @property
    def elements(self) -> frozenset:
        return frozenset(elements_of_ref(self.elements_mask))

    def __repr__(self):
        return "ActivePart(leader=%d, elements=%r, side=%r)" % (
            self.leader,
            elements_of_ref(self.elements_mask),
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
    check_word(M.n, A)
    check_order(M.n, order)
    key = {e: k for k, e in enumerate(range(M.n) if order is None else order)}.__getitem__
    sides = []
    for sets, side in ((M.circuits, "circuit"), (M.cocircuits, "cocircuit")):
        entries = [
            (X.support_mask, minimum_under(X.support, order))
            for X in sets
            if positive_in(X, A)
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
        if minimum_under(elements_of_ref(p.elements_mask), order) != p.leader:
            raise InvalidOrientedMatroid(
                "leader %d is not the minimum of its part at reorientation %d"
                % (p.leader, A)
            )
    if covered != M.ground_mask:
        raise InvalidOrientedMatroid(
            "active partition misses elements at reorientation %d of %s" % (A, M.name)
        )
    return ActivePartition(sorted(parts, key=lambda p: key(p.leader)))


class ClassesRef:
    """Classes of all 2^n words by ascending representative, with the
    class_of lookup of an ActivityClasses."""

    def __init__(self, n, classes, class_of):
        self.n = n
        self.classes = tuple(classes)
        self._class_of = class_of

    def class_of(self, A):
        check_word(self.n, A)
        return self._class_of[A]


def activity_classes_ref(M, order=None):
    """Activity classes by flipping the parts at each representative in turn.

    Raises InvalidOrientedMatroid where active_partition does, or when a
    representative's flips reach a smaller word or a word already classed.
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
    return ClassesRef(M.n, classes, class_of)


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


def sweep_ref(M, generators):
    """(rep_of, class count) uniting every generator pair over all n-bit words."""
    parent = list(range(1 << M.n))
    union = _union_find(parent)
    full = M.ground_mask
    for supp, pos, neg in generators:
        comp = full & ~supp
        B = comp
        while True:
            union(B | neg, B | pos)
            if B == 0:
                break
            B = (B - 1) & comp
    return _classes(parent)


def reversal_classes_ref(M, mode, restriction):
    """(rep_of, class count) of one setting from the flat loops alone.

    The mode's generators are swept together, and a restricted setting
    keeps the words where the cube_minima_ref table of the excluded kind
    is zero.  None when a class mixes admitted and other words.
    """
    generators = [(X.support_mask, X.pos_mask, X.neg_mask) for X in _kind_sets(M, mode)]
    rep_of, count = sweep_ref(M, generators)
    if restriction == "all":
        return rep_of, count
    outside = cube_minima_ref(M)[0 if restriction == "acyclic" else 1]
    if any((outside[A] == 0) != (outside[rep] == 0) for A, rep in enumerate(rep_of)):
        return None
    out = [rep if outside[A] == 0 else -1 for A, rep in enumerate(rep_of)]
    return out, sum(rep == A for A, rep in enumerate(out))
