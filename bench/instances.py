"""Seeded benchmark instances, generated without calling omrev.

Every base instance is one fixed oriented matroid: a Vandermonde uniform
U(r, n), its dual, or a directed graph.  A seed picks an element
relabelling and a reorientation of it; for graphs it also relabels the
vertices, permutes the edges and flips edge directions.  Each seed thus
gives an isomorphic instance: the Tutte evaluations, the class counts in
every setting and the regular flag do not change, and the cost stays
nearly the same.

Signed lists come from exact integer arithmetic: Cramer determinant
signs on (r+1)-column sets for circuits and determinant signs against an
(r-1)-column hyperplane for cocircuits of a uniform matrix, and signed
simple cycles and bonds for a graph.  The set-up stage therefore times
only this module and the file writes, never an omrev function.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")


def load_expected():
    """Frozen tables per base instance, produced on the seed commit."""
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)["tables"]


# ----------------------------------------------------------------------
# exact integer linear algebra


def det(columns):
    """Determinant of the square matrix with the given columns (Bareiss)."""
    k = len(columns)
    a = [[columns[j][i] for j in range(k)] for i in range(k)]
    sign, prev = 1, 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for j in range(i + 1, k):
                if a[j][i]:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, k):
            for m in range(i + 1, k):
                a[j][m] = (a[j][m] * a[i][i] - a[j][i] * a[i][m]) // prev
        prev = a[i][i]
    return sign * a[k - 1][k - 1] if k else 1


def _signed(coeffs):
    """(pos, neg) element lists of an {element: nonzero int} mapping."""
    pos = sorted(e for e, c in coeffs.items() if c > 0)
    neg = sorted(e for e, c in coeffs.items() if c < 0)
    return pos, neg


def uniform_signed(matrix):
    """Circuits and cocircuits of an r x n integer matrix in general position.

    Every r columns must be independent.  The circuit on an (r+1)-set S
    has coefficient (-1)^i det(S minus its i-th element) on that element
    (Laplace expansion of a matrix with a repeated row); the cocircuit of
    the hyperplane spanned by an (r-1)-set T has sign det(T, e) on each e
    outside T.
    """
    r, n = len(matrix), len(matrix[0])
    cols = [[row[e] for row in matrix] for e in range(n)]
    circuits = []
    for S in itertools.combinations(range(n), r + 1):
        coeffs = {}
        for i, e in enumerate(S):
            d = det([cols[f] for f in S if f != e])
            if d == 0:
                raise ValueError("columns are not in general position")
            coeffs[e] = -d if i % 2 else d
        circuits.append(_signed(coeffs))
    cocircuits = []
    for T in itertools.combinations(range(n), r - 1):
        base = [cols[f] for f in T]
        coeffs = {}
        for e in range(n):
            if e in T:
                continue
            d = det(base + [cols[e]])
            if d == 0:
                raise ValueError("columns are not in general position")
            coeffs[e] = d
        cocircuits.append(_signed(coeffs))
    return circuits, cocircuits


def _connected(vertices, adjacency):
    """True iff the vertex set induces a connected subgraph."""
    if not vertices:
        return False
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for w, _, _ in adjacency[v]:
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def graph_signed(vertices, edges):
    """Signed simple cycles and bonds of a connected loopless directed graph.

    A cycle signs an edge + when traversed from tail to head and - when
    traversed against it.  The bond of a vertex set S with both S and its
    complement connected signs an edge + when it enters S and - when it
    leaves S.
    """
    adjacency = [[] for _ in range(vertices)]
    for j, (u, v) in enumerate(edges):
        if u == v:
            raise ValueError("loops are not supported")
        adjacency[u].append((v, j, 1))
        adjacency[v].append((u, j, -1))

    circuits, seen = [], set()

    def extend(start, v, on_path, coeffs):
        for w, j, sign in adjacency[v]:
            if j in coeffs:
                continue
            if w == start:
                key = frozenset(coeffs) | {j}
                if key not in seen:
                    seen.add(key)
                    circuits.append(_signed({**coeffs, j: sign}))
            elif w > start and w not in on_path:
                on_path.add(w)
                coeffs[j] = sign
                extend(start, w, on_path, coeffs)
                del coeffs[j]
                on_path.discard(w)

    for start in range(vertices):
        extend(start, start, {start}, {})

    everything = set(range(vertices))
    if not _connected(everything, adjacency):
        raise ValueError("graph is not connected")
    cocircuits = []
    for bits in range(1, 1 << (vertices - 1)):
        # vertex vertices-1 always stays outside S, so each cut is seen once
        inside = {v for v in range(vertices) if bits >> v & 1}
        if not (_connected(inside, adjacency) and _connected(everything - inside, adjacency)):
            continue
        coeffs = {}
        for j, (u, v) in enumerate(edges):
            if (u in inside) != (v in inside):
                coeffs[j] = 1 if v in inside else -1
        cocircuits.append(_signed(coeffs))
    return circuits, cocircuits


# ----------------------------------------------------------------------
# base instances and their seeded transforms


def vandermonde(r, n):
    """Columns (1, t, ..., t^(r-1)) for t = 1..n, as omrev.build_uniform uses."""
    return [[(t + 1) ** p for t in range(n)] for p in range(r)]


def wheel(k):
    """Hub 0 with spokes to the rim 1..k, then the rim cycle: 2k edges."""
    return k + 1, [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]


def complete(m):
    return m, [(i, j) for i in range(m) for j in range(i + 1, m)]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


GRAPHS = {
    "K4": complete(4),
    "K5": complete(5),
    "K3,3": complete_bipartite(3, 3),
    "W5": wheel(5),
    "W6": wheel(6),
    "W7": wheel(7),
}


def uniform_name(r, n):
    return "U(%d,%d)" % (r, n)


def _parse_uniform(name):
    r, n = name[2:-1].split(",")
    return int(r), int(n)


class Transform:
    """Element relabelling plus reorientation; graphs also get a vertex map.

    perm[e] is the new label of element e and flip is the set of original
    elements whose sign is reversed.  Without an rng it is the identity.
    """

    def __init__(self, n, vertices=0, rng=None):
        self.perm = list(range(n))
        self.vertex_perm = list(range(vertices))
        self.flip = set()
        if rng is not None:
            rng.shuffle(self.perm)
            self.flip = {e for e in range(n) if rng.random() < 0.5}
            rng.shuffle(self.vertex_perm)

    def matrix(self, matrix):
        out = [[0] * len(row) for row in matrix]
        for i, row in enumerate(matrix):
            for e, x in enumerate(row):
                out[i][self.perm[e]] = -x if e in self.flip else x
        return out

    def graph(self, edges):
        out = [None] * len(edges)
        for e, (u, v) in enumerate(edges):
            if e in self.flip:
                u, v = v, u
            out[self.perm[e]] = (self.vertex_perm[u], self.vertex_perm[v])
        return out


def instance_source(base, kind, seed):
    """JSON-ready instance {"name", "source"} for one base instance.

    base: "U(r,n)", "dual U(r,n)" or a GRAPHS key.
    kind: "matrix" (uniform: the Vandermonde matrix; graph: the edge list)
          or "signed" (explicit circuit and cocircuit lists).
    seed: None for the untransformed instance, else any int or str.
    """
    is_dual = base.startswith("dual ")
    core_name = base[5:] if is_dual else base
    if core_name in GRAPHS:
        vertices, edges = GRAPHS[core_name]
        n = len(edges)
    else:
        r, n = _parse_uniform(core_name)
        vertices = 0
    rng = None if seed is None else random.Random("%s|%s" % (seed, core_name))
    t = Transform(n, vertices, rng)

    if core_name in GRAPHS:
        edges = t.graph(edges)
        if kind == "matrix":
            body = {"vertices": vertices, "edges": [list(e) for e in edges]}
            return {"name": base, "source": {"graph": body}}
        circuits, cocircuits = graph_signed(vertices, edges)
    else:
        matrix = t.matrix(vandermonde(r, n))
        if kind == "matrix":
            return {"name": base, "source": {"matrix": matrix}}
        circuits, cocircuits = uniform_signed(matrix)
    if kind != "signed":
        raise ValueError("unknown source kind %r" % (kind,))
    if is_dual:
        circuits, cocircuits = cocircuits, circuits
    signed = {
        "circuits": [{"pos": p, "neg": q} for p, q in circuits],
        "cocircuits": [{"pos": p, "neg": q} for p, q in cocircuits],
    }
    return {"name": base, "source": {"signed": signed}}


def instance_texts(bases, kind, seed):
    """The JSON text of each base instance's file."""
    return [json.dumps(instance_source(base, kind, seed)) for base in bases]


def write_texts(directory, texts):
    """Write one numbered file per text; return the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, text in enumerate(texts):
        path = directory / ("%02d.json" % i)
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def write_instances(directory, bases, kind, seed):
    """Generate and write one JSON file per base instance; return the paths."""
    return write_texts(directory, instance_texts(bases, kind, seed))
