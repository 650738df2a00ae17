"""Closed-form Tutte evaluations of two graph families, from the literature.

Nothing here imports omrev, so these numbers check the package without
sharing a line of it.  FAMILIES maps each graph's name to its directed
edge list, as (tail, head) pairs, and its evaluations t(x, y) keyed by
the point (x, y).

- Wheel W_k (hub 0, rim 1..k, n = 2k edges): t(1, 1) = L(2k) - 2, its
  spanning trees, with L the Lucas numbers (Myers, "Number of spanning
  trees in a wheel", 1971).  t(2, 0) = 3^k - 3, its acyclic orientations
  (Stanley, "Acyclic orientations of graphs", 1973), |P(-1)| of its
  chromatic polynomial P(x) = x((x - 2)^k + (-1)^k (x - 2)).  t(0, 2) is
  the same number, since the planar dual of a wheel is a wheel.
- Complete graph K_m: t(1, 1) = m^(m - 2), its spanning trees (Cayley).
  t(1, 0) = (m - 1)!, the acyclic orientations with one fixed source
  (Greene and Zaslavsky, 1983).  t(2, 0) = m!, its acyclic orientations,
  one per vertex order.
"""

from math import factorial


def lucas(i):
    """The i-th Lucas number: L(0) = 2, L(1) = 1, L(i) = L(i - 1) + L(i - 2)."""
    a, b = 2, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def wheel(k):
    """Spokes 0 -> i, then the rim cycle i -> i % k + 1, for i = 1..k."""
    edges = [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]
    return edges, {(1, 1): lucas(2 * k) - 2, (2, 0): 3**k - 3, (0, 2): 3**k - 3}


def complete(m):
    """Edges i -> j for i < j."""
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return edges, {(1, 1): m ** (m - 2), (1, 0): factorial(m - 1), (2, 0): factorial(m)}


FAMILIES = {
    **{"W%d" % k: wheel(k) for k in range(3, 8)},
    **{"K%d" % m: complete(m) for m in (4, 5)},
}
