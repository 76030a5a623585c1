"""The tests' one root-system reference, independent of the closed forms.

The positive roots of a factor tuple are the orbit of the simple roots
under the simple reflections s_i(v) = v - <v, alpha_i^vee> alpha_i, kept
where no coefficient is negative.  The Cartan matrix is rebuilt from the
edges of ``diagram_of``, so the oracle shares only the Bourbaki bonds
with the library.
"""

from __future__ import annotations

from functools import lru_cache

from roofscope import diagram_of
from roofscope.root_system import simple_types

ALL_SIMPLE = simple_types(8)


@lru_cache(maxsize=None)
def cartan(factors):
    """``cartan[i][j] = <alpha_j, alpha_i^vee>``: -mult in the short root's row."""
    d = diagram_of(factors)
    n = d.total_rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for e in d.edges:
        if e.mult == 1:
            m[e.a - 1][e.b - 1] = m[e.b - 1][e.a - 1] = -1
        else:
            m[e.source - 1][e.target - 1] = -1
            m[e.target - 1][e.source - 1] = -e.mult
    return tuple(tuple(row) for row in m)


def pairing(factors, v, i):
    """<v, alpha_i^vee> for a root-basis vector v; node i is 1-based."""
    return sum(c * a for c, a in zip(v, cartan(factors)[i - 1]))


@lru_cache(maxsize=None)
def positive_roots(factors):
    """The positive roots of a factor tuple, as root-basis vectors."""
    n = len(cartan(factors))
    simple = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    roots = simple | {tuple(-c for c in v) for v in simple}
    frontier = set(roots)
    while frontier:
        images = set()
        for v in frontier:
            for i in range(n):
                p = pairing(factors, v, i + 1)
                images.add(tuple(c - p * (j == i) for j, c in enumerate(v)))
        frontier = images - roots
        roots |= frontier
    return frozenset(v for v in roots if min(v) >= 0)
