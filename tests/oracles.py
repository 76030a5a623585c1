"""The tests' references, independent of the production shortcuts.

The positive roots of a factor tuple are the orbit of the simple roots
under the simple reflections s_i(v) = v - <v, alpha_i^vee> alpha_i, kept
where no coefficient is negative.  The Cartan matrix is rebuilt from the
edges of ``diagram_of``, so the oracle shares only the Bourbaki bonds
with the library.

The Levi reference cuts one node at a time with ``remove_node`` and
classifies what is left as one graph, products included: the way
``gp_invariants`` read its Levi factors before ``classify_components``
read them factor by factor.
"""

from __future__ import annotations

from functools import lru_cache

from roofscope import VarietyInvariants, diagram_of, remove_node
from roofscope.dynkin import _classify_graph
from roofscope.root_system import _two_rho, positive_root_count, simple_types

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


def surgery_components(d, removed=()):
    """The components of d minus ``removed``: one ``remove_node`` per node,
    then the graph classifier on the whole cut diagram."""
    for j in sorted(removed):
        d = remove_node(d, j)
    return _classify_graph(list(d.nodes), d.edges)


def surgery_gp_invariants(md):
    """``gp_invariants`` on the Levi components of ``surgery_components``."""
    d = md.diagram
    marks = sorted(md.marks)
    levi_shapes = surgery_components(d, marks)
    dim = sum(positive_root_count(s.type) for s in surgery_components(d))
    dim -= sum(positive_root_count(s.type) for s in levi_shapes)
    levi_two_rho = {}
    for shape in levi_shapes:
        levi_two_rho.update(zip(shape.embedding, _two_rho(shape.type)))
    coeff = {m: 2 for m in marks}
    for e in d.edges:
        for m, j in ((e.a, e.b), (e.b, e.a)):
            if m in coeff and j in levi_two_rho:
                coeff[m] += (e.mult if e.target == m else 1) * levi_two_rho[j]
    vec = tuple((m, coeff[m]) for m in marks)
    return VarietyInvariants(dim=dim, picard=len(marks), index_vector=vec)
