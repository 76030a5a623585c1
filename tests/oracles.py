"""The tests' references, independent of the production shortcuts.

The positive roots of a factor tuple are the orbit of the simple roots
under the simple reflections s_i(v) = v - <v, alpha_i^vee> alpha_i, kept
where no coefficient is negative.  The Cartan matrix is rebuilt from the
edges of ``diagram_of``, so the oracle shares only the Bourbaki bonds
with the library.

The graph classifier (``_classify_graph``) is the reference for
``dynkin.chain_components``: it finds the connected components of any
Dynkin graph, names each one from its degrees, bonds and arms
(``_identify``), and checks the embedding it names against the model
diagram of that type (``_verify``).  It was the production path for E, F
and G factors until the closed form covered all seven letters.

The Levi reference cuts one node at a time with ``remove_node`` and
classifies what is left as one graph, products included: the way
``gp_invariants`` read its Levi factors before ``classify_components``
read them factor by factor.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from roofscope import VarietyInvariants, diagram_of, remove_node
from roofscope.dynkin import ComponentShape, Edge
from roofscope.root_system import SimpleType, _two_rho, positive_root_count, simple_types

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


# --- the graph classifier ------------------------------------------------------

def _corrupt(nodes: Iterable[int]) -> ValueError:
    listed = ",".join(map(str, sorted(nodes)))
    return ValueError(f"component on nodes {listed} matches no simple Dynkin graph")


def _walk(start: int, adj: dict[int, list[int]], avoid: int | None = None) -> list[int]:
    # follow a path (all degrees <= 2) away from `avoid`
    order = [start]
    prev, cur = avoid, start
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            return order
        prev, cur = cur, nxt[0]
        order.append(cur)


def _identify(nodes: list[int], edges: list[Edge]) -> ComponentShape:
    n = len(nodes)
    if n == 1:
        return ComponentShape(SimpleType("A", 1), (nodes[0],))
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for e in edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    for v in adj:
        adj[v].sort()
    deg = {v: len(adj[v]) for v in nodes}

    triple = [e for e in edges if e.mult == 3]
    double = [e for e in edges if e.mult == 2]
    if triple:
        if n != 2 or double:
            raise _corrupt(nodes)
        e = triple[0]
        return ComponentShape(SimpleType("G", 2), (e.source, e.target))

    if double:
        if len(double) > 1 or any(d > 2 for d in deg.values()):
            raise _corrupt(nodes)
        e = double[0]
        if n == 2:
            # rank-2 double bond is reported as C2: node 1 short, node 2 long
            return ComponentShape(SimpleType("C", 2), (e.target, e.source))
        if deg[e.source] == 1:
            # long end of the path: C_n with position n at the arrow source
            path = _walk(e.source, adj)
            return ComponentShape(SimpleType("C", n), tuple(reversed(path)))
        if deg[e.target] == 1:
            path = _walk(e.target, adj)
            return ComponentShape(SimpleType("B", n), tuple(reversed(path)))
        # interior double bond: only F4 qualifies
        if n != 4:
            raise _corrupt(nodes)
        left = [x for x in adj[e.source] if x != e.target]
        right = [x for x in adj[e.target] if x != e.source]
        if len(left) != 1 or len(right) != 1:
            raise _corrupt(nodes)
        return ComponentShape(SimpleType("F", 4), (left[0], e.source, e.target, right[0]))

    # simply laced
    forks = [v for v in nodes if deg[v] >= 3]
    if not forks:
        ends = [v for v in nodes if deg[v] == 1]
        if len(ends) != 2:
            raise _corrupt(nodes)
        path = _walk(min(ends), adj)
        return ComponentShape(SimpleType("A", n), tuple(path))
    if len(forks) > 1 or deg[forks[0]] != 3:
        raise _corrupt(nodes)
    center = forks[0]
    branches = sorted(
        (_walk(nb, adj, avoid=center) for nb in adj[center]),
        key=lambda br: (len(br), br[-1]),
    )
    lens = [len(b) for b in branches]
    if lens[0] == 1 and lens[1] == 1:
        # D_n; fork positions n-1, n take the smaller global index first
        rank = lens[2] + 3
        if rank == 4:
            leaves = sorted(b[0] for b in branches)
            embedding = (leaves[0], center, leaves[1], leaves[2])
        else:
            tail = branches[2]
            fork = sorted((branches[0][0], branches[1][0]))
            embedding = tuple(reversed(tail)) + (center, fork[0], fork[1])
        return ComponentShape(SimpleType("D", rank), embedding)
    if lens[0] == 1 and lens[1] == 2 and 2 <= lens[2] <= 4:
        rank = lens[2] + 4
        short, mid, long_ = branches  # for E6 the (len, leaf) sort fixes mid vs long
        embedding = (mid[1], short[0], mid[0], center) + tuple(long_)
        return ComponentShape(SimpleType("E", rank), embedding)
    raise _corrupt(nodes)


def _verify(shape: ComponentShape, edges: list[Edge], nodes: list[int]) -> None:
    # the embedding must be a graph isomorphism preserving mult and arrows
    model = diagram_of((shape.type,))
    emb = shape.embedding

    def translate(e: Edge) -> Edge:
        u, v = emb[e.a - 1], emb[e.b - 1]
        src = None if e.source is None else emb[e.source - 1]
        if u > v:
            u, v = v, u
        return Edge(u, v, e.mult, src)

    if {translate(e) for e in model.edges} != set(edges):
        raise _corrupt(nodes)


def _classify_graph(nodes: list[int], edges: Iterable[Edge]) -> list[ComponentShape]:
    # the generic path: identify each component, then verify the embedding
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    edges_at: dict[int, list[Edge]] = {v: [] for v in nodes}  # keyed by e.a
    for e in edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
        edges_at[e.a].append(e)
    seen: set[int] = set()
    shapes: list[ComponentShape] = []
    for start in nodes:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort()
        comp_edges = [e for v in comp for e in edges_at[v]]
        shape = _identify(comp, comp_edges)
        _verify(shape, comp_edges, comp)
        shapes.append(shape)
    return shapes


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
