"""Marked Dynkin diagrams: text grammar, node surgery, classification.

Grammar (whitespace forbidden)::

    diagram := factor ("*" factor)? (":" marks)?
    factor  := letter rank              letter in A..G, rank decimal
    marks   := index ("," index)*       global 1-based node indices

Node indices continue across ``*``-joined factors, so ``A2*A2:1,4``
marks node 1 of the first factor and node 2 of the second.  Marks are
sorted ascending in the canonical serialization, and at least one mark
is required.

The rank-2 double-bond diagram is canonically ``C2`` (node 1 short,
node 2 long).  The alias ``B2`` is accepted on input and remapped, so
``B2:1`` means ``C2:2``.  Other non-canonical spellings (``D3``,
``D2``, ``C1``, ...) are rejected with the canonical form named.

Arrows on multiple bonds point from the long root to the short root
(B_n: n-1 -> n, C_n: n -> n-1, F4: 2 -> 3, G2: 1 -> 2); see
:mod:`roofscope.root_system` for the numbering.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .root_system import SimpleType, _bonds, _make_checked


class ParseError(ValueError):
    """A diagram string rejected by the grammar; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position + 1})")
        self.position = position


class _EdgeFields(NamedTuple):
    a: int
    b: int
    mult: int
    source: int | None


class Edge(_EdgeFields):
    """An edge between global nodes a < b.

    ``source`` is the long-root end for bond multiplicity >= 2 and None
    for simple bonds.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, a: int, b: int, mult: int, source: int | None) -> Edge:
        if a >= b:
            raise ValueError("edge endpoints must satisfy a < b")
        if mult not in (1, 2, 3):
            raise ValueError("bond multiplicity is 1, 2 or 3")
        if mult == 1 and source is not None:
            raise ValueError("simple bonds carry no arrow")
        if mult > 1 and source not in (a, b):
            raise ValueError("arrow source must be an endpoint")
        return tuple.__new__(cls, (a, b, mult, source))

    @property
    def target(self) -> int | None:
        if self.source is None:
            return None
        return self.b if self.source == self.a else self.a


class _DiagramFields(NamedTuple):
    factors: tuple[SimpleType, ...]
    nodes: tuple[int, ...]
    edges: frozenset[Edge]


class Diagram(_DiagramFields):
    """A Dynkin graph on (a subset of) the global nodes of 1 or 2 factors.

    ``factors`` always records the full ambient diagram; ``nodes`` lists
    the surviving global indices, so a freshly built diagram has nodes
    1..N while node removal keeps the original numbering.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(
        cls,
        factors: tuple[SimpleType, ...],
        nodes: tuple[int, ...],
        edges: frozenset[Edge],
    ) -> Diagram:
        if not 1 <= len(factors) <= 2:
            raise ValueError("a diagram has 1 or 2 factors")
        total = sum(f.rank for f in factors)
        if tuple(sorted(nodes)) != nodes:
            raise ValueError("nodes must be sorted ascending")
        for v in nodes:
            if not 1 <= v <= total:
                raise ValueError(f"node {v} out of range 1..{total}")
        alive = set(nodes)
        for e in edges:
            if e.a not in alive or e.b not in alive:
                raise ValueError("edge endpoints must be surviving nodes")
        return tuple.__new__(cls, (factors, nodes, edges))

    @property
    def total_rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def is_full(self) -> bool:
        return len(self.nodes) == self.total_rank

    def __str__(self) -> str:
        body = "*".join(str(f) for f in self.factors)
        if self.is_full:
            return body
        return f"{body} on nodes {','.join(map(str, self.nodes))}"


class _MarkedDiagramFields(NamedTuple):
    diagram: Diagram
    marks: frozenset[int]


class MarkedDiagram(_MarkedDiagramFields):
    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, diagram: Diagram, marks: frozenset[int]) -> MarkedDiagram:
        if not marks:
            raise ValueError("at least one mark is required")
        alive = set(diagram.nodes)
        for m in marks:
            if m not in alive:
                raise ValueError(f"mark {m} is not a node of the diagram")
        return tuple.__new__(cls, (diagram, marks))

    def __str__(self) -> str:
        if self.diagram.is_full:
            return serialize(self)
        return f"{self.diagram} marked {','.join(map(str, sorted(self.marks)))}"


@lru_cache(maxsize=None)
def diagram_of(factors: tuple[SimpleType, ...]) -> Diagram:
    """The full diagram of one or two factors, edges read off the Bourbaki bonds."""
    edges = []
    offset = 0
    for f in factors:
        for i, j, ij, ji in _bonds(f):
            source = None
            if ij * ji > 1:
                # the long root's row holds the -1
                source = offset + (i if ij == -1 else j) + 1
            edges.append(Edge(offset + i + 1, offset + j + 1, ij * ji, source))
        offset += f.rank
    return Diagram(
        factors=factors,
        nodes=tuple(range(1, offset + 1)),
        edges=frozenset(edges),
    )


def cartan_from_edges(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """Rebuild the Cartan matrix of a full diagram from its edge set."""
    if not d.is_full:
        raise ValueError("only full diagrams determine a Cartan matrix here")
    n = d.total_rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for e in d.edges:
        if e.mult == 1:
            m[e.a - 1][e.b - 1] = -1
            m[e.b - 1][e.a - 1] = -1
        else:
            other = e.target
            m[e.source - 1][other - 1] = -1
            m[other - 1][e.source - 1] = -e.mult
    return tuple(tuple(row) for row in m)


# --- grammar ---------------------------------------------------------------

def parse(text: str) -> MarkedDiagram:
    """Parse a diagram string; the round trip ``serialize(parse(t))`` canonicalizes."""
    for k, ch in enumerate(text):
        if ch.isspace():
            raise ParseError("whitespace is not allowed", k)
    pos = 0

    def fail(msg: str, at: int | None = None):
        raise ParseError(msg, pos if at is None else at)

    def read_factor():
        nonlocal pos
        if pos >= len(text) or not text[pos].isalpha():
            fail("expected a type letter")
        letter = text[pos]
        start = pos
        pos += 1
        digits = ""
        while pos < len(text) and text[pos].isdigit():
            digits += text[pos]
            pos += 1
        if not digits:
            fail("expected a rank after the type letter", start)
        rank = int(digits)
        if letter == "B" and rank == 2:
            # alias: B2 node 1 (long) is C2 node 2
            return SimpleType("C", 2), {1: 2, 2: 1}
        try:
            return SimpleType(letter, rank), None
        except ValueError as exc:
            raise ParseError(str(exc), start) from None

    factors: list[SimpleType] = []
    remaps: list[dict[int, int] | None] = []
    t, remap = read_factor()
    factors.append(t)
    remaps.append(remap)
    if pos < len(text) and text[pos] == "*":
        pos += 1
        t, remap = read_factor()
        factors.append(t)
        remaps.append(remap)

    marks: list[int] = []
    if pos < len(text):
        if text[pos] != ":":
            fail(f"unexpected character {text[pos]!r}")
        pos += 1
        while True:
            start = pos
            digits = ""
            while pos < len(text) and text[pos].isdigit():
                digits += text[pos]
                pos += 1
            if not digits:
                fail("expected a mark index", start)
            marks.append(int(digits))
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            break
        if pos < len(text):
            fail(f"unexpected character {text[pos]!r}")
    if not marks:
        raise ParseError("at least one mark is required", len(text) - 1 if text else 0)

    total = sum(f.rank for f in factors)
    offsets = [0, factors[0].rank]
    remapped: list[int] = []
    seen: set[int] = set()
    for m in marks:
        if not 1 <= m <= total:
            raise ParseError(f"mark {m} out of range 1..{total}", 0)
        k = 0 if m <= factors[0].rank else 1
        local = m - offsets[k]
        if remaps[k] is not None:
            local = remaps[k][local]
        g = offsets[k] + local
        if g in seen:
            raise ParseError(f"duplicate mark {m}", 0)
        seen.add(g)
        remapped.append(g)

    return MarkedDiagram(diagram_of(tuple(factors)), frozenset(remapped))


def serialize(md: MarkedDiagram) -> str:
    """Canonical text form: factors joined by '*', marks sorted ascending."""
    d = md.diagram
    if not d.is_full:
        raise ValueError("a diagram with removed nodes has no grammar form")
    body = "*".join(str(f) for f in d.factors)
    return body + ":" + ",".join(str(m) for m in sorted(md.marks))


# --- surgery ---------------------------------------------------------------

def remove_node(d: Diagram, j: int) -> Diagram:
    """Delete node j and its incident edges; surviving indices are preserved."""
    if j not in d.nodes:
        raise ValueError(f"node {j} is not in the diagram")
    return Diagram(
        factors=d.factors,
        nodes=tuple(v for v in d.nodes if v != j),
        edges=frozenset(e for e in d.edges if j not in (e.a, e.b)),
    )


# --- component classification ----------------------------------------------

class ComponentShape(NamedTuple):
    """A connected component identified as a simple type.

    ``embedding[p-1]`` is the global node sitting at Bourbaki position p.
    """

    type: SimpleType
    embedding: tuple[int, ...]

    def position_of(self, node: int) -> int:
        """Bourbaki position (1-based) of a global node."""
        return self.embedding.index(node) + 1


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


def classify_components(d: Diagram) -> list[ComponentShape]:
    """Identify every connected component, ordered by smallest global node.

    Rank-2 double-bond residuals come back as C2 and rank-1 residuals as
    A1, regardless of the factor they were cut from.
    """
    adj: dict[int, list[int]] = {v: [] for v in d.nodes}
    edges_at: dict[int, list[Edge]] = {v: [] for v in d.nodes}  # keyed by e.a
    for e in d.edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
        edges_at[e.a].append(e)
    seen: set[int] = set()
    shapes: list[ComponentShape] = []
    for start in d.nodes:
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
