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

Components are read factor by factor, with any set of nodes removed at
once (``classify_components``).  Each factor, of any of the seven
letters, is read in closed form off its Bourbaki spine, pendant node and
multiple bond (``chain_components``); no graph is searched.
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
        if tuple(sorted(set(nodes))) != nodes:
            raise ValueError("nodes must be sorted ascending, each at most once")
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


def classify_components(d: Diagram, removed: Iterable[int] = ()) -> list[ComponentShape]:
    """Identify every connected component of d minus the nodes ``removed``,
    ordered by smallest global node.

    Rank-2 double-bond residuals come back as C2 and rank-1 residuals as
    A1, regardless of the factor they were cut from.  Each factor is read
    on its own by ``chain_components`` from the nodes it lacks, so its
    edges must be the ones ``diagram_of`` and ``remove_node`` leave.
    """
    alive = set(d.nodes)
    gone = set(removed)
    if not gone <= alive:
        raise ValueError(f"removed nodes must be nodes of {d}")
    alive -= gone
    shapes: list[ComponentShape] = []
    offset = 0
    for t in d.factors:
        span = range(offset + 1, offset + t.rank + 1)
        for s in chain_components(t, [v - offset for v in span if v not in alive]):
            if offset:
                s = ComponentShape(s.type, tuple(v + offset for v in s.embedding))
            shapes.append(s)
        offset += t.rank
    return shapes


# --- closed form for one factor ----------------------------------------------

def _shape(letter: str, embedding: tuple[int, ...]) -> ComponentShape:
    return ComponentShape(SimpleType(letter, len(embedding)), embedding)


# the spine runs of F4 and G2 that hold the multiple bond, by letter and ends
_BOND_RUNS = {
    ("F", 2, 3): _shape("C", (3, 2)),
    ("F", 1, 3): _shape("B", (1, 2, 3)),
    ("F", 2, 4): _shape("C", (4, 3, 2)),
    ("F", 1, 4): _shape("F", (1, 2, 3, 4)),
    ("G", 1, 2): _shape("G", (1, 2)),
}


def chain_components(t: SimpleType, removed: Iterable[int]) -> list[ComponentShape]:
    """The components of the factor t minus the nodes ``removed``, in
    closed form, ordered by smallest node.

    A Bourbaki diagram is a spine with at most one pendant node and one
    multiple bond: the spine is 1..n, but 1..n-1 in D_n, whose pendant n
    hangs off n-2, and 1, 3, 4, ..., n in E_n, whose pendant 2 hangs off
    4; the bond is (n-1, n) in B_n and C_n, (2, 3) in F4, (1, 2) in G2.
    The surviving spine nodes split into runs.  The run through the
    anchor of a surviving pendant is, pendant included, an A chain from
    its smaller end if the anchor ends it, and else a fork read as D or E.
    The run holding the bond is B_m or C_m for m >= 3 and C2, short node
    first, for m = 2, or a ``_BOND_RUNS`` entry in F4 and G2.  Every other
    run is an A chain, ascending, and a pendant without its anchor is A1.
    """
    letter, n = t
    gone = set(removed)
    if any(not 1 <= v <= n for v in gone):
        raise ValueError(f"removed nodes must lie in 1..{n}")
    spine, pendant, anchor = range(1, n + 1), None, None
    if letter == "D":
        spine, pendant, anchor = range(1, n), n, n - 2
    elif letter == "E":
        spine, pendant, anchor = (1, *range(3, n + 1)), 2, 4
    hangs = pendant is not None and pendant not in gone
    cuts = [-1, *sorted(spine.index(v) for v in gone if v != pendant), len(spine)]
    shapes = []
    for a, b in zip(cuts, cuts[1:]):
        run = tuple(spine[a + 1 : b])
        if not run:
            continue
        if hangs and anchor in run:
            shapes.append(_pendant_run(run, anchor, pendant))
        elif (letter, run[0], run[-1]) in _BOND_RUNS:
            shapes.append(_BOND_RUNS[letter, run[0], run[-1]])
        elif letter in "BC" and run[-1] == n and len(run) >= 3:
            shapes.append(_shape(letter, run))
        elif letter in "BC" and run[-1] == n and len(run) == 2:
            # C2 with the short node first: n in B_n, n-1 in C_n
            shapes.append(_shape("C", run[::-1] if letter == "B" else run))
        else:
            shapes.append(_shape("A", run))
    if hangs and anchor in gone:
        shapes.append(_shape("A", (pendant,)))
    return sorted(shapes, key=lambda s: min(s.embedding))


def _pendant_run(run: tuple[int, ...], anchor: int, pendant: int) -> ComponentShape:
    # the spine run through the anchor, with the pendant hanging off it
    i = run.index(anchor)
    if i in (0, len(run) - 1):  # an A chain, read from its smaller end
        path = (pendant, *run) if i == 0 else (*run, pendant)
        return _shape("A", min(path, path[::-1]))
    # a fork: its arms walked away from the anchor, by (length, last node)
    short, mid, long_ = sorted(
        ((pendant,), run[i - 1 :: -1], run[i + 1 :]), key=lambda arm: (len(arm), arm[-1])
    )
    if len(mid) == 2:  # arms (1, 2, 2..4); for E6 the sort fixes mid vs long
        return _shape("E", (mid[1], short[0], mid[0], anchor, *long_))
    if len(long_) == 1:  # D4: the leaves ascending around the centre
        return _shape("D", (short[0], anchor, mid[0], long_[0]))
    return _shape("D", (*long_[::-1], anchor, short[0], mid[0]))
