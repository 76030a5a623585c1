"""Marked Dynkin diagrams: text grammar, bonds, component classification.

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

A ``Diagram`` is its factors plus its removed nodes; no edge or node
list is stored, so a diagram of any rank costs only what its text costs
to parse.  A factor's bonds are read off its Bourbaki spine, pendant
node and multiple bond: ``neighbours`` gives a node's at most three
neighbours with their Cartan entries.  Components are read factor by
factor, with any set of nodes removed at once (``classify_components``).
Each factor, of any of the seven letters, is read in closed form
(``chain_components``), and ``component_at`` reads the one component
that holds a given node, with its Bourbaki position there, in
O(log #removed) for A, B, C and D; no graph is searched.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache

from . import _make_checked
from .root_system import SimpleType


class ParseError(ValueError):
    """A diagram string rejected by the grammar; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position + 1})")
        self.position = position


class Diagram(namedtuple("Diagram", "factors removed", defaults=((),))):
    """A Dynkin graph: 1 or 2 factors minus the global nodes ``removed``.

    ``factors`` always records the full ambient diagram and ``removed``
    the deleted global indices, ascending, so a freshly built diagram
    removes nothing and node removal keeps the original numbering.  The
    bonds are those of the factors' Bourbaki diagrams among the surviving
    nodes (``neighbours``); no edge or node list is stored.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, factors: tuple[SimpleType, ...], removed: tuple[int, ...] = ()) -> Diagram:
        if not 1 <= len(factors) <= 2:
            raise ValueError("a diagram has 1 or 2 factors")
        removed = tuple(removed)
        if any(a >= b for a, b in zip(removed, removed[1:])):
            raise ValueError("removed nodes must be sorted ascending, each at most once")
        total = sum(f.rank for f in factors)
        for v in removed[:1] + removed[-1:]:
            if not 1 <= v <= total:
                raise ValueError(f"node {v} out of range 1..{total}")
        return tuple.__new__(cls, (factors, removed))

    @property
    def total_rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def is_full(self) -> bool:
        return not self.removed

    @property
    def nodes(self) -> tuple[int, ...]:
        """The surviving global nodes, ascending; O(total rank)."""
        gone = set(self.removed)
        return tuple(v for v in range(1, self.total_rank + 1) if v not in gone)

    def has_node(self, v: int) -> bool:
        """Whether the global node v survives, in O(log #removed)."""
        i = bisect_left(self.removed, v)
        return 1 <= v <= self.total_rank and (i == len(self.removed) or self.removed[i] != v)

    def __str__(self) -> str:
        body = "*".join(str(f) for f in self.factors)
        if self.is_full:
            return body
        return f"{body} on nodes {','.join(map(str, self.nodes))}"


class MarkedDiagram(namedtuple("MarkedDiagram", "diagram marks")):
    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, diagram: Diagram, marks: frozenset[int]) -> MarkedDiagram:
        if not marks:
            raise ValueError("at least one mark is required")
        for m in marks:
            if not diagram.has_node(m):
                raise ValueError(f"mark {m} is not a node of the diagram")
        return tuple.__new__(cls, (diagram, marks))

    def __str__(self) -> str:
        if self.diagram.is_full:
            return serialize(self)
        return f"{self.diagram} marked {','.join(map(str, sorted(self.marks)))}"


@lru_cache(maxsize=None)
def diagram_of(factors: tuple[SimpleType, ...]) -> Diagram:
    """The full diagram of one or two factors."""
    return Diagram(factors)


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


# --- component classification ----------------------------------------------

class ComponentShape(namedtuple("ComponentShape", "type embedding")):
    """A connected component identified as a simple type.

    ``embedding[p-1]`` is the global node sitting at Bourbaki position p.
    """

    __slots__ = ()

    def position_of(self, node: int) -> int:
        """Bourbaki position (1-based) of a global node."""
        return self.embedding.index(node) + 1


def classify_components(d: Diagram, removed: Iterable[int] = ()) -> list[ComponentShape]:
    """Identify every connected component of d minus the nodes ``removed``,
    ordered by smallest global node.

    Rank-2 double-bond residuals come back as C2 and rank-1 residuals as
    A1, regardless of the factor they were cut from.  Each factor is read
    on its own by ``chain_components`` from the nodes it lacks.  This
    builds every component's embedding, so it costs O(total rank).
    """
    gone = set(removed)
    if not all(d.has_node(v) for v in gone):
        raise ValueError(f"removed nodes must be nodes of {d}")
    gone.update(d.removed)
    shapes: list[ComponentShape] = []
    offset = 0
    for t in d.factors:
        local = [v - offset for v in gone if offset < v <= offset + t.rank]
        for s in chain_components(t, local):
            if offset:
                s = ComponentShape(s.type, tuple(v + offset for v in s.embedding))
            shapes.append(s)
        offset += t.rank
    return shapes


# --- closed form for one factor ----------------------------------------------

def _layout(t: SimpleType) -> tuple[Sequence[int], int | None, int | None]:
    """The Bourbaki spine of t, its pendant node and the pendant's anchor:
    the spine is 1..n, but 1..n-1 in D_n, whose pendant n hangs off n-2,
    and 1, 3, 4, ..., n in E_n, whose pendant 2 hangs off 4."""
    letter, n = t
    if letter == "D":
        return range(1, n), n, n - 2
    if letter == "E":
        return (1, *range(3, n + 1)), 2, 4
    return range(1, n + 1), None, None


def _bond(t: SimpleType) -> tuple[int, int, int] | None:
    """(short end, long end, multiplicity) of the multiple bond of t, if any."""
    letter, n = t
    if letter == "B":
        return n, n - 1, 2
    if letter == "C":
        return n - 1, n, 2
    if letter == "F":
        return 3, 2, 2
    if letter == "G":
        return 2, 1, 3
    return None


def neighbours(t: SimpleType, v: int) -> list[tuple[int, int]]:
    """The neighbours j of node v in the factor t, at most three, each with
    -<alpha_j, alpha_v^vee>: the bond's multiplicity when v is its short
    end, else 1."""
    spine, pendant, anchor = _layout(t)
    if v == pendant:
        near = [anchor]
    else:
        # a slice, not len(): a range longer than sys.maxsize has no len
        i = spine.index(v)
        near = [j for j in spine[max(i - 1, 0) : i + 2] if j != v]
        if v == anchor:
            near.append(pendant)
    bond = _bond(t)
    return [(j, bond[2] if bond is not None and (v, j) == bond[:2] else 1) for j in near]


def component_at(t: SimpleType, gone: Sequence[int], v: int) -> tuple[SimpleType, int, int]:
    """The component of the factor t minus the ascending nodes ``gone``
    that holds the surviving node v: its type, the Bourbaki position of v
    in it, and its smallest node.

    It agrees with ``chain_components``.  For A, B, C and D it is
    arithmetic on the run of the spine that holds v, found by a bisect in
    ``gone``, so it costs O(log #gone).  An E, F or G factor has rank at
    most 8, and each of its residues is read by ``chain_components`` once.
    """
    letter, n = t
    if letter in "EFG":
        place = _exceptional_places(t, tuple(gone)).get(v)
        if place is None:
            raise ValueError(f"node {v} is not a node of {t} minus {list(gone)}")
        return place
    end = n - 1 if letter == "D" else n  # the last spine node
    hi = bisect_right(gone, end)  # gone[:hi] lie on the spine
    at = n - 2 if v > end else v  # the pendant n of D_n joins the run of n-2
    i = bisect_left(gone, at, 0, hi)
    if i < hi and gone[i] == at:
        if at != v:  # the pendant without its anchor
            return SimpleType("A", 1), 1, n
        raise ValueError(f"node {v} is not a node of {t} minus {list(gone)}")
    a = gone[i - 1] if i else 0  # the run is a+1..b-1
    b = gone[i] if i < hi else end + 1
    size = b - a - 1
    if letter == "D" and hi == len(gone) and a < n - 2 < b:  # the pendant hangs on
        if a == n - 3:  # the anchor starts the run: A2 (n-2, n) or A3 (n-1, n-2, n)
            order = (n - 2, n) if b == n - 1 else (n - 1, n - 2, n)
            return _type("A", len(order)), order.index(v) + 1, n - 2
        if b == n - 1:  # the anchor ends the run: the chain a+1, ..., n-2, n
            return _type("A", size + 1), size + 1 if v == n else v - a, a + 1
        return _type("D", size + 1), v - a, a + 1  # the fork a+1..n-1 with n
    if letter in "BC" and b == n + 1 and size >= 2:  # the run holds the bond
        if letter == "B" and size == 2:  # C2 with the short node n first
            return _type("C", 2), n + 1 - v, n - 1
        return _type(letter, size), v - a, a + 1
    return _type("A", size), v - a, a + 1


# the types component_at names, each checked once
_type = lru_cache(maxsize=1024)(SimpleType)


@lru_cache(maxsize=None)
def _exceptional_places(t: SimpleType, gone: tuple[int, ...]) -> dict:
    # E, F and G have rank <= 8, so at most 468 residues: each read once
    return {
        v: (s.type, p, min(s.embedding))
        for s in chain_components(t, gone)
        for p, v in enumerate(s.embedding, 1)
    }


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
    multiple bond (``_layout``, ``_bond``): the bond is (n-1, n) in B_n
    and C_n, (2, 3) in F4, (1, 2) in G2.
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
    spine, pendant, anchor = _layout(t)
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
        # the runs came in spine order, which is node order except for a
        # lone pendant: n of D_n comes last, 2 of E_n after the run of 1
        at = len(shapes) if letter == "D" else int(1 not in gone)
        shapes.insert(at, _shape("A", (pendant,)))
    return shapes


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
