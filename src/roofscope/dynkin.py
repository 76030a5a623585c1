"""Dynkin types and marked diagrams, and every per-letter fact about them.

Bourbaki node numbering per factor::

    A_n   1 - 2 - ... - n
    B_n   1 - ... - (n-1) => n          alpha_n short
    C_n   1 - ... - (n-1) <= n          alpha_n long
    D_n   1 - ... - (n-2) < (n-1, n)    fork at node n-2
    E_n   1 - 3 - 4 - ... - n           node 2 attached to node 4
    F_4   1 - 2 => 3 - 4                nodes 1, 2 long
    G_2   1 => 2                        alpha_1 long

Double and triple arrows point from the long root to the short root
(B_n: n-1 -> n, C_n: n -> n-1, F4: 2 -> 3, G2: 1 -> 2).

Grammar (whitespace forbidden)::

    diagram := factor ("*" factor)? (":" marks)?
    factor  := letter rank              letter in A..G, rank decimal
    marks   := index ("," index)*       global 1-based node indices

A product concatenates its factors' numberings: node indices continue
across ``*``, so ``A2*A2:1,4`` marks node 1 of the first factor and
node 2 of the second.  Marks are sorted ascending in the canonical
serialization, and at least one mark is required.

Canonical low-rank forms: the rank-2 double-bond diagram is ``C2``
(node 1 short, node 2 long), D2 is written A1*A1 and D3 is written A3.
The alias ``B2`` is accepted on input and remapped, so ``B2:1`` means
``C2:2``.  Building any other non-canonical type (``D3``, ``C1``,
``E5``, ...) is an error naming the form to use.

A ``Diagram`` is its factors; no edge or node list is stored, so a
diagram of any rank costs only what its text costs to parse, and every
marked diagram has a grammar form.  A factor's bonds are read off its
Bourbaki spine, pendant node and multiple bond: ``neighbours`` gives a
node v's at most three neighbours j, each with the pairing
-<alpha_j, alpha_v^vee>, and ``component_at`` reads the component of a
factor minus a node set that holds a given node, with its type and the
node's Bourbaki position there, for any of the seven letters in
O(log #set); no graph is searched.  No root is generated either: G/P
invariants use the closed forms ``positive_root_count`` and
``_two_rho`` (one entry per Bourbaki position).  The tests check both
against a reflection-orbit root generator in ``tests/oracles.py``,
which also holds the bond table and the residual diagrams (a diagram
minus some nodes).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

from . import _make_checked


class ParseError(ValueError):
    """A diagram string rejected by the grammar; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position + 1})")
        self.position = position


class Diagram(namedtuple("Diagram", "factors")):
    """A Dynkin graph: 1 or 2 factors, numbered across ``*``.

    The bonds are those of the factors' Bourbaki diagrams
    (``neighbours``); no edge or node list is stored.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, factors: tuple[SimpleType, ...]) -> Diagram:
        if not 1 <= len(factors) <= 2:
            raise ValueError("a diagram has 1 or 2 factors")
        return tuple.__new__(cls, (factors,))

    @property
    def total_rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def nodes(self) -> range:
        """The global nodes, ascending, as a lazy range."""
        return range(1, self.total_rank + 1)

    def __str__(self) -> str:
        return "*".join(str(f) for f in self.factors)


class MarkedDiagram(namedtuple("MarkedDiagram", "diagram marks")):
    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, diagram: Diagram, marks: frozenset[int]) -> MarkedDiagram:
        if not marks:
            raise ValueError("at least one mark is required")
        for m in marks:
            if not 1 <= m <= diagram.total_rank:
                raise ValueError(f"mark {m} is not a node of the diagram")
        return tuple.__new__(cls, (diagram, marks))

    def __str__(self) -> str:
        return serialize(self)


def diagram_of(factors: tuple[SimpleType, ...]) -> Diagram:
    """The full diagram of one or two factors, built in O(#factors)."""
    return Diagram(factors)


# --- grammar ---------------------------------------------------------------

def parse(text: str) -> MarkedDiagram:
    """Parse a diagram string in one left-to-right pass; the round trip
    ``serialize(parse(t))`` canonicalizes."""
    for k, ch in enumerate(text):
        if ch.isspace():
            raise ParseError("whitespace is not allowed", k)
    factors: list[SimpleType] = []
    swapped: list[bool] = []  # per factor: a B2, read as C2 with its two nodes swapped
    pos = 0
    while True:
        if pos >= len(text) or not text[pos].isalpha():
            raise ParseError("expected a type letter", pos)
        letter, start = text[pos], pos
        rank, pos = _number(text, pos + 1, "expected a rank after the type letter", start)
        swapped.append(letter == "B" and rank == 2)
        try:
            factors.append(SimpleType("C" if swapped[-1] else letter, rank))
        except ValueError as exc:
            raise ParseError(str(exc), start) from None
        if len(factors) == 2 or text[pos : pos + 1] != "*":
            break
        pos += 1

    marks: list[int] = []
    while pos < len(text):
        if text[pos] != ("," if marks else ":"):
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        mark, pos = _number(text, pos + 1, "expected a mark index", pos + 1)
        marks.append(mark)
    if not marks:
        raise ParseError("at least one mark is required", len(text) - 1)

    first, total = factors[0].rank, sum(f.rank for f in factors)
    nodes: set[int] = set()
    for m in marks:
        if not 1 <= m <= total:
            raise ParseError(f"mark {m} out of range 1..{total}", 0)
        k = m > first
        offset = first if k else 0
        # node m - offset of a B2 is node 3 - (m - offset) of its C2
        node = 2 * offset + 3 - m if swapped[k] else m
        if node in nodes:
            raise ParseError(f"duplicate mark {m}", 0)
        nodes.add(node)
    return MarkedDiagram(diagram_of(tuple(factors)), frozenset(nodes))


def _number(text: str, pos: int, missing: str, at: int) -> tuple[int, int]:
    """The ASCII decimal that starts at pos and the position after it; a
    ``ParseError(missing, at)`` if none starts there."""
    end = pos
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    if end == pos:
        raise ParseError(missing, at)
    return int(text[pos:end]), end


def serialize(md: MarkedDiagram) -> str:
    """Canonical text form: factors joined by '*', marks sorted ascending."""
    return f"{md.diagram}:{','.join(str(m) for m in sorted(md.marks))}"


# --- one factor: canonical form, layout, root data -------------------------

_CANONICAL_HINTS = {
    ("B", 1): "A1",
    ("C", 1): "A1",
    ("B", 2): "C2 (same diagram with the node order reversed)",
    ("D", 1): "A1",
    ("D", 2): "A1*A1",
    ("D", 3): "A3",
    ("E", 4): "A4",
    ("E", 5): "D5",
}


_LETTERS = tuple("ABCDEFG")


class SimpleType(namedtuple("SimpleType", "letter rank")):
    """One simple Dynkin factor in canonical form, e.g. A7 or F4."""

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, letter: str, rank: int) -> SimpleType:
        if letter not in _LETTERS:
            raise ValueError(f"unknown type letter {letter!r}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        problem = _noncanonical(letter, rank)
        if problem is not None:
            raise ValueError(problem)
        return tuple.__new__(cls, (letter, rank))

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


def _noncanonical(letter: str, rank: int) -> str | None:
    """Why a known letter at a positive rank is not a canonical type, or None."""
    hint = _CANONICAL_HINTS.get((letter, rank))
    if hint is not None:
        return f"{letter}{rank} is not a canonical type; use {hint}"
    if letter == "E":
        if rank not in (6, 7, 8):
            return "E rank must be 6, 7 or 8"
    elif letter == "F" and rank != 4:
        return "F4 is the only type F diagram"
    elif letter == "G" and rank != 2:
        return "G2 is the only type G diagram"
    return None


def simple_types(max_rank: int) -> list[SimpleType]:
    """Every canonical simple type of rank <= max_rank, by letter, then by rank."""
    return [
        SimpleType(letter, rank)
        for letter in _LETTERS
        for rank in range(1, max_rank + 1)
        if _noncanonical(letter, rank) is None
    ]


def positive_root_count(t: SimpleType) -> int:
    """Closed-form number of positive roots of a simple factor."""
    n = t.rank
    if t.letter == "A":
        return n * (n + 1) // 2
    if t.letter in "BC":
        return n * n
    if t.letter == "D":
        return n * (n - 1)
    if t.letter == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    if t.letter == "F":
        return 24
    return 6  # G2


_EXCEPTIONAL_TWO_RHO = {
    ("E", 6): (16, 22, 30, 42, 30, 16),
    ("E", 7): (34, 49, 66, 96, 75, 52, 27),
    ("E", 8): (92, 136, 182, 270, 220, 168, 114, 58),
    ("F", 4): (16, 30, 42, 22),
    ("G", 2): (6, 10),  # node 1 long
}


def _two_rho(t: SimpleType, p: int) -> int:
    """The entry at Bourbaki position p of 2rho, the sum of the positive
    roots, in the simple-root basis (Bourbaki plates)."""
    letter, n = t
    if letter == "A":
        return p * (n + 1 - p)
    if letter == "B":
        return p * (2 * n - p)
    if letter == "C":
        return p * (2 * n - p + 1) if p < n else n * (n + 1) // 2
    if letter == "D":
        return p * (2 * n - p - 1) if p < n - 1 else n * (n - 1) // 2
    return _EXCEPTIONAL_TWO_RHO[t][p - 1]


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

    The component is the run of the spine that holds v (for the pendant,
    the run of its anchor), found by a bisect in ``gone``, so it costs
    O(log #gone) and lists no nodes.  The run through the anchor of a
    surviving pendant is, pendant included, an A chain or a fork
    (``_pendant_component``).  The run that holds the multiple bond is
    the whole G2, or the whole F4 when the bond lies inside it; else it
    is read towards the bond, and is C_m when the bond's long node ends
    it, and B_m, or C2 with the short node first, when its short node
    does.  Every other run is A_m, ascending, and a pendant without its
    anchor is A1.
    """
    spine, pendant, anchor = _layout(t)
    if _holds(gone, v):
        raise ValueError(f"node {v} is not a node of {t} minus {list(gone)}")
    at = anchor if v == pendant else v
    if at != v and _holds(gone, at):  # the pendant without its anchor
        return _type("A", 1), 1, v
    # the removed spine nodes next to `at` bound its run; the pendant is skipped
    i = bisect_left(gone, at)
    lo = i - 1 - (i > 0 and gone[i - 1] == pendant)
    hi = i + (i < len(gone) and gone[i] == pendant)
    a = spine.index(gone[lo]) if lo >= 0 else -1
    b = spine.index(gone[hi]) if hi < len(gone) else t.rank - (pendant is not None)
    # a slice, and its size by arithmetic: a range longer than sys.maxsize has no len
    run, size = spine[a + 1 : b], b - a - 1
    if pendant is not None and anchor in run and not _holds(gone, pendant):
        return _pendant_component(run, size, anchor, pendant, v)
    k = run.index(v)
    bond = _bond(t)
    if bond is None or bond[0] not in run or bond[1] not in run:
        return _type("A", size), k + 1, run[0]
    ends = bond[:2]
    if bond[2] == 3 or (run[0] not in ends and run[-1] not in ends):
        return t, k + 1, run[0]  # the whole G2, or F4 around its inner bond
    towards = run[-1] in ends  # the bond ends the run ascending
    pos = k + 1 if towards else size - k
    if (run[-1] if towards else run[0]) == bond[1]:  # the long node ends the run
        return _type("C", size), pos, run[0]
    if size == 2:  # C2 with the short node first
        return _type("C", 2), 3 - pos, run[0]
    return _type("B", size), pos, run[0]


def _pendant_component(
    run: Sequence[int], size: int, anchor: int, pendant: int, v: int
) -> tuple[SimpleType, int, int]:
    # the spine run through the anchor, with the pendant hanging off it
    c = run.index(anchor)
    first = min(run[0], pendant)
    if c in (0, size - 1):  # an A chain, read from its smaller end
        head = c == 0  # the pendant comes before the run, else after it
        # j: the index of v along the path, pendant included
        j = (0 if head else size) if v == pendant else run.index(v) + head
        ends = (pendant, run[-1]) if head else (run[0], pendant)
        pos = j + 1 if ends[0] < ends[1] else size + 1 - j
        return _type("A", size + 1), pos, first
    # a fork: its arms walked away from the anchor, by (length, far node)
    arms = [(1, pendant, (pendant,)), (c, run[0], run[c - 1 :: -1])]
    arms.append((size - 1 - c, run[-1], run[c + 1 :]))
    (_, _, short), (mid_size, _, mid), (long_size, _, long_) = sorted(arms)
    if mid_size == 2:  # arms (1, 2, 2..4); for E6 the sort fixes mid vs long
        embedding = (mid[1], short[0], mid[0], anchor, *long_)
        return _type("E", len(embedding)), embedding.index(v) + 1, first
    if long_size == 1:  # D4: the leaves ascending around the centre
        short, mid, long_ = mid, long_, short
    # D_m: the long arm from its far end, then anchor, short and mid
    m = size + 1
    if v in long_:
        return _type("D", m), m - 3 - long_.index(v), first
    return _type("D", m), m - 2 + (anchor, short[0], mid[0]).index(v), first


def _holds(gone: Sequence[int], v: int) -> bool:
    i = bisect_left(gone, v)
    return i < len(gone) and gone[i] == v


# the types component_at names, each checked once
_type = lru_cache(maxsize=1024)(SimpleType)
