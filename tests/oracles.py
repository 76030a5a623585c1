"""The tests' references, independent of the production shortcuts.

``reference_parse`` is the diagram parser the library used before it
read a diagram string in one pass: a factor reader closure called once
per factor, a digit scan each for the rank and the marks, and a node
remap table for the B2 alias.  ``dynkin.parse`` must agree with it on
every string, in its result or in its ``ParseError`` message and
position.

The positive roots of a factor tuple are the orbit of the simple roots
under the simple reflections s_i(v) = v - <v, alpha_i^vee> alpha_i, kept
where no coefficient is negative.  The Cartan matrix is rebuilt from the
bond table ``_bonds`` through ``edges_of``, so the oracle shares only the
Bourbaki bonds with the library.

The graph classifier (``_classify_graph``) is the reference for
``dynkin.component_at``: it finds the connected components of any
Dynkin graph, names each one from its degrees, bonds and arms
(``_identify``), and checks the embedding it names against the model
diagram of that type (``_verify``).  Its output type, ``ComponentShape``,
lives here with it.

The Levi reference cuts one node at a time with ``remove_node`` and
classifies what is left as one graph, products included
(``surgery_components``): the way ``gp_invariants`` read its Levi
factors before it read them per mark.

The roof references are the ones enumeration used before it read the
family rows: the one-diagram test ``is_roof``, through the fibration
fibers and the projective-space test, and the O(N^2) chart join
(``join_candidates``) over the residue charts ``_residue_charts``, with
the automorphism dedup of its hits (``join_enumerate_roofs``).  Their
components come from the surgery above, so no oracle shares a component
reader with the library.

Family recognition, the inverse of the family rows, lives here too:
``name_family`` and ``_family_of`` name the family of a record or of a
two-marked diagram, matching it up to diagram automorphism
(``_mark_images``) against the rows' canonical diagrams
(``family_diagram``), and ``marked_diagram`` parses a record's diagram.
Production only goes from a row to its diagram and record.

``Edge`` and the edge set of a diagram (``edges_of``) live here too, and
so do residual diagrams: the library stores a diagram as its factors
alone and reads a node's bonds off its factor's Bourbaki spine, while a
``Residue`` is a diagram minus some nodes, made only by ``remove_node``,
and a ``MarkedResidue`` marks one.  The surgery, the fibration fibers
and the projective-space test read residues and full diagrams alike.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache

from roofscope import (
    Diagram,
    MarkedDiagram,
    ParseError,
    VarietyInvariants,
    _make_checked,
    diagram_of,
    parse,
    serialize,
)
from roofscope.dynkin import SimpleType, _two_rho, positive_root_count, simple_types
from roofscope.homog import gp_invariants
from roofscope.roofs import (
    FAMILY_SPECS,
    G2_DAGGER_RECORD,
    NON_HOMOGENEOUS,
    Family,
    RoofRecord,
)

ALL_SIMPLE = simple_types(8)


# --- the grammar -------------------------------------------------------------------

def reference_parse(text: str) -> MarkedDiagram:
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
        while pos < len(text) and "0" <= text[pos] <= "9":
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
            while pos < len(text) and "0" <= text[pos] <= "9":
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


# --- edges ---------------------------------------------------------------------

def _bonds(t: SimpleType) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(i, j, cartan[i][j], cartan[j][i])`` for each bond, 0-based, i < j."""
    n = t.rank
    if t.letter in "ABCD":
        chain = n - 1 if t.letter == "A" else n - 2
        for i in range(chain):
            yield i, i + 1, -1, -1
        if t.letter == "B":
            yield n - 2, n - 1, -1, -2  # alpha_n short: its row holds the -2
        elif t.letter == "C":
            yield n - 2, n - 1, -2, -1  # alpha_n long
        elif t.letter == "D":
            yield n - 3, n - 1, -1, -1
    elif t.letter == "E":
        yield 0, 2, -1, -1
        yield 1, 3, -1, -1
        for i in range(2, n - 1):
            yield i, i + 1, -1, -1
    elif t.letter == "F":
        yield 0, 1, -1, -1
        yield 1, 2, -1, -2
        yield 2, 3, -1, -1
    else:  # G2
        yield 0, 1, -1, -3


class Edge(namedtuple("Edge", "a b mult source")):
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


class Residue(namedtuple("Residue", "factors removed")):
    """A diagram of 1 or 2 factors minus the global nodes ``removed``,
    ascending; the surviving nodes keep their global numbering."""

    __slots__ = ()

    def __new__(cls, factors: tuple[SimpleType, ...], removed: tuple[int, ...]) -> Residue:
        Diagram(factors)  # 1 or 2 factors
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
    def nodes(self) -> tuple[int, ...]:
        """The surviving global nodes, ascending."""
        gone = set(self.removed)
        return tuple(v for v in range(1, self.total_rank + 1) if v not in gone)

    def __str__(self) -> str:
        return f"{Diagram(self.factors)} on nodes {','.join(map(str, self.nodes))}"


class MarkedResidue(namedtuple("MarkedResidue", "diagram marks")):
    """A residue marked at some of its surviving nodes."""

    __slots__ = ()

    def __new__(cls, diagram: Residue, marks: frozenset[int]) -> MarkedResidue:
        if not marks or not marks <= set(diagram.nodes):
            raise ValueError(f"marks {sorted(marks)} are not nodes of {diagram}")
        return tuple.__new__(cls, (diagram, marks))

    def __str__(self) -> str:
        return f"{self.diagram} marked {','.join(map(str, sorted(self.marks)))}"


def edges_of(d: Diagram | Residue) -> frozenset[Edge]:
    """The edges of d: the Bourbaki bonds of its factors between surviving nodes."""
    out = []
    offset = 0
    alive = set(d.nodes)
    for f in d.factors:
        for i, j, ij, ji in _bonds(f):
            a, b = offset + i + 1, offset + j + 1
            if a not in alive or b not in alive:
                continue
            source = None
            if ij * ji > 1:
                # the long root's row holds the -1
                source = offset + (i if ij == -1 else j) + 1
            out.append(Edge(a, b, ij * ji, source))
        offset += f.rank
    return frozenset(out)


def remove_node(d: Diagram | Residue, j: int) -> Residue:
    """Delete node j and its incident edges; surviving indices are preserved."""
    alive = set(d.nodes)
    if j not in alive:
        raise ValueError(f"node {j} is not in the diagram")
    alive.remove(j)
    return Residue(d.factors, tuple(v for v in range(1, d.total_rank + 1) if v not in alive))


# --- roots ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def cartan(factors):
    """``cartan[i][j] = <alpha_j, alpha_i^vee>``: -mult in the short root's row."""
    d = diagram_of(factors)
    n = d.total_rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for e in edges_of(d):
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

class ComponentShape(namedtuple("ComponentShape", "type embedding")):
    """A connected component identified as a simple type.

    ``embedding[p-1]`` is the global node sitting at Bourbaki position p.
    """

    __slots__ = ()


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
    emb = shape.embedding

    def translate(e: Edge) -> Edge:
        u, v = emb[e.a - 1], emb[e.b - 1]
        src = None if e.source is None else emb[e.source - 1]
        if u > v:
            u, v = v, u
        return Edge(u, v, e.mult, src)

    if {translate(e) for e in _model_edges(shape.type)} != set(edges):
        raise _corrupt(nodes)


@lru_cache(maxsize=None)
def _model_edges(t: SimpleType) -> frozenset[Edge]:
    return edges_of(diagram_of((t,)))


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
    if not removed:
        return list(_uncut_components(d))
    for j in sorted(removed):
        d = remove_node(d, j)
    return _classify_graph(list(d.nodes), edges_of(d))


@lru_cache(maxsize=None)
def _uncut_components(d):
    return tuple(_classify_graph(list(d.nodes), edges_of(d)))


def surgery_gp_invariants(md):
    """``gp_invariants`` on the Levi components of ``surgery_components``."""
    d = md.diagram
    marks = sorted(md.marks)
    levi_shapes = surgery_components(d, marks)
    dim = sum(positive_root_count(s.type) for s in surgery_components(d))
    dim -= sum(positive_root_count(s.type) for s in levi_shapes)
    levi_two_rho = {}
    for shape in levi_shapes:
        levi_two_rho.update(
            (v, _two_rho(shape.type, p)) for p, v in enumerate(shape.embedding, 1)
        )
    coeff = {m: 2 for m in marks}
    for e in edges_of(d):
        for m, j in ((e.a, e.b), (e.b, e.a)):
            if m in coeff and j in levi_two_rho:
                coeff[m] += (e.mult if e.target == m else 1) * levi_two_rho[j]
    vec = tuple((m, coeff[m]) for m in marks)
    return VarietyInvariants(dim=dim, picard=len(marks), index_vector=vec)


# --- family recognition ------------------------------------------------------------

def _pspace_r(t: SimpleType, pos: int) -> int | None:
    """r when type t marked at Bourbaki position pos alone is P^{r-1}.

    The two shapes are an A_m chain marked at either end (P^m) and a C_m
    chain marked at the short end, the node away from the arrow source
    (P^{2m-1}).
    """
    if t.letter == "A" and pos in (1, t.rank):
        return t.rank + 1
    if t.letter == "C" and pos == 1:
        return 2 * t.rank
    return None


def _factor_automorphisms(t: SimpleType) -> list[dict[int, int]]:
    n = t.rank
    ident = {k: k for k in range(1, n + 1)}
    if t.letter == "A" and n >= 2:
        return [ident, {k: n + 1 - k for k in range(1, n + 1)}]
    if t.letter == "D":
        if n == 4:
            return [
                {1: p[0], 3: p[1], 4: p[2], 2: 2}
                for p in itertools.permutations((1, 3, 4))
            ]
        swap = dict(ident)
        swap[n - 1], swap[n] = n, n - 1
        return [ident, swap]
    if t.letter == "E" and n == 6:
        return [ident, {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}]
    return [ident]


def _mark_images(md: MarkedDiagram) -> set[str]:
    """All serializations of a single-factor md under its diagram automorphisms."""
    d = md.diagram
    (t,) = d.factors
    return {
        serialize(MarkedDiagram(d, frozenset(auto[m] for m in md.marks)))
        for auto in _factor_automorphisms(t)
    }


def _single_factor_family(md: MarkedDiagram, r: int) -> Family | None:
    """The family whose canonical diagram at r is md up to automorphism,
    None if there is none."""
    images = _mark_images(md)
    for family, spec in FAMILY_SPECS.items():
        if spec.factors is not None and spec.admits(r) and serialize(spec.marked(r)) in images:
            return family
    return None


def _family_of(md: MarkedDiagram, r: int) -> Family | None:
    d = md.diagram
    marks = sorted(md.marks)
    if len(d.factors) == 2:
        split = d.factors[0].rank
        in_first = [m for m in marks if m <= split]
        if len(in_first) == 1:
            # one mark per factor: the roof is a product of the two
            # single-marked factors, each of which must be P^{r-1}
            (t, u), (i, j) = d.factors, marks
            if _pspace_r(t, i) == r == _pspace_r(u, j - split):
                return Family.A_PRODUCT
            return None
        # both marks in one factor: the other factor is a point
        t = d.factors[0] if len(in_first) == 2 else d.factors[1]
        offset = 0 if len(in_first) == 2 else split
        local = frozenset(m - offset for m in marks)
        return _single_factor_family(MarkedDiagram(diagram_of((t,)), local), r)
    return _single_factor_family(md, r)


def family_diagram(family: Family, r: int) -> str:
    """The canonical marked diagram of a family instance."""
    spec = FAMILY_SPECS.get(family)
    if spec is None or spec.factors is None:
        raise ValueError(f"{family} has no canonical diagram")
    return serialize(spec.marked(r))


def marked_diagram(record: RoofRecord) -> MarkedDiagram:
    """The marked diagram a homogeneous record names."""
    if record.diagram == NON_HOMOGENEOUS:
        raise ValueError("the G2^dagger roof has no marked diagram")
    return parse(record.diagram)


def _label(family: Family | None, r: int) -> str:
    return "unknown" if family is None else FAMILY_SPECS[family].label(r)


def name_family(record: RoofRecord) -> str:
    """Pattern-match a record against the eight family schemata; a record
    that matches none is "unknown"."""
    if record.diagram == NON_HOMOGENEOUS:
        return FAMILY_SPECS[Family.G2_DAGGER].label(record.r)
    return _label(_family_of(marked_diagram(record), record.r), record.r)


# --- roofs -----------------------------------------------------------------------

def fibration_fiber(md: MarkedDiagram, keep: int) -> MarkedResidue:
    """The fiber of G/P({i,j}) -> G/P({keep}): the diagram minus ``keep``,
    marked at the other node."""
    if len(md.marks) != 2:
        raise ValueError("fibration analysis expects exactly two marks")
    if keep not in md.marks:
        raise ValueError(f"{keep} is not a mark of {md}")
    (other,) = md.marks - {keep}
    return MarkedResidue(remove_node(md.diagram, keep), frozenset({other}))


def component_charts(shapes: Iterable[ComponentShape]) -> dict[int, int]:
    """The projective-space charts {m: r} of a diagram given by its components:
    the nodes m at which one component marked at m alone is P^{r-1}.  Only
    chain ends can qualify, so each component contributes at most two."""
    charts: dict[int, int] = {}
    for shape in shapes:
        for pos in (1, shape.type.rank):
            r = _pspace_r(shape.type, pos)
            if r is not None:
                charts[shape.embedding[pos - 1]] = r
    return charts


def projective_space_charts(d: Diagram | Residue) -> dict[int, int]:
    """Every node m at which d marked at m alone is P^{r-1}, as {m: r}."""
    return component_charts(surgery_components(d))


def is_projective_space(md: MarkedDiagram | MarkedResidue) -> int | None:
    """Return r if the one-marked variety is the projective space P^{r-1};
    unmarked components are points and are ignored."""
    if len(md.marks) != 1:
        raise ValueError("projective-space detection expects exactly one mark")
    (mark,) = md.marks
    return projective_space_charts(md.diagram).get(mark)


def _check_index(md: MarkedDiagram, r: int) -> None:
    """Raise unless the roof md has the index vector (r, r), as every roof does."""
    w = gp_invariants(md)
    if w.coefficients() != (r, r):
        raise RuntimeError(
            f"index vector {w.coefficients()} disagrees with fiber parameter {r} on {md}"
        )


def is_roof(md: MarkedDiagram) -> int | None:
    """Return r when both fibration fibers of a two-marked diagram are P^{r-1}."""
    if len(md.marks) != 2:
        raise ValueError("a roof candidate carries exactly two marks")
    i, j = sorted(md.marks)
    r1 = is_projective_space(fibration_fiber(md, keep=i))
    if r1 is None:
        return None
    r2 = is_projective_space(fibration_fiber(md, keep=j))
    if r2 is None or r2 != r1:
        return None
    _check_index(md, r1)
    return r1


def _residue_charts(t: SimpleType, k: int) -> dict[int, int]:
    """The projective-space charts {node: r} of the residue "t minus node k".

    These are the charts (``component_charts``) of the residue's
    components.  For E, F and G they come from ``surgery_components``;
    for A, B, C and D they are read off (letter, n, k): the run 1..k-1
    is an A_(k-1) chain, P^(k-1) at both ends, and the run beyond k is
    an A chain in A_n and holds the special end otherwise.
    """
    letter, n = t
    if letter not in "ABCD":
        return component_charts(surgery_components(diagram_of((t,)), (k,)))
    if letter == "D" and k == n - 1:  # n continues the chain 1..n-2: A_(n-1)
        return {1: n, n: n}
    charts = {1: k, k - 1: k} if k > 1 else {}
    m = n - k  # the nodes beyond k
    if m == 0:
        return charts
    if letter == "A":  # an A_m chain
        charts.update({k + 1: m + 1, n: m + 1})
    elif letter == "C":  # A1, or C_m marked at its short end k+1 (C2 included)
        charts[k + 1] = 2 * m
    elif letter == "B":  # A1, or C2 with the short node n first; B_m has none
        if m <= 2:
            charts[n] = 2 * m
    elif m <= 3:  # D: the fork nodes as two A1, or D3 = A3 with ends n-1, n
        charts.update({n - 1: 2 * m - 2, n: 2 * m - 2})
    return charts


def join_candidates(
    max_rank: int, r_filter: int | None = None
) -> Iterator[tuple[MarkedDiagram, int]]:
    """Every single-factor roof of rank <= max_rank with its r (only r_filter,
    when given): the mark pairs whose two residue charts agree on r."""
    for t in simple_types(max_rank):
        nodes = range(1, t.rank + 1)
        charts = {
            k: {j: r for j, r in _residue_charts(t, k).items() if r_filter in (None, r)}
            for k in nodes
        }
        for i in nodes:
            for j, r in charts[i].items():
                if j > i and charts[j].get(i) == r:
                    yield MarkedDiagram(diagram_of((t,)), frozenset({i, j})), r


def dedup_key(md: MarkedDiagram) -> str:
    """The smallest serialization of a single-factor md under its automorphisms."""
    return min(_mark_images(md))


def join_enumerate_roofs(
    max_total_rank: int, r_filter: int | None = None
) -> list[RoofRecord]:
    """``enumerate_roofs`` as it was before it read the family rows: the
    chart join, each hit named by ``_family_of`` and keyed by its family
    diagram (or its automorphism class), products from the A_PRODUCT
    row, and every record built through a parse of its diagram."""
    instances: dict[str, tuple[Family | None, int]] = {}
    for md, r in join_candidates(max_total_rank, r_filter):
        _check_index(md, r)
        family = _family_of(md, r)
        key = dedup_key(md) if family is None else family_diagram(family, r)
        instances[key] = (family, r)
    product = FAMILY_SPECS[Family.A_PRODUCT]
    for r in filter(product.admits, range(max_total_rank + 2)):
        if product.rank(r) <= max_total_rank and r_filter in (None, r):
            instances[family_diagram(Family.A_PRODUCT, r)] = (Family.A_PRODUCT, r)
    ranked = []
    for diagram, (family, r) in instances.items():
        md = parse(diagram)
        ranked.append((md.diagram.total_rank, _parsed_record(md, family, r)))
    if r_filter in (None, G2_DAGGER_RECORD.r):
        ranked.append((0, G2_DAGGER_RECORD))
    ranked.sort(key=lambda item: (item[1].r, item[1].family, item[0], item[1].diagram))
    return [rec for _, rec in ranked]


def _parsed_record(md: MarkedDiagram, family: Family | None, r: int) -> RoofRecord:
    i, j = sorted(md.marks)
    v1 = gp_invariants(MarkedDiagram(md.diagram, frozenset({i})))
    v2 = gp_invariants(MarkedDiagram(md.diagram, frozenset({j})))
    return RoofRecord(
        family=_label(family, r),
        r=r,
        diagram=str(md),
        dim_W=v1.dim + r - 1,
        dim_V1=v1.dim,
        dim_V2=v2.dim,
        index_V1=v1.index,
        index_V2=v2.index,
        homogeneous=True,
    )
