"""Grammar, surgery, bonds and component classification of marked diagrams."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itertools import combinations, product

from oracles import (
    ALL_SIMPLE,
    MarkedResidue,
    Residue,
    _bonds,
    _classify_graph,
    cartan,
    edges_of,
    reference_parse,
    remove_node,
)
from roofscope import (
    Diagram,
    MarkedDiagram,
    ParseError,
    SimpleType,
    diagram_of,
    parse,
    serialize,
)
from roofscope.dynkin import component_at, neighbours, simple_types


# --- grammar -----------------------------------------------------------------


def test_parse_f4_marks():
    md = parse("F4:2,3")
    assert md.diagram.factors == (SimpleType("F", 4),)
    assert md.marks == frozenset({2, 3})


def test_parse_product_with_global_marks():
    md = parse("A2*A2:1,4")
    assert md.diagram.factors == (SimpleType("A", 2), SimpleType("A", 2))
    assert md.marks == frozenset({1, 4})


def test_parse_rejects_d3_naming_a3():
    with pytest.raises(ParseError, match="A3"):
        parse("D3:1")


def test_b2_alias_is_canonicalized_to_c2_with_node_remap():
    # B2 node 1 is the long end, which is C2 node 2
    assert serialize(parse("B2:1")) == "C2:2"
    assert serialize(parse("B2:2")) == "C2:1"
    assert serialize(parse("B2:1,2")) == "C2:1,2"


def test_serialize_parse_round_trip_is_canonicalization():
    for text, canonical in [
        ("A4:1,4", "A4:1,4"),
        ("A4:4,1", "A4:1,4"),
        ("D5:5,4", "D5:4,5"),
        ("A2*A2:4,1", "A2*A2:1,4"),
        ("G2:1,2", "G2:1,2"),
    ]:
        assert serialize(parse(text)) == canonical
        # idempotent on canonical forms
        assert serialize(parse(canonical)) == canonical


@pytest.mark.parametrize(
    "text",
    [
        "",
        "A",
        "4A:1",
        "A4",
        "A4:",
        "A4:0",
        "A4:5",
        "A4:1,1",
        "A4:1,,2",
        "A4 :1",
        "A0:1",
        "Z9:1",
        "A4:1x",
        "A2*:1",
        "A2*A2*A2:1,2,3",
        "C2:3",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("A4:1x")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("A2 :1")
    assert err.value.position == 2


@pytest.mark.parametrize("text, position", [("A²:1", 0), ("A٣:١", 0), ("A3:١", 3)])
def test_parse_reads_ascii_digits_only(text, position):
    # str.isdigit() also holds for digits that int() refuses (²) or reads (٣)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_whitespace_is_forbidden_everywhere():
    with pytest.raises(ParseError):
        parse("A4: 1")
    with pytest.raises(ParseError):
        parse(" A4:1")


def test_marks_are_required():
    with pytest.raises(ParseError, match="mark"):
        parse("F4")


def _parsed(parser, text):
    """A parser's verdict on text: its diagram, or its refusal."""
    try:
        return parser(text)
    except ValueError as exc:  # ParseError, or int() past its digit limit
        return type(exc), str(exc), getattr(exc, "position", None)


# every canonical letter, the B2 alias, non-canonical and malformed factors
_FACTORS = [
    "A1", "A3", "B2", "B3", "C2", "D4", "E6", "F4", "G2", "D3", "B02", "A0", "Z9", "A", "b2"
]


def test_parse_agrees_with_the_reference_on_a_grid():
    heads = _FACTORS + [f"{a}*{b}" for a, b in product(_FACTORS, repeat=2)]
    tails = ["", ":", ":1,", ":,1"] + [
        ":" + ",".join(map(str, marks)) for k in (1, 2, 3) for marks in product(range(6), repeat=k)
    ]
    for head, tail in product(heads, tails):
        assert _parsed(parse, head + tail) == _parsed(reference_parse, head + tail), head + tail


# the grammar's symbols, whitespace, digits that are not ASCII (² is refused by
# int(), ٣ read by it), a lowercase and a non-ASCII letter, and the B2 alias
_ALPHABET = [*"ABCDEFGZa0123456789*:,", " ", "\t", "²", "٣", "é", "B2"]


@given(st.lists(st.sampled_from(_ALPHABET), max_size=16).map("".join))
def test_parse_agrees_with_the_reference_on_any_string(text):
    assert _parsed(parse, text) == _parsed(reference_parse, text)


# --- structure ----------------------------------------------------------------


def test_edges_and_cartan_determine_each_other():
    # the Cartan matrix rebuilt from the edges holds exactly the bond entries
    for t in ALL_SIMPLE:
        m = [[2 if i == j else 0 for j in range(t.rank)] for i in range(t.rank)]
        for i, j, ij, ji in _bonds(t):
            m[i][j], m[j][i] = ij, ji
        assert cartan((t,)) == tuple(map(tuple, m)), str(t)
    assert cartan((SimpleType("C", 3), SimpleType("G", 2))) == (
        (2, -1, 0, 0, 0),
        (-1, 2, -2, 0, 0),
        (0, -1, 2, 0, 0),
        (0, 0, 0, 2, -1),
        (0, 0, 0, -3, 2),
    )


def test_arrow_conventions():
    def edge(d, a, b):
        return next(e for e in edges_of(d) if (e.a, e.b) == (a, b))

    b4 = diagram_of((SimpleType("B", 4),))
    assert edge(b4, 3, 4).mult == 2 and edge(b4, 3, 4).source == 3
    c4 = diagram_of((SimpleType("C", 4),))
    assert edge(c4, 3, 4).mult == 2 and edge(c4, 3, 4).source == 4
    f4 = diagram_of((SimpleType("F", 4),))
    assert edge(f4, 2, 3).mult == 2 and edge(f4, 2, 3).source == 2
    g2 = diagram_of((SimpleType("G", 2),))
    assert edge(g2, 1, 2).mult == 3 and edge(g2, 1, 2).source == 1


def _components(t, gone):
    """The components of t minus gone as component_at reads them, node by
    node: [(type, embedding)] ordered by smallest node.  The nodes that
    name one smallest node must agree on the type and fill its positions."""
    shapes: dict[int, tuple[str, dict[int, int]]] = {}
    for v in range(1, t.rank + 1):
        if v not in gone:
            shape, pos, first = component_at(t, gone, v)
            name, places = shapes.setdefault(first, (str(shape), {}))
            assert name == str(shape) and pos not in places, (str(t), gone, v)
            places[pos] = v
    return [
        (name, tuple(places[p] for p in range(1, len(places) + 1)))
        for _, (name, places) in sorted(shapes.items())
    ]


def test_remove_node_a3_middle():
    d = remove_node(diagram_of((SimpleType("A", 3),)), 2)
    assert d.nodes == (1, 3)
    assert edges_of(d) == frozenset()
    assert _components(SimpleType("A", 3), (2,)) == [("A1", (1,)), ("A1", (3,))]


def test_remove_node_f4_node2():
    assert _components(SimpleType("F", 4), (2,)) == [("A1", (1,)), ("A2", (3, 4))]


def test_remove_node_d4_center():
    assert _components(SimpleType("D", 4), (2,)) == [("A1", (1,)), ("A1", (3,)), ("A1", (4,))]


def test_remove_node_preserves_surviving_edges():
    for letter, rank in [("F", 4), ("E", 6), ("D", 5), ("C", 4)]:
        full = diagram_of((SimpleType(letter, rank),))
        for j in full.nodes:
            cut = remove_node(full, j)
            kept = {e for e in edges_of(full) if j not in (e.a, e.b)}
            assert edges_of(cut) == kept
            assert cut.nodes == tuple(v for v in full.nodes if v != j)


def test_remove_node_rejects_missing_node():
    d = diagram_of((SimpleType("A", 3),))
    with pytest.raises(ValueError):
        remove_node(d, 4)
    with pytest.raises(ValueError):
        remove_node(remove_node(d, 2), 2)


# --- classification -----------------------------------------------------------


@pytest.mark.parametrize("letter,rank", ALL_SIMPLE)
def test_classify_full_diagram_is_identity(letter, rank):
    t = SimpleType(letter, rank)
    for v in range(1, rank + 1):
        assert component_at(t, (), v) == (t, v, 1)


def test_classify_c4_minus_long_end_is_a3():
    assert _components(SimpleType("C", 4), (4,)) == [("A3", (1, 2, 3))]


def test_classify_f4_minus_1_is_c3_oriented_by_the_retained_arrow():
    # the long end of the residual is global node 2, so position 1 is node 4
    assert _components(SimpleType("F", 4), (1,)) == [("C3", (4, 3, 2))]
    assert component_at(SimpleType("F", 4), (1,), 4) == (SimpleType("C", 3), 1, 2)


def test_classify_f4_minus_4_is_b3():
    assert _components(SimpleType("F", 4), (4,)) == [("B3", (1, 2, 3))]


def test_classify_c3_residual_rank2_is_c2():
    # removing node 1 of C3 leaves the double bond: canonically C2 with
    # the short root first
    assert _components(SimpleType("C", 3), (1,)) == [("C2", (2, 3))]


def test_classify_b4_residual_rank2_is_c2_reversed():
    # B4 minus nodes 1,2 leaves nodes {3,4} with arrow 3 -> 4: node 4 is
    # short, so it sits at position 1 of the canonical C2 shape
    assert _components(SimpleType("B", 4), (1, 2)) == [("C2", (4, 3))]


def test_classify_e7_minus_1_is_d6():
    assert _components(SimpleType("E", 7), (1,)) == [("D6", (7, 6, 5, 4, 2, 3))]


def test_classify_e8_minus_2_is_a7():
    assert _components(SimpleType("E", 8), (2,)) == [("A7", (1, 3, 4, 5, 6, 7, 8))]


def test_classify_d5_residual_fork():
    assert _components(SimpleType("D", 5), (1,)) == [("D4", (2, 3, 4, 5))]


def test_every_induced_subdiagram_classifies():
    # any subset of nodes of a valid diagram induces a disjoint union of
    # simple Dynkin graphs, so every surviving node has a component, and
    # the components' ranks partition the surviving nodes, each node at
    # its own position
    for t in ALL_SIMPLE:
        for k in range(t.rank):
            for removed in combinations(range(1, t.rank + 1), k):
                shapes = _components(t, removed)
                assert all(len(emb) == int(name[1:]) for name, emb in shapes)
                covered = sorted(v for _, emb in shapes for v in emb)
                assert covered == [v for v in range(1, t.rank + 1) if v not in removed]


def _assert_component_at_matches_the_graph_classifier(t, gone):
    # same types, positions and smallest nodes at every surviving node
    d = diagram_of((t,))
    for j in gone:
        d = remove_node(d, j)
    placed = 0
    for s in _classify_graph(list(d.nodes), edges_of(d)):  # _identify, then _verify
        for pos, v in enumerate(s.embedding, 1):
            assert component_at(t, gone, v) == (s.type, pos, min(s.embedding)), (str(t), gone, v)
            placed += 1
    return placed


def test_component_at_matches_the_graph_classifier_on_one_and_two_node_residues():
    residues = placed = 0
    for t in simple_types(24):
        for k in (1, 2):
            for gone in combinations(range(1, t.rank + 1), k):
                placed += _assert_component_at_matches_the_graph_classifier(t, gone)
                residues += 1
    # E6-E8, F4 and G2 add 21 + 28 + 36 + 10 + 3 to the 10 385 classical cases
    assert residues == 10_483  # four of them (A1, A2, C2, G2 emptied) have no component
    assert placed == 170_674


def test_chain_components_match_the_graph_classifier_on_every_node_subset():
    # whole components: the runs that component_at reads node by node,
    # gathered by smallest node, are the classifier's types and embeddings
    # on every residue of every type of rank <= 10
    residues = 0
    for t in simple_types(10):
        d = diagram_of((t,))
        for k in range(t.rank + 1):
            for gone in combinations(range(1, t.rank + 1), k):
                r = d
                for j in gone:
                    r = remove_node(r, j)
                shapes = _classify_graph(list(r.nodes), edges_of(r))
                expected = sorted(((str(s.type), s.embedding) for s in shapes), key=lambda s: min(s[1]))
                assert _components(t, gone) == expected, (str(t), gone)
                residues += 1
    assert residues == sum(2**t.rank for t in simple_types(10))


def test_component_at_matches_chain_components_on_every_node_subset():
    # every node of every residue of every type of rank <= 10: the type,
    # position and smallest node of the classifier's component through it
    residues = placed = 0
    for t in simple_types(10):
        for k in range(t.rank + 1):
            for gone in combinations(range(1, t.rank + 1), k):
                placed += _assert_component_at_matches_the_graph_classifier(t, gone)
                residues += 1
    assert residues == sum(2**t.rank for t in simple_types(10))
    assert placed == 38_545


def test_component_at_matches_the_graph_classifier_on_three_node_residues_up_to_rank_16():
    for t in simple_types(16):
        for gone in combinations(range(1, t.rank + 1), min(3, t.rank)):
            _assert_component_at_matches_the_graph_classifier(t, gone)


def test_component_at_reads_a_huge_factor_without_a_node_list():
    # runs are range slices, so a rank beyond sys.maxsize costs O(log #gone)
    n = 2**70
    a, b, c, d = (SimpleType(letter, n) for letter in "ABCD")
    assert component_at(a, (5, n - 1), 7) == (SimpleType("A", n - 7), 2, 6)
    assert component_at(a, (5, n - 1), n) == (SimpleType("A", 1), 1, n)
    assert component_at(b, (3,), n) == (SimpleType("B", n - 3), n - 3, 4)
    assert component_at(b, (n - 2,), n) == (SimpleType("C", 2), 1, n - 1)  # short node first
    assert component_at(c, (3,), 4) == (SimpleType("C", n - 3), 1, 4)
    assert component_at(d, (5,), n) == (SimpleType("D", n - 5), n - 5, 6)
    assert component_at(d, (5,), n - 2) == (SimpleType("D", n - 5), n - 7, 6)
    assert component_at(d, (n - 1,), n) == (SimpleType("A", n - 1), n - 1, 1)
    assert component_at(d, (n - 3,), n - 1) == (SimpleType("A", 3), 1, n - 2)
    assert component_at(d, (n - 2,), n) == (SimpleType("A", 1), 1, n)


def test_component_at_refuses_a_removed_node():
    with pytest.raises(ValueError, match="not a node"):
        component_at(SimpleType("A", 5), (2, 4), 4)
    with pytest.raises(ValueError, match="not a node"):
        component_at(SimpleType("E", 6), (2,), 2)
    with pytest.raises(ValueError, match="not a node"):
        component_at(SimpleType("D", 5), (5,), 5)  # the pendant


def test_neighbours_read_the_bonds_and_their_cartan_entries():
    # each neighbour j of v carries -<alpha_j, alpha_v^vee>, the negated
    # Cartan entry of the oracle's bond table
    for t in simple_types(12):
        c = cartan((t,))
        for v in range(1, t.rank + 1):
            expected = sorted((j + 1, -c[v - 1][j]) for j in range(t.rank) if j != v - 1 and c[v - 1][j])
            assert sorted(neighbours(t, v)) == expected, (str(t), v)


def test_a_diagram_stores_its_removed_nodes_and_no_edges():
    # a Diagram is its factors alone, at any rank; the residues the tests
    # cut are the oracle's, which keep their removed nodes
    huge = diagram_of((SimpleType("A", 10**9),))
    assert huge.factors == (SimpleType("A", 10**9),) and huge.nodes == range(1, 10**9 + 1)
    with pytest.raises(TypeError):
        Diagram((SimpleType("A", 3),), frozenset())  # no edge set to disagree with
    d = Residue((SimpleType("D", 5), SimpleType("A", 2)), (2, 6))
    assert d.nodes == (1, 3, 4, 5, 7) and str(d) == "D5*A2 on nodes 1,3,4,5,7"
    assert [v in d.nodes for v in range(0, 9)] == [False, True, False, True, True, True, False, True, False]
    with pytest.raises(ValueError, match="out of range"):
        Residue((SimpleType("A", 3),), (4,))


def test_component_at_special_runs():
    def shapes(text, removed):
        (t,) = parse(text + ":1").diagram.factors
        return _components(t, removed)

    assert shapes("B6", (3,)) == [("A2", (1, 2)), ("B3", (4, 5, 6))]
    assert shapes("B6", (4,)) == [("A3", (1, 2, 3)), ("C2", (6, 5))]
    assert shapes("C6", (4,)) == [("A3", (1, 2, 3)), ("C2", (5, 6))]
    assert shapes("C6", (6,)) == [("A5", (1, 2, 3, 4, 5))]
    assert shapes("D7", (3,)) == [("A2", (1, 2)), ("D4", (4, 5, 6, 7))]
    assert shapes("D7", (4,)) == [("A3", (1, 2, 3)), ("A3", (6, 5, 7))]
    assert shapes("D7", (6,)) == [("A6", (1, 2, 3, 4, 5, 7))]
    assert shapes("D7", (5,)) == [("A4", (1, 2, 3, 4)), ("A1", (6,)), ("A1", (7,))]
    assert shapes("E6", (1,)) == [("D5", (6, 5, 4, 2, 3))]
    assert shapes("E8", (8,)) == [("E7", (1, 2, 3, 4, 5, 6, 7))]
    assert shapes("E8", (3,)) == [("A1", (1,)), ("A6", (2, 4, 5, 6, 7, 8))]
    assert shapes("E6", (4,)) == [("A2", (1, 3)), ("A1", (2,)), ("A2", (5, 6))]
    assert shapes("F4", (2,)) == [("A1", (1,)), ("A2", (3, 4))]


def test_marked_diagram_validation():
    d = diagram_of((SimpleType("A", 3),))
    with pytest.raises(ValueError):
        MarkedDiagram(d, frozenset())
    with pytest.raises(ValueError, match="mark 4 is not a node of the diagram"):
        MarkedDiagram(d, frozenset({4}))
    with pytest.raises(ValueError, match="mark 0 is not a node of the diagram"):
        MarkedDiagram(d, frozenset({0}))
    # the oracle's residues refuse a mark at a removed node
    with pytest.raises(ValueError):
        MarkedResidue(remove_node(d, 2), frozenset({2}))
