"""Grammar, surgery and component classification of marked diagrams."""

from __future__ import annotations

import pytest

from oracles import ALL_SIMPLE, _classify_graph, cartan
from roofscope import (
    MarkedDiagram,
    ParseError,
    SimpleType,
    classify_components,
    diagram_of,
    parse,
    remove_node,
    serialize,
)
from roofscope.dynkin import chain_components
from roofscope.root_system import _bonds, simple_types


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


def test_whitespace_is_forbidden_everywhere():
    with pytest.raises(ParseError):
        parse("A4: 1")
    with pytest.raises(ParseError):
        parse(" A4:1")


def test_marks_are_required():
    with pytest.raises(ParseError, match="mark"):
        parse("F4")


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
        return next(e for e in d.edges if (e.a, e.b) == (a, b))

    b4 = diagram_of((SimpleType("B", 4),))
    assert edge(b4, 3, 4).mult == 2 and edge(b4, 3, 4).source == 3
    c4 = diagram_of((SimpleType("C", 4),))
    assert edge(c4, 3, 4).mult == 2 and edge(c4, 3, 4).source == 4
    f4 = diagram_of((SimpleType("F", 4),))
    assert edge(f4, 2, 3).mult == 2 and edge(f4, 2, 3).source == 2
    g2 = diagram_of((SimpleType("G", 2),))
    assert edge(g2, 1, 2).mult == 3 and edge(g2, 1, 2).source == 1


def test_remove_node_a3_middle():
    d = remove_node(diagram_of((SimpleType("A", 3),)), 2)
    assert d.nodes == (1, 3)
    assert d.edges == frozenset()
    shapes = classify_components(d)
    assert [(s.type.letter, s.type.rank) for s in shapes] == [("A", 1), ("A", 1)]
    assert [s.embedding for s in shapes] == [(1,), (3,)]


def test_remove_node_f4_node2():
    d = remove_node(diagram_of((SimpleType("F", 4),)), 2)
    shapes = classify_components(d)
    assert [(s.type.letter, s.type.rank, s.embedding) for s in shapes] == [
        ("A", 1, (1,)),
        ("A", 2, (3, 4)),
    ]


def test_remove_node_d4_center():
    d = remove_node(diagram_of((SimpleType("D", 4),)), 2)
    shapes = classify_components(d)
    assert [(s.type.letter, s.type.rank) for s in shapes] == [("A", 1)] * 3
    assert [s.embedding for s in shapes] == [(1,), (3,), (4,)]


def test_remove_node_preserves_surviving_edges():
    for letter, rank in [("F", 4), ("E", 6), ("D", 5), ("C", 4)]:
        full = diagram_of((SimpleType(letter, rank),))
        for j in full.nodes:
            cut = remove_node(full, j)
            kept = {e for e in full.edges if j not in (e.a, e.b)}
            assert cut.edges == kept
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
    d = diagram_of((SimpleType(letter, rank),))
    shapes = classify_components(d)
    assert len(shapes) == 1
    assert shapes[0].type == SimpleType(letter, rank)
    assert shapes[0].embedding == tuple(range(1, rank + 1))


def test_classify_c4_minus_long_end_is_a3():
    d = remove_node(diagram_of((SimpleType("C", 4),)), 4)
    shapes = classify_components(d)
    assert [(s.type.letter, s.type.rank) for s in shapes] == [("A", 3)]


def test_classify_f4_minus_1_is_c3_oriented_by_the_retained_arrow():
    d = remove_node(diagram_of((SimpleType("F", 4),)), 1)
    (shape,) = classify_components(d)
    assert shape.type == SimpleType("C", 3)
    # the long end of the residual is global node 2, so position 1 is node 4
    assert shape.embedding == (4, 3, 2)
    assert shape.position_of(4) == 1


def test_classify_f4_minus_4_is_b3():
    d = remove_node(diagram_of((SimpleType("F", 4),)), 4)
    (shape,) = classify_components(d)
    assert shape.type == SimpleType("B", 3)
    assert shape.embedding == (1, 2, 3)


def test_classify_c3_residual_rank2_is_c2():
    # removing node 1 of C3 leaves the double bond: canonically C2 with
    # the short root first
    d = remove_node(diagram_of((SimpleType("C", 3),)), 1)
    (shape,) = classify_components(d)
    assert shape.type == SimpleType("C", 2)
    assert shape.embedding == (2, 3)


def test_classify_b4_residual_rank2_is_c2_reversed():
    # B4 minus nodes 1,2 leaves nodes {3,4} with arrow 3 -> 4: node 4 is
    # short, so it sits at position 1 of the canonical C2 shape
    d = remove_node(remove_node(diagram_of((SimpleType("B", 4),)), 1), 2)
    (shape,) = classify_components(d)
    assert shape.type == SimpleType("C", 2)
    assert shape.embedding == (4, 3)


def test_classify_e7_minus_1_is_d6():
    d = remove_node(diagram_of((SimpleType("E", 7),)), 1)
    (shape,) = classify_components(d)
    assert shape.type == SimpleType("D", 6)
    assert shape.embedding == (7, 6, 5, 4, 2, 3)


def test_classify_e8_minus_2_is_a7():
    d = remove_node(diagram_of((SimpleType("E", 8),)), 2)
    (shape,) = classify_components(d)
    assert shape.type == SimpleType("A", 7)
    assert shape.embedding == (1, 3, 4, 5, 6, 7, 8)


def test_classify_d5_residual_fork():
    d = remove_node(diagram_of((SimpleType("D", 5),)), 1)
    (shape,) = classify_components(d)
    assert shape.type == SimpleType("D", 4)
    assert shape.embedding == (2, 3, 4, 5)


def test_every_induced_subdiagram_classifies():
    # any subset of nodes of a valid diagram induces a disjoint union of
    # simple Dynkin graphs, so classification must always succeed and the
    # component ranks must partition the surviving nodes
    from itertools import combinations

    for letter, rank in ALL_SIMPLE:
        full = diagram_of((SimpleType(letter, rank),))
        for k in range(rank):
            for removed in combinations(range(1, rank + 1), k):
                d = full
                for j in removed:
                    d = remove_node(d, j)
                shapes = classify_components(d)
                assert sum(s.type.rank for s in shapes) == rank - k
                covered = sorted(v for s in shapes for v in s.embedding)
                assert covered == list(d.nodes)


def _assert_closed_form_matches_the_graph_classifier(t, removed):
    d = diagram_of((t,))
    for j in removed:
        d = remove_node(d, j)
    expected = _classify_graph(list(d.nodes), d.edges)  # _identify, then _verify
    assert chain_components(t, removed) == expected, (str(t), removed)
    assert classify_components(d) == expected, (str(t), removed)


def test_chain_components_match_the_graph_classifier_on_one_and_two_node_residues():
    # same types, embeddings and component order
    from itertools import combinations

    checked = 0
    for t in simple_types(24):
        for k in (1, 2):
            for removed in combinations(range(1, t.rank + 1), k):
                _assert_closed_form_matches_the_graph_classifier(t, removed)
                checked += 1
    # E6-E8, F4 and G2 add 21 + 28 + 36 + 10 + 3 to the 10 385 classical cases
    assert checked == 10_483  # four of them (A1, A2, C2, G2 emptied) have no component


def test_chain_components_match_the_graph_classifier_on_every_node_subset():
    from itertools import combinations

    for t in simple_types(10):
        for k in range(t.rank + 1):
            for removed in combinations(range(1, t.rank + 1), k):
                _assert_closed_form_matches_the_graph_classifier(t, removed)


def test_chain_components_special_runs():
    def shapes(text, removed):
        (t,) = parse(text + ":1").diagram.factors
        return [(str(s.type), s.embedding) for s in chain_components(t, removed)]

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


def test_chain_components_reject_other_types_and_foreign_nodes():
    with pytest.raises(ValueError, match="1..4"):
        chain_components(SimpleType("D", 4), (5,))
    with pytest.raises(ValueError, match="1..4"):
        chain_components(SimpleType("A", 4), (0,))


def test_marked_diagram_validation():
    d = diagram_of((SimpleType("A", 3),))
    with pytest.raises(ValueError):
        MarkedDiagram(d, frozenset())
    with pytest.raises(ValueError):
        MarkedDiagram(d, frozenset({4}))
    cut = remove_node(d, 2)
    with pytest.raises(ValueError):
        MarkedDiagram(cut, frozenset({2}))


def test_residual_diagrams_do_not_serialize():
    md = parse("A3:1,3")
    cut = MarkedDiagram(remove_node(md.diagram, 1), frozenset({3}))
    with pytest.raises(ValueError):
        serialize(cut)
