"""The value types: immutable tuples with keyword defaults and checked
constructors."""

from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import Edge, surgery_components
from roofscope import (
    G2_DAGGER_RECORD,
    BundleChowRing,
    ClassificationQuery,
    CyclicBase,
    Diagram,
    MarkedDiagram,
    RoofRecord,
    SimpleType,
    classify_simple_kequiv,
    diagram_of,
    gp_invariants,
    kequiv_forces_equal_codim,
    mukai_pair_check,
    parse,
    projective_space,
    verify_paper_table,
)


A2 = SimpleType("A", 2)
A3 = SimpleType("A", 3)


def one_of_each():
    """An instance of each of the 14 value types of the package and of the
    oracle's Edge and ComponentShape, keyed by type name."""
    table = verify_paper_table(2)
    classes = classify_simple_kequiv(ClassificationQuery(dim_x=8))
    values = [
        A2,
        Edge(1, 2, 1, None),
        diagram_of((A2,)),
        parse("A2:1"),
        surgery_components(diagram_of((A2,)))[0],
        gp_invariants(parse("A2:1")),
        G2_DAGGER_RECORD,
        table.rows[0],
        table,
        ClassificationQuery(dim_x=8),
        classes.entries[0],
        classes,
        projective_space(2),
        BundleChowRing(projective_space(2), 2, (3, 3)),
        mukai_pair_check(5, 2, 3, 5),
        kequiv_forces_equal_codim(3, 4),
    ]
    return {type(v).__name__: v for v in values}


VALUES = one_of_each()


def test_every_value_type_is_listed_once():
    assert len(VALUES) == 16


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_and_attributes_cannot_be_set(name):
    value = VALUES[name]
    field = value._fields[0]
    current = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, current)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_values_and_hashes(name):
    value = VALUES[name]
    twin = type(value)(**{f: getattr(value, f) for f in value._fields})
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)


def test_keyword_construction_fills_the_defaults():
    record = RoofRecord(
        family="G2",
        r=2,
        diagram="G2:1,2",
        dim_W=6,
        dim_V1=5,
        dim_V2=5,
        index_V1=3,
        index_V2=5,
        homogeneous=True,
    )
    assert record.notes == ""
    query = ClassificationQuery()
    assert (query.dim_x, query.r, query.fiber_gap, query.symplectic) == (
        None,
        None,
        None,
        False,
    )


@pytest.mark.parametrize(
    "ring",
    [
        BundleChowRing(projective_space(2), 2, (3, 3)),
        BundleChowRing(base=projective_space(2), rank=2, cherns=[3, 3]),
    ],
)
def test_bundle_ring_stores_integral_cherns_as_ints(ring):
    assert type(ring.cherns) is tuple
    assert all(type(c) is int for c in ring.cherns)
    assert ring.cherns == (3, 3)


def test_bundle_ring_keeps_a_fraction_only_where_a_chern_needs_one():
    ring = BundleChowRing(projective_space(3), 3, (Fraction(6, 2), Fraction(1, 2), 4))
    assert ring.cherns == (3, Fraction(1, 2), 4)
    assert [type(c) for c in ring.cherns] == [int, Fraction, int]
    made = BundleChowRing._make((ring.base, 2, [Fraction(4, 2), Fraction(5, 3)]))
    assert made.cherns == (2, Fraction(5, 3))
    assert [type(c) for c in made.cherns] == [int, Fraction]
    replaced = ring._replace(cherns=(Fraction(9, 3), 2.5, True))
    assert replaced.cherns == (3, Fraction(5, 2), 1)
    assert [type(c) for c in replaced.cherns] == [int, Fraction, int]


BAD_CONSTRUCTIONS = [
    pytest.param(
        lambda: SimpleType("E", 5), "E5 is not a canonical type; use D5", id="SimpleType"
    ),
    pytest.param(lambda: SimpleType("", 3), "unknown type letter ''", id="SimpleType-empty"),
    pytest.param(lambda: SimpleType("AB", 3), "unknown type letter 'AB'", id="SimpleType-AB"),
    pytest.param(
        lambda: SimpleType("A", True),
        "rank must be a positive integer, got True",
        id="SimpleType-bool",
    ),
    pytest.param(lambda: Edge(1, 2, 2, 3), "arrow source must be an endpoint", id="Edge"),
    pytest.param(lambda: Diagram(()), "a diagram has 1 or 2 factors", id="Diagram"),
    pytest.param(
        lambda: Diagram((A2, A3, A2)), "a diagram has 1 or 2 factors", id="Diagram-three-factors"
    ),
    pytest.param(
        lambda: MarkedDiagram(diagram_of((A2,)), frozenset()),
        "at least one mark is required",
        id="MarkedDiagram",
    ),
    pytest.param(
        lambda: CyclicBase(0, 1, 1), "dimension and degree must be positive", id="CyclicBase"
    ),
    pytest.param(
        lambda: BundleChowRing(projective_space(2), 2, (3,)),
        "expected 2 Chern coefficients",
        id="BundleChowRing",
    ),
    pytest.param(
        lambda: RoofRecord("G2", 2, "G2:1,2", 9, 5, 5, 3, 5, True),
        r"dim W = 9 must equal dim V_i \+ r - 1 \(5\+2-1, 5\+2-1\)",
        id="RoofRecord",
    ),
]


@pytest.mark.parametrize("build, message", BAD_CONSTRUCTIONS)
def test_each_checked_constructor_names_its_problem(build, message):
    with pytest.raises(ValueError, match=message):
        build()


BAD_REPLACEMENTS = [
    pytest.param(SimpleType("E", 6), {"rank": 5}, "use D5", id="SimpleType"),
    pytest.param(Edge(1, 2, 1, None), {"a": 5}, "a < b", id="Edge"),
    pytest.param(diagram_of((A2,)), {"factors": ()}, "1 or 2 factors", id="Diagram"),
    pytest.param(parse("A2:1"), {"marks": frozenset()}, "at least one mark", id="MarkedDiagram"),
    pytest.param(projective_space(2), {"dim": 0}, "must be positive", id="CyclicBase"),
    pytest.param(
        BundleChowRing(projective_space(2), 2, (3, 3)),
        {"cherns": (3,)},
        "expected 2 Chern coefficients",
        id="BundleChowRing",
    ),
    pytest.param(G2_DAGGER_RECORD, {"dim_W": 9}, "dim W = 9", id="RoofRecord"),
]


@pytest.mark.parametrize("value, changes, message", BAD_REPLACEMENTS)
def test_make_and_replace_go_through_the_checked_constructor(value, changes, message):
    assert type(value)._make(value) == value
    assert value._replace() == value
    with pytest.raises(ValueError, match=message):
        value._replace(**changes)
    with pytest.raises(ValueError, match=message):
        type(value)._make({**value._asdict(), **changes}.values())
