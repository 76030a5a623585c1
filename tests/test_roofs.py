"""Roof detection, enumeration, family naming, the reference table, and
the classification filters for simple K-equivalent maps."""

from __future__ import annotations

import pytest

import roofscope.roofs
from roofscope import (
    ClassificationQuery,
    Family,
    G2_DAGGER_RECORD,
    MarkedDiagram,
    NON_HOMOGENEOUS,
    RoofRecord,
    classify_simple_kequiv,
    enumerate_roofs,
    family_diagram,
    gp_invariants,
    is_roof,
    name_family,
    parse,
    remove_node,
    serialize,
    verify_paper_table,
)
from roofscope.dynkin import chain_components
from roofscope.homog import component_charts
from roofscope.roofs import (
    FAMILY_SPECS,
    _computed_triple,
    _family_of,
    _record_for,
    _residue_charts,
)
from roofscope.root_system import simple_types


def every_two_marked_diagram(max_rank):
    """Brute-force candidate generator: every mark pair, not the enumerator's chart join."""
    yield from every_single_factor_two_marked_diagram(max_rank)
    yield from every_one_mark_per_factor_product(max_rank)


def every_single_factor_two_marked_diagram(max_rank):
    for letter, rank in simple_types(max_rank):
        for i in range(1, rank):
            for j in range(i + 1, rank + 1):
                yield parse(f"{letter}{rank}:{i},{j}")


def every_one_mark_per_factor_product(max_rank):
    # each factor leaves at least rank 1 to the other
    factors = simple_types(max_rank - 1)
    for a, (l1, r1) in enumerate(factors):
        for l2, r2 in factors[a:]:
            if r1 + r2 > max_rank:
                continue
            for i in range(1, r1 + 1):
                for j in range(1, r2 + 1):
                    yield parse(f"{l1}{r1}*{l2}{r2}:{i},{r1 + j}")


# --- is_roof ---------------------------------------------------------------------


def test_is_roof_examples():
    assert is_roof(parse("A4:2,3")) == 3  # Fl(2,3;5)
    assert is_roof(parse("A4:1,3")) is None
    assert is_roof(parse("C2:1,2")) == 2  # the Sp4 full flag
    assert is_roof(parse("B2:1,2")) == 2  # alias of the same diagram
    assert is_roof(parse("F4:2,3")) == 3
    assert is_roof(parse("G2:1,2")) == 2
    assert is_roof(parse("D4:1,3")) == 4  # triality image of D4:3,4
    assert is_roof(parse("A4:1,4")) == 4
    assert is_roof(parse("B3:1,3")) is None
    assert is_roof(parse("C3:1,2")) is None
    assert is_roof(parse("E6:1,6")) is None


def test_is_roof_on_products():
    assert is_roof(parse("A1*A1:1,2")) == 2
    assert is_roof(parse("A2*A2:1,4")) == 3
    assert is_roof(parse("A2*A3:1,4")) is None  # P^2 against P^3
    assert is_roof(parse("C2*C2:1,3")) == 4  # two charts of P^3
    assert is_roof(parse("C2*A3:1,3")) == 4
    assert is_roof(parse("C2*A3:1,4")) is None  # Gr(2,4) side
    assert is_roof(parse("C3*A5:1,4")) == 6


def test_is_roof_requires_two_marks():
    with pytest.raises(ValueError):
        is_roof(parse("A4:1"))
    with pytest.raises(ValueError):
        is_roof(parse("A4:1,2,3"))


# --- enumeration ------------------------------------------------------------------


EXPECTED_RANK_8 = {
    # the seven homogeneous families instantiated with canonical diagram
    # rank at most 8, from the family parameterizations
    ("A1xA1", 2, "A1*A1:1,2"),
    ("A2xA2", 3, "A2*A2:1,3"),
    ("A3xA3", 4, "A3*A3:1,4"),
    ("A4xA4", 5, "A4*A4:1,5"),
    ("A2^M", 2, "A2:1,2"),
    ("A3^M", 3, "A3:1,3"),
    ("A4^M", 4, "A4:1,4"),
    ("A5^M", 5, "A5:1,5"),
    ("A6^M", 6, "A6:1,6"),
    ("A7^M", 7, "A7:1,7"),
    ("A8^M", 8, "A8:1,8"),
    ("A4^G", 3, "A4:2,3"),
    ("A6^G", 4, "A6:3,4"),
    ("A8^G", 5, "A8:4,5"),
    ("C2", 2, "C2:1,2"),
    ("C5", 4, "C5:3,4"),
    ("C8", 6, "C8:5,6"),
    ("D4", 4, "D4:3,4"),
    ("D5", 5, "D5:4,5"),
    ("D6", 6, "D6:5,6"),
    ("D7", 7, "D7:6,7"),
    ("D8", 8, "D8:7,8"),
    ("F4", 3, "F4:2,3"),
    ("G2", 2, "G2:1,2"),
    ("G2^dagger", 3, NON_HOMOGENEOUS),
}


def test_enumerate_rank_8_is_exactly_the_known_families():
    records = enumerate_roofs(8)
    got = {(rec.family, rec.r, rec.diagram) for rec in records}
    assert got == EXPECTED_RANK_8


def test_enumerate_small_ranks():
    got = {(rec.family, rec.r) for rec in enumerate_roofs(2)}
    assert got == {("A1xA1", 2), ("A2^M", 2), ("C2", 2), ("G2", 2), ("G2^dagger", 3)}

    got = {rec.family for rec in enumerate_roofs(4)}
    assert got == {
        "A1xA1", "A2xA2", "A2^M", "A3^M", "A4^M", "A4^G", "C2", "D4", "F4",
        "G2", "G2^dagger",
    }

    got = {rec.family for rec in enumerate_roofs(4, r_filter=3)}
    assert got == {"A2xA2", "A3^M", "A4^G", "F4", "G2^dagger"}


def test_enumerate_fiber_filter_excludes_g2_dagger_unless_r_is_3():
    assert all(rec.r == 2 for rec in enumerate_roofs(8, r_filter=2))
    assert not any(rec.family == "G2^dagger" for rec in enumerate_roofs(8, r_filter=2))
    got = {rec.family for rec in enumerate_roofs(8, r_filter=3)}
    assert got == {"A2xA2", "A3^M", "A4^G", "F4", "G2^dagger"}


def test_enumerate_rejects_bad_rank():
    with pytest.raises(ValueError):
        enumerate_roofs(0)


def test_enumeration_agrees_with_brute_force_scan():
    """Independent cross-check: run is_roof on every two-marked diagram of
    total rank <= 8 and compare against the enumerated records after the
    same variety-level canonicalization."""
    records = enumerate_roofs(8)
    by_diagram = {rec.diagram: rec for rec in records if rec.homogeneous}
    seen = set()
    for md in every_two_marked_diagram(8):
        r = is_roof(md)
        if r is None:
            continue
        rec = RoofRecord(
            family="unknown", r=r, diagram=serialize(md),
            dim_W=gp_invariants(md).dim, dim_V1=gp_invariants(md).dim - r + 1,
            dim_V2=gp_invariants(md).dim - r + 1, index_V1=r, index_V2=r,
            homogeneous=True,
        )
        label = name_family(rec)
        assert label != "unknown", f"unrecognized roof {rec.diagram}"
        canonical = family_diagram(_family_by_label(label, r), r)
        canonical_rank = parse(canonical).diagram.total_rank
        if canonical_rank <= 8:
            assert canonical in by_diagram, canonical
            assert by_diagram[canonical].r == r
            seen.add(canonical)
    assert seen == set(by_diagram)


def _family_by_label(label: str, r: int) -> Family:
    for fam in Family:
        if fam is not Family.UNKNOWN and fam.label(r) == label:
            return fam
    raise AssertionError(label)


def test_no_roofs_from_exceptional_e_types():
    for letter, rank in [("E", 6), ("E", 7), ("E", 8)]:
        for i in range(1, rank):
            for j in range(i + 1, rank + 1):
                assert is_roof(parse(f"E{rank}:{i},{j}")) is None
    assert not any("E" in rec.diagram for rec in enumerate_roofs(8) if rec.homogeneous)


def test_record_invariants_hold_exhaustively():
    for rec in enumerate_roofs(8):
        assert rec.dim_W == rec.dim_V1 + rec.r - 1 == rec.dim_V2 + rec.r - 1
        if not rec.homogeneous:
            continue
        md = rec.marked_diagram()
        inv = gp_invariants(md)
        assert inv.coefficients() == (rec.r, rec.r)
        i, j = sorted(md.marks)
        assert gp_invariants(MarkedDiagram(md.diagram, frozenset({i}))).index == rec.index_V1
        assert gp_invariants(MarkedDiagram(md.diagram, frozenset({j}))).index == rec.index_V2


def test_enumeration_is_deterministic():
    base = enumerate_roofs(8)
    assert enumerate_roofs(8) == base


def test_residue_join_matches_is_roof_on_every_single_factor():
    # every single-factor two-marked diagram of rank <= 12, through is_roof
    expected = {
        (serialize(md), r)
        for md in every_single_factor_two_marked_diagram(12)
        if (r := is_roof(md)) is not None
    }
    joined = {(serialize(md), r) for md, r in roofscope.roofs._candidates(12)}
    assert joined == expected
    assert ("A12:6,7", 7) in joined and ("C8:5,6", 6) in joined


def test_candidates_cut_no_classical_diagram(monkeypatch):
    # every residue, E, F and G included, is read off its type in closed form
    cut = []

    def counting_remove_node(d, j):
        cut.append(d.factors)
        return remove_node(d, j)

    assert not hasattr(roofscope.roofs, "remove_node")
    for module in (roofscope.dynkin, roofscope.homog):
        monkeypatch.setattr(module, "remove_node", counting_remove_node)
    hits = list(roofscope.roofs._candidates(48))
    assert ("D48:47,48", 48) in {(serialize(md), r) for md, r in hits}
    assert ("F4:2,3", 3) in {(serialize(md), r) for md, r in hits}
    assert cut == []


def test_residue_charts_match_the_chain_components_up_to_rank_96():
    # the O(1) charts against the charts of the closed-form components
    checked = 0
    for t in simple_types(96):
        if t.letter in "ABCD":
            for k in range(1, t.rank + 1):
                charts = _residue_charts(t, k)
                assert charts == component_charts(chain_components(t, (k,))), (str(t), k)
                assert len(charts) <= 4
                checked += 1
    assert checked == 4 * sum(range(1, 97)) - (1 + 2) - (1 + 2 + 3) - 1


def test_candidates_read_classical_residues_without_surgery(monkeypatch):
    # an A-D residue is arithmetic: no chain_components, no remove_node;
    # an E, F or G residue is one chain_components call with one node
    # removed; each hit's index check reads the full factor and its Levi
    # factor, the latter with both marks removed
    components, cut = [], []

    def counting_chain_components(t, removed):
        removed = tuple(removed)
        components.append((t, removed))
        return chain_components(t, removed)

    def counting_remove_node(d, j):
        cut.append(d.factors)
        return remove_node(d, j)

    monkeypatch.setattr(roofscope.dynkin, "chain_components", counting_chain_components)
    monkeypatch.setattr(roofscope.roofs, "chain_components", counting_chain_components)
    for module in (roofscope.dynkin, roofscope.homog):
        monkeypatch.setattr(module, "remove_node", counting_remove_node)
    hits = list(roofscope.roofs._candidates(64))
    assert ("D64:63,64", 64) in {(serialize(md), r) for md, r in hits}
    assert cut == []
    checks = {(md.diagram.factors[0], tuple(sorted(md.marks))) for md, _ in hits}
    assert {(t, removed) for t, removed in components if len(removed) == 2} == checks
    assert {(t, removed) for t, removed in components if len(removed) == 1} == {
        (t, (k,)) for t in simple_types(64) if t.letter in "EFG" for k in range(1, t.rank + 1)
    }


def test_enumeration_parses_each_record_once(monkeypatch):
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(roofscope.roofs, "parse", counting_parse)
    records = enumerate_roofs(24)
    assert sorted(parsed) == sorted(rec.diagram for rec in records if rec.homogeneous)


def test_fiber_filter_matches_the_filtered_enumeration():
    # r_filter prunes the charts before the join; the records must not change
    for max_rank in range(1, 25):
        full = enumerate_roofs(max_rank)
        for r in range(2, 14):
            assert enumerate_roofs(max_rank, r_filter=r) == [
                rec for rec in full if rec.r == r
            ], (max_rank, r)


def _scanned_product_instances(max_rank, r_filter, hits):
    """The instances a full scan of the products keeps from their is_roof hits."""
    out = set()
    for md, r in hits:
        if md.diagram.total_rank > max_rank or r_filter not in (None, r):
            continue
        family = _family_of(md, r)
        assert family is Family.A_PRODUCT, md
        if FAMILY_SPECS[family].rank(r) <= max_rank:
            out.add((family_diagram(family, r), r))
    return out


def test_product_join_matches_the_full_product_scan(monkeypatch):
    hits = [
        (md, r)
        for md in every_one_mark_per_factor_product(12)
        if (r := is_roof(md)) is not None
    ]
    # with the single-factor scan emptied, every homogeneous record is
    # an A_PRODUCT row instance
    monkeypatch.setattr(
        roofscope.roofs, "_candidates", lambda max_rank, r_filter=None: iter(())
    )
    for max_rank in range(1, 13):
        for r_filter in (None, 2, 3, 4, 5, 6, 7):
            records = [
                rec
                for rec in enumerate_roofs(max_rank, r_filter=r_filter)
                if rec.homogeneous
            ]
            assert all(rec.family == Family.A_PRODUCT.label(rec.r) for rec in records)
            joined = {(rec.diagram, rec.r) for rec in records}
            assert joined == _scanned_product_instances(max_rank, r_filter, hits), (
                max_rank,
                r_filter,
            )


def test_product_records_fit_the_rank_bound_in_their_a_form():
    # C2*C2:1,3 is P^3 x P^3 at rank 4, but its A-form A3*A3:1,4 has rank 6
    md = parse("C2*C2:1,3")
    assert is_roof(md) == 4 and _family_of(md, 4) is Family.A_PRODUCT
    assert _scanned_product_instances(4, None, [(md, 4)]) == set()
    assert not any(rec.r == 4 and "*" in rec.diagram for rec in enumerate_roofs(4))
    assert not any("*" in rec.diagram for rec in enumerate_roofs(4, r_filter=4))
    assert ("A3*A3:1,4", 4) in {(rec.diagram, rec.r) for rec in enumerate_roofs(6)}


@pytest.mark.parametrize("max_rank", [16, 24, 32])
def test_enumeration_is_every_row_instance_that_fits_the_rank_bound(max_rank):
    # ranks the exhaustive scans above do not reach
    expected = {
        (spec.label(r), r, spec.diagram(r))
        for spec in FAMILY_SPECS.values()
        if spec.diagram is not None
        for r in filter(spec.admits, range(2, max_rank + 2))
        if spec.rank(r) <= max_rank
    }
    expected.add((G2_DAGGER_RECORD.family, G2_DAGGER_RECORD.r, NON_HOMOGENEOUS))
    got = {(rec.family, rec.r, rec.diagram) for rec in enumerate_roofs(max_rank)}
    assert got == expected


# --- family naming -----------------------------------------------------------------


def _record_from(diagram: str, r: int) -> RoofRecord:
    md = parse(diagram)
    dim = gp_invariants(md).dim
    i, j = sorted(md.marks)
    v1 = gp_invariants(MarkedDiagram(md.diagram, frozenset({i})))
    v2 = gp_invariants(MarkedDiagram(md.diagram, frozenset({j})))
    return RoofRecord(
        family="unknown", r=r, diagram=diagram, dim_W=dim,
        dim_V1=v1.dim, dim_V2=v2.dim, index_V1=v1.index, index_V2=v2.index,
        homogeneous=True,
    )


def test_name_family_examples():
    assert name_family(_record_from("A6:3,4", 4)) == "A6^G"
    assert name_family(_record_from("D5:4,5", 5)) == "D5"
    assert name_family(_record_from("C5:3,4", 4)) == "C5"
    assert name_family(_record_from("A2:1,2", 2)) == "A2^M"
    assert name_family(_record_from("F4:2,3", 3)) == "F4"
    assert name_family(G2_DAGGER_RECORD) == "G2^dagger"


def test_name_family_unknown_is_a_label_not_an_error():
    rec = RoofRecord(
        family="unknown", r=2, diagram="A4:1,3", dim_W=8, dim_V1=7, dim_V2=7,
        index_V1=2, index_V2=2, homogeneous=True,
    )
    assert name_family(rec) == "unknown"


def test_name_family_is_stable_under_mark_swap_and_automorphisms():
    # the A-chain reversal and D4 triality images name the same family
    for diagram, r in [("A4:1,4", 4), ("A6:3,4", 4)]:
        rev = _reverse_a_chain(diagram)
        assert name_family(_record_from(diagram, r)) == name_family(_record_from(rev, r))
    for marks in ("1,3", "1,4", "3,4"):
        assert name_family(_record_from(f"D4:{marks}", 4)) == "D4"


def _reverse_a_chain(diagram: str) -> str:
    body, marks = diagram.split(":")
    n = int(body[1:])
    flipped = sorted(n + 1 - int(m) for m in marks.split(","))
    return body + ":" + ",".join(map(str, flipped))


def test_automorphism_dedup_key_identifies_isomorphic_markings():
    from roofscope.roofs import _dedup_key

    assert _dedup_key(parse("A4:1,2")) == _dedup_key(parse("A4:3,4"))  # chain reversal
    assert _dedup_key(parse("D4:1,4")) == _dedup_key(parse("D4:3,4"))  # triality
    assert _dedup_key(parse("D5:4,5")) == _dedup_key(parse("D5:4,5"))  # fork swap fixes
    assert _dedup_key(parse("E6:1,3")) == _dedup_key(parse("E6:5,6"))  # E6 reversal
    assert _dedup_key(parse("A4:1,2")) != _dedup_key(parse("A4:1,3"))


def test_product_records_with_c_charts_are_named_as_products():
    assert name_family(_record_from("C2*C2:1,3", 4)) == "A3xA3"
    assert name_family(_record_from("C2*A3:1,3", 4)) == "A3xA3"
    assert name_family(_record_from("A2*A2:1,4", 3)) == "A2xA2"


@pytest.mark.parametrize(
    "family", [f for f, spec in FAMILY_SPECS.items() if spec.diagram is not None]
)
def test_each_family_row_agrees_with_its_diagram_up_to_r_16(family):
    spec = FAMILY_SPECS[family]
    for r in filter(spec.admits, range(2, 17)):
        diagram = family_diagram(family, r)
        md = parse(diagram)
        assert is_roof(md) == r, diagram
        assert _family_of(md, r) is family, diagram
        assert spec.rank(r) == md.diagram.total_rank, diagram
        rec = _record_for(md, family, r)
        assert (rec.dim_V1, rec.index_V1, rec.index_V2) == spec.triple(r), diagram
        assert rec.family == spec.label(r) == family.label(r)


# --- the reference table --------------------------------------------------------------


def test_verify_table_all_rows_pass_up_to_r_10():
    report = verify_paper_table(10)
    assert report.all_pass
    rows = {(row.family, row.r): row for row in report.rows}
    assert rows[("F4", 3)].computed == (20, 5, 7)
    assert rows[("G2", 2)].computed == (5, 3, 5)
    assert rows[("G2^dagger", 3)].computed == (5, 5, 5)
    assert rows[("D4", 4)].computed == (6, 6, 6)
    assert rows[("C2", 2)].computed == (3, 4, 3)
    assert rows[("A3^M", 3)].computed == (3, 4, 4)


def test_verify_table_row_counts():
    report = verify_paper_table(10)
    assert len(report.rows) == 9 + 9 + 8 + 5 + 7 + 1 + 1 + 1
    report = verify_paper_table(2)
    assert {row.family for row in report.rows} == {"A1xA1", "A2^M", "C2", "G2"}
    assert report.all_pass


def test_verify_table_rejects_small_r_max():
    with pytest.raises(ValueError):
        verify_paper_table(1)


def test_verify_table_fault_injection_fails_the_named_row(monkeypatch):
    spec = FAMILY_SPECS[Family.D_SPINOR]
    wrong = spec._replace(triple=lambda r: (10, 9, 8) if r == 5 else spec.triple(r))
    monkeypatch.setitem(FAMILY_SPECS, Family.D_SPINOR, wrong)
    report = verify_paper_table(10)
    assert not report.all_pass
    bad = report.failures()
    assert len(bad) == 1 and bad[0].family == "D5"


# --- classification ---------------------------------------------------------------------


def test_classify_dim_8():
    result = classify_simple_kequiv(ClassificationQuery(dim_x=8))
    assert result.available
    assert set(result.labels()) == {
        "A_{r-1}xA_{r-1} (r<=3)", "A_r^M (r<=3)", "C2", "G2", "G2^dagger",
    }


def test_classify_codim_2():
    result = classify_simple_kequiv(ClassificationQuery(r=2))
    assert set(result.labels()) == {"A1xA1", "A2^M", "C2", "G2"}


def test_classify_symplectic():
    result = classify_simple_kequiv(ClassificationQuery(symplectic=True))
    assert result.labels() == ["A_r^M"]
    result = classify_simple_kequiv(ClassificationQuery(symplectic=True, dim_x=10))
    assert result.labels() == ["A_r^M"]


def test_classify_large_codimension_case():
    result = classify_simple_kequiv(ClassificationQuery(r=4, fiber_gap=5))
    assert set(result.labels()) == {"A3xA3", "A4^M", "D4"}
    result = classify_simple_kequiv(ClassificationQuery(r=3, fiber_gap=5))
    assert set(result.labels()) == {"A2xA2", "A3^M", "G2^dagger"}


def test_classify_no_applicable_case():
    result = classify_simple_kequiv(ClassificationQuery(dim_x=100, r=9))
    assert not result.available
    assert result.entries == ()


def test_classify_requires_a_constraint():
    with pytest.raises(ValueError):
        classify_simple_kequiv(ClassificationQuery())
    with pytest.raises(ValueError):
        classify_simple_kequiv(ClassificationQuery(r=1))


def test_classify_intersection_is_monotone():
    # strengthening a query never enlarges the family list
    weaker = classify_simple_kequiv(ClassificationQuery(dim_x=8))
    for stronger_query in [
        ClassificationQuery(dim_x=8, r=2),
        ClassificationQuery(dim_x=8, r=3),
        ClassificationQuery(dim_x=8, symplectic=True),
        ClassificationQuery(dim_x=8, r=2, fiber_gap=4),
    ]:
        stronger = classify_simple_kequiv(stronger_query)
        weak_families = {e.family for e in weaker.entries}
        strong_families = {e.family for e in stronger.entries}
        assert strong_families <= weak_families, stronger_query


def test_classify_symplectic_with_codim_instantiates():
    result = classify_simple_kequiv(ClassificationQuery(symplectic=True, r=2))
    assert result.labels() == ["A2^M"]


# The four cases written out as the r each family may take; an unbounded
# set is capped at R_CAP.
R_CAP = 30
ANY_R = frozenset(range(2, R_CAP + 1))
ORACLE_CASES = {
    "symplectic ambient variety": {Family.A_MUKAI: ANY_R},
    "codimension 2": {
        Family.A_PRODUCT: {2}, Family.A_MUKAI: {2}, Family.C_FLAG: {2}, Family.G2: {2},
    },
    "codimension >= fiber dimension - 2": {
        Family.A_PRODUCT: ANY_R, Family.A_MUKAI: ANY_R, Family.C_FLAG: {2},
        Family.D_SPINOR: {4}, Family.G2_DAGGER: {3},
    },
    "ambient dimension <= 8": {
        Family.A_PRODUCT: {2, 3}, Family.A_MUKAI: {2, 3}, Family.C_FLAG: {2},
        Family.G2: {2}, Family.G2_DAGGER: {3},
    },
}


def _oracle_applies(name, q):
    if name == "symplectic ambient variety":
        return q.symplectic
    if name == "codimension 2":
        return q.r == 2
    if name == "codimension >= fiber dimension - 2":
        return q.r is not None and q.fiber_gap is not None and q.r >= q.fiber_gap - 2
    return q.dim_x is not None and q.dim_x <= 8


def test_classification_matches_the_r_set_oracle():
    checked = 0
    for dim_x in (None, 3, 5, 7, 8, 9, 100):
        for r in (None, 2, 3, 4, 5, 6, 8):
            for fiber_gap in (None, 2, 4, 5, 6, 7, 10):
                for symplectic in (False, True):
                    q = ClassificationQuery(dim_x, r, fiber_gap, symplectic)
                    if q == ClassificationQuery():
                        continue
                    result = classify_simple_kequiv(q)
                    applied = [n for n in ORACLE_CASES if _oracle_applies(n, q)]
                    assert result.applied_rules == tuple(applied), q
                    if not applied:
                        assert not result.available and result.entries == (), q
                        continue
                    assert result.available, q
                    expected = []
                    for family, spec in FAMILY_SPECS.items():
                        allowed = set(ANY_R if r is None else {r})
                        for name in applied:
                            allowed &= ORACLE_CASES[name].get(family, set())
                        allowed = {k for k in allowed if spec.admits(k)}
                        if not allowed:
                            continue
                        if len(allowed) == 1:
                            label = spec.label(min(allowed))
                        elif max(allowed) < R_CAP:
                            label = f"{family.value} (r<={max(allowed)})"
                        else:
                            label = family.value
                        expected.append((family, label, tuple(applied)))
                    assert [tuple(e) for e in result.entries] == expected, q
                    checked += 1
    assert checked > 300


def test_g2_dagger_record_contents():
    rec = G2_DAGGER_RECORD
    assert rec.r == 3 and rec.diagram == NON_HOMOGENEOUS
    assert (rec.dim_W, rec.dim_V1, rec.index_V1) == (7, 5, 5)
    row = FAMILY_SPECS[Family.G2_DAGGER].triple(rec.r)
    assert (rec.dim_V1, rec.index_V1, rec.index_V2) == row
    assert row == _computed_triple(Family.G2_DAGGER, rec.r)
    assert rec.dim_W == rec.dim_V1 + rec.r - 1
    assert not rec.homogeneous
    assert "Ottaviani" in rec.notes and "(2,2,2)" in rec.notes
    with pytest.raises(ValueError):
        rec.marked_diagram()


def test_g2_dagger_certificate_matches_the_bundle_ring():
    # verify-table certifies r = 3 without the chow layer: index Q^5 must
    # equal c_1(E(1)) = c_1(E) + 3; chow states the same bundle and base
    from roofscope.chow import (
        OTTAVIANI_CHERNS_H, XI, BundleChowRing, quadric, twist_cherns,
    )
    from roofscope.roofs import _OTTAVIANI_C1, _OTTAVIANI_RANK

    assert len(OTTAVIANI_CHERNS_H) == _OTTAVIANI_RANK
    assert OTTAVIANI_CHERNS_H[0] == _OTTAVIANI_C1
    twisted = twist_cherns(OTTAVIANI_CHERNS_H, _OTTAVIANI_RANK, 1)
    assert twisted[0] == _OTTAVIANI_C1 + _OTTAVIANI_RANK
    assert quadric(5).index == gp_invariants(parse("B3:1")).index
    ring = BundleChowRing(quadric(5), _OTTAVIANI_RANK, twisted)
    assert ring.canonical_class() == _OTTAVIANI_RANK * XI


def test_g2_dagger_row_fails_when_the_certificate_does(monkeypatch):
    monkeypatch.setattr(roofscope.roofs, "_OTTAVIANI_C1", 1)
    (row,) = [row for row in verify_paper_table(3).rows if row.family == "G2^dagger"]
    assert row.computed == (5, -1, -1) and not row.ok


def test_roof_record_validates_dimension_additivity():
    with pytest.raises(ValueError):
        RoofRecord(
            family="C2", r=2, diagram="C2:1,2", dim_W=5, dim_V1=3, dim_V2=3,
            index_V1=4, index_V2=3, homogeneous=True,
        )
