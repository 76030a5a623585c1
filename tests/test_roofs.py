"""Roof detection, enumeration, family naming, the reference table, and
the classification filters for simple K-equivalent maps."""

from __future__ import annotations

import pytest

import roofscope.dynkin
import roofscope.homog
import roofscope.roofs
from oracles import (
    _family_of,
    _parsed_record,
    _pspace_r,
    _residue_charts,
    component_charts,
    dedup_key,
    family_diagram,
    is_roof,
    join_candidates,
    join_enumerate_roofs,
    marked_diagram,
    name_family,
    remove_node,
    surgery_components,
)
from roofscope import (
    ClassificationQuery,
    Family,
    G2_DAGGER_RECORD,
    MarkedDiagram,
    NON_HOMOGENEOUS,
    RoofRecord,
    classify_simple_kequiv,
    diagram_of,
    enumerate_roofs,
    gp_invariants,
    parse,
    serialize,
    verify_paper_table,
)
from roofscope.dynkin import component_at, simple_types
from roofscope.roofs import (
    FAMILY_SPECS,
    _computed_triple,
    _record,
    _roof_stream,
    _table_rows,
    _widest_records,
)


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


@pytest.mark.parametrize("r_filter", [1, 0, -5])
def test_enumerate_refuses_a_fiber_filter_below_2(r_filter):
    # as --fiber does: every roof has r >= 2
    with pytest.raises(ValueError, match="r_filter must be at least 2"):
        enumerate_roofs(10, r_filter)


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
        if fam.label(r) == label:
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
        md = marked_diagram(rec)
        inv = gp_invariants(md)
        assert inv.coefficients() == (rec.r, rec.r)
        assert rec.dim_W == inv.dim  # W's own dimension, not dim V_1 + r - 1
        i, j = sorted(md.marks)
        assert gp_invariants(MarkedDiagram(md.diagram, frozenset({i}))).index == rec.index_V1
        assert gp_invariants(MarkedDiagram(md.diagram, frozenset({j}))).index == rec.index_V2
    # each record is read off its row's triple; past the small ranks both
    # the triple and the diagram's invariants are polynomials in r of
    # degree <= 2 (the FAMILY_SPECS comment), so three r near 10^18 check
    # an unbounded row beyond every r <= 64
    checked = 0
    for family, spec in FAMILY_SPECS.items():
        if spec.factors is None:
            continue
        first, step, last = spec.fibers
        k = (10**18 - first) // step
        far = [] if last is not None else [first + step * (k + i) for i in range(3)]
        for r in [*range(first, min(last or 64, 64) + 1, step), *far]:
            rec, md = _record(family, r), spec.marked(r)
            assert rec == _parsed_record(md, family, r), (family, r)
            w = gp_invariants(md)  # W's own, not dim V_1 + r - 1
            assert (w.dim, w.coefficients()) == (rec.dim_W, (r, r)), (family, r)
            checked += 1
    assert checked == 63 + 63 + 62 + 32 + 61 + 1 + 1 + 5 * 3


def test_enumeration_is_deterministic():
    base = enumerate_roofs(8)
    assert enumerate_roofs(8) == base


def test_residue_join_matches_is_roof_on_every_single_factor():
    # the chart join of the tests, against is_roof on every single-factor
    # two-marked diagram of rank <= 24
    expected = {
        (serialize(md), r)
        for md in every_single_factor_two_marked_diagram(24)
        if (r := is_roof(md)) is not None
    }
    joined = {(serialize(md), r) for md, r in join_candidates(24)}
    assert joined == expected
    assert ("A12:6,7", 7) in joined and ("C8:5,6", 6) in joined


# the D4 triality images of D4:3,4, which the join finds and the rows leave out
D4_TRIALITY = {("D4:1,3", 4), ("D4:1,4", 4)}


def _single_factor(records):
    # the (diagram, r) of the homogeneous records whose diagram has one factor
    return [(rec.diagram, rec.r) for rec in records if rec.homogeneous and "*" not in rec.diagram]


def test_solved_join_is_the_chart_join_up_to_rank_512():
    # the single-factor rows' records, against the join itself
    solved = _single_factor(enumerate_roofs(512))
    assert len(solved) == len(set(solved))
    assert set(solved) == {(serialize(md), r) for md, r in join_candidates(512)} - D4_TRIALITY
    for r in (2, 3, 4, 5, 17, 342):
        assert _single_factor(enumerate_roofs(512, r)) == [hit for hit in solved if hit[1] == r]


def _count_component_at(monkeypatch):
    # component_at as both the library's modules see it, recording (t, gone)
    calls = []

    def counting_component_at(t, gone, v):
        calls.append((t, tuple(gone)))
        return component_at(t, gone, v)

    for module in (roofscope.dynkin, roofscope.homog):
        monkeypatch.setattr(module, "component_at", counting_component_at)
    return calls


def test_candidates_cut_no_classical_diagram():
    # the records come off the family rows: each homogeneous record is one
    # row instance carrying its family and that row's canonical diagram
    hits = {(rec.diagram, rec.r, f) for f, rec in _roof_stream(48) if rec.homogeneous}
    assert ("D48:47,48", 48, Family.D_SPINOR) in hits
    assert ("F4:2,3", 3, Family.F4) in hits
    assert all(diagram == family_diagram(f, r) for diagram, r, f in hits)


def _charts_at(t, gone):
    # the charts of t minus gone, read node by node through component_at
    charts = {}
    for v in range(1, t.rank + 1):
        if v not in gone:
            shape, pos, _ = component_at(t, gone, v)
            r = _pspace_r(shape, pos)
            if r is not None:
                charts[v] = r
    return charts


def test_residue_charts_match_component_at_up_to_rank_96():
    # the O(1) charts against the charts of the per-node reads, and up to
    # rank 32 against the graph classifier's components too
    checked = 0
    for t in simple_types(96):
        for k in range(1, t.rank + 1):
            charts = _residue_charts(t, k)
            assert charts == _charts_at(t, (k,)), (str(t), k)
            if t.rank <= 32:
                d = remove_node(diagram_of((t,)), k)
                assert charts == component_charts(surgery_components(d)), (str(t), k)
            assert len(charts) <= 4 or t.letter == "E"
            checked += 1
    # E6-E8, F4 and G2 add 6 + 7 + 8 + 4 + 2 to the classical residues
    assert checked == 4 * sum(range(1, 97)) - (1 + 2) - (1 + 2 + 3) - 1 + 27


def test_candidates_read_classical_residues_without_surgery(monkeypatch):
    # the records read no diagram; recomputing a table row reads each of
    # its at most four marks' (W's two, V_1's and V_2's) at most three
    # neighbours through component_at, with at most both marks removed: no
    # residue is cut or read whole
    components = _count_component_at(monkeypatch)
    assert len(enumerate_roofs(64)) == 211 and components == []
    rows = list(_table_rows(64))
    assert ("D64", 64) in {(row.family, row.r) for row in rows}
    assert components and all(len(gone) <= 2 for _, gone in components)
    assert len(components) <= 4 * 3 * len(rows)


def test_enumeration_parses_no_diagram(monkeypatch):
    # every record is read off its row, and each table row's diagram is
    # built from the row's factors and marks
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(roofscope.roofs, "parse", counting_parse)
    monkeypatch.setattr(roofscope.dynkin, "parse", counting_parse)
    assert len(enumerate_roofs(24)) == 78 and verify_paper_table(24).all_pass
    assert parsed == ["B3:1"]  # the G2^dagger row's Q^5


def test_fiber_filter_matches_the_filtered_enumeration():
    # r_filter prunes the charts before the join; the records must not change
    for max_rank in range(1, 25):
        full = enumerate_roofs(max_rank)
        for r in range(2, 14):
            assert enumerate_roofs(max_rank, r_filter=r) == [
                rec for rec in full if rec.r == r
            ], (max_rank, r)


def test_enumeration_matches_the_join_based_reference_up_to_rank_128():
    # the row records against the chart join with its dedup and parse
    # round trip, at every rank bound and fiber filter
    for r_filter in (None, 2, 3, 4, 5, 6):
        reference = [
            (rec.homogeneous and marked_diagram(rec).diagram.total_rank, rec)
            for rec in join_enumerate_roofs(128, r_filter)
        ]
        for max_rank in range(1, 129):
            expected = [rec for rank, rec in reference if rank <= max_rank]
            assert enumerate_roofs(max_rank, r_filter) == expected, (max_rank, r_filter)


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


def test_product_join_matches_the_full_product_scan():
    hits = [
        (md, r)
        for md in every_one_mark_per_factor_product(12)
        if (r := is_roof(md)) is not None
    ]
    # the A_PRODUCT records are the products, and no other record is one
    for max_rank in range(1, 13):
        for r_filter in (None, 2, 3, 4, 5, 6, 7):
            records = enumerate_roofs(max_rank, r_filter=r_filter)
            products = [rec for rec in records if rec.family == Family.A_PRODUCT.label(rec.r)]
            assert sum("*" in rec.diagram for rec in records) == len(products)
            joined = {(rec.diagram, rec.r) for rec in products}
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
        (spec.label(r), r, family_diagram(family, r))
        for family, spec in FAMILY_SPECS.items()
        if spec.factors is not None
        for r in filter(spec.admits, range(2, max_rank + 2))
        if spec.rank(r) <= max_rank
    }
    expected.add((G2_DAGGER_RECORD.family, G2_DAGGER_RECORD.r, NON_HOMOGENEOUS))
    got = {(rec.family, rec.r, rec.diagram) for rec in enumerate_roofs(max_rank)}
    assert got == expected


def test_g2_dagger_alone_fits_the_smallest_rank_bound():
    # its row has no diagram and rank 0, so it sits at r = 3 under every bound
    assert enumerate_roofs(1) == [G2_DAGGER_RECORD] == enumerate_roofs(1, 3)
    assert enumerate_roofs(1, 2) == []
    assert list(_widest_records(1)) == [G2_DAGGER_RECORD]
    assert FAMILY_SPECS[Family.G2_DAGGER].rank(3) == 0


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
    assert dedup_key(parse("A4:1,2")) == dedup_key(parse("A4:3,4"))  # chain reversal
    assert dedup_key(parse("D4:1,4")) == dedup_key(parse("D4:3,4"))  # triality
    assert dedup_key(parse("D5:4,5")) == dedup_key(parse("D5:4,5"))  # fork swap fixes
    assert dedup_key(parse("E6:1,3")) == dedup_key(parse("E6:5,6"))  # E6 reversal
    assert dedup_key(parse("A4:1,2")) != dedup_key(parse("A4:1,3"))


def test_product_records_with_c_charts_are_named_as_products():
    assert name_family(_record_from("C2*C2:1,3", 4)) == "A3xA3"
    assert name_family(_record_from("C2*A3:1,3", 4)) == "A3xA3"
    assert name_family(_record_from("A2*A2:1,4", 3)) == "A2xA2"


@pytest.mark.parametrize(
    "family", [f for f, spec in FAMILY_SPECS.items() if spec.factors is not None]
)
def test_each_family_row_agrees_with_its_diagram_up_to_r_16(family):
    spec = FAMILY_SPECS[family]
    for r in filter(spec.admits, range(2, 17)):
        diagram = family_diagram(family, r)
        md = parse(diagram)
        assert is_roof(md) == r, diagram
        assert _family_of(md, r) is family, diagram
        assert spec.rank(r) == md.diagram.total_rank, diagram
        rec = _record(family, r)
        assert rec.diagram == diagram
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
    # dim X = dim M + dim W + 1 at any d, and A_r^M has dim W = 2r - 1
    result = classify_simple_kequiv(ClassificationQuery(symplectic=True, dim_x=10))
    assert result.labels() == ["A_r^M (r<=5)"]


def test_classify_large_codimension_case():
    # the fiber gap is dim V_1, so a row is listed only where its V_1 has
    # that dimension: at r = 4, A3xA3, A4^M and D4 have dim V_1 = 3, 4, 6
    for fiber_gap, labels in [(3, ["A3xA3"]), (4, ["A4^M"]), (6, ["D4"])]:
        result = classify_simple_kequiv(ClassificationQuery(r=4, fiber_gap=fiber_gap))
        assert result.labels() == labels, fiber_gap
        assert result.applied_rules == ("codimension >= fiber dimension - 2",)
    result = classify_simple_kequiv(ClassificationQuery(r=4, fiber_gap=5))
    assert result.available and result.entries == ()
    result = classify_simple_kequiv(ClassificationQuery(r=3, fiber_gap=5))
    assert result.labels() == ["G2^dagger"]


def test_classify_no_applicable_case():
    result = classify_simple_kequiv(ClassificationQuery(dim_x=100, r=9))
    assert not result.available
    assert result.entries == ()


def test_classify_requires_a_constraint():
    with pytest.raises(ValueError):
        classify_simple_kequiv(ClassificationQuery())
    with pytest.raises(ValueError):
        classify_simple_kequiv(ClassificationQuery(r=1))
    # the fibers of Y_i -> M are the roof's V_i, at least P^1
    with pytest.raises(ValueError, match="is at least 1, got 0$"):
        classify_simple_kequiv(ClassificationQuery(r=3, fiber_gap=0))


def _families(q):
    return {e.family for e in classify_simple_kequiv(q).entries}


def test_classify_intersection_is_monotone():
    # strengthening a query never enlarges the family list
    weaker = _families(ClassificationQuery(dim_x=8))
    for stronger_query in [
        ClassificationQuery(dim_x=8, r=2),
        ClassificationQuery(dim_x=8, r=3),
        ClassificationQuery(dim_x=8, symplectic=True),
        ClassificationQuery(dim_x=8, r=2, fiber_gap=4),
    ]:
        assert _families(stronger_query) <= weaker, stronger_query
    # nor does adding a fiber gap to a query that has a classification
    for dim_x in (None, 3, 5, 8, 9):
        for r in (None, 2, 3, 4, 6):
            for symplectic in (False, True):
                q = ClassificationQuery(dim_x, r, None, symplectic)
                if q == ClassificationQuery() or not classify_simple_kequiv(q).available:
                    continue
                for fiber_gap in [*range(1, 25), 10**20]:
                    stronger_query = q._replace(fiber_gap=fiber_gap)
                    assert _families(stronger_query) <= _families(q), stronger_query


def test_classify_symplectic_with_codim_instantiates():
    result = classify_simple_kequiv(ClassificationQuery(symplectic=True, r=2))
    assert result.labels() == ["A2^M"]


# The four cases written out as the r each family may take; an unbounded
# set is capped at R_CAP, above every r that the grid's largest ambient
# dimension d = 100 admits (r < dim V_1 + r = dim W + 1 <= d).
R_CAP = 100
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


def _dim_w(spec, r):
    if spec.factors is None:
        return G2_DAGGER_RECORD.dim_W
    return gp_invariants(spec.marked(r)).dim


def _dim_v1(spec, r):
    # V_1 keeps the smaller mark; the fibers of Y_i -> M are the V_i
    if spec.factors is None:
        return G2_DAGGER_RECORD.dim_V1
    md = spec.marked(r)
    return gp_invariants(MarkedDiagram(md.diagram, frozenset({min(md.marks)}))).dim


def test_classification_matches_the_r_set_oracle():
    checked = 0
    for dim_x in (None, 3, 5, 7, 8, 9, 100):
        for r in (None, 2, 3, 4, 5, 6, 8):
            for fiber_gap in (None, 1, 2, 3, 4, 5, 6, 7, 10):
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
                        if dim_x is not None:
                            # dim X = dim M + dim W + 1 at any d, with dim W read off W itself
                            allowed = {k for k in allowed if _dim_w(spec, k) + 1 <= dim_x}
                        if fiber_gap is not None:
                            allowed = {k for k in allowed if _dim_v1(spec, k) == fiber_gap}
                        if not allowed:
                            continue
                        if len(allowed) == 1:
                            label = spec.label(min(allowed))
                        elif max(allowed) < R_CAP:
                            label = f"{family.value} (r<={max(allowed)})"
                        else:
                            label = family.value
                        expected.append((family, label))
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
        marked_diagram(rec)


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


def test_a_row_whose_contractions_disagree_in_dimension_fails(monkeypatch):
    # W is a P^(r-1)-bundle over each V_i, so verify-table holds the three
    # dimensions it computes together and reads dim V_1 as -1 when they differ
    honest = roofscope.roofs.gp_invariants

    def faulty(md):
        inv = honest(md)
        return inv._replace(dim=inv.dim + 1) if str(md) == "D5:5" else inv

    monkeypatch.setattr(roofscope.roofs, "gp_invariants", faulty)
    (row,) = [row for row in verify_paper_table(5).rows if row.family == "D5"]
    assert row.computed == (-1, 8, 8) and not row.ok
    assert verify_paper_table(4).all_pass


def test_roof_record_validates_dimension_additivity():
    with pytest.raises(ValueError):
        RoofRecord(
            family="C2", r=2, diagram="C2:1,2", dim_W=5, dim_V1=3, dim_V2=3,
            index_V1=4, index_V2=3, homogeneous=True,
        )
