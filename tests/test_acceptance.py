"""Acceptance suite: one test per criterion, exact tolerances, timed where
a runtime bound is part of the criterion.  Each test prints a PASS line.

Criteria:
  1. verify-table --r-max 10 reproduces every table row exactly (< 5 s).
  2. roofs --max-rank 8 equals the known-family instances and an
     independent brute-force scan; E6/E7/E8 contribute nothing (< 10 s).
  3. every enumerated roof has index vector (r, r) and dim W = dim V_i + r - 1.
  4. positive-root counts and the 2*rho pairing identity, rank <= 8 (< 1 s).
  5. anticanonical classes of the bundle calculus: r*xi for the standard
     pairs, 3*(xi+H) for the untwisted Ottaviani datum, degree 48.
  6. equal-codimension forcing on 2..20 and discrepancy r - 1.
  7. the three classification queries return exact string sets.
  8. byte-identical CLI output when the same queries run twice.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

from oracles import ALL_SIMPLE, pairing, positive_roots
from roofscope import (
    BundleChowRing,
    ClassificationQuery,
    H,
    MarkedDiagram,
    OTTAVIANI_CHERNS_H,
    XI,
    blowup_discrepancy,
    classify_simple_kequiv,
    enumerate_roofs,
    gp_invariants,
    is_roof,
    kequiv_forces_equal_codim,
    parse,
    projective_space,
    quadric,
    verify_paper_table,
)
from roofscope.cli import main

CLOSED_FORM_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_criterion_1_paper_table_reproduction():
    start = time.perf_counter()
    code, out = run_cli("verify-table", "--r-max", "10")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "FAIL" not in out

    report = verify_paper_table(10)
    assert report.all_pass
    rows = {(row.family, row.r): row for row in report.rows}
    assert rows[("F4", 3)].computed == (20, 5, 7) == rows[("F4", 3)].expected
    assert rows[("G2", 2)].computed == (5, 3, 5) == rows[("G2", 2)].expected
    for r in range(2, 11):
        assert rows[(f"A{r - 1}xA{r - 1}", r)].computed == (r - 1, r, r)
        assert rows[(f"A{r}^M", r)].computed == (r, r + 1, r + 1)
        if r >= 3:
            assert rows[(f"A{2 * r - 2}^G", r)].computed == (r * (r - 1), 2 * r - 1, 2 * r - 1)
        if r % 2 == 0:
            assert rows[(f"C{3 * r // 2 - 1}", r)].computed == (
                3 * r * (r - 1) // 2, 2 * r, 2 * r - 1,
            )
        if r >= 4:
            assert rows[(f"D{r}", r)].computed == (r * (r - 1) // 2, 2 * r - 2, 2 * r - 2)
    assert rows[("G2^dagger", 3)].computed == (5, 5, 5)
    assert elapsed < 5.0, f"verify-table took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: all {len(report.rows)} table rows exact in {elapsed:.2f}s")


def _brute_force_roofs(max_rank: int) -> set[tuple[str, int]]:
    """Independent scan: every 2-marked diagram, is_roof only, mapped to
    its variety-canonical diagram."""
    from roofscope import Family, family_diagram, name_family, RoofRecord

    found: set[tuple[str, int]] = set()
    candidates = []
    for letter, rank in ALL_SIMPLE:
        if rank > max_rank or rank < 2:
            continue
        for i in range(1, rank):
            for j in range(i + 1, rank + 1):
                candidates.append(f"{letter}{rank}:{i},{j}")
    for a, (l1, r1) in enumerate(ALL_SIMPLE):
        for l2, r2 in ALL_SIMPLE[a:]:
            if r1 + r2 > max_rank:
                continue
            # every 2-subset of the global nodes, including both marks
            # inside one factor (the other factor is then a point)
            total = r1 + r2
            for i in range(1, total):
                for j in range(i + 1, total + 1):
                    candidates.append(f"{l1}{r1}*{l2}{r2}:{i},{j}")
    for text in candidates:
        md = parse(text)
        r = is_roof(md)
        if r is None:
            continue
        dim = gp_invariants(md).dim
        probe = RoofRecord(
            family="unknown", r=r, diagram=text, dim_W=dim,
            dim_V1=dim - r + 1, dim_V2=dim - r + 1, index_V1=r, index_V2=r,
            homogeneous=True,
        )
        label = name_family(probe)
        assert label != "unknown", f"scan found an unclassified roof {text}"
        family = next(
            f for f in Family
            if f is not Family.UNKNOWN and f.label(r) == label
        )
        canonical = family_diagram(family, r)
        if parse(canonical).diagram.total_rank <= max_rank:
            found.add((canonical, r))
    return found


def test_criterion_2_enumeration_completeness_rank_8():
    start = time.perf_counter()
    records = enumerate_roofs(8)
    scanned = _brute_force_roofs(8)
    elapsed = time.perf_counter() - start

    homogeneous = {(rec.diagram, rec.r) for rec in records if rec.homogeneous}
    assert homogeneous == scanned

    expected = {
        ("A1*A1:1,2", 2), ("A2*A2:1,3", 3), ("A3*A3:1,4", 4), ("A4*A4:1,5", 5),
        ("A2:1,2", 2), ("A3:1,3", 3), ("A4:1,4", 4), ("A5:1,5", 5),
        ("A6:1,6", 6), ("A7:1,7", 7), ("A8:1,8", 8),
        ("A4:2,3", 3), ("A6:3,4", 4), ("A8:4,5", 5),
        ("C2:1,2", 2), ("C5:3,4", 4), ("C8:5,6", 6),
        ("D4:3,4", 4), ("D5:4,5", 5), ("D6:5,6", 6), ("D7:6,7", 7), ("D8:7,8", 8),
        ("F4:2,3", 3), ("G2:1,2", 2),
    }
    assert homogeneous == expected
    assert sum(1 for rec in records if not rec.homogeneous) == 1  # G2^dagger
    assert not any("E6" in d or "E7" in d or "E8" in d for d, _ in homogeneous)
    assert elapsed < 10.0, f"enumeration + scan took {elapsed:.2f}s"
    print(f"PASS criterion 2: {len(records)} records = brute-force scan in {elapsed:.2f}s")


def test_criterion_3_index_vector_and_dimension_additivity():
    records = enumerate_roofs(8)
    for rec in records:
        assert rec.dim_W == rec.dim_V1 + rec.r - 1
        assert rec.dim_W == rec.dim_V2 + rec.r - 1
        if rec.homogeneous:
            md = rec.marked_diagram()
            assert gp_invariants(md).coefficients() == (rec.r, rec.r)
            for keep in sorted(md.marks):
                base = gp_invariants(MarkedDiagram(md.diagram, frozenset({keep})))
                assert base.dim == rec.dim_W - rec.r + 1
    print(f"PASS criterion 3: index vector (r, r) and dim additivity on {len(records)} roofs")


def test_criterion_4_root_system_suite():
    start = time.perf_counter()
    for t in ALL_SIMPLE:
        roots = positive_roots((t,))
        assert len(roots) == CLOSED_FORM_COUNTS[t.letter](t.rank)
        two_rho = tuple(map(sum, zip(*roots)))
        for i in range(1, t.rank + 1):
            assert pairing((t,), two_rho, i) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"root suite took {elapsed:.2f}s"
    print(f"PASS criterion 4: root counts and 2*rho pairings exact in {elapsed:.2f}s")


def test_criterion_5_bundle_calculus():
    for r in range(2, 7):
        cherns = tuple(Fraction(comb(r + 1, k)) for k in range(1, r + 1))
        ring = BundleChowRing(projective_space(r), r, cherns)
        assert ring.canonical_class() == r * XI
    split = BundleChowRing(projective_space(2), 3, (3, 3, 1))
    assert split.canonical_class() == 3 * XI
    ottaviani = BundleChowRing(quadric(5), 3, OTTAVIANI_CHERNS_H)
    assert ottaviani.canonical_class() == 3 * (XI + H)
    flag3fold = BundleChowRing(projective_space(2), 2, (3, 3))
    assert flag3fold.degree((2 * XI) ** 3) == 48
    print("PASS criterion 5: anticanonical classes and degree 48 exact")


def test_criterion_6_equal_codimension_forcing():
    for r1 in range(2, 21):
        assert blowup_discrepancy(r1) == r1 - 1
        for r2 in range(2, 21):
            assert kequiv_forces_equal_codim(r1, r2).consistent == (r1 == r2)
    print("PASS criterion 6: forcing consistent exactly on the diagonal 2..20")


def test_criterion_7_classification_filters():
    result = classify_simple_kequiv(ClassificationQuery(dim_x=8))
    assert set(result.labels()) == {
        "A_{r-1}xA_{r-1} (r<=3)", "A_r^M (r<=3)", "C2", "G2", "G2^dagger",
    }
    result = classify_simple_kequiv(ClassificationQuery(r=2))
    assert set(result.labels()) == {"A1xA1", "A2^M", "C2", "G2"}
    result = classify_simple_kequiv(ClassificationQuery(symplectic=True))
    assert set(result.labels()) == {"A_r^M"}

    code, out = run_cli("classify", "--dim-x", "8", "--format", "json")
    assert code == 0
    labels = {e["family"] for e in json.loads(out)["families"]}
    assert labels == {"A_{r-1}xA_{r-1} (r<=3)", "A_r^M (r<=3)", "C2", "G2", "G2^dagger"}
    print("PASS criterion 7: classification filters exact string sets")


DETERMINISM_COMMANDS = [
    ("verify-table", "--r-max", "10"),
    ("roofs", "--max-rank", "8", "--format", "json"),
    ("roofs", "--max-rank", "8", "--format", "csv"),
    ("classify", "--dim-x", "8"),
    ("classify", "--codim", "2"),
    ("classify", "--symplectic"),
    ("gp", "F4:2,3", "--format", "json"),
    ("chow", "degree", "--base", "P2", "--rank", "2", "--cherns", "3,3",
     "--element", "(2*xi)^3"),
]


def test_criterion_8_determinism_across_thread_settings():
    first = [run_cli(*argv) for argv in DETERMINISM_COMMANDS]
    second = [run_cli(*argv) for argv in DETERMINISM_COMMANDS]
    assert first == second
    print("PASS criterion 8: byte-identical output on a second run")
