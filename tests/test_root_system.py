"""Root system construction checked against an independent reflection oracle.

The oracle generates the full root set as the orbit of the simple roots
under the simple reflections s_i(v) = v - <v, alpha_i^vee> alpha_i and
never touches the root-string closure used by the library.
"""

from __future__ import annotations

import pytest

from roofscope import (
    SimpleType,
    Weight,
    construct,
    pairing,
    sum_positive_roots,
    weight_of,
)
from roofscope.root_system import _two_rho

EXPECTED_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("A", 5): 15, ("A", 6): 21, ("A", 7): 28, ("A", 8): 36,
    ("B", 3): 9, ("B", 4): 16, ("B", 5): 25, ("B", 6): 36,
    ("B", 7): 49, ("B", 8): 64,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16, ("C", 5): 25,
    ("C", 6): 36, ("C", 7): 49, ("C", 8): 64,
    ("D", 4): 12, ("D", 5): 20, ("D", 6): 30, ("D", 7): 42, ("D", 8): 56,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}

ALL_SIMPLE = sorted(EXPECTED_COUNTS)


def reflection_orbit_positive_roots(rs):
    """Oracle: close the simple roots under all simple reflections, then
    keep the vectors with nonnegative coefficients."""
    n = rs.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple) | {tuple(-c for c in v) for v in simple}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for i in range(n):
                p = sum(v[j] * rs.cartan[i][j] for j in range(n))
                img = tuple(c - p * (1 if j == i else 0) for j, c in enumerate(v))
                if img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    return {v for v in roots if all(c >= 0 for c in v)}


@pytest.mark.parametrize("letter,rank", ALL_SIMPLE)
def test_positive_root_counts_match_oracle_and_closed_form(letter, rank):
    rs = construct([SimpleType(letter, rank)])
    oracle = reflection_orbit_positive_roots(rs)
    assert set(rs.positive_roots) == oracle
    assert len(rs.positive_roots) == EXPECTED_COUNTS[(letter, rank)]


def test_two_factor_product_is_block_diagonal():
    rs = construct([SimpleType("A", 1), SimpleType("A", 1)])
    assert len(rs.positive_roots) == 2
    assert rs.cartan == ((2, 0), (0, 2))
    assert rs.positive_roots == ((0, 1), (1, 0))


def test_product_roots_are_supported_in_one_factor():
    rs = construct([SimpleType("A", 2), SimpleType("C", 3)])
    assert len(rs.positive_roots) == 3 + 9
    for beta in rs.positive_roots:
        left = any(beta[:2])
        right = any(beta[2:])
        assert left != right


def test_simple_roots_are_positive_and_coefficients_nonnegative():
    for letter, rank in ALL_SIMPLE:
        rs = construct([SimpleType(letter, rank)])
        n = rs.rank
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            assert e in rs.positive_roots
        for beta in rs.positive_roots:
            assert all(c >= 0 for c in beta)


def test_saturation_every_nonsimple_root_descends():
    for letter, rank in ALL_SIMPLE:
        rs = construct([SimpleType(letter, rank)])
        roots = set(rs.positive_roots)
        for beta in rs.positive_roots:
            if sum(beta) == 1:
                continue
            assert any(
                tuple(c - (1 if j == i else 0) for j, c in enumerate(beta)) in roots
                for i in range(rs.rank)
                if beta[i] > 0
            )


def test_construct_is_deterministic_and_sorted_by_height_then_lex():
    rs1 = construct([SimpleType("F", 4)])
    rs2 = construct([SimpleType("F", 4)])
    assert rs1.positive_roots == rs2.positive_roots
    keys = [(sum(v), v) for v in rs1.positive_roots]
    assert keys == sorted(keys)


def test_pairing_on_simple_roots_reads_the_cartan_matrix():
    a2 = construct([SimpleType("A", 2)])
    assert pairing(a2, (1, 0), 1) == 2
    assert pairing(a2, (1, 0), 2) == -1
    g2 = construct([SimpleType("G", 2)])
    # alpha_1 long: <alpha_1, alpha_2^vee> = -3, and the product of the
    # off-diagonal entries is the bond multiplicity 3
    assert pairing(g2, (1, 0), 2) == -3
    assert pairing(g2, (0, 1), 1) == -1
    assert pairing(g2, (1, 0), 2) * pairing(g2, (0, 1), 1) == 3


def test_pairing_diagonal_is_two_everywhere():
    for letter, rank in [("A", 4), ("C", 5), ("E", 7), ("G", 2)]:
        rs = construct([SimpleType(letter, rank)])
        for i in range(1, rs.rank + 1):
            e = tuple(1 if j == i - 1 else 0 for j in range(rs.rank))
            assert pairing(rs, e, i) == 2


def test_pairing_rejects_bad_input():
    rs = construct([SimpleType("A", 2)])
    with pytest.raises(IndexError):
        pairing(rs, (1, 0), 3)
    with pytest.raises(IndexError):
        pairing(rs, (1, 0), 0)
    with pytest.raises(ValueError):
        pairing(rs, (1, 0, 0), 1)


def test_sum_positive_roots_a1():
    rs = construct([SimpleType("A", 1)])
    total = sum_positive_roots(rs)
    assert total == (1,)
    assert pairing(rs, total, 1) == 2


def test_sum_of_all_positive_roots_pairs_to_two_at_every_node():
    # 2*rho identity, all admissible factors and a couple of products
    systems = [[SimpleType(l, r)] for l, r in ALL_SIMPLE]
    systems += [
        [SimpleType("A", 2), SimpleType("A", 2)],
        [SimpleType("C", 2), SimpleType("D", 4)],
        [SimpleType("G", 2), SimpleType("B", 3)],
    ]
    for spec in systems:
        rs = construct(spec)
        two_rho = sum_positive_roots(rs)
        for i in range(1, rs.rank + 1):
            assert pairing(rs, two_rho, i) == 2


def _canonical_types(max_rank):
    for letter in "ABCDEFG":
        for rank in range(1, max_rank + 1):
            try:
                yield SimpleType(letter, rank)
            except ValueError:
                continue


def test_two_rho_closed_form_matches_the_root_sum():
    # the Bourbaki-plate 2*rho used for G/P invariants, against the closure
    types = list(_canonical_types(12))
    assert len(types) == 12 + 10 + 11 + 9 + 3 + 1 + 1
    for t in types:
        assert _two_rho(t) == sum_positive_roots(construct([t])), str(t)


def test_sum_positive_roots_with_predicate_matches_hand_enumeration():
    a2 = construct([SimpleType("A", 2)])
    sigma = sum_positive_roots(a2, lambda beta: beta[0] != 0)
    assert sigma == (2, 1)  # alpha_1 + (alpha_1 + alpha_2)
    assert pairing(a2, sigma, 1) == 3  # the index of P^2


@pytest.mark.parametrize(
    "letter,rank,hint",
    [
        ("C", 1, "A1"),
        ("B", 2, "C2"),
        ("D", 2, "A1*A1"),
        ("D", 3, "A3"),
        ("E", 5, "D5"),
    ],
)
def test_noncanonical_types_are_rejected_naming_the_canonical_form(letter, rank, hint):
    with pytest.raises(ValueError, match=hint.replace("*", r"\*")):
        SimpleType(letter, rank)


def test_other_inadmissible_types_are_rejected():
    for letter, rank in [("A", 0), ("F", 3), ("F", 5), ("G", 3), ("E", 9), ("Z", 1)]:
        with pytest.raises(ValueError):
            SimpleType(letter, rank)


def test_construct_requires_one_or_two_factors():
    with pytest.raises(ValueError):
        construct([])
    with pytest.raises(ValueError):
        construct([SimpleType("A", 1)] * 3)


def test_weight_of_reports_all_pairings():
    rs = construct([SimpleType("A", 2)])
    w = weight_of(rs, (1, 1))  # the highest root of A2
    assert isinstance(w, Weight)
    assert w.coords == (1, 1)
