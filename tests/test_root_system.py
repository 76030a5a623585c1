"""Closed-form root data checked against the reflection-orbit oracle
in ``oracles.py``."""

from __future__ import annotations

import pytest

from oracles import ALL_SIMPLE, cartan, pairing, positive_roots
from roofscope import SimpleType, positive_root_count
from roofscope.root_system import _two_rho, simple_types

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


def test_simple_types_are_the_31_types_of_rank_at_most_8():
    assert len(EXPECTED_COUNTS) == 31
    assert simple_types(8) == [SimpleType(*key) for key in EXPECTED_COUNTS]


@pytest.mark.parametrize("letter,rank", ALL_SIMPLE)
def test_positive_root_counts_match_oracle_and_closed_form(letter, rank):
    t = SimpleType(letter, rank)
    assert len(positive_roots((t,))) == EXPECTED_COUNTS[(letter, rank)]
    assert positive_root_count(t) == EXPECTED_COUNTS[(letter, rank)]


def test_two_factor_product_is_block_diagonal():
    a1 = SimpleType("A", 1)
    assert cartan((a1, a1)) == ((2, 0), (0, 2))
    assert positive_roots((a1, a1)) == {(0, 1), (1, 0)}


def test_product_roots_are_supported_in_one_factor():
    roots = positive_roots((SimpleType("A", 2), SimpleType("C", 3)))
    assert len(roots) == 3 + 9
    for beta in roots:
        left = any(beta[:2])
        right = any(beta[2:])
        assert left != right


def test_simple_roots_are_positive_and_coefficients_nonnegative():
    for t in ALL_SIMPLE:
        roots = positive_roots((t,))
        for i in range(t.rank):
            e = tuple(1 if j == i else 0 for j in range(t.rank))
            assert e in roots
        for beta in roots:
            assert all(c >= 0 for c in beta)


def test_saturation_every_nonsimple_root_descends():
    for t in ALL_SIMPLE:
        roots = positive_roots((t,))
        for beta in roots:
            if sum(beta) == 1:
                continue
            assert any(
                tuple(c - (1 if j == i else 0) for j, c in enumerate(beta)) in roots
                for i in range(t.rank)
                if beta[i] > 0
            )


def test_pairing_on_simple_roots_reads_the_cartan_matrix():
    a2 = (SimpleType("A", 2),)
    assert pairing(a2, (1, 0), 1) == 2
    assert pairing(a2, (1, 0), 2) == -1
    g2 = (SimpleType("G", 2),)
    # alpha_1 long: <alpha_1, alpha_2^vee> = -3, and the product of the
    # off-diagonal entries is the bond multiplicity 3
    assert pairing(g2, (1, 0), 2) == -3
    assert pairing(g2, (0, 1), 1) == -1
    assert pairing(g2, (1, 0), 2) * pairing(g2, (0, 1), 1) == 3


def test_pairing_diagonal_is_two_everywhere():
    for letter, rank in [("A", 4), ("C", 5), ("E", 7), ("G", 2)]:
        factors = (SimpleType(letter, rank),)
        for i in range(1, rank + 1):
            e = tuple(1 if j == i - 1 else 0 for j in range(rank))
            assert pairing(factors, e, i) == 2


def _root_sum(factors):
    return tuple(map(sum, zip(*positive_roots(factors))))


def test_sum_positive_roots_a1():
    a1 = (SimpleType("A", 1),)
    assert _root_sum(a1) == (1,)
    assert pairing(a1, _root_sum(a1), 1) == 2


def test_sum_of_all_positive_roots_pairs_to_two_at_every_node():
    # 2*rho identity, all admissible factors and a couple of products
    systems = [(t,) for t in ALL_SIMPLE]
    systems += [
        (SimpleType("A", 2), SimpleType("A", 2)),
        (SimpleType("C", 2), SimpleType("D", 4)),
        (SimpleType("G", 2), SimpleType("B", 3)),
    ]
    for factors in systems:
        two_rho = _root_sum(factors)
        for i in range(1, len(two_rho) + 1):
            assert pairing(factors, two_rho, i) == 2


def test_two_rho_closed_form_matches_the_root_sum():
    # the Bourbaki-plate 2*rho used for G/P invariants, against the oracle
    types = simple_types(12)
    assert len(types) == 12 + 10 + 11 + 9 + 3 + 1 + 1
    for t in types:
        assert _two_rho(t) == _root_sum((t,)), str(t)
        assert positive_root_count(t) == len(positive_roots((t,))), str(t)


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
