"""Invariants of homogeneous varieties, checked against closed forms and
an independent brute-force count over the positive roots."""

from __future__ import annotations

from itertools import combinations

import pytest

from oracles import (
    ALL_SIMPLE,
    pairing,
    positive_roots,
    surgery_components,
    surgery_gp_invariants,
)
from roofscope import (
    MarkedDiagram,
    SimpleType,
    VarietyInvariants,
    classify_components,
    diagram_of,
    fibration_fiber,
    gp_invariants,
    is_projective_space,
    parse,
    projective_space_charts,
    remove_node,
    serialize,
)
from roofscope.root_system import simple_types


def brute_dim(letter: str, rank: int, mark: int) -> int:
    """Oracle: count positive roots whose support meets the mark."""
    roots = positive_roots((SimpleType(letter, rank),))
    return sum(1 for beta in roots if beta[mark - 1] != 0)


def brute_gp_invariants(md: MarkedDiagram) -> VarietyInvariants:
    """Oracle: sum the ambient positive roots supported on the surviving nodes.

    The roots of an induced subdiagram are the ambient positive roots
    supported on its nodes; sigma sums those whose support meets a mark,
    and the Levi roots are the rest.
    """
    factors = md.diagram.factors
    alive = set(md.diagram.nodes)
    marks = sorted(md.marks)
    marked = set(marks)

    def support(beta):
        return {j + 1 for j, c in enumerate(beta) if c}

    sub = [b for b in positive_roots(factors) if support(b) <= alive]
    levi_count = 0
    sigma = [0] * md.diagram.total_rank
    for beta in sub:
        if support(beta) & marked:
            for j, c in enumerate(beta):
                sigma[j] += c
        else:
            levi_count += 1
    vec = tuple((m, pairing(factors, sigma, m)) for m in marks)
    return VarietyInvariants(dim=len(sub) - levi_count, picard=len(marks), index_vector=vec)


def _all_factor_specs(max_rank):
    types = [t for t in ALL_SIMPLE if t.rank <= max_rank]
    for a, t in enumerate(types):
        yield (t,)
        for u in types[a:]:
            if t.rank + u.rank <= max_rank:
                yield (t, u)


def test_closed_form_invariants_match_the_root_sum_exhaustively():
    # every diagram with 1-3 marks of total rank <= 8, plus both
    # fibration fibers of every two-marked one
    checked = 0
    for factors in _all_factor_specs(8):
        d = diagram_of(factors)
        for k in (1, 2, 3):
            for marks in combinations(d.nodes, k):
                md = MarkedDiagram(d, frozenset(marks))
                cases = [md]
                if k == 2:
                    cases += [fibration_fiber(md, keep) for keep in marks]
                for case in cases:
                    assert gp_invariants(case) == brute_gp_invariants(case), str(case)
                    checked += 1
    assert checked == 14_984


def test_examples_from_closed_forms():
    assert gp_invariants(parse("A4:1")).dim == 4
    assert gp_invariants(parse("A4:1")).index == 5  # P^4
    inv = gp_invariants(parse("C3:1"))
    assert (inv.dim, inv.picard, inv.index) == (5, 1, 6)  # P^5
    inv = gp_invariants(parse("G2:1,2"))
    assert (inv.dim, inv.picard, inv.coefficients()) == (6, 2, (2, 2))
    inv = gp_invariants(parse("F4:2,3"))
    assert (inv.dim, inv.picard, inv.coefficients()) == (22, 2, (3, 3))


def test_grassmannian_dimension_closed_form():
    # A_n marked at k is Gr(k, n+1) of dimension k(n+1-k)
    for n in range(1, 9):
        for k in range(1, n + 1):
            inv = gp_invariants(parse(f"A{n}:{k}"))
            assert inv.dim == k * (n + 1 - k)
            assert inv.dim == brute_dim("A", n, k)


def test_symplectic_grassmannian_dimension_closed_form():
    # C_n marked at k is SG(k, 2n) of dimension k(2n-k) - k(k-1)/2
    for n in range(2, 9):
        for k in range(1, n + 1):
            inv = gp_invariants(parse(f"C{n}:{k}"))
            assert inv.dim == k * (2 * n - k) - k * (k - 1) // 2
            assert inv.dim == brute_dim("C", n, k)


def test_spinor_variety_dimension_closed_form():
    # D_n marked at the fork is half-dimensional: n(n-1)/2
    for n in range(4, 9):
        inv = gp_invariants(parse(f"D{n}:{n}"))
        assert inv.dim == n * (n - 1) // 2
        assert inv.dim == brute_dim("D", n, n)


def test_quadric_invariants():
    # B_n marked at 1 is the quadric Q^{2n-1}: dimension 2n-1, index 2n-1
    for n in range(3, 9):
        inv = gp_invariants(parse(f"B{n}:1"))
        assert (inv.dim, inv.index) == (2 * n - 1, 2 * n - 1)


def test_picard_number_is_the_number_of_marks():
    assert gp_invariants(parse("E6:1,3")).picard == 2
    assert gp_invariants(parse("A5:2")).picard == 1
    assert gp_invariants(parse("A2*A2:1,4")).picard == 2


def test_index_vector_entries_are_positive_everywhere():
    for letter, rank in ALL_SIMPLE:
        if rank < 2:
            continue
        for i in range(1, rank):
            inv = gp_invariants(parse(f"{letter}{rank}:{i},{i + 1}"))
            assert all(c > 0 for c in inv.coefficients())


def test_scalar_index_requires_picard_one():
    with pytest.raises(ValueError):
        gp_invariants(parse("A4:1,4")).index


# --- projective-space detection -------------------------------------------------


def test_pspace_templates():
    assert is_projective_space(parse("A3:1")) == 4
    assert is_projective_space(parse("A3:3")) == 4
    assert is_projective_space(parse("A3:2")) is None  # Gr(2,4)
    assert is_projective_space(parse("C2:1")) == 4  # P^3
    assert is_projective_space(parse("C2:2")) is None  # Q^3
    assert is_projective_space(parse("B2:1")) is None  # alias of C2:2
    assert is_projective_space(parse("C4:1")) == 8  # P^7
    assert is_projective_space(parse("C4:2")) is None
    assert is_projective_space(parse("B3:1")) is None  # Q^5
    assert is_projective_space(parse("D4:1")) is None
    assert is_projective_space(parse("A1:1")) == 2


def test_pspace_requires_exactly_one_mark():
    with pytest.raises(ValueError):
        is_projective_space(parse("A3:1,3"))


def test_pspace_matches_kobayashi_ochiai_exhaustively():
    # template match <=> index = dim + 1, over every single-marked
    # diagram of rank <= 8
    for letter, rank in ALL_SIMPLE:
        for k in range(1, rank + 1):
            md = parse(f"{letter}{rank}:{k}")
            inv = gp_invariants(md)
            template = is_projective_space(md)
            if template is None:
                assert inv.index != inv.dim + 1, f"{letter}{rank}:{k}"
            else:
                assert inv.index == inv.dim + 1 == template, f"{letter}{rank}:{k}"


def test_pspace_charts_agree_with_the_one_mark_test():
    # one classification per diagram answers is_projective_space at every
    # node: every full single-factor diagram of rank <= 10 and every
    # one-node residue of each
    for t in simple_types(10):
        full = diagram_of((t,))
        for d in [full] + [remove_node(full, k) for k in full.nodes]:
            charts = projective_space_charts(d)
            assert set(charts) <= set(d.nodes)
            for m in d.nodes:
                expected = is_projective_space(MarkedDiagram(d, frozenset({m})))
                assert charts.get(m) == expected, (str(d), m)


def test_pspace_charts_of_a_residue_with_three_components():
    # D5 minus node 3 is A2 + A1 + A1 (nodes 1-2, 4, 5): every node is a chart
    d = remove_node(diagram_of((SimpleType("D", 5),)), 3)
    assert projective_space_charts(d) == {1: 3, 2: 3, 4: 2, 5: 2}
    # C4 minus node 2 is A1 + C2: the short end of the C2 (node 3) is P^3
    d = remove_node(diagram_of((SimpleType("C", 4),)), 2)
    assert projective_space_charts(d) == {1: 2, 3: 4}


def test_pspace_ignores_unmarked_components():
    md = parse("A2*A2:1")
    assert is_projective_space(md) == 3
    # a fiber diagram with an unmarked A1 component still reads as P^2
    fiber = fibration_fiber(parse("F4:2,3"), keep=3)
    assert is_projective_space(fiber) == 3


# --- fibrations ------------------------------------------------------------------


def test_fibration_fiber_examples():
    fiber = fibration_fiber(parse("F4:2,3"), keep=3)
    assert fiber.diagram.nodes == (1, 2, 4)
    assert fiber.marks == frozenset({2})
    assert is_projective_space(fiber) == 3  # P^2

    fiber = fibration_fiber(parse("A4:1,4"), keep=1)
    assert fiber.diagram.nodes == (2, 3, 4)
    assert fiber.marks == frozenset({4})
    assert is_projective_space(fiber) == 4  # P^3

    fiber = fibration_fiber(parse("D4:3,4"), keep=4)
    assert fiber.diagram.nodes == (1, 2, 3)
    assert fiber.marks == frozenset({3})
    assert is_projective_space(fiber) == 4  # P^3


def test_fibration_fiber_rejects_bad_keep():
    md = parse("A4:1,4")
    with pytest.raises(ValueError):
        fibration_fiber(md, keep=2)
    with pytest.raises(ValueError):
        fibration_fiber(parse("A4:1"), keep=1)


def _two_marked_diagrams(max_rank):
    for letter, rank in ALL_SIMPLE:
        if rank > max_rank or rank < 2:
            continue
        for i in range(1, rank):
            for j in range(i + 1, rank + 1):
                yield parse(f"{letter}{rank}:{i},{j}")
    for a, (l1, r1) in enumerate(ALL_SIMPLE):
        for l2, r2 in ALL_SIMPLE[a:]:
            if r1 + r2 > max_rank:
                continue
            for i in range(1, r1 + 1):
                for j in range(1, r2 + 1):
                    yield parse(f"{l1}{r1}*{l2}{r2}:{i},{r1 + j}")


def test_tower_additivity_rank_at_most_6():
    # dim G/P({i,j}) = dim G/P({i}) + dim fiber, for every two-marked
    # diagram of total rank <= 6
    for md in _two_marked_diagrams(6):
        total = gp_invariants(md).dim
        for keep in sorted(md.marks):
            base = gp_invariants(MarkedDiagram(md.diagram, frozenset({keep})))
            fiber = gp_invariants(fibration_fiber(md, keep))
            assert total == base.dim + fiber.dim, serialize(md)


def test_mark_swap_symmetry_rank_at_most_6():
    # swapping the two marks permutes the index vector and swaps the two
    # fibration fibers
    for md in _two_marked_diagrams(6):
        i, j = sorted(md.marks)
        inv = gp_invariants(md)
        assert inv.coefficient(i) == gp_invariants(
            MarkedDiagram(md.diagram, frozenset({i, j}))
        ).coefficient(i)
        fib_i = gp_invariants(fibration_fiber(md, keep=i)).dim
        fib_j = gp_invariants(fibration_fiber(md, keep=j)).dim
        base_i = gp_invariants(MarkedDiagram(md.diagram, frozenset({i}))).dim
        base_j = gp_invariants(MarkedDiagram(md.diagram, frozenset({j}))).dim
        assert base_i + fib_i == base_j + fib_j == inv.dim


def test_residual_invariants_live_in_the_ambient_system():
    # the A2 x A1 residual of F4:2,3 has the invariants of P^2 x point
    fiber = fibration_fiber(parse("F4:2,3"), keep=3)
    inv = gp_invariants(fiber)
    assert (inv.dim, inv.picard, inv.index) == (2, 1, 3)


# --- Levi factors read factor by factor ---------------------------------------------


def _assert_levi_path_matches_surgery(md):
    d = md.diagram
    assert classify_components(d) == surgery_components(d), str(md)
    assert classify_components(d, md.marks) == surgery_components(d, md.marks), str(md)
    assert gp_invariants(md) == surgery_gp_invariants(md), str(md)


def _one_and_two_mark_diagrams(factor_specs):
    for factors in factor_specs:
        d = diagram_of(factors)
        for k in (1, 2):
            for marks in combinations(d.nodes, k):
                yield MarkedDiagram(d, frozenset(marks))


def test_levi_factors_match_surgery_on_single_factors_up_to_rank_10():
    checked = 0
    for md in _one_and_two_mark_diagrams((t,) for t in simple_types(10)):
        _assert_levi_path_matches_surgery(md)
        checked += 1
    assert checked == 963


def test_levi_factors_match_surgery_on_products_up_to_rank_10():
    types = simple_types(9)
    products = [
        (t, u) for a, t in enumerate(types) for u in types[a:] if t.rank + u.rank <= 10
    ]
    checked = 0
    for md in _one_and_two_mark_diagrams(products):
        _assert_levi_path_matches_surgery(md)
        checked += 1
    assert checked == 9_704


def test_levi_factors_match_surgery_on_the_residues_of_these_tests():
    # the fibration fibers of every two-marked diagram of rank <= 8, the
    # one-node residues of every type of rank <= 10, and the F4 fiber
    checked = 0
    for factors in _all_factor_specs(8):
        d = diagram_of(factors)
        for marks in combinations(d.nodes, 2):
            md = MarkedDiagram(d, frozenset(marks))
            for keep in marks:
                _assert_levi_path_matches_surgery(fibration_fiber(md, keep))
                checked += 1
    for t in simple_types(10):
        full = diagram_of((t,))
        for k in full.nodes:
            residue = remove_node(full, k)
            for m in residue.nodes:
                _assert_levi_path_matches_surgery(MarkedDiagram(residue, frozenset({m})))
                checked += 1
    _assert_levi_path_matches_surgery(fibration_fiber(parse("F4:2,3"), keep=3))
    assert checked == 7_390


def test_classify_components_rejects_foreign_removed_nodes():
    d = remove_node(diagram_of((SimpleType("A", 4),)), 2)
    with pytest.raises(ValueError, match="removed nodes"):
        classify_components(d, (2,))
    with pytest.raises(ValueError, match="removed nodes"):
        classify_components(d, (5,))
