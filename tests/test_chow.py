"""Projective-bundle divisor arithmetic.

Degree pairings are cross-checked against an independent oracle that
never reduces to normal form: the pushforward of xi^{r-1+k} to the base
is the class t_k with t_0 = 1 and

    t_k = c_1 t_{k-1} - c_2 t_{k-2} + ... ,

so the degree of a polynomial follows by expanding monomially and
pairing H-powers on the base.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roofscope import (
    BundleChowRing,
    ChowElement,
    CyclicBase,
    H,
    OTTAVIANI_CHERNS_CYCLIC,
    OTTAVIANI_CHERNS_H,
    XI,
    blowup_discrepancy,
    chern_units_to_h,
    kequiv_forces_equal_codim,
    mukai_pair_check,
    projective_space,
    quadric,
    twist_cherns,
)
from roofscope.chow import _fraction, parse_element


def tangent_bundle_ring(r: int) -> BundleChowRing:
    """P(T_{P^r}): the Euler sequence gives c_k(T) = binom(r+1, k)."""
    from math import comb

    cherns = tuple(Fraction(comb(r + 1, k)) for k in range(1, r + 1))
    return BundleChowRing(projective_space(r), r, cherns)


def pushforward_degree(ring: BundleChowRing, element: ChowElement) -> Fraction:
    """Oracle degree pairing via the pushforward recurrence."""
    n, r, d = ring.base.dim, ring.rank, ring.base.degree
    c = [Fraction(0)] + list(ring.cherns)
    t = [Fraction(1)]  # t_k as an H^k multiple
    for k in range(1, n + 1):
        t.append(
            sum((-1) ** (i + 1) * c[i] * t[k - i] for i in range(1, min(k, r) + 1))
        )
    total = Fraction(0)
    for (h, x), coeff in element.terms.items():
        k = x - (r - 1)
        if k < 0 or h + x != n + r - 1 or h + k > n:
            continue
        total += coeff * t[k] * d
    return total


def naive_reduce(ring: BundleChowRing, element: ChowElement) -> ChowElement:
    """Oracle normal form: expand monomials in LIFO order until none has
    xi-degree >= r.  Exponential in the xi-degree excess, because a key is
    often expanded before all of its contributions have arrived."""
    n, r = ring.base.dim, ring.rank
    work = dict(element.terms)
    out: dict[tuple[int, int], Fraction] = {}
    while work:
        (h, x), c = work.popitem()
        if h > n or c == 0:
            continue
        if x < r:
            out[(h, x)] = out.get((h, x), Fraction(0)) + c
            continue
        for i in range(1, r + 1):
            coeff = c * ring.cherns[i - 1] * (-1) ** (i + 1)
            if coeff:
                k = (h + i, x - i)
                work[k] = work.get(k, Fraction(0)) + coeff
    return ChowElement(out)


_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _rings(draw) -> BundleChowRing:
    base = draw(
        st.one_of(
            st.integers(1, 7).map(projective_space),
            st.sampled_from([3, 5, 7]).map(quadric),
        )
    )
    rank = draw(st.integers(1, 6))
    cherns = draw(st.lists(_coefficients, min_size=rank, max_size=rank))
    return BundleChowRing(base, rank, tuple(cherns))


def _elements(ring: BundleChowRing):
    """Elements reaching past both truncations: h up to n + 1 and total
    degree up to top_degree + 2.  With n <= 7 the oracle stays cheap."""
    monomials = st.tuples(
        st.integers(0, ring.base.dim + 1), st.integers(0, ring.top_degree + 2)
    )
    return st.dictionaries(monomials, _coefficients, max_size=6).map(ChowElement)


@st.composite
def _ring_and_elements(draw):
    ring = draw(_rings())
    return ring, draw(_elements(ring)), draw(_elements(ring))


_leaves = st.one_of(
    st.sampled_from([("H", H), ("xi", XI)]),
    st.integers(0, 9).map(lambda k: (str(k), ChowElement({(0, 0): k}))),
    st.tuples(st.integers(0, 9), st.integers(1, 4)).map(
        lambda t: (f"{t[0]}/{t[1]}", ChowElement({(0, 0): Fraction(t[0], t[1])}))
    ),
)


def _combine(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: (f"({p[0][0]}+{p[1][0]})", p[0][1] + p[1][1])),
        pairs.map(lambda p: (f"({p[0][0]}-{p[1][0]})", p[0][1] - p[1][1])),
        pairs.map(lambda p: (f"{p[0][0]}*{p[1][0]}", p[0][1] * p[1][1])),
        children.map(lambda c: (f"(-{c[0]})", -c[1])),
        st.tuples(children, st.integers(0, 3)).map(
            lambda t: (f"({t[0][0]})^{t[1]}", t[0][1] ** t[1])
        ),
    )


# (text, free element) pairs: the CLI grammar and the free algebra side by side
_texts_and_free_elements = st.recursive(_leaves, _combine, max_leaves=10)


@st.composite
def _integral_ring_and_elements(draw):
    base = draw(
        st.one_of(
            st.integers(1, 7).map(projective_space),
            st.sampled_from([3, 5, 7]).map(quadric),
        )
    )
    rank = draw(st.integers(1, 6))
    cherns = draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank))
    ring = BundleChowRing(base, rank, cherns)
    monomials = st.tuples(st.integers(0, base.dim + 1), st.integers(0, ring.top_degree + 2))
    elements = st.dictionaries(monomials, st.integers(-9, 9), max_size=6).map(ChowElement)
    top = st.lists(st.integers(-9, 9), min_size=ring.top_degree + 1, max_size=ring.top_degree + 1)
    point = ChowElement({(ring.top_degree - x, x): c for x, c in enumerate(draw(top))})
    return ring, draw(elements), draw(elements), point


def _in_half_h(ring: BundleChowRing) -> BundleChowRing:
    """The same ring written in the class H' = 2H: c_i becomes c_i/2^i, the
    index halves and deg H'^n = 2^n deg H^n.  Wrapping integral inputs in
    Fraction would only see them demoted back to int, so this is how the
    rational path gets fed the same computation."""
    n, d, k = ring.base
    base = CyclicBase(dim=n, degree=d * 2**n, index=Fraction(k, 2))
    cherns = [Fraction(c, 2**i) for i, c in enumerate(ring.cherns, 1)]
    return BundleChowRing(base, ring.rank, cherns)


def _to_half_h(element: ChowElement) -> ChowElement:
    return ChowElement({(h, x): Fraction(c, 2**h) for (h, x), c in element.terms.items()})


def _from_half_h(element: ChowElement) -> ChowElement:
    return ChowElement({(h, x): c * 2**h for (h, x), c in element.terms.items()})


def _all_int(element: ChowElement) -> bool:
    return all(type(c) is int for c in element.terms.values())


# --- reduce ------------------------------------------------------------------


def test_reduce_grothendieck_relation_on_the_tangent_plane():
    ring = tangent_bundle_ring(2)
    assert ring.reduce(XI**2) == 3 * H * XI - 3 * H**2
    assert ring.reduce(XI**3) == 6 * H**2 * XI
    assert ring.reduce(H**3) == ChowElement()


def test_reduce_is_idempotent_and_a_ring_homomorphism():
    ring = BundleChowRing(projective_space(3), 2, (Fraction(1), Fraction(2)))
    rng = random.Random(20260808)

    def random_element():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = Fraction(
                rng.randint(-5, 5), rng.randint(1, 3)
            )
        return ChowElement(terms)

    for _ in range(60):
        a, b = random_element(), random_element()
        ra, rb = ring.reduce(a), ring.reduce(b)
        assert ring.reduce(ra) == ra
        assert ring.reduce(a + b) == ring.reduce(ra + rb)
        assert ring.reduce(a * b) == ring.reduce(ra * rb)


@given(_ring_and_elements())
def test_reduce_matches_the_naive_oracle(case):
    ring, a, b = case
    assert ring.reduce(a) == naive_reduce(ring, a)
    assert ring.reduce(a * b) == naive_reduce(ring, a * b)


@given(_rings(), _texts_and_free_elements)
def test_parse_element_returns_the_normal_form_of_the_free_expression(ring, case):
    text, free = case
    assert parse_element(text, ring) == ring.reduce(free)


@given(_ring_and_elements())
def test_reduce_is_an_idempotent_ring_homomorphism_on_random_rings(case):
    ring, a, b = case
    ra, rb = ring.reduce(a), ring.reduce(b)
    assert ring.reduce(ra) == ra
    assert ring.reduce(a + b) == ra + rb
    assert ring.reduce(a * b) == ring.reduce(ra * rb)
    assert ring.reduce(3 * a - b) == ring.reduce(3 * ra - rb)


@given(_integral_ring_and_elements())
def test_integral_arithmetic_stays_in_ints_and_matches_the_rational_path(case):
    ring, a, b, point = case
    half = _in_half_h(ring)
    for el in (a, a * b, a + point):
        nf = ring.reduce(el)
        assert _all_int(nf)
        assert nf == _from_half_h(half.reduce(_to_half_h(el)))
    degree = ring.degree(point)
    assert type(degree) is int
    assert degree == half.degree(_to_half_h(point))
    canonical = ring.canonical_class()
    assert _all_int(canonical)
    assert canonical == _from_half_h(half.canonical_class())


@pytest.mark.parametrize(
    "text, kind",
    [
        (" 3 ", int),
        ("+3", int),
        ("-0", int),
        ("03", int),
        ("3_000", Fraction),
        ("\u0663", Fraction),  # ARABIC-INDIC DIGIT THREE
        ("1.5", Fraction),
        ("2/4", Fraction),
    ],
)
def test_cli_numbers_read_as_fraction_reads_them(text, kind):
    value = _fraction(text)
    assert value == Fraction(text)
    assert type(value) is kind


@pytest.mark.parametrize("text", ["", "nan", "inf", "x", "1/2/3"])
def test_cli_numbers_fraction_refuses_read_as_bad_number(text):
    with pytest.raises(ValueError) as refused:
        _fraction(text)
    assert str(refused.value).startswith(f"bad number {text!r}: ")


def test_reduce_is_polynomial_in_the_xi_excess():
    ring = BundleChowRing(projective_space(30), 30, tuple(range(1, 31)))
    start = time.perf_counter()
    assert ring.reduce(XI**60) == ChowElement()  # above the top degree 59
    nf = ring.reduce(XI**59 + H * XI**58)
    assert time.perf_counter() - start < 1.0
    assert set(nf.terms) <= {(30, 29)}
    assert ring.degree(XI**59) == pushforward_degree(ring, XI**59)


def test_normal_form_respects_bounds():
    ring = BundleChowRing(quadric(5), 3, OTTAVIANI_CHERNS_H)
    nf = ring.reduce((XI + H) ** 9)
    for (h, x) in nf.terms:
        assert x < 3 and h <= 5


# --- degree ------------------------------------------------------------------


def test_degree_examples():
    ring = tangent_bundle_ring(2)
    assert ring.degree(H**2 * XI) == 1
    assert ring.degree((2 * XI) ** 3) == 48  # anticanonical degree of Fl(1,2;3)


def test_degree_rejects_non_top_degree_input():
    ring = tangent_bundle_ring(2)
    with pytest.raises(ValueError):
        ring.degree(H * XI)
    with pytest.raises(ValueError):
        ring.degree(XI**2 + H)


def test_degree_of_the_ottaviani_roof_matches_the_frozen_constant():
    # hand reduction: (xi+H)^7 pairs to 364 over Q^5, so the anticanonical
    # degree of the rank-3 roof is 3^7 * 364 = 796068
    ring = BundleChowRing(quadric(5), 3, OTTAVIANI_CHERNS_H)
    el = (3 * (XI + H)) ** 7
    assert ring.degree(el) == 796068
    assert pushforward_degree(ring, el) == 796068


def test_degree_agrees_with_pushforward_oracle():
    rng = random.Random(4)
    rings = [
        tangent_bundle_ring(2),
        tangent_bundle_ring(3),
        BundleChowRing(quadric(5), 3, OTTAVIANI_CHERNS_H),
        BundleChowRing(projective_space(4), 2, (Fraction(5), Fraction(7, 2))),
    ]
    for ring in rings:
        top = ring.top_degree
        for _ in range(20):
            terms = {}
            for x in range(0, top + 1):
                h = top - x
                if rng.random() < 0.5:
                    terms[(h, x)] = Fraction(rng.randint(-4, 4))
            el = ChowElement(terms)
            assert ring.degree(el) == pushforward_degree(ring, el)


@given(_rings(), st.data())
def test_degree_agrees_with_pushforward_oracle_on_random_rings(ring, data):
    top = ring.top_degree
    coeffs = data.draw(st.lists(_coefficients, min_size=top + 1, max_size=top + 1))
    el = ChowElement({(top - x, x): c for x, c in enumerate(coeffs)})
    assert ring.degree(el) == pushforward_degree(ring, el)


# --- canonical class -----------------------------------------------------------


def test_canonical_class_of_mukai_pairs_is_r_xi():
    for r in range(2, 7):
        ring = tangent_bundle_ring(r)
        assert ring.canonical_class() == r * XI
    split = BundleChowRing(projective_space(2), 3, (Fraction(3), Fraction(3), Fraction(1)))
    assert split.canonical_class() == 3 * XI  # O(1)^3 over P^2


def test_canonical_class_of_untwisted_ottaviani_is_not_normalized():
    ring = BundleChowRing(quadric(5), 3, OTTAVIANI_CHERNS_H)
    assert ring.canonical_class() == 3 * XI + 3 * H


def test_canonical_coefficient_is_index_minus_c1():
    for index, c1 in [(5, 2), (7, 7), (4, 1), (6, 9)]:
        ring = BundleChowRing(
            CyclicBase(dim=5, degree=1, index=index), 2, (Fraction(c1), Fraction(1))
        )
        nf = ring.canonical_class()
        assert nf.terms.get((1, 0), Fraction(0)) == index - c1
        assert nf.terms.get((0, 1)) == 2


# --- twists ---------------------------------------------------------------------


def test_twist_line_bundle():
    assert twist_cherns((Fraction(3),), 1, 1) == (Fraction(4),)


def test_twist_tangent_plane_against_euler_sequence():
    # T_{P^2}(-1) sits in 0 -> O(-1) -> O^3 -> T(-1) -> 0, so its total
    # Chern class is 1/(1 - H) truncated: (1, 1)
    assert twist_cherns((3, 3), 2, -1) == (Fraction(1), Fraction(1))


def test_twist_normalizes_the_ottaviani_pair():
    tw = twist_cherns(OTTAVIANI_CHERNS_H, 3, 1)
    assert tw[0] == 5  # matches the index of Q^5
    assert tw == (Fraction(5), Fraction(9), Fraction(6))
    ring = BundleChowRing(quadric(5), 3, tw)
    assert ring.canonical_class() == 3 * XI


def test_degree_is_invariant_under_simultaneous_twist():
    for base in (projective_space(2), projective_space(3)):
        ring = BundleChowRing(base, 2, (Fraction(base.dim + 1), Fraction(base.dim)))
        el = (2 * XI + H) ** ring.top_degree
        reference = ring.degree(el)
        for t in range(-2, 3):
            twisted = BundleChowRing(base, 2, twist_cherns(ring.cherns, 2, t))
            assert twisted.degree(el.shift_xi(-t)) == reference


def test_chern_unit_conversion_on_q5():
    assert chern_units_to_h(quadric(5), OTTAVIANI_CHERNS_CYCLIC) == OTTAVIANI_CHERNS_H
    assert chern_units_to_h(projective_space(4), (2, 3)) == (Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        quadric(4)


# --- Mukai pair check -------------------------------------------------------------


def test_mukai_pair_check_examples():
    for r in range(2, 7):
        assert mukai_pair_check(r + 1, r + 1, r, r).passed  # (P^r, T_{P^r})
    assert mukai_pair_check(3, 3, 3, 2).passed  # (P^2, O(1)^3)
    verdict = mukai_pair_check(5, 2, 3, 5)  # untwisted Ottaviani datum
    assert not verdict.passed
    assert verdict.suggested_twist == 1
    assert verdict.minus_k == "3*xi + 3*H"
    twisted = mukai_pair_check(5, 5, 3, 5)
    assert twisted.passed and twisted.minus_k == "3*xi"


def test_mukai_pair_check_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        mukai_pair_check(0, 1, 2, 3)
    with pytest.raises(ValueError):
        mukai_pair_check(5, 0, 2, 3)


# --- blow-up arithmetic -------------------------------------------------------------


def test_blowup_discrepancy_is_r_minus_1():
    assert blowup_discrepancy(2) == 1
    assert blowup_discrepancy(3) == 2
    assert blowup_discrepancy(10) == 9
    for r in range(2, 21):
        assert blowup_discrepancy(r) == r - 1
    with pytest.raises(ValueError):
        blowup_discrepancy(1)


def test_equal_codimension_forcing_on_the_full_grid():
    for r1 in range(2, 21):
        for r2 in range(2, 21):
            verdict = kequiv_forces_equal_codim(r1, r2)
            assert verdict.consistent == (r1 == r2)
            assert f"{r1 - 1}E" in verdict.report[0]
            assert f"{r2 - 1}E" in verdict.report[1]
    with pytest.raises(ValueError):
        kequiv_forces_equal_codim(1, 2)


# --- element algebra ---------------------------------------------------------------


def test_element_equality_and_scalars():
    assert 2 * XI + XI == 3 * XI
    assert XI - XI == ChowElement()
    assert (XI + H) ** 2 == XI**2 + 2 * H * XI + H**2
    assert ChowElement({(0, 0): 5}) == 5
    assert H * XI == XI * H


def test_shift_xi_substitutes_the_twisted_class():
    el = (XI + H) ** 2
    assert el.shift_xi(-1) == XI**2  # xi -> xi - H
    assert XI.shift_xi(2) == XI + 2 * H


def test_element_rejects_negative_exponents_and_bad_powers():
    with pytest.raises(ValueError):
        ChowElement({(-1, 0): 1})
    with pytest.raises(ValueError):
        XI ** -1


def test_power_squares_only_while_bits_remain(monkeypatch):
    # square-and-multiply: bit_length - 1 squarings and one product per set bit
    x = 1 + XI + 2 * H
    products = [ChowElement({(0, 0): 1})]
    for _ in range(20):
        products.append(products[-1] * x)
    assert [x**k for k in range(21)] == products
    calls = []
    multiply = ChowElement.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(ChowElement, "__mul__", counting_mul)
    for k in range(1, 65):
        calls.clear()
        (XI + H) ** k
        assert len(calls) == k.bit_length() + bin(k).count("1") - 1, k
