"""Divisor and Chern-class arithmetic on projectivized bundles.

The base is a variety whose rational cohomology is generated in every
degree by powers of a single hyperplane class H (projective spaces, odd
quadrics), described by its dimension n, the degree d of H^n and the
coefficient of -K in H.  The bundle ring is Z[H, xi] with rational
coefficients, truncated by H^{n+1} = 0 and the defining relation

    xi^r - c_1 xi^{r-1} + c_2 xi^{r-2} - ... + (-1)^r c_r = 0,

with each c_i a rational multiple of H^i.  Under this sign convention
the anticanonical class of P(E) is r*xi + (k - c_1)*H where -K_base =
k*H, so a bundle with c_1(E) = c_1(V) gives exactly r*xi.

Integer Chern data quoted in the Z-generator units of the Chow groups
of an odd quadric differ from H-multiples in degrees above the middle
(H^k is twice the generator there); ``chern_units_to_h`` converts, and
the Ottaviani data (2,2,2) on Q^5 is bundled both ways.

Everything is exact: coefficients are fractions, degree pairings return
fractions (integral inputs give integral degrees).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .root_system import _make_checked

Scalar = Union[int, Fraction]


class ChowElement:
    """A polynomial in H and xi with rational coefficients.

    Free-algebra arithmetic only; truncation and the bundle relation are
    applied by :meth:`BundleChowRing.reduce`.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (h, x), c in (terms or {}).items():
            if h < 0 or x < 0:
                raise ValueError("exponents must be nonnegative")
            c = Fraction(c)
            if c:
                clean[(h, x)] = c
        object.__setattr__(self, "_terms", clean)

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, ChowElement):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == ChowElement({(0, 0): other})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "ChowElement":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return ChowElement(out)

    __radd__ = __add__

    def __neg__(self) -> "ChowElement":
        return ChowElement({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "ChowElement":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ChowElement":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ChowElement":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (h1, x1), c1 in self._terms.items():
            for (h2, x2), c2 in other._terms.items():
                k = (h1 + h2, x1 + x2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return ChowElement(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ChowElement":
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be nonnegative integers")
        out = ChowElement({(0, 0): 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift_xi(self, t: Scalar) -> "ChowElement":
        """Substitute xi -> xi + t*H (the tautological class of a twist)."""
        out = ChowElement()
        sub = XI + Fraction(t) * H
        for (h, x), c in self._terms.items():
            out = out + c * ChowElement({(h, 0): 1}) * sub**x
        return out

    def degrees(self) -> set[int]:
        return {h + x for h, x in self._terms}

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"ChowElement({format_element(self)!r})"


def _coerce(value) -> ChowElement | None:
    if isinstance(value, ChowElement):
        return value
    if isinstance(value, (int, Fraction)):
        return ChowElement({(0, 0): value})
    return None


def _monomial_str(h: int, x: int) -> str:
    parts = []
    if h:
        parts.append("H" if h == 1 else f"H^{h}")
    if x:
        parts.append("xi" if x == 1 else f"xi^{x}")
    return "*".join(parts)


def format_element(el: ChowElement) -> str:
    if not el:
        return "0"
    items = sorted(el.terms.items(), key=lambda kv: (-kv[0][1], -kv[0][0]))
    chunks = []
    for (h, x), c in items:
        mono = _monomial_str(h, x)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


H = ChowElement({(1, 0): 1})
XI = ChowElement({(0, 1): 1})


class _CyclicBaseFields(NamedTuple):
    dim: int
    degree: int
    index: int


class CyclicBase(_CyclicBaseFields):
    """A base variety with H-power cohomology.

    ``degree`` is the degree of H^dim and ``index`` the coefficient of
    -K in H.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, dim: int, degree: int, index: int) -> CyclicBase:
        if dim < 1 or degree < 1:
            raise ValueError("dimension and degree must be positive")
        return tuple.__new__(cls, (dim, degree, index))


def projective_space(n: int) -> CyclicBase:
    return CyclicBase(dim=n, degree=1, index=n + 1)


def quadric(n: int) -> CyclicBase:
    """The smooth quadric of odd dimension n (deg H^n = 2, index n).

    Even quadrics carry two middle-degree classes and do not fit the
    cyclic model.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("only odd quadrics of dimension >= 3 have cyclic cohomology")
    return CyclicBase(dim=n, degree=2, index=n)


def chern_units_to_h(base: CyclicBase, values: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Convert Chern data quoted in Z-generator units to H-multiples.

    On a projective space this is the identity; on an odd quadric the
    degree-k generator is H^k for k below the middle and H^k/2 above it,
    so the quoted integers are halved there.
    """
    if base.degree == 1:
        return tuple(Fraction(v) for v in values)
    if base.degree == 2 and base.dim % 2 == 1:
        half = base.dim // 2
        return tuple(
            Fraction(v) if k + 1 <= half else Fraction(v, 2)
            for k, v in enumerate(values)
        )
    raise ValueError("no generator-unit convention for this base")


# Ottaviani bundle on Q^5: stable of rank 3 with Chern classes (2, 2, 2)
# in the integral Chow units; the degree-3 unit is H^3/2.
OTTAVIANI_CHERNS_CYCLIC = (2, 2, 2)
OTTAVIANI_CHERNS_H = (Fraction(2), Fraction(2), Fraction(1))


class _BundleChowRingFields(NamedTuple):
    base: CyclicBase
    rank: int
    cherns: tuple[Fraction, ...]


class BundleChowRing(_BundleChowRingFields):
    """The divisor ring of P(E) for a rank-r bundle E over a cyclic base.

    ``cherns[i-1]`` is the H-multiple of c_i(E).  Normal forms have
    xi-degree < r and H-degree <= base.dim; the degree pairing is
    supported on H^n * xi^{r-1}, where it returns base.degree.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(
        cls, base: CyclicBase, rank: int, cherns: Sequence[Scalar]
    ) -> BundleChowRing:
        if rank < 1:
            raise ValueError("rank must be positive")
        if len(cherns) != rank:
            raise ValueError(f"expected {rank} Chern coefficients")
        return tuple.__new__(cls, (base, rank, tuple(Fraction(c) for c in cherns)))

    @property
    def top_degree(self) -> int:
        return self.base.dim + self.rank - 1

    def reduce(self, element: ChowElement | Scalar) -> ChowElement:
        """Unique normal form modulo H-truncation and the bundle relation.

        Reduction is a ring homomorphism and is idempotent.  Monomials
        with h > n or of degree above ``top_degree`` are zero: the
        relation is homogeneous and every normal form has degree at most
        ``top_degree``.  The rest are expanded top-down in xi, each
        (h, x) exactly once, so the cost is O((n + r) * n * r).
        """
        el = _coerce(element)
        if el is None:
            raise TypeError(f"cannot reduce {element!r}")
        n, r, top = self.base.dim, self.rank, self.top_degree
        rows: dict[int, dict[int, Fraction]] = {}  # x -> h -> coefficient
        for (h, x), c in el.terms.items():
            if h <= n and h + x <= top:
                rows.setdefault(x, {})[h] = c
        # xi^r = c_1 H xi^{r-1} - c_2 H^2 xi^{r-2} + ... -(-1)^r c_r H^r
        relation = [(i, (-1) ** (i + 1) * c) for i, c in enumerate(self.cherns, 1) if c]
        for x in range(max(rows, default=0), r - 1, -1):
            for h, c in rows.pop(x, {}).items():
                for i, coeff in relation:
                    if h + i > n:
                        break
                    row = rows.setdefault(x - i, {})
                    row[h + i] = row.get(h + i, 0) + c * coeff
        return ChowElement({(h, x): c for x, row in rows.items() for h, c in row.items()})

    def degree(self, element: ChowElement | Scalar) -> Fraction:
        """Pair a homogeneous class of top degree n + r - 1 against the point."""
        el = _coerce(element)
        if el is None:
            raise TypeError(f"cannot pair {element!r}")
        degs = el.degrees()
        if degs and degs != {self.top_degree}:
            raise ValueError(
                f"degree pairing needs a homogeneous class of degree "
                f"{self.top_degree}, got degrees {sorted(degs)}"
            )
        nf = self.reduce(el)
        coeff = nf.terms.get((self.base.dim, self.rank - 1), Fraction(0))
        return coeff * self.base.degree

    def canonical_class(self) -> ChowElement:
        """-K of P(E): r*xi + (index - c_1)*H in normal form."""
        raw = self.rank * XI + (Fraction(self.base.index) - self.cherns[0]) * H
        return self.reduce(raw)


def twist_cherns(cherns: Iterable[Scalar], rank: int, t: int) -> tuple[Fraction, ...]:
    """Chern coefficients of E tensor O(tH) from those of E.

    c_k(E(t)) = sum_i binom(r-i, k-i) c_i(E) (tH)^{k-i}, applied to the
    H-multiples degree by degree.
    """
    a = [Fraction(1)] + [Fraction(c) for c in cherns]
    if len(a) != rank + 1:
        raise ValueError(f"expected {rank} Chern coefficients")
    return tuple(
        sum(
            comb(rank - i, k - i) * a[i] * Fraction(t) ** (k - i)
            for i in range(k + 1)
        )
        for k in range(1, rank + 1)
    )


class MukaiVerdict(NamedTuple):
    passed: bool
    index_of_v: int
    c1_of_e: Fraction
    rank: int
    dim: int
    minus_k: str
    suggested_twist: int | None

    def lines(self) -> list[str]:
        out = [
            f"index(V) = {self.index_of_v}",
            f"c1(E)    = {self.c1_of_e}",
            f"-K_P(E)  = {self.minus_k}",
        ]
        if self.passed:
            out.append(f"pass: c1(V) = c1(E); P(E) is a roof candidate of index {self.rank}")
        else:
            out.append("fail: c1(E) differs from the index of V")
            if self.suggested_twist is not None:
                out.append(
                    f"note: twisting by O(tH) with t = {self.suggested_twist} "
                    f"normalizes the pair (c1 becomes {self.index_of_v})"
                )
        return out


def mukai_pair_check(
    index_of_v: int, c1_of_e: Scalar, rank: int, dim: int
) -> MukaiVerdict:
    """Check the pairing condition c_1(V) = c_1(E) in the H-generated model."""
    if index_of_v < 1 or rank < 1 or dim < 1:
        raise ValueError("inputs must be positive")
    c1 = Fraction(c1_of_e)
    if c1 <= 0:
        raise ValueError("an ample bundle has positive c1")
    gap = Fraction(index_of_v) - c1
    passed = gap == 0
    if passed:
        minus_k = f"{rank}*xi"
    else:
        minus_k = format_element(rank * XI + gap * H)
    twist = None
    if not passed and gap.denominator == 1 and gap.numerator % rank == 0:
        twist = gap.numerator // rank
    return MukaiVerdict(
        passed=passed,
        index_of_v=index_of_v,
        c1_of_e=c1,
        rank=rank,
        dim=dim,
        minus_k=minus_k,
        suggested_twist=twist,
    )


def blowup_discrepancy(r: int) -> int:
    """Discrepancy of a smooth blow-up along a center of codimension r."""
    if r < 2:
        raise ValueError("a blow-up center has codimension at least 2")
    return r - 1


class CodimVerdict(NamedTuple):
    consistent: bool
    r1: int
    r2: int
    report: tuple[str, ...]

    def lines(self) -> list[str]:
        return list(self.report)


def kequiv_forces_equal_codim(r1: int, r2: int) -> CodimVerdict:
    """Equal canonical pullbacks force equal discrepancies, hence r1 = r2."""
    if r1 < 2 or r2 < 2:
        raise ValueError("codimensions are at least 2")
    lines = [
        f"K_resolution = f1*K_X1 + {r1 - 1}E",
        f"K_resolution = f2*K_X2 + {r2 - 1}E",
    ]
    if r1 == r2:
        lines.append(
            f"f1*K_X1 = f2*K_X2 holds with E-coefficient {r1 - 1} on both sides: consistent"
        )
    else:
        lines.append(
            f"f1*K_X1 = f2*K_X2 would force {r1 - 1} = {r2 - 1}: inconsistent"
        )
    return CodimVerdict(consistent=r1 == r2, r1=r1, r2=r2, report=tuple(lines))
