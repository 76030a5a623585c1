"""Exact root systems for the finite Dynkin types A-G.

Every downstream computation (diagram surgery, variety invariants, roof
detection) reduces to integer arithmetic in these root systems, so the
conventions are fixed here once and for all:

* Bourbaki node numbering per factor::

      A_n   1 - 2 - ... - n
      B_n   1 - ... - (n-1) => n          alpha_n short
      C_n   1 - ... - (n-1) <= n          alpha_n long
      D_n   1 - ... - (n-2) < (n-1, n)    fork at node n-2
      E_n   1 - 3 - 4 - ... - n           node 2 attached to node 4
      F_4   1 - 2 => 3 - 4                nodes 1, 2 long
      G_2   1 => 2                        alpha_1 long

  Double and triple arrows point from the long root to the short root.

* ``cartan[i][j] = <alpha_j, alpha_i^vee>``; consequently the row of a
  short root carries the -2 or -3 entry.

* Canonical low-rank forms: the rank-2 double-bond system is always
  written C2 (the B2 spelling is an input alias handled by the diagram
  grammar), D2 is written A1*A1, D3 is written A3.  Constructing a
  non-canonical type is an error naming the form to use.

* A product of two factors concatenates the node numbering and has a
  block-diagonal Cartan matrix.

Positive roots are integer coefficient vectors in the simple-root basis,
generated by closing the simple roots under root-string addition and
frozen in (height, coefficients) order.  The closure is quadratic in the
number of roots, so no production path runs it: diagrams take their
edges from ``_bonds`` and G/P invariants use the closed forms
``positive_root_count`` and ``_two_rho``.  ``construct`` stays public API
and serves as the test oracle for both.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

_SERIES_MIN_RANK = {"A": 1, "B": 3, "C": 2, "D": 4}

_CANONICAL_HINTS = {
    ("B", 1): "A1",
    ("C", 1): "A1",
    ("B", 2): "C2 (same diagram with the node order reversed)",
    ("D", 1): "A1",
    ("D", 2): "A1*A1",
    ("D", 3): "A3",
    ("E", 4): "A4",
    ("E", 5): "D5",
}


_LETTERS = tuple("ABCDEFG")


def _make_checked(cls, iterable):
    """``_make`` for the checked value types: NamedTuple's own builds the
    tuple without calling ``__new__`` (and ``_replace`` goes through it), so
    it would skip the validation."""
    return cls(*iterable)


class _SimpleTypeFields(NamedTuple):
    letter: str
    rank: int


class SimpleType(_SimpleTypeFields):
    """One simple Dynkin factor in canonical form, e.g. A7 or F4."""

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, letter: str, rank: int) -> SimpleType:
        if letter not in _LETTERS:
            raise ValueError(f"unknown type letter {letter!r}")
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        hint = _CANONICAL_HINTS.get((letter, rank))
        if hint is not None:
            raise ValueError(f"{letter}{rank} is not a canonical type; use {hint}")
        if letter in _SERIES_MIN_RANK:
            if rank < _SERIES_MIN_RANK[letter]:
                raise ValueError(f"{letter}{rank} is not a canonical type")
        elif letter == "E":
            if rank not in (6, 7, 8):
                raise ValueError("E rank must be 6, 7 or 8")
        elif letter == "F" and rank != 4:
            raise ValueError("F4 is the only type F diagram")
        elif letter == "G" and rank != 2:
            raise ValueError("G2 is the only type G diagram")
        return tuple.__new__(cls, (letter, rank))

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


def positive_root_count(t: SimpleType) -> int:
    """Closed-form number of positive roots of a simple factor."""
    n = t.rank
    if t.letter == "A":
        return n * (n + 1) // 2
    if t.letter in "BC":
        return n * n
    if t.letter == "D":
        return n * (n - 1)
    if t.letter == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    if t.letter == "F":
        return 24
    return 6  # G2


def _bonds(t: SimpleType) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(i, j, cartan[i][j], cartan[j][i])`` for each bond, 0-based, i < j."""
    n = t.rank
    if t.letter in "ABCD":
        chain = n - 1 if t.letter == "A" else n - 2
        for i in range(chain):
            yield i, i + 1, -1, -1
        if t.letter == "B":
            yield n - 2, n - 1, -1, -2  # alpha_n short: its row holds the -2
        elif t.letter == "C":
            yield n - 2, n - 1, -2, -1  # alpha_n long
        elif t.letter == "D":
            yield n - 3, n - 1, -1, -1
    elif t.letter == "E":
        yield 0, 2, -1, -1
        yield 1, 3, -1, -1
        for i in range(2, n - 1):
            yield i, i + 1, -1, -1
    elif t.letter == "F":
        yield 0, 1, -1, -1
        yield 1, 2, -1, -2
        yield 2, 3, -1, -1
    else:  # G2
        yield 0, 1, -1, -3


def _simple_cartan(t: SimpleType) -> list[list[int]]:
    n = t.rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, ij, ji in _bonds(t):
        m[i][j] = ij
        m[j][i] = ji
    return m


_EXCEPTIONAL_TWO_RHO = {
    ("E", 6): (16, 22, 30, 42, 30, 16),
    ("E", 7): (34, 49, 66, 96, 75, 52, 27),
    ("E", 8): (92, 136, 182, 270, 220, 168, 114, 58),
    ("F", 4): (16, 30, 42, 22),
    ("G", 2): (6, 10),  # node 1 long
}


def _two_rho(t: SimpleType) -> tuple[int, ...]:
    """2rho, the sum of the positive roots, in the simple-root basis (Bourbaki plates)."""
    n = t.rank
    if t.letter == "A":
        return tuple(p * (n + 1 - p) for p in range(1, n + 1))
    if t.letter == "B":
        return tuple(p * (2 * n - p) for p in range(1, n + 1))
    if t.letter == "C":
        return tuple(p * (2 * n - p + 1) for p in range(1, n)) + (n * (n + 1) // 2,)
    if t.letter == "D":
        fork = n * (n - 1) // 2
        return tuple(p * (2 * n - p - 1) for p in range(1, n - 1)) + (fork, fork)
    return _EXCEPTIONAL_TWO_RHO[(t.letter, n)]


def _positive_roots(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Close the simple roots under root-string addition.

    beta + alpha_i is a root iff the alpha_i-string through beta extends
    upward, i.e. p - <beta, alpha_i^vee> > 0 where p is the number of
    steps the string descends.  Processing level by level guarantees the
    descent test only consults roots of smaller height, all of which are
    already present.
    """
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[tuple[int, ...]] = []
        for beta in frontier:
            for i in range(n):
                up = list(beta)
                up[i] += 1
                cand = tuple(up)
                if cand in found:
                    continue
                down = 0
                step = list(beta)
                while True:
                    step[i] -= 1
                    if step[i] < 0 or tuple(step) not in found:
                        break
                    down += 1
                pair = sum(beta[j] * cartan[i][j] for j in range(n))
                if down - pair > 0:
                    found.add(cand)
                    new.append(cand)
        frontier = new
    return sorted(found, key=lambda v: (sum(v), v))


class RootSystem(NamedTuple):
    """A semisimple root system with at most two simple factors.

    Immutable; safe to share between threads.
    """

    factors: tuple[SimpleType, ...]
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def factor_of(self, node: int) -> int:
        """Index of the factor containing a (1-based) node."""
        upto = 0
        for k, f in enumerate(self.factors):
            upto += f.rank
            if node <= upto:
                return k
        raise IndexError(f"node {node} out of range 1..{self.rank}")

    def __str__(self) -> str:
        return "*".join(str(f) for f in self.factors)


@lru_cache(maxsize=None)
def _construct(factors: tuple[SimpleType, ...]) -> RootSystem:
    size = sum(f.rank for f in factors)
    cartan = [[0] * size for _ in range(size)]
    offset = 0
    for f in factors:
        block = _simple_cartan(f)
        for i in range(f.rank):
            for j in range(f.rank):
                cartan[offset + i][offset + j] = block[i][j]
        offset += f.rank
    roots = _positive_roots(cartan)
    expected = sum(positive_root_count(f) for f in factors)
    if len(roots) != expected:  # saturation guard; never fires for valid input
        raise RuntimeError(
            f"positive-root closure produced {len(roots)} roots for "
            f"{'*'.join(map(str, factors))}, expected {expected}"
        )
    return RootSystem(
        factors=factors,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(roots),
    )


def construct(spec: Iterable[SimpleType]) -> RootSystem:
    """Build the root system of one or two simple factors.

    The result is cached and immutable; identical specs return the same
    object with the same deterministic root ordering.
    """
    factors = tuple(spec)
    if not 1 <= len(factors) <= 2:
        raise ValueError("a root system here has 1 or 2 simple factors")
    for f in factors:
        if not isinstance(f, SimpleType):
            raise TypeError(f"expected SimpleType, got {f!r}")
    return _construct(factors)


def pairing(rs: RootSystem, v: Sequence[int], i: int) -> int:
    """Evaluate <v, alpha_i^vee> for a coefficient vector v (node i is 1-based)."""
    if not 1 <= i <= rs.rank:
        raise IndexError(f"node {i} out of range 1..{rs.rank}")
    if len(v) != rs.rank:
        raise ValueError(f"coefficient vector has length {len(v)}, expected {rs.rank}")
    row = rs.cartan[i - 1]
    return sum(int(c) * row[j] for j, c in enumerate(v))


def sum_positive_roots(
    rs: RootSystem,
    select: Optional[Callable[[tuple[int, ...]], bool]] = None,
) -> tuple[int, ...]:
    """Coefficient-wise sum of the selected positive roots (all by default)."""
    total = [0] * rs.rank
    for beta in rs.positive_roots:
        if select is None or select(beta):
            for j, c in enumerate(beta):
                total[j] += c
    return tuple(total)


class Weight(NamedTuple):
    """An integral weight in the fundamental-weight basis."""

    coords: tuple[int, ...]


def weight_of(rs: RootSystem, v: Sequence[int]) -> Weight:
    """The weight of a root-basis vector: all pairings <v, alpha_i^vee>."""
    return Weight(tuple(pairing(rs, v, i) for i in range(1, rs.rank + 1)))
