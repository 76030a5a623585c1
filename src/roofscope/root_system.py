"""The finite Dynkin types A-G and their closed-form root data.

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

No production path generates positive roots or stores a bond: G/P
invariants use the closed forms ``positive_root_count`` and ``_two_rho``
(one entry per Bourbaki position), and ``dynkin`` reads each factor's
bonds off its Bourbaki spine.  The tests check both closed forms against
a reflection-orbit root generator in ``tests/oracles.py``, which also
holds the bond table ``_bonds``.
"""

from __future__ import annotations

from collections import namedtuple

from . import _make_checked

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


class SimpleType(namedtuple("SimpleType", "letter rank")):
    """One simple Dynkin factor in canonical form, e.g. A7 or F4."""

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(cls, letter: str, rank: int) -> SimpleType:
        if letter not in _LETTERS:
            raise ValueError(f"unknown type letter {letter!r}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        problem = _noncanonical(letter, rank)
        if problem is not None:
            raise ValueError(problem)
        return tuple.__new__(cls, (letter, rank))

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


def _noncanonical(letter: str, rank: int) -> str | None:
    """Why a known letter at a positive rank is not a canonical type, or None."""
    hint = _CANONICAL_HINTS.get((letter, rank))
    if hint is not None:
        return f"{letter}{rank} is not a canonical type; use {hint}"
    if letter in _SERIES_MIN_RANK:
        if rank < _SERIES_MIN_RANK[letter]:
            return f"{letter}{rank} is not a canonical type"
    elif letter == "E":
        if rank not in (6, 7, 8):
            return "E rank must be 6, 7 or 8"
    elif letter == "F" and rank != 4:
        return "F4 is the only type F diagram"
    elif letter == "G" and rank != 2:
        return "G2 is the only type G diagram"
    return None


def simple_types(max_rank: int) -> list[SimpleType]:
    """Every canonical simple type of rank <= max_rank, by letter, then by rank."""
    return [
        SimpleType(letter, rank)
        for letter in _LETTERS
        for rank in range(1, max_rank + 1)
        if _noncanonical(letter, rank) is None
    ]


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


_EXCEPTIONAL_TWO_RHO = {
    ("E", 6): (16, 22, 30, 42, 30, 16),
    ("E", 7): (34, 49, 66, 96, 75, 52, 27),
    ("E", 8): (92, 136, 182, 270, 220, 168, 114, 58),
    ("F", 4): (16, 30, 42, 22),
    ("G", 2): (6, 10),  # node 1 long
}


def _two_rho(t: SimpleType, p: int) -> int:
    """The entry at Bourbaki position p of 2rho, the sum of the positive
    roots, in the simple-root basis (Bourbaki plates)."""
    letter, n = t
    if letter == "A":
        return p * (n + 1 - p)
    if letter == "B":
        return p * (2 * n - p)
    if letter == "C":
        return p * (2 * n - p + 1) if p < n else n * (n + 1) // 2
    if letter == "D":
        return p * (2 * n - p - 1) if p < n - 1 else n * (n - 1) // 2
    return _EXCEPTIONAL_TWO_RHO[t][p - 1]
