"""Roofs of P^{r-1}-bundles: the family rows, enumeration, the reference table.

A two-marked diagram is a roof of P^{r-1}-bundles exactly when both
fibration residues are projective spaces with the same fiber parameter
r; the anticanonical coefficient vector of such a diagram is always
(r, r).  Eight families are known, one ``FAMILY_SPECS`` row each:

    A_{r-1}xA_{r-1}   P^{r-1} x P^{r-1}
    A_r^M             Fl(1, r; r+1)
    A_{2r-2}^G        Fl(r-1, r; 2r-1), r >= 3
    C_{3r/2-1}        SFl(r-1, r; 3r-2), r even
    D_r               OG(r-1; 2r), r >= 4
    F4                the F4:2,3 variety, r = 3
    G2                the full G2 flag, r = 2
    G2^dagger         P(Ottaviani bundle) over Q^5, r = 3, not homogeneous

Enumeration tests no diagram and searches nothing.  For a single
factor G/P(i, j), the fiber over G/P(i) is the residue "type minus i"
marked at j, so i < j is a roof exactly when the residue without i is
P^{r-1} at j and the residue without j is P^{r-1} at i: a join on the
projective-space charts of the residues.  That join is solved once per
letter in the comment above ``FAMILY_SPECS``, and its solutions are the
single-factor rows, one diagram per r up to automorphism (chain
reversal, D-fork swap and D4 triality, E6 reversal).  A two-factor
product with one mark per factor is a roof exactly when both
single-marked factors are P^{r-1} for the same r, so it is P^{r-1} x
P^{r-1}: the A_{r-1}xA_{r-1} row, reported in that A-form, since a C_m
factor marked at its short end is the same variety as an end-marked
A_{2m-1} chain.  Every walk reads the eight rows in table order, and
``_record`` reads a row's record at r off its triple and canonical
diagram.  A record is listed when its row admits r and fits the rank
bound, so ``enumerate_roofs`` costs O(1) per record: O(N) up to rank N,
and O(1) for one fiber parameter.  Only ``verify_paper_table``
recomputes the triples, by ``gp_invariants`` on the rows' diagrams.  A
row's rank grows with r, so the largest r at which it fits a rank bound
is one bisection over the r its ``fibers`` list
(``FamilySpec.top_fiber``, which ``classify`` also cuts by): that row's
widest record and largest integer, found at any rank.  The tests keep
the chart join, the direct roof test of every diagram and family
recognition as references and compare them with the rows.  The
classification of simple K-equivalent maps, these rows cut by the query,
lives in ``classify``, which no ``roofs`` or ``verify-table`` query
loads.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterator

from . import _make_checked
from .dynkin import MarkedDiagram, SimpleType, diagram_of, parse, serialize
from .homog import gp_invariants


class Family(enum.Enum):
    """The eight known roof families."""

    A_PRODUCT = "A_{r-1}xA_{r-1}"
    A_MUKAI = "A_r^M"
    A_GRASS = "A_{2r-2}^G"
    C_FLAG = "C_{3r/2-1}"
    D_SPINOR = "D_r"
    F4 = "F4"
    G2 = "G2"
    G2_DAGGER = "G2^dagger"


class FamilySpec(
    namedtuple("FamilySpec", "label latex factors marks fibers triple notes", defaults=("",))
):
    """One roof family, each field but ``fibers`` and ``notes`` a function
    of the fiber parameter r.

    ``factors`` and ``marks`` (the two marks, ascending) give the
    canonical marked diagram; both are None for G2^dagger, which has
    none, so its ``rank`` is 0: it fits every rank bound at r = 3.
    ``fibers`` is (first, step, last): the row sits at r = first,
    first + step, ... up to last, None when unbounded.  ``triple`` is the
    closed-form (dim V_1, index V_1, index V_2) that the records read and
    ``verify_paper_table`` checks.  ``notes`` is the records' notes column.
    """

    __slots__ = ()

    def admits(self, r: int) -> bool:
        first, step, last = self.fibers
        return first <= r and (last is None or r <= last) and (r - first) % step == 0

    def marked(self, r: int) -> MarkedDiagram:
        """The canonical marked diagram at r."""
        return MarkedDiagram(diagram_of(self.factors(r)), frozenset(self.marks(r)))

    def rank(self, r: int) -> int:
        """The total rank of the canonical diagram at r, 0 with none."""
        return 0 if self.factors is None else sum(t.rank for t in self.factors(r))

    def top_fiber(self, fits, fibers: range) -> int | None:
        """The largest r of ``fibers`` at which the row sits and ``fits(r)``
        holds, None if there is none.  ``fits`` must hold up to some r and
        fail after it, as a bound on the rank or on dim V_1 does, so this
        is one bisection over the row's r in ``fibers``: at most
        bit_length(#r) + 1 calls of ``fits``, at any size."""
        first, step, last = self.fibers
        top = fibers.stop - 1 if last is None else min(last, fibers.stop - 1)
        lo, hi = -((first - max(first, fibers.start)) // step), (top - first) // step
        found = None
        while lo <= hi:
            k = (lo + hi) // 2
            if fits(first + k * step):
                found, lo = first + k * step, k + 1
            else:
                hi = k - 1
        return found


def _a(n: int) -> tuple[SimpleType, ...]:
    return (SimpleType("A", n),)


# The eight families, in table order; everything family-specific reads a row.
#
# A single factor G/P(i, j), i < j, is a roof exactly when the residue
# "type minus i" marked at j and the residue "type minus j" marked at i
# are both P^(r-1): a join on the projective-space charts of the residues,
# the A-chain ends (P^m, r = m + 1 on A_m) and the short end of each
# C-chain (P^(2m-1), r = 2m on C_m).  It is solved here once per letter.
# Removing k from the Bourbaki chain leaves the run 1..k-1, an A_(k-1)
# with charts 1 and k-1 at r = k, and the nodes beyond k.  So j > i is a
# chart of "minus i" only in the run beyond i, and i < j is a chart of
# "minus j" only at 1 or j-1, with r = j:
#
# * A_n: beyond i lies A_(n-i), charts i+1 and n at r = n-i+1.  So
#   r = j = n-i+1 with j in {i+1, n}: (1, n) at r = n (A_r^M), and
#   (n/2, n/2+1) at r = n/2+1 for even n (A_(2r-2)^G; at n = 2 the same
#   pair as A2^M).
# * C_n: beyond i lies C_(n-i), chart i+1 at r = 2(n-i).  So j = i+1 and
#   r = i+1 = 2(n-i): (r-1, r) at r = 2(n+1)/3 when n = 2 mod 3
#   (C_(3r/2-1), C2 included).
# * B_n: beyond i lies B_(n-i), with the chart n only when n-i <= 2, at
#   r = 2(n-i), and "minus n" has charts 1 and n-1 at r = n.  No n >= 3
#   solves both.
# * D_n: beyond i <= n-3 lie the fork nodes n-1 and n, charts only when
#   n-i <= 3, at r = 2(n-i)-2, and "minus n-1" and "minus n" are A_(n-1)
#   with charts at r = n.  So (n-1, n) at r = n (D_r), and in D4 also
#   (1, 3) and (1, 4), its triality images.
# * F4: (2, 3) at r = 3; G2: (1, 2) at r = 2; E_n: none (read off the
#   residues of these five types).
#
# Each solution is a single-factor row; the tests compare the rows with
# the chart join itself on every type up to rank 512.  The records read
# each row's triple, which verify-table recomputes by gp_invariants on the
# row's diagram, and the two agree at every r: past the small ranks, where
# a Levi component next to a mark is empty or changes letter, rank and
# marks are affine in r, positive_root_count is quadratic in the rank and
# _two_rho in rank and position, so both sides are polynomials in r of
# degree <= 2, and the tests check them at every r <= 64 and near 10^18.
FAMILY_SPECS: dict[Family, FamilySpec] = {
    Family.A_PRODUCT: FamilySpec(
        label=lambda r: f"A{r - 1}xA{r - 1}",
        latex=lambda r: rf"$A_{{{r - 1}}}\times A_{{{r - 1}}}$",
        factors=lambda r: _a(r - 1) * 2,
        marks=lambda r: (1, r),
        fibers=(2, 1, None),
        triple=lambda r: (r - 1, r, r),
    ),
    Family.A_MUKAI: FamilySpec(
        label=lambda r: f"A{r}^M",
        latex=lambda r: rf"$A_{{{r}}}^{{M}}$",
        factors=_a,
        marks=lambda r: (1, r),
        fibers=(2, 1, None),
        triple=lambda r: (r, r + 1, r + 1),
    ),
    Family.A_GRASS: FamilySpec(
        label=lambda r: f"A{2 * r - 2}^G",
        latex=lambda r: rf"$A_{{{2 * r - 2}}}^{{G}}$",
        factors=lambda r: _a(2 * r - 2),
        marks=lambda r: (r - 1, r),
        fibers=(3, 1, None),
        triple=lambda r: (r * (r - 1), 2 * r - 1, 2 * r - 1),
    ),
    Family.C_FLAG: FamilySpec(
        label=lambda r: f"C{3 * r // 2 - 1}",
        latex=lambda r: rf"$C_{{{3 * r // 2 - 1}}}$",
        factors=lambda r: (SimpleType("C", 3 * r // 2 - 1),),
        marks=lambda r: (r - 1, r),
        fibers=(2, 2, None),
        triple=lambda r: (3 * r * (r - 1) // 2, 2 * r, 2 * r - 1),
    ),
    Family.D_SPINOR: FamilySpec(
        label=lambda r: f"D{r}",
        latex=lambda r: rf"$D_{{{r}}}$",
        factors=lambda r: (SimpleType("D", r),),
        marks=lambda r: (r - 1, r),
        fibers=(4, 1, None),
        triple=lambda r: (r * (r - 1) // 2, 2 * r - 2, 2 * r - 2),
    ),
    Family.F4: FamilySpec(
        label=lambda r: "F4",
        latex=lambda r: "$F_4$",
        factors=lambda r: (SimpleType("F", 4),),
        marks=lambda r: (2, 3),
        fibers=(3, 1, 3),
        triple=lambda r: (20, 5, 7),
    ),
    Family.G2: FamilySpec(
        label=lambda r: "G2",
        latex=lambda r: "$G_2$",
        factors=lambda r: (SimpleType("G", 2),),
        marks=lambda r: (1, 2),
        fibers=(2, 1, 2),
        triple=lambda r: (5, 3, 5),
    ),
    Family.G2_DAGGER: FamilySpec(
        label=lambda r: "G2^dagger",
        latex=lambda r: r"$G_2^{\dagger}$",
        factors=None,
        marks=None,
        fibers=(3, 1, 3),
        triple=lambda r: (5, 5, 5),
        notes="projectivized Ottaviani bundle on Q5: stable, Chern classes "
        "(2,2,2) in the integral Chow units of Q5",
    ),
}


NON_HOMOGENEOUS = "non-homogeneous"


class RoofRecord(
    namedtuple(
        "RoofRecord",
        "family r diagram dim_W dim_V1 dim_V2 index_V1 index_V2 homogeneous notes",
        defaults=("",),
    )
):
    """One recognized roof, with the invariants of its two contractions.

    V_1 and V_2 are the images of the projections keeping the smaller
    and the larger mark respectively.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(
        cls,
        family: str,
        r: int,
        diagram: str,
        dim_W: int,
        dim_V1: int,
        dim_V2: int,
        index_V1: int,
        index_V2: int,
        homogeneous: bool,
        notes: str = "",
    ) -> RoofRecord:
        if dim_W != dim_V1 + r - 1 or dim_W != dim_V2 + r - 1:
            raise ValueError(
                f"dim W = {dim_W} must equal dim V_i + r - 1 "
                f"({dim_V1}+{r}-1, {dim_V2}+{r}-1)"
            )
        return tuple.__new__(
            cls,
            (family, r, diagram, dim_W, dim_V1, dim_V2, index_V1, index_V2, homogeneous, notes),
        )


# --- enumeration --------------------------------------------------------------


def _fibers(max_rank: int, r_filter: int | None) -> range:
    """The fiber parameters to visit: r_filter alone, or every r at which
    a row of rank <= max_rank can sit (each row's rank is at least r - 1),
    and r = 3, where G2^dagger sits at any rank."""
    return range(2, max(max_rank, 2) + 2) if r_filter is None else range(r_filter, r_filter + 1)


def enumerate_roofs(max_total_rank: int, r_filter: int | None = None) -> list[RoofRecord]:
    """Every roof whose canonical diagram has total rank <= max_total_rank,
    sorted by (r, family, total rank, diagram), one record per row
    instance (see the module docstring; ``verify_paper_table`` checks
    the rows).  With ``r_filter`` only that r is visited;
    G2^dagger is listed whenever r = 3 is.  The list of ``_roof_stream``,
    which the command line prints as it is built."""
    if max_total_rank < 1:
        raise ValueError("max_total_rank must be at least 1")
    if r_filter is not None and r_filter < 2:
        raise ValueError("r_filter must be at least 2")
    return [rec for _, rec in _roof_stream(max_total_rank, r_filter)]


def _roof_stream(
    max_total_rank: int, r_filter: int | None = None
) -> Iterator[tuple[Family, RoofRecord]]:
    """The records of ``enumerate_roofs`` in its order, each with its
    family row, built one fiber parameter r at a time: the at most eight
    records at r are built, sorted and yielded before the next r is
    visited, so memory stays flat at any max_total_rank."""
    for r in _fibers(max_total_rank, r_filter):
        batch = [
            (family, _record(family, r))
            for family, spec in FAMILY_SPECS.items()
            if spec.admits(r) and spec.rank(r) <= max_total_rank
        ]
        # the family labels at one r are distinct, so they alone give the
        # order (r, family, total rank, diagram)
        batch.sort(key=lambda item: item[1].family)
        yield from batch


def _top_fibers(max_total_rank: int, r_filter: int | None = None) -> Iterator[tuple[Family, int]]:
    """Each row of ``_roof_stream`` with the largest r at which it is
    listed, when it is."""
    fibers = _fibers(max_total_rank, r_filter)
    for family, spec in FAMILY_SPECS.items():
        r = spec.top_fiber(lambda r: spec.rank(r) <= max_total_rank, fibers)
        if r is not None:
            yield family, r


def _widest_records(max_total_rank: int, r_filter: int | None = None) -> Iterator[RoofRecord]:
    """Each row's record of ``_roof_stream`` at the largest r that fits.
    Within a row every cell's printed length is nondecreasing in r (the
    tests hold these widths to those of the whole stream), so these at
    most eight records size a table."""
    for family, r in _top_fibers(max_total_rank, r_filter):
        yield _record(family, r)


def _largest_integer(max_total_rank: int, r_filter: int | None = None) -> int:
    """The largest integer that a record of ``_roof_stream`` holds or
    prints, read off the closed-form triples, with no record built.  A
    record's dim W = dim V_1 + r - 1 is its largest integer (the tests
    hold every integer of every record's cells and LaTeX row to it), and
    it grows with r within a row."""
    tops = _top_fibers(max_total_rank, r_filter)
    return max((FAMILY_SPECS[family].triple(r)[0] + r - 1 for family, r in tops), default=0)


def _record(family: Family, r: int) -> RoofRecord:
    """The record of the row at r, read off the row: both contractions
    have the triple's dim V_1, W is a P^(r-1)-bundle over each, and the
    diagram is the row's canonical one, or none for G2^dagger."""
    spec = FAMILY_SPECS[family]
    dim, index_1, index_2 = spec.triple(r)
    homogeneous = spec.factors is not None
    return RoofRecord(
        family=spec.label(r),
        r=r,
        diagram=serialize(spec.marked(r)) if homogeneous else NON_HOMOGENEOUS,
        dim_W=dim + r - 1,
        dim_V1=dim,
        dim_V2=dim,
        index_V1=index_1,
        index_V2=index_2,
        homogeneous=homogeneous,
        notes=spec.notes,
    )


G2_DAGGER_RECORD = _record(Family.G2_DAGGER, 3)


# --- reference table -----------------------------------------------------------


class TableRow(namedtuple("TableRow", "family r computed expected")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


class TableReport(namedtuple("TableReport", "rows")):
    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> list[TableRow]:
        return [row for row in self.rows if not row.ok]


# The Ottaviani bundle E on Q^5 has c_1(E) = 2H (``chow.OTTAVIANI_CHERNS_H``).
_OTTAVIANI_C1 = 2


def _computed_triple(family: Family, r: int) -> tuple[int, int, int]:
    if family is Family.G2_DAGGER:
        # The two contractions land on Q^5, computed here as B3:1.  P(E) has
        # P^(r-1) fibers, so rank E = r and the anticanonical class of P(E(1))
        # is r*xi + (index Q^5 - c_1(E(1)))*H with c_1(E(1)) = c_1(E) + r; the
        # row's r is right exactly when that H-coefficient vanishes.  The
        # tests check this against the canonical class that chow computes in
        # the bundle ring.
        q5 = gp_invariants(parse("B3:1"))
        index = q5.index if q5.index == _OTTAVIANI_C1 + r else -1
        return (q5.dim, index, index)
    md = FAMILY_SPECS[family].marked(r)
    w = gp_invariants(md)
    v1, v2 = (gp_invariants(MarkedDiagram(md.diagram, frozenset({m}))) for m in sorted(md.marks))
    # W is a P^(r-1)-bundle over each V_i, so its index vector is (r, r) and
    # dim W = dim V_i + r - 1; a W that breaks either fails the row
    roof = w.coefficients() == (r, r) and w.dim - r + 1 == v1.dim == v2.dim
    return (v1.dim if roof else -1, v1.index, v2.index)


def verify_paper_table(r_max: int) -> TableReport:
    """Recompute every family instance with r <= r_max and compare it to
    the bundled closed-form table.

    Mismatches become failing rows, never exceptions.  The rows come from
    ``_table_rows``, which the command line prints as they are computed.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    return TableReport(tuple(_table_rows(r_max)))


def _table_rows(r_max: int, failed: dict | None = None) -> Iterator[TableRow]:
    """The rows of ``verify_paper_table``, in table order.

    Given ``failed``, the failing rows of a run that computed every row,
    by (family label, r), nothing is recomputed: each other row passed,
    so its computed triple is its expected one.
    """
    for family, spec in FAMILY_SPECS.items():
        first, step, last = spec.fibers
        for r in range(first, (r_max if last is None else min(last, r_max)) + 1, step):
            label, expected = spec.label(r), spec.triple(r)
            if failed is None:
                yield TableRow(label, r, _computed_triple(family, r), expected)
            else:
                yield failed.get((label, r)) or TableRow(label, r, expected, expected)
