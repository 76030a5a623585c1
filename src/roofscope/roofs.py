"""Roofs of P^{r-1}-bundles: detection, enumeration, classification.

A two-marked diagram is a roof of P^{r-1}-bundles exactly when both
fibration residues are projective spaces with the same fiber parameter
r; the anticanonical coefficient vector of such a diagram is always
(r, r).  Eight families are known:

    A_{r-1}xA_{r-1}   P^{r-1} x P^{r-1}
    A_r^M             Fl(1, r; r+1)
    A_{2r-2}^G        Fl(r-1, r; 2r-1), r >= 3
    C_{3r/2-1}        SFl(r-1, r; 3r-2), r even
    D_r               OG(r-1; 2r), r >= 4
    F4                the F4:2,3 variety, r = 3
    G2                the full G2 flag, r = 2
    G2^dagger         P(Ottaviani bundle) over Q^5, r = 3, not homogeneous

Enumeration never tests a candidate diagram on its own; it joins
projective-space charts, the (diagram, node) pairs whose single-marked
variety is P^{r-1}: the A-chain ends and the short end of each C-chain.
For a single factor G/P(i, j), the fiber over G/P(i) is the residue
"type minus i" marked at j, and that residue is the same for every j.
So each (type, removed node) residue is classified once into its
charts, and i < j is a roof exactly when the residue without i is
P^{r-1} at j and the residue without j is P^{r-1} at i.  A two-factor
product with one mark per factor is a roof exactly when both
single-marked factors are P^{r-1} for the same r, so product roofs come
from the (type, mark) charts of the full factors, joined on r.
``is_roof`` tests one diagram directly and is the oracle for both joins.

Records are deduplicated up to variety isomorphism: diagram
automorphisms (chain reversal, D-fork swap and D4 triality, E6
reversal, factor swap) are quotiented out, and a product factor of
shape C_m marked at its short end is the same variety as an end-marked
A_{2m-1} chain, so such records are reported in their A-form.  A record
is listed when its canonical diagram fits the rank bound.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, NamedTuple, Optional

from .dynkin import MarkedDiagram, diagram_of, parse, remove_node, serialize
from .homog import (
    fibration_fiber,
    gp_invariants,
    is_projective_space,
    projective_space_charts,
)
from .root_system import SimpleType


class Family(enum.Enum):
    """The eight known roof families plus the open 'unknown' label."""

    A_PRODUCT = "A_{r-1}xA_{r-1}"
    A_MUKAI = "A_r^M"
    A_GRASS = "A_{2r-2}^G"
    C_FLAG = "C_{3r/2-1}"
    D_SPINOR = "D_r"
    F4 = "F4"
    G2 = "G2"
    G2_DAGGER = "G2^dagger"
    UNKNOWN = "unknown"

    def label(self, r: int | None = None) -> str:
        """Instantiated label when r is given, else the generic one."""
        if r is None:
            return self.value
        if self is Family.A_PRODUCT:
            return f"A{r - 1}xA{r - 1}"
        if self is Family.A_MUKAI:
            return f"A{r}^M"
        if self is Family.A_GRASS:
            return f"A{2 * r - 2}^G"
        if self is Family.C_FLAG:
            return f"C{3 * r // 2 - 1}"
        if self is Family.D_SPINOR:
            return f"D{r}"
        return self.value

    def latex(self, r: int | None = None) -> str:
        if self is Family.A_PRODUCT:
            k = "r-1" if r is None else str(r - 1)
            return rf"$A_{{{k}}}\times A_{{{k}}}$"
        if self is Family.A_MUKAI:
            k = "r" if r is None else str(r)
            return rf"$A_{{{k}}}^{{M}}$"
        if self is Family.A_GRASS:
            k = "2r-2" if r is None else str(2 * r - 2)
            return rf"$A_{{{k}}}^{{G}}$"
        if self is Family.C_FLAG:
            k = "3r/2-1" if r is None else str(3 * r // 2 - 1)
            return rf"$C_{{{k}}}$"
        if self is Family.D_SPINOR:
            k = "r" if r is None else str(r)
            return rf"$D_{{{k}}}$"
        if self is Family.F4:
            return "$F_4$"
        if self is Family.G2:
            return "$G_2$"
        if self is Family.G2_DAGGER:
            return r"$G_2^{\dagger}$"
        return "unknown"


NON_HOMOGENEOUS = "non-homogeneous"


class _RoofRecordFields(NamedTuple):
    family: str
    r: int
    diagram: str
    dim_W: int
    dim_V1: int
    dim_V2: int
    index_V1: int
    index_V2: int
    homogeneous: bool
    notes: str


class RoofRecord(_RoofRecordFields):
    """One recognized roof, with the invariants of its two contractions.

    V_1 and V_2 are the images of the projections keeping the smaller
    and the larger mark respectively.
    """

    __slots__ = ()

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

    def marked_diagram(self) -> MarkedDiagram:
        if self.diagram == NON_HOMOGENEOUS:
            raise ValueError("the G2^dagger roof has no marked diagram")
        return parse(self.diagram)

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "r": self.r,
            "diagram": self.diagram,
            "dim_W": self.dim_W,
            "dim_V1": self.dim_V1,
            "dim_V2": self.dim_V2,
            "index_V1": self.index_V1,
            "index_V2": self.index_V2,
            "homogeneous": self.homogeneous,
            "notes": self.notes,
        }


G2_DAGGER_RECORD = RoofRecord(
    family=Family.G2_DAGGER.label(3),
    r=3,
    diagram=NON_HOMOGENEOUS,
    dim_W=7,
    dim_V1=5,
    dim_V2=5,
    index_V1=5,
    index_V2=5,
    homogeneous=False,
    notes="projectivized Ottaviani bundle on Q5: stable, Chern classes "
    "(2,2,2) in the integral Chow units of Q5",
)


def is_roof(md: MarkedDiagram) -> int | None:
    """Return r when both fibration fibers of a two-marked diagram are P^{r-1}."""
    if len(md.marks) != 2:
        raise ValueError("a roof candidate carries exactly two marks")
    i, j = sorted(md.marks)
    r1 = is_projective_space(fibration_fiber(md, keep=i))
    if r1 is None:
        return None
    r2 = is_projective_space(fibration_fiber(md, keep=j))
    if r2 is None or r2 != r1:
        return None
    _check_index(md, r1)
    return r1


def _check_index(md: MarkedDiagram, r: int) -> None:
    coeffs = gp_invariants(md).coefficients()
    if coeffs != (r, r):  # forced for a roof; a failure is a programming error
        raise RuntimeError(
            f"index vector {coeffs} disagrees with fiber parameter {r} on {md}"
        )


# --- family recognition ------------------------------------------------------


def _marked_factor_is_pspace(md: MarkedDiagram, mark: int) -> int | None:
    return is_projective_space(
        MarkedDiagram(md.diagram, frozenset({mark}))
    )


def _family_of(md: MarkedDiagram, r: int) -> Family:
    d = md.diagram
    marks = sorted(md.marks)
    if len(d.factors) == 2:
        split = d.factors[0].rank
        in_first = [m for m in marks if m <= split]
        if len(in_first) == 1:
            # one mark per factor: the roof is a product of the two
            # single-marked factors, each of which must be P^{r-1}
            if all(_marked_factor_is_pspace(md, m) == r for m in marks):
                return Family.A_PRODUCT
            return Family.UNKNOWN
        # both marks in one factor: the other factor is a point
        t = d.factors[0] if len(in_first) == 2 else d.factors[1]
        offset = 0 if len(in_first) == 2 else split
        local = tuple(m - offset for m in marks)
        return _single_factor_family(t, local, r)
    return _single_factor_family(d.factors[0], tuple(marks), r)


def _single_factor_family(t: SimpleType, marks: tuple[int, int], r: int) -> Family:
    i, j = marks
    n = t.rank
    if t.letter == "A":
        if (i, j) == (1, n) and r == n:
            return Family.A_MUKAI
        if n >= 4 and n % 2 == 0 and (i, j) == (n // 2, n // 2 + 1) and r == n // 2 + 1:
            return Family.A_GRASS
        return Family.UNKNOWN
    if t.letter == "C":
        if r % 2 == 0 and n == 3 * r // 2 - 1 and (i, j) == (r - 1, r):
            return Family.C_FLAG
        return Family.UNKNOWN
    if t.letter == "D":
        if n == 4 and {i, j} <= {1, 3, 4} and r == 4:
            return Family.D_SPINOR
        if n >= 5 and (i, j) == (n - 1, n) and r == n:
            return Family.D_SPINOR
        return Family.UNKNOWN
    if t.letter == "F" and (i, j) == (2, 3) and r == 3:
        return Family.F4
    if t.letter == "G" and (i, j) == (1, 2) and r == 2:
        return Family.G2
    return Family.UNKNOWN


def family_diagram(family: Family, r: int) -> str:
    """The canonical marked diagram of a family instance."""
    if family is Family.A_PRODUCT:
        return f"A{r - 1}*A{r - 1}:1,{r}"
    if family is Family.A_MUKAI:
        return f"A{r}:1,{r}"
    if family is Family.A_GRASS:
        return f"A{2 * r - 2}:{r - 1},{r}"
    if family is Family.C_FLAG:
        return f"C{3 * r // 2 - 1}:{r - 1},{r}"
    if family is Family.D_SPINOR:
        return f"D{r}:{r - 1},{r}"
    if family is Family.F4:
        return "F4:2,3"
    if family is Family.G2:
        return "G2:1,2"
    raise ValueError(f"{family} has no canonical diagram")


def _family_rank(family: Family, r: int) -> int:
    if family is Family.A_PRODUCT:
        return 2 * (r - 1)
    if family is Family.A_MUKAI:
        return r
    if family is Family.A_GRASS:
        return 2 * r - 2
    if family is Family.C_FLAG:
        return 3 * r // 2 - 1
    if family is Family.D_SPINOR:
        return r
    if family is Family.F4:
        return 4
    if family is Family.G2:
        return 2
    raise ValueError(f"{family} has no diagram rank")


def name_family(record: RoofRecord) -> str:
    """Pattern-match a record against the eight family schemata."""
    if record.diagram == NON_HOMOGENEOUS:
        return Family.G2_DAGGER.label(record.r)
    fam = _family_of(record.marked_diagram(), record.r)
    if fam is Family.UNKNOWN:
        return Family.UNKNOWN.value
    return fam.label(record.r)


# --- automorphism canonicalization -------------------------------------------


def _factor_automorphisms(t: SimpleType) -> list[dict[int, int]]:
    n = t.rank
    ident = {k: k for k in range(1, n + 1)}
    if t.letter == "A" and n >= 2:
        return [ident, {k: n + 1 - k for k in range(1, n + 1)}]
    if t.letter == "D":
        if n == 4:
            return [
                {1: p[0], 3: p[1], 4: p[2], 2: 2}
                for p in itertools.permutations((1, 3, 4))
            ]
        swap = dict(ident)
        swap[n - 1], swap[n] = n, n - 1
        return [ident, swap]
    if t.letter == "E" and n == 6:
        return [ident, {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}]
    return [ident]


def _mark_images(md: MarkedDiagram) -> set[str]:
    """All serializations of md under diagram automorphisms and factor swap."""
    d = md.diagram
    out: set[str] = set()
    if len(d.factors) == 1:
        for auto in _factor_automorphisms(d.factors[0]):
            marks = frozenset(auto[m] for m in md.marks)
            out.add(serialize(MarkedDiagram(d, marks)))
        return out
    n1 = d.factors[0].rank
    autos1 = _factor_automorphisms(d.factors[0])
    autos2 = _factor_automorphisms(d.factors[1])
    orders = [(0, 1)]
    if d.factors[0] == d.factors[1]:
        orders.append((1, 0))
    for a1 in autos1:
        for a2 in autos2:
            mapped = set()
            for m in md.marks:
                if m <= n1:
                    mapped.add(("f1", a1[m]))
                else:
                    mapped.add(("f2", a2[m - n1]))
            for order in orders:
                offsets = {("f1", "f2")[order[0]]: 0, ("f1", "f2")[order[1]]: n1}
                marks = frozenset(offsets[f] + local for f, local in mapped)
                out.add(serialize(MarkedDiagram(d, marks)))
    return out


def _dedup_key(md: MarkedDiagram) -> str:
    return min(_mark_images(md))


# --- enumeration --------------------------------------------------------------


def _admissible_types(max_rank: int) -> list[SimpleType]:
    out: list[SimpleType] = []
    for letter, lo in (("A", 1), ("B", 3), ("C", 2), ("D", 4)):
        out.extend(SimpleType(letter, n) for n in range(lo, max_rank + 1))
    out.extend(SimpleType("E", n) for n in (6, 7, 8) if n <= max_rank)
    if max_rank >= 4:
        out.append(SimpleType("F", 4))
    if max_rank >= 2:
        out.append(SimpleType("G", 2))
    return out


def _candidates(max_rank: int) -> Iterator[tuple[MarkedDiagram, int]]:
    """Every single-factor roof of rank <= max_rank with its r: the mark
    pairs whose two residue charts agree on r."""
    for t in _admissible_types(max_rank):
        d = diagram_of((t,))
        charts = {k: projective_space_charts(remove_node(d, k)) for k in d.nodes}
        for i in d.nodes:
            for j, r in charts[i].items():
                if j > i and charts[j].get(i) == r:
                    md = MarkedDiagram(d, frozenset({i, j}))
                    _check_index(md, r)
                    yield md, r


def _pspace_chart_min_ranks(max_rank: int) -> dict[int, int]:
    """The smallest rank of a (type, mark) chart that is P^{r-1}, keyed by r."""
    charts: dict[int, int] = {}
    for t in _admissible_types(max_rank):
        for r in projective_space_charts(diagram_of((t,))).values():
            charts[r] = min(charts.get(r, t.rank), t.rank)
    return charts


def enumerate_roofs(
    max_total_rank: int,
    r_filter: Optional[int] = None,
    threads: Optional[int] = None,
) -> list[RoofRecord]:
    """Every roof whose canonical diagram has total rank <= max_total_rank.

    Both halves are joins on projective-space charts.  Single factors:
    each residue "type minus node k" is classified once, and a mark pair
    i < j is a roof when the residue without i is P^{r-1} at j and the
    residue without j is P^{r-1} at i, for the same r (``_candidates``).
    Products with one mark per factor: the (type, mark) charts of the full
    factors are grouped by r, and r yields an A_{r-1}xA_{r-1} instance
    when two of its charts (possibly the same one twice) fit the rank
    bound together.  Every single-factor hit is checked to have index
    vector (r, r).  Hits are deduplicated up to variety isomorphism and
    reported through their canonical family diagrams; the non-homogeneous
    G2^dagger record is appended whenever the fiber filter admits r = 3.
    ``threads`` and ROOFSCOPE_THREADS are accepted and ignored: the scan
    is pure Python, and a thread pool was slower than one thread under
    the GIL.
    """
    if max_total_rank < 1:
        raise ValueError("max_total_rank must be at least 1")
    instances: dict[str, tuple[Family, int]] = {}

    def add(family: Family, r: int, key: str) -> None:
        if r_filter is not None and r != r_filter:
            return
        if family is not Family.UNKNOWN and _family_rank(family, r) > max_total_rank:
            return  # only reachable through a lower-rank C-chart of the same variety
        instances.setdefault(key, (family, r))

    for md, r in _candidates(max_total_rank):
        family = _family_of(md, r)
        key = _dedup_key(md) if family is Family.UNKNOWN else family_diagram(family, r)
        add(family, r, key)
    for r, rank in _pspace_chart_min_ranks(max_total_rank).items():
        if 2 * rank <= max_total_rank:
            add(Family.A_PRODUCT, r, family_diagram(Family.A_PRODUCT, r))

    records = [
        _record_for(diagram, family, r)
        for diagram, (family, r) in instances.items()
    ]
    if r_filter in (None, G2_DAGGER_RECORD.r):
        records.append(G2_DAGGER_RECORD)
    return sorted(records, key=_record_sort_key)


def _record_sort_key(rec: RoofRecord):
    if rec.diagram == NON_HOMOGENEOUS:
        rank = 0
    else:
        md = parse(rec.diagram)
        rank = md.diagram.total_rank
    return (rec.r, rec.family, rank, rec.diagram)


def _record_for(diagram: str, family: Family, r: int) -> RoofRecord:
    md = parse(diagram)
    i, j = sorted(md.marks)
    v1 = gp_invariants(MarkedDiagram(md.diagram, frozenset({i})))
    v2 = gp_invariants(MarkedDiagram(md.diagram, frozenset({j})))
    if v1.dim != v2.dim:  # both contractions of a roof have equal fiber dimension
        raise RuntimeError(f"unequal base dimensions for {diagram}")
    return RoofRecord(
        family=family.label(r) if family is not Family.UNKNOWN else family.value,
        r=r,
        diagram=serialize(md),
        dim_W=v1.dim + r - 1,
        dim_V1=v1.dim,
        dim_V2=v2.dim,
        index_V1=v1.index,
        index_V2=v2.index,
        homogeneous=True,
    )


# --- reference table -----------------------------------------------------------


def _expected_triple(family: Family, r: int) -> tuple[int, int, int]:
    if family is Family.A_PRODUCT:
        return (r - 1, r, r)
    if family is Family.A_MUKAI:
        return (r, r + 1, r + 1)
    if family is Family.A_GRASS:
        return (r * (r - 1), 2 * r - 1, 2 * r - 1)
    if family is Family.C_FLAG:
        return (3 * r * (r - 1) // 2, 2 * r, 2 * r - 1)
    if family is Family.D_SPINOR:
        return (r * (r - 1) // 2, 2 * r - 2, 2 * r - 2)
    if family is Family.F4:
        return (20, 5, 7)
    if family is Family.G2:
        return (5, 3, 5)
    if family is Family.G2_DAGGER:
        return (5, 5, 5)
    raise ValueError(f"{family} has no table row")


def _table_rs(family: Family, r_max: int) -> list[int]:
    if family in (Family.A_PRODUCT, Family.A_MUKAI):
        return list(range(2, r_max + 1))
    if family is Family.A_GRASS:
        return list(range(3, r_max + 1))
    if family is Family.C_FLAG:
        return list(range(2, r_max + 1, 2))
    if family is Family.D_SPINOR:
        return list(range(4, r_max + 1))
    if family is Family.F4:
        return [3] if r_max >= 3 else []
    if family is Family.G2:
        return [2]
    if family is Family.G2_DAGGER:
        return [3] if r_max >= 3 else []
    return []


class TableRow(NamedTuple):
    family: str
    r: int
    computed: tuple[int, int, int]
    expected: tuple[int, int, int]

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


class TableReport(NamedTuple):
    rows: tuple[TableRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> list[TableRow]:
        return [row for row in self.rows if not row.ok]


def _computed_triple(family: Family, r: int) -> tuple[int, int, int]:
    if family is Family.G2_DAGGER:
        # the two contractions land on Q^5, computed here as B3:1; the
        # fiber parameter 3 is certified by the bundle calculus of chow
        from . import chow

        q5 = gp_invariants(parse("B3:1"))
        ring = chow.BundleChowRing(
            chow.quadric(5), 3, chow.twist_cherns(chow.OTTAVIANI_CHERNS_H, 3, 1)
        )
        if ring.canonical_class() != 3 * chow.XI:
            return (q5.dim, -1, -1)
        return (q5.dim, q5.index, q5.index)
    md = parse(family_diagram(family, r))
    i, j = sorted(md.marks)
    v1 = gp_invariants(MarkedDiagram(md.diagram, frozenset({i})))
    v2 = gp_invariants(MarkedDiagram(md.diagram, frozenset({j})))
    return (v1.dim, v1.index, v2.index)


_TABLE_FAMILIES = (
    Family.A_PRODUCT,
    Family.A_MUKAI,
    Family.A_GRASS,
    Family.C_FLAG,
    Family.D_SPINOR,
    Family.F4,
    Family.G2,
    Family.G2_DAGGER,
)


def verify_paper_table(r_max: int, fault: Optional[str] = None) -> TableReport:
    """Recompute every family instance with r <= r_max and compare it to
    the bundled closed-form table.

    Mismatches become failing rows, never exceptions.  ``fault`` is a
    test hook: the instantiated label it names has its computed first
    index perturbed by one.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    rows = []
    for family in _TABLE_FAMILIES:
        for r in _table_rs(family, r_max):
            label = family.label(r)
            dim, i1, i2 = _computed_triple(family, r)
            if fault is not None and fault == label:
                i1 += 1
            rows.append(
                TableRow(
                    family=label,
                    r=r,
                    computed=(dim, i1, i2),
                    expected=_expected_triple(family, r),
                )
            )
    return TableReport(tuple(rows))


# --- classification of simple K-equivalent maps --------------------------------


class ClassificationQuery(NamedTuple):
    """Constraints on a simple K-equivalent map.

    ``r`` is the codimension of the two centers, ``fiber_gap`` is
    dim Y_i - dim M (the dimension of the contraction fibers), and
    ``dim_x`` bounds the ambient dimension.
    """

    dim_x: Optional[int] = None
    r: Optional[int] = None
    fiber_gap: Optional[int] = None
    symplectic: bool = False


# constraint encodings: ("eq", k) | ("le", k) | None (unconstrained)
_CASE_SYMPLECTIC = {Family.A_MUKAI: None}
_CASE_CODIM_2 = {
    Family.A_PRODUCT: ("eq", 2),
    Family.A_MUKAI: ("eq", 2),
    Family.C_FLAG: ("eq", 2),
    Family.G2: ("eq", 2),
}
_CASE_LARGE_CODIM = {
    Family.A_PRODUCT: None,
    Family.A_MUKAI: None,
    Family.C_FLAG: ("eq", 2),
    Family.D_SPINOR: ("eq", 4),
    Family.G2_DAGGER: ("eq", 3),
}
_CASE_DIM_8 = {
    Family.A_PRODUCT: ("le", 3),
    Family.A_MUKAI: ("le", 3),
    Family.C_FLAG: ("eq", 2),
    Family.G2: ("eq", 2),
    Family.G2_DAGGER: ("eq", 3),
}

# dim X = dim M + dim W + 1, and the smallest roof W is P^1 x P^1
_BELOW_DIM_3 = (
    "no simple K-equivalent map exists below dimension 3; the smallest is "
    "the Atiyah flop: A1xA1 at r = 2, W = P^1xP^1, dim X = 3"
)

_INTRINSIC = {
    Family.A_PRODUCT: lambda r: r >= 2,
    Family.A_MUKAI: lambda r: r >= 2,
    Family.A_GRASS: lambda r: r >= 3,
    Family.C_FLAG: lambda r: r >= 2 and r % 2 == 0,
    Family.D_SPINOR: lambda r: r >= 4,
    Family.F4: lambda r: r == 3,
    Family.G2: lambda r: r == 2,
    Family.G2_DAGGER: lambda r: r == 3,
}


class ClassEntry(NamedTuple):
    family: Family
    label: str
    rules: tuple[str, ...]


class ClassificationResult(NamedTuple):
    available: bool
    entries: tuple[ClassEntry, ...]
    applied_rules: tuple[str, ...]

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


def _merge(c1, c2):
    """Intersect two constraints; returns ('empty',) when incompatible."""
    if c1 is None:
        return c2
    if c2 is None:
        return c1
    k1, k2 = c1[1], c2[1]
    if c1[0] == "eq" and c2[0] == "eq":
        return c1 if k1 == k2 else ("empty",)
    if c1[0] == "eq":
        return c1 if k1 <= k2 else ("empty",)
    if c2[0] == "eq":
        return c2 if k2 <= k1 else ("empty",)
    return ("le", min(k1, k2))


def classify_simple_kequiv(q: ClassificationQuery) -> ClassificationResult:
    """Apply the classification cases admitted by the query and intersect them.

    Cases: symplectic total space (Mukai flop only); codimension 2;
    codimension at least fiber dimension minus 2; ambient dimension at
    most 8.  A query matching no case yields an explicit unavailable
    result, not an empty list.  So does an ambient dimension of 1 or 2,
    which no map reaches; its one applied rule says why.
    """
    if not (q.symplectic or q.dim_x is not None or q.r is not None or q.fiber_gap is not None):
        raise ValueError("at least one constraint is required")
    if q.r is not None and q.r < 2:
        raise ValueError("the codimension of a simple K-equivalent map is at least 2")
    if q.dim_x is not None and q.dim_x < 1:
        raise ValueError(f"the ambient dimension must be positive, got {q.dim_x}")
    if q.dim_x is not None and q.dim_x < 3:
        return ClassificationResult(False, (), (_BELOW_DIM_3,))

    cases: list[tuple[str, dict]] = []
    if q.symplectic:
        cases.append(("symplectic ambient variety", _CASE_SYMPLECTIC))
    if q.r == 2:
        cases.append(("codimension 2", _CASE_CODIM_2))
    if q.r is not None and q.fiber_gap is not None and q.r >= q.fiber_gap - 2:
        cases.append(("codimension >= fiber dimension - 2", _CASE_LARGE_CODIM))
    if q.dim_x is not None and q.dim_x <= 8:
        cases.append(("ambient dimension <= 8", _CASE_DIM_8))
    if not cases:
        return ClassificationResult(False, (), ())

    families = set(cases[0][1])
    for _, table in cases[1:]:
        families &= set(table)

    entries = []
    for family in sorted(families, key=lambda f: list(Family).index(f)):
        constraint = None
        rules = []
        dead = False
        for name, table in cases:
            constraint = _merge(constraint, table[family])
            rules.append(name)
            if constraint == ("empty",):
                dead = True
                break
        if dead:
            continue
        if q.r is not None:
            if not _INTRINSIC[family](q.r):
                continue
            if constraint is not None:
                kind, k = constraint
                if (kind == "eq" and q.r != k) or (kind == "le" and q.r > k):
                    continue
            label = family.label(q.r)
        elif constraint is not None and constraint[0] == "eq":
            if not _INTRINSIC[family](constraint[1]):
                continue
            label = family.label(constraint[1])
        elif constraint is not None:
            label = f"{family.value} (r<={constraint[1]})"
        else:
            label = family.value
        entries.append(ClassEntry(family, label, tuple(rules)))
    return ClassificationResult(True, tuple(entries), tuple(name for name, _ in cases))
