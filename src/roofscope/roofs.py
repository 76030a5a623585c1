"""Roofs of P^{r-1}-bundles: detection, enumeration, classification.

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

Enumeration never tests a candidate diagram on its own.  Single factors
come from a join of projective-space charts, the (diagram, node) pairs
whose single-marked variety is P^{r-1}: the A-chain ends and the short
end of each C-chain.  For a single factor G/P(i, j), the fiber over
G/P(i) is the residue "type minus i" marked at j, and that residue is
the same for every j.  So each (type, removed node) residue is
read once into its charts, and i < j is a roof exactly when the
residue without i is P^{r-1} at j and the residue without j is P^{r-1}
at i.  An A, B, C or D residue is a few runs of the Bourbaki chain, so
its charts, at most four, are O(1) arithmetic on (letter, n, k) and no
diagram, type or component is built; an E, F or G residue is read by
``chain_components`` and no diagram is cut.  Enumeration up to rank N is
thus O(N^2).  A fiber filter drops the charts of every other r before
the join.  A two-factor product with one mark per factor is a roof exactly
when both single-marked factors are P^{r-1} for the same r, so it is
P^{r-1} x P^{r-1}: the A_{r-1}xA_{r-1} row, emitted at every r whose
row rank fits the bound.  ``is_roof`` tests one diagram directly and is
the oracle for both: the tests compare the chart join with the full
single-factor scan and the row with the full product scan.

Records are deduplicated up to variety isomorphism: the automorphisms
of a single factor (chain reversal, D-fork swap and D4 triality, E6
reversal) are quotiented out, and a product is always reported in its
A-form, since a C_m factor marked at its short end is the same variety
as an end-marked A_{2m-1} chain.  A record is listed when its canonical
diagram fits the rank bound.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterator, NamedTuple, Optional

from .dynkin import MarkedDiagram, chain_components, diagram_of, parse, serialize
from .homog import (
    component_charts,
    fibration_fiber,
    gp_invariants,
    is_projective_space,
    projective_space_charts,
)
from .root_system import SimpleType, _make_checked, simple_types


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

    def label(self, r: int) -> str:
        """The label instantiated at r; 'unknown' has no other."""
        spec = FAMILY_SPECS.get(self)
        return self.value if spec is None else spec.label(r)


class FamilySpec(NamedTuple):
    """One roof family, each field a function of the fiber parameter r.

    ``diagram`` and ``rank`` (its total rank) are None for G2^dagger,
    which has no marked diagram.  ``triple`` is the closed-form
    (dim V_1, index V_1, index V_2) that ``verify_paper_table`` checks.
    """

    label: Callable[[int], str]
    latex: Callable[[int], str]
    diagram: Optional[Callable[[int], str]]
    rank: Optional[Callable[[int], int]]
    admits: Callable[[int], bool]
    triple: Callable[[int], tuple[int, int, int]]


# The eight families, in table order; everything family-specific reads a row.
FAMILY_SPECS: dict[Family, FamilySpec] = {
    Family.A_PRODUCT: FamilySpec(
        label=lambda r: f"A{r - 1}xA{r - 1}",
        latex=lambda r: rf"$A_{{{r - 1}}}\times A_{{{r - 1}}}$",
        diagram=lambda r: f"A{r - 1}*A{r - 1}:1,{r}",
        rank=lambda r: 2 * r - 2,
        admits=lambda r: r >= 2,
        triple=lambda r: (r - 1, r, r),
    ),
    Family.A_MUKAI: FamilySpec(
        label=lambda r: f"A{r}^M",
        latex=lambda r: rf"$A_{{{r}}}^{{M}}$",
        diagram=lambda r: f"A{r}:1,{r}",
        rank=lambda r: r,
        admits=lambda r: r >= 2,
        triple=lambda r: (r, r + 1, r + 1),
    ),
    Family.A_GRASS: FamilySpec(
        label=lambda r: f"A{2 * r - 2}^G",
        latex=lambda r: rf"$A_{{{2 * r - 2}}}^{{G}}$",
        diagram=lambda r: f"A{2 * r - 2}:{r - 1},{r}",
        rank=lambda r: 2 * r - 2,
        admits=lambda r: r >= 3,
        triple=lambda r: (r * (r - 1), 2 * r - 1, 2 * r - 1),
    ),
    Family.C_FLAG: FamilySpec(
        label=lambda r: f"C{3 * r // 2 - 1}",
        latex=lambda r: rf"$C_{{{3 * r // 2 - 1}}}$",
        diagram=lambda r: f"C{3 * r // 2 - 1}:{r - 1},{r}",
        rank=lambda r: 3 * r // 2 - 1,
        admits=lambda r: r >= 2 and r % 2 == 0,
        triple=lambda r: (3 * r * (r - 1) // 2, 2 * r, 2 * r - 1),
    ),
    Family.D_SPINOR: FamilySpec(
        label=lambda r: f"D{r}",
        latex=lambda r: rf"$D_{{{r}}}$",
        diagram=lambda r: f"D{r}:{r - 1},{r}",
        rank=lambda r: r,
        admits=lambda r: r >= 4,
        triple=lambda r: (r * (r - 1) // 2, 2 * r - 2, 2 * r - 2),
    ),
    Family.F4: FamilySpec(
        label=lambda r: "F4",
        latex=lambda r: "$F_4$",
        diagram=lambda r: "F4:2,3",
        rank=lambda r: 4,
        admits=lambda r: r == 3,
        triple=lambda r: (20, 5, 7),
    ),
    Family.G2: FamilySpec(
        label=lambda r: "G2",
        latex=lambda r: "$G_2$",
        diagram=lambda r: "G2:1,2",
        rank=lambda r: 2,
        admits=lambda r: r == 2,
        triple=lambda r: (5, 3, 5),
    ),
    Family.G2_DAGGER: FamilySpec(
        label=lambda r: "G2^dagger",
        latex=lambda r: r"$G_2^{\dagger}$",
        diagram=None,
        rank=None,
        admits=lambda r: r == 3,
        triple=lambda r: (5, 5, 5),
    ),
}


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

    def marked_diagram(self) -> MarkedDiagram:
        if self.diagram == NON_HOMOGENEOUS:
            raise ValueError("the G2^dagger roof has no marked diagram")
        return parse(self.diagram)


def _g2_dagger_record() -> RoofRecord:
    """The non-homogeneous roof, read off its table row at r = 3: both
    contractions land on Q^5, so dim V_2 = dim V_1."""
    r = 3
    dim, index_1, index_2 = FAMILY_SPECS[Family.G2_DAGGER].triple(r)
    return RoofRecord(
        family=Family.G2_DAGGER.label(r),
        r=r,
        diagram=NON_HOMOGENEOUS,
        dim_W=dim + r - 1,
        dim_V1=dim,
        dim_V2=dim,
        index_V1=index_1,
        index_V2=index_2,
        homogeneous=False,
        notes="projectivized Ottaviani bundle on Q5: stable, Chern classes "
        "(2,2,2) in the integral Chow units of Q5",
    )


G2_DAGGER_RECORD = _g2_dagger_record()


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


def _family_of(md: MarkedDiagram, r: int) -> Family:
    d = md.diagram
    marks = sorted(md.marks)
    if len(d.factors) == 2:
        split = d.factors[0].rank
        in_first = [m for m in marks if m <= split]
        if len(in_first) == 1:
            # one mark per factor: the roof is a product of the two
            # single-marked factors, each of which must be P^{r-1}
            charts = projective_space_charts(d)
            if all(charts.get(m) == r for m in marks):
                return Family.A_PRODUCT
            return Family.UNKNOWN
        # both marks in one factor: the other factor is a point
        t = d.factors[0] if len(in_first) == 2 else d.factors[1]
        offset = 0 if len(in_first) == 2 else split
        local = frozenset(m - offset for m in marks)
        return _single_factor_family(MarkedDiagram(diagram_of((t,)), local), r)
    return _single_factor_family(md, r)


def _single_factor_family(md: MarkedDiagram, r: int) -> Family:
    """The family whose canonical diagram at r is md up to automorphism."""
    images = _mark_images(md)
    for family, spec in FAMILY_SPECS.items():
        if spec.diagram is not None and spec.admits(r) and spec.diagram(r) in images:
            return family
    return Family.UNKNOWN


def family_diagram(family: Family, r: int) -> str:
    """The canonical marked diagram of a family instance."""
    spec = FAMILY_SPECS.get(family)
    if spec is None or spec.diagram is None:
        raise ValueError(f"{family} has no canonical diagram")
    return spec.diagram(r)


def name_family(record: RoofRecord) -> str:
    """Pattern-match a record against the eight family schemata."""
    if record.diagram == NON_HOMOGENEOUS:
        return Family.G2_DAGGER.label(record.r)
    return _family_of(record.marked_diagram(), record.r).label(record.r)


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
    """All serializations of a single-factor md under its diagram automorphisms."""
    d = md.diagram
    (t,) = d.factors
    return {
        serialize(MarkedDiagram(d, frozenset(auto[m] for m in md.marks)))
        for auto in _factor_automorphisms(t)
    }


def _dedup_key(md: MarkedDiagram) -> str:
    return min(_mark_images(md))


# --- enumeration --------------------------------------------------------------


def _residue_charts(t: SimpleType, k: int) -> dict[int, int]:
    """The projective-space charts {node: r} of the residue "t minus node k".

    These are the charts (``homog.component_charts``) of the components
    that ``dynkin.chain_components`` names.  For A, B, C and D they are
    read off (letter, n, k): the run 1..k-1 is an A_(k-1) chain, P^(k-1)
    at both ends, and the run beyond k is an A chain in A_n and holds the
    special end otherwise.
    """
    letter, n = t
    if letter not in "ABCD":
        return component_charts(chain_components(t, (k,)))
    if letter == "D" and k == n - 1:  # n continues the chain 1..n-2: A_(n-1)
        return {1: n, n: n}
    charts = {1: k, k - 1: k} if k > 1 else {}
    m = n - k  # the nodes beyond k
    if m == 0:
        return charts
    if letter == "A":  # an A_m chain
        charts.update({k + 1: m + 1, n: m + 1})
    elif letter == "C":  # A1, or C_m marked at its short end k+1 (C2 included)
        charts[k + 1] = 2 * m
    elif letter == "B":  # A1, or C2 with the short node n first; B_m has none
        if m <= 2:
            charts[n] = 2 * m
    elif m <= 3:  # D: the fork nodes as two A1, or D3 = A3 with ends n-1, n
        charts.update({n - 1: 2 * m - 2, n: 2 * m - 2})
    return charts


def _candidates(
    max_rank: int, r_filter: Optional[int] = None
) -> Iterator[tuple[MarkedDiagram, int]]:
    """Every single-factor roof of rank <= max_rank with its r (only r_filter,
    when given): the mark pairs whose two residue charts agree on r."""
    for t in simple_types(max_rank):
        nodes = range(1, t.rank + 1)
        charts = {
            k: {j: r for j, r in _residue_charts(t, k).items() if r_filter in (None, r)}
            for k in nodes
        }
        for i in nodes:
            for j, r in charts[i].items():
                if j > i and charts[j].get(i) == r:
                    md = MarkedDiagram(diagram_of((t,)), frozenset({i, j}))
                    _check_index(md, r)
                    yield md, r


def enumerate_roofs(
    max_total_rank: int,
    r_filter: Optional[int] = None,
) -> list[RoofRecord]:
    """Every roof whose canonical diagram has total rank <= max_total_rank.

    Single factors are a join on projective-space charts: each residue
    "type minus node k" is read once into its charts, and a mark pair
    i < j is a roof when the residue without i is P^{r-1} at j and the
    residue without j is P^{r-1} at i, for the same r (``_candidates``).
    With ``r_filter`` only the charts of that r enter the join.  Every
    single-factor hit is checked to have index vector (r, r), then
    deduplicated up to variety isomorphism and reported through its
    canonical family diagram.  Products with one mark per factor are
    P^{r-1} x P^{r-1}, read off the A_{r-1}xA_{r-1} row at every r whose
    row rank fits the bound; the tests check this against the full
    ``is_roof`` scan of the products.  The non-homogeneous G2^dagger
    record is appended whenever the fiber filter admits r = 3.
    """
    if max_total_rank < 1:
        raise ValueError("max_total_rank must be at least 1")
    instances: dict[str, tuple[Family, int]] = {}
    for md, r in _candidates(max_total_rank, r_filter):
        family = _family_of(md, r)
        key = _dedup_key(md) if family is Family.UNKNOWN else family_diagram(family, r)
        instances[key] = (family, r)
    product = FAMILY_SPECS[Family.A_PRODUCT]
    for r in filter(product.admits, range(max_total_rank + 2)):
        if product.rank(r) <= max_total_rank and r_filter in (None, r):
            instances[product.diagram(r)] = (Family.A_PRODUCT, r)
    ranked = []  # (total rank, record); G2^dagger has no diagram and ranks 0
    for diagram, (family, r) in instances.items():
        md = parse(diagram)
        ranked.append((md.diagram.total_rank, _record_for(md, family, r)))
    if r_filter in (None, G2_DAGGER_RECORD.r):
        ranked.append((0, G2_DAGGER_RECORD))
    ranked.sort(key=lambda item: (item[1].r, item[1].family, item[0], item[1].diagram))
    return [rec for _, rec in ranked]


def _record_for(md: MarkedDiagram, family: Family, r: int) -> RoofRecord:
    i, j = sorted(md.marks)
    v1 = gp_invariants(MarkedDiagram(md.diagram, frozenset({i})))
    v2 = gp_invariants(MarkedDiagram(md.diagram, frozenset({j})))
    if v1.dim != v2.dim:  # both contractions of a roof have equal fiber dimension
        raise RuntimeError(f"unequal base dimensions for {md}")
    return RoofRecord(
        family=family.label(r),
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


# The Ottaviani bundle E on Q^5: rank 3, c_1(E) = 2H (``chow.OTTAVIANI_CHERNS_H``).
_OTTAVIANI_RANK, _OTTAVIANI_C1 = 3, 2


def _computed_triple(family: Family, r: int) -> tuple[int, int, int]:
    if family is Family.G2_DAGGER:
        # The two contractions land on Q^5, computed here as B3:1.  The
        # anticanonical class of P(E(1)) is 3*xi + (index Q^5 - c_1(E(1)))*H
        # with c_1(E(1)) = c_1(E) + 3, so the fiber parameter is 3 exactly
        # when that H-coefficient vanishes; the tests check this against
        # the canonical class that chow computes in the bundle ring.
        q5 = gp_invariants(parse("B3:1"))
        if q5.index != _OTTAVIANI_C1 + _OTTAVIANI_RANK:
            return (q5.dim, -1, -1)
        return (q5.dim, q5.index, q5.index)
    rec = _record_for(parse(family_diagram(family, r)), family, r)
    return (rec.dim_V1, rec.index_V1, rec.index_V2)


def verify_paper_table(r_max: int) -> TableReport:
    """Recompute every family instance with r <= r_max and compare it to
    the bundled closed-form table.

    Mismatches become failing rows, never exceptions.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    rows = []
    for family, spec in FAMILY_SPECS.items():
        for r in filter(spec.admits, range(2, r_max + 1)):
            rows.append(
                TableRow(
                    family=spec.label(r),
                    r=r,
                    computed=_computed_triple(family, r),
                    expected=spec.triple(r),
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


# Each case bounds r per family by an interval (lo, hi); hi None is unbounded.
_CASE_SYMPLECTIC = {Family.A_MUKAI: (2, None)}
_CASE_CODIM_2 = {
    Family.A_PRODUCT: (2, 2),
    Family.A_MUKAI: (2, 2),
    Family.C_FLAG: (2, 2),
    Family.G2: (2, 2),
}
_CASE_LARGE_CODIM = {
    Family.A_PRODUCT: (2, None),
    Family.A_MUKAI: (2, None),
    Family.C_FLAG: (2, 2),
    Family.D_SPINOR: (4, 4),
    Family.G2_DAGGER: (3, 3),
}
_CASE_DIM_8 = {
    Family.A_PRODUCT: (2, 3),
    Family.A_MUKAI: (2, 3),
    Family.C_FLAG: (2, 2),
    Family.G2: (2, 2),
    Family.G2_DAGGER: (3, 3),
}

# dim X = dim M + dim W + 1, and the smallest roof W is P^1 x P^1
_BELOW_DIM_3 = (
    "no simple K-equivalent map exists below dimension 3; the smallest is "
    "the Atiyah flop: A1xA1 at r = 2, W = P^1xP^1, dim X = 3"
)


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


def classify_simple_kequiv(q: ClassificationQuery) -> ClassificationResult:
    """Apply the classification cases admitted by the query and intersect them.

    Cases: symplectic total space (Mukai flop only); codimension 2;
    codimension at least fiber dimension minus 2; ambient dimension at
    most 8.  Each case bounds r per family by an interval, and a family
    survives when it is in every applied case; its intervals and the
    codimension r, as (r, r), are intersected.  A single r gives the
    label at r (if the family admits it), a bounded range the generic
    label with "(r<=hi)", no bound the generic label; an empty
    intersection drops the family.  A query matching no case yields an
    explicit unavailable result, not an empty list.  So does an ambient
    dimension of 1 or 2, which no map reaches; its one applied rule says
    why.
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

    rules = tuple(name for name, _ in cases)
    entries = []
    for family, spec in FAMILY_SPECS.items():
        bounds = [table[family] for _, table in cases if family in table]
        if len(bounds) < len(cases):
            continue
        if q.r is not None:
            bounds.append((q.r, q.r))
        lo = max(b[0] for b in bounds)
        hi = min((b[1] for b in bounds if b[1] is not None), default=None)
        if hi is None:
            label = family.value
        elif lo < hi:
            label = f"{family.value} (r<={hi})"
        elif lo == hi and spec.admits(lo):
            label = spec.label(lo)
        else:
            continue
        entries.append(ClassEntry(family, label, rules))
    return ClassificationResult(True, tuple(entries), rules)
