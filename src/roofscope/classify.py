"""Classification of simple K-equivalent maps: theorem tables over the roof rows.

A simple K-equivalent map X_1 --> X_2 blows up centers Y_i of
codimension r, each a V_i-bundle over one base M, to one exceptional
divisor, a bundle of roofs W over M; so dim X = dim M + dim W + 1, and
the map is named by a roof family and r.  Each case of the
classification is a theorem table that bounds r per family row of
``roofs.FAMILY_SPECS`` by an interval (lo, hi), hi None when unbounded;
no case reads a diagram.  The four cases:

* symplectic ambient variety (``_CASE_SYMPLECTIC``): the Mukai flop
  alone, A_r^M at every r;
* codimension 2 (``_CASE_CODIM_2``): A1xA1, A2^M, C2 and G2;
* codimension at least the fiber dimension minus 2
  (``_CASE_LARGE_CODIM``): both A families at every r, C2, D4 and
  G2^dagger;
* ambient dimension d <= 8 (``_CASE_DIM_8``), cut to the r with
  dim W + 1 <= d by ``_dim_bound``.

One question is open in ``_CASE_DIM_8``: it bounds A_{r-1}xA_{r-1} and
A_r^M by r <= 3, but dim W + 1 <= 8 admits r = 4 for both (A3xA3 has
dim W = 6, A4^M has dim W = 7).  Either ``(r<=3)`` encodes a hypothesis
of the dimension-8 theorem or the table is off by one; the paper text is
needed to settle it, so the table stays as pinned.

``roofs`` and ``verify-table`` never load this module; ``classify`` does.
"""

from __future__ import annotations

from collections import namedtuple

from .roofs import FAMILY_SPECS, Family


# --- classification of simple K-equivalent maps --------------------------------


class ClassificationQuery(
    namedtuple(
        "ClassificationQuery", "dim_x r fiber_gap symplectic", defaults=(None, None, None, False)
    )
):
    """Constraints on a simple K-equivalent map.

    ``r`` is the codimension of the two centers, ``fiber_gap`` is
    dim Y_i - dim M (the dimension of the contraction fibers), and
    ``dim_x`` bounds the ambient dimension.
    """

    __slots__ = ()


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


def _dim_bound(d: int) -> dict[Family, tuple[int, int]]:
    """``_CASE_DIM_8`` cut to the r with dim W(f, r) + 1 <= d, since
    dim X = dim M + dim W + 1, and dim W = dim V_1 + r - 1 grows with r."""
    table = {}
    for family, (lo, hi) in _CASE_DIM_8.items():
        triple = FAMILY_SPECS[family].triple
        while hi >= lo and triple(hi)[0] + hi > d:
            hi -= 1
        table[family] = (lo, hi)
    return table


# dim X = dim M + dim W + 1, and the smallest roof W is P^1 x P^1
_BELOW_DIM_3 = (
    "no simple K-equivalent map exists below dimension 3; the smallest is "
    "the Atiyah flop: A1xA1 at r = 2, W = P^1xP^1, dim X = 3"
)


ClassEntry = namedtuple("ClassEntry", "family label rules")


class ClassificationResult(namedtuple("ClassificationResult", "available entries applied_rules")):
    __slots__ = ()

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


def classify_simple_kequiv(q: ClassificationQuery) -> ClassificationResult:
    """Apply the classification cases admitted by the query and intersect them.

    Cases: symplectic total space (Mukai flop only); codimension 2;
    codimension at least fiber dimension minus 2; ambient dimension d at
    most 8, whose intervals are cut to dim W + 1 <= d (``_dim_bound``).
    Each case bounds r per family by an interval, and a family
    survives when it is in every applied case; its intervals and the
    codimension r, as (r, r), are intersected.  A single r gives the
    label at r (if the family admits it), a bounded range the generic
    label with "(r<=hi)", no bound the generic label; an empty
    intersection drops the family.  A query matching no case yields an
    explicit unavailable result, not an empty list.  So does an ambient
    dimension of 1 or 2, which no map reaches; its one applied rule says
    why.  A fiber gap below 1 is refused: the fibers of Y_i -> M are the
    roof's V_i, of dimension at least 1 (P^1 for the Atiyah flop).
    """
    if not (q.symplectic or q.dim_x is not None or q.r is not None or q.fiber_gap is not None):
        raise ValueError("at least one constraint is required")
    if q.r is not None and q.r < 2:
        raise ValueError("the codimension of a simple K-equivalent map is at least 2")
    if q.dim_x is not None and q.dim_x < 1:
        raise ValueError(f"the ambient dimension must be positive, got {q.dim_x}")
    if q.fiber_gap is not None and q.fiber_gap < 1:
        raise ValueError(
            f"the fiber gap dim Y_i - dim M of a simple K-equivalent map is at least 1, "
            f"got {q.fiber_gap}"
        )
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
        cases.append(("ambient dimension <= 8", _dim_bound(q.dim_x)))
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
