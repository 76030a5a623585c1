"""Classification of simple K-equivalent maps: the roof rows cut by the query.

A simple K-equivalent map X_1 --> X_2 blows up centers Y_i of
codimension r, each a V_i-bundle over one base M, to one exceptional
divisor, a bundle of roofs W over M; so dim X = dim M + dim W + 1, and
the map is named by a roof family and r.  Each row of
``roofs.FAMILY_SPECS`` keeps the r its ``fibers`` list, cut only by what
the query states and the row's closed-form triple computes; no case
reads a diagram.  A codimension r keeps the rows that admit r, and a
fiber gap g keeps on each row the one r with dim V_1 = g, since the
fibers of Y_i -> M are the roof's V_i.  The four cases of the
classification are rule names, each applied under its condition:

* symplectic ambient variety: the Mukai flop alone (``_SYMPLECTIC``);
* codimension 2: the rows that admit r = 2, A1xA1, A2^M, C2 and G2;
* codimension r at least the fiber gap minus 2: what the gap leaves,
  as r >= dim V_1 - 2 then holds;
* ambient dimension d <= 8: at most r = 3 on both A rows
  (``_DIM_8_TOP``); the cut by d drops A_{2r-2}^G, D_r and F4.

Under any case an ambient dimension d keeps on each row the r with
dim W + 1 = dim V_1 + r <= d.

That each case lists every map is the paper's theorem, and the cuts
only read the lists off the known rows; ``_SYMPLECTIC`` and
``_DIM_8_TOP`` are the two theorem facts no row computes.  The second
holds an open question: dim W + 1 <= 8 admits r = 4 on both A rows
(A3xA3 has dim W = 6, A4^M has dim W = 7), so r <= 3 either encodes a
hypothesis of the dimension-8 theorem or is off by one; the paper text
is needed to settle it, so the cap stays as pinned.

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


# The two theorem facts that the rows' arithmetic does not give.
_SYMPLECTIC = Family.A_MUKAI
_DIM_8_TOP = {Family.A_PRODUCT: 3, Family.A_MUKAI: 3}


# dim X = dim M + dim W + 1, and the smallest roof W is P^1 x P^1
_BELOW_DIM_3 = (
    "no simple K-equivalent map exists below dimension 3; the smallest is "
    "the Atiyah flop: A1xA1 at r = 2, W = P^1xP^1, dim X = 3"
)


ClassEntry = namedtuple("ClassEntry", "family label")


class ClassificationResult(namedtuple("ClassificationResult", "available entries applied_rules")):
    __slots__ = ()

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


def classify_simple_kequiv(q: ClassificationQuery) -> ClassificationResult:
    """Apply the classification cases admitted by the query and cut each
    family row by them.

    Each row's r runs from its first fiber up, or is the codimension r
    alone when the row admits it.  Given d, its top falls to the largest
    r with dim W + 1 <= d, and at d <= 8 to 3 on both A rows; a fiber
    gap g leaves the one r with dim V_1 = g.  Each cut is one
    ``FamilySpec.top_fiber`` bisection, as dim V_1 grows with r.  A single
    r gives the label at r, a bounded range the generic label with
    "(r<=hi)", no bound the generic label; an empty range drops the
    family.  A query matching no case yields an explicit unavailable
    result, not an empty list.  So does an ambient dimension of 1 or 2,
    which no map reaches; its one applied rule says why.  A fiber gap
    below 1 is refused: the fibers of Y_i -> M are the roof's V_i, of
    dimension at least 1 (P^1 for the Atiyah flop).
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

    large_codim = q.r is not None and q.fiber_gap is not None and q.r >= q.fiber_gap - 2
    dim_8 = q.dim_x is not None and q.dim_x <= 8
    cases = (
        ("symplectic ambient variety", q.symplectic),
        ("codimension 2", q.r == 2),
        ("codimension >= fiber dimension - 2", large_codim),
        ("ambient dimension <= 8", dim_8),
    )
    rules = tuple(name for name, applies in cases if applies)
    if not rules:
        return ClassificationResult(False, (), ())

    entries = []
    for family, spec in FAMILY_SPECS.items():
        if q.symplectic and family is not _SYMPLECTIC:
            continue
        if q.r is None:
            lo, _, hi = spec.fibers
        elif spec.admits(q.r):
            lo = hi = q.r
        else:
            continue
        if q.dim_x is not None:
            # dim X = dim M + dim W + 1, and dim W = dim V_1 + r - 1 >= r
            cap = _DIM_8_TOP.get(family, q.dim_x) if dim_8 else q.dim_x
            top = min(hi or q.dim_x, cap)
            hi = spec.top_fiber(lambda r: spec.triple(r)[0] + r <= q.dim_x, range(lo, top + 1))
            if hi is None:
                continue
        if q.fiber_gap is not None:
            # dim V_1 >= r - 1 on every row, so an open range ends by g + 1
            g = q.fiber_gap
            hi = spec.top_fiber(lambda r: spec.triple(r)[0] <= g, range(lo, (hi or g + 1) + 1))
            if hi is None or spec.triple(hi)[0] != g:
                continue
            lo = hi
        if hi is None:
            label = family.value
        elif lo < hi:
            label = f"{family.value} (r<={hi})"
        else:
            label = spec.label(lo)
        entries.append(ClassEntry(family, label))
    return ClassificationResult(True, tuple(entries), rules)
