"""Numerical invariants of rational homogeneous varieties.

A marked diagram (D, I) stands for G/P(I).  Its Picard number is #I.
Its dimension is #Phi+ - #Phi+_L, where L is the Levi diagram: D with
the marked nodes removed.  Both counts are sums over connected
components of the closed form ``positive_root_count``.

The anticanonical class is sigma = 2rho - 2rho_L, reported through the
pairings <sigma, alpha_m^vee> at the marks m.  Since <2rho, alpha_m^vee>
is 2 and 2rho_L lives on the Levi components, whose 2rho is read off
the Bourbaki plates (``_two_rho``), the coefficient at m is

    2 - sum over Levi neighbours j of m of  a_mj * (2rho_L)_j

with a_mj = <alpha_j, alpha_m^vee>: -mult when m is the short end of
the bond, -1 otherwise.  No root system is ever built.

Residual diagrams (after node removal) are handled the same way, one
component at a time, since an induced subdiagram's root system is the
product of its components' systems.  Unmarked components contribute a
point and drop out of all fiber analysis.  The Levi components come
from one ``classify_components`` call with every mark removed at once,
for full and residual diagrams alike, so no Levi diagram is cut.  It
reads a product factor by factor, each factor in closed form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .dynkin import MarkedDiagram, classify_components, remove_node
from .root_system import SimpleType, _two_rho, positive_root_count

if TYPE_CHECKING:  # annotations only: homog never builds a Diagram itself
    from .dynkin import ComponentShape, Diagram


class VarietyInvariants(NamedTuple):
    """Dimension, Picard number and anticanonical coefficients of G/P(I).

    ``index_vector`` lists (mark, coefficient) pairs with marks ascending;
    each coefficient is the pairing of -K against the coroot at that mark.
    """

    dim: int
    picard: int
    index_vector: tuple[tuple[int, int], ...]

    @property
    def index(self) -> int:
        """The Fano index; defined for Picard rank one."""
        if self.picard != 1:
            raise ValueError(
                "the scalar index is reserved for Picard rank one; "
                "use index_vector"
            )
        return self.index_vector[0][1]

    def coefficient(self, mark: int) -> int:
        for m, c in self.index_vector:
            if m == mark:
                return c
        raise KeyError(f"{mark} is not a mark")

    def coefficients(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.index_vector)


def gp_invariants(md: MarkedDiagram) -> VarietyInvariants:
    """Compute dim, Picard number and the anticanonical coefficient vector."""
    d = md.diagram
    marks = sorted(md.marks)
    levi_shapes = classify_components(d, marks)
    dim = sum(positive_root_count(s.type) for s in classify_components(d))
    dim -= sum(positive_root_count(s.type) for s in levi_shapes)
    levi_two_rho: dict[int, int] = {}
    for shape in levi_shapes:
        levi_two_rho.update(zip(shape.embedding, _two_rho(shape.type)))
    coeff = {m: 2 for m in marks}
    for e in d.edges:
        for m, j in ((e.a, e.b), (e.b, e.a)):
            if m in coeff and j in levi_two_rho:
                a_mj = -e.mult if e.target == m else -1
                coeff[m] -= a_mj * levi_two_rho[j]
    vec = tuple((m, coeff[m]) for m in marks)
    for _, c in vec:
        if c <= 0:  # -K is ample on G/P; a failure here is a programming error
            raise RuntimeError(f"non-positive index coefficient for {md}")
    return VarietyInvariants(dim=dim, picard=len(marks), index_vector=vec)


def _pspace_r(t: SimpleType, pos: int) -> int | None:
    """r when type t marked at Bourbaki position pos alone is P^{r-1}.

    The two shapes are an A_m chain marked at either end (P^m) and a C_m
    chain marked at the short end, the node away from the arrow source
    (P^{2m-1}).
    """
    if t.letter == "A" and pos in (1, t.rank):
        return t.rank + 1
    if t.letter == "C" and pos == 1:
        return 2 * t.rank
    return None


def is_projective_space(md: MarkedDiagram) -> int | None:
    """Return r if the marked variety is the projective space P^{r-1}.

    The diagram must carry exactly one mark; unmarked components are
    points and are ignored.  The answer is the mark's entry in
    ``projective_space_charts``.
    """
    if len(md.marks) != 1:
        raise ValueError("projective-space detection expects exactly one mark")
    (mark,) = md.marks
    return projective_space_charts(md.diagram).get(mark)


def projective_space_charts(d: Diagram) -> dict[int, int]:
    """Every node m at which d marked at m alone is P^{r-1}, as {m: r}.

    One classification of d answers ``is_projective_space`` for all of
    its nodes.
    """
    return component_charts(classify_components(d))


def component_charts(shapes: Iterable[ComponentShape]) -> dict[int, int]:
    """The projective-space charts {m: r} of a diagram given by its components.

    The recognized shapes are those of ``_pspace_r``; only chain ends can
    qualify, so each component contributes at most two charts.
    """
    charts: dict[int, int] = {}
    for shape in shapes:
        for pos in (1, shape.type.rank):
            r = _pspace_r(shape.type, pos)
            if r is not None:
                charts[shape.embedding[pos - 1]] = r
    return charts


def fibration_fiber(md: MarkedDiagram, keep: int) -> MarkedDiagram:
    """The fiber of G/P({i,j}) -> G/P({keep}): the diagram minus ``keep``,
    marked at the other node."""
    if len(md.marks) != 2:
        raise ValueError("fibration analysis expects exactly two marks")
    if keep not in md.marks:
        raise ValueError(f"{keep} is not a mark of {md}")
    (other,) = md.marks - {keep}
    return MarkedDiagram(remove_node(md.diagram, keep), frozenset({other}))
