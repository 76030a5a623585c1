"""Numerical invariants of rational homogeneous varieties.

A marked diagram (D, I) stands for G/P(I).  Its Picard number is #I.
Its dimension is #Phi+ - #Phi+_L, where L is the Levi diagram: D with
the marked nodes removed.  Both counts are sums over connected
components of the closed form ``dynkin.positive_root_count``.

The anticanonical class is sigma = 2rho - 2rho_L, reported through the
pairings <sigma, alpha_m^vee> at the marks m.  Since <2rho, alpha_m^vee>
is 2 and 2rho_L lives on the Levi components, whose 2rho is read off
the Bourbaki plates (``dynkin._two_rho``), the coefficient at m is

    2 - sum over Levi neighbours j of m of  a_mj * (2rho_L)_j

with a_mj = <alpha_j, alpha_m^vee>: -mult when m is the short end of
the bond, -1 otherwise.  No root system is ever built.

Everything is read per mark, so ``gp_invariants`` costs O(k log k) for k
marks, whatever the rank.  A mark has at most three neighbours
(``dynkin.neighbours``).  The Levi component that holds a neighbour, and
the neighbour's position in it, come from a bisect in the sorted marks
(``dynkin.component_at``, the one component reader, for every letter),
and one ``_two_rho`` entry at that position gives (2rho_L)_j.  Every
Levi component of a factor that holds a mark touches one of its marks,
so the components around the marks are all the Levi components that
differ from their factors: dim is the sum of ``positive_root_count``
over the factors that hold a mark, minus the sum over the Levi
components next to a mark.  A factor with no mark contributes a point
and drops out.
"""

from __future__ import annotations

from collections import namedtuple

from .dynkin import (
    MarkedDiagram, SimpleType, _two_rho, component_at, neighbours, positive_root_count,
)


class VarietyInvariants(namedtuple("VarietyInvariants", "dim picard index_vector")):
    """Dimension, Picard number and anticanonical coefficients of G/P(I).

    ``index_vector`` lists (mark, coefficient) pairs with marks ascending;
    each coefficient is the pairing of -K against the coroot at that mark.
    """

    __slots__ = ()

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
    marks = sorted(md.marks)
    dim, vec, offset = 0, [], 0
    for t in md.diagram.factors:
        local = [m - offset for m in marks if offset < m <= offset + t.rank]
        if local:
            skip = set(local)
            # the Levi components next to a mark, by smallest node
            levi: dict[int, SimpleType] = {}
            for m in local:
                c = 2
                for j, weight in neighbours(t, m):
                    if j not in skip:
                        shape, pos, first = component_at(t, local, j)
                        levi[first] = shape
                        c += weight * _two_rho(shape, pos)
                vec.append((m + offset, c))
            dim += positive_root_count(t) - sum(map(positive_root_count, levi.values()))
        offset += t.rank
    for _, c in vec:
        if c <= 0:  # -K is ample on G/P; a failure here is a programming error
            raise RuntimeError(f"non-positive index coefficient for {md}")
    return VarietyInvariants(dim=dim, picard=len(marks), index_vector=tuple(vec))

