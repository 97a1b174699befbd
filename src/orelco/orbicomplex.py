"""One-relator orbicomplexes and maps of complexes into them.

An orbicomplex here is a rose, one vertex with one loop per generator named
by its label, together with a cyclically reduced, primitive relator word w
and a branch index n: the 2-cell is a disk whose boundary wraps n times
around w.  As the loops are named by their labels, the relator's path in the
rose is the relator word itself.  A map in is a ``CellMorphism`` into the
presentation complex, every 2-cell onto its disk ``d0``: its boundary spells
w^n up to rotation and orientation, and boundary position p lies over side
(p + offset) mod |w| of the disk.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Container, NamedTuple

from .complexes import (Classification, Dart, Graph, MapKind, TwoComplex,
                        CellImage, CellMorphism, _immersion_fault,
                        connected_components, euler_characteristic,
                        find_free_faces_and_edges)
from .errors import NotImmersionError
from .words import (Word, _check_letters, inverse_word, is_cyclically_reduced,
                    is_proper_power)

# the text name of the orbicomplex's cell in stacking and orbi map files
ORBI_CIRCLE = "w"


class _OrbicomplexFields(NamedTuple):
    gamma: Graph
    relator: tuple[Dart, ...]
    branch_index: int


class OneRelatorOrbicomplex(_OrbicomplexFields):
    def relator_power_path(self) -> tuple[Dart, ...]:
        return self.relator * self.branch_index

    @cached_property
    def presentation_complex(self) -> TwoComplex:
        """The ordinary complex with one disk ``d0`` glued along the full
        relator power; maps into the orbicomplex are maps into it."""
        return TwoComplex(self.gamma, {"d0": self.relator_power_path()})

    @cached_property
    def relator_circle(self) -> TwoComplex:
        """One cell ``w`` that reads the relator once: the domain of a
        stacking over the orbicomplex."""
        return TwoComplex(self.gamma, {ORBI_CIRCLE: self.relator})

    @cached_property
    def _rotations(self) -> dict[tuple[int, int], tuple[Word, Word]]:
        """Each rotation of w^n and of its inverse, with its own inverse, keyed
        by ``(rotation, sign)`` in table order, rotation 0 up and sign +1
        first: the relators of Newman's spelling theorem."""
        power = self.relator_power_path()
        words = ((1, power), (-1, inverse_word(power)))
        table = {}
        for r in range(len(power)):
            for sign, src in words:
                rot = src[r:] + src[:r]
                table[r, sign] = rot, inverse_word(rot)
        return table

    @cached_property
    def _dehn_index(self) -> tuple[int, dict[Word, tuple]]:
        """``dehn_solve``'s threshold floor(n|w|/2) + 1, and each rotation by its
        first ``threshold`` letters as ``(rotation, sign, rot, inverse of
        rot)``; for n >= 2 a key, longer than the period |w|, names one
        rotation word, and the first in table order that spells it is kept."""
        threshold = len(self.relator) * self.branch_index // 2 + 1
        index: dict[Word, tuple] = {}
        for (r, sign), (rot, inv) in self._rotations.items():
            index.setdefault(rot[:threshold], (r, sign, rot, inv))
        return threshold, index

    @cached_property
    def _rose_symbols(self) -> list[str]:
        """The loop names of the rose, in sorted order; what a finite
        quotient must assign permutations to."""
        return sorted(self.gamma.edges)


def build_orbicomplex(gamma: Graph, relator: tuple[Dart, ...],
                      branch_index: int) -> OneRelatorOrbicomplex:
    """Validated constructor: the graph must be a rose whose loops are named
    by their labels, the relator a cyclically reduced, primitive word over
    those loops and the branch index a positive integer."""
    vertex = min(gamma.vertices, default=None)
    if len(gamma.vertices) != 1 or any(
            rec != (vertex, vertex, e) for e, rec in gamma.edges.items()):
        raise ValueError("the graph must be a rose: one vertex, "
                         "each loop named by its label")
    _check_relator(relator, gamma.edges, branch_index)
    return OneRelatorOrbicomplex(gamma, tuple(relator), branch_index)


def _check_relator(relator: tuple[Dart, ...], symbols: Container[str],
                   branch_index: int) -> None:
    """Refuse a branch index below 1, or a relator that is not a cyclically
    reduced, primitive word over the loops ``symbols``."""
    if branch_index < 1:
        raise ValueError("branch index must be >= 1")
    if not relator:
        raise ValueError("relator must be nonempty")
    _check_letters(relator, symbols)
    if not is_cyclically_reduced(relator):
        raise ValueError("relator backtracks, so it is not cyclically immersed")
    if is_proper_power(relator)[0]:
        raise ValueError("relator is a proper power")


def by_labels(y: TwoComplex, x: OneRelatorOrbicomplex) -> CellMorphism:
    """The map into ``x.presentation_complex`` by labels: every edge onto
    the loop of its label, every cell onto the disk ``d0`` at offset 0."""
    vertex = next(iter(x.gamma.vertices))
    return CellMorphism(
        y, x.presentation_complex, dict.fromkeys(y.skeleton.vertices, vertex),
        {e: (rec.label, 1) for e, rec in y.skeleton.edges.items()},
        dict.fromkeys(y.cells, CellImage("d0", 0, 1)))


_decompose = lru_cache(maxsize=64)(is_proper_power)   # keyed by the cell path


def _disk_shape(target: TwoComplex) -> tuple[int, int]:
    """``(|w|, n)`` read off a presentation complex: its one cell is w^n
    with w primitive, as ``build_orbicomplex`` refuses powers."""
    if len(target.cells) != 1:
        raise ValueError("the target must be a presentation complex, with "
                         f"one cell, not {len(target.cells)}")
    _, root, n = _decompose(*target.cells.values())
    return len(root), n


def check_orbi_immersion(m: CellMorphism) -> Classification:
    """Classify a map into an orbicomplex as not_morphism, morphism or immersion.

    Immersion means the skeleton map is link-injective and, over every source
    edge, the incident cell sides land on pairwise distinct sides of the disk:
    boundary positions of the presentation complex modulo |w|.
    """
    cls = _immersion_fault(m, _disk_shape(m.target)[0])
    return Classification(MapKind.IMMERSION, None) if cls is None else cls


def degree(m: CellMorphism) -> int:
    """Minimum number of preimages of a generic 2-cell point; immersions only.

    Every source cell covers the branched disk n-fold, so the degree is n
    times the source cell count.
    """
    cls = check_orbi_immersion(m)
    if cls.kind < MapKind.IMMERSION:
        raise NotImmersionError(cls.witness or "map is not an immersion")
    return _disk_shape(m.target)[1] * len(m.source.cells)


class WCyclesAudit(NamedTuple):
    chi1: int
    deg: int
    slack1: int
    chi2: int
    cells: int
    slack2: int
    passed: bool
    in_scope: bool


def wcycles_audit(m: CellMorphism) -> WCyclesAudit:
    """Audit the inequalities chi(Y^1) + deg <= 0 and chi(Y) + (n-1)|cells| <= 0.

    The map must be an immersion (otherwise the degree is undefined and the
    call is refused).  The inequality is claimed only for a connected source
    with no free faces whose 1-skeleton is not a tree (chi(Y^1) <= 0);
    ``in_scope`` says whether this source is one.

    The two inequalities are one: chi(Y) is chi(Y^1) + |cells| and deg is
    n|cells|, so slack2 always equals slack1, and ``passed`` reads slack1
    alone.  Both are still reported, as the output format has both columns.
    A pass implies the cell bound cells <= (g-1)/(n-1), g the rank of Y^1:
    g >= 1 - chi(Y^1), so n|cells| <= -chi(Y^1) <= g - 1.
    """
    deg = degree(m)
    cells = len(m.source.cells)
    chi1 = euler_characteristic(m.source, dimension=1)
    chi2 = euler_characteristic(m.source, dimension=2)
    slack1 = chi1 + deg
    slack2 = chi2 + deg - cells     # chi2 + (n - 1)|cells|
    in_scope = (chi1 <= 0 and not find_free_faces_and_edges(m.source)[0]
                and len(connected_components(m.source.skeleton)) == 1)
    return WCyclesAudit(
        chi1=chi1, deg=deg, slack1=slack1, chi2=chi2, cells=cells,
        slack2=slack2, passed=slack1 <= 0, in_scope=in_scope)


def presentation_complex(x: OneRelatorOrbicomplex) -> tuple[TwoComplex, CellMorphism]:
    """The ordinary complex with one disk glued along the full relator power,
    together with its map to the orbicomplex by labels."""
    cx = x.presentation_complex
    return cx, by_labels(cx, x)
