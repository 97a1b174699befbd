"""One-relator orbicomplexes and maps of complexes into them.

An orbicomplex here is a graph together with a single cyclically immersed,
primitive relator loop w and a branch index n: the 2-cell is a disk whose
boundary wraps n times around w.  A complex mapping in has every 2-cell
boundary of length n|w| spelling the n-th power of w up to rotation and
orientation; boundary position p lies over side (p + offset) mod |w| of the
disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complexes import (Classification, Dart, Graph, MapKind, TwoComplex,
                        CellImage, CellMorphism, _check_link_injective,
                        _check_morphism, _check_side_injective, classify_map,
                        compose, dart_reverse, euler_characteristic,
                        find_free_faces_and_edges, non_tree_edge_count)
from .errors import NotImmersionError
from .words import Word, is_proper_power


@dataclass(frozen=True)
class OneRelatorOrbicomplex:
    gamma: Graph
    relator: tuple[Dart, ...]
    branch_index: int

    @property
    def relator_length(self) -> int:
        return len(self.relator)

    @property
    def boundary_length(self) -> int:
        return self.branch_index * len(self.relator)

    def relator_power_path(self) -> tuple[Dart, ...]:
        return self.relator * self.branch_index

    @cached_property
    def presentation_complex(self) -> TwoComplex:
        """The ordinary complex with one disk ``d0`` glued along the full
        relator power; maps into the orbicomplex are maps into it."""
        return TwoComplex(self.gamma, {"d0": self.relator_power_path()})

    def relator_word(self) -> Word:
        """The relator as a word; requires every traversed edge to be labeled."""
        letters = []
        for d in self.relator:
            letter = self.gamma.dart_label(d)
            if letter is None:
                raise ValueError(f"relator crosses unlabeled edge {d[0]}")
            letters.append(letter)
        return tuple(letters)


def build_orbicomplex(gamma: Graph, relator: tuple[Dart, ...],
                      branch_index: int) -> OneRelatorOrbicomplex:
    """Validated constructor: relator must be a closed, cyclically immersed,
    primitive loop and the branch index a positive integer."""
    if branch_index < 1:
        raise ValueError("branch index must be >= 1")
    if not relator:
        raise ValueError("relator must be nonempty")
    for d in relator:
        if d[0] not in gamma.edges:
            raise ValueError(f"relator references missing edge {d[0]}")
    m = len(relator)
    for i in range(m):
        if gamma.dart_terminus(relator[i]) != gamma.dart_origin(relator[(i + 1) % m]):
            raise ValueError("relator path is not closed")
        if relator[(i + 1) % m] == dart_reverse(relator[i]):
            raise ValueError("relator backtracks, so it is not cyclically immersed")
    if is_proper_power(relator)[0]:
        raise ValueError("relator is a proper power")
    return OneRelatorOrbicomplex(gamma, tuple(relator), branch_index)


@dataclass(frozen=True)
class OrbiMorphism:
    source: TwoComplex
    target: OneRelatorOrbicomplex
    vertex_map: dict[str, str]
    edge_map: dict[str, Dart]
    cell_align: dict[str, tuple[int, int]]

    @classmethod
    def by_labels(cls, y: TwoComplex, x: OneRelatorOrbicomplex) -> "OrbiMorphism":
        """The map onto a rose orbicomplex whose loops are named by their
        labels: every edge onto the loop of its label, every cell at offset 0."""
        vertex = next(iter(x.gamma.vertices))
        return cls(y, x,
                   {v: vertex for v in y.skeleton.vertices},
                   {e: (rec.label, 1) for e, rec in y.skeleton.edges.items()},
                   {cid: (0, 1) for cid in y.cells})

    def as_cell_morphism(self) -> CellMorphism:
        """The same map as a map of complexes into the target's presentation
        complex."""
        return CellMorphism(
            self.source, self.target.presentation_complex, self.vertex_map,
            self.edge_map,
            {cid: CellImage("d0", offset, orient)
             for cid, (offset, orient) in self.cell_align.items()})


def check_orbi_immersion(m: OrbiMorphism) -> Classification:
    """Classify a map into an orbicomplex as not_morphism, morphism or immersion.

    Immersion means the skeleton map is link-injective and, over every source
    edge, the incident cell sides land on pairwise distinct sides of the disk:
    boundary positions of the presentation complex modulo |w|.
    """
    cm = m.as_cell_morphism()
    witness = _check_morphism(cm)
    if witness is not None:
        return Classification(MapKind.NOT_MORPHISM, witness)
    witness = (_check_link_injective(cm)
               or _check_side_injective(cm, m.target.relator_length))
    if witness is not None:
        return Classification(MapKind.MORPHISM, witness)
    return Classification(MapKind.IMMERSION, None)


def degree(m) -> int:
    """Minimum number of preimages of a generic 2-cell point; immersions only.

    For an orbicomplex target every source cell covers the branched disk
    n-fold, so the degree is n times the source cell count.  For an ordinary
    2-complex target it is the minimum preimage count over target cells.
    """
    if isinstance(m, OrbiMorphism):
        cls = check_orbi_immersion(m)
    elif isinstance(m, CellMorphism):
        cls = classify_map(m)
    else:
        raise TypeError(f"degree undefined for {type(m).__name__}")
    if cls.kind < MapKind.IMMERSION:
        raise NotImmersionError(cls.witness or "map is not an immersion")
    if isinstance(m, OrbiMorphism):
        return m.target.branch_index * len(m.source.cells)
    counts = {cid: 0 for cid in m.target.cells}
    for cid in m.source.cells:
        counts[m.cell_map[cid].cell] += 1
    return min(counts.values(), default=0)


@dataclass(frozen=True)
class WCyclesAudit:
    chi1: int
    deg: int
    slack1: int
    chi2: int
    cells: int
    slack2: int
    passed: bool
    irreducible: bool
    free_face_count: int
    nontree_edges: int
    cell_bound: Fraction | None
    cell_bound_ok: bool | None


def wcycles_audit(m: OrbiMorphism) -> WCyclesAudit:
    """Audit the inequalities chi(Y^1) + deg <= 0 and chi(Y) + (n-1)|cells| <= 0.

    The map must be an immersion (otherwise the degree is undefined and the
    call is refused).  A reducible source is still audited but flagged, since
    the guarantee only covers irreducible complexes.
    """
    deg = degree(m)
    n = m.target.branch_index
    cells = len(m.source.cells)
    chi1 = euler_characteristic(m.source, dimension=1)
    chi2 = euler_characteristic(m.source, dimension=2)
    slack1 = chi1 + deg
    slack2 = chi2 + (n - 1) * cells
    faces, _ = find_free_faces_and_edges(m.source)
    g = non_tree_edge_count(m.source.skeleton)
    if n >= 2:
        bound = Fraction(g - 1, n - 1)
        bound_ok = Fraction(cells) <= bound
    else:
        bound, bound_ok = None, None
    return WCyclesAudit(
        chi1=chi1, deg=deg, slack1=slack1, chi2=chi2, cells=cells,
        slack2=slack2, passed=(slack1 <= 0 and slack2 <= 0),
        irreducible=not faces, free_face_count=len(faces),
        nontree_edges=g, cell_bound=bound, cell_bound_ok=bound_ok)


def presentation_complex(x: OneRelatorOrbicomplex) -> tuple[TwoComplex, OrbiMorphism]:
    """The ordinary complex with one disk glued along the full relator power,
    together with its natural map to the orbicomplex (offset 0, positive)."""
    cx = x.presentation_complex
    return cx, OrbiMorphism(cx, x, {v: v for v in x.gamma.vertices},
                            {e: (e, 1) for e in x.gamma.edges}, {"d0": (0, 1)})


def as_orbi(m: CellMorphism, into: OrbiMorphism) -> OrbiMorphism:
    """Compose a map of complexes with a map into an orbicomplex."""
    c = compose(into.as_cell_morphism(), m)
    return OrbiMorphism(c.source, into.target, c.vertex_map, c.edge_map,
                        {cid: (im.offset, im.orient)
                         for cid, im in c.cell_map.items()})
