"""Folding a map of 2-complexes into an immersion.

Folding factors any morphism A -> B as A -> C -> B where A -> C is
surjective on cells of every dimension and C -> B is an immersion.  The
1-skeleton is folded by repeatedly identifying two darts at one vertex with
the same image; 2-cells are then pushed forward and deduplicated whenever
they have the same image cell and the same unoriented attaching map.  The
factored immersion through any other immersion D -> B is unique, which
``factor_unique`` realizes and verifies.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (CellImage, CellMorphism, EdgeRec, Graph, MapKind,
                        TwoComplex, _check_morphism, _find, _flatten,
                        _immersion_fault, _restrict, compose, reverse_path)
from .errors import (FactorizationError, InvariantError, NotImmersionError,
                     NotMorphismError)


class FoldResult(NamedTuple):
    folded: TwoComplex
    projection: CellMorphism
    inclusion: CellMorphism

    @property
    def trace(self) -> tuple:
        """The folds, read off the projection, which the order of the folds
        does not change: ``("dart", (r, 1), (e, s))`` for each edge ``e``
        folded onto the dart ``(r, s)``, in edge id order, then the sorted
        ``("cell", kept, dropped)`` for each merged cell."""
        p = self.projection
        darts = [("dart", (r, 1), (e, s))
                 for e, (r, s) in sorted(p.edge_map.items()) if r != e]
        return tuple(darts + sorted(("cell", im.cell, c)
                                    for c, im in p.cell_map.items()
                                    if im.cell != c))


def _union_darts(parent: list[int], k1: int, k2: int) -> None:
    """Join the classes of darts ``k1`` and ``k2``, and those of their
    reverses, in the union-find ``parent``.  The larger root hangs under the
    smaller, so a class is rooted at its least dart and its reverse class at
    the reverse of that dart."""
    r1, r2 = _find(parent, k1), _find(parent, k2)
    if r1 == r2:
        return
    if r2 == r1 ^ 1:
        raise InvariantError("edge folded onto its own reverse")
    if r2 < r1:
        r1, r2 = r2, r1
    parent[r2] = r1
    parent[r2 ^ 1] = r1 ^ 1


def _canonical_cell_key(path, image: CellImage):
    """Deduplication key: target cell plus the attaching path rotated so the
    recorded offset is zero, with reversed cells replaced by their mirror so
    that orientation-reversed duplicates collapse too."""
    length = len(path)
    offset, orient = image.offset, image.orient
    if orient < 0:
        path = reverse_path(path)
        offset = (offset + 1) % length
    start = (-offset) % length
    return (image.cell, path[start:] + path[:start])


def fold(m: CellMorphism) -> FoldResult:
    """Fold ``m`` into projection ∘ inclusion with the inclusion an immersion.

    Stallings folding on a worklist.  Each quotient vertex keeps one dart
    per image in a dict, and a stack holds the pairs of darts that clash.
    Joining the classes of a pair meets the vertices their reverses start
    at: the smaller dict merges into the larger, and each image the two
    share pushes a new clash.  The result does not depend on the order of
    the folds, so ``FoldResult.trace`` is read off the projection.

    The loop runs on numbers.  Edge ``i`` is the ``i``-th edge id in sorted
    order, with darts ``2i`` (forward) and ``2i + 1`` (reverse); vertices
    are numbered in name order, so the smaller of two merged numbers is the
    smaller name, which survives.  The image of a dart is ``2j`` for
    ``(f, +1)`` and ``2j + 1`` for ``(f, -1)``, ``j`` counting target edges
    ``f`` as they are met.  Vertices and darts are two union-finds on
    ``complexes._find``; a dart class holds one dart of each of its edges
    and is rooted at its least dart, so edge ``i`` folds onto the edge of
    the root of ``2i``.
    """
    witness = _check_morphism(m)
    if witness is not None:
        raise NotMorphismError(witness)
    a = m.source
    skel = a.skeleton.edges
    edge_names = sorted(skel)
    vertex_names = sorted(a.skeleton.vertices)
    vertex_no = {v: i for i, v in enumerate(vertex_names)}
    vparent = list(range(len(vertex_names)))
    target_no: dict[str, int] = {}
    origin: list[int] = []      # origin[k]: vertex number where dart k starts
    darts_at: list[dict[int, int]] = [{} for _ in vertex_names]
    clashes: list[tuple[int, int]] = []
    for i, e in enumerate(edge_names):
        tail, head, _ = skel[e]
        f, g = m.edge_map[e]
        img = 2 * target_no.setdefault(f, len(target_no)) + (g < 0)
        origin += (vertex_no[tail], vertex_no[head])
        for k in (2 * i, 2 * i + 1):
            other = darts_at[origin[k]].setdefault(img ^ (k & 1), k)
            if other != k:
                clashes.append((other, k))

    dparent = list(range(2 * len(edge_names)))
    while clashes:
        k1, k2 = clashes.pop()
        t1 = _find(vparent, origin[k1 ^ 1])
        t2 = _find(vparent, origin[k2 ^ 1])
        _union_darts(dparent, k1, k2)
        if t1 == t2:
            continue
        if t2 < t1:
            t1, t2 = t2, t1
        vparent[t2] = t1    # the smaller name survives
        keep, lose = darts_at[t1], darts_at[t2]
        if len(keep) < len(lose):
            keep, lose = lose, keep
        for im, k in lose.items():
            other = keep.setdefault(im, k)
            if other != k:
                clashes.append((other, k))
        darts_at[t1] = keep

    edge_map = {e: (edge_names[r >> 1], 1 - 2 * (r & 1))
                for e, r in zip(edge_names, _flatten(dparent)[::2])}
    roots = [e for e, (r, _) in edge_map.items() if r == e]
    vroot = _flatten(vparent)
    vertex_map = {v: vertex_names[vroot[vertex_no[v]]]
                  for v in a.skeleton.vertices}
    edges = {}
    for r in roots:
        rec = skel[r]
        tail, head = vertex_map[rec.tail], vertex_map[rec.head]
        edges[r] = (rec if tail == rec.tail and head == rec.head
                    else EdgeRec(tail, head, rec.label))
    vertices = frozenset(vertex_map.values())
    base = vertex_map[a.base_vertex] if a.base_vertex is not None else None

    def pushed_path(path):
        out = []
        for e, s in path:
            root, sign = edge_map[e]
            out.append((root, s * sign))
        return tuple(out)

    # one pass in name order: each class of cells keeps its least member
    kept_cells: dict[str, tuple] = {}
    proj_cells: dict[str, CellImage] = {}
    rep_of_key: dict = {}
    for cid in sorted(a.cells):
        path = pushed_path(a.cells[cid])
        im_c = m.cell_map[cid]
        rep = rep_of_key.setdefault(_canonical_cell_key(path, im_c), cid)
        if rep == cid:
            kept_cells[cid] = path
        im_k = m.cell_map[rep]
        proj_cells[cid] = CellImage(
            rep, (im_k.orient * (im_c.offset - im_k.offset)) % len(path),
            im_c.orient * im_k.orient)
    folded = TwoComplex(Graph(vertices, edges), kept_cells, base)
    projection = CellMorphism(
        a, folded, vertex_map, {e: edge_map[e] for e in skel}, proj_cells)
    inclusion = _restrict(m, folded)
    witness = _check_morphism(projection)
    if witness is not None:
        raise InvariantError(f"fold projection is not a morphism: {witness}")
    if compose(inclusion, projection) != m:
        raise InvariantError("fold composite drifted")
    cls = _immersion_fault(inclusion)
    if cls is not None:
        raise NotImmersionError(f"folded map failed its immersion check: {cls.witness}")
    return FoldResult(folded, projection, inclusion)


def _lifts(preimages, kind: str) -> dict:
    """Each part of the folded complex to the one lift of its preimages;
    ``preimages`` holds (part, preimage, lift) triples, met in sorted order."""
    out = {}
    for part, _, lift in sorted(preimages):
        first = out.setdefault(part, lift)
        if first != lift:
            raise FactorizationError(
                f"{kind} {part} lifts ambiguously: {first} vs {lift}")
    return out


def factor_unique(folded: FoldResult, through: CellMorphism,
                  lift_of: CellMorphism) -> CellMorphism:
    """The unique immersion C -> D with through ∘ it = inclusion and
    it ∘ projection = lift_of; every choice is cross-checked and any clash
    reported, since a clash means the inputs do not actually commute."""
    cls = _immersion_fault(through)
    if cls is not None:
        raise NotImmersionError(f"factorization target is not immersed: {cls.witness}")
    if lift_of.source != folded.projection.source:
        raise FactorizationError("lift source differs from the folded map's source")
    if lift_of.target != through.source:
        raise FactorizationError("lift target differs from the immersion's source")
    if through.target != folded.inclusion.target:
        raise FactorizationError("immersion target differs from the fold target")
    witness = _check_morphism(lift_of)
    if witness is not None:
        raise FactorizationError(f"lift is not a morphism: {witness}")
    original = compose(folded.inclusion, folded.projection)
    if compose(through, lift_of) != original:
        raise FactorizationError("through ∘ lift does not equal the folded map")

    a = lift_of.source
    proj = folded.projection

    def cell_lift(cid):
        down, x = proj.cell_map[cid], lift_of.cell_map[cid]
        orient = x.orient * down.orient
        length = len(through.source.cells[x.cell])
        return CellImage(x.cell, (x.offset - orient * down.offset) % length,
                         orient)

    vmap = _lifts(((proj.vertex_map[v], v, lift_of.vertex_map[v])
                   for v in a.skeleton.vertices), "vertex")
    emap = _lifts(((proj.edge_map[e][0], e,
                    lift_of.dart_image((e, proj.edge_map[e][1])))
                   for e in a.skeleton.edges), "edge")
    cmap = _lifts(((proj.cell_map[cid].cell, cid, cell_lift(cid))
                   for cid in a.cells), "cell")
    factor = CellMorphism(folded.folded, through.source, vmap, emap, cmap)
    cls = _immersion_fault(factor)
    if cls is not None and cls.kind == MapKind.NOT_MORPHISM:
        raise FactorizationError(f"factored map is not a morphism: {cls.witness}")
    if compose(through, factor) != folded.inclusion:
        raise FactorizationError("factored map does not recover the folded immersion")
    if compose(factor, proj) != lift_of:
        raise FactorizationError("factored map does not recover the lift")
    if cls is not None:
        raise NotImmersionError(f"factored map is not an immersion: {cls.witness}")
    return factor
