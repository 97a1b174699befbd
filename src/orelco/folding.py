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

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass

from .complexes import (CellImage, CellMorphism, Dart, EdgeRec, Graph,
                        TwoComplex, _check_morphism, _composite_equals,
                        _immersion_fault, compose, reverse_path)
from .errors import (FactorizationError, InvariantError, NotImmersionError,
                     NotMorphismError)

TraceEntry = tuple  # ("dart", dart, dart) or ("cell", kept_id, dropped_id)


@dataclass(frozen=True)
class FoldResult:
    folded: TwoComplex
    projection: CellMorphism
    inclusion: CellMorphism
    trace: tuple[TraceEntry, ...]


class _SignedEdgeClasses:
    """Union-find on edges carrying the orientation relating each edge's
    forward dart to the forward dart of its class representative."""

    def __init__(self, edges):
        self.parent: dict[str, tuple[str, int]] = {e: (e, 1) for e in edges}

    def find(self, e: str) -> tuple[str, int]:
        root, sign = self.parent[e]
        if root != e:
            root2, sign2 = self.find(root)
            root, sign = root2, sign * sign2
            self.parent[e] = (root, sign)
        return root, sign

    def union_darts(self, e1: str, s1: int, e2: str, s2: int) -> None:
        r1, g1 = self.find(e1)
        r2, g2 = self.find(e2)
        rel = s1 * g1 * s2 * g2
        if r1 == r2:
            # identifications are driven by equal images, which makes every
            # relation cycle orientation-consistent
            if rel != 1:
                raise InvariantError("edge folded onto its own reverse")
            return
        if r1 < r2:
            self.parent[r2] = (r1, rel)
        else:
            self.parent[r1] = (r2, rel)


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

    Stallings folding on a worklist.  The live darts at each quotient vertex
    sit in sorted buckets by image, and a heap holds the least dart of every
    bucket with two or more darts.  Each step identifies the two least darts
    of the bucket whose least dart is least overall, so the trace is
    deterministic; the folded complex is independent of the order anyway.
    """
    witness = _check_morphism(m)
    if witness is not None:
        raise NotMorphismError(witness)
    a = m.source
    skel = a.skeleton.edges
    vparent = {v: v for v in a.skeleton.vertices}

    def vfind(v: str) -> str:
        while vparent[v] != v:
            vparent[v] = vparent[vparent[v]]
            v = vparent[v]
        return v

    euf = _SignedEdgeClasses(skel)
    trace: list[TraceEntry] = []

    # A dart is handled as its sort key (edge, 0 forward / 1 reverse), so
    # EdgeRec field ``bit`` is its origin and ``1 - bit`` its terminus.
    buckets: dict[str, dict[Dart, list[tuple[str, int]]]] = {
        v: {} for v in vparent}

    def bucket_of(k: tuple[str, int]):
        e, bit = k
        f, g = m.edge_map[e]
        return buckets[vfind(skel[e][bit])], (f, -g if bit else g)

    for e in sorted(skel):
        for k in ((e, 0), (e, 1)):
            at, img = bucket_of(k)
            at.setdefault(img, []).append(k)
    heap = [b[0] for at in buckets.values() for b in at.values() if len(b) > 1]
    heapq.heapify(heap)
    while heap:
        k1 = heapq.heappop(heap)
        at, img = bucket_of(k1)
        b = at.get(img)
        if b is None or len(b) < 2 or b[0] != k1:
            continue    # stale: the bucket changed after this entry
        k2 = b.pop(1)
        if len(b) > 1:
            heapq.heappush(heap, k1)
        (e1, bit1), (e2, bit2) = k1, k2
        d1, d2 = (e1, 1 - 2 * bit1), (e2, 1 - 2 * bit2)
        trace.append(("dart", d1, d2))
        # k1 < k2 in different edges, so e1 < e2 and e1 stays the root.
        # Both darts of e2 leave their buckets.  The reverse of e2 shares
        # its bucket with the smaller reverse of e1, or the two buckets
        # merge below, so no entry is lost.
        back = (e2, 1 - bit2)
        at2, img2 = bucket_of(back)
        rb = at2[img2]
        del rb[bisect_left(rb, back)]
        if not rb:
            del at2[img2]
        t1, t2 = vfind(skel[e1][1 - bit1]), vfind(skel[e2][1 - bit2])
        euf.union_darts(e1, d1[1], e2, d2[1])
        if t1 == t2:
            continue
        if t2 < t1:
            t1, t2 = t2, t1
        vparent[t2] = t1    # the smaller name survives
        keep, lose = buckets.pop(t1), buckets.pop(t2)
        if len(keep) < len(lose):
            keep, lose = lose, keep
        for image, small in lose.items():
            big = keep.setdefault(image, small)
            if big is small:
                continue
            if len(big) < len(small):
                big, small = small, big
                keep[image] = big
            for k in small:
                insort(big, k)
            heapq.heappush(heap, big[0])
        buckets[t1] = keep

    roots = [e for e in sorted(skel) if euf.find(e)[0] == e]
    edges = {}
    for r in roots:
        rec = a.skeleton.edges[r]
        edges[r] = EdgeRec(vfind(rec.tail), vfind(rec.head), rec.label)
    vertices = frozenset(vfind(v) for v in a.skeleton.vertices)
    base = vfind(a.base_vertex) if a.base_vertex is not None else None

    def pushed_path(path):
        out = []
        for e, s in path:
            root, sign = euf.find(e)
            out.append((root, s * sign))
        return tuple(out)

    groups: dict = {}
    for cid in sorted(a.cells):
        path = pushed_path(a.cells[cid])
        key = _canonical_cell_key(path, m.cell_map[cid])
        groups.setdefault(key, []).append((cid, path))

    kept_cells: dict[str, tuple] = {}
    rep_of: dict[str, str] = {}
    for key in groups:
        members = groups[key]
        rep, rep_path = members[0]
        kept_cells[rep] = rep_path
        for cid, _ in members:
            rep_of[cid] = rep
        for cid, _ in members[1:]:
            trace.append(("cell", rep, cid))

    folded = TwoComplex(Graph(vertices, edges), kept_cells, base)

    proj_cells = {}
    for cid in sorted(a.cells):
        rep = rep_of[cid]
        im_c, im_k = m.cell_map[cid], m.cell_map[rep]
        length = len(a.cells[cid])
        orient = im_c.orient * im_k.orient
        offset = (im_k.orient * (im_c.offset - im_k.offset)) % length
        proj_cells[cid] = CellImage(rep, offset, orient)

    projection = CellMorphism(
        a, folded,
        {v: vfind(v) for v in a.skeleton.vertices},
        {e: euf.find(e) for e in a.skeleton.edges},
        proj_cells,
    )
    inclusion = CellMorphism(
        folded, m.target,
        {v: m.vertex_map[v] for v in vertices},
        {r: m.edge_map[r] for r in roots},
        {rep: m.cell_map[rep] for rep in kept_cells},
    )
    witness = _check_morphism(projection)
    if witness is not None:
        raise InvariantError(f"fold projection is not a morphism: {witness}")
    if not _composite_equals(inclusion, projection, m):
        raise InvariantError("fold composite drifted")
    cls = _immersion_fault(inclusion)
    if cls is not None:
        raise NotImmersionError(f"folded map failed its immersion check: {cls.witness}")
    return FoldResult(folded, projection, inclusion, tuple(trace))


def _unanimous(values, what: str):
    vals = list(values)
    first = vals[0]
    for v in vals[1:]:
        if v != first:
            raise FactorizationError(f"{what} lifts ambiguously: {first} vs {v}")
    return first


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
    if not _composite_equals(through, lift_of, original):
        raise FactorizationError("through ∘ lift does not equal the folded map")

    a = lift_of.source
    proj = folded.projection
    c = folded.folded

    pre_v: dict[str, list[str]] = {}
    for v in sorted(a.skeleton.vertices):
        pre_v.setdefault(proj.vertex_map[v], []).append(v)
    vmap = {cv: _unanimous((lift_of.vertex_map[av] for av in pre_v[cv]),
                           f"vertex {cv}")
            for cv in sorted(c.skeleton.vertices)}

    pre_e: dict[str, list] = {}
    for e in sorted(a.skeleton.edges):
        root, sign = proj.edge_map[e]
        pre_e.setdefault(root, []).append((e, sign))
    emap = {}
    for r in sorted(c.skeleton.edges):
        emap[r] = _unanimous(
            (lift_of.dart_image((e, sign)) for e, sign in pre_e[r]),
            f"edge {r}")

    pre_c: dict[str, list[str]] = {}
    for cid in sorted(a.cells):
        pre_c.setdefault(proj.cell_map[cid].cell, []).append(cid)
    cmap = {}
    for k in sorted(c.cells):
        candidates = []
        for cid in pre_c[k]:
            down = proj.cell_map[cid]
            x = lift_of.cell_map[cid]
            orient = x.orient * down.orient
            length = len(through.source.cells[x.cell])
            offset = (x.offset - orient * down.offset) % length
            candidates.append(CellImage(x.cell, offset, orient))
        cmap[k] = _unanimous(candidates, f"cell {k}")

    factor = CellMorphism(c, through.source, vmap, emap, cmap)
    witness = _check_morphism(factor)
    if witness is not None:
        raise FactorizationError(f"factored map is not a morphism: {witness}")
    if not _composite_equals(through, factor, folded.inclusion):
        raise FactorizationError("factored map does not recover the folded immersion")
    if not _composite_equals(factor, proj, lift_of):
        raise FactorizationError("factored map does not recover the lift")
    cls = _immersion_fault(factor)
    if cls is not None:
        raise NotImmersionError(f"factored map is not an immersion: {cls.witness}")
    return factor
