"""Combinatorial graphs, 2-complexes and cellular maps.

A graph is a set of vertices plus named edges; every edge ``e`` contributes
two darts ``(e, +1)`` and ``(e, -1)``, so the dart involution is sign flip
and is fixed-point free by construction.  A 2-complex adds named cells, each
carrying a cyclically indexed closed dart path.  Maps record, per cell, the
target cell together with a rotation offset and an orientation flag, so that
cells go homeomorphically to cells.
"""

from __future__ import annotations

import heapq
import itertools
from enum import IntEnum
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvalidComplexError
from .words import Letter as Dart
from .words import free_reduce
from .words import inverse_letter as dart_reverse
from .words import inverse_word as reverse_path


def dart_sort_key(d: Dart) -> tuple[str, int]:
    # forward dart of an edge sorts before the reverse dart
    return (d[0], 0 if d[1] > 0 else 1)


class EdgeRec(NamedTuple):
    tail: str
    head: str
    label: str | None = None


# A record with cached tables subclasses a NamedTuple of its fields: the
# subclass has the instance __dict__ that cached_property writes, and the
# fields stay read-only, compare and hash by value.
class _GraphFields(NamedTuple):
    vertices: frozenset[str]
    edges: dict[str, EdgeRec]


class Graph(_GraphFields):
    @staticmethod
    def rose(symbols: Iterable[str]) -> "Graph":
        """One vertex with a labeled loop per symbol; edge id equals the label."""
        syms = sorted(symbols)
        return Graph(frozenset(["*"]), {s: EdgeRec("*", "*", s) for s in syms})

    def dart_origin(self, d: Dart) -> str:
        rec = self.edges[d[0]]
        return rec.tail if d[1] > 0 else rec.head

    def dart_terminus(self, d: Dart) -> str:
        rec = self.edges[d[0]]
        return rec.head if d[1] > 0 else rec.tail

    def dart_label(self, d: Dart) -> tuple[str, int] | None:
        rec = self.edges[d[0]]
        if rec.label is None:
            return None
        return (rec.label, d[1])

    @cached_property
    def _adjacency(self) -> dict[str, tuple[Dart, ...]]:
        # the darts of each edge in turn, by edge id, are in dart_sort_key
        # order, so each list is already sorted
        table: dict[str, list[Dart]] = {v: [] for v in self.vertices}
        edges = self.edges
        for e in sorted(edges):
            tail, head, _ = edges[e]
            table[tail].append((e, 1))
            table[head].append((e, -1))
        return {v: tuple(ds) for v, ds in table.items()}

    def darts_at(self, v: str) -> tuple[Dart, ...]:
        return self._adjacency[v]

    @cached_property
    def _reader(self) -> dict[tuple[str, tuple[str, int]], Dart]:
        # dart (e, s) of a labelled edge reads the letter (label, s)
        table: dict[tuple[str, tuple[str, int]], Dart] = {}
        edges = self.edges
        for e in sorted(edges):
            tail, head, label = edges[e]
            if label is None:
                continue
            for key, d in (((tail, (label, 1)), (e, 1)),
                           ((head, (label, -1)), (e, -1))):
                if key in table:
                    raise InvalidComplexError(
                        f"darts {table[key]} and {d} at vertex {key[0]} both"
                        f" read {key[1]}")
                table[key] = d
        return table

    def read(self, word: Iterable[tuple[str, int]],
             start: str) -> tuple[tuple[Dart, ...], str] | None:
        """Walk ``word`` from ``start`` along the darts reading its letters;
        returns (dart path, end vertex), or None where no dart reads the next
        letter.  The labels must make the graph immersed over the rose: two
        darts at one vertex reading one letter raise InvalidComplexError."""
        table, edges = self._reader, self.edges
        path = []
        v = start
        for letter in word:
            d = table.get((v, letter))
            if d is None:
                return None
            path.append(d)
            tail, head, _ = edges[d[0]]
            v = head if d[1] > 0 else tail
        return tuple(path), v


class _TwoComplexFields(NamedTuple):
    skeleton: Graph
    cells: dict[str, tuple[Dart, ...]]
    base_vertex: str | None


class TwoComplex(_TwoComplexFields):
    def __new__(cls, skeleton: Graph,
                cells: dict[str, tuple[Dart, ...]] | None = None,
                base_vertex: str | None = None) -> TwoComplex:
        # a fresh dict for each complex made without cells
        return super().__new__(cls, skeleton, {} if cells is None else cells,
                               base_vertex)

    @cached_property
    def sides_over(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """For each edge, the (cell, boundary position) pairs traversing it."""
        table: dict[str, list[tuple[str, int]]] = {e: [] for e in self.skeleton.edges}
        for cid in sorted(self.cells):
            for pos, d in enumerate(self.cells[cid]):
                table[d[0]].append((cid, pos))
        return {e: tuple(v) for e, v in table.items()}

    def path_is_closed(self, path: tuple[Dart, ...]) -> bool:
        n = len(path)
        return all(
            self.skeleton.dart_terminus(path[i])
            == self.skeleton.dart_origin(path[(i + 1) % n])
            for i in range(n)
        )


def validate_complex(c: TwoComplex) -> list[str]:
    """Structural check; returns a list of violated invariants (empty if valid)."""
    problems: list[str] = []
    g = c.skeleton
    for e in sorted(g.edges):
        rec = g.edges[e]
        for v in (rec.tail, rec.head):
            if v not in g.vertices:
                problems.append(f"edge {e} references missing vertex {v}")
    for cid in sorted(c.cells):
        path = c.cells[cid]
        if not path:
            problems.append(f"cell {cid} has empty attaching path")
            continue
        bad_ref = False
        for d in path:
            if d[0] not in g.edges:
                problems.append(f"cell {cid} references missing edge {d[0]}")
                bad_ref = True
            elif d[1] not in (1, -1):
                problems.append(f"cell {cid} has a dart with bad sign {d[1]}")
                bad_ref = True
        if bad_ref:
            continue
        if not c.path_is_closed(path):
            problems.append(f"cell {cid} has a non-closed attaching path")
    if c.base_vertex is not None and c.base_vertex not in g.vertices:
        problems.append(f"base vertex {c.base_vertex} missing")
    return problems


def require_valid(c: TwoComplex) -> None:
    problems = validate_complex(c)
    if problems:
        raise InvalidComplexError("; ".join(problems))


def euler_characteristic(c: TwoComplex, dimension: int = 2) -> int:
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    chi = len(c.skeleton.vertices) - len(c.skeleton.edges)
    if dimension == 2:
        chi += len(c.cells)
    return chi


def _components(vertices: Iterable, ends: Iterable, roots: Iterable):
    """The component of each root that no earlier one holds, each by one
    search from its root over ``ends``, the (tail, head, ...) of each edge."""
    links: dict = {v: [] for v in vertices}
    for end in ends:
        tail, head = end[0], end[1]
        links[tail].append(head)
        links[head].append(tail)
    seen: set = set()
    for root in roots:
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for w in links[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        yield frozenset(comp)


def component_of(g: Graph, root: str) -> frozenset[str]:
    """The vertices that a path from ``root`` reaches."""
    return next(_components(g.vertices, g.edges.values(), (root,)))


def connected_components(g: Graph) -> list[frozenset[str]]:
    """The components, each found from its least vertex, in that order."""
    return list(_components(g.vertices, g.edges.values(),
                            sorted(g.vertices)))


def _find(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find forest ``parent``."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]     # path halving
    return x


def _flatten(parent: list[int]) -> list[int]:
    """Point every number at its root; returns ``parent``."""
    for x, root in enumerate(parent):
        while parent[root] != root:
            root = parent[root]
        parent[x] = root
    return parent


class MapKind(IntEnum):
    NOT_MORPHISM = 0
    MORPHISM = 1
    IMMERSION = 2
    COVERING = 3


class Classification(NamedTuple):
    kind: MapKind
    witness: str | None = None


class CellImage(NamedTuple):
    cell: str
    offset: int
    orient: int


def cell_image_path(target: TwoComplex, image: CellImage) -> tuple[Dart, ...]:
    """Boundary path traced in the target by a cell mapped with the given data."""
    q = target.cells[image.cell]
    if not q:
        return ()
    if image.orient > 0:
        k = image.offset % len(q)
        return tuple(q[k:] + q[:k])
    # read backwards from the offset: the reverse of the rotation ending there
    k = (image.offset + 1) % len(q)
    return reverse_path(q[k:] + q[:k])


def _side_images(image: CellImage, size: int,
                 period: int | None) -> list[tuple[str, int]]:
    """The target (cell, boundary position) of each side ``pos`` < ``size``
    of a cell mapped by ``image``: (offset + orient·pos) mod ``period or size``."""
    cell, offset, orient = image
    length = period or size
    return [(cell, (offset + orient * pos) % length) for pos in range(size)]


class CellMorphism(NamedTuple):
    source: TwoComplex
    target: TwoComplex
    vertex_map: dict[str, str]
    edge_map: dict[str, Dart]
    cell_map: dict[str, CellImage]

    def dart_image(self, d: Dart) -> Dart:
        e, s = self.edge_map[d[0]]
        return (e, s * d[1])

    def path_image(self, path: Iterable[Dart]) -> tuple[Dart, ...]:
        return tuple(self.dart_image(d) for d in path)

    @property
    def cell_align(self) -> dict[str, tuple[int, int]]:
        """``{cell: (offset, orient)}``, read only by perfbench/workloads.py."""
        return {cid: im[1:] for cid, im in self.cell_map.items()}


def _morphism_fault(m: CellMorphism, order, darts: set | None = None,
                    sides: set | None = None,
                    period: int | None = None) -> str | None:
    """First broken morphism condition met scanning vertices, then edges,
    then cells, each in ``order``; None when ``m`` is a morphism.  Given the
    sets, the scan also collects each dart's (origin, image) into ``darts``
    and each cell side's (edge, target side by ``_side_images`` with
    ``period``) into ``sides``: a clash leaves a set short."""
    src, tgt = m.source, m.target
    vmap, emap, cmap = m.vertex_map, m.edge_map, m.cell_map
    tverts, tedges, tcells = tgt.skeleton.vertices, tgt.skeleton.edges, tgt.cells
    for v in order(src.skeleton.vertices):
        if v not in vmap:
            return f"vertex {v} has no image"
        if vmap[v] not in tverts:
            return f"vertex {v} maps to missing vertex {vmap[v]}"
    if len(vmap) != len(src.skeleton.vertices):
        return _stray("vertex", vmap, src.skeleton.vertices)
    sedges = src.skeleton.edges
    for e in order(sedges):
        if e not in emap:
            return f"edge {e} has no image"
        f, s = emap[e]
        if f not in tedges:
            return f"edge {e} maps to missing edge {f}"
        if s != 1 and s != -1:
            return f"edge {e} has bad orientation sign {s}"
        rec, image = sedges[e], tedges[f]
        if vmap[rec.tail] != (image.tail if s > 0 else image.head):
            return f"dart {(e, 1)} breaks origin commutation"
        if vmap[rec.head] != (image.head if s > 0 else image.tail):
            return f"dart {(e, -1)} breaks origin commutation"
        if darts is not None:
            darts.add((rec.tail, f, s))
            darts.add((rec.head, f, -s))
    if len(emap) != len(sedges):
        return _stray("edge", emap, sedges)
    scells = src.cells
    for cid in order(scells):
        if cid not in cmap:
            return f"cell {cid} has no image"
        image = cmap[cid]
        if image.cell not in tcells:
            return f"cell {cid} maps to missing cell {image.cell}"
        if image.orient not in (1, -1):
            return f"cell {cid} has bad orientation flag"
        path = scells[cid]
        if len(path) != len(tcells[image.cell]):
            return f"cell {cid} boundary length differs from its image"
        if (tuple([(emap[e][0], emap[e][1] * s) for e, s in path])
                != cell_image_path(tgt, image)):
            return f"cell {cid} boundary does not match its image boundary"
        if sides is not None:
            sides.update(zip([e for e, _ in path],
                             _side_images(image, len(path), period)))
    if len(cmap) != len(scells):
        return _stray("cell", cmap, scells)
    return None


def _stray(kind: str, images: dict, parts) -> str:
    # every part has an image, so a longer map names something else too
    return f"{kind} map names {min(images.keys() - parts)}, not a source {kind}"


def _check_morphism(m: CellMorphism) -> str | None:
    if _morphism_fault(m, iter) is None:
        return None
    # the witness is the first fault of an ordered scan
    return _morphism_fault(m, sorted)


def _first_clash(m: CellMorphism, period: int | None):
    """The first group, in sorted order, with two members of one image, as
    (group, first member, second member, image): each vertex with its darts
    under ``dart_image``, then each edge with its cell sides under
    ``_side_images``; None when no group has a clash."""
    src = m.source
    images = {cid: _side_images(m.cell_map[cid], len(path), period)
              for cid, path in src.cells.items()}
    groups = itertools.chain(
        ((v, [(d, m.dart_image(d)) for d in src.skeleton.darts_at(v)])
         for v in sorted(src.skeleton.vertices)),
        ((e, [(side, images[side[0]][side[1]]) for side in src.sides_over[e]])
         for e in sorted(src.skeleton.edges)))
    for group, members in groups:
        seen: dict = {}
        for member, image in members:
            if image in seen:
                return group, seen[image], member, image
            seen[image] = member
    return None


def _immersion_fault(m: CellMorphism,
                     period: int | None = None) -> Classification | None:
    """The classification below IMMERSION that ``m`` earns, or None when it
    immerses; with a ``period``, target side positions count modulo it
    (sides of a branched disk).  One unordered read decides; the ordered
    scans run only to name a fault."""
    darts, sides = set(), set()
    if _morphism_fault(m, iter, darts, sides, period) is not None:
        return Classification(MapKind.NOT_MORPHISM, _morphism_fault(m, sorted))
    src = m.source
    links = len(darts) < 2 * len(src.skeleton.edges)
    if not links and len(sides) == sum(map(len, src.cells.values())):
        return None
    # a short link set has a clash at a vertex, which the scan meets first
    group, first, second, image = _first_clash(m, period)
    return Classification(MapKind.MORPHISM, (
        f"darts {first} and {second} at vertex {group} share image {image}"
        if links else
        f"sides {first} and {second} over edge {group} share disk side {image}"))


def _covering_fault(m: CellMorphism,
                    period: int | None = None) -> Classification | None:
    """The classification below COVERING that ``m`` earns, or None when it
    covers; with a ``period``, as in ``_immersion_fault``, a target edge's
    sides are its distinct (cell, position mod ``period``).  An immersion
    injects each link and side set into its image's, so equal totals mean
    onto; the ordered scans run only to name a fault."""
    cls = _immersion_fault(m, period)
    if cls is not None:
        return cls
    src, emap, over = m.source, m.edge_map, m.target.sides_over
    if period is not None:
        over = {f: {(cid, pos % period) for cid, pos in over[f]}
                for f in {f for f, _ in emap.values()}}
    links = m.target.skeleton.darts_at
    if (sum(len(links(w)) for w in m.vertex_map.values()) == 2 * len(emap)
            and sum(len(over[f]) for f, _ in emap.values())
            == sum(map(len, src.cells.values()))):
        return None
    faults = itertools.chain(
        (f"link at {v} is not onto the target link"
         for v in sorted(src.skeleton.vertices)
         if len(src.skeleton.darts_at(v)) != len(links(m.vertex_map[v]))),
        (f"sides over {e} are not onto the target sides" for e in sorted(emap)
         if len(src.sides_over[e]) != len(over[emap[e][0]])))
    return Classification(MapKind.IMMERSION, next(faults))


def classify_map(m: CellMorphism) -> Classification:
    """Place a map on the ladder not_morphism < morphism < immersion < covering."""
    return _covering_fault(m) or Classification(MapKind.COVERING)


def find_free_faces_and_edges(
        c: TwoComplex) -> tuple[list[tuple[str, str, int]], list[str]]:
    """Free faces (edge traversed exactly once, with its cell and position) and
    free edges (traversed by no cell), each sorted by edge id."""
    faces: list[tuple[str, str, int]] = []
    free_edges: list[str] = []
    for e in sorted(c.skeleton.edges):
        sides = c.sides_over[e]
        if len(sides) == 1:
            cid, pos = sides[0]
            faces.append((e, cid, pos))
        elif not sides:
            free_edges.append(e)
    return faces, free_edges


def collapse_carrying(c: TwoComplex, paths: Iterable[tuple[Dart, ...]] = ()
                      ) -> tuple[TwoComplex, tuple[tuple[Dart, ...], ...]]:
    """Remove free faces (cell plus edge) in (edge id, cell id) order until none
    remain, keeping the dimension-2 Euler characteristic, and carry each of
    ``paths`` onto the surviving edges, freely reduced.

    Removing a face records, for each dart of its edge, the arc a path takes
    instead: the rest of its cell's boundary between the same ends.  That arc
    names only edges that still existed when its face was removed, each of
    which survives or is removed later, so one stack pass that expands each
    removed dart into its arc ends.
    """
    sides = {e: len(over) for e, over in c.sides_over.items()}
    cells = dict(c.cells)
    arcs: dict[Dart, tuple[Dart, ...]] = {}
    free = sorted(e for e, k in sides.items() if k == 1)   # sorted is a heap
    while free:
        e = heapq.heappop(free)
        if sides.get(e) != 1:
            continue
        cid, pos = next((cid, pos) for cid, pos in c.sides_over[e]
                        if cid in cells)
        path = cells.pop(cid)
        rest = path[pos + 1:] + path[:pos]
        arcs[path[pos]] = reverse_path(rest)
        arcs[dart_reverse(path[pos])] = rest
        del sides[e]
        for f, _ in path:
            if f in sides:
                sides[f] -= 1
                if sides[f] == 1:
                    heapq.heappush(free, f)
    carried = []
    for p in paths:
        stack, out = list(p[::-1]), []
        while stack:
            d = stack.pop()
            if d in arcs:
                stack += arcs[d][::-1]
            else:
                out.append(d)
        carried.append(free_reduce(out))
    vertices = c.skeleton.vertices
    g = Graph(vertices, {e: c.skeleton.edges[e] for e in sorted(sides)})
    return (TwoComplex(g, {cid: cells[cid] for cid in sorted(cells)},
                       c.base_vertex if c.base_vertex in vertices else None),
            tuple(carried))


def collapse(c: TwoComplex) -> TwoComplex:
    """The collapsed complex of ``collapse_carrying``."""
    return collapse_carrying(c)[0]


def _compose_image(outer: CellMorphism, image: CellImage) -> CellImage:
    """Where ``outer`` sends a cell that maps with ``image`` onto one of its
    source's cells: (r2 + s2·r1, s1·s2)."""
    im2 = outer.cell_map[image.cell]
    length = len(outer.target.cells[im2.cell])
    return CellImage(im2.cell, (im2.offset + im2.orient * image.offset) % length,
                     image.orient * im2.orient)


def compose(outer: CellMorphism, inner: CellMorphism) -> CellMorphism:
    """Composite outer ∘ inner, each cell sent by ``_compose_image``."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("composition mismatch: inner target is not outer source")
    vmap = {v: outer.vertex_map[w] for v, w in inner.vertex_map.items()}
    emap = {e: outer.dart_image(d) for e, d in inner.edge_map.items()}
    cmap = {cid: _compose_image(outer, im1)
            for cid, im1 in inner.cell_map.items()}
    return CellMorphism(inner.source, outer.target, vmap, emap, cmap)


def identity_morphism(c: TwoComplex) -> CellMorphism:
    return CellMorphism(
        c, c,
        {v: v for v in c.skeleton.vertices},
        {e: (e, 1) for e in c.skeleton.edges},
        {cid: CellImage(cid, 0, 1) for cid in c.cells},
    )


def _restrict(m: CellMorphism, sub: TwoComplex) -> CellMorphism:
    """``m`` on the subcomplex ``sub`` of its source."""
    return CellMorphism(
        sub, m.target,
        {v: m.vertex_map[v] for v in sub.skeleton.vertices},
        {e: m.edge_map[e] for e in sub.skeleton.edges},
        {c: m.cell_map[c] for c in sub.cells})
