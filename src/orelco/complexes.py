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
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvalidComplexError
from .words import Letter as Dart
from .words import inverse_letter as dart_reverse
from .words import inverse_word as reverse_path


def dart_sort_key(d: Dart) -> tuple[str, int]:
    # forward dart of an edge sorts before the reverse dart
    return (d[0], 0 if d[1] > 0 else 1)


class EdgeRec(NamedTuple):
    tail: str
    head: str
    label: str | None = None


@dataclass(frozen=True)
class Graph:
    vertices: frozenset[str]
    edges: dict[str, EdgeRec]

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

    def darts(self) -> list[Dart]:
        out: list[Dart] = []
        for e in sorted(self.edges):
            out.append((e, 1))
            out.append((e, -1))
        return out

    @cached_property
    def _adjacency(self) -> dict[str, tuple[Dart, ...]]:
        # darts() runs in dart_sort_key order, so each list is already sorted
        table: dict[str, list[Dart]] = {v: [] for v in self.vertices}
        for d in self.darts():
            table[self.dart_origin(d)].append(d)
        return {v: tuple(ds) for v, ds in table.items()}

    def darts_at(self, v: str) -> tuple[Dart, ...]:
        return self._adjacency[v]

    @cached_property
    def _reader(self) -> dict[tuple[str, tuple[str, int]], Dart]:
        # dart (e, s) of a labelled edge reads the letter (label, s)
        table: dict[tuple[str, tuple[str, int]], Dart] = {}
        for d in self.darts():
            letter = self.dart_label(d)
            if letter is None:
                continue
            key = (self.dart_origin(d), letter)
            if key in table:
                raise InvalidComplexError(
                    f"darts {table[key]} and {d} at vertex {key[0]} both"
                    f" read {letter}")
            table[key] = d
        return table

    def read(self, word: Iterable[tuple[str, int]],
             start: str) -> tuple[tuple[Dart, ...], str] | None:
        """Walk ``word`` from ``start`` along the darts reading its letters;
        returns (dart path, end vertex), or None where no dart reads the next
        letter.  The labels must make the graph immersed over the rose: two
        darts at one vertex reading one letter raise InvalidComplexError."""
        table = self._reader
        path = []
        v = start
        for letter in word:
            d = table.get((v, letter))
            if d is None:
                return None
            path.append(d)
            v = self.dart_terminus(d)
        return tuple(path), v


@dataclass(frozen=True)
class TwoComplex:
    skeleton: Graph
    cells: dict[str, tuple[Dart, ...]] = field(default_factory=dict)
    base_vertex: str | None = None

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


def connected_components(g: Graph) -> list[frozenset[str]]:
    seen: set[str] = set()
    comps: list[frozenset[str]] = []
    for root in sorted(g.vertices):
        if root in seen:
            continue
        comp = {root}
        queue = [root]
        while queue:
            v = queue.pop()
            for d in g.darts_at(v):
                w = g.dart_terminus(d)
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def non_tree_edge_count(g: Graph) -> int:
    """Edges outside a spanning forest; equals the total free-group rank."""
    return len(g.edges) - len(g.vertices) + len(connected_components(g))


class MapKind(IntEnum):
    NOT_MORPHISM = 0
    MORPHISM = 1
    IMMERSION = 2
    COVERING = 3


@dataclass(frozen=True)
class Classification:
    kind: MapKind
    witness: str | None = None


class CellImage(NamedTuple):
    cell: str
    offset: int
    orient: int


def cell_image_path(target: TwoComplex, image: CellImage) -> tuple[Dart, ...]:
    """Boundary path traced in the target by a cell mapped with the given data."""
    q = target.cells[image.cell]
    m = len(q)
    if image.orient > 0:
        return tuple(q[(i + image.offset) % m] for i in range(m))
    return tuple(dart_reverse(q[(image.offset - i) % m]) for i in range(m))


def target_side(image: CellImage, pos: int, length: int) -> tuple[str, int]:
    """Target (cell, boundary position) hit by source boundary position ``pos``."""
    if image.orient > 0:
        return (image.cell, (pos + image.offset) % length)
    return (image.cell, (image.offset - pos) % length)


@dataclass(frozen=True)
class CellMorphism:
    source: TwoComplex
    target: TwoComplex
    vertex_map: dict[str, str]
    edge_map: dict[str, Dart]
    cell_map: dict[str, CellImage] = field(default_factory=dict)

    def dart_image(self, d: Dart) -> Dart:
        e, s = self.edge_map[d[0]]
        return (e, s * d[1])

    def path_image(self, path: Iterable[Dart]) -> tuple[Dart, ...]:
        return tuple(self.dart_image(d) for d in path)


def _check_morphism(m: CellMorphism) -> str | None:
    src, tgt = m.source, m.target
    for v in sorted(src.skeleton.vertices):
        if v not in m.vertex_map:
            return f"vertex {v} has no image"
        if m.vertex_map[v] not in tgt.skeleton.vertices:
            return f"vertex {v} maps to missing vertex {m.vertex_map[v]}"
    for e in sorted(src.skeleton.edges):
        if e not in m.edge_map:
            return f"edge {e} has no image"
        image = m.edge_map[e]
        if image[0] not in tgt.skeleton.edges:
            return f"edge {e} maps to missing edge {image[0]}"
        d = (e, 1)
        for dart in (d, dart_reverse(d)):
            want = m.vertex_map[src.skeleton.dart_origin(dart)]
            got = tgt.skeleton.dart_origin(m.dart_image(dart))
            if want != got:
                return f"dart {dart} breaks origin commutation"
    for cid in sorted(src.cells):
        if cid not in m.cell_map:
            return f"cell {cid} has no image"
        image = m.cell_map[cid]
        if image.cell not in tgt.cells:
            return f"cell {cid} maps to missing cell {image.cell}"
        if image.orient not in (1, -1):
            return f"cell {cid} has bad orientation flag"
        path = src.cells[cid]
        want_path = cell_image_path(tgt, image)
        if len(path) != len(want_path):
            return f"cell {cid} boundary length differs from its image"
        if m.path_image(path) != want_path:
            return f"cell {cid} boundary does not match its image boundary"
    return None


def _check_link_injective(m: CellMorphism) -> str | None:
    for v in sorted(m.source.skeleton.vertices):
        seen: dict[Dart, Dart] = {}
        for d in m.source.skeleton.darts_at(v):
            img = m.dart_image(d)
            if img in seen:
                return f"darts {seen[img]} and {d} at vertex {v} share image {img}"
            seen[img] = d
    return None


def _check_side_injective(m: CellMorphism,
                          period: int | None = None) -> str | None:
    """Sides over each source edge land on distinct target sides; with a
    ``period``, target positions count modulo it (sides of a branched disk)."""
    for e in sorted(m.source.skeleton.edges):
        seen: dict[tuple[str, int], tuple[str, int]] = {}
        for cid, pos in m.source.sides_over[e]:
            side = target_side(m.cell_map[cid], pos,
                               period or len(m.source.cells[cid]))
            if side in seen:
                return (f"sides {seen[side]} and {(cid, pos)} over edge {e}"
                        f" share disk side {side}")
            seen[side] = (cid, pos)
    return None


def classify_map(m: CellMorphism) -> Classification:
    """Place a map on the ladder not_morphism < morphism < immersion < covering."""
    witness = _check_morphism(m)
    if witness is not None:
        return Classification(MapKind.NOT_MORPHISM, witness)
    witness = _check_link_injective(m) or _check_side_injective(m)
    if witness is not None:
        return Classification(MapKind.MORPHISM, witness)
    # bijectivity of links and side sets over every vertex and edge
    for v in sorted(m.source.skeleton.vertices):
        have = {m.dart_image(d) for d in m.source.skeleton.darts_at(v)}
        want = set(m.target.skeleton.darts_at(m.vertex_map[v]))
        if have != want:
            return Classification(
                MapKind.IMMERSION, f"link at {v} is not onto the target link")
    for e in sorted(m.source.skeleton.edges):
        have = {
            target_side(m.cell_map[cid], pos, len(m.source.cells[cid]))
            for cid, pos in m.source.sides_over[e]
        }
        want = set(m.target.sides_over[m.edge_map[e][0]])
        if have != want:
            return Classification(
                MapKind.IMMERSION, f"sides over {e} are not onto the target sides")
    return Classification(MapKind.COVERING, None)


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


def collapse_with_rewrites(
        c: TwoComplex) -> tuple[TwoComplex, dict[Dart, tuple[Dart, ...]]]:
    """Remove free faces (cell plus edge) in (edge id, cell id) order until none
    remain.  The dimension-2 Euler characteristic is unchanged by face
    collapses.

    Also returns, for both darts of every removed face edge, the rest of its
    cell's boundary between the same endpoints: the arc a path may take
    instead.
    """
    sides = {e: len(over) for e, over in c.sides_over.items()}
    cells = dict(c.cells)
    rewrites: dict[Dart, tuple[Dart, ...]] = {}
    free = sorted(e for e, k in sides.items() if k == 1)   # sorted is a heap
    while free:
        e = heapq.heappop(free)
        if sides.get(e) != 1:
            continue
        cid, pos = next((cid, pos) for cid, pos in c.sides_over[e]
                        if cid in cells)
        path = cells.pop(cid)
        rest = path[pos + 1:] + path[:pos]
        rewrites[path[pos]] = reverse_path(rest)
        rewrites[dart_reverse(path[pos])] = rest
        del sides[e]
        for f, _ in path:
            if f in sides:
                sides[f] -= 1
                if sides[f] == 1:
                    heapq.heappush(free, f)
    vertices = c.skeleton.vertices
    g = Graph(vertices, {e: c.skeleton.edges[e] for e in sorted(sides)})
    return (TwoComplex(g, {cid: cells[cid] for cid in sorted(cells)},
                       c.base_vertex if c.base_vertex in vertices else None),
            rewrites)


def collapse(c: TwoComplex) -> TwoComplex:
    """The collapsed complex of ``collapse_with_rewrites``."""
    return collapse_with_rewrites(c)[0]


def compose(outer: CellMorphism, inner: CellMorphism) -> CellMorphism:
    """Composite outer ∘ inner with cell data (r2 + s2·r1, s1·s2)."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("composition mismatch: inner target is not outer source")
    vmap = {v: outer.vertex_map[w] for v, w in inner.vertex_map.items()}
    emap = {e: outer.dart_image(d) for e, d in inner.edge_map.items()}
    cmap: dict[str, CellImage] = {}
    for cid, im1 in inner.cell_map.items():
        im2 = outer.cell_map[im1.cell]
        length = len(outer.target.cells[im2.cell])
        cmap[cid] = CellImage(im2.cell,
                              (im2.offset + im2.orient * im1.offset) % length,
                              im1.orient * im2.orient)
    return CellMorphism(inner.source, outer.target, vmap, emap, cmap)


def identity_morphism(c: TwoComplex) -> CellMorphism:
    return CellMorphism(
        c, c,
        {v: v for v in c.skeleton.vertices},
        {e: (e, 1) for e in c.skeleton.edges},
        {cid: CellImage(cid, 0, 1) for cid in c.cells},
    )
