"""Disk diagrams over a one-relator orbicomplex, replayed from solver traces.

A trace step that swaps the factor ``s`` of a relator rotation ``rho = s t``
for ``t^-1`` witnesses the free identity ``u_j = (a_j rho a_j^-1) u_{j+1}``
with ``a_j`` the prefix left of the match.  Unwinding the whole trace writes
the input as a product of conjugates of relator-power rotations, and that
product is realized geometrically as a wedge of lollipops: one stem spelling
``a_j`` plus one disk spelling ``rho_j`` per step.  Sewing the boundary until
it literally spells the reduced input, then cancelling mirror cell pairs,
yields the reduced diagram.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from functools import partial
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import NamedTuple

from .complexes import (CellImage, CellMorphism, Dart, EdgeRec, Graph,
                        TwoComplex, _check_morphism, _components, _find,
                        _flatten, require_valid)
from .errors import DiagramError
from .orbicomplex import OneRelatorOrbicomplex, by_labels
from .words import (Letter, Word, _check_letters, dehn_solve, free_reduce,
                    inverse_letter, splice)


class VanKampenDiagram(NamedTuple):
    """Disk diagram: every 2-cell spells the relator power of the target."""

    diagram: TwoComplex
    boundary: tuple[Dart, ...]
    boundary_word: Word
    labeling: CellMorphism


class _DiskBuilder:
    """Mutable labelled 2-complex with an explicit based boundary circuit,
    on numbers: edge ``i`` has the darts ``2i``, which reads a positive
    letter, and ``2i + 1``; vertex 0 is the base; cells and the boundary
    are lists of darts; the vertices are the base and the ends of the live
    edges.  Folds are recorded in two union-finds and resolved by readers;
    they join darts of one letter, so the letter table ``_letters`` holds.

    An edge or vertex is named ``prefix + str(index)`` from its origin:
    lollipop ``j`` makes ``s{j}.t``, ``e{j}.i``, ``u{j}.t`` and ``c{j}.i``,
    and a name given whole has the index ``""``.  Names are formatted where
    they are read: in errors, in the merge and mirror orders, and for the
    survivors in ``snapshot``.
    """

    def __init__(self, base: str):
        self.cells: dict[str, list[int]] = {}
        self.cell_align: dict[str, tuple[int, int]] = {}
        self.boundary: list[int] = []
        self._vertex_origin: tuple[list[str], list] = ([base], [""])
        self._vertex_parent = [0]
        self._edge_origin: tuple[list[str], list] = ([], [])
        self._edge_parent: list[int] = []
        self._live: list[bool] = []
        self._letters: list[Letter] = []
        self._pairs: dict[str, tuple[Letter, Letter]] = {}   # symbol -> letters
        self._ends: tuple[list[int], list[int]] = ([], [])

    def edge_name(self, e: int) -> str:
        return self._edge_origin[0][e] + str(self._edge_origin[1][e])

    def vertex_name(self, v: int) -> str:
        return self._vertex_origin[0][v] + str(self._vertex_origin[1][v])

    def snapshot(self) -> tuple[TwoComplex, tuple[Dart, ...]]:
        """The complex and its boundary under the surviving names."""
        vertex = _flatten(self._vertex_parent)
        live, letters = self._live, self._letters
        tails, heads = (list(map(vertex.__getitem__, compress(end, live)))
                        for end in self._ends)
        prefix, index = self._vertex_origin
        name = {v: prefix[v] + str(index[v]) for v in {0, *tails, *heads}}
        tails, heads = (list(map(name.__getitem__, end)) for end in (tails, heads))
        prefix, index = self._edge_origin
        ids = list(compress(range(len(live)), live))
        names = [prefix[e] + str(index[e]) for e in ids]
        # EdgeRec(...) is this tuple.__new__ behind a Python call
        edges = dict(zip(names, map(partial(tuple.__new__, EdgeRec), zip(
            tails, heads, map(itemgetter(0), compress(letters[::2], live))))))
        # every dart, folded or not, under its survivor's name
        names = list(map(dict(zip(ids, names)).get,
                         _flatten(self._edge_parent)))
        darts: list = [None] * len(letters)
        darts[::2], darts[1::2] = zip(names, repeat(1)), zip(names, repeat(-1))
        vertices = {name[0]}.union(*zip(tails, heads))
        return (TwoComplex(Graph(frozenset(vertices), edges),
                           {cid: tuple(map(darts.__getitem__, path))
                            for cid, path in self.cells.items()},
                           base_vertex=name[0]),
                tuple(map(darts.__getitem__, self.boundary)))

    # -- primitives ------------------------------------------------------

    def new_vertices(self, prefixes: list[str], indices: list) -> range:
        first = len(self._vertex_parent)
        self._vertex_origin[0].extend(prefixes)
        self._vertex_origin[1].extend(indices)
        self._vertex_parent += range(first, first + len(prefixes))
        return range(first, first + len(prefixes))

    def new_edges(self, prefixes: list[str], indices: list, walk,
                  word: Word) -> list[int]:
        """New edges, the ``k``-th reading ``word[k]`` from vertex
        ``walk[k]`` to ``walk[k + 1]``; returns the darts that read it."""
        first = len(self._edge_parent)
        self._edge_origin[0].extend(prefixes)
        self._edge_origin[1].extend(indices)
        self._edge_parent += range(first, first + len(word))
        self._live += [True] * len(word)
        letters, pairs = self._letters, self._pairs
        (tails, heads), darts = self._ends, []
        for k, (sym, sign) in enumerate(word):
            letters += pairs.get(sym) or pairs.setdefault(
                sym, ((sym, 1), (sym, -1)))
            back = sign < 0     # the edge runs from walk[k + 1] to walk[k]
            tails.append(walk[k + back])
            heads.append(walk[k + 1 - back])
            darts.append(2 * (first + k) + back)
        return darts

    def merge_vertices(self, a: int, b: int) -> None:
        """The base survives a merge, otherwise the smaller name."""
        parent = self._vertex_parent
        a, b = _find(parent, a), _find(parent, b)
        if a == b:
            return
        if b == 0 or (a != 0 and self.vertex_name(b) < self.vertex_name(a)):
            a, b = b, a
        parent[b] = a

    def identify_darts(self, d1: int, d2: int) -> tuple[int, int] | None:
        """Fold dart ``d2`` onto ``d1``: the ends of the two darts merge and
        the edge of ``d2`` becomes that of ``d1``.  Returns the surviving and
        the folded edge, or None when the darts are already one."""
        parent = self._edge_parent
        e1, e2 = _find(parent, d1 >> 1), _find(parent, d2 >> 1)
        if e1 == e2 and d1 & 1 == d2 & 1:
            return None
        if self._letters[d1] != self._letters[d2]:
            raise DiagramError("cannot identify darts with different labels")
        for end in self._ends:  # same orientation: tails meet, heads meet
            self.merge_vertices(end[e1], end[e2])
        self._live[e2] = False
        parent[e2] = e1
        return e1, e2

    # -- construction ----------------------------------------------------

    def add_lollipop(self, j: int, stem: Word, rho: Word,
                     align: tuple[int, int]) -> None:
        n, m = len(stem), len(rho)
        walk = [0, *self.new_vertices([f"u{j}."] * n + [f"c{j}."] * (m - 1),
                                      [*range(1, n + 1), *range(1, m)])]
        walk.append(walk[n])
        darts = self.new_edges([f"s{j}."] * n + [f"e{j}."] * m,
                               [*range(n), *range(m)], walk, stem + rho)
        self.cells[f"D{j}"] = darts[n:]
        self.cell_align[f"D{j}"] = align
        self.boundary += darts + [d ^ 1 for d in reversed(darts[:n])]

    # -- accounting ------------------------------------------------------

    def carried(self) -> list[int]:
        """Times each surviving edge is carried by cell sides and boundary."""
        counts = [0] * len(self._live)
        parent = self._edge_parent
        for d in chain(*self.cells.values(), self.boundary):
            e = d >> 1
            counts[e if parent[e] == e else _find(parent, e)] += 1
        return counts

    def readout(self) -> Word:
        return tuple(map(self._letters.__getitem__, self.boundary))

    def check_disk(self) -> list[int]:
        """Check that every edge is carried two times; returns the counts."""
        counts = self.carried()
        if list(compress(counts, self._live)).count(2) < sum(self._live):
            for e in compress(range(len(counts)), self._live):
                if counts[e] != 2:
                    raise DiagramError(f"edge {self.edge_name(e)} carried "
                                       f"{counts[e]} times, expected 2")
        return counts

    # -- boundary sewing -------------------------------------------------

    def sew(self, counts: list[int]) -> None:
        """Cancel adjacent inverse boundary letters in one stack pass, in
        the order of a left-to-right free reduction, resolving only the
        pairs that cancel: a spur, a dart and its own reverse, loses its
        edge, and any other pair folds its second dart onto the reverse of
        its first.  ``counts``, the carried counts, are kept up to date."""
        parent, letters = self._edge_parent, self._letters
        stack: list[int] = []
        for d in self.boundary:
            if not stack or letters[stack[-1] ^ 1] != letters[d]:
                stack.append(d)
                continue
            d1 = stack.pop()
            e, e2 = _find(parent, d1 >> 1), _find(parent, d >> 1)
            if e == e2:
                if counts[e] != 2:
                    raise DiagramError(f"spur edge {self.edge_name(e)} "
                                       "still carried elsewhere")
                self._live[e] = False
            else:
                self.identify_darts(d1 ^ 1, d)
                counts[e] += counts[e2] - 2
        self.boundary = stack

    # -- mirror cancellation ---------------------------------------------

    def cancel_mirrors(self, counts: list[int]) -> None:
        """Cancel mirror pairs, the first edge in name order first, until
        none is left: zip the two cells of a pair together along their
        boundaries, then remove both cells and every edge left uncarried.

        The resolved cell paths, the sides over each edge and ``counts``,
        the carried counts, are kept up to date: a zip moves the folded
        edge's sides to the survivor.  An edge whose sides have not grown
        since it was tested has no mirror pair, so the candidate heap holds
        the edges with two sides at the start and each survivor of a zip."""
        cells, live, name = self.cells, self._live, self.edge_name
        edge = _flatten(self._edge_parent)
        sides: defaultdict[int, list[tuple[str, int]]] = defaultdict(list)
        for cid in sorted(cells):
            path = cells[cid] = [2 * edge[d >> 1] | d & 1 for d in cells[cid]]
            for pos, d in enumerate(path):
                sides[d >> 1].append((cid, pos))
        todo = sorted((name(e), e) for e, over in sides.items() if len(over) > 1)
        while todo:             # a sorted list is a heap
            _, e = heapq.heappop(todo)
            if not live[e]:     # folded or deleted since it was pushed
                continue
            hit = _mirror_at(e, sides[e], cells.__getitem__, self._letters.__getitem__)
            if hit is None:
                continue
            _, c1, p1, c2, p2 = hit
            if counts[e] != 2:
                raise DiagramError(
                    f"mirror edge {name(e)} still carried elsewhere")
            path1, path2 = cells[c1], cells[c2]
            m = len(path1)
            for t in range(1, m):
                folded = self.identify_darts(path1[(p1 + t) % m],
                                             path2[(p2 - t) % m] ^ 1)
                if folded is None:
                    continue
                e1, e2 = folded
                for cid, pos in sides[e2]:
                    cells[cid][pos] = 2 * e1 | cells[cid][pos] & 1
                sides[e1] = sorted(sides[e1] + sides.pop(e2))
                counts[e1] += counts[e2]
                heapq.heappush(todo, (name(e1), e1))
            touched = set()
            for cid in (c1, c2):
                for pos, d in enumerate(cells.pop(cid)):
                    sides[d >> 1].remove((cid, pos))
                    counts[d >> 1] -= 1
                    touched.add(d >> 1)
                del self.cell_align[cid]
            bad = sorted((name(f), counts[f]) for f in touched
                         if counts[f] not in (0, 2))
            if bad:
                raise DiagramError("edge %s carried %d times, expected 2"
                                   % bad[0])
            for f in touched:
                if not counts[f]:
                    live[f] = False
                    del sides[f]
        # No step adds an edge, and a zip merges only vertices of two cells
        # that share an edge, so a component split off from the base stays
        # split: one search after the loop finds every split.
        vertex = _flatten(self._vertex_parent)
        tails, heads = (map(vertex.__getitem__, compress(end, live))
                        for end in self._ends)
        ends = list(zip(tails, heads))
        vertices = {0}.union(*ends)
        if len(next(_components(vertices, ends, (0,)))) < len(vertices):
            raise DiagramError("diagram disconnected after cancellation")

    # -- export ----------------------------------------------------------

    def freeze(self, x: OneRelatorOrbicomplex) -> VanKampenDiagram:
        complex_, boundary = self.snapshot()
        require_valid(complex_)
        labeling = by_labels(complex_, x)._replace(cell_map={
            cid: CellImage("d0", *a) for cid, a in self.cell_align.items()})
        return VanKampenDiagram(complex_, boundary, self.readout(), labeling)


def _mirror_at(e, sides, path_of, label):
    """The first two of ``sides``, the (cell, position) pairs over edge
    ``e`` in order, whose cells read the relator power inversely from it, as
    (edge, cell, position, cell, position), or None; ``path_of`` gives a
    cell's dart path and ``label`` a dart's letter.  Both darts lie over
    ``e``.  A cell that mirrors itself is unresolvable."""
    for i1, (c1, p1) in enumerate(sides):
        path1 = path_of(c1)
        m = len(path1)
        for c2, p2 in sides[i1 + 1:]:
            path2 = path_of(c2)
            if len(path2) != m:
                continue
            if any(label(path1[(p1 + t) % m])
                   != inverse_letter(label(path2[(p2 - t) % m]))
                   for t in range(m)):
                continue
            if c1 == c2:
                raise DiagramError(
                    "cell mirrors itself across an edge; "
                    "cancellation impossible")
            return (e, c1, p1, c2, p2)
    return None


def find_mirror(c: TwoComplex):
    """First edge, in id order, whose two sides read the relator power
    inversely from the shared edge, as (edge, cell, position, cell,
    position); same-cell hits are unresolvable."""
    for e in sorted(c.sides_over):
        hit = _mirror_at(e, c.sides_over[e], c.cells.__getitem__,
                         c.skeleton.dart_label)
        if hit is not None:
            return hit
    return None


def _replay_conjugates(u: Word, x: OneRelatorOrbicomplex, steps):
    """Recover (prefix, rotation word, cell alignment) per trace step."""
    m = len(x.relator) * x.branch_index
    out = []
    for step in steps:
        r, length = step.rotation, step.length
        # a step off the table reads no rotation
        rot, inv_rot = x._rotations.get((r, step.sign), ((), ()))
        if u[step.position:step.position + length] != rot[:length]:
            raise DiagramError(f"trace step {step} does not read its rotation")
        align = (r, 1) if step.sign > 0 else ((m - 1 - r) % m, -1)
        out.append((u[:step.position], rot, align))
        u, _ = splice(u, step.position, step.position + length,
                      inv_rot[:m - length])
    if u:
        raise DiagramError("trace does not reduce the word to nothing")
    return out


def build_reduced_diagram(u: Word, x: OneRelatorOrbicomplex) -> VanKampenDiagram:
    """Disk diagram whose boundary spells the free reduction of ``u``.

    Raises ValueError when the branch index is below 2, when a letter of
    ``u`` fails ``_check_letters``, or when ``u`` is nontrivial in the group.
    """
    reduced_u = free_reduce(u)
    if len(reduced_u) < len(u):
        # dehn_solve checks the letters that are left, not those that cancel
        _check_letters(u, x.gamma.edges)
    result = dehn_solve(reduced_u, x)
    if not result.trivial:
        raise ValueError("word is nontrivial; it bounds no disk diagram")

    builder = _DiskBuilder("v0")
    for j, (stem, rho, align) in enumerate(
            _replay_conjugates(reduced_u, x, result.steps)):
        builder.add_lollipop(j, stem, rho, align)
    counts = builder.check_disk()
    if free_reduce(builder.readout()) != reduced_u:
        raise DiagramError("lollipop wedge does not spell the word")
    builder.sew(counts)
    if builder.readout() != reduced_u:
        raise DiagramError("boundary readout drifted during sewing")
    builder.cancel_mirrors(builder.check_disk())
    if builder.readout() != reduced_u:
        raise DiagramError("boundary readout drifted during cancellation")
    builder.check_disk()
    diagram = builder.freeze(x)
    witness = _check_morphism(diagram.labeling)
    if witness is not None:
        raise DiagramError(f"diagram labelling is not a morphism: {witness}")
    return diagram


def mirror_witness(d: VanKampenDiagram):
    """Re-derive the reduced certificate on a frozen diagram; None when reduced."""
    return find_mirror(d.diagram)
