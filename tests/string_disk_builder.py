"""The disk builder on string names, kept as the reference for the numbered
one in ``orelco.diagrams``.

``StringDiskBuilder`` names every edge and vertex when it makes it, keeps
edge records and dart pairs in dicts and lists, and rewrites the survivors'
names into the complex at each ``settle``; ``reference_build`` runs the
whole construction on it.  The numbered builder must make the same names,
the same diagram and the same errors.
"""

import heapq
from collections import Counter, defaultdict
from itertools import chain
from operator import itemgetter

from orelco.complexes import (CellImage, CellMorphism, Dart, EdgeRec, Graph,
                              TwoComplex, _check_morphism, dart_reverse,
                              require_valid, reverse_path)
from orelco.diagrams import VanKampenDiagram
from orelco.errors import DiagramError
from orelco.orbicomplex import OneRelatorOrbicomplex, by_labels
from orelco.words import (Letter, Word, _check_letters, dehn_solve,
                          free_reduce, inverse_letter, inverse_word, splice)


class StringDiskBuilder:
    """Mutable labelled 2-complex with an explicit based boundary circuit.

    Edges are always oriented so that the forward dart reads a positive
    letter; folds therefore never reverse an edge.  The vertices are the
    base plus the ends of the live edges.

    Identifications are recorded in two union-finds and not written into
    the complex: cell paths and the boundary may name a folded edge, and
    edge records a merged vertex, until ``settle`` rewrites them.  Readers
    resolve names through ``edge_of`` and ``vertex_of``.

    A label table maps every edge id ``new_edge`` made, folded or not, to
    its symbol, so ``letter`` reads a dart's letter without resolving its
    edge: ``identify_darts`` folds only darts of one letter, so an id and
    its survivor always carry the same symbol.
    """

    def __init__(self, base: str):
        self.base = base
        self.edges: dict[str, EdgeRec] = {}
        self.cells: dict[str, list[Dart]] = {}
        self.cell_align: dict[str, tuple[int, int]] = {}
        self.boundary: list[Dart] = []
        self._label: dict[str, str] = {}           # edge id -> symbol
        self._edge_parent: dict[str, str] = {}     # folded edge -> survivor
        self._vertex_parent: dict[str, str] = {}   # merged vertex -> survivor

    @staticmethod
    def _find(parent: dict[str, str], x: str) -> str:
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def edge_of(self, e: str) -> str:
        return self._find(self._edge_parent, e)

    def vertex_of(self, v: str) -> str:
        return self._find(self._vertex_parent, v)

    def settle(self) -> None:
        """Write the surviving edge and vertex names into the complex.  A
        name read before a settle is not resolved after it."""
        merged = self._vertex_parent
        if merged:
            vx = self.vertex_of
            for e, (t, h, sym) in self.edges.items():
                if t in merged or h in merged:
                    self.edges[e] = EdgeRec(vx(t), vx(h), sym)
            merged.clear()
        if self._edge_parent:
            folded = self._edge_parent
            for path in (*self.cells.values(), self.boundary):
                for i, (e, s) in enumerate(path):
                    if e in folded:
                        path[i] = (self.edge_of(e), s)
            folded.clear()

    @property
    def vertices(self) -> set[str]:
        self.settle()
        return {self.base}.union(*(rec[:2] for rec in self.edges.values()))

    def snapshot(self) -> TwoComplex:
        self.settle()
        return TwoComplex(Graph(frozenset(self.vertices), dict(self.edges)),
                          {cid: tuple(path) for cid, path in self.cells.items()},
                          base_vertex=self.base)

    # -- primitives ------------------------------------------------------

    def letter(self, d: Dart) -> Letter:
        return (self._label[d[0]], d[1])

    def new_edge(self, eid: str, cur: str, nxt: str, letter: Letter) -> Dart:
        sym, sign = letter
        self._label[eid] = sym
        self.edges[eid] = (EdgeRec(cur, nxt, sym) if sign > 0
                           else EdgeRec(nxt, cur, sym))
        return (eid, sign)

    def merge_vertices(self, a: str, b: str) -> None:
        """The base survives a merge, otherwise the smaller name."""
        a, b = self.vertex_of(a), self.vertex_of(b)
        if a == b:
            return
        if b == self.base or (a != self.base and b < a):
            a, b = b, a
        self._vertex_parent[b] = a

    def identify_darts(self, d1: Dart, d2: Dart) -> tuple[str, str] | None:
        """Fold dart ``d2`` onto ``d1``: the ends of the two darts merge and
        the edge of ``d2`` becomes that of ``d1``.  Returns the surviving and
        the folded edge, or None when the darts are already one."""
        d1, d2 = (self.edge_of(d1[0]), d1[1]), (self.edge_of(d2[0]), d2[1])
        if d1 == d2:
            return None
        # a letter carries its dart's sign, so equal letters of two distinct
        # darts lie on distinct edges with one orientation
        if self.letter(d1) != self.letter(d2):
            raise DiagramError("cannot identify darts with different labels")
        e1, e2 = d1[0], d2[0]
        for end in (0, 1):      # same orientation: tails meet, heads meet
            self.merge_vertices(self.edges[e1][end], self.edges[e2][end])
        del self.edges[e2]
        self._edge_parent[e2] = e1
        return e1, e2

    # -- construction ----------------------------------------------------

    def add_lollipop(self, j: int, stem: Word, rho: Word,
                     align: tuple[int, int]) -> None:
        cur = self.base
        stem_darts: list[Dart] = []
        for t, letter in enumerate(stem):
            nxt = f"u{j}.{t + 1}"
            stem_darts.append(self.new_edge(f"s{j}.{t}", cur, nxt, letter))
            cur = nxt
        tip = cur
        ring: list[Dart] = []
        m = len(rho)
        for i, letter in enumerate(rho):
            nxt = tip if i == m - 1 else f"c{j}.{i + 1}"
            ring.append(self.new_edge(f"e{j}.{i}", cur, nxt, letter))
            cur = nxt
        cid = f"D{j}"
        self.cells[cid] = list(ring)
        self.cell_align[cid] = align
        self.boundary.extend(stem_darts + ring + list(reverse_path(stem_darts)))

    # -- accounting ------------------------------------------------------

    def carried(self) -> Counter[str]:
        """Times each edge is traversed by cell sides plus the boundary."""
        self.settle()
        return Counter(map(itemgetter(0),
                           chain(*self.cells.values(), self.boundary)))

    def readout(self) -> Word:
        label = self._label
        return tuple([(label[e], s) for e, s in self.boundary])

    def check_disk(self) -> None:
        counts = self.carried()
        for e in self.edges:
            if counts[e] != 2:
                raise DiagramError(
                    f"edge {e} carried {counts[e]} times, expected 2")

    # -- boundary sewing -------------------------------------------------

    def sew(self) -> None:
        """Cancel adjacent inverse boundary letters until the readout is
        reduced, in one pass: the stack holds the reduced boundary read so
        far, and each next dart either cancels its top or goes on it.  The
        darts are compared by their letters, and only a cancelling pair is
        resolved: a dart followed by its own reverse is a spur, whose edge
        goes, and any other pair folds its second dart onto the reverse of
        its first.  This makes the cancellations of a left-to-right free
        reduction, in its order."""
        counts = self.carried()
        edge_of, label = self.edge_of, self._label
        stack: list[Dart] = []
        for d in self.boundary:
            if not (stack and stack[-1][1] == -d[1]
                    and label[stack[-1][0]] == label[d[0]]):
                stack.append(d)
                continue
            e1, s1 = stack.pop()
            e, e2 = edge_of(e1), edge_of(d[0])
            if e == e2:
                if counts[e] != 2:
                    raise DiagramError(f"spur edge {e} still carried elsewhere")
                del self.edges[e]
            else:
                self.identify_darts((e, -s1), (e2, d[1]))
                counts[e] += counts.pop(e2) - 2
        self.boundary = stack

    # -- mirror cancellation ---------------------------------------------

    def cancel_mirrors(self) -> None:
        """Cancel mirror pairs, the first edge in id order first, until none
        is left: zip the two cells of a pair together along their
        boundaries, then remove both cells and every edge left uncarried.

        The sides over each edge and the carried counts are built once and
        kept up to date: a zip moves the folded edge's sides to the
        survivor, and the cancelled cells' sides go.  Whether an edge has a
        mirror pair depends only on the sides over it, so an edge that was
        tested and whose sides have not grown since cannot have one.  The
        candidate heap therefore holds every edge with two sides at the
        start and takes back each survivor of a zip."""
        counts = self.carried()
        cells, edges = self.cells, self.edges
        sides: dict[str, list[tuple[str, int]]] = {e: [] for e in edges}
        for cid in sorted(cells):
            for pos, (e, _) in enumerate(cells[cid]):
                sides[e].append((cid, pos))
        todo = sorted(e for e, over in sides.items() if len(over) > 1)
        while todo:             # a sorted list is a heap
            e = heapq.heappop(todo)
            if e not in sides:      # folded or deleted since it was pushed
                continue
            hit = _mirror_at(e, sides[e], cells.__getitem__, self.letter)
            if hit is None:
                continue
            _, c1, p1, c2, p2 = hit
            if counts[e] != 2:
                raise DiagramError(f"mirror edge {e} still carried elsewhere")
            path1, path2 = cells[c1], cells[c2]
            m = len(path1)
            for t in range(1, m):
                folded = self.identify_darts(path1[(p1 + t) % m],
                                             dart_reverse(path2[(p2 - t) % m]))
                if folded is None:
                    continue
                e1, e2 = folded
                for cid, pos in sides[e2]:
                    cells[cid][pos] = (e1, cells[cid][pos][1])
                sides[e1] = sorted(sides[e1] + sides.pop(e2))
                counts[e1] += counts.pop(e2)
                heapq.heappush(todo, e1)
            touched = set()
            for cid in (c1, c2):
                for pos, (f, _) in enumerate(cells.pop(cid)):
                    sides[f].remove((cid, pos))
                    counts[f] -= 1
                    touched.add(f)
                del self.cell_align[cid]
            for f in sorted(touched):
                if not counts[f]:
                    del edges[f], sides[f], counts[f]
                elif counts[f] != 2:
                    raise DiagramError(
                        f"edge {f} carried {counts[f]} times, expected 2")
        # No step adds an edge, and a zip merges only vertices of two cells
        # that share an edge, so a component split off from the base stays
        # split: one search after the loop finds every split.
        self.settle()
        links: defaultdict[str, list[str]] = defaultdict(list)
        for t, h, _ in self.edges.values():
            links[t].append(h)
            links[h].append(t)
        seen, todo = {self.base}, [self.base]
        while todo:
            for w in links[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) < len(links):
            raise DiagramError("diagram disconnected after cancellation")

    # -- export ----------------------------------------------------------

    def freeze(self,
               x: OneRelatorOrbicomplex) -> tuple[TwoComplex, CellMorphism]:
        complex_ = self.snapshot()
        require_valid(complex_)
        labeling = by_labels(complex_, x)._replace(cell_map={
            cid: CellImage("d0", *align)
            for cid, align in self.cell_align.items()})
        return complex_, labeling


def _mirror_at(e: str, sides, path_of, label):
    """The first two of ``sides``, the (cell, position) pairs over edge
    ``e`` in order, whose cells read the relator power inversely from it, as
    (edge, cell, position, cell, position), or None; ``path_of`` gives a
    cell's dart path and ``label`` a dart's letter.  A cell that mirrors
    itself is unresolvable."""
    for i1, (c1, p1) in enumerate(sides):
        path1 = path_of(c1)
        m = len(path1)
        for c2, p2 in sides[i1 + 1:]:
            path2 = path_of(c2)
            if path2[p2] != dart_reverse(path1[p1]) or len(path2) != m:
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


def _replay_conjugates(u: Word, x: OneRelatorOrbicomplex, steps):
    """Recover (prefix, rotation word, cell alignment) per trace step."""
    q = x.relator_power_path()
    m = len(q)
    out = []
    for step in steps:
        rp = q if step.sign > 0 else inverse_word(q)
        rot = rp[step.rotation:] + rp[:step.rotation]
        if u[step.position:step.position + step.length] != rot[:step.length]:
            raise DiagramError(f"trace step {step} does not read its rotation")
        align = (step.rotation, 1) if step.sign > 0 \
            else ((m - 1 - step.rotation) % m, -1)
        out.append((u[:step.position], rot, align))
        u, _ = splice(u, step.position, step.position + step.length,
                      inverse_word(rot[step.length:]))
    if u:
        raise DiagramError("trace does not reduce the word to nothing")
    return out


def reference_build(u: Word, x: OneRelatorOrbicomplex) -> VanKampenDiagram:
    """Disk diagram whose boundary spells the free reduction of ``u``.

    Raises ValueError when ``u`` has a letter that is not a loop of the
    rose or is nontrivial in the group of ``x``.
    """
    reduced_u = free_reduce(u)
    if not reduced_u:
        # dehn_solve checks the letters of a word that does not cancel away
        _check_letters(u, x.gamma.edges)
        complex_ = StringDiskBuilder("v0").snapshot()
        return VanKampenDiagram(complex_, (), (),
                                by_labels(complex_, x))
    result = dehn_solve(reduced_u, x)
    if not result.trivial:
        raise ValueError("word is nontrivial; it bounds no disk diagram")

    builder = StringDiskBuilder("v0")
    for j, (stem, rho, align) in enumerate(
            _replay_conjugates(reduced_u, x, result.steps)):
        builder.add_lollipop(j, stem, rho, align)
    builder.check_disk()
    if free_reduce(builder.readout()) != reduced_u:
        raise DiagramError("lollipop wedge does not spell the word")
    builder.sew()
    if builder.readout() != reduced_u:
        raise DiagramError("boundary readout drifted during sewing")
    builder.check_disk()
    builder.cancel_mirrors()
    if builder.readout() != reduced_u:
        raise DiagramError("boundary readout drifted during cancellation")
    builder.check_disk()
    complex_, labeling = builder.freeze(x)
    witness = _check_morphism(labeling)
    if witness is not None:
        raise DiagramError(f"diagram labelling is not a morphism: {witness}")
    return VanKampenDiagram(complex_, tuple(builder.boundary),
                            builder.readout(), labeling)
