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

from dataclasses import dataclass

from .complexes import (Dart, EdgeRec, Graph, MapKind, TwoComplex,
                        dart_reverse, require_valid, reverse_path)
from .errors import DiagramError
from .orbicomplex import (OneRelatorOrbicomplex, OrbiMorphism,
                          check_orbi_immersion)
from .words import Letter, Word, dehn_solve, free_reduce, inverse_letter, inverse_word


@dataclass(frozen=True)
class VanKampenDiagram:
    """Disk diagram: every 2-cell spells the relator power of the target."""

    diagram: TwoComplex
    boundary: tuple[Dart, ...]
    boundary_word: Word
    labeling: OrbiMorphism
    reduced: bool


def _symbol_table(x: OneRelatorOrbicomplex) -> dict[str, str]:
    # label -> edge id of the base graph; diagrams only make sense over a
    # one-vertex base with uniquely labelled edges (words are label sequences).
    if len(x.gamma.vertices) != 1:
        raise ValueError("diagram construction requires a one-vertex base graph")
    table: dict[str, str] = {}
    for eid, rec in x.gamma.edges.items():
        if rec.label is None or rec.label in table:
            raise ValueError("base graph edges must carry distinct labels")
        table[rec.label] = eid
    return table


class _DiskBuilder:
    """Mutable labelled 2-complex with an explicit based boundary circuit.

    Edges are always oriented so that the forward dart reads a positive
    letter; folds therefore never reverse an edge.
    """

    def __init__(self, base: str):
        self.base = base
        self.vertices: set[str] = {base}
        self.edges: dict[str, tuple[str, str]] = {}
        self.edge_sym: dict[str, str] = {}
        self.cells: dict[str, list[Dart]] = {}
        self.cell_align: dict[str, tuple[int, int]] = {}
        self.boundary: list[Dart] = []
        self._edge_sub: dict[str, str] = {}
        self._vertex_sub: dict[str, str] = {}

    # -- resolution through past merges ---------------------------------

    def _vfind(self, v: str) -> str:
        while v in self._vertex_sub:
            v = self._vertex_sub[v]
        return v

    def resolve(self, d: Dart) -> Dart:
        e, s = d
        while e in self._edge_sub:
            e = self._edge_sub[e]
        return (e, s)

    # -- primitives ------------------------------------------------------

    def letter(self, d: Dart) -> Letter:
        return (self.edge_sym[d[0]], d[1])

    def dart_ends(self, d: Dart) -> tuple[str, str]:
        tail, head = self.edges[d[0]]
        return (tail, head) if d[1] > 0 else (head, tail)

    def new_edge(self, eid: str, cur: str, nxt: str, letter: Letter) -> Dart:
        sym, sign = letter
        self.edges[eid] = (cur, nxt) if sign > 0 else (nxt, cur)
        self.edge_sym[eid] = sym
        self.vertices.update((cur, nxt))
        return (eid, sign)

    def merge_vertices(self, a: str, b: str) -> None:
        a, b = self._vfind(a), self._vfind(b)
        if a == b:
            return
        if b == self.base or (a != self.base and b < a):
            a, b = b, a
        self._vertex_sub[b] = a
        self.edges = {e: (a if t == b else t, a if h == b else h)
                      for e, (t, h) in self.edges.items()}
        self.vertices.discard(b)

    def identify_darts(self, d1: Dart, d2: Dart) -> None:
        d1, d2 = self.resolve(d1), self.resolve(d2)
        if d1 == d2:
            return
        (e1, s1), (e2, s2) = d1, d2
        if self.letter(d1) != self.letter(d2):
            raise DiagramError("cannot identify darts with different labels")
        if e1 == e2:
            raise DiagramError("edge folded onto its own reverse")
        o1, t1 = self.dart_ends(d1)
        o2, t2 = self.dart_ends(d2)
        # orientation normalization makes every merge sign-preserving
        assert s1 == s2
        self._edge_sub[e2] = e1
        del self.edges[e2]
        del self.edge_sym[e2]
        sub = lambda d: (e1, d[1]) if d[0] == e2 else d
        for path in self.cells.values():
            path[:] = [sub(d) for d in path]
        self.boundary = [sub(d) for d in self.boundary]
        self.merge_vertices(o1, o2)
        self.merge_vertices(t1, t2)

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

    def side_count(self, e: str) -> int:
        return sum(1 for path in self.cells.values() for d in path if d[0] == e)

    def boundary_count(self, e: str) -> int:
        return sum(1 for d in self.boundary if d[0] == e)

    def readout(self) -> Word:
        return tuple(self.letter(d) for d in self.boundary)

    def check_disk(self) -> None:
        for e in self.edges:
            carried = self.side_count(e) + self.boundary_count(e)
            if carried != 2:
                raise DiagramError(f"edge {e} carried {carried} times, expected 2")

    # -- boundary sewing -------------------------------------------------

    def sew(self) -> None:
        """Cancel adjacent inverse boundary letters until the readout is reduced."""
        while True:
            word = self.readout()
            hit = next((i for i in range(len(word) - 1)
                        if word[i + 1] == inverse_letter(word[i])), None)
            if hit is None:
                return
            d1, d2 = self.boundary[hit], self.boundary[hit + 1]
            if d2 == dart_reverse(d1):
                del self.boundary[hit:hit + 2]
                e = d1[0]
                if self.side_count(e) or self.boundary_count(e):
                    raise DiagramError(f"spur edge {e} still carried elsewhere")
                tip = self.dart_ends(d1)[1]
                del self.edges[e]
                del self.edge_sym[e]
                if tip != self.base and all(tip not in ends
                                            for ends in self.edges.values()):
                    self.vertices.discard(tip)
            else:
                self.identify_darts(dart_reverse(d1), d2)
                del self.boundary[hit:hit + 2]

    # -- mirror cancellation ---------------------------------------------

    def _read_forward(self, cid: str, pos: int) -> Word:
        path = self.cells[cid]
        m = len(path)
        return tuple(self.letter(path[(pos + t) % m]) for t in range(m))

    def _read_backward(self, cid: str, pos: int) -> Word:
        path = self.cells[cid]
        m = len(path)
        return tuple(inverse_letter(self.letter(path[(pos - t) % m]))
                     for t in range(m))

    def find_mirror(self):
        """First interior edge whose two sides read the relator power
        inversely from the shared edge; same-cell hits are unresolvable."""
        for e in sorted(self.edges):
            sides = [(cid, pos) for cid in sorted(self.cells)
                     for pos, d in enumerate(self.cells[cid]) if d[0] == e]
            for i1 in range(len(sides)):
                for i2 in range(i1 + 1, len(sides)):
                    (c1, p1), (c2, p2) = sides[i1], sides[i2]
                    if self.cells[c2][p2] != dart_reverse(self.cells[c1][p1]):
                        continue
                    if self._read_forward(c1, p1) != self._read_backward(c2, p2):
                        continue
                    if c1 == c2:
                        raise DiagramError(
                            "cell mirrors itself across an edge; "
                            "cancellation impossible")
                    return (e, c1, p1, c2, p2)
        return None

    def cancel_mirror(self, hit) -> None:
        e, c1, p1, c2, p2 = hit
        path1 = self.cells.pop(c1)
        path2 = self.cells.pop(c2)
        del self.cell_align[c1], self.cell_align[c2]
        if self.side_count(e) or self.boundary_count(e):
            raise DiagramError(f"mirror edge {e} still carried elsewhere")
        del self.edges[e]
        del self.edge_sym[e]
        m = len(path1)
        for t in range(1, m):
            self.identify_darts(path1[(p1 + t) % m],
                                dart_reverse(path2[(p2 - t) % m]))
        self.prune_dangling()

    def prune_dangling(self) -> None:
        while True:
            loose = [e for e in self.edges
                     if not self.side_count(e) and not self.boundary_count(e)]
            if not loose:
                break
            for e in loose:
                del self.edges[e]
                del self.edge_sym[e]
        used = {v for ends in self.edges.values() for v in ends} | {self.base}
        self.vertices &= used
        reached = {self.base}
        frontier = [self.base]
        while frontier:
            v = frontier.pop()
            for t, h in self.edges.values():
                for a, b in ((t, h), (h, t)):
                    if a == v and b not in reached:
                        reached.add(b)
                        frontier.append(b)
        if reached != self.vertices:
            raise DiagramError("diagram disconnected after cancellation")

    # -- export ----------------------------------------------------------

    def freeze(self, x: OneRelatorOrbicomplex,
               symbols: dict[str, str]) -> tuple[TwoComplex, OrbiMorphism]:
        gamma_vertex = next(iter(x.gamma.vertices))
        skeleton = Graph(
            frozenset(self.vertices),
            {e: EdgeRec(t, h, self.edge_sym[e])
             for e, (t, h) in self.edges.items()})
        complex_ = TwoComplex(skeleton,
                              {cid: tuple(path)
                               for cid, path in self.cells.items()},
                              base_vertex=self.base)
        require_valid(complex_)
        labeling = OrbiMorphism(
            complex_, x,
            vertex_map={v: gamma_vertex for v in self.vertices},
            edge_map={e: (symbols[self.edge_sym[e]], 1) for e in self.edges},
            cell_align=dict(self.cell_align))
        return complex_, labeling


def _replay_conjugates(u: Word, x: OneRelatorOrbicomplex, steps):
    """Recover (prefix, rotation word, cell alignment) per trace step."""
    q = x.relator_word() * x.branch_index
    m = len(q)
    out = []
    for step in steps:
        rp = q if step.sign > 0 else inverse_word(q)
        rot = rp[step.rotation:] + rp[:step.rotation]
        assert u[step.position:step.position + step.length] == rot[:step.length]
        align = (step.rotation, 1) if step.sign > 0 \
            else ((m - 1 - step.rotation) % m, -1)
        out.append((u[:step.position], rot, align))
        u = free_reduce(u[:step.position]
                        + inverse_word(rot[step.length:])
                        + u[step.position + step.length:])
    assert u == ()
    return out


def build_reduced_diagram(u: Word, x: OneRelatorOrbicomplex) -> VanKampenDiagram:
    """Disk diagram whose boundary spells the free reduction of ``u``.

    Raises ValueError when ``u`` is nontrivial in the group of ``x``.
    """
    symbols = _symbol_table(x)
    reduced_u = free_reduce(u)
    if not reduced_u:
        skeleton = Graph(frozenset({"v0"}), {})
        complex_ = TwoComplex(skeleton, {}, base_vertex="v0")
        return VanKampenDiagram(complex_, (), (),
                                OrbiMorphism.by_labels(complex_, x), True)
    result = dehn_solve(reduced_u, x)
    if not result.trivial:
        raise ValueError("word is nontrivial; it bounds no disk diagram")

    builder = _DiskBuilder("v0")
    for j, (stem, rho, align) in enumerate(
            _replay_conjugates(reduced_u, x, result.steps)):
        builder.add_lollipop(j, stem, rho, align)
    builder.check_disk()
    assert free_reduce(builder.readout()) == reduced_u
    builder.sew()
    if builder.readout() != reduced_u:
        raise DiagramError("boundary readout drifted during sewing")
    builder.check_disk()
    while (hit := builder.find_mirror()) is not None:
        builder.cancel_mirror(hit)
        if builder.readout() != reduced_u:
            raise DiagramError("boundary readout drifted during cancellation")
        builder.check_disk()
    complex_, labeling = builder.freeze(x, symbols)
    cls = check_orbi_immersion(labeling)
    if cls.kind < MapKind.MORPHISM:
        raise DiagramError(f"diagram labelling is not a morphism: {cls.witness}")
    return VanKampenDiagram(complex_, tuple(builder.boundary),
                            builder.readout(), labeling, True)


def mirror_witness(d: VanKampenDiagram):
    """Re-derive the reduced certificate on a frozen diagram; None when reduced."""
    builder = _DiskBuilder(d.diagram.base_vertex or "v0")
    builder.vertices = set(d.diagram.skeleton.vertices)
    builder.edges = {e: (rec.tail, rec.head)
                     for e, rec in d.diagram.skeleton.edges.items()}
    builder.edge_sym = {e: rec.label
                        for e, rec in d.diagram.skeleton.edges.items()}
    builder.cells = {cid: list(path) for cid, path in d.diagram.cells.items()}
    builder.cell_align = dict(d.labeling.cell_align)
    builder.boundary = list(d.boundary)
    return builder.find_mirror()
