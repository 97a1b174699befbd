"""Subgroup presentation pipeline: seed, refine, stabilize.

Given subgroup generators, the pipeline intersects with the cover stabilizer,
seeds an immersed wedge over the unwrapped cover, and then repeatedly tests
candidate loops for triviality, gluing a reduced disk diagram whenever a
trivial candidate is not yet witnessed by an existing cell.  Each gluing is a
base-point merge followed by an ordinary fold, then a free-face collapse.  The
run stabilizes when a full sweep of candidates up to the length budget leaves
the combinatorial type unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

from .complexes import (CellImage, CellMorphism, Dart, EdgeRec, Graph,
                        MapKind, TwoComplex, cell_image_path, classify_map,
                        collapse, collapse_with_rewrites, compose,
                        connected_components, dart_sort_key,
                        euler_characteristic, find_free_faces_and_edges,
                        require_valid, reverse_path)
from .covers import UnwrappedCover, build_unwrapped_cover, \
    find_exponent_n_quotient, pull_back_subgroup, schreier_path, verify_cover
from .diagrams import build_reduced_diagram
from .errors import PipelineInvariantError
from .folding import _canonical_cell_key, fold
from .orbicomplex import OneRelatorOrbicomplex
from .words import Word, dehn_solve, free_reduce, inverse_word, least_rotation

# ---------------------------------------------------------------------------
# state


@dataclass(frozen=True)
class ChainStep:
    """One refinement that changed the complex: the map into the folded
    intermediate, and that intermediate's immersion into the cover."""

    chain_map: CellMorphism
    intermediate_to_cover: CellMorphism
    candidate: tuple
    f_word: Word


@dataclass(frozen=True)
class PipelineState:
    cover: UnwrappedCover
    stage: int
    current: TwoComplex
    to_cover: CellMorphism
    chain: tuple[ChainStep, ...]
    cursor: int
    stable_for: int
    seed_generator_count: int
    seed_free_edges: int
    max_word_len: int
    max_stages: int
    gen_paths: tuple[tuple[Dart, ...], ...]

    @property
    def orbicomplex(self) -> OneRelatorOrbicomplex:
        return self.cover.covering_map.target


@dataclass(frozen=True)
class Presentation:
    symbols: tuple[str, ...]
    relators: tuple[Word, ...]
    gen_words: tuple[Word, ...]
    stage: int
    certificate_level: int
    conclusive: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class StageRow:
    stage: int
    chi1: int
    chi2: int
    cells: int
    free_edges: int
    cursor: int
    stable_for: int


@dataclass(frozen=True)
class PipelineReport:
    rows: tuple[StageRow, ...]
    notes: tuple[str, ...]


def _cell_bound(state: PipelineState) -> int:
    n = state.orbicomplex.branch_index
    return (state.seed_generator_count - 1) // (n - 1)


def _invariant(cond: bool, message: str, state: PipelineState) -> None:
    if not cond:
        y = state.current
        dump = (f"stage={state.stage} cursor={state.cursor} "
                f"V={len(y.skeleton.vertices)} E={len(y.skeleton.edges)} "
                f"cells={len(y.cells)}")
        raise PipelineInvariantError(message, dump)


# ---------------------------------------------------------------------------
# canonical traversal


@dataclass(frozen=True)
class _Frame:
    vertex_names: dict[str, str]
    tree_paths: dict[str, tuple[Dart, ...]]
    gens: tuple[Dart, ...]          # one canonical dart per non-tree edge


def _bfs_frame(y: TwoComplex, m: CellMorphism) -> _Frame:
    """Breadth-first frame from the base, darts ordered by their images;
    immersions over a fixed target make this ordering canonical."""
    base = y.base_vertex
    names = {base: "v0"}
    tree_paths: dict[str, tuple[Dart, ...]] = {base: ()}
    gens: list[Dart] = []
    seen_edges: set[str] = set()
    queue = [base]
    while queue:
        v = queue.pop(0)
        for d in sorted(y.skeleton.darts_at(v),
                        key=lambda d: dart_sort_key(m.dart_image(d))):
            e = d[0]
            if e in seen_edges:
                continue
            seen_edges.add(e)
            w = y.skeleton.dart_terminus(d)
            if w in names:
                gens.append(d)
            else:
                names[w] = f"v{len(names)}"
                tree_paths[w] = tree_paths[v] + (d,)
                queue.append(w)
    if len(seen_edges) != len(y.skeleton.edges):
        raise PipelineInvariantError("complex is not connected from the base")
    return _Frame(names, tree_paths, tuple(gens))


def canonical_signature(y: TwoComplex, m: CellMorphism):
    """Isomorphism-over-target invariant: relabel by breadth-first discovery,
    orient each edge to read its image positively, and normalize each cell up
    to rotation and reflection."""
    frame = _bfs_frame(y, m)
    keyed = []
    for e in y.skeleton.edges:
        rec = y.skeleton.edges[e]
        img_e, img_s = m.edge_map[e]
        if img_s > 0:
            key = (frame.vertex_names[rec.tail], frame.vertex_names[rec.head],
                   img_e)
        else:
            key = (frame.vertex_names[rec.head], frame.vertex_names[rec.tail],
                   img_e)
        keyed.append((key, e, img_s))
    edge_names: dict[str, tuple[str, int]] = {}
    edge_items = []
    for k, (key, e, flip) in enumerate(sorted(keyed)):
        edge_names[e] = (f"e{k}", flip)
        edge_items.append(key)
    cell_keys = []
    for cid in y.cells:
        path = tuple((edge_names[e][0], s * edge_names[e][1])
                     for e, s in y.cells[cid])
        cell_keys.append(_canonical_cell_key(path, m.cell_map[cid]))
    return (len(frame.vertex_names), tuple(edge_items),
            tuple(sorted(cell_keys)))


def isomorphic_over_cover(y1: TwoComplex, m1: CellMorphism,
                          y2: TwoComplex, m2: CellMorphism) -> bool:
    return canonical_signature(y1, m1) == canonical_signature(y2, m2)


# ---------------------------------------------------------------------------
# seeding


def _restrict(m: CellMorphism, sub: TwoComplex) -> CellMorphism:
    return CellMorphism(
        sub, m.target,
        {v: m.vertex_map[v] for v in sub.skeleton.vertices},
        {e: m.edge_map[e] for e in sub.skeleton.edges},
        {c: m.cell_map[c] for c in sub.cells})


def seed_immersion(generators: list[Word],
                   cover: UnwrappedCover) -> PipelineState:
    """Fold a wedge of loops spelling the generators as paths in the cover."""
    kept = [free_reduce(g) for g in generators]
    kept = [g for g in kept if g]
    if not kept:
        raise ValueError("at least one nonempty generator is required")
    x0 = cover.covering_map.source
    base = f"p{cover.quotient.base_point}"
    vertices = {"v0"}
    edges: dict[str, EdgeRec] = {}
    vmap = {"v0": base}
    emap: dict[str, Dart] = {}
    loops: list[tuple[Dart, ...]] = []
    for j, gen in enumerate(kept):
        path, end = schreier_path(cover.quotient, gen, cover.quotient.base_point)
        if end != cover.quotient.base_point:
            raise ValueError(
                f"generator {j} is not a closed loop at the base vertex")
        cur = "v0"
        loop: list[Dart] = []
        for t, dart in enumerate(path):
            nxt = "v0" if t == len(path) - 1 else f"v{j}.{t + 1}"
            eid = f"w{j}.{t}"
            tail, head = (cur, nxt) if dart[1] > 0 else (nxt, cur)
            edges[eid] = EdgeRec(tail, head, None)
            vertices.update((cur, nxt))
            emap[eid] = (dart[0], 1)
            vmap[cur] = x0.skeleton.dart_origin(dart)
            vmap[nxt] = x0.skeleton.dart_terminus(dart)
            loop.append((eid, dart[1]))
            cur = nxt
        loops.append(tuple(loop))
    wedge = TwoComplex(Graph(frozenset(vertices), edges), {}, base_vertex="v0")
    require_valid(wedge)
    folded = fold(CellMorphism(wedge, x0, vmap, emap, {}))
    y0 = collapse(folded.folded)
    if y0 != folded.folded:
        raise PipelineInvariantError("seed graph has free faces")
    state = PipelineState(
        cover=cover, stage=0, current=y0, to_cover=folded.inclusion, chain=(),
        cursor=0, stable_for=0,
        seed_generator_count=len(kept),
        seed_free_edges=len(find_free_faces_and_edges(y0)[1]),
        max_word_len=12, max_stages=200,
        gen_paths=tuple(free_reduce(folded.projection.path_image(loop))
                        for loop in loops))
    _check_stage(state)
    return state


def _check_stage(state: PipelineState) -> None:
    cls = classify_map(state.to_cover)
    _invariant(cls.kind >= MapKind.IMMERSION,
               f"stage map is not an immersion: {cls.witness}", state)
    faces, free_edges = find_free_faces_and_edges(state.current)
    _invariant(not faces, "stage complex has free faces", state)
    n = state.orbicomplex.branch_index
    if n >= 2:
        _invariant(len(state.current.cells) <= _cell_bound(state),
                   "2-cell count exceeds the rank bound", state)
    _invariant(len(free_edges) <= state.seed_free_edges,
               "free-edge count exceeds the seed bound", state)
    _invariant(len(connected_components(state.current.skeleton)) == 1,
               "stage complex is disconnected", state)
    g = state.current.skeleton
    for path in state.gen_paths:
        pos = state.current.base_vertex
        for d in path:
            _invariant(d[0] in g.edges and g.dart_origin(d) == pos,
                       "input generator no longer traces through the stage",
                       state)
            pos = g.dart_terminus(d)
        _invariant(pos == state.current.base_vertex,
                   "input generator no longer closes at the base", state)


# ---------------------------------------------------------------------------
# candidate enumeration


def _letter_key(letter: tuple[int, int]) -> tuple[int, int]:
    return (letter[0], 0 if letter[1] > 0 else 1)


def _canonical_cyclic(word: tuple[tuple[int, int], ...]) -> bool:
    keys = tuple(_letter_key(l) for l in word)
    m = len(word)
    inv = tuple(_letter_key((i, -s)) for i, s in reversed(word))
    for r in range(m):
        if keys[r:] + keys[:r] < keys:
            return False
        if inv[r:] + inv[:r] < keys:
            return False
    return True


def candidate_words(num_gens: int, max_len: int):
    """Freely and cyclically reduced words over the stage generators, by
    length then lexicographic order, one representative per class under
    rotation and inversion."""
    letters = sorted(((i, s) for i in range(num_gens) for s in (1, -1)),
                     key=_letter_key)

    def extend(word: tuple, target: int):
        if len(word) == target:
            if word[-1] != (word[0][0], -word[0][1]) and _canonical_cyclic(word):
                yield word
            return
        first_key = _letter_key(word[0])
        prev = word[-1]
        for l in letters:
            if _letter_key(l) < first_key:
                continue
            if l == (prev[0], -prev[1]):
                continue
            yield from extend(word + (l,), target)

    for target in range(1, max_len + 1):
        for l in letters:
            if l[1] < 0 and target == 1:
                continue  # inverse of a shorter representative
            yield from extend((l,), target)


def _generator_loop(d: Dart, frame: _Frame, y: TwoComplex) -> tuple[Dart, ...]:
    """Tree path to the non-tree dart ``d``, across it, and back to the base."""
    v, w = y.skeleton.dart_origin(d), y.skeleton.dart_terminus(d)
    return frame.tree_paths[v] + (d,) + reverse_path(frame.tree_paths[w])


def _candidate_loop(word, frame: _Frame, y: TwoComplex) -> tuple[Dart, ...]:
    path: list[Dart] = []
    for idx, sign in word:
        hop = _generator_loop(frame.gens[idx], frame, y)
        path.extend(hop if sign > 0 else reverse_path(hop))
    return free_reduce(path)


def _label_table(x0: TwoComplex) -> dict[str, str]:
    return {e: rec.label for e, rec in x0.skeleton.edges.items()}


def _path_word(path, m: CellMorphism, labels: dict[str, str]) -> Word:
    out = []
    for d in path:
        e, s = m.dart_image(d)
        out.append((labels[e], s))
    return tuple(out)


def _cycle_key(path: tuple[Dart, ...]):
    return min(least_rotation(path), least_rotation(reverse_path(path)))


# ---------------------------------------------------------------------------
# gluing and refinement


def _cover_lookup(x0: TwoComplex):
    out: dict[tuple[str, str], str] = {}
    inn: dict[tuple[str, str], str] = {}
    for e, rec in x0.skeleton.edges.items():
        kout, kin = (rec.tail, rec.label), (rec.head, rec.label)
        assert kout not in out and kin not in inn, \
            "cover skeleton is not a covering of a rose"
        out[kout] = e
        inn[kin] = e
    return out, inn


def _lift_diagram(diagram: TwoComplex, x0: TwoComplex, start_vertex: str):
    """Lift the rose-level diagram labeling through the covering skeleton,
    starting from the image of the diagram base."""
    out, inn = _cover_lookup(x0)
    g = diagram.skeleton
    vmap = {diagram.base_vertex: start_vertex}
    emap: dict[str, str] = {}
    queue = [diagram.base_vertex]
    while queue:
        v = queue.pop(0)
        for e, s in sorted(g.darts_at(v)):
            rec = g.edges[e]
            if e not in emap:
                table = out if s > 0 else inn
                emap[e] = table[(vmap[v], rec.label)]
            lifted = x0.skeleton.edges[emap[e]]
            near, far = ((lifted.tail, lifted.head) if s > 0
                         else (lifted.head, lifted.tail))
            far_v = rec.head if s > 0 else rec.tail
            assert vmap[v] == near, "diagram lift is inconsistent"
            if far_v in vmap:
                assert vmap[far_v] == far, "diagram lift is inconsistent"
            else:
                vmap[far_v] = far
                queue.append(far_v)
    assert len(emap) == len(g.edges), "diagram skeleton is not connected"
    cmap: dict[str, CellImage] = {}
    for cid, path in diagram.cells.items():
        lifted_path = tuple((emap[e], s) for e, s in path)
        image = None
        for tc in sorted(x0.cells):
            length = len(x0.cells[tc])
            if length != len(lifted_path):
                continue
            for orient in (1, -1):
                for offset in range(length):
                    cand = CellImage(tc, offset, orient)
                    if cell_image_path(x0, cand) == lifted_path:
                        image = cand
                        break
                if image:
                    break
            if image:
                break
        assert image is not None, "lifted cell boundary matches no cover cell"
        cmap[cid] = image
    return vmap, emap, cmap


def _glue_and_fold(state: PipelineState, diagram_vk):
    """Disjoint union with the diagram, base points merged, then fold.

    The diagram boundary and the candidate loop spell the same reduced word
    from the same base image, so folding zips the boundary onto the loop one
    vertex pair at a time; no explicit boundary identification is needed.
    """
    y = state.current
    x0 = state.to_cover.target
    prefix = f"Q{state.stage}."
    d = diagram_vk.diagram
    dbase = d.base_vertex

    def vn(v: str) -> str:
        if v == dbase:
            return y.base_vertex
        return prefix + v

    vertices = set(y.skeleton.vertices) | {vn(v) for v in d.skeleton.vertices}
    edges = dict(y.skeleton.edges)
    for e, rec in d.skeleton.edges.items():
        edges[prefix + e] = EdgeRec(vn(rec.tail), vn(rec.head), rec.label)
    cells = dict(y.cells)
    for cid, path in d.cells.items():
        cells[prefix + cid] = tuple((prefix + e, s) for e, s in path)
    z = TwoComplex(Graph(frozenset(vertices), edges), cells,
                   base_vertex=y.base_vertex)
    require_valid(z)

    dvmap, demap, dcmap = _lift_diagram(
        d, x0, state.to_cover.vertex_map[y.base_vertex])
    vmap = dict(state.to_cover.vertex_map)
    emap = dict(state.to_cover.edge_map)
    cmap = dict(state.to_cover.cell_map)
    for v in d.skeleton.vertices:
        vmap.setdefault(vn(v), dvmap[v])
        assert vmap[vn(v)] == dvmap[v], "base image mismatch while gluing"
    for e in d.skeleton.edges:
        emap[prefix + e] = (demap[e], 1)
    for cid in d.cells:
        cmap[prefix + cid] = dcmap[cid]
    return fold(CellMorphism(z, x0, vmap, emap, cmap))


def _apply_rewrites(path: tuple[Dart, ...], rewrites,
                    surviving: set[str]) -> tuple[Dart, ...]:
    work = list(path)
    guard = 10_000
    while guard:
        guard -= 1
        out: list[Dart] = []
        dirty = False
        for d in work:
            if d[0] in surviving:
                out.append(d)
            else:
                out.extend(rewrites[d])
                dirty = True
        work = out
        if not dirty:
            return free_reduce(work)
    raise PipelineInvariantError("rewrite substitution did not terminate")


def _refine(state: PipelineState, frame: _Frame, labels, word):
    """Process one candidate; returns (state, changed)."""
    x = state.orbicomplex
    y = state.current
    loop = _candidate_loop(word, frame, y)
    assert loop, "candidate loop reduced to nothing"
    f_word = _path_word(loop, state.to_cover, labels)
    result = dehn_solve(f_word, x)
    unchanged = replace(state, cursor=state.cursor + 1,
                        stable_for=state.stable_for + 1)
    if not result.trivial:
        return unchanged, False
    key = _cycle_key(loop)
    if any(_cycle_key(y.cells[cid]) == key for cid in y.cells):
        return unchanged, False
    diagram = build_reduced_diagram(f_word, x)
    folded = _glue_and_fold(state, diagram)
    chain_map = _restrict(folded.projection, y)
    cls = classify_map(chain_map)
    _invariant(cls.kind >= MapKind.IMMERSION,
               f"chain map is not an immersion: {cls.witness}", state)
    _invariant(compose(folded.inclusion, chain_map) == state.to_cover,
               "chain triangle does not commute dart-exactly", state)
    collapsed, rewrites = collapse_with_rewrites(folded.folded)
    to_cover_new = _restrict(folded.inclusion, collapsed)
    surviving = set(collapsed.skeleton.edges)
    new_paths = tuple(
        _apply_rewrites(chain_map.path_image(p), rewrites, surviving)
        for p in state.gen_paths)
    if isomorphic_over_cover(collapsed, to_cover_new, y, state.to_cover):
        return unchanged, False
    step = ChainStep(chain_map, folded.inclusion, tuple(word), f_word)
    new_state = replace(state, stage=state.stage + 1, current=collapsed,
                        to_cover=to_cover_new, chain=state.chain + (step,),
                        cursor=0, stable_for=0, gen_paths=new_paths)
    _check_stage(new_state)
    return new_state, True


def refine_step(state: PipelineState) -> PipelineState:
    """Advance the cursor by one candidate (no-op when exhausted)."""
    frame = _bfs_frame(state.current, state.to_cover)
    labels = _label_table(state.to_cover.target)
    stream = candidate_words(len(frame.gens), state.max_word_len)
    picked = next(islice(stream, state.cursor, state.cursor + 1), None)
    if picked is None:
        return state
    new_state, _ = _refine(state, frame, labels, picked)
    return new_state


# ---------------------------------------------------------------------------
# presentation extraction and the full run


def _presentation_from_stage(state: PipelineState, conclusive: bool,
                             notes: tuple[str, ...]) -> Presentation:
    y = state.current
    frame = _bfs_frame(y, state.to_cover)
    labels = _label_table(state.to_cover.target)
    symbols = tuple(f"x{k + 1}" for k in range(len(frame.gens)))
    gen_index = {d[0]: (k, d[1]) for k, d in enumerate(frame.gens)}
    gen_words = [free_reduce(_path_word(_generator_loop(d, frame, y),
                                        state.to_cover, labels))
                 for d in frame.gens]
    relators = []
    for cid in sorted(y.cells):
        raw = []
        for e, s in y.cells[cid]:
            if e in gen_index:
                k, orient = gen_index[e]
                raw.append((symbols[k], s * orient))
        relators.append(free_reduce(tuple(raw), cyclic=True))
    pres = Presentation(symbols, tuple(relators), tuple(gen_words),
                        state.stage, state.max_word_len, conclusive, notes)
    chi = 1 - len(symbols) + len(relators)
    _invariant(chi == euler_characteristic(y),
               "presentation deficiency disagrees with the Euler "
               "characteristic", state)
    return pres


def _stage_row(state: PipelineState) -> StageRow:
    y = state.current
    _, free_edges = find_free_faces_and_edges(y)
    return StageRow(state.stage, euler_characteristic(y, dimension=1),
                    euler_characteristic(y), len(y.cells), len(free_edges),
                    state.cursor, state.stable_for)


def present_subgroup(generators: list[Word], x: OneRelatorOrbicomplex, *,
                     max_degree: int = 8, max_word_len: int = 12,
                     max_stages: int = 200, seed: int = 0
                     ) -> tuple[Presentation, PipelineReport]:
    """Full run: quotient search, cover, stabilizer intersection, seeding,
    and refinement sweeps until stabilization or budget exhaustion."""
    if x.branch_index < 2:
        raise ValueError("subgroup presentation requires branch index >= 2")
    notes: list[str] = []
    cleaned = [free_reduce(g) for g in generators]
    cleaned = [g for g in cleaned if g]
    if not cleaned:
        notes.append("trivial subgroup; empty presentation emitted directly")
        return (Presentation((), (), (), 0, max_word_len, True, tuple(notes)),
                PipelineReport((), tuple(notes)))
    q = find_exponent_n_quotient(x, max_degree, seed)
    cover = build_unwrapped_cover(x, q)
    audit = verify_cover(cover)
    if not audit.passed:
        raise PipelineInvariantError("cover audit failed",
                                     "; ".join(audit.witnesses))
    if any(q.act(q.base_point, g) != q.base_point for g in cleaned):
        notes.append("input generators move the base point; presenting the "
                     "finite-index intersection with the cover stabilizer")
    pulled = pull_back_subgroup(cleaned, q)
    pulled = [p for p in pulled if p]
    if not pulled:
        notes.append("stabilizer intersection is trivial")
        return (Presentation((), (), (), 0, max_word_len, True, tuple(notes)),
                PipelineReport((), tuple(notes)))
    state = seed_immersion(pulled, cover)
    state = replace(state, max_word_len=max_word_len, max_stages=max_stages)
    rows: list[StageRow] = []
    conclusive = False
    while True:
        frame = _bfs_frame(state.current, state.to_cover)
        labels = _label_table(state.to_cover.target)
        changed = False
        for word in candidate_words(len(frame.gens), state.max_word_len):
            state, changed = _refine(state, frame, labels, word)
            if changed:
                break
        if not changed:
            conclusive = True
            rows.append(_stage_row(state))
            break
        rows.append(_stage_row(state))
        if state.stage >= state.max_stages:
            notes.append("stage budget exhausted before stabilization; "
                         "presentation is inconclusive")
            break
    pres = _presentation_from_stage(state, conclusive, tuple(notes))
    for rel in pres.relators:
        sub = {sym: gw for sym, gw in zip(pres.symbols, pres.gen_words)}
        expanded: list = []
        for sym, sign in rel:
            expanded.extend(sub[sym] if sign > 0 else inverse_word(sub[sym]))
        check = dehn_solve(free_reduce(tuple(expanded)), x)
        _invariant(check.trivial, "emitted relator is not trivial", state)
    return pres, PipelineReport(tuple(rows), tuple(notes))
