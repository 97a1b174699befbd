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

from .complexes import (CellImage, CellMorphism, Dart, EdgeRec, Graph,
                        MapKind, TwoComplex, cell_image_path, classify_map,
                        collapse, collapse_with_rewrites, compose,
                        connected_components, dart_sort_key,
                        euler_characteristic, find_free_faces_and_edges,
                        require_valid, reverse_path)
from .covers import UnwrappedCover, build_unwrapped_cover, \
    find_exponent_n_quotient, pull_back_subgroup, verify_cover
from .diagrams import build_reduced_diagram
from .errors import PipelineInvariantError
from .folding import _canonical_cell_key, fold
from .orbicomplex import OneRelatorOrbicomplex
from .words import Word, dehn_solve, free_reduce, inverse_word, least_rotation

# ---------------------------------------------------------------------------
# state


@dataclass(frozen=True)
class PipelineState:
    cover: UnwrappedCover
    stage: int
    current: TwoComplex
    to_cover: CellMorphism
    cursor: int
    seed_generator_count: int
    seed_free_edges: int
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

    @property
    def stable_for(self) -> int:
        """Candidates that left the stage unchanged: every sweep starts at
        the first candidate and any change resets the cursor, so this is
        ``cursor``.  Kept as a name because ``perfbench`` reads it."""
        return self.cursor


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
    hops: tuple[tuple[tuple[Dart, ...], ...], ...]  # per gen: loop, reverse
    hop_words: tuple[tuple[Word, Word], ...]         # their reduced labels


def _bfs_frame(y: TwoComplex, m: CellMorphism) -> _Frame:
    """Breadth-first frame from the base, darts ordered by their images;
    immersions over a fixed target make this ordering canonical.  Each
    generator's hop runs down the tree to its dart, across it and back."""
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
    labels = _label_table(m.target)
    hops, hop_words = [], []
    for d in gens:
        hop = (tree_paths[y.skeleton.dart_origin(d)] + (d,)
               + reverse_path(tree_paths[y.skeleton.dart_terminus(d)]))
        word = free_reduce(_path_word(hop, m, labels))
        hops.append((hop, reverse_path(hop)))
        hop_words.append((word, inverse_word(word)))
    return _Frame(names, tree_paths, tuple(gens), tuple(hops),
                  tuple(hop_words))


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


def _lift(z: TwoComplex, x0: TwoComplex, start: str) -> CellMorphism:
    """The map of ``z`` into ``x0`` that sends the base of ``z`` to ``start``
    and each dart to the dart of ``x0`` reading its label.  The 1-skeleton of
    ``x0`` covers the rose, so the labels fix this lift (Stallings 1983), and
    a vertex reached with two images is a typed error."""
    g, h = z.skeleton, x0.skeleton
    vmap = {z.base_vertex: start}
    emap: dict[str, Dart] = {}
    queue = [z.base_vertex]
    for v in queue:
        for d in g.darts_at(v):
            step = h.read((g.dart_label(d),), vmap[v])
            if step is None:
                raise PipelineInvariantError(
                    f"no cover dart at {vmap[v]} reads the label of {d}")
            ((e, s),), far = step
            emap[d[0]] = (e, s * d[1])
            w = g.dart_terminus(d)
            if w not in vmap:
                vmap[w] = far
                queue.append(w)
            elif vmap[w] != far:
                raise PipelineInvariantError("label lift is inconsistent")
    if len(vmap) != len(g.vertices):
        raise PipelineInvariantError("complex is not connected from the base")
    cmap: dict[str, CellImage] = {}
    for cid, path in z.cells.items():
        # a reduced word is never conjugate to its inverse, so one side over
        # the first lifted edge, read in one direction, is the image
        lifted = tuple((emap[e][0], emap[e][1] * s) for e, s in path)
        first = lifted[0]
        for tc, pos in x0.sides_over[first[0]]:
            image = CellImage(tc, pos, 1 if x0.cells[tc][pos] == first else -1)
            if cell_image_path(x0, image) == lifted:
                cmap[cid] = image
                break
        else:
            raise PipelineInvariantError(
                "lifted cell boundary matches no cover cell")
    return CellMorphism(z, x0, vmap, emap, cmap)


def seed_immersion(generators: list[Word],
                   cover: UnwrappedCover) -> PipelineState:
    """Fold a wedge of loops spelling the generators as paths in the cover."""
    kept = [free_reduce(g) for g in generators]
    kept = [g for g in kept if g]
    if not kept:
        raise ValueError("at least one nonempty generator is required")
    x0 = cover.covering_map.source
    base = x0.base_vertex
    edges: dict[str, EdgeRec] = {}
    loops: list[tuple[Dart, ...]] = []
    for j, gen in enumerate(kept):
        lift = x0.skeleton.read(gen, base)
        if lift is None or lift[1] != base:
            raise ValueError(
                f"generator {j} is not a closed loop at the base vertex")
        cur = "v0"
        loop: list[Dart] = []
        for t, (sym, sign) in enumerate(gen):
            nxt = "v0" if t == len(gen) - 1 else f"v{j}.{t + 1}"
            eid = f"w{j}.{t}"
            tail, head = (cur, nxt) if sign > 0 else (nxt, cur)
            edges[eid] = EdgeRec(tail, head, sym)
            loop.append((eid, sign))
            cur = nxt
        loops.append(tuple(loop))
    vertices = frozenset(v for rec in edges.values()
                         for v in (rec.tail, rec.head))
    wedge = TwoComplex(Graph(vertices, edges), {}, base_vertex="v0")
    require_valid(wedge)
    folded = fold(_lift(wedge, x0, base))
    y0 = collapse(folded.folded)
    if y0 != folded.folded:
        raise PipelineInvariantError("seed graph has free faces")
    state = PipelineState(
        cover=cover, stage=0, current=y0, to_cover=folded.inclusion, cursor=0,
        seed_generator_count=len(kept),
        seed_free_edges=len(find_free_faces_and_edges(y0)[1]),
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


def candidate_words(num_gens: int, max_len: int):
    """Freely and cyclically reduced words over the stage generators, by
    length then lexicographic order, one representative per class under
    rotation and inversion: the least word of its class.

    Letter ``(i, s)`` has key ``2i`` for ``s = 1`` and ``2i + 1`` for
    ``s = -1``, so inversion flips the low bit.  The least word of a class
    is the least of its rotations, so each of its prefixes is a prenecklace.
    The search extends only prenecklaces, tracking the period ``p`` of the
    longest Lyndon prefix (Fredricksen-Kessler-Maiorana): a letter must be
    at least the key ``p`` back, and a strict increase resets ``p`` to the
    length.  A full word is least among its rotations exactly when ``p``
    divides its length.

    The inverse of a word holds the inverse of each of its letters, so the
    least word starts with a positive letter ``f``, and a rotation of its
    inverse can read below it only from an ``f``, the inverse of an
    ``f^-1`` in the word.  That rotation starts with the inverse of the
    prefix ending there, which differs from the prefix, since no reduced
    word is its own inverse; so comparing the two, when the prefix reaches
    that ``f^-1``, settles it.  A prefix whose inverse reads below it is
    abandoned, and a full word with a reduced seam is kept.
    """
    top = 2 * num_gens
    letter = tuple((k >> 1, -1 if k & 1 else 1) for k in range(top)).__getitem__
    if max_len >= 1:
        yield from (((i, 1),) for i in range(num_gens))
    for target in range(2, max_len + 1):
        a = [0] * target
        period = [1] * (target + 1)     # period[t]: FKM period of a[:t]
        t, x = 0, 0
        while True:
            if t == target:
                if target % period[t] == 0 and a[-1] != a[0] ^ 1:
                    yield tuple(map(letter, a))
                t -= 1
                x = a[t] + 1
                continue
            if t:
                floor = a[t - period[t]]
                if x < floor:
                    x = floor
                if x == a[t - 1] ^ 1:
                    x += 1
            else:
                x += x & 1
            if x >= top:
                if t == 0:
                    break
                t -= 1
                x = a[t] + 1
                continue
            a[t] = x
            if t and x == a[0] ^ 1:
                s = 1
                while a[t - s] ^ 1 == a[s]:
                    s += 1
                if a[t - s] ^ 1 < a[s]:
                    x += 1
                    continue
            period[t + 1] = (period[t] if t and x == a[t - period[t]]
                             else t + 1)
            t += 1
            x = 0


def _label_table(x0: TwoComplex) -> dict[str, str]:
    return {e: rec.label for e, rec in x0.skeleton.edges.items()}


def _path_word(path, m: CellMorphism, labels: dict[str, str]) -> Word:
    out = []
    for d in path:
        e, s = m.dart_image(d)
        out.append((labels[e], s))
    return tuple(out)


def _candidate_loop(word, frame: _Frame) -> tuple[Dart, ...]:
    path: list[Dart] = []
    for idx, sign in word:
        path.extend(frame.hops[idx][sign < 0])
    return free_reduce(path)


def _candidate_word(word, frame: _Frame) -> Word:
    """The label word of ``_candidate_loop``.  The stage immerses into a
    covering of the rose, so a backtrack in the loop is exactly a
    cancellation in its labels, and reducing the labels of the hops gives
    the labels of the reduced loop."""
    letters: list = []
    for idx, sign in word:
        letters.extend(frame.hop_words[idx][sign < 0])
    return free_reduce(letters)


def _cycle_key(path: tuple[Dart, ...]):
    return min(least_rotation(path), least_rotation(reverse_path(path)))


_P = (1 << 61) - 1                  # a prime
_MIX = 0x9E3779B97F4A7C15 % _P      # fixed coefficients: its powers mod _P


def _cell_cocycle(x0: TwoComplex) -> dict[str, int]:
    """A weight mod ``_P`` per edge of ``x0`` whose signed sum vanishes on
    every cell boundary: a null-space vector of the cells x edges boundary
    matrix, by Gauss-Jordan elimination mod ``_P``.  The free columns get
    the powers of ``_MIX`` as coefficients, so that the weight is a fixed
    generic combination of the null space, and the pivot columns follow."""
    edges = sorted(x0.skeleton.edges)
    col = {e: j for j, e in enumerate(edges)}
    rows = []
    for cid in sorted(x0.cells):
        row = [0] * len(edges)
        for e, s in x0.cells[cid]:
            row[col[e]] += s
        rows.append(row)
    pivots: list[int] = []
    for j in range(len(edges)):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][j] % _P), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = pow(rows[r][j], -1, _P)
        rows[r] = [v * inv % _P for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[j] % _P:
                f = row[j]
                rows[i] = [(a - f * b) % _P for a, b in zip(row, rows[r])]
        pivots.append(j)
    weight = [0] * len(edges)
    free = sorted(set(range(len(edges))) - set(pivots))
    for k, j in enumerate(free):
        weight[j] = pow(_MIX, k + 1, _P)
    for r, j in enumerate(pivots):
        weight[j] = -sum(rows[r][f] * weight[f] for f in free) % _P
    return dict(zip(edges, weight))


def _hop_codes(frame: _Frame, m: CellMorphism) -> dict[tuple[int, int], int]:
    """The code of each generator letter: the weight of ``_cell_cocycle``
    summed, with signs, over the image of its hop.  A candidate's code is
    the sum over its letters mod ``_P``; backtracks do not change it."""
    weight = _cell_cocycle(m.target)
    code = {}
    for i, (hop, _) in enumerate(frame.hops):
        c = sum(s * weight[e] for e, s in m.path_image(hop)) % _P
        code[(i, 1)], code[(i, -1)] = c, -c % _P
    return code


# ---------------------------------------------------------------------------
# gluing and refinement


def _glue_and_fold(state: PipelineState, diagram_vk):
    """Disjoint union with the diagram, base points merged, lifted to the
    cover by labels, then folded.

    The diagram boundary and the candidate loop spell the same reduced word
    from the same base image, so folding zips the boundary onto the loop one
    vertex pair at a time; no explicit boundary identification is needed.
    """
    y = state.current
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
    return fold(_lift(z, state.to_cover.target,
                      state.to_cover.vertex_map[y.base_vertex]))


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


def _refine(state: PipelineState, frame: _Frame, word,
            f_word: Word) -> PipelineState | None:
    """Process a candidate whose label word ``f_word`` is trivial; returns
    the next state, or None when the complex is unchanged."""
    x = state.orbicomplex
    y = state.current
    loop = _candidate_loop(word, frame)
    _invariant(bool(loop), "candidate loop reduced to nothing", state)
    labels = _label_table(state.to_cover.target)
    _invariant(_path_word(loop, state.to_cover, labels) == f_word,
               "candidate loop does not spell its label word", state)
    key = _cycle_key(loop)
    if any(_cycle_key(y.cells[cid]) == key for cid in y.cells):
        return None
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
        return None
    new_state = replace(state, stage=state.stage + 1, current=collapsed,
                        to_cover=to_cover_new, cursor=0, gen_paths=new_paths)
    _check_stage(new_state)
    return new_state


def _sweep(state: PipelineState,
           max_word_len: int) -> tuple[PipelineState, bool]:
    """Try the stage's candidates in order from the first; returns the state
    after the first that changes the complex (True), or after all of them
    (False).  The cursor counts the candidates tried; a gluing gets it with
    the state, so that its checks may report it.

    A candidate whose loop has a nonzero code, the weight of
    ``_cell_cocycle`` summed over its image in the unwrapped cover ``X0``,
    is nontrivial in ``G`` and is passed over without its label word or a
    Dehn call; it still counts as tried.  Proof: a word trivial in ``G``
    is freely equal to a product of conjugates ``u w^(+-n) u^-1``.  Lift
    that product from any vertex of ``X0``'s 1-skeleton, the Schreier graph
    of the cover: each ``w^(+-n)`` piece closes into one cell boundary,
    read forwards or backwards, because every cycle of ``w`` has length
    exactly ``n``; the lift of each conjugator is cancelled by the lift of
    its inverse, and backtracks cancel, so the signed edge count of the
    lift is a sum of +-cell boundaries, on which the weight vanishes.  The
    lift of the reduced word has the same signed edge count.  The Dehn
    solver stays the only judge of the candidates with code zero."""
    x = state.orbicomplex
    frame = _bfs_frame(state.current, state.to_cover)
    code = _hop_codes(frame, state.to_cover).__getitem__
    tried = 0
    for word in candidate_words(len(frame.gens), max_word_len):
        if sum(map(code, word)) % _P == 0:
            f_word = _candidate_word(word, frame)
            if dehn_solve(f_word, x).trivial:
                new_state = _refine(replace(state, cursor=tried), frame,
                                    word, f_word)
                if new_state is not None:
                    return new_state, True
        tried += 1
    return replace(state, cursor=tried), False


# ---------------------------------------------------------------------------
# presentation extraction and the full run


def _presentation_from_stage(state: PipelineState, max_word_len: int,
                             conclusive: bool,
                             notes: tuple[str, ...]) -> Presentation:
    y = state.current
    frame = _bfs_frame(y, state.to_cover)
    symbols = tuple(f"x{k + 1}" for k in range(len(frame.gens)))
    gen_index = {d[0]: (k, d[1]) for k, d in enumerate(frame.gens)}
    gen_words = [word for word, _ in frame.hop_words]
    relators = []
    for cid in sorted(y.cells):
        raw = []
        for e, s in y.cells[cid]:
            if e in gen_index:
                k, orient = gen_index[e]
                raw.append((symbols[k], s * orient))
        relators.append(free_reduce(tuple(raw), cyclic=True))
    pres = Presentation(symbols, tuple(relators), tuple(gen_words),
                        state.stage, max_word_len, conclusive, notes)
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
                    state.cursor)


def present_subgroup(generators: list[Word], x: OneRelatorOrbicomplex, *,
                     max_degree: int = 8, max_word_len: int = 12,
                     max_stages: int = 200, seed: int = 0
                     ) -> tuple[Presentation, PipelineReport]:
    """Full run: quotient search, cover, stabilizer intersection, seeding,
    and refinement sweeps until stabilization or budget exhaustion."""
    if x.branch_index < 2:
        raise ValueError("subgroup presentation requires branch index >= 2")
    if max_word_len < 1:
        # no candidate would be tried, and the seed would pass as stable
        raise ValueError(
            f"max_word_len must be at least 1, got {max_word_len}")
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
    if any(q.act(0, g) != 0 for g in cleaned):
        notes.append("input generators move the base point; presenting the "
                     "finite-index intersection with the cover stabilizer")
    pulled = pull_back_subgroup(cleaned, q)
    pulled = [p for p in pulled if p]
    if not pulled:
        notes.append("stabilizer intersection is trivial")
        return (Presentation((), (), (), 0, max_word_len, True, tuple(notes)),
                PipelineReport((), tuple(notes)))
    state = seed_immersion(pulled, cover)
    rows: list[StageRow] = []
    conclusive = False
    while True:
        state, changed = _sweep(state, max_word_len)
        if not changed:
            conclusive = True
            rows.append(_stage_row(state))
            break
        rows.append(_stage_row(state))
        if state.stage >= max_stages:
            notes.append("stage budget exhausted before stabilization; "
                         "presentation is inconclusive")
            break
    pres = _presentation_from_stage(state, max_word_len, conclusive,
                                    tuple(notes))
    for rel in pres.relators:
        sub = {sym: gw for sym, gw in zip(pres.symbols, pres.gen_words)}
        expanded: list = []
        for sym, sign in rel:
            expanded.extend(sub[sym] if sign > 0 else inverse_word(sub[sym]))
        check = dehn_solve(free_reduce(tuple(expanded)), x)
        _invariant(check.trivial, "emitted relator is not trivial", state)
    return pres, PipelineReport(tuple(rows), tuple(notes))
