"""Subgroup presentation pipeline: seed, refine, stabilize.

Given subgroup generators, the pipeline seeds their intersection with the
cover's group, a fibre product immersed in the unwrapped cover, then tests
candidate loops for triviality, gluing a reduced disk diagram along each
trivial one.  Each gluing is a base-point merge followed by an ordinary fold,
then a free-face collapse.  The run stabilizes when a full sweep of
candidates up to the length budget leaves the complex unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (CellImage, CellMorphism, Dart, EdgeRec, Graph,
                        TwoComplex, _immersion_fault, _restrict,
                        cell_image_path, collapse_carrying, compose,
                        connected_components, dart_sort_key,
                        euler_characteristic, find_free_faces_and_edges,
                        require_valid, reverse_path)
from .covers import UnwrappedCover, _check_max_degree, \
    build_unwrapped_cover, find_exponent_n_quotient, verify_cover
from .diagrams import build_reduced_diagram
from .errors import ArgumentError, PipelineInvariantError
from .folding import fold
from .orbicomplex import OneRelatorOrbicomplex
from .words import (Word, _check_letters, _require_torsion, dehn_solve,
                    free_reduce, inverse_word)

# ---------------------------------------------------------------------------
# state


class PipelineState(NamedTuple):
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
        return self.cover.orbicomplex


class Presentation(NamedTuple):
    symbols: tuple[str, ...]
    relators: tuple[Word, ...]
    gen_words: tuple[Word, ...]
    stage: int
    conclusive: bool
    notes: tuple[str, ...] = ()


class StageRow(NamedTuple):
    stage: int
    chi1: int
    chi2: int
    cells: int
    free_edges: int
    cursor: int

    @property
    def stable_for(self) -> int:
        """Candidates that left the stage unchanged: each sweep starts at the
        first candidate and a change resets the cursor, so this is ``cursor``.
        Read by the CLI's stage line, ``textio.pipeline_csv`` and perfbench."""
        return self.cursor


class PipelineReport(NamedTuple):
    rows: tuple[StageRow, ...]


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
# breadth-first frame


class _Frame(NamedTuple):
    gens: tuple[Dart, ...]          # one canonical dart per non-tree edge
    hops: tuple[tuple[Dart, ...], ...]      # per gen: its loop at the base
    hop_words: tuple[tuple[Word, Word], ...]  # reduced labels, and inverse


def _bfs_frame(y: TwoComplex, m: CellMorphism) -> _Frame:
    """Breadth-first frame from the base, darts ordered by their images;
    immersions over a fixed target make this ordering canonical.  Each
    generator's hop runs down the tree to its dart, across it and back."""
    base = y.base_vertex
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
            if w in tree_paths:
                gens.append(d)
            else:
                tree_paths[w] = tree_paths[v] + (d,)
                queue.append(w)
    if len(seen_edges) != len(y.skeleton.edges):
        raise PipelineInvariantError("complex is not connected from the base")
    g = y.skeleton
    hops, hop_words = [], []
    for d in gens:
        hop = (tree_paths[g.dart_origin(d)] + (d,)
               + reverse_path(tree_paths[g.dart_terminus(d)]))
        word = free_reduce(tuple(map(g.dart_label, hop)))
        hops.append(hop)
        hop_words.append((word, inverse_word(word)))
    return _Frame(tuple(gens), tuple(hops), tuple(hop_words))


# ---------------------------------------------------------------------------
# seeding


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
    """The seed of ``H ∩ K``, ``H`` generated by ``generators`` and ``K`` the
    cover's group: the fibre product of their wedge with the cover's Schreier
    graph, a copy of each generator from ``v{p}`` to ``v{p.g}`` per point
    ``p`` of 0's orbit, lifted into ``X0``, folded and cut to its core, the
    edges that the hops of its frame cross (Stallings 1983)."""
    q = cover.quotient
    _check_letters((c for g in generators for c in g), q.perms)
    kept = [g for g in map(free_reduce, generators) if g]
    if not kept:
        raise ValueError("at least one nonempty generator is required")
    orbit = [0]
    edges: dict[str, EdgeRec] = {}
    for p in orbit:                 # the list grows as the loop reads it
        for j, gen in enumerate(kept):
            end = q.act(p, gen)
            if end not in orbit:
                orbit.append(end)
            cur = f"v{p}"
            for t, (sym, sign) in enumerate(gen):
                nxt = f"v{end}" if t == len(gen) - 1 else f"v{p}.{j}.{t + 1}"
                tail, head = (cur, nxt) if sign > 0 else (nxt, cur)
                edges[f"w{p}.{j}.{t}"] = EdgeRec(tail, head, sym)
                cur = nxt
    vertices = frozenset(v for rec in edges.values() for v in rec[:2])
    product = TwoComplex(Graph(vertices, edges), {}, base_vertex="v0")
    require_valid(product)
    folded = fold(_lift(product, cover.cover, cover.cover.base_vertex))
    y0 = folded.folded
    for j, gen in enumerate(kept):
        read = y0.skeleton.read(gen, y0.base_vertex)
        over = f"p{q.act(0, gen)}"
        if read is None or folded.inclusion.vertex_map[read[1]] != over:
            raise PipelineInvariantError(
                f"generator {j} does not read on the seed from its base"
                f" to a vertex over {over}")
    frame = _bfs_frame(y0, folded.inclusion)
    hopped = {e for hop in frame.hops for e, _ in hop}
    core = {e: rec for e, rec in y0.skeleton.edges.items() if e in hopped}
    seed = TwoComplex(
        Graph(frozenset(v for rec in core.values() for v in rec[:2]), core),
        {}, base_vertex=y0.base_vertex)
    state = PipelineState(
        cover=cover, stage=0, current=seed,
        to_cover=_restrict(folded.inclusion, seed), cursor=0,
        seed_generator_count=len(frame.gens),
        seed_free_edges=len(find_free_faces_and_edges(seed)[1]),
        gen_paths=frame.hops)
    _check_stage(state)
    return state


def _check_stage(state: PipelineState) -> None:
    cls = _immersion_fault(state.to_cover)
    if cls is not None:
        _invariant(False, f"stage map is not an immersion: {cls.witness}",
                   state)
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
                       "seed generator no longer traces through the stage",
                       state)
            pos = g.dart_terminus(d)
        _invariant(pos == state.current.base_vertex,
                   "seed generator no longer closes at the base", state)


# ---------------------------------------------------------------------------
# candidate enumeration


_P = (1 << 61) - 1                  # a prime


def candidate_words(codes: list[int], max_len: int):
    """Freely and cyclically reduced words over the stage generators, by
    length then lexicographic order, one representative per class under
    rotation and inversion: the least word of its class.  Only the words
    whose code, the sum mod ``_P`` of ``codes[k]`` over their letter keys
    ``k``, is zero are built, as ``(index, word)`` with ``index`` counting
    every class; a last ``(count, None)`` counts them all.

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

    The last letter needs no walk.  After a prefix ``a`` of ``t = L - 1``
    letters with period ``p``, a last key ``k`` equal to ``a[t - p]`` keeps
    the period, so the word is least among its rotations when ``p`` divides
    ``L``, and a greater ``k`` makes the whole word Lyndon.  So the last
    keys are those from ``lo`` (``a[t - p]``, plus one unless ``p``
    divides ``L``) up to ``len(codes)``, less two: ``a[t - 1] ^ 1``, which
    would not reduce freely, and ``f^-1 = a[0] ^ 1``, which would not reduce
    across the seam.  The inversion test fires only on ``f^-1``, so it
    removes nothing more.  Their number advances the count in one step, and
    a last key of code zero, looked up by the residue the prefix needs,
    has for index the count so far plus its rank among the last keys: the
    keys from ``lo`` below it, less the two exclusions among them.
    """
    top = len(codes)
    letter = tuple((k >> 1, -1 if k & 1 else 1) for k in range(top)).__getitem__
    closing: dict[int, list[int]] = {}  # prefix code -> keys taking it to 0
    for k in range(top):
        closing.setdefault(-codes[k] % _P, []).append(k)
    count = 0
    if max_len >= 1:
        for k in range(0, top, 2):      # length 1: each positive letter
            if not codes[k] % _P:
                yield count, (letter(k),)
            count += 1
    for target in range(2, max_len + 1):
        last = target - 1
        a = [0] * last
        period = [1] * target           # period[t]: FKM period of a[:t]
        code = [0] * target             # code[t]: code of a[:t], mod _P
        t, x = 0, 0
        while True:
            if t == last:
                p = period[t]
                lo = a[t - p] if target % p == 0 else a[t - p] + 1
                free, seam = a[t - 1] ^ 1, a[0] ^ 1
                if seam == free:
                    seam = -1           # one exclusion, counted once
                for k in closing.get(code[t], ()):
                    if k >= lo and k != free and k != seam:
                        rank = k - lo - (lo <= free < k) - (lo <= seam < k)
                        yield count + rank, tuple(map(letter, a + [k]))
                count += top - lo - (free >= lo) - (seam >= lo)
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
            code[t + 1] = (code[t] + codes[x]) % _P
            t += 1
            x = 0
    yield count, None


def _candidate_word(word, frame: _Frame) -> Word:
    """The label word of the candidate ``word`` over the stage generators:
    the product of its hop words, reduced.  The stage's 1-skeleton immerses
    over the rose, so this word reads from the base along exactly one path,
    the candidate's loop with its backtracks cancelled."""
    letters: list = []
    for idx, sign in word:
        letters.extend(frame.hop_words[idx][sign < 0])
    return free_reduce(letters)


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


def _hop_codes(frame: _Frame, m: CellMorphism) -> list[int]:
    """The code of each letter key of ``candidate_words``: the weight of
    ``_cell_cocycle`` summed, with signs, over the image of its hop.  A
    candidate's code is the sum over its letters mod ``_P``; backtracks do
    not change it."""
    weight = _cell_cocycle(m.target)
    codes = []
    for hop in frame.hops:
        c = sum(s * weight[e] for e, s in m.path_image(hop)) % _P
        codes += (c, -c % _P)
    return codes


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


def _is_bijection(m: CellMorphism, onto: TwoComplex) -> bool:
    """Whether ``m`` is one to one onto the parts of every dimension of
    ``onto``."""
    return all(len(images) == len(parts) and set(images) == set(parts)
               for images, parts in (
                   (m.vertex_map.values(), onto.skeleton.vertices),
                   ([e for e, _ in m.edge_map.values()], onto.skeleton.edges),
                   ([c.cell for c in m.cell_map.values()], onto.cells)))


def _refine(state: PipelineState, f_word: Word) -> PipelineState | None:
    """Process a candidate whose label word ``f_word`` is trivial, with the
    path reading it from the base as its loop; returns the next state, or
    None when the complex is unchanged: when the chain map, an immersion
    over ``X0``, is a bijection of the stage onto the collapsed complex.
    Based lifts through an immersion are unique (Stallings 1983), so this
    holds exactly when the two are isomorphic over ``X0``; ``PAPER.md``
    gives the stopping rule and its proof."""
    x = state.orbicomplex
    y = state.current
    read = y.skeleton.read(f_word, y.base_vertex)
    _invariant(read is not None and read[1] == y.base_vertex,
               "candidate word does not close at the base", state)
    _invariant(bool(read[0]), "candidate loop reduced to nothing", state)
    diagram = build_reduced_diagram(f_word, x)
    folded = _glue_and_fold(state, diagram)
    chain_map = _restrict(folded.projection, y)
    cls = _immersion_fault(chain_map)
    if cls is not None:
        _invariant(False, f"chain map is not an immersion: {cls.witness}",
                   state)
    _invariant(compose(folded.inclusion, chain_map) == state.to_cover,
               "chain triangle does not commute dart-exactly", state)
    collapsed, gen_paths = collapse_carrying(
        folded.folded, [chain_map.path_image(p) for p in state.gen_paths])
    if _is_bijection(chain_map, collapsed):
        return None
    new_state = state._replace(stage=state.stage + 1, current=collapsed,
                               to_cover=_restrict(folded.inclusion, collapsed),
                               cursor=0, gen_paths=gen_paths)
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
    is nontrivial in ``G``; ``candidate_words`` never builds it, so it
    gets no label word or Dehn call, but it still counts as tried.  Proof:
    a word trivial in ``G`` is freely equal to a product of conjugates
    ``u w^(+-n) u^-1``.  Lift that product from any vertex of ``X0``'s
    1-skeleton, the Schreier graph of the cover: each ``w^(+-n)`` piece
    closes into one cell boundary, read forwards or backwards, because
    every cycle of ``w`` has length exactly ``n``; the lift of each
    conjugator is cancelled by the lift of its inverse, and backtracks
    cancel, so the signed edge count of the lift is a sum of +-cell
    boundaries, on which the weight vanishes.  The lift of the reduced word
    has the same signed edge count.  The Dehn solver stays the only judge
    of the candidates with code zero."""
    x = state.orbicomplex
    frame = _bfs_frame(state.current, state.to_cover)
    codes = _hop_codes(frame, state.to_cover)
    for cursor, word in candidate_words(codes, max_word_len):
        if word is None:
            break
        f_word = _candidate_word(word, frame)
        if dehn_solve(f_word, x).trivial:
            new_state = _refine(state._replace(cursor=cursor), f_word)
            if new_state is not None:
                return new_state, True
    return state._replace(cursor=cursor), False


# ---------------------------------------------------------------------------
# presentation extraction and the full run


def _presentation_from_stage(state: PipelineState, conclusive: bool,
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
                        state.stage, conclusive, notes)
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
    """Full run: quotient search, cover, seed of the stabilizer intersection
    and refinement sweeps until stabilization or budget exhaustion.  The
    quotient search is exact, so ``seed`` is accepted and ignored."""
    _require_torsion(x)
    if max_word_len < 1:
        # no candidate would be tried, and the seed would pass as stable
        raise ArgumentError("max_word_len",
                            f"must be at least 1, got {max_word_len}")
    if max_stages < 0:
        raise ArgumentError("max_stages",
                            f"must be at least 0, got {max_stages}")
    _check_letters((c for g in generators for c in g), x.gamma.edges)
    _check_max_degree(max_degree)     # before the trivial subgroup returns
    notes: list[str] = []
    cleaned = [g for g in map(free_reduce, generators) if g]
    if not cleaned:
        notes.append("trivial subgroup; empty presentation emitted directly")
        return (Presentation((), (), (), 0, True, tuple(notes)),
                PipelineReport(()))
    q = find_exponent_n_quotient(x, max_degree, seed)
    cover = build_unwrapped_cover(x, q)
    audit = verify_cover(cover)
    if not audit.passed:
        raise PipelineInvariantError("cover audit failed",
                                     "; ".join(audit.witnesses))
    if any(q.act(0, g) != 0 for g in cleaned):
        notes.append("input generators move the base point; presenting the "
                     "finite-index intersection with the cover stabilizer")
    state = seed_immersion(cleaned, cover)
    rows: list[StageRow] = []
    while True:
        state, changed = _sweep(state, max_word_len)
        rows.append(_stage_row(state))
        if not changed or state.stage >= max_stages:
            break
    if changed:
        notes.append("stage budget exhausted before stabilization; "
                     "presentation is inconclusive")
    pres = _presentation_from_stage(state, not changed, tuple(notes))
    sub = dict(zip(pres.symbols, pres.gen_words))
    for rel in pres.relators:
        expanded: list = []
        for sym, sign in rel:
            expanded.extend(sub[sym] if sign > 0 else inverse_word(sub[sym]))
        check = dehn_solve(free_reduce(tuple(expanded)), x)
        _invariant(check.trivial, "emitted relator is not trivial", state)
    return pres, PipelineReport(tuple(rows))
