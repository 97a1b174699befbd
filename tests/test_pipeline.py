"""Subgroup presentation pipeline: seeding, refinement, stabilization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelco.complexes import (Graph, MapKind, classify_map, collapse,
                              collapse_with_rewrites, compose,
                              euler_characteristic, identity_morphism)
from orelco.covers import build_unwrapped_cover, find_exponent_n_quotient
from orelco.orbicomplex import build_orbicomplex
from orelco.pipeline import (PipelineState, _apply_rewrites, _bfs_frame,
                             _candidate_loop, _cycle_key, _label_table,
                             _path_word, _presentation_from_stage,
                             candidate_words, canonical_signature,
                             isomorphic_over_cover, present_subgroup,
                             refine_step, seed_immersion)
from orelco.words import dehn_solve, free_reduce, inverse_word, parse_word

W = parse_word


@pytest.fixture(scope="module")
def x():
    return build_orbicomplex(Graph.rose("ab"), W("a b"), 2)


@pytest.fixture(scope="module")
def cover(x):
    q = find_exponent_n_quotient(x, 4, 0)
    return build_unwrapped_cover(x, q)


STAB = [W("b"), W("a a"), W("a b a~")]


# ---------------------------------------------------------------------------
# seeding


def test_seed_rejects_empty_generator_list(cover):
    with pytest.raises(ValueError, match="nonempty generator"):
        seed_immersion([], cover)
    with pytest.raises(ValueError, match="nonempty generator"):
        seed_immersion([W("a a~")], cover)


def test_seed_rejects_open_generator(cover):
    with pytest.raises(ValueError, match="closed loop"):
        seed_immersion([W("a")], cover)


def test_seed_folds_stabilizer_wedge_onto_cover_skeleton(cover):
    state = seed_immersion(STAB, cover)
    y = state.current
    assert len(y.skeleton.vertices) == 2
    assert len(y.skeleton.edges) == 4
    assert not y.cells
    assert classify_map(state.to_cover).kind >= MapKind.IMMERSION
    assert state.seed_generator_count == 3
    assert state.seed_free_edges == 4
    for path in state.gen_paths:
        assert path
        assert y.path_is_closed(path)
        assert y.skeleton.dart_origin(path[0]) == y.base_vertex


# ---------------------------------------------------------------------------
# candidate enumeration


def brute_classes(num_gens, max_len):
    """All cyclic-rotation-and-inversion classes of cyclically reduced words,
    counted by brute force."""
    letters = [(i, s) for i in range(num_gens) for s in (1, -1)]

    def all_words(length):
        if length == 0:
            yield ()
            return
        for w in all_words(length - 1):
            for l in letters:
                if w and l == (w[-1][0], -w[-1][1]):
                    continue
                yield w + (l,)

    classes = set()
    for length in range(1, max_len + 1):
        for w in all_words(length):
            if w[-1] == (w[0][0], -w[0][1]):
                continue
            orbit = set()
            inv = tuple((i, -s) for i, s in reversed(w))
            for r in range(length):
                orbit.add(w[r:] + w[:r])
                orbit.add(inv[r:] + inv[:r])
            classes.add(min(orbit))
    return classes


def test_candidate_stream_matches_brute_force_classes():
    got = list(candidate_words(2, 4))
    assert len(got) == len(set(got))
    assert len(got) == len(brute_classes(2, 4))


def test_candidate_stream_is_cyclically_reduced_and_ordered():
    prev = None
    for w in candidate_words(3, 3):
        assert w[-1] != (w[0][0], -w[0][1]) or len(w) == 1
        for a, b in zip(w, w[1:]):
            assert b != (a[0], -a[1])
        key = (len(w), tuple((i, 0 if s > 0 else 1) for i, s in w))
        if prev is not None:
            assert prev < key
        prev = key


def test_single_generator_stream_is_powers():
    assert list(candidate_words(1, 3)) == [
        (((0, 1),)), ((0, 1), (0, 1)), ((0, 1), (0, 1), (0, 1))]


def test_cycle_key_identifies_rotations_and_reversals():
    p = (("e1", 1), ("e2", -1), ("e3", 1))
    rot = p[1:] + p[:1]
    rev = tuple((e, -s) for e, s in reversed(p))
    assert _cycle_key(p) == _cycle_key(rot) == _cycle_key(rev)
    assert _cycle_key(p) != _cycle_key((("e1", 1), ("e2", 1), ("e3", 1)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))),
                max_size=6))
def test_candidate_loop_spells_the_reduced_generator_product(word):
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    q = find_exponent_n_quotient(x, 4, 0)
    cover = build_unwrapped_cover(x, q)
    state = seed_immersion(STAB, cover)
    frame = _bfs_frame(state.current, state.to_cover)
    labels = _label_table(state.to_cover.target)
    gen_fwords = []
    for d in frame.gens:
        g = state.current.skeleton
        hop = (frame.tree_paths[g.dart_origin(d)] + (d,)
               + tuple(reversed([(e, -s) for e, s in
                                 frame.tree_paths[g.dart_terminus(d)]])))
        gen_fwords.append(_path_word(hop, state.to_cover, labels))
    formal = []
    for idx, sign in word:
        formal.extend(gen_fwords[idx] if sign > 0
                      else inverse_word(gen_fwords[idx]))
    loop = _candidate_loop(tuple(word), frame, state.current)
    assert _path_word(loop, state.to_cover, labels) == free_reduce(formal)


# ---------------------------------------------------------------------------
# signatures


def rename(y, m, vpre="zz_", epre="qq_"):
    from orelco.complexes import CellMorphism, EdgeRec, TwoComplex
    vren = {v: vpre + v for v in y.skeleton.vertices}
    eren = {e: epre + e for e in y.skeleton.edges}
    g = Graph(frozenset(vren.values()),
              {eren[e]: EdgeRec(vren[r.tail], vren[r.head], r.label)
               for e, r in y.skeleton.edges.items()})
    cells = {c: tuple((eren[e], s) for e, s in p) for c, p in y.cells.items()}
    y2 = TwoComplex(g, cells, base_vertex=vren[y.base_vertex])
    m2 = CellMorphism(y2, m.target,
                      {vren[v]: im for v, im in m.vertex_map.items()},
                      {eren[e]: im for e, im in m.edge_map.items()},
                      dict(m.cell_map))
    return y2, m2


def flip_edge(y, m, e):
    from orelco.complexes import CellMorphism, EdgeRec, TwoComplex
    rec = y.skeleton.edges[e]
    edges = dict(y.skeleton.edges)
    edges[e] = EdgeRec(rec.head, rec.tail, rec.label)
    cells = {c: tuple((d, -s if d == e else s) for d, s in p)
             for c, p in y.cells.items()}
    emap = dict(m.edge_map)
    emap[e] = (emap[e][0], -emap[e][1])
    y2 = TwoComplex(Graph(y.skeleton.vertices, edges), cells,
                    base_vertex=y.base_vertex)
    return y2, CellMorphism(y2, m.target, dict(m.vertex_map), emap,
                            dict(m.cell_map))


def test_signature_is_invariant_under_renaming(cover):
    state = seed_immersion(STAB, cover)
    y2, m2 = rename(state.current, state.to_cover)
    assert isomorphic_over_cover(state.current, state.to_cover, y2, m2)


def test_signature_is_invariant_under_edge_reorientation(cover):
    state = seed_immersion(STAB, cover)
    e = sorted(state.current.skeleton.edges)[0]
    y2, m2 = flip_edge(state.current, state.to_cover, e)
    assert isomorphic_over_cover(state.current, state.to_cover, y2, m2)


def test_signature_separates_different_stages(x, cover):
    state = seed_immersion(STAB, cover)
    final = state
    while True:
        nxt = refine_step(final)
        if nxt.stage > state.stage:
            final = nxt
            break
        final = nxt
    assert not isomorphic_over_cover(state.current, state.to_cover,
                                     final.current, final.to_cover)


def test_cover_cell_signature_sees_the_cell(cover):
    y = cover.cover
    m = identity_morphism(y)
    sig = canonical_signature(y, m)
    assert sig[0] == 2 and len(sig[1]) == 4 and len(sig[2]) == 1


# ---------------------------------------------------------------------------
# collapse with rewrites


def test_collapse_with_rewrites_matches_plain_collapse(cover):
    c = cover.cover
    collapsed, rewrites = collapse_with_rewrites(c)
    assert collapsed == collapse(c)
    assert not collapsed.cells
    removed = set(c.skeleton.edges) - set(collapsed.skeleton.edges)
    assert len(removed) == 1
    (e,) = removed
    surviving = set(collapsed.skeleton.edges)
    arc = _apply_rewrites(((e, 1),), rewrites, surviving)
    g = collapsed.skeleton
    assert len(arc) == 3
    assert g.dart_origin(arc[0]) == c.skeleton.edges[e].tail
    assert g.dart_terminus(arc[-1]) == c.skeleton.edges[e].head
    for a, b in zip(arc, arc[1:]):
        assert g.dart_terminus(a) == g.dart_origin(b)


def test_reduce_dart_path_cancels_backtracks():
    p = (("e", 1), ("f", 1), ("f", -1), ("e", -1), ("g", 1))
    assert free_reduce(p) == (("g", 1),)


# ---------------------------------------------------------------------------
# full runs


def test_index_two_stabilizer_presents_free_of_rank_two(x):
    pres, report = present_subgroup(STAB, x, seed=0)
    assert pres.conclusive
    assert len(pres.symbols) == 2
    assert pres.relators == ()
    assert pres.stage == 1
    assert 1 - len(pres.symbols) + len(pres.relators) == -1
    for gw in pres.gen_words:
        assert not dehn_solve(gw, x).trivial
    assert report.rows[-1].chi2 == -1
    assert report.rows[-1].cells == 0
    assert report.rows[-1].free_edges <= 4


def test_cyclic_subgroup_presents_infinite_cyclic(x):
    pres, report = present_subgroup([W("a")], x, seed=0)
    assert pres.conclusive
    assert len(pres.symbols) == 1
    assert pres.relators == ()
    assert any("finite-index" in n for n in pres.notes)
    assert free_reduce(pres.gen_words[0], cyclic=True) in (W("a a"), W("a~ a~"))


def test_relator_cyclic_subgroup_presents_trivially(x):
    # the subgroup generated by the relator word itself: its stabilizer
    # intersection is generated by the relator power, which bounds a disk,
    # so the stable complex collapses to a tree
    pres, report = present_subgroup([W("a b")], x, seed=0)
    assert pres.conclusive
    assert pres.symbols == ()
    assert pres.relators == ()
    assert report.rows[-1].chi2 == 1


def test_trivial_input_short_circuits(x):
    pres, report = present_subgroup([], x)
    assert pres.conclusive and pres.symbols == () and pres.relators == ()
    assert report.rows == ()


def test_budget_exhaustion_is_flagged_not_raised(x):
    pres, report = present_subgroup(STAB, x, max_stages=0)
    assert not pres.conclusive
    assert any("budget" in n for n in pres.notes)


def test_runs_are_deterministic(x):
    a = present_subgroup(STAB, x, seed=0)
    b = present_subgroup(STAB, x, seed=0)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_refine_step_walks_to_the_same_first_change(x, cover):
    state = seed_immersion(STAB, cover)
    steps = 0
    while state.stage == 0:
        state = refine_step(state)
        steps += 1
        assert steps < 200
    assert state.stage == 1
    assert len(state.chain) == 1
    step = state.chain[0]
    assert classify_map(step.chain_map).kind >= MapKind.IMMERSION
    composite = compose(step.intermediate_to_cover, step.chain_map)
    fresh = seed_immersion(STAB, cover)
    assert composite == fresh.to_cover
    assert dehn_solve(step.f_word, build_orbicomplex(
        Graph.rose("ab"), W("a b"), 2)).trivial


def test_presentation_extraction_reads_cell_relators(x, cover):
    y = cover.cover
    state = PipelineState(
        cover=cover, stage=0, current=y, to_cover=identity_morphism(y),
        chain=(), cursor=0, stable_for=0, seed_generator_count=3,
        seed_free_edges=4, max_word_len=12, max_stages=200, gen_paths=())
    pres = _presentation_from_stage(state, True, ())
    assert len(pres.symbols) == 3
    assert len(pres.relators) == 1
    assert 1 - len(pres.symbols) + len(pres.relators) == euler_characteristic(y)
    rel = pres.relators[0]
    assert rel
    sub = dict(zip(pres.symbols, pres.gen_words))
    expanded = []
    for sym, sign in rel:
        expanded.extend(sub[sym] if sign > 0 else inverse_word(sub[sym]))
    assert dehn_solve(free_reduce(tuple(expanded)), x).trivial
