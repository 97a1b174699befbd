"""Subgroup presentation pipeline: seeding, refinement, stabilization."""

import functools
import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelco.complexes import (CellImage, EdgeRec, Graph, MapKind, TwoComplex,
                              cell_image_path, classify_map, collapse,
                              collapse_with_rewrites, euler_characteristic,
                              identity_morphism)
from orelco.covers import (build_unwrapped_cover, find_exponent_n_quotient,
                           pull_back_subgroup)
from orelco.diagrams import build_reduced_diagram
from orelco.errors import InvalidComplexError
from orelco.orbicomplex import build_orbicomplex
from orelco.pipeline import (_P, PipelineState, _apply_rewrites, _bfs_frame,
                             _candidate_loop, _candidate_word, _cell_cocycle,
                             _cycle_key, _hop_codes, _label_table, _lift,
                             _path_word, _presentation_from_stage, _refine,
                             _sweep,
                             candidate_words, canonical_signature,
                             isomorphic_over_cover, present_subgroup,
                             seed_immersion)
from orelco.words import (dehn_solve, format_word, free_reduce, inverse_word,
                          parse_word)

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


def test_lifted_cells_have_exactly_one_cover_image(x, cover):
    # the lift tries only the sides over a cell's first edge; check against
    # every cover cell, orientation and offset that no other image fits
    x0 = cover.cover
    for u in (W("a b a b"), W("a b a b a b a b"), W("a a b a b a~"),
              W("b~ b~ a~ b~ a~ b")):
        d = build_reduced_diagram(u, x)
        for start in sorted(x0.skeleton.vertices):
            m = _lift(d.diagram, x0, start)
            for cid, path in d.diagram.cells.items():
                lifted = m.path_image(path)
                fits = [image for tc in sorted(x0.cells) for orient in (1, -1)
                        for offset in range(len(x0.cells[tc]))
                        if cell_image_path(x0, image := CellImage(
                            tc, offset, orient)) == lifted]
                assert fits == [m.cell_map[cid]]


def test_cover_lookup_rejects_a_non_covering_skeleton():
    g = Graph(frozenset({"v"}), {"e": EdgeRec("v", "v", "a"),
                                 "f": EdgeRec("v", "v", "a")})
    loop = TwoComplex(Graph(frozenset({"u"}), {"l": EdgeRec("u", "u", "a")}),
                      base_vertex="u")
    with pytest.raises(InvalidComplexError, match="both read"):
        _lift(loop, TwoComplex(g), "v")


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


def reference_candidate_words(num_gens, max_len):
    """Reference stream: extend every reduced word whose letters are no
    smaller than its first, then keep those that no rotation of the word or
    of its inverse undercuts, by an O(L^2) check per word."""
    def key(letter):
        return (letter[0], 0 if letter[1] > 0 else 1)

    def canonical(word):
        keys = tuple(key(l) for l in word)
        inv = tuple(key((i, -s)) for i, s in reversed(word))
        return not any(keys[r:] + keys[:r] < keys or inv[r:] + inv[:r] < keys
                       for r in range(len(word)))

    letters = sorted(((i, s) for i in range(num_gens) for s in (1, -1)),
                     key=key)

    def extend(word, target):
        if len(word) == target:
            if word[-1] != (word[0][0], -word[0][1]) and canonical(word):
                yield word
            return
        for l in letters:
            if key(l) >= key(word[0]) and l != (word[-1][0], -word[-1][1]):
                yield from extend(word + (l,), target)

    for target in range(1, max_len + 1):
        for l in letters:
            if l[1] > 0 or target > 1:
                yield from extend((l,), target)


@pytest.mark.parametrize("num_gens,max_len", [(1, 10), (2, 10), (3, 7)])
def test_candidate_stream_matches_the_reference_word_for_word(num_gens,
                                                               max_len):
    assert (list(candidate_words(num_gens, max_len))
            == list(reference_candidate_words(num_gens, max_len)))


def test_candidate_stream_size_at_the_default_budget():
    assert sum(1 for _ in candidate_words(2, 12)) == 34998


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
    loop = _candidate_loop(tuple(word), frame)
    assert _path_word(loop, state.to_cover, labels) == free_reduce(formal)


# ---------------------------------------------------------------------------
# the homology screen


@functools.lru_cache(maxsize=None)
def screen_cover(relator, n):
    x = build_orbicomplex(Graph.rose("ab"), W(relator), n)
    return x, build_unwrapped_cover(x, find_exponent_n_quotient(x, 8, 0))


SCREEN_GROUPS = [("a b", 2), ("a b a b~", 2), ("a b", 3)]


@pytest.mark.parametrize("relator,n", SCREEN_GROUPS)
def test_cell_cocycle_vanishes_on_every_cover_cell(relator, n):
    _, cover = screen_cover(relator, n)
    x0 = cover.cover
    weight = _cell_cocycle(x0)
    assert sorted(weight) == sorted(x0.skeleton.edges)
    assert all(0 <= v < _P for v in weight.values())
    for path in x0.cells.values():
        assert sum(s * weight[e] for e, s in path) % _P == 0


letters_ab = st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCREEN_GROUPS),
       st.lists(st.tuples(st.lists(letters_ab, max_size=6),
                          st.sampled_from((1, -1))), min_size=1, max_size=4),
       st.integers(0, 7))
def test_products_of_relator_power_conjugates_have_code_zero(group, factors,
                                                              start):
    x, cover = screen_cover(*group)
    weight = _cell_cocycle(cover.cover)
    power = x.relator_word() * x.branch_index
    word: list = []
    for u, sign in factors:
        word += [*u, *(power if sign > 0 else inverse_word(power)),
                 *inverse_word(tuple(u))]
    start = f"p{start % cover.quotient.degree}"
    path, end = cover.cover.skeleton.read(free_reduce(tuple(word)), start)
    assert end == start
    assert sum(s * weight[e] for e, s in path) % _P == 0


# The perfbench present instances and the acceptance subgroups at L <= 6,
# and a subgroup of seed rank 5.
SCREEN_RUNS = [
    ("a b", 2, ("b", "a a", "a b a~")),
    ("a b", 2, ("a",)),
    ("a b", 3, ("a b a", "b a b", "a a")),
    ("a b a b~", 2, ("a", "b a b~")),
    ("a b a b~", 2, ("a a", "b a b")),
]
SCREEN_WORD_LEN = 6


@pytest.mark.parametrize("relator,n,gens", SCREEN_RUNS)
def test_screen_passes_over_nontrivial_candidates_only(relator, n, gens):
    # a sweep without the screen, Dehn-solving every candidate: each one
    # the screen passes over is nontrivial, and both sweeps end in the same
    # state at every stage
    x, cover = screen_cover(relator, n)
    pulled = pull_back_subgroup([W(g) for g in gens], cover.quotient)
    state = seed_immersion(pulled, cover)
    screened = total = 0
    changed = True
    while changed:
        frame = _bfs_frame(state.current, state.to_cover)
        code = _hop_codes(frame, state.to_cover)
        expected = None
        for tried, word in enumerate(
                candidate_words(len(frame.gens), SCREEN_WORD_LEN)):
            total += 1
            f_word = _candidate_word(word, frame)
            trivial = dehn_solve(f_word, x).trivial
            if sum(code[letter] for letter in word) % _P:
                screened += 1
                assert not trivial
            elif trivial:
                expected = _refine(replace(state, cursor=tried), frame, word,
                                   f_word)
                if expected is not None:
                    break
        if expected is None:
            expected = replace(state, cursor=tried + 1)
        state, changed = _sweep(state, SCREEN_WORD_LEN)
        assert state == expected
    assert screened >= 0.8 * total


@pytest.mark.parametrize("relator,n,gens", SCREEN_RUNS)
def test_every_stage_map_is_the_label_lift(relator, n, gens):
    # the seed and every glued stage carry a label on each edge, and reading
    # those labels from the base rebuilds the stage map exactly
    _, cover = screen_cover(relator, n)
    x0 = cover.cover
    pulled = pull_back_subgroup([W(g) for g in gens], cover.quotient)
    state = seed_immersion(pulled, cover)
    changed = True
    while changed:
        y = state.current
        assert all(rec.label is not None for rec in y.skeleton.edges.values())
        assert _lift(y, x0, x0.base_vertex) == state.to_cover
        state, changed = _sweep(state, SCREEN_WORD_LEN)


RANK_FIVE_DIGEST = (
    "34146916e076086fe0d1a8585cb0354865ea5ccc819b5dc92b100bef4c93b31e")


def test_rank_five_presentation_pinned_across_commits():
    # <a^2, bab> in <a, b | (abab~)^2> seeds five generators, past the rank
    # the sweep reached without the screen; the digest was computed before
    # the screen existed
    x, _ = screen_cover("a b a b~", 2)
    pres, report = present_subgroup([W("a a"), W("b a b")], x,
                                    max_word_len=6, seed=0)
    lines = [f"symbols {' '.join(pres.symbols)}",
             f"stage {pres.stage} conclusive {pres.conclusive}"]
    lines += [f"gen {format_word(g)}" for g in pres.gen_words]
    lines += [f"rel {format_word(r)}" for r in pres.relators]
    lines += [f"note {note}" for note in pres.notes]
    lines += [f"row {r.stage} {r.chi1} {r.chi2} {r.cells} {r.free_edges} "
              f"{r.cursor} {r.cursor}" for r in report.rows]
    text = "\n".join(lines) + "\n"
    assert len(pres.symbols) == 5
    assert hashlib.sha256(text.encode()).hexdigest() == RANK_FIVE_DIGEST


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
    final, changed = _sweep(state, 12)
    assert changed and final.stage == state.stage + 1
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


@pytest.mark.parametrize("max_word_len", [0, -3])
def test_empty_word_budget_is_rejected(x, max_word_len):
    # no candidate would be tried, and the seed would pass as conclusive
    with pytest.raises(ValueError, match="max_word_len"):
        present_subgroup(STAB, x, max_word_len=max_word_len)


def test_budget_exhaustion_is_flagged_not_raised(x):
    pres, report = present_subgroup(STAB, x, max_stages=0)
    assert not pres.conclusive
    assert any("budget" in n for n in pres.notes)


def test_runs_are_deterministic(x):
    a = present_subgroup(STAB, x, seed=0)
    b = present_subgroup(STAB, x, seed=0)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_empty_candidate_loop_is_a_typed_error_under_optimized_python():
    # the loop of a trivial candidate is built only to be glued; a loop that
    # reduces to nothing must stop the run with the pipeline's own error,
    # also when python -O strips asserts
    script = (
        "import orelco.pipeline as p\n"
        "from orelco.complexes import Graph\n"
        "from orelco.errors import PipelineInvariantError\n"
        "from orelco.orbicomplex import build_orbicomplex\n"
        "from orelco.words import parse_word as W\n"
        "x = build_orbicomplex(Graph.rose('ab'), W('a b'), 2)\n"
        "p._candidate_loop = lambda word, frame: ()\n"
        "try:\n"
        "    p.present_subgroup([W('b'), W('a a'), W('a b a~')], x, seed=0)\n"
        "except PipelineInvariantError as err:\n"
        "    if 'candidate loop reduced to nothing' in str(err):\n"
        "        raise SystemExit(0)\n"
        "    raise\n"
        "raise SystemExit('no PipelineInvariantError under -O')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_presentation_extraction_reads_cell_relators(x, cover):
    y = cover.cover
    state = PipelineState(
        cover=cover, stage=0, current=y, to_cover=identity_morphism(y),
        cursor=0, seed_generator_count=3,
        seed_free_edges=4, gen_paths=())
    pres = _presentation_from_stage(state, 12, True, ())
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
