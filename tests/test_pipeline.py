"""Subgroup presentation pipeline: seeding, refinement, stabilization."""

import functools
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelco.complexes import (CellImage, CellMorphism, EdgeRec, Graph,
                              MapKind, TwoComplex, _restrict, cell_image_path,
                              classify_map, collapse, collapse_carrying,
                              dart_sort_key, euler_characteristic,
                              find_free_faces_and_edges, identity_morphism,
                              reverse_path)
from orelco.covers import (CoverReport, FiniteQuotient, build_unwrapped_cover,
                           find_exponent_n_quotient)
from orelco.diagrams import build_reduced_diagram
from orelco.errors import (DiagramError, InvalidComplexError, InvariantError,
                           PipelineInvariantError)
from orelco.folding import _canonical_cell_key, fold
from orelco.orbicomplex import build_orbicomplex
from orelco.pipeline import (_P, PipelineState, _bfs_frame,
                             _candidate_word, _cell_cocycle, _glue_and_fold,
                             _hop_codes, _is_bijection, _lift,
                             _presentation_from_stage, _refine,
                             _sweep, candidate_words, present_subgroup,
                             seed_immersion)
from orelco.words import (dehn_solve, format_word, free_reduce, inverse_word,
                          parse_word)

from quotient_draws import draw_quotient

W = parse_word


@pytest.fixture(scope="module")
def x():
    return build_orbicomplex(Graph.rose("ab"), W("a b"), 2)


@pytest.fixture(scope="module")
def cover(x):
    q = find_exponent_n_quotient(x, 4)
    return build_unwrapped_cover(x, q)


STAB = [W("b"), W("a a"), W("a b a~")]


# ---------------------------------------------------------------------------
# seeding


def test_seed_rejects_empty_generator_list(cover):
    with pytest.raises(ValueError, match="nonempty generator"):
        seed_immersion([], cover)
    with pytest.raises(ValueError, match="nonempty generator"):
        seed_immersion([W("a a~")], cover)


def test_seed_refuses_a_letter_outside_the_rose(cover):
    with pytest.raises(ValueError, match="letter 'c' is not a loop"):
        seed_immersion([W("a"), W("b c")], cover)


def hop_words(state):
    return [w for w, _ in _bfs_frame(state.current, state.to_cover).hop_words]


def test_seed_accepts_a_generator_that_moves_point_0(cover):
    # a swaps the two points, so <a> meets the cover's group in <a a>
    assert cover.quotient.act(0, W("a")) == 1
    state = seed_immersion([W("a")], cover)
    assert state.seed_generator_count == 1
    assert hop_words(state) == [W("a~ a~")]


def test_seed_folds_stabilizer_wedge_onto_cover_skeleton(cover):
    state = seed_immersion(STAB, cover)
    y = state.current
    assert len(y.skeleton.vertices) == 2
    assert len(y.skeleton.edges) == 4
    assert not y.cells
    assert classify_map(state.to_cover).kind >= MapKind.IMMERSION
    assert state.seed_generator_count == 3
    assert state.seed_free_edges == 4
    for gen in STAB:
        assert y.skeleton.read(gen, y.base_vertex)[1] == y.base_vertex
    assert len(state.gen_paths) == 3
    for path in state.gen_paths:
        assert path
        assert y.path_is_closed(path)
        assert y.skeleton.dart_origin(path[0]) == y.base_vertex


@pytest.mark.parametrize("gens,expected", [
    (["a", "b"], ["a~ a~", "b", "a b a~"]),
    (["a b"], ["b~ a~ b~ a~"]),
    (["b", "a a"], ["a~ a~", "b"]),
    (["a b a~", "b b"], ["b~ b~", "a b a~"]),
], ids=["full", "cyclic", "in-stabilizer", "conjugate"])
def test_seed_hops_fix_point_0(cover, gens, expected):
    # a basis of H ∩ K, read off the seed
    words = hop_words(seed_immersion([W(g) for g in gens], cover))
    assert words == [W(g) for g in expected]
    assert all(cover.quotient.act(0, w) == 0 for w in words)


def test_seed_over_a_relabelled_quotient_is_a_typed_error():
    # the cover's quotient with points 1 and 2 swapped: the product still
    # lifts by labels, but a ends over p1 in the cover, where the copies of
    # the wedge say p2
    _, cover = screen_cover("a b", 3)
    q = cover.quotient
    swap = (0, 2, 1)
    relabelled = FiniteQuotient(q.degree, {
        s: tuple(swap[p[swap[i]]] for i in range(q.degree))
        for s, p in q.perms.items()})
    with pytest.raises(PipelineInvariantError,
                       match="generator 0 does not read .* over p2"):
        seed_immersion([W("a")], cover._replace(quotient=relabelled))
    assert hop_words(seed_immersion([W("a")], cover)) == [W("a a a")]


def closes(y, word):
    read = y.skeleton.read(word, y.base_vertex)
    return read is not None and read[1] == y.base_vertex


def rose_fold(gens):
    """The fold of the wedge of ``gens`` over the rose on a and b: a reduced
    word reads a loop at its base exactly when it lies in the subgroup that
    ``gens`` generate (Stallings 1983)."""
    edges = {}
    for j, gen in enumerate(gens):
        ends = ["o"] + [f"o{j}.{t}" for t in range(1, len(gen))] + ["o"]
        for t, (sym, sign) in enumerate(gen):
            tail, head = ends[t:t + 2][::sign]
            edges[f"e{j}.{t}"] = EdgeRec(tail, head, sym)
    wedge = TwoComplex(Graph(frozenset(v for r in edges.values()
                                       for v in r[:2]), edges),
                       base_vertex="o")
    rose = TwoComplex(Graph.rose("ab"), base_vertex="*")
    return fold(_lift(wedge, rose, "*")).folded


def reduced_words(max_len):
    words, out = [()], []
    for _ in range(max_len):
        words = [w + (l,) for w in words for l in W("a a~ b b~")
                 if not w or l != (w[-1][0], -w[-1][1])]
        out += words
    return out


def test_seed_loops_are_the_words_of_the_subgroup_that_fix_point_0():
    # over seeded subgroups of the five corpus groups, a reduced word of at
    # most six letters reads a loop at the seed's base exactly when it lies
    # in H and fixes point 0
    covers = {g: screen_cover(*g)[1] for g in CORPUS_GROUPS}
    words = reduced_words(6)
    moved = 0
    for relator, n, gens in random_subgroups(40, 1):
        kept = [g for g in map(free_reduce, gens) if g]
        if not kept:
            continue
        q = covers[relator, n].quotient
        moved += any(q.act(0, g) for g in kept)
        y = seed_immersion(gens, covers[relator, n]).current
        h = rose_fold(kept)
        for u in words:
            assert closes(y, u) == (closes(h, u) and q.act(0, u) == 0)
    assert moved >= 20


def test_the_seed_is_cut_to_its_core():
    # H = <b~ b~ a~ b> folds to a graph whose base has degree 1, so the
    # product's copies at points 1 and 2 leave a hair of two edges, which
    # the seed drops
    x, cover = screen_cover("a b", 3)
    y = seed_immersion([W("b~ b~ a~ b")], cover).current
    assert (len(y.skeleton.vertices), len(y.skeleton.edges)) == (7, 7)
    _, report = present_subgroup([W("b~ b~ a~ b")], x, max_word_len=5)
    assert [tuple(r) for r in report.rows] == [(1, 1, 1, 0, 6, 0)] * 2


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


def _one_loop(label, vertices=("u",), cells=None):
    """A complex whose one edge ``e`` is a loop at its base ``u``."""
    edges = {"e": EdgeRec("u", "u", label)}
    return TwoComplex(Graph(frozenset(vertices), edges), cells, "u")


@pytest.mark.parametrize("z, message", [
    (_one_loop("c"), "no cover dart at p0 reads the label of ('e', 1)"),
    # the a-dart at p0 ends at p1, so a loop cannot lift
    (_one_loop("a"), "label lift is inconsistent"),
    (_one_loop("b", vertices=("u", "v")),
     "complex is not connected from the base"),
    # b b reads no cover cell, whose boundaries alternate a and b
    (_one_loop("b", cells={"c": (("e", 1), ("e", 1))}),
     "lifted cell boundary matches no cover cell"),
], ids=["foreign-label", "inconsistent", "disconnected", "foreign-cell"])
def test_a_lift_that_breaks_an_invariant_says_which(cover, z, message):
    with pytest.raises(PipelineInvariantError) as caught:
        _lift(z, cover.cover, "p0")
    assert str(caught.value) == message


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


def zero_code_stream(num_gens, max_len):
    """Every class: the enumerator with all letter codes zero, whose
    indices count up and whose last item counts the classes."""
    *items, last = candidate_words([0] * (2 * num_gens), max_len)
    assert [i for i, _ in items] == list(range(len(items)))
    assert last == (len(items), None)
    return [w for _, w in items]


def word_code(codes, word):
    return sum(codes[2 * i + (s < 0)] for i, s in word) % _P


STREAM_CASES = [(1, 10), (2, 10), (3, 7)]


@pytest.mark.parametrize("num_gens,max_len", STREAM_CASES)
def test_candidate_stream_matches_the_reference_word_for_word(num_gens,
                                                               max_len):
    assert (zero_code_stream(num_gens, max_len)
            == list(reference_candidate_words(num_gens, max_len)))


def code_vectors(num_gens, seed):
    """Letter codes by key: all zero, all nonzero, some generators zero
    (both letters of such a generator settle together), small codes from
    {0, 1, 2}, and with two generators ``c_1 = -c_0``, so that classes
    other than the empty one pass, and ``c_1 = c_0``, so that several last
    letters settle at one prefix."""
    rng = random.Random(seed)

    def draw():
        return rng.randrange(1, _P)

    gens = [[0] * num_gens, [draw() for _ in range(num_gens)],
            [draw() if i % 2 else 0 for i in range(num_gens)],
            [rng.choice((0, 1, 2)) for _ in range(num_gens)]]
    if num_gens >= 2:
        c = draw()
        rest = [draw() for _ in range(num_gens - 2)]
        gens += [[c, _P - c] + rest, [c, c] + rest]
    return [[v for c in g for v in (c, -c % _P)] for g in gens]


@pytest.mark.parametrize("num_gens,max_len", STREAM_CASES)
def test_screened_stream_is_the_zero_code_part_of_every_class(num_gens,
                                                               max_len):
    every = zero_code_stream(num_gens, max_len)
    for codes in code_vectors(num_gens, seed=num_gens * 100 + max_len):
        *items, last = candidate_words(codes, max_len)
        assert items == [(i, w) for i, w in enumerate(every)
                         if word_code(codes, w) == 0]
        assert last == (len(every), None)
        if codes[0] and codes[2:3] == [_P - codes[0]]:   # c_1 = -c_0
            assert any(len(w) > 1 for _, w in items)


def plain_candidate_words(codes, max_len):
    """The enumerator as it was before it settled the last letter without
    a walk, kept verbatim: every leaf of the necklace tree is visited."""
    top = len(codes)
    letter = tuple((k >> 1, -1 if k & 1 else 1) for k in range(top)).__getitem__
    count = 0
    for target in range(1, max_len + 1):
        a = [0] * target
        period = [1] * (target + 1)     # period[t]: FKM period of a[:t]
        code = [0] * (target + 1)       # code[t]: code of a[:t], mod _P
        t, x = 0, 0
        while True:
            if t == target:
                if target % period[t] == 0 and a[-1] != a[0] ^ 1:
                    if not code[t]:
                        yield count, tuple(map(letter, a))
                    count += 1
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


@pytest.mark.parametrize("num_gens,max_len",
                         [(1, 12), (2, 12), (3, 8), (4, 6), (5, 5)])
def test_settled_last_letters_match_the_plain_walk_item_for_item(num_gens,
                                                                 max_len):
    for codes in code_vectors(num_gens, seed=num_gens * 31 + max_len):
        assert (list(candidate_words(codes, max_len))
                == list(plain_candidate_words(codes, max_len)))


# The benchmark's present instances at their word budgets.
PRESENT_RUNS = [
    ("a b", 2, ("b", "a a", "a b a~"), 12),
    ("a b", 3, ("a b a", "b a b", "a a"), 6),
    ("a b a b~", 2, ("a", "b a b~"), 6),
]
# The first instance seeds a stage of rank 3, whose stream at 12 letters
# takes the plain walk half a minute; its sweep glues at the first
# candidate there, and walks the whole stream only at the stable stage.
SEED_STAGE_MAX_LEN = 9


@pytest.mark.parametrize("relator,n,gens,max_len", PRESENT_RUNS)
def test_present_stage_streams_match_the_plain_walk(relator, n, gens,
                                                     max_len):
    # the streams over the real letter codes of the seed stage and of the
    # stable stage, whose stream the sweep walks to its last item
    _, cover = screen_cover(relator, n)
    seed = state = seed_immersion([W(g) for g in gens], cover)
    changed = True
    while changed:
        state, changed = _sweep(state, max_len)
    for stage, budget in ((seed, min(max_len, SEED_STAGE_MAX_LEN)),
                          (state, max_len)):
        codes = _hop_codes(_bfs_frame(stage.current, stage.to_cover),
                           stage.to_cover)
        got = list(candidate_words(codes, budget))
        assert got == list(plain_candidate_words(codes, budget))
        assert len(got) > 1


def test_candidate_stream_size_at_the_default_budget():
    assert len(zero_code_stream(2, 12)) == 34998


def test_candidate_stream_matches_brute_force_classes():
    got = zero_code_stream(2, 4)
    assert len(got) == len(set(got))
    assert len(got) == len(brute_classes(2, 4))


def test_candidate_stream_is_cyclically_reduced_and_ordered():
    prev = None
    for w in zero_code_stream(3, 3):
        assert w[-1] != (w[0][0], -w[0][1]) or len(w) == 1
        for a, b in zip(w, w[1:]):
            assert b != (a[0], -a[1])
        key = (len(w), tuple((i, 0 if s > 0 else 1) for i, s in w))
        if prev is not None:
            assert prev < key
        prev = key


def test_single_generator_stream_is_powers():
    assert zero_code_stream(1, 3) == [
        (((0, 1),)), ((0, 1), (0, 1)), ((0, 1), (0, 1), (0, 1))]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))),
                max_size=6))
def test_candidate_word_reads_the_reduced_hop_product(word):
    # the word read from the base is the product of the generators' hops
    # with its backtracks cancelled, and its image in the cover spells it
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    q = find_exponent_n_quotient(x, 4)
    cover = build_unwrapped_cover(x, q)
    state = seed_immersion(STAB, cover)
    y = state.current
    frame = _bfs_frame(y, state.to_cover)
    hops: list = []
    for idx, sign in word:
        hops.extend(frame.hops[idx] if sign > 0
                    else reverse_path(frame.hops[idx]))
    f_word = _candidate_word(tuple(word), frame)
    read = y.skeleton.read(f_word, y.base_vertex)
    assert read is not None and read[1] == y.base_vertex
    assert read[0] == free_reduce(hops)
    labels = state.to_cover.target.skeleton.edges
    assert tuple((labels[e].label, s)
                 for e, s in state.to_cover.path_image(read[0])) == f_word


def test_refine_refuses_a_word_that_does_not_close(cover):
    # the seed covers the rose with two vertices, and ``a`` leaves the base
    state = seed_immersion(STAB, cover)
    with pytest.raises(PipelineInvariantError,
                       match="candidate word does not close at the base"):
        _refine(state, W("a"))


# ---------------------------------------------------------------------------
# the homology screen


@functools.lru_cache(maxsize=None)
def screen_cover(relator, n):
    x = build_orbicomplex(Graph.rose("ab"), W(relator), n)
    return x, build_unwrapped_cover(x, find_exponent_n_quotient(x, 8))


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
    power = x.relator * x.branch_index
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
    state = seed_immersion([W(g) for g in gens], cover)
    screened = total = 0
    changed = True
    while changed:
        frame = _bfs_frame(state.current, state.to_cover)
        codes = _hop_codes(frame, state.to_cover)
        expected = None
        for tried, word in enumerate(
                zero_code_stream(len(frame.gens), SCREEN_WORD_LEN)):
            total += 1
            f_word = _candidate_word(word, frame)
            trivial = dehn_solve(f_word, x).trivial
            if word_code(codes, word):
                screened += 1
                assert not trivial
            elif trivial:
                expected = _refine(state._replace(cursor=tried), f_word)
                if expected is not None:
                    break
        if expected is None:
            expected = state._replace(cursor=tried + 1)
        state, changed = _sweep(state, SCREEN_WORD_LEN)
        assert state == expected
    assert screened >= 0.8 * total


@pytest.mark.parametrize("relator,n,gens", SCREEN_RUNS)
def test_sweep_builds_label_words_for_code_zero_candidates_only(
        monkeypatch, relator, n, gens):
    # each sweep reads and Dehn-solves exactly the code-zero candidates it
    # tries, up to the glued one or to the end of the stream
    import orelco.pipeline as pipeline

    calls = {"word": 0, "dehn": 0}
    glued_at = []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def refine(state, f_word):
        glued_at.append(state.cursor)
        return _refine(state, f_word)

    monkeypatch.setattr(pipeline, "_candidate_word",
                        counted("word", _candidate_word))
    monkeypatch.setattr(pipeline, "dehn_solve", counted("dehn", dehn_solve))
    monkeypatch.setattr(pipeline, "_refine", refine)
    _, cover = screen_cover(relator, n)
    state = seed_immersion([W(g) for g in gens], cover)
    screened = 0
    changed = True
    while changed:
        frame = _bfs_frame(state.current, state.to_cover)
        codes = _hop_codes(frame, state.to_cover)
        every = zero_code_stream(len(frame.gens), SCREEN_WORD_LEN)
        calls.update(word=0, dehn=0)
        state, changed = _sweep(state, SCREEN_WORD_LEN)
        tried = every[:glued_at[-1] + 1] if changed else every
        passed = sum(1 for w in tried if word_code(codes, w) == 0)
        assert calls == {"word": passed, "dehn": passed}
        screened += len(tried) - passed
    assert screened > 0


@pytest.mark.parametrize("relator,n,gens", SCREEN_RUNS)
def test_every_stage_map_is_the_label_lift(relator, n, gens):
    # the seed and every glued stage carry a label on each edge, and reading
    # those labels from the base rebuilds the stage map exactly
    _, cover = screen_cover(relator, n)
    x0 = cover.cover
    state = seed_immersion([W(g) for g in gens], cover)
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


CORPUS_GROUPS = [("a b", 2), ("a b a b~", 2), ("a a b b b", 2), ("a b", 3),
                 ("a b a b~", 3)]


def random_subgroups(count, seed, max_gen_len=5):
    """``count`` seeded draws of a group of ``CORPUS_GROUPS`` and one to
    three words of 1 to ``max_gen_len`` letters, not reduced."""
    rng = random.Random(seed)
    for _ in range(count):
        relator, n = rng.choice(CORPUS_GROUPS)
        gens = [tuple((rng.choice("ab"), rng.choice((1, -1)))
                      for _ in range(rng.randint(1, max_gen_len)))
                for _ in range(rng.randint(1, 3))]
        yield relator, n, gens


CORPUS_DIGEST = (
    "7284befc7056280fe648e3069ce6b785377f3005b343b33a149ebee3d21a5263")


def test_random_subgroup_corpus_pinned():
    # every presentation, note and stage row over 300 seeded subgroups, most
    # of them with a generator that moves point 0; the digest was computed
    # before the seed became a fibre product
    groups = {g: screen_cover(*g)[0] for g in CORPUS_GROUPS}
    digest = hashlib.sha256()
    for relator, n, gens in random_subgroups(300, 0):
        pres, report = present_subgroup(gens, groups[relator, n],
                                        max_word_len=5)
        digest.update(repr((tuple(pres), tuple(map(tuple, report.rows)))
                           ).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


# ---------------------------------------------------------------------------
# signatures and the unchanged rule


def canonical_signature(y, m):
    """Reference invariant of a complex over the target of ``m``: vertices
    named by breadth-first discovery from the base, darts ordered by their
    images, each edge oriented to read its image positively, and each cell
    normalized up to rotation and reflection.  Equal signatures mean an
    isomorphism over the target that keeps the base."""
    names = {y.base_vertex: "v0"}
    for v in (queue := [y.base_vertex]):
        for d in sorted(y.skeleton.darts_at(v),
                        key=lambda d: dart_sort_key(m.dart_image(d))):
            w = y.skeleton.dart_terminus(d)
            if w not in names:
                names[w] = f"v{len(names)}"
                queue.append(w)
    keyed = []
    for e, rec in y.skeleton.edges.items():
        img_e, img_s = m.edge_map[e]
        tail, head = (rec.tail, rec.head) if img_s > 0 else (rec.head,
                                                              rec.tail)
        keyed.append(((names[tail], names[head], img_e), e, img_s))
    keyed.sort()
    edge_names = {e: (f"e{k}", flip) for k, (_, e, flip) in enumerate(keyed)}
    cell_keys = [
        _canonical_cell_key(tuple((edge_names[e][0], s * edge_names[e][1])
                                  for e, s in path), m.cell_map[cid])
        for cid, path in y.cells.items()]
    return (len(names), tuple(key for key, _, _ in keyed),
            tuple(sorted(cell_keys)))


def rename(y, m, vpre="zz_", epre="qq_"):
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
    assert (canonical_signature(state.current, state.to_cover)
            == canonical_signature(y2, m2))


def test_signature_is_invariant_under_edge_reorientation(cover):
    state = seed_immersion(STAB, cover)
    e = sorted(state.current.skeleton.edges)[0]
    y2, m2 = flip_edge(state.current, state.to_cover, e)
    assert (canonical_signature(state.current, state.to_cover)
            == canonical_signature(y2, m2))


def test_signature_separates_different_stages(x, cover):
    state = seed_immersion(STAB, cover)
    final, changed = _sweep(state, 12)
    assert changed and final.stage == state.stage + 1
    assert (canonical_signature(state.current, state.to_cover)
            != canonical_signature(final.current, final.to_cover))


def test_cover_cell_signature_sees_the_cell(cover):
    y = cover.cover
    m = identity_morphism(y)
    sig = canonical_signature(y, m)
    assert sig[0] == 2 and len(sig[1]) == 4 and len(sig[2]) == 1


def hand_built_state(cover, y):
    """A stage over ``cover`` whose complex ``y`` is the cover or a part of
    it through the base, with bounds that no gluing reaches."""
    return PipelineState(
        cover=cover, stage=0, current=y,
        to_cover=_restrict(identity_morphism(cover.cover), y), cursor=0,
        seed_generator_count=99, seed_free_edges=99, gen_paths=())


def one_skeleton(c):
    return TwoComplex(c.skeleton, {}, base_vertex=c.base_vertex)


def trivial_word(rng, x):
    """A reduced product of one or two conjugates of ``w^(+-n)``."""
    power = x.relator * x.branch_index
    word: list = []
    for _ in range(rng.randint(1, 2)):
        u = tuple((rng.choice("ab"), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 3)))
        word += [*u, *(power if rng.random() < 0.5 else inverse_word(power)),
                 *inverse_word(u)]
    return free_reduce(tuple(word))


UNCHANGED_GROUPS = [("a b a b~", 2), ("a a b b b", 2), ("a b a b~", 3),
                    ("a b", 2), ("a b", 3)]


def test_unchanged_rule_agrees_with_the_signature_on_a_corpus():
    # gluings onto three covers per group, read as hand-built stages with
    # cells and as their cell-free 1-skeletons; the walks from a 1-skeleton
    # go on from each changed stage.  Each answer of the chain-map rule
    # matches the reference signatures and decides _refine.
    answers = {True: 0, False: 0}
    for k, (relator, n) in enumerate(UNCHANGED_GROUPS):
        x = build_orbicomplex(Graph.rose("ab"), W(relator), n)
        rng = random.Random(k)
        for _ in range(3):
            cover = build_unwrapped_cover(x, draw_quotient(rng, x))
            for start, walk in ((cover.cover, False),
                                (one_skeleton(cover.cover), False),
                                (one_skeleton(cover.cover), True)):
                state = hand_built_state(cover, start)
                for _ in range(12):
                    y, word = state.current, trivial_word(rng, x)
                    read = y.skeleton.read(word, y.base_vertex)
                    if not word or read is None or read[1] != y.base_vertex:
                        continue
                    folded = _glue_and_fold(state,
                                            build_reduced_diagram(word, x))
                    collapsed, _ = collapse_carrying(folded.folded)
                    unchanged = _is_bijection(
                        _restrict(folded.projection, y), collapsed)
                    assert unchanged == (
                        canonical_signature(
                            collapsed, _restrict(folded.inclusion, collapsed))
                        == canonical_signature(y, state.to_cover))
                    answers[unchanged] += 1
                    refined = _refine(state, word)
                    assert (refined is None) == unchanged
                    if walk and refined is not None:
                        state = refined
    assert answers[True] >= 100 and answers[False] >= 100, answers


def test_a_cell_boundary_glues_to_an_unchanged_stage():
    # each boundary word of the cover's cells, read from the base in either
    # direction, glues one cell that fold merges into the cell it bounds
    x = build_orbicomplex(Graph.rose("ab"), W("a b a b~"), 2)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4))
    c = cover.cover
    assert (len(c.skeleton.vertices), len(c.skeleton.edges), len(c.cells)) \
        == (4, 8, 2)
    assert not find_free_faces_and_edges(c)[0]
    state = hand_built_state(cover, c)
    words = set()
    for path in c.cells.values():
        for r in range(len(path)):
            loop = path[r:] + path[:r]
            for p in (loop, reverse_path(loop)):
                if c.skeleton.dart_origin(p[0]) == c.base_vertex:
                    words.add(tuple(map(c.skeleton.dart_label, p)))
    assert len(words) >= 4
    for word in sorted(words):
        assert len(build_reduced_diagram(word, x).diagram.cells) == 1
        assert _refine(state, word) is None


def test_a_glued_cell_on_the_same_skeleton_is_a_change():
    # the chain map of the cover's 1-skeleton is a bijection on vertices
    # and edges; only the cells tell the stages apart
    x = build_orbicomplex(Graph.rose("ab"), W("a a b b b"), 2)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4))
    c = cover.cover
    path = next(iter(c.cells.values()))
    r = next(r for r, d in enumerate(path)
             if c.skeleton.dart_origin(d) == c.base_vertex)
    word = tuple(map(c.skeleton.dart_label, path[r:] + path[:r]))
    refined = _refine(hand_built_state(cover, one_skeleton(c)), word)
    assert refined is not None
    y = refined.current
    assert (len(y.skeleton.vertices), len(y.skeleton.edges), len(y.cells)) \
        == (2, 4, 1)


def test_bijection_needs_a_one_to_one_map():
    # a 2-cycle onto a one-vertex loop reaches every vertex and edge
    two = TwoComplex(Graph(frozenset({"u", "v"}),
                           {"e": EdgeRec("u", "v", "a"),
                            "f": EdgeRec("v", "u", "a")}), base_vertex="u")
    loop = TwoComplex(Graph(frozenset({"p"}), {"l": EdgeRec("p", "p", "a")}),
                      base_vertex="p")
    m = CellMorphism(two, loop, {"u": "p", "v": "p"},
                     {"e": ("l", 1), "f": ("l", 1)}, {})
    assert not _is_bijection(m, loop)
    assert _is_bijection(identity_morphism(loop), loop)


# ---------------------------------------------------------------------------
# collapse carrying paths


def test_collapse_carrying_matches_plain_collapse(cover):
    c = cover.cover
    removed = set(c.skeleton.edges) - set(collapse(c).skeleton.edges)
    assert len(removed) == 1
    (e,) = removed
    collapsed, (arc, back) = collapse_carrying(c, [((e, 1),), ((e, -1),)])
    assert collapsed == collapse(c)
    assert not collapsed.cells
    g = collapsed.skeleton
    assert len(arc) == 3 and back == reverse_path(arc)
    assert all(d[0] in g.edges for d in arc)
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


def test_negative_stage_budget_is_rejected(x):
    with pytest.raises(ValueError, match="max_stages must be at least 0"):
        present_subgroup(STAB, x, max_stages=-1)


@pytest.mark.parametrize("gens", [[], ["a a~"], ["a"]],
                         ids=["none", "trivial-word", "a"])
@pytest.mark.parametrize("max_degree", [0, -2])
def test_an_empty_degree_budget_is_rejected_for_every_subgroup(
        x, gens, max_degree):
    # the trivial subgroup once returned a conclusive empty presentation,
    # while <a> raised this error from the quotient search
    with pytest.raises(ValueError, match=(
            f"^max_degree must be at least 1, got {max_degree}$")):
        present_subgroup([W(g) for g in gens], x, max_degree=max_degree)


def test_a_letter_outside_the_rose_is_refused_before_the_quotient_search(
        x, monkeypatch):
    # the letter check comes before free reduction, so c c~ is refused too
    import orelco.pipeline as pipeline

    def no_search(*args):
        raise AssertionError("the quotient search ran")
    monkeypatch.setattr(pipeline, "find_exponent_n_quotient", no_search)
    # and before the degree budget, as at max_degree=0 it always was
    for gens in ([W("c")], [W("c c~")], [W("a b"), W("a c")]):
        for max_degree in (8, 0):
            with pytest.raises(ValueError, match="letter 'c' is not a loop"):
                present_subgroup(gens, x, max_word_len=4,
                                 max_degree=max_degree)


@pytest.mark.parametrize("relator, trivial", [("x1 x1~", True),
                                               ("x1", False)])
def test_an_emitted_relator_is_checked_in_the_group(x, monkeypatch, relator,
                                                    trivial):
    # no real input emits a relator yet, so one is appended to the
    # presentation of <a>, whose one generator x1 is a~ a~
    import orelco.pipeline as pipeline

    def with_relator(*args):
        pres = _presentation_from_stage(*args)
        return pres._replace(relators=pres.relators + (W(relator),))
    monkeypatch.setattr(pipeline, "_presentation_from_stage", with_relator)
    if trivial:
        pres, _ = present_subgroup([W("a")], x)
        assert pres.symbols == ("x1",) and pres.relators == (W(relator),)
    else:
        # the message carries the state summary after the breach
        with pytest.raises(PipelineInvariantError,
                           match=r"emitted relator is not trivial: "
                                 r"stage=\d+ cursor=\d+ V=\d+ E=\d+ cells="):
            present_subgroup([W("a")], x)


@pytest.mark.parametrize("gen_word, trivial", [("a b", True), ("a", False)])
def test_an_emitted_relator_is_read_over_its_generator_word(
        x, monkeypatch, gen_word, trivial):
    # x1 x1 over x1 = a b is (ab)^2, the relator; over x1 = a it is a^2,
    # which is not trivial in the group
    import orelco.pipeline as pipeline

    def one_relator(*args):
        return _presentation_from_stage(*args)._replace(
            symbols=("x1",), relators=(W("x1 x1"),), gen_words=(W(gen_word),))
    monkeypatch.setattr(pipeline, "_presentation_from_stage", one_relator)
    if trivial:
        pres, _ = present_subgroup([W("a")], x)
        assert pres.relators == (W("x1 x1"),)
        assert pres.gen_words == (W(gen_word),)
    else:
        with pytest.raises(PipelineInvariantError,
                           match="emitted relator is not trivial"):
            present_subgroup([W("a")], x)


def test_a_failed_cover_audit_names_its_witnesses(x, monkeypatch):
    # the cover's build runs the audit and raises on its witnesses
    import orelco.covers as covers
    report = CoverReport(("edge a0 is not covered", "euler is off"), 0)
    monkeypatch.setattr(covers, "verify_cover", lambda cover: report)
    with pytest.raises(InvariantError) as info:
        present_subgroup([W("a")], x)
    assert type(info.value) is InvariantError
    assert str(info.value) == ("cover audit failed: edge a0 is not covered; "
                               "euler is off")
    assert issubclass(DiagramError, InvariantError)


def test_a_presentation_audits_its_cover_once(monkeypatch):
    # the abab~2-small instance of the benchmark's present workload
    import orelco.covers as covers
    real, calls = covers.verify_cover, []

    def counted(cover):
        calls.append(cover)
        return real(cover)

    monkeypatch.setattr(covers, "verify_cover", counted)
    x = build_orbicomplex(Graph.rose("ab"), W("a b a b~"), 2)
    present_subgroup([W("a"), W("b a b~")], x, max_word_len=6)
    assert len(calls) == 1


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
    # the loop of a trivial candidate is read only to be glued; a candidate
    # word that reads no edge must stop the run with the pipeline's own
    # error, also when python -O strips asserts
    script = (
        "import orelco.pipeline as p\n"
        "from orelco.complexes import Graph\n"
        "from orelco.errors import PipelineInvariantError\n"
        "from orelco.orbicomplex import build_orbicomplex\n"
        "from orelco.words import parse_word as W\n"
        "x = build_orbicomplex(Graph.rose('ab'), W('a b'), 2)\n"
        "p._candidate_word = lambda word, frame: ()\n"
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
