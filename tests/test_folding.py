import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orelco.complexes import (CellImage, CellMorphism, EdgeRec, Graph,
                              MapKind, TwoComplex, _flatten, cell_image_path,
                              classify_map, compose, identity_morphism,
                              reverse_path)
from orelco.diagrams import build_reduced_diagram
from orelco.errors import (FactorizationError, InvariantError,
                           NotImmersionError, NotMorphismError)
from orelco.folding import FoldResult, _union_darts, factor_unique, fold
from orelco.harness import _random_rose_morphism
from orelco.orbicomplex import build_orbicomplex
from orelco.textio import format_complex, format_fold_trace, format_morphism
from orelco.words import free_reduce, inverse_word, parse_word as W

import oracles

ROSE_AB = TwoComplex(skeleton=Graph.rose(["a", "b"]), cells={})
ROSE_A = TwoComplex(skeleton=Graph.rose(["a"]), cells={})


def two_loop_wedge(names=("e1", "e2")):
    g = Graph(vertices=frozenset({"v"}),
              edges={n: EdgeRec("v", "v", "a") for n in names})
    src = TwoComplex(skeleton=g, cells={}, base_vertex="v")
    return CellMorphism(src, ROSE_A, {"v": "*"},
                        {n: ("a", 1) for n in names}, {})


def test_fold_two_loops_to_one():
    res = fold(two_loop_wedge())
    assert set(res.folded.skeleton.edges) == {"e1"}
    assert set(res.folded.skeleton.vertices) == {"v"}
    g = res.folded.skeleton
    assert oracles.rank(g.vertices, g.edges) == 1
    assert res.projection.edge_map == {"e1": ("e1", 1), "e2": ("e1", 1)}
    assert res.trace == (("dart", ("e1", 1), ("e2", 1)),)
    assert classify_map(res.inclusion).kind >= MapKind.IMMERSION


def test_fold_is_relabel_robust():
    res = fold(two_loop_wedge(names=("z", "w")))
    assert len(res.folded.skeleton.edges) == 1
    assert len(res.folded.skeleton.vertices) == 1


def test_fold_rejects_non_morphism():
    g = Graph(vertices=frozenset({"v"}), edges={"e": EdgeRec("v", "v", "a")})
    src = TwoComplex(skeleton=g, cells={})
    bad = CellMorphism(src, ROSE_A, {"v": "*"}, {}, {})
    with pytest.raises(NotMorphismError):
        fold(bad)


def build_stallings_source():
    """Wedge spelling the generators a and b a b~ as subdivided loops."""
    g = Graph(
        vertices=frozenset({"u0", "u1", "u2"}),
        edges={
            "x": EdgeRec("u0", "u0", "a"),
            "y1": EdgeRec("u0", "u1", "b"),
            "y2": EdgeRec("u1", "u2", "a"),
            "y3": EdgeRec("u0", "u2", "b"),
        },
    )
    src = TwoComplex(skeleton=g, cells={}, base_vertex="u0")
    return CellMorphism(
        src, ROSE_AB, {v: "*" for v in g.vertices},
        {"x": ("a", 1), "y1": ("b", 1), "y2": ("a", 1), "y3": ("b", 1)}, {})


def _accepted_words(m: CellMorphism, base: str, max_len: int):
    """Reduced words readable as closed loops at the base of an immersion."""
    g = m.source.skeleton
    step = {}
    for v in g.vertices:
        for d in g.darts_at(v):
            step[(v, m.dart_image(d))] = g.dart_terminus(d)
    out = set()
    frontier = [(base, ())]
    while frontier:
        nxt = []
        for v, word in frontier:
            if word and v == base:
                out.add(word)
            if len(word) == max_len:
                continue
            for letter in [("a", 1), ("a", -1), ("b", 1), ("b", -1)]:
                if word and letter == (word[-1][0], -word[-1][1]):
                    continue
                if (v, letter) in step:
                    nxt.append((step[(v, letter)], word + (letter,)))
        frontier = nxt
    return out


def test_fold_stallings_membership():
    res = fold(build_stallings_source())
    folded = res.folded
    assert len(folded.skeleton.vertices) == 2
    assert len(folded.skeleton.edges) == 3
    assert oracles.rank(folded.skeleton.vertices, folded.skeleton.edges) == 2
    accepted = _accepted_words(res.inclusion, folded.base_vertex, 6)

    gens = {"x": (("a", 1),), "y": (("b", 1), ("a", 1), ("b", -1))}
    expected = set()
    alphabet = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
    frontier = [()]
    for _ in range(6):
        nxt = []
        for word in frontier:
            for letter in alphabet:
                if word and letter == (word[-1][0], -word[-1][1]):
                    continue
                nxt.append(word + (letter,))
        frontier = nxt
        for word in frontier:
            image = []
            for sym, sign in word:
                piece = gens[sym] if sign > 0 else tuple(
                    (s, -sg) for s, sg in reversed(gens[sym]))
                image.extend(piece)
            red = free_reduce(tuple(image))
            if 0 < len(red) <= 6:
                expected.add(red)
    assert accepted == expected


def rose_square_complex():
    g = Graph.rose(["a", "b"])
    return TwoComplex(skeleton=g, cells={"T": (("a", 1), ("b", 1))})


def test_fold_merges_duplicate_cells():
    tgt = rose_square_complex()
    g = Graph.rose(["a", "b"])
    src = TwoComplex(skeleton=g,
                     cells={"c0": (("a", 1), ("b", 1)),
                            "c1": (("a", 1), ("b", 1))})
    m = CellMorphism(src, tgt, {"*": "*"},
                     {"a": ("a", 1), "b": ("b", 1)},
                     {"c0": CellImage("T", 0, 1), "c1": CellImage("T", 0, 1)})
    res = fold(m)
    assert set(res.folded.cells) == {"c0"}
    assert ("cell", "c0", "c1") in res.trace
    assert res.projection.cell_map["c1"] == CellImage("c0", 0, 1)
    assert classify_map(res.inclusion).kind >= MapKind.IMMERSION


def test_fold_merges_mirror_cells():
    # same disk attached with opposite orientations must merge, otherwise the
    # two copies would share every target side and the result could not immerse
    tgt = rose_square_complex()
    g = Graph.rose(["a", "b"])
    src = TwoComplex(skeleton=g,
                     cells={"c0": (("a", 1), ("b", 1)),
                            "c1": (("b", -1), ("a", -1))})
    m = CellMorphism(src, tgt, {"*": "*"},
                     {"a": ("a", 1), "b": ("b", 1)},
                     {"c0": CellImage("T", 0, 1), "c1": CellImage("T", 1, -1)})
    res = fold(m)
    assert set(res.folded.cells) == {"c0"}
    assert res.projection.cell_map["c1"] == CellImage("c0", 1, -1)
    assert classify_map(res.inclusion).kind >= MapKind.IMMERSION


def test_fold_merges_rotated_cells():
    g = Graph.rose(["a", "b"])
    tgt = TwoComplex(skeleton=g, cells={"T": (("a", 1), ("b", 1), ("a", 1), ("b", 1))})
    src = TwoComplex(skeleton=g,
                     cells={"c0": (("a", 1), ("b", 1), ("a", 1), ("b", 1)),
                            "c1": (("b", 1), ("a", 1), ("b", 1), ("a", 1))})
    m = CellMorphism(src, tgt, {"*": "*"},
                     {"a": ("a", 1), "b": ("b", 1)},
                     {"c0": CellImage("T", 0, 1), "c1": CellImage("T", 1, 1)})
    res = fold(m)
    assert set(res.folded.cells) == {"c0"}
    assert res.projection.cell_map["c1"] == CellImage("c0", 1, 1)


def cover_map_x0():
    g = Graph(
        vertices=frozenset({"p0", "p1"}),
        edges={
            "a0": EdgeRec("p0", "p1", "a"),
            "a1": EdgeRec("p1", "p0", "a"),
            "b0": EdgeRec("p0", "p0", "b"),
            "b1": EdgeRec("p1", "p1", "b"),
        },
    )
    src = TwoComplex(skeleton=g,
                     cells={"f0": (("a0", 1), ("b1", 1), ("a1", 1), ("b0", 1))},
                     base_vertex="p0")
    tgt = TwoComplex(skeleton=Graph.rose(["a", "b"]),
                     cells={"d0": (("a", 1), ("b", 1), ("a", 1), ("b", 1))})
    return CellMorphism(
        src, tgt, {"p0": "*", "p1": "*"},
        {"a0": ("a", 1), "a1": ("a", 1), "b0": ("b", 1), "b1": ("b", 1)},
        {"f0": CellImage("d0", 0, 1)})


def test_fold_idempotent_on_immersion():
    m = cover_map_x0()
    res = fold(m)
    assert res.trace == ()
    assert res.folded == m.source
    assert res.projection == identity_morphism(m.source)
    assert res.inclusion == m


def test_fold_never_increases_counts():
    for m in [two_loop_wedge(), build_stallings_source(), cover_map_x0()]:
        res = fold(m)
        a, c = m.source, res.folded
        assert len(c.skeleton.vertices) <= len(a.skeleton.vertices)
        assert len(c.skeleton.edges) <= len(a.skeleton.edges)
        assert len(c.cells) <= len(a.cells)
        assert oracles.rank(c.skeleton.vertices, c.skeleton.edges) \
            <= oracles.rank(a.skeleton.vertices, a.skeleton.edges)


def test_factor_unique_through_identity():
    res = fold(two_loop_wedge())
    factor = factor_unique(res, identity_morphism(ROSE_A), two_loop_wedge())
    assert factor == res.inclusion


def test_factor_unique_through_own_inclusion():
    res = fold(two_loop_wedge())
    factor = factor_unique(res, res.inclusion, res.projection)
    assert factor == identity_morphism(res.folded)


def test_factor_unique_with_cells():
    m = cover_map_x0()
    res = fold(m)
    factor = factor_unique(res, res.inclusion, res.projection)
    assert factor == identity_morphism(res.folded)
    factor2 = factor_unique(res, identity_morphism(m.target), m)
    assert factor2 == res.inclusion


def test_factor_unique_recovers_deck_transformation():
    m = cover_map_x0()
    d = m.source
    relabel = CellMorphism(
        d, d,
        {"p0": "p1", "p1": "p0"},
        {"a0": ("a1", 1), "a1": ("a0", 1), "b0": ("b1", 1), "b1": ("b0", 1)},
        {"f0": CellImage("f0", 2, 1)})
    assert classify_map(relabel).kind == MapKind.COVERING
    shifted = compose(m, relabel)
    res = fold(shifted)
    assert res.trace == ()
    lifted = factor_unique(res, m, relabel)
    assert lifted == relabel


def test_factor_unique_rejects_non_commuting():
    res = fold(two_loop_wedge())
    src = two_loop_wedge().source
    wrong = CellMorphism(src, ROSE_A, {"v": "*"},
                         {"e1": ("a", 1), "e2": ("a", -1)}, {})
    with pytest.raises(FactorizationError):
        factor_unique(res, identity_morphism(ROSE_A), wrong)


def test_factor_unique_rejects_unimmersed_target():
    res = fold(two_loop_wedge())
    with pytest.raises(NotImmersionError):
        factor_unique(res, two_loop_wedge(), identity_morphism(two_loop_wedge().source))


def test_factor_unique_refuses_a_part_whose_lifts_disagree():
    # a hand-made fold of two disjoint a-loops onto one, lifted into two
    # disjoint roses: no map of the folded rose recovers both lifts
    loops = TwoComplex(Graph(frozenset({"u1", "u2"}),
                             {"e1": EdgeRec("u1", "u1", "a"),
                              "e2": EdgeRec("u2", "u2", "a")}), {})
    projection = CellMorphism(loops, ROSE_A, {"u1": "*", "u2": "*"},
                              {"e1": ("a", 1), "e2": ("a", 1)}, {})
    res = FoldResult(ROSE_A, projection, identity_morphism(ROSE_A))
    roses = TwoComplex(Graph(frozenset({"x1", "x2"}),
                             {"a1": EdgeRec("x1", "x1", "a"),
                              "a2": EdgeRec("x2", "x2", "a")}), {})
    through = CellMorphism(roses, ROSE_A, {"x1": "*", "x2": "*"},
                           {"a1": ("a", 1), "a2": ("a", 1)}, {})
    lift_of = CellMorphism(loops, roses, {"u1": "x1", "u2": "x2"},
                           {"e1": ("a1", 1), "e2": ("a2", 1)}, {})
    assert classify_map(through).kind >= MapKind.IMMERSION
    with pytest.raises(FactorizationError) as info:
        factor_unique(res, through, lift_of)
    assert str(info.value) == "vertex * lifts ambiguously: x1 vs x2"


@pytest.mark.parametrize("through, lift_of, message", [
    (lambda: identity_morphism(ROSE_A), lambda: two_loop_wedge(("z", "w")),
     "lift source differs from the folded map's source"),
    (lambda: identity_morphism(ROSE_AB), two_loop_wedge,
     "lift target differs from the immersion's source"),
    (lambda: CellMorphism(ROSE_A, ROSE_AB, {"*": "*"}, {"a": ("a", 1)}, {}),
     two_loop_wedge,
     "immersion target differs from the fold target"),
    (lambda: identity_morphism(ROSE_A),
     lambda: two_loop_wedge()._replace(edge_map={"e1": ("a", 1)}),
     "lift is not a morphism: edge e2 has no image"),
], ids=["lift-source", "lift-target", "fold-target", "lift-not-morphism"])
def test_factor_unique_refuses_inputs_outside_its_contract(through, lift_of,
                                                           message):
    res = fold(two_loop_wedge())
    with pytest.raises(FactorizationError) as info:
        factor_unique(res, through(), lift_of())
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# the worklist fold against the fold read from its definition


CELL_TARGET = TwoComplex(
    Graph.rose(["a", "b"]),
    {"T": W("a b a b~"), "U": W("a a b"), "V": W("a b a b")})


def _images(path_image):
    """Every (cell, offset, orientation) whose boundary is ``path_image``."""
    out = []
    for cid in sorted(CELL_TARGET.cells):
        m = len(CELL_TARGET.cells[cid])
        for orient in (1, -1):
            for offset in range(m):
                image = CellImage(cid, offset, orient)
                if cell_image_path(CELL_TARGET, image) == path_image:
                    out.append(image)
    return out


def random_cell_morphism(rng):
    """A map into CELL_TARGET: each source cell reads a target cell from a
    random offset in a random orientation along fresh edges of random
    direction, or repeats an earlier cell's edges rotated or reversed; loose
    edges are added and vertices glued at random, which makes loops and
    parallel edges.  Edge and cell ids are drawn unsorted."""
    pool = rng.randint(1, 6)
    names = iter(rng.sample(range(1000), 200))
    vertex = lambda: f"u{rng.randrange(pool)}"
    edges, emap, cells, cmap = {}, {}, {}, {}
    for _ in range(rng.randint(0, 4)):
        cid = f"c{next(names)}"
        if cells and rng.random() < 0.4:
            path = cells[rng.choice(sorted(cells))]
            r = rng.randrange(len(path))
            path = path[r:] + path[:r]
            if rng.random() < 0.5:
                path = reverse_path(path)
        else:
            target = CELL_TARGET.cells[rng.choice(sorted(CELL_TARGET.cells))]
            r = rng.randrange(len(target))
            word = target[r:] + target[:r]
            if rng.random() < 0.5:
                word = reverse_path(word)
            start = cur = vertex()
            path = []
            for i, (sym, sign) in enumerate(word):
                nxt = start if i == len(word) - 1 else vertex()
                e = f"e{next(names)}"
                s = rng.choice((1, -1))
                edges[e] = EdgeRec(cur, nxt, sym) if s > 0 \
                    else EdgeRec(nxt, cur, sym)
                emap[e] = (sym, sign * s)
                path.append((e, s))
                cur = nxt
            path = tuple(path)
        cells[cid] = path
        cmap[cid] = rng.choice(_images(tuple(
            (emap[e][0], emap[e][1] * s) for e, s in path)))
    for _ in range(rng.randint(0, 6)):
        e, sym, s = f"e{next(names)}", rng.choice("ab"), rng.choice((1, -1))
        edges[e] = EdgeRec(vertex(), vertex(), sym)
        emap[e] = (sym, s)
    order = list(edges)
    rng.shuffle(order)
    vertices = frozenset(v for rec in edges.values() for v in rec[:2]) \
        | {"u0"}
    src = TwoComplex(Graph(vertices, {e: edges[e] for e in order}),
                     cells, base_vertex="u0")
    return CellMorphism(src, CELL_TARGET, {v: "*" for v in vertices},
                        {e: emap[e] for e in order}, cmap)


def random_rose_morphisms(rng, count):
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    return [_random_rose_morphism(rng, rng.randint(1, 12), x)
            for _ in range(count)]


def diagram_morphisms(count, seed, conjugates=(2, 6), stems=(0, 5)):
    """The labellings of reduced disk diagrams of conjugate products, maps
    into the presentation complex like those the benchmark folds; each
    product has ``conjugates`` conjugates, each stem ``stems`` letters
    (both inclusive ranges)."""
    rng = random.Random(seed)
    out = []
    for rel, n in (("a b", 2), ("a b a b~", 2), ("a b", 3)):
        x = build_orbicomplex(Graph.rose("ab"), W(rel), n)
        cx = x.presentation_complex
        q = x.relator * n
        for _ in range(count):
            product = []
            for _ in range(rng.randint(*conjugates)):
                stem = tuple((rng.choice("ab"), rng.choice((1, -1)))
                             for _ in range(rng.randint(*stems)))
                body = q if rng.random() < 0.5 else inverse_word(q)
                product += stem + body + inverse_word(stem)
            d = build_reduced_diagram(free_reduce(product), x)
            assert d.labeling.target is cx
            out.append(d.labeling)
    return out


def fold_corpus():
    rng = random.Random(2006)
    return ([random_cell_morphism(rng) for _ in range(150)]
            + random_rose_morphisms(rng, 150) + diagram_morphisms(4, 2006))


def _outcome(fold_fn, m):
    try:
        return fold_fn(m)
    except (NotImmersionError, NotMorphismError) as err:
        return type(err).__name__, str(err)


def _dict_orders(res: FoldResult):
    """The key order of each dict of ``res`` but the two vertex maps, which
    follow the order of a vertex set."""
    return [list(d) for d in (
        res.folded.skeleton.edges, res.folded.cells,
        res.projection.edge_map, res.projection.cell_map,
        res.inclusion.edge_map, res.inclusion.cell_map)]


# the dict orders of each fold in the test below, which the fold's
# definition does not fix
FOLD_ORDERS_DIGEST = \
    "1e37b6b145975cc0c1bd5d842bf0281e9c8286c06a25ce279b55d58b7696af25"


def test_worklist_fold_matches_the_reference():
    rng = random.Random(1805)
    long = diagram_morphisms(2, 26, conjugates=(10, 35), stems=(4, 14))
    # each edge of a disk is carried twice by the cells and the boundary
    boundaries = [2 * len(m.source.skeleton.edges)
                  - sum(map(len, m.source.cells.values())) for m in long]
    assert min(boundaries) >= 150 and max(boundaries) <= 900
    corpus = ([random_cell_morphism(rng) for _ in range(300)]
              + random_rose_morphisms(rng, 300) + diagram_morphisms(3, 11)
              + long)
    orders = hashlib.sha256()
    folds = 0
    for m in corpus:
        res = fold(m)
        p, c, i = res.projection, res.folded, res.inclusion
        assert (p.vertex_map, p.edge_map, p.cell_map, c.skeleton.vertices,
                c.skeleton.edges, c.cells) == oracles.fold_parts(m)
        base = m.source.base_vertex
        assert c.base_vertex == (None if base is None else p.vertex_map[base])
        # the inclusion is the input on the folded complex's parts
        assert oracles.map_rung(i) >= oracles.IMMERSION
        assert compose(i, p) == m
        assert list(p.vertex_map) == list(m.source.skeleton.vertices)
        assert list(i.vertex_map) == list(c.skeleton.vertices)
        orders.update(repr(_dict_orders(res)).encode())
        folds += len(res.trace) > 0
    assert orders.hexdigest() == FOLD_ORDERS_DIGEST
    assert folds > 400


def test_fold_trace_is_a_function_of_the_result():
    darts = 0
    for m in fold_corpus():
        res = fold(m)
        entries = [t for t in res.trace if t[0] == "dart"]
        for _, d1, d2 in entries:
            assert m.dart_image(d1) == m.dart_image(d2)
        darts += len(entries)
        # the same map with its source's edges listed the other way round
        g = m.source.skeleton
        flipped = TwoComplex(Graph(g.vertices,
                                   dict(reversed(g.edges.items()))),
                             m.source.cells, m.source.base_vertex)
        assert fold(m._replace(source=flipped)) == res
    assert darts > 1000


# FOLD_RESULT_DIGEST hashes the folded complexes and both maps alone, so it
# holds across any change to the order of the folds; FOLD_CORPUS_DIGEST adds
# the traces
FOLD_RESULT_DIGEST = \
    "d4a65bae2f715052b489cb01bad619e7fab1d1faa2a04bd38d535dc72f5af666"
FOLD_CORPUS_DIGEST = \
    "8ca25a3453454f51541e6aa912584b847e56006835eada2d901703e24f9c27d8"


def test_fold_corpus_is_byte_stable():
    result, full = hashlib.sha256(), hashlib.sha256()
    for m in fold_corpus():
        res = _outcome(fold, m)
        folded = isinstance(res, FoldResult)
        parts = ([format_complex(res.folded), format_morphism(res.projection),
                  format_morphism(res.inclusion)] if folded else [repr(res)])
        for part in parts:
            result.update(part.encode())
            full.update(part.encode())
        if folded:
            full.update(format_fold_trace(res.trace).encode())
    assert result.hexdigest() == FOLD_RESULT_DIGEST
    assert full.hexdigest() == FOLD_CORPUS_DIGEST


def test_fold_invariant_checks_survive_optimized_python():
    # a union-find that mis-signs a merge leaves a projection whose
    # composite with the inclusion is not the input; python -O strips
    # asserts, so the check must raise the package's own error
    script = (
        "import orelco.folding as f\n"
        "from orelco.complexes import (CellMorphism, EdgeRec, Graph,\n"
        "                              TwoComplex)\n"
        "from orelco.errors import InvariantError\n"
        "union = f._union_darts\n"
        "f._union_darts = lambda parent, k1, k2: union(parent, k1, k2 ^ 1)\n"
        "g = Graph(frozenset({'v'}), {n: EdgeRec('v', 'v', 'a')\n"
        "                              for n in ('e1', 'e2')})\n"
        "rose = TwoComplex(Graph.rose(['a']), {})\n"
        "m = CellMorphism(TwoComplex(g, {}, 'v'), rose, {'v': '*'},\n"
        "                 {'e1': ('a', 1), 'e2': ('a', 1)}, {})\n"
        "try:\n"
        "    f.fold(m)\n"
        "except InvariantError as err:\n"
        "    if 'fold composite drifted' in str(err):\n"
        "        raise SystemExit(0)\n"
        "    raise\n"
        "raise SystemExit('no InvariantError under -O')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_union_darts_roots_each_class_and_its_reverse_at_the_least_dart():
    p = list(range(6))
    _union_darts(p, 4, 2)
    _union_darts(p, 1, 5)
    assert _flatten(p) == [0, 1, 0, 1, 0, 1]


def test_union_darts_refuses_an_edge_folded_onto_its_own_reverse():
    p = list(range(4))
    _union_darts(p, 0, 2)
    with pytest.raises(InvariantError, match="edge folded onto its own reverse"):
        _union_darts(p, 0, 3)
