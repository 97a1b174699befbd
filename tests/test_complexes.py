import collections
import hashlib
import itertools
import random
import re

import pytest

from orelco.complexes import (CellImage, CellMorphism, Classification, EdgeRec,
                              Graph, MapKind, TwoComplex, cell_image_path, classify_map,
                              collapse, collapse_carrying, compose,
                              connected_components, dart_reverse,
                              dart_sort_key, euler_characteristic,
                              find_free_faces_and_edges, identity_morphism,
                              require_valid, reverse_path,
                              validate_complex)
from orelco.complexes import component_of
from orelco.covers import (FiniteQuotient, build_unwrapped_cover,
                           unwrapping_actions)
from orelco.diagrams import build_reduced_diagram
from orelco.errors import InvalidComplexError, NotMorphismError
from orelco.folding import fold
from orelco.harness import (GeneratorParams, _generate_uncollapsed,
                            _random_rose_morphism)
from orelco.orbicomplex import (build_orbicomplex, check_orbi_immersion,
                                presentation_complex)
from orelco.words import dehn_solve, free_reduce, inverse_word, parse_word

import oracles
from quotient_draws import draw_quotient


def build_x0():
    """Two-vertex double cover complex of the (ab)^2 presentation complex."""
    g = Graph(
        vertices=frozenset({"p0", "p1"}),
        edges={
            "a0": EdgeRec("p0", "p1", "a"),
            "a1": EdgeRec("p1", "p0", "a"),
            "b0": EdgeRec("p0", "p0", "b"),
            "b1": EdgeRec("p1", "p1", "b"),
        },
    )
    cells = {"f0": (("a0", 1), ("b1", 1), ("a1", 1), ("b0", 1))}
    return TwoComplex(skeleton=g, cells=cells, base_vertex="p0")


def build_rose_complex():
    g = Graph.rose(["a", "b"])
    cells = {"d0": (("a", 1), ("b", 1), ("a", 1), ("b", 1))}
    return TwoComplex(skeleton=g, cells=cells, base_vertex="*")


def test_rose_darts():
    g = Graph.rose(["a", "b"])
    assert g.dart_origin(("a", 1)) == "*"
    assert g.dart_terminus(("a", 1)) == "*"
    assert g.dart_label(("a", -1)) == ("a", -1)
    assert dart_reverse(("a", 1)) == ("a", -1)
    assert g.darts_at("*") == (("a", 1), ("a", -1), ("b", 1), ("b", -1))


def test_darts_at_follows_dart_sort_key_order():
    rng = random.Random(3)
    for _ in range(300):
        vertices = [f"v{k}" for k in range(rng.randint(1, 5))]
        edges = {f"e{rng.randrange(60)}": EdgeRec(rng.choice(vertices),
                                                  rng.choice(vertices))
                 for _ in range(rng.randint(0, 14))}
        g = Graph(frozenset(vertices), edges)
        seen = []
        for v in vertices:
            darts = g.darts_at(v)
            assert list(darts) == sorted(darts, key=dart_sort_key)
            assert all(g.dart_origin(d) == v for d in darts)
            seen.extend(darts)
        assert sorted(seen) == sorted(oracles.darts(edges))


def test_read_walks_loops_both_ways():
    g = build_x0().skeleton
    assert g.read((("b", 1), ("b", 1)), "p0") == ((("b0", 1), ("b0", 1)), "p0")
    assert g.read((("b", -1),), "p1") == ((("b1", -1),), "p1")
    assert g.read((("a", -1), ("b", -1)), "p0") == (
        (("a1", -1), ("b1", -1)), "p1")
    assert g.read((), "p1") == ((), "p1")


def test_read_stops_where_a_partial_graph_ends():
    g = Graph(frozenset({"u", "v"}), {"a0": EdgeRec("u", "v", "a"),
                                      "b0": EdgeRec("v", "v", "b")})
    assert g.read((("a", 1), ("b", 1), ("b", -1)), "u") == (
        (("a0", 1), ("b0", 1), ("b0", -1)), "v")
    assert g.read((("a", 1), ("a", 1)), "u") is None
    assert g.read((("a", -1),), "u") is None
    assert g.read((("c", 1),), "v") is None


def test_read_rejects_a_graph_that_is_not_immersed():
    g = Graph(frozenset({"u", "v"}), {"a0": EdgeRec("u", "v", "a"),
                                      "a1": EdgeRec("v", "v", "a")})
    with pytest.raises(InvalidComplexError, match="a0.*a1.*both read"):
        g.read((("b", 1),), "u")


def test_x0_incidence_and_euler():
    c = build_x0()
    require_valid(c)
    assert euler_characteristic(c, dimension=1) == 2 - 4
    assert euler_characteristic(c, dimension=2) == 2 - 4 + 1
    assert oracles.rank(c.skeleton.vertices, c.skeleton.edges) == 3
    assert connected_components(c.skeleton) == [frozenset({"p0", "p1"})]


def test_x0_sides_over():
    c = build_x0()
    assert c.sides_over["a0"] == (("f0", 0),)
    assert c.sides_over["b1"] == (("f0", 1),)
    assert c.sides_over["a1"] == (("f0", 2),)
    assert c.sides_over["b0"] == (("f0", 3),)


def test_validate_complex_catches_bad_cells():
    g = Graph.rose(["a"])
    open_cell = TwoComplex(skeleton=g, cells={"c": (("a", 1), ("missing", 1))})
    assert validate_complex(open_cell)
    with pytest.raises(InvalidComplexError):
        require_valid(open_cell)
    not_closed = TwoComplex(
        skeleton=Graph(
            vertices=frozenset({"u", "v", "w"}),
            edges={"e": EdgeRec("u", "v"), "f": EdgeRec("v", "w")},
        ),
        cells={"c": (("e", 1), ("f", 1))},
    )
    assert any("closed" in msg for msg in validate_complex(not_closed))


@pytest.mark.parametrize("cells, base, message", [
    ({"c": ()}, "*", "cell c has empty attaching path"),
    ({}, "v", "base vertex v missing"),
    ({"c": (("a", 2), ("a", -1))}, "*", "cell c has a dart with bad sign 2"),
    ({"c": (("a", 0),)}, "*", "cell c has a dart with bad sign 0"),
], ids=["empty-path", "missing-base", "sign-two", "sign-zero"])
def test_validate_complex_names_each_fault(cells, base, message):
    c = TwoComplex(skeleton=Graph.rose(["a"]), cells=cells, base_vertex=base)
    assert validate_complex(c) == [message]


def build_triangle_target():
    g = Graph.rose(["a", "b", "c"])
    return TwoComplex(skeleton=g,
                      cells={"d": (("a", 1), ("b", 1), ("c", 1))})


def test_cell_image_path_conventions():
    t = build_triangle_target()
    q = t.cells["d"]
    assert cell_image_path(t, CellImage("d", 0, 1)) == q
    assert cell_image_path(t, CellImage("d", 1, 1)) == (("b", 1), ("c", 1), ("a", 1))
    assert cell_image_path(t, CellImage("d", 0, -1)) == (
        ("a", -1), ("c", -1), ("b", -1))
    assert cell_image_path(t, CellImage("d", 2, -1)) == (
        ("c", -1), ("b", -1), ("a", -1))


def _one_vertex_map(target, cells, images):
    """The map by edge ids from one vertex with the target's loops and the
    given cells, each sent by its image."""
    src = TwoComplex(target.skeleton, cells)
    return CellMorphism(src, target, {"*": "*"},
                        {e: (e, 1) for e in target.skeleton.edges}, images)


# side 2 of c2 lies on (1 + 2) mod 3 = 0, or on (2 - 2) mod 3 = 0, where
# side 0 of c1 lies
@pytest.mark.parametrize("c2, image", [
    ((("b", 1), ("c", 1), ("a", 1)), CellImage("d", 1, 1)),
    ((("c", -1), ("b", -1), ("a", -1)), CellImage("d", 2, -1)),
], ids=["plus-one", "minus-one"])
def test_side_clash_witness_by_orientation(c2, image):
    m = _one_vertex_map(build_triangle_target(),
                        {"c1": (("a", 1), ("b", 1), ("c", 1)), "c2": c2},
                        {"c1": CellImage("d", 0, 1), "c2": image})
    assert classify_map(m) == Classification(
        MapKind.MORPHISM,
        "sides ('c1', 0) and ('c2', 2) over edge a share disk side ('d', 0)")


def test_side_clash_witness_modulo_the_relator_length():
    # sides 1 and 3 over a lie on disk positions 2 and 0, apart modulo the
    # cell length 4 and equal modulo |w| = 2
    x = build_orbicomplex(Graph.rose("ab"), (("a", 1), ("b", 1)), 2)
    m = _one_vertex_map(x.presentation_complex,
                        {"c": (("b", 1), ("a", 1), ("b", 1), ("a", 1))},
                        {"c": CellImage("d0", 1, 1)})
    assert classify_map(m) == Classification(MapKind.COVERING, None)
    assert check_orbi_immersion(m) == Classification(
        MapKind.MORPHISM,
        "sides ('c', 1) and ('c', 3) over edge a share disk side ('d0', 0)")


def cover_map_x0():
    src = build_x0()
    tgt = build_rose_complex()
    return CellMorphism(
        source=src,
        target=tgt,
        vertex_map={"p0": "*", "p1": "*"},
        edge_map={"a0": ("a", 1), "a1": ("a", 1), "b0": ("b", 1), "b1": ("b", 1)},
        cell_map={"f0": CellImage("d0", 0, 1)},
    )


def test_classify_double_cover_skeleton():
    # forgetting cells, the two-sheeted graph map is a genuine covering
    m = cover_map_x0()
    src = TwoComplex(skeleton=m.source.skeleton, cells={}, base_vertex="p0")
    tgt = TwoComplex(skeleton=m.target.skeleton, cells={})
    skel = CellMorphism(src, tgt, m.vertex_map, m.edge_map, {})
    assert classify_map(skel).kind == MapKind.COVERING


def test_classify_unwrapped_cover_is_immersion_only():
    # the single source cell wraps the target cell once, so each source edge
    # carries one side while its image edge carries two: immersion, not cover
    m = cover_map_x0()
    assert classify_map(m).kind == MapKind.IMMERSION


def test_classify_identity_is_cover():
    c = build_x0()
    assert classify_map(identity_morphism(c)).kind == MapKind.COVERING


def test_classify_not_morphism_on_bad_cell_data():
    m = cover_map_x0()
    bad = CellMorphism(m.source, m.target, m.vertex_map, m.edge_map,
                       {"f0": CellImage("d0", 1, 1)})
    cls = classify_map(bad)
    assert cls.kind == MapKind.NOT_MORPHISM
    assert cls.witness is not None


def test_classify_immersion_not_cover():
    # single edge u -> v mapping onto the a-loop: injective links, nothing onto
    seg = TwoComplex(
        skeleton=Graph(vertices=frozenset({"u", "v"}),
                       edges={"e": EdgeRec("u", "v", "a")}),
        cells={},
    )
    tgt = build_rose_complex()
    m = CellMorphism(seg, tgt, {"u": "*", "v": "*"}, {"e": ("a", 1)}, {})
    cls = classify_map(m)
    assert cls.kind == MapKind.IMMERSION


def test_classify_morphism_not_immersion_link_clash():
    # two edges out of u with the same image dart: link map not injective
    src = TwoComplex(
        skeleton=Graph(vertices=frozenset({"u", "v", "w"}),
                       edges={"e": EdgeRec("u", "v", "a"),
                              "f": EdgeRec("u", "w", "a")}),
        cells={},
    )
    tgt = build_rose_complex()
    m = CellMorphism(src, tgt, {"u": "*", "v": "*", "w": "*"},
                     {"e": ("a", 1), "f": ("a", 1)}, {})
    cls = classify_map(m)
    assert cls.kind == MapKind.MORPHISM
    assert cls.witness is not None


def test_free_faces_of_x0():
    c = build_x0()
    faces, free_edges = find_free_faces_and_edges(c)
    assert faces == [("a0", "f0", 0), ("a1", "f0", 2),
                     ("b0", "f0", 3), ("b1", "f0", 1)]
    assert free_edges == []


def test_collapse_annulus_keeps_euler():
    # loops a, b at one vertex; cell reads a b a~: b is traversed once
    g = Graph(vertices=frozenset({"v"}),
              edges={"a": EdgeRec("v", "v", "a"), "b": EdgeRec("v", "v", "b")})
    c = TwoComplex(skeleton=g,
                   cells={"c0": (("a", 1), ("b", 1), ("a", -1))},
                   base_vertex="v")
    before = euler_characteristic(c, 2)
    out = collapse(c)
    assert euler_characteristic(out, 2) == before == 0
    assert set(out.skeleton.edges) == {"a"}
    assert out.cells == {}
    assert oracles.rank(out.skeleton.vertices, out.skeleton.edges) == 1


def test_collapse_disk_to_point():
    g = Graph(vertices=frozenset({"v"}), edges={"a": EdgeRec("v", "v", "a")})
    c = TwoComplex(skeleton=g, cells={"c0": (("a", 1),)}, base_vertex="v")
    out = collapse(c)
    assert set(out.skeleton.vertices) == {"v"}
    assert out.skeleton.edges == {}
    assert out.cells == {}
    assert euler_characteristic(out, 2) == 1
    # only free faces go: a tree hanging off the base stays
    g = Graph(vertices=frozenset({"v", "u", "t"}),
              edges={"a": EdgeRec("v", "v", "a"), "s": EdgeRec("v", "u"),
                     "r": EdgeRec("u", "t")})
    tree = TwoComplex(skeleton=g, cells={}, base_vertex="v")
    assert collapse(tree) == tree


def test_collapse_x0_eats_cell():
    c = build_x0()
    out = collapse(c)
    assert out.cells == {}
    # lowest (edge, cell) free pair is (a0, f0), so a0 goes first
    assert "a0" not in out.skeleton.edges
    assert euler_characteristic(out, 2) == euler_characteristic(c, 2)


def test_collapse_carrying_follows_freed_faces():
    # b is free first; removing c0 frees a, whose arc then runs over c twice,
    # so a path over b is carried across a onto c, and b a reduces away
    g = Graph(vertices=frozenset({"v"}),
              edges={s: EdgeRec("v", "v", s) for s in "abc"})
    c = TwoComplex(skeleton=g,
                   cells={"c0": (("a", 1), ("b", 1)),
                          "c1": (("a", 1), ("c", 1), ("c", 1))},
                   base_vertex="v")
    out, carried = collapse_carrying(
        c, [(("b", 1),), (("b", -1),), (("a", 1),), (("a", -1),),
            (("b", 1), ("c", 1), ("c", 1)), (("b", 1), ("a", 1)), ()])
    assert out == collapse(c)
    assert set(out.skeleton.edges) == {"c"}
    assert out.cells == {}
    assert carried == ((("c", 1), ("c", 1)), (("c", -1), ("c", -1)),
                       (("c", -1), ("c", -1)), (("c", 1), ("c", 1)),
                       (("c", 1), ("c", 1), ("c", 1), ("c", 1)), (), ())
    assert collapse_carrying(c) == (out, ())


def _carrying_corpus():
    """Covers of the first twenty tables of each degree up to 4n over ab/2
    and ab/3, and the disk diagrams of seeded trivial words, each with its
    orbicomplex."""
    for relator, n in [("a b", 2), ("a b", 3)]:
        x = build_orbicomplex(Graph.rose("ab"), parse_word(relator), n)
        for d in range(n, 4 * n + 1, n):
            for perms in itertools.islice(unwrapping_actions(x, d), 20):
                yield build_unwrapped_cover(x, FiniteQuotient(d, perms)).cover, x
    for k, (relator, n) in enumerate([("a b", 2), ("a b a b~", 2),
                                      ("a a b b b", 2), ("a b", 3)]):
        x = build_orbicomplex(Graph.rose("ab"), parse_word(relator), n)
        power = x.relator * n
        rng = random.Random(k)
        for _ in range(30):
            word: list = []
            for _ in range(rng.randint(1, 3)):
                u = [(rng.choice("ab"), rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 3))]
                word += [*u, *rng.choice((power, inverse_word(power))),
                         *inverse_word(u)]
            word = free_reduce(word)
            if word:
                yield build_reduced_diagram(word, x).diagram, x


def test_carried_darts_pass_an_independent_oracle():
    # each dart of each complex, carried by itself through the collapse, is
    # a reduced path over the surviving edges between the dart's ends that
    # equals the dart in the group, as the Dehn solver decides
    removed = 0
    for c, x in _carrying_corpus():
        g = c.skeleton
        darts = oracles.darts(g.edges)
        out, routes = collapse_carrying(c, [(d,) for d in darts])
        h = out.skeleton
        for d, route in zip(darts, routes):
            removed += d[0] not in h.edges
            assert all(e in h.edges for e, _ in route), (d, route)
            v = g.dart_origin(d)
            for step in route:
                assert h.dart_origin(step) == v, (d, route)
                v = h.dart_terminus(step)
            assert v == g.dart_terminus(d), (d, route)
            assert free_reduce(route) == route
            loop = (g.dart_label(d),) + tuple(map(h.dart_label,
                                                  reverse_path(route)))
            assert dehn_solve(free_reduce(loop), x).trivial, (d, route)
    assert removed >= 900, removed


def test_compose_rotation_squares_to_identity():
    c = build_rose_complex()
    # rotate the square cell by 2: an automorphism of the complex
    rot = CellMorphism(c, c, {"*": "*"},
                       {"a": ("a", 1), "b": ("b", 1)},
                       {"d0": CellImage("d0", 2, 1)})
    assert classify_map(rot).kind == MapKind.COVERING
    sq = compose(rot, rot)
    assert sq.cell_map["d0"] == CellImage("d0", 0, 1)
    both = compose(rot, identity_morphism(c))
    assert both.cell_map["d0"] == CellImage("d0", 2, 1)


def test_compose_orientation_product():
    g = Graph(vertices=frozenset({"v"}),
              edges={"a": EdgeRec("v", "v", "a"), "b": EdgeRec("v", "v", "b")})
    c = TwoComplex(skeleton=g,
                   cells={"c0": (("a", 1), ("b", 1))}, base_vertex="v")
    flip = CellMorphism(c, c, {"v": "v"}, {"a": ("b", -1), "b": ("a", -1)},
                        {"c0": CellImage("c0", 1, -1)})
    assert classify_map(flip).kind == MapKind.COVERING
    sq = compose(flip, flip)
    assert sq.cell_map["c0"].orient == 1
    assert sq.edge_map == {"a": ("a", 1), "b": ("b", 1)}


# ---------------------------------------------------------------------------
# the map checks against the ladder read from its definition


@pytest.mark.parametrize("sign", [0, 5, -2])
def test_edge_image_with_a_bad_sign_is_not_a_morphism(sign):
    loop = TwoComplex(Graph(frozenset({"u"}), {"x": EdgeRec("u", "u", "a")}),
                      {})
    m = CellMorphism(loop, build_rose_complex(), {"u": "*"},
                     {"x": ("a", sign)}, {})
    witness = f"edge x has bad orientation sign {sign}"
    assert classify_map(m) == Classification(MapKind.NOT_MORPHISM, witness)
    with pytest.raises(NotMorphismError, match=witness):
        fold(m)


@pytest.mark.parametrize("field, image", [
    ("vertex_map", "*"), ("edge_map", ("a", 1)),
    ("cell_map", CellImage("d0", 0, 1))], ids=["vertex", "edge", "cell"])
def test_a_map_that_names_a_part_its_source_lacks_is_not_a_morphism(field,
                                                                    image):
    # such a map once classified as an immersion; the least stray is named
    m = cover_map_x0()
    images = {**getattr(m, field), "zz": image, "ghost": image}
    m = m._replace(**{field: images})
    kind = field.split("_")[0]
    witness = f"{kind} map names ghost, not a source {kind}"
    assert classify_map(m) == Classification(MapKind.NOT_MORPHISM, witness)
    with pytest.raises(NotMorphismError, match=witness):
        fold(m)


def _reread(rng, path, image, reverse):
    """The same cell read from another start, and backwards with
    probability ``reverse``, with the image that keeps the map."""
    r = rng.randrange(len(path)) if path else 0
    path, image = (path[r:] + path[:r],
                   image._replace(offset=image.offset + image.orient * r))
    if rng.random() < reverse:
        path, image = reverse_path(path), image._replace(
            offset=image.offset - image.orient, orient=-image.orient)
    return path, image


def _shuffled(rng, m, reverse=0.0):
    """``m`` with its source's edges and cells listed in a random order and
    each cell reread as in ``_reread``."""
    src = m.source
    edges = list(src.skeleton.edges.items())
    rng.shuffle(edges)
    cells, cmap = {}, dict(m.cell_map)
    for cid in rng.sample(sorted(src.cells), len(src.cells)):
        cells[cid] = src.cells[cid]
        if cid in cmap and cmap[cid].orient in (1, -1):
            cells[cid], cmap[cid] = _reread(rng, cells[cid], cmap[cid],
                                            reverse)
    y = TwoComplex(Graph(src.skeleton.vertices, dict(edges)), cells,
                   src.base_vertex)
    return CellMorphism(y, m.target, m.vertex_map, m.edge_map, cmap)


def _base_morphism(rng):
    """A seeded morphism, with the orbicomplex it maps into when its target
    is a presentation complex: a generated immersion, the identity of a
    generated complex, a fold's projection or inclusion, an unwrapped
    cover, or the presentation complex by labels, whose sides clash modulo
    |w| but not modulo its cell length; some cells read backwards."""
    relator, n = rng.choice([("a b", 2), ("a b a b~", 2), ("a b", 3)])
    params = GeneratorParams(rng.randint(1, 6), parse_word(relator), n,
                             attach_probability=0.8)
    x = params.orbicomplex
    kind = rng.randrange(5)
    if kind == 0:
        m = _generate_uncollapsed(rng.getrandbits(32), params)
    elif kind == 1:
        y = _generate_uncollapsed(rng.getrandbits(32), params).source
        m, x = identity_morphism(y), None
    elif kind == 2:
        res = fold(_random_rose_morphism(rng, rng.randint(1, 6), x))
        m = rng.choice([res.projection, res.inclusion])
        x = x if m is res.inclusion else None
    elif kind == 3:
        m = build_unwrapped_cover(x, draw_quotient(rng, x)).covering_map
    else:
        m = presentation_complex(x)[1]
    return _shuffled(rng, m, reverse=0.3), x


def _mutate(rng, m):
    """``m`` with one to three faults: vertex, edge or cell images changed, a
    link or side clash forced, or a cell boundary cut short; never an edge
    image sign other than +-1."""
    for _ in range(rng.randint(1, 3)):
        m = _shuffled(rng, _fault(rng, m))
    return m


def _fault(rng, m):
    src, tgt = m.source, m.target
    vmap, emap, cmap = dict(m.vertex_map), dict(m.edge_map), dict(m.cell_map)
    sverts, sedges, scells = (sorted(src.skeleton.vertices),
                              sorted(src.skeleton.edges), sorted(src.cells))
    tverts, tedges, tcells = (sorted(tgt.skeleton.vertices),
                              sorted(tgt.skeleton.edges), sorted(tgt.cells))
    kinds = ["vertex"] + ["edge", "link"] * bool(sedges) \
        + ["cell", "side", "short"] * bool(set(scells) & set(cmap))
    kind = rng.choice(kinds)
    if kind == "vertex":
        v = rng.choice(sverts)
        choice = rng.random()
        if choice < 0.2:
            vmap.pop(v, None)
        else:
            vmap[v] = "missing" if choice < 0.3 else rng.choice(tverts)
    elif kind == "edge":
        e = rng.choice(sedges)
        choice = rng.random()
        if choice < 0.15 or e not in emap:
            emap.pop(e, None)
        elif choice < 0.25:
            emap[e] = ("missing", 1)
        elif choice < 0.6:
            emap[e] = (emap[e][0], -emap[e][1])
        else:
            emap[e] = (rng.choice(tedges), rng.choice((1, -1)))
    elif kind == "link":
        e, f = rng.choice(sedges), rng.choice(sedges)
        if e in emap:
            emap[f] = (emap[e][0], rng.choice((1, -1)) * emap[e][1])
    else:
        cid = rng.choice(sorted(set(scells) & set(cmap)))
        image = cmap[cid]
        cells = dict(src.cells)
        if kind == "side":
            # a second copy of a cell, reread: the two cover the same sides
            cells[cid + "'"], cmap[cid + "'"] = _reread(rng, src.cells[cid],
                                                        image, 0.5)
        elif kind == "short":
            cells[cid] = src.cells[cid][:-1]
        else:
            choice = rng.random()
            if choice < 0.1:
                del cmap[cid]
            elif choice < 0.2:
                cmap[cid] = image._replace(cell="missing")
            elif choice < 0.35:
                cmap[cid] = image._replace(cell=rng.choice(tcells))
            elif choice < 0.6:
                cmap[cid] = image._replace(offset=image.offset
                                           + rng.randint(-9, 9))
            elif choice < 0.85:
                cmap[cid] = image._replace(orient=-image.orient)
            else:
                cmap[cid] = image._replace(orient=rng.choice((0, 2)))
        src = TwoComplex(src.skeleton, cells, src.base_vertex)
    return CellMorphism(src, tgt, vmap, emap, cmap)


# every witness text the checks can give, but the bad edge sign
WITNESS_FORMS = (
    r"vertex \S+ has no image", r"vertex \S+ maps to missing vertex \S+",
    r"edge \S+ has no image", r"edge \S+ maps to missing edge \S+",
    r"dart \('\S+', -?1\) breaks origin commutation",
    r"cell \S+ has no image", r"cell \S+ maps to missing cell \S+",
    r"cell \S+ has bad orientation flag",
    r"cell \S+ boundary length differs from its image",
    r"cell \S+ boundary does not match its image boundary",
    r"darts .+ and .+ at vertex \S+ share image .+",
    r"sides .+ and .+ over edge \S+ share disk side .+",
    r"link at \S+ is not onto the target link",
    r"sides over \S+ are not onto the target sides")


def _rung(cls):
    """The verdict's rung of the ladder, the morphism rung split into link
    and side clashes."""
    if cls.kind == MapKind.MORPHISM:
        return "link" if cls.witness.startswith("darts") else "side"
    return cls.kind.name


# the witness of each verdict in the test below, which the ladder's
# definition does not fix
LADDER_WITNESS_DIGEST = \
    "ccabd7605a32fe2335a81e57180d16dc6793516ac885feb4941dccfd93c21481"


def test_checks_match_the_ladder_oracle_and_pinned_witnesses():
    rng = random.Random(2018)
    witnesses = hashlib.sha256()
    forms = set()
    orbi_compared = period_clashes = 0
    rungs, orbi_rungs = collections.Counter(), collections.Counter()
    for trial in range(2000):
        m, x = _base_morphism(rng)
        if trial % 2:
            m = _mutate(rng, m)
        cls = classify_map(m)
        assert cls.kind == oracles.map_rung(m), trial
        assert (cls.witness is None) == (cls.kind == MapKind.COVERING), trial
        witnesses.update(f"{cls.kind.name} {cls.witness}\n".encode())
        rungs[_rung(cls)] += 1
        if cls.witness is not None:
            form, = (f for f in WITNESS_FORMS if re.fullmatch(f, cls.witness))
            forms.add(form)
        if x is None or any(im.cell != "d0" for im in m.cell_map.values()):
            continue
        assert m.target is x.presentation_complex
        orbi = check_orbi_immersion(m)
        assert orbi.kind == oracles.map_rung(m, len(x.relator)), trial
        assert (orbi.witness is None) == (orbi.kind == MapKind.IMMERSION)
        witnesses.update(f"orbi {orbi.kind.name} {orbi.witness}\n".encode())
        orbi_compared += 1
        orbi_rungs[_rung(orbi)] += 1
        # sides apart modulo the cell length that clash modulo |w|
        period_clashes += (cls.kind >= MapKind.IMMERSION
                           and orbi.kind == MapKind.MORPHISM)
    assert witnesses.hexdigest() == LADDER_WITNESS_DIGEST
    assert orbi_compared > 600
    assert forms == set(WITNESS_FORMS)
    assert period_clashes >= 20, period_clashes
    assert len(rungs) == 5 and min(rungs.values()) >= 20, rungs
    assert len(orbi_rungs) == 4 and min(orbi_rungs.values()) >= 20, orbi_rungs


def _random_table_graph(rng):
    """A labelled graph with loops, multi-edges, unlabelled edges and
    isolated vertices; every other one is immersed, so it reads cleanly."""
    vertices = [f"v{k}" for k in range(rng.randint(1, 7))]
    edges = {}
    if rng.random() < 0.5:
        # one partial injection per label: no two darts at a vertex read
        # one letter
        for label in "abc":
            heads = rng.sample(vertices, rng.randint(0, len(vertices)))
            for tail, head in zip(rng.sample(vertices, len(heads)), heads):
                edges[f"{label}{rng.randrange(100)}"] = EdgeRec(tail, head,
                                                                label)
    else:
        for _ in range(rng.randint(0, 12)):
            tail = rng.choice(vertices)
            head = tail if rng.random() < 0.2 else rng.choice(vertices)
            edges[f"e{rng.randrange(40)}"] = EdgeRec(
                tail, head, rng.choice(("a", "b", None)))
    for _ in range(rng.randint(0, 3)):      # a few extra parallel edges
        if edges:
            rec = edges[rng.choice(sorted(edges))]
            edges[f"m{rng.randrange(40)}"] = EdgeRec(rec.tail, rec.head,
                                                     rng.choice(("a", None)))
    vertices.append("iso")                 # touched by no edge
    return Graph(frozenset(vertices), edges)


def _reads(g):
    """How the library and the oracle read ``g``: items, or a clash text."""
    try:
        got = list(g._reader.items())
    except InvalidComplexError as err:
        got = str(err)
    _, reads, clash = oracles.graph_tables(g.vertices, g.edges)
    return got, (list(reads.items()) if clash is None else
                 "darts {} and {} at vertex {} both read {}".format(*clash))


def test_graph_tables_match_the_dart_walk():
    tally = {"loops": 0, "multi": 0, "unlabelled": 0, "reads": 0,
             "clashes": 0}
    rng = random.Random(22)
    for _ in range(600):
        g = _random_table_graph(rng)
        recs = list(g.edges.values())
        tally["loops"] += any(r.tail == r.head for r in recs)
        tally["multi"] += len({(r.tail, r.head) for r in recs}) < len(recs)
        tally["unlabelled"] += any(r.label is None for r in recs)
        # the tuples and their order, vertex by vertex
        links, _, _ = oracles.graph_tables(g.vertices, g.edges)
        assert {v: g.darts_at(v) for v in g.vertices} == links
        assert g.darts_at("iso") == ()
        got, want = _reads(g)
        assert got == want
        tally["clashes" if isinstance(want, str) else "reads"] += 1
    assert min(tally.values()) >= 50, tally


def test_a_read_clash_names_the_first_of_two():
    # a clash at v over a and one at u over b~; edge order decides the first
    for edges, first in (
            ({"a0": EdgeRec("v", "u", "a"), "a1": EdgeRec("v", "v", "a"),
              "b0": EdgeRec("v", "u", "b"), "b1": EdgeRec("w", "u", "b")},
             "darts ('a0', 1) and ('a1', 1) at vertex v both read ('a', 1)"),
            ({"b0": EdgeRec("v", "u", "b"), "b1": EdgeRec("w", "u", "b"),
              "c0": EdgeRec("v", "u", "a"), "c1": EdgeRec("v", "v", "a")},
             "darts ('b0', -1) and ('b1', -1) at vertex u both read"
             " ('b', -1)"),
            ({"x": EdgeRec("u", "u", "a"), "y": EdgeRec("w", "u", None),
              "z0": EdgeRec("u", "w", "a"), "z1": EdgeRec("w", "w", "b"),
              "z2": EdgeRec("w", "w", "b")},
             "darts ('x', 1) and ('z0', 1) at vertex u both read ('a', 1)")):
        g = Graph(frozenset({"u", "v", "w"}), edges)
        assert _reads(g) == (first, first)


def test_component_of_is_the_component_that_holds_its_root():
    rng = random.Random(5)
    for _ in range(300):
        g = _random_table_graph(rng)
        comps = connected_components(g)
        assert sorted(v for c in comps for v in c) == sorted(g.vertices)
        for v in sorted(g.vertices):
            assert component_of(g, v) == next(c for c in comps if v in c)
