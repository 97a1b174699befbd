import random

import pytest

from orelco.complexes import (CellImage, CellMorphism, EdgeRec, Graph, MapKind,
                              TwoComplex, cell_image_path, classify_map,
                              collapse, collapse_with_rewrites, compose,
                              connected_components, dart_reverse,
                              dart_sort_key, euler_characteristic,
                              find_free_faces_and_edges, identity_morphism,
                              non_tree_edge_count, require_valid, target_side,
                              validate_complex)
from orelco.errors import InvalidComplexError


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
    assert g.darts() == [("a", 1), ("a", -1), ("b", 1), ("b", -1)]


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
        assert sorted(seen) == sorted(g.darts())


def test_x0_incidence_and_euler():
    c = build_x0()
    require_valid(c)
    assert euler_characteristic(c, dimension=1) == 2 - 4
    assert euler_characteristic(c, dimension=2) == 2 - 4 + 1
    assert non_tree_edge_count(c.skeleton) == 3
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


def test_target_side_conventions():
    assert target_side(CellImage("d", 1, 1), 0, 3) == ("d", 1)
    assert target_side(CellImage("d", 1, 1), 2, 3) == ("d", 0)
    assert target_side(CellImage("d", 0, -1), 1, 3) == ("d", 2)
    assert target_side(CellImage("d", 2, -1), 1, 3) == ("d", 1)


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
    assert non_tree_edge_count(out.skeleton) == 1


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


def test_collapse_with_rewrites_follows_freed_faces():
    # b is free first; removing c0 frees a, whose arc then runs over c twice
    g = Graph(vertices=frozenset({"v"}),
              edges={s: EdgeRec("v", "v", s) for s in "abc"})
    c = TwoComplex(skeleton=g,
                   cells={"c0": (("a", 1), ("b", 1)),
                          "c1": (("a", 1), ("c", 1), ("c", 1))},
                   base_vertex="v")
    out, rewrites = collapse_with_rewrites(c)
    assert out == collapse(c)
    assert set(out.skeleton.edges) == {"c"}
    assert out.cells == {}
    assert rewrites == {("b", 1): (("a", -1),), ("b", -1): (("a", 1),),
                        ("a", 1): (("c", -1), ("c", -1)),
                        ("a", -1): (("c", 1), ("c", 1))}


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


def test_degree_dispatch_for_graph_cover():
    m = cover_map_x0()
    from orelco.orbicomplex import degree
    assert degree(m) == 1  # one cell over the single target cell
