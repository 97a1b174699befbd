import pytest

from orelco.complexes import (CellImage, CellMorphism, EdgeRec, Graph,
                              MapKind, TwoComplex)
from orelco.covers import build_unwrapped_cover, find_exponent_n_quotient
from orelco.errors import NotImmersionError
from orelco.orbicomplex import (build_orbicomplex, by_labels,
                                check_orbi_immersion, degree,
                                presentation_complex, wcycles_audit)
from orelco.words import parse_word

W = parse_word
A = ("a", 1)
B = ("b", 1)


def make_x(n=2):
    return build_orbicomplex(Graph.rose(["a", "b"]), (A, B), n)


def build_x0():
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


def x0_to_x(offset=0):
    x = make_x()
    c = build_x0()
    return CellMorphism(
        source=c, target=x.presentation_complex,
        vertex_map={"p0": "*", "p1": "*"},
        edge_map={"a0": ("a", 1), "a1": ("a", 1), "b0": ("b", 1), "b1": ("b", 1)},
        cell_map={"f0": CellImage("d0", offset, 1)},
    )


def test_build_accessors():
    x = make_x()
    assert x.relator_power_path() == (A, B, A, B)
    assert x.relator == (A, B)


def test_build_rejects_bad_input():
    rose = Graph.rose(["a", "b"])
    with pytest.raises(ValueError):
        build_orbicomplex(rose, (A, B), 0)
    with pytest.raises(ValueError):
        build_orbicomplex(rose, (), 2)
    with pytest.raises(ValueError):
        build_orbicomplex(rose, (("c", 1),), 2)
    with pytest.raises(ValueError):
        build_orbicomplex(rose, (A, ("a", -1)), 2)
    with pytest.raises(ValueError):
        build_orbicomplex(rose, (A, B, ("a", -1)), 2)  # seam backtrack
    with pytest.raises(ValueError):
        build_orbicomplex(rose, (A, B, A, B), 2)  # proper power


@pytest.mark.parametrize("gamma, relator", [
    (Graph(frozenset({"u", "v"}), {"a": EdgeRec("u", "v", "a"),
                                   "b": EdgeRec("v", "u", "b")}), (A, B)),
    (Graph(frozenset({"*"}), {"e1": EdgeRec("*", "*", "a"),
                              "e2": EdgeRec("*", "*", "b")}),
     (("e1", 1), ("e2", 1))),
    (Graph(frozenset({"*"}), {"a": EdgeRec("*", "*", "a"),
                              "b": EdgeRec("*", "*")}), (A, B)),
], ids=["two-vertices", "loop-id-not-label", "unlabelled-loop"])
def test_build_rejects_a_graph_that_is_not_a_rose(gamma, relator):
    # each relator is a closed path, so only the rose rule refuses it
    with pytest.raises(ValueError, match="must be a rose"):
        build_orbicomplex(gamma, relator, 2)


def test_presentation_complex_is_morphism_not_immersion():
    x = make_x()
    cx, m = presentation_complex(x)
    assert cx.cells["d0"] == (A, B, A, B)
    cls = check_orbi_immersion(m)
    assert cls.kind == MapKind.MORPHISM
    assert "share disk side" in cls.witness


def test_unwrapped_cover_is_immersion():
    m = x0_to_x()
    assert check_orbi_immersion(m).kind == MapKind.IMMERSION


def test_reanchored_alignment_same_classification():
    # the boundary word has period |w|, so shifting the offset by |w| is an
    # equally valid alignment and must classify identically
    assert check_orbi_immersion(x0_to_x(0)).kind == MapKind.IMMERSION
    assert check_orbi_immersion(x0_to_x(2)).kind == MapKind.IMMERSION
    assert check_orbi_immersion(x0_to_x(1)).kind == MapKind.NOT_MORPHISM


def test_degree_orbicomplex_target():
    assert degree(x0_to_x()) == 2


def test_degree_cell_free_source():
    x = make_x()
    rose_cx = TwoComplex(skeleton=Graph.rose(["a", "b"]), cells={})
    m = CellMorphism(rose_cx, x.presentation_complex, {"*": "*"},
                     {"a": ("a", 1), "b": ("b", 1)}, {})
    assert check_orbi_immersion(m).kind == MapKind.IMMERSION
    assert degree(m) == 0


def test_degree_refuses_non_immersion():
    x = make_x()
    _, m = presentation_complex(x)
    with pytest.raises(NotImmersionError):
        degree(m)


def test_audit_tight_cover():
    rep = wcycles_audit(x0_to_x())
    assert rep.chi1 == -2
    assert rep.deg == 2
    assert rep.slack1 == 0
    assert rep.chi2 == -1
    assert rep.cells == 1
    assert rep.slack2 == 0
    assert rep.passed
    assert not rep.in_scope    # every edge is a free face


def test_audit_graph_only():
    x = make_x()
    rose_cx = TwoComplex(skeleton=Graph.rose(["a", "b"]), cells={})
    m = CellMorphism(rose_cx, x.presentation_complex, {"*": "*"},
                     {"a": ("a", 1), "b": ("b", 1)}, {})
    rep = wcycles_audit(m)
    assert rep.chi1 == -1
    assert rep.deg == 0
    assert rep.slack1 == -1
    assert rep.slack2 == -1
    assert rep.passed
    assert rep.in_scope


def test_audit_refuses_non_immersion():
    x = make_x()
    _, m = presentation_complex(x)
    with pytest.raises(NotImmersionError):
        wcycles_audit(m)


def tight_cover_of_abab2():
    """The degree-4 unwrapped cover of ``(abab~)^2`` that ``cover build``
    writes with its default budget and seed, mapped by labels."""
    x = build_orbicomplex(Graph.rose(["a", "b"]), (A, B, A, ("b", -1)), 2)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 8)).cover
    return by_labels(cover, x)


def test_audit_tight_cover_is_in_scope():
    rep = wcycles_audit(tight_cover_of_abab2())
    assert (rep.chi1, rep.deg, rep.slack1, rep.cells) == (-4, 4, 0, 2)
    assert rep.passed and rep.in_scope


def _point():
    return TwoComplex(Graph(frozenset({"u"}), {}), {}, base_vertex="u")


def _edge():
    g = Graph(frozenset({"u", "v"}), {"e": EdgeRec("u", "v", "a")})
    return TwoComplex(g, {}, base_vertex="u")


def _cover_and_a_vertex():
    cover = tight_cover_of_abab2()
    g = cover.source.skeleton
    y = TwoComplex(Graph(g.vertices | {"lonely"}, g.edges),
                   cover.source.cells, cover.source.base_vertex)
    return CellMorphism(y, cover.target, {**cover.vertex_map, "lonely": "*"},
                        cover.edge_map, cover.cell_map)


OUT_OF_SCOPE = {
    "point": (lambda: by_labels(_point(), make_x()), (1, 0, 1)),
    "edge": (lambda: by_labels(_edge(), make_x()), (1, 0, 1)),
    "cover-and-a-vertex": (_cover_and_a_vertex, (-3, 4, 1)),
}


@pytest.mark.parametrize("build, numbers", OUT_OF_SCOPE.values(),
                         ids=OUT_OF_SCOPE)
def test_audit_scope_needs_a_connected_source_that_is_not_a_tree(build,
                                                                 numbers):
    # each immerses with no free faces and fails the inequality, but a
    # tree's chi(Y^1) is 1 and an isolated vertex disconnects the cover,
    # so none of them is a counterexample
    rep = wcycles_audit(build())
    assert (rep.chi1, rep.deg, rep.slack1) == numbers
    assert not rep.passed and not rep.in_scope


# (relator, n) -> (kind, degree, audit) of the presentation complex and of
# the least unwrapped cover found, each mapped by labels; degree and audit
# are None where the map does not immerse.  The numbers are those of the
# map type that carried the orbicomplex itself, before the target was read
# off the presentation complex's one cell.
_ONE_CELL = (-1, 1, 0, 0, 1, 0, True)
SHAPES = {
    ("a", 1): ((2, 1, _ONE_CELL + (False,)), (2, 1, _ONE_CELL + (False,))),
    ("a", 2): ((1, None, None), (2, 2, (-2, 2, 0, -1, 1, 0, True, False))),
    ("a", 3): ((1, None, None), (2, 3, (-3, 3, 0, -2, 1, 0, True, False))),
    ("a b", 1): ((2, 1, _ONE_CELL + (False,)), (2, 1, _ONE_CELL + (False,))),
    ("a b", 2): ((1, None, None), (2, 2, (-2, 2, 0, -1, 1, 0, True, False))),
    ("a b", 3): ((1, None, None), (2, 3, (-3, 3, 0, -2, 1, 0, True, False))),
    ("a a b", 1): ((2, 1, _ONE_CELL + (False,)),
                   (2, 1, _ONE_CELL + (False,))),
    ("a a b", 2): ((1, None, None), (2, 2, (-2, 2, 0, -1, 1, 0, True, False))),
    ("a a b", 3): ((1, None, None), (2, 3, (-3, 3, 0, -2, 1, 0, True, False))),
    ("a b a b~", 1): ((2, 1, _ONE_CELL + (True,)),
                      (2, 1, _ONE_CELL + (True,))),
    ("a b a b~", 2): ((1, None, None),
                      (2, 4, (-4, 4, 0, -2, 2, 0, True, True))),
    ("a b a b~", 3): ((1, None, None),
                      (2, 3, (-3, 3, 0, -2, 1, 0, True, True))),
}


def _numbers(m):
    kind = check_orbi_immersion(m).kind
    if kind < MapKind.IMMERSION:
        return kind, None, None
    return kind, degree(m), tuple(wcycles_audit(m))


def _rotated(m, k):
    return m._replace(cell_map={cid: im._replace(offset=im.offset + k)
                                for cid, im in m.cell_map.items()})


@pytest.mark.parametrize("relator, n", SHAPES, ids=[f"{w}^{n}" for w, n in SHAPES])
def test_the_target_cell_gives_the_relator_length_and_branch_index(relator, n):
    # |w| and n are read off the one cell w^n of the presentation complex
    x = build_orbicomplex(Graph.rose(["a", "b"]), W(relator), n)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 6))
    maps = (presentation_complex(x)[1], cover.covering_map)
    assert tuple(map(_numbers, maps)) == SHAPES[relator, n]
    # side positions count modulo |w|: a rotation by |w| is the same map,
    # a rotation by one misreads the cover's cells unless |w| is 1
    m = cover.covering_map
    assert _numbers(_rotated(m, len(x.relator))) == _numbers(m)
    assert (check_orbi_immersion(_rotated(m, 1)).kind == MapKind.NOT_MORPHISM
            ) == (len(x.relator) > 1)


def _rose_without_cells():
    return TwoComplex(Graph.rose(["a", "b"]), {})


def _cover_with_two_cells():
    cover = tight_cover_of_abab2().source
    assert len(cover.cells) == 2
    return cover


@pytest.mark.parametrize("target", [_rose_without_cells,
                                    _cover_with_two_cells],
                         ids=["cell-free-rose", "two-cell-cover"])
def test_a_target_without_exactly_one_cell_is_refused(target):
    # a point maps onto a vertex of either target, so only the target's
    # cell count is wrong
    tgt = target()
    m = CellMorphism(_point(), tgt, {"u": min(tgt.skeleton.vertices)}, {}, {})
    for check in (check_orbi_immersion, degree, wcycles_audit):
        with pytest.raises(ValueError, match="one cell, not"):
            check(m)
