"""Stacking embedding and goodness checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelco.complexes import EdgeRec, Graph, TwoComplex
from orelco.orbicomplex import ORBI_CIRCLE, build_orbicomplex
from orelco.stacking import (Stacking, boundary_circles, check_good_stacking,
                             validate_stacking)
from orelco.textio import parse_stacking
from orelco.words import parse_word

F = Fraction


def square_complex():
    """One cell traversing each of four edges exactly once."""
    g = Graph(frozenset({"v"}),
              {e: EdgeRec("v", "v", e) for e in ("p", "q", "r", "s")})
    cells = {"c": (("p", 1), ("q", 1), ("r", -1), ("s", -1))}
    return TwoComplex(g, cells, base_vertex="v")


def two_cells_same_loop():
    g = Graph(frozenset({"v"}), {"e": EdgeRec("v", "v", "e")})
    return TwoComplex(g, {"A": (("e", 1),), "B": (("e", 1),)},
                      base_vertex="v")


def two_cells_disjoint_loops():
    g = Graph(frozenset({"v"}), {"e": EdgeRec("v", "v", "e"),
                                 "f": EdgeRec("v", "v", "f")})
    return TwoComplex(g, {"A": (("e", 1),), "B": (("f", 1),)},
                      base_vertex="v")


def test_single_cell_injective_heights_is_good():
    c = square_complex()
    s = Stacking(c, {("c", i): F(7 - 3 * i, 2) for i in range(4)})
    assert check_good_stacking(s).good


def test_stacked_loops_top_cell_blocks_the_bottom():
    c = two_cells_same_loop()
    s = Stacking(c, {("A", 0): F(0), ("B", 0): F(1)})
    verdict = check_good_stacking(s)
    assert not verdict.good
    assert "A" in verdict.witness and "maximum" in verdict.witness


def test_disjoint_images_are_always_good():
    c = two_cells_disjoint_loops()
    s = Stacking(c, {("A", 0): F(5), ("B", 0): F(5)})
    assert check_good_stacking(s).good


def test_shared_height_over_an_edge_is_reported_before_goodness():
    c = two_cells_same_loop()
    s = Stacking(c, {("A", 0): F(1), ("B", 0): F(1)})
    problems = validate_stacking(s)
    assert problems and "share height" in problems[0]
    with pytest.raises(ValueError, match="not an embedding"):
        check_good_stacking(s)


def test_missing_and_unknown_positions_are_rejected():
    c = square_complex()
    with pytest.raises(ValueError, match="no height"):
        check_good_stacking(Stacking(c, {("c", 0): F(0)}))
    full = {("c", i): F(i) for i in range(4)}
    with pytest.raises(ValueError, match="unknown position"):
        check_good_stacking(Stacking(c, {**full, ("zz", 0): F(9)}))


def test_orbicomplex_domain_is_the_relator_circle():
    x = build_orbicomplex(Graph.rose("ab"), parse_word("a b a b~"), 3)
    circle = x.relator_circle
    circles = boundary_circles(circle)
    assert set(circles) == {ORBI_CIRCLE}
    assert circles[ORBI_CIRCLE] == ("a", "b", "a", "b")
    # one cell reading w once, not the disk's w^n, over the rose, no base
    assert circle.cells == {ORBI_CIRCLE: x.relator}
    assert circle.skeleton is x.gamma and circle.base_vertex is None
    assert x.relator_circle is circle


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(4))))
def test_single_circle_injective_heights_are_always_good(perm):
    x = build_orbicomplex(Graph.rose("ab"), parse_word("a b a b~"), 2)
    s = Stacking(x.relator_circle,
                 {(ORBI_CIRCLE, i): F(perm[i]) for i in range(4)})
    assert check_good_stacking(s).good


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(3))),
       st.fractions(min_value=-5, max_value=5),
       st.fractions(min_value=F(1, 7), max_value=5))
def test_verdict_is_order_invariant(perm, shift, scale):
    c = two_cells_same_loop()
    g2 = two_cells_disjoint_loops()
    base = {("A", 0): F(perm[0]), ("B", 0): F(perm[1])}
    for cpx in (c, g2):
        s = Stacking(cpx, dict(base))
        moved = Stacking(cpx, {k: v * scale + shift for k, v in base.items()})
        ranked = Stacking(cpx, {
            k: F(sorted(base.values()).index(v)) for k, v in base.items()})
        v0 = check_good_stacking(s)
        assert check_good_stacking(moved).good == v0.good
        assert check_good_stacking(ranked).good == v0.good


def test_parse_reads_rational_heights():
    c = square_complex()
    s = parse_stacking("h c 0 1/3\nh c 1 -7/2\nh c 2 4\nh c 3 0\n", c)
    assert s.complex is c
    assert s.heights == {("c", 0): F(1, 3), ("c", 1): F(-7, 2),
                         ("c", 2): F(4), ("c", 3): F(0)}


def test_parse_ignores_complex_lines_and_rejects_duplicates():
    c = two_cells_same_loop()
    text = "vertex v\nedge e : v -> v\n# comment\nh A 0 2\nh B 0 1\n"
    s = parse_stacking(text, c)
    assert s.heights == {("A", 0): F(2), ("B", 0): F(1)}
    with pytest.raises(ValueError, match="duplicate"):
        parse_stacking("h A 0 1\nh A 0 2\n", c)
