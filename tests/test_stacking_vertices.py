"""The vertex half of the embedding check: strands may not cross."""

import itertools
from fractions import Fraction

import pytest

from orelco.complexes import EdgeRec, Graph, TwoComplex
from orelco.orbicomplex import ORBI_CIRCLE, build_orbicomplex
from orelco.stacking import Stacking, check_good_stacking, validate_stacking
from orelco.words import parse_word

F = Fraction


def loops(cells, *names):
    """One vertex per loop, named after it; ``cells`` attach along them."""
    g = Graph(frozenset(f"v{e}" for e in names),
              {e: EdgeRec(f"v{e}", f"v{e}", e) for e in names})
    return TwoComplex(g, cells)


def relator_circle(word, heights):
    x = build_orbicomplex(Graph.rose("ab"), parse_word(word), 2)
    return Stacking(x.relator_circle,
                    {(ORBI_CIRCLE, i): F(h) for i, h in enumerate(heights)})


def test_a_cell_twice_round_a_loop_is_refused():
    # the circle winds twice round the annulus over the loop
    s = Stacking(loops({"c": (("e", 1), ("e", 1))}, "e"),
                 {("c", 0): F(0), ("c", 1): F(1)})
    assert validate_stacking(s) == [
        "strands cross at vertex ve: passages ('c', 0) < ('c', 1) < ('c', 0)"]
    with pytest.raises(ValueError, match="not an embedding: strands cross"):
        check_good_stacking(s)


def test_a_relator_circle_whose_strands_cross_is_refused():
    s = relator_circle("a a a b", (0, 2, 1, 0))
    assert validate_stacking(s) == [
        "strands cross at vertex *: passages ('w', 1) < ('w', 3) < ('w', 2)"
        " < ('w', 1)"]
    with pytest.raises(ValueError, match="not an embedding: strands cross"):
        check_good_stacking(s)


def test_each_vertex_with_crossing_strands_is_one_problem():
    s = Stacking(loops({"c": (("e", 1), ("e", 1)),
                        "d": (("f", 1), ("f", 1))}, "e", "f"),
                 {("c", 0): F(0), ("c", 1): F(1),
                  ("d", 0): F(1), ("d", 1): F(0)})
    assert [p.split(":")[0] for p in validate_stacking(s)] == [
        "strands cross at vertex ve", "strands cross at vertex vf"]


def test_every_order_of_a_b_a_b_inverse_embeds():
    for heights in itertools.permutations(range(4)):
        assert validate_stacking(relator_circle("a b a b~", heights)) == []


def test_a_turn_back_embeds_unless_a_strand_runs_inside_it():
    # c runs along e and turns back at each end; d goes round e once
    c = loops({"c": (("e", 1), ("e", -1)), "d": (("e", 1),)}, "e")
    outside = {("c", 0): F(0), ("c", 1): F(1), ("d", 0): F(2)}
    inside = {("c", 0): F(0), ("c", 1): F(2), ("d", 0): F(1)}
    assert validate_stacking(Stacking(c, outside)) == []
    assert validate_stacking(Stacking(c, inside)) == [
        "strands cross at vertex ve: passages ('c', 0) < ('d', 0) < ('c', 0)"]
