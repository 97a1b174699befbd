from fractions import Fraction

import pytest

from orelco.complexes import (EdgeRec, Graph, MapKind, TwoComplex,
                              euler_characteristic)
from orelco.covers import (FiniteQuotient, build_unwrapped_cover,
                           cycle_lengths, find_exponent_n_quotient,
                           has_uniform_exponent_cycles, permutation_order,
                           pull_back_subgroup, validate_quotient,
                           verify_cover, UnwrappedCover)
import orelco.covers as covers
from orelco.errors import BudgetExhaustedError, InvariantError
from orelco.orbicomplex import (OrbiMorphism, build_orbicomplex,
                                check_orbi_immersion, degree,
                                presentation_complex, wcycles_audit)
from orelco.words import parse_word

A = ("a", 1)
B = ("b", 1)


def make_x(word, n):
    return build_orbicomplex(Graph.rose(["a", "b"]), parse_word(word), n)


Q_AB2 = FiniteQuotient(2, {"a": (1, 0), "b": (0, 1)})


def test_perm_helpers():
    assert cycle_lengths((1, 0, 2)) == [1, 2]
    assert permutation_order((1, 2, 0)) == 3
    assert permutation_order((1, 0, 3, 2)) == 2
    q = Q_AB2
    assert q.permutation_of((A, B)) == (1, 0)
    assert q.act(0, (A, B, A, B)) == 0
    assert q.act(0, (("a", -1),)) == 1


def test_find_quotient_worked_examples():
    q = find_exponent_n_quotient(make_x("a b", 2), 8, 7)
    assert q.degree == 2
    assert q.perms == {"a": (1, 0), "b": (0, 1)}
    q2 = find_exponent_n_quotient(make_x("a", 3), 9, 7)
    assert q2.degree == 3
    assert q2.perms == {"a": (1, 2, 0), "b": (0, 1, 2)}


def test_cover_invariants_raise_typed_errors(monkeypatch):
    # both checks guard code paths that are right by construction, so
    # break the helpers they rely on
    x = make_x("a b", 2)
    with monkeypatch.context() as mp:
        mp.setattr(covers, "validate_quotient", lambda q, x: ["broken"])
        with pytest.raises(InvariantError, match="broken"):
            find_exponent_n_quotient(x, 8, 7)
    with monkeypatch.context() as mp:
        mp.setattr(Graph, "read", lambda g, word, start: ((), start + "'"))
        with pytest.raises(InvariantError, match="failed to close"):
            build_unwrapped_cover(x, Q_AB2)


def test_find_quotient_budget_error():
    with pytest.raises(BudgetExhaustedError):
        find_exponent_n_quotient(make_x("a b", 2), 1, 7)


def test_find_quotient_random_phase():
    # the commutator has zero exponent sums, so no cyclic quotient can work
    x = make_x("a b a~ b~", 2)
    q = find_exponent_n_quotient(x, 12, 11)
    assert q.degree % 2 == 0
    assert validate_quotient(q, x) == []
    assert has_uniform_exponent_cycles(q, x)
    again = find_exponent_n_quotient(x, 12, 11)
    assert again == q


def test_validate_quotient_catches_problems():
    x = make_x("a b", 2)
    assert validate_quotient(Q_AB2, x) == []
    bad_order = FiniteQuotient(2, {"a": (0, 1), "b": (0, 1)})
    assert any("order" in p for p in validate_quotient(bad_order, x))
    bad_perm = FiniteQuotient(2, {"a": (0, 0), "b": (0, 1)})
    assert validate_quotient(bad_perm, x)
    intransitive = FiniteQuotient(
        2, {"a": (0, 1), "b": (0, 1)})
    assert any("transitive" in p or "order" in p
               for p in validate_quotient(intransitive, x))


def test_schreier_path():
    g = build_unwrapped_cover(make_x("a b", 2), Q_AB2).cover.skeleton
    assert g.read((A,), "p0") == ((("a0", 1),), "p1")
    assert g.read((("a", -1),), "p0") == ((("a1", -1),), "p1")
    assert g.read((A, B, A, B), "p0") == (
        (("a0", 1), ("b1", 1), ("a1", 1), ("b0", 1)), "p0")


def test_build_worked_cover():
    x = make_x("a b", 2)
    c = build_unwrapped_cover(x, Q_AB2)
    g = c.cover.skeleton
    assert g.vertices == frozenset({"p0", "p1"})
    assert g.edges == {
        "a0": EdgeRec("p0", "p1", "a"),
        "a1": EdgeRec("p1", "p0", "a"),
        "b0": EdgeRec("p0", "p0", "b"),
        "b1": EdgeRec("p1", "p1", "b"),
    }
    assert c.cover.cells == {"f0": (("a0", 1), ("b1", 1), ("a1", 1), ("b0", 1))}
    assert c.families == {"f0": (0, 1)}
    assert c.cover.base_vertex == "p0"
    assert euler_characteristic(c.cover, 2) == -1
    assert check_orbi_immersion(c.covering_map).kind == MapKind.IMMERSION
    assert degree(c.covering_map) == 2


def test_worked_cover_audit_is_tight():
    x = make_x("a b", 2)
    c = build_unwrapped_cover(x, Q_AB2)
    rep = wcycles_audit(c.covering_map)
    assert rep.slack1 == 0
    assert rep.slack2 == 0
    assert rep.passed


def test_verify_worked_cover():
    x = make_x("a b", 2)
    rep = verify_cover(build_unwrapped_cover(x, Q_AB2))
    assert rep.passed
    assert rep.witnesses == ()
    assert rep.euler == -1
    assert rep.euler_expected == Fraction(-1)
    assert rep.degree == 2
    assert rep.torsion_free_certified


def test_build_second_cover():
    x = make_x("a", 3)
    q = FiniteQuotient(3, {"a": (1, 2, 0), "b": (0, 1, 2)})
    c = build_unwrapped_cover(x, q)
    assert len(c.cover.skeleton.vertices) == 3
    assert len(c.cover.skeleton.edges) == 6
    assert list(c.cover.cells) == ["f0"]
    assert len(c.cover.cells["f0"]) == 3
    assert euler_characteristic(c.cover, 2) == -2
    rep = verify_cover(c)
    assert rep.passed
    assert rep.euler_expected == Fraction(-2)
    assert degree(c.covering_map) == 3


def test_build_degenerate_unwrap():
    x = make_x("a b", 1)
    q = find_exponent_n_quotient(x, 4, 0)
    assert q.degree == 1
    c = build_unwrapped_cover(x, q)
    assert len(c.cover.skeleton.vertices) == 1
    assert len(c.cover.skeleton.edges) == 2
    assert list(c.cover.cells) == ["f0"]
    assert verify_cover(c).passed
    assert euler_characteristic(c.cover, 2) == 0


def test_build_rejects_nonuniform_quotient():
    x = make_x("a b", 2)
    # a is a 4-cycle (transitive), chosen so the relator image is the
    # transposition (0 1): order two but with two fixed points
    q = FiniteQuotient(4, {"a": (1, 2, 3, 0), "b": (3, 1, 0, 2)})
    assert validate_quotient(q, x) == []
    assert not has_uniform_exponent_cycles(q, x)
    with pytest.raises(ValueError, match="exponent condition"):
        build_unwrapped_cover(x, q)


def test_verify_rejects_wrapped_presentation_complex():
    x = make_x("a b", 2)
    cx, m = presentation_complex(x)
    fake = UnwrappedCover(
        cover=cx, covering_map=m, families={"d0": (0,)},
        quotient=FiniteQuotient(1, {"a": (0,), "b": (0,)}))
    rep = verify_cover(fake)
    assert not rep.passed
    assert any("side" in w or "immersion" in w for w in rep.witnesses)
    assert any("Euler" in w for w in rep.witnesses)
    assert any("size" in w for w in rep.witnesses)


def test_verify_cell_free_identity_cover():
    x = make_x("a b", 2)
    rose_cx = TwoComplex(skeleton=Graph.rose(["a", "b"]), cells={})
    m_id = OrbiMorphism(rose_cx, x, {"*": "*"},
                        {"a": ("a", 1), "b": ("b", 1)}, {})
    fake = UnwrappedCover(
        cover=rose_cx, covering_map=m_id, families={},
        quotient=FiniteQuotient(1, {"a": (0,), "b": (0,)}))
    rep = verify_cover(fake)
    assert rep.passed
    assert rep.euler_expected is None


def test_pull_back_full_group():
    gens = [(A,), (B,)]
    out = pull_back_subgroup(gens, Q_AB2)
    assert out == [(B,), (A, A), (A, B, ("a", -1))]


def test_pull_back_cyclic_subgroup():
    out = pull_back_subgroup([(A, B)], Q_AB2)
    assert out == [(A, B, A, B)]


def test_pull_back_already_in_stabilizer():
    out = pull_back_subgroup([(B,), (A, A)], Q_AB2)
    assert out == [(B,), (A, A)]


def test_pull_back_outputs_fix_base_point():
    for gens in [[(A,), (B,)], [(A, B)], [(A, B, ("a", -1)), (B, B)]]:
        for word in pull_back_subgroup(gens, Q_AB2):
            assert Q_AB2.act(0, word) == 0
