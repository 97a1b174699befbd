"""The records ``Graph``, ``TwoComplex``, ``OneRelatorOrbicomplex`` and
``GeneratorParams``, which cache tables on their instances, and
``FiniteQuotient``, which keeps none: their fields and constructors, value
equality, hashing, repr text, read-only fields, and one computation of each
cached table per instance."""

from typing import Callable, NamedTuple

import pytest

from orelco.complexes import EdgeRec, Graph, TwoComplex
from orelco.covers import FiniteQuotient
from orelco.harness import GeneratorParams
from orelco.orbicomplex import OneRelatorOrbicomplex, build_orbicomplex

AB = (("a", 1), ("b", -1))
ROSE_AB = ("Graph(vertices=frozenset({'*'}), edges={"
           "'a': EdgeRec(tail='*', head='*', label='a'), "
           "'b': EdgeRec(tail='*', head='*', label='b')})")
ROSE_A = ("Graph(vertices=frozenset({'*'}), edges={"
          "'a': EdgeRec(tail='*', head='*', label='a')})")


class Case(NamedTuple):
    make: Callable      # a fresh record, equal to every other it makes
    other: Callable     # a record of the same kind with one field changed
    fields: tuple[str, ...]
    text: str           # repr(make())
    hashes: bool
    cached: tuple[str, ...]


CASES = {
    "Graph": Case(
        lambda: Graph.rose(["a", "b"]), lambda: Graph.rose(["a"]),
        ("vertices", "edges"), ROSE_AB, False, ("_adjacency", "_reader")),
    "Graph-unlabelled": Case(
        lambda: Graph(frozenset({"u"}), {"e": EdgeRec("u", "u")}),
        lambda: Graph(frozenset({"u"}), {"e": EdgeRec("u", "u", "a")}),
        ("vertices", "edges"),
        "Graph(vertices=frozenset({'u'}), edges={"
        "'e': EdgeRec(tail='u', head='u', label=None)})",
        False, ("_adjacency", "_reader")),
    "TwoComplex": Case(
        lambda: TwoComplex(Graph.rose(["a"]), {"c": (("a", 1), ("a", 1))},
                           base_vertex="*"),
        lambda: TwoComplex(Graph.rose(["a"]), {"c": (("a", 1), ("a", 1))}),
        ("skeleton", "cells", "base_vertex"),
        f"TwoComplex(skeleton={ROSE_A}, cells={{'c': (('a', 1), ('a', 1))}},"
        " base_vertex='*')",
        False, ("sides_over",)),
    "TwoComplex-defaults": Case(
        lambda: TwoComplex(Graph.rose(["a"])),
        lambda: TwoComplex(Graph.rose(["a"]), {"c": (("a", 1),)}),
        ("skeleton", "cells", "base_vertex"),
        f"TwoComplex(skeleton={ROSE_A}, cells={{}}, base_vertex=None)",
        False, ("sides_over",)),
    "FiniteQuotient": Case(
        lambda: FiniteQuotient(2, {"a": (1, 0), "b": (0, 1)}),
        lambda: FiniteQuotient(2, {"a": (1, 0), "b": (1, 0)}),
        ("degree", "perms"),
        "FiniteQuotient(degree=2, perms={'a': (1, 0), 'b': (0, 1)})",
        False, ()),
    "OneRelatorOrbicomplex": Case(
        lambda: build_orbicomplex(Graph.rose(["a", "b"]),
                                  (("a", 1), ("b", 1)), 2),
        lambda: build_orbicomplex(Graph.rose(["a", "b"]),
                                  (("a", 1), ("b", 1)), 3),
        ("gamma", "relator", "branch_index"),
        f"OneRelatorOrbicomplex(gamma={ROSE_AB},"
        " relator=(('a', 1), ('b', 1)), branch_index=2)",
        False, ("presentation_complex", "relator_circle", "_rose_symbols",
                "_rotations", "_dehn_index")),
    "GeneratorParams": Case(
        lambda: GeneratorParams(3, AB, 2),
        lambda: GeneratorParams(3, AB, 2, 0.25),
        ("vertex_budget", "relator", "branch_index", "attach_probability"),
        "GeneratorParams(vertex_budget=3, relator=(('a', 1), ('b', -1)),"
        " branch_index=2, attach_probability=0.5)",
        True, ("orbicomplex",)),
}

by_case = pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())


@by_case
def test_repr_is_the_field_text_and_leaves_out_the_caches(case):
    record = case.make()
    assert repr(record) == case.text
    for name in case.cached:
        getattr(record, name)
    assert repr(record) == case.text


@by_case
def test_records_are_equal_by_value(case):
    a, b, other = case.make(), case.make(), case.other()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != case.text


@by_case
def test_fields_keep_their_order_by_position_and_by_keyword(case):
    record = case.make()
    values = [getattr(record, f) for f in case.fields]
    kind = type(record)
    assert kind(*values) == record
    assert kind(**dict(zip(case.fields, values))) == record
    assert repr(kind(*values)) == case.text


@by_case
def test_a_field_cannot_be_assigned(case):
    record = case.make()
    for f in case.fields:
        before = getattr(record, f)
        with pytest.raises(AttributeError):
            setattr(record, f, case.other())
        assert getattr(record, f) is before
    assert record == case.make()


@by_case
def test_only_the_records_without_dicts_hash(case):
    a, b = case.make(), case.make()
    if case.hashes:
        assert hash(a) == hash(b)
        assert {a: "kept"}[b] == "kept"
        assert len({a, b, case.other()}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@by_case
def test_each_cached_table_is_computed_once_per_instance(case, monkeypatch):
    a, b = case.make(), case.make()
    for name in case.cached:
        prop = type(a).__dict__[name]
        calls = []
        real = prop.func
        monkeypatch.setattr(prop, "func",
                            lambda self, real=real: calls.append(self)
                            or real(self))
        first = getattr(a, name)
        assert getattr(a, name) is first
        getattr(b, name)
        assert getattr(b, name) is not first
        assert [id(r) for r in calls] == [id(a), id(b)], name


def test_complexes_made_without_cells_each_get_their_own():
    g = Graph.rose(["a"])
    one, two = TwoComplex(g), TwoComplex(skeleton=g)
    assert one.cells == two.cells == {}
    assert one.cells is not two.cells
    assert one.base_vertex is None


def test_replace_and_make_check_like_the_constructor():
    # NamedTuple's own _make builds with tuple.__new__, past the check
    params = GeneratorParams(5, AB, 2, 0.25)
    for fields in ((0, AB, 2, 0.25), (5, AB, 2, 1.5)):
        with pytest.raises(ValueError) as made:
            GeneratorParams(*fields)
        with pytest.raises(ValueError) as remade:
            GeneratorParams._make(fields)
        with pytest.raises(ValueError) as replaced:
            params._replace(**dict(zip(params._fields, fields)))
        assert str(remade.value) == str(replaced.value) == str(made.value)
    again = params._replace(vertex_budget=3)
    assert again == GeneratorParams._make((3, AB, 2, 0.25))
    assert type(again) is GeneratorParams


def test_another_budget_is_checked_and_shares_the_orbicomplex():
    params = GeneratorParams(5, AB, 2, 0.25)
    with pytest.raises(ValueError) as made:
        GeneratorParams(0, AB, 2, 0.25)
    with pytest.raises(ValueError) as rebudgeted:
        params._with_budget(0)
    assert str(rebudgeted.value) == str(made.value)
    smaller = params._with_budget(3)
    assert smaller == GeneratorParams(3, AB, 2, 0.25)
    assert type(smaller) is GeneratorParams
    assert smaller.orbicomplex is params.orbicomplex
    assert isinstance(smaller.orbicomplex, OneRelatorOrbicomplex)
    assert params == GeneratorParams(5, AB, 2, 0.25)
