import pytest
from hypothesis import given, strategies as st

from orelco.complexes import Graph
from orelco.orbicomplex import build_orbicomplex
from orelco.words import (DehnResult, dehn_solve, format_word, free_reduce,
                          inverse_word, is_cyclically_reduced, is_proper_power,
                          least_rotation, parse_word)

A = ("a", 1)
Ai = ("a", -1)
B = ("b", 1)
Bi = ("b", -1)


def make_x(word_letters, n):
    gamma = Graph.rose(["a", "b"])
    relator = tuple((sym, sign) for sym, sign in word_letters)
    return build_orbicomplex(gamma, relator, n)


letters = st.sampled_from([A, Ai, B, Bi])
words = st.lists(letters, max_size=24).map(tuple)


def test_free_reduce_basic():
    assert free_reduce((A, Ai)) == ()
    assert free_reduce((A, B, Bi, Ai)) == ()
    assert free_reduce((A, B, Bi, B)) == (A, B)
    assert free_reduce(()) == ()


def test_free_reduce_cyclic():
    assert free_reduce((Ai, B, A), cyclic=True) == (B,)
    assert free_reduce((Ai, B, B, A), cyclic=True) == (B, B)
    assert free_reduce((A, B), cyclic=True) == (A, B)


@given(words)
def test_free_reduce_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@given(words)
def test_reduce_kills_inverse_product(w):
    assert free_reduce(w + inverse_word(w)) == ()


def test_proper_power():
    assert is_proper_power((A, B, A, B)) == (True, (A, B), 2)
    assert is_proper_power((A, B)) == (False, (A, B), 1)
    assert is_proper_power((A,)) == (False, (A,), 1)
    assert is_proper_power((A, A, A)) == (True, (A,), 3)
    with pytest.raises(ValueError):
        is_proper_power(())
    with pytest.raises(ValueError):
        is_proper_power((B, A, Bi))  # cyclically reducible


def test_least_rotation():
    assert least_rotation(()) == ()
    assert least_rotation((B, A, A)) == (A, A, B)
    assert least_rotation([Bi, A, B]) == (A, B, Bi)
    assert least_rotation((A, B, Bi)) == (A, B, Bi)  # already least


def test_parse_and_format():
    w = parse_word("a b~ a")
    assert w == (A, Bi, A)
    assert format_word(w) == "a b~ a"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("c", alphabet=["a", "b"])
    with pytest.raises(ValueError):
        parse_word("~a")


@given(words)
def test_word_roundtrip(w):
    assert parse_word(format_word(w)) == w


def test_cyclically_reduced_predicate():
    assert is_cyclically_reduced((A, B))
    assert not is_cyclically_reduced((A, B, Ai))
    assert is_cyclically_reduced(())
    assert is_cyclically_reduced((A,))


# Dehn algorithm over the group with relator (ab)^2


def test_dehn_relator_power_trivial():
    x = make_x((A, B), 2)
    res = dehn_solve((A, B, A, B), x)
    assert res.trivial
    assert len(res.steps) == 1
    step = res.steps[0]
    assert (step.position, step.length, step.rotation, step.sign) == (0, 4, 0, 1)


def test_dehn_short_word_nontrivial():
    x = make_x((A, B), 2)
    res = dehn_solve((A, B), x)
    assert not res.trivial
    assert res.remnant == (A, B)
    assert res.steps == ()


def test_dehn_third_power_leaves_remnant():
    x = make_x((A, B), 2)
    res = dehn_solve((A, B, A, B, A, B), x)
    assert not res.trivial
    assert res.remnant == (A, B)
    assert len(res.steps) == 1


def test_dehn_inverse_relator_trivial():
    x = make_x((A, B), 2)
    res = dehn_solve(inverse_word((A, B, A, B)), x)
    assert res.trivial
    assert res.steps[0].sign == -1


def test_dehn_conjugate_trivial():
    x = make_x((A, B), 2)
    u = free_reduce((B,) + (A, B, A, B) + (Bi,))
    res = dehn_solve(u, x)
    assert res.trivial


def test_dehn_rejects_unreduced_input():
    x = make_x((A, B), 2)
    with pytest.raises(ValueError):
        dehn_solve((A, Ai), x)


def test_dehn_rejects_branch_one():
    x = make_x((A, B, A, Bi), 1)
    with pytest.raises(ValueError):
        dehn_solve((A, B), x)


def _conjugates_sample(x, rng_words):
    relator = x.relator_word() * x.branch_index
    out = []
    for conj in rng_words:
        for sign in (1, -1):
            core = relator if sign > 0 else inverse_word(relator)
            out.append(free_reduce(conj + core + inverse_word(conj)))
    return out


def test_dehn_products_of_conjugates_trivial():
    x = make_x((A, B), 2)
    conjs = [(), (A,), (B, A), (Ai, B, Ai), (B, B, A)]
    pieces = _conjugates_sample(x, conjs)
    for i, p in enumerate(pieces):
        for q in pieces[i:]:
            u = free_reduce(p + q)
            assert dehn_solve(u, x).trivial


def test_dehn_quotient_certified_nontrivial():
    # exponent sum of a mod 2 survives in the group, so odd words stay nontrivial
    x = make_x((A, B), 2)
    for u in [(A,), (A, B, B), (B, A, B, A, B, Ai, Bi)]:
        u = free_reduce(u)
        total = sum(s for sym, s in u if sym == "a")
        if total % 2 == 1:
            assert not dehn_solve(u, x).trivial


def test_dehn_strong_threshold_agrees():
    x = make_x((A, B), 3)
    samples = [
        (A, B, A, B, A, B),
        free_reduce((A,) + (A, B) * 3 + (Ai,)),
        (A, B, Ai, B),
        (B, A) * 4,
    ]
    for u in samples:
        assert dehn_solve(u, x).trivial == dehn_solve(u, x, strong_threshold=True).trivial
