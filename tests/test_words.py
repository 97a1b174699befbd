import random

import pytest
from hypothesis import given, strategies as st

from orelco.complexes import Graph
from orelco.covers import build_unwrapped_cover, find_exponent_n_quotient
from orelco.diagrams import build_reduced_diagram
from orelco.orbicomplex import build_orbicomplex
from orelco.pipeline import present_subgroup, seed_immersion
from orelco.words import (DehnResult, DehnStep, dehn_solve, format_word,
                          free_reduce, inverse_word, is_cyclically_reduced,
                          is_proper_power, is_reduced, parse_word,
                          splice)

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


@given(words)
def test_reduced_predicate_agrees_with_free_reduction(w):
    assert is_reduced(w) == (free_reduce(w) == w)
    assert is_reduced(list(w)) == is_reduced(w)


def test_dehn_rejects_unreduced_input_after_the_branch_check():
    with pytest.raises(ValueError, match="freely reduced"):
        dehn_solve((A, B, Bi, A), make_x([A, B], 2))
    with pytest.raises(ValueError, match="branch index"):
        dehn_solve((A, B, Bi, A), make_x([A, B], 1))
    x = make_x([A, B], 2)
    assert x.relator is x.relator


def test_every_caller_states_the_torsion_rule_in_one_message():
    from orelco.harness import GeneratorParams, random_irreducible_immersion
    from orelco.pipeline import present_subgroup
    x = make_x([A, B], 1)
    calls = [lambda: dehn_solve((A,), x),
             lambda: present_subgroup([(A,)], x),
             lambda: random_irreducible_immersion(
                 0, GeneratorParams(3, x.relator, 1))]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "branch index must be at least 2, got 1"


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


def test_dehn_rejects_a_letter_outside_the_rose():
    # c c~ would cancel once the relator between them is swapped out
    x = make_x((A, B), 2)
    for text in ("c a b a b c~", "a b c", "c"):
        with pytest.raises(ValueError, match="letter 'c' is not a loop"):
            dehn_solve(parse_word(text), x)
    with pytest.raises(ValueError, match="freely reduced"):
        dehn_solve(parse_word("a a~ c"), x)


def _sign_fault(sign):
    return f"letter 'a' has sign {sign}, not 1 or -1"


MALFORMED = {
    "foreign": ((B, ("c", 1)), "letter 'c' is not a loop of the rose"),
    "sign-2": ((("a", 2),), _sign_fault(2)),
    "sign-0": ((B, ("a", 0)), _sign_fault(0)),
    "a-then-sign-2": ((A, ("a", 2)), _sign_fault(2)),
    # free reduction would cancel the pair before any check saw it
    "cancelling-sign-2": ((("a", 2), ("a", -2)), _sign_fault(2)),
}


@pytest.fixture(scope="module")
def entry_points():
    """Each library call that takes a word over the rose {a, b}."""
    x = make_x((A, B), 2)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 8, 0))
    return {
        "dehn_solve": lambda w: dehn_solve(w, x),
        "build_orbicomplex": lambda w: build_orbicomplex(x.gamma, w, 2),
        "present_subgroup": lambda w: present_subgroup([w], x),
        "seed_immersion": lambda w: seed_immersion([w], cover),
        "build_reduced_diagram": lambda w: build_reduced_diagram(w, x),
        "parse_word": lambda w: parse_word(format_word(w), "ab"),
    }


@pytest.mark.parametrize("word, message", MALFORMED.values(), ids=MALFORMED)
def test_every_entry_point_refuses_a_malformed_word_alike(entry_points, word,
                                                          message):
    # a sign other than 1 or -1 once read as a letter, and one entry point
    # wrote "not in alphabet" where the others wrote "not a loop"
    spelt = parse_word(format_word(word)) == word
    refusals = {}
    for name, call in entry_points.items():
        if name == "parse_word" and not spelt:
            continue        # text spells only the signs 1 and -1
        with pytest.raises(ValueError) as refused:
            call(word)
        refusals[name] = str(refused.value)
    assert refusals == dict.fromkeys(refusals, message)


def test_dehn_rejects_branch_one():
    x = make_x((A, B, A, Bi), 1)
    with pytest.raises(ValueError):
        dehn_solve((A, B), x)


def _conjugates_sample(x, rng_words):
    relator = x.relator * x.branch_index
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


def _random_word(rng, length):
    return tuple(rng.choice((A, Ai, B, Bi)) for _ in range(length))


def test_splice_cancels_only_at_the_seams():
    u = (A, B, A, B)
    assert splice(u, 1, 3, (Bi,)) == ((A,), 1)       # a [b a] b -> a b~ b
    assert splice(u, 2, 4, (Bi, Ai)) == ((), 0)      # a b [a b] -> a b b~ a~
    assert splice(u, 0, 2, ()) == ((A, B), 0)
    assert splice((A, B, B), 1, 2, (Bi, Ai)) == ((A, Bi, Ai, B), 1)
    rng = random.Random(5)
    for _ in range(500):
        u = free_reduce(_random_word(rng, rng.randint(0, 12)))
        r = free_reduce(_random_word(rng, rng.randint(0, 6)))
        i = rng.randint(0, len(u))
        j = rng.randint(i, len(u))
        got, kept = splice(u, i, j, r)
        assert got == free_reduce(u[:i] + r + u[j:])
        assert got[:kept] == u[:kept] and kept <= i


# Reference solver: the full rotation table built per call, every table
# entry matched letter by letter at every position (longest match, first
# entry among equals), and the whole word reduced after each swap.
# dehn_solve must give the same DehnResult, step for step.


def reference_dehn_solve(word, x):
    n = x.branch_index
    base = x.relator
    u = free_reduce(word)
    relator = base * n
    m = len(relator)
    threshold = m // 2 + 1
    inv = inverse_word(relator)
    table = []
    for idx in range(m):
        table.append((idx, 1, relator[idx:] + relator[:idx]))
        table.append((idx, -1, inv[idx:] + inv[:idx]))
    steps = []
    while u:
        found = None
        for i in range(len(u)):
            best = None
            cap = min(len(u) - i, m)
            if cap < threshold:
                continue
            for idx, sign, rot in table:
                match = 0
                while match < cap and u[i + match] == rot[match]:
                    match += 1
                if match >= threshold and (best is None or match > best[0]):
                    best = (match, idx, sign, rot)
            if best is not None:
                found = (i, best)
                break
        if found is None:
            return DehnResult(False, u, tuple(steps))
        i, (length, idx, sign, rot) = found
        replacement = inverse_word(rot[length:])
        u = free_reduce(u[:i] + replacement + u[i + length:])
        steps.append(DehnStep(i, length, idx, sign))
    return DehnResult(True, (), tuple(steps))


@pytest.mark.parametrize("relator,n", [
    ((A, B), 2), ((A, B, A, Bi), 2), ((A, B), 3), ((A, A, B, B, B), 2)])
def test_dehn_matches_the_reference_solver(relator, n):
    x = make_x(relator, n)
    power = x.relator * n
    rng = random.Random(len(relator) * 10 + n)
    corpus = []
    for _ in range(60):         # products of conjugates of the relator power
        u = ()
        for _ in range(rng.randint(1, 5)):
            conj = _random_word(rng, rng.randint(0, 6))
            core = power if rng.random() < 0.5 else inverse_word(power)
            u += conj + core + inverse_word(conj)
        corpus.append(free_reduce(u))
    for _ in range(60):         # random reduced words, mostly nontrivial
        corpus.append(free_reduce(_random_word(rng, rng.randint(0, 40))))
    trivial = 0
    for u in corpus:
        got = dehn_solve(u, x)
        assert got == reference_dehn_solve(u, x), u
        trivial += got.trivial
    assert trivial >= 60
