import collections
import itertools
import math
import random

import pytest

from orelco.complexes import (CellMorphism, EdgeRec, Graph, MapKind,
                              TwoComplex, connected_components,
                              euler_characteristic)
from orelco.covers import (FiniteQuotient, UnwrappingActionTree,
                           build_unwrapped_cover,
                           find_exponent_n_quotient,
                           unwrapping_actions, validate_quotient,
                           verify_cover, UnwrappedCover)
import orelco.covers as covers
from orelco.errors import BudgetExhaustedError, InvariantError, OrelcoError
from orelco.orbicomplex import (build_orbicomplex, by_labels,
                                check_orbi_immersion, degree,
                                presentation_complex, wcycles_audit)
from orelco.words import _check_letters, parse_word

import oracles
from quotient_draws import draw_quotient

A = ("a", 1)
B = ("b", 1)


def make_x(word, n):
    return build_orbicomplex(Graph.rose(["a", "b"]), parse_word(word), n)


Q_AB2 = FiniteQuotient(2, {"a": (1, 0), "b": (0, 1)})


def test_perm_helpers():
    q = Q_AB2
    assert q.permutation_of((A, B)) == (1, 0)
    assert q.act(0, (A, B, A, B)) == 0
    assert q.act(0, (("a", -1),)) == 1


def test_permutation_of_and_act_match_a_letter_by_letter_fold():
    rng = random.Random(9)
    for _ in range(300):
        k = rng.randint(1, 9)
        q = FiniteQuotient(k, {s: tuple(rng.sample(range(k), k)) for s in "ab"})
        word = tuple((rng.choice("ab"), rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 12)))
        want = oracles.word_permutation(q.perms, k, word)
        assert q.permutation_of(word) == want
        assert [q.act(i, word) for i in range(k)] == list(want)


@pytest.mark.parametrize("word", [(("c", 1),), (("a", 2),), (("a", 0),),
                                  (("a", 1), ("a", 2))],
                         ids=["foreign", "sign 2", "sign 0", "late sign 2"])
def test_the_quotient_readers_refuse_a_malformed_letter(word):
    # a sign other than 1 read as the letter or its inverse, and a foreign
    # letter was a bare KeyError; both readers now give the letter rule
    with pytest.raises(ValueError) as rule:
        _check_letters(word, Q_AB2.perms)
    for read in (lambda: Q_AB2.act(0, word),
                 lambda: Q_AB2.permutation_of(word)):
        with pytest.raises(ValueError) as refused:
            read()
        assert str(refused.value) == str(rule.value)


@pytest.mark.parametrize("point", [-1, 3, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_act_refuses_a_point_outside_the_action(point, sign):
    # -1 once read the permutation from its end and returned 0, and 5 raised
    # a bare IndexError or tuple.index's ValueError
    q = FiniteQuotient(3, {"a": (1, 2, 0), "b": (0, 1, 2)})
    with pytest.raises(ValueError,
                       match=fr"^point {point} is not in range\(3\)$"):
        q.act(point, (("a", sign),))


def test_find_quotient_worked_examples():
    q = find_exponent_n_quotient(make_x("a b", 2), 8, 7)
    assert q.degree == 2
    assert q.perms == {"a": (1, 0), "b": (0, 1)}
    q2 = find_exponent_n_quotient(make_x("a", 3), 9, 7)
    assert q2.degree == 3
    assert q2.perms == {"a": (1, 2, 0), "b": (0, 1, 2)}


def test_cover_invariants_raise_typed_errors(monkeypatch):
    # validate_quotient decides every candidate of the search, so a rule
    # that refuses everything exhausts its budget; the cover build's check
    # guards a path that is right by construction, so break its helper
    x = make_x("a b", 2)
    with monkeypatch.context() as mp:
        mp.setattr(covers, "validate_quotient", lambda q, x: ["broken"])
        with pytest.raises(BudgetExhaustedError):
            find_exponent_n_quotient(x, 8, 7)
    with monkeypatch.context() as mp:
        mp.setattr(Graph, "read", lambda g, word, start: ((), start + "'"))
        with pytest.raises(InvariantError, match="failed to close"):
            build_unwrapped_cover(x, Q_AB2)


def test_find_quotient_budget_error(monkeypatch):
    # a finished enumeration proves that none exists; a spent budget does not
    for word, max_degree in (("a b", 1), ("a b a b~", 2)):
        with pytest.raises(BudgetExhaustedError, match=(
                f"^no exponent-2 quotient of degree <= {max_degree} exists$")):
            find_exponent_n_quotient(make_x(word, 2), max_degree, 7)
    monkeypatch.setattr(covers, "SEARCH_NODE_BUDGET", 5)
    with pytest.raises(BudgetExhaustedError, match=(
            "^search node budget of 5 exhausted at degree 2$")):
        find_exponent_n_quotient(make_x("a b a~ b~", 2), 8, 7)


def test_find_quotient_ignores_the_seed():
    # the commutator has zero exponent sums, so no cyclic quotient can work
    x = make_x("a b a~ b~", 2)
    q = find_exponent_n_quotient(x, 12, 11)
    assert q.degree == 4 and oracles.quotient_unwraps(q, x)
    assert all(find_exponent_n_quotient(x, 12, s) == q for s in (0, 7, -3))


# (relator, n, rose): the degree and the letters' permutations of the
# quotient that the search returns
PINNED_QUOTIENTS = {
    ("a b", 2, "ab"): (2, {"a": (1, 0), "b": (0, 1)}),
    ("a b a b~", 2, "ab"): (4, {"a": (1, 2, 3, 0), "b": (0, 1, 2, 3)}),
    ("a a b b b", 2, "ab"): (2, {"a": (0, 1), "b": (1, 0)}),
    ("a b a b~", 3, "ab"): (3, {"a": (1, 2, 0), "b": (0, 1, 2)}),
    ("a b", 3, "ab"): (3, {"a": (1, 2, 0), "b": (0, 1, 2)}),
    ("a b a~ b~", 2, "ab"): (4, {"a": (0, 2, 1, 3), "b": (1, 0, 3, 2)}),
    ("a b a~ b~", 2, "abc"): (4, {"a": (0, 2, 1, 3), "b": (1, 0, 3, 2),
                                  "c": (0, 1, 2, 3)}),
    ("a b c", 2, "abc"): (2, {"a": (1, 0), "b": (0, 1), "c": (0, 1)}),
    ("a", 3, "a"): (3, {"a": (1, 2, 0)}),
}


@pytest.mark.parametrize("group, want", PINNED_QUOTIENTS.items(),
                         ids=[f"{w}/{n} over {r}"
                              for w, n, r in PINNED_QUOTIENTS])
def test_the_search_returns_the_pinned_quotient(group, want):
    word, n, rose = group
    x = build_orbicomplex(Graph.rose(list(rose)), parse_word(word), n)
    assert find_exponent_n_quotient(x, 12, 0) == FiniteQuotient(*want)


# (relator, n): the number of unwrapping actions of each degree
UNWRAPPING_COUNTS = {
    ("a b", 2): {2: 2, 4: 10, 6: 74, 8: 706},
    ("a b a b~", 2): {2: 0, 4: 28, 6: 0, 8: 1980},
    ("a a b b b", 2): {2: 2, 4: 14, 6: 164, 8: 1670},
    ("a b a b~", 3): {3: 9, 6: 567},
    ("a b", 3): {3: 6, 6: 228},
}


@pytest.mark.parametrize("relator, n", UNWRAPPING_COUNTS)
def test_unwrapping_actions_yield_each_action_once(relator, n):
    x = make_x(relator, n)
    for degree, count in UNWRAPPING_COUNTS[relator, n].items():
        tables = list(unwrapping_actions(x, degree))
        assert len(tables) == count, degree
        assert len({tuple(t.values()) for t in tables}) == count
        assert all(oracles.quotient_unwraps(FiniteQuotient(degree, t), x)
                   for t in tables)


# (relator, n): the permutation tuples of degree 1, 2, 3 and 4 that the
# brute force accepts
BRUTE_FORCE_COUNTS = {
    ("a b", 2): (0, 2, 0, 60),
    ("a b a b~", 2): (0, 0, 0, 168),
    ("a a b b b", 2): (0, 2, 0, 84),
    ("a b a b~", 3): (0, 0, 18, 0),
    ("a b", 3): (0, 0, 12, 0),
}


@pytest.mark.parametrize("relator, n", BRUTE_FORCE_COUNTS)
def test_the_brute_force_finds_each_table_once_per_numbering(relator, n):
    # an unwrapping action of degree d is one of the enumerator's tables
    # under each numbering of its points other than 0, (d - 1)! in all, and
    # validate_quotient decides every tuple as the brute force does
    x = make_x(relator, n)
    for degree, count in enumerate(BRUTE_FORCE_COUNTS[relator, n], 1):
        tables = list(unwrapping_actions(x, degree))
        accepted = 0
        for perms in oracles.permutation_tuples("ab", degree):
            unwraps = oracles.unwraps(perms, degree, "ab", x.relator, n)
            q = FiniteQuotient(degree, perms)
            assert (not validate_quotient(q, x)) == unwraps, perms
            if unwraps:
                assert oracles.standard_table(perms) in tables
                accepted += 1
        assert accepted == count == math.factorial(degree - 1) * len(tables)


def test_unwrapping_actions_carry_every_rose_loop():
    # <a, b | a^3>: the relator lacks b, and every table still permutes it
    x = make_x("a", 3)
    for degree, count in ((3, 6), (6, 228)):
        tables = list(unwrapping_actions(x, degree))
        assert len(tables) == count
        for t in tables:
            assert sorted(t) == ["a", "b"]
            assert validate_quotient(FiniteQuotient(degree, t), x) == []


@pytest.mark.parametrize("relator, n", [("a b", 2), ("a b a b~", 2),
                                         ("a a b b b", 2)])
def test_drawn_actions_are_the_enumerated_ones(relator, n):
    # a draw is one of the search's tables, or None where it has none, and
    # 1000 seeded draws reach every table of degree n and 2n (the rarest of
    # abab~/2 comes in about 1% of draws)
    x = make_x(relator, n)
    rng = random.Random(3)
    for degree in (n, 2 * n):
        tables = {tuple(t.values()) for t in unwrapping_actions(x, degree)}
        assert len(tables) == UNWRAPPING_COUNTS[relator, n][degree]
        tree = UnwrappingActionTree(x, degree)
        drawn = [tree.draw(rng) for _ in range(1000)]
        if not tables:
            assert drawn == [None] * 1000
        else:
            assert {tuple(t.values()) for t in drawn} == tables


@pytest.mark.parametrize("relator, n", [("a b", 3), ("a b", 5),
                                         ("a b a~ b~", 2)])
def test_a_draw_depends_on_its_seed_alone(relator, n, monkeypatch):
    # the same seeds draw the same tables from one kept tree as from a new
    # tree each, and from a tree that keeps 5 nodes; only the new trees
    # spend the search's budget
    x = make_x(relator, n)
    kept = UnwrappingActionTree(x, 2 * n)
    drawn = []
    for seed in range(60):
        drawn.append(UnwrappingActionTree(x, 2 * n).draw(random.Random(seed)))
        assert kept.draw(random.Random(seed)) == drawn[-1]
        assert oracles.quotient_unwraps(FiniteQuotient(2 * n, drawn[-1]), x)
    assert len({tuple(t.values()) for t in drawn}) >= 15
    monkeypatch.setattr(covers, "KEPT_TREE_NODES", 5)
    small = UnwrappingActionTree(x, 2 * n)
    assert [small.draw(random.Random(seed)) for seed in range(60)] == drawn
    assert small._kept == 5
    monkeypatch.setattr(covers, "SEARCH_NODE_BUDGET", 1)
    assert kept.draw(random.Random(0)) is not None
    with pytest.raises(BudgetExhaustedError, match=(
            f"^search node budget of 1 exhausted at degree {2 * n}$")):
        UnwrappingActionTree(x, 2 * n).draw(random.Random(0))


@pytest.mark.parametrize("relator, n", [("a b", 2), ("a b a b~", 2),
                                         ("a b", 3), ("a a b b b", 2)])
@pytest.mark.parametrize("kept", [covers.KEPT_TREE_NODES, 5])
def test_one_walk_serves_the_enumerator_and_the_draws(relator, n, kept,
                                                       monkeypatch):
    # every keyed walk of one tree yields each table of the enumerator once,
    # and after 300 draws the walk in increasing order is the enumerator's:
    # no kept node or branch marked as holding no table hides a table
    monkeypatch.setattr(covers, "KEPT_TREE_NODES", kept)
    x = make_x(relator, n)
    for degree in (n, 2 * n):
        listed = list(unwrapping_actions(x, degree))
        tables = {tuple(t.values()) for t in listed}
        tree = UnwrappingActionTree(x, degree)
        for seed in range(20):
            key = random.Random(seed).getrandbits(tree._bits)
            walked = [tuple(t.values()) for t in tree.tables(key)]
            assert len(walked) == len(tables) and set(walked) == tables
        tree = UnwrappingActionTree(x, degree)
        rng = random.Random(7)
        for _ in range(300):
            tree.draw(rng)
        assert list(tree.tables(0)) == listed


@pytest.mark.parametrize("degree", [0, -1])
def test_a_degree_below_one_has_no_search(degree):
    # an action on no points is not transitive, so neither entry point of
    # the search yields one: both refuse the degree when called
    x = make_x("a b", 2)
    message = f"^degree must be at least 1, got {degree}$"
    with pytest.raises(ValueError, match=message):
        unwrapping_actions(x, degree)
    with pytest.raises(ValueError, match=message):
        UnwrappingActionTree(x, degree).draw(random.Random(0))


# relators over the rose on a, b whose least exponent-3 quotient has degree
# 3 but no cyclic one
NON_CYCLIC_DEGREE_3 = ("a a b~ b~ b~ a", "a~ a~ b a~ a~ b~ a~ a~",
                       "b a a b b a", "b~ a~ b~ a b~", "b~ b~ a~ b~ a~ a~",
                       "a~ b~ a b~ b~", "b~ a a b a", "b~ b~ a~ b a b~ b~")


@pytest.mark.parametrize("relator", NON_CYCLIC_DEGREE_3)
def test_find_quotient_returns_the_least_degree(relator):
    assert find_exponent_n_quotient(make_x(relator, 3), 12, 0).degree == 3


def _cycle_problem(length, n):
    return [f"exponent condition violated: relator image has a cycle of"
            f" order {length}, expected {n}"]


# (relator, n, degree, permutations): validate_quotient's one problem, by
# hand; a case named "x before y" has both problems and names only x
VALIDATE_CASES = {
    "valid": ("a b", 2, 2, {"a": (1, 0), "b": (0, 1)}, []),
    "symbols": ("a b", 2, 2, {"a": (1, 0)},
                ["permutations do not match the rose symbols"]),
    "symbols before permutation": (
        "a b", 2, 2, {"a": (0, 0), "c": (0, 1)},
        ["permutations do not match the rose symbols"]),
    "permutation": ("a b", 2, 2, {"a": (1, 0), "b": (1, 1)},
                    ["image of b is not a permutation of degree 2"]),
    # the image (0 1) fixes 2 and 3, so the first short cycle is (2)
    "short cycle": ("a b", 2, 4, {"a": (1, 2, 3, 0), "b": (3, 1, 0, 2)},
                    _cycle_problem(1, 2)),
    "long cycle": ("a b", 2, 3, {"a": (1, 2, 0), "b": (0, 1, 2)},
                   _cycle_problem(3, 2)),
    "cycle before transitivity": ("a b", 2, 2, {"a": (0, 1), "b": (0, 1)},
                                  _cycle_problem(1, 2)),
    "degree": ("a b", 2, 0, {"a": (), "b": ()},
               ["degree must be at least 1"]),
    "transitivity": ("a b", 2, 4, {"a": (1, 0, 3, 2), "b": (0, 1, 2, 3)},
                     ["action is not transitive"]),
}


def test_validate_quotient_catches_problems():
    for relator, n, k, perms, problems in VALIDATE_CASES.values():
        x = make_x(relator, n)
        q = FiniteQuotient(k, perms)
        assert validate_quotient(q, x) == problems, perms
        assert (not problems) == oracles.quotient_unwraps(q, x)


def test_validate_quotient_reports_an_empty_degree():
    # the transitivity walk starts at point 0, which a degree-0 quotient lacks
    for x in (make_x("a b", 2), make_x("a b", 1)):
        empty = FiniteQuotient(0, {"a": (), "b": ()})
        assert validate_quotient(empty, x) == ["degree must be at least 1"]
    wrong_symbols = FiniteQuotient(0, {"a": ()})
    assert validate_quotient(wrong_symbols, make_x("a b", 2)) == [
        "permutations do not match the rose symbols"]


def test_find_quotient_refuses_an_empty_degree_budget():
    # degree 1 would already be over a budget below 1
    for x in (make_x("a b", 1), make_x("a b", 2)):
        for max_degree in (0, -3):
            with pytest.raises(ValueError, match="max_degree must be at least 1"):
                find_exponent_n_quotient(x, max_degree, 7)


# the groups of the rule's corpus: branch index 1 lets a single point that no
# generator moves pass the cycle check, so only the transitivity walk can
# refuse it, and a lacks b, so the campaign's draw has no tree for it
QUOTIENT_GROUPS = (("a b", 1), ("a b", 2), ("a b", 3), ("a", 2), ("a a b", 2),
                   ("a a b b b", 2), ("a b a b~", 2), ("a b a b~", 3),
                   ("a b a~ b~", 2))


def _block_preserving(rng, blocks):
    """A random permutation that maps each block of points onto itself."""
    out = [0] * sum(map(len, blocks))
    for block in blocks:
        for i, j in zip(block, rng.sample(block, len(block))):
            out[i] = j
    return tuple(out)


def _nonuniform_draw(rng, x):
    """A random transitive quotient whose relator image has order n but a
    cycle shorter than n, or None."""
    n = x.branch_index
    for _ in range(1000):
        k = rng.randint(n + 1, 9)
        perms = {s: tuple(rng.sample(range(k), k)) for s in "ab"}
        lengths = {len(c) for c in oracles.relator_cycles(perms, k,
                                                          x.relator)}
        if lengths != {n} and math.lcm(*lengths) == n \
                and oracles.is_transitive(perms, k):
            return FiniteQuotient(k, perms)
    return None


def _quotient_draws():
    """3,000 seeded (orbicomplex, quotient) pairs of every shape the rule
    sorts: random actions of degree 1-12 and n, 2n and 3n, wrong symbol
    sets, images that are not permutations, actions that keep two blocks of
    points (of any size, or each a multiple of n, so that some pass the
    cycle check), transitive order-n images with a shorter cycle, degree 0
    and the campaign's drawn unwrapping actions."""
    rng = random.Random(5)
    groups = [make_x(relator, n) for relator, n in QUOTIENT_GROUPS]
    for i in range(3000):
        x = groups[i % len(groups)]
        n = x.branch_index
        shape, q = rng.randrange(6), None
        k = rng.choice((n, 2 * n, 3 * n, rng.randint(1, 12)))
        perms = {s: tuple(rng.sample(range(k), k)) for s in "ab"}
        if shape == 1:
            perms = rng.choice(({"a": perms["a"]},
                                {**perms, "c": perms["a"]},
                                {"a": perms["a"], "c": perms["b"]}))
        elif shape == 2:
            s = rng.choice("ab")
            perms[s] = rng.choice((tuple(rng.choices(range(k), k=k)),
                                   perms[s] + (k,), perms[s][1:]))
        elif shape == 3:
            if rng.getrandbits(1):
                k = rng.randint(2, 12)
                cut = rng.randint(1, k - 1)
            else:
                cut = n * rng.randint(1, 2)
                k = cut + n * rng.randint(1, 2)
            points = rng.sample(range(k), k)
            blocks = (points[:cut], points[cut:])
            perms = {s: _block_preserving(rng, blocks) for s in "ab"}
        elif shape == 4 and n > 1:
            q = _nonuniform_draw(rng, x)
        elif shape == 5 and rng.random() < 0.2:
            k, perms = 0, {"a": (), "b": ()}
        elif shape == 5 and x.relator != (A,):
            q = draw_quotient(rng, x)
        yield x, q or FiniteQuotient(k, perms)


def _oracle_problems(q, x):
    """``validate_quotient``'s verdict read from the oracle, in its order:
    symbols, permutations, relator image cycles, degree, transitivity."""
    k, n, symbols = q.degree, x.branch_index, sorted(x.gamma.edges)
    if sorted(q.perms) != symbols:
        return ["permutations do not match the rose symbols"]
    for s in symbols:
        if sorted(q.perms[s]) != list(range(k)):
            return [f"image of {s} is not a permutation of degree {k}"]
    for cycle in oracles.relator_cycles(q.perms, k, x.relator):
        if len(cycle) != n:
            return _cycle_problem(len(cycle), n)
    if k < 1:
        return ["degree must be at least 1"]
    if not oracles.is_transitive(q.perms, k):
        return ["action is not transitive"]
    return []


@pytest.fixture(scope="module")
def quotient_draws():
    """The seeded corpus as (orbicomplex, quotient, oracle problems)
    triples, drawn once for the tests of the quotient rule."""
    return [(x, q, _oracle_problems(q, x)) for x, q in _quotient_draws()]


def test_validate_quotient_accepts_what_the_two_old_checks_accepted(
        quotient_draws):
    # the rule read from the oracle: a transitive action whose relator image
    # has every cycle of length n, checked in validate_quotient's order
    tally = collections.Counter()
    for x, q, want in quotient_draws:
        k, n = q.degree, x.branch_index
        assert validate_quotient(q, x) == want, (q, x.relator, n)
        tally.update({"accepted": not want, "n = 1": n == 1,
                      "degree not a multiple of n": k % n != 0,
                      "refused as intransitive":
                          want == ["action is not transitive"]})
        if sorted(q.perms) != sorted(x.gamma.edges):
            tally["wrong symbols"] += 1
        elif not oracles.is_action(q.perms, k, x.gamma.edges):
            tally["not a permutation"] += 1
        elif k == 0:
            tally["degree 0"] += 1
        else:
            cycles = oracles.relator_cycles(q.perms, k, x.relator)
            lengths = {len(c) for c in cycles}
            tally.update({
                "refused at point 0": len(cycles[0]) != n,
                "refused elsewhere": len(cycles[0]) == n and bool(want),
                "short cycle": min(lengths) < n,
                "long cycle": max(lengths) > n,
                "order not n": math.lcm(*lengths) != n,
                "order n, a shorter cycle": (math.lcm(*lengths) == n
                                             and lengths != {n}),
                "intransitive": not oracles.is_transitive(q.perms, k)})
    # every kind of draw and verdict is in the corpus, not just the easy ones
    assert len(tally) == 14 and min(tally.values()) >= 20, tally


def test_one_walk_rule_gives_the_oracles_message_for_message(quotient_draws):
    # build_unwrapped_cover refuses each refused quotient with the oracle's
    # first problem
    refused = 0
    for x, q, want in quotient_draws:
        if want:
            refused += 1
            with pytest.raises(ValueError) as info:
                build_unwrapped_cover(x, q)
            assert str(info.value) == want[0], (q, x.relator)
    assert refused >= 2000


def test_cover_families_are_the_old_orbit_walk(quotient_draws):
    # an accepted quotient's cover has the relator image's cycles for
    # families, in order of least points
    accepted = 0
    for x, q, want in quotient_draws:
        if not want:
            accepted += 1
            orbits = oracles.relator_cycles(q.perms, q.degree, x.relator)
            assert list(build_unwrapped_cover(x, q).families.items()) == [
                (f"f{i}", orbit) for i, orbit in enumerate(orbits)]
    assert accepted >= 140


def test_the_screen_refuses_only_what_the_exponent_rule_refuses(
        quotient_draws):
    # validate_quotient walks the cycle through point 0 first: an action
    # whose cycle there is not of length n is refused naming that length
    at_zero = 0
    for x, q, want in quotient_draws:
        k, n = q.degree, x.branch_index
        if k and oracles.is_action(q.perms, k, x.gamma.edges):
            zero = oracles.relator_cycles(q.perms, k, x.relator)[0]
            if len(zero) != n:
                at_zero += 1
                assert want == _cycle_problem(len(zero), n), (q, x.relator)
    assert at_zero >= 20


def test_certificate_is_false_not_raised_for_other_symbols():
    # the cover itself is sound; only its quotient fails to unwrap, and
    # that alone fails the audit, with validate_quotient's text
    x = make_x("a b", 2)
    c = build_unwrapped_cover(x, Q_AB2)
    for perms in ({"a": (1, 0)}, {"a": (1, 0), "c": (0, 1)},
                  {"a": (1, 0), "b": (0, 1), "c": (0, 1)}):
        q = FiniteQuotient(2, perms)
        report = verify_cover(UnwrappedCover(c.cover, c.families, q, x))
        assert not report.passed
        assert report.witnesses == tuple(
            f"quotient does not unwrap: {problem}"
            for problem in validate_quotient(q, x))


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
    assert rep.euler == -2
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
    assert q.permutation_of(x.relator) == (1, 0, 2, 3)
    assert oracles.is_transitive(q.perms, 4)
    assert validate_quotient(q, x) == [
        "exponent condition violated: relator image has a cycle of order 1,"
        " expected 2"]
    with pytest.raises(ValueError, match="exponent condition"):
        build_unwrapped_cover(x, q)


def test_verify_rejects_wrapped_presentation_complex():
    x = make_x("a b", 2)
    cx, m = presentation_complex(x)
    fake = UnwrappedCover(
        cover=cx, families={"d0": (0,)},
        quotient=FiniteQuotient(1, {"a": (0,), "b": (0,)}), orbicomplex=x)
    assert fake.covering_map == m
    assert verify_cover(fake).witnesses == (
        "not an immersion: sides ('d0', 0) and ('d0', 2) over edge a share"
        " disk side ('d0', 0)",
        "edge a carries disk sides [0, 0], expected [0]",
        "edge b carries disk sides [1, 1], expected [1]",
        "Euler characteristic 0 != -1/2",
        "family of d0 has size 1, expected 2",
        "quotient does not unwrap: exponent condition violated: relator"
        " image has a cycle of order 1, expected 2")


def test_verify_cell_free_identity_cover():
    x = make_x("a b", 2)
    rose_cx = TwoComplex(skeleton=Graph.rose(["a", "b"]), cells={})
    m_id = CellMorphism(rose_cx, x.presentation_complex, {"*": "*"},
                        {"a": ("a", 1), "b": ("b", 1)}, {})
    fake = UnwrappedCover(
        cover=rose_cx, families={},
        quotient=FiniteQuotient(1, {"a": (0,), "b": (0,)}), orbicomplex=x)
    assert fake.covering_map == m_id
    # a cover of graphs alone; the trivial quotient does not unwrap the
    # disk, which is the one witness
    assert verify_cover(fake).witnesses == (
        "quotient does not unwrap: exponent condition violated: relator "
        "image has a cycle of order 1, expected 2",)
    unbranched = make_x("a b", 1)
    assert verify_cover(UnwrappedCover(
        rose_cx, {}, fake.quotient, unbranched)).passed


def test_verify_names_a_cell_that_wraps_too_often():
    # the cell reads its lift of (ab)^2 twice round, as (ab)^4
    c = build_unwrapped_cover(make_x("a b", 2), Q_AB2)
    path = c.cover.cells["f0"]
    fake = c._replace(cover=TwoComplex(c.cover.skeleton, {"f0": path * 2},
                                       c.cover.base_vertex))
    assert verify_cover(fake).witnesses == (
        "not an immersion: cell f0 boundary length differs from its image",
        "edge a0 carries disk sides [0, 0], expected [0]",
        "edge a1 carries disk sides [0, 0], expected [0]",
        "edge b0 carries disk sides [1, 1], expected [1]",
        "edge b1 carries disk sides [1, 1], expected [1]",
        "cell f0 has boundary length 8, expected 4")


def test_verify_names_each_vertex_whose_link_is_not_onto():
    # a is a segment u -> v, so u lacks the dart a~ and v the dart a
    x = make_x("a b", 2)
    g = Graph(frozenset({"u", "v", "w"}),
              {"a0": EdgeRec("u", "v", "a"), "b0": EdgeRec("u", "u", "b"),
               "b1": EdgeRec("v", "v", "b"), "a2": EdgeRec("w", "w", "a"),
               "b2": EdgeRec("w", "w", "b")})
    y = TwoComplex(g, {})
    fake = UnwrappedCover(
        cover=y, families={},
        quotient=FiniteQuotient(1, {"a": (0,), "b": (0,)}), orbicomplex=x)
    assert verify_cover(fake).witnesses == (
        "link at u is not onto the rose link",
        "link at v is not onto the rose link",
        "quotient does not unwrap: exponent condition violated: relator "
        "image has a cycle of order 1, expected 2")


def _shifts(x, m):
    """The cyclic quotients Z/m, each letter a shift, in product order: the
    first letter's shift turns fastest."""
    symbols = x._rose_symbols
    return [{s: tuple((i + c) % m for i in range(m))
             for s, c in zip(symbols, reversed(rev))}
            for rev in itertools.product(range(m), repeat=len(symbols))]


# letters missing from w (b, and c on the rose on a, b, c) and zero exponent
# sums (the last three), where no cyclic quotient works
CYCLIC_GRID_RELATORS = ("a", "a b", "a b~", "a a b", "a b b b",
                        "a a b~ a~ b~", "a b a b~", "a~ b a b", "a b a~ b~")


def _search_result(search, *args):
    try:
        return search(*args)
    except (OrelcoError, ValueError) as err:
        return type(err).__name__, str(err)


def test_cyclic_phase_finds_the_first_unwrapping_shift_or_table():
    # the least degree at which the enumerator yields a table, and there the
    # first shift in product order that the oracle accepts, else the
    # enumerator's first table; else the same error
    seen = {}
    for word, n, rose, max_degree in itertools.product(
            CYCLIC_GRID_RELATORS, (1, 2, 3, 4), ("ab", "abc"),
            (0, 1, 2, 3, 4, 6, 8, 12)):
        x = build_orbicomplex(Graph.rose(list(rose)), parse_word(word), n)
        got = _search_result(find_exponent_n_quotient, x, max_degree, 7)
        least = next((m for m in range(n, max_degree + 1, n)
                      if next(unwrapping_actions(x, m), None)), None)
        if max_degree < 1:
            want = ("ArgumentError",
                    f"max_degree must be at least 1, got {max_degree}")
        elif least is None:
            want = ("BudgetExhaustedError", f"no exponent-{n} quotient of"
                    f" degree <= {max_degree} exists")
        else:
            shifts = (FiniteQuotient(least, p) for p in _shifts(x, least))
            want = next((q for q in shifts if oracles.quotient_unwraps(q, x)),
                        None)
        if want is None:
            assert got == FiniteQuotient(
                least, next(unwrapping_actions(x, least))), (word, n, rose)
            assert oracles.quotient_unwraps(got, x)
            kind = "enumerated"
        else:
            assert got == want, (word, n, rose, max_degree)
            kind = (want[0] + (", max_degree < n" if max_degree < n else "")
                    if not isinstance(want, FiniteQuotient) else
                    "cyclic" + (", n = 1" if n == 1 else ""))
        seen[kind] = seen.get(kind, 0) + 1
    assert sorted(seen) == [
        "ArgumentError, max_degree < n", "BudgetExhaustedError",
        "BudgetExhaustedError, max_degree < n", "cyclic", "cyclic, n = 1",
        "enumerated"]
    assert min(seen.values()) >= 20, seen


def test_each_cyclic_quotient_is_one_of_the_enumerators_tables():
    # over ab/2 and the benchmark's three present groups, every cyclic
    # quotient the search tries first is an action that unwrapping_actions
    # yields too; the cyclic phase only decides which least-degree action
    # is returned, and for these groups that is not the enumerator's first
    for word, n in (("a b", 2), ("a b", 3), ("a b a b~", 2)):
        x = make_x(word, n)
        cyclic = []
        for m in range(n, 9, n):
            tables = list(unwrapping_actions(x, m))
            for perms in _shifts(x, m):
                if not validate_quotient(FiniteQuotient(m, perms), x):
                    assert oracles.standard_table(perms) in tables, perms
                    cyclic.append(perms)
        q = find_exponent_n_quotient(x, 8, 0)
        assert q.perms == cyclic[0]
        first = next(unwrapping_actions(x, q.degree))
        assert oracles.standard_table(q.perms) != first


def test_validate_quotient_decides_the_shifts_then_the_tables(monkeypatch):
    # at each degree the search hands validate_quotient the cyclic shifts in
    # product order, then the enumerator's tables, and returns the first
    # quotient it accepts; the commutator has no shift that passes, so its
    # quotient is an enumerator table
    validate, received = covers.validate_quotient, []

    def spy(q, x):
        received.append(q)
        return validate(q, x)

    monkeypatch.setattr(covers, "validate_quotient", spy)
    for word, n, rose in (("a b", 2, "ab"), ("a b a b~", 2, "ab"),
                          ("a b", 3, "ab"), ("a b a~ b~", 2, "ab"),
                          ("a b a~ b~", 2, "abc")):
        x = build_orbicomplex(Graph.rose(list(rose)), parse_word(word), n)
        received.clear()
        q = find_exponent_n_quotient(x, 12, 0)
        candidates = (FiniteQuotient(m, perms) for m in range(n, 13, n)
                      for perms in itertools.chain(_shifts(x, m),
                                                   unwrapping_actions(x, m)))
        assert received == list(itertools.islice(candidates, len(received)))
        assert q is received[-1] and not validate(q, x)
        assert all(validate(r, x) for r in received[:-1])
        from_tables = q.perms not in _shifts(x, q.degree)
        assert from_tables == (word == "a b a~ b~"), (word, n, rose)


# (relator, n, length of the relator image's cycle through point 0, a, b):
# lengths 1, n, n + 1 and 2n, over relators with inverse letters
POINT_0_CYCLE_CASES = {
    "aba-b n=2 len=1": ("a b a b~", 2, 1, (2, 1, 0), (2, 1, 0)),
    "aba-b n=2 len=2": ("a b a b~", 2, 2, (2, 1, 0, 3), (1, 2, 3, 0)),
    "aba-b n=2 len=3": ("a b a b~", 2, 3, (1, 2, 0), (2, 0, 1)),
    "aba-b n=2 len=4": ("a b a b~", 2, 4, (4, 3, 1, 5, 0, 2),
                        (2, 3, 4, 5, 0, 1)),
    "aba-b n=3 len=1": ("a b a b~", 3, 1, (2, 0, 1), (2, 1, 0)),
    "aba-b n=3 len=3": ("a b a b~", 3, 3, (2, 1, 0), (1, 2, 0)),
    "aba-b n=3 len=4": ("a b a b~", 3, 4, (3, 2, 0, 5, 1, 4),
                        (5, 3, 2, 4, 0, 1)),
    "aba-b n=3 len=6": ("a b a b~", 3, 6, (6, 4, 1, 2, 7, 3, 0, 5),
                        (1, 3, 7, 6, 2, 5, 0, 4)),
    "[a,b] n=2 len=1": ("a b a~ b~", 2, 1, (1, 2, 0), (1, 2, 0)),
    "[a,b] n=2 len=2": ("a b a~ b~", 2, 2, (3, 0, 2, 1), (2, 0, 1, 3)),
    "[a,b] n=2 len=3": ("a b a~ b~", 2, 3, (1, 2, 0), (1, 0, 2)),
    "[a,b] n=2 len=4": ("a b a~ b~", 2, 4, (4, 3, 1, 5, 2, 0),
                        (5, 1, 3, 2, 4, 0)),
    "[a,b] n=3 len=1": ("a b a~ b~", 3, 1, (1, 2, 0), (1, 2, 0)),
    "[a,b] n=3 len=3": ("a b a~ b~", 3, 3, (1, 0, 2), (2, 1, 0)),
    "[a,b] n=3 len=4": ("a b a~ b~", 3, 4, (2, 0, 3, 1, 4, 5),
                        (2, 1, 5, 4, 0, 3)),
    "[a,b] n=3 len=6": ("a b a~ b~", 3, 6, (7, 5, 3, 0, 2, 6, 1, 4),
                        (2, 6, 1, 0, 3, 4, 7, 5)),
}


@pytest.mark.parametrize("relator, n, length, a, b",
                         POINT_0_CYCLE_CASES.values(),
                         ids=POINT_0_CYCLE_CASES)
def test_a_cycle_through_point_0_passes_at_length_n_only(relator, n, length,
                                                         a, b):
    # validate_quotient walks the cycle through point 0 first: one shorter
    # or longer than n refuses the quotient, naming its length
    x = make_x(relator, n)
    q = FiniteQuotient(len(a), {"a": a, "b": b})
    zero = oracles.relator_cycles(q.perms, q.degree, x.relator)[0]
    assert zero[0] == 0 and len(zero) == length
    problems = validate_quotient(q, x)
    assert problems == _oracle_problems(q, x)
    if length != n:
        assert problems == [
            "exponent condition violated: relator image has a cycle of"
            f" order {length}, expected {n}"]


# the worked cover of ab/2 with its cells, families or quotient replaced:
# the witnesses of its audit by hand, one case for each witness that the
# tests above do not name
DOCTORED_CASES = {
    "dart": (dict(cells={"f0": (("b0", 1), ("b1", 1), ("a1", 1),
                                ("b0", 1))}),
             ("not an immersion: cell f0 boundary does not match its image"
              " boundary",
              "edge a0 carries disk sides [], expected [0]",
              "edge b0 carries disk sides [0, 1], expected [1]")),
    "no families": (dict(families={}),
                    ("family record does not match the cover's cells",
                     "families do not partition the quotient points")),
    "no cells": (dict(cells={}),
                 ("family record does not match the cover's cells",
                  "edge a0 carries disk sides [], expected [0]",
                  "edge a1 carries disk sides [], expected [0]",
                  "edge b0 carries disk sides [], expected [1]",
                  "edge b1 carries disk sides [], expected [1]",
                  "Euler characteristic -2 != -1")),
    "graph only": (dict(cells={}, families={}), ()),
    "split family": (dict(families={"f0": (0,), "f1": (1,)}),
                     ("family record does not match the cover's cells",
                      "family of f0 has size 1, expected 2")),
    "repeated point": (dict(families={"f0": (0, 0)}),
                       ("families do not partition the quotient points",)),
    "quotient": (dict(quotient=FiniteQuotient(2, {"a": (1, 0),
                                                  "b": (1, 0)})),
                 ("quotient does not unwrap: exponent condition violated:"
                  " relator image has a cycle of order 1, expected 2",)),
}


@pytest.mark.parametrize("doctoring, witnesses", DOCTORED_CASES.values(),
                         ids=DOCTORED_CASES)
def test_verify_cover_names_each_doctored_fault(doctoring, witnesses):
    c = build_unwrapped_cover(make_x("a b", 2), Q_AB2)
    fields = {"cells": c.cover.cells, **doctoring}
    fake = c._replace(cover=c.cover._replace(cells=fields.pop("cells")),
                      **fields)
    assert verify_cover(fake).witnesses == witnesses


@pytest.fixture(scope="module")
def seeded_covers(quotient_draws):
    """Every cover this file builds from a worked, searched or seeded
    quotient, built once for the tests that read them."""
    out = [build_unwrapped_cover(make_x("a b", 2), Q_AB2),
           build_unwrapped_cover(make_x("a", 3), FiniteQuotient(
               3, {"a": (1, 2, 0), "b": (0, 1, 2)}))]
    for relator, n, max_degree, seed in (("a b", 1, 4, 0),
                                         ("a b a~ b~", 2, 12, 11),
                                         ("a b", 2, 8, 7), ("a", 3, 9, 7)):
        x = make_x(relator, n)
        out.append(build_unwrapped_cover(
            x, find_exponent_n_quotient(x, max_degree, seed)))
    out += [build_unwrapped_cover(x, q) for x, q, want in quotient_draws
            if not want]
    return out


def _doctored(c, rng):
    """(kind, cover) pairs that break the audit on purpose, each from
    ``c``; the last kind, with no cells and no families, is a plain graph
    cover that passes."""
    x, cover = c.orbicomplex, c.cover

    def remap(y, families=None):
        return UnwrappedCover(y, c.families if families is None
                              else families, c.quotient, x)

    cid = rng.choice(sorted(cover.cells))
    path = list(cover.cells[cid])
    pos = rng.randrange(len(path))
    label = cover.skeleton.edges[path[pos][0]].label
    path[pos] = (rng.choice(sorted(e for e, rec in cover.skeleton.edges.items()
                                   if rec.label != label)), path[pos][1])
    yield "dart", remap(TwoComplex(cover.skeleton, {**cover.cells,
                                                    cid: tuple(path)},
                                   cover.base_vertex))
    yield "no families", remap(cover, families={})
    bare = TwoComplex(cover.skeleton, {}, cover.base_vertex)
    yield "no cells", remap(bare)
    yield "graph only", remap(bare, families={})


def test_one_pass_cover_audit_names_the_faults_of_every_doctored_cover(
        seeded_covers):
    # every seeded cover passes with chi = k(1 - r + 1/n), r the rose's
    # loops; each doctored kind draws the same kinds of witness from every
    # cover, named by their first words, and a cover of graphs alone passes
    assert len(seeded_covers) >= 250
    rng = random.Random(22)
    for c in seeded_covers:
        x, k = c.orbicomplex, c.quotient.degree
        report = verify_cover(c)
        assert report.passed
        n, r = x.branch_index, len(x.gamma.edges)
        assert report.euler == k * (1 - r) + k // n
        kinds = {kind: sorted({w.split()[0]
                               for w in verify_cover(bad).witnesses})
                 for kind, bad in _doctored(c, rng)}
        assert kinds == {"dart": ["edge", "not"],
                         "no families": ["families", "family"],
                         "no cells": ["Euler", "edge", "family"],
                         "graph only": []}


def test_the_cover_records_keep_one_fact_per_field(seeded_covers):
    # the map is read by labels and the verdict from the witnesses
    assert UnwrappedCover._fields == ("cover", "families", "quotient",
                                      "orbicomplex")
    assert covers.CoverReport._fields == ("witnesses", "euler")
    for c in seeded_covers:
        assert c.covering_map == by_labels(c.cover, c.orbicomplex)
        report = verify_cover(c)
        assert report.passed == (not report.witnesses)


def test_every_seeded_cover_is_an_equality_case_within_the_cell_bound(
        seeded_covers):
    # over a rank-2 rose an unwrapped cover with n >= 2 makes the w-cycles
    # inequality an equality, and the cell bound (n-1)|cells| <= g-1 that
    # the audit implies holds, g the rank of the cover's graph
    checked = 0
    for c in seeded_covers:
        assert verify_cover(c).passed
        n = c.orbicomplex.branch_index
        if n < 2:
            continue
        assert len(c.orbicomplex.gamma.edges) == 2
        g = c.cover.skeleton
        rank = len(g.edges) - len(g.vertices) + len(connected_components(g))
        audit = wcycles_audit(c.covering_map)
        assert audit.slack1 == 0
        assert (n - 1) * audit.cells <= rank - 1
        checked += 1
    assert checked >= 240
