"""Random immersion generator and property campaigns."""

from types import SimpleNamespace

import pytest

from orelco.complexes import (EdgeRec, Graph, MapKind, TwoComplex,
                              euler_characteristic, find_free_faces_and_edges)
import orelco.covers as covers
from orelco.covers import (FiniteQuotient, UnwrappingActionTree,
                           build_unwrapped_cover, find_exponent_n_quotient,
                           unwrapping_actions, validate_quotient)
from orelco.errors import ArgumentError, InvariantError, OrelcoError
import orelco.harness as harness
from orelco.harness import (CSV_HEADER, CampaignConfig, GeneratorParams,
                            _generate_uncollapsed, _random_labeled_graph,
                            campaign_csv, closed_power_lifts,
                            random_irreducible_immersion,
                            run_property_campaign, trial_seed)
from orelco.orbicomplex import (build_orbicomplex, by_labels,
                                check_orbi_immersion, presentation_complex,
                                wcycles_audit)
from orelco.words import parse_word

import hashlib
import random
import time

import oracles
from quotient_draws import draw_quotient

W = parse_word
AB2 = GeneratorParams(1, W("a b"), 2, attach_probability=1.0)


def test_full_rose_attachment_is_rejected_by_side_injectivity():
    # the relator power closes over the one-vertex rose, but both of its
    # passes over edge a land on the same disk side, so the cell is skipped
    m = random_irreducible_immersion(0, AB2)
    y = m.source
    assert len(y.skeleton.edges) == 2
    assert not y.cells
    assert m.target is AB2.orbicomplex.presentation_complex
    assert len(closed_power_lifts(y.skeleton, AB2.orbicomplex)) == 1


def test_uncollapsed_draw_matches_the_worked_cover():
    params = GeneratorParams(2, W("a b"), 2, 1.0)
    m = _generate_uncollapsed(20, params)
    y = m.source
    assert (len(y.skeleton.vertices), len(y.skeleton.edges),
            len(y.cells)) == (2, 4, 1)
    audit = wcycles_audit(m)
    assert audit.deg == 2 and audit.slack1 == 0 and audit.chi1 == -2

    x = params.orbicomplex
    assert m.target is x.presentation_complex
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4)).cover
    assert len(cover.skeleton.vertices) == len(y.skeleton.vertices)
    assert len(cover.skeleton.edges) == len(y.skeleton.edges)
    assert len(cover.cells) == len(y.cells)
    assert euler_characteristic(cover) == euler_characteristic(y)


def test_zero_edge_draw_is_a_single_vertex():
    m = random_irreducible_immersion(1, GeneratorParams(1, W("a b"), 2, 0.5))
    assert len(m.source.skeleton.vertices) == 1
    assert not m.source.skeleton.edges
    assert not m.source.cells


def test_generated_immersions_are_sound_and_irreducible():
    params = GeneratorParams(5, W("a b"), 2, attach_probability=0.7)
    for seed in range(40):
        m = random_irreducible_immersion(seed, params)
        assert check_orbi_immersion(m).kind >= MapKind.IMMERSION
        faces, _ = find_free_faces_and_edges(m.source)
        assert not faces
        assert "u0" in m.source.skeleton.vertices


def test_lift_classes_are_deduplicated_by_full_rotation_only():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    # a swaps the two vertices, b is the identity: one rotation class
    g1 = Graph(frozenset({"u0", "u1"}),
               {"a0": EdgeRec("u0", "u1", "a"), "a1": EdgeRec("u1", "u0", "a"),
                "b0": EdgeRec("u0", "u0", "b"), "b1": EdgeRec("u1", "u1", "b")})
    assert len(closed_power_lifts(g1, x)) == 1
    # both letters swap: the two starting vertices give disjoint cycles
    g2 = Graph(frozenset({"u0", "u1"}),
               {"a0": EdgeRec("u0", "u1", "a"), "a1": EdgeRec("u1", "u0", "a"),
                "b0": EdgeRec("u0", "u1", "b"), "b1": EdgeRec("u1", "u0", "b")})
    assert len(closed_power_lifts(g2, x)) == 2


def test_every_closed_lift_spells_the_relator_power():
    for relator, n in (("a b a b~", 2), ("a a b b b", 2)):
        x = build_orbicomplex(Graph.rose("ab"), W(relator), n)
        power = x.relator * n
        for seed in range(100):
            g = _random_labeled_graph(random.Random(seed), 12, ["a", "b"])
            for lift in closed_power_lifts(g, x):
                assert tuple(map(g.dart_label, lift)) == power


def test_the_generator_keeps_both_cells_of_the_degree_4_cover():
    # a is a 4-cycle and b the identity: the cover's two cells both read
    # (a b a b~)^2 from offset 0 only when their lifts start at the relator
    x = build_orbicomplex(Graph.rose("ab"), W("a b a b~"), 2)
    cover = build_unwrapped_cover(
        x, FiniteQuotient(4, {"a": (1, 2, 3, 0), "b": (0, 1, 2, 3)})).cover
    assert len(cover.cells) == 2
    cells = {}
    for k, lift in enumerate(closed_power_lifts(cover.skeleton, x)):
        trial = {**cells, f"c{k}": lift}
        m = by_labels(
            TwoComplex(cover.skeleton, trial, base_vertex=cover.base_vertex), x)
        if check_orbi_immersion(m).kind >= MapKind.IMMERSION:
            cells = trial
    assert len(cells) == 2


@pytest.mark.parametrize("suites", [("nosuch",), ("wcycles", "cover"),
                                    "fold", ()])
def test_an_unknown_suite_is_refused_not_passed(suites):
    # ("nosuch",) once ran nothing and reported {'nosuch': (0, 0)}, a pass,
    # and () CampaignReport(rows=(), pass_counts={}); a bare string is read
    # letter by letter, so it is refused too
    cfg = CampaignConfig(3, 3, GeneratorParams(4, W("a b"), 2), suites)
    with pytest.raises(ArgumentError) as refused:
        run_property_campaign(cfg)
    assert (refused.value.name, refused.value.rule) == (
        "suites", "must name some of wcycles,fold,covers, "
                  f"got {','.join(suites)!r}")


@pytest.mark.parametrize("trials", [0, -5])
def test_a_campaign_of_no_trial_is_refused_not_passed(trials):
    # -5 once reported {'wcycles': (-5, -5), ...} and 0 a 0/0 pass per suite
    cfg = CampaignConfig(1, trials, GeneratorParams(4, W("a b"), 2))
    with pytest.raises(ValueError,
                       match=f"^trials must be at least 1, got {trials}$"):
        run_property_campaign(cfg)


def test_a_negative_seed_is_refused_not_replayed():
    # random.Random seeds with |s|, so seed -1 replayed seed 1's first trial
    cfg = CampaignConfig(-1, 3, GeneratorParams(4, W("a b"), 2))
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        run_property_campaign(cfg)


def test_campaign_passes_and_reproduces_byte_identically():
    cfg = CampaignConfig(7, 150, GeneratorParams(6, W("a b"), 2))
    rep1 = run_property_campaign(cfg)
    rep2 = run_property_campaign(cfg)
    assert len(rep1.rows) == 150
    assert rep1.pass_counts["wcycles"] == (150, 150)
    assert rep1.pass_counts["fold"] == (150, 150)
    assert max(r.slack1 for r in rep1.rows) <= 0
    text = campaign_csv(rep1)
    assert text == campaign_csv(rep2)
    assert text.splitlines()[0] == CSV_HEADER


@pytest.mark.parametrize("relator, n", [
    ((("a", 2), ("b", 1)), 2), ((), 2), (W("a a~ b"), 2), (W("a b a b"), 2),
    (W("a b"), 0)], ids=["sign 2", "empty", "backtracks", "power", "n=0"])
def test_a_bad_relator_is_refused_when_the_parameters_are_made(
        monkeypatch, relator, n):
    # the relator was once checked only at the first read of .orbicomplex,
    # inside whichever campaign trial read it first
    symbols = sorted({sym for sym, _ in relator})
    with pytest.raises(ValueError) as built:
        build_orbicomplex(Graph.rose(symbols), relator, n)
    calls = []
    monkeypatch.setattr(harness, "build_orbicomplex",
                        lambda *args: calls.append(args))
    good = GeneratorParams(3, W("a b"), 2)
    for make in (lambda: GeneratorParams(3, relator, n),
                 lambda: GeneratorParams._make((3, relator, n, 0.5)),
                 lambda: good._replace(relator=relator, branch_index=n)):
        with pytest.raises(ValueError) as made:
            make()
        assert str(made.value) == str(built.value)
    assert calls == []      # refused by the check, not by a build


def test_a_campaign_builds_its_orbicomplex_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_orbicomplex(*args)
    monkeypatch.setattr(harness, "build_orbicomplex", counted)
    params = GeneratorParams(5, W("a b a b~"), 2)
    assert calls == []      # lazily, so setting up costs no build
    cfg = CampaignConfig(4, 5, params)
    rep = run_property_campaign(cfg)
    assert len(calls) == 1
    run_property_campaign(CampaignConfig(9, 5, params))
    assert len(calls) == 1
    # the memo is not part of the parameters' value
    assert params == GeneratorParams(5, W("a b a b~"), 2)
    assert hash(params) == hash(GeneratorParams(5, W("a b a b~"), 2))
    monkeypatch.undo()
    fresh = run_property_campaign(CampaignConfig(4, 5, GeneratorParams(
        5, W("a b a b~"), 2)))
    assert campaign_csv(fresh) == campaign_csv(rep)
    assert fresh.pass_counts == rep.pass_counts


def test_a_campaign_checks_its_relator_once(monkeypatch):
    # each wcycles trial's parameters differ from the caller's in their
    # vertex budget alone, so only that budget is checked again
    calls = []

    def counted(*args):
        calls.append(args)
        return check_relator(*args)
    check_relator = harness._check_relator
    monkeypatch.setattr(harness, "_check_relator", counted)
    params = GeneratorParams(5, W("a b a b~"), 2)
    assert len(calls) == 1
    run_property_campaign(CampaignConfig(4, 5, params))
    assert len(calls) == 1


def test_campaign_covers_other_relators():
    for w, n in ((W("a b a b~"), 2), (W("a b"), 3)):
        cfg = CampaignConfig(5, 60, GeneratorParams(5, w, n))
        rep = run_property_campaign(cfg)
        assert rep.pass_counts["wcycles"] == (60, 60)


@pytest.mark.parametrize("relator,n", [("a b", 2), ("a b a b~", 2), ("a b", 3)])
def test_the_two_wcycles_slacks_are_one(relator, n):
    # chi(Y) = chi(Y^1) + |cells| and deg = n|cells|, so the second
    # inequality repeats the first on every row
    for budget in (6, 12):
        cfg = CampaignConfig(5, 150, GeneratorParams(budget, W(relator), n),
                             suites=("wcycles",))
        rows = run_property_campaign(cfg).rows
        assert len(rows) == 150
        assert all(r.slack2 == r.slack1 and r.passed == (r.slack1 <= 0)
                   for r in rows)
    # the campaign rows rarely carry a cell, so audit covers, which do
    x = build_orbicomplex(Graph.rose(["a", "b"]), W(relator), n)
    rng = random.Random(5)
    for _ in range(20):
        cover = build_unwrapped_cover(x, draw_quotient(rng, x))
        audit = wcycles_audit(cover.covering_map)
        assert audit.cells > 0 and audit.slack2 == audit.slack1


def test_degenerate_draws_are_substituted_not_failed():
    cfg = CampaignConfig(1, 80, GeneratorParams(1, W("a b"), 2, 0.0),
                         suites=("wcycles",))
    rep = run_property_campaign(cfg)
    assert rep.pass_counts["wcycles"] == (80, 80)
    assert all(r.cells == 0 and r.slack1 <= 0 for r in rep.rows)
    assert any(r.edges == 1 for r in rep.rows)


@pytest.mark.parametrize("budget, prob, field", [
    (0, 0.5, "vertex_budget"), (-3, 0.5, "vertex_budget"),
    (4, 7, "attach_probability"), (4, -0.1, "attach_probability"),
    (4, float("nan"), "attach_probability"),
])
def test_generator_params_refuse_their_own_bad_values(budget, prob, field):
    # a budget of 0 once died inside a campaign's fold or wcycles suite with
    # "empty range for randrange()", and a probability of 7 ran unchecked
    with pytest.raises(ValueError, match=f"^{field} must be"):
        GeneratorParams(budget, W("a b"), 2, prob)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        GeneratorParams(vertex_budget=budget, relator=W("a b"), branch_index=2,
                        attach_probability=prob)


def test_the_generator_refuses_branch_index_one():
    # the campaigns draw over F / <<w^n>> with n >= 2 only
    with pytest.raises(ValueError,
                       match="^branch index must be at least 2, got 1$"):
        _generate_uncollapsed(0, GeneratorParams(3, W("a b"), 1))


def test_a_covers_suite_that_draws_no_quotient_passes_no_trial(monkeypatch):
    # no two-letter relator up to length 8 lacks a table at both n and 2n
    # for n = 2, so the search trees are made to draw none
    monkeypatch.setattr(UnwrappingActionTree, "draw", lambda tree, rng: None)
    cfg = CampaignConfig(3, 4, GeneratorParams(3, W("a b"), 2),
                         suites=("covers",))
    assert run_property_campaign(cfg).pass_counts == {"covers": (0, 4)}


def test_a_refused_table_is_a_cover_violation_naming_the_seed(monkeypatch):
    # the identity permutations leave every point of the relator image fixed
    monkeypatch.setattr(UnwrappingActionTree, "draw", lambda tree, rng: {
        "a": tuple(range(tree.degree)), "b": tuple(range(tree.degree))})
    cfg = CampaignConfig(6, 3, GeneratorParams(3, W("a b"), 2),
                         suites=("covers",))
    with pytest.raises(OrelcoError) as err:
        run_property_campaign(cfg)
    assert str(err.value) == (
        "cover violation: drawn quotient refused: exponent condition"
        " violated: relator image has a cycle of order 1, expected 2;"
        f" reproduce with trial seed {trial_seed(6, 0)}")
    assert isinstance(err.value.__cause__, ValueError)


FOLD_ONLY = CampaignConfig(5, 3, GeneratorParams(3, W("a b"), 2),
                           suites=("fold",))


def test_a_fold_that_is_not_idempotent_is_a_fold_violation(monkeypatch):
    # the trial's second fold, of the inclusion, answers with its target
    real, calls = harness.fold, []

    def refold(m):
        calls.append(m)
        res = real(m)
        return res if len(calls) == 1 else res._replace(folded=m.target)

    monkeypatch.setattr(harness, "fold", refold)
    with pytest.raises(OrelcoError) as err:
        run_property_campaign(FOLD_ONLY)
    assert str(err.value) == (
        "fold-laws violation: fold is not idempotent;"
        f" reproduce with trial seed {trial_seed(5, 0)}")


def test_a_self_factorization_off_the_identity_is_a_fold_violation(
        monkeypatch):
    # the inclusion runs into the presentation complex, not onto the fold
    monkeypatch.setattr(harness, "factor_unique",
                        lambda res, f, g: res.inclusion)
    with pytest.raises(OrelcoError) as err:
        run_property_campaign(FOLD_ONLY)
    assert str(err.value) == (
        "fold-laws violation: self-factorization is not the identity;"
        f" reproduce with trial seed {trial_seed(5, 0)}")


def test_a_cover_with_witnesses_is_a_cover_violation_naming_them(
        monkeypatch):
    witnesses = ("edge a0 carries disk sides [0, 0], expected [0]",
                 "cell f0 has boundary length 8, expected 4")
    real = covers.verify_cover
    monkeypatch.setattr(covers, "verify_cover",
                        lambda c: real(c)._replace(witnesses=witnesses))
    cfg = CampaignConfig(5, 3, GeneratorParams(3, W("a b"), 2),
                         suites=("covers",))
    with pytest.raises(OrelcoError) as err:
        run_property_campaign(cfg)
    assert str(err.value) == (
        "cover violation: cover audit failed:"
        " edge a0 carries disk sides [0, 0], expected [0];"
        " cell f0 has boundary length 8, expected 4;"
        f" reproduce with trial seed {trial_seed(5, 0)}")
    assert type(err.value.__cause__) is InvariantError


@pytest.mark.parametrize("error, detail", [
    (ValueError("quotient does not unwrap"),
     "drawn quotient refused: quotient does not unwrap"),
    (InvariantError("relator power lift failed to close"),
     "relator power lift failed to close"),
], ids=["refused", "violation"])
def test_a_covers_trial_names_its_two_failures_apart(monkeypatch, error,
                                                      detail):
    # a quotient the build refuses is told apart from a build that breaks
    # one of its own invariants
    def fail(x, q):
        raise error

    monkeypatch.setattr(harness, "build_unwrapped_cover", fail)
    cfg = CampaignConfig(5, 3, GeneratorParams(3, W("a b"), 2),
                         suites=("covers",))
    with pytest.raises(OrelcoError) as err:
        run_property_campaign(cfg)
    assert str(err.value) == (
        f"cover violation: {detail};"
        f" reproduce with trial seed {trial_seed(5, 0)}")
    assert err.value.__cause__ is error


def test_a_covers_trial_checks_its_cover_immersion_once(monkeypatch):
    # one ladder read per built cover: the build's audit, and no other
    real, checks = covers._covering_fault, []

    def counted(m, period=None):
        checks.append(m)
        return real(m, period)

    monkeypatch.setattr(covers, "_covering_fault", counted)
    drawn = _record_drawn_quotients(monkeypatch)
    cfg = CampaignConfig(1, 20, GeneratorParams(3, W("a b a b~"), 2),
                         suites=("covers",))
    passed, total = run_property_campaign(cfg).pass_counts["covers"]
    assert total == 20 and passed == len(drawn) > 0
    assert len(checks) == len(drawn)


def _record_drawn_quotients(monkeypatch):
    """The list of quotients that the covers trials hand to
    ``build_unwrapped_cover``, filled in order as the trials run."""
    drawn = []

    def recorded(x, q):
        drawn.append(q)
        return build_unwrapped_cover(x, q)

    monkeypatch.setattr(harness, "build_unwrapped_cover", recorded)
    return drawn


def test_the_covers_trees_are_kept_per_params(monkeypatch):
    # every trial, and a second campaign over the same parameters, draws
    # from the two trees kept on the parameters, and draws as from new ones
    built, drawn = [], _record_drawn_quotients(monkeypatch)

    def counted(x, d):
        built.append(d)
        return UnwrappingActionTree(x, d)

    monkeypatch.setattr(harness, "UnwrappingActionTree", counted)
    params = GeneratorParams(3, W("a b"), 3)
    for seed in (1, 2, 1):
        cfg = CampaignConfig(seed, 30, params, suites=("covers",))
        assert run_property_campaign(cfg).pass_counts == {"covers": (30, 30)}
    assert built == [3, 6]
    assert drawn[:30] == drawn[60:] != drawn[30:60]
    assert {q.degree for q in drawn} == {3, 6}


@pytest.mark.parametrize("relator,n", [("a b", 5), ("a b c", 3)])
def test_covers_trials_on_larger_groups_list_no_table(monkeypatch, relator,
                                                      n):
    # ab/5 has about 7e5 actions of degree 10 and abc/3 about 1.7e5 of
    # degree 6; a draw expands about a hundred entries at most, so a budget
    # of 1000 per draw passes and listing the tables would not
    monkeypatch.setattr(covers, "SEARCH_NODE_BUDGET", 1000)
    drawn = _record_drawn_quotients(monkeypatch)
    params = GeneratorParams(3, W(relator), n)
    start = time.perf_counter()
    cfg = CampaignConfig(8, 100, params, suites=("covers",))
    assert run_property_campaign(cfg).pass_counts == {"covers": (100, 100)}
    assert time.perf_counter() - start < 30
    x = params.orbicomplex
    assert all(oracles.quotient_unwraps(q, x) for q in drawn)
    assert {q.degree for q in drawn} == {n, 2 * n}
    large = [tuple(q.perms.values()) for q in drawn if q.degree == 2 * n]
    assert len(set(large)) >= len(large) - 5


@pytest.mark.parametrize("relator,n", [("a b", 2), ("a b a b~", 2),
                                       ("a b", 3), ("a a b b b", 2)])
def test_covers_trials_draw_enumerated_tables(monkeypatch, relator, n):
    # each draw is a table of degree n or 2n; every table-bearing degree is
    # drawn, and more than one table of it wherever it has more than one
    drawn = _record_drawn_quotients(monkeypatch)
    params = GeneratorParams(3, W(relator), n)
    x = params.orbicomplex
    cfg = CampaignConfig(8, 200, params, suites=("covers",))
    assert run_property_campaign(cfg).pass_counts == {"covers": (200, 200)}
    tables = {d: list(unwrapping_actions(x, d)) for d in (n, 2 * n)}
    assert len(drawn) == 200
    seen = {d: set() for d in tables}
    for q in drawn:
        assert q.perms in tables[q.degree]
        assert oracles.quotient_unwraps(q, x)
        seen[q.degree].add(tuple(q.perms.values()))
    for d, found in tables.items():
        assert len(seen[d]) >= min(len(found), 2), d


def test_the_covers_suite_draws_quotients_that_validate_and_vary(
        monkeypatch):
    # the quotients that the covers suite draws on ab/2
    drawn = _record_drawn_quotients(monkeypatch)
    params = GeneratorParams(99, W("a b"), 2)
    x = params.orbicomplex
    cfg = CampaignConfig(99, 60, params, suites=("covers",))
    assert run_property_campaign(cfg).pass_counts == {"covers": (60, 60)}
    seen = set()
    for q in drawn:
        assert q is not None
        assert validate_quotient(q, x) == []
        assert oracles.quotient_unwraps(q, x)
        seen.add((q.degree, tuple(sorted(q.perms.items()))))
    assert len(drawn) == 60
    assert len(seen) >= 5


def test_trial_seed_derivation_is_affine():
    assert trial_seed(7, 0) == 7 * 1_000_003
    assert trial_seed(7, 5) - trial_seed(7, 4) == 1


def test_violation_aborts_with_the_reproduction_seed(monkeypatch):
    import orelco.harness as harness

    def broken_audit(m):
        real = wcycles_audit(m)
        return real._replace(passed=False)

    monkeypatch.setattr(harness, "wcycles_audit", broken_audit)
    cfg = CampaignConfig(2, 3, GeneratorParams(3, W("a b"), 2),
                         suites=("wcycles",))
    with pytest.raises(OrelcoError, match="reproduce with trial seed"):
        run_property_campaign(cfg)


def _two_a_darts_leave_u0(x):
    g = Graph(frozenset({"u0", "u1", "u2"}),
              {"a0": EdgeRec("u0", "u1", "a"), "a1": EdgeRec("u0", "u2", "a")})
    return by_labels(TwoComplex(g, {}, base_vertex="u0"), x)


@pytest.mark.parametrize("drawn", [
    lambda x: presentation_complex(x)[1],
    _two_a_darts_leave_u0,
], ids=["cell-side-clash", "tree"])
def test_a_drawn_map_that_does_not_immerse_is_a_generator_violation(
        monkeypatch, drawn):
    # a tree is audited before the fallback loop replaces it
    params = GeneratorParams(3, W("a b"), 2)
    m = drawn(params.orbicomplex)
    witness = check_orbi_immersion(m).witness
    assert witness
    monkeypatch.setattr(harness, "random_irreducible_immersion",
                        lambda seed, params: m)
    cfg = CampaignConfig(4, 2, params, suites=("wcycles",))
    with pytest.raises(OrelcoError) as err:
        run_property_campaign(cfg)
    assert str(err.value) == (
        f"generator-soundness violation: {witness};"
        f" reproduce with trial seed {trial_seed(4, 0)}")


@pytest.mark.parametrize("check,broken,detail", [
    ("compose", lambda *args: None,
     "fold does not factor the input"),
    ("_immersion_fault", lambda m: SimpleNamespace(witness="forced"),
     "folded map is not an immersion"),
], ids=["composite", "immersion"])
def test_broken_fold_law_is_a_fold_trial_violation(monkeypatch, check,
                                                   broken, detail):
    # fold checks its own laws; the fold trial reports fold's refusal
    import orelco.folding as folding

    monkeypatch.setattr(folding, check, broken)
    cfg = CampaignConfig(2, 3, GeneratorParams(3, W("a b"), 2),
                         suites=("fold",))
    with pytest.raises(OrelcoError, match=f"fold-laws violation: {detail}"):
        run_property_campaign(cfg)


# sha256 of the 400 seeded draws below and the generator's state after
# each, pinned when the draw found every component and kept u0's
DRAWN_GRAPHS_DIGEST = (
    "c7abd3e365e2aac7136e3d4d6ffcc2ddb47672eb1b67a667c51b3265105d3259")


def test_the_drawn_graph_is_the_pinned_component_of_u0():
    digest = hashlib.sha256()
    sizes = set()
    for seed in range(400):
        v = 1 + seed % 12
        rng = random.Random(seed)
        g = _random_labeled_graph(rng, v, ["a", "b"])
        digest.update(repr((sorted(g.vertices), list(g.edges.items()),
                            rng.getstate())).encode())
        sizes.add(len(g.vertices) < v)
    assert digest.hexdigest() == DRAWN_GRAPHS_DIGEST
    # both draws that keep every vertex and draws that drop some occur
    assert sizes == {False, True}
