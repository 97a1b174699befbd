"""Random immersion generator and property campaigns."""

import pytest

from orelco.complexes import (EdgeRec, Graph, MapKind, TwoComplex,
                              euler_characteristic, find_free_faces_and_edges)
from orelco.covers import (build_unwrapped_cover, find_exponent_n_quotient,
                           has_uniform_exponent_cycles, validate_quotient)
from orelco.errors import OrelcoError
from orelco.harness import (CSV_HEADER, CampaignConfig, GeneratorParams,
                            TrialRow, _generate_uncollapsed,
                            _random_labeled_graph, campaign_csv,
                            closed_power_lifts, random_irreducible_immersion,
                            random_uniform_quotient, run_property_campaign,
                            trial_seed)
from orelco.orbicomplex import (build_orbicomplex, check_orbi_immersion,
                                wcycles_audit)
from orelco.words import parse_word

import random

W = parse_word
AB2 = GeneratorParams(1, W("a b"), 2, attach_probability=1.0)


def test_full_rose_attachment_is_rejected_by_side_injectivity():
    # the relator power closes over the one-vertex rose, but both of its
    # passes over edge a land on the same disk side, so the cell is skipped
    m = random_irreducible_immersion(0, AB2)
    y = m.source
    assert len(y.skeleton.edges) == 2
    assert not y.cells
    assert len(closed_power_lifts(y.skeleton, m.target)) == 1


def test_uncollapsed_draw_matches_the_worked_cover():
    m = _generate_uncollapsed(20, GeneratorParams(2, W("a b"), 2, 1.0))
    y = m.source
    assert (len(y.skeleton.vertices), len(y.skeleton.edges),
            len(y.cells)) == (2, 4, 1)
    audit = wcycles_audit(m)
    assert audit.deg == 2 and audit.slack1 == 0 and audit.chi1 == -2

    x = m.target
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0)).cover
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


@pytest.mark.xfail(strict=True, reason=(
    "closed_power_lifts keeps each lift's least rotation by edge id, which "
    "can start mid-relator, while OrbiMorphism.by_labels claims offset 0"))
def test_every_closed_lift_spells_the_relator_power():
    for relator, n in (("a b a b~", 2), ("a a b b b", 2)):
        x = build_orbicomplex(Graph.rose("ab"), W(relator), n)
        power = x.relator_word() * n
        for seed in range(100):
            g = _random_labeled_graph(random.Random(seed), 12, ["a", "b"])
            for lift in closed_power_lifts(g, x):
                assert tuple(map(g.dart_label, lift)) == power


def test_zero_trials_gives_an_empty_passing_report():
    cfg = CampaignConfig(3, 0, GeneratorParams(4, W("a b"), 2))
    rep = run_property_campaign(cfg)
    assert rep.rows == ()
    assert all(counts == (0, 0) for counts in rep.pass_counts.values())
    assert campaign_csv(rep) == CSV_HEADER + "\n"


def test_campaign_passes_and_reproduces_byte_identically():
    cfg = CampaignConfig(7, 150, GeneratorParams(6, W("a b"), 2))
    rep1 = run_property_campaign(cfg)
    rep2 = run_property_campaign(cfg)
    assert len(rep1.rows) == 150
    assert rep1.pass_counts["wcycles"] == (150, 150)
    assert rep1.pass_counts["fold"] == (150, 150)
    assert sum(rep1.slack1_histogram.values()) == 150
    assert max(rep1.slack1_histogram) <= 0
    text = campaign_csv(rep1)
    assert text == campaign_csv(rep2)
    assert text.splitlines()[0] == CSV_HEADER


def test_campaign_covers_other_relators():
    for w, n in ((W("a b a b~"), 2), (W("a b"), 3)):
        cfg = CampaignConfig(5, 60, GeneratorParams(5, w, n))
        rep = run_property_campaign(cfg)
        assert rep.pass_counts["wcycles"] == (60, 60)


def test_degenerate_draws_are_substituted_not_failed():
    cfg = CampaignConfig(1, 80, GeneratorParams(1, W("a b"), 2, 0.0),
                         suites=("wcycles",))
    rep = run_property_campaign(cfg)
    assert rep.pass_counts["wcycles"] == (80, 80)
    assert all(r.cells == 0 and r.slack1 <= 0 for r in rep.rows)
    assert any(r.edges == 1 for r in rep.rows)


def test_trial_seed_derivation_is_affine():
    assert trial_seed(7, 0) == 7 * 1_000_003
    assert trial_seed(7, 5) - trial_seed(7, 4) == 1


def test_random_uniform_quotients_validate_and_vary():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    rng = random.Random(99)
    seen = set()
    for _ in range(60):
        q = random_uniform_quotient(rng, x, max_degree=6)
        assert q is not None
        assert validate_quotient(q, x) == []
        assert has_uniform_exponent_cycles(q, x)
        seen.add((q.degree, tuple(sorted(q.perms.items()))))
    assert len(seen) >= 5


def test_violation_aborts_with_the_reproduction_seed(monkeypatch):
    import orelco.harness as harness

    def broken_audit(m):
        real = wcycles_audit(m)
        return type(real)(**{**real.__dict__, "passed": False})

    monkeypatch.setattr(harness, "wcycles_audit", broken_audit)
    cfg = CampaignConfig(2, 3, GeneratorParams(3, W("a b"), 2),
                         suites=("wcycles",))
    with pytest.raises(OrelcoError, match="reproduce with trial seed"):
        run_property_campaign(cfg)
