"""Acceptance gate: every release-blocking property at its stated budget.

Each test here is a hard requirement.  Budgets (trial counts, corpus sizes,
wall-clock limits) are part of the contract and must not be reduced.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

import orelco
from orelco.cli import main
from orelco.covers import (FiniteQuotient, build_unwrapped_cover,
                           find_exponent_n_quotient, unwrapping_actions,
                           validate_quotient, verify_cover)
from orelco.harness import (CampaignConfig, GeneratorParams, campaign_csv,
                            run_property_campaign)
from orelco.orbicomplex import (build_orbicomplex, degree, wcycles_audit)
from orelco.complexes import Graph, euler_characteristic
from orelco.pipeline import present_subgroup
import orelco.pipeline as pipeline_module
from orelco.words import dehn_solve, free_reduce, inverse_word

AB2 = (("a", 1), ("b", 1))
ABAB_INV = (("a", 1), ("b", 1), ("a", 1), ("b", -1))

GROUP_FILE = """\
vertex *
edge a : * -> * label a
edge b : * -> * label b
relator a b
branch 2
"""


def _orbi(relator, n):
    symbols = sorted({sym for sym, _ in relator})
    return build_orbicomplex(Graph.rose(symbols), relator, n)


# ---------------------------------------------------------------------------
# 1. inequality suite: three relator/branch combinations, 1000 trials each


@pytest.mark.parametrize("relator,n,seed", [
    (AB2, 2, 11),
    (ABAB_INV, 2, 12),
    (AB2, 3, 13),
])
def test_inequality_campaign_1000_trials(relator, n, seed):
    start = time.monotonic()
    params = GeneratorParams(vertex_budget=6, relator=relator, branch_index=n)
    cfg = CampaignConfig(master_seed=seed, trials=1000, params=params,
                         suites=("wcycles",))
    report = run_property_campaign(cfg)
    elapsed = time.monotonic() - start
    assert report.pass_counts["wcycles"] == (1000, 1000)
    assert all(row.passed for row in report.rows)
    assert all(row.slack1 <= 0 for row in report.rows)
    assert all(row.slack2 <= 0 for row in report.rows)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. worked unwrapped covers, exact


def test_worked_cover_ab_branch_2():
    start = time.monotonic()
    x = _orbi(AB2, 2)
    q = FiniteQuotient(2, {"a": (1, 0), "b": (0, 1)})
    assert validate_quotient(q, x) == []
    cover = build_unwrapped_cover(x, q)
    c = cover.cover
    assert len(c.skeleton.vertices) == 2
    assert len(c.skeleton.edges) == 4
    assert len(c.cells) == 1
    (boundary,) = c.cells.values()
    assert len(boundary) == 4
    report = verify_cover(cover)
    assert report.passed
    assert report.euler == -1
    chi_gamma = euler_characteristic(c, dimension=1) // 2  # chi of the rose
    assert chi_gamma == -1
    assert Fraction(report.euler) == 2 * (Fraction(-1) + Fraction(1, 2))
    assert degree(cover.covering_map) == 2 == x.branch_index * len(c.cells)
    audit = wcycles_audit(cover.covering_map)
    assert audit.slack1 == 0
    assert time.monotonic() - start < 1.0


def test_worked_cover_a_over_two_symbol_rose_branch_3():
    start = time.monotonic()
    x = build_orbicomplex(Graph.rose(["a", "b"]), (("a", 1),), 3)
    q = FiniteQuotient(3, {"a": (1, 2, 0), "b": (0, 1, 2)})
    assert validate_quotient(q, x) == []
    cover = build_unwrapped_cover(x, q)
    c = cover.cover
    assert len(c.skeleton.vertices) == 3
    assert len(c.skeleton.edges) == 6
    assert len(c.cells) == 1
    report = verify_cover(cover)
    assert report.passed
    assert report.euler == -2
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 3. two-cell lifts partition into families of cardinality exactly n


@pytest.mark.parametrize("relator,n", [(AB2, 2), (ABAB_INV, 2), (AB2, 3)])
def test_families_have_cardinality_n(relator, n):
    # the first ten tables of each degree up to 4n, enumerated lazily
    x = _orbi(relator, n)
    found = 0
    for d in range(n, 4 * n + 1, n):
        for perms in itertools.islice(unwrapping_actions(x, d), 10):
            found += 1
            cover = build_unwrapped_cover(x, FiniteQuotient(d, perms))
            assert cover.families
            for members in cover.families.values():
                assert len(members) == n
            total = sum(len(members)
                        for members in cover.families.values())
            assert total == len(cover.cover.cells) * n
    assert found >= 20  # 3 parametrizations give >= 60 quotients overall


# ---------------------------------------------------------------------------
# 4. folding laws on random morphisms


def test_fold_laws_500_random_morphisms():
    start = time.monotonic()
    params = GeneratorParams(vertex_budget=6, relator=AB2, branch_index=2)
    cfg = CampaignConfig(master_seed=41, trials=500, params=params,
                         suites=("fold",))
    report = run_property_campaign(cfg)
    assert report.pass_counts["fold"] == (500, 500)
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 5. word problem corpus: conjugate products vs quotient-detected words


def _random_word(rng, length):
    letters = []
    for _ in range(length):
        letters.append((rng.choice("ab"), rng.choice((1, -1))))
    return free_reduce(tuple(letters))


def test_dehn_corpus_2000_words():
    start = time.monotonic()
    x = _orbi(AB2, 2)
    q = find_exponent_n_quotient(x, 8, 0)
    assert validate_quotient(q, x) == []
    power = AB2 * 2
    rng = random.Random(71)
    identity = tuple(range(q.degree))

    trivial_checked = 0
    while trivial_checked < 1000:
        k = rng.randint(1, 4)
        product = []
        for _ in range(k):
            u = _random_word(rng, rng.randint(0, 6))
            body = power if rng.random() < 0.5 else inverse_word(power)
            product.extend(u + body + inverse_word(u))
        word = free_reduce(tuple(product))
        result = dehn_solve(word, x)
        assert result.trivial, f"conjugate product judged nontrivial: {word}"
        trivial_checked += 1

    nontrivial_checked = 0
    while nontrivial_checked < 1000:
        word = _random_word(rng, rng.randint(1, 12))
        if not word or q.permutation_of(word) == identity:
            continue
        result = dehn_solve(word, x)
        assert not result.trivial, \
            f"word with nontrivial quotient image judged trivial: {word}"
        nontrivial_checked += 1

    assert trivial_checked + nontrivial_checked >= 2000
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. pipeline end-to-end on the two reference subgroups


def test_pipeline_stabilizer_subgroup():
    start = time.monotonic()
    x = _orbi(AB2, 2)
    gens = [(("b", 1),), (("a", 1), ("a", 1)), (("a", 1), ("b", 1), ("a", -1))]
    pres, report = present_subgroup(gens, x, max_word_len=12, max_stages=200,
                                    seed=0)
    assert pres.conclusive
    assert pres.stage <= 200
    assert len(pres.relators) <= 2  # cell bound with 3 seed generators, n = 2
    assert 1 - len(pres.symbols) + len(pres.relators) == -1
    for rel in pres.relators:
        sub = dict(zip(pres.symbols, pres.gen_words))
        expanded = []
        for sym, sign in rel:
            expanded.extend(sub[sym] if sign > 0 else inverse_word(sub[sym]))
        assert dehn_solve(free_reduce(tuple(expanded)), x).trivial
    assert time.monotonic() - start < 120.0


def test_pipeline_cyclic_subgroup_presents_freely():
    start = time.monotonic()
    x = _orbi(AB2, 2)
    pres, report = present_subgroup([(("a", 1),)], x, max_word_len=12,
                                    max_stages=200, seed=0)
    assert pres.conclusive
    assert pres.relators == ()
    assert len(pres.symbols) == 1
    assert any("finite-index" in note for note in pres.notes)
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 7. invariant hard-checks execute and never fire on passing runs


def test_invariant_checks_run_but_never_fire(monkeypatch):
    calls = {"count": 0}
    original = pipeline_module._check_stage

    def counting(state):
        calls["count"] += 1
        return original(state)

    monkeypatch.setattr(pipeline_module, "_check_stage", counting)
    x = _orbi(AB2, 2)
    gens = [(("b", 1),), (("a", 1), ("a", 1)), (("a", 1), ("b", 1), ("a", -1))]
    pres, _ = present_subgroup(gens, x, max_word_len=8, max_stages=200, seed=0)
    assert calls["count"] >= 1
    assert pres.conclusive


def test_campaign_rows_all_within_hard_bounds():
    params = GeneratorParams(vertex_budget=6, relator=AB2, branch_index=2)
    cfg = CampaignConfig(master_seed=55, trials=300, params=params)
    report = run_property_campaign(cfg)
    for row in report.rows:
        assert row.passed
    for suite, (passed, total) in report.pass_counts.items():
        assert passed == total


# ---------------------------------------------------------------------------
# 8. byte-identical determinism


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_campaign_output_hash_stable():
    params = GeneratorParams(vertex_budget=5, relator=AB2, branch_index=2)
    cfg = CampaignConfig(master_seed=77, trials=120, params=params)
    first = campaign_csv(run_property_campaign(cfg))
    second = campaign_csv(run_property_campaign(cfg))
    assert _sha(first) == _sha(second)


def test_cli_outputs_hash_stable(tmp_path, capsys):
    group = tmp_path / "g.txt"
    group.write_text(GROUP_FILE)

    def invoke(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    runs = []
    for tag in ("one", "two"):
        target = tmp_path / f"cover-{tag}.txt"
        code, out = invoke(["cover", "build", "--group", str(group),
                            "--seed", "4", "--out", str(target)])
        assert code == 0
        runs.append((_sha(out), _sha(target.read_text())))
    assert runs[0] == runs[1]

    runs = []
    for tag in ("one", "two"):
        target = tmp_path / f"pres-{tag}.txt"
        code, out = invoke(["subgroup", "present", "--group", str(group),
                            "--gens", "b ; a a ; a b a~",
                            "--max-word-len", "8", "--seed", "0",
                            "--out", str(target)])
        assert code == 0
        runs.append((_sha(out), _sha(target.read_text())))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# 9. outputs pinned across commits
#
# The digests below were computed once and must not change with the code.
# Each covers the exit code and both output streams; the inputs live in the
# working directory, so the echoed configuration holds no absolute path.

PINNED_CLI = {
    "cover-build": (
        ["cover", "build", "--group", "ab2.txt", "--seed", "4"],
        "3a98ee5284c670b45fa1710192ffeb9d176982828ca939028817e0eec1747922"),
    "present-text": (
        ["subgroup", "present", "--group", "ab2.txt",
         "--gens", "b ; a a ; a b a~", "--seed", "0"],
        "bfd666878b47b89338bdccf88c890a29cb6c5788866665c7cffec12f5e1b7be8"),
    "present-csv": (
        ["subgroup", "present", "--group", "abab2.txt", "--gens", "a ; b a b~",
         "--max-word-len", "6", "--seed", "0", "--format", "csv"],
        "d0813bb2d33b7a16532d885185c9c81d9daa39e13364a2a1c33bc94ae960718f"),
    "audit-csv": (
        ["audit", "wcycles", "--group", "ab2.txt", "--trials", "200",
         "--seed", "5", "--format", "csv"],
        "1639fc9aa6158ba0a982d28349a11a70498f4fca623318420748b57beec42cdf"),
    "solve-trivial": (
        ["word", "solve", "--group", "ab2.txt",
         "--word", "a a b a b a~ b~ a~ b~ a~"],
        "d686c6923a63529a1f94397de31d5347106b4f9deaee48bf64162fa4438f4c24"),
    "solve-nontrivial": (
        ["word", "solve", "--group", "abab2.txt", "--word", "a b b a a b"],
        "64e938444bd8ceac566f5d514f047e55f60cb87f5710657be50db3009296c9a2"),
}

PINNED_CAMPAIGNS = {
    "ab2": (
        AB2,
        "3f5417b30e83d59500055fc9c40e33fa6f090d4f7ba4157fd20c1325d26a0859"),
    "abab2": (
        ABAB_INV,
        "88fe9ff3b574a558b4c6c9a0bdc6c08ee27949f592d1e3b127bf7d62aafd4c4d"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CLI))
def test_cli_output_pinned_across_commits(name, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ORELCO_SEED", raising=False)
    (tmp_path / "ab2.txt").write_text(GROUP_FILE)
    (tmp_path / "abab2.txt").write_text(
        GROUP_FILE.replace("relator a b\n", "relator a b a b~\n"))
    argv, digest = PINNED_CLI[name]
    code = main(argv)
    captured = capsys.readouterr()
    record = f"exit {code}\n{captured.out}\0{captured.err}"
    assert _sha(record) == digest


@pytest.mark.parametrize("name", sorted(PINNED_CAMPAIGNS))
def test_campaign_output_pinned_across_commits(name):
    relator, digest = PINNED_CAMPAIGNS[name]
    params = GeneratorParams(vertex_budget=5, relator=relator, branch_index=2)
    cfg = CampaignConfig(master_seed=77, trials=120, params=params)
    assert _sha(campaign_csv(run_property_campaign(cfg))) == digest


# ---------------------------------------------------------------------------
# 10. public surface


def test_every_public_name_resolves():
    assert len(set(orelco.__all__)) == len(orelco.__all__)
    assert [name for name in orelco.__all__ if not hasattr(orelco, name)] == []
