"""End-to-end command-line tests: exit codes, reason lines, round-trips."""

import hashlib
from pathlib import Path

import pytest

from orelco.cli import main
from orelco.covers import (CoverReport, build_unwrapped_cover,
                           find_exponent_n_quotient)
from orelco.orbicomplex import WCyclesAudit
from orelco.textio import (format_complex, format_cover, parse_complex,
                           parse_cover_file, parse_orbicomplex)

GROUP = """\
vertex *
edge a : * -> * label a
edge b : * -> * label b
relator a b
branch 2
"""

COVER_COMPLEX = """\
vertex p0
vertex p1
edge a0 : p0 -> p1 label a
edge a1 : p1 -> p0 label a
edge b0 : p0 -> p0 label b
edge b1 : p1 -> p1 label b
cell f0 : a0 b1 a1 b0
base p0
"""

COVER_MAP = """\
vmap p0 *
vmap p1 *
emap a0 a
emap a1 a
emap b0 b
emap b1 b
cmap f0 w rot=0 orient=+
"""


@pytest.fixture
def group_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(GROUP)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_define(group_file, capsys):
    code, out, _ = run(capsys, ["group", "define", "--group", group_file])
    assert code == 0
    assert out.startswith("config: group define")
    assert "edges=2" in out and "branch=2" in out


def test_group_define_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertex v\nrelator a\nbranch 2\n")
    code, _, err = run(capsys, ["group", "define", "--group", str(bad)])
    assert code == 2
    assert err.startswith("error:")


def test_a_cover_file_with_a_bad_family_point_names_its_line(tmp_path,
                                                            capsys):
    bad = tmp_path / "cf.txt"
    bad.write_text(COVER_COMPLEX + "family f0 : 0 x\n")
    code, _, err = run(capsys, ["export", "dot", "--complex", str(bad)])
    assert code == 2
    assert err == f"error: {bad}: line 9: cannot read 'x' as an integer\n"


def test_missing_input_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, ["group", "define", "--group",
                                str(tmp_path / "nope.txt")])
    assert code == 2
    assert err.startswith("error:")


def test_word_solve_relator_power_is_trivial(group_file, capsys):
    code, out, _ = run(capsys, ["word", "solve", "--group", group_file,
                                "--word", "a b a b"])
    assert code == 0
    steps = [line for line in out.splitlines() if line.startswith("step ")]
    assert len(steps) == 1
    assert "result: trivial" in out


def test_word_solve_nontrivial_prints_remnant(group_file, capsys):
    code, out, _ = run(capsys, ["word", "solve", "--group", group_file,
                                "--word", "a"])
    assert code == 0
    assert "result: nontrivial" in out
    assert "remnant: a" in out


def test_word_solve_foreign_letter_is_usage_error(group_file, capsys):
    code, out, err = run(capsys, ["word", "solve", "--group", group_file,
                                  "--word", "a c"])
    assert code == 2
    assert err == "error: --word: letter 'c' is not a loop of the rose\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_word_solve_unreduced_word_is_usage_error(group_file, capsys):
    # dehn_solve's refusal, the one reducedness check, is the usage error
    code, out, err = run(capsys, ["word", "solve", "--group", group_file,
                                  "--word", "b a a~"])
    assert code == 2
    assert err == "error: --word: input word must be freely reduced\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_a_relator_letter_that_the_rose_lacks_is_a_usage_error(tmp_path,
                                                                 capsys):
    group = tmp_path / "g.txt"
    group.write_text(GROUP.replace("relator a b", "relator a c"))
    code, out, err = run(capsys, ["group", "define", "--group", str(group)])
    assert code == 2
    assert err == f"error: {group}: letter 'c' is not a loop of the rose\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_cover_build_worked_example(group_file, capsys, tmp_path):
    out_path = tmp_path / "x0.txt"
    code, out, _ = run(capsys, ["cover", "build", "--group", group_file,
                                "--max-degree", "8", "--seed", "7",
                                "--out", str(out_path)])
    assert code == 0
    assert "degree=2 vertices=2 edges=4 cells=1" in out
    assert "pass=1" in out
    cover, families = parse_cover_file(out_path.read_text())
    assert len(cover.skeleton.vertices) == 2
    assert len(cover.skeleton.edges) == 4
    assert len(cover.cells) == 1
    assert all(len(v) == 2 for v in families.values())


def test_cover_build_round_trip_matches_library(group_file, capsys, tmp_path):
    out_path = tmp_path / "x0.txt"
    code, _, _ = run(capsys, ["cover", "build", "--group", group_file,
                              "--seed", "0", "--out", str(out_path)])
    assert code == 0
    x = __import__("orelco.textio", fromlist=["parse_orbicomplex"]) \
        .parse_orbicomplex(GROUP)
    q = find_exponent_n_quotient(x, 8, 0)
    expected = format_cover(build_unwrapped_cover(x, q))
    assert out_path.read_text() == expected


def test_cover_build_budget_exhausted_exits_3(group_file, capsys):
    code, _, err = run(capsys, ["cover", "build", "--group", group_file,
                                "--max-degree", "1"])
    assert code == 3
    assert err == "error: no exponent-2 quotient of degree <= 1 exists\n"


def test_cover_build_failing_audit_names_each_witness(group_file, capsys,
                                                      tmp_path, monkeypatch):
    # no built cover is known to fail its audit, so the audit is made to
    # fail with two witnesses
    import orelco.cli as cli
    witnesses = ("edge a0 is not covered", "link at p1 is not onto")
    monkeypatch.setattr(cli, "verify_cover",
                        lambda cover: CoverReport(witnesses, 0))
    code, out, err = run(capsys, ["cover", "build", "--group", group_file,
                                  "--out", str(tmp_path / "x0.txt")])
    assert code == 1 and not err
    lines = out.splitlines()
    (cover_line,) = [line for line in lines if line.startswith("cover:")]
    assert cover_line.endswith(" pass=0")
    assert [line for line in lines if line.startswith("error:")] == [
        f"error: {w}" for w in witnesses]
    assert lines[-2:] == [f"error: {w}" for w in witnesses]


def test_cover_build_finds_the_least_degree(capsys, tmp_path):
    # no cyclic quotient of degree 3 unwraps this relator, but one exists
    group = tmp_path / "g.txt"
    group.write_text(GROUP.replace("relator a b\nbranch 2",
                                   "relator b a a b b a\nbranch 3"))
    code, out, _ = run(capsys, ["cover", "build", "--group", str(group),
                                "--max-degree", "12", "--seed", "7"])
    assert code == 0
    assert "cover: degree=3 vertices=3 edges=6 cells=1 chi=-2 pass=1" in out


@pytest.mark.parametrize("command", [["cover", "build"],
                                     ["subgroup", "present", "--gens", "b"]])
@pytest.mark.parametrize("group", [GROUP, GROUP.replace("branch 2", "branch 1")])
def test_max_degree_below_one_is_a_usage_error(tmp_path, capsys, command,
                                                group):
    # with branch 1 the degree-1 cover would be built over the budget; a
    # presentation reads the group file first and refuses branch 1 itself
    path = tmp_path / "g.txt"
    path.write_text(group)
    code, out, err = run(capsys, command + ["--group", str(path),
                                            "--max-degree", "0"])
    assert code == 2
    if command[0] == "subgroup" and "branch 1" in group:
        assert err == (f"error: {path}: branch index must be at least 2, "
                       "got 1\n")
    else:
        assert err == "error: --max-degree must be at least 1, got 0\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_subgroup_present_conclusive(group_file, capsys, tmp_path):
    out_path = tmp_path / "pres.txt"
    code, out, _ = run(capsys, ["subgroup", "present", "--group", group_file,
                                "--gens", "b ; a a ; a b a~",
                                "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == "gens: x1 x2 ; rels:\n"
    assert "stage 1:" in out


def test_subgroup_present_budget_exhausted_exits_3(group_file, capsys,
                                                   tmp_path):
    out_path = tmp_path / "pres.txt"
    code, out, _ = run(capsys, ["subgroup", "present", "--group", group_file,
                                "--gens", "b ; a a ; a b a~",
                                "--max-stages", "0", "--out", str(out_path)])
    assert code == 3
    assert "error: presentation is inconclusive" in out
    # a presentation is still emitted
    assert out_path.read_text() == "gens: x1 x2 ; rels:\n"

def test_a_failed_cover_audit_prints_its_witnesses(group_file, capsys,
                                                   monkeypatch):
    import orelco.pipeline as pipeline
    report = CoverReport(("edge a0 is not covered",), 0)
    monkeypatch.setattr(pipeline, "verify_cover", lambda cover: report)
    code, out, err = run(capsys, ["subgroup", "present", "--group",
                                  group_file, "--gens", "a a"])
    assert code == 1
    assert err == "error: cover audit failed: edge a0 is not covered\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_subgroup_present_bad_gens_token_is_usage_error(group_file, capsys):
    code, out, err = run(capsys, ["subgroup", "present", "--group",
                                  group_file, "--gens", "a ; b~~"])
    assert code == 2
    assert err.startswith("error: --gens:") and "'b~~'" in err
    assert out.startswith("config:") and out.count("\n") == 1


def test_subgroup_present_gens_letter_outside_the_group(group_file, capsys):
    code, out, err = run(capsys, ["subgroup", "present", "--group",
                                  group_file, "--gens", "a ; c"])
    assert code == 2
    assert err == "error: --gens: letter 'c' is not a loop of the rose\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_subgroup_present_csv_report(group_file, capsys):
    code, out, _ = run(capsys, ["subgroup", "present", "--group", group_file,
                                "--gens", "a a", "--format", "csv"])
    assert code == 0
    assert "stage,chi1,chi2,cells,free_edges,cursor,stable_for" in out


def test_audit_single_immersion(group_file, capsys, tmp_path):
    # the cover has free faces; a pass on it still exits 0
    y = tmp_path / "y.txt"
    y.write_text(COVER_COMPLEX)
    m = tmp_path / "m.txt"
    m.write_text(COVER_MAP)
    code, out, _ = run(capsys, ["audit", "wcycles", "--group", group_file,
                                "--complex", str(y), "--map", str(m),
                                "--format", "csv"])
    assert code == 0
    assert "y,-2,2,0,-1,1,0,1" in out


def test_a_text_single_map_audit_honours_out(group_file, capsys, tmp_path):
    # the audit line once went to stdout and no file was written
    y = tmp_path / "y.txt"
    y.write_text(COVER_COMPLEX)
    m = tmp_path / "m.txt"
    m.write_text(COVER_MAP)
    argv = ["audit", "wcycles", "--group", group_file, "--complex", str(y),
            "--map", str(m)]
    code, printed, _ = run(capsys, argv)
    out_path = tmp_path / "audit.txt"
    assert run(capsys, argv + ["--out", str(out_path)])[:2] == (
        code, printed.splitlines(keepends=True)[0])
    assert code == 0
    assert out_path.read_text() == (
        "audit y: chi1=-2 deg=2 slack1=0 chi2=-1 cells=1 slack2=0 "
        "in_scope=0\n")


OUT_OF_SCOPE_REASON = ("the complex is outside the inequality's scope "
                       "(connected, no free faces, a 1-skeleton that is not "
                       "a tree)")

# one disk over (ab)^2, its four sides on four distinct edges
ONE_DISK = ("vertex p0\nvertex p1\nvertex p2\nvertex p3\n"
            "edge a0 : p0 -> p1 label a\nedge b0 : p1 -> p2 label b\n"
            "edge a1 : p2 -> p3 label a\nedge b1 : p3 -> p0 label b\n"
            "cell c : a0 b0 a1 b1\nbase p0\n")
ONE_DISK_MAP = ("vmap p0 *\nvmap p1 *\nvmap p2 *\nvmap p3 *\n"
                "emap a0 a\nemap a1 a\nemap b0 b\nemap b1 b\n"
                "cmap c w rot=0 orient=+\n")


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_audit_single_reducible_failure_is_a_usage_error(group_file, capsys,
                                                         tmp_path, fmt):
    # the inequality is claimed for complexes with no free faces; the disk
    # once exited 1 with "inequality violated", a confident wrong answer
    y = tmp_path / "y.txt"
    y.write_text(ONE_DISK)
    m = tmp_path / "m.txt"
    m.write_text(ONE_DISK_MAP)
    code, out, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                  "--complex", str(y), "--map", str(m),
                                  "--format", fmt])
    assert code == 2
    assert err == (f"error: {m}: {OUT_OF_SCOPE_REASON}, so a failed "
                   "inequality (slack1=2 slack2=2) is no counterexample\n")
    assert out.startswith("config:") and out.count("\n") == 1


def _map_by_labels(complex_text: str) -> str:
    """The map file sending every vertex to ``*``, every edge to its label
    and every cell to the orbicell at rotation 0."""
    y = parse_complex(complex_text)
    return ("".join(f"vmap {v} *\n" for v in sorted(y.skeleton.vertices))
            + "".join(f"emap {e} {rec.label}\n"
                      for e, rec in sorted(y.skeleton.edges.items()))
            + "".join(f"cmap {c} w rot=0 orient=+\n" for c in sorted(y.cells)))


ABAB2 = GROUP.replace("relator a b", "relator a b a b~")


def _cover_and_a_vertex() -> str:
    """The degree-4 cover that ``cover build`` writes over (abab~)^2, with
    one isolated vertex more."""
    x = parse_orbicomplex(ABAB2)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 8, 0)).cover
    return format_complex(cover) + "vertex lonely\n"


OUT_OF_SCOPE = {"point": (GROUP, "vertex u\nbase u\n"),
                "edge": (GROUP, "vertex u\nvertex v\n"
                         "edge e : u -> v label a\nbase u\n"),
                "cover-and-a-vertex": (ABAB2, _cover_and_a_vertex())}


@pytest.mark.parametrize("group, complex_text", OUT_OF_SCOPE.values(),
                         ids=OUT_OF_SCOPE)
def test_audit_single_failure_outside_the_scope_is_a_usage_error(
        capsys, tmp_path, group, complex_text):
    # a point, a tree and a cover beside an isolated vertex each once exited
    # 1 with "inequality violated"; the inequality covers none of them
    g = tmp_path / "g.txt"
    g.write_text(group)
    y = tmp_path / "y.txt"
    y.write_text(complex_text)
    m = tmp_path / "m.txt"
    m.write_text(_map_by_labels(complex_text))
    code, out, err = run(capsys, ["audit", "wcycles", "--group", str(g),
                                  "--complex", str(y), "--map", str(m)])
    assert code == 2
    assert err == (f"error: {m}: {OUT_OF_SCOPE_REASON}, so a failed "
                   "inequality (slack1=1 slack2=1) is no counterexample\n")
    assert out.startswith("config:") and out.count("\n") == 1


def test_audit_single_failure_in_scope_is_a_violation(group_file, capsys,
                                                      tmp_path, monkeypatch):
    # no in-scope counterexample is known, so the audit is made to report one
    import orelco.cli as cli
    failing = WCyclesAudit(chi1=-2, deg=4, slack1=2, chi2=0, cells=2,
                           slack2=2, passed=False, in_scope=True)
    monkeypatch.setattr(cli, "wcycles_audit", lambda m: failing)
    y = tmp_path / "y.txt"
    y.write_text(COVER_COMPLEX)
    m = tmp_path / "m.txt"
    m.write_text(COVER_MAP)
    code, out, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                  "--complex", str(y), "--map", str(m)])
    assert code == 1 and not err
    assert out.splitlines()[1:] == [
        "audit y: chi1=-2 deg=4 slack1=2 chi2=0 cells=2 slack2=2 in_scope=1",
        "error: inequality violated: slack1=2 slack2=2"]


def test_audit_single_malformed_map_is_usage_error(group_file, capsys,
                                                   tmp_path):
    y = tmp_path / "y.txt"
    y.write_text(COVER_COMPLEX)
    m = tmp_path / "m.txt"
    m.write_text(COVER_MAP.replace("rot=0", "rot=zero"))
    code, out, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                  "--complex", str(y), "--map", str(m)])
    assert code == 2
    assert err.startswith(f"error: {m}:")
    assert out.startswith("config:") and out.count("\n") == 1


def test_audit_single_needs_map(group_file, capsys, tmp_path):
    y = tmp_path / "y.txt"
    y.write_text(COVER_COMPLEX)
    code, _, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                "--complex", str(y)])
    assert code == 2
    assert err.startswith("error:")


ONE_VERTEX_SQUARE = ("vertex p\nedge a : p -> p label a\n"
                     "edge b : p -> p label b\ncell f0 : a b a b\nbase p\n")
NOT_IMMERSIONS = {
    # a cell reading all of (ab)^2 puts both its a-sides on one side of
    # the branched disk
    "cell-folds": "vmap p *\nemap a a\nemap b b\ncmap f0 w rot=0 orient=+\n",
    "edge-unmapped": "vmap p *\nemap a a\ncmap f0 w rot=0 orient=+\n",
}


@pytest.mark.parametrize("map_text", NOT_IMMERSIONS.values(),
                         ids=NOT_IMMERSIONS)
def test_audit_single_map_that_is_not_an_immersion_is_a_usage_error(
        group_file, capsys, tmp_path, map_text):
    # the inequality is claimed for immersions only, so such a map is no
    # counterexample, and the audit names the map file
    y = tmp_path / "y.txt"
    y.write_text(ONE_VERTEX_SQUARE)
    m = tmp_path / "m.txt"
    m.write_text(map_text)
    code, out, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                  "--complex", str(y), "--map", str(m)])
    assert code == 2
    assert err.startswith(f"error: {m}: not an immersion: ")
    assert out.startswith("config:") and out.count("\n") == 1


STRAY_ENTRIES = {"vertex": ("vmap ghost *\n", "vertex map names ghost, "
                            "not a source vertex"),
                 "cell": ("cmap zz w rot=0 orient=+\n",
                          "cell map names zz, not a source cell")}


@pytest.mark.parametrize("extra, witness", STRAY_ENTRIES.values(),
                         ids=STRAY_ENTRIES)
def test_audit_single_map_with_a_stray_entry_is_a_usage_error(
        group_file, capsys, tmp_path, extra, witness):
    # it once audited the cover and exited 0
    y = tmp_path / "y.txt"
    y.write_text(COVER_COMPLEX)
    m = tmp_path / "m.txt"
    m.write_text(COVER_MAP + extra)
    code, out, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                  "--complex", str(y), "--map", str(m)])
    assert code == 2
    assert err == f"error: {m}: not an immersion: {witness}\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_audit_campaign_all_pass(group_file, capsys):
    code, out, _ = run(capsys, ["audit", "wcycles", "--group", group_file,
                                "--trials", "40", "--seed", "5"])
    assert code == 0
    assert "suite wcycles: 40/40" in out
    assert "suite fold: 40/40" in out
    assert "suite covers: 40/40" in out


# sha256 of the whole stdout of a seeded text campaign over ab/2 with all
# three suites; its last line counts the rows whose slack1 is 0
CAMPAIGN_TEXT_DIGEST = \
    "c100044b6717a72070dbbfb80c95ed585395c5f156a90e0b9d4462e1cd5acbfb"


def test_the_text_campaign_summary_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(GROUP)
    code, out, _ = run(capsys, ["audit", "wcycles", "--group", "g.txt",
                                "--trials", "60", "--seed", "3"])
    assert code == 0
    assert "slack1 tight in 34 of 60 trials\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == CAMPAIGN_TEXT_DIGEST


@pytest.mark.parametrize("suite", ["covers", "fold"])
def test_a_campaign_without_wcycles_prints_no_slack_line(group_file, capsys,
                                                         suite):
    # the slack1 line counts wcycles rows, so it names only a suite that ran
    code, out, _ = run(capsys, ["audit", "wcycles", "--group", group_file,
                                "--trials", "3", "--suites", suite])
    assert code == 0
    assert out.splitlines()[1:] == [f"suite {suite}: 3/3"]


@pytest.mark.parametrize("suites", ["covers", "fold,covers"])
def test_a_csv_campaign_without_wcycles_counts_each_suite(group_file, capsys,
                                                          suites):
    # the wcycles rows are the only per-trial rows; without them the CSV
    # once printed a bare header and said nothing of the suites that ran
    code, out, _ = run(capsys, ["audit", "wcycles", "--group", group_file,
                                "--trials", "3", "--suites", suites,
                                "--format", "csv"])
    assert code == 0
    rows = [f"{suite},3,3" for suite in sorted(suites.split(","))]
    assert out.splitlines()[1:] == ["suite,passed,total", *rows]


def test_a_spent_search_budget_in_the_covers_suite_exits_3(group_file, capsys,
                                                           monkeypatch):
    # a covers draw expands the enumerator's search under its budget
    import orelco.covers as covers
    monkeypatch.setattr(covers, "SEARCH_NODE_BUDGET", 1)
    code, out, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                  "--trials", "2", "--suites", "covers"])
    assert code == 3
    assert err == "error: search node budget of 1 exhausted at degree 2\n"
    assert "suite covers" not in out


PRESENT = ["subgroup", "present", "--gens", "b ; a a"]
CAMPAIGN = ["audit", "wcycles", "--trials", "3"]


@pytest.mark.parametrize("argv,message", [
    (PRESENT + ["--max-word-len", "0"],
     "--max-word-len must be at least 1, got 0"),
    (PRESENT + ["--max-word-len", "-3"],
     "--max-word-len must be at least 1, got -3"),
    (["audit", "wcycles", "--trials", "0"],
     "--trials must be at least 1, got 0"),
    (["audit", "wcycles", "--trials", "-5"],
     "--trials must be at least 1, got -5"),
    (["cover", "build", "--max-degree", "0"],
     "--max-degree must be at least 1, got 0"),
    (PRESENT + ["--max-degree", "-2"],
     "--max-degree must be at least 1, got -2"),
    (PRESENT + ["--max-stages", "-1"],
     "--max-stages must be at least 0, got -1"),
    (CAMPAIGN + ["--seed", "-1"], "--seed must be at least 0, got -1"),
    (CAMPAIGN + ["--suites", "nosuch"],
     "--suites must name some of wcycles,fold,covers, got 'nosuch'"),
    (CAMPAIGN + ["--suites", "wcycles,cover"],
     "--suites must name some of wcycles,fold,covers, got 'wcycles,cover'"),
    (CAMPAIGN + ["--suites", ""],
     "--suites must name some of wcycles,fold,covers, got ''"),
    (CAMPAIGN + ["--vertex-budget", "0"], "--vertex-budget must be at least 1"),
    (CAMPAIGN + ["--attach-prob", "5"], "--attach-prob must be in [0, 1]"),
], ids=["argv0", "argv1", "argv2", "argv3", "cover-max-degree",
        "present-max-degree", "max-stages", "seed", "suites-unknown",
        "suites-misspelt", "suites-empty", "vertex-budget", "attach-prob"])
def test_empty_budgets_are_usage_errors(group_file, capsys, argv, message):
    # every bounded flag: the library's rule under the flag's name, and no
    # report, so a budget that tries nothing prints no vacuous pass
    code, out, err = run(capsys, argv + ["--group", group_file])
    assert code == 2
    assert err == f"error: {message}\n"
    assert out.startswith("config:") and out.count("\n") == 1


@pytest.mark.parametrize("flag,value", [
    ("--suites", "nosuch"),
    ("--vertex-budget", "0"),
    ("--attach-prob", "5"),
    ("--seed", "-1"),
])
def test_out_of_range_campaign_flags_are_usage_errors(group_file, capsys,
                                                      flag, value):
    # each once ran: a vacuous 0/0 pass, a randrange error with exit 1, a
    # pass with every cell attached, and seed 1's trials again
    code, out, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                  "--trials", "20", flag, value])
    assert code == 2
    assert err.startswith(f"error: {flag} ")
    assert out.startswith("config:") and out.count("\n") == 1


@pytest.mark.parametrize("flags,message", [
    (["--vertex-budget", "0"], "--vertex-budget must be at least 1"),
    (["--vertex-budget", "-4"], "--vertex-budget must be at least 1"),
    (["--attach-prob", "1.5"], "--attach-prob must be in [0, 1]"),
    (["--attach-prob", "-0.5"], "--attach-prob must be in [0, 1]"),
    (["--attach-prob", "nan"], "--attach-prob must be in [0, 1]"),
    (["--attach-prob", "nan", "--vertex-budget", "0"],
     "--vertex-budget must be at least 1"),
], ids=["budget-0", "budget-negative", "prob-above", "prob-below",
        "prob-nan", "both"])
def test_generator_flags_follow_the_generators_rule(tmp_path, capsys, flags,
                                                    message):
    # harness._check_generator_params decides both flags, the budget
    # first, before the group file is read: the path does not exist
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, ["audit", "wcycles", "--group", missing,
                                  "--trials", "3"] + flags)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out.startswith("config:") and out.count("\n") == 1


@pytest.mark.parametrize("files", [["--complex"], ["--map"],
                                   ["--complex", "--map"]],
                         ids=["complex", "map", "both"])
def test_campaign_with_a_complex_or_map_is_a_usage_error(tmp_path, capsys,
                                                          files):
    # the campaign once ran and exited 0, ignoring both paths; no file is
    # read, so paths that do not exist give the same error
    missing = str(tmp_path / "missing.txt")
    argv = ["audit", "wcycles", "--group", missing, "--trials", "3"]
    for flag in files:
        argv += [flag, missing]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err == ("error: --trials runs a campaign, which takes no "
                   "--complex or --map\n")
    assert out.startswith("config:") and out.count("\n") == 1


@pytest.mark.parametrize("flag,value", [("--suites", "nosuch"),
                                        ("--vertex-budget", "0"),
                                        ("--attach-prob", "5"),
                                        ("--seed", "3")])
def test_single_map_audit_with_a_campaign_flag_is_a_usage_error(
        tmp_path, capsys, flag, value):
    # the single-map audit once exited 0 and ignored these; no file is
    # read, so paths that do not exist give the same error
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, ["audit", "wcycles", "--group", missing,
                                  "--complex", missing, "--map", missing,
                                  flag, value])
    assert code == 2
    assert err == (f"error: {flag} is for a campaign (--trials), not for "
                   "an audit of --complex and --map\n")
    assert out == (f"config: audit wcycles complex={missing} format=text "
                   f"group={missing} map={missing}\n")


def test_a_text_campaign_honours_out(group_file, capsys, tmp_path):
    # the suite lines once went to stdout, no file was written, and the
    # run exited 0
    argv = ["audit", "wcycles", "--group", group_file, "--trials", "5"]
    code, printed, _ = run(capsys, argv)
    out_path = tmp_path / "o.txt"
    config, *report = printed.splitlines(keepends=True)
    assert run(capsys, argv + ["--out", str(out_path)])[:2] == (code, config)
    assert code == 0
    assert out_path.read_text() == "".join(report)
    assert report[:3] == ["suite covers: 5/5\n", "suite fold: 5/5\n",
                          "suite wcycles: 5/5\n"]


def test_audit_campaign_csv_deterministic(group_file, capsys):
    argv = ["audit", "wcycles", "--group", group_file, "--trials", "25",
            "--seed", "9", "--format", "csv"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert hashlib.sha256(out1.encode()).digest() == \
        hashlib.sha256(out2.encode()).digest()


@pytest.mark.parametrize("argv", [
    ["word", "solve", "--word", "a"],
    ["subgroup", "present", "--gens", "a"],
    ["audit", "wcycles", "--trials", "3"],
], ids=["word-solve", "subgroup-present", "audit-trials"])
def test_branch_one_is_a_usage_error_where_n_must_be_two(tmp_path, capsys,
                                                         argv):
    # each once exited 1, the property-violation status, on the library's
    # ValueError
    path = tmp_path / "g.txt"
    path.write_text(GROUP.replace("branch 2", "branch 1"))
    code, out, err = run(capsys, argv + ["--group", str(path)])
    assert code == 2
    assert err == f"error: {path}: branch index must be at least 2, got 1\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_branch_one_builds_covers_and_audits_maps(tmp_path, capsys):
    group = tmp_path / "g.txt"
    group.write_text(GROUP.replace("branch 2", "branch 1"))
    y = tmp_path / "y.txt"
    y.write_text("vertex p\nedge a : p -> p label a\n"
                 "edge b : p -> p label b\ncell f0 : a b\nbase p\n")
    m = tmp_path / "m.txt"
    m.write_text("vmap p *\nemap a a\nemap b b\ncmap f0 w rot=0 orient=+\n")
    code, out, _ = run(capsys, ["cover", "build", "--group", str(group)])
    assert code == 0 and "cover: degree=1" in out
    code, out, _ = run(capsys, ["audit", "wcycles", "--group", str(group),
                                "--complex", str(y), "--map", str(m)])
    assert code == 0 and "audit y: chi1=-1 deg=1 slack1=0" in out


def test_campaign_over_a_letter_the_relator_lacks_is_a_usage_error(
        tmp_path, capsys):
    # <a, b | a^3> once ran as <a | a^3>, and all its trials passed
    path = tmp_path / "g.txt"
    path.write_text(GROUP.replace("relator a b", "relator a")
                    .replace("branch 2", "branch 3"))
    code, out, err = run(capsys, ["audit", "wcycles", "--group", str(path),
                                  "--trials", "20"])
    assert code == 2
    assert err.startswith(f"error: {path}: letter 'b' is not in the relator")
    assert out.startswith("config:") and out.count("\n") == 1


NOT_A_ROSE = {
    # the rose {a, b} was once rebuilt from the relator's letters, and the
    # campaign passed over that different group
    "two-vertices": "vertex u\nvertex v\nedge a : u -> v label a\n"
                    "edge b : v -> u label b\nrelator a b\nbranch 2\n",
    "relabelled-rose": "vertex *\nedge e1 : * -> * label a\n"
                       "edge e2 : * -> * label b\nrelator e1 e2\nbranch 2\n",
}


@pytest.mark.parametrize("argv", [
    ["group", "define"],
    ["word", "solve", "--word", "a b"],
    ["cover", "build"],
    ["subgroup", "present", "--gens", "a"],
    ["audit", "wcycles", "--trials", "5"],
    ["audit", "wcycles", "--complex", "y.txt", "--map", "m.txt"],
    ["stacking", "check", "--stacking", "s.txt"],
], ids=["group-define", "word-solve", "cover-build", "subgroup-present",
        "audit-trials", "audit-map", "stacking-check"])
@pytest.mark.parametrize("group", NOT_A_ROSE.values(), ids=NOT_A_ROSE)
def test_a_group_file_that_is_not_a_rose_is_a_usage_error(
        tmp_path, capsys, monkeypatch, argv, group):
    monkeypatch.chdir(tmp_path)
    Path("y.txt").write_text(COVER_COMPLEX)
    Path("m.txt").write_text(COVER_MAP)
    Path("s.txt").write_text("h w 0 0\nh w 1 1/2\n")
    Path("g.txt").write_text(group)
    code, out, err = run(capsys, argv + ["--group", "g.txt"])
    assert code == 2
    assert err == ("error: g.txt: the graph must be a rose: one vertex, "
                   "each loop named by its label\n")
    assert out.startswith("config:") and out.count("\n") == 1


def test_a_repeated_declaration_is_a_usage_error(tmp_path, capsys):
    # `branch 2` then `branch 3` once defined the group with branch 3
    group = tmp_path / "g.txt"
    group.write_text(GROUP + "branch 3\n")
    code, out, err = run(capsys, ["group", "define", "--group", str(group)])
    assert code == 2
    assert err == f"error: {group}: line 6: duplicate branch\n"
    src = tmp_path / "src.txt"
    src.write_text("vertex u\nedge e1 : u -> u label a\nbase u\n")
    tgt = tmp_path / "rose.txt"
    tgt.write_text("vertex *\nedge a : * -> * label a\nbase *\n")
    mp = tmp_path / "m.txt"
    mp.write_text("vmap u *\nemap e1 a\nemap e1 a~\n")
    code, _, err = run(capsys, ["fold", "--source", str(src), "--target",
                                str(tgt), "--map", str(mp)])
    assert code == 2
    assert err == f"error: {mp}: line 3: duplicate emap e1\n"


def test_negative_stage_budget_is_a_usage_error(group_file, capsys):
    # it once behaved as 0; 0 keeps its meaning
    argv = ["subgroup", "present", "--group", group_file,
            "--gens", "b ; a a ; a b a~"]
    code, out, err = run(capsys, argv + ["--max-stages", "-1"])
    assert code == 2
    assert err == "error: --max-stages must be at least 0, got -1\n"
    assert out.startswith("config:") and out.count("\n") == 1
    code, _, _ = run(capsys, argv + ["--max-stages", "0"])
    assert code == 3


def test_fold_output_round_trips(capsys, tmp_path):
    src = tmp_path / "src.txt"
    src.write_text("vertex u\nedge e1 : u -> u label a\n"
                   "edge e2 : u -> u label a\nbase u\n")
    tgt = tmp_path / "rose.txt"
    tgt.write_text("vertex *\nedge a : * -> * label a\nbase *\n")
    mp = tmp_path / "m.txt"
    mp.write_text("vmap u *\nemap e1 a\nemap e2 a\n")
    out_path = tmp_path / "folded.txt"
    code, out, _ = run(capsys, ["fold", "--source", str(src), "--target",
                                str(tgt), "--map", str(mp), "--trace",
                                "--out", str(out_path)])
    assert code == 0
    folded = parse_complex(out_path.read_text())
    assert len(folded.skeleton.edges) == 1
    assert "identify dart e1 e2" in out
    assert format_complex(folded) == out_path.read_text()


def test_fold_rejects_non_morphism(capsys, tmp_path):
    src = tmp_path / "src.txt"
    src.write_text("vertex u\nedge e1 : u -> u label a\nbase u\n")
    tgt = tmp_path / "line.txt"
    tgt.write_text("vertex p\nvertex q\nedge c : p -> q label a\nbase p\n")
    mp = tmp_path / "m.txt"
    # e1 is a loop at u but its image dart is not a loop at vmap(u)
    mp.write_text("vmap u p\nemap e1 c\n")
    code, _, err = run(capsys, ["fold", "--source", str(src), "--target",
                                str(tgt), "--map", str(mp)])
    assert code == 2
    assert err == (f"error: {mp}: not a morphism: dart ('e1', -1) breaks "
                   "origin commutation\n")


def test_fold_map_with_an_unmapped_edge_is_a_usage_error(capsys, tmp_path):
    # it once exited 1, as if the fold had broken an invariant
    src = tmp_path / "src.txt"
    src.write_text("vertex p\nedge a : p -> p label a\n"
                   "edge b : p -> p label b\nbase p\n")
    tgt = tmp_path / "rose.txt"
    tgt.write_text("vertex *\nedge a : * -> * label a\n"
                   "edge b : * -> * label b\nbase *\n")
    mp = tmp_path / "m.txt"
    mp.write_text("vmap p *\nemap a a\n")
    code, out, err = run(capsys, ["fold", "--source", str(src), "--target",
                                  str(tgt), "--map", str(mp)])
    assert code == 2
    assert err == f"error: {mp}: not a morphism: edge b has no image\n"
    assert out.startswith("config:") and out.count("\n") == 1


@pytest.mark.parametrize("extra, witness", STRAY_ENTRIES.values(),
                         ids=STRAY_ENTRIES)
def test_fold_map_with_a_stray_entry_is_a_usage_error(capsys, tmp_path,
                                                      extra, witness):
    # it once exited 1 with "fold composite drifted"
    src = tmp_path / "src.txt"
    src.write_text("vertex u\nedge e1 : u -> u label a\nbase u\n")
    tgt = tmp_path / "rose.txt"
    tgt.write_text("vertex *\nedge a : * -> * label a\nbase *\n")
    mp = tmp_path / "m.txt"
    mp.write_text("vmap u *\nemap e1 a\n" + extra)
    code, out, err = run(capsys, ["fold", "--source", str(src), "--target",
                                  str(tgt), "--map", str(mp)])
    assert code == 2
    assert err == f"error: {mp}: not a morphism: {witness}\n"
    assert out.startswith("config:") and out.count("\n") == 1


def test_stacking_check_good(capsys, tmp_path):
    y = tmp_path / "y.txt"
    y.write_text(COVER_COMPLEX)
    s = tmp_path / "s.txt"
    s.write_text("h f0 0 0\nh f0 1 1\nh f0 2 2\nh f0 3 3\n")
    code, out, _ = run(capsys, ["stacking", "check", "--complex", str(y),
                                "--stacking", str(s)])
    assert code == 0
    assert "result: good" in out


def test_stacking_check_not_good(capsys, tmp_path):
    c = tmp_path / "two.txt"
    c.write_text("vertex v\nedge e : v -> v label a\ncell A : e\n"
                 "cell B : e\nbase v\n")
    s = tmp_path / "s.txt"
    s.write_text("h A 0 0\nh B 0 1\n")
    code, out, _ = run(capsys, ["stacking", "check", "--complex", str(c),
                                "--stacking", str(s)])
    assert code == 1
    assert "result: not_good" in out
    assert "error: component A has no global-maximum position" in out


TWO_CELLS_ON_ONE_LOOP = ("vertex v\nedge e : v -> v label a\ncell A : e\n"
                         "cell B : e\nbase v\n")


@pytest.mark.parametrize("domain, stacking, message", [
    ("--group", "", "no height for position ('w', 0); "
                    "no height for position ('w', 1)"),
    ("--group", "h w 0 1\nh w 1 2\nh w 5 3\n",
     "height for unknown position ('w', 5)"),
    ("--complex", "h A 0 1\nh B 0 1\n",
     "positions ('A', 0) and ('B', 0) over edge e share height 1"),
], ids=["empty", "unknown-position", "shared-height"])
def test_an_invalid_stacking_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                              domain, stacking, message):
    # each once exited 1, as if the stacking were merely not good
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text(GROUP)
    Path("c.txt").write_text(TWO_CELLS_ON_ONE_LOOP)
    Path("s.txt").write_text(stacking)
    base = "g.txt" if domain == "--group" else "c.txt"
    code, out, err = run(capsys, ["stacking", "check", domain, base,
                                  "--stacking", "s.txt"])
    assert code == 2
    assert err == f"error: s.txt: stacking is not an embedding: {message}\n"
    assert out.startswith("config:") and out.count("\n") == 1


@pytest.mark.parametrize("domain, base, stacking, message", [
    ("--complex", "vertex v\nedge e : v -> v label a\ncell c : e e\nbase v\n",
     "h c 0 0\nh c 1 1\n",
     "strands cross at vertex v: passages ('c', 0) < ('c', 1) < ('c', 0)"),
    ("--group", GROUP.replace("relator a b", "relator a a a b"),
     "h w 0 0\nh w 1 2\nh w 2 1\nh w 3 0\n",
     "strands cross at vertex *: passages ('w', 1) < ('w', 3) < ('w', 2)"
     " < ('w', 1)"),
], ids=["loop-twice", "relator"])
def test_strands_that_cross_at_a_vertex_are_a_usage_error(
        tmp_path, capsys, monkeypatch, domain, base, stacking, message):
    # heights distinct over each edge, yet no embedding: once "good"
    monkeypatch.chdir(tmp_path)
    Path("d.txt").write_text(base)
    Path("s.txt").write_text(stacking)
    code, out, err = run(capsys, ["stacking", "check", domain, "d.txt",
                                  "--stacking", "s.txt"])
    assert code == 2
    assert err == f"error: s.txt: stacking is not an embedding: {message}\n"
    assert out.startswith("config:") and out.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["export", "dot", "--complex", "y.txt"],
    ["fold", "--source", "y.txt", "--target", "rose.txt", "--map", "m.txt"],
    ["stacking", "check", "--complex", "y.txt", "--stacking", "s.txt"],
    ["audit", "wcycles", "--group", "g.txt", "--complex", "y.txt",
     "--map", "m.txt"],
], ids=["export-dot", "fold", "stacking-check", "audit-map"])
def test_a_complex_naming_a_missing_vertex_is_a_usage_error(
        tmp_path, capsys, monkeypatch, argv):
    # the complex reader once raised past the usage check, and each exited 1
    monkeypatch.chdir(tmp_path)
    Path("y.txt").write_text(
        COVER_COMPLEX.replace("edge a0 : p0 -> p1", "edge a0 : p0 -> p9"))
    Path("rose.txt").write_text("vertex *\nedge a : * -> * label a\n"
                                "edge b : * -> * label b\nbase *\n")
    Path("m.txt").write_text(COVER_MAP)
    Path("s.txt").write_text("h f0 0 0\nh f0 1 1\nh f0 2 2\nh f0 3 3\n")
    Path("g.txt").write_text(GROUP)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith(
        "error: y.txt: edge a0 references missing vertex p9; ")
    assert out.startswith("config:") and out.count("\n") == 1


def test_stacking_check_orbicomplex_domain(group_file, capsys, tmp_path):
    s = tmp_path / "s.txt"
    s.write_text("h w 0 0\nh w 1 1/2\n")
    code, out, _ = run(capsys, ["stacking", "check", "--group", group_file,
                                "--stacking", str(s)])
    assert code == 0
    assert "branched: 1" in out
    assert "result: good" in out


@pytest.mark.parametrize("domain, base, stacking, branched", [
    ("--group", GROUP, "h w 0 0\nh w 1 1/2\n", 1),
    ("--group", GROUP.replace("branch 2", "branch 1"),
     "h w 0 0\nh w 1 1/2\n", 0),
    ("--complex", "vertex v\nedge e : v -> v label a\ncell c : e\nbase v\n",
     "h c 0 0\n", 0),
], ids=["group-n2", "group-n1", "complex"])
def test_stacking_check_prints_branched_only_for_a_branched_group(
        tmp_path, capsys, monkeypatch, domain, base, stacking, branched):
    # branched means a group file with branch index at least 2; a complex
    # or a group with n = 1 carries no cone point
    monkeypatch.chdir(tmp_path)
    Path("d.txt").write_text(base)
    Path("s.txt").write_text(stacking)
    code, out, err = run(capsys, ["stacking", "check", domain, "d.txt",
                                  "--stacking", "s.txt"])
    given = ("complex=None group=d.txt" if domain == "--group"
             else "complex=d.txt group=None")
    assert (code, err) == (0, "")
    assert out == (f"config: stacking check {given} stacking=s.txt\n"
                   f"branched: {branched}\nresult: good\n")


def test_stacking_check_requires_one_domain(group_file, capsys, tmp_path):
    # an empty path names a domain all the same, one that cannot be read
    s = tmp_path / "s.txt"
    s.write_text("h w 0 0\nh w 1 1/2\n")
    for domain in ([], ["--group", ""], ["--complex", ""]):
        code, _, err = run(capsys, ["stacking", "check", *domain,
                                    "--stacking", str(s)])
        assert code == 2, domain
        assert err.startswith("error:")


def test_export_dot_accepts_cover_file(group_file, capsys, tmp_path):
    cover_path = tmp_path / "x0.txt"
    run(capsys, ["cover", "build", "--group", group_file, "--seed", "0",
                 "--out", str(cover_path)])
    dot_path = tmp_path / "x0.dot"
    code, _, _ = run(capsys, ["export", "dot", "--complex", str(cover_path),
                              "--out", str(dot_path)])
    assert code == 0
    text = dot_path.read_text()
    assert text.startswith("digraph x0 {")
    assert "doublecircle" in text
    assert "sides=1" in text


def test_unknown_flag_is_usage_error(group_file, capsys):
    code, _, err = run(capsys, ["cover", "build", "--group", group_file,
                                "--bogus"])
    assert code == 2
    assert "error:" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["group"])[0] == 2


def test_seed_defaults_to_zero_and_the_flag_sets_it(group_file, capsys):
    _, out_default, _ = run(capsys, ["cover", "build", "--group", group_file])
    assert "seed=0" in out_default.splitlines()[0]
    _, out_flag, _ = run(capsys, ["cover", "build", "--group", group_file,
                                  "--seed", "3"])
    assert "seed=3" in out_flag.splitlines()[0]


def test_identical_invocations_are_byte_identical(group_file, capsys,
                                                  tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["subgroup", "present", "--group", group_file, "--gens", "a a",
            "--max-word-len", "6", "--seed", "2"]
    code1, out1, _ = run(capsys, argv + ["--out", str(a)])
    code2, out2, _ = run(capsys, argv + ["--out", str(b)])
    assert code1 == code2
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()
