"""End-to-end command-line tests: exit codes, reason lines, round-trips."""

import hashlib

import pytest

from orelco.cli import main
from orelco.covers import build_unwrapped_cover, find_exponent_n_quotient
from orelco.textio import (format_complex, format_cover, parse_complex,
                           parse_cover_file, parse_presentation)

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
                                  "--word", "c"])
    assert code == 2
    assert err.startswith("error:")
    assert "result:" not in out


def test_word_solve_unreduced_word_is_usage_error(group_file, capsys):
    code, out, err = run(capsys, ["word", "solve", "--group", group_file,
                                  "--word", "a a~"])
    assert code == 2
    assert err.startswith("error:") and "freely reduced" in err
    assert "result:" not in out


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
    assert err.startswith("error:")


def test_subgroup_present_conclusive(group_file, capsys, tmp_path):
    out_path = tmp_path / "pres.txt"
    code, out, _ = run(capsys, ["subgroup", "present", "--group", group_file,
                                "--gens", "b ; a a ; a b a~",
                                "--out", str(out_path)])
    assert code == 0
    symbols, relators = parse_presentation(out_path.read_text())
    assert len(symbols) == 2
    assert relators == ()
    assert "stage 1:" in out


def test_subgroup_present_budget_exhausted_exits_3(group_file, capsys,
                                                   tmp_path):
    out_path = tmp_path / "pres.txt"
    code, out, _ = run(capsys, ["subgroup", "present", "--group", group_file,
                                "--gens", "b ; a a ; a b a~",
                                "--max-stages", "0", "--out", str(out_path)])
    assert code == 3
    assert "error: presentation is inconclusive" in out
    symbols, _ = parse_presentation(out_path.read_text())
    assert symbols  # a presentation is still emitted

def test_subgroup_present_bad_gens_token_is_usage_error(group_file, capsys):
    code, out, err = run(capsys, ["subgroup", "present", "--group",
                                  group_file, "--gens", "a ; b~~"])
    assert code == 2
    assert err.startswith("error: --gens:") and "'b~~'" in err
    assert out.startswith("config:") and out.count("\n") == 1


def test_subgroup_present_csv_report(group_file, capsys):
    code, out, _ = run(capsys, ["subgroup", "present", "--group", group_file,
                                "--gens", "a a", "--format", "csv"])
    assert code == 0
    assert "stage,chi1,chi2,cells,free_edges,cursor,stable_for" in out


def test_audit_single_immersion(group_file, capsys, tmp_path):
    y = tmp_path / "y.txt"
    y.write_text(COVER_COMPLEX)
    m = tmp_path / "m.txt"
    m.write_text(COVER_MAP)
    code, out, _ = run(capsys, ["audit", "wcycles", "--group", group_file,
                                "--complex", str(y), "--map", str(m),
                                "--format", "csv"])
    assert code == 0
    assert "y,-2,2,0,-1,1,0,1" in out


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


def test_audit_campaign_all_pass(group_file, capsys):
    code, out, _ = run(capsys, ["audit", "wcycles", "--group", group_file,
                                "--trials", "40", "--seed", "5"])
    assert code == 0
    assert "suite wcycles: 40/40" in out
    assert "suite fold: 40/40" in out
    assert "suite covers: 40/40" in out


@pytest.mark.parametrize("argv", [
    ["subgroup", "present", "--gens", "b ; a a", "--max-word-len", "0"],
    ["subgroup", "present", "--gens", "b ; a a", "--max-word-len", "-3"],
    ["audit", "wcycles", "--trials", "0"],
    ["audit", "wcycles", "--trials", "-5"],
])
def test_empty_budgets_are_usage_errors(group_file, capsys, argv):
    # a budget that tries nothing must not print a vacuous pass
    code, out, err = run(capsys, argv + ["--group", group_file])
    assert code == 2
    assert err.startswith("error: --") and "at least 1" in err
    assert out.startswith("config:") and out.count("\n") == 1


@pytest.mark.parametrize("flag,value", [
    ("--suites", "nosuch"),
    ("--vertex-budget", "0"),
    ("--attach-prob", "5"),
])
def test_out_of_range_campaign_flags_are_usage_errors(group_file, capsys,
                                                      flag, value):
    # each once ran: a vacuous 0/0 pass, a randrange error with exit 1, and
    # a pass with every cell attached
    code, out, err = run(capsys, ["audit", "wcycles", "--group", group_file,
                                  "--trials", "20", flag, value])
    assert code == 2
    assert err.startswith(f"error: {flag} ")
    assert out.startswith("config:") and out.count("\n") == 1


def test_audit_campaign_csv_deterministic(group_file, capsys):
    argv = ["audit", "wcycles", "--group", group_file, "--trials", "25",
            "--seed", "9", "--format", "csv"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert hashlib.sha256(out1.encode()).digest() == \
        hashlib.sha256(out2.encode()).digest()


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
    assert code == 1
    assert err.startswith("error:")


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


def test_stacking_check_orbicomplex_domain(group_file, capsys, tmp_path):
    s = tmp_path / "s.txt"
    s.write_text("h w 0 0\nh w 1 1/2\n")
    code, out, _ = run(capsys, ["stacking", "check", "--group", group_file,
                                "--stacking", str(s)])
    assert code == 0
    assert "branched: 1" in out
    assert "result: good" in out


def test_stacking_check_requires_one_domain(group_file, capsys, tmp_path):
    s = tmp_path / "s.txt"
    s.write_text("h w 0 0\nh w 1 1/2\n")
    code, _, err = run(capsys, ["stacking", "check", "--stacking", str(s)])
    assert code == 2
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


def test_seed_env_fallback_and_flag_precedence(group_file, capsys,
                                               monkeypatch):
    monkeypatch.setenv("ORELCO_SEED", "7")
    _, out_env, _ = run(capsys, ["cover", "build", "--group", group_file])
    assert "seed=7" in out_env.splitlines()[0]
    _, out_flag, _ = run(capsys, ["cover", "build", "--group", group_file,
                                  "--seed", "3"])
    assert "seed=3" in out_flag.splitlines()[0]


def test_bad_seed_env_is_usage_error(group_file, capsys, monkeypatch):
    monkeypatch.setenv("ORELCO_SEED", "notanint")
    code, _, err = run(capsys, ["cover", "build", "--group", group_file])
    assert code == 2
    assert "ORELCO_SEED" in err


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
