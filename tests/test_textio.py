"""Text formats: parsing, serialization, bit-exact round-trips."""

from dataclasses import replace

import pytest

from orelco.complexes import (CellImage, CellMorphism, EdgeRec, Graph,
                              TwoComplex, identity_morphism)
from orelco.covers import build_unwrapped_cover, find_exponent_n_quotient
from orelco.folding import fold
from orelco.orbicomplex import build_orbicomplex, wcycles_audit
from orelco.pipeline import PipelineReport, StageRow, present_subgroup
from orelco.textio import (audit_csv, export_dot, format_complex,
                           format_cover, format_fold_trace, format_morphism,
                           format_orbi_morphism, format_orbicomplex,
                           format_presentation, format_quotient,
                           parse_complex, parse_cover_file, parse_fold_trace,
                           parse_morphism, parse_orbi_morphism,
                           parse_orbicomplex, parse_presentation,
                           parse_quotient, parse_stacking, pipeline_csv)
from orelco.words import parse_word

W = parse_word


def sample_complex():
    g = Graph(frozenset({"p", "q"}),
              {"a0": EdgeRec("p", "q", "a"), "a1": EdgeRec("q", "p", "a"),
               "b0": EdgeRec("p", "p", "b"), "b1": EdgeRec("q", "q", None)})
    cells = {"f": (("a0", 1), ("b1", 1), ("a1", 1), ("b0", 1))}
    return TwoComplex(g, cells, base_vertex="p")


def test_complex_round_trip_is_bit_exact():
    c = sample_complex()
    text = format_complex(c)
    again = parse_complex(text)
    assert again == c
    assert format_complex(again) == text
    assert "edge b1 : q -> q\n" in text  # unlabeled edge has no label clause
    assert text.endswith("base p\n")


def test_complex_parser_rejects_malformed_lines():
    with pytest.raises(ValueError, match="missing its base"):
        parse_complex("vertex v\n")
    with pytest.raises(ValueError, match="malformed edge"):
        parse_complex("edge e v -> w\nbase v\n")
    with pytest.raises(ValueError, match="unknown declaration"):
        parse_complex("vertex v\nwidget w\nbase v\n")
    with pytest.raises(ValueError, match="duplicate edge"):
        parse_complex("vertex v\nedge e : v -> v\nedge e : v -> v\nbase v\n")


@pytest.mark.parametrize("parse, text, message", [
    (parse_complex, "vertex v\nbase v\nbase w\n", "line 3: duplicate base"),
    (parse_orbicomplex, "vertex *\nedge a : * -> * label a\nrelator a\n"
     "relator a a~ a\nbranch 2\n", "line 4: duplicate relator"),
    (parse_orbicomplex, "vertex *\nedge a : * -> * label a\nrelator a\n"
     "branch 2\nbranch 3\n", "line 5: duplicate branch"),
    (parse_quotient, "degree 2\ndegree 2\nperm a : 1 0\n",
     "line 2: duplicate degree"),
    (parse_quotient, "degree 2\nperm a : 1 0\nperm a : 0 1\n",
     "line 3: duplicate perm a"),
    (parse_cover_file, "vertex p0\nbase p0\nfamily f0 : 0\nfamily f0 : 1\n",
     "line 4: duplicate family f0"),
], ids=["complex-base", "group-relator", "group-branch", "quotient-degree",
        "quotient-perm", "cover-family"])
def test_a_repeated_declaration_is_refused(parse, text, message):
    # each was once read over by its last value
    with pytest.raises(ValueError, match=message):
        parse(text)


@pytest.mark.parametrize("kind, lines", [
    ("vmap", "vmap v *\nvmap v *\n"),
    ("emap", "vmap v *\nemap e a\nemap e a~\n"),
    ("cmap", "cmap f w rot=0 orient=+\ncmap f w rot=1 orient=+\n"),
], ids=["vmap", "emap", "cmap"])
def test_a_repeated_map_declaration_is_refused(kind, lines):
    c = parse_complex("vertex v\nedge e : v -> v label a\ncell f : e e\n"
                      "base v\n")
    target = TwoComplex(Graph.rose("a"), {"w": (("a", 1),)})
    with pytest.raises(ValueError, match=f"duplicate {kind} "):
        parse_morphism(lines, c, target)


def test_complex_parser_refuses_a_missing_vertex_as_a_value_error():
    # an InvalidComplexError once slipped past the command line's usage check
    with pytest.raises(ValueError, match="edge a0 references missing vertex p9"):
        parse_complex("vertex p0\nedge a0 : p0 -> p9\nbase p0\n")


@pytest.mark.parametrize("text, message", [
    ("vertex p0\nbase p0\nfamily f0 : 0\nwidget w\n",
     "line 4: unknown declaration 'widget'"),
    ("vertex p0\nbase p0\nfamily f0 0\n", "line 3: malformed family line"),
], ids=["after-family", "family"])
def test_cover_file_faults_carry_their_own_line(text, message):
    # the family lines were once cut out and the rest parsed again, which
    # moved every later line number up by one
    with pytest.raises(ValueError, match=message):
        parse_cover_file(text)


ROSE_A = TwoComplex(Graph.rose("a"), {"w": (("a", 1),)})
LOOP = "vertex v\nedge e : v -> v label a\ncell f : e e\nbase v\n"


@pytest.mark.parametrize("parse, text, message", [
    (parse_quotient, "degree x\n", "line 1: cannot read 'x' as an integer"),
    (parse_quotient, "degree 2\nperm a : 1 y\n",
     "line 2: cannot read 'y' as an integer"),
    (parse_cover_file, "vertex p0\nbase p0\nfamily f0 : x\n",
     "line 3: cannot read 'x' as an integer"),
    (lambda text: parse_morphism(text, parse_complex(LOOP), ROSE_A),
     "vmap v *\ncmap f w rot=1.5 orient=+\n",
     "line 2: cannot read '1.5' as an integer"),
    (parse_complex, "vertex v\nedge e : v -> v\ncell f : e~~\nbase v\n",
     "line 3: cannot read 'e~~' as a word"),
    (lambda text: parse_morphism(text, parse_complex(LOOP), ROSE_A),
     "emap e ~\n", "line 1: cannot read '~' as a dart"),
    (parse_orbicomplex, "vertex *\nedge a : * -> * label a\nrelator a ~a\n"
     "branch 2\n", "line 3: cannot read 'a ~a' as a word"),
    (parse_fold_trace, "identify dart e1 e2~~\n",
     "line 1: cannot read 'e1 e2~~' as a word"),
    (lambda text: parse_stacking(text, parse_complex(LOOP)), "h f z 1\n",
     "line 1: cannot read 'z' as an integer"),
    (lambda text: parse_stacking(text, parse_complex(LOOP)), "h f 0 1/0\n",
     "line 1: cannot read '1/0' as a rational"),
    (lambda text: parse_morphism(text, parse_complex(LOOP), ROSE_A),
     "cmap f w rot=0 orient=*\n", "line 1: orientation must be + or -, got *"),
    (lambda text: parse_morphism(text, parse_complex(LOOP), ROSE_A),
     "vmap v *\nwidget w\n", "line 2: unknown declaration 'widget'"),
    (parse_quotient, "degree 2\nwidget w\n",
     "line 2: unknown declaration 'widget'"),
    (parse_fold_trace, "identify edge e1 e2\n",
     "line 1: unknown identification 'edge'"),
], ids=["degree", "perm", "family", "cmap-rot", "cell-dart", "emap-dart",
        "relator", "trace-dart", "height-position", "height-zero-division",
        "cmap-orient", "morphism-keyword", "quotient-keyword", "trace-kind"])
def test_a_field_that_does_not_parse_names_its_line(parse, text, message):
    # the number and word rows each raised the bare int(), Fraction() or
    # parse_word error, with no line number, and 1/0 escaped as a
    # ZeroDivisionError
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


def _map_onto_rose(text):
    return parse_morphism(text, parse_complex(LOOP), ROSE_A)


@pytest.mark.parametrize("parse, text, message", [
    (parse_complex, "vertex a b\nbase a\n",
     "line 1: malformed vertex line: vertex a b"),
    (parse_complex, "vertex v\nbase\n", "line 2: malformed base line: base"),
    (_map_onto_rose, "vmap p\n", "line 1: malformed vmap line: vmap p"),
    (_map_onto_rose, "emap e a b\n", "line 1: malformed emap line: emap e a b"),
    (_map_onto_rose, "cmap c d0 rot=0\n",
     "line 1: malformed cmap line: cmap c d0 rot=0"),
    (parse_quotient, "degree 2 3\n",
     "line 1: malformed degree line: degree 2 3"),
    (parse_complex, "vertex v\ncell f e\nbase v\n",
     "line 2: malformed cell line: cell f e"),
    (parse_quotient, "degree 2\nperm a 1 0\n",
     "line 2: malformed perm line: perm a 1 0"),
    (lambda text: parse_stacking(text, parse_complex(LOOP)), "h f 0\n",
     "line 1: malformed height line: h f 0"),
    (parse_fold_trace, "identify dart e1\n",
     "line 1: malformed trace line: identify dart e1"),
], ids=["vertex", "base", "vmap", "emap", "cmap", "degree", "cell", "perm",
        "height", "trace"])
def test_a_known_keyword_with_the_wrong_arity_is_malformed(parse, text,
                                                           message):
    # each was once reported as an unknown declaration
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


def test_a_keyword_the_format_lacks_stays_unknown():
    group = "vertex *\nedge a : * -> * label a\nrelator a\nbranch 2\n"
    with pytest.raises(ValueError, match="line 5: unknown declaration 'base'"):
        parse_orbicomplex(group + "base *\n")


@pytest.mark.parametrize("branch, message", [
    ("branch \u00b2", "line 4: cannot read '\u00b2' as an integer"),
    ("branch 2 3", "line 4: branch takes one integer"),
], ids=["superscript", "arity"])
def test_a_branch_line_that_does_not_read_names_its_line(branch, message):
    # str.isdigit accepts a superscript two, which int() then refused with
    # no line number
    with pytest.raises(ValueError) as info:
        parse_orbicomplex("vertex *\nedge a : * -> * label a\nrelator a\n"
                          f"{branch}\n")
    assert str(info.value) == message


@pytest.mark.parametrize("parse, given, message", [
    (parse_quotient, "perm a : 0\n", "quotient file is missing its degree line"),
    (parse_presentation, "rels: a\n",
     "presentation must read `gens: ... ; rels: ...`"),
    (parse_presentation, "gens: a ; a\n",
     "presentation must read `gens: ... ; rels: ...`"),
    (format_fold_trace, [("edge", "e1", "e2")],
     "unknown trace entry ('edge', 'e1', 'e2')"),
], ids=["quotient-degree", "presentation-gens", "presentation-rels",
        "trace-entry"])
def test_a_whole_text_fault_is_refused(parse, given, message):
    with pytest.raises(ValueError) as info:
        parse(given)
    assert str(info.value) == message


def test_a_repeated_vertex_line_is_allowed():
    c = parse_complex("vertex v\nvertex v\nbase v\n")
    assert c.skeleton.vertices == frozenset({"v"})


def test_comments_and_blank_lines_are_ignored():
    c = parse_complex("# header\nvertex v\n\nedge e : v -> v label a # loop\n"
                      "base v\n")
    assert c.skeleton.edges["e"].label == "a"


def test_morphism_round_trip():
    c = sample_complex()
    m = identity_morphism(c)
    text = format_morphism(m)
    assert "emap a0 a0\n" in text
    assert "cmap f f rot=0 orient=+\n" in text
    again = parse_morphism(text, c, c)
    assert again == m
    assert format_morphism(again) == text


def test_morphism_reversal_and_negative_orientation():
    c = sample_complex()
    text = "vmap p p\nemap a0 a1~\ncmap f f rot=2 orient=-\n"
    m = parse_morphism(text, c, c)
    assert m.edge_map["a0"] == ("a1", -1)
    assert m.cell_map["f"] == CellImage("f", 2, -1)
    assert format_morphism(m) == text


def test_orbi_morphism_round_trip():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    m = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0)).covering_map
    for cell_align in ({"f0": (0, 1)}, {"f0": (3, -1)}):
        m = replace(m, cell_align=cell_align)
        text = format_orbi_morphism(m)
        offset, orient = cell_align["f0"]
        sign = "+" if orient > 0 else "-"
        assert f"cmap f0 w rot={offset} orient={sign}\n" in text
        again = parse_orbi_morphism(text, m.source, x)
        assert again == m
        assert format_orbi_morphism(again) == text


def test_orbi_morphism_parser_rejects_other_cell_names():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    c = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0)).cover
    with pytest.raises(ValueError):
        parse_orbi_morphism("cmap c f rot=0 orient=+\n", c, x)


def test_orbicomplex_round_trip():
    x = build_orbicomplex(Graph.rose("ab"), W("a b a b~"), 3)
    text = format_orbicomplex(x)
    assert "relator a b a b~\n" in text
    assert text.endswith("branch 3\n")
    again = parse_orbicomplex(text)
    assert again == x
    assert format_orbicomplex(again) == text


def test_orbicomplex_parser_requires_relator_and_branch():
    with pytest.raises(ValueError, match="relator and branch"):
        parse_orbicomplex("vertex * \nedge a : * -> * label a\n")


def test_quotient_round_trip():
    q = find_exponent_n_quotient(
        build_orbicomplex(Graph.rose("ab"), W("a b"), 2), 4, 0)
    text = format_quotient(q)
    assert text.startswith("degree 2\n")
    again = parse_quotient(text)
    assert again == q
    assert format_quotient(again) == text


def test_quotient_parser_checks_lengths():
    with pytest.raises(ValueError, match="expected 3"):
        parse_quotient("degree 3\nperm a : 0 1\n")


def test_cover_file_round_trip():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0))
    text = format_cover(cover)
    assert any(line.startswith("family f0 :") for line in text.splitlines())
    c, families = parse_cover_file(text)
    assert c == cover.cover
    assert families == cover.families


def test_presentation_round_trip():
    text = format_presentation(("x1", "x2"), (W("x1 x2 x1~"), W("x2 x2")))
    assert text == "gens: x1 x2 ; rels: x1 x2 x1~ ; x2 x2\n"
    symbols, relators = parse_presentation(text)
    assert symbols == ("x1", "x2")
    assert relators == (W("x1 x2 x1~"), W("x2 x2"))
    empty = format_presentation((), ())
    assert empty == "gens:  ; rels:\n" or empty == "gens: ; rels:\n"
    assert parse_presentation(empty) == ((), ())


def test_fold_trace_round_trip():
    g = Graph(frozenset({"v", "w1", "w2"}),
              {"e1": EdgeRec("v", "w1", "a"), "e2": EdgeRec("v", "w2", "a")})
    y = TwoComplex(g, {}, base_vertex="v")
    rose = TwoComplex(Graph.rose("ab"), {}, base_vertex="*")
    m = CellMorphism(y, rose, {"v": "*", "w1": "*", "w2": "*"},
                     {"e1": ("a", 1), "e2": ("a", 1)}, {})
    res = fold(m)
    assert res.trace
    text = format_fold_trace(res.trace)
    assert text.splitlines()[0].startswith("identify ")
    assert parse_fold_trace(text) == tuple(res.trace)


def test_fold_trace_round_trip_with_a_cell_merge():
    y = parse_complex("vertex v\nedge e : v -> v label a\ncell f : e\n"
                      "cell g : e\nbase v\n")
    m = CellMorphism(y, ROSE_A, {"v": "*"}, {"e": ("a", 1)},
                     {"f": CellImage("w", 0, 1), "g": CellImage("w", 0, 1)})
    res = fold(m)
    assert res.trace == (("cell", "f", "g"),)
    text = format_fold_trace(res.trace)
    assert text == "identify cell f g\n"
    assert parse_fold_trace(text) == res.trace


def test_audit_csv_schema():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0))
    audit = wcycles_audit(cover.covering_map)
    text = audit_csv([("x0", audit)])
    lines = text.splitlines()
    assert lines[0] == "id,chi1,deg,slack1,chi2,cells,slack2,pass"
    assert lines[1] == "x0,-2,2,0,-1,1,0,1"


def test_pipeline_csv_schema():
    report = PipelineReport(
        rows=(StageRow(0, -2, -2, 0, 4, 7), StageRow(1, -1, -1, 0, 3, 0)))
    text = pipeline_csv(report)
    assert text == ("stage,chi1,chi2,cells,free_edges,cursor,stable_for\n"
                    "0,-2,-2,0,4,7,7\n1,-1,-1,0,3,0,0\n")


def test_dot_export_annotates_labels_and_side_counts():
    c = sample_complex()
    dot = export_dot(c)
    assert dot.startswith("digraph complex {")
    assert '"p" [shape=doublecircle];' in dot
    assert '"p" -> "q" [label="a0:a sides=1"];' in dot
    assert dot.rstrip().endswith("}")


@pytest.mark.parametrize("name, header", [
    ("x0", "digraph x0 {"),
    ("my-cover", 'digraph "my-cover" {'),
    ("graph", 'digraph "graph" {'),
], ids=["identifier", "hyphen", "keyword"])
def test_dot_export_quotes_a_graph_name_that_is_not_an_identifier(name,
                                                                  header):
    assert export_dot(sample_complex(), name=name).splitlines()[0] == header


def test_dot_export_escapes_quotes_and_backslashes_in_names():
    c = parse_complex('vertex p\nvertex q"r\nedge e : p -> q"r label a\\b\n'
                      "base p\n")
    lines = export_dot(c).splitlines()
    assert '  "q\\"r" [shape=circle];' in lines
    assert '  "p" -> "q\\"r" [label="e:a\\\\b sides=0"];' in lines
