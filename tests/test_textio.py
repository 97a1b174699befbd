"""Text formats: parsing, serialization, bit-exact round-trips."""

import pytest

from orelco.complexes import (CellImage, CellMorphism, EdgeRec, Graph,
                              TwoComplex, identity_morphism)
from orelco.covers import (FiniteQuotient, build_unwrapped_cover,
                           find_exponent_n_quotient)
from orelco.folding import fold
from orelco.orbicomplex import build_orbicomplex, by_labels, wcycles_audit
from orelco.pipeline import PipelineReport, StageRow
from orelco.textio import (audit_csv, export_dot, format_complex,
                           format_cover, format_fold_trace, format_morphism,
                           format_presentation, format_quotient,
                           parse_complex, parse_cover_file, parse_morphism,
                           parse_orbi_morphism, parse_orbicomplex,
                           parse_stacking, pipeline_csv)
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


def test_a_complex_without_a_base_is_not_written():
    # it was once written with "base None", which the parser then refused
    g = Graph(frozenset({"v"}), {"a": EdgeRec("v", "v", "a")})
    with pytest.raises(ValueError, match="needs a base vertex"):
        format_complex(TwoComplex(g, {}))


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
    (parse_cover_file, "vertex p0\nbase p0\nfamily f0 : 0\nfamily f0 : 1\n",
     "line 4: duplicate family f0"),
], ids=["complex-base", "group-relator", "group-branch", "cover-family"])
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
    (lambda text: parse_stacking(text, parse_complex(LOOP)), "h f z 1\n",
     "line 1: cannot read 'z' as an integer"),
    (lambda text: parse_stacking(text, parse_complex(LOOP)), "h f 0 1/0\n",
     "line 1: cannot read '1/0' as a rational"),
    (lambda text: parse_morphism(text, parse_complex(LOOP), ROSE_A),
     "cmap f w rot=0 orient=*\n", "line 1: orientation must be + or -, got *"),
    (lambda text: parse_morphism(text, parse_complex(LOOP), ROSE_A),
     "vmap v *\nwidget w\n", "line 2: unknown declaration 'widget'"),
], ids=["family", "cmap-rot", "cell-dart", "emap-dart", "relator",
        "height-position", "height-zero-division", "cmap-orient",
        "morphism-keyword"])
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
    (parse_complex, "vertex v\ncell f e\nbase v\n",
     "line 2: malformed cell line: cell f e"),
    (lambda text: parse_stacking(text, parse_complex(LOOP)), "h f 0\n",
     "line 1: malformed height line: h f 0"),
], ids=["vertex", "base", "vmap", "emap", "cmap", "cell", "height"])
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
    (format_fold_trace, [("edge", "e1", "e2")],
     "unknown trace entry ('edge', 'e1', 'e2')"),
], ids=["trace-entry"])
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


def test_orbi_morphism_reads_literal_text():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    y = sample_complex()
    maps = "vmap p *\nvmap q *\nemap a0 a\nemap a1 a\nemap b0 b\nemap b1 b~\n"
    vertex_map = {"p": "*", "q": "*"}
    edge_map = {"a0": ("a", 1), "a1": ("a", 1), "b0": ("b", 1),
                "b1": ("b", -1)}
    for cmap, align in (("rot=0 orient=+", (0, 1)),
                        ("rot=3 orient=-", (3, -1))):
        m = parse_orbi_morphism(maps + f"cmap f w {cmap}\n", y, x)
        assert m == CellMorphism(y, x.presentation_complex, vertex_map,
                                 edge_map, {"f": CellImage("d0", *align)})


def test_a_label_map_file_parses_to_the_map_by_labels():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    y = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0)).cover
    text = ("".join(f"vmap {v} *\n" for v in sorted(y.skeleton.vertices))
            + "".join(f"emap {e} {rec.label}\n"
                      for e, rec in sorted(y.skeleton.edges.items()))
            + "".join(f"cmap {c} w rot=0 orient=+\n" for c in sorted(y.cells)))
    m = parse_orbi_morphism(text, y, x)
    assert m == by_labels(y, x)
    assert m.target is x.presentation_complex


def test_orbi_morphism_parser_refuses_the_disk_name():
    # the file names the orbicell w; d0 is only the presentation complex's
    # name for its disk
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    y = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0)).cover
    with pytest.raises(ValueError) as err:
        parse_orbi_morphism("cmap f0 d0 rot=0 orient=+\n", y, x)
    assert str(err.value) == "cmap f0: the orbicell is named 'w', got 'd0'"


def test_orbi_morphism_parser_rejects_other_cell_names():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    c = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0)).cover
    with pytest.raises(ValueError):
        parse_orbi_morphism("cmap c f rot=0 orient=+\n", c, x)


def test_orbicomplex_reads_literal_text():
    x = parse_orbicomplex("vertex *\nedge a : * -> * label a\n"
                          "edge b : * -> * label b\nrelator a b a b~\n"
                          "branch 3\n")
    assert x == build_orbicomplex(Graph.rose("ab"), W("a b a b~"), 3)


def test_orbicomplex_parser_requires_relator_and_branch():
    with pytest.raises(ValueError, match="relator and branch"):
        parse_orbicomplex("vertex * \nedge a : * -> * label a\n")


def test_quotient_text_is_pinned():
    q = FiniteQuotient(3, {"b": (1, 2, 0), "a": (0, 2, 1)})
    assert format_quotient(q) == "degree 3\nperm a : 0 2 1\nperm b : 1 2 0\n"


def test_cover_file_round_trip():
    x = build_orbicomplex(Graph.rose("ab"), W("a b"), 2)
    cover = build_unwrapped_cover(x, find_exponent_n_quotient(x, 4, 0))
    text = format_cover(cover)
    assert any(line.startswith("family f0 :") for line in text.splitlines())
    c, families = parse_cover_file(text)
    assert c == cover.cover
    assert families == cover.families


def test_presentation_text_is_pinned():
    text = format_presentation(("x1", "x2"), (W("x1 x2 x1~"), W("x2 x2")))
    assert text == "gens: x1 x2 ; rels: x1 x2 x1~ ; x2 x2\n"
    assert format_presentation(("x1",), ()) == "gens: x1 ; rels:\n"
    # the trivial subgroup once read `gens:  ; rels:`, with two spaces
    assert format_presentation((), ()) == "gens: ; rels:\n"


def test_fold_trace_text_is_pinned():
    # e2 runs into v and maps to a~, so it leaves v over a like e1
    g = Graph(frozenset({"v", "w1", "w2"}),
              {"e1": EdgeRec("v", "w1", "a"), "e2": EdgeRec("w2", "v", None)})
    y = TwoComplex(g, {}, base_vertex="v")
    rose = TwoComplex(Graph.rose("ab"), {}, base_vertex="*")
    m = CellMorphism(y, rose, {"v": "*", "w1": "*", "w2": "*"},
                     {"e1": ("a", 1), "e2": ("a", -1)}, {})
    res = fold(m)
    assert res.trace == (("dart", ("e1", 1), ("e2", -1)),)
    assert format_fold_trace(res.trace) == "identify dart e1 e2~\n"


def test_fold_trace_text_of_a_cell_merge():
    y = parse_complex("vertex v\nedge e : v -> v label a\ncell f : e\n"
                      "cell g : e\nbase v\n")
    m = CellMorphism(y, ROSE_A, {"v": "*"}, {"e": ("a", 1)},
                     {"f": CellImage("w", 0, 1), "g": CellImage("w", 0, 1)})
    res = fold(m)
    assert res.trace == (("cell", "f", "g"),)
    assert format_fold_trace(res.trace) == "identify cell f g\n"


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
