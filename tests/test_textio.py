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
                           format_cover, format_dart_path, format_fold_trace,
                           format_morphism, format_orbi_morphism,
                           format_orbicomplex, format_presentation,
                           format_quotient, parse_complex, parse_cover_file,
                           parse_dart_path, parse_fold_trace, parse_morphism,
                           parse_orbi_morphism, parse_orbicomplex,
                           parse_presentation, parse_quotient, pipeline_csv)
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


def test_comments_and_blank_lines_are_ignored():
    c = parse_complex("# header\nvertex v\n\nedge e : v -> v label a # loop\n"
                      "base v\n")
    assert c.skeleton.edges["e"].label == "a"


def test_dart_path_syntax():
    assert parse_dart_path(["e1", "e2~", "e3"]) == (("e1", 1), ("e2", -1),
                                                    ("e3", 1))
    assert format_dart_path((("e1", 1), ("e2", -1))) == "e1 e2~"


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
        rows=(StageRow(0, -2, -2, 0, 4, 7), StageRow(1, -1, -1, 0, 3, 0)),
        notes=())
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
