"""Disk diagram construction: boundary readout, reduction, cancellation."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orelco.complexes import Graph, MapKind, euler_characteristic
from orelco.diagrams import (VanKampenDiagram, _DiskBuilder, _replay_conjugates,
                             _symbol_table, build_reduced_diagram, find_mirror,
                             mirror_witness)
from orelco.errors import DiagramError
from orelco.orbicomplex import build_orbicomplex, check_orbi_immersion
from orelco.textio import format_complex
from orelco.words import DehnStep, free_reduce, inverse_word, parse_word

W = parse_word


def x_ab2():
    return build_orbicomplex(Graph.rose("ab"), (("a", 1), ("b", 1)), 2)


def assert_disk_accounting(d):
    """Every edge is carried exactly twice by cell sides plus boundary."""
    for e in d.diagram.skeleton.edges:
        sides = sum(1 for path in d.diagram.cells.values()
                    for dart in path if dart[0] == e)
        occ = sum(1 for dart in d.boundary if dart[0] == e)
        assert sides + occ == 2, e


def assert_well_formed(d, expected_word):
    assert d.boundary_word == expected_word
    assert mirror_witness(d) is None
    assert_disk_accounting(d)
    assert check_orbi_immersion(d.labeling).kind >= MapKind.MORPHISM
    assert euler_characteristic(d.diagram) == 1
    if d.boundary:
        g = d.diagram.skeleton
        assert g.dart_origin(d.boundary[0]) == d.diagram.base_vertex
        for prev, nxt in zip(d.boundary, d.boundary[1:]):
            assert g.dart_terminus(prev) == g.dart_origin(nxt)
        assert g.dart_terminus(d.boundary[-1]) == d.diagram.base_vertex


def test_relator_is_a_one_cell_disk():
    d = build_reduced_diagram(W("a b a b"), x_ab2())
    assert len(d.diagram.cells) == 1
    assert len(d.diagram.skeleton.edges) == 4
    assert_well_formed(d, W("a b a b"))


def test_double_relator_is_a_two_cell_wedge():
    u = W("a b a b a b a b")
    d = build_reduced_diagram(u, x_ab2())
    assert len(d.diagram.cells) == 2
    assert len(d.diagram.skeleton.edges) == 8
    assert len(d.diagram.skeleton.vertices) == 7
    assert_well_formed(d, u)


def test_unreduced_input_is_reduced_first():
    # (abab) a (baba) a~ concatenated; its free reduction is (ab)^4
    u = W("a b a b a b a b a a~")
    d = build_reduced_diagram(u, x_ab2())
    assert d.boundary_word == free_reduce(u) == W("a b a b a b a b")
    assert len(d.diagram.cells) == 2


def test_empty_word_gives_single_vertex():
    d = build_reduced_diagram((), x_ab2())
    assert len(d.diagram.skeleton.vertices) == 1
    assert not d.diagram.skeleton.edges
    assert not d.diagram.cells
    assert d.boundary == ()
    assert d.boundary_word == ()
    assert mirror_witness(d) is None


def test_cancelling_relator_pair_degenerates():
    u = W("a b a b b~ a~ b~ a~")
    d = build_reduced_diagram(u, x_ab2())
    assert not d.diagram.cells
    assert d.boundary_word == ()


def test_nontrivial_word_is_rejected():
    with pytest.raises(ValueError, match="nontrivial"):
        build_reduced_diagram(W("a b"), x_ab2())


def test_stem_sews_onto_second_disk():
    # trace: prefix a around one relator disk, then a bare relator disk;
    # the stem return edge cancels against the second disk's first edge
    u = W("a a b a b b a b")
    d = build_reduced_diagram(u, x_ab2())
    assert len(d.diagram.cells) == 2
    assert len(d.diagram.skeleton.edges) == 8
    assert_well_formed(d, u)


def mirror_pair_builder():
    """Two squares glued along one edge as exact mirror images."""
    b = _DiskBuilder("T")
    b.new_edge("g", "T", "r1", ("a", 1))
    b.new_edge("c1", "r1", "r2", ("b", 1))
    b.new_edge("c2", "r2", "r3", ("a", 1))
    b.new_edge("c3", "r3", "T", ("b", 1))
    b.new_edge("d1", "s1", "T", ("b", 1))
    b.new_edge("d2", "s2", "s1", ("a", 1))
    b.new_edge("d3", "r1", "s2", ("b", 1))
    b.cells["D0"] = [("g", 1), ("c1", 1), ("c2", 1), ("c3", 1)]
    b.cell_align["D0"] = (0, 1)
    b.cells["D1"] = [("g", -1), ("d1", -1), ("d2", -1), ("d3", -1)]
    b.cell_align["D1"] = (0, -1)
    b.boundary = [("c1", 1), ("c2", 1), ("c3", 1),
                  ("d1", -1), ("d2", -1), ("d3", -1)]
    return b


def test_mirror_pair_is_found_and_cancelled():
    b = mirror_pair_builder()
    b.check_disk()
    hit = find_mirror(b.snapshot())
    assert hit is not None and hit[0] == "g"
    b.cancel_mirror(hit)
    assert not b.cells
    b.sew()
    b.prune_dangling()
    assert b.vertices == {"T"}
    assert not b.edges
    assert b.boundary == []


def test_prune_keeps_carried_edges_and_rejects_a_second_component():
    b = _DiskBuilder("T")
    b.new_edge("g", "T", "U", ("a", 1))
    b.new_edge("h", "U", "V", ("b", 1))
    b.new_edge("k", "T", "W", ("a", 1))
    b.boundary = [("g", 1), ("h", 1), ("h", -1), ("g", -1)]
    b.prune_dangling()
    assert list(b.edges) == ["g", "h"]
    assert b.vertices == {"T", "U", "V"}
    b.new_edge("m", "X", "Y", ("b", 1))
    b.boundary += [("m", 1), ("m", -1)]
    with pytest.raises(DiagramError, match="disconnected"):
        b.prune_dangling()


def test_same_cell_mirror_is_a_hard_error():
    b = _DiskBuilder("T")
    b.new_edge("g", "T", "U", ("a", 1))
    b.new_edge("h", "T", "V", ("b", 1))
    b.cells["D0"] = [("g", 1), ("g", -1), ("h", 1), ("h", -1)]
    b.cell_align["D0"] = (0, 1)
    with pytest.raises(DiagramError, match="mirrors itself"):
        find_mirror(b.snapshot())


def test_mirror_witness_finds_the_uncancelled_pair():
    x = x_ab2()
    b = mirror_pair_builder()
    complex_, labeling = b.freeze(x, _symbol_table(x))
    d = VanKampenDiagram(complex_, tuple(b.boundary), b.readout(), labeling)
    assert mirror_witness(d) == ("g", "D0", 0, "D1", 0)


def test_step_off_its_rotation_is_a_diagram_error():
    # rotation 1 of (ab)^2 reads "b a b a", not the "a b a b" at position 0
    with pytest.raises(DiagramError, match="does not read its rotation"):
        _replay_conjugates(W("a b a b"), x_ab2(), (DehnStep(0, 4, 1, 1),))


def test_replay_check_survives_optimized_python():
    script = (
        "from orelco.complexes import Graph\n"
        "from orelco.diagrams import _replay_conjugates\n"
        "from orelco.errors import DiagramError\n"
        "from orelco.orbicomplex import build_orbicomplex\n"
        "from orelco.words import DehnStep, parse_word\n"
        "x = build_orbicomplex(Graph.rose('ab'), parse_word('a b'), 2)\n"
        "try:\n"
        "    _replay_conjugates(parse_word('a b a b'), x,"
        " (DehnStep(0, 4, 1, 1),))\n"
        "except DiagramError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('no DiagramError under -O')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_conjugate_product_corpus():
    x = x_ab2()
    q = x.relator_word() * 2
    conjugators = [W(t) for t in ["", "a", "b~", "a b", "b a~", "a b a"]]
    words = []
    for c1 in conjugators:
        for c2 in conjugators:
            for s1 in (1, -1):
                base1 = q if s1 > 0 else inverse_word(q)
                words.append(free_reduce(
                    c1 + base1 + inverse_word(c1)
                    + c2 + q + inverse_word(c2)))
    for u in words:
        d = build_reduced_diagram(u, x)
        assert_well_formed(d, u)


CORPUS_GROUPS = (("a b", 2), ("a b a b~", 2), ("a b", 3))
CORPUS_DIGEST = \
    "c409ae0122cd994a137cafc8bbef0ad3b3f2f419a9344b28976f225b932e4ab5"


def golden_corpus():
    """108 seeded products of 2-9 conjugates of ``w^(+-n)``, with stems of
    1-12 letters; the longer ones leave mirror pairs for the reducer."""
    rng = random.Random(1805)
    for rel, n in CORPUS_GROUPS:
        x = build_orbicomplex(Graph.rose("ab"), W(rel), n)
        q = x.relator_word() * n
        for stem_len in (1, 4, 8, 12):
            for k in (2, 5, 9):
                for _ in range(3):
                    product = []
                    for _ in range(k):
                        stem = tuple((rng.choice("ab"), rng.choice((1, -1)))
                                     for _ in range(stem_len))
                        body = q if rng.random() < 0.5 else inverse_word(q)
                        product += stem + body + inverse_word(stem)
                    yield x, free_reduce(product)


def test_diagram_corpus_is_byte_stable():
    # edge, vertex and cell names feed pipeline cell ids and digests, so
    # the whole diagram text is pinned, not just its shape
    h = hashlib.sha256()
    for x, u in golden_corpus():
        d = build_reduced_diagram(u, x)
        h.update(format_complex(d.diagram).encode())
        h.update(repr(d.boundary).encode())
        h.update(repr(sorted(d.labeling.cell_align.items())).encode())
    assert h.hexdigest() == CORPUS_DIGEST
