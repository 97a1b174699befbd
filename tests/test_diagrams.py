"""Disk diagram construction: boundary readout, reduction, cancellation."""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import compress
from pathlib import Path

import pytest

import orelco.complexes as complexes
import orelco.diagrams as diagrams
from orelco.complexes import (EdgeRec, Graph, MapKind, TwoComplex,
                              connected_components, dart_reverse,
                              euler_characteristic)
from orelco.diagrams import (VanKampenDiagram, _DiskBuilder,
                             _replay_conjugates, build_reduced_diagram,
                             find_mirror, mirror_witness)
from orelco.errors import DiagramError
from orelco.orbicomplex import (OneRelatorOrbicomplex, build_orbicomplex,
                                by_labels, check_orbi_immersion)
from orelco.textio import format_complex
from orelco.words import (DehnStep, dehn_solve, free_reduce, inverse_word,
                          parse_word)
from string_disk_builder import StringDiskBuilder, reference_build

W = parse_word


def x_ab2():
    return build_orbicomplex(Graph.rose("ab"), (("a", 1), ("b", 1)), 2)


def alignment(m):
    """Each cell's (offset, orientation) on the disk ``d0``."""
    assert {im.cell for im in m.cell_map.values()} <= {"d0"}
    return {cid: (im.offset, im.orient) for cid, im in m.cell_map.items()}


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


def test_a_letter_outside_the_rose_is_refused_before_any_build(monkeypatch):
    def no_build(*args):
        raise AssertionError("a lollipop was built")
    monkeypatch.setattr(_DiskBuilder, "add_lollipop", no_build)
    for text in ("c a b a b c~", "c c~", "a b a b c"):
        with pytest.raises(ValueError, match="letter 'c' is not a loop"):
            build_reduced_diagram(W(text), x_ab2())


@pytest.mark.parametrize("text", ["c c~ a b a b", "a b c c~ a b", "c c~ d"])
def test_a_foreign_letter_that_cancels_is_refused(text):
    # only a word that cancelled away entirely once had its letters checked
    with pytest.raises(ValueError, match="letter 'c' is not a loop"):
        build_reduced_diagram(W(text), x_ab2())


@pytest.mark.parametrize("text", ["", "a a~", "a b b~ a~"])
def test_a_word_that_cancels_away_bounds_one_vertex(text):
    x = x_ab2()
    point = TwoComplex(Graph(frozenset({"v0"}), {}), {}, base_vertex="v0")
    assert build_reduced_diagram(W(text), x) == VanKampenDiagram(
        point, (), (), by_labels(point, x))


def test_stem_sews_onto_second_disk():
    # trace: prefix a around one relator disk, then a bare relator disk;
    # the stem return edge cancels against the second disk's first edge
    u = W("a a b a b b a b")
    d = build_reduced_diagram(u, x_ab2())
    assert len(d.diagram.cells) == 2
    assert len(d.diagram.skeleton.edges) == 8
    assert_well_formed(d, u)


class Named:
    """A ``_DiskBuilder`` written with names: ``add`` makes an edge between
    named vertices, each vertex made at the first mention of its name, and
    ``darts`` turns (edge name, sign) pairs into the builder's darts."""

    def __init__(self, base):
        self.b = _DiskBuilder(base)
        self.vertex, self.edge = {base: 0}, {}

    def add(self, name, tail, head, sym):
        for v in (tail, head):
            if v not in self.vertex:
                (self.vertex[v],) = self.b.new_vertices([v], [""])
        (d,) = self.b.new_edges([name], [""], [self.vertex[tail],
                                               self.vertex[head]], ((sym, 1),))
        self.edge[name] = d >> 1

    def darts(self, pairs):
        return [2 * self.edge[e] + (s < 0) for e, s in pairs]


def named_builder(base, edges, cells, boundary):
    """A ``Named`` builder from (name, tail, head, symbol) edges, cells as
    id -> (dart pairs, alignment), and the boundary's dart pairs."""
    n = Named(base)
    for edge in edges:
        n.add(*edge)
    for cid, (path, align) in cells.items():
        n.b.cells[cid] = n.darts(path)
        n.b.cell_align[cid] = align
    n.b.boundary = n.darts(boundary)
    return n


def string_builder(base, edges, cells, boundary):
    """The same builder on ``StringDiskBuilder``, the reference."""
    b = StringDiskBuilder(base)
    for name, tail, head, sym in edges:
        b.new_edge(name, tail, head, (sym, 1))
    for cid, (path, align) in cells.items():
        b.cells[cid] = list(path)
        b.cell_align[cid] = align
    b.boundary = list(boundary)
    return b


def complex_of(b):
    return b.snapshot()[0]


def mirror_pair_builder():
    """Two squares glued along one edge as exact mirror images."""
    return named_builder(
        "T",
        (("g", "T", "r1", "a"), ("c1", "r1", "r2", "b"),
         ("c2", "r2", "r3", "a"), ("c3", "r3", "T", "b"),
         ("d1", "s1", "T", "b"), ("d2", "s2", "s1", "a"),
         ("d3", "r1", "s2", "b")),
        {"D0": ([("g", 1), ("c1", 1), ("c2", 1), ("c3", 1)], (0, 1)),
         "D1": ([("g", -1), ("d1", -1), ("d2", -1), ("d3", -1)], (0, -1))},
        [("c1", 1), ("c2", 1), ("c3", 1), ("d1", -1), ("d2", -1), ("d3", -1)])


def test_mirror_pair_is_found_and_cancelled():
    b = mirror_pair_builder().b
    b.check_disk()
    hit = find_mirror(complex_of(b))
    assert hit is not None and hit[0] == "g"
    b.cancel_mirrors(b.carried())
    assert not b.cells and not b.cell_align
    assert "g" not in complex_of(b).skeleton.edges
    b.sew(b.carried())
    b.check_disk()
    assert complex_of(b).skeleton.vertices == {"T"}
    assert not complex_of(b).skeleton.edges
    assert b.boundary == []


def pillow_builder():
    """A square and its mirror image sewn along their whole boundary, plus
    a spur edge ``h`` that only the boundary carries."""
    return named_builder(
        "T",
        (("g", "T", "r1", "a"), ("c1", "r1", "r2", "b"),
         ("c2", "r2", "r3", "a"), ("c3", "r3", "T", "b"),
         ("h", "T", "U", "a")),
        {"D0": ([("g", 1), ("c1", 1), ("c2", 1), ("c3", 1)], (0, 1)),
         "D1": ([("c3", -1), ("c2", -1), ("c1", -1), ("g", -1)], (3, -1))},
        [("h", 1), ("h", -1)])


def test_prune_keeps_carried_edges_and_rejects_a_second_component():
    b = pillow_builder().b
    b.check_disk()
    b.cancel_mirrors(b.carried())
    # the pillow's edges lose both sides and go; the spur keeps its two
    assert list(complex_of(b).skeleton.edges) == ["h"]
    assert complex_of(b).skeleton.vertices == {"T", "U"}
    n = pillow_builder()
    n.add("m", "X", "Y", "b")
    n.b.boundary += n.darts([("m", 1), ("m", -1)])
    with pytest.raises(DiagramError, match="disconnected"):
        n.b.cancel_mirrors(n.b.carried())


def test_a_lone_loop_away_from_the_base_is_a_second_component():
    # the base counts as a vertex even when no live edge reaches it
    b = named_builder("T", (("m", "X", "X", "b"),), {},
                      [("m", 1), ("m", -1)]).b
    with pytest.raises(DiagramError, match="disconnected"):
        b.cancel_mirrors(b.carried())


def test_same_cell_mirror_is_a_hard_error():
    b = named_builder(
        "T", (("g", "T", "U", "a"), ("h", "T", "V", "b")),
        {"D0": ([("g", 1), ("g", -1), ("h", 1), ("h", -1)], (0, 1))}, []).b
    with pytest.raises(DiagramError, match="mirrors itself"):
        find_mirror(complex_of(b))
    with pytest.raises(DiagramError, match="mirrors itself"):
        b.cancel_mirrors(b.carried())


def test_identify_darts_refuses_unlike_letters():
    # a fold onto the edge's own reverse reads the inverse letter
    n = named_builder("T", (("g", "T", "U", "a"), ("h", "T", "V", "b")),
                      {}, [])
    for pair in ((("g", 1), ("h", 1)), (("g", 1), ("g", -1))):
        with pytest.raises(DiagramError, match="different labels"):
            n.b.identify_darts(*n.darts(pair))


def test_miscounted_edges_are_diagram_errors():
    b = named_builder("T", (("g", "T", "U", "a"),), {"D0": ([("g", 1)], (0, 1))},
                      [("g", 1), ("g", -1)]).b
    with pytest.raises(DiagramError, match="spur edge g still carried"):
        b.sew(b.carried())
    with pytest.raises(DiagramError, match="edge g carried 3 times"):
        b.check_disk()
    n = mirror_pair_builder()
    n.b.boundary += n.darts([("g", 1), ("g", -1)])
    with pytest.raises(DiagramError, match="mirror edge g still carried"):
        n.b.cancel_mirrors(n.b.carried())
    # d3 folds onto c1, which keeps two extra boundary passes after the zip
    n = mirror_pair_builder()
    n.b.boundary += n.darts([("c1", 1), ("c1", -1)])
    with pytest.raises(DiagramError, match="edge c1 carried 4 times, expected 2"):
        n.b.cancel_mirrors(n.b.carried())


def _reverse_boundary(builder, counts):
    builder.boundary.reverse()


def _shift_cells(freeze):
    def shifted(builder, x):
        builder.cell_align = {c: (off + 1, s)
                              for c, (off, s) in builder.cell_align.items()}
        return freeze(builder, x)
    return shifted


@pytest.mark.parametrize("target, make, message", [
    ("_replay_conjugates",
     lambda old: lambda u, x, steps: [((), W("b a b a"), (1, 1))],
     "lollipop wedge does not spell the word"),
    ("_DiskBuilder.sew", lambda old: _reverse_boundary,
     "drifted during sewing"),
    ("_DiskBuilder.cancel_mirrors", lambda old: _reverse_boundary,
     "drifted during cancellation"),
    ("_DiskBuilder.freeze", _shift_cells, "labelling is not a morphism"),
])
def test_build_checks_raise_diagram_errors(monkeypatch, target, make, message):
    # each check guards a step that is right by construction, so break it
    owner = diagrams
    for name in target.split(".")[:-1]:
        owner = getattr(owner, name)
    attr = target.split(".")[-1]
    monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    with pytest.raises(DiagramError, match=message):
        build_reduced_diagram(W("a b a b"), x_ab2())


def test_mirror_witness_finds_the_uncancelled_pair():
    d = mirror_pair_builder().b.freeze(x_ab2())
    assert mirror_witness(d) == ("g", "D0", 0, "D1", 0)


def test_step_off_its_rotation_is_a_diagram_error():
    # rotation 1 of (ab)^2 reads "b a b a", not the "a b a b" at position 0
    with pytest.raises(DiagramError, match="does not read its rotation"):
        _replay_conjugates(W("a b a b"), x_ab2(), (DehnStep(0, 4, 1, 1),))
    with pytest.raises(DiagramError, match="does not reduce the word"):
        _replay_conjugates(W("a b a b"), x_ab2(), ())


def test_the_solver_and_the_replay_read_one_rotation_table(monkeypatch):
    # both read the rotations of (ab)^{+-2} off the orbicomplex, which
    # builds them, and the solver's index from them, once
    built = []
    for name in ("_rotations", "_dehn_index"):
        prop = OneRelatorOrbicomplex.__dict__[name]
        monkeypatch.setattr(prop, "func", lambda self, real=prop.func,
                            name=name: built.append(name) or real(self))
    x = x_ab2()
    assert dehn_solve(W("a b a b"), x).trivial
    build_reduced_diagram(W("a b a b"), x)
    build_reduced_diagram(W("b~ a~ b~ a~"), x)
    assert built == ["_dehn_index", "_rotations"]


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
    q = x.relator * 2
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
        q = x.relator * n
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
        h.update(repr(sorted(alignment(d.labeling).items())).encode())
    assert h.hexdigest() == CORPUS_DIGEST


def long_corpus():
    """66 seeded products of 10-20 conjugates of ``w^(+-n)`` with reduced
    stems of up to 20 letters; they leave more mirror pairs per word than
    the golden corpus, as the long words of the benchmark do."""
    rng = random.Random(12)
    for i in range(66):
        rel, n = CORPUS_GROUPS[i % len(CORPUS_GROUPS)]
        x = build_orbicomplex(Graph.rose("ab"), W(rel), n)
        q = x.relator * n
        product = []
        for _ in range(rng.randint(10, 20)):
            stem = []
            for _ in range(rng.randint(0, 20)):
                letter = (rng.choice("ab"), rng.choice((1, -1)))
                if not stem or stem[-1] != inverse_word((letter,))[0]:
                    stem.append(letter)
            body = q if rng.random() < 0.5 else inverse_word(q)
            product += stem + list(body) + list(inverse_word(stem))
        yield x, free_reduce(product)


def reference_cancel(b):
    """The plain mirror loop, kept as the reference: a fresh snapshot
    searched by ``find_mirror``, then a full recount, a connectivity search
    and a readout after every cancellation.  Returns the hits in order."""
    readout = b.readout()
    hits = []
    while (hit := find_mirror(b.snapshot())) is not None:
        hits.append(hit)
        e, c1, p1, c2, p2 = hit
        assert b.carried()[e] == 2
        path1, path2 = b.cells[c1], b.cells[c2]
        m = len(path1)
        for t in range(1, m):
            b.identify_darts(path1[(p1 + t) % m],
                             dart_reverse(path2[(p2 - t) % m]))
        del b.cells[c1], b.cells[c2]
        del b.cell_align[c1], b.cell_align[c2]
        del b.edges[e]
        counts = b.carried()
        for f in [f for f in b.edges if not counts[f]]:
            del b.edges[f]
        assert len(connected_components(b.snapshot().skeleton)) == 1
        assert b.readout() == readout
        b.check_disk()
    return hits


def wedge_builder(u, x, make=_DiskBuilder):
    """The unsewn lollipop wedge of the free reduction of ``u``, on the
    numbered builder or, with ``make=StringDiskBuilder``, the reference."""
    reduced_u = free_reduce(u)
    b = make("v0")
    steps = dehn_solve(reduced_u, x).steps
    for j, (stem, rho, align) in enumerate(
            _replay_conjugates(reduced_u, x, steps)):
        b.add_lollipop(j, stem, rho, align)
    return b


def reference_diagram(u, x):
    """The sewn lollipop wedge of ``u`` on the reference builder, reduced
    by ``reference_cancel``; returns the hits and the builder."""
    b = wedge_builder(u, x, StringDiskBuilder)
    b.sew()
    return reference_cancel(b), b


# Four squares in a row, D2 D0 D1 D3.  D1 mirrors D0 across ``e``; D3
# mirrors D2 across the edge that ``a2`` and ``q2`` become once D0 and D1
# are zipped, and not before.  ``a2`` sorts before ``e``, so it has been
# tested and found no pair by then.
MIRROR_STRIP = (
    "T",
    (("e", "T", "r1", "a"), ("p1", "r1", "r2", "b"), ("a2", "r2", "r3", "a"),
     ("p3", "r3", "T", "b"), ("q1", "r1", "s2", "b"), ("q2", "s2", "s3", "a"),
     ("q3", "s3", "T", "b"), ("x1", "y1", "r2", "a"), ("x2", "y2", "y1", "a"),
     ("x3", "r3", "y2", "a"), ("z3", "s3", "w1", "a"), ("z2", "w1", "w2", "a"),
     ("z1", "w2", "s2", "a")),
    {"D0": ([("e", 1), ("p1", 1), ("a2", 1), ("p3", 1)], (0, 1)),
     "D1": ([("e", -1), ("q3", -1), ("q2", -1), ("q1", -1)], (0, -1)),
     "D2": ([("a2", -1), ("x1", -1), ("x2", -1), ("x3", -1)], (0, -1)),
     "D3": ([("q2", 1), ("z3", 1), ("z2", 1), ("z1", 1)], (0, 1))},
    [("q3", -1), ("z3", 1), ("z2", 1), ("z1", 1), ("q1", -1), ("p1", 1),
     ("x1", -1), ("x2", -1), ("x3", -1), ("p3", 1)])


@pytest.fixture
def mirror_calls(monkeypatch):
    """Record every ``_mirror_at`` call the builder makes, as (edge, hit,
    length of the hit's cells), the number of edges with two sides or
    more when each ``cancel_mirrors`` starts, and the last builder."""
    log = {"calls": [], "starts": []}
    mirror_at, cancel = diagrams._mirror_at, _DiskBuilder.cancel_mirrors

    def counted(e, sides, path_of, label):
        hit = mirror_at(e, sides, path_of, label)
        log["calls"].append((e, hit, hit and len(path_of(hit[1]))))
        return hit

    def started(builder, counts):
        log["builder"] = builder
        over = complex_of(builder).sides_over
        log["starts"].append(sum(len(s) > 1 for s in over.values()))
        cancel(builder, counts)

    monkeypatch.setattr(diagrams, "_mirror_at", counted)
    monkeypatch.setattr(_DiskBuilder, "cancel_mirrors", started)
    return log


def named_hits(log):
    """The logged hits, each edge under its name in the logged builder."""
    name = log["builder"].edge_name
    return [(name(hit[0]), *hit[1:]) for _, hit, _ in log["calls"] if hit]


def test_incremental_cancellation_matches_the_reference_loop(mirror_calls):
    # no diagram of the corpus has a pair that only a zip makes, so the
    # strip checks that each zip's survivor is searched again
    b = named_builder(*MIRROR_STRIP).b
    b.cancel_mirrors(b.check_disk())
    got = named_hits(mirror_calls)
    ref = string_builder(*MIRROR_STRIP)
    assert reference_cancel(ref) == got
    assert [hit[0] for hit in got] == ["e", "a2"]
    assert format_complex(complex_of(b)) == format_complex(ref.snapshot())
    assert b.snapshot()[1] == tuple(ref.boundary)
    cancelled = 0
    for x, u in long_corpus():
        del mirror_calls["calls"][:]
        d = build_reduced_diagram(u, x)
        got = named_hits(mirror_calls)
        hits, ref = reference_diagram(u, x)
        assert got == hits
        assert format_complex(d.diagram) == format_complex(ref.snapshot())
        assert d.boundary == tuple(ref.boundary)
        assert alignment(d.labeling) == ref.cell_align
        cancelled += len(hits)
    assert cancelled >= 120


def test_mirror_search_is_bounded_by_the_zips(mirror_calls):
    # every call tests an edge that had two sides at the start or that a
    # zip step merged; a whole-diagram rescan per cancellation breaks this
    for x, u in long_corpus():
        del mirror_calls["calls"][:], mirror_calls["starts"][:]
        build_reduced_diagram(u, x)
        (start,) = mirror_calls["starts"]
        zips = sum(m - 1 for _, hit, m in mirror_calls["calls"] if hit)
        assert len(mirror_calls["calls"]) <= start + zips


# ---------------------------------------------------------------------------
# the numbered sew against the index scan on the string builder


def reference_sew(b):
    """The sew as first written: scan the boundary by index, read each
    pair's letters through its resolved edges, and step back one place
    after each cancellation."""
    counts = b.carried()
    edge_of = b.edge_of
    i = 0
    while i < len(b.boundary) - 1:
        (e1, s1), (e2, s2) = b.boundary[i], b.boundary[i + 1]
        d1, d2 = (edge_of(e1), s1), (edge_of(e2), s2)
        if (b.edges[d2[0]].label, s2) != (b.edges[d1[0]].label, -s1):
            i += 1
            continue
        e = d1[0]
        if d2 == dart_reverse(d1):
            if counts[e] != 2:
                raise DiagramError(f"spur edge {e} still carried elsewhere")
            del b.edges[e]
        else:
            b.identify_darts(dart_reverse(d1), d2)
            counts[e] += counts.pop(d2[0]) - 2
        del b.boundary[i:i + 2]
        i = max(i - 1, 0)


def benchmark_corpus():
    """12 seeded products the size of the benchmark's long words: 150 to
    900 letters before reduction, in 10 to 35 conjugates of ``w^(+-n)``."""
    rng = random.Random(19)
    for length in (150, 400, 650, 900):
        k = round(10 + 25 * (length - 150) / 750)
        for rel, n in CORPUS_GROUPS:
            x = build_orbicomplex(Graph.rose("ab"), W(rel), n)
            q = x.relator * n
            stem_len = max(0, round((length / k - len(q)) / 2))
            product = []
            for _ in range(k):
                stem = tuple((rng.choice("ab"), rng.choice((1, -1)))
                             for _ in range(stem_len))
                body = q if rng.random() < 0.5 else inverse_word(q)
                product += stem + body + inverse_word(stem)
            yield x, free_reduce(product)


def _sewn(sew, make, u, x, doctor=None):
    """Sew the wedge of ``u`` on ``make`` with ``sew`` and return what it
    left, under names: the boundary and the edges as the builder holds
    them, the survivor of every edge and vertex, the carried counts and the
    settled boundary; or the DiagramError it raised.  ``doctor`` edits the
    wedge first."""
    b = wedge_builder(u, x, make)
    if doctor is not None:
        doctor(b)
    if make is StringDiskBuilder:
        ids, names = list(b.edges), sorted(b.vertices)
    else:
        ids, names = range(len(b._live)), sorted(
            {0}.union(*compress(zip(*b._ends), b._live)), key=b.vertex_name)
    try:
        sew(b)
    except DiagramError as err:
        return str(err)
    if make is StringDiskBuilder:
        raw = (list(b.boundary), list(b.edges.items()),
               {e: b.edge_of(e) for e in ids},
               {v: b.vertex_of(v) for v in names})
        return raw + (b.carried(), list(b.boundary))
    edge, vertex = b.edge_name, b.vertex_name
    (tails, heads), find = b._ends, complexes._find
    raw = ([(edge(d >> 1), -1 if d & 1 else 1) for d in b.boundary],
           [(edge(e), EdgeRec(vertex(tails[e]), vertex(heads[e]),
                              b._letters[2 * e][0]))
            for e in compress(ids, b._live)],
           {edge(e): edge(find(b._edge_parent, e)) for e in ids},
           {vertex(v): vertex(find(b._vertex_parent, v)) for v in names})
    carried = Counter({edge(e): n for e, n in enumerate(b.carried()) if n})
    return raw + (carried, list(b.snapshot()[1]))


def _spur_first(b):
    """Put ``h g~ g h~`` in front of the boundary, with ``h`` out of the
    base and ``g`` into the head of ``h``: ``h g~`` folds ``g`` onto ``h``,
    and then ``g h~`` is a spur on ``h``.  Returns the dart ``g``."""
    if isinstance(b, StringDiskBuilder):
        b.new_edge("h", b.base, "H", ("a", 1))
        b.new_edge("g", "G", "H", ("a", 1))
        h, g = ("h", 1), ("g", 1)
        b.boundary[:0] = [h, dart_reverse(g), g, dart_reverse(h)]
        return g
    big_h, big_g = b.new_vertices(["H", "G"], ["", ""])
    (h,) = b.new_edges(["h"], [""], [0, big_h], (("a", 1),))
    (g,) = b.new_edges(["g"], [""], [big_g, big_h], (("a", 1),))
    b.boundary[:0] = [h, g ^ 1, g, h ^ 1]
    return g


def _carried_spur_first(b):
    """The same, with a cell side over ``g``: the spur ``h`` that ``g``
    folds onto is carried three times."""
    b.cells["X"] = [_spur_first(b)]


def _numbered_sew(b):
    b.sew(b.carried())


def test_one_pass_sew_matches_the_index_scan():
    # no wedge of these corpora sews a spur, so a doctored copy of each
    # adds one: first a clean spur, then one that a cell side also carries
    corpora = list(golden_corpus()) + list(long_corpus()) \
        + list(benchmark_corpus())
    assert len(corpora) == 186
    folds = 0
    for x, u in corpora:
        got = _sewn(_numbered_sew, _DiskBuilder, u, x)
        assert got == _sewn(reference_sew, StringDiskBuilder, u, x)
        folds += sum(root != e for e, root in got[2].items())
        got = _sewn(_numbered_sew, _DiskBuilder, u, x, _spur_first)
        assert got == _sewn(reference_sew, StringDiskBuilder, u, x,
                            _spur_first)
        assert not {"g", "h"} & dict(got[1]).keys()
        got = _sewn(_numbered_sew, _DiskBuilder, u, x, _carried_spur_first)
        assert got == _sewn(reference_sew, StringDiskBuilder, u, x,
                            _carried_spur_first)
        assert got == "spur edge h still carried elsewhere"
    # the string builder's own one-pass sew makes the same doctored errors
    for doctor in (_spur_first, _carried_spur_first):
        for x, u in list(benchmark_corpus())[:3]:
            assert _sewn(StringDiskBuilder.sew, StringDiskBuilder, u, x,
                         doctor) == _sewn(_numbered_sew, _DiskBuilder, u, x,
                                          doctor)
    assert folds > 1000


# ---------------------------------------------------------------------------
# the numbered builder against the string builder it replaced


def _diagram_text(d):
    """What a diagram shows: its text, its boundary and word, its cell
    alignments, and the order of its vertex set and edge table."""
    g = d.diagram.skeleton
    return (format_complex(d.diagram), d.boundary, d.boundary_word,
            sorted(alignment(d.labeling).items()), list(g.vertices),
            list(g.edges))


def test_numbered_builder_matches_the_string_builder():
    corpora = list(golden_corpus()) + list(long_corpus()) \
        + list(benchmark_corpus())
    for x, u in corpora:
        assert _diagram_text(build_reduced_diagram(u, x)) \
            == _diagram_text(reference_build(u, x))
    assert _diagram_text(build_reduced_diagram((), x_ab2())) \
        == _diagram_text(reference_build((), x_ab2()))


def _merge_by_number(self, a, b):
    """The merge rule broken: the smaller vertex number survives."""
    parent = self._vertex_parent
    a, b = complexes._find(parent, a), complexes._find(parent, b)
    if a != b:
        parent[max(a, b)] = min(a, b)


def test_only_the_name_order_keeps_the_vertex_names(monkeypatch):
    # "the smaller name survives" is a string order, in which every c...
    # comes before every u... and u10.3 before u9.3, while vertex numbers
    # follow the lollipops; on benchmark-sized words the orders part ways
    monkeypatch.setattr(_DiskBuilder, "merge_vertices", _merge_by_number)
    differ = sum(_diagram_text(build_reduced_diagram(u, x))
                 != _diagram_text(reference_build(u, x))
                 for x, u in benchmark_corpus())
    assert differ >= 6
