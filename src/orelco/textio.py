"""Plain-text formats: complexes, morphisms, orbicomplexes, quotients,
covers, presentations, fold traces, report CSVs, and DOT export.

One declaration per line, `#` starts a comment, round-trips are bit-exact.
"""

from __future__ import annotations

from .complexes import (CellImage, CellMorphism, Dart, EdgeRec, Graph,
                        TwoComplex, require_valid)
from .covers import FiniteQuotient, UnwrappedCover
from .orbicomplex import (OneRelatorOrbicomplex, OrbiMorphism, WCyclesAudit,
                          build_orbicomplex)
from .words import Word, format_word, parse_word
from .words import format_word as format_dart_path


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _fail(lineno: int, why: str) -> ValueError:
    return ValueError(f"line {lineno}: {why}")


# ---------------------------------------------------------------------------
# dart paths: `e1 e2~ e3`, the word syntax over edge ids


def format_dart(d: Dart) -> str:
    return format_dart_path((d,))


def parse_dart(token: str) -> Dart:
    (d,) = parse_dart_path([token])
    return d


def parse_dart_path(tokens) -> tuple[Dart, ...]:
    return parse_word(" ".join(tokens))


# ---------------------------------------------------------------------------
# complexes


def _format_skeleton(g: Graph) -> list[str]:
    out = [f"vertex {v}" for v in sorted(g.vertices)]
    for e in sorted(g.edges):
        rec = g.edges[e]
        line = f"edge {e} : {rec.tail} -> {rec.head}"
        if rec.label is not None:
            line += f" label {rec.label}"
        out.append(line)
    return out


def format_complex(c: TwoComplex) -> str:
    out = _format_skeleton(c.skeleton)
    for cid in sorted(c.cells):
        out.append(f"cell {cid} : {format_dart_path(c.cells[cid])}")
    out.append(f"base {c.base_vertex}")
    return "\n".join(out) + "\n"


def _parse_skeleton_lines(text: str, allow: set[str]):
    vertices: set[str] = set()
    edges: dict[str, EdgeRec] = {}
    cells: dict[str, tuple[Dart, ...]] = {}
    base = None
    extra = []
    for lineno, tokens in _lines(text):
        kind = tokens[0]
        if kind == "vertex" and len(tokens) == 2:
            vertices.add(tokens[1])
        elif kind == "edge":
            if len(tokens) not in (6, 8) or tokens[2] != ":" or tokens[4] != "->":
                raise _fail(lineno, f"malformed edge line: {' '.join(tokens)}")
            label = None
            if len(tokens) == 8:
                if tokens[6] != "label":
                    raise _fail(lineno, f"malformed edge line: {' '.join(tokens)}")
                label = tokens[7]
            if tokens[1] in edges:
                raise _fail(lineno, f"duplicate edge {tokens[1]}")
            edges[tokens[1]] = EdgeRec(tokens[3], tokens[5], label)
        elif kind == "cell" and "cell" in allow:
            if len(tokens) < 4 or tokens[2] != ":":
                raise _fail(lineno, f"malformed cell line: {' '.join(tokens)}")
            if tokens[1] in cells:
                raise _fail(lineno, f"duplicate cell {tokens[1]}")
            cells[tokens[1]] = parse_dart_path(tokens[3:])
        elif kind == "base" and "base" in allow and len(tokens) == 2:
            base = tokens[1]
        elif kind in allow - {"vertex", "edge", "cell", "base"}:
            extra.append((lineno, tokens))
        else:
            raise _fail(lineno, f"unknown declaration {kind!r}")
    return vertices, edges, cells, base, extra


def parse_complex(text: str) -> TwoComplex:
    vertices, edges, cells, base, _ = _parse_skeleton_lines(
        text, {"vertex", "edge", "cell", "base"})
    if base is None:
        raise ValueError("complex file is missing its base line")
    c = TwoComplex(Graph(frozenset(vertices), edges), cells, base_vertex=base)
    require_valid(c)
    return c


# ---------------------------------------------------------------------------
# morphisms


def format_morphism(m: CellMorphism) -> str:
    out = []
    for v in sorted(m.vertex_map):
        out.append(f"vmap {v} {m.vertex_map[v]}")
    for e in sorted(m.edge_map):
        out.append(f"emap {e} {format_dart(m.edge_map[e])}")
    for cid in sorted(m.cell_map):
        im = m.cell_map[cid]
        sign = "+" if im.orient > 0 else "-"
        out.append(f"cmap {cid} {im.cell} rot={im.offset} orient={sign}")
    return "\n".join(out) + "\n"


def parse_morphism(text: str, source: TwoComplex,
                   target: TwoComplex) -> CellMorphism:
    vmap: dict[str, str] = {}
    emap: dict[str, Dart] = {}
    cmap: dict[str, CellImage] = {}
    for lineno, tokens in _lines(text):
        kind = tokens[0]
        if kind == "vmap" and len(tokens) == 3:
            vmap[tokens[1]] = tokens[2]
        elif kind == "emap" and len(tokens) == 3:
            emap[tokens[1]] = parse_dart(tokens[2])
        elif kind == "cmap" and len(tokens) == 5:
            if not tokens[3].startswith("rot=") or not tokens[4].startswith("orient="):
                raise _fail(lineno, f"malformed cmap line: {' '.join(tokens)}")
            rot = int(tokens[3][4:])
            sign_text = tokens[4][7:]
            if sign_text not in ("+", "-"):
                raise _fail(lineno, f"orientation must be + or -, got {sign_text}")
            cmap[tokens[1]] = CellImage(tokens[2], rot,
                                        1 if sign_text == "+" else -1)
        else:
            raise _fail(lineno, f"unknown declaration {kind!r}")
    return CellMorphism(source, target, vmap, emap, cmap)


ORBICELL = "w"   # name of the single orbicell in morphism files


def format_orbi_morphism(m: OrbiMorphism) -> str:
    """Morphism into an orbicomplex: the plain format, the orbicell named `w`."""
    cells = {cid: CellImage(ORBICELL, offset, orient)
             for cid, (offset, orient) in m.cell_align.items()}
    return format_morphism(CellMorphism(m.source, m.target.presentation_complex,
                                        m.vertex_map, m.edge_map, cells))


def parse_orbi_morphism(text: str, source: TwoComplex,
                        target: OneRelatorOrbicomplex) -> OrbiMorphism:
    plain = parse_morphism(text, source, target.presentation_complex)
    for cid in sorted(plain.cell_map):
        if plain.cell_map[cid].cell != ORBICELL:
            raise ValueError(f"cmap {cid}: the orbicell is named {ORBICELL!r},"
                             f" got {plain.cell_map[cid].cell!r}")
    return OrbiMorphism(source, target, plain.vertex_map, plain.edge_map,
                        {cid: (im.offset, im.orient)
                         for cid, im in plain.cell_map.items()})


# ---------------------------------------------------------------------------
# orbicomplexes


def format_orbicomplex(x: OneRelatorOrbicomplex) -> str:
    out = _format_skeleton(x.gamma)
    out.append(f"relator {format_dart_path(x.relator)}")
    out.append(f"branch {x.branch_index}")
    return "\n".join(out) + "\n"


def parse_orbicomplex(text: str) -> OneRelatorOrbicomplex:
    vertices, edges, _, _, extra = _parse_skeleton_lines(
        text, {"vertex", "edge", "relator", "branch"})
    relator = None
    branch = None
    for lineno, tokens in extra:
        if tokens[0] == "relator":
            relator = parse_dart_path(tokens[1:])
        elif tokens[0] == "branch":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise _fail(lineno, "branch takes one integer")
            branch = int(tokens[1])
    if relator is None or branch is None:
        raise ValueError("orbicomplex file needs relator and branch lines")
    return build_orbicomplex(Graph(frozenset(vertices), edges), relator, branch)


# ---------------------------------------------------------------------------
# quotients and covers


def format_quotient(q: FiniteQuotient) -> str:
    out = [f"degree {q.degree}"]
    for sym in sorted(q.perms):
        images = " ".join(str(i) for i in q.perms[sym])
        out.append(f"perm {sym} : {images}")
    return "\n".join(out) + "\n"


def parse_quotient(text: str) -> FiniteQuotient:
    degree = None
    perms: dict[str, tuple[int, ...]] = {}
    for lineno, tokens in _lines(text):
        if tokens[0] == "degree" and len(tokens) == 2:
            degree = int(tokens[1])
        elif tokens[0] == "perm":
            if len(tokens) < 4 or tokens[2] != ":":
                raise _fail(lineno, f"malformed perm line: {' '.join(tokens)}")
            perms[tokens[1]] = tuple(int(t) for t in tokens[3:])
        else:
            raise _fail(lineno, f"unknown declaration {tokens[0]!r}")
    if degree is None:
        raise ValueError("quotient file is missing its degree line")
    for sym, p in perms.items():
        if len(p) != degree:
            raise ValueError(f"perm {sym} has {len(p)} entries, expected {degree}")
    return FiniteQuotient(degree, perms)


def format_cover(c: UnwrappedCover) -> str:
    out = [format_complex(c.cover).rstrip("\n")]
    for cid in sorted(c.families):
        pts = " ".join(str(p) for p in c.families[cid])
        out.append(f"family {cid} : {pts}")
    return "\n".join(out) + "\n"


def parse_cover_file(text: str) -> tuple[TwoComplex, dict[str, tuple[int, ...]]]:
    """A cover file re-parses to its complex and family table."""
    complex_lines = []
    families: dict[str, tuple[int, ...]] = {}
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("family "):
            tokens = stripped.split()
            if len(tokens) < 4 or tokens[2] != ":":
                raise ValueError(f"malformed family line: {raw!r}")
            families[tokens[1]] = tuple(int(t) for t in tokens[3:])
        else:
            complex_lines.append(raw)
    return parse_complex("\n".join(complex_lines)), families


# ---------------------------------------------------------------------------
# presentations


def format_presentation(symbols, relators) -> str:
    gens = " ".join(symbols)
    rels = " ; ".join(format_word(r) for r in relators)
    return f"gens: {gens} ; rels: {rels}".rstrip() + "\n"


def parse_presentation(text: str) -> tuple[tuple[str, ...], tuple[Word, ...]]:
    body = text.strip()
    if not body.startswith("gens:") or ";" not in body:
        raise ValueError("presentation must read `gens: ... ; rels: ...`")
    gens_part, _, rest = body.partition(";")
    rest = rest.strip()
    if not rest.startswith("rels:"):
        raise ValueError("presentation must read `gens: ... ; rels: ...`")
    symbols = tuple(gens_part[len("gens:"):].split())
    rel_body = rest[len("rels:"):].strip()
    relators = tuple(parse_word(chunk.strip())
                     for chunk in rel_body.split(";") if chunk.strip())
    return symbols, relators


# ---------------------------------------------------------------------------
# fold traces


def format_fold_trace(trace) -> str:
    out = []
    for entry in trace:
        if entry[0] == "dart":
            out.append(f"identify dart {format_dart(entry[1])} "
                       f"{format_dart(entry[2])}")
        elif entry[0] == "cell":
            out.append(f"identify cell {entry[1]} {entry[2]}")
        else:
            raise ValueError(f"unknown trace entry {entry!r}")
    return "\n".join(out) + ("\n" if out else "")


def parse_fold_trace(text: str):
    entries = []
    for lineno, tokens in _lines(text):
        if len(tokens) != 4 or tokens[0] != "identify":
            raise _fail(lineno, f"malformed trace line: {' '.join(tokens)}")
        if tokens[1] == "dart":
            entries.append(("dart", parse_dart(tokens[2]), parse_dart(tokens[3])))
        elif tokens[1] == "cell":
            entries.append(("cell", tokens[2], tokens[3]))
        else:
            raise _fail(lineno, f"unknown identification {tokens[1]!r}")
    return tuple(entries)


# ---------------------------------------------------------------------------
# report CSVs


AUDIT_CSV_HEADER = "id,chi1,deg,slack1,chi2,cells,slack2,pass"


def audit_csv(rows: list[tuple[str, WCyclesAudit]]) -> str:
    out = [AUDIT_CSV_HEADER]
    for name, a in rows:
        out.append(f"{name},{a.chi1},{a.deg},{a.slack1},{a.chi2},{a.cells},"
                   f"{a.slack2},{1 if a.passed else 0}")
    return "\n".join(out) + "\n"


PIPELINE_CSV_HEADER = "stage,chi1,chi2,cells,free_edges,cursor,stable_for"


def pipeline_csv(report) -> str:
    out = [PIPELINE_CSV_HEADER]
    for r in report.rows:
        out.append(f"{r.stage},{r.chi1},{r.chi2},{r.cells},{r.free_edges},"
                   f"{r.cursor},{r.cursor}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def export_dot(c: TwoComplex, name: str = "complex") -> str:
    """1-skeleton as a digraph; edges carry their label and how many cell
    sides traverse them."""
    sides = c.sides_over
    out = [f"digraph {name} {{"]
    for v in sorted(c.skeleton.vertices):
        shape = "doublecircle" if v == c.base_vertex else "circle"
        out.append(f'  "{v}" [shape={shape}];')
    for e in sorted(c.skeleton.edges):
        rec = c.skeleton.edges[e]
        label = rec.label if rec.label is not None else e
        out.append(f'  "{rec.tail}" -> "{rec.head}" '
                   f'[label="{e}:{label} sides={len(sides[e])}"];')
    out.append("}")
    return "\n".join(out) + "\n"
