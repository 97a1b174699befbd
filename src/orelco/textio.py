"""Plain-text formats: complexes, morphisms, orbicomplexes, stackings,
quotients, covers, presentations, fold traces, report CSVs, and DOT export.

Each format has only the directions that a command uses. Complexes,
morphisms and cover files are read and written, and round-trip bit-exactly.
Group files (orbicomplexes), orbi maps and stackings are inputs, only read.
Quotients, presentations and fold traces are reports, only written.

One declaration per line, `#` starts a comment.  Every reader goes through
`_lines` and names a faulty line as `line N: ...`; a dart path is written
as a word over edge ids (`e1 e2~ e3`).
"""

from __future__ import annotations

from .complexes import (CellImage, CellMorphism, Dart, EdgeRec, Graph,
                        TwoComplex, validate_complex)
from .covers import FiniteQuotient, UnwrappedCover
from .orbicomplex import (ORBI_CIRCLE, OneRelatorOrbicomplex, WCyclesAudit,
                          build_orbicomplex)
from .stacking import Position, Stacking
from .words import format_word, parse_word


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _fail(lineno: int, why: str) -> ValueError:
    return ValueError(f"line {lineno}: {why}")


def _malformed(lineno: int, tokens: list[str]) -> ValueError:
    return _fail(lineno, f"malformed {tokens[0]} line: {' '.join(tokens)}")


def _read(lineno: int, parse, text: str, what: str):
    """``parse(text)``; text that does not parse is a fault of its line."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(lineno, f"cannot read {text!r} as {what}") from exc


def _put(table: dict, key: str, value, lineno: int, what: str) -> None:
    # a second declaration of one name is refused, never read over the first
    if key in table:
        raise _fail(lineno, f"duplicate {what}")
    table[key] = value


# ---------------------------------------------------------------------------
# complexes


def format_complex(c: TwoComplex) -> str:
    if c.base_vertex is None:
        raise ValueError("a complex file needs a base vertex")
    g = c.skeleton
    out = [f"vertex {v}" for v in sorted(g.vertices)]
    for e in sorted(g.edges):
        rec = g.edges[e]
        line = f"edge {e} : {rec.tail} -> {rec.head}"
        if rec.label is not None:
            line += f" label {rec.label}"
        out.append(line)
    for cid in sorted(c.cells):
        out.append(f"cell {cid} : {format_word(c.cells[cid])}")
    out.append(f"base {c.base_vertex}")
    return "\n".join(out) + "\n"


def _parse_skeleton_lines(text: str, allow: set[str]):
    """Read the lines whose kinds ``allow`` names (``vertex`` and ``edge``
    always); a kind beyond the four of a complex comes back in ``extra``."""
    vertices: set[str] = set()
    edges: dict[str, EdgeRec] = {}
    cells: dict[str, tuple[Dart, ...]] = {}
    base: dict[str, str] = {}     # the base line
    extra = []
    for lineno, tokens in _lines(text):
        kind = tokens[0]
        if kind not in allow:
            raise _fail(lineno, f"unknown declaration {kind!r}")
        if kind in ("vertex", "base") and len(tokens) != 2:
            raise _malformed(lineno, tokens)
        if kind == "vertex":
            vertices.add(tokens[1])
        elif kind == "edge":
            if (len(tokens) not in (6, 8) or tokens[2] != ":"
                    or tokens[4] != "->" or tokens[6:7] not in ([], ["label"])):
                raise _malformed(lineno, tokens)
            label = tokens[7] if len(tokens) == 8 else None
            _put(edges, tokens[1], EdgeRec(tokens[3], tokens[5], label),
                 lineno, f"edge {tokens[1]}")
        elif kind == "cell":
            if len(tokens) < 4 or tokens[2] != ":":
                raise _malformed(lineno, tokens)
            _put(cells, tokens[1],
                 _read(lineno, parse_word, " ".join(tokens[3:]), "a word"),
                 lineno, f"cell {tokens[1]}")
        elif kind == "base":
            _put(base, kind, tokens[1], lineno, kind)
        else:
            extra.append((lineno, tokens))
    return vertices, edges, cells, base.get("base"), extra


def _build_complex(vertices, edges, cells, base) -> TwoComplex:
    if base is None:
        raise ValueError("complex file is missing its base line")
    c = TwoComplex(Graph(frozenset(vertices), edges), cells, base_vertex=base)
    problems = validate_complex(c)
    if problems:
        raise ValueError("; ".join(problems))
    return c


def parse_complex(text: str) -> TwoComplex:
    *parts, _ = _parse_skeleton_lines(text, {"vertex", "edge", "cell", "base"})
    return _build_complex(*parts)


# ---------------------------------------------------------------------------
# morphisms


def format_morphism(m: CellMorphism) -> str:
    out = []
    for v in sorted(m.vertex_map):
        out.append(f"vmap {v} {m.vertex_map[v]}")
    for e in sorted(m.edge_map):
        out.append(f"emap {e} {format_word((m.edge_map[e],))}")
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
        if kind not in ("vmap", "emap", "cmap"):
            raise _fail(lineno, f"unknown declaration {kind!r}")
        if len(tokens) != (5 if kind == "cmap" else 3) or kind == "cmap" and (
                tokens[3][:4], tokens[4][:7]) != ("rot=", "orient="):
            raise _malformed(lineno, tokens)
        if kind == "vmap":
            _put(vmap, tokens[1], tokens[2], lineno, f"vmap {tokens[1]}")
        elif kind == "emap":
            (dart,) = _read(lineno, parse_word, tokens[2], "a dart")
            _put(emap, tokens[1], dart, lineno, f"emap {tokens[1]}")
        else:
            rot = _read(lineno, int, tokens[3][4:], "an integer")
            sign_text = tokens[4][7:]
            if sign_text not in ("+", "-"):
                raise _fail(lineno, f"orientation must be + or -, got {sign_text}")
            _put(cmap, tokens[1],
                 CellImage(tokens[2], rot, 1 if sign_text == "+" else -1),
                 lineno, f"cmap {tokens[1]}")
    return CellMorphism(source, target, vmap, emap, cmap)


def parse_orbi_morphism(text: str, source: TwoComplex,
                        target: OneRelatorOrbicomplex) -> CellMorphism:
    """The file names the orbicell ``w``; the map takes each cell to ``d0``."""
    m = parse_morphism(text, source, target.presentation_complex)
    for cid in sorted(m.cell_map):
        if m.cell_map[cid].cell != ORBI_CIRCLE:
            raise ValueError(f"cmap {cid}: the orbicell is named {ORBI_CIRCLE!r},"
                             f" got {m.cell_map[cid].cell!r}")
    return m._replace(cell_map={cid: im._replace(cell="d0")
                                for cid, im in m.cell_map.items()})


# ---------------------------------------------------------------------------
# orbicomplexes


def parse_orbicomplex(text: str) -> OneRelatorOrbicomplex:
    vertices, edges, _, _, extra = _parse_skeleton_lines(
        text, {"vertex", "edge", "relator", "branch"})
    found: dict[str, object] = {}     # the relator and branch lines
    for lineno, (kind, *rest) in extra:
        if kind == "relator":
            value = _read(lineno, parse_word, " ".join(rest), "a word")
        elif len(rest) == 1:
            value = _read(lineno, int, rest[0], "an integer")
        else:
            raise _fail(lineno, "branch takes one integer")
        _put(found, kind, value, lineno, kind)
    if len(found) < 2:
        raise ValueError("orbicomplex file needs relator and branch lines")
    return build_orbicomplex(Graph(frozenset(vertices), edges),
                             found["relator"], found["branch"])


# ---------------------------------------------------------------------------
# stackings


def parse_stacking(text: str, complex: TwoComplex) -> Stacking:
    """Read `h <cell> <position> <rational>` lines; other declarations are
    skipped, so a stacking may ride along in a complex file."""
    # imported on use: only this reader needs fractions, which loads decimal
    from fractions import Fraction
    heights: dict[Position, Fraction] = {}
    for lineno, tokens in _lines(text):
        if tokens[0] != "h":
            continue
        if len(tokens) != 4:
            raise _fail(lineno, f"malformed height line: {' '.join(tokens)}")
        pos = _read(lineno, int, tokens[2], "an integer")
        h = _read(lineno, Fraction, tokens[3], "a rational")
        _put(heights, (tokens[1], pos), h, lineno,
             f"height for ({tokens[1]}, {pos})")
    return Stacking(complex, heights)


# ---------------------------------------------------------------------------
# quotients and covers


def format_quotient(q: FiniteQuotient) -> str:
    out = [f"degree {q.degree}"]
    for sym in sorted(q.perms):
        images = " ".join(str(i) for i in q.perms[sym])
        out.append(f"perm {sym} : {images}")
    return "\n".join(out) + "\n"


def format_cover(c: UnwrappedCover) -> str:
    out = [format_complex(c.cover).rstrip("\n")]
    for cid in sorted(c.families):
        pts = " ".join(str(p) for p in c.families[cid])
        out.append(f"family {cid} : {pts}")
    return "\n".join(out) + "\n"


def parse_cover_file(text: str) -> tuple[TwoComplex, dict[str, tuple[int, ...]]]:
    """A cover file re-parses to its complex and family table."""
    *parts, extra = _parse_skeleton_lines(
        text, {"vertex", "edge", "cell", "base", "family"})
    families: dict[str, tuple[int, ...]] = {}
    for lineno, tokens in extra:
        if len(tokens) < 4 or tokens[2] != ":":
            raise _malformed(lineno, tokens)
        points = tuple(_read(lineno, int, t, "an integer") for t in tokens[3:])
        _put(families, tokens[1], points, lineno, f"family {tokens[1]}")
    return _build_complex(*parts), families


# ---------------------------------------------------------------------------
# presentations


def format_presentation(symbols, relators) -> str:
    rels = " ; ".join(format_word(r) for r in relators)
    return " ".join(["gens:", *symbols, "; rels:", rels]).rstrip() + "\n"


# ---------------------------------------------------------------------------
# fold traces


def format_fold_trace(trace) -> str:
    out = []
    for entry in trace:
        if entry[0] == "dart":
            out.append(f"identify dart {format_word(entry[1:])}")
        elif entry[0] == "cell":
            out.append(f"identify cell {entry[1]} {entry[2]}")
        else:
            raise ValueError(f"unknown trace entry {entry!r}")
    return "\n".join(out) + ("\n" if out else "")


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
                   f"{r.cursor},{r.stable_for}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# DOT export


_DOT_KEYWORDS = {"digraph", "edge", "graph", "node", "strict", "subgraph"}


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(c: TwoComplex, name: str = "complex") -> str:
    """1-skeleton as a digraph; edges carry their label and how many cell
    sides traverse them.  A graph name is bare only as an ASCII identifier
    and no DOT keyword; all else is quoted, with `\\` and `"` escaped."""
    bare = (name.isascii() and name.isidentifier()
            and name.lower() not in _DOT_KEYWORDS)
    sides = c.sides_over
    out = [f"digraph {name if bare else _dot_quote(name)} {{"]
    for v in sorted(c.skeleton.vertices):
        shape = "doublecircle" if v == c.base_vertex else "circle"
        out.append(f"  {_dot_quote(v)} [shape={shape}];")
    for e in sorted(c.skeleton.edges):
        rec = c.skeleton.edges[e]
        label = (f"{e}:{e if rec.label is None else rec.label} "
                 f"sides={len(sides[e])}")
        out.append(f"  {_dot_quote(rec.tail)} -> {_dot_quote(rec.head)} "
                   f"[label={_dot_quote(label)}];")
    out.append("}")
    return "\n".join(out) + "\n"
