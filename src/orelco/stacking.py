"""Stackings: boundary lifts with heights, and the good-stacking check.

A stacking assigns a rational height to every boundary position of every
2-cell of a ``TwoComplex``; for a one-relator group the domain is the
relator circle, the one-cell complex ``x.relator_circle``.  The heights lift
the boundary immersion into (1-skeleton) x (line); the lift must be an
embedding, so no two positions over the same edge may share a height, and
the strands must not cross at a vertex.
The stacking is good when every boundary circle contains a position of
globally maximal height over its edge and a position of globally minimal
height over its edge, where "globally" ranges over all circles.

Only the order type of the heights matters, so rationals compared exactly
stand in for real heights.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, NamedTuple

from .complexes import TwoComplex, dart_reverse

if TYPE_CHECKING:
    from fractions import Fraction

Position = tuple[str, int]


class Stacking(NamedTuple):
    complex: TwoComplex
    heights: dict[Position, Fraction]


class StackingVerdict(NamedTuple):
    good: bool
    witness: str | None = None


def boundary_circles(c: TwoComplex) -> dict[str, tuple[str, ...]]:
    """The edge traversed at each position of each boundary circle."""
    return {cid: tuple(e for e, _ in path) for cid, path in c.cells.items()}


def _crossings(s: Stacking) -> list[str]:
    """One problem for each vertex where the strands must cross.  Passage
    ``(c, i)`` is where circle ``c`` goes from dart ``d_{i-1}`` into ``d_i``;
    it uses the half-edges that ``d_i`` and the reverse of ``d_{i-1}`` leave
    along.  The heights on a half-edge order the passages that use it; the
    lift embeds at a vertex when these orders there have no cycle."""
    # imported on use: loaded with orelco, graphlib adds 0.2 MB to every run
    from graphlib import CycleError, TopologicalSorter
    graph, paths = s.complex.skeleton, s.complex.cells
    strands = defaultdict(list)     # half-edge -> (height, passage)
    for cid, path in paths.items():
        for i, d in enumerate(path):
            h = s.heights[(cid, i)]
            strands[d].append((h, (cid, i)))
            strands[dart_reverse(d)].append((h, (cid, (i + 1) % len(path))))
    below = defaultdict(lambda: defaultdict(set))   # vertex -> passage -> lower
    for half, ordered in strands.items():
        ordered.sort()
        for (_, low), (_, high) in zip(ordered, ordered[1:]):
            if low != high:     # a turn-back uses one half-edge twice
                below[graph.dart_origin(half)][high].add(low)
    problems = []
    for v in sorted(below):
        try:
            TopologicalSorter(dict(sorted(below[v].items()))).prepare()
        except CycleError as err:
            chain = " < ".join(map(str, err.args[1]))
            problems.append(f"strands cross at vertex {v}: passages {chain}")
    return problems


def validate_stacking(s: Stacking) -> list[str]:
    """Domain coverage and embedding at edges and vertices; empty if valid."""
    problems: list[str] = []
    circles = boundary_circles(s.complex)
    wanted = {(cid, i) for cid, edges in circles.items()
              for i in range(len(edges))}
    missing = sorted(wanted - set(s.heights))
    extra = sorted(set(s.heights) - wanted)
    for pos in missing:
        problems.append(f"no height for position {pos}")
    for pos in extra:
        problems.append(f"height for unknown position {pos}")
    if problems:
        return problems
    seen: dict[tuple[str, Fraction], Position] = {}
    for pos in sorted(wanted):
        e = circles[pos[0]][pos[1]]
        h = s.heights[pos]
        prior = seen.get((e, h))
        if prior is not None:
            problems.append(
                f"positions {prior} and {pos} over edge {e} share height {h}")
        else:
            seen[(e, h)] = pos
    return problems or _crossings(s)


def check_good_stacking(s: Stacking) -> StackingVerdict:
    """Good means each circle attains a global per-edge maximum and minimum."""
    problems = validate_stacking(s)
    if problems:
        raise ValueError("stacking is not an embedding: "
                         + "; ".join(problems))
    circles = boundary_circles(s.complex)
    high: dict[str, Fraction] = {}
    low: dict[str, Fraction] = {}
    for cid, edges in circles.items():
        for i, e in enumerate(edges):
            h = s.heights[(cid, i)]
            high[e] = h if e not in high else max(high[e], h)
            low[e] = h if e not in low else min(low[e], h)
    for cid in sorted(circles):
        edges = circles[cid]
        if not any(s.heights[(cid, i)] == high[e] for i, e in enumerate(edges)):
            return StackingVerdict(
                False, f"component {cid} has no global-maximum position")
        if not any(s.heights[(cid, i)] == low[e] for i, e in enumerate(edges)):
            return StackingVerdict(
                False, f"component {cid} has no global-minimum position")
    return StackingVerdict(True)

