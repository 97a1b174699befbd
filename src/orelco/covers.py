"""Finite exponent quotients and unwrapped covers of one-relator orbicomplexes.

A finite quotient is a permutation action of the free group on points
{0..k-1}.  When the image of the relator w acts with every cycle of length
exactly the branch index n, the Schreier cover of the rose supports one
2-cell per orbit of the w-image, each of boundary length n|w|: the unwrapped
cover, an honest 2-complex immersing into the orbicomplex and covering it
away from the cone point.  The same permutation data drives the Schreier
subgroup pull-back used to intersect a subgroup with the cover's group.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (Dart, EdgeRec, Graph, MapKind, TwoComplex,
                        euler_characteristic, target_side)
from .errors import (BudgetExhaustedError, InvalidComplexError,
                     InvariantError)
from .orbicomplex import (OneRelatorOrbicomplex, OrbiMorphism,
                          check_orbi_immersion)
from .words import Word, free_reduce, inverse_word

Perm = tuple[int, ...]


def _is_perm(p: Perm, k: int) -> bool:
    return len(p) == k and sorted(p) == list(range(k))


def _compose(p1: Perm, p2: Perm) -> Perm:
    """Permutation doing p1 first, then p2 (points act on the right)."""
    return tuple(p2[p1[i]] for i in range(len(p1)))


def _inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycle_lengths(p: Perm) -> list[int]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return sorted(out)


def permutation_order(p: Perm) -> int:
    return math.lcm(*cycle_lengths(p)) if p else 1


@dataclass(frozen=True)
class FiniteQuotient:
    degree: int
    perms: dict[str, Perm]

    def permutation_of(self, word: Word) -> Perm:
        out = tuple(range(self.degree))
        for sym, sign in word:
            p = self.perms[sym]
            out = _compose(out, p if sign > 0 else _inverse(p))
        return out

    def act(self, point: int, word: Word) -> int:
        for sym, sign in word:
            p = self.perms[sym]
            point = p[point] if sign > 0 else _inverse(p)[point]
        return point


def _rose_symbols(x: OneRelatorOrbicomplex) -> list[str]:
    g = x.gamma
    if len(g.vertices) != 1:
        raise ValueError("cover construction needs a one-vertex (rose) graph")
    for e in sorted(g.edges):
        if g.edges[e].label != e:
            raise ValueError("cover construction needs rose edges named by their labels")
    return sorted(g.edges)


def validate_quotient(q: FiniteQuotient, x: OneRelatorOrbicomplex) -> list[str]:
    """Structural problems of a quotient relative to an orbicomplex."""
    problems = []
    symbols = _rose_symbols(x)
    if sorted(q.perms) != symbols:
        problems.append("permutations do not match the rose symbols")
        return problems
    for s in symbols:
        if not _is_perm(q.perms[s], q.degree):
            problems.append(f"image of {s} is not a permutation of degree {q.degree}")
            return problems
    reached = {0}
    frontier = [0]
    while frontier:
        p = frontier.pop()
        for s in symbols:
            for image in (q.perms[s][p], _inverse(q.perms[s])[p]):
                if image not in reached:
                    reached.add(image)
                    frontier.append(image)
    if len(reached) != q.degree:
        problems.append("action is not transitive")
    order = permutation_order(q.permutation_of(x.relator_word()))
    if order != x.branch_index:
        problems.append(
            f"relator image has order {order}, expected {x.branch_index}")
    return problems


def has_uniform_exponent_cycles(q: FiniteQuotient,
                                x: OneRelatorOrbicomplex) -> bool:
    """Every cycle of the relator image has length exactly the branch index.

    This is strictly stronger than the order condition and is what makes the
    unwrapped cover an honest complex: a shorter cycle would leave residual
    branching (equivalently, a torsion element in the cover's group).
    """
    n = x.branch_index
    return all(length == n for length in
               cycle_lengths(q.permutation_of(x.relator_word())))


RANDOM_ATTEMPTS_PER_DEGREE = 500


def find_exponent_n_quotient(x: OneRelatorOrbicomplex, max_degree: int,
                             seed: int) -> FiniteQuotient:
    """Search for a transitive quotient whose relator image has every cycle of
    length exactly n.  Cyclic quotients Z/m (m a multiple of n) are tried
    exhaustively first; their regular actions have uniform cycles for free.
    Then seeded random permutation assignments of increasing degree.
    """
    symbols = _rose_symbols(x)
    n = x.branch_index
    w = x.relator_word()
    if n == 1:
        return FiniteQuotient(1, {s: (0,) for s in symbols})
    exponents = {}
    for s in symbols:
        exponents[s] = sum(sign for sym, sign in w if sym == s)
    for m in range(n, max_degree + 1, n):
        for rev in itertools.product(range(m), repeat=len(symbols)):
            assignment = tuple(reversed(rev))
            if math.gcd(m, *assignment) != 1:
                continue  # not transitive
            value = sum(c * exponents[s] for c, s in zip(assignment, symbols)) % m
            if m // math.gcd(value, m) != n:
                continue
            perms = {s: tuple((i + c) % m for i in range(m))
                     for s, c in zip(symbols, assignment)}
            q = FiniteQuotient(m, perms)
            problems = validate_quotient(q, x)
            if problems:
                raise InvariantError(
                    "cyclic quotient fails validation: " + "; ".join(problems))
            return q
    rng = random.Random(seed)
    for k in range(n, max_degree + 1):
        if k % n != 0:
            continue
        for _ in range(RANDOM_ATTEMPTS_PER_DEGREE):
            perms = {s: tuple(rng.sample(range(k), k)) for s in symbols}
            q = FiniteQuotient(k, perms)
            if not has_uniform_exponent_cycles(q, x):
                continue
            if validate_quotient(q, x):
                continue
            return q
    raise BudgetExhaustedError(
        f"no exponent-{n} quotient of degree <= {max_degree} found")


@dataclass(frozen=True)
class UnwrappedCover:
    cover: TwoComplex
    covering_map: OrbiMorphism
    families: dict[str, tuple[int, ...]]
    quotient: FiniteQuotient


def build_unwrapped_cover(x: OneRelatorOrbicomplex,
                          q: FiniteQuotient) -> UnwrappedCover:
    """Schreier cover of the rose with one 2-cell per orbit of the relator
    image, each the lift of the full relator power based at the least orbit
    point."""
    symbols = _rose_symbols(x)
    problems = validate_quotient(q, x)
    if problems:
        raise ValueError("; ".join(problems))
    n = x.branch_index
    eta_w = q.permutation_of(x.relator_word())
    if not has_uniform_exponent_cycles(q, x):
        raise ValueError(
            "exponent condition violated: relator image has a cycle shorter "
            f"than {n}, families would not have size {n}")
    k = q.degree
    edges = {}
    for s in symbols:
        for i in range(k):
            edges[f"{s}{i}"] = EdgeRec(f"p{i}", f"p{q.perms[s][i]}", s)
    g = Graph(frozenset(f"p{i}" for i in range(k)), edges)
    cells: dict[str, tuple[Dart, ...]] = {}
    families: dict[str, tuple[int, ...]] = {}
    seen = [False] * k
    index = 0
    power_word = x.relator_word() * n
    for p in range(k):
        if seen[p]:
            continue
        orbit = []
        j = p
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = eta_w[j]
        lift = g.read(power_word, f"p{p}")
        if lift is None or lift[1] != f"p{p}":
            raise InvariantError("relator power lift failed to close")
        cid = f"f{index}"
        cells[cid] = lift[0]
        families[cid] = tuple(orbit)
        index += 1
    cover = TwoComplex(g, cells, base_vertex="p0")
    covering_map = OrbiMorphism.by_labels(cover, x)
    cls = check_orbi_immersion(covering_map)
    if cls.kind < MapKind.IMMERSION:
        raise InvalidComplexError(
            f"unwrapped cover does not immerse: {cls.witness}")
    return UnwrappedCover(cover, covering_map, families, q)


@dataclass(frozen=True)
class CoverReport:
    passed: bool
    witnesses: tuple[str, ...]
    euler: int
    euler_expected: Fraction | None
    degree: int
    torsion_free_certified: bool


def verify_cover(c: UnwrappedCover) -> CoverReport:
    """Independent audit of a candidate unwrapped cover: graph-level covering,
    per-edge disk-side accounting, and the exact rational Euler identity
    chi(cover) = k (chi(rose) + 1/n)."""
    witnesses = []
    x = c.covering_map.target
    m = c.covering_map.as_cell_morphism()
    cover = c.cover
    cls = check_orbi_immersion(c.covering_map)
    if cls.kind < MapKind.IMMERSION:
        witnesses.append(f"not an immersion: {cls.witness}")
    g = cover.skeleton
    for v in sorted(g.vertices):
        have = {m.dart_image(d) for d in g.darts_at(v)}
        want = set(x.gamma.darts_at(m.vertex_map[v]))
        if have != want:
            witnesses.append(f"link at {v} is not onto the rose link")
    w = x.relator_word()
    n = x.branch_index
    k = c.quotient.degree
    if sorted(c.families) != sorted(cover.cells):
        witnesses.append("family record does not match the cover's cells")
    # the unwrap accounting below is vacuous for a cell-free candidate, which
    # is then judged purely as a covering of graphs
    if cover.cells or c.families:
        positions_of = {}
        for j, (sym, _) in enumerate(w):
            positions_of.setdefault(sym, []).append(j)
        for e in sorted(g.edges):
            labels = sorted(target_side(m.cell_map[cid], pos, len(w))[1]
                            for cid, pos in cover.sides_over[e])
            expected = sorted(positions_of.get(m.edge_map[e][0], []))
            if labels != expected:
                witnesses.append(
                    f"edge {e} carries disk sides {labels}, expected {expected}")
        expected_chi = k * (Fraction(euler_characteristic(
            TwoComplex(x.gamma, {}), 1)) + Fraction(1, n))
        if Fraction(euler_characteristic(cover, 2)) != expected_chi:
            witnesses.append(
                f"Euler characteristic {euler_characteristic(cover, 2)}"
                f" != {expected_chi}")
        points = [p for orbit in c.families.values() for p in orbit]
        if sorted(points) != list(range(k)):
            witnesses.append("families do not partition the quotient points")
        for cid in sorted(c.families):
            if cid not in cover.cells:
                continue
            if len(c.families[cid]) != n:
                witnesses.append(f"family of {cid} has size"
                                 f" {len(c.families[cid])}, expected {n}")
            if len(cover.cells[cid]) != n * len(w):
                witnesses.append(f"cell {cid} has boundary length"
                                 f" {len(cover.cells[cid])}, expected {n * len(w)}")
    else:
        expected_chi = None
    certified = has_uniform_exponent_cycles(c.quotient, x) \
        if sorted(c.quotient.perms) == sorted(x.gamma.edges) else False
    return CoverReport(
        passed=not witnesses,
        witnesses=tuple(witnesses),
        euler=euler_characteristic(cover, 2),
        euler_expected=expected_chi,
        degree=k,
        torsion_free_certified=certified,
    )


def pull_back_subgroup(generators: list[Word],
                       q: FiniteQuotient) -> list[Word]:
    """Generators of the subgroup's intersection with the point stabilizer.

    Builds the coset graph of the generated subgroup acting on the orbit of
    point 0, takes a breadth-first spanning tree, and returns the Schreier
    generators t_p h t_{p.h}^{-1} of the non-tree edges, freely reduced, in
    breadth-first point order and input generator order.
    """
    transversal: dict[int, Word] = {0: ()}
    order = [0]
    tree: set[tuple[int, int]] = set()
    queue = [0]
    while queue:
        p = queue.pop(0)
        for i, h in enumerate(generators):
            r = q.act(p, h)
            if r not in transversal:
                transversal[r] = free_reduce(transversal[p] + tuple(h))
                tree.add((p, i))
                order.append(r)
                queue.append(r)
            r2 = q.act(p, inverse_word(h))
            if r2 not in transversal:
                transversal[r2] = free_reduce(
                    transversal[p] + inverse_word(h))
                tree.add((r2, i))
                order.append(r2)
                queue.append(r2)
    out: list[Word] = []
    for p in order:
        for i, h in enumerate(generators):
            if (p, i) in tree:
                continue
            r = q.act(p, h)
            word = free_reduce(
                transversal[p] + tuple(h) + inverse_word(transversal[r]))
            out.append(word)
    return out
