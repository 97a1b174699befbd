"""Finite exponent quotients and unwrapped covers of one-relator orbicomplexes.

A finite quotient is a permutation action of the free group on points
{0..k-1}.  When the image of the relator w acts with every cycle of length
exactly the branch index n, the Schreier cover of the rose supports one
2-cell per orbit of the w-image, each of boundary length n|w|: the unwrapped
cover, an honest 2-complex immersing into the orbicomplex and covering it
away from the cone point.  The quotient search returns the first candidate
of least degree that ``validate_quotient`` accepts: a cyclic quotient, or
a table of the one low-index search, ``UnwrappingActionTree``, whose walk
in increasing order is ``unwrapping_actions``.  The cover's 1-skeleton is
the quotient's Schreier graph, whose fibre product with a subgroup's graph
gives the subgroup's intersection with the cover's group.  A built cover
is an audited cover: ``build_unwrapped_cover`` returns only what
``verify_cover`` passes, and the audit reads covering off the map ladder.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .complexes import (CellMorphism, Dart, EdgeRec, Graph, TwoComplex,
                        _components, _covering_fault, euler_characteristic)
from .errors import ArgumentError, BudgetExhaustedError, InvariantError
from .orbicomplex import OneRelatorOrbicomplex, by_labels
from .words import Word, _check_letters

Perm = tuple[int, ...]


def _is_perm(p: Perm, k: int) -> bool:
    return len(p) == k and sorted(p) == list(range(k))


def _walk(perms: dict[str, Perm], point: int, word: Word) -> int:
    """The image of ``point`` under ``word``: a letter reads its permutation
    forwards, an inverse letter backwards, by searching the permutation."""
    for sym, sign in word:
        p = perms[sym]
        point = p[point] if sign > 0 else p.index(point)
    return point


class FiniteQuotient(NamedTuple):
    degree: int
    perms: dict[str, Perm]

    def permutation_of(self, word: Word) -> Perm:
        _check_letters(word, self.perms)
        return tuple(_walk(self.perms, p, word) for p in range(self.degree))

    def act(self, point: int, word: Word) -> int:
        _check_letters(word, self.perms)
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} is not in range({self.degree})")
        return _walk(self.perms, point, word)


def _unwrap_cycles(q: FiniteQuotient, x: OneRelatorOrbicomplex
                   ) -> tuple[str | None, list[tuple[int, ...]]]:
    """``validate_quotient``'s problem, or None, and, when there is none,
    the cycles of the relator image in order of least points, each walked
    from its least point through the letters' permutations (``_walk``).

    The walk stops at the first cycle whose length is not the branch index.
    The action is transitive when point 0's component, over the arcs
    ``p -> perm(p)``, holds every point.
    """
    symbols = x._rose_symbols
    perms = q.perms
    if sorted(perms) != symbols:
        return "permutations do not match the rose symbols", []
    k = q.degree
    for s in symbols:
        if not _is_perm(perms[s], k):
            return f"image of {s} is not a permutation of degree {k}", []
    n = x.branch_index
    found: list[tuple[int, ...]] = []
    seen = [False] * k
    for i in range(k):
        cycle, j = [], i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = _walk(perms, j, x.relator)
        if not cycle:
            continue
        if len(cycle) != n:
            return ("exponent condition violated: relator image has a cycle"
                    f" of order {len(cycle)}, expected {n}"), []
        found.append(tuple(cycle))
    if k < 1:
        return "degree must be at least 1", []
    arcs = ((p, perms[s][p]) for s in symbols for p in range(k))
    if len(next(_components(range(k), arcs, (0,)))) != k:
        return "action is not transitive", []
    return None, found


def validate_quotient(q: FiniteQuotient, x: OneRelatorOrbicomplex) -> list[str]:
    """The first problem that keeps a quotient from unwrapping the orbicomplex,
    or an empty list.

    The rule: the quotient acts transitively by permutations of the rose's
    symbols, and every cycle of the relator image has length exactly the
    branch index n.  That is stronger than the image having order n, and is
    what makes the unwrapped cover an honest complex: a shorter cycle would
    leave residual branching, a torsion element in the cover's group.

    The checks run in that order: symbols, permutations, the relator image,
    the degree, transitivity.  The relator image is walked once, one cycle
    at a time, and the walk stops at the first cycle of the wrong length.
    """
    problem, _ = _unwrap_cycles(q, x)
    return [problem] if problem else []


SEARCH_NODE_BUDGET = 3_000_000
# the bits of a walk's key that turn the branch order at one table entry
_ORDER_BITS = 16
# the nodes a search tree keeps, at most about 5 MB of them; a walk that
# goes past them expands the nodes beyond again
KEPT_TREE_NODES = 20_000
# a branch of the search tree that holds no table, and a full table
_NO_TABLE, _TABLE = object(), object()


class UnwrappingActionTree:
    """Sims' low-index search (*Computation with Finitely Presented Groups*,
    1994, ch. 5; Culler and Dunfield's ``low_index`` is one in C++) for the
    transitive actions on {0..degree-1} in which every cycle of the relator
    image has length n, each read from its standard coset table, and its
    search tree, expanded only as far as walks reach and kept with every
    branch found to hold no table marked.

    Entry ``point * width + column`` of the table is a point's image, -1
    while undefined; column 2i reads symbol i forwards and column 2i + 1
    backwards.  The first undefined entry in row-major order (point, symbol,
    direction) takes each earlier point whose opposite entry is free, then
    the next new point.  A branch is cut when ``w^n`` read from some point
    returns at a multiple of ``|w|`` before its end, or reads in full
    without returning; after each entry only the walks that read it are
    read again.  The tree keeps the first ``KEPT_TREE_NODES`` nodes that
    walks reach: all of them for ``ab``/3 at degree 6 (about 1,600), and a
    part that grows by a few per draw for ``ab``/5 at degree 10, whose
    search tries millions of entries."""

    def __init__(self, x: OneRelatorOrbicomplex, degree: int):
        if degree < 1:
            raise ValueError(f"degree must be at least 1, got {degree}")
        self.degree = degree
        self._column = {s: 2 * i for i, s in enumerate(x._rose_symbols)}
        self._width = 2 * len(self._column)
        self._period = len(x.relator)
        self._path = [self._column[s] + (sign < 0)
                      for s, sign in x.relator] * x.branch_index
        # per column, for each step of the path that reads it, the columns
        # that read the steps before it backwards, last first
        self._before = [[[c ^ 1 for c in reversed(self._path[:j])]
                         for j, c in enumerate(self._path) if c == col]
                        for col in range(self._width)]
        self._bits = _ORDER_BITS * degree * self._width
        self._root = None
        self._kept = 1

    def tables(self, key: int):
        """Every table of the search once, as the permutations of the rose
        symbols, where the points for entry ``pos`` are tried in increasing
        cyclic order from the key's ``pos``-th 16-bit field, modulo their
        number.  A walk holds its path itself and stops early only when it
        spends ``SEARCH_NODE_BUDGET`` entries, none on nodes kept, raising
        ``BudgetExhaustedError``.  The call, not the first ``next``, resets
        the tree's one table and budget: a walk left suspended must never be
        resumed once a later walk of the same tree starts."""
        self._table = table = [-1] * (self.degree * self._width)
        self._budget = iter(range(SEARCH_NODE_BUDGET))
        mask = (1 << _ORDER_BITS) - 1

        # a node is _TABLE, _NO_TABLE, or (pos, row, points, children), where
        # a child not yet reached is None; a node left with every child
        # _NO_TABLE becomes one in its parent.  The path holds [node, branch
        # indices left, branch taken or None] per node entered.
        def walk(child):
            path = []
            while True:
                held = child is _TABLE
                if held:
                    yield self._perms()
                elif child is not _NO_TABLE:
                    k = len(child[2])
                    first = ((key >> (_ORDER_BITS * child[0])) & mask) % k
                    # first - k .. -1 read first .. k - 1, then 0 .. first - 1
                    path.append([child, iter(range(first - k, first)), None])
                child = None
                while child is None:
                    if not path:
                        return
                    frame = path[-1]
                    (pos, row, points, children), indices, taken = frame
                    if taken is not None:
                        if not held:
                            children[taken] = _NO_TABLE
                        table[pos] = table[points[taken][1]] = -1
                    for j in indices:
                        child = children[j]
                        if child is _NO_TABLE:
                            continue
                        point, opposite, reached = points[j]
                        if child is not None:
                            table[pos], table[opposite] = point, row
                        elif self._enter(pos, row, point, opposite):
                            child = self._expand(pos + 1, reached)
                            if self._kept < KEPT_TREE_NODES:
                                children[j] = child
                                self._kept += 1
                        else:
                            children[j] = _NO_TABLE
                            continue
                        frame[2] = j
                        break
                    else:
                        child = None
                        held = children.count(_NO_TABLE) < len(children)
                        path.pop()

        if self._root is None:
            self._root = self._expand(0, 1)
        return walk(self._root)

    def draw(self, rng) -> dict[str, Perm] | None:
        """The first table of ``tables`` for the key of one
        ``rng.getrandbits``, or None: a function of the key alone, whatever
        earlier walks expanded, and not uniform, as a table on a branch with
        fewer siblings is likelier."""
        return next(self.tables(rng.getrandbits(self._bits)), None)

    def _perms(self) -> dict[str, Perm]:
        return {s: tuple(self._table[c::self._width])
                for s, c in self._column.items()}

    def _refused(self, start: int) -> bool:
        table, width, period, path = (self._table, self._width, self._period,
                                      self._path)
        point = start
        for j, col in enumerate(path, 1):
            point = table[point * width + col]
            if point < 0:
                return False
            if point == start and j % period == 0:
                return j < len(path)
        return True

    def _expand(self, pos: int, used: int):
        """The node at the first undefined entry at or after ``pos``: _TABLE
        when the table is full, else the entry, its row, and each point it
        may take, in increasing order, with the index of the opposite entry
        and the number of points then reached; _NO_TABLE when the rows of
        the ``used`` points reached are full, as the action is then not
        transitive, or no point may be taken."""
        table, width = self._table, self._width
        while pos < len(table) and table[pos] >= 0:
            pos += 1
        row, col = divmod(pos, width)
        if pos == len(table):
            return _TABLE
        if row >= used:
            return _NO_TABLE
        opposites = ((point, point * width + (col ^ 1))
                     for point in range(min(used + 1, self.degree)))
        points = [(point, opposite, max(used, point + 1))
                  for point, opposite in opposites if table[opposite] < 0]
        if not points:
            return _NO_TABLE
        return pos, row, points, [None] * len(points)

    def _enter(self, pos: int, row: int, point: int, opposite: int) -> bool:
        """Whether no relator walk refuses the table with entry ``pos`` set
        to ``point`` and its opposite to ``row``; both stay set when none
        does.  Each call spends one node of the budget."""
        if next(self._budget, None) is None:
            raise BudgetExhaustedError(
                f"search node budget of {SEARCH_NODE_BUDGET} exhausted"
                f" at degree {self.degree}")
        table = self._table
        table[pos], table[opposite] = point, row
        if any(self._refused(p) for p in self._starts_through(pos, point)):
            table[pos] = table[opposite] = -1
            return False
        return True

    def _starts_through(self, pos: int, point: int):
        """The points whose walk of the path reads entry ``pos`` or its
        opposite, found by reading the path backwards from the entry: only
        their walks can be refused now that the table has the entry."""
        table, width = self._table, self._width
        row, col = divmod(pos, width)
        for end, c in ((row, col), (point, col ^ 1)):
            for back in self._before[c]:
                p = end
                for b in back:
                    p = table[p * width + b]
                    if p < 0:
                        break
                else:
                    yield p


def unwrapping_actions(x: OneRelatorOrbicomplex, degree: int):
    """The permutations of the rose symbols of each transitive action on
    {0..degree-1} in which every cycle of the relator image has length n,
    once each: the walk of a new ``UnwrappingActionTree`` in increasing
    order.  Raises ``ValueError`` at once for a degree below 1, and
    ``BudgetExhaustedError`` naming the degree only when the walk spends
    ``SEARCH_NODE_BUDGET`` entries."""
    return UnwrappingActionTree(x, degree).tables(0)


def _check_max_degree(max_degree: int) -> None:
    if max_degree < 1:
        raise ArgumentError("max_degree",
                            f"must be at least 1, got {max_degree}")


def find_exponent_n_quotient(x: OneRelatorOrbicomplex,
                             max_degree: int) -> FiniteQuotient:
    """The first candidate of the least degree that ``validate_quotient``
    accepts: for each multiple m of n up to ``max_degree``, the cyclic
    quotients Z/m (each letter a shift) in product order, then
    ``unwrapping_actions(x, m)``.  Raises ``BudgetExhaustedError`` when no
    degree up to ``max_degree`` has one, or, naming the degree, when the
    search at one degree spends ``SEARCH_NODE_BUDGET`` entries."""
    _check_max_degree(max_degree)
    symbols = x._rose_symbols
    n = x.branch_index
    for m in range(n, max_degree + 1, n):
        shifts = ({s: tuple((i + c) % m for i in range(m))
                   for s, c in zip(symbols, reversed(rev))}
                  for rev in itertools.product(range(m), repeat=len(symbols)))
        for perms in itertools.chain(shifts, unwrapping_actions(x, m)):
            q = FiniteQuotient(m, perms)
            if not validate_quotient(q, x):
                return q
    raise BudgetExhaustedError(
        f"no exponent-{n} quotient of degree <= {max_degree} exists")


class UnwrappedCover(NamedTuple):
    """A cover with its cell families, quotient and orbicomplex.  Its map
    into the orbicomplex is by labels, built on each read of the property."""
    cover: TwoComplex
    families: dict[str, tuple[int, ...]]
    quotient: FiniteQuotient
    orbicomplex: OneRelatorOrbicomplex

    @property
    def covering_map(self) -> CellMorphism:
        return by_labels(self.cover, self.orbicomplex)


def build_unwrapped_cover(x: OneRelatorOrbicomplex,
                          q: FiniteQuotient) -> UnwrappedCover:
    """Schreier cover of the rose with one 2-cell per orbit of the relator
    image, each the lift of the full relator power based at the least orbit
    point.  Raises ``ValueError`` for a quotient that does not unwrap, and
    ``InvariantError`` naming the witnesses of a failed ``verify_cover``,
    which runs once here, so a built cover is an audited cover."""
    problem, orbits = _unwrap_cycles(q, x)
    if problem:
        raise ValueError(problem)
    g = Graph(frozenset(f"p{i}" for i in range(q.degree)),
              {f"{s}{i}": EdgeRec(f"p{i}", f"p{j}", s)
               for s in x._rose_symbols for i, j in enumerate(q.perms[s])})
    cells: dict[str, tuple[Dart, ...]] = {}
    families: dict[str, tuple[int, ...]] = {}
    for index, orbit in enumerate(orbits):
        start = f"p{orbit[0]}"
        lift = g.read(x.relator_power_path(), start)
        if lift is None or lift[1] != start:
            raise InvariantError("relator power lift failed to close")
        cells[f"f{index}"] = lift[0]
        families[f"f{index}"] = orbit
    c = UnwrappedCover(TwoComplex(g, cells, base_vertex="p0"), families, q, x)
    witnesses = verify_cover(c).witnesses
    if witnesses:
        raise InvariantError("cover audit failed: " + "; ".join(witnesses))
    return c


class CoverReport(NamedTuple):
    witnesses: tuple[str, ...]
    euler: int

    @property
    def passed(self) -> bool:
        return not self.witnesses


def verify_cover(c: UnwrappedCover) -> CoverReport:
    """Independent audit of a candidate unwrapped cover, whose map is read by
    labels: one witness for the first fault of the covering rung
    (``_covering_fault``, disk sides modulo |w|), then the family record,
    the Euler identity chi(cover) = k (chi(rose) + 1/n), in integers, the
    families' partition of the quotient points into orbits of size n, and
    a witness for each problem ``validate_quotient`` finds in the quotient.
    ``build_unwrapped_cover`` runs it once on every cover it builds; called
    directly, it audits a cover record made elsewhere."""
    x, cover = c.orbicomplex, c.cover
    cls = _covering_fault(c.covering_map, len(x.relator))
    witnesses = [f"not a covering: {cls.witness}"] if cls else []
    if sorted(c.families) != sorted(cover.cells):
        witnesses.append("family record does not match the cover's cells")
    n, k = x.branch_index, c.quotient.degree
    chi = euler_characteristic(cover, 2)
    n_expected = k * (n * euler_characteristic(x.presentation_complex, 1) + 1)
    if n * chi != n_expected:
        # imported on use: a passing cover needs no rational
        from fractions import Fraction
        witnesses.append(
            f"Euler characteristic {chi} != {Fraction(n_expected, n)}")
    points = [p for orbit in c.families.values() for p in orbit]
    if sorted(points) != list(range(k)):
        witnesses.append("families do not partition the quotient points")
    witnesses += [f"family of {cid} has size {len(orbit)}, expected {n}"
                  for cid, orbit in sorted(c.families.items())
                  if cid in cover.cells and len(orbit) != n]
    witnesses += [f"quotient does not unwrap: {problem}"
                  for problem in validate_quotient(c.quotient, x)]
    return CoverReport(tuple(witnesses), chi)
