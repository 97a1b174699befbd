"""Rules read from their definitions, for the tests to compare the library
with; this module imports nothing from ``orelco``.

The quotient rule.  ``perms`` maps each symbol of the rose to the images of
the points {0..degree-1}, and a word is a tuple of letters ``(symbol,
sign)``, sign 1 or -1.  An action unwraps the orbicomplex of relator ``w``
and branch index ``n`` when it is transitive and every cycle of the image of
``w`` has length ``n``; each subgroup of index ``d`` is ``(d - 1)!``
transitive actions, one per numbering of the points other than 0 (Sims,
*Computation with Finitely Presented Groups*, 1994, ch. 5).

Graphs, complexes and maps.  Edge ``e``, a record ``(tail, head, label)``,
has darts ``(e, 1)`` from its tail and ``(e, -1)`` from its head; a cell is
a tuple of darts; a map has the fields of a ``CellMorphism``.
"""

import collections
import itertools


def compose(p1, p2):
    """``p1`` then ``p2``."""
    return tuple(p2[p1[i]] for i in range(len(p1)))


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def word_permutation(perms, degree, word):
    """The image of ``word``, folded one letter at a time."""
    out = tuple(range(degree))
    for sym, sign in word:
        p = perms[sym]
        out = compose(out, p if sign > 0 else inverse(p))
    return out


def relator_cycles(perms, degree, relator):
    """The cycles of the relator image in order of least points, each read
    from its least point."""
    p = word_permutation(perms, degree, relator)
    seen, out = set(), []
    for start in range(degree):
        if start in seen:
            continue
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = p[j]
        out.append(tuple(cycle))
    return out


def is_transitive(perms, degree):
    """Whether a search from point 0 along every permutation, forwards and
    backwards, reaches every point; an action on no points is not."""
    if degree < 1:
        return False
    both_ways = [*perms.values(), *map(inverse, perms.values())]
    reached, frontier = {0}, [0]
    while frontier:
        point = frontier.pop()
        for p in both_ways:
            image = p[point]
            if image not in reached:
                reached.add(image)
                frontier.append(image)
    return len(reached) == degree


def is_action(perms, degree, symbols):
    """Whether ``perms`` maps exactly ``symbols`` to permutations."""
    return sorted(perms) == sorted(symbols) and all(
        sorted(p) == list(range(degree)) for p in perms.values())


def unwraps(perms, degree, symbols, relator, n):
    """Whether the action unwraps the orbicomplex."""
    return (is_action(perms, degree, symbols)
            and is_transitive(perms, degree)
            and all(len(c) == n
                    for c in relator_cycles(perms, degree, relator)))


def quotient_unwraps(q, x):
    """``unwraps`` for a ``FiniteQuotient`` and an orbicomplex."""
    return unwraps(q.perms, q.degree, x.gamma.edges, x.relator,
                   x.branch_index)


def permutation_tuples(symbols, degree):
    """The brute force's domain: every assignment of a permutation of
    {0..degree-1} to each symbol, for a degree from 1 to 4."""
    if not 1 <= degree <= 4:
        raise ValueError(f"degree must be from 1 to 4, got {degree}")
    symbols = sorted(symbols)
    for images in itertools.product(itertools.permutations(range(degree)),
                                    repeat=len(symbols)):
        yield dict(zip(symbols, images))


def standard_table(perms):
    """``perms`` renumbered to its standard coset table: 0 stays 0, and
    each other point takes the next number when it is first met, scanning
    the numbered points in order and at each every symbol forwards, then
    backwards."""
    inverses = {s: inverse(p) for s, p in perms.items()}
    order = [0]
    for p in order:
        for s in sorted(perms):
            for image in (perms[s][p], inverses[s][p]):
                if image not in order:
                    order.append(image)
    number = {p: i for i, p in enumerate(order)}
    return {s: tuple(number[perms[s][p]] for p in order)
            for s in sorted(perms)}


# ---------------------------------------------------------------------------
# graphs, complexes and maps


def _root(parent, x):
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent, a, b):
    """Join the classes of ``a`` and ``b``; whether they were apart."""
    a, b = _root(parent, a), _root(parent, b)
    parent[a] = b
    return a != b


def _least(parent, key=None):
    """Each member of the union-find ``parent`` to the least of its class."""
    classes = collections.defaultdict(list)
    for x in parent:
        classes[_root(parent, x)].append(x)
    return {x: min(xs, key=key) for xs in classes.values() for x in xs}


def rank(vertices, edges):
    """The rank of the free fundamental group of the graph of ``vertices``
    and ``edges``: its edges outside a spanning forest, each joining ends
    that the edges before it, by id, already join."""
    parent = {v: v for v in vertices}
    return sum(not _union(parent, *edges[e][:2]) for e in sorted(edges))


def darts(edges):
    """Both darts of every edge, by edge id, forward dart first."""
    return [(e, s) for e in sorted(edges) for s in (1, -1)]


def origin(edges, dart):
    tail, head = edges[dart[0]][:2]
    return tail if dart[1] > 0 else head


def graph_tables(vertices, edges):
    """``(links, reads, clash)``: the darts at each vertex, in the order of
    ``darts``; the dart that reads each letter at each vertex, ``(e, s)``
    reading ``(x, s)`` at its origin if ``e`` is labelled ``x``; and None,
    or ``(earlier, dart, vertex, letter)`` at the first dart in that order
    to read a letter that an earlier one reads there, where reading stops."""
    links, reads, clash = {v: [] for v in vertices}, {}, None
    for d in darts(edges):
        v, label = origin(edges, d), edges[d[0]][2]
        links[v].append(d)
        if label is not None and clash is None:
            key = (v, (label, d[1]))
            first = reads.setdefault(key, d)
            clash = None if first == d else (first, d, *key)
    return {v: tuple(ds) for v, ds in links.items()}, reads, clash


NOT_MORPHISM, MORPHISM, IMMERSION, COVERING = range(4)


def _image(m, dart):
    f, s = m.edge_map[dart[0]]
    return (f, s * dart[1])


def map_rung(m, period=None):
    """The rung of ``m`` on the ladder not-morphism < morphism < immersion <
    covering: the lowest whose condition fails, or ``COVERING``.

    * Morphism: the vertex, edge and cell maps each send exactly the
      source's parts to the target's, with edge signs and orientations 1 or
      -1; each dart's origin goes to its image's; each cell's boundary is
      its target cell read from its offset in its orientation.
    * Immersion: the darts at a vertex have distinct images, and so do the
      sides over an edge; position ``i`` of a cell with image ``(c, r, s)``
      lies over side ``r + s i`` of ``c``, modulo ``period`` (the sides of a
      branched disk) if one is given, else modulo the length.
    * Covering: the darts at each vertex, and the sides over each edge, go
      onto those of the image.  With a ``period`` the ladder stops at
      immersion: a map into a branched disk has no covering rung.
    """
    src, tgt = m.source, m.target
    sedges, tedges = src.skeleton.edges, tgt.skeleton.edges
    vmap, emap, cmap = m.vertex_map, m.edge_map, m.cell_map

    def read(cell, offset, orient):
        q = tgt.cells[cell]
        return tuple((e, orient * s) for e, s in (
            q[(offset + orient * i) % len(q)] for i in range(len(q))))

    if (set(vmap) != set(src.skeleton.vertices)
            or not set(vmap.values()) <= set(tgt.skeleton.vertices)
            or set(emap) != set(sedges) or set(cmap) != set(src.cells)
            or any(f not in tedges or s not in (1, -1)
                   for f, s in emap.values())
            or any(c not in tgt.cells or s not in (1, -1)
                   for c, _, s in cmap.values())
            or any(vmap[origin(sedges, d)] != origin(tedges, _image(m, d))
                   for d in darts(sedges))
            or any(tuple(_image(m, d) for d in src.cells[c]) != read(*im)
                   for c, im in cmap.items())):
        return NOT_MORPHISM
    links = [(origin(sedges, d), _image(m, d)) for d in darts(sedges)]
    sides = [(d[0], (cmap[c][0], (cmap[c][1] + cmap[c][2] * i)
                     % (period or len(path))))
             for c, path in src.cells.items() for i, d in enumerate(path)]
    if len(set(links)) < len(links) or len(set(sides)) < len(sides):
        return MORPHISM
    if period is not None:
        return IMMERSION
    target_links = [(origin(tedges, d), d) for d in darts(tedges)]
    target_sides = [(d[0], (c, i)) for c, path in tgt.cells.items()
                    for i, d in enumerate(path)]
    onto = (set(links) == {(v, d) for v in vmap
                           for w, d in target_links if w == vmap[v]}
            and set(sides) == {(e, side) for e, (f, _) in emap.items()
                               for g, side in target_sides if g == f})
    return COVERING if onto else IMMERSION


def fold_parts(m):
    """The Stallings fold of the morphism ``m``: the projection's vertex, edge
    and cell maps, and the folded complex's vertices, edges and cells.

    Two darts whose origins are in one vertex class and which have one image
    merge, and so do their reverses, which merges the classes of their ends,
    until no such pair is left.  A vertex goes to the least name of its
    class, and edge ``e`` to the least dart of the class of ``(e, 1)``, by
    edge id with the forward dart first.  Cells, their boundaries pushed
    along those darts, merge when they have one target cell and lay one dart
    over each of its sides, position ``i`` of a cell with image ``(c, r,
    s)`` lying over side ``r + s i`` in direction ``s``.  A cell goes to the
    least cell ``k`` of its class, with image ``(c, r_k, s_k)``, as ``(k,
    s_k (r - r_k), s s_k)``, which composes with ``k``'s to the cell's.
    """
    src, edges = m.source, m.source.skeleton.edges
    vparent = {v: v for v in src.skeleton.vertices}
    dparent = {d: d for d in darts(edges)}
    merged = True
    while merged:
        merged, first = False, {}
        for d in darts(edges):
            other = first.setdefault(
                (_root(vparent, origin(edges, d)), _image(m, d)), d)
            if _union(dparent, other, d):
                reverses = [(e, -s) for e, s in (other, d)]
                _union(dparent, *reverses)
                _union(vparent, *(origin(edges, x) for x in reverses))
                merged = True
    vertex_map = _least(vparent)
    dart_map = _least(dparent, key=lambda d: (d[0], -d[1]))
    edge_map = {e: dart_map[(e, 1)] for e in edges}

    def pushed(path):
        return tuple((edge_map[e][0], edge_map[e][1] * s) for e, s in path)

    kept, cell_map = {}, {}
    for c in sorted(src.cells):
        (cell, r, s), n = m.cell_map[c], len(src.cells[c])
        over = sorted(((r + s * i) % n, (e, s * t))
                      for i, (e, t) in enumerate(pushed(src.cells[c])))
        k = kept.setdefault((cell, tuple(over)), c)
        _, r_k, s_k = m.cell_map[k]
        cell_map[c] = (k, s_k * (r - r_k) % n, s * s_k)
    return (vertex_map, edge_map, cell_map, frozenset(vertex_map.values()),
            {e: (vertex_map[tail], vertex_map[head], label)
             for e, (tail, head, label) in edges.items()
             if edge_map[e] == (e, 1)},
            {k: pushed(src.cells[k]) for k in kept.values()})
