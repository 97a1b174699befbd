"""The quotient rule read from its definitions, for the tests to compare
the library with; it imports nothing from ``orelco``.

``perms`` maps each symbol of the rose to the images of the points
{0..degree-1}, and a word is a tuple of letters ``(symbol, sign)``, sign 1
or -1.  An action unwraps the orbicomplex of relator ``w`` and branch index
``n`` when it is transitive and every cycle of the image of ``w`` has
length ``n``; each subgroup of index ``d`` is ``(d - 1)!`` transitive
actions, one per numbering of the points other than 0 (Sims, *Computation
with Finitely Presented Groups*, 1994, ch. 5).
"""

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
    reached, frontier = {0}, [0]
    while frontier:
        point = frontier.pop()
        for p in perms.values():
            for image in (p[point], inverse(p)[point]):
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
