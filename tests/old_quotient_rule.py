"""The exponent-n quotient rule as two separate checks, kept as a reference.

``validate_quotient`` once checked symbols, permutations, transitivity and
that the relator image has order n, and ``has_uniform_exponent_cycles``
checked that every cycle of that image has length n.  A quotient unwraps the
orbicomplex exactly when both pass; ``orelco.covers.validate_quotient`` now
decides the same thing from one orbit walk.
"""

import math


def cycle_lengths(p):
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


def permutation_order(p):
    return math.lcm(*cycle_lengths(p)) if p else 1


def orbits(p):
    """The orbit walk that built the cover's families: from each unseen
    point in increasing order, follow ``p`` until it returns."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        orbit, j = [], i
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = p[j]
        out.append(tuple(orbit))
    return out


def validate_quotient(q, x):
    g = x.gamma
    if len(g.vertices) != 1 or any(rec.label != e
                                   for e, rec in g.edges.items()):
        raise ValueError("not a rose named by its labels")
    symbols = sorted(g.edges)
    if sorted(q.perms) != symbols:
        return ["permutations do not match the rose symbols"]
    for s in symbols:
        p = q.perms[s]
        if len(p) != q.degree or sorted(p) != list(range(q.degree)):
            return [f"image of {s} is not a permutation of degree {q.degree}"]
    problems = []
    reached, frontier = {0}, [0]
    while frontier:
        p = frontier.pop()
        for s in symbols:
            for image in (q.perms[s][p], q.perms[s].index(p)):
                if image not in reached:
                    reached.add(image)
                    frontier.append(image)
    if len(reached) != q.degree:
        problems.append("action is not transitive")
    order = permutation_order(q.permutation_of(x.relator))
    if order != x.branch_index:
        problems.append(
            f"relator image has order {order}, expected {x.branch_index}")
    return problems


def has_uniform_exponent_cycles(q, x):
    n = x.branch_index
    return all(length == n for length in
               cycle_lengths(q.permutation_of(x.relator)))


def accepts(q, x):
    """What the two checks decided together."""
    return not validate_quotient(q, x) and has_uniform_exponent_cycles(q, x)
