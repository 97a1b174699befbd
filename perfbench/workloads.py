"""The three benchmark workloads: seeded inputs, timed operations, verdicts.

Every workload is a list of distinct operations, which the runner repeats
round by round, one operation after another in one process (a closed loop
with one client).  Inputs come only from the workload seed.  An operation is a timed ``work`` call and an
untimed ``check`` of its result, which returns ``None`` when the verdict
matches an answer known independently of the library under test and a
short reason otherwise.  The runner times only ``work`` and pauses the
tracer during ``check``.

The expected answers are computed here without the library where that is
possible: trivial words are products of conjugates of ``w^(+-n)`` built
here, nontrivial words have a nontrivial image in a permutation quotient
found and verified here, and free reduction is re-implemented here.
"""

from __future__ import annotations

import hashlib
import random

PAIRS = (("ab2", "a b", 2), ("abab~2", "a b a b~", 2), ("ab3", "a b", 3))

# present_subgroup instances: (name, relator, n, generators, max_word_len).
PRESENT_INSTANCES = (
    ("reference", "a b", 2, ("b", "a a", "a b a~"), 12),
    ("ab3-rank4", "a b", 3, ("a b a", "b a b", "a a"), 6),
    ("abab~2-small", "a b a b~", 2, ("a", "b a b~"), 6),
)

# sha256 of _presentation_text() as computed when this benchmark was
# written; the reference instance is checked against its known answer.
PRESENT_DIGESTS = {
    "ab3-rank4":
        "7819de517c5216d90670b57a1be7b45a66999c589edcaef1c2baa02f2c9ade0b",
    "abab~2-small":
        "4065e69408baad70713e678f6b7a02ec8bd30048b85984bba4ee75cf5a393dd6",
}

DIAGRAM_MIN_LEN, DIAGRAM_MAX_LEN = 150, 900
# Each of DIAGRAM_GROUPS groups holds one long trivial word per relator, one
# short trivial word and one nontrivial word; the short and nontrivial words
# cycle through the relators, and the short word's nominal length through
# SHORT_LENGTHS.  A diagram's cost grows with length and, at a given
# length, almost linearly with the Dehn steps taken beyond the number of
# conjugates: each extra step leaves a mirror pair of cells to cancel, so
# random products of one length differ in cost up to tenfold.  Long words
# therefore take the median number of extra steps for their generator
# (found from 300 products, rng seed 2018), or the nearest number among
# STRATIFY_DRAWS products, so that set-up does the same work for every
# seed.  Their nominal lengths made the three relators cost about the same
# when this benchmark was written, so the operation time percentiles fall
# inside one population of similar operations.  Nine groups give 45
# operations, enough that the percentiles vary little from seed to seed.
# relator tag -> (nominal length, extra steps)
LONG_WORDS = {"ab2": (520, 26), "abab~2": (850, 6), "ab3": (800, 10)}
SHORT_LENGTHS = (150, 250, 350)
DIAGRAM_GROUPS = 9
STRATIFY_DRAWS = 8
CAMPAIGN_OPS = 1200
CAMPAIGN_BUDGETS = (6, 12)

# Seconds of the --seconds budget per round, a round being one run of every
# distinct operation.  On a 2-core x86-64 container with Python 3.11 a round
# takes 8-12 s (present, 3 operations), 14-17 s (diagrams, 45 operations)
# and 1.5-2 s (campaign, 1200 operations), so a 30 s run lasts 20-45 s.  The
# number of rounds is seconds // budget, so a run's work depends only on
# its arguments and its counters can be compared exactly.
NOMINAL_ROUND_S = {"present": 10, "diagrams": 15, "campaign": 2.5}


# ---------------------------------------------------------------------------
# library-independent word helpers


def parse(text: str) -> tuple:
    out = []
    for tok in text.split():
        out.append((tok[0], -1) if tok.endswith("~") else (tok, 1))
    return tuple(out)


def reduce_word(word) -> tuple:
    out: list = []
    for sym, sign in word:
        if out and out[-1] == (sym, -sign):
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def invert(word) -> tuple:
    return tuple((sym, -sign) for sym, sign in reversed(word))


def word_text(word) -> str:
    return " ".join(sym + ("~" if sign < 0 else "") for sym, sign in word)


def random_reduced_word(rng: random.Random, length: int, symbols) -> tuple:
    out: list = []
    while len(out) < length:
        letter = (rng.choice(symbols), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)


def dehn_steps(word, relator, n: int) -> int:
    """Replacement steps of the greedy solver, re-implemented
    here to stratify inputs without running the library: at the first
    position with a factor of length > n|w|/2 of a rotation of
    ``relator^(+-n)``, replace the longest such factor (first in rotation
    order among equals) by the inverse of its complement, reduce, repeat.
    Positions left of the last change are not rescanned; they cannot match."""
    power = tuple(relator) * n
    m = len(power)
    threshold = m // 2 + 1
    inv = invert(power)
    table = []
    for idx in range(m):
        table.append(power[idx:] + power[:idx])
        table.append(inv[idx:] + inv[:idx])
    u = list(word)
    steps = start = 0
    while u:
        found = None
        for i in range(start, len(u) - threshold + 1):
            cap = min(len(u) - i, m)
            best, best_rot = 0, None
            for rot in table:
                k = 0
                while k < cap and u[i + k] == rot[k]:
                    k += 1
                if k >= threshold and k > best:
                    best, best_rot = k, rot
            if best_rot is not None:
                found = (i, best, best_rot)
                break
        if found is None:
            return steps
        i, length, rot = found
        left = u[:i]
        for sym, sign in invert(rot[length:]):
            if left and left[-1] == (sym, -sign):
                left.pop()
            else:
                left.append((sym, sign))
        changed = len(left)
        rest = u[i + length:]
        r = 0
        while left and r < len(rest) and left[-1] == (rest[r][0], -rest[r][1]):
            left.pop()
            r += 1
        u = left + rest[r:]
        steps += 1
        start = max(0, min(changed, len(left)) - m)
    return steps


def _perm_mul(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def _perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def word_image(perms: dict, word):
    image = tuple(range(len(next(iter(perms.values())))))
    for sym, sign in word:
        p = perms[sym]
        image = _perm_mul(image, p if sign > 0 else _perm_inv(p))
    return image


def nonabelian_quotient(relator, n: int) -> dict:
    """Permutations of degree 5 in which ``relator^n`` is the identity but
    the images do not commute; a deterministic search, checked here."""
    rng = random.Random(20180531)
    symbols = sorted({sym for sym, _ in relator})
    identity = tuple(range(5))
    while True:
        perms = {s: tuple(rng.sample(range(5), 5)) for s in symbols}
        w = word_image(perms, relator)
        power = identity
        for _ in range(n):
            power = _perm_mul(power, w)
        a, b = perms[symbols[0]], perms[symbols[1]]
        if power == identity and w != identity \
                and _perm_mul(a, b) != _perm_mul(b, a):
            return perms


# ---------------------------------------------------------------------------
# shared plumbing


def _orbicomplex(api, relator_text: str, n: int):
    relator = parse(relator_text)
    symbols = sorted({sym for sym, _ in relator})
    return api.build_orbicomplex(api.Graph.rose(symbols), relator, n)


class Op:
    """One operation: ``check(work())`` is None or a failure reason."""

    __slots__ = ("kind", "tag", "length", "work", "check")

    def __init__(self, kind: str, tag: str, length: int, work, check):
        self.kind, self.tag, self.length = kind, tag, length
        self.work, self.check = work, check


# ---------------------------------------------------------------------------
# present


def _presentation_text(pres, report) -> str:
    lines = [f"symbols {' '.join(pres.symbols)}",
             f"stage {pres.stage} conclusive {pres.conclusive}"]
    lines += [f"gen {word_text(g)}" for g in pres.gen_words]
    lines += [f"rel {word_text(r)}" for r in pres.relators]
    lines += [f"note {note}" for note in pres.notes]
    for row in report.rows:
        lines.append(f"row {row.stage} {row.chi1} {row.chi2} {row.cells} "
                     f"{row.free_edges} {row.cursor} {row.stable_for}")
    return "\n".join(lines) + "\n"


def presentation_digest(pres, report) -> str:
    return hashlib.sha256(_presentation_text(pres, report).encode()).hexdigest()


def _present_op(api, name, x, gens, max_len) -> Op:
    def work():
        return api.present_subgroup(list(gens), x, max_word_len=max_len,
                                    max_stages=200, seed=0)

    def check(out):
        pres, report = out
        if name != "reference":
            got = presentation_digest(pres, report)
            if got != PRESENT_DIGESTS[name]:
                return f"presentation digest {got[:12]} differs"
            return None
        if not pres.conclusive:
            return "reference run is inconclusive"
        if (len(pres.symbols), len(pres.relators)) != (2, 0):
            return (f"reference run gave {len(pres.symbols)} generators "
                    f"and {len(pres.relators)} relators")
        sub = dict(zip(pres.symbols, pres.gen_words))
        for rel in pres.relators:
            expanded = []
            for sym, sign in rel:
                expanded.extend(sub[sym] if sign > 0 else invert(sub[sym]))
            if not api.dehn_solve(reduce_word(expanded), x).trivial:
                return "emitted relator is not trivial"
        return None
    return Op("present", name, 0, work, check)


def setup_present(api, seed: int) -> list:
    ops = []
    for name, rel, n, gens, max_len in PRESENT_INSTANCES:
        x = _orbicomplex(api, rel, n)
        ops.append(_present_op(api, name, x, tuple(parse(g) for g in gens),
                               max_len))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# diagrams


def conjugate_product(rng: random.Random, relator, n: int, length: int):
    """The free reduction of a product of 10 (at 150 letters) up to 35 (at
    900) conjugates of relator^(+-n), with conjugators of one length chosen
    so that the unreduced product has about ``length`` letters.  Trivial by
    construction; returns (word, number of conjugates)."""
    power = relator * n
    symbols = sorted({sym for sym, _ in relator})
    k = round(10 + 25 * (length - DIAGRAM_MIN_LEN)
              / (DIAGRAM_MAX_LEN - DIAGRAM_MIN_LEN))
    stem = max(0, round((length / k - len(power)) / 2))
    product: list = []
    for _ in range(k):
        u = random_reduced_word(rng, stem, symbols)
        body = power if rng.random() < 0.5 else invert(power)
        product.extend(u + body + invert(u))
    return reduce_word(product), k


def stratified_product(rng: random.Random, relator, n: int, length: int,
                       extra: int):
    """Of STRATIFY_DRAWS conjugate products, the first whose solver run
    takes the number of steps beyond its number of conjugates nearest to
    ``extra``."""
    best, best_gap = None, None
    for _ in range(STRATIFY_DRAWS):
        word, k = conjugate_product(rng, relator, n, length)
        gap = abs(dehn_steps(word, relator, n) - k - extra)
        if best_gap is None or gap < best_gap:
            best, best_gap = word, gap
    return best


def _diagram_morphism(api, d, cx):
    """The labelled diagram as a map of complexes into the presentation
    complex, whose single disk reads the relator power from offset 0."""
    vertex = next(iter(cx.skeleton.vertices))
    lab = d.labeling
    return api.CellMorphism(
        d.diagram, cx,
        {v: vertex for v in d.diagram.skeleton.vertices},
        dict(lab.edge_map),
        {cid: api.CellImage("d0", off, orient)
         for cid, (off, orient) in lab.cell_align.items()})


def _trivial_op(api, tag, x, cx, word) -> Op:
    def work():
        result = api.dehn_solve(word, x)
        d = api.build_reduced_diagram(word, x)
        m = _diagram_morphism(api, d, cx)
        folded = api.fold(m)
        api.collapse(folded.folded)
        return result, d, m, folded

    def check(out):
        result, d, m, folded = out
        if not result.trivial:
            return "dehn_solve called a conjugate product nontrivial"
        if d.boundary_word != reduce_word(word):
            return "diagram boundary does not spell the word"
        if api.diagrams.mirror_witness(d) is not None:
            return "diagram is not reduced"
        if api.compose(folded.inclusion, folded.projection) != m:
            return "fold composite differs from its input"
        if api.classify_map(folded.inclusion).kind < api.MapKind.IMMERSION:
            return "folded inclusion is not an immersion"
        return None
    return Op("trivial", tag, len(word), work, check)


def _nontrivial_op(api, tag, x, word) -> Op:
    def work():
        return api.dehn_solve(word, x)

    def check(result):
        if result.trivial:
            return "dehn_solve called a word with nontrivial image trivial"
        try:
            api.build_reduced_diagram(word, x)
        except ValueError:
            return None
        return "build_reduced_diagram accepted a nontrivial word"
    return Op("nontrivial", tag, len(word), work, check)


def setup_diagrams(api, seed: int) -> list:
    rng = random.Random(seed)
    groups = []
    for tag, rel_text, n in PAIRS:
        relator = parse(rel_text)
        x = _orbicomplex(api, rel_text, n)
        cx, _ = api.orbicomplex.presentation_complex(x)
        groups.append((tag, relator, n, x, cx, nonabelian_quotient(relator, n)))
    out = []
    identity = tuple(range(5))
    for p in range(DIAGRAM_GROUPS):
        for tag, relator, n, x, cx, perms in groups:
            length, extra = LONG_WORDS[tag]
            word = stratified_product(rng, relator, n, length, extra)
            out.append(_trivial_op(api, tag, x, cx, word))
        tag, relator, n, x, cx, perms = groups[p % len(groups)]
        short = SHORT_LENGTHS[p % len(SHORT_LENGTHS)]
        out.append(_trivial_op(api, tag, x, cx,
                               conjugate_product(rng, relator, n, short)[0]))
        while True:
            word = random_reduced_word(
                rng, rng.randint(DIAGRAM_MIN_LEN, DIAGRAM_MAX_LEN), sorted(perms))
            if word_image(perms, word) != identity:
                break
        out.append(_nontrivial_op(api, tag, x, word))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# campaign


def _campaign_op(api, cfg) -> Op:
    def work():
        return api.run_property_campaign(cfg)

    def check(report):
        for suite, (passed, total) in report.pass_counts.items():
            if passed != total:
                return f"suite {suite} passed {passed} of {total}"
        for row in report.rows:
            if row.slack1 > 0 or row.slack2 > 0:
                return f"trial {row.trial} has positive slack"
        return None
    return Op("campaign", f"v{cfg.params.vertex_budget}", 0, work, check)


def setup_campaign(api, seed: int) -> list:
    rng = random.Random(seed)
    params = [api.GeneratorParams(vertex_budget=budget, relator=parse(rel),
                                  branch_index=n)
              for budget in CAMPAIGN_BUDGETS for _, rel, n in PAIRS]
    ops = []
    for i in range(CAMPAIGN_OPS):
        cfg = api.CampaignConfig(master_seed=rng.getrandbits(31), trials=1,
                                 params=params[i % len(params)])
        ops.append(_campaign_op(api, cfg))
    return ops


SETUP = {"present": setup_present, "diagrams": setup_diagrams,
         "campaign": setup_campaign}
