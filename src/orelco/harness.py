"""Random generation of immersions over one-relator orbicomplexes and
seeded property campaigns.

The generator draws a random partial injection per rose symbol (the resulting
labeled graph is immersed by construction), keeps the component of the first
vertex, path-lifts the relator power from every vertex to find closed cell
candidates, attaches a random subset of them subject to the side-injectivity
filter, and collapses free faces so the emitted complex is irreducible.

Campaigns derive one seed per trial from the master seed and audit three law
families: the curvature inequalities on generated immersions, fold laws on
random graph morphisms, and cover verification on quotients drawn, one per
trial, from ``covers.UnwrappingActionTree``s at degrees n and 2n: each
draw is the first table of the low-index search's one walk, in an order
the trial's generator turns, whose walk in increasing order is
``covers.unwrapping_actions``.  Any violation aborts with the reproduction
seed; identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import NamedTuple

from .complexes import (EdgeRec, Graph, MapKind, TwoComplex, collapse,
                        component_of, identity_morphism)
from .complexes import CellMorphism
from .covers import (FiniteQuotient, UnwrappingActionTree,
                     build_unwrapped_cover, verify_cover)
from .errors import (ArgumentError, InvariantError, NotImmersionError,
                     OrelcoError)
from .folding import factor_unique, fold
from .orbicomplex import (OneRelatorOrbicomplex, _check_relator,
                          build_orbicomplex, by_labels, check_orbi_immersion,
                          wcycles_audit)
from .words import Word, _require_torsion

SEED_STRIDE = 1_000_003
SUITES = ("wcycles", "fold", "covers")


def _check_generator_params(vertex_budget: int,
                            attach_probability: float) -> None:
    """Raise ``ArgumentError`` naming the first generator parameter outside
    its range: the vertex budget is at least 1 and the attach probability
    in [0, 1], which NaN is not."""
    if vertex_budget < 1:
        raise ArgumentError("vertex_budget", "must be at least 1")
    if not 0 <= attach_probability <= 1:
        raise ArgumentError("attach_probability", "must be in [0, 1]")


class _GeneratorParamsFields(NamedTuple):
    vertex_budget: int
    relator: Word
    branch_index: int
    attach_probability: float = 0.5


class GeneratorParams(_GeneratorParamsFields):
    def __new__(cls, *args, **kwargs) -> GeneratorParams:
        self = super().__new__(cls, *args, **kwargs)
        _check_generator_params(self.vertex_budget, self.attach_probability)
        _check_relator(self.relator, {sym for sym, _ in self.relator},
                       self.branch_index)
        return self

    @cached_property
    def orbicomplex(self) -> OneRelatorOrbicomplex:
        """The rose orbicomplex of the relator, built on first use and kept
        on this instance, so that its cached properties last too."""
        symbols = sorted({sym for sym, _ in self.relator})
        return build_orbicomplex(Graph.rose(symbols), tuple(self.relator),
                                 self.branch_index)

    @cached_property
    def _action_trees(self) -> tuple[UnwrappingActionTree, ...]:
        """The search trees of the unwrapping actions of degrees n and 2n,
        kept on this instance, so that the covers trials of a campaign, and
        every campaign over these parameters, expand each node once."""
        n = self.branch_index
        return tuple(UnwrappingActionTree(self.orbicomplex, d)
                     for d in (n, 2 * n))

    @classmethod
    def _make(cls, iterable) -> GeneratorParams:
        # NamedTuple's _make, and _replace through it, skip __new__
        return cls(*iterable)

    def _with_budget(self, vertex_budget: int) -> GeneratorParams:
        """These parameters with another vertex budget, checked alone, and
        this instance's orbicomplex, which the budget does not change."""
        _check_generator_params(vertex_budget, self.attach_probability)
        out = super()._make((vertex_budget, *self[1:]))
        out.__dict__["orbicomplex"] = self.orbicomplex
        return out


class CampaignConfig(NamedTuple):
    master_seed: int
    trials: int
    params: GeneratorParams
    suites: tuple[str, ...] = SUITES


class TrialRow(NamedTuple):
    trial: int
    seed: int
    vertices: int
    edges: int
    cells: int
    chi1: int
    deg: int
    slack1: int
    chi2: int
    slack2: int
    passed: bool


class CampaignReport(NamedTuple):
    rows: tuple[TrialRow, ...]
    pass_counts: dict[str, tuple[int, int]]


def trial_seed(master_seed: int, index: int) -> int:
    return master_seed * SEED_STRIDE + index


# ---------------------------------------------------------------------------
# generator


def _random_labeled_graph(rng: random.Random, v: int,
                          symbols: list[str]) -> Graph:
    """One random partial injection per symbol; component of the first
    vertex only."""
    edges: dict[str, EdgeRec] = {}
    for sym in symbols:
        k = rng.randint(0, v)
        tails = sorted(rng.sample(range(v), k))
        heads = rng.sample(range(v), k)
        for t, h in zip(tails, heads):
            edges[f"{sym}{t}"] = EdgeRec(f"u{t}", f"u{h}", sym)
    full = Graph(frozenset(f"u{i}" for i in range(v)), edges)
    comp = component_of(full, "u0")
    kept = {e: rec for e, rec in edges.items() if rec.tail in comp}
    return Graph(comp, kept)


def closed_power_lifts(g: Graph, x: OneRelatorOrbicomplex):
    """Closed lifts of the relator power, one per cycle: the least of its
    rotations by multiples of the relator length, so every lift reads the
    power from offset 0."""
    power, step = x.relator_power_path(), len(x.relator)
    found = set()
    for v in sorted(g.vertices):
        lift = g.read(power, v)
        if lift is not None and lift[1] == v:
            path = lift[0]
            found.add(min(path[k:] + path[:k]
                          for k in range(0, len(path), step)))
    return tuple(sorted(found))


def _generate_uncollapsed(seed: int, params: GeneratorParams) -> CellMorphism:
    x = _require_torsion(params.orbicomplex)
    rng = random.Random(seed)
    g = _random_labeled_graph(rng, params.vertex_budget, x._rose_symbols)
    cells: dict[str, tuple] = {}
    for k, lift in enumerate(closed_power_lifts(g, x)):
        wanted = rng.random() < params.attach_probability
        if not wanted:
            continue
        trial = dict(cells)
        trial[f"c{k}"] = lift
        candidate = by_labels(TwoComplex(g, trial, base_vertex="u0"), x)
        if check_orbi_immersion(candidate).kind >= MapKind.IMMERSION:
            cells = trial
    return by_labels(TwoComplex(g, cells, base_vertex="u0"), x)


def random_irreducible_immersion(seed: int,
                                 params: GeneratorParams) -> CellMorphism:
    """Random immersed complex over the rose orbicomplex with no free faces;
    degenerate outputs (cell-free graphs, a single vertex) are allowed."""
    raw = _generate_uncollapsed(seed, params)
    return by_labels(collapse(raw.source), params.orbicomplex)


def _fallback_loop(x: OneRelatorOrbicomplex) -> CellMorphism:
    """Deterministic cell-free substitute with nonpositive graph Euler
    characteristic, used when a draw degenerates to a tree."""
    sym = x.relator[0][0]
    g = Graph(frozenset({"u0"}), {f"{sym}0": EdgeRec("u0", "u0", sym)})
    return by_labels(TwoComplex(g, {}, base_vertex="u0"), x)


# ---------------------------------------------------------------------------
# suites


def _violation(suite: str, seed: int, detail: str) -> OrelcoError:
    return OrelcoError(
        f"{suite} violation: {detail}; reproduce with trial seed {seed}")


def _run_wcycles_trial(rng: random.Random, seed: int,
                       cfg: CampaignConfig, trial: int):
    v = rng.randint(1, cfg.params.vertex_budget)
    gen_seed = rng.getrandbits(32)
    m = random_irreducible_immersion(gen_seed, cfg.params._with_budget(v))
    # the audit refuses a map that does not immerse; a draw outside its
    # scope, a tree, is audited too, before the fallback loop replaces it
    try:
        audit = wcycles_audit(m)
    except NotImmersionError as err:
        raise _violation("generator-soundness", seed, err.witness) from err
    if not audit.in_scope:
        m = _fallback_loop(cfg.params.orbicomplex)
        audit = wcycles_audit(m)
    row = TrialRow(
        trial=trial, seed=seed,
        vertices=len(m.source.skeleton.vertices),
        edges=len(m.source.skeleton.edges), cells=audit.cells,
        chi1=audit.chi1, deg=audit.deg, slack1=audit.slack1,
        chi2=audit.chi2, slack2=audit.slack2, passed=audit.passed)
    if not audit.passed:
        raise _violation("w-cycles", seed,
                         f"slack1={audit.slack1} slack2={audit.slack2}")
    return row


def _random_rose_morphism(rng: random.Random, v: int,
                          x: OneRelatorOrbicomplex) -> CellMorphism:
    """A random graph on ``v`` vertices over the rose of ``x``, by labels."""
    vertices = frozenset(f"u{i}" for i in range(v))
    count = rng.randint(0, 2 * v)
    edges = {}
    for i in range(count):
        edges[f"e{i}"] = EdgeRec(f"u{rng.randrange(v)}", f"u{rng.randrange(v)}",
                                 rng.choice(x._rose_symbols))
    return by_labels(TwoComplex(Graph(vertices, edges), {}, base_vertex="u0"),
                     x)


def _run_fold_trial(rng: random.Random, seed: int,
                    cfg: CampaignConfig) -> None:
    m = _random_rose_morphism(rng, rng.randint(1, cfg.params.vertex_budget),
                              cfg.params.orbicomplex)
    # fold checks both laws itself and raises on the first one broken
    try:
        res = fold(m)
    except NotImmersionError as err:
        raise _violation("fold-laws", seed,
                         "folded map is not an immersion") from err
    except InvariantError as err:
        raise _violation("fold-laws", seed,
                         "fold does not factor the input") from err
    again = fold(res.inclusion)
    if again.folded != res.folded:
        raise _violation("fold-laws", seed, "fold is not idempotent")
    lift = factor_unique(res, res.inclusion, res.projection)
    if lift != identity_morphism(res.folded):
        raise _violation("fold-laws", seed,
                         "self-factorization is not the identity")


def _draw_cover_quotient(rng: random.Random, params: GeneratorParams
                         ) -> FiniteQuotient | None:
    """A covers trial's quotient: one of the degrees n and 2n, and a table
    drawn from its search tree, or from the other degree's when it has
    none; None when neither has one.  A degree with tables is so drawn in
    half of the trials, or in all of them when the other has none."""
    low, high = params._action_trees
    for tree in ((low, high) if rng.getrandbits(1) else (high, low)):
        perms = tree.draw(rng)
        if perms is not None:
            return FiniteQuotient(tree.degree, perms)
    return None


def _run_cover_trial(rng: random.Random, seed: int,
                     params: GeneratorParams) -> bool:
    q = _draw_cover_quotient(rng, params)
    if q is None:
        return False
    try:
        cover = build_unwrapped_cover(params.orbicomplex, q)
    except (ValueError, OrelcoError) as err:
        raise _violation("cover", seed,
                         f"drawn quotient refused: {err}") from err
    report = verify_cover(cover)
    if not report.passed:
        raise _violation("cover", seed, "; ".join(report.witnesses))
    return True


# ---------------------------------------------------------------------------
# campaign driver


def _check_campaign(master_seed: int, trials: int,
                    suites: tuple[str, ...]) -> None:
    """Raise ``ArgumentError`` naming the first of these outside its range:
    with no trial, no suite or a misspelt one every suite would pass
    vacuously, and ``random.Random`` seeds with |s|, so seed -s would
    replay seed s."""
    if trials < 1:
        raise ArgumentError("trials", f"must be at least 1, got {trials}")
    if master_seed < 0:
        raise ArgumentError("seed", f"must be at least 0, got {master_seed}")
    if not suites or any(suite not in SUITES for suite in suites):
        got = ",".join(map(str, suites))
        raise ArgumentError("suites", f"must name some of {','.join(SUITES)}"
                                      f", got {got!r}")


def run_property_campaign(cfg: CampaignConfig) -> CampaignReport:
    _check_campaign(cfg.master_seed, cfg.trials, cfg.suites)
    rows: list[TrialRow] = []
    covers_passed = 0
    for t in range(cfg.trials):
        seed = trial_seed(cfg.master_seed, t)
        rng = random.Random(seed)
        if "wcycles" in cfg.suites:
            rows.append(_run_wcycles_trial(rng, seed, cfg, t))
        if "fold" in cfg.suites:
            _run_fold_trial(rng, seed, cfg)
        if "covers" in cfg.suites:
            covers_passed += _run_cover_trial(rng, seed, cfg.params)
    # a wcycles or fold trial that fails raises, so every one of them passed
    return CampaignReport(tuple(rows), {
        suite: (covers_passed if suite == "covers" else cfg.trials,
                cfg.trials)
        for suite in cfg.suites})


CSV_HEADER = "trial,seed,V,E,cells,chi1,deg,slack1,chi2,slack2,pass"


def campaign_csv(report: CampaignReport) -> str:
    """One row per ``wcycles`` trial; without that suite, which has the
    only rows, one ``suite,passed,total`` row per suite in name order."""
    if "wcycles" not in report.pass_counts:
        return "suite,passed,total\n" + "".join(
            f"{suite},{passed},{total}\n"
            for suite, (passed, total) in sorted(report.pass_counts.items()))
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.trial},{r.seed},{r.vertices},{r.edges},{r.cells},"
            f"{r.chi1},{r.deg},{r.slack1},{r.chi2},{r.slack2},"
            f"{1 if r.passed else 0}")
    return "\n".join(lines) + "\n"
