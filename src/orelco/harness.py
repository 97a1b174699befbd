"""Random generation of immersions over one-relator orbicomplexes and
seeded property campaigns.

The generator draws a random partial injection per rose symbol (the resulting
labeled graph is immersed by construction), keeps the component of the first
vertex, path-lifts the relator power from every vertex to find closed cell
candidates, attaches a random subset of them subject to the side-injectivity
filter, and collapses free faces so the emitted complex is irreducible.

Campaigns derive one seed per trial from the master seed and audit three law
families: the curvature inequalities on generated immersions, fold laws on
random graph morphisms, and cover verification across random quotients.  Any
violation aborts with the reproduction seed; identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .complexes import (EdgeRec, Graph, MapKind, TwoComplex, classify_map,
                        collapse, compose, connected_components,
                        euler_characteristic, identity_morphism)
from .complexes import CellMorphism
from .covers import (FiniteQuotient, build_unwrapped_cover,
                     has_uniform_exponent_cycles, validate_quotient,
                     verify_cover)
from .errors import OrelcoError
from .folding import factor_unique, fold
from .orbicomplex import (OneRelatorOrbicomplex, OrbiMorphism,
                          build_orbicomplex, check_orbi_immersion,
                          wcycles_audit)
from .words import Word, least_rotation

SEED_STRIDE = 1_000_003
QUOTIENT_ATTEMPTS = 500
SUITES = ("wcycles", "fold", "covers")


@dataclass(frozen=True)
class GeneratorParams:
    vertex_budget: int
    relator: Word
    branch_index: int
    attach_probability: float = 0.5

    def orbicomplex(self) -> OneRelatorOrbicomplex:
        symbols = sorted({sym for sym, _ in self.relator})
        return build_orbicomplex(Graph.rose(symbols), tuple(self.relator),
                                 self.branch_index)


@dataclass(frozen=True)
class CampaignConfig:
    master_seed: int
    trials: int
    params: GeneratorParams
    suites: tuple[str, ...] = SUITES


@dataclass(frozen=True)
class TrialRow:
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


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    rows: tuple[TrialRow, ...]
    pass_counts: dict[str, tuple[int, int]]
    slack1_histogram: dict[int, int]


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
    comp = next(c for c in connected_components(full) if "u0" in c)
    kept = {e: rec for e, rec in edges.items() if rec.tail in comp}
    return Graph(comp, kept)


def closed_power_lifts(g: Graph, x: OneRelatorOrbicomplex):
    """Closed lifts of the relator power, one canonical representative per
    rotation class of the full cycle."""
    power = x.relator_word() * x.branch_index
    found = set()
    for v in sorted(g.vertices):
        lift = g.read(power, v)
        if lift is not None and lift[1] == v:
            found.add(least_rotation(lift[0]))
    return tuple(sorted(found))


def _generate_uncollapsed(seed: int, params: GeneratorParams) -> OrbiMorphism:
    if params.vertex_budget < 1:
        raise ValueError("vertex budget must be >= 1")
    x = params.orbicomplex()
    if x.branch_index < 2:
        raise ValueError("branch index must be >= 2")
    rng = random.Random(seed)
    g = _random_labeled_graph(rng, params.vertex_budget,
                              sorted({sym for sym, _ in params.relator}))
    cells: dict[str, tuple] = {}
    for k, lift in enumerate(closed_power_lifts(g, x)):
        wanted = rng.random() < params.attach_probability
        if not wanted:
            continue
        trial = dict(cells)
        trial[f"c{k}"] = lift
        candidate = OrbiMorphism.by_labels(TwoComplex(g, trial, base_vertex="u0"), x)
        if check_orbi_immersion(candidate).kind >= MapKind.IMMERSION:
            cells = trial
    return OrbiMorphism.by_labels(TwoComplex(g, cells, base_vertex="u0"), x)


def random_irreducible_immersion(seed: int,
                                 params: GeneratorParams) -> OrbiMorphism:
    """Random immersed complex over the rose orbicomplex with no free faces;
    degenerate outputs (cell-free graphs, a single vertex) are allowed."""
    raw = _generate_uncollapsed(seed, params)
    y = collapse(raw.source)
    return OrbiMorphism.by_labels(y, raw.target)


def _fallback_loop(x: OneRelatorOrbicomplex) -> OrbiMorphism:
    """Deterministic cell-free substitute with nonpositive graph Euler
    characteristic, used when a draw degenerates to a tree."""
    sym = x.relator[0][0]
    g = Graph(frozenset({"u0"}), {f"{sym}0": EdgeRec("u0", "u0", sym)})
    return OrbiMorphism.by_labels(TwoComplex(g, {}, base_vertex="u0"), x)


# ---------------------------------------------------------------------------
# suites


def _violation(suite: str, seed: int, detail: str) -> OrelcoError:
    return OrelcoError(
        f"{suite} violation: {detail}; reproduce with trial seed {seed}")


def _run_wcycles_trial(rng: random.Random, seed: int,
                       cfg: CampaignConfig, trial: int):
    v = rng.randint(1, cfg.params.vertex_budget)
    gen_seed = rng.getrandbits(32)
    m = random_irreducible_immersion(gen_seed,
                                     replace(cfg.params, vertex_budget=v))
    cls = check_orbi_immersion(m)
    if cls.kind < MapKind.IMMERSION:
        raise _violation("generator-soundness", seed, cls.witness or "?")
    if not m.source.cells and euler_characteristic(m.source, dimension=1) > 0:
        m = _fallback_loop(m.target)
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
                          symbols: list[str], target) -> CellMorphism:
    vertices = frozenset(f"u{i}" for i in range(v))
    count = rng.randint(0, 2 * v)
    edges = {}
    for i in range(count):
        edges[f"e{i}"] = EdgeRec(f"u{rng.randrange(v)}", f"u{rng.randrange(v)}",
                                 rng.choice(symbols))
    y = TwoComplex(Graph(vertices, edges), {}, base_vertex="u0")
    return CellMorphism(y, target,
                        {u: "*" for u in vertices},
                        {e: (rec.label, 1) for e, rec in edges.items()}, {})


def _run_fold_trial(rng: random.Random, seed: int, cfg: CampaignConfig,
                    rose_complex: TwoComplex) -> None:
    symbols = sorted({sym for sym, _ in cfg.params.relator})
    m = _random_rose_morphism(rng, rng.randint(1, cfg.params.vertex_budget),
                              symbols, rose_complex)
    res = fold(m)
    if classify_map(res.inclusion).kind < MapKind.IMMERSION:
        raise _violation("fold-laws", seed, "folded map is not an immersion")
    if compose(res.inclusion, res.projection) != m:
        raise _violation("fold-laws", seed, "fold does not factor the input")
    again = fold(res.inclusion)
    if again.folded != res.folded:
        raise _violation("fold-laws", seed, "fold is not idempotent")
    lift = factor_unique(res, res.inclusion, res.projection)
    if lift != identity_morphism(res.folded):
        raise _violation("fold-laws", seed,
                         "self-factorization is not the identity")


def random_uniform_quotient(rng: random.Random, x: OneRelatorOrbicomplex,
                            max_degree: int) -> FiniteQuotient | None:
    """Rejection-sample a transitive quotient with uniform exponent cycles."""
    n = x.branch_index
    symbols = sorted({sym for sym, _ in x.relator})
    degrees = [d for d in range(n, max_degree + 1) if d % n == 0]
    for _ in range(QUOTIENT_ATTEMPTS):
        d = rng.choice(degrees)
        perms = {}
        for sym in symbols:
            p = list(range(d))
            rng.shuffle(p)
            perms[sym] = tuple(p)
        q = FiniteQuotient(d, perms)
        if not validate_quotient(q, x) and has_uniform_exponent_cycles(q, x):
            return q
    return None


def _run_cover_trial(rng: random.Random, seed: int,
                     x: OneRelatorOrbicomplex) -> bool:
    q = random_uniform_quotient(rng, x, max_degree=3 * x.branch_index)
    if q is None:
        return False
    cover = build_unwrapped_cover(x, q)
    report = verify_cover(cover)
    if not report.passed:
        raise _violation("cover", seed, "; ".join(report.witnesses))
    for cid, family in cover.families.items():
        if len(family) != x.branch_index:
            raise _violation(
                "cover", seed,
                f"family of {cid} has size {len(family)}, expected "
                f"{x.branch_index}")
    return True


# ---------------------------------------------------------------------------
# campaign driver


def run_property_campaign(cfg: CampaignConfig) -> CampaignReport:
    x = cfg.params.orbicomplex()
    rose_complex = TwoComplex(Graph.rose(sorted({s for s, _ in
                                                 cfg.params.relator})),
                              {}, base_vertex="*")
    rows: list[TrialRow] = []
    counts = {suite: [0, 0] for suite in cfg.suites}
    hist: dict[int, int] = {}
    for t in range(cfg.trials):
        seed = trial_seed(cfg.master_seed, t)
        rng = random.Random(seed)
        if "wcycles" in cfg.suites:
            row = _run_wcycles_trial(rng, seed, cfg, t)
            rows.append(row)
            hist[row.slack1] = hist.get(row.slack1, 0) + 1
            counts["wcycles"][0] += 1
            counts["wcycles"][1] += 1
        if "fold" in cfg.suites:
            _run_fold_trial(rng, seed, cfg, rose_complex)
            counts["fold"][0] += 1
            counts["fold"][1] += 1
        if "covers" in cfg.suites:
            produced = _run_cover_trial(rng, seed, x)
            counts["covers"][1] += 1
            if produced:
                counts["covers"][0] += 1
    return CampaignReport(
        config=cfg, rows=tuple(rows),
        pass_counts={k: (a, b) for k, (a, b) in counts.items()},
        slack1_histogram=dict(sorted(hist.items())))


CSV_HEADER = "trial,seed,V,E,cells,chi1,deg,slack1,chi2,slack2,pass"


def campaign_csv(report: CampaignReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.trial},{r.seed},{r.vertices},{r.edges},{r.cells},"
            f"{r.chi1},{r.deg},{r.slack1},{r.chi2},{r.slack2},"
            f"{1 if r.passed else 0}")
    return "\n".join(lines) + "\n"
