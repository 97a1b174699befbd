"""Command-line surface: parsing, validation, reports, export.

Exit statuses: 0 success/pass, 1 property violation or invariant breach,
2 usage error, 3 budget exhausted or inconclusive.  Every failure prints a
reason line prefixed `error:`, and every run echoes its resolved
configuration first so reruns are unambiguous.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .complexes import euler_characteristic
from .covers import build_unwrapped_cover, find_exponent_n_quotient
from .errors import (ArgumentError, BudgetExhaustedError, NotImmersionError,
                     NotMorphismError, OrelcoError)
from .folding import fold
from .harness import (SUITES, CampaignConfig, GeneratorParams,
                      _check_campaign, _check_generator_params, campaign_csv,
                      run_property_campaign)
from .orbicomplex import wcycles_audit
from .pipeline import present_subgroup
from .stacking import check_good_stacking
from .textio import (audit_csv, export_dot, format_complex, format_cover,
                     format_fold_trace, format_morphism,
                     format_presentation, format_quotient, parse_complex,
                     parse_cover_file, parse_morphism, parse_orbi_morphism,
                     parse_orbicomplex, parse_stacking, pipeline_csv)
from .words import _require_torsion, dehn_solve, format_word, parse_word

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(_usage(message))


def _echo(command: str, **settings) -> None:
    rendered = " ".join(f"{k}={v}" for k, v in sorted(settings.items()))
    print(f"config: {command} {rendered}".rstrip())


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load(parse, path: str, *context):
    return _parse(path, parse, Path(path).read_text(), *context)


def _load_torsion_group(path: str):
    return _load(lambda t: _require_torsion(parse_orbicomplex(t)), path)


def _parse(source: str, parse, text: str, *context):
    # input that does not parse is a usage error, reported against its source
    try:
        return parse(text, *context)
    except ValueError as exc:
        raise SystemExit(_usage(f"{source}: {exc}")) from exc


# ---------------------------------------------------------------------------
# handlers


def _cmd_group_define(args) -> int:
    _echo("group define", group=args.group)
    x = _load(parse_orbicomplex, args.group)
    print(f"group: vertices={len(x.gamma.vertices)} "
          f"edges={len(x.gamma.edges)} relator-length={len(x.relator)} "
          f"branch={x.branch_index} "
          f"boundary-length={x.branch_index * len(x.relator)}")
    return EXIT_OK


def _cmd_word_solve(args) -> int:
    _echo("word solve", group=args.group, word=args.word)
    x = _load_torsion_group(args.group)
    word = _parse("--word", parse_word, args.word)
    result = _parse("--word", dehn_solve, word, x)
    for s in result.steps:
        sign = "+" if s.sign > 0 else "-"
        print(f"step {s.position} {s.length} {s.rotation} {sign}")
    if result.trivial:
        print("result: trivial")
    else:
        print("result: nontrivial")
        print(f"remnant: {format_word(result.remnant)}")
    return EXIT_OK


def _cmd_cover_build(args) -> int:
    _echo("cover build", group=args.group, max_degree=args.max_degree,
          seed=args.seed)
    x = _load(parse_orbicomplex, args.group)
    q = find_exponent_n_quotient(x, args.max_degree)
    # the build raises on a failed audit, so a printed cover passed it
    cover = build_unwrapped_cover(x, q)
    print(format_quotient(q), end="")
    _emit(args, format_cover(cover))
    print(f"cover: degree={q.degree} "
          f"vertices={len(cover.cover.skeleton.vertices)} "
          f"edges={len(cover.cover.skeleton.edges)} "
          f"cells={len(cover.cover.cells)} "
          f"chi={euler_characteristic(cover.cover)} pass=1")
    return EXIT_OK


def _cmd_subgroup_present(args) -> int:
    _echo("subgroup present", group=args.group, gens=args.gens,
          max_degree=args.max_degree, max_stages=args.max_stages,
          max_word_len=args.max_word_len, seed=args.seed, format=args.format)
    x = _load_torsion_group(args.group)
    gens = [_parse("--gens", parse_word, chunk, x._rose_symbols)
            for chunk in args.gens.split(";")]
    gens = [g for g in gens if g]
    pres, report = present_subgroup(
        gens, x, max_degree=args.max_degree,
        max_word_len=args.max_word_len, max_stages=args.max_stages)
    for note in pres.notes:
        print(f"note: {note}")
    if args.format == "csv":
        print(pipeline_csv(report), end="")
    else:
        for r in report.rows:
            print(f"stage {r.stage}: chi1={r.chi1} chi2={r.chi2} "
                  f"cells={r.cells} free_edges={r.free_edges} "
                  f"cursor={r.cursor} stable_for={r.stable_for}")
    _emit(args, format_presentation(pres.symbols, pres.relators))
    if not pres.conclusive:
        print("error: presentation is inconclusive within the stage budget")
        return EXIT_BUDGET
    return EXIT_OK


# the campaign-only flags of audit wcycles and their defaults
_CAMPAIGN_DEFAULTS = {"vertex_budget": 6, "attach_prob": 0.5,
                      "suites": ",".join(SUITES), "seed": 0}


def _cmd_audit_wcycles(args) -> int:
    given = [name for name in _CAMPAIGN_DEFAULTS
             if getattr(args, name) is not None]
    if args.trials is not None:
        vars(args).update((name, value) for name, value
                          in _CAMPAIGN_DEFAULTS.items() if name not in given)
        _echo("audit wcycles", group=args.group, trials=args.trials,
              seed=args.seed, vertex_budget=args.vertex_budget,
              attach_prob=args.attach_prob, suites=args.suites)
        if args.complex is not None or args.map is not None:
            # a campaign draws its own maps and would ignore both files
            return _usage("--trials runs a campaign, which takes no "
                          "--complex or --map")
        # refused before the group file is read
        suites = tuple(args.suites.split(","))
        _check_campaign(args.seed, args.trials, suites)
        _check_generator_params(args.vertex_budget, args.attach_prob)
        x = _load_torsion_group(args.group)
        # the campaign runs over the rose of the relator's letters
        missing = set(x._rose_symbols) - {sym for sym, _ in x.relator}
        if missing:
            return _usage(f"{args.group}: letter {min(missing)!r} is not in "
                          "the relator, and a campaign covers only the "
                          "relator's letters")
        params = GeneratorParams(args.vertex_budget, x.relator,
                                 x.branch_index, args.attach_prob)
        cfg = CampaignConfig(args.seed, args.trials, params, suites)
        report = run_property_campaign(cfg)
        if args.format == "csv":
            _emit(args, campaign_csv(report))
        else:
            counts = sorted(report.pass_counts.items())
            lines = [f"suite {s}: {p}/{t}" for s, (p, t) in counts]
            if "wcycles" in suites:
                zeros = sum(r.slack1 == 0 for r in report.rows)
                lines.append(f"slack1 tight in {zeros} of "
                             f"{len(report.rows)} trials")
            _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    if args.complex is None or args.map is None:
        return _usage("audit wcycles needs --complex and --map, "
                      "or --trials for a campaign")
    _echo("audit wcycles", group=args.group, complex=args.complex,
          map=args.map, format=args.format)
    if given:
        # a single-map audit draws nothing and would ignore them
        flag = "--" + given[0].replace("_", "-")
        return _usage(f"{flag} is for a campaign (--trials), not for an "
                      "audit of --complex and --map")
    x = _load(parse_orbicomplex, args.group)
    y = _load(parse_complex, args.complex)
    m = _load(parse_orbi_morphism, args.map, y, x)
    try:
        audit = wcycles_audit(m)
    except NotImmersionError as exc:
        # the inequality is claimed for immersions only: no counterexample
        return _usage(f"{args.map}: not an immersion: {exc}")
    if not (audit.passed or audit.in_scope):
        # nor for complexes outside the theorem's scope
        return _usage(f"{args.map}: the complex is outside the inequality's "
                      "scope (connected, no free faces, a 1-skeleton that is "
                      "not a tree), so a failed inequality (slack1="
                      f"{audit.slack1} slack2={audit.slack2}) is no "
                      "counterexample")
    name = Path(args.complex).stem
    _emit(args, audit_csv([(name, audit)]) if args.format == "csv" else
          f"audit {name}: chi1={audit.chi1} deg={audit.deg} "
          f"slack1={audit.slack1} chi2={audit.chi2} cells={audit.cells} "
          f"slack2={audit.slack2} in_scope={1 if audit.in_scope else 0}\n")
    if not audit.passed:
        print(f"error: inequality violated: slack1={audit.slack1} "
              f"slack2={audit.slack2}")
        return EXIT_VIOLATION
    return EXIT_OK


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_fold(args) -> int:
    _echo("fold", source=args.source, target=args.target, map=args.map,
          trace=args.trace)
    source = _load(parse_complex, args.source)
    target = _load(parse_complex, args.target)
    m = _load(parse_morphism, args.map, source, target)
    try:
        result = fold(m)
    except NotMorphismError as exc:
        return _usage(f"{args.map}: not a morphism: {exc}")
    _emit(args, format_complex(result.folded))
    print(format_morphism(result.inclusion), end="")
    if args.trace:
        print(format_fold_trace(result.trace), end="")
    return EXIT_OK


def _cmd_stacking_check(args) -> int:
    _echo("stacking check", group=args.group, complex=args.complex,
          stacking=args.stacking)
    if (args.group is None) == (args.complex is None):
        return _usage("stacking check needs exactly one of "
                      "--group or --complex")
    x = None if args.group is None else _load(parse_orbicomplex, args.group)
    base = (x.relator_circle if x is not None
            else _load(parse_complex, args.complex))
    s = _load(parse_stacking, args.stacking, base)
    try:
        verdict = check_good_stacking(s)
    except ValueError as exc:
        return _usage(f"{args.stacking}: {exc}")
    print(f"branched: {int(x is not None and x.branch_index >= 2)}")
    if verdict.good:
        print("result: good")
        return EXIT_OK
    print("result: not_good")
    print(f"error: {verdict.witness}")
    return EXIT_VIOLATION


def _cmd_export_dot(args) -> int:
    _echo("export dot", complex=args.complex)
    c, _ = _load(parse_cover_file, args.complex)
    _emit(args, export_dot(c, name=Path(args.complex).stem or "complex"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _subparsers(sub, name: str):
    return sub.add_parser(name).add_subparsers(dest="subcommand",
                                               parser_class=_Parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orelco")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = _subparsers(sub, "group").add_parser("define")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_group_define)

    p = _subparsers(sub, "word").add_parser("solve")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_word_solve)

    p = _subparsers(sub, "cover").add_parser("build")
    p.add_argument("--group", required=True)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_cover_build)

    p = _subparsers(sub, "subgroup").add_parser("present")
    p.add_argument("--group", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--max-word-len", type=int, default=12)
    p.add_argument("--max-stages", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_subgroup_present)

    p = _subparsers(sub, "audit").add_parser("wcycles")
    p.add_argument("--group", required=True)
    p.add_argument("--complex")
    p.add_argument("--map")
    p.add_argument("--trials", type=int, default=None)
    # None marks a campaign flag as not given; see _CAMPAIGN_DEFAULTS
    p.add_argument("--vertex-budget", type=int)
    p.add_argument("--attach-prob", type=float)
    p.add_argument("--suites")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_audit_wcycles)

    p = sub.add_parser("fold")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_fold)

    p = _subparsers(sub, "stacking").add_parser("check")
    p.add_argument("--group")
    p.add_argument("--complex")
    p.add_argument("--stacking", required=True)
    p.set_defaults(handler=_cmd_stacking_check)

    p = _subparsers(sub, "export").add_parser("dot")
    p.add_argument("--complex", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            return _usage("missing subcommand; try --help")
        return args.handler(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ArgumentError as exc:
        # the library's rule, refused under the flag's name
        flag = ("attach-prob" if exc.name == "attach_probability"
                else exc.name.replace("_", "-"))
        return _usage(f"--{flag} {exc.rule}")
    except (ValueError, OrelcoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
