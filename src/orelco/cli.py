"""Command-line surface: parsing, validation, reports, export.

Exit statuses: 0 success/pass, 1 property violation or invariant breach,
2 usage error, 3 budget exhausted or inconclusive.  Every failure prints a
reason line prefixed `error:`, and every run echoes its resolved
configuration first so reruns are unambiguous.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .covers import build_unwrapped_cover, find_exponent_n_quotient, \
    verify_cover
from .errors import BudgetExhaustedError, OrelcoError
from .folding import fold
from .harness import (SUITES, CampaignConfig, GeneratorParams, campaign_csv,
                      run_property_campaign)
from .orbicomplex import wcycles_audit
from .pipeline import present_subgroup
from .stacking import check_good_stacking, is_branched, parse_stacking
from .textio import (audit_csv, export_dot, format_complex, format_cover,
                     format_fold_trace, format_morphism,
                     format_presentation, format_quotient, parse_complex,
                     parse_cover_file, parse_morphism, parse_orbi_morphism,
                     parse_orbicomplex, pipeline_csv)
from .words import dehn_solve, format_word, free_reduce, parse_word

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("ORELCO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"error: ORELCO_SEED must be an integer, got {env!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return 0


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
          f"branch={x.branch_index} boundary-length={x.boundary_length}")
    return EXIT_OK


def _cmd_word_solve(args) -> int:
    _echo("word solve", group=args.group, word=args.word)
    x = _load(parse_orbicomplex, args.group)
    labels = {rec.label for rec in x.gamma.edges.values()} - {None}
    word = _parse("--word", parse_word, args.word, labels)
    if free_reduce(word) != word:
        return _usage("--word must be freely reduced")
    result = dehn_solve(word, x)
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
    seed = _resolve_seed(args.seed)
    _echo("cover build", group=args.group, max_degree=args.max_degree,
          seed=seed)
    x = _load(parse_orbicomplex, args.group)
    q = find_exponent_n_quotient(x, args.max_degree, seed)
    cover = build_unwrapped_cover(x, q)
    report = verify_cover(cover)
    print(format_quotient(q), end="")
    _emit(args, format_cover(cover))
    print(f"cover: degree={report.degree} "
          f"vertices={len(cover.cover.skeleton.vertices)} "
          f"edges={len(cover.cover.skeleton.edges)} "
          f"cells={len(cover.cover.cells)} chi={report.euler} "
          f"pass={1 if report.passed else 0}")
    if not report.passed:
        for witness in report.witnesses:
            print(f"error: {witness}")
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_subgroup_present(args) -> int:
    seed = _resolve_seed(args.seed)
    _echo("subgroup present", group=args.group, gens=args.gens,
          max_degree=args.max_degree, max_stages=args.max_stages,
          max_word_len=args.max_word_len, seed=seed, format=args.format)
    if args.max_word_len < 1:
        # no candidate would be tried, and the seed would pass as stable
        return _usage("--max-word-len must be at least 1")
    x = _load(parse_orbicomplex, args.group)
    gens = [_parse("--gens", parse_word, chunk)
            for chunk in args.gens.split(";")]
    gens = [g for g in gens if g]
    pres, report = present_subgroup(
        gens, x, max_degree=args.max_degree,
        max_word_len=args.max_word_len, max_stages=args.max_stages,
        seed=seed)
    for note in pres.notes:
        print(f"note: {note}")
    if args.format == "csv":
        print(pipeline_csv(report), end="")
    else:
        for r in report.rows:
            print(f"stage {r.stage}: chi1={r.chi1} chi2={r.chi2} "
                  f"cells={r.cells} free_edges={r.free_edges} "
                  f"cursor={r.cursor} stable_for={r.cursor}")
    _emit(args, format_presentation(pres.symbols, pres.relators))
    if not pres.conclusive:
        print("error: presentation is inconclusive within the stage budget")
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_audit_wcycles(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.trials is not None:
        _echo("audit wcycles", group=args.group, trials=args.trials,
              seed=seed, vertex_budget=args.vertex_budget,
              attach_prob=args.attach_prob, suites=args.suites)
        if args.trials < 1:
            # no trial would run, and every suite would pass as 0/0
            return _usage("--trials must be at least 1")
        suites = tuple(args.suites.split(","))
        if not set(suites) <= set(SUITES):
            return _usage(f"--suites must name some of {','.join(SUITES)},"
                          f" got {args.suites!r}")
        if args.vertex_budget < 1:
            return _usage("--vertex-budget must be at least 1")
        if not 0 <= args.attach_prob <= 1:
            return _usage("--attach-prob must be in [0, 1]")
        x = _load(parse_orbicomplex, args.group)
        params = GeneratorParams(args.vertex_budget, x.relator_word(),
                                 x.branch_index, args.attach_prob)
        cfg = CampaignConfig(seed, args.trials, params, suites)
        report = run_property_campaign(cfg)
        if args.format == "csv":
            _emit(args, campaign_csv(report))
        else:
            for suite, (passed, total) in sorted(report.pass_counts.items()):
                print(f"suite {suite}: {passed}/{total}")
            zeros = report.slack1_histogram.get(0, 0)
            print(f"slack1 tight in {zeros} of {len(report.rows)} trials")
        return EXIT_OK
    if args.complex is None or args.map is None:
        return _usage("audit wcycles needs --complex and --map, "
                      "or --trials for a campaign")
    _echo("audit wcycles", group=args.group, complex=args.complex,
          map=args.map, format=args.format)
    x = _load(parse_orbicomplex, args.group)
    y = _load(parse_complex, args.complex)
    m = _load(parse_orbi_morphism, args.map, y, x)
    audit = wcycles_audit(m)
    name = Path(args.complex).stem
    if args.format == "csv":
        _emit(args, audit_csv([(name, audit)]))
    else:
        print(f"audit {name}: chi1={audit.chi1} deg={audit.deg} "
              f"slack1={audit.slack1} chi2={audit.chi2} cells={audit.cells} "
              f"slack2={audit.slack2} irreducible="
              f"{1 if audit.irreducible else 0}")
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
    result = fold(m)
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
    base = (_load(parse_orbicomplex, args.group) if args.group
            else _load(parse_complex, args.complex))
    s = _load(parse_stacking, args.stacking, base)
    verdict = check_good_stacking(s)
    print(f"branched: {1 if is_branched(s) else 0}")
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_cover_build)

    p = _subparsers(sub, "subgroup").add_parser("present")
    p.add_argument("--group", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--max-word-len", type=int, default=12)
    p.add_argument("--max-stages", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_subgroup_present)

    p = _subparsers(sub, "audit").add_parser("wcycles")
    p.add_argument("--group", required=True)
    p.add_argument("--complex")
    p.add_argument("--map")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--vertex-budget", type=int, default=6)
    p.add_argument("--attach-prob", type=float, default=0.5)
    p.add_argument("--suites", default=",".join(SUITES))
    p.add_argument("--seed", type=int, default=None)
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
    except (ValueError, OrelcoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
