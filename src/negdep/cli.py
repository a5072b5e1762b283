"""Command-line front end.

    negdep build <spec.json> -o <dist.json>
    negdep check <dist.json> --props na,nrtd [--max-j K] [--variant weak|strict]
                 [--caps upper_sets=N,lp_vars=M] [--jobs N] [--st-mode fast|verify]
                 [-o report.json] [--timing]
    negdep reproduce <fixture|all> [...]
    negdep conjecture [--values 1,2,3 | -n N] [...]

Exit codes: 0 = everything holds / matches, 1 = a property fails or a
fixture mismatches (witness in the report), 2 = usage error, unreadable or
malformed input, an unwritable -o path, or an enumeration cap was exceeded
(one stderr line, no traceback). The NEGDEP_CAPS environment variable
("upper_sets=N,lp_vars=M") adjusts default caps; --caps overrides on top.
--jobs N scans each property's cells in a pool of N worker processes; the
default of 1 starts no pool. Verdicts, witnesses and reports never depend on N.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .checks import PROPERTIES, LawCache, check_conjecture
from .distributions import parse_law, to_json_dict
from .errors import EnumerationCapExceeded, GridTooLarge, NegdepError, default_caps
from .fixtures import FIXTURE_IDS, run_fixture
from .rationals import format_rational
from .report import (
    Report,
    build_check_report,
    build_conjecture_report,
    build_fixture_report,
    canonical_json,
)
from .tournaments import model_spec_from_json, round_robin_distribution, RoundRobinSpec
from .tournaments import knockout_distribution

DEFAULT_PROPS = "na,nod,nsmd,nrd,nltd,nrtd"


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--caps", help="cap overrides, e.g. upper_sets=100000,lp_vars=20000")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes that share a property's cells (default 1: "
                        "no pool; results do not depend on it)")
    p.add_argument("--st-mode", choices=("fast", "verify"), default="fast",
                   help="stochastic-order decision: coupling only, or both oracles")
    p.add_argument("-o", "--output", help="write the JSON report here")
    p.add_argument("--timing", action="store_true",
                   help="embed wall-clock timings in the report (breaks byte-for-byte "
                        "reproducibility); in check, a property's time leaves out the "
                        "cells an earlier property of the same command decided")


def _caps_from(args) -> "Caps":
    caps = default_caps()
    return caps.with_overrides(args.caps) if args.caps else caps


def _write_report(report: Report, args) -> None:
    text = report.to_json(include_timing=getattr(args, "timing", False))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)


def _cmd_build(args) -> int:
    with open(args.spec) as fh:
        spec = model_spec_from_json(json.load(fh))
    if isinstance(spec, RoundRobinSpec):
        d = round_robin_distribution(spec)
    else:
        d = knockout_distribution(spec)
    text = canonical_json(to_json_dict(d))
    with open(args.output, "w") as fh:
        fh.write(text)
    mass = sum(p for _, p in d.atoms)
    print(f"wrote {args.output}: dim {d.dim}, {len(d)} atoms, "
          f"total mass {format_rational(mass)}")
    return 0


def _cmd_check(args) -> int:
    with open(args.distribution) as fh:
        d, view = parse_law(json.load(fh))
    props = [p.strip().lower() for p in args.props.split(",") if p.strip()]
    if not props:
        raise NegdepError("--props names no property")
    caps = _caps_from(args)
    verdicts = []
    timings = {}
    exit_code = 0
    work = LawCache(d)

    def write_report():
        _write_report(build_check_report(d, verdicts, caps, settings=_settings(args),
                                         timings_ms=timings, view=view), args)

    try:
        for prop in props:
            runner = PROPERTIES.get(prop)
            if runner is None:
                raise NegdepError(f"unknown property {prop!r}")
            t0 = time.monotonic()
            verdict = runner(work, args.max_j, args.variant, caps, args.st_mode, args.jobs)
            timings[prop] = (time.monotonic() - t0) * 1000.0
            verdicts.append(verdict)
            mark = "holds" if verdict.holds else "FAILS"
            print(f"{prop}: {mark}  [{timings[prop]:.1f} ms]")
            if not verdict.holds:
                exit_code = 1
    except (EnumerationCapExceeded, GridTooLarge):
        write_report()  # the verdicts decided before the cap
        raise
    write_report()
    return exit_code


def _settings(args) -> dict:
    # jobs is deliberately absent: worker count never affects results, so
    # reports stay byte-identical across it
    return {
        "props": getattr(args, "props", None),
        "max_j": getattr(args, "max_j", None),
        "variant": getattr(args, "variant", None),
        "st_mode": args.st_mode,
    }


def _cmd_reproduce(args) -> int:
    caps = _caps_from(args)
    fixtures = FIXTURE_IDS if args.fixture == "all" else (args.fixture,)
    exit_code = 0
    for fid in fixtures:
        result = run_fixture(fid, caps=caps, jobs=args.jobs, st_mode=args.st_mode)
        status = "pass" if result.passed else "FAIL"
        print(f"{fid}: {status}  [{result.timings_ms['total']:.1f} ms]")
        for comp in result.comparisons:
            if not comp["ok"]:
                print(f"  MISMATCH {comp['name']}: expected {comp['expected']}, "
                      f"got {comp['actual']}")
                exit_code = max(exit_code, 1)
        report = build_fixture_report(fid, result.passed, result.comparisons,
                                      result.verdicts, caps, result.timings_ms)
        if args.output:
            path = args.output if len(fixtures) == 1 else f"{args.output}.{fid}.json"
            with open(path, "w") as fh:
                fh.write(report.to_json(include_timing=args.timing))
    return exit_code


def _cmd_conjecture(args) -> int:
    caps = _caps_from(args)
    if args.values is not None:
        values = [v.strip() for v in args.values.split(",") if v.strip()]
    else:
        values = [str(k) for k in range(1, args.n + 1)]
    t0 = time.monotonic()
    result = check_conjecture(values, max_n=args.max_n, caps=caps,
                              st_mode=args.st_mode, jobs=args.jobs)
    elapsed = (time.monotonic() - t0) * 1000.0
    report = build_conjecture_report(result, caps, settings=_settings(args),
                                     timings_ms={"total": elapsed})
    _write_report(report, args)
    if result.holds_on_instance:
        print(f"HOLDS-ON-INSTANCE for values ({', '.join(values)})  [{elapsed:.1f} ms]")
        return 0
    print("counterexample found (re-verified); see report for the full witness")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="negdep",
        description="Exact negative-dependence verification for finite joint laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a score distribution from a model spec")
    p_build.add_argument("spec", help="model-spec JSON file")
    p_build.add_argument("-o", "--output", required=True, help="distribution JSON to write")

    p_check = sub.add_parser("check", help="run property checkers on a distribution")
    p_check.add_argument("distribution", help="distribution JSON file")
    p_check.add_argument("--props", default=DEFAULT_PROPS,
                         help=f"comma-separated properties out of {','.join(PROPERTIES)} "
                              f"(default {DEFAULT_PROPS})")
    p_check.add_argument("--max-j", type=int, default=None,
                         help="cap the conditioning-block size")
    p_check.add_argument("--variant", choices=("weak", "strict"), default="weak",
                         help="tail-event strictness variant")
    _add_common_flags(p_check)

    p_rep = sub.add_parser("reproduce", help="rebuild a built-in scenario and compare "
                                             "every exact value")
    p_rep.add_argument("fixture", help=f"one of {', '.join(FIXTURE_IDS)} or 'all'")
    _add_common_flags(p_rep)

    p_conj = sub.add_parser("conjecture", help="exhaustive mixed-conditioning "
                                               "monotonicity check on a permutation law")
    group = p_conj.add_mutually_exclusive_group()
    group.add_argument("--values", help="comma-separated rational values")
    group.add_argument("-n", type=int, default=3, help="use values 1..n")
    p_conj.add_argument("--max-n", type=int, default=5, help="guard on the length")
    _add_common_flags(p_conj)

    args = parser.parse_args(argv)
    commands = {"build": _cmd_build, "check": _cmd_check,
                "reproduce": _cmd_reproduce, "conjecture": _cmd_conjecture}
    # the one place an exception becomes an exit code: subcommands return
    # 0 (all hold) or 1 (a property fails); bad input and caps exit 2
    try:
        if args.command != "build" and args.jobs < 1:
            raise NegdepError(f"--jobs must be at least 1, got {args.jobs}")
        return commands[args.command](args)
    except (EnumerationCapExceeded, GridTooLarge) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
    except (NegdepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
