"""Command-line interface.

Exit codes: 0 success/verified, 1 domain refusal (bad input, not proper,
case not covered; one line on stderr) or a stdout closed early (nothing
on stderr), 2 internal inconsistency or an operating-system error, such
as a bracket worker that could not be forked or ended mid-call (one line
on stderr).  All numeric output is exact.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .bounds import (
    CaseNotCovered,
    NotProperError,
    bound,
    chosen_case,
    construct,
    verify_bound,
)
from .braid import format_word, parse_word, toric_braid
from .diagram import close_braid
from .invariants import jones
from .limits import MAX_STRANDS, refuse_over
from .properness import (
    TorusLinkSpec,
    is_proper_closed_form,
    is_proper_diagram_oracle,
    is_proper_power_form,
)
from .search import brute_force_uR, sharpness_probe
from .templates import WORD_FAMILIES

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INTERNAL = 2


def _spec(args) -> TorusLinkSpec:
    return TorusLinkSpec(args.p, args.q)


def cmd_proper(args) -> int:
    spec = _spec(args)
    closed = is_proper_closed_form(args.p, args.q)
    checks = {"closed": closed, "power": is_proper_power_form(args.p, args.q)}
    try:
        refuse_over("MAX_CROSSINGS", spec.crossings, "crossings", f"K({args.p},{args.q})")
    except ValueError as exc:
        print(f"proper: diagram oracle skipped: {exc}", file=sys.stderr)
    else:
        checks["oracle"] = is_proper_diagram_oracle(args.p, args.q)
    if len(set(checks.values())) > 1:
        values = ", ".join(f"{name}={value}" for name, value in checks.items())
        print(f"internal error: predicates disagree ({values})", file=sys.stderr)
        return EXIT_INTERNAL
    if closed:
        kind = "knot" if spec.is_knot else f"{spec.components}-component link"
        print(f"proper ({kind})")
    else:
        print("not proper")
    return EXIT_OK


def cmd_bound(args) -> int:
    spec = _spec(args)
    results = bound(spec)
    if not results:
        raise CaseNotCovered(f"no theorem case applies to K({spec.p},{spec.q})")
    for r in results:
        suffix = "" if r.constructible else " (formula only)"
        print(f"{r.bound}  [{r.case.value}]{suffix}")
    best = results[0]
    extra = " (exact)" if spec.p == 2 else ""
    if not best.constructible:
        extra += " (formula only)"
    print(f"minimum: {best.bound}{extra}")
    return EXIT_OK


def cmd_schedule(args) -> int:
    spec = _spec(args)
    case = chosen_case(spec).case
    schedule, target = construct(spec, case)
    print(f"case: {case.value}")
    print(f"regions ({len(schedule)}): {' '.join(map(str, schedule.region_ids))}")
    print(f"target: {format_word(target)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _spec(args)
    result = verify_bound(spec)
    certificate = result.certificate
    if certificate.unlink.jones_matches_unlink is None:
        over = f"{certificate.target.strands} strands, over MAX_STRANDS {MAX_STRANDS}"
        print(f"verify: Jones check skipped: the target has {over}", file=sys.stderr)
    print(certificate.to_json(spec, result.case, result.bound))
    return EXIT_OK


def cmd_brute(args) -> int:
    spec = _spec(args)
    refuse_over("MAX_SEARCH_REGIONS", spec.regions, "regions", f"K({args.p},{args.q})")
    diagram = close_braid(toric_braid(spec.p, spec.q))
    report = brute_force_uR(diagram, args.max_k)
    print(json.dumps({"p": spec.p, "q": spec.q, **dataclasses.asdict(report)}))
    return EXIT_OK


def cmd_probe(args) -> int:
    spec = _spec(args)
    probe = sharpness_probe(spec)
    print(
        json.dumps(
            {
                "p": spec.p,
                "q": spec.q,
                "proper": probe.proper,
                "bound": probe.theorem_bound,
                "brute": probe.search.exact if probe.search else None,
                "improves_bound": probe.improves_bound,
            }
        )
    )
    return EXIT_OK


def cmd_jones(args) -> int:
    print(jones(parse_word(args.word, strands=args.strands)).format_t())
    return EXIT_OK


def cmd_word(args) -> int:
    if args.family not in WORD_FAMILIES:
        raise ValueError(f"unknown family {args.family}")
    letters, build = WORD_FAMILIES[args.family]
    count = letters(*(max(x, 0) for x in (args.p, args.i, args.j)))  # builders refuse x < 0
    refuse_over("MAX_CROSSINGS", count, "letters", f"the {args.family} word")
    print(format_word(build(args.p, args.i, args.j)))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.p_min > args.p_max or args.q_min > args.q_max:
        raise ValueError(f"empty range p {args.p_min}..{args.p_max}, q {args.q_min}..{args.q_max}")
    TorusLinkSpec(args.p_min, args.q_min)  # the ranges ascend, so every later spec is valid too
    specs = (  # one at a time: a range may hold billions
        TorusLinkSpec(p, q)
        for p in range(args.p_min, args.p_max + 1)
        for q in range(args.q_min, args.q_max + 1)
    )
    # The case names contain commas, so fields are quoted as CSV needs.
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(
        ["p", "q", "components", "proper", "min_bound", "case", "constructible"]
    )
    for spec in specs:
        row = [spec.p, spec.q, spec.components]
        try:
            results = bound(spec)
        except NotProperError:
            out.writerow(row + ["no", "", "", ""])
            continue
        if results:
            best = results[0]
            yes_no = "yes" if best.constructible else "no"
            out.writerow(row + ["yes", best.bound, best.case.value, yes_no])
        else:
            out.writerow(row + ["yes", "", "", ""])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionum",
        description=(
            "Region crossing change bounds and certificates for torus links"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=run)
        return sp

    def pq(sp):
        sp.add_argument("p", type=int)
        sp.add_argument("q", type=int)
        return sp

    pq(command("proper", cmd_proper, "properness of K(p,q)"))
    pq(command("bound", cmd_bound, "all applicable bounds"))
    pq(command("schedule", cmd_schedule, "explicit region schedule"))
    pq(command("verify", cmd_verify, "end-to-end certificate (JSON)"))
    sp = pq(command("brute", cmd_brute, "exact search on the standard diagram"))
    sp.add_argument("--max-k", type=int, default=6)
    pq(command("probe", cmd_probe, "sharpness probe (brute vs bound)"))
    sp = command("jones", cmd_jones, "Jones polynomial of a braid closure")
    sp.add_argument("word", help="signed generator word, e.g. '1 1 1'")
    sp.add_argument("--strands", type=int, default=None)
    sp = command("word", cmd_word, "emit a named word family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--p", type=int, default=0)
    sp.add_argument("--i", type=int, default=0)
    sp.add_argument("--j", type=int, default=0)
    sp = command("table", cmd_table, "CSV bound grid")
    sp.add_argument("p_min", type=int)
    sp.add_argument("p_max", type=int)
    sp.add_argument("q_min", type=int)
    sp.add_argument("q_max", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # As Python's notes on SIGPIPE advise: stdout goes to devnull, so
        # the flush at exit cannot fail again, and the exit code is 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # bad input, NotProperError, CaseNotCovered
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # ChildProcessError from the bracket worker, a failed fork
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
