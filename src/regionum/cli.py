"""Command-line interface.

Exit codes: 0 success/verified, 1 domain refusal (bad input, not proper,
case not covered; one line on stderr), 2 internal inconsistency.  All
numeric output is exact.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .bounds import (
    CaseNotCovered,
    NotProperError,
    bound,
    explicit_schedule,
    target_word,
    verify_bound,
)
from .braid import format_word, parse_word, toric_braid
from .diagram import close_braid
from .invariants import jones
from .properness import (
    ORACLE_MAX_CROSSINGS,
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
    if spec.crossings <= ORACLE_MAX_CROSSINGS:
        checks["oracle"] = is_proper_diagram_oracle(args.p, args.q)
    else:
        print(
            f"proper: diagram oracle skipped: K({spec.p},{spec.q}) has "
            f"{spec.crossings} crossings, over {ORACLE_MAX_CROSSINGS}",
            file=sys.stderr,
        )
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
    best = next((r for r in bound(spec) if r.constructible), None)
    if best is None:
        raise CaseNotCovered(f"no constructible case covers K({spec.p},{spec.q})")
    schedule = explicit_schedule(spec, best.case)
    print(f"case: {best.case.value}")
    print(f"regions ({len(schedule)}): {' '.join(map(str, schedule.region_ids))}")
    print(f"target: {format_word(target_word(spec, best.case))}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _spec(args)
    result = verify_bound(spec)
    print(result.certificate.to_json(spec, result.case, result.bound))
    return EXIT_OK


def cmd_brute(args) -> int:
    spec = _spec(args)
    diagram = close_braid(toric_braid(spec.p, spec.q))
    report = brute_force_uR(diagram, args.max_k)
    print(
        json.dumps(
            {
                "p": spec.p,
                "q": spec.q,
                "exact": report.exact,
                "lower_bound": report.lower_bound,
                "witness": None if report.witness is None else list(report.witness),
                "explored": report.explored,
                "inconclusive": report.inconclusive,
            }
        )
    )
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
    build = WORD_FAMILIES.get(args.family)
    if build is None:
        raise ValueError(f"unknown family {args.family}")
    print(format_word(build(args.p, args.i, args.j)))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.p_min > args.p_max or args.q_min > args.q_max:
        raise ValueError(f"empty range p {args.p_min}..{args.p_max}, q {args.q_min}..{args.q_max}")
    specs = [
        TorusLinkSpec(p, q)
        for p in range(args.p_min, args.p_max + 1)
        for q in range(args.q_min, args.q_max + 1)
    ]
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

    def pq(sp):
        sp.add_argument("p", type=int)
        sp.add_argument("q", type=int)

    pq(sub.add_parser("proper", help="properness of K(p,q)"))
    pq(sub.add_parser("bound", help="all applicable bounds"))
    pq(sub.add_parser("schedule", help="explicit region schedule"))
    pq(sub.add_parser("verify", help="end-to-end certificate (JSON)"))
    sp = sub.add_parser("brute", help="exact search on the standard diagram")
    pq(sp)
    sp.add_argument("--max-k", type=int, default=6)
    pq(sub.add_parser("probe", help="sharpness probe (brute vs bound)"))
    sp = sub.add_parser("jones", help="Jones polynomial of a braid closure")
    sp.add_argument("word", help="signed generator word, e.g. '1 1 1'")
    sp.add_argument("--strands", type=int, default=None)
    sp = sub.add_parser("word", help="emit a named word family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--p", type=int, default=0)
    sp.add_argument("--i", type=int, default=0)
    sp.add_argument("--j", type=int, default=0)
    sp = sub.add_parser("table", help="CSV bound grid")
    sp.add_argument("p_min", type=int)
    sp.add_argument("p_max", type=int)
    sp.add_argument("q_min", type=int)
    sp.add_argument("q_max", type=int)
    return parser


COMMANDS = {
    "proper": cmd_proper,
    "bound": cmd_bound,
    "schedule": cmd_schedule,
    "verify": cmd_verify,
    "brute": cmd_brute,
    "probe": cmd_probe,
    "jones": cmd_jones,
    "word": cmd_word,
    "table": cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # bad input, NotProperError, CaseNotCovered
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
