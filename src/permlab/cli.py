"""Command line interface.

Exit codes: 0 success, 1 a requested check found a mismatch, 2 bad arguments
or unparsable input, 3 enumeration budget exceeded, 4 internal consistency
check failed, 141 (128 + SIGPIPE) the reader closed stdout early. Output is
deterministic: identical invocations produce byte-identical output. Degrees
run one after another; --threads is accepted and validated but does not
change the work done.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .arith import natural_perms, robin_range, sigma_arith, sigma_via_divisor_perms
from .census import (
    class_avoiders,
    class_matchers,
    plain_avoiders,
    plain_matchers,
    sequence_check,
    sigma_via_avoiders,
    stability,
    survey,
)
from .core import format_perm, parse_perm
from .errors import BudgetExceeded, InternalCheckError, ParseError
from .pattern import parse_pattern
from .relations import RELATIONS, census, resolve_budget
from .tableau import format_tableau, rsk


def _check_n_max(n_max: int) -> int:
    if n_max < 1:
        raise ParseError(f"--n-max must be at least 1, not {n_max}")
    return n_max


def _parse_n_spec(text: str) -> list[int]:
    """Accept a single degree like "6" or an inclusive range like "2..6"."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ValueError
        else:
            lo = hi = int(text)
    except ValueError:
        raise ParseError(f"bad degree spec {text!r}: expected N or LO..HI") from None
    return list(range(lo, hi + 1))


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def cmd_enumerate(args) -> int:
    pats = [parse_pattern(text) for text in args.pattern]
    if args.mode == "avoid":
        if args.relation != "none":
            raise ParseError("--mode avoid takes --relation none")
        run = lambda n: plain_avoiders(pats, n, want_members=args.members, budget=args.budget_n)
    elif args.relation == "none":
        if args.mode == "class-avoid":
            raise ParseError("--mode class-avoid needs a relation; use --mode avoid")
        run = lambda n: plain_matchers(pats, n, want_members=args.members, budget=args.budget_n)
    else:
        fn = class_avoiders if args.mode == "class-avoid" else class_matchers
        run = lambda n: fn(pats, args.relation, n, want_members=args.members, budget=args.budget_n)

    results = [run(n) for n in _parse_n_spec(args.n)]
    if args.emit == "json":
        payloads = [r.to_payload() for r in results]
        _print_json(payloads[0] if len(payloads) == 1 else {"results": payloads})
    elif args.emit == "csv":
        writer = _csv_writer()
        writer.writerow(["n", "count"])
        for r in results:
            writer.writerow([r.n, r.count])
    else:
        for r in results:
            print(f"n={r.n} count={r.count} class_count={r.class_count}")
            if r.members is not None:
                for w in r.members:
                    print(f"  {format_perm(w)}")
    return 0


def cmd_classes(args) -> int:
    result = census(RELATIONS[args.relation], args.n, budget=args.budget_n)
    if args.emit == "json":
        _print_json({
            "n": result.n,
            "relation": result.relation,
            "class_count": result.class_count,
            "by_size": {str(size): count for size, count in result.by_size.items()},
        })
    elif args.emit == "csv":
        writer = _csv_writer()
        writer.writerow(["size", "count"])
        for size, count in result.by_size.items():
            writer.writerow([size, count])
    elif args.sizes:
        for size, count in result.by_size.items():
            print(f"{size} {count}")
        print(f"classes {result.class_count}")
    else:
        print(f"classes {result.class_count}")
    return 0


def cmd_survey(args) -> int:
    n_max = _check_n_max(args.n_max)
    result = survey(args.relation, args.length, n_range=range(1, n_max + 1),
                    merge_shift=args.merge_shift, budget=args.budget_n)
    if args.emit == "json":
        _print_json(result.to_payload())
        return 0
    degrees = list(range(1, n_max + 1))
    if args.emit == "csv":
        writer = _csv_writer()
        writer.writerow(["pattern", "orbit_size"] + [f"n{n}" for n in degrees] + ["tables"])
        for row in result.rows:
            writer.writerow([str(row.pat), row.orbit_size]
                            + [row.counts[n] for n in degrees]
                            + [";".join(row.tables)])
    else:
        print(f"{result.relation}: {result.pattern_count} patterns, {result.orbit_count} orbits")
        for row in result.rows:
            counts = ",".join(str(row.counts[n]) for n in degrees)
            line = f"{row.pat}  orbit={row.orbit_size}  counts={counts}"
            if row.tables:
                line += "  tables=" + ";".join(row.tables)
            print(line)
    return 0


def cmd_stable(args) -> int:
    report = stability(parse_pattern(args.pattern), args.relation, _check_n_max(args.n_max),
                       budget=args.budget_n)
    if args.emit == "json":
        _print_json(report.to_payload())
    else:
        cls = ", ".join(str(p) for p in report.pattern_class)
        print(f"pattern class: {cls}")
        if report.stable:
            print(f"stable through n={report.n_max}")
        else:
            print(f"unstable at n={report.witness_n}: witness {format_perm(report.witness)}")
    return 0


def cmd_rsk(args) -> int:
    w = parse_perm(args.perm)
    p, q = rsk(w)
    if args.emit == "json":
        _print_json({"perm": format_perm(w), "P": [list(r) for r in p], "Q": [list(r) for r in q]})
    else:
        print(format_tableau(p))
        print()
        print(format_tableau(q))
    return 0


def cmd_natural(args) -> int:
    words = natural_perms(args.n)
    if args.emit == "json":
        _print_json([
            {"k": w.k, "word": format_perm(w.word), "divisor": w.is_divisor_word}
            for w in words
        ])
    else:
        for w in words:
            line = f"nu_{{{w.k},{w.n}}} = {format_perm(w.word)}"
            if w.is_divisor_word:
                line += f" = delta_{{{w.k}|{w.n}}}"
            print(line)
    return 0


def cmd_sigma(args) -> int:
    if args.via == "arith":
        value = sigma_arith(args.n)
    elif args.via == "avoiders":
        value = sigma_via_avoiders(args.n, budget=args.budget_n)
    else:
        value = sigma_via_divisor_perms(args.n)
    if args.emit == "json":
        _print_json({"n": args.n, "via": args.via, "sigma": value})
    else:
        print(f"sigma({args.n}) = {value}")
    return 0


def cmd_robin(args) -> int:
    if args.start > args.stop:
        raise ParseError("--from must not exceed --to")
    results = robin_range(args.start, args.stop)
    if args.emit == "json":
        _print_json([r.to_payload() for r in results])
    elif args.emit == "csv":
        writer = _csv_writer()
        writer.writerow(["n", "sigma", "bound", "holds", "inconclusive"])
        for r in results:
            writer.writerow([r.n, r.sigma, repr(r.bound),
                             "" if r.holds is None else r.holds, r.inconclusive])
    else:
        for r in results:
            verdict = "inconclusive" if r.inconclusive else ("holds" if r.holds else "violated")
            print(f"n={r.n} sigma={r.sigma} bound={r.bound!r} {verdict}")
    return 0


def cmd_seq_check(args) -> int:
    report = sequence_check(args.id, budget=args.budget_n)
    if not report.computed:
        raise BudgetExceeded(f"every degree of {args.id} exceeds the budget "
                             f"{resolve_budget(args.budget_n)}; nothing was checked")
    if args.emit == "json":
        _print_json(report.to_payload())
    else:
        for i, expected in enumerate(report.expected):
            n = report.start + i
            if n in report.computed:
                got = report.computed[n]
                mark = "ok" if got == expected else "MISMATCH"
                print(f"n={n} expected={expected} computed={got} {mark}")
            else:
                print(f"n={n} expected={expected} skipped")
        print("ok" if report.ok else "MISMATCH")
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    building one costs more than a small command, and each build leaves
    reference cycles for the garbage collector."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=("text", "json", "csv"), default="text",
                        help="output format (default text)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; degrees run one after another, "
                             "so it changes neither the output nor the work done")
    common.add_argument("--budget-n", type=int, default=None, dest="budget_n",
                        help="largest degree enumerations may touch "
                             "(default: PERMLAB_BUDGET_N or 9)")

    parser = argparse.ArgumentParser(prog="permlab",
                                     description="pattern avoidance on classes of permutations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="count avoiders or matchers, plain or class-closed")
    p.add_argument("--mode", choices=("class-avoid", "class-match", "avoid"), required=True)
    p.add_argument("--pattern", action="append", required=True,
                   help="pattern like '231', '21;x=1;y=0,2' (repeatable)")
    p.add_argument("--relation", choices=tuple(sorted(RELATIONS)) + ("none",), required=True)
    p.add_argument("--n", required=True, help="degree N or inclusive range LO..HI")
    p.add_argument("--members", action="store_true", help="list members, not just counts")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classes", parents=[common], help="class census of S_n under a relation")
    p.add_argument("--relation", choices=tuple(sorted(RELATIONS)), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sizes", action="store_true", help="print size/count lines")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("survey", parents=[common],
                       help="class-closed avoidance counts for all patterns of one length")
    p.add_argument("--relation", choices=tuple(sorted(RELATIONS)), required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    p.add_argument("--merge-shift", action="store_true", dest="merge_shift",
                   help="merge orbits linked by the shift map, which preserves class-closed "
                        "counts only under --relation toric (any other relation exits 2)")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("stable", parents=[common],
                       help="compare class-closed avoidance with plain avoidance of the pattern class")
    p.add_argument("--relation", required=True, choices=tuple(sorted(
        name for name, rel in RELATIONS.items() if rel.pattern_class)))
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("rsk", parents=[common], help="insertion and recording tableaux")
    p.add_argument("--perm", required=True)
    p.set_defaults(func=cmd_rsk)

    p = sub.add_parser("natural", parents=[common], help="natural permutations of degree n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_natural)

    p = sub.add_parser("sigma", parents=[common], help="divisor sum, three ways")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--via", choices=("perms", "arith", "avoiders"), default="perms")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("robin", parents=[common], help="divisor-sum bound over a range")
    p.add_argument("--from", type=int, required=True, dest="start")
    p.add_argument("--to", type=int, required=True, dest="stop")
    p.set_defaults(func=cmd_robin)

    p = sub.add_parser("seq-check", parents=[common],
                       help="recompute an embedded reference sequence")
    p.add_argument("--id", required=True)
    p.set_defaults(func=cmd_seq_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ParseError(f"--threads must be at least 1, not {args.threads}")
        resolve_budget(args.budget_n)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader has gone: the rest of the output goes to os.devnull, so
        # the flush at interpreter exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetExceeded as exc:
        print(f"permlab: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"permlab: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"permlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
