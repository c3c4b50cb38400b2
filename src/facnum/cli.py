"""Command-line front end.

Exit codes are part of the contract so sweeps can be scripted:
0 success / claim verified, 1 a mathematical verdict failed (an identity
mismatch or a violated bound), 2 input validation, 3 a resource cap,
141 stdout closed early (128 + SIGPIPE, as in `facnum f2 ... --list | head`).
JSON output keeps every potentially-big count as a decimal string.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import DomainError, FacnumError, ResourceLimitError, VerificationError
from .explore import check_conjecture6, check_theorem5, open_problem_table
# load_cayley_table is not called here, but perfbench's tracer tests read cli.load_cayley_table
from .groups import FAMILIES, GroupSpec, load_cayley_table
from .lattice import (
    MAX_LIST_PAIRS,
    enumerate_subgroups,
    f2_bruteforce,
    list_factorizations,
    sd,
    verify_inversion,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _emit(doc: dict, fmt: str, table_text: str, csv_rows: list[list[str]]) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        for row in csv_rows:
            print(",".join(row))
    else:
        print(table_text)
    sys.stdout.flush()  # a closed stdout raises here, in main, not at the interpreter's exit


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")


def _positive_int(text: str) -> int:
    """argparse type of a cap or a thread count."""
    try:
        value = int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_format(parser)
    parser.add_argument("--max-order", type=_positive_int, default=None,
                        help="override the group-order safety cap")
    parser.add_argument("--max-subgroups", type=_positive_int, default=None,
                        help="override the subgroup-count safety cap")
    parser.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                        help="worker threads for pair counting")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_formula(args) -> int:
    """`formula <family>` takes each parameter of its FAMILIES row after p as
    a required --<name>, and --p and --poly only when the row has a polynomial."""
    _, family, declared, _, value_fn, poly_fn = args.row
    required = declared[1:]
    values = [getattr(args, name) for name in required]
    params = dict(zip(required, values))
    value = poly = None
    if poly_fn is None:
        value = value_fn(None, *values)  # F2 without a polynomial does not depend on p
    else:
        if args.poly:
            poly = poly_fn(*values)
        if args.p is not None:
            params["p"] = args.p
            value = value_fn(args.p, *values)
        elif not args.poly:
            raise DomainError(f"{family} requires --p (or --poly)")

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # every count is exact, however many digits it has
    try:
        value, poly = (None if x is None else str(x) for x in (value, poly))
    finally:
        sys.set_int_max_str_digits(limit)
    doc = {
        "command": "formula",
        "family": family,
        "params": params,
        "value": value,
        "poly": poly,
    }
    lines = [f"F2 = {x}" for x in (value, poly) if x is not None]
    csv_rows = [["family", "params", "value", "poly"],
                [family, ";".join(f"{k}={v}" for k, v in params.items()), value or "", poly or ""]]
    _emit(doc, args.format, "\n".join(lines), csv_rows)
    return EXIT_OK


def _cmd_f2(args) -> int:
    spec = GroupSpec.parse(args.spec)
    G = spec.build(max_order=args.max_order)
    lat = enumerate_subgroups(G, max_subgroups=args.max_subgroups)
    # verify_inversion counts F2 itself; count it once per lattice
    inv = verify_inversion(G, lattice=lat, threads=args.threads) if args.verify else None
    f2 = f2_bruteforce(lat, threads=args.threads) if inv is None else inv.f2
    doc = {
        "command": "f2",
        "spec": spec.canonical(),
        "label": G.label,
        "order": G.order,
        "f2": str(f2),
        "lattice_size": str(len(lat)),
    }
    lines = [f"group {G.label} (order {G.order})",
             f"F2 = {f2}", f"|L| = {len(lat)}"]
    if args.list:
        if f2 > MAX_LIST_PAIRS:
            raise ResourceLimitError(f"--list would print {f2} factorization pairs, "
                                     f"more than the limit {MAX_LIST_PAIRS}")
        pairs = list_factorizations(lat)
        if args.format == "json":  # csv lists no pairs
            doc["pairs"] = pairs  # tuples dump as arrays
        elif args.format == "table":
            orders = lat.orders.tolist()
            lines.append(f"{len(pairs)} factorization pairs (subgroup indices):")
            lines.extend(f"  ({i}, {j})  orders ({orders[i]}, {orders[j]})" for i, j in pairs)
    if inv is not None:
        closed = spec.closed()
        if closed is not None:
            inv.check("closed_form", closed == inv.f2,
                      f"closed form {closed} disagrees with brute force {inv.f2} for {G.label}")
        doc["verify"] = {"checks": inv.checks, "report": inv.to_dict(), "passed": inv.passed}
        lines.extend(f"verify {name}: {state}" for name, state in inv.checks.items())
    csv_rows = [["label", "order", "f2", "lattice_size"],
                [G.label, str(G.order), str(f2), str(len(lat))]]
    _emit(doc, args.format, "\n".join(lines), csv_rows)
    return EXIT_VERDICT if inv is not None and not inv.passed else EXIT_OK


def _cmd_sd(args) -> int:
    spec = GroupSpec.parse(args.spec)
    G = spec.build(max_order=args.max_order)
    lat = enumerate_subgroups(G, max_subgroups=args.max_subgroups)
    value: Fraction = sd(lat)
    total = len(lat) ** 2
    raw = value.numerator * (total // value.denominator)
    doc = {
        "command": "sd",
        "spec": spec.canonical(),
        "label": G.label,
        "order": G.order,
        "permuting_pairs": str(raw),
        "pair_total": str(total),
        "sd": f"{value.numerator}/{value.denominator}",
        "decimal_approx": f"{float(value):.6f}",
    }
    text = (f"group {G.label} (order {G.order})\n"
            f"sd = {raw}/{total} = {value.numerator}/{value.denominator}"
            f" ~ {float(value):.6f} (approximation; the fraction is exact)")
    csv_rows = [["label", "order", "sd_numerator", "sd_denominator", "decimal_approx"],
                [G.label, str(G.order), str(value.numerator), str(value.denominator),
                 f"{float(value):.6f}"]]
    _emit(doc, args.format, text, csv_rows)
    return EXIT_OK


def _cmd_explore(args) -> int:
    # looked up at each call, so that rebinding a sweep's module name (as
    # perfbench/tracer.py does) reaches the command
    sweep = {"theorem5": check_theorem5, "conjecture6": check_conjecture6,
             "openproblem": open_problem_table}[args.what]
    tables = (args.tables,) if "tables" in args else ()  # conjecture6 only
    report = sweep(args.p, args.n, *tables, threads=args.threads,
                   max_order=args.max_order, max_subgroups=args.max_subgroups)
    doc = report.to_dict()
    csv_rows = [["key", "value"]] + [[k, json.dumps(v)] for k, v in doc.items()]
    _emit(doc, args.format, report.render(), csv_rows)
    return EXIT_OK if report.passed else EXIT_VERDICT


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The facnum parser, built once per process.  Each leaf parser (a
    formula family, f2, sd or an explore sweep) is its namespace's `leaf`."""
    parser = argparse.ArgumentParser(
        prog="facnum",
        description="Exact factorization numbers of finite groups: closed "
                    "forms and brute-force subgroup-lattice enumeration.",
    )
    parser.add_argument("--version", action="version", version=f"facnum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_formula = sub.add_parser("formula", help="evaluate a closed form")
    families = p_formula.add_subparsers(dest="family", required=True)
    for row in FAMILIES:
        _, family, declared, _, _, poly_fn = row
        if family is None:
            continue
        p_family = families.add_parser(family)
        for name in declared[1:]:
            p_family.add_argument(f"--{name}", type=int, required=True)
        if poly_fn is not None:
            p_family.add_argument("--p", type=int, default=None)
            p_family.add_argument("--poly", action="store_true",
                                  help="also print the symbolic polynomial in p")
        _add_format(p_family)
        p_family.set_defaults(func=_cmd_formula, leaf=p_family, row=row)

    p_f2 = sub.add_parser("f2", help="brute-force F2 over the subgroup lattice")
    p_f2.add_argument("spec", help="abelian:p=2,type=1,2 | named:Q8 | table:path")
    p_f2.add_argument("--list", action="store_true",
                      help="list every factorization pair")
    p_f2.add_argument("--verify", action="store_true",
                      help="also verify the inversion identities, Hall's formula and the closed form")
    _add_common(p_f2)
    p_f2.set_defaults(func=_cmd_f2, leaf=p_f2)

    p_sd = sub.add_parser("sd", help="subgroup commutativity degree (exact)")
    p_sd.add_argument("spec")
    _add_common(p_sd)
    p_sd.set_defaults(func=_cmd_sd, leaf=p_sd)

    p_explore = sub.add_parser("explore", help="catalog sweeps and reports")
    sweeps = p_explore.add_subparsers(dest="what", required=True)
    for what in ("theorem5", "conjecture6", "openproblem"):
        p_sweep = sweeps.add_parser(what)
        p_sweep.add_argument("--p", type=int, required=True)
        p_sweep.add_argument("--n", type=int, required=True)
        if what == "conjecture6":
            p_sweep.add_argument("--tables", nargs="*", default=[],
                                 help="extra Cayley-table files of order p^n")
        _add_common(p_sweep)
        p_sweep.set_defaults(func=_cmd_explore, leaf=p_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # reported by the parser of the family or sweep they follow
            args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # --help exits 0, argparse errors exit 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"facnum: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"facnum: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except FacnumError as exc:
        print(f"facnum: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader has gone: point stdout at /dev/null so that the
        # interpreter's final flush stays silent, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
