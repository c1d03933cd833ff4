"""Command-line interface.

Subcommands: xi (tuple counts by class), mu (one-face counts), maps
(one-face map table by genus), db (build / query the count database),
verify (run a named cross-check suite).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 out of
memory (a query past what the process can hold).  Counts are printed as
exact decimal integers.  Tables honor --format (table | tsv | jsonl) and
are byte-deterministic.
"""

import argparse
import sys
from functools import lru_cache

from .partition import Partition, PartitionParseError, _decimal, parse_partition
from .countcore import ConsistencyError, mu, xi
from . import closedform, dimred

# verify's suites, named here so that --help and argument parsing need not
# load the checks; tests keep this equal to verify.SUITES plus "all".
VERIFY_SUITES = (
    "oracle", "closedform", "schur", "m1", "jackson", "hz", "dimred", "polynomiality",
    "all",
)


class UsageError(Exception):
    """Bad arguments or argument combinations: maps to exit code 2."""


def _int(text: str) -> int:
    try:
        return _decimal(text, signed=True)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _emit_table(rows: list, columns: list, fmt: str, out) -> None:
    if fmt == "jsonl":
        import json  # only this format needs it; keep it off every command's start

        for row in rows:
            out.write(json.dumps(dict(zip(columns, row))) + "\n")
        return
    if fmt == "tsv":
        out.write("\t".join(columns) + "\n")
        for row in rows:
            out.write("\t".join(str(v) for v in row) + "\n")
        return
    cells = [columns] + [[str(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
    for r in cells:
        out.write("  ".join(v.rjust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def _parse_partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except PartitionParseError as exc:
        raise UsageError(str(exc)) from None


def _cmd_xi(args, out) -> int:
    classes = tuple(_parse_partition_arg(text) for text in args.classes)
    n = classes[0].n
    if any(c.n != n for c in classes):
        raise UsageError("all --class partitions must have the same size")
    if n < 1:
        raise UsageError("classes must partition n >= 1")
    if args.all_m:
        rows = []
        for m in range(1, n + 1):
            value = xi(classes, m)
            if value:
                rows.append((m, value))
        _emit_table(rows, ["m", "xi"], args.format, out)
        return 0
    if not 1 <= args.m <= n:
        raise UsageError(f"--m must be between 1 and {n}")
    out.write(f"{xi(classes, args.m)}\n")
    return 0


def _cmd_mu(args, out) -> int:
    gamma = _parse_partition_arg(args.gamma)
    if gamma.n < 1:
        raise UsageError("--gamma must partition n >= 1")
    if args.all:
        rows = []
        for m in range(1, gamma.n + 1):
            value = mu(gamma, m)
            if value:
                rows.append((m, value))
        _emit_table(rows, ["m", "mu"], args.format, out)
        return 0
    if args.genus is not None:
        if args.genus < 0:
            raise UsageError("--genus must be nonnegative")
        m = 1 - 2 * args.genus + gamma.n - gamma.length
        out.write(f"{mu(gamma, m)}\n")
        return 0
    out.write(f"{mu(gamma, args.m)}\n")
    return 0


def _cmd_maps(args, out) -> int:
    edges = args.edges
    max_genus = edges // 2
    if args.genus is not None:
        if not 0 <= args.genus <= max_genus:
            raise UsageError(
                f"--genus must be between 0 and {max_genus} for {edges} edges"
            )
        out.write(f"{closedform.one_face_map_count(edges, args.genus)}\n")
        return 0
    rows = [(edges, g, count) for g, count in enumerate(closedform.hz_table(edges))]
    _emit_table(rows, ["edges", "genus", "count"], args.format, out)
    return 0


def _cmd_db(args, out) -> int:
    if args.db_command == "build":
        try:
            written = dimred.write_database(args.n_max, args.out)
        except dimred.DatabaseBuildError as exc:
            sys.stderr.write(f"validation failure: {exc}\n")
            return 1
        except OSError as exc:
            raise UsageError(f"cannot write database {args.out}: {exc}") from None
        out.write(f"built {written} records, n_max={args.n_max}, out={args.out}\n")
        return 0
    # lookup
    gamma = _parse_partition_arg(args.gamma)
    try:
        db = dimred.load_database(args.db)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read database {args.db}: {exc}") from None
    try:
        value = db.lookup(gamma.n, args.m, gamma)
    except dimred.DatabaseRangeError as exc:
        raise UsageError(str(exc)) from None
    out.write(f"{value}\n")
    return 0


def _cmd_verify(args, out) -> int:
    from . import verify  # only this command runs the checks

    report = verify.run_suite(args.suite, args.n_max)
    for case in report.cases:
        out.write(case.line() + "\n")
    out.write(report.summary() + "\n")
    return 0 if report.ok else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on the first call and shared after it.

    A process that runs many commands through `main` builds it once.
    Every caller gets the same object, so none may change it.
    """
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=["table", "tsv", "jsonl"],
        default="table",
        help="table output format (default: aligned table)",
    )

    parser = argparse.ArgumentParser(
        prog="permfact",
        description="Exact counts of permutation factorizations by conjugacy "
        "class, and of one-face (bipartite) maps by genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_xi = sub.add_parser(
        "xi",
        parents=[fmt],
        help="count tuples from prescribed classes whose product has m cycles",
    )
    p_xi.add_argument(
        "--class",
        dest="classes",
        action="append",
        required=True,
        metavar="PARTITION",
        help="conjugacy class as a partition, e.g. 2,1 or 1^2,3 (repeatable)",
    )
    group = p_xi.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=_int, help="cycle count of the product")
    group.add_argument(
        "--all-m", action="store_true", help="one row per m with a nonzero count"
    )

    p_mu = sub.add_parser(
        "mu",
        parents=[fmt],
        help="count factorizations of a fixed full cycle (one-face bipartite maps)",
    )
    p_mu.add_argument("--gamma", required=True, metavar="PARTITION",
                      help="cycle type of the class factor")
    group = p_mu.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=_int, help="cycle count of the cofactor")
    group.add_argument("--genus", type=_int, help="surface genus instead of m")
    group.add_argument(
        "--all", action="store_true", help="one row per m with a nonzero count"
    )

    p_maps = sub.add_parser(
        "maps",
        parents=[fmt],
        help="one-face map counts by genus",
    )
    p_maps.add_argument("--edges", type=_positive_int, required=True)
    p_maps.add_argument("--genus", type=_int, help="a single genus instead of all")

    p_db = sub.add_parser("db", help="count database operations")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_build = db_sub.add_parser("build", help="build and persist the database")
    p_build.add_argument("--n-max", type=_positive_int, required=True)
    p_build.add_argument("--out", required=True, help="output file path")
    p_lookup = db_sub.add_parser("lookup", help="read one count from a database file")
    p_lookup.add_argument("--db", required=True, help="database file path")
    p_lookup.add_argument("--gamma", required=True, metavar="PARTITION")
    p_lookup.add_argument("--m", type=_int, required=True)

    p_verify = sub.add_parser("verify", help="run a named cross-check suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=VERIFY_SUITES,
    )
    p_verify.add_argument(
        "--n-max",
        type=_positive_int,
        default=None,
        help="size cap (per-suite default if omitted)",
    )
    return parser


_COMMANDS = {
    "xi": _cmd_xi,
    "mu": _cmd_mu,
    "maps": _cmd_maps,
    "db": _cmd_db,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    # Counts print as exact decimals however long; Python caps int -> str at
    # 4300 digits by default (3.10.7 on; the earlier 3.10 releases lack it).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write(f"error: out of memory in {args.command}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
