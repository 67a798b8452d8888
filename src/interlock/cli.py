"""Command-line pipeline: ingest, project, measure, decompose, report.

Exit codes: 0 on success, 1 for analysis/parse failures, 2 for I/O or
usage problems.  All configuration travels through flags; no environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .io import (
    FormatError,
    csv_kind,
    parse_csv_affiliations,
    parse_degree_list_csv,
    parse_net_two_mode,
    write_dot,
    write_edge_list_csv,
    write_net_one_mode,
)
from .metrics import CLOSENESS_VARIANTS, degree_census_aggregates, network_aggregates
from .model import DENSITY_NO_LOOPS, DENSITY_VARIANTS
from .projection import project_events
from .report import TABLE_KINDS, build_report, render_table, report_to_json, stats_to_json


def _slice_threshold(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("slice threshold must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interlock-analyze",
        description=(
            "Analyze a board-membership dataset: project it to the valued "
            "journal network, compute centralities and cohesive subgroups, "
            "and write a JSON report plus optional table and graph exports."
        ),
    )
    parser.add_argument("--input", required=True, help="membership CSV or two-mode NET file")
    parser.add_argument(
        "--format",
        choices=["csv", "net"],
        help="input format; default is guessed from the file extension",
    )
    parser.add_argument(
        "--slice",
        action="append",
        type=_slice_threshold,
        metavar="M",
        help="add an m-slice decomposition at threshold M (repeatable)",
    )
    parser.add_argument(
        "--closeness-variant",
        choices=CLOSENESS_VARIANTS,
        default="paper",
        help=(
            "paper: plain reachable-count over distance-sum ratio; "
            "component: the same ratio scaled by the reachable share of the network"
        ),
    )
    parser.add_argument(
        "--density-variant",
        choices=DENSITY_VARIANTS,
        default=DENSITY_NO_LOOPS,
        help="denominator convention for per-component densities",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--export-net", metavar="PATH", help="write the one-mode NET file")
    parser.add_argument("--export-csv", metavar="PATH", help="write the edge-list CSV")
    parser.add_argument("--export-dot", metavar="PATH", help="write the DOT rendering")
    parser.add_argument(
        "--tables", action="store_true", help="print the three report tables to stdout"
    )
    parser.add_argument(
        "--stats-only",
        action="store_true",
        help="emit only the aggregates block (also accepts a degree-census CSV)",
    )
    parser.add_argument(
        "--normalize-names",
        action="store_true",
        help="case-fold actor names when merging identities",
    )
    return parser


def _path(name: str) -> str:
    """``name`` as ``str(pathlib.PurePosixPath(name))`` spells it, which is
    the file opened and the name OS errors give: empty and ``.`` parts are
    dropped, a leading ``//`` is kept, and nothing left is ``.``."""
    stripped = name.lstrip("/")
    root = "//" if len(name) - len(stripped) == 2 else "/" * (name != stripped)
    return root + "/".join(part for part in stripped.split("/") if part not in ("", ".")) or "."


def _emit(
    json_text: str,
    out: str | None,
    exports: Sequence[tuple[str, str]] = (),
    tables: str = "",
) -> bool:
    """Write the JSON report (to ``out``, else stdout), the rendered exports
    and the tables (to stdout); all or nothing.

    Every output is rendered before this is called.  When a write fails,
    to a file or to stdout, the failure is reported on stderr and the
    files this call already wrote are removed again; after a failed file
    write nothing goes to stdout.
    """
    files = [(out, json_text), *exports] if out else list(exports)
    written: list[str] = []
    failure = ""
    for path, text in files:
        target = _path(path)
        try:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
            failure = f"cannot write {path}: {exc}"
            break
        written.append(target)
    if not failure:
        try:
            sys.stdout.write(tables if out else json_text + tables)
            sys.stdout.flush()
            return True
        except OSError as exc:  # a full device or a closed pipe
            failure = f"cannot write stdout: {exc}"
            _discard_stdout()
    print(failure, file=sys.stderr)
    for done in written:
        try:
            os.unlink(done)
        except FileNotFoundError:
            pass
    return False


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    interpreter exit of what a failed write left buffered cannot fail again
    (the recipe of the ``signal`` module's note on SIGPIPE)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # no descriptor behind the stream, or closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _write_warnings(source: str, warnings: Sequence[tuple[int, str]]) -> None:
    """Parse warnings to stderr as ``SOURCE:LINE: warning: MESSAGE`` lines,
    in one write."""
    if warnings:
        sys.stderr.write(
            "".join(f"{source}:{line}: warning: {message}\n" for line, message in warnings)
        )


def run_analyze(argv: list[str] | None = None) -> int:
    """Run the pipeline; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)

    path = _path(args.input)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        print(f"no such input: {args.input}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or a NUL in the name
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2

    # the suffix as pathlib reads it: a name's leading dot does not start one
    name = path.rpartition("/")[2]
    dot = name.rfind(".")
    fmt = args.format or ("net" if dot > 0 and name[dot:].lower() == ".net" else "csv")
    try:
        if fmt == "csv" and csv_kind(text) == "degrees":
            return _run_degree_census(args, text)
        if fmt == "net":
            two_mode, diags = parse_net_two_mode(
                text, casefold_actors=args.normalize_names
            )
        else:
            two_mode, diags = parse_csv_affiliations(
                text, casefold_actors=args.normalize_names
            )
    except FormatError as exc:
        print(f"{args.input}:{exc.line}: {exc.reason}", file=sys.stderr)
        return 1

    _write_warnings(args.input, diags.warnings)
    net = project_events(two_mode)

    tables = ""
    if args.stats_only:
        json_text = stats_to_json(network_aggregates(net))
    else:
        report = build_report(
            net,
            slice_thresholds=tuple(args.slice or ()),
            closeness_variant=args.closeness_variant,
            component_density_variant=args.density_variant,
        )
        json_text = report_to_json(report)
        if args.tables:
            tables = "".join(render_table(report, kind) + "\n" for kind in TABLE_KINDS)

    exports: list[tuple[str, str]] = []
    for target, render in (
        (args.export_net, write_net_one_mode),
        (args.export_csv, write_edge_list_csv),
        (args.export_dot, write_dot),
    ):
        if target:
            try:
                exports.append((target, render(net)))
            except ValueError as exc:  # a label the format cannot carry
                print(f"cannot export {target}: {exc}", file=sys.stderr)
                return 1
    return 0 if _emit(json_text, args.out, exports, tables) else 2


def _run_degree_census(args: argparse.Namespace, text: str) -> int:
    """Handle a degree-census CSV, which supports only --stats-only."""
    if not args.stats_only:
        print("degree-census input requires --stats-only", file=sys.stderr)
        return 2
    unusable = [
        flag
        for flag, value in (
            ("--slice", args.slice),
            ("--tables", args.tables),
            ("--export-net", args.export_net),
            ("--export-csv", args.export_csv),
            ("--export-dot", args.export_dot),
        )
        if value
    ]
    if unusable:
        print(
            f"{', '.join(unusable)} not available for degree-census input",
            file=sys.stderr,
        )
        return 2
    try:
        degrees, _ = parse_degree_list_csv(text)
    except FormatError as exc:
        print(f"{args.input}:{exc.line}: {exc.reason}", file=sys.stderr)
        return 1
    try:
        aggregates = degree_census_aggregates(degrees)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0 if _emit(stats_to_json(aggregates), args.out) else 2


def main() -> None:
    sys.exit(run_analyze())


if __name__ == "__main__":
    main()
