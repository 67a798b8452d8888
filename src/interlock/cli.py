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
        digits = text.strip()  # as int reads it
        if (digits[1:] if digits[:1] in ("+", "-") else digits).isdecimal():  # more than int reads
            raise argparse.ArgumentTypeError(f"number too long: {len(digits)} characters") from None
        shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"
        raise argparse.ArgumentTypeError(f"not an integer: {shown}") from None
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


class _Failure(Exception):
    """Ends a run early; ``args`` are its exit status and its stderr line."""


def _emit(
    json_text: str,
    out: str | None,
    exports: Sequence[tuple[str, str]] = (),
    tables: str = "",
) -> None:
    """Write the JSON report (to ``out``, else stdout), the rendered exports
    and the tables (to stdout); all or nothing.

    Every output is rendered before this is called.  When a write fails,
    to a file or to stdout, the regular files this call already wrote are
    removed again and :class:`_Failure` is raised; after a failed file
    write nothing goes to stdout.
    """
    files = [(out, json_text), *exports] if out else list(exports)
    written: list[str] = []
    try:
        for path, text in files:
            target = _path(path)
            try:
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
                raise _Failure(2, f"cannot write {path}: {exc}")
            if os.path.isfile(target):  # never remove a device such as /dev/null
                written.append(target)
        error = _write(sys.stdout, tables if out else json_text + tables)
        if error:  # a full device or a closed pipe
            raise _Failure(2, f"cannot write stdout: {error}")
    except _Failure:
        for done in written:
            try:
                os.unlink(done)
            except FileNotFoundError:
                pass
        raise


def _write(stream, text: str) -> OSError | None:
    """Write ``text`` to ``stream`` and flush it; the error when that failed.
    A failed stream's descriptor is then pointed at the null device, so that
    the flush at interpreter exit of what the failed write left buffered
    cannot fail again (the recipe of the ``signal`` module's note on SIGPIPE)."""
    try:
        stream.write(text)
        stream.flush()
        return None
    except OSError as exc:
        try:
            fd = stream.fileno()
        except (AttributeError, ValueError):  # no descriptor behind the stream, or closed
            return exc
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return exc


def run_analyze(argv: list[str] | None = None) -> int:
    """Run the pipeline; returns the process exit status.  Every failure ends
    here as its status and one stderr line, which is lost if it cannot be written."""
    try:
        args = build_parser().parse_args(argv)
    except (SystemExit, OSError) as exc:  # argparse wrote help or usage (3.10: or failed to)
        error = _write(sys.stdout, "")  # flushes the help, as _emit does the report
        status = 2 if error or isinstance(exc, OSError) else int(exc.code or 0)
        message = f"cannot write stdout: {error}\n" if error else ""
    else:
        try:
            _analyze(args)
            return 0
        except FormatError as exc:
            status, message = 1, f"{args.input}:{exc.line}: {exc.reason}\n"
        except _Failure as exc:
            status, message = exc.args[0], exc.args[1] + "\n"
    _write(sys.stderr, message)  # flushes what argparse wrote, too
    return status


def _analyze(args: argparse.Namespace) -> None:
    """Read, parse, measure and write; a failure raises."""
    path = _path(args.input)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read().removeprefix("\ufeff")  # a BOM, as Windows tools write
    except FileNotFoundError:
        raise _Failure(2, f"no such input: {args.input}")
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or a NUL in the name
        raise _Failure(2, f"cannot read {args.input}: {exc}")

    # the suffix as pathlib reads it: a name's leading dot does not start one
    name = path.rpartition("/")[2]
    dot = name.rfind(".")
    fmt = args.format or ("net" if dot > 0 and name[dot:].lower() == ".net" else "csv")
    if fmt == "csv" and csv_kind(text) == "degrees":
        return _run_degree_census(args, text)
    parse = parse_net_two_mode if fmt == "net" else parse_csv_affiliations
    two_mode, diags = parse(text, casefold_actors=args.normalize_names)
    warnings = "".join(f"{args.input}:{no}: warning: {why}\n" for no, why in diags.warnings)
    if warnings and _write(sys.stderr, warnings):  # before any output, all or nothing
        raise _Failure(2, "cannot write stderr")
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
                raise _Failure(1, f"cannot export {target}: {exc}")
    _emit(json_text, args.out, exports, tables)


def _run_degree_census(args: argparse.Namespace, text: str) -> None:
    """Handle a degree-census CSV, which supports only --stats-only."""
    if not args.stats_only:
        raise _Failure(2, "degree-census input requires --stats-only")
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
        raise _Failure(2, f"{', '.join(unusable)} not available for degree-census input")
    degrees, _ = parse_degree_list_csv(text)
    try:
        aggregates = degree_census_aggregates(degrees)
    except ValueError as exc:
        raise _Failure(1, str(exc))
    _emit(stats_to_json(aggregates), args.out)


def main() -> None:
    sys.exit(run_analyze())


if __name__ == "__main__":
    main()
