"""Command-line pipeline: ingest, project, measure, decompose, report.

Exit codes: 0 on success, 1 for analysis/parse failures, 2 for I/O or
usage problems, 130 when interrupted (Ctrl-C).  All configuration travels
through flags; no environment variables are consulted.
"""

from __future__ import annotations

import errno
import io
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
    import argparse

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


# Every option of interlock-analyze, once: its flag and the keywords of its
# add_argument call, in help order.  build_parser adds them to the parser;
# _read_argv takes each default, choice list and kind from the same entries.
_OPTIONS = (
    ("--input", dict(required=True, help="membership CSV or two-mode NET file")),
    ("--format", dict(
        choices=("csv", "net"), help="input format; default is guessed from the file extension"
    )),
    ("--slice", dict(
        action="append", type=_slice_threshold, metavar="M",
        help="add an m-slice decomposition at threshold M (repeatable)",
    )),
    ("--closeness-variant", dict(
        choices=CLOSENESS_VARIANTS, default="paper",
        help="paper: plain reachable-count over distance-sum ratio; "
        "component: the same ratio scaled by the reachable share of the network",
    )),
    ("--density-variant", dict(
        choices=DENSITY_VARIANTS, default=DENSITY_NO_LOOPS,
        help="denominator convention for per-component densities",
    )),
    ("--out", dict(help="write the JSON report here instead of stdout")),
    ("--export-net", dict(metavar="PATH", help="write the one-mode NET file")),
    ("--export-csv", dict(metavar="PATH", help="write the edge-list CSV")),
    ("--export-dot", dict(metavar="PATH", help="write the DOT rendering")),
    ("--tables", dict(action="store_true", help="print the three report tables to stdout")),
    ("--stats-only", dict(
        action="store_true",
        help="emit only the aggregates block (also accepts a degree-census CSV)",
    )),
    ("--normalize-names", dict(
        action="store_true", help="case-fold actor names when merging identities"
    )),
)


def build_parser():
    """The ``argparse.ArgumentParser`` of ``interlock-analyze``, the one
    source of its help and usage errors."""
    import argparse  # here, not at the top: a documented argv never needs it (_read_argv)

    parser = argparse.ArgumentParser(
        prog="interlock-analyze",
        description=(
            "Analyze a board-membership dataset: project it to the valued "
            "journal network, compute centralities and cohesive subgroups, "
            "and write a JSON report plus optional table and graph exports."
        ),
    )
    for flag, keywords in _OPTIONS:
        parser.add_argument(flag, **keywords)
    return parser


class _Options:
    """The options of one argv, as attributes: what :func:`_read_argv` read,
    or the ``vars()`` of the ``argparse.Namespace`` of an argv it left to
    argparse."""

    def __init__(self, values: dict) -> None:
        self.__dict__.update(values)


def _read_argv(argv: Sequence[str]) -> _Options | None:
    """``build_parser().parse_args(argv)``'s options, read without argparse
    when ``argv`` is spelled as the README documents; else None, and argparse
    reads it, as the one source of help and error text.

    Documented: ``--input`` given; each option spelled in full and given once
    (``--slice`` any number of times); a switch with no ``=``; a value after
    the option or its ``=`` that is not empty, does not start with ``-``, is
    one of the option's choices and, for ``--slice``, is 1 to 18 decimal
    digits, not 0 (which ``int`` reads as argparse's type does, far below
    its digit limit).  Defaults, choices and kinds come from ``_OPTIONS``:
    a ``store_true`` option is a switch, the one ``append`` option is
    ``--slice``, and a ``required`` one must be given.
    """
    options = dict(_OPTIONS)
    values = {
        flag: keywords.get("default", False if keywords.get("action") == "store_true" else None)
        for flag, keywords in _OPTIONS
    }
    words, seen = iter(argv), set()
    for word in words:
        flag, eq, value = word.partition("=")
        if flag not in options or flag in seen:
            return None
        action, choices = options[flag].get("action"), options[flag].get("choices")
        if action == "store_true":
            if eq:
                return None
            value = True
        else:
            value = value if eq else next(words, "")
            if value[:1] in ("", "-") or (choices and value not in choices):
                return None
            if action == "append":
                if not (value.isdecimal() and len(value) < 19 and int(value)):
                    return None
                value = (values[flag] or []) + [int(value)]
        values[flag] = value
        if action != "append":
            seen.add(flag)
    if any(values[flag] is None for flag, keywords in _OPTIONS if keywords.get("required")):
        return None
    return _Options({flag[2:].replace("-", "_"): value for flag, value in values.items()})


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
    write nothing goes to stdout.  An interrupt removes them too.
    """
    files = [(out, json_text), *exports] if out else list(exports)
    written: list[str] = []
    try:
        for path, text in files:
            target = _path(path)
            try:
                with open(target, "w", encoding="utf-8") as handle:
                    if os.path.isfile(target):  # never remove a device such as /dev/null
                        written.append(target)  # a part written is removed, too
                    handle.write(text)
            except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
                raise _Failure(2, f"cannot write {path}: {exc}")
        error = _write(sys.stdout, tables if out else json_text + tables)
        if error:  # a full device or a closed pipe
            raise _Failure(2, f"cannot write stdout: {error}")
    except (_Failure, KeyboardInterrupt):
        for done in written:
            try:
                os.unlink(done)
            except FileNotFoundError:
                pass
        raise


def _write(stream, text: str) -> OSError | None:
    """Write ``text`` to ``stream`` and flush it; the error when that failed.

    A stream with a binary layer is given the encoded text there, write after
    write until every byte is taken: unbuffered (``python -u``), that layer
    is the raw file, whose write may take only part of the bytes, as it does
    on a pipe whose reader goes away.  A failed stream's descriptor is then
    pointed at the null device, so that the flush at interpreter exit of what
    the failed write left buffered cannot fail again (the recipe of the
    ``signal`` module's note on SIGPIPE)."""
    try:
        binary = getattr(stream, "buffer", None)
        if binary is None:  # a text-only stream, such as io.StringIO
            stream.write(text)
            stream.flush()
            return None
        data = memoryview(text.encode(stream.encoding, stream.errors))
        stream.flush()  # what was written to the text layer goes first
        while data:
            taken = binary.write(data)
            if taken is None:  # a non-blocking descriptor that would block
                raise BlockingIOError(errno.EAGAIN, "write could not complete without blocking")
            data = data[taken:]
        binary.flush()
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
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    held, stdout = io.StringIO(), sys.stdout
    try:
        if args is None:  # help, a usage error, or a spelling left to argparse
            sys.stdout = held  # the help argparse prints goes out through _write
            try:
                args = _Options(vars(build_parser().parse_args(argv)))
            finally:
                sys.stdout = stdout
    except (SystemExit, OSError) as exc:  # argparse printed help or usage (3.10: or failed to)
        error = _write(sys.stdout, held.getvalue())  # the help, as _emit writes the report
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


def _analyze(args: _Options) -> None:
    """Read, parse, measure and write; a failure raises."""
    path = _path(args.input)
    try:
        # newline="": a quoted cell keeps its \r, as the csv module requires
        with open(path, encoding="utf-8", newline="") as handle:
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
    # the warnings' text can then reuse the memory of the input
    del text
    _write_warnings(args.input, diags.warnings)  # before any output, all or nothing
    net = project_events(two_mode)
    # the report's allocations can then reuse the memory of the seat store
    # and the warnings, which lowers the run's peak RSS
    del two_mode, diags

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


_WARNING_BATCH = 4096  # parse warnings formatted and written to stderr at a time


def _write_warnings(source: str, warnings: list[tuple[int, str]]) -> None:
    """Write ``SOURCE:LINE: warning: MESSAGE`` lines to stderr in input order,
    ``_WARNING_BATCH`` lines per write, so that no more than one batch of
    text exists at once; a failed write raises :class:`_Failure`."""
    prefix = f"{source}:"
    for start in range(0, len(warnings), _WARNING_BATCH):
        batch = warnings[start : start + _WARNING_BATCH]
        if _write(sys.stderr, "".join([f"{prefix}{no}: warning: {why}\n" for no, why in batch])):
            raise _Failure(2, "cannot write stderr")


def _run_degree_census(args: _Options, text: str) -> None:
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
    """The ``interlock-analyze`` command: :func:`run_analyze`, with an
    interrupt ended as exit 130 and one stderr line, not a traceback."""
    try:
        status = run_analyze()
    except KeyboardInterrupt:
        _write(sys.stderr, "interlock-analyze: interrupted\n")
        status = 130
    sys.exit(status)


if __name__ == "__main__":
    main()
