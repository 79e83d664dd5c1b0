"""Command-line front end: descriptors in, reports out as text or JSON.

``COMMANDS`` is the command table.  A row gives a command's name, its help,
its arguments as ``(flag, add_argument keywords)`` pairs and the module in
``seifinv.commands`` whose ``handle`` runs it; a row whose module is ``None``
is a group, and its arguments are its own table.  Every leaf command also
takes ``--json``.  argparse's parsers are built from the table, so the
choice lists, usage lines, help and errors are argparse's own.  The first
``run`` of a process builds the top-level parser, and later calls reuse it.
It names every command, with its help line, through argparse's own
``add_parser``, which holds each command as a ``_Command``; argparse asks
only the chosen one to parse, and it builds its parser on every call, with
its ``-h``, then adds its own arguments or a group's sub-table.  So a call
builds 1 parser, 2 for an ``mcg`` command, and the first call one more.
argparse formats help and usage when it prints them, so each call's
output follows that call's terminal width.  The command parsers stay per
call: the benchmark runner keeps one sample per request, so its memory
grows with throughput.  Built once in the kept root, they raised
``query-mix`` from 3,544 to 9,375 ops/s but its peak RSS by 20 %, and
``frame-search``'s by 19 %, against a 10 % bound (``BENCH_39.json``
``keep_every_parser``, ROADMAP items 1 and 2).
``run`` then imports the module of the command it parsed, and ``_finish``
renders the handler's text lines or, with ``--json``, its payload.  A
process thus compiles the one handler it runs.  ``json_render.indented``
renders each ``--json`` payload as ``json.dumps(payload, indent=2)`` does;
it, and ``json`` with it, is imported only with ``--json``.

Exit codes: 0 on success, 1 for parse/domain errors, 2 for usage errors.
All JSON payloads carry a top-level ``"schema": "1"`` field.  Output is
deterministic for identical arguments.  ``psi-check`` echoes ``--trials``
and ``--seed``; its verdict is one validation, vacuously true for
``--trials 0``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys
from typing import NamedTuple

__all__ = ["CommandResult", "main", "run"]

SCHEMA = "1"


class CommandResult(NamedTuple):
    status: str  # "ok" or "error"
    payload: object | None
    message: str
    exit_code: int


_DESCRIPTOR = (("descriptor", {}),)

COMMANDS = (
    ("classify", "invariants, geometry, and case of a descriptor", _DESCRIPTOR, "classify"),
    ("admissible", "does the descriptor admit a reversing involution fixing every cone point",
     _DESCRIPTOR, "admissible"),
    ("enumerate", "admissible descriptors in a bounded window", (
        ("--gmax", dict(type=int, required=True, help="largest base genus, 0 to 50")),
        ("--nmax", dict(type=int, required=True, help="largest fiber count, 0 to 100")),
    ), "enumerate"),
    ("mcg", "torus mapping class computations", (
        ("class", "conjugacy class of an involution 'a,b;c,d'", (("matrix", {}),), "mcg_class"),
        ("conjugate", "search for a bounded conjugator", (
            ("matrix_a", {}),
            ("matrix_b", {}),
            ("--bound", dict(type=int, default=5,
                             help="largest |entry| searched, 1 to 32 (default 5)")),
        ), "mcg_conjugate"),
    ), None),
    ("extend", "does a boundary action extend across a filling", (
        ("--slope", dict(required=True, help="filling slope 'm,l'")),
        ("--matrix", dict(required=True, help="boundary action 'a,b;c,d'")),
    ), "extend"),
    ("verify-v221", "verify the V(2,2;-1) involution boundary data", (), "verify_v221"),
    ("surface-classes", "involution classes of a closed surface", (
        ("--genus", dict(type=int, required=True, help="surface genus, 0 to 50")),
        ("--filter", dict(choices=["all", "preserving", "reversing"], default="all")),
    ), "surface_classes"),
    ("census", "reversing involutions up to conjugacy", _DESCRIPTOR, "census"),
    ("lift", "orientable-base double cover of an n1 descriptor", _DESCRIPTOR, "lift"),
    ("psi-check", "refuse an inadmissible descriptor, else run the V(2,2;-1) validator once", (
        *_DESCRIPTOR,
        ("--trials", dict(type=int, default=100, help="0 passes vacuously; any positive count "
                          "runs the validator once (default 100)")),
        ("--seed", dict(type=int, default=0,
                        help="echoed in the output and otherwise unused (default 0)")),
    ), "psi_check"),
)


class _Command:
    """A command as its kept parent parser holds it.  ``add_parser``
    makes one per table row, handing it the row and ``prog``; the prefix of
    that prog is the parent parser's own prog, exactly what
    ``add_subparsers`` would format, since no positional precedes the
    commands.  ``parse_known_args`` is the one method argparse calls on it:
    on every call it builds the command's parser as ``add_parser`` would
    have, ``-h`` included, so usage lines, help and errors keep argparse's
    bytes and option order, adds the command's own arguments and
    ``--json``, or a group's sub-table, and parses.  The parser is not
    kept; the module docstring says why."""

    def __init__(self, row, **keywords):
        self.row, self.keywords = row, keywords

    def parse_known_args(self, args, namespace):
        name, _, arguments, module = self.row
        chosen = argparse.ArgumentParser(**self.keywords)
        if module is None:
            _add_commands(chosen, f"{name}_command", arguments)
        else:
            for flag, keywords in arguments:
                chosen.add_argument(flag, **keywords)
            chosen.add_argument("--json", action="store_true")
            chosen.set_defaults(module=module)
        namespace, extras = chosen.parse_known_args(args, namespace)
        # Before 3.13, argparse reads `--opt=--` as an empty list and skips
        # the option's type and choices; convert the "--" as 3.13 does.
        for action in chosen._actions:
            if action.nargs is None and getattr(namespace, action.dest, None) == []:
                try:
                    value = chosen._get_value(action, "--")
                    chosen._check_value(action, value)
                except argparse.ArgumentError as exc:
                    chosen.error(str(exc))
                setattr(namespace, action.dest, value)
        return namespace, extras


def _add_commands(parser: argparse.ArgumentParser, dest: str, table) -> None:
    sub = parser.add_subparsers(dest=dest, required=True, prog=parser.prog, parser_class=_Command)
    for row in table:
        sub.add_parser(row[0], help=row[1], row=row)


def _finish(args, payload: dict, lines: list[str]) -> CommandResult:
    """The command's result: its text lines joined, or with ``--json`` its
    payload, schema first, as ``json_render.indented`` renders it."""
    payload = {"schema": SCHEMA, **payload}
    if args.json:
        from .json_render import indented

        return CommandResult("ok", payload, indented(payload), 0)
    return CommandResult("ok", payload, "\n".join(lines), 0)


@functools.cache
def _root() -> argparse.ArgumentParser:
    """The top-level parser, built on the first ``run`` and kept."""
    parser = argparse.ArgumentParser(
        prog="seifinv",
        description="Exact invariants, admissibility, and involution census "
        "for orientable Seifert fibered 3-manifolds.",
    )
    _add_commands(parser, "command", COMMANDS)
    return parser


def run(argv: list[str]) -> CommandResult:
    """Dispatch one invocation; never raises for user errors."""
    try:
        args = _root().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        if exc.code == 0:
            return CommandResult("ok", None, "", 0)
        return CommandResult("error", None, "usage error", 2)
    handle = importlib.import_module(f".commands.{args.module}", __package__).handle
    try:
        return _finish(args, *handle(args))
    except ValueError as exc:  # SeifertParseError included
        return CommandResult("error", None, str(exc), 1)


def main(argv: list[str] | None = None) -> None:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.status != "ok":
        print(f"error: {result.message}", file=sys.stderr)
    elif result.message:
        try:
            print(result.message, flush=True)
        except BrokenPipeError:  # the reader stopped early; the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
