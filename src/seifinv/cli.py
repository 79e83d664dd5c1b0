"""Command-line front end: descriptors in, reports out as text or JSON.

``COMMANDS`` is the command table.  A row gives a command's name, its help,
its arguments as ``(flag, add_argument keywords)`` pairs and the module in
``seifinv.commands`` whose ``handle`` runs it; a row whose module is ``None``
is a group, and its arguments are its own table.  Every leaf command also
takes ``--json``.  ``run`` builds argparse's parsers from the table on
each call, so the choice lists, usage lines, help and errors are argparse's
own, but only the parsers on the path of the command being parsed: the
top-level parser names every command, with its help line, and the
subcommand action ``_Commands`` builds the chosen command's parser, with
its ``-h``, then adds its own arguments or a group's sub-table.  A top-level
command builds 2 parsers, an ``mcg`` command 3.  The parsers are not kept
between calls yet: the benchmark runner keeps one sample per request, so
its memory grows with throughput, and a kept tree raised ``query-mix`` peak
RSS by about 40 %, against a 10 % bound (``BENCH_30.json``, ROADMAP items 1
and 2).
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
    ("admissible", "does the descriptor admit a reversing involution", _DESCRIPTOR, "admissible"),
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


class _Commands(argparse._SubParsersAction):
    """A subcommand action that builds the parser of the command being
    parsed, just before it parses.  Until then ``_name_parser_map`` holds
    each command's table row under its name, so argparse's choices stay the
    table's names, in order.  The chosen parser is made as ``add_parser``
    makes it, ``-h`` included, so usage lines, help and errors keep
    argparse's bytes and option order.  Then come the command's own
    arguments and ``--json``, or a group's sub-table."""

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]  # argparse has checked it against the choices
        arguments, module = self._name_parser_map[name]
        chosen = self._name_parser_map[name] = self._parser_class(
            prog=f"{self._prog_prefix} {name}"
        )
        if module is None:
            _add_commands(chosen, f"{name}_command", arguments)
        else:
            for flag, keywords in arguments:
                chosen.add_argument(flag, **keywords)
            chosen.add_argument("--json", action="store_true")
            chosen.set_defaults(module=module)
        super().__call__(parser, namespace, values, option_string)
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


def _add_commands(parser: argparse.ArgumentParser, dest: str, table) -> None:
    sub = parser.add_subparsers(dest=dest, required=True, action=_Commands)
    for name, help, arguments, module in table:
        sub._choices_actions.append(sub._ChoicesPseudoAction(name, (), help))
        sub._name_parser_map[name] = arguments, module


def _finish(args, payload: dict, lines: list[str]) -> CommandResult:
    """The command's result: its text lines joined, or with ``--json`` its
    payload, schema first, as ``json_render.indented`` renders it."""
    payload = {"schema": SCHEMA, **payload}
    if args.json:
        from .json_render import indented

        return CommandResult("ok", payload, indented(payload), 0)
    return CommandResult("ok", payload, "\n".join(lines), 0)


def run(argv: list[str]) -> CommandResult:
    """Dispatch one invocation; never raises for user errors."""
    parser = argparse.ArgumentParser(
        prog="seifinv",
        description="Exact invariants, admissibility, and involution census "
        "for orientable Seifert fibered 3-manifolds.",
    )
    _add_commands(parser, "command", COMMANDS)
    try:
        args = parser.parse_args(argv)
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
