"""Command-line front end: descriptors in, reports out as text or JSON.

``COMMANDS`` is the command table.  A row gives a command's name, its help,
its arguments as ``(flag, add_argument keywords)`` pairs and the module in
``seifinv.commands`` whose ``handle`` runs it; a row whose module is ``None``
is a group, and its arguments are its own table.  Every leaf command also
takes ``--json``.  ``run`` builds the argparse parser from the table on each
call, imports the module of the command it parsed, and ``_finish`` renders
the handler's text lines or, with ``--json``, its payload.  A process thus
compiles the one handler it runs.  ``_indented`` renders each payload as
``json.dumps(payload, indent=2)`` does and hands it every nested value but
lists of rows, which its ``indent`` path writes slowly; ``json`` is
imported only with ``--json``.

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


def _add_commands(parser: argparse.ArgumentParser, dest: str, table) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help, arguments, module in table:
        p = sub.add_parser(name, help=help)
        if module is None:
            _add_commands(p, f"{name}_command", arguments)
            continue
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.add_argument("--json", action="store_true")
        p.set_defaults(module=module)


def _indented(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte.

    ``indent`` switches the stdlib to its pure-Python encoder, too slow for
    the thousands of rows ``enumerate`` and ``census`` write.  So a value of
    a non-empty dict payload that is a str, int, bool or None, or a list of
    dicts all with the first one's keys, in its order, and such values, is
    written here, a list by one %-format of its rows' template repeated;
    everything else goes to ``json.dumps``.
    """
    from itertools import chain
    from json import dumps
    from json.encoder import encode_basestring_ascii as text

    def scalar(v):  # the JSON text of a str, int, bool or None, else None
        if type(v) is str:
            return text(v)
        if v is None or v is True or v is False:
            return "null" if v is None else "true" if v else "false"
        return int.__repr__(v) if type(v) is int else None

    def value(v):  # the JSON text of a value of the payload, one level deep
        if (s := scalar(v)) is not None:
            return s
        keys = type(v) is list and v and type(v[0]) is dict and tuple(v[0])
        if keys and all(type(row) is dict and tuple(row) == keys for row in v):
            cells = tuple(map(scalar, chain.from_iterable(map(dict.values, v))))
            if None not in cells:
                fields = ",\n      ".join([text(k).replace("%", "%%") + ": %s" for k in keys])
                rows = ",\n    ".join(["{\n      " + fields + "\n    }"] * len(v))
                return "[\n    " + rows % cells + "\n  ]"
        return dumps(v, indent=2).replace("\n", "\n  ")

    if type(payload) is not dict or not payload:
        return dumps(payload, indent=2)
    return "{\n  " + ",\n  ".join([text(k) + ": " + value(v) for k, v in payload.items()]) + "\n}"


def _finish(args, payload: dict, lines: list[str]) -> CommandResult:
    """The command's result: its text lines joined, or with ``--json`` its
    payload, schema first, as ``_indented`` renders it."""
    payload = {"schema": SCHEMA, **payload}
    if args.json:
        return CommandResult("ok", payload, _indented(payload), 0)
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
