"""The ``seifinv`` commands, one module each, and the parsing they share.

A command module's ``handle`` takes the parsed arguments and returns the
command's JSON payload and its text lines; ``seifinv.cli`` holds the command
table and imports a command's module only when that command runs, so a
process compiles one handler, not eleven.
"""

from __future__ import annotations

import re
import sys

from .. import torus_mcg


def printed(name: str, value) -> str:
    """``str(value)``, refused by ``name`` when an integer in it is longer
    than ``sys.get_int_max_str_digits()`` digits.

    Parsed integers are capped by the parser; this covers the ones the
    program computes from them, such as a normalized obstruction term.
    """
    try:
        return str(value)
    except ValueError:  # only int-to-str conversion past the digit limit raises here
        raise ValueError(
            f"cannot print {name}: integer longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def integer(text: str, message: str) -> int:
    """``int(text)``, refused with ``message``, or by the digit limit if it
    is an integer longer than ``sys.get_int_max_str_digits()`` digits."""
    try:
        return int(text)
    except ValueError:  # text in int()'s grammar converts unless past the limit
        if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):
            raise ValueError(f"integer longer than {sys.get_int_max_str_digits()} digits") from None
        raise ValueError(message) from None


def parse_matrix(text: str) -> torus_mcg.IntMatrix2:
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError(f"matrix must be written 'a,b;c,d', got {text!r}")
    entries = []
    for row in rows:
        cols = row.split(",")
        if len(cols) != 2:
            raise ValueError(f"matrix must be written 'a,b;c,d', got {text!r}")
        for col in cols:
            entries.append(integer(col, f"matrix entry {col.strip()!r} is not an integer"))
    return torus_mcg.IntMatrix2(*entries)
