"""A seeded fuzz of ``cli.run`` over edits of the golden argvs.

Each argv of the stream is one of the 508 golden argvs (477 CLI cases and
31 help and usage cases) with 1-4 random edits of the values a handler
reads: a character inserted, deleted or replaced, the argument repeated or
dropped, or one of its comma-separated fields repeated or dropped.  Every
argv must come back from ``cli.run`` with exit 0, 1 or 2; anything else
out of a handler, a ``TypeError`` say, escapes ``run`` and fails here.  The
same argv must give the same result and the same captured output twice,
and a refusal with exit 1 may not show a Python repr such as ``[]`` or
``None``: an answer may, since a ``--json`` payload can hold an empty
violations list.
"""

import contextlib
import io
import json
import random
import re
from pathlib import Path

from seifinv.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN_ARGVS = [
    rec["argv"]
    for name in ("golden_cli.json", "golden_help.json")
    for rec in json.loads((DATA / name).read_text())
]
# The characters of the golden argvs, and a few that none of them holds.
ALPHABET = sorted({c for argv in GOLDEN_ARGVS for arg in argv for c in arg} | set(" =_+.x"))
EDITS = ("insert", "delete", "replace", "repeat", "drop", "repeat field", "drop field")
# What argparse alone reads, command words, choices and bare options, is
# left as it is: a misspelling there is a usage error before any handler
# runs.  An argv with nothing else gets a new argument instead.
ARGPARSE_ONLY = re.compile(r"[a-z][a-z0-9-]*|-[^=]*")
ARGVS = 600


def _edit(rng: random.Random, argv: list[str]) -> list[str]:
    values = [i for i, arg in enumerate(argv) if not ARGPARSE_ONLY.fullmatch(arg)]
    if not values:
        return [*argv, rng.choice(ALPHABET)]
    argv = list(argv)
    i = rng.choice(values)
    arg, kind = argv[i], rng.choice(EDITS)
    if kind == "repeat":
        argv.insert(i, arg)
    elif kind == "drop":
        del argv[i]
    elif kind.endswith("field"):
        fields = arg.split(",")
        f = rng.randrange(len(fields))
        fields[f : f + 1] = [fields[f]] * (2 if kind == "repeat field" else 0)
        argv[i] = ",".join(fields)
    else:
        j = rng.randrange(len(arg) + 1)
        new = "" if kind == "delete" else rng.choice(ALPHABET)
        argv[i] = arg[:j] + new + arg[j + (kind != "insert") :]
    return argv


def _stream():
    rng = random.Random(1)
    for n in range(ARGVS):
        argv = GOLDEN_ARGVS[n % len(GOLDEN_ARGVS)]
        for _ in range(rng.randint(1, 4)):
            argv = _edit(rng, argv)
        yield argv


def _captured(argv: list[str]):
    """``run(argv)`` with what it wrote to stdout and stderr, or the
    exception that escaped it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = run(argv)
        except Exception as exc:  # an escape is what the test looks for
            return f"escaped: {exc!r}", out.getvalue(), err.getvalue()
    return result, out.getvalue(), err.getvalue()


def test_every_edited_argv_answers_or_refuses_the_same_twice():
    assert len(GOLDEN_ARGVS) == 508
    faults, exits = [], set()
    for argv in _stream():
        first = _captured(argv)
        result = first[0]
        if isinstance(result, str) or result.exit_code not in (0, 1, 2):
            faults.append((argv, result))
            continue
        exits.add(result.exit_code)
        if _captured(argv) != first:
            faults.append((argv, "a second run differs"))
        elif result.exit_code == 1 and ("[]" in result.message or "None" in result.message):
            faults.append((argv, result.message))
    assert faults == []
    # The stream reaches answers, refusals and usage errors alike.
    assert exits == {0, 1, 2}
