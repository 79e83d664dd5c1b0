"""Golden outputs of all eleven CLI commands, and of the descriptor parser.

Every case is replayed through ``cli.run`` and must reproduce the recorded
status, exit code and message byte for byte, in text and ``--json`` modes,
including the parse and domain errors.  argparse's own output (the help of
every parser and one usage error per command) is replayed through
``cli.main`` and must reproduce stdout, stderr and the exit code byte for
byte, at 80 columns.  argparse's layout differs between Python minor
versions: the file was recorded with Python 3.11, Python 3.10 and 3.12
reproduce it too, and Python 3.13 differs in 7 of its 31 cases.
``parse_seifert`` is replayed on seeded malformed and edge-case texts and
must reproduce each parsed descriptor, or each refusal with its position.
``TestKeptRoot`` replays the CLI and help cases again in shuffled orders
and from threads, against the top-level parser a process keeps.
The expected data in ``data/golden_cli.json``, ``data/golden_help.json``
and ``data/golden_parse.json`` is regenerated with::

    PYTHONPATH=src python tests/test_golden.py --write

and replayed without pytest, printing each mismatch, with ``--check``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import sys
import threading
from pathlib import Path

from util import NEEDS_DIGIT_LIMIT, digit_limit

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"
HELP_GOLDEN = GOLDEN.with_name("golden_help.json")
PARSE_GOLDEN = GOLDEN.with_name("golden_parse.json")

_DESCRIPTORS = [
    # one per case label
    "(0,o1|)",
    "(0,o1|(2,1),(2,1),(1,-1))",
    "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))",
    "(1,o1|)",
    "(2,o1|)",
    "(3,o1|(2,1),(2,1),(1,-1))",
    "(1,o1|(2,1),(2,1),(1,-1))",
    "(0,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-3))",
    # unnormalized p and stray q = 1 pairs
    "(0,o1|(2,3),(2,-1),(1,-1))",
    "(1,o1|(1,2),(2,1),(1,-3),(2,1))",
    "(0,o1|(2,5),(1,4),(2,-7),(1,-3))",
    "(4,o1|(1,0))",
    "(0,o1|(1,3))",
    " ( 0 , o1 | ( 2 , 1 ) , ( 2 , 1 ) , ( 1 , -1 ) ) ",
    # orders 3/5/7 and every violation tag
    "(0,o1|(3,1),(5,2),(7,-3))",
    "(2,o1|(3,1),(3,2),(1,-1))",
    "(0,o1|(2,1),(3,1),(1,-1))",
    "(0,o1|(2,1))",
    "(0,o1|(2,1),(2,1))",
    "(0,o1|(2,1),(2,1),(2,1),(1,-2))",
    # non-orientable bases
    "(1,n1|(2,1),(2,1),(1,-1))",
    "(2,n1|)",
    "(3,n1|(3,1),(5,-2))",
    # parse errors
    "(0,o1|(2,2))",
    "(0,x1|)",
    "(0,n1|)",
    "(-1,o1|)",
    "(0,o1|(0,1))",
    "(0,o1|(2,1)",
    "(0,o1|) x",
    "",
    "(0,o1|(2,1),)",
    "(a,o1|)",
]

_LIFT_DESCRIPTORS = [
    "(1,n1|)",
    "(1,n1|(2,1),(2,1),(1,-1))",
    "(2,n1|(2,1),(1,-1))",
    "(3,n1|(3,1),(5,-2))",
    "(2,n1|(2,3),(1,1),(2,-1))",
    "(1,n1|(2,1),(1,0))",
    "(0,o1|)",
    "(1,n1|(2,4))",
]

_WINDOWS = [(0, 0), (0, 1), (2, 5), (3, 8), (8, 30)]

_FLAT = "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))"

_PSI_DESCRIPTORS = [
    "(0,o1|)",
    "(0,o1|(2,1),(2,1),(1,-1))",
    _FLAT,
    "(0,o1|(2,3),(2,-1),(1,-1))",
    "(1,o1|(2,1),(2,1),(1,-1))",
    "(0,o1|" + "(2,1)," * 8 + "(1,-4))",
    "(2,o1|" + "(2,1)," * 40 + "(1,-20))",
    # inadmissible, non-orientable and malformed
    "(0,o1|(3,1),(3,1),(3,1),(1,-1))",
    "(0,o1|(2,1),(2,1))",
    "(1,n1|(2,1),(2,1),(1,-1))",
    "(0,o1|(2,2))",
]

_CENSUS_DESCRIPTORS = [
    "(0,o1|(2,1),(2,1),(1,-1))",
    _FLAT,
    "(0,o1|(2,3),(2,-1),(1,-1))",
    "(0,o1|(2,1),(1,2),(2,-1),(2,1),(2,1),(1,-4))",
    # refused: outside the case analysis, inadmissible, malformed
    "(0,o1|)",
    "(1,o1|(2,1),(2,1),(1,-1))",
    "(0,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-3))",
    "(0,o1|(3,1),(3,1),(3,1),(1,-1))",
    "(1,n1|(2,1),(2,1),(1,-1))",
    "(0,o1|(2,1)",
]

_EXTEND_CASES = [
    ("1,2", "1,-1;0,-1"),
    ("1,2", "-1,1;0,1"),
    ("1,2", "1,0;0,1"),
    ("-1,1", "-1,-2;0,1"),
    ("-1,1", "1,2;0,-1"),
    ("-1,1", "1,-2;0,-1"),
    ("3,1", "1,-6;0,-1"),
    ("0,1", "1,0;0,-1"),
    ("-7,1", "0,1;1,0"),
    # unsupported or malformed slopes and matrices
    ("2,3", "1,0;0,1"),
    ("1,0", "1,0;0,1"),
    ("0,0", "1,0;0,1"),
    ("2,4", "1,0;0,1"),
    ("1", "1,0;0,1"),
    ("a,1", "1,0;0,1"),
    ("1,2", "1,0"),
    ("1,2", "1,x;0,1"),
]

_MCG_MATRICES = [
    "1,0;0,1",
    "-1,0;0,-1",
    "1,0;0,-1",
    "-1,0;0,1",
    "0,1;1,0",
    "1,2;0,-1",
    "1,1;0,-1",
    "3,-4;2,-3",
    # not involutions, or malformed
    "1,1;0,1",
    "2,0;0,1",
    "1,0;0",
    "1,0;0,y",
]

_CONJUGATE_CASES = [
    ("1,0;0,-1", "1,0;0,-1", None),
    ("1,0;0,-1", "1,2;0,-1", None),
    ("1,0;0,-1", "-1,0;0,1", "1"),
    ("1,0;0,-1", "0,1;1,0", "3"),
    ("0,1;1,0", "1,1;0,-1", "2"),
    ("0,1;1,0", "3,-4;2,-3", None),
    ("2,1;1,1", "1,1;1,2", "4"),
    ("1,1;0,1", "1,0;1,1", "1"),
    # refused: bound, determinant, malformed
    ("1,0;0,-1", "0,1;1,0", "0"),
    ("2,0;0,1", "1,0;0,1", None),
    ("1,0;0,-1", "1,0;0", None),
]


def _psi_cases() -> list[list[str]]:
    cases: list[list[str]] = []
    for d in _PSI_DESCRIPTORS:
        for extra in ([], ["--trials", "0"], ["--trials", "1", "--seed", "3"]):
            argv = ["psi-check", d, *extra]
            cases += [argv, argv + ["--json"]]
    for seed in (["--seed", "0"], ["--seed", "7"], ["--seed", "12345"], ["--seed=-4"]):
        for trials in ("0", "1", "17", "100"):
            argv = ["psi-check", _FLAT, "--trials", trials, *seed]
            cases += [argv, argv + ["--json"]]
    cases += [
        ["psi-check", _FLAT, "--trials=-5"],
        ["psi-check", _FLAT, "--trials=-1", "--json"],
        ["psi-check", "(0,o1|(2,2))", "--trials=-1"],
        ["psi-check", _FLAT, "--trials", "x"],
        ["psi-check", _FLAT, "--seed", "1.5"],
        ["psi-check"],
    ]
    return cases


def _positional(*matrices: str) -> list[str]:
    """Matrices as positional arguments; ``--`` lets a leading ``-`` through."""
    return (["--"] if any(m.startswith("-") for m in matrices) else []) + list(matrices)


def _more_commands() -> list[list[str]]:
    cases = _psi_cases()
    for d in _CENSUS_DESCRIPTORS:
        cases += [["census", d], ["census", d, "--json"]]
    for slope, matrix in _EXTEND_CASES:
        argv = ["extend", f"--slope={slope}", f"--matrix={matrix}"]
        cases += [argv, argv + ["--json"]]
    cases += [
        ["extend", "--slope", "-1,1", "--matrix", "1,2;0,-1"],
        ["extend", "--slope", "1,2"],
        ["extend", "--matrix", "1,0;0,1", "--json"],
    ]
    cases += [["verify-v221"], ["verify-v221", "--json"], ["verify-v221", "extra"]]
    for g in range(5):
        for filt in (None, "all", "preserving", "reversing"):
            argv = ["surface-classes", "--genus", str(g)] + (["--filter", filt] if filt else [])
            cases += [argv, argv + ["--json"]]
    cases += [
        ["surface-classes", "--genus=-1"],
        ["surface-classes", "--genus=-1", "--json"],
        ["surface-classes", "--genus", "2", "--filter", "odd"],
        ["surface-classes"],
    ]
    for A in _MCG_MATRICES:
        cases += [["mcg", "class", *_positional(A)], ["mcg", "class", "--json", *_positional(A)]]
    for A, B, bound in _CONJUGATE_CASES:
        argv = ["mcg", "conjugate"] + (["--bound", bound] if bound else [])
        cases += [argv + _positional(A, B), argv + ["--json"] + _positional(A, B)]
    cases += [
        ["mcg", "class", "-1,0;0,1"],
        ["mcg"],
        ["mcg", "class"],
        ["mcg", "conjugate", "1,0;0,1"],
        ["mcg", "rotate", "1,0;0,1"],
    ]
    return cases


def _random_descriptor(rng: random.Random, n: int) -> str:
    """``n`` exceptional fibers with stray q = 1 pairs and unnormalized p;
    about half are made admissible by choosing the obstruction term."""
    base = rng.choice(("o1", "o1", "o1", "n1"))
    genus = rng.randint(1 if base == "n1" else 0, 6)
    admissible = rng.random() < 0.5
    orders = (2,) if admissible else (2, 2, 2, 3, 5, 7)
    pairs, b = [], 0
    for _ in range(n):
        q = rng.choice(orders)
        while True:
            p = rng.randint(-3 * q, 3 * q)
            if p % q and math.gcd(p, q) == 1:
                break
        pairs.append((q, p))
        b -= p // q  # running normalized obstruction offset
        if rng.random() < 0.1:
            x = rng.randint(-4, 4)
            pairs.append((1, x))
            b -= x
    twos = sum(1 for q, _ in pairs if q == 2)
    if admissible and twos % 2:
        pairs.append((2, 1))
        twos += 1
    last = b - twos // 2 if admissible else rng.randint(-n, n)
    items = [f"({q},{p})" for q, p in pairs] + [f"(1,{last})"]
    return f"({genus},{base}|{','.join(items)})"


def _cases() -> list[list[str]]:
    rng = random.Random(20261018)
    descriptors = _DESCRIPTORS + [
        _random_descriptor(rng, n) for n in (0, 1, 2, 3, 4, 5, 6, 8, 11, 16, 50, 120, 400)
    ]
    cases: list[list[str]] = []
    for cmd in ("classify", "admissible"):
        for d in descriptors:
            cases += [[cmd, d], [cmd, d, "--json"]]
        cases += [[cmd], [cmd, "--json"]]
    for d in _LIFT_DESCRIPTORS:
        cases += [["lift", d], ["lift", d, "--json"]]
    for g, n in _WINDOWS:
        argv = ["enumerate", "--gmax", str(g), "--nmax", str(n)]
        cases += [argv, argv + ["--json"]]
    cases += [
        ["enumerate", "--gmax", "-1", "--nmax", "2"],
        ["enumerate", "--gmax", "1", "--nmax", "-2", "--json"],
        ["enumerate", "--gmax", "x", "--nmax", "2"],
        ["enumerate", "--gmax", "1"],
    ]
    return cases + _more_commands()


def _record(argv: list[str]) -> dict:
    from seifinv.cli import run

    result = run(argv)
    return {
        "argv": argv,
        "status": result.status,
        "exit_code": result.exit_code,
        "message": result.message,
    }


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


_HELP_COMMANDS = [
    [],
    ["classify"],
    ["admissible"],
    ["enumerate"],
    ["mcg"],
    ["mcg", "class"],
    ["mcg", "conjugate"],
    ["extend"],
    ["verify-v221"],
    ["surface-classes"],
    ["census"],
    ["lift"],
    ["psi-check"],
]

# At least one usage error per parser, of every kind argparse reports here:
# a missing argument, an unknown choice, a bad integer, an extra argument.
_USAGE_ERRORS = [
    [],
    ["bogus"],
    ["--json"],
    ["classify"],
    ["admissible", "(0,o1|)", "--bogus"],
    ["enumerate", "--gmax", "x", "--nmax", "2"],
    ["mcg"],
    ["mcg", "rotate"],
    ["mcg", "class"],
    ["mcg", "conjugate", "1,0;0,1"],
    ["mcg", "conjugate", "1,0;0,1", "1,0;0,1", "--bound", "1.5"],
    ["extend", "--slope", "1,2"],
    ["verify-v221", "extra"],
    ["surface-classes", "--genus", "2", "--filter", "odd"],
    ["census"],
    ["lift", "(2,n1|)", "(1,n1|)"],
    ["psi-check", "(0,o1|)", "--trials", "x"],
]


def _help_cases() -> list[list[str]]:
    helps = [cmd + ["--help"] for cmd in _HELP_COMMANDS] + [["mcg", "class", "-h"]]
    return helps + _USAGE_ERRORS


def _record_main(argv: list[str]) -> dict:
    from seifinv.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# The least int/str digit limit Python accepts; the parse cases are recorded
# and replayed under it, so an integer at the limit is 640 digits long.
_PARSE_DIGIT_LIMIT = 640

# Characters a one-character edit may insert or substitute: the grammar's
# own, a letter, an Arabic-Indic digit (which \d and int accept) and ASCII
# and Unicode whitespace.
_EDIT_ALPHABET = "()|,-0123456789onx \t\u00a0\u2003\x1c\u0663"

_UNICODE_SPACES = ("\u00a0", "\u2003", "\x1c")


def _edited(rng: random.Random, text: str) -> str:
    """``text`` after one to three seeded one-character edits: each deletes,
    replaces or inserts a character at a random position."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        op = rng.choice(("delete", "replace", "insert")) if at < len(text) else "insert"
        char = rng.choice(_EDIT_ALPHABET)
        if op == "delete":
            text = text[:at] + text[at + 1 :]
        elif op == "replace":
            text = text[:at] + char + text[at + 1 :]
        else:
            text = text[:at] + char + text[at:]
    return text


def _spaced(rng: random.Random, text: str) -> str:
    """``text`` with a run of seeded whitespace, Unicode spaces included,
    before or after each character at random."""
    spaces = _UNICODE_SPACES + (" ", "\t")
    out = []
    for char in text:
        out.append(char)
        if rng.random() < 0.5:
            out.append("".join(rng.choice(spaces) for _ in range(rng.randint(1, 2))))
    return "".join(out)


# Refusals whose order matters: a domain check on a token read before a
# missing one, and a missing token after a valid head or pair.
_PARSE_EDGES = [
    "(-1 x",
    "(-1,n1|",
    "(0,n1 x",
    "(-0,o1|)",
    "(0,o1|(-2,1) x",
    "(0,o1|(0,1),(2,",
    "(0,o1|(4,2)",
    "(0,o1|(2,1)(2,1))",
    "(0,o1|(2,1),,(2,1))",
    "(0,o1|(2,1),)",
    "(0,o1|) \u2003",
    "(0,o1|)\u2003x",
    "\u00a0",
]


# Descriptors whose integer slots are filled at and one past the digit limit.
_LONG_INTEGER_TEMPLATES = [
    "({},o1|)",
    "(0,o1|({},1))",
    "(0,o1|(2,{}))",
    "(0,o1|(2,-{}))",
    "(1,n1|(3,1),( {} ,1),(1,-1))",
    "(0,o1|(2,{}),(2,1)",
    "(0,o1|(2,{})",
    "(0,o1|(2,{}] x",
    "(0,o1|(-{},x))",
    "(0,o1|({},{})",
]


def _parse_cases() -> list[str]:
    """About 2,000 seeded parser inputs: edge cases, edits of valid
    descriptors, Unicode whitespace, and integers at and one past the digit
    limit."""
    rng = random.Random(20261019)
    valid = _DESCRIPTORS[: _DESCRIPTORS.index("(0,o1|(2,2))")]  # the parse errors follow
    valid += [_random_descriptor(rng, n) for n in (0, 1, 2, 3, 4, 6, 9)]
    texts = _PARSE_EDGES + [_edited(rng, rng.choice(valid)) for _ in range(1700)]
    spaced = [_spaced(rng, rng.choice(valid)) for _ in range(60)]
    texts += spaced + [_edited(rng, rng.choice(spaced)) for _ in range(140)]
    for digits in (_PARSE_DIGIT_LIMIT, _PARSE_DIGIT_LIMIT + 1):
        big = "9" * digits
        for template in _LONG_INTEGER_TEMPLATES:
            text = template.format(big, big)
            texts += [text] + [_edited(rng, text) for _ in range(4)]
    return list(dict.fromkeys(texts))


_PARSE_REFUSALS = [
    "expected '('",
    "expected an integer",
    "expected ','",
    "expected base 'o1' or 'n1'",
    "expected '|'",
    "expected ')'",
    "unexpected trailing text",
    "genus must be non-negative",
    "non-orientable base surface needs genus >= 1",
    "fiber order must be positive in",
    "non-coprime pair",
    f"integer longer than {_PARSE_DIGIT_LIMIT} digits",
]


def _record_parse(text: str) -> dict:
    from seifinv import SeifertParseError, parse_seifert, print_seifert

    try:
        return {"text": text, "parsed": print_seifert(parse_seifert(text))}
    except SeifertParseError as exc:
        return {"text": text, "error": str(exc), "position": exc.position}


def test_golden_covers_every_case():
    assert [rec["argv"] for rec in _load()] == _cases()


def test_outputs_match_golden():
    mismatched = [rec["argv"] for rec in _load() if _record(rec["argv"]) != rec]
    assert mismatched == []


def test_help_golden_covers_every_case():
    assert [rec["argv"] for rec in json.loads(HELP_GOLDEN.read_text())] == _help_cases()


def test_help_and_usage_match_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    mismatched = [
        rec["argv"] for rec in json.loads(HELP_GOLDEN.read_text()) if _record_main(rec["argv"]) != rec
    ]
    assert mismatched == []


def test_parse_golden_covers_every_case():
    assert [rec["text"] for rec in json.loads(PARSE_GOLDEN.read_text())] == _parse_cases()


@NEEDS_DIGIT_LIMIT
def test_parses_match_golden():
    with digit_limit(_PARSE_DIGIT_LIMIT):
        records = json.loads(PARSE_GOLDEN.read_text())
        mismatched = [rec["text"] for rec in records if _record_parse(rec["text"]) != rec]
    assert mismatched == []
    # Valid parses and every refusal the parser makes occur among the cases.
    outcomes = {re.sub(r" \(.*", "", rec.get("error", "parsed")) for rec in records}
    assert outcomes == {"parsed", *_PARSE_REFUSALS}


def test_strict_pair_pattern_matches_where_the_reader_reads_a_whole_pair():
    """At every position of every parse case, the one-match pair pattern
    matches exactly where the pair reader reads all five tokens, and both
    read the same tokens at the same places."""
    from seifinv.invariants import _PAIR_RE, _PAIR_READER

    whole = 0
    for text in _parse_cases():
        for pos in range(len(text) + 1):
            strict, read = _PAIR_RE.match(text, pos), _PAIR_READER.match(text, pos)
            assert (strict is not None) == (read.lastindex == 5), (text, pos)
            if strict is not None:
                whole += 1
                assert [strict.span(k) for k in range(1, 6)] == [read.span(k) for k in range(1, 6)]
    assert whole > 1000


def test_golden_exercises_every_outcome():
    records = _load()
    assert {rec["exit_code"] for rec in records} == {0, 1, 2}
    tags = " ".join(rec["message"] for rec in records)
    for tag in ("NonzeroEuler", "OrderGreaterThanTwo", "OddCount", "WrongBTerm"):
        assert tag in tags
    for case in ("1a", "1b", "2a", "2b", "3a", "3b", "3c"):
        assert f"case={case}" in tags


# One `--opt=--` argv per option.  Before 3.13, argparse reads the value as
# an empty list, and the command's parser converts it as 3.13 does.
_OPT_DASH = [
    ["enumerate", "--gmax=--", "--nmax", "2"],
    ["enumerate", "--gmax", "1", "--nmax=--"],
    ["mcg", "conjugate", "0,1;1,0", "1,0;0,-1", "--bound=--"],
    ["extend", "--slope=--", "--matrix", "1,0;0,1"],
    ["extend", "--slope", "1,2", "--matrix=--"],
    ["surface-classes", "--genus=--"],
    ["surface-classes", "--genus", "1", "--filter=--"],
    ["psi-check", _FLAT, "--trials=--"],
    ["psi-check", _FLAT, "--seed=--"],
]


def _first_run() -> None:
    """Drop the kept top-level parser: the next run is the process's first."""
    from seifinv import cli

    cli._root.cache_clear()


class TestKeptRoot:
    """A process builds the top-level parser on its first run and keeps it.
    No request may leave a trace in it that another one sees: the golden
    cases replay in any order, between ``--help``, usage errors and
    ``--opt=--`` argvs, help follows the terminal width of its own request,
    and threads replay the goldens at once."""

    def test_any_order_replays_the_goldens(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cases = [(_record, rec) for rec in _load()]
        cases += [(_record_main, rec) for rec in json.loads(HELP_GOLDEN.read_text())]
        for argv in _OPT_DASH:  # no golden: what the first run of a process gives
            _first_run()
            cases.append((_record_main, _record_main(argv)))
        mismatched = []
        for seed in (1, 2, 3):
            _first_run()
            for record, rec in random.Random(seed).sample(cases, len(cases)):
                if record(rec["argv"]) != rec:
                    mismatched.append((seed, rec["argv"]))
        assert mismatched == []

    def test_help_follows_the_width_of_its_request(self, monkeypatch):
        helps = (["--help"], ["classify", "--help"])
        monkeypatch.setenv("COLUMNS", "80")
        _first_run()
        at_80 = [_record_main(argv) for argv in helps]  # the parser is built at 80 columns
        monkeypatch.setenv("COLUMNS", "120")
        kept = [_record_main(argv) for argv in helps]
        _first_run()
        assert kept == [_record_main(argv) for argv in helps]
        assert kept[0] != at_80[0]  # the description wraps at 80 columns, not at 120

    def test_threads_replay_the_goldens_at_once(self):
        records = _load()
        mismatched = {}

        def replay(seed):
            shuffled = random.Random(seed).sample(records, len(records))
            mismatched[seed] = [rec["argv"] for rec in shuffled if _record(rec["argv"]) != rec]

        _first_run()
        threads = [threading.Thread(target=replay, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatched == dict.fromkeys(range(4), [])


def _check() -> int:
    """Replay the three golden files as the tests do, print each case whose
    record differs, expected then actual, and return the number of them."""
    usage_errors = contextlib.redirect_stderr(io.StringIO())  # argparse writes them there
    replays = [(GOLDEN, "argv", _record, usage_errors),
               (HELP_GOLDEN, "argv", _record_main, contextlib.nullcontext())]
    if hasattr(sys, "set_int_max_str_digits"):
        replays.append((PARSE_GOLDEN, "text", _record_parse, digit_limit(_PARSE_DIGIT_LIMIT)))
    else:
        print(f"{PARSE_GOLDEN.name}: skipped, this Python has no int/str digit limit")
    mismatched = 0
    for path, key, record, limit in replays:
        records = json.loads(path.read_text())
        with limit:
            misses = [(rec, got) for rec in records if (got := record(rec[key])) != rec]
        for rec, got in misses:
            print(f"{path.name}: {rec[key]!r}")
            print(f"  expected: {json.dumps(rec)}")
            print(f"  actual:   {json.dumps(got)}")
        print(f"{path.name}: {len(misses)} of {len(records)} cases differ")
        mismatched += len(misses)
    return mismatched


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write | --check")
    os.environ["COLUMNS"] = "80"
    if sys.argv[1] == "--check":
        sys.exit(1 if _check() else 0)
    GOLDEN.write_text(json.dumps([_record(a) for a in _cases()], indent=1) + "\n")
    HELP_GOLDEN.write_text(json.dumps([_record_main(a) for a in _help_cases()], indent=1) + "\n")
    with digit_limit(_PARSE_DIGIT_LIMIT):
        PARSE_GOLDEN.write_text(
            json.dumps([_record_parse(t) for t in _parse_cases()], indent=1) + "\n"
        )
