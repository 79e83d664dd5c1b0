"""``cli._indented`` writes every ``--json`` payload; it must equal
``json.dumps(payload, indent=2)`` byte for byte.  It is checked on the
payload of every successful ``--json`` golden case and on seeded random
payloads built to reach each of its paths: empty containers, lists of rows
that share their keys (rendered through one template) and lists where one
row differs, keys that need escaping in JSON or in a %-format, and the
scalars JSON distinguishes.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from seifinv import cli

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"

KEYS = [
    "descriptor",
    "case",
    "",
    "%",
    "%s",
    "%%",
    "%(case)s",
    "100%",
    'say "hi"',
    "back\\slash",
    "tab\there",
    "line\nbreak",
    "\x00\x1f\x7f",
    "café",
    "日本",
    "\U0001f600",
    "\ud800",
]
BIG = 7 * (10**5000 - 1) // 9  # 5,000 sevens


@pytest.fixture
def no_digit_limit():
    # json.dumps, like str(), refuses an int past the int/str digit limit
    # where the Python has one; the 5,000-digit ints need it lifted.
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is not None:
        sys.set_int_max_str_digits(0)
    yield
    if previous is not None:
        sys.set_int_max_str_digits(previous)


def scalar(rng):
    return rng.choice(
        [
            lambda: rng.choice(KEYS) + rng.choice(KEYS),
            lambda: rng.randint(-10**6, 10**6),
            lambda: rng.choice([BIG, -BIG, 0, -1]),
            lambda: rng.choice([True, False, None]),
        ]
    )()


def value(rng, depth):
    """A random payload value whose containers nest at most ``depth`` deep."""
    if depth == 0:
        return scalar(rng)
    kind = rng.randrange(5)
    if kind == 0:
        return scalar(rng)
    if kind == 1:
        return {rng.choice(KEYS): value(rng, depth - 1) for _ in range(rng.randrange(4))}
    if kind == 2:
        return [value(rng, depth - 1) for _ in range(rng.randrange(4))]
    return rows(rng, depth)


def rows(rng, depth):
    """A list of dicts sharing their keys, or one where a single row differs."""
    keys = rng.sample(KEYS, rng.randint(1, 4))
    out = [{k: scalar(rng) for k in keys} for _ in range(rng.randint(1, 5))]
    i = rng.randrange(len(out))
    change = rng.randrange(7)
    if change == 1:  # one key fewer
        out[i].pop(keys[-1])
    elif change == 2:  # one key more
        out[i][rng.choice(KEYS)] = scalar(rng)
    elif change == 3:  # the same keys in another order
        out[i] = dict(reversed(out[i].items()))
    elif change == 4:  # a nested value
        out[i][keys[0]] = value(rng, depth - 1)
    elif change == 5:  # a row that is not a dict
        out[i] = value(rng, depth - 1)
    elif change == 6:  # an empty row
        out[i] = {}
    return out


def golden_payloads():
    cases = json.loads(GOLDEN.read_text())
    return [
        json.loads(c["message"]) for c in cases if c["status"] == "ok" and "--json" in c["argv"]
    ]


def test_golden_payloads():
    payloads = golden_payloads()
    assert len(payloads) == 164
    for payload in payloads:
        assert cli._indented(payload) == json.dumps(payload, indent=2)


def test_random_payloads(no_digit_limit):
    rng = random.Random(2101)
    for _ in range(2000):
        payload = value(rng, 4) if rng.randrange(4) else rows(rng, 4)
        assert cli._indented(payload) == json.dumps(payload, indent=2), payload


@pytest.mark.parametrize(
    "payload",
    [{}, [], {"a": {}}, {"a": []}, [[], {}], [{}, {}], [{"%s": 1}, {"%s": 2}], {"%": [{"%%": "%"}]}],
)
def test_edge_payloads(payload):
    assert cli._indented(payload) == json.dumps(payload, indent=2)
