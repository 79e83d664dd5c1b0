"""Shared helpers for the test suite: a descriptor from its fields, seeded
random descriptor generators, the inverse of a unimodular matrix and the
pair {A, -A}, the refusal of a matrix with a non-int entry, the unit
tampers of the V(2,2;-1) data, a set int/str digit limit and the
environment of a fresh interpreter."""

from __future__ import annotations

import contextlib
import math
import os
import random
import sys
from pathlib import Path

import pytest

from seifinv import BaseSurface, IntMatrix2, SeifertInvariants, verify_v221_construction


def M(genus, pairs=(), b=0, orientable=True) -> SeifertInvariants:
    return SeifertInvariants(BaseSurface(genus, orientable), tuple(pairs), b)


def coprime_pair(rng: random.Random, q_max: int = 9, p_span: int = 12) -> tuple[int, int]:
    q = rng.randint(1, q_max)
    while True:
        p = rng.randint(-p_span, p_span)
        if math.gcd(p, q) == 1:
            return (q, p)


def random_descriptor(rng: random.Random, orientable: bool | None = None) -> SeifertInvariants:
    if orientable is None:
        orientable = rng.random() < 0.8
    genus = rng.randint(0, 8) if orientable else rng.randint(1, 8)
    pairs = tuple(coprime_pair(rng) for _ in range(rng.randint(0, 5)))
    return SeifertInvariants(BaseSurface(genus, orientable), pairs, rng.randint(-6, 6))


def inverse(A: IntMatrix2) -> IntMatrix2:
    """adj(A) / det(A), for a matrix of determinant +-1."""
    det = A.a * A.d - A.b * A.c
    assert det in (1, -1), A
    return IntMatrix2(A.d * det, -A.b * det, -A.c * det, A.a * det)


def pm(A: IntMatrix2) -> frozenset[IntMatrix2]:
    return frozenset({A, IntMatrix2(-A.a, -A.b, -A.c, -A.d)})


def entry_refusal(entries) -> str:
    """What ``IntMatrix2(*entries)`` refuses with: its first non-int entry."""
    name, value = next((n, v) for n, v in zip("abcd", entries) if type(v) is not int)
    return f"{name} must be an integer, got {value!r}"


def v221_unit_tampers():
    """Every (inner, outer) V(2,2;-1) candidate with one entry of one of the
    three inner actions or of the outer action moved by +-1: 32 cases."""
    report = verify_v221_construction()
    actions = list(report.matrices) + [report.outer]
    for j, A in enumerate(actions):
        for entry in "abcd":
            for step in (1, -1):
                moved = list(actions)
                moved[j] = A._replace(**{entry: getattr(A, entry) + step})
                yield tuple(moved[:3]), moved[3]


NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int/str digit limit"
)


@contextlib.contextmanager
def digit_limit(limit: int):
    """Python's int/str digit limit set to ``limit``, restored afterwards."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield limit
    finally:
        sys.set_int_max_str_digits(previous)


def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's
    package: its ``src`` first, then the caller's PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
