"""Shared helpers for the test suite: seeded random descriptor generators,
the inverse of a unimodular matrix, the refusal of a matrix with a non-int
entry and the unit tampers of the V(2,2;-1) data."""

from __future__ import annotations

import math
import random

from seifinv import BaseSurface, IntMatrix2, SeifertInvariants, verify_v221_construction


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
