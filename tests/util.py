"""Shared helpers for the test suite: seeded random descriptor generators and
the unit tampers of the V(2,2;-1) data."""

from __future__ import annotations

import math
import random
from dataclasses import replace

from seifinv import BaseSurface, SeifertInvariants, verify_v221_construction


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


def v221_unit_tampers():
    """Every (inner, outer) V(2,2;-1) candidate with one entry of one of the
    three inner actions or of the outer action moved by +-1: 32 cases."""
    report = verify_v221_construction()
    actions = list(report.matrices) + [report.outer]
    for j, A in enumerate(actions):
        for entry in "abcd":
            for step in (1, -1):
                moved = list(actions)
                moved[j] = replace(A, **{entry: getattr(A, entry) + step})
                yield tuple(moved[:3]), moved[3]
