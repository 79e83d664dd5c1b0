"""Exact 2x2 integer matrix algebra for torus mapping classes.

Matrices act on column vectors; the framing convention throughout the
package orders the basis as (fiber class, section class).  Involutions in
GL2(Z) split into four conjugacy classes: +-identity, and for determinant
-1 the class of diag(1,-1) versus the class of the swap matrix [[0,1],[1,0]].
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import _Checked, _require

__all__ = [
    "IDENTITY",
    "IntMatrix2",
    "InvolutionClassLabel",
    "find_conjugator",
    "involution_class",
    "is_involution",
    "mat_det",
    "mat_mul",
]


class _MatrixFields(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class IntMatrix2(_Checked, _MatrixFields):
    """Row-major 2x2 integer matrix: top row (a b), bottom row (c d)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        _require(a, int, "a")
        _require(b, int, "b")
        _require(c, int, "c")
        _require(d, int, "d")
        return super().__new__(cls, a, b, c, d)

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


IDENTITY = IntMatrix2(1, 0, 0, 1)
_MINUS_IDENTITY = IntMatrix2(-1, 0, 0, -1)


class InvolutionClassLabel(Enum):
    IDENTITY = "Identity"
    MINUS_IDENTITY = "MinusIdentity"
    REFL_TYPE = "ReflType"
    ANTI_TYPE = "AntiType"


def mat_det(A: IntMatrix2) -> int:
    _require(A, IntMatrix2, "matrix")
    return A.a * A.d - A.b * A.c


def mat_mul(A: IntMatrix2, B: IntMatrix2) -> IntMatrix2:
    _require(A, IntMatrix2, "matrix")
    _require(B, IntMatrix2, "matrix")
    return IntMatrix2(
        A.a * B.a + A.b * B.c,
        A.a * B.b + A.b * B.d,
        A.c * B.a + A.d * B.c,
        A.c * B.b + A.d * B.d,
    )


def is_involution(A: IntMatrix2) -> bool:
    return mat_mul(A, A) == IDENTITY


def involution_class(A: IntMatrix2) -> InvolutionClassLabel:
    """Conjugacy class of an involution in GL2(Z).

    Determinant -1 involutions are ReflType exactly when A is congruent to
    the identity mod 2, AntiType otherwise; the test suite checks this
    against exhaustive conjugator search on a bounded window.
    """
    if not is_involution(A):
        raise ValueError(f"{A} is not an involution")
    if A == IDENTITY:
        return InvolutionClassLabel.IDENTITY
    if A == _MINUS_IDENTITY:
        return InvolutionClassLabel.MINUS_IDENTITY
    if (A.a - 1) % 2 == 0 and A.b % 2 == 0 and A.c % 2 == 0 and (A.d - 1) % 2 == 0:
        return InvolutionClassLabel.REFL_TYPE
    return InvolutionClassLabel.ANTI_TYPE


# Largest entry bound find_conjugator accepts, twice the largest bound the
# benchmark workloads send.  Its window holds 20,712 matrices, so the cache
# of windows stays bounded too.
MAX_BOUND = 32


@lru_cache(maxsize=None)
def _unimodular_entries(bound: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every (a, b, c, d) with entries in [-bound, bound] and |ad - bc| = 1,
    in lexicographic order.

    The first row (a, b) must be coprime.  For a determinant s = +-1 and
    a != 0, a*d - b*c = s puts c in the residue class -s * b^-1 mod |a|
    and then fixes d = (s + b*c) / a; for a = 0, b = +-1 fixes c = -s*b
    and every d works.
    """
    rng = range(-bound, bound + 1)
    out = []
    for a in rng:
        m = abs(a)
        for b in rng:
            if gcd(a, b) != 1:
                continue
            rows = []
            for s in (1, -1):
                if a == 0:
                    rows += [(-s * b, d) for d in rng]
                    continue
                first = -s * pow(b, -1, m) % m
                for c in range(first - (first + bound) // m * m, bound + 1, m):
                    d = (s + b * c) // a
                    if abs(d) <= bound:
                        rows.append((c, d))
            out += [(a, b, c, d) for c, d in sorted(rows)]
    return tuple(out)


def find_conjugator(A: IntMatrix2, B: IntMatrix2, bound: int) -> IntMatrix2 | None:
    """Search for H in GL2(Z), entries in [-bound, bound], with H A H^{-1} = B.

    Returns the identity immediately when A == B; otherwise scans candidates
    in lexicographic entry order and returns the first hit, or ``None`` when
    the window is exhausted.  Absence within the window is a value, not an
    error.  ``bound`` runs from 1 to ``MAX_BOUND`` (32); any other bound is
    refused with ``ValueError``.
    """
    _require(A, IntMatrix2, "matrix")
    _require(B, IntMatrix2, "matrix")
    if _require(bound, int, "bound") < 1:
        raise ValueError("bound must be a positive integer")
    if bound > MAX_BOUND:
        raise ValueError(f"bound must be at most {MAX_BOUND}, got {bound}")
    if abs(mat_det(A)) != 1 or abs(mat_det(B)) != 1:
        raise ValueError("conjugacy search requires |det| = 1 on both sides")
    if A == B:
        return IDENTITY
    # Entries unpacked once: local names are read faster than the fields.
    a1, b1, c1, d1 = A
    a2, b2, c2, d2 = B
    for a, b, c, d in _unimodular_entries(bound):
        # H A == B H avoids forming the inverse in the inner loop.
        if (
            a * a1 + b * c1 == a2 * a + b2 * c
            and a * b1 + b * d1 == a2 * b + b2 * d
            and c * a1 + d * c1 == c2 * a + d2 * c
            and c * b1 + d * d1 == c2 * b + d2 * d
        ):
            return IntMatrix2(a, b, c, d)
    return None
