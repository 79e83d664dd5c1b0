"""Exact 2x2 integer matrix algebra for torus mapping classes.

Matrices act on column vectors; the framing convention throughout the
package orders the basis as (fiber class, section class).  Involutions in
GL2(Z) split into four conjugacy classes: +-identity, and for determinant
-1 the class of diag(1,-1) versus the class of the swap matrix [[0,1],[1,0]].
"""

from __future__ import annotations

from enum import Enum
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
# benchmark workloads send.  The search walks the (2*bound + 1)**2 first rows
# of the box, so this caps each call at 4,225 rows.
MAX_BOUND = 32


def find_conjugator(A: IntMatrix2, B: IntMatrix2, bound: int) -> IntMatrix2 | None:
    """Search for H in GL2(Z), entries in [-bound, bound], with H A H^{-1} = B.

    Returns the identity immediately when A == B, and ``None`` when A and B
    differ in trace or determinant, or A = +-I, since conjugates share both
    and a scalar is conjugate only to itself.  Otherwise walks the first row
    (a, b) of H in lexicographic order: the first row of H A = B H reads
    b2 * (c, d) = (a, b)(A - a2 I), which fixes (c, d) when b2 != 0 and
    otherwise asks (a, b)(A - a2 I) = 0 of a coprime (a, b), whose (c, d)
    are then tried in order.  So the first hit is the first H of the box in
    lexicographic entry order; ``None`` when there is none is a value, not
    an error.  ``bound`` runs from 1 to ``MAX_BOUND`` (32); any other bound
    is refused with ``ValueError``.
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
    a1, b1, c1, d1 = A
    a2, b2, c2, d2 = B
    if a1 + d1 != a2 + d2 or mat_det(A) != mat_det(B) or A in (IDENTITY, _MINUS_IDENTITY):
        return None
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            x, y = a * (a1 - a2) + b * c1, a * b1 + b * (d1 - a2)
            if b2:
                if x % b2 or y % b2:
                    continue
                rows = ((x // b2, y // b2),)
            elif x or y or gcd(a, b) != 1:
                continue
            else:
                rows = ((c, d) for c in rng for d in rng)
            for c, d in rows:
                # The second row of H A = B H: (c, d)(A - d2 I) = c2 * (a, b).
                if (
                    abs(c) <= bound
                    and abs(d) <= bound
                    and abs(a * d - b * c) == 1
                    and c * (a1 - d2) + d * c1 == c2 * a
                    and c * b1 + d * (d1 - d2) == c2 * b
                ):
                    return IntMatrix2(a, b, c, d)
    return None
