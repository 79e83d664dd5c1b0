"""Exact 2x2 integer matrix algebra for torus mapping classes.

Matrices act on column vectors; the framing convention throughout the
package orders the basis as (fiber class, section class).  Involutions in
GL2(Z) split into four conjugacy classes: +-identity, and for determinant
-1 the class of diag(1,-1) versus the class of the swap matrix [[0,1],[1,0]].
The determinant/trace/mod-2 classifier is validated exhaustively against a
brute-force conjugator search (see the test suite) rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

__all__ = [
    "IDENTITY",
    "IntMatrix2",
    "InvolutionClassLabel",
    "conjugate",
    "find_conjugator",
    "involution_class",
    "is_involution",
    "mat_det",
    "mat_inv",
    "mat_mul",
]


@dataclass(frozen=True)
class IntMatrix2:
    """Row-major 2x2 integer matrix: top row (a b), bottom row (c d)."""

    a: int
    b: int
    c: int
    d: int

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
    return A.a * A.d - A.b * A.c


def mat_mul(A: IntMatrix2, B: IntMatrix2) -> IntMatrix2:
    return IntMatrix2(
        A.a * B.a + A.b * B.c,
        A.a * B.b + A.b * B.d,
        A.c * B.a + A.d * B.c,
        A.c * B.b + A.d * B.d,
    )


def mat_inv(A: IntMatrix2) -> IntMatrix2:
    det = mat_det(A)
    if det == 1:
        return IntMatrix2(A.d, -A.b, -A.c, A.a)
    if det == -1:
        return IntMatrix2(-A.d, A.b, A.c, -A.a)
    raise ValueError(f"matrix {A} is not invertible over the integers (det {det})")


def conjugate(H: IntMatrix2, A: IntMatrix2) -> IntMatrix2:
    """H A H^{-1}; requires |det H| = 1."""
    return mat_mul(mat_mul(H, A), mat_inv(H))


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


@lru_cache(maxsize=None)
def _unimodular_entries(bound: int) -> tuple[tuple[int, int, int, int], ...]:
    rng = range(-bound, bound + 1)
    out = []
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if abs(a * d - b * c) == 1:
                        out.append((a, b, c, d))
    return tuple(out)


def find_conjugator(A: IntMatrix2, B: IntMatrix2, bound: int) -> IntMatrix2 | None:
    """Search for H in GL2(Z), entries in [-bound, bound], with H A H^{-1} = B.

    Returns the identity immediately when A == B; otherwise scans candidates
    in lexicographic entry order and returns the first hit, or ``None`` when
    the window is exhausted.  Absence within the window is a value, not an
    error.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    if abs(mat_det(A)) != 1 or abs(mat_det(B)) != 1:
        raise ValueError("conjugacy search requires |det| = 1 on both sides")
    if A == B:
        return IDENTITY
    for a, b, c, d in _unimodular_entries(bound):
        # H A == B H avoids forming the inverse in the inner loop.
        if (
            a * A.a + b * A.c == B.a * a + B.b * c
            and a * A.b + b * A.d == B.a * b + B.b * d
            and c * A.a + d * A.c == B.c * a + B.d * c
            and c * A.b + d * A.d == B.c * b + B.d * d
        ):
            return IntMatrix2(a, b, c, d)
    return None
