"""Which descriptors admit a fiber-preserving, orientation-reversing involution.

A descriptor with orientable base admits one exactly when its Euler number
vanishes, every exceptional fiber has order two, there are evenly many of
them, and the obstruction term equals -n/2.  Admissible descriptors fall
into seven cases keyed on (genus, n), split primarily by the sign of the
orbifold Euler characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .invariants import (
    BaseSurface,
    GeometryType,
    SeifertInvariants,
    euler_number,
    normalize,
    orbifold_euler_characteristic,
)

__all__ = [
    "AdmissibilityReport",
    "Violation",
    "check_admissible",
    "enumerate_admissible",
    "exclude_fixed_point_free",
]


class Violation(Enum):
    NONZERO_EULER = "NonzeroEuler"
    ORDER_GREATER_THAN_TWO = "OrderGreaterThanTwo"
    ODD_COUNT = "OddCount"
    WRONG_B_TERM = "WrongBTerm"


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[Violation, ...]
    case_label: str | None
    geometry: GeometryType


def _violations(N: SeifertInvariants) -> tuple[Violation, ...]:
    out = []
    if euler_number(N) != 0:
        out.append(Violation.NONZERO_EULER)
    higher = any(q > 2 for q, _ in N.pairs)
    if higher:
        out.append(Violation.ORDER_GREATER_THAN_TWO)
    n = sum(1 for q, _ in N.pairs if q == 2)
    if n % 2 != 0:
        out.append(Violation.ODD_COUNT)
    # The b = -n/2 comparison presumes every fiber has order two; with
    # higher-order fibers present it carries no information.
    if not higher and 2 * N.b != -n:
        out.append(Violation.WRONG_B_TERM)
    return tuple(out)


def _case_and_geometry(N: SeifertInvariants) -> tuple[str, GeometryType]:
    # N is normalized and admissible.  The sign of the orbifold Euler
    # characteristic picks the major case and the geometry; (genus, n) picks
    # the letter.
    g = N.base.genus
    n = len(N.pairs)
    chi = orbifold_euler_characteristic(N)
    if chi > 0:
        return ("1a" if n == 0 else "1b"), GeometryType.S2xR
    if chi == 0:
        return ("2a" if g == 0 else "2b"), GeometryType.E3
    if g >= 2:
        return "3a", GeometryType.H2xR
    return ("3b" if g == 1 else "3c"), GeometryType.H2xR


def check_admissible(M: SeifertInvariants) -> AdmissibilityReport:
    """Evaluate all admissibility conditions on the normalized descriptor.

    This is the one admissibility predicate: a single pass normalizes once
    and derives the violations, the case label and the geometry from that
    one normalized descriptor, with exact integer sums throughout.
    Violations accumulate rather than short-circuit, so the report is
    diagnostic.  Non-orientable bases are rejected: lift those to the
    orientable double cover first (``census.lift_to_double_cover``).
    """
    if not M.base.orientable:
        raise ValueError(
            "non-orientable base: lift to the orientable-base double cover first "
            "(see lift_to_double_cover)"
        )
    N = normalize(M)
    violations = _violations(N)
    if violations:
        return AdmissibilityReport(False, violations, None, GeometryType.OTHER)
    label, geom = _case_and_geometry(N)
    return AdmissibilityReport(True, violations, label, geom)


def exclude_fixed_point_free(M: SeifertInvariants) -> bool:
    """True when fixed-point-free orientation-reversing involutions are ruled out.

    Only the trivial circle bundles (g,o1|) with b = 0, i.e. the products
    S1 x S, escape the exclusion.
    """
    N = normalize(M)
    is_product = N.base.orientable and not N.pairs and N.b == 0
    return not is_product


def enumerate_admissible(g_max: int, n_max: int) -> list[SeifertInvariants]:
    """All normalized admissible descriptors with genus <= g_max and n <= n_max.

    Ordered lexicographically by (genus, n) so output is reproducible.
    """
    if g_max < 0 or n_max < 0:
        raise ValueError("enumeration bounds must be non-negative")
    out = []
    for g in range(g_max + 1):
        for n in range(0, n_max + 1, 2):
            out.append(SeifertInvariants(BaseSurface(g, True), ((2, 1),) * n, -(n // 2)))
    return out
