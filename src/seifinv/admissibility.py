"""Which descriptors admit a fiber-preserving, orientation-reversing involution.

A descriptor with orientable base admits one exactly when its Euler number
vanishes, every exceptional fiber has order two, there are evenly many of
them, and the obstruction term equals -n/2.  Admissible descriptors fall
into seven cases keyed on (genus, n), split primarily by the sign of the
orbifold Euler characteristic.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import _require
from .invariants import (
    BaseSurface,
    GeometryType,
    Rational,
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
]


class Violation(Enum):
    NONZERO_EULER = "NonzeroEuler"
    ORDER_GREATER_THAN_TWO = "OrderGreaterThanTwo"
    ODD_COUNT = "OddCount"
    WRONG_B_TERM = "WrongBTerm"


class AdmissibilityReport(NamedTuple):
    """The verdict on a descriptor, with the normalized descriptor and the
    two invariants it was derived from."""

    admissible: bool
    violations: tuple[Violation, ...]
    case_label: str | None
    geometry: GeometryType
    normalized: SeifertInvariants
    euler_number: Rational
    chi_orb: Rational


def _violations(N: SeifertInvariants, e: Rational) -> tuple[Violation, ...]:
    out = []
    if e:
        out.append(Violation.NONZERO_EULER)
    top = n = 0  # the highest fiber order, and the number of order-two fibers
    for (q, _), count in N.tally.items():
        if q > top:
            top = q
        if q == 2:
            n += count
    higher = top > 2
    if higher:
        out.append(Violation.ORDER_GREATER_THAN_TWO)
    if n % 2 != 0:
        out.append(Violation.ODD_COUNT)
    # The b = -n/2 comparison presumes every fiber has order two; with
    # higher-order fibers present it carries no information.
    if not higher and 2 * N.b != -n:
        out.append(Violation.WRONG_B_TERM)
    return tuple(out)


def _case_and_geometry(genus: int, fibered: bool, chi: Rational) -> tuple[str, GeometryType]:
    # The case and geometry of a normalized admissible descriptor of base
    # genus ``genus``, with exceptional fibers when ``fibered``, and orbifold
    # Euler characteristic chi.  The sign of chi, which is the sign of its
    # numerator since the denominator is positive, picks the major case and
    # the geometry; (genus, n) picks the letter.
    sign = chi.numerator
    if sign > 0:
        return ("1b" if fibered else "1a"), GeometryType.S2xR
    if sign == 0:
        return ("2a" if genus == 0 else "2b"), GeometryType.E3
    if genus >= 2:
        return "3a", GeometryType.H2xR
    return ("3b" if genus == 1 else "3c"), GeometryType.H2xR


def check_admissible(M: SeifertInvariants) -> AdmissibilityReport:
    """Evaluate all admissibility conditions on the normalized descriptor.

    This is the one admissibility predicate: it normalizes once, computes
    ``e`` and ``chi_orb`` once (each one pass over the tally, in exact
    integers), reads the highest fiber order and the number of order-two
    fibers in one more pass, and takes the case and the geometry from the
    sign of ``chi_orb``.  The report carries the normalized descriptor and
    both invariants, so callers need not compute them again.  Violations
    accumulate rather than short-circuit, so the report is diagnostic.
    Non-orientable bases are rejected: lift those to the
    orientable double cover first (``census.lift_to_double_cover``).
    """
    _require(M, SeifertInvariants, "descriptor")
    if not M.base.orientable:
        raise ValueError(
            "non-orientable base: lift to the orientable-base double cover first "
            "(see lift_to_double_cover)"
        )
    N = normalize(M)
    e, chi = euler_number(N), orbifold_euler_characteristic(N)
    violations = _violations(N, e)
    if violations:
        return AdmissibilityReport(False, violations, None, GeometryType.OTHER, N, e, chi)
    label, geom = _case_and_geometry(N.base.genus, bool(N.pairs), chi)
    return AdmissibilityReport(True, violations, label, geom, N, e, chi)


# Largest window enumerate_admissible accepts: 51 genera times 51 even fiber
# counts, 2,601 descriptors of up to 100 fibers each.  The benchmark's largest
# window is 20 x 60.
MAX_GMAX = 50
MAX_NMAX = 100


def enumerate_admissible(g_max: int, n_max: int) -> list[SeifertInvariants]:
    """All normalized admissible descriptors with genus <= g_max and n <= n_max.

    Ordered lexicographically by (genus, n) so output is reproducible.  The
    descriptor of genus g and n fibers is (g, o1 | (2,1) x n, (1,-n/2)).  No
    admissibility condition reads the genus, so ``_window`` builds one
    descriptor per n, on the genus-0 base, and each other row replaces only
    its base (``_replace(base=...)``), sharing its checked pairs, ``b`` and
    ``tally``.  ``g_max`` runs from 0 to ``MAX_GMAX`` (50) and ``n_max``
    from 0 to ``MAX_NMAX`` (100); any other bound is refused before a
    descriptor is built.
    """
    bases, fibers = _window(g_max, n_max)
    return [M._replace(base=base) for base in bases for M in fibers]


def _window(g_max: int, n_max: int) -> tuple[list[BaseSurface], list[SeifertInvariants]]:
    """The window's orientable bases, genus 0 to ``g_max``, and its
    descriptor of each even fiber count n <= ``n_max`` on the first of them."""
    _require(g_max, int, "gmax")
    _require(n_max, int, "nmax")
    if g_max < 0 or n_max < 0:
        raise ValueError("enumeration bounds must be non-negative")
    if g_max > MAX_GMAX:
        raise ValueError(f"gmax must be at most {MAX_GMAX}, got {g_max}")
    if n_max > MAX_NMAX:
        raise ValueError(f"nmax must be at most {MAX_NMAX}, got {n_max}")
    bases = [BaseSurface(g, True) for g in range(g_max + 1)]
    evens = range(0, n_max + 1, 2)
    return bases, [SeifertInvariants(bases[0], ((2, 1),) * n, -(n // 2)) for n in evens]
