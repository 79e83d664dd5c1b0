"""Which descriptors admit a fiber-preserving, orientation-reversing involution.

With orientable base, a descriptor admits a fiber-preserving,
orientation-reversing involution whose base action fixes every cone point
(Psi acts trivially on the base) exactly when e = 0 and no exceptional fiber
has order above 2.  ``OddCount`` and ``WrongBTerm`` are consequences: each
forces a nonzero e when no order is above 2.  Involutions that swap cone
points are not decided.  The scope is the ROADMAP's own argument (item 16),
not the paper's: ``PAPER.md`` holds only the abstract.

Admissible descriptors fall into seven cases keyed on (genus, n), split
primarily by the sign of the orbifold Euler characteristic.  The module also
holds the refusal of an inadmissible descriptor that ``census`` and
``psi-check`` share.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from . import _require
from .invariants import (
    BaseSurface,
    GeometryType,
    Rational,
    SeifertInvariants,
    _e_and_chi,
    _print_body,
    _print_head,
    normalize,
)

__all__ = [
    "AdmissibilityReport",
    "Violation",
    "check_admissible",
]


class Violation(Enum):
    """Why a descriptor is not admissible, in the order the report lists them.

    With orientable base, a descriptor admits a fiber-preserving,
    orientation-reversing involution whose base action fixes every cone
    point (Psi acts trivially on the base) exactly when e = 0 and no
    exceptional fiber has order above 2.  ``OddCount`` and ``WrongBTerm``
    are consequences: each forces a nonzero e when no order is above 2.
    Involutions that swap cone points are not decided.
    """

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
    higher = any(q > 2 for q, _ in N.tally)
    if e:
        out.append(Violation.NONZERO_EULER)
    if higher:
        out.append(Violation.ORDER_GREATER_THAN_TWO)
    if N.tally.get((2, 1), 0) % 2:
        out.append(Violation.ODD_COUNT)
    # With no order above 2, every fiber of the normal form is (2,1), so
    # e = -(b + n/2) and b = -n/2 exactly when e = 0.
    if e and not higher:
        out.append(Violation.WRONG_B_TERM)
    return tuple(out)


def _case_and_geometry(genus: int, fibered: bool, sign: int) -> tuple[str, GeometryType]:
    # The case and geometry of a normalized admissible descriptor of base
    # genus ``genus``, with exceptional fibers when ``fibered``, whose orbifold
    # Euler characteristic has the sign of the int ``sign``: its numerator
    # over any positive denominator.  The sign picks the major case and the
    # geometry; (genus, n) picks the letter.
    if sign > 0:
        return ("1b" if fibered else "1a"), GeometryType.S2xR
    if sign == 0:
        return ("2a" if genus == 0 else "2b"), GeometryType.E3
    if genus >= 2:
        return "3a", GeometryType.H2xR
    return ("3b" if genus == 1 else "3c"), GeometryType.H2xR


def check_admissible(M: SeifertInvariants) -> AdmissibilityReport:
    """Evaluate all admissibility conditions on the normalized descriptor.

    With orientable base, a descriptor admits a fiber-preserving,
    orientation-reversing involution whose base action fixes every cone
    point (Psi acts trivially on the base) exactly when e = 0 and no
    exceptional fiber has order above 2.  ``OddCount`` and ``WrongBTerm``
    are consequences: each forces a nonzero e when no order is above 2.
    Involutions that swap cone points are not decided.

    This is the one admissibility predicate: it normalizes once, computes
    ``e`` and ``chi_orb`` together from one pass over the tally, in exact
    integers, reads whether any fiber order is above 2 and the number of
    (2,1) fibers off the tally, and takes the case and the geometry from the
    sign of ``chi_orb``'s numerator.  The report carries the normalized
    descriptor and both invariants, so callers need not compute them again.
    Violations accumulate rather than short-circuit, so the report is
    diagnostic.  A descriptor whose fiber orders have an lcm past
    ``invariants.MAX_LCM_BITS`` bits is refused.  Non-orientable bases are
    rejected: lift those to the orientable double cover first
    (``census.lift_to_double_cover``).
    """
    _require(M, SeifertInvariants, "descriptor")
    if not M.base.orientable:
        raise ValueError(
            "non-orientable base: lift to the orientable-base double cover first "
            "(see lift_to_double_cover)"
        )
    N = normalize(M)
    e, chi = _e_and_chi(N)
    violations = _violations(N, e)
    if violations:
        return AdmissibilityReport(False, violations, None, GeometryType.OTHER, N, e, chi)
    label, geom = _case_and_geometry(N.base.genus, bool(N.pairs), chi.numerator)
    return AdmissibilityReport(True, violations, label, geom, N, e, chi)


# The longest descriptor text a refusal echoes whole; a longer one is echoed
# as its first and last characters and its length.
ECHO_MAX = 200


def _require_admissible(M: SeifertInvariants) -> AdmissibilityReport:
    """Refuse ``M`` unless it is admissible, naming every violation; return
    its admissibility report.

    The refusal echoes ``M``, shortened past ``ECHO_MAX`` characters, so a
    descriptor of many fibers gives a short message that still names every
    violation."""
    report = check_admissible(M)
    if not report.admissible:
        text = str(M)
        if len(text) > ECHO_MAX:
            text = f"{text[:120]}...{text[-40:]} ({len(text)} characters)"
        tags = ", ".join(v.value for v in report.violations)
        raise ValueError(f"{text} admits no reversing involution ({tags})")
    return report


# Largest window the enumerate command accepts: 51 genera times 51 even fiber
# counts, 2,601 descriptors of up to 100 fibers each.  The benchmark's largest
# window is 20 x 60.
MAX_GMAX = 50
MAX_NMAX = 100


def _window(g_max: int, n_max: int) -> list[tuple[str, str, GeometryType]]:
    """The window's rows, (text, case, geometry) of the admissible normal
    forms (g, o1 | (2,1) x n, (1,-n/2)), g from 0 to ``g_max`` (at most
    ``MAX_GMAX``, 50) and even n up to ``n_max`` (at most ``MAX_NMAX``,
    100), genus-major, then by fiber count.  Any other bound is refused
    before a descriptor is built.

    Only the case reads the genus, so each fiber count n is checked once, by
    ``check_admissible`` on the sphere (one tally pass), and its fibers are
    printed once.  A row builds no record and no ``Rational``: moving the
    fibers to another base moves ``chi_orb`` by the change in chi(base), so
    with the count's ``chi_orb`` = n/d the row's sign is that of the int
    n + (chi(base) - chi(sphere))*d, which it hands to the case rule
    ``check_admissible`` uses.  Every count is admissible, so every row
    takes its case from that rule.
    """
    _require(g_max, int, "gmax")
    _require(n_max, int, "nmax")
    if g_max < 0 or n_max < 0:
        raise ValueError("enumeration bounds must be non-negative")
    if g_max > MAX_GMAX:
        raise ValueError(f"gmax must be at most {MAX_GMAX}, got {g_max}")
    if n_max > MAX_NMAX:
        raise ValueError(f"nmax must be at most {MAX_NMAX}, got {n_max}")
    sphere = BaseSurface(0, True)
    first = sphere.euler_characteristic()
    counts = []
    for n in range(0, n_max + 1, 2):
        # Fields known to pass the checks.  The tally is passed, not counted by
        # _on_base: counting the window's pairs too made wide-descriptors
        # 1.8-2.8 % slower, and its enumerate requests 3.8-8.1 %.
        M = SeifertInvariants._on_base(
            sphere, ((2, 1),) * n, -(n // 2), MappingProxyType({(2, 1): n} if n else {})
        )
        report = check_admissible(M)
        d = report.chi_orb.denominator
        offset = report.chi_orb.numerator - first * d
        counts.append((_print_body(M), bool(report.normalized.pairs), d, offset))
    rows = []
    for g in range(g_max + 1):
        base = BaseSurface(g, True)
        head, chi = _print_head(base), base.euler_characteristic()
        for body, fibered, d, offset in counts:
            case, geometry = _case_and_geometry(g, fibered, chi * d + offset)
            rows.append((head + body, case, geometry))
    return rows
