"""Census of fiber-preserving, orientation-reversing involutions up to conjugacy.

Every such involution of an admissible non-product manifold factors as the
base-trivial fiber flip composed with a fiber-preserving, orientation-
preserving involution, so counting reduces to the conjugacy cases of the
orientation-preserving factor acting on the marked base sphere.  The fiber
flip is the product involution extended across V(2,2;-1) blocks, so psi-check
reads the one validator of that data, ``filling.verify_v221_construction``.
The module also lifts non-orientable-base descriptors to the orientable-base
double cover.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _require, filling, surfaces
from .admissibility import AdmissibilityReport, check_admissible
from .invariants import (
    BaseSurface,
    Rational,
    SeifertInvariants,
    euler_number,
    orbifold_euler_characteristic,
)

__all__ = [
    "CensusReport",
    "CensusScopeError",
    "DoubleCoverReport",
    "FactorizationRecord",
    "enumerate_factorizations",
    "fiber_flip_conjugacy_check",
    "lift_to_double_cover",
]

PRESERVED = "preserved"
REVERSED = "reversed"


class CensusScopeError(ValueError):
    """Inputs whose census is not derivable from the worked case analysis."""


class _RecordFields(NamedTuple):
    fiber_orientation: str
    surface_class: surfaces.SurfaceInvolutionClass
    fixed_boundary_count: int


class FactorizationRecord(_RecordFields):
    """One conjugacy case of the orientation-preserving factor.

    ``fiber_orientation`` records whether the factor preserves or reverses
    the orientation of the fibers; ``surface_class`` is its action on the
    base (recapped to the closed surface); ``fixed_boundary_count`` is how
    many of the marked order-2 points it fixes.
    """

    __slots__ = ()

    def __new__(
        cls,
        fiber_orientation: str,
        surface_class: surfaces.SurfaceInvolutionClass,
        fixed_boundary_count: int,
    ):
        if fiber_orientation not in (PRESERVED, REVERSED):
            raise ValueError(f"unknown fiber orientation {fiber_orientation!r}")
        _require(surface_class, surfaces.SurfaceInvolutionClass, "surface class")
        _require(fixed_boundary_count, int, "fixed boundary count")
        if fixed_boundary_count < 0:
            raise ValueError("fixed boundary count must be non-negative")
        return super().__new__(cls, fiber_orientation, surface_class, fixed_boundary_count)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CensusReport(NamedTuple):
    manifold: SeifertInvariants
    records: tuple[FactorizationRecord, ...]

    @property
    def count(self) -> int:
        return len(self.records)


def _require_admissible(
    M: SeifertInvariants, report: AdmissibilityReport | None = None
) -> AdmissibilityReport:
    """Refuse ``M`` unless it is admissible, naming every violation; return
    its admissibility report (``report``, when the caller has it already)."""
    if report is None:
        report = check_admissible(M)
    if not report.admissible:
        tags = ", ".join(v.value for v in report.violations)
        raise ValueError(f"{M} admits no reversing involution ({tags})")
    return report


def enumerate_factorizations(M: SeifertInvariants) -> CensusReport:
    """Conjugacy cases of reversing involutions for an admissible genus-0 base.

    The factor is one of the non-identity classes of the genus-0 surface
    catalog, spit(0,0), refl(0,0) and anti(0,0); it preserves fiber
    orientation exactly when its class preserves the orientation of the
    base.  The identity class is filtered out because no factor acts as the
    identity on the base.  The fixed counts are the paper's case analysis,
    stated rather than derived: each class fixes either none or two of the
    marked points, six records in all.  Non-product manifolds with two or
    four marked points are in scope and get the same six records; higher
    genus and larger censuses are refused rather than guessed.
    """
    N = _require_admissible(M).normalized
    if N.base.genus != 0:
        raise CensusScopeError("factorization census covers base genus 0 only")
    n = len(N.pairs)
    if n == 0:
        raise CensusScopeError(
            "trivial circle-bundle products are outside the factorization census"
        )
    if n not in (2, 4):
        raise CensusScopeError(
            "marked-point case analysis covers two or four order-2 fibers only"
        )
    records = tuple(
        FactorizationRecord(PRESERVED if cls.orientation_preserving else REVERSED, cls, fixed)
        for cls in surfaces.classes_for_genus(0)
        if cls.kind is not surfaces.InvolutionKind.ID
        for fixed in (0, 2)
    )
    return CensusReport(N, records)


def fiber_flip_conjugacy_check(
    M: SeifertInvariants, report: AdmissibilityReport | None = None
) -> bool:
    """Validate the fiber-flip data of ``M``; inadmissible input is refused
    with its violations named.

    Every V(2,2;-1) block of the base-trivial fiber flip carries the same
    boundary data, so the verdict is one run of the V(2,2;-1) validator.  A
    caller that already holds ``check_admissible(M)`` passes it as
    ``report``, and admissibility is not decided a second time.
    """
    _require_admissible(M, report)
    return filling.verify_v221_construction().passed


class DoubleCoverReport(NamedTuple):
    euler_input: Rational
    euler_cover: Rational
    chi_orb_input: Rational
    chi_orb_cover: Rational
    euler_doubled: bool
    chi_orb_doubled: bool
    cover_admissibility: AdmissibilityReport


def lift_to_double_cover(M: SeifertInvariants) -> tuple[SeifertInvariants, DoubleCoverReport]:
    """Orientable-base double cover of a non-orientable-base descriptor.

    Non-orientable genus k lifts to orientable genus k - 1; every
    exceptional pair is duplicated and the obstruction term doubles.  The
    report carries the computed doubling checks for the Euler number and
    the orbifold Euler characteristic, plus the cover's admissibility.
    """
    _require(M, SeifertInvariants, "descriptor")
    if M.base.orientable:
        raise ValueError("double-cover lift applies to non-orientable bases only")
    cover_base = BaseSurface(M.base.genus - 1, True)
    cover_pairs = tuple(p for pair in M.pairs for p in (pair, pair))
    cover = SeifertInvariants(cover_base, cover_pairs, 2 * M.b)
    # Normalizing preserves both invariants, so the cover's are read off its
    # admissibility report.
    adm = check_admissible(cover)
    e_in, e_cov = euler_number(M), adm.euler_number
    chi_in, chi_cov = orbifold_euler_characteristic(M), adm.chi_orb
    report = DoubleCoverReport(
        e_in, e_cov, chi_in, chi_cov, e_cov == 2 * e_in, chi_cov == 2 * chi_in, adm
    )
    return cover, report
