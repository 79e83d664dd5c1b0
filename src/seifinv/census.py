"""Census of fiber-preserving, orientation-reversing involutions up to conjugacy.

Every such involution of an admissible non-product manifold factors as the
base-trivial fiber flip composed with a fiber-preserving, orientation-
preserving involution, so counting reduces to the conjugacy cases of the
orientation-preserving factor acting on the marked base sphere.  The module
also lifts non-orientable-base descriptors to the orientable-base double
cover.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _Checked, _require, surfaces
from .admissibility import AdmissibilityReport, _require_admissible, check_admissible
from .invariants import BaseSurface, Rational, SeifertInvariants, _e_and_chi

__all__ = [
    "CensusReport",
    "CensusScopeError",
    "DoubleCoverReport",
    "FactorizationRecord",
    "enumerate_factorizations",
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


class FactorizationRecord(_Checked, _RecordFields):
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


class CensusReport(NamedTuple):
    manifold: SeifertInvariants
    records: tuple[FactorizationRecord, ...]

    @property
    def count(self) -> int:
        return len(self.records)


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

    Non-orientable genus k lifts to orientable genus k - 1, so chi goes
    from 2 - k to 4 - 2k; every exceptional pair is duplicated and the
    obstruction term doubles.  So e(cover) = 2e and chi_orb(cover) =
    2 chi_orb for every input, by construction: the report's
    ``euler_doubled`` and ``chi_orb_doubled`` are always true, and check
    nothing independently.  The report also carries both invariants of the
    input and the cover, and the cover's admissibility.
    """
    _require(M, SeifertInvariants, "descriptor")
    if M.base.orientable:
        raise ValueError("double-cover lift applies to non-orientable bases only")
    # The input's invariants come first, so a refusal numbers the input's
    # fibers, not the cover's.  Normalizing preserves both invariants, so the
    # cover's are read off its admissibility report.
    e_in, chi_in = _e_and_chi(M)
    cover_base = BaseSurface(M.base.genus - 1, True)
    cover_pairs = tuple(p for pair in M.pairs for p in (pair, pair))
    cover = SeifertInvariants(cover_base, cover_pairs, 2 * M.b)
    adm = check_admissible(cover)
    e_cov, chi_cov = adm.euler_number, adm.chi_orb
    report = DoubleCoverReport(
        e_in, e_cov, chi_in, chi_cov, e_cov == 2 * e_in, chi_cov == 2 * chi_in, adm
    )
    return cover, report
