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

from dataclasses import dataclass
from fractions import Fraction

from .admissibility import AdmissibilityReport, check_admissible
from .filling import verify_v221_construction
from .invariants import (
    BaseSurface,
    SeifertInvariants,
    euler_number,
    normalize,
    orbifold_euler_characteristic,
)
from .surfaces import InvolutionKind, SurfaceInvolutionClass

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


@dataclass(frozen=True)
class FactorizationRecord:
    """One conjugacy case of the orientation-preserving factor.

    ``fiber_orientation`` records whether the factor preserves or reverses
    the orientation of the fibers; ``surface_class`` is its action on the
    base (recapped to the closed surface); ``fixed_boundary_count`` is how
    many of the marked order-2 points it fixes.
    """

    fiber_orientation: str
    surface_class: SurfaceInvolutionClass
    fixed_boundary_count: int

    def __post_init__(self):
        if self.fiber_orientation not in (PRESERVED, REVERSED):
            raise ValueError(f"unknown fiber orientation {self.fiber_orientation!r}")
        if self.fixed_boundary_count < 0:
            raise ValueError("fixed boundary count must be non-negative")


@dataclass(frozen=True)
class CensusReport:
    manifold: SeifertInvariants
    records: tuple[FactorizationRecord, ...]

    @property
    def count(self) -> int:
        return len(self.records)


def enumerate_factorizations(M: SeifertInvariants) -> CensusReport:
    """Conjugacy cases of reversing involutions for an admissible genus-0 base.

    The six records are the paper's case analysis, stated rather than
    derived: the factor is spit(0,0) when it preserves fiber orientation and
    refl(0,0) or anti(0,0) when it reverses it, and each fixes either none
    or two of the marked points.  No factor acts as the identity on the
    base, so none is excluded.  Non-product manifolds with two or four
    marked points are in scope and get the same six records; higher genus
    and larger censuses are refused rather than guessed.
    """
    report = check_admissible(M)
    if not report.admissible:
        tags = ", ".join(v.value for v in report.violations)
        raise ValueError(f"{M} admits no reversing involution ({tags})")
    N = normalize(M)
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
    factor_classes = (
        (PRESERVED, SurfaceInvolutionClass(InvolutionKind.SPIT, 0, 0)),
        (REVERSED, SurfaceInvolutionClass(InvolutionKind.REFL, 0, 0)),
        (REVERSED, SurfaceInvolutionClass(InvolutionKind.ANTI, 0, 0)),
    )
    records = tuple(
        FactorizationRecord(orientation, cls, fixed)
        for orientation, cls in factor_classes
        for fixed in (0, 2)
    )
    return CensusReport(N, records)


def fiber_flip_conjugacy_check(M: SeifertInvariants, trials: int) -> bool:
    """Validate the fiber-flip data of ``M``; inadmissible input is refused.

    Every V(2,2;-1) block of the base-trivial fiber flip carries the same
    boundary data, so for ``trials >= 1`` the verdict is one run of the
    V(2,2;-1) validator, whatever the trial count.  ``trials < 1`` passes
    vacuously.
    """
    if not check_admissible(M).admissible:
        raise ValueError(f"{M} admits no reversing involution")
    return trials < 1 or verify_v221_construction().passed


@dataclass(frozen=True)
class DoubleCoverReport:
    euler_input: Fraction
    euler_cover: Fraction
    chi_orb_input: Fraction
    chi_orb_cover: Fraction
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
    if M.base.orientable:
        raise ValueError("double-cover lift applies to non-orientable bases only")
    cover_base = BaseSurface(M.base.genus - 1, True)
    cover_pairs = tuple(p for pair in M.pairs for p in (pair, pair))
    cover = SeifertInvariants(cover_base, cover_pairs, 2 * M.b)
    e_in, e_cov = euler_number(M), euler_number(cover)
    chi_in, chi_cov = orbifold_euler_characteristic(M), orbifold_euler_characteristic(cover)
    report = DoubleCoverReport(
        e_in,
        e_cov,
        chi_in,
        chi_cov,
        e_cov == 2 * e_in,
        chi_cov == 2 * chi_in,
        check_admissible(cover),
    )
    return cover, report
