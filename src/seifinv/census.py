"""Census of fiber-preserving, orientation-reversing involutions up to conjugacy.

Every such involution of an admissible non-product manifold factors as the
base-trivial fiber flip composed with a fiber-preserving, orientation-
preserving involution, so counting reduces to the conjugacy cases of the
orientation-preserving factor acting on the marked base sphere.  The module
also validates the fiber-flip data at the boundary level, and lifts
non-orientable-base descriptors to the orientable-base double cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .admissibility import AdmissibilityReport, check_admissible
from .filling import V221BoundaryData, extension_condition, v221_boundary_data
from .invariants import (
    BaseSurface,
    SeifertInvariants,
    euler_number,
    normalize,
    orbifold_euler_characteristic,
)
from .surfaces import InvolutionKind, SurfaceInvolutionClass
from .torus_mcg import IntMatrix2, is_involution

__all__ = [
    "CensusReport",
    "CensusScopeError",
    "DoubleCoverReport",
    "FactorizationRecord",
    "FiberFlipDescriptor",
    "enumerate_factorizations",
    "fiber_flip_conjugacy_check",
    "fiber_flip_descriptor",
    "lift_to_double_cover",
]

PRESERVED = "preserved"
REVERSED = "reversed"

_OUTER_REFERENCE = IntMatrix2(-1, 0, 0, 1)


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


@dataclass(frozen=True)
class FiberFlipDescriptor:
    """Boundary-level data of the base-trivial fiber flip on a manifold:
    the marked order-2 fibers paired into V(2,2;-1) blocks, with per-block
    boundary actions."""

    manifold: SeifertInvariants
    pairing: tuple[tuple[int, int], ...]
    blocks: tuple[V221BoundaryData, ...]

    def __post_init__(self):
        n = len(self.manifold.pairs)
        if n % 2 != 0 or len(self.blocks) != n // 2 or len(self.pairing) != n // 2:
            raise ValueError("need exactly one block per pair of order-2 fibers")


def fiber_flip_descriptor(M: SeifertInvariants) -> FiberFlipDescriptor:
    """Canonical fiber-flip data for an admissible descriptor: consecutive
    marked fibers are paired and every block carries the standard
    V(2,2;-1) boundary data in the reference framing."""
    report = check_admissible(M)
    if not report.admissible:
        raise ValueError(f"{M} admits no reversing involution")
    N = normalize(M)
    n = len(N.pairs)
    pairing = tuple((2 * i, 2 * i + 1) for i in range(n // 2))
    return FiberFlipDescriptor(N, pairing, (v221_boundary_data(),) * (n // 2))


def _block_valid(block: V221BoundaryData) -> bool:
    """A block is valid when every inner action is an involution inside its
    extension-condition set and the outer action is the fiber flip
    diag(-1, 1)."""
    return (
        all(
            is_involution(action) and action in extension_condition(slope)
            for action, slope in block.pairs
        )
        and block.outer == _OUTER_REFERENCE
    )


def fiber_flip_conjugacy_check(
    M: SeifertInvariants,
    trials: int,
    descriptor: FiberFlipDescriptor | None = None,
) -> bool:
    """Validate the fiber-flip data of ``M`` (or ``descriptor``) once.

    Every base-trivial fiber flip is the V(2,2;-1) product-involution data
    up to fiber-preserving conjugacy, and re-framing a block and pulling it
    back returns the same data, so repeated trials cannot change the
    verdict: for ``trials >= 1`` the result is one validation of every
    block.  ``trials < 1`` passes vacuously.
    """
    desc = descriptor if descriptor is not None else fiber_flip_descriptor(M)
    return trials < 1 or all(_block_valid(b) for b in desc.blocks)


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
