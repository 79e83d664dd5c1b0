"""Conjugacy classes of involutions on the closed orientable genus-g surface.

The catalog: the identity; the axis rotations spit(g,r) for 0 <= r <= g/2;
the free rotation rot when g is odd; the reflections refl(g,r) for
0 <= r <= g/2; and the antipodal-type maps anti(g,r) for 0 <= r <= g.
That is 4 + 2g classes in all, of which 2 + ceil(g/2) preserve orientation.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import _require

__all__ = [
    "FixedPointData",
    "InvolutionKind",
    "SurfaceInvolutionClass",
    "classes_for_genus",
    "fixed_point_data",
]


class InvolutionKind(Enum):
    ID = "id"
    SPIT = "spit"
    ROT = "rot"
    REFL = "refl"
    ANTI = "anti"


_PRESERVING = (InvolutionKind.ID, InvolutionKind.SPIT, InvolutionKind.ROT)


class _SurfaceInvolutionFields(NamedTuple):
    kind: InvolutionKind
    g: int
    r: int


class SurfaceInvolutionClass(_SurfaceInvolutionFields):
    __slots__ = ()

    def __new__(cls, kind: InvolutionKind, g: int, r: int = 0):
        _require(kind, InvolutionKind, "kind")
        _require(g, int, "g")
        _require(r, int, "r")
        if g < 0 or r < 0:
            raise ValueError("genus and r must be non-negative")
        if kind in (InvolutionKind.ID, InvolutionKind.ROT) and r != 0:
            raise ValueError(f"{kind.value} takes no r parameter")
        if kind is InvolutionKind.ROT and g % 2 == 0:
            raise ValueError("rot exists only for odd genus")
        if kind in (InvolutionKind.SPIT, InvolutionKind.REFL) and r > g // 2:
            raise ValueError(f"{kind.value} needs r <= g/2")
        if kind is InvolutionKind.ANTI and r > g:
            raise ValueError("anti needs r <= g")
        return super().__new__(cls, kind, g, r)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def orientation_preserving(self) -> bool:
        return self.kind in _PRESERVING

    def __str__(self) -> str:
        if self.kind in (InvolutionKind.ID, InvolutionKind.ROT):
            return self.kind.value
        return f"{self.kind.value}({self.g},{self.r})"


class FixedPointData(NamedTuple):
    """Fixed-point set: isolated points, circles, or the whole surface (id)."""

    isolated_points: int = 0
    circles: int = 0
    entire_surface: bool = False

    @property
    def free(self) -> bool:
        return not (self.isolated_points or self.circles or self.entire_surface)

    def __str__(self) -> str:
        if self.entire_surface:
            return "entire surface"
        counts = ((self.isolated_points, "points"), (self.circles, "circles"))
        return ", ".join(f"{n} {what}" for n, what in counts if n) or "free"


# Largest genus classes_for_genus accepts; the class list has 4 + 2g entries.
MAX_GENUS = 50


def classes_for_genus(g: int, selection: str = "all") -> list[SurfaceInvolutionClass]:
    """Complete class list for genus g, optionally filtered by orientation.

    ``selection`` is one of "all", "preserving", "reversing".  ``g`` runs
    from 0 to ``MAX_GENUS`` (50); any other genus is refused before a class
    is built.
    """
    _require(g, int, "genus")
    if g < 0:
        raise ValueError("genus must be non-negative")
    if g > MAX_GENUS:
        raise ValueError(f"genus must be at most {MAX_GENUS}, got {g}")
    preserving = [SurfaceInvolutionClass(InvolutionKind.ID, g)]
    preserving += [SurfaceInvolutionClass(InvolutionKind.SPIT, g, r) for r in range(g // 2 + 1)]
    if g % 2 == 1:
        preserving.append(SurfaceInvolutionClass(InvolutionKind.ROT, g))
    reversing = [SurfaceInvolutionClass(InvolutionKind.REFL, g, r) for r in range(g // 2 + 1)]
    reversing += [SurfaceInvolutionClass(InvolutionKind.ANTI, g, r) for r in range(g + 1)]
    if selection == "preserving":
        return preserving
    if selection == "reversing":
        return reversing
    if selection == "all":
        return preserving + reversing
    raise ValueError(f"unknown selection {selection!r}")


def fixed_point_data(c: SurfaceInvolutionClass) -> FixedPointData:
    """Fixed-point data per class.

    spit(g,r) has quotient genus r, so Riemann-Hurwitz for a branched double
    cover, 2 - 2g = 2(2 - 2r) - k, gives k = 2g + 2 - 4r isolated points.
    """
    _require(c, SurfaceInvolutionClass, "surface class")
    k = c.kind
    if k is InvolutionKind.ID:
        return FixedPointData(entire_surface=True)
    if k is InvolutionKind.SPIT:
        return FixedPointData(isolated_points=2 * c.g + 2 - 4 * c.r)
    if k is InvolutionKind.ROT:
        return FixedPointData()
    if k is InvolutionKind.REFL:
        return FixedPointData(circles=c.g - 2 * c.r + 1)
    return FixedPointData(circles=c.r)
