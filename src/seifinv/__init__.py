"""Exact-arithmetic toolkit for fiber-preserving, orientation-reversing
involutions of orientable Seifert fibered 3-manifolds.

Everything is computed over the integers and rationals: descriptor parsing
and invariants, admissibility and the geometry trichotomy, torus mapping
class conjugacy, boundary extension conditions for Dehn fillings, the
V(2,2;-1) involution data, the factorization census, and the orientable-
base double cover.
"""

from . import admissibility, census, filling, invariants, surfaces, torus_mcg
from .admissibility import *  # noqa: F401,F403
from .census import *  # noqa: F401,F403
from .filling import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .surfaces import *  # noqa: F401,F403
from .torus_mcg import *  # noqa: F401,F403

__all__ = sorted(
    name
    for module in (admissibility, census, filling, invariants, surfaces, torus_mcg)
    for name in module.__all__
)
