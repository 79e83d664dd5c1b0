"""Exact-arithmetic toolkit for fiber-preserving, orientation-reversing
involutions of orientable Seifert fibered 3-manifolds.

Everything is computed over the integers and rationals: descriptor parsing
and invariants, admissibility and the geometry trichotomy, torus mapping
class conjugacy, boundary extension conditions for Dehn fillings, the
V(2,2;-1) involution data, the factorization census, and the orientable-
base double cover.

The six layer modules load on first use: importing the package registers
each one with ``importlib.util.LazyLoader``, and a module body runs when one
of its attributes is first read.  The public names are the union of the
layers' ``__all__`` and are served from the layer that exports them.
"""

import importlib.util
import sys


def _require(value, kind, name):
    """``value`` if its type is exactly ``kind``, else a ``ValueError`` naming
    ``name``: the one type rule of fields and arguments.  It converts nothing,
    so a bool is no int.  Layers import it here without loading each other."""
    if type(value) is not kind:
        if kind is int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got {value!r}")
    return value


_LAYERS = ("invariants", "admissibility", "surfaces", "torus_mcg", "filling", "census")

for _layer in _LAYERS:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_layer] = _module
del _layer, _spec, _module


def __getattr__(name: str):
    if name == "__all__":
        value = sorted(n for layer in _LAYERS for n in globals()[layer].__all__)
    elif "." not in name and importlib.util.find_spec(f"{__name__}.{name}") is not None:
        # A submodule not imported yet, probed by ``from seifinv import cli``:
        # the import system imports it next, and no layer need load.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for layer in _LAYERS:
            module = globals()[layer]
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
