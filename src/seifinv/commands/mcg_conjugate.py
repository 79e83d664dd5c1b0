"""``seifinv mcg conjugate``: a conjugator with entries in a bounded window."""

from __future__ import annotations

from .. import torus_mcg
from . import parse_matrix


def handle(args):
    A, B = parse_matrix(args.matrix_a), parse_matrix(args.matrix_b)
    H = torus_mcg.find_conjugator(A, B, args.bound)
    payload = {
        "matrix_a": str(A),
        "matrix_b": str(B),
        "bound": args.bound,
        "found": H is not None,
        "conjugator": None if H is None else str(H),
    }
    if H is None:
        return payload, [f"no conjugator with entries in [-{args.bound},{args.bound}]"]
    return payload, [f"conjugator: {H}"]
