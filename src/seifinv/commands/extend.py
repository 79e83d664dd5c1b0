"""``seifinv extend``: does a boundary action extend across a Dehn filling."""

from .. import filling
from . import integer, parse_matrix, printed


def handle(args):
    parts = args.slope.split(",")
    if len(parts) != 2:
        raise ValueError(f"slope must be written 'm,l', got {args.slope!r}")
    message = f"slope must be a pair of integers, got {args.slope!r}"
    slope = filling.FillingSlope(*[integer(p, message) for p in parts])
    A = parse_matrix(args.matrix)
    condition = sorted(filling.extension_condition(slope))  # IntMatrix2 sorts by (a, b, c, d)
    extends = A in condition
    payload = {
        "slope": str(slope),
        "matrix": str(A),
        "extends": extends,
        "condition": [printed("the extension condition", C) for C in condition],
    }
    return payload, [f"extends: {'true' if extends else 'false'}"]
