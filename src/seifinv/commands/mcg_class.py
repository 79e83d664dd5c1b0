"""``seifinv mcg class``: the conjugacy class of a torus involution."""

from .. import torus_mcg
from . import parse_matrix


def handle(args):
    A = parse_matrix(args.matrix)
    label = torus_mcg.involution_class(A).value
    return {"matrix": str(A), "class": label}, [label]
