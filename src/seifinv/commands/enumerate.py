"""``seifinv enumerate``: the admissible descriptors in a bounded window."""

from .. import admissibility


def handle(args):
    """The rows of ``admissibility._window``, as JSON records and text lines."""
    rows = [
        {"descriptor": text, "case": case, "geometry": geometry.value}
        for text, case, geometry in admissibility._window(args.gmax, args.nmax)
    ]
    lines = [f"{r['descriptor']}  case={r['case']}  geometry={r['geometry']}" for r in rows]
    return {"gmax": args.gmax, "nmax": args.nmax, "descriptors": rows}, lines
