"""``seifinv enumerate``: the admissible descriptors in a bounded window."""

from __future__ import annotations

from .. import admissibility


def handle(args):
    rows = []
    for M in admissibility.enumerate_admissible(args.gmax, args.nmax):
        report = admissibility.check_admissible(M)
        rows.append(
            {"descriptor": str(M), "case": report.case_label, "geometry": report.geometry.value}
        )
    lines = [f"{r['descriptor']}  case={r['case']}  geometry={r['geometry']}" for r in rows]
    return {"gmax": args.gmax, "nmax": args.nmax, "descriptors": rows}, lines
