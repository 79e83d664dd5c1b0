"""``seifinv enumerate``: the admissible descriptors in a bounded window."""

from __future__ import annotations

from .. import admissibility, invariants


def handle(args):
    """One row per descriptor of ``enumerate_admissible``, in its order.

    Only the case reads the genus, so each even fiber count n is checked
    once, by ``check_admissible`` on its genus-0 descriptor (the normalized
    record, ``e`` and the violations), and its fibers are printed once.  A
    row then derives only what reads its base: the base's text, its
    ``chi_orb`` and its case and geometry, through the helpers
    ``check_admissible`` uses.
    """
    bases, fibers = admissibility._window(args.gmax, args.nmax)
    checked = [(admissibility.check_admissible(M), invariants._print_body(M)) for M in fibers]
    rows = []
    for base in bases:
        head = invariants._print_head(base)
        for report, body in checked:
            case, geometry = report.case_label, report.geometry
            if report.admissible:
                N = report.normalized._replace(base=base)
                chi = invariants.orbifold_euler_characteristic(N)
                case, geometry = admissibility._case_and_geometry(N, chi)
            rows.append({"descriptor": head + body, "case": case, "geometry": geometry.value})
    lines = [f"{r['descriptor']}  case={r['case']}  geometry={r['geometry']}" for r in rows]
    return {"gmax": args.gmax, "nmax": args.nmax, "descriptors": rows}, lines
