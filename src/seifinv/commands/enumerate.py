"""``seifinv enumerate``: the admissible descriptors in a bounded window."""

from __future__ import annotations

from .. import admissibility, invariants


def handle(args):
    """One row per descriptor of ``enumerate_admissible``, in its order.

    Only the case reads the genus, so each even fiber count n is checked
    once, by ``check_admissible`` on its genus-0 descriptor (the normalized
    record, ``e`` and the violations), and its fibers are printed and summed
    (``_tally_sums``) once.  A row builds no record: from its base and its
    count's sums it derives only the base's text, its ``chi_orb`` and its
    case and geometry, through the helpers ``check_admissible`` uses.
    """
    bases, fibers = admissibility._window(args.gmax, args.nmax)
    counts = []
    for M in fibers:
        report = admissibility.check_admissible(M)
        N = report.normalized
        L, _, deficit = invariants._tally_sums(N)
        counts.append((report, invariants._print_body(M), bool(N.pairs), L, deficit))
    rows = []
    for base in bases:
        head, genus = invariants._print_head(base), base.genus
        for report, body, fibered, L, deficit in counts:
            case, geometry = report.case_label, report.geometry
            if report.admissible:
                chi = invariants._chi(base, L, deficit)
                case, geometry = admissibility._case_and_geometry(genus, fibered, chi)
            rows.append({"descriptor": head + body, "case": case, "geometry": geometry.value})
    lines = [f"{r['descriptor']}  case={r['case']}  geometry={r['geometry']}" for r in rows]
    return {"gmax": args.gmax, "nmax": args.nmax, "descriptors": rows}, lines
