"""``seifinv enumerate``: the admissible descriptors in a bounded window."""

from .. import admissibility, invariants


def handle(args):
    """One row per descriptor of the window, genus-major, then by fiber count.

    Only the case reads the genus, so each even fiber count n is checked
    once, by ``check_admissible`` on its descriptor on the window's first
    base (the normalized record, ``e``, ``chi_orb`` and the violations, from
    one tally pass), and its fibers are printed once.  A row builds no
    record and no ``Rational``: moving the fibers to another base moves
    ``chi_orb`` by the change in chi(base), so with the count's ``chi_orb``
    = n/d the row's sign is that of the int n + (chi(base) - chi(first))*d,
    which it hands to the case rule ``check_admissible`` uses.  Every count
    of the window, n pairs (2,1) with b = -n/2, is admissible, so every row
    takes its case from that rule.
    """
    bases, fibers = admissibility._window(args.gmax, args.nmax)
    first = bases[0].euler_characteristic()
    counts = []
    for M in fibers:
        report = admissibility.check_admissible(M)
        d = report.chi_orb.denominator
        offset = report.chi_orb.numerator - first * d
        counts.append((invariants._print_body(M), bool(report.normalized.pairs), d, offset))
    rows = []
    for base in bases:
        head, genus, chi = invariants._print_head(base), base.genus, base.euler_characteristic()
        for body, fibered, d, offset in counts:
            case, geometry = admissibility._case_and_geometry(genus, fibered, chi * d + offset)
            rows.append({"descriptor": head + body, "case": case, "geometry": geometry.value})
    lines = [f"{r['descriptor']}  case={r['case']}  geometry={r['geometry']}" for r in rows]
    return {"gmax": args.gmax, "nmax": args.nmax, "descriptors": rows}, lines
