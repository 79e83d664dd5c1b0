"""``seifinv classify``: invariants, geometry and case of a descriptor."""

from __future__ import annotations

from .. import admissibility, invariants
from . import printed


def handle(args):
    M = invariants.parse_seifert(args.descriptor)
    if M.base.orientable:
        report = admissibility.check_admissible(M)
        N, e, chi = report.normalized, report.euler_number, report.chi_orb
        geom, case = report.geometry.value, report.case_label
    else:
        N = invariants.normalize(M)
        e, chi = invariants._e_and_chi(N)
        geom, case = invariants.GeometryType.OTHER.value, None
    N = printed("the normalized descriptor", N)
    e, chi = printed("euler_number", e), printed("chi_orb", chi)
    payload = {
        "input": args.descriptor,
        "normalized": N,
        "euler_number": e,
        "chi_orb": chi,
        "geometry": geom,
        "case": case,
    }
    return payload, [f"{N}  e={e}  chi_orb={chi}  geometry={geom}  case={case or '-'}"]
