"""``seifinv lift``: the orientable-base double cover of an n1 descriptor."""

from .. import census, invariants
from . import printed


def handle(args):
    cover, report = census.lift_to_double_cover(invariants.parse_seifert(args.descriptor))
    adm, cover = report.cover_admissibility, printed("the cover", cover)
    e_in = printed("euler_number", report.euler_input)
    e_cov = printed("euler_number", report.euler_cover)
    chi_in = printed("chi_orb", report.chi_orb_input)
    chi_cov = printed("chi_orb", report.chi_orb_cover)
    tags = [v.value for v in adm.violations]
    payload = {
        "input": args.descriptor,
        "cover": cover,
        "euler_number": {"input": e_in, "cover": e_cov, "doubled": report.euler_doubled},
        "chi_orb": {"input": chi_in, "cover": chi_cov, "doubled": report.chi_orb_doubled},
        "cover_admissible": adm.admissible,
        "cover_violations": tags,
        "cover_case": adm.case_label,
    }
    yes = ("no", "yes")
    verdict = f"yes  case={adm.case_label}" if adm.admissible else f"no ({', '.join(tags)})"
    return payload, [
        f"cover: {cover}",
        f"euler_number: {e_in} -> {e_cov} (doubled: {yes[report.euler_doubled]})",
        f"chi_orb: {chi_in} -> {chi_cov} (doubled: {yes[report.chi_orb_doubled]})",
        f"cover admissible: {verdict}",
    ]
