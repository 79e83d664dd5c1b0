"""``seifinv admissible``: does a descriptor admit a reversing involution."""

from __future__ import annotations

from .. import admissibility, invariants


def handle(args):
    report = admissibility.check_admissible(invariants.parse_seifert(args.descriptor))
    tags, geom = [v.value for v in report.violations], report.geometry.value
    payload = {
        "input": args.descriptor,
        "admissible": report.admissible,
        "violations": tags,
        "case": report.case_label,
        "geometry": geom,
    }
    if report.admissible:
        return payload, [f"admissible  case={report.case_label}  geometry={geom}"]
    return payload, ["not admissible: " + ", ".join(tags)]
