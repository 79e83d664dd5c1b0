"""``seifinv census``: the reversing involutions of a descriptor up to conjugacy."""

from .. import census, invariants


def handle(args):
    report = census.enumerate_factorizations(invariants.parse_seifert(args.descriptor))
    rows = [{**rec._asdict(), "surface_class": str(rec.surface_class)} for rec in report.records]
    lines = [f"count: {report.count}"] + [
        f"fiber={rec.fiber_orientation} class={rec.surface_class} "
        f"fixed_boundaries={rec.fixed_boundary_count}"
        for rec in report.records
    ]
    payload = {"manifold": str(report.manifold), "count": report.count, "records": rows}
    return payload, lines
