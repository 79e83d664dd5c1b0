"""``seifinv surface-classes``: the involution classes of a closed surface."""

from __future__ import annotations

from .. import surfaces


def handle(args):
    rows, lines = [], []
    for c in surfaces.classes_for_genus(args.genus, args.filter):
        data = surfaces.fixed_point_data(c)
        rows.append(
            {
                "name": str(c),
                "kind": c.kind.value,
                "g": c.g,
                "r": c.r,
                "orientation_preserving": c.orientation_preserving,
                "fixed_points": {**data._asdict(), "free": data.free},
            }
        )
        orient = "preserving" if c.orientation_preserving else "reversing"
        lines.append(f"{c}  orientation={orient}  fixed: {data}")
    return {"genus": args.genus, "classes": rows}, lines
