"""Command-line front end: descriptors in, reports out as text or JSON.

Exit codes: 0 on success, 1 for parse/domain errors, 2 for usage errors.
All JSON payloads carry a top-level ``"schema": "1"`` field.  Output is
deterministic for identical arguments.  ``psi-check`` echoes ``--trials``
and ``--seed`` (SEIFERT_SEED overrides the default seed); its verdict is one
validation, vacuously true for ``--trials 0``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

# Every layer is reached through its module, which the package loads on first
# attribute access, so a command runs only the layer bodies it reads.
from . import admissibility, census, filling, invariants, surfaces, torus_mcg

__all__ = ["CommandResult", "main", "run"]

SCHEMA = "1"


class CommandResult(NamedTuple):
    status: str  # "ok" or "error"
    payload: object | None
    message: str
    exit_code: int


def _finish(args, payload: dict, text: str) -> CommandResult:
    if args.json:
        import json

        text = json.dumps(payload, indent=2)
    return CommandResult("ok", payload, text, 0)


def _printed(name: str, value) -> str:
    """``str(value)``, refused by ``name`` when an integer in it is longer
    than ``sys.get_int_max_str_digits()`` digits.

    Parsed integers are capped by the parser; this covers the ones the
    program computes from them, such as a normalized obstruction term.
    """
    try:
        return str(value)
    except ValueError:  # only int-to-str conversion past the digit limit raises here
        raise ValueError(
            f"cannot print {name}: integer longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def _parse_matrix(text: str) -> torus_mcg.IntMatrix2:
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError(f"matrix must be written 'a,b;c,d', got {text!r}")
    entries = []
    for row in rows:
        cols = row.split(",")
        if len(cols) != 2:
            raise ValueError(f"matrix must be written 'a,b;c,d', got {text!r}")
        for col in cols:
            try:
                entries.append(int(col.strip()))
            except ValueError:
                raise ValueError(f"matrix entry {col.strip()!r} is not an integer") from None
    return torus_mcg.IntMatrix2(*entries)


def _parse_slope(text: str) -> filling.FillingSlope:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"slope must be written 'm,l', got {text!r}")
    try:
        m, l = (int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"slope must be a pair of integers, got {text!r}") from None
    return filling.FillingSlope(m, l)


def _default_seed() -> int:
    raw = os.environ.get("SEIFERT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SEIFERT_SEED must be an integer, got {raw!r}") from None


def _cmd_classify(args) -> CommandResult:
    M = invariants.parse_seifert(args.descriptor)
    if M.base.orientable:
        report = admissibility.check_admissible(M)
        N, e, chi = report.normalized, report.euler_number, report.chi_orb
        geom, case = report.geometry, report.case_label
    else:
        N = invariants.normalize(M)
        e, chi = invariants.euler_number(N), invariants.orbifold_euler_characteristic(N)
        geom, case = invariants.geometry(N), None
    normalized = _printed("the normalized descriptor", N)
    e, chi = _printed("euler_number", e), _printed("chi_orb", chi)
    payload = {
        "schema": SCHEMA,
        "input": args.descriptor,
        "normalized": normalized,
        "euler_number": e,
        "chi_orb": chi,
        "geometry": geom.value,
        "case": case,
    }
    text = f"{normalized}  e={e}  chi_orb={chi}  geometry={geom.value}  case={case or '-'}"
    return _finish(args, payload, text)


def _cmd_admissible(args) -> CommandResult:
    M = invariants.parse_seifert(args.descriptor)
    report = admissibility.check_admissible(M)
    payload = {
        "schema": SCHEMA,
        "input": args.descriptor,
        "admissible": report.admissible,
        "violations": [v.value for v in report.violations],
        "case": report.case_label,
        "geometry": report.geometry.value,
    }
    if report.admissible:
        text = f"admissible  case={report.case_label}  geometry={report.geometry.value}"
    else:
        text = "not admissible: " + ", ".join(v.value for v in report.violations)
    return _finish(args, payload, text)


def _cmd_enumerate(args) -> CommandResult:
    rows = []
    for M in admissibility.enumerate_admissible(args.gmax, args.nmax):
        report = admissibility.check_admissible(M)
        rows.append(
            {
                "descriptor": invariants.print_seifert(M),
                "case": report.case_label,
                "geometry": report.geometry.value,
            }
        )
    payload = {"schema": SCHEMA, "gmax": args.gmax, "nmax": args.nmax, "descriptors": rows}
    text = "\n".join(
        f"{r['descriptor']}  case={r['case']}  geometry={r['geometry']}" for r in rows
    )
    return _finish(args, payload, text)


def _cmd_mcg_class(args) -> CommandResult:
    A = _parse_matrix(args.matrix)
    label = torus_mcg.involution_class(A)
    payload = {"schema": SCHEMA, "matrix": str(A), "class": label.value}
    return _finish(args, payload, label.value)


def _cmd_mcg_conjugate(args) -> CommandResult:
    A = _parse_matrix(args.matrix_a)
    B = _parse_matrix(args.matrix_b)
    H = torus_mcg.find_conjugator(A, B, args.bound)
    payload = {
        "schema": SCHEMA,
        "matrix_a": str(A),
        "matrix_b": str(B),
        "bound": args.bound,
        "found": H is not None,
        "conjugator": str(H) if H is not None else None,
    }
    text = (
        f"conjugator: {H}"
        if H is not None
        else f"no conjugator with entries in [-{args.bound},{args.bound}]"
    )
    return _finish(args, payload, text)


def _sorted_matrices(mats) -> list[torus_mcg.IntMatrix2]:
    return sorted(mats, key=lambda A: (A.a, A.b, A.c, A.d))


def _cmd_extend(args) -> CommandResult:
    slope = _parse_slope(args.slope)
    A = _parse_matrix(args.matrix)
    condition = _sorted_matrices(filling.extension_condition(slope))
    extends = A in condition
    payload = {
        "schema": SCHEMA,
        "slope": str(slope),
        "matrix": str(A),
        "extends": extends,
        "condition": [_printed("the extension condition", C) for C in condition],
    }
    return _finish(args, payload, f"extends: {'true' if extends else 'false'}")


def _cmd_verify_v221(args) -> CommandResult:
    report = filling.verify_v221_construction()
    payload = {
        "schema": SCHEMA,
        "matrices": [str(A) for A in report.matrices],
        "involution_ok": list(report.involution_ok),
        "assignment": [str(f) for f in report.assignment] if report.assignment else None,
        "extends_ok": list(report.extends_ok),
        "passed": report.passed,
    }
    lines = []
    for i, A in enumerate(report.matrices):
        slope = str(report.assignment[i]) if report.assignment else "-"
        lines.append(
            f"matrix {A}: involution={'yes' if report.involution_ok[i] else 'no'} "
            f"filling={slope} extends={'yes' if report.extends_ok[i] else 'no'}"
        )
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return _finish(args, payload, "\n".join(lines))


def _fixed_point_text(data) -> str:
    if data.entire_surface:
        return "entire surface"
    if data.free:
        return "free"
    parts = []
    if data.isolated_points:
        parts.append(f"{data.isolated_points} points")
    if data.circles:
        parts.append(f"{data.circles} circles")
    return ", ".join(parts) if parts else "free"


def _cmd_surface_classes(args) -> CommandResult:
    classes = surfaces.classes_for_genus(args.genus, args.filter)
    rows = []
    lines = []
    for c in classes:
        data = surfaces.fixed_point_data(c)
        rows.append(
            {
                "name": str(c),
                "kind": c.kind.value,
                "g": c.g,
                "r": c.r,
                "orientation_preserving": c.orientation_preserving,
                "fixed_points": {
                    "isolated_points": data.isolated_points,
                    "circles": data.circles,
                    "entire_surface": data.entire_surface,
                    "free": data.free,
                },
            }
        )
        orient = "preserving" if c.orientation_preserving else "reversing"
        lines.append(f"{c}  orientation={orient}  fixed: {_fixed_point_text(data)}")
    payload = {"schema": SCHEMA, "genus": args.genus, "classes": rows}
    return _finish(args, payload, "\n".join(lines))


def _cmd_census(args) -> CommandResult:
    M = invariants.parse_seifert(args.descriptor)
    report = census.enumerate_factorizations(M)
    rows = [
        {
            "fiber_orientation": rec.fiber_orientation,
            "surface_class": str(rec.surface_class),
            "fixed_boundary_count": rec.fixed_boundary_count,
        }
        for rec in report.records
    ]
    payload = {
        "schema": SCHEMA,
        "manifold": invariants.print_seifert(report.manifold),
        "count": report.count,
        "records": rows,
    }
    lines = [f"count: {report.count}"] + [
        f"fiber={r['fiber_orientation']} class={r['surface_class']} "
        f"fixed_boundaries={r['fixed_boundary_count']}"
        for r in rows
    ]
    return _finish(args, payload, "\n".join(lines))


def _cmd_lift(args) -> CommandResult:
    M = invariants.parse_seifert(args.descriptor)
    cover, report = census.lift_to_double_cover(M)
    adm = report.cover_admissibility
    cover_text = _printed("the cover", cover)
    e_in = _printed("euler_number", report.euler_input)
    e_cov = _printed("euler_number", report.euler_cover)
    chi_in = _printed("chi_orb", report.chi_orb_input)
    chi_cov = _printed("chi_orb", report.chi_orb_cover)
    payload = {
        "schema": SCHEMA,
        "input": args.descriptor,
        "cover": cover_text,
        "euler_number": {"input": e_in, "cover": e_cov, "doubled": report.euler_doubled},
        "chi_orb": {"input": chi_in, "cover": chi_cov, "doubled": report.chi_orb_doubled},
        "cover_admissible": adm.admissible,
        "cover_violations": [v.value for v in adm.violations],
        "cover_case": adm.case_label,
    }
    lines = [
        f"cover: {cover_text}",
        f"euler_number: {e_in} -> {e_cov} (doubled: {'yes' if report.euler_doubled else 'no'})",
        f"chi_orb: {chi_in} -> {chi_cov} (doubled: {'yes' if report.chi_orb_doubled else 'no'})",
        (
            f"cover admissible: yes  case={adm.case_label}"
            if adm.admissible
            else "cover admissible: no (" + ", ".join(v.value for v in adm.violations) + ")"
        ),
    ]
    return _finish(args, payload, "\n".join(lines))


def _cmd_psi_check(args) -> CommandResult:
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    M = invariants.parse_seifert(args.descriptor)
    seed = args.seed if args.seed is not None else _default_seed()
    report = admissibility.check_admissible(M)
    passed = census.fiber_flip_conjugacy_check(M, args.trials, report)
    payload = {
        "schema": SCHEMA,
        "manifold": invariants.print_seifert(report.normalized),
        "trials": args.trials,
        "seed": seed,
        "passed": passed,
    }
    text = f"passed: {'true' if passed else 'false'} (trials={args.trials}, seed={seed})"
    return _finish(args, payload, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifinv",
        description="Exact invariants, admissibility, and involution census "
        "for orientable Seifert fibered 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="invariants, geometry, and case of a descriptor")
    p.add_argument("descriptor")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("admissible", help="does the descriptor admit a reversing involution")
    p.add_argument("descriptor")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_admissible)

    p = sub.add_parser("enumerate", help="admissible descriptors in a bounded window")
    p.add_argument("--gmax", type=int, required=True, help="largest base genus, 0 to 50")
    p.add_argument("--nmax", type=int, required=True, help="largest fiber count, 0 to 100")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("mcg", help="torus mapping class computations")
    mcg_sub = p.add_subparsers(dest="mcg_command", required=True)
    pc = mcg_sub.add_parser("class", help="conjugacy class of an involution 'a,b;c,d'")
    pc.add_argument("matrix")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(handler=_cmd_mcg_class)
    pj = mcg_sub.add_parser("conjugate", help="search for a bounded conjugator")
    pj.add_argument("matrix_a")
    pj.add_argument("matrix_b")
    pj.add_argument(
        "--bound", type=int, default=5, help="largest |entry| searched, 1 to 32 (default 5)"
    )
    pj.add_argument("--json", action="store_true")
    pj.set_defaults(handler=_cmd_mcg_conjugate)

    p = sub.add_parser("extend", help="does a boundary action extend across a filling")
    p.add_argument("--slope", required=True, help="filling slope 'm,l'")
    p.add_argument("--matrix", required=True, help="boundary action 'a,b;c,d'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("verify-v221", help="verify the V(2,2;-1) involution boundary data")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_v221)

    p = sub.add_parser("surface-classes", help="involution classes of a closed surface")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--filter", choices=["all", "preserving", "reversing"], default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_surface_classes)

    p = sub.add_parser("census", help="reversing involutions up to conjugacy")
    p.add_argument("descriptor")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("lift", help="orientable-base double cover of an n1 descriptor")
    p.add_argument("descriptor")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser(
        "psi-check",
        help="refuse an inadmissible descriptor, else run the V(2,2;-1) validator once",
    )
    p.add_argument("descriptor")
    p.add_argument(
        "--trials",
        type=int,
        default=100,
        help="0 passes vacuously; any positive count runs the validator once (default 100)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="echoed in the output and otherwise unused (default: SEIFERT_SEED, else 0)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_psi_check)

    return parser


def run(argv: list[str]) -> CommandResult:
    """Dispatch one invocation; never raises for user errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        code = exc.code if isinstance(exc.code, int) else 2
        if code == 0:
            return CommandResult("ok", None, "", 0)
        return CommandResult("error", None, "usage error", 2)
    try:
        return args.handler(args)
    except ValueError as exc:  # SeifertParseError included
        return CommandResult("error", None, str(exc), 1)


def main(argv: list[str] | None = None) -> None:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.status == "ok":
        if result.message:
            print(result.message)
    else:
        print(f"error: {result.message}", file=sys.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
