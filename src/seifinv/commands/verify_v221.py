"""``seifinv verify-v221``: the V(2,2;-1) involution boundary data."""

from .. import filling


def handle(args):
    report = filling.verify_v221_construction()
    slopes = [str(f) for f in report.assignment] if report.assignment else None
    payload = {
        "matrices": [str(A) for A in report.matrices],
        "involution_ok": list(report.involution_ok),
        "assignment": slopes,
        "extends_ok": list(report.extends_ok),
        "passed": report.passed,
    }
    yes = ("no", "yes")
    lines = [
        f"matrix {A}: involution={yes[report.involution_ok[i]]} "
        f"filling={slopes[i] if slopes else '-'} extends={yes[report.extends_ok[i]]}"
        for i, A in enumerate(report.matrices)
    ]
    return payload, lines + [f"result: {'PASS' if report.passed else 'FAIL'}"]
