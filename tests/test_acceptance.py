"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import random
import time
from pathlib import Path

from seifinv import (
    BaseSurface,
    FillingSlope,
    IntMatrix2,
    SeifertInvariants,
    SeifertParseError,
    classes_for_genus,
    enumerate_factorizations,
    euler_number,
    extension_condition,
    find_conjugator,
    involution_class,
    is_involution,
    lift_to_double_cover,
    mat_det,
    mat_mul,
    orbifold_euler_characteristic,
    parse_seifert,
    print_seifert,
    verify_v221_construction,
)
from seifinv.cli import run
from util import coprime_pair, inverse, random_descriptor, v221_unit_tampers

GOLDEN = Path(__file__).parent / "data" / "enumerate_gmax3_nmax8.txt"


def _report(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def pm(A):
    return frozenset({A, IntMatrix2(-A.a, -A.b, -A.c, -A.d)})


def test_criterion_1_case_table_enumeration():
    start = time.perf_counter()
    result = run(["enumerate", "--gmax", "3", "--nmax", "8"])
    elapsed = time.perf_counter() - start

    golden_ok = result.message + "\n" == GOLDEN.read_text()

    conditions_ok = True
    partition_ok = True
    for line in result.message.splitlines():
        desc_text, case_field, geom_field = line.split("  ")
        M = parse_seifert(desc_text)
        n = len(M.pairs)
        conditions_ok &= euler_number(M) == 0
        conditions_ok &= all(q == 2 for q, _ in M.pairs)
        conditions_ok &= n % 2 == 0 and M.b == -(n // 2)
        chi = orbifold_euler_characteristic(M)
        case = case_field.removeprefix("case=")
        geom = geom_field.removeprefix("geometry=")
        if chi > 0:
            partition_ok &= case.startswith("1") and geom == "S2xR"
        elif chi == 0:
            partition_ok &= case.startswith("2") and geom == "E3"
        else:
            partition_ok &= case.startswith("3") and geom == "H2xR"

    _report(
        1,
        golden_ok and conditions_ok and partition_ok and elapsed < 1.0,
        f"admissible case table matches golden file ({elapsed:.3f}s)",
    )


def test_criterion_2_surface_class_counts():
    start = time.perf_counter()
    totals_ok = all(len(classes_for_genus(g)) == 4 + 2 * g for g in range(21))
    torus_ok = [len(classes_for_genus(1, sel)) for sel in ("preserving", "reversing")] == [3, 3]
    elapsed = time.perf_counter() - start
    _report(
        2,
        totals_ok and torus_ok and elapsed < 1.0,
        f"surface involution counts 4+2g for g<=20, split 3/3 at g=1 ({elapsed:.3f}s)",
    )


def test_criterion_3_extension_conditions():
    ok = extension_condition(FillingSlope(1, 2)) == pm(IntMatrix2(1, -1, 0, -1))
    for x in range(-5, 6):
        ok &= extension_condition(FillingSlope(x, 1)) == pm(IntMatrix2(1, -2 * x, 0, -1))
    _report(3, ok, "extension conditions match the derived matrices bit-exactly")


def test_criterion_4_constraint_solver_uniqueness():
    # The filling-frame systems of the two slope families: fix v_fix up to a
    # sign eps and negate v_flip up to the same eps, each with the gluing G
    # that carries the frame to the outer framing of its slope.
    systems = [
        ((-2, 1), (0, 1), IntMatrix2(0, 1, 1, 2), FillingSlope(1, 2), pm(IntMatrix2(1, 0, -1, -1))),
        ((1, 0), (0, 1), IntMatrix2(-1, 0, 0, 1), FillingSlope(0, 1), pm(IntMatrix2(1, 0, 0, -1))),
    ]
    ok = True
    for v_fix, v_flip, G, slope, expected in systems:
        # Independent exhaustive search over the entry window [-4, 4].
        brute = set()
        rng = range(-4, 5)
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        if abs(a * d - b * c) != 1:
                            continue
                        for eps in (1, -1):
                            fix_ok = (
                                a * v_fix[0] + b * v_fix[1] == eps * v_fix[0]
                                and c * v_fix[0] + d * v_fix[1] == eps * v_fix[1]
                            )
                            flip_ok = (
                                a * v_flip[0] + b * v_flip[1] == -eps * v_flip[0]
                                and c * v_flip[0] + d * v_flip[1] == -eps * v_flip[1]
                            )
                            if fix_ok and flip_ok:
                                brute.add(IntMatrix2(a, b, c, d))
        ok &= brute == set(expected)
        carried = {mat_mul(mat_mul(G, A), inverse(G)) for A in brute}
        ok &= carried == set(extension_condition(slope))
    _report(
        4, ok, "filling-frame systems have exactly the +- pairs; glued, they are the extension conditions"
    )


def test_criterion_5_v221_verification():
    ok = verify_v221_construction().passed

    tampers = list(v221_unit_tampers())
    ok &= len(tampers) == 32
    ok &= not any(verify_v221_construction(inner, outer).passed for inner, outer in tampers)

    # Push alpha = -(a1 + a2 + a3) through the extension-condition members
    # that keep (+1) or reverse (-1) the fiber; each sends a_i to b t + d a_i.
    fillings = (FillingSlope(1, 2), FillingSlope(1, 2), FillingSlope(-1, 1))
    for sign, expected in ((1, (1, 1, 1, 0)), (-1, (-1, -1, -1, 0))):
        mats = [next(A for A in extension_condition(f) if A.a == sign) for f in fillings]
        alpha_image = tuple(-A.d for A in mats) + (-sum(A.b for A in mats),)
        ok &= alpha_image == expected and all(A.c == 0 for A in mats)
    ok &= verify_v221_construction(mats).passed  # the fiber-reversing members

    _report(5, ok, "V(2,2;-1) data verifies; all 32 perturbations fail; homology identity holds")


def test_criterion_6_conjugacy_oracle_agreement():
    start = time.perf_counter()
    rng = range(-3, 4)
    involutions = [
        IntMatrix2(a, b, c, d)
        for a in rng
        for b in rng
        for c in rng
        for d in rng
        if abs(a * d - b * c) == 1 and is_involution(IntMatrix2(a, b, c, d))
    ]
    agreement = all(
        (find_conjugator(A, B, 5) is not None) == (involution_class(A) == involution_class(B))
        for A in involutions
        for B in involutions
    )
    elapsed = time.perf_counter() - start
    _report(
        6,
        agreement and elapsed < 60.0,
        f"classifier agrees with bounded conjugator search on {len(involutions)}^2 pairs "
        f"({elapsed:.1f}s)",
    )


def test_criterion_7_census():
    report = enumerate_factorizations(
        parse_seifert("(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))")
    )
    preserved = [r for r in report.records if r.fiber_orientation == "preserved"]
    reversed_ = [r for r in report.records if r.fiber_orientation == "reversed"]
    ok = (
        report.count == 6
        and len(preserved) == 2
        and len(reversed_) == 4
    )
    _report(7, ok, "census yields 6 records (2 fiber-preserving, 4 fiber-reversing)")


def test_criterion_8_double_cover():
    rng = random.Random(1234)
    ok = True
    for _ in range(50):
        genus = rng.randint(1, 6)
        pairs = tuple(coprime_pair(rng) for _ in range(rng.randint(0, 4)))
        desc = SeifertInvariants(BaseSurface(genus, False), pairs, rng.randint(-5, 5))
        cover, report = lift_to_double_cover(desc)
        ok &= cover.base.orientable
        ok &= euler_number(cover) == 2 * euler_number(desc)
        ok &= orbifold_euler_characteristic(cover) == 2 * orbifold_euler_characteristic(desc)
        ok &= report.euler_doubled and report.chi_orb_doubled

    klein = SeifertInvariants(BaseSurface(2, False))
    cover, _ = lift_to_double_cover(klein)
    ok &= print_seifert(cover) == "(1,o1|)"
    _report(8, ok, "double cover doubles e and chi_orb on 50 random descriptors; Klein -> torus")


def test_criterion_9_parser_round_trip_and_errors():
    rng = random.Random(987654321)
    ok = True
    for _ in range(10_000):
        desc = random_descriptor(rng)
        ok &= parse_seifert(print_seifert(desc)) == desc

    malformed = [
        "",
        "(",
        ")",
        "0,o1|",
        "(0)",
        "(0,o1",
        "(0,o1|",
        "(0,o1|)x",
        "(,o1|)",
        "(0,x1|)",
        "(0,o1)",
        "(0,o1|(2,1)",
        "(0,o1|(2,1),)",
        "(0,o1|(2,1)(2,1))",
        "(0,o1|(2,2))",
        "(0,o1|(4,2))",
        "(0,o1|(0,1))",
        "(0,o1|(-2,1))",
        "(-1,o1|)",
        "(0,n1|)",
        "(0,o1|(2,1) , (2, 1)",
        "(1,o1|(a,1))",
        "(1,o1|(1,))",
        "(1,o1|(1,2)))",
    ]
    for text in malformed:
        try:
            parse_seifert(text)
        except SeifertParseError as exc:
            ok &= isinstance(exc.position, int) and 0 <= exc.position <= len(text)
        except Exception:
            ok = False  # anything but a positioned parse error is a defect
        else:
            ok = False
    _report(9, ok, "10,000 round-trips hold; malformed inputs give positioned errors")
