import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from seifinv import (
    GeometryType,
    Violation,
    admissibility,
    check_admissible,
    CensusScopeError,
    FillingSlope,
    IntMatrix2,
    enumerate_factorizations,
    euler_number,
    normalize,
    orbifold_euler_characteristic,
    parse_seifert,
)
from seifinv.cli import run
from util import M, window


class TestCheckAdmissible:
    def test_flat_four_fiber_manifold(self):
        rep = check_admissible(M(0, [(2, 1)] * 4, -2))
        assert rep.admissible
        assert rep.violations == ()
        assert rep.case_label == "2a"
        assert rep.geometry == GeometryType.E3

    def test_order_three_fibers(self):
        rep = check_admissible(M(0, [(3, 1)] * 3, -1))
        assert not rep.admissible
        assert rep.violations == (Violation.ORDER_GREATER_THAN_TWO,)
        assert rep.case_label is None
        assert rep.geometry == GeometryType.OTHER

    def test_nonzero_euler_and_wrong_b(self):
        rep = check_admissible(M(1, [(1, 1)]))
        assert not rep.admissible
        assert set(rep.violations) == {Violation.NONZERO_EULER, Violation.WRONG_B_TERM}

    def test_odd_count(self):
        rep = check_admissible(M(0, [(2, 1)]))
        assert Violation.ODD_COUNT in rep.violations

    def test_non_orientable_base_directed_to_cover(self):
        with pytest.raises(ValueError, match="double cover"):
            check_admissible(M(2, [], 0, orientable=False))

    def test_invariant_under_normalize_and_permutation(self):
        rng = random.Random(7)
        pairs = [(2, 1), (2, 3), (1, -1), (2, -1)]
        base = M(0, pairs, -1)
        reference = check_admissible(base)
        assert check_admissible(normalize(base)) == reference
        for _ in range(10):
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            got = check_admissible(M(0, shuffled, -1))
            assert got.admissible == reference.admissible
            assert set(got.violations) == set(reference.violations)

    def test_a_cone_point_swap_is_outside_the_rule(self):
        # (0,o1|(3,1),(3,-1)) has e = 0.  A rotation of S^2 that swaps its two
        # cone points, times t -> -t, extends across both fillings: the fiber
        # flip carries one filling's slope to the other's.  The rule decides
        # only base actions that fix every cone point, so it answers no.
        M3 = parse_seifert("(0,o1|(3,1),(3,-1))")
        assert euler_number(M3) == 0
        assert check_admissible(M3).violations == (Violation.ORDER_GREATER_THAN_TWO,)
        one, other = FillingSlope(1, 3), FillingSlope(-1, 3)
        assert [FillingSlope(p, q) for q, p in M3.pairs] == [one, other]
        flip = IntMatrix2(-1, 0, 0, 1)

        def act(A, s):  # A on the column (m, l)
            return FillingSlope(A.a * s.m + A.b * s.l, A.c * s.m + A.d * s.l)

        assert act(flip, one) == other
        assert act(flip, other) == one

    def test_the_rule_is_stated_in_the_same_words(self):
        rule = (
            "with orientable base, a descriptor admits a fiber-preserving, "
            "orientation-reversing involution whose base action fixes every cone "
            "point (Psi acts trivially on the base) exactly when e = 0 and no "
            "exceptional fiber has order above 2. OddCount and WrongBTerm are "
            "consequences: each forces a nonzero e when no order is above 2. "
            "Involutions that swap cone points are not decided."
        )
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        texts = {
            "README": readme,
            "module": admissibility.__doc__,
            "Violation": Violation.__doc__,
            "check_admissible": check_admissible.__doc__,
        }
        for where, text in texts.items():
            words = " ".join(text.replace("`", "").split())
            assert rule.casefold() in words.casefold(), where

    def test_violation_vocabulary(self):
        assert {v.value for v in Violation} == {
            "NonzeroEuler",
            "OrderGreaterThanTwo",
            "OddCount",
            "WrongBTerm",
        }


class TestExcludeFixedPointFree:
    """Fixed-point-free reversing involutions are ruled out on every
    manifold but the products S1 x S: the trivial bundles (g,o1|) with b = 0
    once normalized.  The census refuses the products and takes the marked
    non-products."""

    def test_trivial_product_not_excluded(self):
        report = check_admissible(M(0))
        assert report.admissible and report.normalized == M(0)
        with pytest.raises(CensusScopeError, match="products are outside"):
            enumerate_factorizations(M(0))

    def test_marked_manifold_excluded(self):
        assert enumerate_factorizations(M(0, [(2, 1), (2, 1)], -1)).count == 6

    def test_nonzero_obstruction_excluded(self):
        assert not check_admissible(M(0, [], 3)).admissible
        with pytest.raises(ValueError, match="NonzeroEuler"):
            enumerate_factorizations(M(0, [], 3))

    def test_unnormalized_product_detected(self):
        assert normalize(M(1, [(1, 2), (1, -2)])) == M(1)

    def test_admissible_non_products_always_excluded(self):
        # An admissible descriptor has b = -n/2, so it is a product exactly
        # when it has no marked point.
        for desc in window(3, 6):
            assert (not desc.pairs) == (desc.b == 0), desc


class TestClassifyCase:
    """Case labels, read off the one admissibility report."""

    def test_trivial_sphere_bundle(self):
        assert check_admissible(M(0)).case_label == "1a"

    def test_three_torus(self):
        assert check_admissible(M(1)).case_label == "2b"

    def test_torus_base_with_fibers(self):
        assert check_admissible(M(1, [(2, 1), (2, 1)], -1)).case_label == "3b"

    def test_positive_chi_case_has_genus_zero(self):
        # The positive-curvature two-fiber case lives over the sphere; a
        # genus-1 descriptor with the same fiber data is hyperbolic (3b).
        assert check_admissible(parse_seifert("(0,o1|(2,1),(2,1),(1,-1))")).case_label == "1b"
        assert check_admissible(parse_seifert("(1,o1|(2,1),(2,1),(1,-1))")).case_label == "3b"

    def test_higher_genus_trivial_bundles_are_3a(self):
        # chi_orb < 0 wins even with n = 0.
        assert check_admissible(M(2)).case_label == "3a"
        assert check_admissible(M(5)).case_label == "3a"

    def test_genus_zero_many_fibers_is_3c(self):
        assert check_admissible(M(0, [(2, 1)] * 6, -3)).case_label == "3c"

    def test_rejects_inadmissible(self):
        report = check_admissible(M(0, [(3, 1)] * 3, -1))
        assert report.admissible is False and report.case_label is None

    def test_partition_by_chi_sign(self):
        for desc in window(4, 10):
            chi = orbifold_euler_characteristic(desc)
            label = check_admissible(desc).case_label
            if chi > 0:
                assert label in ("1a", "1b")
            elif chi == 0:
                assert label in ("2a", "2b")
            else:
                assert label in ("3a", "3b", "3c")


def enumerated(g_max, n_max):
    """The descriptors of ``enumerate --json``'s rows, each parsed back, after
    checking the row's case and geometry against ``check_admissible``."""
    argv = ["enumerate", "--gmax", str(g_max), "--nmax", str(n_max), "--json"]
    got = []
    for row in json.loads(run(argv).message)["descriptors"]:
        desc = parse_seifert(row["descriptor"])
        report = check_admissible(desc)
        assert (row["case"], row["geometry"]) == (report.case_label, report.geometry.value), row
        got.append(desc)
    return got


class TestEnumerate:
    """The enumerate command's rows against ``window``, built one checked
    descriptor at a time; its bounds against the library's window."""

    def test_small_window(self):
        assert enumerated(0, 2) == window(0, 2) == [M(0), M(0, [(2, 1), (2, 1)], -1)]

    def test_trivial_window(self):
        assert enumerated(0, 0) == window(0, 0) == [M(0)]

    def test_count_matches_closed_form(self):
        got = enumerated(1, 4)
        assert got == window(1, 4)
        assert len(got) == (1 + 1) * (4 // 2 + 1) == 6

    def test_every_output_is_admissible_and_normalized(self):
        got = enumerated(3, 8)
        assert got == window(3, 8)
        for desc in got:
            assert normalize(desc) == desc
            assert euler_number(desc) == 0
            assert all(q == 2 for q, _ in desc.pairs)
            n = len(desc.pairs)
            assert n % 2 == 0 and desc.b == -(n // 2)
            assert check_admissible(desc).admissible

    def test_sorted_by_genus_then_fiber_count(self):
        got = enumerated(2, 6)
        assert got == window(2, 6)
        keys = [(d.base.genus, len(d.pairs)) for d in got]
        assert keys == sorted(keys)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            admissibility._window(-1, 2)

    @pytest.mark.parametrize("bound", [2.5, "3", True])
    def test_non_int_bounds_refused(self, bound):
        for args, name in (((bound, 2), "gmax"), ((2, bound), "nmax")):
            with pytest.raises(ValueError) as exc:
                admissibility._window(*args)
            assert str(exc.value) == f"{name} must be an integer, got {bound!r}"

    def test_window_at_the_caps(self):
        assert (admissibility.MAX_GMAX, admissibility.MAX_NMAX) == (50, 100)
        got = enumerated(50, 100)
        assert got == window(50, 100)
        assert len(got) == 51 * 51
        assert got[-1] == M(50, [(2, 1)] * 100, -50)

    @pytest.mark.parametrize(
        "g_max, n_max, message",
        [(51, 0, "gmax must be at most 50, got 51"), (0, 101, "nmax must be at most 100, got 101")],
    )
    def test_window_past_a_cap_refused_first(self, monkeypatch, g_max, n_max, message):
        def unreachable(*args):  # the refusal comes before any descriptor is built
            raise AssertionError("a descriptor was built")

        monkeypatch.setattr(admissibility, "SeifertInvariants", unreachable)
        with pytest.raises(ValueError) as exc:
            admissibility._window(g_max, n_max)
        assert str(exc.value) == message


def _fraction_verdict(desc):
    """e, chi_orb, the violation tags, the case and the geometry of an
    orientable-base descriptor, from per-pair ``Fraction`` sums and the
    textbook fold (q = 1 pairs into b, and b + floor(p/q) for the others)."""
    g = desc.base.genus
    e, chi, b, orders = Fraction(-desc.b), Fraction(2 - 2 * g), desc.b, []
    for q, p in desc.pairs:
        e -= Fraction(p, q)
        chi -= 1 - Fraction(1, q)
        b += p // q
        if q > 1:
            orders.append(q)
    n = orders.count(2)
    tags = []
    if e != 0:
        tags.append(Violation.NONZERO_EULER)
    if any(q > 2 for q in orders):
        tags.append(Violation.ORDER_GREATER_THAN_TWO)
    if n % 2:
        tags.append(Violation.ODD_COUNT)
    if all(q == 2 for q in orders) and b != Fraction(-n, 2):
        tags.append(Violation.WRONG_B_TERM)
    if tags:
        return e, chi, tuple(tags), None, GeometryType.OTHER
    if chi > 0:
        return e, chi, (), ("1a" if n == 0 else "1b"), GeometryType.S2xR
    if chi == 0:
        return e, chi, (), ("2a" if g == 0 else "2b"), GeometryType.E3
    return e, chi, (), ("3a" if g >= 2 else "3b" if g == 1 else "3c"), GeometryType.H2xR


class TestFractionOracle:
    """The verdicts checked against per-pair ``fractions.Fraction`` sums."""

    def test_widest_window(self):
        for desc in window(50, 100):
            e, chi, tags, label, geom = _fraction_verdict(desc)
            assert (e, tags) == (0, ())
            rep = check_admissible(desc)
            assert rep.admissible and rep.violations == ()
            assert (rep.case_label, rep.geometry) == (label, geom), desc
            assert (rep.euler_number, rep.chi_orb) == (e, chi)

    def test_random_tallies(self):
        rng = random.Random(1701)
        seen, low_orders = set(), set()
        for i in range(800):
            # Every fourth descriptor has fibers of order two only; the others
            # mix order two with orders 3-7.  Up to three q = 1 strays go
            # anywhere in the list.
            orders = (2,) if i % 4 == 0 else rng.choice([(2, 3, 4, 5, 6, 7), (2, 2, 2, 3, 5, 7)])
            pairs = []
            for _ in range(rng.choice((0, 1, 2, 3, 4, 6, 9, 20, 51, 120))):
                q = rng.choice(orders)
                p = rng.choice([k for k in range(-3 * q, 3 * q + 1) if math.gcd(k, q) == 1])
                pairs.append((q, p))
            for _ in range(rng.randint(0, 3)):
                pairs.insert(rng.randint(0, len(pairs)), (1, rng.randint(-4, 4)))
            total = sum(Fraction(p, q) for q, p in pairs)
            # Half the time b cancels the integer part of the fiber sum, so
            # e = 0 wherever that sum is integral.
            b = -math.floor(total) if rng.random() < 0.5 else rng.randint(-30, 30)
            desc = M(rng.choice((0, 0, 1, 2, 5)), pairs, b)
            e, chi, tags, label, geom = _fraction_verdict(desc)
            assert euler_number(desc) == e
            assert orbifold_euler_characteristic(desc) == chi
            rep = check_admissible(desc)
            assert (rep.euler_number, rep.chi_orb) == (e, chi)
            assert rep.violations == tags, desc
            assert (rep.admissible, rep.case_label, rep.geometry) == (not tags, label, geom)
            seen.update(tags)
            seen.add(label)
            if all(q <= 2 for q, _ in pairs):
                # No order above 2: the reference's b and count tags follow e.
                nonzero = Violation.NONZERO_EULER in tags
                assert (Violation.WRONG_B_TERM in tags) == nonzero, desc
                assert Violation.ODD_COUNT not in tags or nonzero, desc
                low_orders.add(e == 0)
        assert seen >= set(Violation) | {"1a", "1b", "2a", "2b", "3a", "3b", "3c"}
        assert low_orders == {True, False}
