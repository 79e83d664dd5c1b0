import random

import pytest

from seifinv import (
    BaseSurface,
    GeometryType,
    SeifertInvariants,
    Violation,
    check_admissible,
    enumerate_admissible,
    euler_number,
    exclude_fixed_point_free,
    normalize,
    orbifold_euler_characteristic,
    parse_seifert,
)


def M(genus, pairs=(), b=0, orientable=True):
    return SeifertInvariants(BaseSurface(genus, orientable), tuple(pairs), b)


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

    def test_violation_vocabulary(self):
        assert {v.value for v in Violation} == {
            "NonzeroEuler",
            "OrderGreaterThanTwo",
            "OddCount",
            "WrongBTerm",
        }


class TestExcludeFixedPointFree:
    def test_trivial_product_not_excluded(self):
        assert exclude_fixed_point_free(M(2)) is False

    def test_marked_manifold_excluded(self):
        assert exclude_fixed_point_free(M(0, [(2, 1), (2, 1)], -1)) is True

    def test_nonzero_obstruction_excluded(self):
        assert exclude_fixed_point_free(M(0, [], 3)) is True

    def test_unnormalized_product_detected(self):
        assert exclude_fixed_point_free(M(1, [(1, 2), (1, -2)])) is False

    def test_admissible_non_products_always_excluded(self):
        for desc in enumerate_admissible(3, 6):
            if desc.pairs or desc.b != 0:
                assert exclude_fixed_point_free(desc)


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
        for desc in enumerate_admissible(4, 10):
            chi = orbifold_euler_characteristic(desc)
            label = check_admissible(desc).case_label
            if chi > 0:
                assert label in ("1a", "1b")
            elif chi == 0:
                assert label in ("2a", "2b")
            else:
                assert label in ("3a", "3b", "3c")


class TestEnumerate:
    def test_small_window(self):
        got = enumerate_admissible(0, 2)
        assert got == [M(0), M(0, [(2, 1), (2, 1)], -1)]

    def test_trivial_window(self):
        assert enumerate_admissible(0, 0) == [M(0)]

    def test_count_matches_closed_form(self):
        got = enumerate_admissible(1, 4)
        assert len(got) == (1 + 1) * (4 // 2 + 1) == 6

    def test_every_output_is_admissible_and_normalized(self):
        for desc in enumerate_admissible(3, 8):
            assert normalize(desc) == desc
            assert euler_number(desc) == 0
            assert all(q == 2 for q, _ in desc.pairs)
            n = len(desc.pairs)
            assert n % 2 == 0 and desc.b == -(n // 2)
            assert check_admissible(desc).admissible

    def test_sorted_by_genus_then_fiber_count(self):
        keys = [(d.base.genus, len(d.pairs)) for d in enumerate_admissible(2, 6)]
        assert keys == sorted(keys)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            enumerate_admissible(-1, 2)
