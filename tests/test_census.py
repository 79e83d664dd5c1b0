import random
from functools import partial

import pytest

from seifinv import (
    CensusScopeError,
    IntMatrix2,
    InvolutionKind,
    check_admissible,
    enumerate_factorizations,
    euler_number,
    fiber_flip_conjugacy_check,
    filling,
    lift_to_double_cover,
    normalize,
    orbifold_euler_characteristic,
    parse_seifert,
    print_seifert,
    verify_v221_construction,
)
from util import M, coprime_pair, v221_unit_tampers

FLAT = parse_seifert("(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))")
EIGHT = parse_seifert("(0,o1|" + "(2,1)," * 8 + "(1,-4))")


class TestEnumerateFactorizations:
    def test_flat_manifold_has_six_records(self):
        report = enumerate_factorizations(FLAT)
        assert report.count == 6
        preserved = [r for r in report.records if r.fiber_orientation == "preserved"]
        reversed_ = [r for r in report.records if r.fiber_orientation == "reversed"]
        assert len(preserved) == 2
        assert len(reversed_) == 4

    def test_breakdown_by_class_and_fixed_count(self):
        report = enumerate_factorizations(FLAT)
        summary = {
            (r.fiber_orientation, r.surface_class.kind, r.fixed_boundary_count)
            for r in report.records
        }
        assert summary == {
            ("preserved", InvolutionKind.SPIT, 0),
            ("preserved", InvolutionKind.SPIT, 2),
            ("reversed", InvolutionKind.REFL, 0),
            ("reversed", InvolutionKind.REFL, 2),
            ("reversed", InvolutionKind.ANTI, 0),
            ("reversed", InvolutionKind.ANTI, 2),
        }

    def test_two_fiber_case(self):
        report = enumerate_factorizations(M(0, [(2, 1), (2, 1)], -1))
        assert report.count == 6
        assert all(r.fixed_boundary_count in (0, 2) for r in report.records)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            enumerate_factorizations(M(0, [(3, 1)] * 3, -1))

    def test_rejects_higher_genus(self):
        with pytest.raises(CensusScopeError):
            enumerate_factorizations(M(1, [(2, 1), (2, 1)], -1))

    def test_rejects_trivial_product(self):
        with pytest.raises(CensusScopeError):
            enumerate_factorizations(M(0))

    def test_rejects_larger_marked_sets(self):
        with pytest.raises(CensusScopeError):
            enumerate_factorizations(M(0, [(2, 1)] * 6, -3))


class TestFiberFlipConjugacy:
    def test_flat_manifold_passes(self):
        assert fiber_flip_conjugacy_check(FLAT)
        assert fiber_flip_conjugacy_check(FLAT, check_admissible(FLAT))

    def test_inadmissible_refused(self):
        bad = M(0, [(2, 1), (2, 1)])
        with pytest.raises(ValueError, match=r"admits no reversing involution \(NonzeroEuler, WrongBTerm\)$"):
            fiber_flip_conjugacy_check(bad)

    # psi-check reads its verdict from the one V(2,2;-1) validator: bound to
    # tampered data, it must fail.
    def test_tampered_descriptor_fails(self, monkeypatch):
        bad = (IntMatrix2(-1, 2, 0, 1), IntMatrix2(-1, -2, 0, 1), IntMatrix2(-1, 1, 0, 1))
        monkeypatch.setattr(filling, "verify_v221_construction", partial(verify_v221_construction, bad))
        assert not fiber_flip_conjugacy_check(FLAT)

    @pytest.mark.parametrize("manifold", [FLAT, EIGHT], ids=["4-fiber", "8-fiber"])
    def test_every_unit_tamper_fails(self, manifold, monkeypatch):
        tampers = list(v221_unit_tampers())
        assert len(tampers) == 32
        for inner, outer in tampers:
            validator = partial(verify_v221_construction, inner, outer)
            monkeypatch.setattr(filling, "verify_v221_construction", validator)
            assert not fiber_flip_conjugacy_check(manifold)


class TestLiftToDoubleCover:
    def test_klein_bottle_base(self):
        cover, report = lift_to_double_cover(M(2, [], 0, orientable=False))
        assert print_seifert(cover) == "(1,o1|)"
        assert report.euler_doubled and report.chi_orb_doubled
        assert report.cover_admissibility.admissible
        assert report.cover_admissibility.case_label == "2b"

    def test_projective_plane_base_with_fibers(self):
        cover, report = lift_to_double_cover(M(1, [(2, 1), (2, 1)], -2, orientable=False))
        assert cover == M(0, [(2, 1)] * 4, -4)
        assert report.euler_doubled and report.chi_orb_doubled
        assert not report.cover_admissibility.admissible

    def test_rejects_orientable_base(self):
        with pytest.raises(ValueError):
            lift_to_double_cover(M(1))

    def test_doubling_property_randomized(self):
        rng = random.Random(424243)
        for _ in range(50):
            genus = rng.randint(1, 6)
            pairs = tuple(coprime_pair(rng) for _ in range(rng.randint(0, 4)))
            desc = M(genus, pairs, rng.randint(-5, 5), orientable=False)
            cover, report = lift_to_double_cover(desc)
            assert cover.base.orientable
            assert cover.base.genus == genus - 1
            assert euler_number(cover) == 2 * euler_number(desc)
            assert orbifold_euler_characteristic(cover) == 2 * orbifold_euler_characteristic(desc)
            assert report.euler_doubled and report.chi_orb_doubled

    def test_cover_feeds_admissibility(self):
        desc = M(1, [(2, 1), (2, 1)], -2, orientable=False)
        cover, _ = lift_to_double_cover(desc)
        report = check_admissible(cover)
        assert normalize(cover) == cover
        assert report.admissible is False
