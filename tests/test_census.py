import random

import pytest

from seifinv import (
    CensusScopeError,
    InvolutionKind,
    check_admissible,
    enumerate_factorizations,
    euler_number,
    lift_to_double_cover,
    normalize,
    orbifold_euler_characteristic,
    parse_seifert,
    print_seifert,
)
from seifinv.cli import run
from util import M, coprime_pair

FLAT = parse_seifert("(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))")


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


class TestRefusalEcho:
    """A refusal echoes the descriptor whole up to 200 characters; a longer
    one as its first 120 and last 40 characters and its length, before the
    violation tags."""

    @staticmethod
    def refusal(desc):
        with pytest.raises(ValueError) as exc:
            enumerate_factorizations(desc)
        return str(exc.value)

    def test_two_hundred_characters_are_echoed_whole(self):
        desc = M(0, [(3, 10**188 + 1)])  # (0,o1|(3,100...01)): 200 characters
        text = print_seifert(desc)
        assert len(text) == 200
        tags = "(NonzeroEuler, OrderGreaterThanTwo)"
        assert self.refusal(desc) == f"{text} admits no reversing involution {tags}"

    def test_a_longer_descriptor_is_echoed_short(self):
        desc = M(0, [(3, 10**189 + 1)])
        text = print_seifert(desc)
        assert len(text) == 201
        assert self.refusal(desc) == (
            f"{text[:120]}...{text[-40:]} (201 characters) admits no reversing involution "
            "(NonzeroEuler, OrderGreaterThanTwo)"
        )

    def test_a_120_kb_descriptor_names_every_violation(self):
        desc = M(0, [(2, 1)] * 20_001, 3)
        text = print_seifert(desc)
        assert len(text) > 120_000
        tags = "(NonzeroEuler, OddCount, WrongBTerm)"
        expected = (
            f"(0,o1|{'(2,1),' * 19}...,1),{'(2,1),' * 5}(1,3)) ({len(text)} characters) "
            f"admits no reversing involution {tags}"
        )
        assert self.refusal(desc) == expected
        for argv in (["census", text], ["psi-check", text], ["psi-check", text, "--trials", "0"]):
            result = run(argv)
            assert (result.exit_code, result.message) == (1, expected), argv[2:]


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
