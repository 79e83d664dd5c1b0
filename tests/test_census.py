import random
from dataclasses import replace

import pytest

from seifinv import (
    BaseSurface,
    CensusScopeError,
    IntMatrix2,
    InvolutionKind,
    SeifertInvariants,
    V221BoundaryData,
    check_admissible,
    enumerate_factorizations,
    euler_number,
    fiber_flip_conjugacy_check,
    fiber_flip_descriptor,
    lift_to_double_cover,
    normalize,
    orbifold_euler_characteristic,
    parse_seifert,
    print_seifert,
)
from util import coprime_pair

FLAT = parse_seifert("(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))")
EIGHT = parse_seifert("(0,o1|" + "(2,1)," * 8 + "(1,-4))")


def M(genus, pairs=(), b=0, orientable=True):
    return SeifertInvariants(BaseSurface(genus, orientable), tuple(pairs), b)


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
    def test_flat_manifold_many_trials(self):
        assert fiber_flip_conjugacy_check(FLAT, trials=100)

    def test_zero_trials_vacuous(self):
        assert fiber_flip_conjugacy_check(FLAT, trials=0)

    def test_tampered_descriptor_fails(self):
        desc = fiber_flip_descriptor(FLAT)
        block = desc.blocks[0]
        (A0, s0), rest = block.pairs[0], block.pairs[1:]
        bad = IntMatrix2(A0.a, A0.b + 1, A0.c, A0.d)
        tampered_block = V221BoundaryData(((bad, s0),) + rest, block.outer)
        tampered = replace(desc, blocks=(tampered_block,) + desc.blocks[1:])
        assert not fiber_flip_conjugacy_check(FLAT, trials=5, descriptor=tampered)

    @pytest.mark.parametrize("manifold", [FLAT, EIGHT], ids=["4-fiber", "8-fiber"])
    def test_every_unit_tamper_fails(self, manifold):
        desc = fiber_flip_descriptor(manifold)
        tampered = list(_unit_tampers(desc))
        assert len(tampered) == len(desc.blocks) * 4 * 4 * 2
        for bad in tampered:
            for trials in (1, 3, 17):
                assert not fiber_flip_conjugacy_check(manifold, trials, descriptor=bad)
            assert fiber_flip_conjugacy_check(manifold, 0, descriptor=bad)

    def test_block_count_matches_pairing(self):
        desc = fiber_flip_descriptor(FLAT)
        assert len(desc.blocks) == 2
        assert desc.pairing == ((0, 1), (2, 3))


def _unit_tampers(desc):
    """Every copy of ``desc`` with one entry of one block's inner or outer
    action moved by +-1."""
    for i, data in enumerate(desc.blocks):
        matrices = [A for A, _ in data.pairs] + [data.outer]
        for j, A in enumerate(matrices):
            for entry in "abcd":
                for step in (1, -1):
                    moved = list(matrices)
                    moved[j] = replace(A, **{entry: getattr(A, entry) + step})
                    pairs = tuple((B, s) for B, (_, s) in zip(moved, data.pairs))
                    bad = V221BoundaryData(pairs, moved[-1])
                    yield replace(desc, blocks=desc.blocks[:i] + (bad,) + desc.blocks[i + 1 :])


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
