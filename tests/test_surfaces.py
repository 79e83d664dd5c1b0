import math

import pytest

from seifinv import (
    IntMatrix2,
    InvolutionClassLabel,
    InvolutionKind,
    SurfaceInvolutionClass,
    classes_for_genus,
    count_classes,
    fixed_point_data,
    involution_class,
)
from seifinv.surfaces import MAX_GENUS

ID, SPIT, ROT, REFL, ANTI = (
    InvolutionKind.ID,
    InvolutionKind.SPIT,
    InvolutionKind.ROT,
    InvolutionKind.REFL,
    InvolutionKind.ANTI,
)


def C(kind, g, r=0):
    return SurfaceInvolutionClass(kind, g, r)


class TestClassList:
    def test_torus(self):
        classes = classes_for_genus(1)
        assert len(classes) == 6
        assert len(classes_for_genus(1, "preserving")) == 3
        assert len(classes_for_genus(1, "reversing")) == 3

    def test_sphere(self):
        assert classes_for_genus(0) == [C(ID, 0), C(SPIT, 0, 0), C(REFL, 0, 0), C(ANTI, 0, 0)]

    def test_genus_two_preserving(self):
        assert classes_for_genus(2, "preserving") == [C(ID, 2), C(SPIT, 2, 0), C(SPIT, 2, 1)]

    def test_rot_only_for_odd_genus(self):
        assert C(ROT, 3) in classes_for_genus(3)
        assert all(c.kind is not ROT for c in classes_for_genus(4))

    def test_filters_partition_the_list(self):
        for g in range(8):
            preserving = classes_for_genus(g, "preserving")
            reversing = classes_for_genus(g, "reversing")
            assert preserving + reversing == classes_for_genus(g)
            assert all(c.orientation_preserving for c in preserving)
            assert not any(c.orientation_preserving for c in reversing)

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            classes_for_genus(1, "sideways")

    def test_genus_cap(self):
        assert MAX_GENUS == 50
        assert len(classes_for_genus(MAX_GENUS)) == 4 + 2 * MAX_GENUS
        with pytest.raises(ValueError, match="^genus must be at most 50, got 51$"):
            classes_for_genus(MAX_GENUS + 1)


class TestCounts:
    def test_torus_split(self):
        assert count_classes(1) == (3, 3, 6)

    def test_sphere_split(self):
        assert count_classes(0) == (2, 2, 4)

    def test_genus_four_total(self):
        assert count_classes(4).total == 12

    def test_total_formula_through_genus_twenty(self):
        for g in range(21):
            assert count_classes(g).total == 4 + 2 * g


class TestFixedPointData:
    def test_spit_isolated_points(self):
        assert fixed_point_data(C(SPIT, 1, 0)).isolated_points == 4

    def test_riemann_hurwitz_on_every_preserving_class(self):
        # A non-identity preserving involution with k isolated fixed points
        # and quotient genus h satisfies 2 - 2g = 2(2 - 2h) - k.  spit(g,r)
        # has quotient genus r; rot is the free rotation, with quotient
        # genus (g + 1)/2.
        for g in range(51):
            for c in classes_for_genus(g, "preserving"):
                data = fixed_point_data(c)
                if c.kind is ID:
                    assert data.entire_surface
                    continue
                assert data.circles == 0 and not data.entire_surface
                h = c.r if c.kind is SPIT else (g + 1) // 2
                assert 2 - 2 * g == 2 * (2 - 2 * h) - data.isolated_points, c

    def test_reversing_classes_obey_harnack_and_parity(self):
        # At most g + 1 fixed circles (Harnack); a separating reflection
        # refl(g,r) has g + 1 - 2r of them, so its count has the parity of g + 1.
        for g in range(51):
            for c in classes_for_genus(g, "reversing"):
                data = fixed_point_data(c)
                assert data.isolated_points == 0 and data.circles <= g + 1, c
                if c.kind is REFL:
                    assert data.circles % 2 == (g + 1) % 2, c

    def test_refl_circles(self):
        assert fixed_point_data(C(REFL, 2, 0)).circles == 3

    def test_anti_free_at_r_zero(self):
        assert fixed_point_data(C(ANTI, 3, 0)).free

    def test_rot_free(self):
        assert fixed_point_data(C(ROT, 5)).free

    def test_identity_fixes_entire_surface(self):
        data = fixed_point_data(C(ID, 3))
        assert data.entire_surface
        assert not data.free

    def test_refl_never_free(self):
        for g in range(10):
            for r in range(g // 2 + 1):
                assert fixed_point_data(C(REFL, g, r)).circles >= 1

    def test_text(self):
        texts = {str(c): str(fixed_point_data(c)) for c in classes_for_genus(2)}
        assert texts["id"] == "entire surface"
        assert texts["spit(2,0)"] == "6 points"
        assert texts["refl(2,1)"] == "1 circles"
        assert texts["anti(2,0)"] == "free"


class TestUsableForCensus:
    """A class with no fixed point cannot be the full symmetry of a
    non-product manifold (it may still be the orientation-preserving factor
    of one): rot and anti(g,0) are exactly the free classes."""

    def test_rot_excluded(self):
        assert fixed_point_data(C(ROT, 3)).free

    def test_free_anti_excluded(self):
        assert fixed_point_data(C(ANTI, 2, 0)).free

    def test_spit_retained(self):
        assert not fixed_point_data(C(SPIT, 2, 1)).free

    def test_exclusion_matches_freeness(self):
        for g in range(MAX_GENUS + 1):
            free = [c for c in classes_for_genus(g) if fixed_point_data(c).free]
            assert free == ([C(ROT, g)] if g % 2 else []) + [C(ANTI, g, 0)], g


def _fixed_circles(A, twice_t, n=8):
    """Fixed circles of the torus map x -> A x + t on R^2/Z^2, for a reversing
    involution A: the fixed points on the grid (Z/n)^2, split into the cycles
    that steps along the +1 eigenvector of A run through."""
    shift = [n // 2 * t for t in twice_t]
    fixed = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if (A.a * i + A.b * j + shift[0] - i) % n == 0
        and (A.c * i + A.d * j + shift[1] - j) % n == 0
    }
    x, y = next(col for col in ((A.a + 1, A.c), (A.b, A.d + 1)) if col != (0, 0))  # of A + I
    v = (x // math.gcd(x, y), y // math.gcd(x, y))
    circles = 0
    while fixed:
        circles += 1
        p = fixed.pop()
        while (p := ((p[0] + v[0]) % n, (p[1] + v[1]) % n)) in fixed:
            fixed.remove(p)
    return circles


# Each reversing involution of the torus is conjugate to an affine map
# x -> A x + t, given here as (A, 2t).
REFLECTION = (IntMatrix2(1, 0, 0, -1), (0, 0))  # fixes the circles y = 0 and y = 1/2
GLIDE = (IntMatrix2(1, 0, 0, -1), (1, 0))  # free
SWAP = (IntMatrix2(0, 1, 1, 0), (0, 0))  # fixes the circle x = y


class TestInducedTorusAction:
    """The action of a genus-1 reversing class on homology: the catalog's
    fixed-circle count picks the class's affine model, and
    ``involution_class`` classifies the model's matrix."""

    @staticmethod
    def action(c):
        models = {_fixed_circles(*model): model[0] for model in (REFLECTION, GLIDE, SWAP)}
        return involution_class(models[fixed_point_data(c).circles])

    def test_anti_one_one(self):
        assert self.action(C(ANTI, 1, 1)) == InvolutionClassLabel.ANTI_TYPE

    def test_refl_one_zero(self):
        assert self.action(C(REFL, 1, 0)) == InvolutionClassLabel.REFL_TYPE

    def test_anti_one_zero(self):
        assert self.action(C(ANTI, 1, 0)) == InvolutionClassLabel.REFL_TYPE

    def test_matches_matrix_classifier(self):
        # The models have distinct circle counts, so each class has one model.
        assert [_fixed_circles(*model) for model in (REFLECTION, GLIDE, SWAP)] == [2, 0, 1]
        assert classes_for_genus(1, "reversing") == [C(REFL, 1, 0), C(ANTI, 1, 0), C(ANTI, 1, 1)]


class TestClassValidation:
    def test_rot_needs_odd_genus(self):
        with pytest.raises(ValueError):
            C(ROT, 2)

    def test_spit_r_range(self):
        with pytest.raises(ValueError):
            C(SPIT, 2, 2)

    def test_anti_r_range(self):
        with pytest.raises(ValueError):
            C(ANTI, 2, 3)
