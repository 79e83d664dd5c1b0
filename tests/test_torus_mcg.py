import re

import pytest

from seifinv import (
    IDENTITY,
    IntMatrix2,
    InvolutionClassLabel,
    find_conjugator,
    involution_class,
    is_involution,
    mat_det,
    mat_mul,
)
from seifinv.torus_mcg import MAX_BOUND, _unimodular_entries
from util import entry_refusal, inverse

SWAP = IntMatrix2(0, 1, 1, 0)
MINUS_I = IntMatrix2(-1, 0, 0, -1)


def window_matrices(bound):
    rng = range(-bound, bound + 1)
    return [
        IntMatrix2(a, b, c, d)
        for a in rng
        for b in rng
        for c in rng
        for d in rng
    ]


def involutions_in_window(bound):
    return [A for A in window_matrices(bound) if abs(mat_det(A)) == 1 and is_involution(A)]


class TestArithmetic:
    def test_product(self):
        got = mat_mul(IntMatrix2(0, 1, 1, 2), IntMatrix2(1, 0, -1, -1))
        assert got == IntMatrix2(-1, -1, -1, -2)

    def test_inverse(self):
        assert mat_mul(IntMatrix2(0, 1, 1, 2), IntMatrix2(-2, 1, 1, 0)) == IDENTITY

    def test_identity_law(self):
        A = IntMatrix2(3, -2, 1, 1)
        assert mat_mul(IDENTITY, A) == A
        assert mat_mul(A, IDENTITY) == A

    def test_inverse_requires_unit_determinant(self):
        # det A * det B = det(AB) = 1 has no integer solution with det A = 2.
        A = IntMatrix2(2, 0, 0, 1)
        assert all(mat_mul(A, B) != IDENTITY for B in window_matrices(2))

    def test_det_multiplicative(self):
        mats = [m for m in window_matrices(2) if m.a or m.b or m.c or m.d][:50]
        for A in mats:
            for B in mats[:10]:
                assert mat_det(mat_mul(A, B)) == mat_det(A) * mat_det(B)

    @pytest.mark.parametrize("entries", [(1.0, 0, 0, -1), (1, 0, 0, True), (0, 1, 1, 0.0)])
    @pytest.mark.parametrize(
        "compute",
        [mat_det, is_involution, lambda A: mat_mul(A, IDENTITY), lambda A: mat_mul(IDENTITY, A)],
        ids=["mat_det", "is_involution", "mat_mul-left", "mat_mul-right"],
    )
    def test_rejects_non_int_entries(self, compute, entries):
        # Read by value, each of these is an involution.  The matrix is
        # refused when built, so no function reads it; its int twin computes.
        with pytest.raises(ValueError, match=f"^{re.escape(entry_refusal(entries))}$"):
            compute(IntMatrix2(*entries))
        compute(IntMatrix2(*map(int, entries)))

    def test_double_inverse(self):
        # adj(A) / det A is integral exactly when |det A| = 1.
        for A in window_matrices(2):
            if abs(mat_det(A)) == 1:
                assert mat_mul(A, inverse(A)) == IDENTITY == mat_mul(inverse(A), A)
                assert inverse(inverse(A)) == A


class TestIsInvolution:
    def test_upper_triangular_involution(self):
        assert is_involution(IntMatrix2(1, -1, 0, -1))

    def test_rotation_has_order_four(self):
        assert not is_involution(IntMatrix2(0, -1, 1, 0))

    def test_lower_triangular_involution(self):
        assert is_involution(IntMatrix2(1, 0, -1, -1))

    def test_reversing_involutions_have_trace_zero(self):
        for A in involutions_in_window(3):
            if mat_det(A) == -1:
                assert A.a + A.d == 0


class TestInvolutionClass:
    def test_anti_type(self):
        assert involution_class(IntMatrix2(1, 0, -1, -1)) == InvolutionClassLabel.ANTI_TYPE

    def test_refl_type(self):
        assert involution_class(IntMatrix2(1, 0, 0, -1)) == InvolutionClassLabel.REFL_TYPE

    def test_minus_identity(self):
        assert involution_class(MINUS_I) == InvolutionClassLabel.MINUS_IDENTITY

    def test_identity(self):
        assert involution_class(IDENTITY) == InvolutionClassLabel.IDENTITY

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            involution_class(IntMatrix2(0, -1, 1, 0))

    @pytest.mark.parametrize("entries", [(1.0, 0, 0, 1), (1, 0, 0, True), (-1, 0, 0, -1.0)])
    def test_rejects_non_int_entries(self, entries):
        # Each of these would pass as an involution if read by value; the
        # matrix is refused when built, and its int twin is classified.
        with pytest.raises(ValueError, match=f"^{re.escape(entry_refusal(entries))}$"):
            involution_class(IntMatrix2(*entries))
        involution_class(IntMatrix2(*map(int, entries)))

    def test_class_invariant_under_conjugation(self):
        involutions = involutions_in_window(3)
        conjugators = [H for H in window_matrices(3) if abs(mat_det(H)) == 1]
        for A in involutions:
            label = involution_class(A)
            for H in conjugators:
                assert involution_class(mat_mul(mat_mul(H, A), inverse(H))) == label


class TestFindConjugator:
    def test_finds_conjugator_across_representatives(self):
        A = IntMatrix2(1, 0, -1, -1)
        H = find_conjugator(A, SWAP, 3)
        assert H is not None
        assert abs(mat_det(H)) == 1
        assert all(abs(e) <= 3 for e in (H.a, H.b, H.c, H.d))
        assert mat_mul(H, A) == mat_mul(SWAP, H)

    def test_identity_pair(self):
        assert find_conjugator(IDENTITY, IDENTITY, 1) == IDENTITY

    def test_distinct_classes_have_no_conjugator(self):
        assert find_conjugator(IntMatrix2(1, 0, 0, -1), SWAP, 5) is None

    def test_agrees_with_classifier_on_window(self):
        involutions = involutions_in_window(2)
        for A in involutions:
            for B in involutions:
                same_class = involution_class(A) == involution_class(B)
                assert (find_conjugator(A, B, 5) is not None) == same_class

    def test_first_hit_is_the_brute_force_first_hit(self):
        involutions = involutions_in_window(2)
        for bound in (1, 2, 3):
            window = [H for H in window_matrices(bound) if abs(mat_det(H)) == 1]
            for A in involutions:
                for B in involutions:
                    if A == B:
                        expected = IDENTITY
                    else:
                        expected = next(
                            (H for H in window if mat_mul(H, A) == mat_mul(B, H)), None
                        )
                    assert find_conjugator(A, B, bound) == expected, (A, B, bound)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="^bound must be a positive integer$"):
            find_conjugator(IDENTITY, IDENTITY, 0)
        for bound in (3.0, True):
            with pytest.raises(ValueError, match=f"^bound must be an integer, got {bound}$"):
                find_conjugator(IDENTITY, IDENTITY, bound)

    @pytest.mark.parametrize("entries", [(1.0, 0, 0, 1), (1, 0, 0, True), (0, 1, 1, 0.0)])
    def test_rejects_non_int_entries(self, entries):
        # Each of these would be searched, or matched at once, if read by
        # value; the matrix is refused when built, and its int twin searched.
        with pytest.raises(ValueError, match=f"^{re.escape(entry_refusal(entries))}$"):
            find_conjugator(IntMatrix2(*entries), SWAP, 3)
        A = IntMatrix2(*map(int, entries))
        for args in ((A, SWAP, 3), (SWAP, A, 3)):
            find_conjugator(*args)

    def test_bound_cap(self):
        assert MAX_BOUND == 32
        assert find_conjugator(IntMatrix2(1, 0, 0, -1), SWAP, MAX_BOUND) is None
        with pytest.raises(ValueError, match="^bound must be at most 32, got 33$"):
            find_conjugator(IDENTITY, IDENTITY, MAX_BOUND + 1)


@pytest.mark.parametrize("bound", range(1, 9))
def test_window_is_the_brute_force_window(bound):
    window = [H for H in window_matrices(bound) if abs(mat_det(H)) == 1]
    assert _unimodular_entries(bound) == tuple((H.a, H.b, H.c, H.d) for H in window)
