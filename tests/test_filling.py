import itertools
import math
import re
from fractions import Fraction

import pytest

from seifinv import (
    IDENTITY,
    FillingSlope,
    IntMatrix2,
    UnsupportedSlopeError,
    extension_condition,
    is_involution,
    mat_det,
    mat_mul,
    verify_v221_construction,
)
from seifinv.filling import _induced_outer_action
from util import entry_refusal, inverse, pm, v221_unit_tampers

V221_FILLINGS = (FillingSlope(1, 2), FillingSlope(1, 2), FillingSlope(-1, 1))


def carried(A, G):
    """G A G^-1: an action on the filling torus seen in the outer framing."""
    return mat_mul(mat_mul(G, A), inverse(G))


def hand_frame(slope):
    """Filling-torus constraint vectors and gluing matrix, derived by hand for
    the two supported families.  The library answers in the outer framing
    with no frame; these are an independent route to the same answer."""
    if (slope.m, slope.l) == (1, 2):
        return (-2, 1), (0, 1), IntMatrix2(0, 1, 1, 2)
    return (1, 0), (0, 1), IntMatrix2(-1, slope.m, 0, 1)


def frame_solutions(v_fix, v_flip):
    """Every A in GL2(Z) with entries in [-2, 2] that fixes v_fix up to a
    sign eps and negates v_flip up to the same eps, by exhaustive search.

    The two vectors of a hand-derived frame are independent, so each eps
    allows at most one A; two solutions in the window are all of them.
    """
    window = range(-2, 3)
    found = frozenset(
        IntMatrix2(a, b, c, d)
        for a, b, c, d in itertools.product(window, repeat=4)
        if abs(a * d - b * c) == 1
        for eps in (1, -1)
        if (a * v_fix[0] + b * v_fix[1], c * v_fix[0] + d * v_fix[1])
        == (eps * v_fix[0], eps * v_fix[1])
        and (a * v_flip[0] + b * v_flip[1], c * v_flip[0] + d * v_flip[1])
        == (-eps * v_flip[0], -eps * v_flip[1])
    )
    assert len(found) == 2, (v_fix, v_flip)
    return found


def slopes_in(m_max, l_max):
    return {
        FillingSlope(m, l)
        for m in range(-m_max, m_max + 1)
        for l in range(0, l_max + 1)
        if math.gcd(m, l) == 1
    }


def answered(slopes):
    """The slopes ``extension_condition`` answers: (x,1) and (1,2)."""
    return [slope for slope in slopes if slope.l == 1 or slope == (1, 2)]


def fiber_sign_members(sign, fillings=V221_FILLINGS):
    """For each filling (by default those of V(2,2;-1)), the member of its
    extension condition that sends the fiber class to ``sign`` times itself."""
    return [next(A for A in extension_condition(f) if A.a == sign) for f in fillings]


class TestFillingSlope:
    def test_sign_normalization(self):
        assert FillingSlope(-1, -2) == FillingSlope(1, 2)
        assert FillingSlope(-1, 0) == FillingSlope(1, 0)
        assert tuple(FillingSlope(1, 0)) == (1, 0)  # m > 0 when l = 0

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            FillingSlope(2, 4)
        with pytest.raises(ValueError):
            FillingSlope(0, 0)


class TestInducedFillingFrame:
    """The gluing of a hand-derived frame carries its fixed vector to the
    fiber class and its flipped vector to the meridian (m,l), and the
    carried solutions are the extension condition."""

    def _check(self, slope):
        v_fix, v_flip, G = hand_frame(slope)
        (fx, fy), (lx, ly) = v_fix, v_flip
        assert (G.a * fx + G.b * fy, G.c * fx + G.d * fy) in ((1, 0), (-1, 0))
        pushed_flip = (G.a * lx + G.b * ly, G.c * lx + G.d * ly)
        assert pushed_flip in ((slope.m, slope.l), (-slope.m, -slope.l))
        sols = frame_solutions(v_fix, v_flip)
        assert frozenset(carried(A, G) for A in sols) == extension_condition(slope)

    def test_one_two_family(self):
        self._check(FillingSlope(1, 2))

    def test_integer_family(self):
        self._check(FillingSlope(3, 1))

    def test_zero_slope_instance(self):
        self._check(FillingSlope(0, 1))

    def test_unsupported_family(self):
        with pytest.raises(
            UnsupportedSlopeError, match=r"^no extension condition derived for slope \(3,2\)$"
        ):
            extension_condition(FillingSlope(3, 2))


class TestSolveBoundaryInvolutions:
    """The constraints fix the fiber class and negate the meridian, both up
    to one sign; ``extension_condition`` returns their solutions."""

    def test_meridian_minus_two_one(self):
        sols = frame_solutions((-2, 1), (0, 1))
        assert sols == pm(IntMatrix2(1, 0, -1, -1))
        carried_sols = frozenset(carried(A, IntMatrix2(0, 1, 1, 2)) for A in sols)
        assert carried_sols == extension_condition(FillingSlope(1, 2))

    def test_meridian_one_zero(self):
        sols = frame_solutions((1, 0), (0, 1))
        assert sols == pm(IntMatrix2(1, 0, 0, -1))
        carried_sols = frozenset(carried(A, IntMatrix2(-1, 0, 0, 1)) for A in sols)
        assert carried_sols == extension_condition(FillingSlope(0, 1))

    def test_contradictory_constraints(self):
        # The meridian (1,0) is the fiber: it cannot be fixed and negated, so
        # no matrix extends and the slope is refused.
        with pytest.raises(UnsupportedSlopeError, match=r"derived for slope \(1,0\)$"):
            extension_condition(FillingSlope(1, 0))

    def test_solutions_are_involutions(self):
        for slope in answered(slopes_in(8, 4)):
            for A in extension_condition(slope):
                assert is_involution(A)
                assert abs(mat_det(A)) == 1

    def test_every_integral_solution_has_determinant_minus_one(self):
        # A = eps [[1, -2m/l], [0, -1]], so det A = -eps^2 = -1.
        slopes = answered(slopes_in(12, 6))
        determinants = [mat_det(A) for slope in slopes for A in extension_condition(slope)]
        assert set(determinants) == {-1} and len(determinants) == 2 * len(slopes) == 52


class TestTransport:
    """Filling-torus solutions carried through the hand-derived gluing land
    in the outer-framing extension condition."""

    def test_one_two_diagram(self):
        got = carried(IntMatrix2(1, 0, -1, -1), IntMatrix2(0, 1, 1, 2))
        assert got == IntMatrix2(1, -1, 0, -1)
        assert got in extension_condition(FillingSlope(1, 2))

    def test_integer_diagram(self):
        got = carried(IntMatrix2(1, 0, 0, -1), IntMatrix2(-1, 1, 0, 1))
        assert got == IntMatrix2(1, -2, 0, -1)
        assert got in extension_condition(FillingSlope(1, 1))


class TestExtensionCondition:
    def test_one_two(self):
        assert extension_condition(FillingSlope(1, 2)) == pm(IntMatrix2(1, -1, 0, -1))

    def test_minus_one_one(self):
        assert extension_condition(FillingSlope(-1, 1)) == pm(IntMatrix2(1, 2, 0, -1))

    def test_zero_one(self):
        assert extension_condition(FillingSlope(0, 1)) == pm(IntMatrix2(1, 0, 0, -1))

    def test_integer_family_formula(self):
        for x in range(-5, 6):
            assert extension_condition(FillingSlope(x, 1)) == pm(IntMatrix2(1, -2 * x, 0, -1))

    def test_sign_flip_relation(self):
        for x in range(-5, 6):
            plus = extension_condition(FillingSlope(x, 1))
            minus = extension_condition(FillingSlope(-x, 1))
            flipped = frozenset(IntMatrix2(A.a, -A.b, A.c, A.d) for A in plus)
            assert flipped == minus

    def test_transport_of_solutions_equals_condition(self):
        for slope in (FillingSlope(1, 2), FillingSlope(2, 1), FillingSlope(-3, 1)):
            v_fix, v_flip, G = hand_frame(slope)
            sols = frame_solutions(v_fix, v_flip)
            assert frozenset(carried(A, G) for A in sols) == extension_condition(slope)

    def test_matches_brute_force_window(self):
        # Every unimodular matrix with first-column entries in [-2, 2] and
        # second-column entries in [-32, 32], which holds the entry -2m/l of
        # every solution for |m| <= 16.
        unimodular = [
            IntMatrix2(a, b, c, d)
            for a, c in itertools.product(range(-2, 3), repeat=2)
            for b, d in itertools.product(range(-32, 33), repeat=2)
            if abs(a * d - b * c) == 1
        ]
        slopes = slopes_in(16, 8)
        assert len(slopes) == 168
        for slope in slopes:
            m, l = slope.m, slope.l
            brute = frozenset(
                A
                for A in unimodular
                for eps in (1, -1)
                if (A.a, A.c) == (eps, 0)
                and (A.a * m + A.b * l, A.c * m + A.d * l) == (-eps * m, -eps * l)
            )
            # A solution has top-right entry b with l b = -2 eps m and
            # gcd(m, l) = 1, so l divides 2; l = 0 makes the fiber and the
            # meridian parallel.
            assert len(brute) == (2 if l in (1, 2) else 0), slope
            if l == 1 or (m, l) == (1, 2):
                assert extension_condition(slope) == brute, slope
            else:
                with pytest.raises(UnsupportedSlopeError, match=r"derived for slope"):
                    extension_condition(slope)

    def test_conditions_of_distinct_slopes_are_disjoint(self):
        # A matrix of a supported condition names its slope, which is what
        # lets the V(2,2;-1) validator look an inner action's filling up.
        slopes = [FillingSlope(1, 2)] + [FillingSlope(x, 1) for x in range(-64, 65)]
        members = [A for slope in slopes for A in extension_condition(slope)]
        assert len(set(members)) == len(members) == 260

    def test_answers_exactly_the_two_families(self):
        slopes = slopes_in(50, 50)
        kept = set(answered(slopes))
        for slope in slopes:
            if slope in kept:
                assert len(extension_condition(slope)) == 2, slope
            else:
                with pytest.raises(UnsupportedSlopeError, match=r"derived for slope"):
                    extension_condition(slope)


class TestCheckExtends:
    def test_flip_block_matrices(self):
        assert IntMatrix2(-1, 1, 0, 1) in extension_condition(FillingSlope(1, 2))
        assert IntMatrix2(-1, -2, 0, 1) in extension_condition(FillingSlope(-1, 1))

    def test_wrong_action_rejected(self):
        assert IntMatrix2(1, 0, 0, -1) not in extension_condition(FillingSlope(1, 2))


class TestV221BoundaryData:
    def test_matrices(self):
        assert verify_v221_construction().matrices == (
            IntMatrix2(-1, 1, 0, 1),
            IntMatrix2(-1, -2, 0, 1),
            IntMatrix2(-1, 1, 0, 1),
        )

    def test_outer_action_reverses_fiber_fixes_section(self):
        report = verify_v221_construction()
        assert report.outer == IntMatrix2(-1, 0, 0, 1)
        assert _induced_outer_action(report.matrices) == report.outer

    def test_assignment_is_satisfying(self):
        report = verify_v221_construction()
        for A, slope in zip(report.matrices, report.assignment):
            assert A in extension_condition(slope)


class TestVerifyConstruction:
    def test_standard_data_passes(self):
        report = verify_v221_construction()
        assert report.passed
        assert all(report.involution_ok)
        assert all(report.extends_ok)
        assert report.outer_ok
        assert [str(f) for f in report.assignment] == ["(1,2)", "(-1,1)", "(1,2)"]

    def test_extends_ok_is_per_matrix(self):
        # Three copies of the (1,2) action have no assignment, yet each one
        # extends across some filling on its own; an action in no condition
        # is the one entry that reads False.
        A = IntMatrix2(-1, 1, 0, 1)
        report = verify_v221_construction((A, A, A))
        assert report.assignment is None and not report.passed
        assert report.extends_ok == (True, True, True)
        report = verify_v221_construction((A, IntMatrix2(-1, 3, 0, 1), A))
        assert report.extends_ok == (True, False, True)

    def test_lookup_matches_the_assignment_search(self):
        # The reference is a search: the first ordering of the block's
        # fillings under which each inner action lies in its filling's
        # condition.  The triples range over the four matrices of those
        # conditions and over outsiders: another slope's condition, an
        # involution in none, the identity and the fiber flip.
        matrices = [A for f in set(V221_FILLINGS) for A in extension_condition(f)]
        matrices += [IntMatrix2(1, 0, 0, -1), IntMatrix2(-1, 3, 0, 1), IDENTITY,
                     IntMatrix2(-1, 0, 0, 1)]
        assert len(set(matrices)) == 8
        for inner in itertools.product(matrices, repeat=3):
            report = verify_v221_construction(inner)
            expected = next(
                (
                    order
                    for order in itertools.permutations(V221_FILLINGS)
                    if all(A in extension_condition(f) for A, f in zip(inner, order))
                ),
                None,
            )
            assert report.assignment == expected, inner
            assert report.extends_ok == tuple(
                any(A in extension_condition(f) for f in V221_FILLINGS) for A in inner
            ), inner

    def test_tampered_matrix_fails(self):
        mats = [IntMatrix2(-1, 2, 0, 1), IntMatrix2(-1, -2, 0, 1), IntMatrix2(-1, 1, 0, 1)]
        report = verify_v221_construction(mats)
        assert not report.passed

    def test_all_single_entry_perturbations_fail(self):
        tampers = list(v221_unit_tampers())
        assert len(tampers) == 32
        for inner, outer in tampers:
            assert not verify_v221_construction(inner, outer).passed, (inner, outer)
        # The eight outer tampers leave the inner checks passing, so only the
        # outer check can reject them.
        outer_only = [verify_v221_construction(inner, outer) for inner, outer in tampers[24:]]
        assert all(r.assignment is not None and not r.outer_ok for r in outer_only)

    def test_mixed_fiber_signs_fail(self):
        # Each inner action extends on its own, and the outer action is the
        # fiber flip, but the fiber cannot be reversed on one torus and kept
        # on another: no outer action is induced.
        mixed = fiber_sign_members(-1)[:2] + fiber_sign_members(1)[2:]
        report = verify_v221_construction(mixed)
        assert report.assignment is not None and all(report.involution_ok)
        assert not report.outer_ok and not report.passed

    def test_fiber_preserving_data_fails(self):
        # Extends everywhere, but induces diag(1,-1), not the fiber flip.
        preserving = fiber_sign_members(1)
        for outer in (IntMatrix2(-1, 0, 0, 1), IntMatrix2(1, 0, 0, -1)):
            report = verify_v221_construction(preserving, outer)
            assert report.assignment is not None
            assert not report.passed

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            verify_v221_construction([IntMatrix2(-1, 1, 0, 1)])

    @pytest.mark.parametrize("inner", [5, None])
    def test_non_iterable_inner_rejected(self, inner):
        with pytest.raises(ValueError, match="^expected exactly three inner boundary actions$"):
            verify_v221_construction(inner)

    def test_inner_actions_must_be_matrices(self):
        # Each is refused before the filling lookup hashes it.
        for A in ([-1, 1, 0, 1], (-1, 1, 0, 1)):
            inner = (A, IntMatrix2(-1, -2, 0, 1), IntMatrix2(-1, 1, 0, 1))
            message = f"^{re.escape(f'matrix must be an IntMatrix2, got {A!r}')}$"
            with pytest.raises(ValueError, match=message):
                verify_v221_construction(inner)

    @pytest.mark.parametrize("entries", [(-1.0, 0, 0, 1), (-1, 0, 0, True), (-1, 0.0, 0, 1)])
    def test_rejects_non_int_outer(self, entries):
        # Read by value, each of these is the fiber flip and would pass; the
        # matrix is refused when built, and its int twin passes.
        with pytest.raises(ValueError, match=f"^{re.escape(entry_refusal(entries))}$"):
            verify_v221_construction(outer=IntMatrix2(*entries))
        assert verify_v221_construction(outer=IntMatrix2(*map(int, entries))).passed


class TestBoundaryHomologyIdentity:
    """Push the outer class alpha = -(a1 + a2 + a3) through the actions the
    extension conditions allow, in the free abelian group on (a1, a2, a3, t):
    each action sends a_i to b t + d a_i.  With the fiber preserved alpha goes
    to its inverse, with it reversed alpha is fixed; either way the net
    t-exponent is zero."""

    def _push(self, mats):
        t_exponents = tuple(-A.b for A in mats)
        return tuple(-A.d for A in mats) + (sum(t_exponents),), t_exponents

    def test_fiber_preserved(self):
        mats = fiber_sign_members(1)
        alpha_image, t_exponents = self._push(mats)
        assert all(A.c == 0 for A in mats)
        assert t_exponents == (1, 1, -2)
        assert alpha_image == (1, 1, 1, 0)  # the inverse of the outer class
        assert _induced_outer_action(mats) == IntMatrix2(1, 0, 0, -1)

    def test_fiber_reversed(self):
        mats = fiber_sign_members(-1)
        alpha_image, t_exponents = self._push(mats)
        assert all(A.c == 0 for A in mats)
        assert t_exponents == (-1, -1, 2)
        assert alpha_image == (-1, -1, -1, 0)  # the outer class itself
        assert _induced_outer_action(mats) == IntMatrix2(-1, 0, 0, 1)
        assert verify_v221_construction(mats).passed

    def test_fiber_flip_exactly_when_euler_number_vanishes(self):
        # The fiber-reversing members induce [[-1, -sum 2m/l], [0, 1]]: the
        # fiber flip exactly when the slopes' m/l sum to 0, checked here
        # against an exact Fraction sum on every ordered triple.
        slopes = [FillingSlope(1, 2)] + [FillingSlope(x, 1) for x in range(-6, 7)]
        reversing = dict(zip(slopes, fiber_sign_members(-1, slopes)))
        triples = list(itertools.product(slopes, repeat=3))
        assert len(triples) == 2744
        for triple in triples:
            induced = _induced_outer_action([reversing[s] for s in triple])
            vanishes = sum(Fraction(s.m, s.l) for s in triple) == 0
            assert (induced == IntMatrix2(-1, 0, 0, 1)) == vanishes, triple
        # Three (1,1) members: m/l sums to 3, so the section goes to -6 t + alpha.
        assert _induced_outer_action([IntMatrix2(-1, 2, 0, 1)] * 3) == IntMatrix2(-1, -6, 0, 1)

    def test_identity_actions_fix_everything(self):
        assert _induced_outer_action([IDENTITY] * 3) == IDENTITY
