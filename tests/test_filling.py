import itertools
import math

import pytest

from seifinv import (
    IDENTITY,
    ExtensionConstraint,
    FillingSlope,
    IntMatrix2,
    UnsupportedSlopeError,
    extension_condition,
    is_involution,
    mat_det,
    mat_mul,
    solve_boundary_involutions,
    verify_v221_construction,
)
from seifinv.filling import _induced_outer_action
from util import inverse, v221_unit_tampers

V221_FILLINGS = (FillingSlope(1, 2), FillingSlope(1, 2), FillingSlope(-1, 1))


def pm(A):
    return frozenset({A, IntMatrix2(-A.a, -A.b, -A.c, -A.d)})


def carried(A, G):
    """G A G^-1: an action on the filling torus seen in the outer framing."""
    return mat_mul(mat_mul(G, A), inverse(G))


def hand_frame(slope):
    """Filling-torus constraint vectors and gluing matrix, derived by hand for
    the two supported families.  The library solves in the outer framing
    with no frame; these are an independent route to the same answer."""
    if (slope.m, slope.l) == (1, 2):
        return (-2, 1), (0, 1), IntMatrix2(0, 1, 1, 2)
    return (1, 0), (0, 1), IntMatrix2(-1, slope.m, 0, 1)


def fiber_sign_members(sign):
    """For each V(2,2;-1) filling, the member of its extension condition that
    sends the fiber class to ``sign`` times itself."""
    return [next(A for A in extension_condition(f) if A.a == sign) for f in V221_FILLINGS]


class TestFillingSlope:
    def test_sign_normalization(self):
        assert FillingSlope(-1, -2) == FillingSlope(1, 2)
        assert FillingSlope(-1, 0) == FillingSlope(1, 0)

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
        sols = solve_boundary_involutions(ExtensionConstraint(v_fix, v_flip))
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
    def test_meridian_minus_two_one(self):
        got = solve_boundary_involutions(ExtensionConstraint((-2, 1), (0, 1)))
        assert got == pm(IntMatrix2(1, 0, -1, -1))

    def test_meridian_one_zero(self):
        got = solve_boundary_involutions(ExtensionConstraint((1, 0), (0, 1)))
        assert got == pm(IntMatrix2(1, 0, 0, -1))

    def test_contradictory_constraints(self):
        assert solve_boundary_involutions(ExtensionConstraint((1, 0), (1, 0))) == frozenset()

    def test_solutions_are_involutions(self):
        vectors = [(1, 0), (0, 1), (-2, 1), (1, 2), (3, -1), (1, 1)]
        for vf in vectors:
            for vl in vectors:
                for A in solve_boundary_involutions(ExtensionConstraint(vf, vl)):
                    assert is_involution(A)
                    assert abs(mat_det(A)) == 1

    def test_every_integral_solution_has_determinant_minus_one(self):
        # A P = Q_eps and det Q_eps = -det P, so det A = -1 whenever
        # Q_eps adj(P) / det P is integral: the solver needs no |det A| = 1 test.
        vectors = [(a, b) for a in range(-5, 6) for b in range(-5, 6) if math.gcd(a, b) == 1]
        determinants = [
            mat_det(A)
            for vf, vl in itertools.product(vectors, repeat=2)
            for A in solve_boundary_involutions(ExtensionConstraint(vf, vl))
        ]
        assert set(determinants) == {-1} and len(determinants) == 1824

    def test_general_constraints_match_brute_force_window(self):
        # Every pair of primitive vectors with entries in [-2, 2], v_fix not
        # (1, 0), spanning a sublattice of index |det P| in {1, 2, 3}.  A
        # solution satisfies A P = Q_eps, so A = Q_eps P^-1 and each entry is
        # at most (2*2 + 2*2) / |det P| <= 8 in size: the window holds them all.
        window = range(-8, 9)
        unimodular = [
            t for t in itertools.product(window, repeat=4) if abs(t[0] * t[3] - t[1] * t[2]) == 1
        ]
        vectors = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if math.gcd(a, b) == 1]
        seen = {1: 0, 2: 0, 3: 0}
        for vf, vl in itertools.product(vectors, repeat=2):
            index = abs(vf[0] * vl[1] - vf[1] * vl[0])
            if vf == (1, 0) or index not in seen:
                continue
            seen[index] += 1
            brute = frozenset(
                IntMatrix2(a, b, c, d)
                for a, b, c, d in unimodular
                for eps in (1, -1)
                if (a * vf[0] + b * vf[1], c * vf[0] + d * vf[1]) == (eps * vf[0], eps * vf[1])
                and (a * vl[0] + b * vl[1], c * vl[0] + d * vl[1]) == (-eps * vl[0], -eps * vl[1])
            )
            assert solve_boundary_involutions(ExtensionConstraint(vf, vl)) == brute, (vf, vl)
            # For an involution A, 2x = (x + Ax) + (x - Ax) splits 2x into the
            # two eigenlattices, so they span a sublattice of index 1 or 2:
            # index 3 has no solution.
            assert len(brute) == (2 if index < 3 else 0), (vf, vl)
        assert seen == {1: 94, 2: 36, 3: 48}


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
            sols = solve_boundary_involutions(ExtensionConstraint(v_fix, v_flip))
            assert frozenset(carried(A, G) for A in sols) == extension_condition(slope)

    def test_matches_brute_force_window(self):
        # Every unimodular matrix with entries in [-6, 6], which holds the
        # entry -2m of every solution for |m| <= 3.
        window = range(-6, 7)
        unimodular = [
            IntMatrix2(*t) for t in itertools.product(window, repeat=4)
            if abs(t[0] * t[3] - t[1] * t[2]) == 1
        ]
        slopes = {
            FillingSlope(m, l)
            for m in range(-3, 4)
            for l in range(0, 5)
            if math.gcd(m, l) == 1
        }
        assert len(slopes) == 20
        for slope in slopes:
            m, l = slope.m, slope.l
            brute = frozenset(
                A
                for A in unimodular
                for eps in (1, -1)
                if (A.a, A.c) == (eps, 0)
                and (A.a * m + A.b * l, A.c * m + A.d * l) == (-eps * m, -eps * l)
            )
            assert solve_boundary_involutions(ExtensionConstraint((1, 0), (m, l))) == brute
            if l not in (1, 2):
                assert brute == frozenset(), slope
            if l == 1 or (m, l) == (1, 2):
                assert len(brute) == 2 and extension_condition(slope) == brute, slope
            else:
                with pytest.raises(UnsupportedSlopeError, match=r"derived for slope"):
                    extension_condition(slope)

    def test_solver_answers_exactly_when_l_is_one_or_two(self):
        # A solution has top-right entry b with l b = -2 eps m and gcd(m, l) = 1,
        # so l divides 2; l = 0 makes the fiber and the meridian parallel.
        for m in range(-50, 51):
            for l in range(0, 51):
                if math.gcd(m, l) != 1:
                    continue
                got = solve_boundary_involutions(ExtensionConstraint((1, 0), (m, l)))
                assert bool(got) == (l in (1, 2)), (m, l)


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

    def test_identity_actions_fix_everything(self):
        assert _induced_outer_action([IDENTITY] * 3) == IDENTITY
