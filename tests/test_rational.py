"""``Rational``, the value type of ``e`` and ``chi_orb``, against
``fractions.Fraction`` as the oracle: the library does not import
``fractions``, and its values must print, compare and hash as Fractions do.
"""

import itertools
import operator
import sys
from fractions import Fraction

import pytest

from seifinv.invariants import Rational

GRID = [(n, d) for n in range(-40, 41) for d in range(1, 41)]
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
PROBES = [-1, 0, 1, 40, Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-39, 40)]


def test_str_hash_and_terms_match_fraction():
    for n, d in GRID:
        r, f = Rational(n, d), Fraction(n, d)
        assert str(r) == str(f), (n, d)
        assert (r.numerator, r.denominator) == (f.numerator, f.denominator), (n, d)
        assert hash(r) == hash(f), (n, d)
        assert bool(r) == bool(f), (n, d)


def test_int_times_rational_matches_fraction():
    for (n, d), k in itertools.product(GRID, (-3, -1, 0, 2, 7)):
        r, f = Rational(n, d), Fraction(n, d)
        for product in (k * r, r * k):
            assert type(product) is Rational
            assert str(product) == str(k * f) and product == k * f, (n, d, k)


def test_comparisons_match_fraction():
    # Each probe is compared as an int or a Fraction and as a Rational.
    probes = [(p, Fraction(p)) for p in PROBES]
    probes += [(Rational(f.numerator, f.denominator), f) for _, f in probes]
    for n, d in GRID:
        r, f = Rational(n, d), Fraction(n, d)
        for op in COMPARISONS:
            assert op(r, f) is op(f, r) is op(f, f), (n, d, op)
            for probe, as_fraction in probes:
                assert op(r, probe) is op(f, as_fraction), (n, d, op, probe)
                assert op(probe, r) is op(as_fraction, f), (n, d, op, probe)


def test_sorting_and_hashing_agree_with_fraction():
    rationals = [Rational(n, d) for n, d in GRID]
    fractions = [Fraction(n, d) for n, d in GRID]
    assert [str(r) for r in sorted(rationals)] == [str(f) for f in sorted(fractions)]
    # Equal values hash equal, across the two types too.
    assert len(set(rationals)) == len(set(fractions)) == len(set(rationals) | set(fractions))


def test_hash_when_the_modulus_divides_the_denominator():
    modulus = sys.hash_info.modulus
    for n in (1, -1, 3):
        assert hash(Rational(n, modulus)) == hash(Fraction(n, modulus))


def test_reduced_once_and_refused_without_positive_denominator():
    assert (Rational(-6, 4).numerator, Rational(-6, 4).denominator) == (-3, 2)
    assert (Rational(0, 7).numerator, Rational(0, 7).denominator) == (0, 1)
    for d in (0, -2):
        with pytest.raises(ValueError, match=f"denominator must be positive, got {d}"):
            Rational(1, d)


def test_not_a_pair_and_frozen():
    r = Rational(1, 2)
    assert r != (1, 2) and (1, 2) != r
    assert repr(r) == "Rational(1, 2)"
    with pytest.raises(TypeError):
        r < "1/2"
    with pytest.raises(AttributeError):
        r.numerator = 3
