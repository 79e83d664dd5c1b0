import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

from seifinv import (
    BaseSurface,
    GeometryType,
    SeifertInvariants,
    SeifertParseError,
    check_admissible,
    euler_number,
    normalize,
    orbifold_euler_characteristic,
    parse_seifert,
    print_seifert,
)
from seifinv.cli import run
from seifinv.invariants import MAX_LCM_BITS
from util import M, NEEDS_DIGIT_LIMIT, default_limit, random_descriptor, window

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "seifbench"))

from workloads import WORKLOADS  # noqa: E402


_WIDE_POOL = ("(2,1)", "(3,-1)", "(1,4)", "(5,2)", "(2,-3)")

# (replacement text for one pair, offset of the error inside it, message)
_PLANTED_ERRORS = [
    ("(4,2)", 0, "non-coprime pair (4,2)"),
    (" \u2003(4,2)", 2, "non-coprime pair (4,2)"),
    ("(0,1)", 0, "fiber order must be positive in (0,1)"),
    ("( -2 , 1 )", 0, "fiber order must be positive in (-2,1)"),
    ("( 2 1)", 4, "expected ','"),
    ("(2,1]", 4, "expected ')'"),
    ("(x,1)", 1, "expected an integer"),
    ("(2,)", 3, "expected an integer"),
    ("(2,--1)", 3, "expected an integer"),
    ("2,1)", 0, "expected '('"),
    ("", 0, "expected '('"),
    ("(2,1)x", 5, "expected ')'"),
    ("(2," + "1" * 4301 + ")", 3, "integer longer than 4300 digits"),
    ("(" + "2" * 4301 + ",1)", 1, "integer longer than 4300 digits"),
]


class TestParse:
    def test_four_order_two_fibers(self):
        got = parse_seifert("(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))")
        assert got == M(0, [(2, 1)] * 4, -2)

    def test_trivial_torus_bundle(self):
        assert parse_seifert("(1,o1|)") == M(1)

    def test_non_coprime_pair_rejected(self):
        with pytest.raises(SeifertParseError) as exc:
            parse_seifert("(0,o1|(4,2))")
        assert exc.value.position == 6

    def test_whitespace_insensitive(self):
        assert parse_seifert(" ( 0 , o1 | ( 2 , 1 ) ) ") == M(0, [(2, 1)])
        text = "{0}({0}0{0},{0}o1{0}|{0}({0}2{0},{0}1{0}){0},{0}({0}2{0},{0}1{0}){0},({0}1,{0}-1{0}){0}){0}"
        for ws in ("\u00a0", "\u2003", "\x1c"):  # no-break space, em space, file separator
            assert ws.isspace()
            assert parse_seifert(text.format(ws)) == M(0, [(2, 1)] * 2, -1)

    def test_interior_unit_pairs_kept_verbatim(self):
        got = parse_seifert("(0,o1|(2,1),(1,-1),(2,1),(1,-1))")
        assert got == M(0, [(2, 1), (1, -1), (2, 1)], -1)

    def test_non_positive_order_rejected(self):
        with pytest.raises(SeifertParseError):
            parse_seifert("(0,o1|(0,1))")
        with pytest.raises(SeifertParseError):
            parse_seifert("(0,o1|(-2,1))")

    @NEEDS_DIGIT_LIMIT
    def test_positions_reported(self, default_limit):
        for text, pos in [("", 0), ("(0,x1|)", 3), ("(0,o1|(2,1)", 11)]:
            with pytest.raises(SeifertParseError) as exc:
                parse_seifert(text)
            assert exc.value.position == pos
        # Every planted error at the first, middle and last of 400 pairs.
        items = [_WIDE_POOL[i % len(_WIDE_POOL)] for i in range(400)]
        prefix = "(1,o1|"
        for at in (0, 199, 399):
            start = len(prefix) + sum(len(item) + 1 for item in items[:at])
            for planted, offset, message in _PLANTED_ERRORS:
                text = prefix + ",".join(items[:at] + [planted] + items[at + 1 :]) + ")"
                with pytest.raises(SeifertParseError) as exc:
                    parse_seifert(text)
                pos = start + offset
                assert (exc.value.position, str(exc.value)) == (pos, f"{message} (at position {pos})")

    @NEEDS_DIGIT_LIMIT
    def test_integer_digit_limit(self, default_limit):
        at_limit = "9" * default_limit
        assert parse_seifert(f"(0,o1|(2,{at_limit}))").pairs == ((2, int(at_limit)),)
        assert parse_seifert(f"(0,o1|(2,-{at_limit}))").pairs == ((2, -int(at_limit)),)
        assert parse_seifert(f"({at_limit},o1|)").base.genus == int(at_limit)
        past = at_limit + "9"
        for text, pos in [
            (f"(0,o1|(2,{past}))", 9),
            (f"(0,o1|(2,-{past}))", 9),
            (f"(0,o1|( {past} ,1))", 8),
            (f"(0,o1|(2,{past}),(2,1)", 9),
            (f"({past},o1|)", 1),
        ]:
            with pytest.raises(SeifertParseError) as exc:
                parse_seifert(text)
            assert exc.value.position == pos
            assert str(exc.value) == f"integer longer than {default_limit} digits (at position {pos})"


class TestPrint:
    def test_obstruction_term_printed(self):
        assert print_seifert(M(0, [(2, 1)] * 4, -2)) == "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))"

    def test_empty_descriptor(self):
        assert print_seifert(M(0)) == "(0,o1|)"

    def test_zero_b_omitted_after_regular_pair(self):
        assert print_seifert(M(0, [(2, 1)])) == "(0,o1|(2,1))"

    def test_trailing_unit_pair_forces_explicit_b(self):
        # Without the explicit (1,0) the stored (1,5) would re-parse as b.
        desc = M(2, [(2, 1), (1, 5)])
        assert print_seifert(desc) == "(2,o1|(2,1),(1,5),(1,0))"
        assert parse_seifert(print_seifert(desc)) == desc

    def test_round_trip_random(self):
        rng = random.Random(20240817)
        for _ in range(500):
            desc = random_descriptor(rng)
            assert parse_seifert(print_seifert(desc)) == desc

    def test_parse_then_print_is_canonical(self):
        assert print_seifert(parse_seifert("( 0 ,o1| (2,1), (1,0) )")) == "(0,o1|(2,1))"


class TestNormalize:
    def test_folds_large_p_and_unit_pair(self):
        got = normalize(M(0, [(2, 3), (1, -1)]))
        assert got == M(0, [(2, 1)], 0)

    def test_already_normalized(self):
        assert normalize(M(0, [(2, 1)])) == M(0, [(2, 1)])

    def test_unit_pair_absorbed(self):
        assert normalize(M(1, [(1, 5)])) == M(1, [], 5)

    def test_negative_p(self):
        assert normalize(M(0, [(3, -2)])) == M(0, [(3, 1)], -1)

    def test_euler_number_invariant_under_normalize(self):
        rng = random.Random(99)
        for _ in range(500):
            desc = random_descriptor(rng)
            assert euler_number(normalize(desc)) == euler_number(desc)


class TestEulerNumber:
    def test_flat_example(self):
        assert euler_number(M(0, [(2, 1)] * 4, -2)) == 0

    def test_empty(self):
        assert euler_number(M(0)) == 0

    def test_three_thirds(self):
        # Independent arithmetic: 1/3 + 1/3 + 1/3 - 1 = 0.
        expected = -(Fraction(1, 3) * 3 + Fraction(-1))
        assert expected == 0
        assert euler_number(M(0, [(3, 1)] * 3, -1)) == 0

    def test_nonzero(self):
        assert euler_number(M(1, [], 1)) == -1
        assert euler_number(M(0, [(2, 1)])) == Fraction(-1, 2)


class TestOrbifoldEulerCharacteristic:
    def test_four_order_two_points(self):
        assert orbifold_euler_characteristic(M(0, [(2, 1)] * 4, -2)) == 0

    def test_torus_no_points(self):
        assert orbifold_euler_characteristic(M(1)) == 0

    def test_two_order_two_points(self):
        assert orbifold_euler_characteristic(M(0, [(2, 1), (2, 1)], -1)) == 1

    def test_general_formula_matches_specialization(self):
        # With every q = 2, chi_orb equals chi(base) - n/2.
        for desc in window(3, 8):
            n = len(desc.pairs)
            chi_base = desc.base.euler_characteristic()
            assert orbifold_euler_characteristic(desc) == chi_base - Fraction(n, 2)

    def test_mixed_orders(self):
        got = orbifold_euler_characteristic(M(0, [(2, 1), (3, 1), (7, 1)]))
        assert got == 2 - Fraction(1, 2) - Fraction(2, 3) - Fraction(6, 7)


def _fraction_sums(desc):
    """Per-pair Fraction sums, the textbook form of e and chi_orb."""
    e = Fraction(desc.b)
    chi = Fraction(desc.base.euler_characteristic())
    for q, p in desc.pairs:
        e += Fraction(p, q)
        chi -= 1 - Fraction(1, q)
    return -e, chi


def _per_pair_normalize(desc):
    """The textbook fold, one pair at a time."""
    b, pairs = desc.b, []
    for q, p in desc.pairs:
        if q == 1:
            b += p
        else:
            b += p // q
            pairs.append((q, p % q))
    return M(desc.base.genus, pairs, b, desc.base.orientable)


def _per_pair_print(desc):
    items = [f"({q},{p})" for q, p in desc.pairs]
    if desc.b != 0 or (desc.pairs and desc.pairs[-1][0] == 1):
        items.append(f"(1,{desc.b})")
    base = "o1" if desc.base.orientable else "n1"
    return f"({desc.base.genus},{base}|{','.join(items)})"


class TestIntegerSums:
    def test_match_per_pair_fraction_sums(self):
        rng = random.Random(4013)
        orders = (1, 2, 2, 2, 3, 4, 5, 6, 7, 9, 11, 13, 16, 25, 31, 97)
        for _ in range(300):
            n = rng.choice((0, 1, 2, 3, 5, 8, 20, 50, 150, 400))
            pairs = []
            while len(pairs) < n:
                q = rng.choice(orders)
                p = rng.randint(-5 * q, 5 * q)
                if math.gcd(p, q) == 1:
                    pairs.append((q, p))
            orientable = rng.random() < 0.75
            genus = rng.randint(0 if orientable else 1, 9)
            desc = M(genus, pairs, rng.randint(-n - 5, n + 5), orientable)
            e, chi = _fraction_sums(desc)
            assert euler_number(desc) == e
            assert orbifold_euler_characteristic(desc) == chi
        # Few distinct pairs, each repeated many times, as in (g, o1|(2,1)^n, ...).
        for _ in range(200):
            pool = [(2, 1), (2, -1), (2, 3), (1, rng.randint(-3, 3))]
            while len(pool) < rng.randint(4, 7):
                q = rng.choice(orders)
                p = rng.randint(-5 * q, 5 * q)
                if math.gcd(p, q) == 1:
                    pool.append((q, p))
            n = rng.choice((2, 50, 199, 400))
            pairs = [rng.choice(pool[: rng.randint(1, len(pool))]) for _ in range(n)]
            desc = M(rng.randint(0, 9), pairs, rng.randint(-n, n))
            e, chi = _fraction_sums(desc)
            assert euler_number(desc) == e
            assert orbifold_euler_characteristic(desc) == chi
            folded = _per_pair_normalize(desc)
            assert normalize(desc) == folded
            assert euler_number(folded) == e
            assert print_seifert(desc) == _per_pair_print(desc)
            assert parse_seifert(print_seifert(desc)) == desc

    def test_normal_descriptor_returned_as_is(self):
        desc = M(2, [(2, 1), (3, 2), (7, 4)], -3)
        assert normalize(desc) is desc
        folded = normalize(M(2, [(2, 3), (1, 1), (3, -1)], -3))
        assert folded == M(2, [(2, 1), (3, 2)], -2)
        assert normalize(folded) is folded


def _orders(digits, count):
    """``count`` distinct orders of ``digits`` digits: 10**(digits-1) + i."""
    return [10 ** (digits - 1) + i for i in range(count)]


def _first_past_the_bound(orders):
    """The 1-based number of the first order at which the lcm of the orders
    so far passes ``MAX_LCM_BITS`` bits, by ``math.lcm``; None if none does."""
    L = 1
    for k, q in enumerate(orders, 1):
        L = math.lcm(L, q)
        if L.bit_length() > MAX_LCM_BITS:
            return k
    return None


class _CountedTally(dict):
    """A tally that counts the items a pass over it reads."""

    steps = 0

    def items(self):
        for item in super().items():
            self.steps += 1
            yield item


def _past_the_bound(fiber):
    return (
        f"fiber orders too large: their lcm passes {MAX_LCM_BITS} bits "
        f"at exceptional fiber {fiber}"
    )


class TestLcmBound:
    """The invariants are summed over L = lcm(q_i), which may have at most
    ``MAX_LCM_BITS`` bits: the pass that would grow L past that stops there
    and refuses, naming the exceptional fiber.  So the worst-case shapes, a
    descriptor of 1,200 distinct 100-digit orders (126 KB) and one of 4,000
    distinct 30-digit orders (140 KB), are refused after a few hundred steps
    of one pass, not summed whole."""

    @pytest.mark.parametrize("digits, count, fiber", [(100, 1200, 203), (30, 4000, 737)])
    def test_worst_case_shapes_stop_early(self, digits, count, fiber):
        orders = _orders(digits, count)
        assert _first_past_the_bound(orders) == fiber
        desc = M(0, [(q, 1) for q in orders])
        tally = _CountedTally(desc.tally)
        counted = SeifertInvariants._on_base(desc.base, desc.pairs, desc.b, tally)
        with pytest.raises(ValueError) as exc:
            euler_number(counted)
        assert str(exc.value) == _past_the_bound(fiber)
        assert tally.steps == fiber
        text = print_seifert(desc)
        assert len(text) > 125_000
        for command in ("admissible", "classify", "census", "psi-check"):
            result = run([command, text])
            assert (result.exit_code, result.message) == (1, _past_the_bound(fiber)), command

    def test_the_bound_is_on_the_bit_length(self):
        # L = 3 * 2**(MAX_LCM_BITS - 2) has MAX_LCM_BITS bits; twice it, one more.
        q = 2 ** (MAX_LCM_BITS - 2)
        at = M(0, [(3, 1), (q, 1)])
        assert orbifold_euler_characteristic(at) == 2 - Fraction(2, 3) - 1 + Fraction(1, q)
        # An odd order of MAX_LCM_BITS bits is L itself: the pass starts at L = 1.
        odd = 2**MAX_LCM_BITS - 1
        assert orbifold_euler_characteristic(M(0, [(odd, 1)])) == 1 + Fraction(1, odd)
        past = M(0, [(3, 1), (2 ** (MAX_LCM_BITS - 1), 1)])
        for invariant in (euler_number, orbifold_euler_characteristic, check_admissible):
            with pytest.raises(ValueError) as exc:
                invariant(past)
            assert str(exc.value) == _past_the_bound(2)
        # A fiber of order 2 written first is exceptional fiber 1.
        with pytest.raises(ValueError) as exc:
            euler_number(M(0, [(2, 1), *past.pairs]))
        assert str(exc.value) == _past_the_bound(3)

    def test_fibers_are_numbered_in_written_order(self):
        # A q = 1 pair before every order and a repeated fiber, written
        # unnormalized, after the first: the refusal counts the fibers of
        # order q > 1 as written, for the input and its normal form alike.
        orders = _orders(100, 300)
        fiber = _first_past_the_bound(orders) + 1
        pairs = [(orders[0], 1), (orders[0], 1 + orders[0])]
        for q in orders[1:]:
            pairs += [(1, -1), (q, 1)]
        body = ",".join(f"({q},{p})" for q, p in [(1, 5)] + pairs) + ")"
        for command, base in [
            ("classify", "(0,o1|"), ("admissible", "(2,o1|"), ("classify", "(2,n1|"), ("lift", "(2,n1|")
        ]:
            result = run([command, base + body])
            assert (result.exit_code, result.message) == (1, _past_the_bound(fiber)), (command, base)


def geometry(desc):
    """The trichotomy as the CLI reports it: the admissibility report's
    geometry on an orientable base, ``Other`` on a non-orientable one."""
    if not desc.base.orientable:
        return GeometryType(run(["classify", print_seifert(desc), "--json"]).payload["geometry"])
    return check_admissible(desc).geometry


class TestGeometry:
    def test_spherical_case(self):
        assert geometry(M(0, [(2, 1), (2, 1)], -1)) == GeometryType.S2xR

    def test_euclidean_case(self):
        assert geometry(M(0, [(2, 1)] * 4, -2)) == GeometryType.E3

    def test_hyperbolic_case(self):
        assert geometry(M(2)) == GeometryType.H2xR

    def test_inadmissible_inputs_get_other(self):
        assert geometry(M(0, [(3, 1)] * 3, -1)) == GeometryType.OTHER  # order 3 fibers
        assert geometry(M(1, [], 1)) == GeometryType.OTHER  # nonzero Euler number
        assert geometry(M(2, [], 0, orientable=False)) == GeometryType.OTHER

    def test_label_matches_chi_sign_on_admissible_window(self):
        signs = {GeometryType.S2xR: 1, GeometryType.E3: 0, GeometryType.H2xR: -1}
        for desc in window(4, 10):
            chi = orbifold_euler_characteristic(desc)
            sign = (chi > 0) - (chi < 0)
            assert signs[geometry(desc)] == sign


class TestValidation:
    def test_negative_genus(self):
        with pytest.raises(ValueError):
            BaseSurface(-1)

    def test_non_orientable_needs_genus(self):
        with pytest.raises(ValueError):
            BaseSurface(0, orientable=False)

    def test_non_coprime_construction(self):
        with pytest.raises(ValueError):
            M(0, [(4, 2)])

    @pytest.mark.parametrize("bad", [(0, 1), (-2, 1), (4, 2), (6, -9)])
    def test_bad_pair_refused_in_wide_descriptors(self, bad):
        message = "fiber order must be positive in" if bad[0] < 1 else "non-coprime pair"
        rng = random.Random(31)
        good = [rng.choice([(2, 1), (3, -1), (1, 4), (5, 2)]) for _ in range(399)]
        for pairs in (good + [bad], [bad] * 400, tuple(good + [bad]), (bad,) * 400):
            with pytest.raises(ValueError, match=rf"^{message} \({bad[0]},{bad[1]}\)$"):
                SeifertInvariants(BaseSurface(0), pairs, 0)
        text = "(0,o1|" + ",".join(f"({q},{p})" for q, p in good + [bad]) + ")"
        with pytest.raises(SeifertParseError) as exc:
            parse_seifert(text)
        assert exc.value.position == text.rindex("(")

    def test_list_input_converted_non_int_refused(self):
        class Order(int):
            pass

        expected = ((2, 1), (2, 1), (3, -1))
        for pairs in (
            [[2, 1], [2, 1], [3, -1]],
            [(2, 1), (2, 1), (3, -1)],
            ((2, 1), [2, 1], (3, -1)),
            (p for p in expected),
        ):
            desc = SeifertInvariants(BaseSurface(1), pairs, -1)
            assert desc.pairs == expected
            assert type(desc.pairs) is tuple and all(type(pair) is tuple for pair in desc.pairs)
            assert desc.tally == Counter(expected)
        # A pair entry, the genus and b are exact ints: nothing is converted,
        # so these are refused where they were once read as 1, 2, 3, 0 or -1.
        for genus, pairs, b, message in (
            (1, ((2, 1), (2, True), (3, -1)), -1, "p must be an integer, got True"),
            (1, ((Order(2), 1), (2, 1), (3, -1)), -1, "q must be an integer, got 2"),
            (1, ((2, 1), (2, 1), (3.0, -1)), -1, "q must be an integer, got 3.0"),
            (0, ((2, 1), (2, 1)), -1.0, "b must be an integer, got -1.0"),
            (1.5, ((2, 1), (2, 1)), -1, "genus must be an integer, got 1.5"),
            (Order(0), ((2, 1), (2, 1)), True, "genus must be an integer, got 0"),
        ):
            with pytest.raises(ValueError) as exc:
                SeifertInvariants(BaseSurface(genus), pairs, b)
            assert str(exc.value) == message

    def test_tally_outside_equality_hash_and_repr(self):
        a = M(0, [(2, 1)] * 4, -2)
        b = SeifertInvariants(BaseSurface(0), [[2, 1]] * 4, -2)
        assert a == b and hash(a) == hash(b)
        assert a.tally == Counter({(2, 1): 4})
        assert repr(a) == (
            "SeifertInvariants(base=BaseSurface(genus=0, orientable=True), "
            "pairs=((2, 1), (2, 1), (2, 1), (2, 1)), b=-2)"
        )
        assert a != M(0, [(2, 1)] * 2, -2)
        assert len({a, b, M(0, [(2, 1)] * 2, -1)}) == 2


def _built_descriptors():
    """Descriptors from every builder: each text the parse golden records as
    parsed, seeded random descriptors and their printed re-parses, and the
    50-400 fiber descriptors of the ``wide-descriptors`` benchmark workload."""
    golden = json.loads((Path(__file__).with_name("data") / "golden_parse.json").read_text())
    texts = [rec["text"] for rec in golden if "error" not in rec]
    rounds = itertools.islice(WORKLOADS["wide-descriptors"].rounds(5), 3)
    texts += [req.argv[1] for round_ in rounds for req in round_ if req.argv[0] != "enumerate"]
    texts.append("(1,o1|" + ",".join(_WIDE_POOL[i % len(_WIDE_POOL)] for i in range(400)) + ")")
    built = [parse_seifert(text) for text in texts]
    rng = random.Random(7)
    for _ in range(300):
        desc = random_descriptor(rng)
        built += [desc, parse_seifert(print_seifert(desc))]
    return built


def test_checked_fields_are_the_constructor_fields():
    """``parse_seifert`` and ``normalize`` hand their fields to ``_on_base``
    unchecked; each record they build must be the one the constructor
    builds from its fields, with exact int pairs and a read-only tally
    equal to the count of its pairs, in first-seen order."""
    built = _built_descriptors()
    assert len(built) > 800
    for M in built:
        for desc in (M, normalize(M)):
            rebuilt = SeifertInvariants(desc.base, desc.pairs, desc.b)
            assert rebuilt == desc and rebuilt.tally == desc.tally
            assert type(desc.pairs) is tuple and type(desc.b) is int
            assert all(type(pair) is tuple and len(pair) == 2 for pair in desc.pairs)
            assert all(type(x) is int for pair in desc.pairs for x in pair)
            assert list(desc.tally.items()) == list(Counter(desc.pairs).items())
            with pytest.raises(TypeError):
                desc.tally[(2, 1)] = 1
