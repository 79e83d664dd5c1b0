"""Exact descriptors for orientable Seifert fibered 3-manifolds.

A descriptor records the base surface (genus plus orientability), an ordered
list of exceptional-fiber pairs ``(q, p)``, and the integer obstruction term
``b``.  The text notation is ASCII and whitespace-insensitive::

    descriptor := "(" INT "," base "|" pairs? ")"
    base       := "o1" | "n1"
    pairs      := pair ("," pair)*
    pair       := "(" INT "," INT ")"

A trailing pair whose first entry is 1 is read as the obstruction term, so
``(0,o1|(2,1),(2,1),(1,-1))`` has two exceptional fibers and b = -1.  Pairs
with q = 1 elsewhere in the list are kept verbatim: they express the
unnormalized bookkeeping form and are folded into b only by ``normalize``,
never implicitly.

All arithmetic is exact: the invariants are ``Rational`` values, summed in
integers and reduced once, and no floating point appears anywhere in this
package.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections import Counter
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from . import _Checked, _require

__all__ = [
    "BaseSurface",
    "GeometryType",
    "SeifertInvariants",
    "SeifertParseError",
    "euler_number",
    "normalize",
    "orbifold_euler_characteristic",
    "parse_seifert",
    "print_seifert",
]


class GeometryType(Enum):
    """Geometry carried by a descriptor that admits a reversing involution.

    ``OTHER`` is returned for every input outside that family; no geometry is
    guessed for manifolds with nonzero Euler number.
    """

    S2xR = "S2xR"
    E3 = "E3"
    H2xR = "H2xR"
    OTHER = "Other"


class SeifertParseError(ValueError):
    """Malformed descriptor text; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The descriptor checks the records and the parser share: each returns the
# refusal message, or None when the data passes.
def _base_problem(genus: int, orientable: bool = True) -> str | None:
    if genus < 0:
        return "genus must be non-negative"
    if not orientable and genus == 0:
        return "non-orientable base surface needs genus >= 1"
    return None


def _pair_problem(q: int, p: int) -> str | None:
    if q < 1:
        return f"fiber order must be positive in ({q},{p})"
    if math.gcd(p, q) != 1:
        return f"non-coprime pair ({q},{p})"
    return None


class _BaseSurfaceFields(NamedTuple):
    genus: int
    orientable: bool


class BaseSurface(_Checked, _BaseSurfaceFields):
    __slots__ = ()

    def __new__(cls, genus: int, orientable: bool = True):
        _require(genus, int, "genus")
        if problem := _base_problem(genus, _require(orientable, bool, "orientable")):
            raise ValueError(problem)
        return super().__new__(cls, genus, orientable)

    def euler_characteristic(self) -> int:
        if self.orientable:
            return 2 - 2 * self.genus
        return 2 - self.genus


class _SeifertFields(NamedTuple):
    base: BaseSurface
    pairs: tuple[tuple[int, int], ...]
    b: int


class SeifertInvariants(_Checked, _SeifertFields):
    """Descriptor (g, o1 | (q1,p1), ..., (1,b)) with exact integer data.

    ``tally`` maps each distinct pair to its multiplicity, in first-seen
    order; the invariants are computed from it, once per distinct pair.
    ``_on_base`` derives it from ``pairs`` and keeps it outside the tuple, so
    it takes no part in equality, hashing or repr.  It is a read-only
    mapping.  The constructor checks the type of every pair entry first,
    since ``(2.0, 1)`` would count as ``(2, 1)``, then each distinct pair, in
    written order.
    """

    def __new__(cls, base: BaseSurface, pairs=(), b: int = 0):
        try:
            entries = iter(pairs)
        except TypeError:
            raise ValueError(f"pairs must be an iterable of (q, p) pairs, got {pairs!r}") from None
        checked = []
        for pair in entries:
            try:
                q, p = pair
            except (TypeError, ValueError):
                raise ValueError(f"pair must be (q, p), got {pair!r}") from None
            checked.append((_require(q, int, "q"), _require(p, int, "p")))
        pairs = tuple(checked)
        for q, p in dict.fromkeys(pairs):
            if problem := _pair_problem(q, p):
                raise ValueError(problem)
        return cls._on_base(base, pairs, _require(b, int, "b"))

    @classmethod
    def _on_base(cls, base, pairs, b, tally=None):
        """The record on ``base``, checked here, of fields the caller vouches
        for: ``pairs`` a tuple of (int, int) tuples that pass ``_pair_problem``
        and ``b`` an int.  The tally is derived here from ``pairs`` unless the
        caller passes one, a read-only mapping equal to ``Counter(pairs)``;
        only ``admissibility._window`` passes one, built with its pairs."""
        _require(base, BaseSurface, "base")
        self = super().__new__(cls, base, pairs, b)
        if tally is None:
            tally = MappingProxyType(Counter(pairs))
        object.__setattr__(self, "tally", tally)
        return self

    def __reduce__(self):
        # Copies and pickles are rebuilt through the constructor, which
        # derives the tally again.
        return type(self), tuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to attribute {name!r}")

    def __str__(self) -> str:
        return print_seifert(self)


# The descriptor grammar as token tables, each token a regex and the name its
# refusal gives it.  \s and \d match exactly the code points str.isspace and
# str.isdecimal accept.
_INT = (r"-?\d+", "an integer")
_OPEN, _COMMA, _CLOSE = (r"\(", "'('"), (",", "','"), (r"\)", "')'")
_HEAD = (_OPEN, _INT, _COMMA, ("o1|n1", "base 'o1' or 'n1'"), (r"\|", "'|'"))
_PAIR = (_OPEN, _INT, _COMMA, _INT, _CLOSE)
_TAIL = (_CLOSE,)


def _reader(tokens) -> re.Pattern:
    """A pattern that reads ``tokens`` in order, skipping whitespace before
    each, and stops at the first token the text lacks: a match's
    ``lastindex`` counts the tokens read, and its ``end()`` is where the
    next token was due."""
    pattern = ""
    for regex, _ in reversed(tokens):
        pattern = rf"(?:({regex})\s*{pattern})?"
    return re.compile(r"\s*" + pattern)


_HEAD_READER, _PAIR_READER, _TAIL_READER = map(_reader, (_HEAD, _PAIR, _TAIL))
# One whole pair and the comma after it, if any: the same tokens, none
# optional.  Reading a pair takes one match of this; only a pair it rejects
# is read again, by _PAIR_READER, to find the refusal.
_PAIR_RE = re.compile(r"\s*" + "".join(rf"({regex})\s*" for regex, _ in _PAIR) + r"(,?)\s*")


def _expect(m: re.Match, tokens, count: int) -> None:
    """Refuse unless the reader match ``m`` read the first ``count`` of
    ``tokens``, naming the first one missing where it was due."""
    read = m.lastindex or 0
    if read < count:
        raise SeifertParseError(f"expected {tokens[read][1]}", m.end())


def _integer(m: re.Match, group: int) -> int:
    """The ``-?\\d+`` token ``m`` read as ``group``, as an int."""
    try:
        return int(m[group])
    except ValueError:  # such a token converts unless it is past the digit limit
        raise SeifertParseError(
            f"integer longer than {sys.get_int_max_str_digits()} digits", m.start(group)
        ) from None


def parse_seifert(text: str) -> SeifertInvariants:
    """Parse descriptor notation.

    Pairs are kept in written order and nothing is normalized.  A trailing
    (1, x) pair sets the obstruction term b.  Raises ``SeifertParseError``
    (carrying the failing position) for syntax errors, non-coprime pairs,
    non-positive fiber orders, and integers longer than
    ``sys.get_int_max_str_digits()`` digits.  The text is checked in
    reading order, and the first failure is the one refused: a missing
    token is named where it was due, after any whitespace.
    """
    m = _HEAD_READER.match(text)
    _expect(m, _HEAD, 2)
    genus = _integer(m, 2)
    if problem := _base_problem(genus):
        raise SeifertParseError(problem, m.start(2))
    _expect(m, _HEAD, 4)
    orientable = m[4] == "o1"
    if problem := _base_problem(genus, orientable):
        raise SeifertParseError(problem, m.start(2))
    _expect(m, _HEAD, 5)
    pos = m.end()
    pairs: list[tuple[int, int]] = []
    more = not text.startswith(")", pos)
    while more:
        m = _PAIR_RE.match(text, pos)
        if m is None:  # refused: q, ',', p and ')' are checked in that order
            m = _PAIR_READER.match(text, pos)
            for count in (2, 4):
                _expect(m, _PAIR, count)
                _integer(m, count)
            _expect(m, _PAIR, 5)  # raises: _PAIR_RE matches a whole pair
        q, p = _integer(m, 2), _integer(m, 4)
        if problem := _pair_problem(q, p):
            raise SeifertParseError(problem, m.start(1))
        pairs.append((q, p))
        pos = m.end()
        more = m[6] == ","
    m = _TAIL_READER.match(text, pos)
    _expect(m, _TAIL, 1)
    if m.end() < len(text):
        raise SeifertParseError("unexpected trailing text", m.end())
    b = pairs.pop()[1] if pairs and pairs[-1][0] == 1 else 0
    return SeifertInvariants._on_base(BaseSurface(genus, orientable), tuple(pairs), b)


def print_seifert(M: SeifertInvariants) -> str:
    """Canonical text form; ``parse_seifert(print_seifert(M)) == M``.

    The text is the head of the base, ``_print_head``, followed by the body
    of the fibers, ``_print_body``, which reads only the pairs and b; the
    rows of one fiber count in ``admissibility._window`` share one body.  The
    obstruction term is printed as a trailing (1, b) pair when b != 0, and
    also when the stored pair list itself ends in a q = 1 pair (so the
    trailing pair is never mistaken for the obstruction term on re-parse).
    Each distinct pair is formatted once.
    """
    _require(M, SeifertInvariants, "descriptor")
    return _print_head(M.base) + _print_body(M)


def _print_head(base: BaseSurface) -> str:
    return f"({base.genus},{'o1' if base.orientable else 'n1'}|"


def _print_body(M: SeifertInvariants) -> str:
    text = {(q, p): f"({q},{p})" for q, p in M.tally}
    items = list(map(text.__getitem__, M.pairs))
    if M.b != 0 or (M.pairs and M.pairs[-1][0] == 1):
        items.append(f"(1,{M.b})")
    return ",".join(items) + ")"


def normalize(M: SeifertInvariants) -> SeifertInvariants:
    """Fold every pair into the range 0 < p < q and absorb q = 1 pairs into b.

    One rule folds every pair: (q,p) adds p // q to b and leaves
    (q, p mod q) in its place, or nothing when q = 1, since p // 1 = p is
    then the whole pair.  So the Euler number is preserved exactly.  A
    descriptor that is already normal is returned as it is.  Each distinct
    pair is folded once, and ``_on_base`` derives the folded pairs' tally.
    """
    _require(M, SeifertInvariants, "descriptor")
    if all(0 < p < q for q, p in M.tally):
        return M
    # gcd(p, q) = 1 and q >= 2, so 0 < p % q < q and (q, p % q) is coprime
    folded = {(q, p): (q, p % q) if q > 1 else None for q, p in M.tally}
    b = M.b + sum(count * (p // q) for (q, p), count in M.tally.items())
    pairs = tuple(filter(None, map(folded.__getitem__, M.pairs)))
    return SeifertInvariants._on_base(M.base, pairs, b)


def _compared(op):
    """A ``Rational`` comparison method applying ``op`` to cross products."""

    def compare(self, other):
        if type(other) is int:
            return op(self._numerator, other * self._denominator)
        n, d = getattr(other, "numerator", None), getattr(other, "denominator", None)
        if not isinstance(n, int) or not isinstance(d, int) or d < 1:
            return NotImplemented
        return op(self._numerator * d, n * self._denominator)

    return compare


class Rational:
    """The exact rational number ``numerator/denominator``, stored in lowest
    terms with ``denominator > 0``; the value of the two invariants.

    It prints as ``fractions.Fraction`` does ("n" or "n/d") and hashes as the
    equal ``Fraction`` does.  It compares by value, by cross-multiplication,
    with an int and with anything that has int ``numerator`` and positive
    int ``denominator`` attributes (another ``Rational``, a ``Fraction``);
    an int multiplies it.  It has no other arithmetic and is not registered
    with ``numbers``, so neither ``fractions`` nor ``numbers`` is imported.
    Like ``Fraction``, it keeps its terms in private slots behind read-only
    properties.
    """

    __slots__ = ("_numerator", "_denominator")

    def __init__(self, numerator: int, denominator: int):
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        g = math.gcd(numerator, denominator)
        self._numerator = numerator // g
        self._denominator = denominator // g

    @property
    def numerator(self) -> int:
        return self._numerator

    @property
    def denominator(self) -> int:
        return self._denominator

    def __repr__(self) -> str:
        return f"Rational({self._numerator}, {self._denominator})"

    def __str__(self) -> str:
        if self._denominator == 1:
            return str(self._numerator)
        return f"{self._numerator}/{self._denominator}"

    def __bool__(self) -> bool:
        return self._numerator != 0

    def __hash__(self) -> int:
        # The numeric hash of n/d, as Fraction computes it.
        try:
            inverse = pow(self._denominator, -1, sys.hash_info.modulus)
        except ValueError:  # the modulus divides the denominator
            h = sys.hash_info.inf
        else:
            h = hash(hash(abs(self._numerator)) * inverse)
        h = h if self._numerator >= 0 else -h
        return -2 if h == -1 else h

    def __mul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Rational(other * self._numerator, self._denominator)

    __rmul__ = __mul__
    __eq__ = _compared(operator.eq)
    __lt__ = _compared(operator.lt)
    __le__ = _compared(operator.le)
    __gt__ = _compared(operator.gt)
    __ge__ = _compared(operator.ge)


# The largest lcm of the fiber orders a descriptor may have, in bits (19,729
# decimal digits): past it the sums are refused rather than grown, so one
# descriptor's invariants cost one step per distinct pair on integers of at
# most about this size.
MAX_LCM_BITS = 1 << 16


def _e_and_chi(M: SeifertInvariants) -> tuple[Rational, Rational]:
    """(``euler_number(M)``, ``orbifold_euler_characteristic(M)``) from one
    pass over ``M.tally``, each reduced once: the pass of every caller.

    The pass sums count*p*(L/q) and count*(L - L/q) with L = lcm(q_i):
    whenever a pair's q grows L, the sums taken so far are scaled up with it.
    A q that takes L past ``MAX_LCM_BITS`` bits stops the pass with a
    ``ValueError`` naming the first exceptional fiber (order q > 1, counted
    in written order, so normalizing keeps the number) at which the lcm of
    the orders so far passes the bound.  Refuses anything but a descriptor.
    """
    _require(M, SeifertInvariants, "descriptor")
    L = 1
    fibers = deficit = 0
    for (q, p), count in M.tally.items():
        if L % q:
            grow = q // math.gcd(L, q)
            L *= grow
            if L.bit_length() > MAX_LCM_BITS:
                written = M.pairs[: M.pairs.index((q, p)) + 1]
                fiber = sum(1 for q_i, _ in written if q_i > 1)
                raise ValueError(
                    f"fiber orders too large: their lcm passes {MAX_LCM_BITS} bits "
                    f"at exceptional fiber {fiber}"
                )
            fibers *= grow
            deficit *= grow
        share = L // q
        fibers += count * p * share
        deficit += count * (L - share)
    chi = M.base.euler_characteristic() * L - deficit
    return Rational(-(M.b * L + fibers), L), Rational(chi, L)


def euler_number(M: SeifertInvariants) -> Rational:
    """e = -(b + sum of p_i/q_i), exactly.

    The sum is taken in integers over the common denominator L = lcm(q_i),
    e = -(b*L + sum of p_i*(L/q_i)) / L, in one pass over the distinct pairs
    weighted by their multiplicities, and reduced once at the end.  Refused
    when L passes ``MAX_LCM_BITS`` bits.
    """
    return _e_and_chi(M)[0]


def orbifold_euler_characteristic(M: SeifertInvariants) -> Rational:
    """chi of the underlying base surface minus sum of (1 - 1/q_i).

    Summed in integers over L = lcm(q_i) as (chi*L - sum of (L - L/q_i)) / L,
    in one pass over the distinct pairs weighted by their multiplicities, and
    reduced once at the end.  Refused when L passes ``MAX_LCM_BITS`` bits.
    """
    return _e_and_chi(M)[1]
