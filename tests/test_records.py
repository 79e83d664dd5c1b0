"""The library's records are NamedTuples; the validated ones check their
fields in ``__new__``.  These tests pin what the frozen dataclasses they
replace did: construction by position and by keyword, every refusal with its
exact message, the sign fold of a filling slope, and the hash of the field
tuple, so sets of records iterate in the same order.
"""

import copy
import pickle
from collections import Counter

import pytest

from seifinv import (
    BaseSurface,
    admissibility,
    FactorizationRecord,
    FillingSlope,
    IntMatrix2,
    InvolutionKind,
    SeifertInvariants,
    SurfaceInvolutionClass,
    check_admissible,
    euler_number,
    extension_condition,
    find_conjugator,
    fixed_point_data,
    involution_class,
    is_involution,
    lift_to_double_cover,
    mat_det,
    mat_mul,
    normalize,
    orbifold_euler_characteristic,
    print_seifert,
)
from seifinv.filling import verify_v221_construction
from seifinv.torus_mcg import IDENTITY
from util import window

ID, SPIT, ROT, REFL, ANTI = (
    InvolutionKind.ID,
    InvolutionKind.SPIT,
    InvolutionKind.ROT,
    InvolutionKind.REFL,
    InvolutionKind.ANTI,
)
SPIT00 = SurfaceInvolutionClass(SPIT, 0, 0)

# (record, positional args, keyword args); both build the same value.
CONSTRUCTIONS = [
    (BaseSurface, (2, False), {"genus": 2, "orientable": False}),
    (
        SeifertInvariants,
        (BaseSurface(0), ((2, 1), (2, 1)), -1),
        {"base": BaseSurface(0), "pairs": ((2, 1), (2, 1)), "b": -1},
    ),
    (FillingSlope, (3, 1), {"m": 3, "l": 1}),
    (
        FactorizationRecord,
        ("reversed", SPIT00, 2),
        {"fiber_orientation": "reversed", "surface_class": SPIT00, "fixed_boundary_count": 2},
    ),
    (SurfaceInvolutionClass, (REFL, 3, 1), {"kind": REFL, "g": 3, "r": 1}),
    (IntMatrix2, (1, -2, 0, -1), {"a": 1, "b": -2, "c": 0, "d": -1}),
]


@pytest.mark.parametrize(
    "record, args, kwargs", CONSTRUCTIONS, ids=[c[0].__name__ for c in CONSTRUCTIONS]
)
def test_positional_and_keyword_construction_agree(record, args, kwargs):
    by_position, by_keyword = record(*args), record(**kwargs)
    assert by_position == by_keyword and type(by_keyword) is record
    assert tuple(by_keyword) == args
    assert by_keyword._fields == tuple(kwargs)
    assert hash(by_position) == hash(args)


def test_defaults():
    assert BaseSurface(1) == BaseSurface(1, True)
    assert SeifertInvariants(BaseSurface(1)) == SeifertInvariants(BaseSurface(1), (), 0)
    assert SurfaceInvolutionClass(ID, 4) == SurfaceInvolutionClass(ID, 4, 0)


REFUSALS = [
    (BaseSurface, (-1,), "genus must be non-negative"),
    (BaseSurface, (0, False), "non-orientable base surface needs genus >= 1"),
    (BaseSurface, (1, "no"), "orientable must be a bool, got 'no'"),
    (BaseSurface, (1, None), "orientable must be a bool, got None"),
    (BaseSurface, (1, 1), "orientable must be a bool, got 1"),
    (SeifertInvariants, (BaseSurface(0), ((0, 1),)), "fiber order must be positive in (0,1)"),
    (SeifertInvariants, (BaseSurface(0), ((-3, 1),)), "fiber order must be positive in (-3,1)"),
    (SeifertInvariants, (BaseSurface(0), ((2, 1), (4, 2))), "non-coprime pair (4,2)"),
    (SeifertInvariants, ((0, True), ((2, 1),)), "base must be a BaseSurface, got (0, True)"),
    # A malformed container of pairs, refused where it fails, naming it.
    (SeifertInvariants, (BaseSurface(0), (2, 1)), "pair must be (q, p), got 2"),
    (SeifertInvariants, (BaseSurface(0), ((2,),)), "pair must be (q, p), got (2,)"),
    (SeifertInvariants, (BaseSurface(0), ((2, 1, 0),)), "pair must be (q, p), got (2, 1, 0)"),
    (SeifertInvariants, (BaseSurface(0), ("(2,1)",)), "pair must be (q, p), got '(2,1)'"),
    (SeifertInvariants, (BaseSurface(0), ("21",)), "q must be an integer, got '2'"),
    (
        SeifertInvariants,
        (BaseSurface(0), None),
        "pairs must be an iterable of (q, p) pairs, got None",
    ),
    (SeifertInvariants, (BaseSurface(0), 2), "pairs must be an iterable of (q, p) pairs, got 2"),
    (FillingSlope, (0, 0), "slope (0,0) does not name a curve"),
    (FillingSlope, (2, 4), "slope (2,4) is not primitive"),
    (FillingSlope, (-3, 0), "slope (-3,0) is not primitive"),
    (FillingSlope, (-3.0, -1.0), "m must be an integer, got -3.0"),
    (FactorizationRecord, ("sideways", SPIT00, 0), "unknown fiber orientation 'sideways'"),
    (FactorizationRecord, ("preserved", SPIT00, -1), "fixed boundary count must be non-negative"),
    (
        FactorizationRecord,
        ("preserved", "spit", 2),
        "surface class must be a SurfaceInvolutionClass, got 'spit'",
    ),
    (SurfaceInvolutionClass, ("spit", 2, 0), "kind must be an InvolutionKind, got 'spit'"),
    (SurfaceInvolutionClass, (REFL, True, False), "g must be an integer, got True"),
    (SurfaceInvolutionClass, (ID, -1), "genus and r must be non-negative"),
    (SurfaceInvolutionClass, (SPIT, 2, -1), "genus and r must be non-negative"),
    (SurfaceInvolutionClass, (ID, 2, 1), "id takes no r parameter"),
    (SurfaceInvolutionClass, (ROT, 3, 1), "rot takes no r parameter"),
    (SurfaceInvolutionClass, (ROT, 2), "rot exists only for odd genus"),
    (SurfaceInvolutionClass, (SPIT, 3, 2), "spit needs r <= g/2"),
    (SurfaceInvolutionClass, (REFL, 3, 2), "refl needs r <= g/2"),
    (SurfaceInvolutionClass, (ANTI, 3, 4), "anti needs r <= g"),
]


@pytest.mark.parametrize("record, args, message", REFUSALS, ids=[r[2] for r in REFUSALS])
def test_refusal_messages(record, args, message):
    with pytest.raises(ValueError) as exc:
        record(*args)
    assert str(exc.value) == message


# The same two bad pairs in both orders: whatever order a set would visit
# them in, one of the two cases tells it from written order.
@pytest.mark.parametrize(
    "pairs, message",
    [
        (((2, 1), (6, 4), (0, 1)), "non-coprime pair (6,4)"),
        (((2, 1), (0, 1), (6, 4)), "fiber order must be positive in (0,1)"),
    ],
)
def test_the_first_bad_pair_in_written_order_is_refused(pairs, message):
    with pytest.raises(ValueError) as exc:
        SeifertInvariants(BaseSurface(0), pairs)
    assert str(exc.value) == message


# (public function, the record it takes, the refusal's name for its argument)
TAKERS = [
    (check_admissible, "SeifertInvariants", "descriptor"),
    (normalize, "SeifertInvariants", "descriptor"),
    (euler_number, "SeifertInvariants", "descriptor"),
    (orbifold_euler_characteristic, "SeifertInvariants", "descriptor"),
    (print_seifert, "SeifertInvariants", "descriptor"),
    (lift_to_double_cover, "SeifertInvariants", "descriptor"),
    (extension_condition, "FillingSlope", "slope"),
    (fixed_point_data, "SurfaceInvolutionClass", "surface class"),
    (mat_det, "IntMatrix2", "matrix"),
    (mat_mul, "IntMatrix2", "matrix"),
    (is_involution, "IntMatrix2", "matrix"),
    (involution_class, "IntMatrix2", "matrix"),
    (find_conjugator, "IntMatrix2", "matrix"),
    (verify_v221_construction, "IntMatrix2", "matrix"),
]
# The call of a function that takes more than the one argument refused,
# with that argument in the place named.
CALLS = {
    mat_mul: lambda A: mat_mul(IDENTITY, A),
    find_conjugator: lambda A: find_conjugator(A, IDENTITY, 5),
    verify_v221_construction: lambda A: verify_v221_construction(outer=A),
}
# Each a plain tuple, a string or a record of another type; a record is
# refused by every function that does not take its type.
WRONG_ARGUMENTS = [
    (BaseSurface(0), ((2, 1), (2, 1)), -1),
    (1, 2),
    (SPIT, 2, 0),
    "(0,o1|(2,1),(2,1),(1,-1))",
    "(1,2)",
    "spit(2,0)",
    SeifertInvariants(BaseSurface(2, False), ((2, 1),), -1),
    FillingSlope(1, 2),
    SurfaceInvolutionClass(SPIT, 2, 0),
    BaseSurface(1),
    IntMatrix2(-1, 0, 0, 1),
    (1, 0, 0, -1),
]


WRONG_TYPES = [
    (function, takes, name, argument)
    for function, takes, name in TAKERS
    for argument in WRONG_ARGUMENTS
    if type(argument).__name__ != takes
]


@pytest.mark.parametrize(
    "function, takes, name, argument",
    WRONG_TYPES,
    ids=[f"{w[0].__name__}-{w[3]!r}" for w in WRONG_TYPES],
)
def test_entry_points_refuse_other_types(function, takes, name, argument):
    with pytest.raises(ValueError) as exc:
        CALLS.get(function, function)(argument)
    article = "an" if takes[0] in "AEIOU" else "a"
    assert str(exc.value) == f"{name} must be {article} {takes}, got {argument!r}"


@pytest.mark.parametrize(
    "given, stored", [((-1, -2), (1, 2)), ((3, -1), (-3, 1)), ((-1, 0), (1, 0)), ((1, 2), (1, 2))]
)
def test_filling_slope_folds_the_sign(given, stored):
    slope = FillingSlope(*given)
    assert (slope.m, slope.l) == stored
    assert slope == FillingSlope(m=given[0], l=given[1])
    assert str(slope) == f"({stored[0]},{stored[1]})"


def test_matrix_hash_is_the_field_tuple_hash():
    entries = [(a, b, c, d) for a in (-2, 0, 1) for b in (-1, 3) for c in (0, 5) for d in (-7, 1)]
    for t in entries:
        assert hash(IntMatrix2(*t)) == hash(t)
    # Equal hashes and equal insertion order: a frozenset of matrices
    # iterates in the order of the frozenset of their entry tuples.
    assert [tuple(A) for A in frozenset(IntMatrix2(*t) for t in entries)] == list(
        frozenset(entries)
    )


def test_validated_records_are_frozen():
    M = SeifertInvariants(BaseSurface(0), ((2, 1), (2, 1)), -1)
    for record, name in [(M, "b"), (M, "tally"), (M, "extra"), (FillingSlope(1, 2), "m")]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        FillingSlope(1, 2).extra = 0
    # The tally, kept outside the tuple, is read-only too.
    with pytest.raises(TypeError):
        M.tally[(2, 1)] = 5
    assert M.tally == {(2, 1): 2}


# (record value, fields replaced, a replacement the constructor refuses, its message)
REPLACEMENTS = [
    (
        BaseSurface(2, False),
        {"genus": 3},
        {"genus": 0},
        "non-orientable base surface needs genus >= 1",
    ),
    (
        SeifertInvariants(BaseSurface(0), ((2, 1), (2, 1)), -1),
        {"b": -2},
        {"pairs": ((2, 1), (4, 2))},
        "non-coprime pair (4,2)",
    ),
    (
        SeifertInvariants(BaseSurface(0), ((2, 1), (2, 1)), -1),
        {"base": BaseSurface(3)},
        {"base": (0, True)},
        "base must be a BaseSurface, got (0, True)",
    ),
    (FillingSlope(1, 2), {"l": -4}, {"m": 2}, "slope (2,2) is not primitive"),
    (
        FactorizationRecord("reversed", SPIT00, 2),
        {"fixed_boundary_count": 0},
        {"fiber_orientation": "sideways"},
        "unknown fiber orientation 'sideways'",
    ),
    (SurfaceInvolutionClass(REFL, 3, 1), {"r": 0}, {"r": 2}, "refl needs r <= g/2"),
    (IntMatrix2(1, 0, 0, -1), {"b": 2}, {"c": 1.5}, "c must be an integer, got 1.5"),
]


@pytest.mark.parametrize(
    "value, changes, refused, message",
    REPLACEMENTS,
    # The row that replaces a descriptor's base has an id naming the field.
    ids=[type(r[0]).__name__ + ("-base" if "base" in r[1] else "") for r in REPLACEMENTS],
)
def test_replace_and_make_run_the_constructor(value, changes, refused, message):
    record = type(value)
    expected = record(**{**value._asdict(), **changes})
    for got in (value._replace(**changes), record._make(tuple(expected))):
        assert type(got) is record and got == expected
        assert str(got) == str(expected)
    for build in (
        lambda: value._replace(**refused),
        lambda: record._make(tuple({**value._asdict(), **refused}.values())),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_replace_keeps_the_tally_and_folds_the_slope():
    M = SeifertInvariants(BaseSurface(0), ((2, 1), (2, 1)), -1)._replace(b=-2)
    assert M.tally == {(2, 1): 2} and str(M) == "(0,o1|(2,1),(2,1),(1,-2))"
    # A new base alone runs the constructor too, which counts the tally again.
    N = M._replace(base=BaseSurface(4))
    assert (N.pairs, N.b, N.tally) == (M.pairs, M.b, M.tally)
    assert str(N) == "(4,o1|(2,1),(2,1),(1,-2))"
    assert tuple(FillingSlope(1, 2)._replace(l=-4)) == (-1, 4)


def test_window_passes_the_tally_of_its_pairs(monkeypatch):
    # _window hands _on_base a tally it builds itself, one record per fiber
    # count; the checked constructor, which counts its own, must build the
    # same record.
    built = []
    on_base = SeifertInvariants._on_base

    def recorded(cls, *args):
        built.append(on_base(*args))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(SeifertInvariants, "_on_base", classmethod(recorded))
        rows = admissibility._window(3, 6)
    assert [len(M.pairs) for M in built] == [0, 2, 4, 6]
    for M in built:
        assert M == SeifertInvariants(BaseSurface(0), M.pairs, M.b)
        assert M.tally == Counter(M.pairs) and M.b == -len(M.pairs) // 2
        with pytest.raises(TypeError):
            M.tally[(2, 1)] = 5
    # The 16 rows, genus-major, then by fiber count.
    assert [text for text, _, _ in rows] == list(map(str, window(3, 6)))


def test_copies_and_pickles_keep_a_read_only_tally():
    M = SeifertInvariants(BaseSurface(0), ((2, 1), (2, 1)), -1)._replace(base=BaseSurface(2))
    for got in (copy.copy(M), copy.deepcopy(M), pickle.loads(pickle.dumps(M))):
        assert got == M and str(got) == str(M) and got.tally == {(2, 1): 2}
        with pytest.raises(TypeError):
            got.tally[(2, 1)] = 5
