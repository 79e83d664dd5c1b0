"""One type rule for every int field and int parameter, kept in one helper.

``seifinv._require`` passes a value only when its type is exactly the kind
asked for, and converts nothing: 2.5, 2.0, "2", True and an int subclass are
all refused as an int, with ``<name> must be an integer, got <repr>``.  The
refusal table below sends each of them to every int field of a record,
through its constructor, ``_replace`` and ``_make``, and to every int
parameter.  The guard below scans the package's modules so that no record
converts with ``int()`` again and no type check is copied outside the helper.
"""

import ast
from pathlib import Path

import pytest

from seifinv import (
    BaseSurface,
    FactorizationRecord,
    FillingSlope,
    InvolutionKind,
    SeifertInvariants,
    SurfaceInvolutionClass,
    classes_for_genus,
    enumerate_admissible,
    find_conjugator,
)
from seifinv.torus_mcg import IDENTITY


class Int(int):
    """An int subclass: its instances are not exact ints."""


NOT_INTS = [2.5, 2.0, "2", True, Int(2)]

SPIT = InvolutionKind.SPIT
DESCRIPTOR = SeifertInvariants(BaseSurface(0), ((2, 1),), 0)

# (record value, field, the field's value holding x, the refusal's name); each
# record is valid with x = 2.
RECORD_FIELDS = [
    (BaseSurface(1), "genus", None, "genus"),
    (DESCRIPTOR, "pairs", lambda x: ((2, 1), (x, 1)), "q"),
    (DESCRIPTOR, "pairs", lambda x: ((3, x),), "p"),
    (DESCRIPTOR, "b", None, "b"),
    (SurfaceInvolutionClass(SPIT, 4, 1), "g", None, "g"),
    (SurfaceInvolutionClass(SPIT, 4, 1), "r", None, "r"),
    (
        FactorizationRecord("preserved", SurfaceInvolutionClass(SPIT, 0, 0), 0),
        "fixed_boundary_count",
        None,
        "fixed boundary count",
    ),
    (FillingSlope(1, 1), "m", None, "m"),
    (FillingSlope(1, 1), "l", None, "l"),
]


def _builds(value, field, hold):
    """Each way to build ``value``'s record with x in ``field``, by name."""
    record = type(value)

    def fields(x):
        return {**value._asdict(), field: x if hold is None else hold(x)}

    return {
        "constructor": lambda x: record(**fields(x)),
        "_replace": lambda x: value._replace(**{field: fields(x)[field]}),
        "_make": lambda x: record._make(fields(x).values()),
    }


# (site, build(x), the refusal's name)
SITES = [
    (f"{type(value).__name__}.{name.replace(' ', '_')}-{way}", build, name)
    for value, field, hold, name in RECORD_FIELDS
    for way, build in _builds(value, field, hold).items()
] + [
    ("classes_for_genus", classes_for_genus, "genus"),
    ("enumerate_admissible-g_max", lambda x: enumerate_admissible(x, 2), "gmax"),
    ("enumerate_admissible-n_max", lambda x: enumerate_admissible(2, x), "nmax"),
    ("find_conjugator-bound", lambda x: find_conjugator(IDENTITY, IDENTITY, x), "bound"),
]


@pytest.mark.parametrize("site, build, name", SITES, ids=[s[0] for s in SITES])
def test_each_site_takes_an_int(site, build, name):
    build(2)


CASES = [(site, build, name, x) for site, build, name in SITES for x in NOT_INTS]


@pytest.mark.parametrize(
    "site, build, name, x", CASES, ids=[f"{c[0]}-{type(c[3]).__name__}-{c[3]!r}" for c in CASES]
)
def test_each_site_refuses_what_is_not_an_int(site, build, name, x):
    with pytest.raises(ValueError) as exc:
        build(x)
    assert str(exc.value) == f"{name} must be an integer, got {x!r}"


@pytest.mark.parametrize(
    "pairs, message",
    [
        (((2, 1), (2.0, 1)), "q must be an integer, got 2.0"),
        (((2, 1), (2, True)), "p must be an integer, got True"),
    ],
)
def test_every_pair_is_checked_not_only_each_tally_key(pairs, message):
    # Each second pair hash-equals (2, 1), so a Counter folds it into the
    # first pair's key: a check of the tally's keys alone would pass it.
    with pytest.raises(ValueError) as exc:
        SeifertInvariants(BaseSurface(0), pairs, -1)
    assert str(exc.value) == message


# The guard.  ``commands/`` is out of its scope: its ``integer()`` parses
# command-line text.
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seifinv"
MODULES = sorted(PACKAGE.glob("*.py"))


def _nodes(path: Path):
    """(name of the enclosing function or None, node) for every node of the
    module at ``path``."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            yield inner, child
            yield from walk(child, inner)

    return walk(ast.parse(path.read_text()), None)


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _type_checked(test: ast.expr) -> str | None:
    """The expression that ``test`` refuses by type, through
    ``not isinstance(x, ...)`` or ``type(x) is not ...``, or None."""
    for node in ast.walk(test):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            if _calls(node.operand, "isinstance"):
                return ast.unparse(node.operand.args[0])
        if isinstance(node, ast.Compare) and _calls(node.left, "type"):
            if any(isinstance(op, ast.IsNot) for op in node.ops):
                return ast.unparse(node.left.args[0])
    return None


def test_no_int_conversion_but_the_parsers_token():
    conversions = [
        (path.name, owner)
        for path in MODULES
        for owner, node in _nodes(path)
        if _calls(node, "int")
    ]
    assert conversions == [("invariants.py", "_integer")]


def test_type_refusals_only_in_the_helper():
    # Every block that refuses by type, with the function it is in and the
    # expression it checks: only the helper's, and BaseSurface's check that
    # orientable is exactly a bool, which has its own message.
    refusals = {
        (path.name, owner, checked)
        for path in MODULES
        for owner, node in _nodes(path)
        if isinstance(node, ast.If)
        and (checked := _type_checked(node.test)) is not None
        and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
    }
    assert refusals == {
        ("__init__.py", "_require", "value"),
        ("invariants.py", "__new__", "orientable"),
    }
