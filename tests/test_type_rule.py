"""One type rule for every field and parameter, kept in one helper.

``seifinv._require`` passes a value only when its type is exactly the kind
asked for, and converts nothing: 2.5, 2.0, "2", True and an int subclass are
all refused as an int, with ``<name> must be an integer, got <repr>``.  The
refusal table below sends each of them to every int field of a record,
through its constructor, ``_replace`` and ``_make``, and to every int
parameter; a base's ``orientable`` refuses every one that is not a bool.
The guard below scans the package's modules so that no record converts with
``int()`` again, no type check is copied outside the helper, and no record
builds its own ``_make`` or ``_replace`` beside the shared one.  Two more
scans keep every import in use: no module imports a name it never reads, and
only a module with an annotation imports ``annotations`` from ``__future__``.
A last scan lists the private layer names each command handler reads.
"""

import ast
from pathlib import Path

import pytest

from seifinv import (
    BaseSurface,
    FactorizationRecord,
    FillingSlope,
    IntMatrix2,
    InvolutionKind,
    SeifertInvariants,
    SurfaceInvolutionClass,
    _LAYERS,
    admissibility,
    classes_for_genus,
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
] + [(IntMatrix2(1, 0, 0, 1), entry, None, entry) for entry in "abcd"]


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
    ("_window-g_max", lambda x: admissibility._window(x, 2), "gmax"),
    ("_window-n_max", lambda x: admissibility._window(2, x), "nmax"),
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


NOT_BOOLS = [x for x in NOT_INTS if type(x) is not bool] + [1, None]
ORIENTABLE = [
    (f"BaseSurface.orientable-{way}", build)
    for way, build in _builds(BaseSurface(1), "orientable", None).items()
]


@pytest.mark.parametrize("site, build", ORIENTABLE, ids=[s[0] for s in ORIENTABLE])
def test_orientable_takes_a_bool(site, build):
    assert build(False) == (1, False) and build(True) == (1, True)


@pytest.mark.parametrize(
    "build, x",
    [(build, x) for _, build in ORIENTABLE for x in NOT_BOOLS],
    ids=[f"{site}-{type(x).__name__}-{x!r}" for site, _ in ORIENTABLE for x in NOT_BOOLS],
)
def test_orientable_refuses_what_is_not_a_bool(build, x):
    with pytest.raises(ValueError) as exc:
        build(x)
    assert str(exc.value) == f"orientable must be a bool, got {x!r}"


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
    # expression it checks: only the helper's.
    refusals = {
        (path.name, owner, checked)
        for path in MODULES
        for owner, node in _nodes(path)
        if isinstance(node, ast.If)
        and (checked := _type_checked(node.test)) is not None
        and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
    }
    assert refusals == {("__init__.py", "_require", "value")}


def test_make_and_replace_only_in_the_shared_base():
    # Every module of the package, ``commands/`` included: only ``_Checked``
    # in ``__init__.py`` defines ``_make``, and nothing defines ``_replace``.
    defined = [
        (str(path.relative_to(PACKAGE)), node.name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for _, node in _nodes(path)
        if isinstance(node, ast.FunctionDef) and node.name in ("_make", "_replace")
    ]
    assert defined == [("__init__.py", "_make")]


def _module_nodes():
    """(path relative to the package, the nodes of its module) for every
    module of the package, ``commands/`` included."""
    for path in sorted(PACKAGE.rglob("*.py")):
        yield str(path.relative_to(PACKAGE)), list(ast.walk(ast.parse(path.read_text())))


def _is_future(node) -> bool:
    return isinstance(node, ast.ImportFrom) and node.module == "__future__"


def test_every_imported_name_is_used():
    # A name counts as used when the module reads it or lists it in
    # ``__all__``; ``__future__`` imports are the next test's.
    unused = []
    for module, nodes in _module_nodes():
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used.update(ast.literal_eval(node.value))
        unused += [
            (module, alias.asname or alias.name.partition(".")[0])
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not _is_future(node)
            for alias in node.names
            if (alias.asname or alias.name.partition(".")[0]) not in used
        ]
    assert unused == []


# The private layer names a command handler may read, by handler module.
PRIVATE_READS = {
    ("classify", "invariants._e_and_chi"),
    ("enumerate", "admissibility._window"),
    ("psi_check", "admissibility._require_admissible"),
}


def test_handlers_read_only_their_private_layer_names():
    # A read counts when it is ``<name>._<attr>`` and ``<name>`` is bound to
    # a layer module by ``from .. import``; a record's ``_asdict`` does not.
    reads = set()
    for path in sorted((PACKAGE / "commands").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        layers = {
            alias.asname or alias.name: alias.name
            for node in nodes
            if isinstance(node, ast.ImportFrom) and node.level == 2 and node.module is None
            for alias in node.names
            if alias.name in _LAYERS
        }
        reads |= {
            (path.stem, f"{layers[node.value.id]}.{node.attr}")
            for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in layers and node.attr.startswith("_")
        }
    assert reads == PRIVATE_READS


def test_future_annotations_only_where_there_are_annotations():
    needless = [
        module
        for module, nodes in _module_nodes()
        if any(_is_future(node) for node in nodes)
        and not any(
            isinstance(node, ast.AnnAssign)
            or isinstance(node, ast.FunctionDef) and node.returns is not None
            or isinstance(node, ast.arg) and node.annotation is not None
            for node in nodes
        )
    ]
    assert needless == []
