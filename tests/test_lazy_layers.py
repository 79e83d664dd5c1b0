"""The package loads its layer modules lazily: a process runs only the layer
bodies its command reads, and the public API is the same as an eager import.

A layer's body has run once its namespace holds ``__all__``; the check reads
the module's ``__dict__`` without the attribute access that would load it.
Each case runs in a fresh interpreter, because this test process has
imported every layer already.
"""

import ast
import functools
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import seifinv
from seifinv import admissibility, census, filling, invariants, surfaces, torus_mcg
from util import fresh_env

ROOT = Path(__file__).resolve().parents[1]
LAYERS = (admissibility, census, filling, invariants, surfaces, torus_mcg)

# The public names of the package, as the eager star-imports exported them.
PUBLIC = [
    "AdmissibilityReport", "BaseSurface", "CensusReport", "CensusScopeError",
    "ConstructionReport", "DoubleCoverReport", "FactorizationRecord", "FillingSlope",
    "FixedPointData", "GeometryType", "IDENTITY", "IntMatrix2",
    "InvolutionClassLabel", "InvolutionKind", "SeifertInvariants", "SeifertParseError",
    "SurfaceInvolutionClass", "UnsupportedSlopeError", "Violation", "check_admissible",
    "classes_for_genus", "enumerate_factorizations", "euler_number",
    "extension_condition", "find_conjugator", "fixed_point_data", "involution_class",
    "is_involution", "lift_to_double_cover", "mat_det", "mat_mul", "normalize",
    "orbifold_euler_characteristic", "parse_seifert", "print_seifert",
    "verify_v221_construction",
]

EXECUTED = """
import sys
executed = sorted(
    name.split(".", 1)[1]
    for name, module in sys.modules.items()
    if name.startswith("seifinv.") and name != "seifinv.cli"
    and "__all__" in object.__getattribute__(module, "__dict__")
)
print(" ".join(executed))
"""


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=fresh_env())


def _layers_executed(code: str) -> list[str]:
    proc = _python("-c", code + EXECUTED)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("statement", ["import seifinv.cli", "from seifinv import cli"])
def test_importing_the_cli_executes_no_layer(statement):
    # Each layer is still registered in sys.modules: the benchmark's tracer
    # looks every one up there right after importing the cli.
    layers = sorted(layer.__name__ for layer in LAYERS)
    registered = f"import sys\nprint(' '.join(n for n in {layers!r} if n in sys.modules))\n"
    proc = _python("-c", f"{statement}\n{registered}{EXECUTED}")
    assert proc.returncode == 0, proc.stderr
    found, executed = proc.stdout.splitlines()[-2:]
    assert found.split() == layers
    assert executed.split() == []


def test_importing_the_cli_builds_no_parser():
    # The top-level parser is built by the first run, and not on import.
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spied(self, *args, **kwargs):\n"
        "    init(self, *args, **kwargs)\n"
        "    built.append(self.prog)\n"
        "argparse.ArgumentParser.__init__ = spied\n"
        "import seifinv.cli\n"
        "print(built)\n"
        "assert seifinv.cli.run(['verify-v221']).exit_code == 0\n"
        "print(built)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    imported, ran = map(ast.literal_eval, proc.stdout.splitlines()[-2:])
    assert imported == []
    assert ran == ["seifinv", "seifinv verify-v221"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["mcg", "class", "1,0;0,-1"], ["torus_mcg"]),
        (["classify", "(0,o1|(2,1),(2,1),(1,-1))"], ["admissibility", "invariants"]),
        (["lift", "(2,n1|)"], ["admissibility", "census", "invariants"]),
        (
            ["census", "(0,o1|(2,1),(2,1),(1,-1))"],
            ["admissibility", "census", "invariants", "surfaces"],
        ),
        (
            ["psi-check", "(0,o1|(2,1),(2,1),(1,-1))"],
            ["admissibility", "filling", "invariants", "torus_mcg"],
        ),
        (
            ["admissible", "(0,o1|(3,1),(3,1),(3,1),(1,-1))", "--json"],
            ["admissibility", "invariants"],
        ),
        (["enumerate", "--gmax", "3", "--nmax", "8"], ["admissibility", "invariants"]),
        (["mcg", "conjugate", "1,0;-1,-1", "0,1;1,0", "--bound", "3"], ["torus_mcg"]),
        (["extend", "--slope", "1,2", "--matrix=-1,1;0,1"], ["filling", "torus_mcg"]),
        (["verify-v221"], ["filling", "torus_mcg"]),
        (["surface-classes", "--genus", "2", "--filter", "reversing"], ["surfaces"]),
    ],
    ids=[
        "mcg-class", "classify", "lift", "census", "psi-check",
        "admissible", "enumerate", "mcg-conjugate", "extend", "verify-v221", "surface-classes",
    ],
)
def test_a_command_executes_only_the_layers_it_reads(argv, layers):
    code = f"import seifinv.cli\nassert seifinv.cli.run({argv!r}).exit_code == 0\n"
    assert _layers_executed(code) == layers


@pytest.mark.parametrize(
    "argv, module",
    [
        (None, None),
        (["mcg", "class", "1,0;0,-1"], "mcg_class"),
        (["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--json"], "psi_check"),
        (["verify-v221", "extra"], None),
    ],
    ids=["import", "mcg-class", "psi-check", "usage-error"],
)
def test_a_command_imports_only_its_own_command_module(argv, module):
    # Each command's handler is compiled only in a process that runs it.
    run = "" if argv is None else f"seifinv.cli.run({argv!r})\n"
    code = (
        f"import sys\nimport seifinv.cli\n{run}"
        "print(sorted(m for m in sys.modules if m.startswith('seifinv.commands.')))\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    expected = [] if module is None else [f"seifinv.commands.{module}"]
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == expected


# The CLI examples of the README, one argv each.
_CLI_BLOCK = re.search(r"## CLI\n\n```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
README_EXAMPLES = [shlex.split(line)[1:] for line in _CLI_BLOCK[1].splitlines()]


def test_the_readme_lists_eleven_examples():
    assert len(README_EXAMPLES) == 11


README_IDS = ["-".join(a[:2]) if a[0] == "mcg" else a[0] for a in README_EXAMPLES]


# Modules a cold process should not pay for: dataclasses pulls in inspect,
# and fractions pulls in decimal, _decimal and numbers; json only with --json.
DATACLASS_MODULES = {"dataclasses", "inspect"}
FRACTION_MODULES = {"fractions", "decimal", "_decimal", "numbers"}
HEAVY = sorted(DATACLASS_MODULES | FRACTION_MODULES | {"json"})


@functools.lru_cache(maxsize=None)
def _heavy_modules_after(argv: tuple[str, ...]) -> list[str]:
    """The ``HEAVY`` modules a fresh interpreter holds after running ``argv``."""
    code = (
        "import sys\nimport seifinv.cli\n"
        f"assert seifinv.cli.run({list(argv)!r}).exit_code == 0\n"
        f"print(sorted(set({HEAVY!r}) & set(sys.modules)))\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=README_IDS)
def test_a_readme_example_imports_neither_dataclasses_nor_inspect(argv):
    assert DATACLASS_MODULES.isdisjoint(_heavy_modules_after(tuple(argv)))


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=README_IDS)
def test_a_readme_example_imports_no_fraction_module(argv):
    assert FRACTION_MODULES.isdisjoint(_heavy_modules_after(tuple(argv)))


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=README_IDS)
def test_a_readme_example_imports_json_only_with_json_output(argv):
    assert ("json" in _heavy_modules_after(tuple(argv))) == ("--json" in argv)


def test_no_library_module_imports_fractions():
    for path in sorted((ROOT / "src" / "seifinv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "fractions" for n in names), path.name


def test_public_names_are_unchanged():
    assert seifinv.__all__ == PUBLIC
    namespace = {}
    exec("from seifinv import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_every_public_name_resolves_to_its_layer_object():
    for name in seifinv.__all__:
        (owner,) = [layer for layer in LAYERS if name in layer.__all__]
        assert getattr(seifinv, name) is getattr(owner, name), name


@pytest.mark.parametrize("name", ["no_such_name", "no.such_name"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(seifinv, name)


def test_module_entry_point_runs():
    proc = _python("-m", "seifinv", "mcg", "class", "1,0;0,-1", "--json")
    assert proc.returncode == 0, proc.stderr
    expected = seifinv.involution_class(seifinv.IntMatrix2(1, 0, 0, -1)).value
    assert json.loads(proc.stdout)["class"] == expected
