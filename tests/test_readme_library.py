"""The README's ``## Library`` example runs, and its comments say what it
computes: the census descriptor is admissible, of case 2a and geometry E3,
and the (1,2) filling's extension condition is the pair +-[[1,-1],[0,-1]]."""

import ast
import re
from pathlib import Path

from seifinv import IntMatrix2

ROOT = Path(__file__).resolve().parents[1]
_LIBRARY_BLOCK = re.search(
    r"## Library\n\n```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S
)


def test_library_example_runs_as_its_comments_say():
    source = _LIBRARY_BLOCK[1]
    *statements, last = ast.parse(source).body
    namespace = {}
    exec(compile(ast.Module(statements, type_ignores=[]), "README.md", "exec"), namespace)
    condition = eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace)
    comments = dict(re.findall(r"^(\S.*?)\s+# (.*)$", source, re.M))

    report = namespace["report"]
    assert comments["report = check_admissible(M)"] == "admissible, case 2a, geometry E3"
    assert report.admissible
    assert (report.case_label, report.geometry.value) == ("2a", "E3")

    entries = re.fullmatch(
        r"\{\+-\[\[(-?\d+),(-?\d+)\],\[(-?\d+),(-?\d+)\]\]\}",
        comments["extension_condition(FillingSlope(1, 2))"],
    )
    A = IntMatrix2(*map(int, entries.groups()))
    assert condition == {A, IntMatrix2(-A.a, -A.b, -A.c, -A.d)}
    assert {str(B) for B in condition} == {"1,-1;0,-1", "-1,1;0,1"}
