"""The benchmark's traced child (``seifbench/child.py``, run unmodified) on
every CLI example of the README: it must exit and print as ``cli.main`` does,
and its trace record must count calls in each layer the command uses.

This guards the trace harness against the lazy loading of the layers: the
tracer wraps the functions of every layer it finds in ``sys.modules``.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from seifinv import cli

ROOT = Path(__file__).resolve().parents[1]
MARK = "#seifbench-trace "

# The layers whose functions each command calls, besides the cli itself.
LAYERS_USED = {
    "classify": {"invariants", "admissibility"},
    "admissible": {"invariants", "admissibility"},
    "enumerate": {"invariants", "admissibility"},
    "mcg": {"torus_mcg"},
    "extend": {"filling"},
    "verify-v221": {"filling"},
    "surface-classes": {"surfaces"},
    "census": {"invariants", "admissibility", "census"},
    "lift": {"invariants", "admissibility", "census"},
    "psi-check": {"invariants", "admissibility", "filling"},
}


def readme_examples() -> list[list[str]]:
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [shlex.split(line)[1:] for line in block[1].splitlines() if line.startswith("seifinv ")]


def test_the_readme_has_an_example_of_every_command():
    assert {argv[0] for argv in readme_examples()} == set(LAYERS_USED)


@pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: " ".join(argv[:2]))
def test_traced_child_matches_main(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    expected = capsys.readouterr()

    # src alone, not util.fresh_env(): the benchmark runner starts the child
    # with PYTHONPATH=src and nothing else, and this replays that start.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "seifbench" / "child.py"), str(time.perf_counter_ns()), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == exit_.value.code
    assert proc.stdout == expected.out

    marks = [line for line in proc.stderr.splitlines() if line.startswith(MARK)]
    assert len(marks) == 1, proc.stderr
    record = json.loads(marks[0][len(MARK) :])
    assert Path(record["module"]).resolve().is_relative_to((ROOT / "src").resolve())
    called = {key.split(".")[0] for key, (calls, *_) in record["counts"].items() if calls > 0}
    assert {"cli"} | LAYERS_USED[argv[0]] <= called
