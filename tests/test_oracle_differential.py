"""The program against the benchmark's oracle (``seifbench/oracle.py``), the
one independent implementation of every command's answer.

Three rounds of seed 5 of each in-process workload, and one round of the
README examples that ``cold-cli`` runs, go through ``cli.run``; each outcome
is checked by ``oracle.check``, as the benchmark runner checks it.  Answers
only: nothing here is timed.
"""

import itertools
import sys
from pathlib import Path

import pytest

from seifinv import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "seifbench"))

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5
ROUNDS = {"query-mix": 3, "wide-descriptors": 3, "frame-search": 3, "cold-cli": 1}


def outcome(argv):
    """(exit code, stdout, stderr) of ``cli.run``, as ``seifinv.cli.main``
    prints them."""
    result = cli.run(list(argv))
    if result.status == "ok":
        return result.exit_code, result.message + "\n" if result.message else "", ""
    return result.exit_code, "", f"error: {result.message}\n"


def test_rounds_cover_every_workload():
    assert set(ROUNDS) == set(WORKLOADS)


@pytest.mark.parametrize("name", ROUNDS)
def test_program_agrees_with_the_oracle(name, monkeypatch):
    monkeypatch.delenv("SEIFERT_SEED", raising=False)  # as the runner does
    requests = [
        req for round_ in itertools.islice(WORKLOADS[name].rounds(SEED), ROUNDS[name]) for req in round_
    ]
    assert requests
    rejected = [
        (req.argv, reason)
        for req in requests
        if (reason := oracle.check(req.argv, req.plant, *outcome(req.argv))) is not None
    ]
    assert rejected == [], f"{len(rejected)}/{len(requests)} rejected"
