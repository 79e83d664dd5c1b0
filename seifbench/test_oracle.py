"""Tests of the benchmark's oracle and request streams; none imports seifinv.

Run with ``python3 -m pytest seifbench/test_oracle.py`` from the repo root.
"""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Each README example with its output worked out by hand from the README's
# formulas: e = -(b + sum p/q), chi_orb = chi(B) - sum(1 - 1/q), the
# admissibility conditions, the extension sets and the census records.
README_OUTPUTS = {
    workloads.README_EXAMPLES[0]: "(0,o1|(2,1),(2,1),(1,-1))  e=0  chi_orb=1  geometry=S2xR  case=1b\n",
    workloads.README_EXAMPLES[1]: json.dumps(
        {
            "schema": "1",
            "input": "(0,o1|(3,1),(3,1),(3,1),(1,-1))",
            "admissible": False,
            "violations": ["OrderGreaterThanTwo"],
            "case": None,
            "geometry": "Other",
        },
        indent=2,
    )
    + "\n",
    workloads.README_EXAMPLES[2]: (
        "(0,o1|)  case=1a  geometry=S2xR\n"
        "(0,o1|(2,1),(2,1),(1,-1))  case=1b  geometry=S2xR\n"
        "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))  case=2a  geometry=E3\n"
        "(0,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-3))  case=3c  geometry=H2xR\n"
        "(0,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-4))  case=3c  geometry=H2xR\n"
        "(1,o1|)  case=2b  geometry=E3\n"
        "(1,o1|(2,1),(2,1),(1,-1))  case=3b  geometry=H2xR\n"
        "(1,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))  case=3b  geometry=H2xR\n"
        "(1,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-3))  case=3b  geometry=H2xR\n"
        "(1,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-4))  case=3b  geometry=H2xR\n"
        "(2,o1|)  case=3a  geometry=H2xR\n"
        "(2,o1|(2,1),(2,1),(1,-1))  case=3a  geometry=H2xR\n"
        "(2,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))  case=3a  geometry=H2xR\n"
        "(2,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-3))  case=3a  geometry=H2xR\n"
        "(2,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-4))  case=3a  geometry=H2xR\n"
        "(3,o1|)  case=3a  geometry=H2xR\n"
        "(3,o1|(2,1),(2,1),(1,-1))  case=3a  geometry=H2xR\n"
        "(3,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))  case=3a  geometry=H2xR\n"
        "(3,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-3))  case=3a  geometry=H2xR\n"
        "(3,o1|(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(2,1),(1,-4))  case=3a  geometry=H2xR\n"
    ),
    workloads.README_EXAMPLES[3]: "ReflType\n",
    # H = [[-1,-1],[0,1]]: H A = [[0,1],[-1,-1]] = B H, det H = -1.
    workloads.README_EXAMPLES[4]: "conjugator: -1,-1;0,1\n",
    workloads.README_EXAMPLES[5]: "extends: true\n",
    workloads.README_EXAMPLES[6]: (
        "matrix -1,1;0,1: involution=yes filling=(1,2) extends=yes\n"
        "matrix -1,-2;0,1: involution=yes filling=(-1,1) extends=yes\n"
        "matrix -1,1;0,1: involution=yes filling=(1,2) extends=yes\n"
        "result: PASS\n"
    ),
    workloads.README_EXAMPLES[7]: (
        "refl(2,0)  orientation=reversing  fixed: 3 circles\n"
        "refl(2,1)  orientation=reversing  fixed: 1 circles\n"
        "anti(2,0)  orientation=reversing  fixed: free\n"
        "anti(2,1)  orientation=reversing  fixed: 1 circles\n"
        "anti(2,2)  orientation=reversing  fixed: 2 circles\n"
    ),
    workloads.README_EXAMPLES[8]: (
        "count: 6\n"
        "fiber=preserved class=spit(0,0) fixed_boundaries=0\n"
        "fiber=preserved class=spit(0,0) fixed_boundaries=2\n"
        "fiber=reversed class=refl(0,0) fixed_boundaries=0\n"
        "fiber=reversed class=refl(0,0) fixed_boundaries=2\n"
        "fiber=reversed class=anti(0,0) fixed_boundaries=0\n"
        "fiber=reversed class=anti(0,0) fixed_boundaries=2\n"
    ),
    workloads.README_EXAMPLES[9]: (
        "cover: (1,o1|)\n"
        "euler_number: 0 -> 0 (doubled: yes)\n"
        "chi_orb: 0 -> 0 (doubled: yes)\n"
        "cover admissible: yes  case=2b\n"
    ),
    workloads.README_EXAMPLES[10]: "passed: true (trials=100, seed=0)\n",
}


def _check(argv, stdout, plant=None, exit_code=0, stderr=""):
    return oracle.check(argv, plant or {}, exit_code, stdout, stderr)


def test_readme_examples_are_the_readme_lines():
    readme = (HERE.parent / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("seifinv ")]
    assert [tuple(shlex.split(line)[1:]) for line in lines] == list(workloads.README_EXAMPLES)


def test_hand_worked_readme_outputs_pass():
    assert len(README_OUTPUTS) == 11
    for argv, stdout in README_OUTPUTS.items():
        assert _check(argv, stdout) is None, argv


def _mutants(text: str):
    """Every one-character replacement of a non-whitespace character."""
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        for new in {"0": "1", "1": "2", "2": "3"}.get(ch, "7"), "x":
            if new != ch:
                yield i, text[:i] + new + text[i + 1 :]


def test_every_one_character_tamper_is_caught():
    for argv, stdout in README_OUTPUTS.items():
        for i, mutant in _mutants(stdout):
            assert _check(argv, mutant) is not None, (argv, i, mutant)


def test_named_tampers_are_caught():
    cases = [
        (workloads.README_EXAMPLES[0], "e=0", "e=1"),
        (workloads.README_EXAMPLES[4], "-1,-1;0,1", "-1,-1;0,2"),
        (workloads.README_EXAMPLES[5], "true", "false"),
        (workloads.README_EXAMPLES[8], "count: 6", "count: 5"),
        (workloads.README_EXAMPLES[9], "case=2b", "case=2a"),
    ]
    for argv, old, new in cases:
        assert _check(argv, README_OUTPUTS[argv].replace(old, new, 1)) == "wrong-output"


def test_exit_codes_and_streams_are_checked():
    argv = workloads.README_EXAMPLES[10]
    assert _check(argv, README_OUTPUTS[argv], exit_code=1) == "wrong-exit"
    assert _check(argv, README_OUTPUTS[argv], stderr="warning\n") == "wrong-output"
    refused = ("lift", "(0,o1|(2,1),(2,1),(1,-1))")
    assert _check(refused, "", exit_code=1, stderr="error: needs n1\n") is None
    assert _check(refused, "cover: (0,o1|)\n") == "wrong-exit"


def test_planted_error_position_is_checked():
    argv = ("classify", "(0,o1|(4,2))")
    plant = {"error_at": 6}
    msg = "error: non-coprime pair (4,2) (at position {})\n"
    assert _check(argv, "", plant, 1, msg.format(6)) is None
    assert _check(argv, "", plant, 1, msg.format(7)) == "wrong-output"
    assert _check(argv, "", plant, 2, msg.format(6)) == "wrong-exit"


def test_conjugate_miss_and_hit_are_checked():
    miss = ("mcg", "conjugate", "--bound=4", "--", "1,1;0,1", "0,1;1,0")
    assert _check(miss, "no conjugator with entries in [-4,4]\n", {"conjugate": "miss"}) is None
    assert _check(miss, "conjugator: 1,0;0,1\n", {"conjugate": "miss"}) == "wrong-output"
    hit = ("mcg", "conjugate", "--json", "--bound=2", "--", "0,1;1,0", "0,-1;-1,0")
    good = {"schema": "1", "matrix_a": "0,1;1,0", "matrix_b": "0,-1;-1,0", "bound": 2, "found": True}
    assert _check(hit, json.dumps(dict(good, conjugator="1,0;0,-1")), {"conjugate": "hit"}) is None
    assert _check(hit, json.dumps(dict(good, conjugator="1,0;0,1")), {"conjugate": "hit"}) == "wrong-output"
    assert _check(hit, json.dumps(dict(good, found=False, conjugator=None)), {"conjugate": "hit"}) is not None


def _rounds(name: str, seed: int, count: int):
    stream = workloads.WORKLOADS[name].rounds(seed)
    return [req for _ in range(count) for req in next(stream)]


def test_same_seed_same_stream():
    for name in workloads.WORKLOADS:
        a, b, c = _rounds(name, 7, 3), _rounds(name, 7, 3), _rounds(name, 8, 3)
        assert run.stream_digest(a) == run.stream_digest(b)
        assert run.stream_digest(a) != run.stream_digest(c)


def test_generated_refusals_and_malformed_inputs():
    """The generator's refusals are refusals by the oracle's own reasoning,
    planted errors sit inside the text, and mcg class plants agree with the
    oracle's mod-2 criterion."""
    rng = workloads.random.Random(3)
    for _ in range(300):
        req = workloads.refusal_request(rng, rng.random() < 0.5)
        pos, opts = oracle.split_args(req.argv)
        try:
            oracle._expected(pos, opts, req.plant)
        except oracle.Refusal:
            continue
        raise AssertionError(f"not a refusal: {req.argv}")
    for _ in range(300):
        req = workloads.malformed_request(rng, False)
        assert 0 < req.plant["error_at"] <= len(req.argv[1])
    for _ in range(300):
        req = workloads._mcg_class_request(rng, False)
        assert oracle.involution_class(oracle.parse_mat(req.argv[-1])) == req.plant["class"]


def test_wide_descriptors_fire_every_violation_tag():
    tags = set()
    for req in _rounds("wide-descriptors", 1, 2):
        if req.argv[0] == "admissible":
            tags |= set(oracle.violations(oracle.normalize(oracle.parse_desc(req.argv[1]))))
    assert tags == {"NonzeroEuler", "OrderGreaterThanTwo", "OddCount", "WrongBTerm"}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(n) for n in run.per_layer_names()]
