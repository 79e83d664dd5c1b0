import json
import os
import subprocess
import sys
from pathlib import Path

from seifinv.cli import run


def payload_of(argv):
    result = run(argv)
    assert result.status == "ok", result.message
    return result.payload


class TestClassify:
    def test_spherical_example(self):
        result = run(["classify", "(0,o1|(2,1),(2,1),(1,-1))"])
        assert result.exit_code == 0
        assert "geometry=S2xR" in result.message
        assert "e=0" in result.message
        assert "case=1b" in result.message

    def test_json_schema(self):
        payload = payload_of(["classify", "(0,o1|(2,1),(2,1),(1,-1))", "--json"])
        assert payload == {
            "schema": "1",
            "input": "(0,o1|(2,1),(2,1),(1,-1))",
            "normalized": "(0,o1|(2,1),(2,1),(1,-1))",
            "euler_number": "0",
            "chi_orb": "1",
            "geometry": "S2xR",
            "case": "1b",
        }

    def test_parse_error_exits_one(self):
        result = run(["classify", "(0,o1|(2,2))"])
        assert result.exit_code == 1
        assert result.status == "error"
        assert "position" in result.message

    def test_json_output_is_valid_json(self):
        result = run(["classify", "(1,o1|)", "--json"])
        assert json.loads(result.message)["geometry"] == "E3"


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["bogus"]).exit_code == 2

    def test_missing_arguments(self):
        assert run(["classify"]).exit_code == 2

    def test_no_arguments(self):
        assert run([]).exit_code == 2


class TestAdmissible:
    def test_admissible_output(self):
        payload = payload_of(["admissible", "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))", "--json"])
        assert payload["admissible"] is True
        assert payload["case"] == "2a"
        assert payload["violations"] == []

    def test_violations_listed(self):
        payload = payload_of(["admissible", "(0,o1|(3,1),(3,1),(3,1),(1,-1))", "--json"])
        assert payload["admissible"] is False
        assert payload["violations"] == ["OrderGreaterThanTwo"]

    def test_non_orientable_base_directed_to_lift(self):
        result = run(["admissible", "(2,n1|)"])
        assert result.exit_code == 1
        assert "double cover" in result.message


class TestEnumerate:
    def test_counts(self):
        payload = payload_of(["enumerate", "--gmax", "1", "--nmax", "4", "--json"])
        assert len(payload["descriptors"]) == 6

    def test_deterministic_output(self):
        first = run(["enumerate", "--gmax", "2", "--nmax", "4"])
        second = run(["enumerate", "--gmax", "2", "--nmax", "4"])
        assert first.message == second.message


class TestMcg:
    def test_class(self):
        assert run(["mcg", "class", "1,0;0,-1"]).message == "ReflType"
        assert run(["mcg", "class", "--", "0,1;1,0"]).message == "AntiType"

    def test_class_rejects_non_involution(self):
        assert run(["mcg", "class", "--", "0,-1;1,0"]).exit_code == 1

    def test_conjugate_found(self):
        payload = payload_of(["mcg", "conjugate", "1,0;-1,-1", "0,1;1,0", "--bound", "3", "--json"])
        assert payload["found"] is True
        assert payload["conjugator"] is not None

    def test_conjugate_absent(self):
        payload = payload_of(["mcg", "conjugate", "1,0;0,-1", "0,1;1,0", "--bound", "5", "--json"])
        assert payload == {
            "schema": "1",
            "matrix_a": "1,0;0,-1",
            "matrix_b": "0,1;1,0",
            "bound": 5,
            "found": False,
            "conjugator": None,
        }

    def test_malformed_matrix(self):
        assert run(["mcg", "class", "1,0;0"]).exit_code == 1


class TestExtend:
    def test_extends_true(self):
        payload = payload_of(["extend", "--slope", "1,2", "--matrix=-1,1;0,1", "--json"])
        assert payload["extends"] is True
        assert payload["condition"] == ["-1,1;0,1", "1,-1;0,-1"]

    def test_extends_false(self):
        payload = payload_of(["extend", "--slope", "1,2", "--matrix", "1,0;0,-1", "--json"])
        assert payload["extends"] is False

    def test_negative_slope_with_equals(self):
        payload = payload_of(["extend", "--slope=-1,1", "--matrix=-1,-2;0,1", "--json"])
        assert payload["extends"] is True

    def test_unsupported_slope(self):
        assert run(["extend", "--slope", "3,2", "--matrix", "1,0;0,-1"]).exit_code == 1


class TestVerifyV221:
    def test_passes(self):
        result = run(["verify-v221"])
        assert result.exit_code == 0
        assert "result: PASS" in result.message

    def test_json(self):
        payload = payload_of(["verify-v221", "--json"])
        assert payload["passed"] is True
        assert payload["assignment"] == ["(1,2)", "(-1,1)", "(1,2)"]


class TestSurfaceClasses:
    def test_torus_all(self):
        payload = payload_of(["surface-classes", "--genus", "1", "--json"])
        assert len(payload["classes"]) == 6

    def test_filtered(self):
        payload = payload_of(["surface-classes", "--genus", "2", "--filter", "reversing", "--json"])
        names = [c["name"] for c in payload["classes"]]
        assert names == ["refl(2,0)", "refl(2,1)", "anti(2,0)", "anti(2,1)", "anti(2,2)"]

    def test_fixed_point_payload(self):
        payload = payload_of(["surface-classes", "--genus", "1", "--json"])
        by_name = {c["name"]: c for c in payload["classes"]}
        assert by_name["spit(1,0)"]["fixed_points"]["isolated_points"] == 4
        assert by_name["rot"]["fixed_points"]["free"] is True
        assert by_name["id"]["fixed_points"]["entire_surface"] is True


class TestCensus:
    def test_count_six(self):
        payload = payload_of(["census", "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))", "--json"])
        assert payload["count"] == 6
        assert len(payload["records"]) == 6

    def test_out_of_scope(self):
        assert run(["census", "(1,o1|(2,1),(2,1),(1,-1))"]).exit_code == 1


class TestLift:
    def test_klein_bottle(self):
        payload = payload_of(["lift", "(2,n1|)", "--json"])
        assert payload["cover"] == "(1,o1|)"
        assert payload["euler_number"]["doubled"] is True
        assert payload["chi_orb"]["doubled"] is True
        assert payload["cover_admissible"] is True

    def test_orientable_rejected(self):
        assert run(["lift", "(1,o1|)"]).exit_code == 1


class TestPsiCheck:
    def test_passes(self):
        payload = payload_of(
            ["psi-check", "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))", "--trials", "25", "--seed", "7", "--json"]
        )
        assert payload == {
            "schema": "1",
            "manifold": "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))",
            "trials": 25,
            "seed": 7,
            "passed": True,
        }

    def test_env_seed_overrides_default(self, monkeypatch):
        monkeypatch.setenv("SEIFERT_SEED", "123")
        payload = payload_of(["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "3", "--json"])
        assert payload["seed"] == 123

    def test_explicit_seed_beats_env(self, monkeypatch):
        monkeypatch.setenv("SEIFERT_SEED", "123")
        payload = payload_of(
            ["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "3", "--seed", "9", "--json"]
        )
        assert payload["seed"] == 9

    def test_bad_env_seed_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("SEIFERT_SEED", "abc")
        result = run(["psi-check", "(0,o1|(2,1),(2,1),(1,-1))"])
        assert (result.status, result.exit_code) == ("error", 1)
        assert result.message == "SEIFERT_SEED must be an integer, got 'abc'"
        explicit = run(["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--seed", "4"])
        assert explicit.exit_code == 0

    def test_negative_trials_refused(self):
        result = run(["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "-5"])
        assert result.exit_code == 1
        assert result.status == "error"
        assert "--trials" in result.message

    def test_zero_trials_pass_vacuously(self):
        payload = payload_of(["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "0", "--json"])
        assert payload["passed"] is True


class TestModuleEntryPoint:
    def _run_module(self, module, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
        )

    def test_runs_the_cli(self):
        for module in ("seifinv", "seifinv.cli"):
            proc = self._run_module(module, "classify", "(0,o1|(2,1),(2,1),(1,-1))")
            assert proc.returncode == 0, module
            assert proc.stdout == run(["classify", "(0,o1|(2,1),(2,1),(1,-1))"]).message + "\n"
            assert proc.stderr == ""

    def test_errors_exit_one(self):
        for module in ("seifinv", "seifinv.cli"):
            proc = self._run_module(module, "classify", "(0,o1|(2,2))")
            assert proc.returncode == 1, module
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: non-coprime pair")


class TestDeterminism:
    def test_identical_argv_identical_output(self):
        argvs = [
            ["classify", "(0,o1|(2,1),(2,1),(1,-1))", "--json"],
            ["census", "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))", "--json"],
            ["verify-v221", "--json"],
            ["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "5", "--seed", "1", "--json"],
        ]
        for argv in argvs:
            assert run(argv).message == run(argv).message
