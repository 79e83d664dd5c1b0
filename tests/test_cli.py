import argparse
import json
import math
import subprocess
import sys
from collections import Counter
from functools import partial

import pytest

from seifinv import admissibility, census, cli, filling, invariants, surfaces, torus_mcg
from seifinv.cli import run
from util import NEEDS_DIGIT_LIMIT, digit_limit, fresh_env, v221_unit_tampers


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

    @NEEDS_DIGIT_LIMIT
    def test_integer_digit_limit(self):
        with digit_limit(4300) as limit:  # Python's default limit
            at_limit = run(["classify", f"(0,o1|(2,{'9' * limit}))"])
            past = run(["classify", f"(0,o1|(2,{'9' * (limit + 1)}))"])
        assert (at_limit.status, at_limit.exit_code) == ("ok", 0)
        assert at_limit.message.startswith(f"(0,o1|(2,1),(1,{'4' + '9' * (limit - 1)}))  e=-{'9' * limit}/2")
        assert (past.status, past.exit_code) == ("error", 1)
        assert past.message == f"integer longer than {limit} digits (at position 9)"

    def test_json_output_is_valid_json(self):
        result = run(["classify", "(1,o1|)", "--json"])
        assert json.loads(result.message)["geometry"] == "E3"


LIMIT = 4300  # Python's default int/str digit limit
HALF_BELOW = "4" + "9" * (LIMIT - 1)  # 5 * 10**(LIMIT - 1) - 1, LIMIT digits
HALF = "5" + "0" * (LIMIT - 1)  # 5 * 10**(LIMIT - 1), LIMIT digits


@pytest.fixture
def default_limit():
    with digit_limit(LIMIT):
        yield


@NEEDS_DIGIT_LIMIT
@pytest.mark.usefixtures("default_limit")
class TestComputedIntegerDigitLimit:
    """Parsed integers fit the limit; a value computed from them that does
    not is refused by name.  Sums of two halves land on LIMIT digits exactly
    (10**LIMIT - 1 or 10**LIMIT - 2) or one past it (10**LIMIT)."""

    @pytest.mark.parametrize(
        "at_limit, expected",
        [
            (
                ["classify", f"(0,o1|(1,{HALF_BELOW}),(1,{HALF}))"],
                f"(0,o1|(1,{'9' * LIMIT}))  e=-{'9' * LIMIT}  chi_orb=2  geometry=Other  case=-",
            ),
            (["lift", f"(1,n1|(1,{HALF_BELOW}))"], f"cover: (0,o1|(1,{'9' * (LIMIT - 1)}8))"),
            (["extend", f"--slope={HALF_BELOW},1", "--matrix=1,0;0,-1"], "extends: false"),
        ],
        ids=["classify", "lift", "extend"],
    )
    def test_at_the_limit_prints(self, at_limit, expected):
        result = run(at_limit)
        assert (result.status, result.exit_code) == ("ok", 0)
        assert result.message.splitlines()[0] == expected

    def test_extension_condition_at_the_limit(self):
        payload = payload_of(["extend", f"--slope={HALF_BELOW},1", "--matrix=1,0;0,-1", "--json"])
        assert f"1,-{'9' * (LIMIT - 1)}8;0,-1" in payload["condition"]

    @pytest.mark.parametrize(
        "past, name",
        [
            (["classify", f"(0,o1|(1,{HALF}),(1,{HALF}))"], "the normalized descriptor"),
            (["lift", f"(1,n1|(1,{HALF}))"], "the cover"),
            (["extend", f"--slope={HALF},1", "--matrix=1,0;0,-1"], "the extension condition"),
        ],
        ids=["classify", "lift", "extend"],
    )
    def test_one_digit_past_is_refused_by_name(self, past, name):
        result = run(past)
        assert (result.status, result.exit_code) == ("error", 1)
        assert result.message == f"cannot print {name}: integer longer than {LIMIT} digits"

    def test_lcm_past_the_limit_prints_when_the_values_do(self):
        """The digit limit is checked on the printed values, not on L: with
        A = 10**999 + 7, the orders A(A+1), (A+1)(A+2), (A+2)(A+3),
        (A+3)(A+4) and A+4, each with p = 1, telescope to sum(1/q) = 1/A,
        while L = lcm(q_i) has 16,591 bits, past the 14,284 of LIMIT digits."""
        A = 10**999 + 7
        orders = [A * (A + 1), (A + 1) * (A + 2), (A + 2) * (A + 3), (A + 3) * (A + 4), A + 4]
        assert math.lcm(*orders).bit_length() == 16591 > LIMIT * math.log2(10)
        pairs = ",".join(f"({q},1)" for q in orders)
        classify = run(["classify", f"(0,o1|{pairs})"])
        assert (classify.status, classify.exit_code) == ("ok", 0)
        assert classify.message.endswith(f"  e=-1/{A}  chi_orb={1 - 3 * A}/{A}  geometry=Other  case=-")
        lift = payload_of(["lift", f"(1,n1|{pairs})", "--json"])
        assert lift["euler_number"] == {"input": f"-1/{A}", "cover": f"-2/{A}", "doubled": True}


@NEEDS_DIGIT_LIMIT
@pytest.mark.usefixtures("default_limit")
class TestEnteredIntegerDigitLimit:
    """A matrix or slope entry of LIMIT digits is read; one a digit longer is
    refused by the limit, and text that is no integer by its own message."""

    PAST = "9" * (LIMIT + 1)

    def test_at_the_limit_is_read(self):
        payload = payload_of(["mcg", "class", f"1,{'9' * LIMIT};0,-1", "--json"])
        assert payload["class"] == "AntiType"

    @pytest.mark.parametrize(
        "argv",
        [
            ["mcg", "class", f"1,{PAST};0,-1"],
            ["extend", f"--slope={PAST},1", "--matrix=1,0;0,-1"],
        ],
        ids=["matrix", "slope"],
    )
    def test_one_digit_past_is_refused_by_the_limit(self, argv):
        result = run(argv)
        assert (result.status, result.exit_code) == ("error", 1)
        assert result.message == f"integer longer than {LIMIT} digits"

    def test_text_that_is_no_integer_keeps_its_message(self):
        entry = self.PAST + "x"
        result = run(["mcg", "class", f"1,{entry};0,-1"])
        assert result.message == f"matrix entry {entry!r} is not an integer"
        result = run(["extend", f"--slope={entry},1", "--matrix=1,0;0,-1"])
        assert result.message == f"slope must be a pair of integers, got '{entry},1'"


class TestInvariantsDerivedOnce:
    """classify, psi-check and census normalize the descriptor once and take
    ``e`` and ``chi_orb`` from one ``_e_and_chi`` pass, two ``Rational``
    values; later steps read the admissibility report."""

    COUNTED = ("normalize", "_e_and_chi", "Rational")
    ONCE = {"normalize": 1, "_e_and_chi": 1, "Rational": 2}

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "(0,o1|(2,1),(2,1),(1,-1))"],
            ["classify", "(0,o1|(2,3),(3,1),(1,4),(1,-1))", "--json"],
            ["classify", "(2,n1|(2,1),(1,-1))"],
            ["psi-check", "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))"],
            ["psi-check", "(0,o1|(2,-1),(2,3),(1,-1))", "--json"],
            ["psi-check", "(0,o1|(2,1),(2,1))"],
            ["census", "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))"],
            ["census", "(0,o1|(2,3),(2,-1),(1,-1))", "--json"],
        ],
    )
    def test_one_call_each(self, argv, monkeypatch):
        assert self.calls(argv, monkeypatch) == self.ONCE, argv

    @pytest.mark.parametrize("gmax", ["0", "3"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_enumerate_once_per_fiber_count(self, gmax, json_flag, monkeypatch):
        # The 5 even fiber counts 0-8, on 1 or 4 genera: 5 or 20 rows.  Each
        # fiber count is built and normalized once and takes one tally pass
        # and two Rational values; a row builds no record, takes no pass and
        # builds no Rational, so the counts do not depend on the genera.
        records = 0
        on_base = invariants.SeifertInvariants._on_base.__func__

        def counted(cls, *args):
            nonlocal records
            records += 1
            return on_base(cls, *args)

        monkeypatch.setattr(invariants.SeifertInvariants, "_on_base", classmethod(counted))
        argv = ["enumerate", "--gmax", gmax, "--nmax", "8", *json_flag]
        calls = self.calls(argv, monkeypatch)
        assert calls == {name: 5 * count for name, count in self.ONCE.items()}
        assert records == 5

    def calls(self, argv, monkeypatch):
        calls = dict.fromkeys(self.COUNTED, 0)

        def counting(name, original):
            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        for name in ("normalize", "_e_and_chi"):
            original = getattr(invariants, name)
            for module in (invariants, admissibility, census, cli):
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        Rational = invariants.Rational
        monkeypatch.setattr(Rational, "__init__", counting("Rational", Rational.__init__))
        assert run(argv).exit_code in (0, 1), argv
        return calls


def _leaf_rows(table, path=()):
    """(command path, its own arguments) for every leaf of the table."""
    for name, _, arguments, module in table:
        if module is None:
            yield from _leaf_rows(arguments, (*path, name))
        else:
            yield (*path, name), arguments


def _leaves(table):
    """(command path, dests of its own arguments) for every leaf of the table."""
    for path, arguments in _leaf_rows(table):
        yield path, [flag.lstrip("-").replace("-", "_") for flag, _ in arguments]


class TestArgumentsAddedOnDemand:
    """A run builds a parser for every command, 11 for a top-level command and
    13 for an ``mcg`` one, but adds arguments only to the parsers on the path
    of the command it parses: ``-h`` to each of them, first, then the leaf's
    own arguments and ``--json``.  Every subparser not chosen has no actions."""

    DESCRIPTOR = "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))"
    ARGS = {
        ("classify",): [DESCRIPTOR],
        ("admissible",): [DESCRIPTOR],
        ("enumerate",): ["--gmax", "1", "--nmax", "2"],
        ("mcg", "class"): ["0,1;1,0"],
        ("mcg", "conjugate"): ["0,1;1,0", "1,0;0,-1", "--bound", "3"],
        ("extend",): ["--slope", "1,2", "--matrix=-1,0;0,1"],
        ("verify-v221",): [],
        ("surface-classes",): ["--genus", "1"],
        ("census",): [DESCRIPTOR],
        ("lift",): ["(2,n1|)"],
        ("psi-check",): [DESCRIPTOR, "--trials", "1"],
    }

    @pytest.mark.parametrize("path, dests", list(_leaves(cli.COMMANDS)), ids=" ".join)
    def test_adds_only_the_parsed_commands_arguments(self, path, dests, monkeypatch):
        built, added = [], []
        init = argparse.ArgumentParser.__init__
        add_argument = argparse.ArgumentParser.add_argument

        def spied_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def spied_add_argument(self, *args, **kwargs):
            action = add_argument(self, *args, **kwargs)
            added.append(action.dest)
            return action

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spied_init)
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spied_add_argument)
        assert run([*path, *self.ARGS[path]]).exit_code == 0
        assert len(built) == (11 if len(path) == 1 else 13)
        on_path = {" ".join(["seifinv", *path[:i]]) for i in range(len(path) + 1)}
        assert Counter(added) == Counter({"help": len(on_path), "json": 1, **dict.fromkeys(dests, 1)})
        for parser in built:
            if parser.prog in on_path:
                assert parser._actions[0].dest == "help"
            else:
                assert parser._actions == []


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["bogus"]).exit_code == 2

    def test_missing_arguments(self):
        assert run(["classify"]).exit_code == 2

    def test_no_arguments(self):
        assert run([]).exit_code == 2

    LEAVES = dict(_leaf_rows(cli.COMMANDS))

    @pytest.mark.parametrize("path", LEAVES, ids=" ".join)
    def test_every_option_answers_or_refuses_every_odd_value(self, path, capsys):
        # Before 3.13, argparse stored `--opt=--` as [] past the option's type
        # and choices, and the handlers raised on it.  Each of these values
        # must get an answer or a refusal that shows no Python repr.
        args = TestArgumentsAddedOnDemand.ARGS[path]
        options = [flag for flag, _ in self.LEAVES[path] if flag.startswith("--")]
        for flag in (*options, "--json"):
            for value in ("--", "-", "", "="):
                for tail in ([f"{flag}={value}"], [flag, value]):
                    argv = [*path, *args, *tail]
                    result = run(argv)
                    refusal = result.message + capsys.readouterr().err
                    assert result.exit_code in (0, 1, 2), argv
                    if result.exit_code:
                        assert "[]" not in refusal and "None" not in refusal, (argv, refusal)


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

    def test_window_caps(self, capsys):
        g_cap, n_cap = admissibility.MAX_GMAX, admissibility.MAX_NMAX
        at_cap = payload_of(["enumerate", "--gmax", str(g_cap), "--nmax", str(n_cap), "--json"])
        assert len(at_cap["descriptors"]) == (g_cap + 1) * (n_cap // 2 + 1)
        past_caps = [("gmax", g_cap, g_cap + 1, n_cap), ("nmax", n_cap, g_cap, n_cap + 1)]
        for option, cap, g, n in past_caps:
            past = run(["enumerate", "--gmax", str(g), "--nmax", str(n)])
            message = f"{option} must be at most {cap}, got {cap + 1}"
            assert (past.exit_code, past.message) == (1, message)
        with pytest.raises(SystemExit):
            cli.main(["enumerate", "--help"])
        help_text = capsys.readouterr().out
        assert f"0 to {g_cap}" in help_text and f"0 to {n_cap}" in help_text


class TestEnumerateRowByRow:
    """enumerate's output against rows built one descriptor at a time: for
    each descriptor of ``enumerate_admissible(50, 100)``, its text and
    ``check_admissible``'s case and geometry; a smaller window's rows are
    the ones with genus and fiber count inside it, in the same order."""

    @pytest.fixture(scope="class")
    def reference(self):
        rows = []
        for M in admissibility.enumerate_admissible(50, 100):
            report = admissibility.check_admissible(M)
            text = str(M)
            assert invariants.parse_seifert(text) == M
            row = {"descriptor": text, "case": report.case_label, "geometry": report.geometry.value}
            rows.append((M.base.genus, len(M.pairs), row))
        return rows

    @pytest.mark.parametrize("gmax, nmax", [(50, 100), (0, 0), (0, 1), (7, 13), (20, 60)])
    def test_window(self, reference, gmax, nmax):
        expected = [row for g, n, row in reference if g <= gmax and n <= nmax]
        argv = ["enumerate", "--gmax", str(gmax), "--nmax", str(nmax)]
        lines = [f"{r['descriptor']}  case={r['case']}  geometry={r['geometry']}" for r in expected]
        assert run(argv).message.split("\n") == lines
        payload = json.loads(run([*argv, "--json"]).message)
        assert payload == {"schema": "1", "gmax": gmax, "nmax": nmax, "descriptors": expected}


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

    def test_conjugate_bound_cap(self, capsys):
        cap = torus_mcg.MAX_BOUND
        past = run(["mcg", "conjugate", "1,0;0,-1", "0,1;1,0", "--bound", str(cap + 1)])
        assert (past.exit_code, past.message) == (1, f"bound must be at most {cap}, got {cap + 1}")
        with pytest.raises(SystemExit):
            cli.main(["mcg", "conjugate", "--help"])
        assert f"1 to {cap}" in capsys.readouterr().out

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

    def test_derives_the_condition_once(self, monkeypatch):
        calls = []
        original = filling.extension_condition

        def counted(slope):
            calls.append(slope)
            return original(slope)

        monkeypatch.setattr(filling, "extension_condition", counted)
        for argv in (
            ["extend", "--slope", "1,2", "--matrix=-1,1;0,1"],
            ["extend", "--slope", "1,2", "--matrix", "1,0;0,-1", "--json"],
            ["extend", "--slope=-3,1", "--matrix=-1,6;0,1", "--json"],
        ):
            calls.clear()
            assert run(argv).exit_code == 0
            assert len(calls) == 1, argv


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

    def test_genus_cap(self, capsys):
        cap = surfaces.MAX_GENUS
        at_cap = run(["surface-classes", "--genus", str(cap)])
        assert (at_cap.exit_code, len(at_cap.message.splitlines())) == (0, 4 + 2 * cap)
        past = run(["surface-classes", "--genus", str(cap + 1), "--json"])
        assert (past.exit_code, past.message) == (1, f"genus must be at most {cap}, got {cap + 1}")
        with pytest.raises(SystemExit):
            cli.main(["surface-classes", "--help"])
        assert f"--genus GENUS surface genus, 0 to {cap}" in " ".join(capsys.readouterr().out.split())

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

    @staticmethod
    def _messages_with_env_seed(monkeypatch, value):
        argvs = [["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "3", *j] for j in ([], ["--json"])]
        monkeypatch.delenv("SEIFERT_SEED", raising=False)
        unset = [run(argv).message for argv in argvs]
        assert json.loads(unset[1])["seed"] == 0
        monkeypatch.setenv("SEIFERT_SEED", value)
        return unset, [run(argv).message for argv in argvs]

    def test_env_seed_is_ignored(self, monkeypatch):
        unset, with_env = self._messages_with_env_seed(monkeypatch, "7")
        assert with_env == unset

    def test_bad_env_seed_is_not_refused(self, monkeypatch):
        unset, with_env = self._messages_with_env_seed(monkeypatch, "abc")
        assert with_env == unset

    def test_explicit_seed_beats_env(self, monkeypatch):
        monkeypatch.setenv("SEIFERT_SEED", "123")
        payload = payload_of(
            ["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "3", "--seed", "9", "--json"]
        )
        assert payload["seed"] == 9

    def test_negative_trials_refused(self):
        result = run(["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "-5"])
        assert result.exit_code == 1
        assert result.status == "error"
        assert "--trials" in result.message

    def test_refusal_names_the_violations_as_census_does(self):
        for descriptor, tags in [
            ("(0,o1|(3,1),(3,1),(3,1),(1,-1))", "OrderGreaterThanTwo"),
            ("(0,o1|(2,1),(2,1))", "NonzeroEuler, WrongBTerm"),
            ("(0,o1|(2,1),(1,-1))", "NonzeroEuler, OddCount, WrongBTerm"),
        ]:
            results = [run(["psi-check", descriptor, *extra]) for extra in ([], ["--trials", "0"])]
            results.append(run(["census", descriptor]))
            for result in results:
                assert (result.status, result.exit_code) == ("error", 1)
                assert result.message == f"{descriptor} admits no reversing involution ({tags})"

    def test_help_describes_the_validator(self, capsys):
        assert run(["--help"]).exit_code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "re-framing" not in text
        assert "psi-check refuse an inadmissible descriptor, else run the V(2,2;-1) validator once" in text

    def test_help_says_the_seed_is_echoed_and_unused(self, capsys):
        assert run(["psi-check", "--help"]).exit_code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--seed SEED echoed in the output and otherwise unused (default 0)" in text
        assert "0 passes vacuously; any positive count runs the validator once" in text

    def test_zero_trials_pass_vacuously(self):
        payload = payload_of(["psi-check", "(0,o1|(2,1),(2,1),(1,-1))", "--trials", "0", "--json"])
        assert payload["passed"] is True

    def test_only_zero_trials_pass_a_tampered_validator(self, monkeypatch):
        validator = filling.verify_v221_construction
        bad = (torus_mcg.IntMatrix2(-1, 2, 0, 1), *validator().matrices[1:])
        monkeypatch.setattr(filling, "verify_v221_construction", partial(validator, bad))
        descriptor = "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))"
        for trials, passed in (("0", True), ("1", False), ("100", False)):
            payload = payload_of(["psi-check", descriptor, "--trials", trials, "--json"])
            assert payload["passed"] is passed, trials

    FLAT = "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))"
    EIGHT = "(0,o1|" + "(2,1)," * 8 + "(1,-4))"

    # psi-check reads its verdict from the one V(2,2;-1) validator: bound to
    # tampered data, it must fail at any positive trial count.
    @pytest.mark.parametrize("descriptor", [FLAT, EIGHT], ids=["4-fiber", "8-fiber"])
    def test_every_unit_tamper_fails(self, descriptor, monkeypatch):
        tampers = list(v221_unit_tampers())
        assert len(tampers) == 32
        original = filling.verify_v221_construction
        for inner, outer in tampers:
            monkeypatch.setattr(filling, "verify_v221_construction", partial(original, inner, outer))
            assert run(["psi-check", descriptor]).message == "passed: false (trials=100, seed=0)"
            zero = run(["psi-check", descriptor, "--trials", "0"]).message
            assert zero == "passed: true (trials=0, seed=0)"

    def test_the_validator_runs_once_at_any_trial_count(self, monkeypatch):
        calls = []
        original = filling.verify_v221_construction
        monkeypatch.setattr(filling, "verify_v221_construction", lambda: calls.append(1) or original())
        for trials in ("0", "1", "100"):
            calls.clear()
            assert run(["psi-check", self.FLAT, "--trials", trials]).exit_code == 0
            assert len(calls) == 1, trials


class TestModuleEntryPoint:
    def _run_module(self, module, *argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=fresh_env()
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

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_a_reader_that_stops_early_gets_no_traceback(self, flags):
        # The widest window writes far more than a pipe holds, so the process
        # is still writing when its reader closes the pipe after one line.
        argv = [sys.executable, "-m", "seifinv", "enumerate", "--gmax", "50", "--nmax", "100"]
        with subprocess.Popen(
            argv + flags, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env()
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait() == 1
        assert stderr == b""


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
