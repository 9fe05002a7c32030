import io
import json

import pytest

from hafs.cli import run


def invoke(argv, stdin_text=""):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture
def example3_file(tmp_path):
    path = tmp_path / "example3.hafs"
    path.write_text("arg(a). supp(t1,a,a).\n")
    return str(path)


@pytest.fixture
def self_attack_file(tmp_path):
    path = tmp_path / "self_attack.hafs"
    path.write_text("arg(a). att(r1,a,a).\n")
    return str(path)


class TestCheck:
    def test_echoes_canonical_form(self, tmp_path):
        path = tmp_path / "f.hafs"
        path.write_text("supp(t1,a,a).  arg(a). % comment\n")
        code, out, err = invoke(["check", str(path)])
        assert code == 0 and err == ""
        assert out == "arg(a).\nsupp(t1,a,a).\n"

    def test_reads_stdin(self):
        code, out, _ = invoke(["check", "-"], stdin_text="arg(x).")
        assert code == 0 and out == "arg(x).\n"

    def test_file_and_stdin_read_line_ends_alike(self, tmp_path):
        # only \n ends a line: a lone \r is whitespace in a file as on stdin
        path = tmp_path / "cr.hafs"
        path.write_bytes(b"arg(a).\rarg(b;")
        from_file = invoke(["check", str(path)])
        assert from_file == invoke(["check", "-"], stdin_text="arg(a).\rarg(b;")
        assert from_file == (2, "", "hafs: error: 1:14: unexpected character ';'\n")
        path.write_bytes(b"arg(a).\r\nsupp(t1,a,a). % note\r\n")
        assert invoke(["check", str(path)]) == (0, "arg(a).\nsupp(t1,a,a).\n", "")

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.hafs"
        path.write_text("arg(a). att(r1,a).")
        code, out, err = invoke(["check", str(path)])
        assert code == 2 and "error" in err

    def test_missing_file_exits_2(self):
        code, _, err = invoke(["check", "/nonexistent/file.hafs"])
        assert code == 2 and "cannot read" in err


class TestLabellings:
    def test_complete_semantics(self, example3_file):
        code, out, _ = invoke(["labellings", example3_file, "--semantics", "complete"])
        assert code == 0
        payload = json.loads(out)
        assert payload["labellings"] == [
            {"arg:a": "0", "supp:t1": "1"},
            {"arg:a": "1/2", "supp:t1": "1"},
            {"arg:a": "1", "supp:t1": "1"},
        ]

    def test_stable_semantics(self, example3_file):
        code, out, _ = invoke(["labellings", example3_file, "--semantics", "stable"])
        assert json.loads(out)["labellings"] == [{"arg:a": "1", "supp:t1": "1"}]

    def test_grounded_diagnostic_key_absent_when_found(self, example3_file):
        _, out, _ = invoke(["labellings", example3_file, "--semantics", "grounded"])
        assert "diagnostic" not in json.loads(out)


class TestExtensions:
    def test_complete(self, example3_file):
        code, out, _ = invoke(["extensions", example3_file])
        assert json.loads(out)["extensions"] == [
            ["supp:t1"],
            ["arg:a", "supp:t1"],
        ]


class TestEncode:
    def test_text_format(self, tmp_path):
        path = tmp_path / "single.hafs"
        path.write_text("arg(a).")
        code, out, _ = invoke(["encode", str(path), "--logic", "l3",
                               "--format", "text"])
        assert code == 0 and out == "(a <-> T)\n"

    def test_json_format(self, example3_file):
        _, out, _ = invoke(["encode", example3_file, "--format", "json"])
        ast = json.loads(out)["formula"]
        assert ast["op"] == "and" and len(ast["children"]) == 2

    def test_unknown_logic_is_a_usage_error(self, example3_file):
        code, out, err = invoke(["encode", example3_file, "--logic", "boolean"])
        assert code == 2 and out == "" and "invalid choice: 'boolean'" in err


class TestEval:
    def test_exact_model(self, example3_file):
        code, out, _ = invoke([
            "eval", example3_file, "--logic", "godel",
            "--assignment", '{"arg:a": "2/5", "supp:t1": "1"}',
        ])
        payload = json.loads(out)
        assert payload == {"is_model": True, "logic": "godel",
                           "mode": "exact", "value": "1"}

    def test_float_mode(self, example3_file):
        _, out, _ = invoke([
            "eval", example3_file, "--logic", "godel",
            "--assignment", '{"arg:a": 0.4, "supp:t1": 1}',
        ])
        payload = json.loads(out)
        assert payload["mode"] == "float" and payload["is_model"] is True

    def test_three_valued_verdict(self, self_attack_file):
        _, out, _ = invoke([
            "eval", self_attack_file, "--logic", "l3",
            "--assignment", '{"arg:a": "1", "att:r1": "1"}',
        ])
        payload = json.loads(out)
        assert payload["is_model"] is False and payload["value"] == "0"

    def test_bad_json_exits_2(self, example3_file):
        code, _, err = invoke(["eval", example3_file, "--assignment", "{nope"])
        assert code == 2 and "not valid JSON" in err

    def test_missing_variable_exits_2(self, example3_file):
        code, _, err = invoke(["eval", example3_file,
                               "--assignment", '{"arg:a": "1"}'])
        assert code == 2 and "unassigned" in err

    @pytest.mark.parametrize("assignment, message", [
        ('{"arg:a": 0}', "arg:b is unassigned"),
        ('{"arg:a": 1}', "arg:b is unassigned"),
        ('{"arg:a": 0.0, "arg:b": "1/3"}', "not three-valued"),
    ])
    def test_every_leaf_checked_whatever_the_conjunct_order(self, tmp_path, assignment,
                                                            message):
        path = tmp_path / "two.hafs"
        path.write_text("arg(a). arg(b).\n")
        code, out, err = invoke(["eval", str(path), "--logic", "l3",
                                 "--assignment", assignment])
        assert code == 2 and out == "" and message in err


class TestSolve:
    def test_fixed_point_report(self, self_attack_file):
        code, out, _ = invoke(["solve", self_attack_file, "--logic", "godel"])
        assert code == 0
        payload = json.loads(out)
        first = payload["reports"][0]
        assert first["converged"] is True
        assert first["residual"] <= 1e-9
        assert abs(first["solution"]["arg:a"] - 0.5) <= 1e-6

    def test_exact_mode(self, self_attack_file):
        code, out, _ = invoke(["solve", self_attack_file, "--logic", "godel",
                               "--exact"])
        assert code == 0
        assert json.loads(out)["ternary_solutions"] == [
            {"arg:a": "1/2", "att:r1": "1"},
        ]


    def test_empty_framework_has_one_converged_report(self):
        code, out, _ = invoke(["solve", "-"])
        assert code == 0
        assert json.loads(out)["reports"] == [{"converged": True, "iterations": 0,
                                               "residual": 0.0, "restart_index": 0,
                                               "solution": {}}]

    @pytest.mark.parametrize("option", [["--max-iter", "-3"], ["--tol", "nan"],
                                        ["--restarts", "-1"]])
    def test_unusable_budget_or_tolerance_exits_1(self, self_attack_file, option):
        code, out, err = invoke(["solve", self_attack_file] + option)
        assert code == 1 and out == ""
        assert err.startswith("hafs: error: ")


class TestVerify:
    def test_passing_theorems_exit_0(self, example3_file):
        code, out, _ = invoke(["verify", example3_file, "--theorem", "T1",
                               "--theorem", "T_PL3", "--theorem", "CORR_G"])
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["theorem"] for r in reports] == ["T1", "T_PL3", "CORR_G"]
        assert all(r["passed"] for r in reports)

    def test_precondition_failure_exits_1(self, example3_file):
        code, _, err = invoke(["verify", example3_file, "--theorem", "T2"])
        assert code == 1 and "cycle" in err

    def test_repeated_theorem_list_does_not_leak(self, self_attack_file):
        # the parser is reused across calls; each call starts a fresh list
        code, out, _ = invoke(["verify", self_attack_file, "--theorem", "T1"])
        assert code == 0
        assert [r["theorem"] for r in json.loads(out)["reports"]] == ["T1"]
        code, out, _ = invoke(["verify", self_attack_file, "--theorem", "T1", "--theorem", "T2"])
        assert code == 0
        assert [r["theorem"] for r in json.loads(out)["reports"]] == ["T1", "T2"]

    def test_usage_error_exits_2(self, example3_file):
        code, _, _ = invoke(["verify", example3_file, "--theorem", "T99"])
        assert code == 2

    @pytest.mark.parametrize("option", [["--grid-cap", "-5"], ["--float-samples", "-3"]])
    def test_negative_eq_sizes_exit_1(self, option):
        code, out, err = invoke(["verify", "-", "--theorem", "EQ_G"] + option,
                                stdin_text="arg(a). att(r1,a,a).")
        assert code == 1 and out == ""
        assert err.startswith("hafs: error: ")


class TestRandom:
    def test_deterministic_output(self):
        argv = ["random", "--args", "3", "--atts", "2", "--supps", "2",
                "--seed", "9", "--acyclic-supports", "--higher-order-prob", "0.5"]
        code, first, _ = invoke(argv)
        _, second, _ = invoke(argv)
        assert code == 0 and first == second
        assert first.startswith("arg(a1).")

    def test_infeasible_exits_2(self):
        code, _, err = invoke(["random", "--args", "0", "--seed", "1"])
        assert code == 2


class TestHarness:
    def test_unknown_verb_exits_2(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_unknown_flag_exits_2(self, example3_file):
        code, _, _ = invoke(["check", example3_file, "--frobnicate"])
        assert code == 2

    def test_help_exits_0(self):
        code, _, _ = invoke(["--help"])
        assert code == 0

    def test_env_bound_maps_to_domain_failure(self, example3_file, monkeypatch):
        monkeypatch.setenv("HAFS_MAX_U", "1")
        code, _, err = invoke(["labellings", example3_file])
        assert code == 1 and "bound" in err

    def test_byte_identical_reruns(self, example3_file, self_attack_file):
        invocations = [
            ["labellings", example3_file],
            ["extensions", example3_file],
            ["encode", example3_file, "--format", "json"],
            ["solve", self_attack_file, "--logic", "product", "--seed", "5"],
            ["verify", example3_file, "--theorem", "T_PL3", "--seed", "5"],
        ]
        for argv in invocations:
            _, first, _ = invoke(argv)
            _, second, _ = invoke(argv)
            assert first == second, argv
