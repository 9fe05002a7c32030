import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from hafs import ElementId, parse
from hafs.cli import _json_text, _parse_assignment, run


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


class FloatSub(float):
    def __repr__(self):
        return "not the float"


class IntSub(int):
    def __repr__(self):
        return "not the int"


# quote, backslash, control, non-ASCII, line-separator and lone-surrogate
# characters, mixed into arbitrary text
TRICKY = ('"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "\u00e9", "\u2028", "\ud800",
          "\U0001f600")
STRINGS = st.text(st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=6)
FLOATS = st.one_of(st.floats(), st.floats().map(FloatSub),
                   st.sampled_from((1e-22, -0.0, float("nan"), float("inf"), -float("inf"),
                                    1e16, 0.1, 5e-324)))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers().map(IntSub), FLOATS,
                    STRINGS)


def containers(children):
    # up to 10 items, so that containers of _FLAT_MIN scalars come up; one key
    # type per dict, since json sorts the keys
    items = st.lists(children, max_size=10)
    return st.one_of(items, items.map(tuple), st.dictionaries(STRINGS, children, max_size=10),
                     st.dictionaries(st.integers(), children, max_size=4),
                     st.dictionaries(st.floats(), children, max_size=4),
                     st.dictionaries(st.booleans(), children, max_size=2),
                     st.dictionaries(st.none(), children, max_size=1))


JSON_VALUES = st.recursive(SCALARS, containers, max_leaves=40)


def nested(depth: int):
    """Lists and one-key dicts in turn, ``depth`` deep, around ``[]``."""
    value: object = []
    for i in range(depth):
        value = [value] if i % 2 else {"k": value}
    return value


class TestJsonText:
    """``_json_text`` against ``json.dumps(indent=..., sort_keys=True)``."""

    @settings(max_examples=400)
    @given(JSON_VALUES, st.sampled_from((2, 0, 3)))
    def test_generated_values(self, value, indent):
        assert _json_text(value, indent) == json.dumps(value, indent=indent, sort_keys=True)

    @pytest.mark.parametrize("value", [
        {}, [], (), [{}, [], ()], {"a": {}, "b": []},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-22, FloatSub(0.5), IntSub(3),
         True, False, None, "\"\u00e9\n", 10 ** 30],
        {f"k{i}\u2028\"": i / 7 for i in range(12)},
        {"flat": list(range(20)), "nested": [list(range(8)), {"x": tuple("abcdefgh")}]},
        {1.5: 0, 2.25: 1}, {None: [1, 2]}, {True: [1] * 9, False: {}},
        {i: str(i) for i in range(-3, 10)}, {i * 1.5: [i] * 8 for i in range(9)},
        {i / 3: i for i in range(-2, 9)}, {i / 3: None for i in range(-2, 9)},
    ])
    def test_fixed_values(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{"a": 1, 2: 3}, {(1,): 2}, [object()], {"a": {1, 2}},
                                       [[0] * 9, b"bytes"]])
    def test_same_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            _json_text(value)
        assert str(got.value) == str(expected.value)

    def test_circular_reference(self):
        shared = [1, 2]
        value = {"a": shared, "b": [shared, {"c": shared}]}
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
        value["b"][1]["c"] = value
        for circular in (value, [0, value], (lambda x: x.append(x) or x)([[]])):
            with pytest.raises(ValueError) as expected:
                json.dumps(circular, indent=2, sort_keys=True)
            with pytest.raises(ValueError) as got:
                _json_text(circular)
            assert str(got.value) == str(expected.value)

    def test_moderate_depth_matches_json(self):
        value = nested(150)
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_deep_nesting_without_recursion(self):
        # with indent 2 the text of 100 000 levels would be about 10^10
        # characters, so the deep run writes with indent 0
        depth = 100_000
        expected = "".join("[\n" if i % 2 else '{\n"k": ' for i in reversed(range(depth)))
        expected += "[]" + "".join("\n]" if i % 2 else "\n}" for i in range(depth))
        assert _json_text(nested(depth), 0) == expected


class TestParseAssignment:
    TEXT = "arg(a). arg(b). att(r1,a,b). supp(t1,b,r1)."

    def test_keys_are_the_frameworks_own_ids(self):
        h = parse(self.TEXT)
        raw = json.dumps({x.qualified: "1/2" for x in reversed(h.universe)})
        assignment = _parse_assignment(raw, h)
        assert list(assignment) == list(h.universe)
        assert all(a is b for a, b in zip(assignment, h.universe))

    def test_absent_key_gets_its_own_id(self):
        # arg:r1 is a valid id, but r1 is an attack: the key names no element
        h = parse(self.TEXT)
        assignment = _parse_assignment('{"arg:r1": "1", "att:r1": 0.5}', h)
        absent = ElementId.from_qualified("arg:r1")
        assert absent not in h and assignment[absent] == 1
        assert next(k for k in assignment if k.name == "r1" and k.kind.value == "att") \
            is h.universe[2]
        # an extra key changes nothing
        full = '"arg:a": "1", "arg:b": "0", "att:r1": "1/2", "supp:t1": "1"'
        runs = [invoke(["eval", "-", "--assignment", "{" + keys + "}"], self.TEXT)
                for keys in (full, '"arg:r1": "1", ' + full)]
        assert runs[0] == runs[1] and runs[0][0] == 0

    @pytest.mark.parametrize("assignment, message", [
        ('{"nope:a": "1", "arg:a": true}',
         "invalid qualified id 'nope:a' (want arg:/att:/supp: prefix)"),
        ('{"arg:a": true, "nope:a": "1"}', "boolean value for 'arg:a'"),
        ('{"arg:1a": "1"}', "invalid element name '1a'"),
        ('{"arg": "1"}', "invalid element name ''"),
        ('{"arg:a": "x/2", "arg:1a": 1}', "cannot read 'x/2' as a rational"),
        ('{"arg:a": "1/0"}', "cannot read '1/0' as a rational"),
        ('{"arg:a": [1]}', "unsupported value [1] for 'arg:a'"),
        ('{"arg:a": "3/2"}', "value Fraction(3, 2) for arg:a is outside [0, 1]"),
        ('{"arg:a": -0.5}', "value -0.5 for arg:a is outside [0, 1]"),
        ('{"arg:a": "1", "arg:b": "1"}', "variable att:r1 is unassigned"),
    ])
    def test_errors_keep_message_exit_code_and_order(self, assignment, message):
        code, out, err = invoke(["eval", "-", "--assignment", assignment], self.TEXT)
        assert (code, out, err) == (2, "", f"hafs: error: {message}\n")
