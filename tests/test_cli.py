import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cofiso import properties
from cofiso.cli import invoke, main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "cofiso", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )


class TestEval:
    def test_product_of_generators(self):
        code, doc = invoke(["eval", "a*b"])
        assert code == 0
        assert doc == {"schema": 1, "value": {"excluded": [], "shift": 0}, "repr": "iso([],0)"}

    def test_group_value(self):
        code, doc = invoke(["eval", "grp(3)*b"])
        assert code == 0
        assert doc["value"] == {"group": 2}

    def test_noise_gate(self):
        code, doc = invoke(["eval", "e[3]", "--j", "2"])
        assert code == 2
        assert doc["error"]["type"] == "EvalError"

    def test_parse_error_carries_column(self):
        code, doc = invoke(["eval", "e[0]"])
        assert code == 2
        assert doc["error"]["type"] == "ParseError"
        assert doc["error"]["column"] == 3

    @pytest.mark.parametrize("text,column", [("e[²]", 3), ("a^²", 3), ("iso([²],0)", 6)])
    def test_superscript_digit_is_a_located_parse_error(self, text, column):
        code, doc = invoke(["eval", text])
        assert code == 2
        assert doc["error"] == {
            "type": "ParseError",
            "message": f"column {column}: unexpected character '²'",
            "column": column,
        }

    def test_overlong_integer_is_a_located_parse_error(self):
        code, doc = invoke(["eval", "e[" + "1" * 5000 + "]"])
        assert code == 2
        assert doc["error"] == {
            "type": "ParseError",
            "message": "column 3: integer of 5000 digits is too long",
            "column": 3,
        }

    @pytest.mark.parametrize(
        "text,value",
        [
            ("a" + "*a" * 5000, {"excluded": [], "shift": 5001}),
            ("a" + "^2" * 3000, {"excluded": [], "shift": 2**3000}),
            ("(" * 100 + "b" + ")" * 100, {"excluded": [1], "shift": -1}),
        ],
        ids=["long product", "long power chain", "100 parentheses"],
    )
    def test_deep_expressions_evaluate(self, text, value):
        code, doc = invoke(["eval", text])
        assert (code, doc["value"]) == (0, value)

    def test_deep_parenthesis_nesting_is_a_located_parse_error(self):
        code, doc = invoke(["eval", "(" * 1000 + "a" + ")" * 1000])
        assert code == 2
        assert doc["error"] == {
            "type": "ParseError",
            "message": "column 101: parentheses nested deeper than 100",
            "column": 101,
        }

    def test_noise_gate_names_a_long_product(self):
        code, doc = invoke(["eval", "e[2]" + "*e[2]" * 5000, "--j", "1"])
        assert code == 2
        assert doc["error"]["type"] == "EvalError"
        assert doc["error"]["message"].startswith("e[2]*e[2]*")


class TestOffsetLists:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval", "a", "--j", "3", "--M", "x"], "argument --M: offset 'x' is not an integer"),
            (["eval", "a", "--j", "3", "--M", "2,,3"], "argument --M: offset '' is not an integer"),
            (["classify", "a", "--j", "3", "--M", "2, 3,"], "argument --M: offset '' is not an integer"),
            (
                ["converge", "--offsets", "2,x3", "--k", "0", "--j", "3"],
                "argument --offsets: offset 'x3' is not an integer",
            ),
            (["distinguish", "2", "3,y", "--j", "3"], "argument m2: offset 'y' is not an integer"),
            (["distinguish", "2.5", "3", "--j", "3"], "argument m1: offset '2.5' is not an integer"),
            (
                ["eval", "a", "--j", "3", "--M", "2," + "1" * 5000],
                "argument --M: offset of 5000 digits is too long",
            ),
        ],
        ids=["letter", "empty part", "trailing comma", "offsets", "operand m2", "operand m1", "overlong"],
    )
    def test_bad_part_is_a_usage_error(self, argv, message):
        assert invoke(argv) == (2, {"schema": 1, "error": {"type": "usage", "message": message}})

    def test_blanks_around_parts_are_read(self):
        code, doc = invoke(["classify", "iso([2],0)", "--j", "3", "--M", " 2 , 3"])
        assert (code, doc["in_M"]) == (0, True)


class TestClassify:
    def test_profile_row(self):
        code, doc = invoke(["classify", "iso([2],0)", "--j", "3", "--M", "2"])
        assert code == 0
        assert doc["nd"] == 3
        assert doc["und"] == 1
        assert doc["nr"] == 3
        assert doc["unr"] == 1
        assert doc["noise"] == 2
        assert doc["pi"] == 0
        assert doc["idempotent"] is True
        assert doc["in_gj"] is True
        assert doc["in_M"] is True
        assert doc["in_M_range"] is True
        assert doc["bicyclic"] is None

    def test_bicyclic_profile(self):
        code, doc = invoke(["classify", "b^2*a", "--j", "2"])
        assert code == 0
        assert doc["bicyclic"] == {"k": 2, "l": 1}

    def test_group_operand_rejected(self):
        code, doc = invoke(["classify", "grp(1)", "--j", "2"])
        assert code == 2
        assert doc["error"]["type"] == "EvalError"


class TestGreenOrder:
    def test_same_domain(self):
        code, doc = invoke(["green", "L", "iso([1],0)", "iso([1],1)"])
        assert code == 0
        assert doc["related"] is True

    def test_unrelated_pair_exits_one(self):
        code, doc = invoke(["green", "H", "a", "b"])
        assert code == 1
        assert doc["related"] is False

    def test_translate_witness_reported(self):
        code, doc = invoke(["green", "D", "iso([1],0)", "iso([1,2],1)"])
        assert code == 0
        assert doc["witness"] == {"excluded": [1], "shift": 1}

    def test_bad_relation_is_usage_error(self):
        code, doc = invoke(["green", "X", "a", "b"])
        assert code == 2
        assert doc["error"]["type"] == "usage"

    def test_order_true_and_false(self):
        assert invoke(["order", "iso([1,2],0)", "iso([1],0)"])[0] == 0
        assert invoke(["order", "iso([1],0)", "iso([1,2],0)"])[0] == 1

    def test_order_accepts_levels(self):
        code, doc = invoke(["order", "grp(0)", "iso([3],0)"])
        assert code == 0
        assert doc["leq"] is True


class TestSmallCommands:
    def test_pi(self):
        code, doc = invoke(["pi", "b^2"])
        assert (code, doc["pi"]) == (0, -2)

    def test_arrow(self):
        code, doc = invoke(["arrow", "iso([2],5)"])
        assert code == 0
        assert doc["value"] == {"excluded": [1, 2], "shift": 5}
        assert doc["bicyclic"] == {"k": 2, "l": 7}

    def test_normalize(self):
        code, doc = invoke(["normalize", "bba"])
        assert code == 0
        assert doc["k"] == 2
        assert doc["l"] == 1
        assert doc["value"] == {"excluded": [1, 2], "shift": -1}

    def test_normalize_bad_letter(self):
        code, doc = invoke(["normalize", "abc"])
        assert code == 2
        assert doc["error"]["type"] == "WordError"

    def test_boundary(self):
        code, doc = invoke(["boundary", "--j", "2"])
        assert code == 0
        assert doc["count"] == 2
        assert doc["elements"] == [
            {"excluded": [], "shift": 0},
            {"excluded": [2], "shift": 0},
        ]


class TestTopologyCommands:
    def test_member(self):
        code, doc = invoke(["nbhd", "grp(0)", "--k", "0", "--i", "5", "--j", "2", "--M", "2"])
        assert code == 0
        assert doc["member"] is True

    def test_nonmember_exits_one(self):
        code, doc = invoke(["nbhd", "I", "--k", "0", "--i", "2", "--j", "2"])
        assert code == 1
        assert doc["member"] is False

    def test_converge_verdicts(self):
        argv = ["converge", "--offsets", "2", "--k", "0", "--j", "2"]
        code, doc = invoke(argv + ["--M", "2"])
        assert code == 0
        assert doc["converges"] is True
        assert doc["agree"] is True
        code, doc = invoke(argv)
        assert code == 1
        assert doc["converges"] is False
        assert doc["agree"] is True

    def test_converge_far_depth_returns_promptly(self):
        far = str(10**12)
        proc = run_cli("converge", "--k", "0", "--j", "2", "--depth", far, "--horizon", far, timeout=30)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert (doc["converges"], doc["empirical"]) == (True, False)

    def test_converge_outside_the_space(self):
        code, doc = invoke(["converge", "--offsets", "3", "--k", "0", "--j", "2"])
        assert code == 2
        assert doc["error"]["type"] == "OutsideSpace"

    def test_distinguish(self):
        code, doc = invoke(["distinguish", "2", "3", "--j", "3"])
        assert code == 0
        assert doc["kept_offsets"] == [2]
        assert doc["converges_m1"] is True
        assert doc["converges_m2"] is False

    def test_distinguish_equal_sets(self):
        code, doc = invoke(["distinguish", "2", "2", "--j", "2"])
        assert code == 2
        assert doc["error"]["type"] == "NotDistinct"

    def test_upset(self):
        code, doc = invoke(["upset", "iso([1,2],0)", "--j", "2", "--bound", "2"])
        assert code == 0
        assert doc["count"] == 4
        assert doc["complete"] is True
        assert {"excluded": [], "shift": 0} in doc["elements"]

    def test_upset_gate(self):
        code, doc = invoke(["upset", "iso([3],0)", "--j", "2", "--bound", "4"])
        assert code == 2


class TestVerify:
    def test_passing_suite(self):
        code, doc = invoke(["verify", "absorption", "--N", "3", "--S", "2"])
        assert code == 0
        assert doc["passed"] is True
        assert doc["instances"] > 0
        assert doc["counterexamples"] == []

    def test_unknown_property(self):
        code, doc = invoke(["verify", "nope", "--N", "2", "--S", "1"])
        assert code == 2
        assert doc["error"]["type"] == "UnknownProperty"

    def test_counterexample_exits_three(self, monkeypatch):
        def always_fails(t, bounds, params):
            t.check(False, "broken")

        monkeypatch.setitem(
            properties._REGISTRY, "always_fails", ("it always fails", always_fails)
        )
        code, doc = invoke(["verify", "always_fails", "--N", "1", "--S", "0"])
        assert code == 3
        assert doc["passed"] is False
        assert doc["counterexamples"] == [["'broken'"]]


class TestFraming:
    def test_help_prints_without_a_document(self):
        assert invoke(["--help"]) == (0, None)

    def test_missing_subcommand_is_usage(self):
        code, doc = invoke([])
        assert code == 2
        assert doc["error"]["type"] == "usage"

    def test_every_document_carries_the_schema_field(self):
        for argv in (["pi", "a"], ["eval", "("], ["boundary", "--j", "3"]):
            _, doc = invoke(argv)
            assert doc["schema"] == 1


class TestSubprocess:
    def test_single_json_line(self):
        proc = run_cli("eval", "a*b")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {
            "schema": 1,
            "value": {"excluded": [], "shift": 0},
            "repr": "iso([],0)",
        }
        assert proc.stdout.count("\n") == 1

    def test_pretty_flag_indents(self):
        proc = run_cli("--pretty", "classify", "iso([2],0)", "--j", "2")
        assert proc.returncode == 0
        assert "\n  " in proc.stdout
        assert json.loads(proc.stdout)["noise"] == 2

    def test_error_exit_code_propagates(self):
        proc = run_cli("normalize", "xyz")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "WordError"

    def test_verdict_exit_code_propagates(self):
        proc = run_cli("order", "a", "b")
        assert proc.returncode == 1


# Exact stdout of schema-1 documents for elements with a noisy head,
# recorded from the implementation that stored the excluded tuple itself.
GOLDEN = [
    (
        ["eval", "iso([1,2,4,7],2)*e[10]*e[14]"],
        '{"schema": 1, "value": {"excluded": [1, 2, 4, 7, 8, 12], "shift": 2}, '
        '"repr": "iso([1,2,4,7,8,12],2)"}\n',
    ),
    (
        ["eval", "(iso([2,5,6],1)*b^2)^-1"],
        '{"schema": 1, "value": {"excluded": [1, 4, 5], "shift": 1}, "repr": "iso([1,4,5],1)"}\n',
    ),
    (
        ["classify", "iso([1,3,4,8],-1)", "--j", "8", "--M", "2,4,5"],
        '{"schema": 1, "value": {"excluded": [1, 3, 4, 8], "shift": -1}, "nd": 9, "und": 2, '
        '"nr": 8, "unr": 1, "noise": 7, "pi": -1, "idempotent": false, "in_gj": true, '
        '"in_M": false, "in_M_range": false, "bicyclic": null}\n',
    ),
    (
        ["upset", "iso([1,3,5],0)", "--j", "4", "--bound", "5"],
        '{"schema": 1, "elements": [{"excluded": [], "shift": 0}, {"excluded": [1], "shift": 0}, '
        '{"excluded": [1, 3], "shift": 0}, {"excluded": [1, 3, 5], "shift": 0}, '
        '{"excluded": [1, 5], "shift": 0}, {"excluded": [3], "shift": 0}], '
        '"count": 6, "complete": true}\n',
    ),
    (
        ["normalize", "bbabaab"],
        '{"schema": 1, "k": 2, "l": 1, "reduced": "bba", '
        '"value": {"excluded": [1, 2], "shift": -1}}\n',
    ),
    (
        ["green", "D", "iso([1,3,6],0)", "iso([1,2,3,5,8],4)"],
        '{"schema": 1, "relation": "D", "a": {"excluded": [1, 3, 6], "shift": 0}, '
        '"b": {"excluded": [1, 2, 3, 5, 8], "shift": 4}, "related": true, '
        '"witness": {"excluded": [1, 3, 6], "shift": 2}}\n',
    ),
]


# A 300-point literal with blanks around its commas, times a far puncture.
_LONG_POINTS = [*range(1, 299), 300, 303]
GOLDEN.append(
    (
        [
            "eval",
            "iso([" + " , ".join(map(str, _LONG_POINTS[:150])) + ",\t"
            + ", ".join(map(str, _LONG_POINTS[150:])) + "] , -7)*e[300]",
        ],
        '{"schema": 1, "value": {"excluded": [' + ", ".join(map(str, _LONG_POINTS)) + ', 307], "shift": -7}, '
        '"repr": "iso([' + ",".join(map(str, _LONG_POINTS)) + ',307],-7)"}\n',
    )
)


class TestGolden:
    @pytest.mark.parametrize("argv,stdout", GOLDEN, ids=[g[0][0] + str(i) for i, g in enumerate(GOLDEN)])
    def test_stdout_is_byte_identical(self, argv, stdout, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout
