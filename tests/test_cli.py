import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofiso import cli, core, properties
from cofiso.cli import invoke, main
from cofiso.extension import Group

ROOT = Path(__file__).resolve().parent.parent


def cap_memory():
    # 400 MB of address space: ample for any answer, far too little for a
    # map's 10^9 excluded points
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


def run_cli(*args, timeout=None, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "cofiso", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
        preexec_fn=preexec_fn,
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

    def test_offset_set_option_is_refused(self):
        # eval checks only the noise bound, so it takes no --M
        error = {"type": "usage", "message": "unrecognized arguments: --M 2"}
        assert invoke(["eval", "a", "--j", "3", "--M", "2"]) == (2, {"schema": 1, "error": error})

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
            (["classify", "a", "--j", "3", "--M", "x"], "argument --M: offset 'x' is not an integer"),
            (["classify", "a", "--j", "3", "--M", "2,,3"], "argument --M: offset '' is not an integer"),
            (["classify", "a", "--j", "3", "--M", "2, 3,"], "argument --M: offset '' is not an integer"),
            (
                ["converge", "--offsets", "2,x3", "--k", "0", "--j", "3"],
                "argument --offsets: offset 'x3' is not an integer",
            ),
            (["distinguish", "2", "3,y", "--j", "3"], "argument m2: offset 'y' is not an integer"),
            (["distinguish", "2.5", "3", "--j", "3"], "argument m1: offset '2.5' is not an integer"),
            (
                ["classify", "a", "--j", "3", "--M", "2," + "1" * 5000],
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
    def test_far_forward_shift_returns_promptly(self):
        proc = run_cli("classify", "a^1000000000", "--j", "2", timeout=30)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert (doc["unr"], doc["in_M"], doc["in_M_range"]) == (1000000001, True, True)

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


class TestBudget:
    """Listings larger than ``core._BUDGET`` are refused from their count,
    and suites whose planned work passes ``properties._WORK`` from their
    plans."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["boundary", "--j", "40"], "boundary lists 2^39 elements, above the budget of 65536"),
            (
                ["upset", "grp(0)", "--j", "2", "--bound", "40"],
                "upset walks 2^40 subsets, above the budget of 65536",
            ),
            (
                ["upset", "b^38*iso([2,4,7],0)*a^38", "--j", "7", "--bound", "1000"],
                "upset walks 2^41 subsets, above the budget of 65536",
            ),
            (["eval", "b^1000000000"], "the value excludes 1000000000 points, above the budget of 65536"),
            (["eval", "b^65537"], "the value excludes 65537 points, above the budget of 65536"),
            (["arrow", "b^65537*e[3]"], "the value excludes 65540 points, above the budget of 65536"),
            (
                ["distinguish", "2", "all", "--j", "65538"],
                "argument m2: all lists 65537 offsets, above the budget of 65536",
            ),
        ],
        ids=[
            "boundary",
            "upset group",
            "upset map",
            "eval far",
            "eval budget+1",
            "arrow",
            "all budget+1",
        ],
    )
    def test_over_budget_is_refused(self, argv, message):
        assert invoke(argv) == (2, {"schema": 1, "error": {"type": "OverBudget", "message": message}})

    def test_budget_sized_value_is_printed(self):
        code, doc = invoke(["eval", "b^65536"])
        assert (code, doc["value"]) == (0, {"excluded": list(range(1, 65537)), "shift": -65536})

    def test_walks_at_the_budget_run(self, monkeypatch):
        monkeypatch.setattr(core, "_BUDGET", 8)
        assert invoke(["boundary", "--j", "4"])[1]["count"] == 8
        assert invoke(["boundary", "--j", "5"])[1]["error"]["type"] == "OverBudget"
        assert invoke(["upset", "grp(0)", "--j", "3", "--bound", "3"])[1]["count"] == 9
        assert invoke(["upset", "grp(0)", "--j", "3", "--bound", "4"])[1]["error"]["type"] == "OverBudget"
        # the walked points of a map are its excluded points up to bound
        assert invoke(["upset", "iso([1,3,5,7],0)", "--j", "6", "--bound", "6"])[1]["count"] == 8
        code, doc = invoke(["upset", "iso([1,3,5,7],0)", "--j", "6", "--bound", "7"])
        assert doc["error"]["message"] == "upset walks 2^4 subsets, above the budget of 8"

    def test_verify_and_all_at_the_budget_run(self, monkeypatch):
        monkeypatch.setattr(core, "_BUDGET", 8)
        # (2S+1)*2^N elements: 6 and 8 run; 10, 12 and 16 do not
        assert invoke(["verify", "assoc", "--N", "1", "--S", "1"])[0] == 0
        assert invoke(["verify", "assoc", "--N", "3", "--S", "0"])[0] == 0
        for n, s in ((1, 2), (2, 1), (4, 0)):
            code, doc = invoke(["verify", "assoc", "--N", str(n), "--S", str(s)])
            assert (code, doc["error"]["type"]) == (2, "OverBudget")
        # 2^(j-1) offset sets
        assert invoke(["verify", "offset_classes", "--N", "1", "--S", "0", "--j", "4"])[0] == 0
        code, doc = invoke(["verify", "offset_classes", "--N", "1", "--S", "0", "--j", "5"])
        assert doc["error"]["message"] == "verify lists 2^4 offset sets, above the budget of 8"
        # all lists j-1 offsets
        assert invoke(["classify", "a", "--j", "9", "--M", "all"])[0] == 0
        code, doc = invoke(["classify", "a", "--j", "10", "--M", "all"])
        assert doc["error"]["message"] == "argument --M: all lists 9 offsets, above the budget of 8"

    def test_verify_checks_the_level_of_suites_that_read_one(self):
        # assoc reads no params: its --j lists nothing
        code, doc = invoke(["verify", "assoc", "--N", "1", "--S", "0", "--j", "18"])
        assert (code, doc["passed"], doc["instances"]) == (0, True, 8)
        # boundary lists 2^(j-1) elements, nbhd_nesting 2^(j-1) offset sets
        message = "verify lists 2^17 offset sets, above the budget of 65536"
        for suite in ("boundary", "nbhd_nesting"):
            doc = invoke(["verify", suite, "--N", "1", "--S", "0", "--j", "18"])
            assert doc == (2, {"schema": 1, "error": {"type": "OverBudget", "message": message}})

    @pytest.mark.parametrize(
        "argv",
        [
            ("assoc", "--N", "3", "--S", "2"),
            # the suite's own level, 3, when --j is omitted
            ("offset_classes", "--N", "1", "--S", "0"),
            ("offset_classes", "--N", "1", "--S", "0", "--j", "4"),
            # a fixed input still plans each probe
            ("convergence_probe", "--N", "1", "--S", "0", "--j", "4"),
            # plans made after earlier stages ran: each a <= b row, each
            # split of the neighborhood pool, each offset class
            ("natural_order", "--N", "2", "--S", "1"),
            ("nbhd_translation", "--N", "1", "--S", "0", "--j", "3"),
            ("class_closure", "--N", "2", "--S", "0", "--j", "3"),
        ],
    )
    def test_verify_work_at_the_budget_runs(self, monkeypatch, argv):
        tallies = []

        class Recording(properties._Tally):
            def __init__(self, *args):
                super().__init__(*args)
                tallies.append(self)

        monkeypatch.setattr(properties, "_Tally", Recording)
        code, doc = invoke(["verify", *argv])
        planned = tallies[-1].planned
        assert code == 0 and doc["instances"] <= planned
        # a call runs when its plans reach the budget and is refused, by
        # its last plan, one unit below
        monkeypatch.setattr(properties, "_WORK", planned)
        assert invoke(["verify", *argv]) == (code, doc)
        monkeypatch.setattr(properties, "_WORK", planned - 1)
        message = f"verify {argv[0]} plans {planned} units, above the budget of {planned - 1}"
        error = {"type": "OverBudget", "message": message}
        assert invoke(["verify", *argv]) == (2, {"schema": 1, "error": error})

    def test_shift_count_at_the_budget(self):
        # 2S+1 shifts: 65535 pass to the pool count, 65537 are refused by size
        code, doc = invoke(["verify", "assoc", "--N", "0", "--S", "32767"])
        # the 32768 elements of shift 0..32767 plan one unit per triple
        message = "verify assoc plans 35184372088832 units, above the budget of 16777216"
        assert doc["error"]["message"] == message
        code, doc = invoke(["verify", "assoc", "--N", "0", "--S", "32768"])
        assert doc["error"]["message"] == "verify tries at least 2^16 shifts, above the budget of 65536"

    @pytest.mark.parametrize(
        "argv,instances",
        [
            # 101 elements, once refused as a pool of 5127 candidates cubed
            (("ext_assoc", "--N", "10", "--S", "2", "--j", "2"), 1030301),
            # 256^3 triples: exactly the budget
            (("assoc", "--N", "8", "--S", "0"), 16777216),
            (("class_closure", "--N", "8", "--S", "0", "--j", "8"), 520876),
            (("nbhd_monotone", "--N", "8", "--S", "0", "--j", "6"), 1588830),
        ],
        ids=["ext_assoc", "assoc", "class_closure", "nbhd_monotone"],
    )
    def test_large_calls_inside_the_budget_run(self, argv, instances):
        code, doc = invoke(["verify", *argv])
        assert (code, doc["passed"], doc["instances"]) == (0, True, instances)

    def test_explicit_offsets_at_a_large_level_run(self):
        code, doc = invoke(["classify", "iso([2],0)", "--j", "100000000", "--M", "2,99999999"])
        assert (code, doc["in_M"]) == (0, True)
        code, doc = invoke(["converge", "--offsets", "2", "--k", "0", "--j", "100000000"])
        assert (code, doc["converges"], doc["agree"]) == (1, False, True)

    @pytest.mark.parametrize(
        "x,bound,points",
        [
            ("grp(3)", -2, 0),
            ("grp(3)", 5, 5),
            ("I", 9, 0),
            ("iso([1,2,4,7],0)", 0, 0),
            ("iso([1,2,4,7],0)", 1, 1),
            ("iso([1,2,4,7],0)", 5, 3),
            ("iso([1,2,4,7],0)", 6, 3),
            ("iso([1,2,4,7],0)", 10**9, 4),
            ("iso([3,4],2)", 3, 1),
            ("b^1000000000", 3, 3),
        ],
    )
    def test_walked_points_match_the_excluded_set(self, x, bound, points):
        value = cli._value(x)
        assert cli._walked_points(value, bound) == points
        if not isinstance(value, Group) and value.dom_min < 100:
            assert points == len([e for e in value.excluded if e <= bound])

    @pytest.mark.parametrize(
        "argv",
        [
            ("boundary", "--j", "40"),
            ("upset", "grp(0)", "--j", "2", "--bound", "40"),
            ("eval", "b^1000000000"),
            ("verify", "boundary", "--N", "1", "--S", "0", "--j", "18"),
            ("verify", "nbhd_nesting", "--N", "1", "--S", "0", "--j", "18"),
            # each of these ran for more than 15 s under a per-suite model
            # of loop depth and offset-set loops
            ("verify", "nbhd_nesting", "--N", "1", "--S", "0", "--j", "17"),
            ("verify", "upset_char", "--N", "1", "--S", "0", "--j", "17"),
            ("verify", "nbhd_translation", "--N", "1", "--S", "0", "--j", "17"),
            ("verify", "convergence_probe", "--N", "1", "--S", "0", "--j", "9"),
            ("verify", "oracle_equiv", "--N", "11", "--S", "0"),
            ("verify", "green_relations", "--N", "11", "--S", "0"),
            ("verify", "congruence", "--N", "12", "--S", "0"),
            ("verify", "retraction", "--N", "12", "--S", "0"),
        ],
        ids=[
            "boundary",
            "upset",
            "eval",
            "verify boundary",
            "verify nbhd_nesting",
            "plan nbhd_nesting",
            "plan upset_char",
            "plan nbhd_translation",
            "plan convergence_probe",
            "plan oracle_equiv",
            "plan green_relations",
            "plan congruence",
            "plan retraction",
        ],
    )
    def test_refusal_returns_promptly(self, argv):
        proc = run_cli(*argv, timeout=10)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "OverBudget"

    @pytest.mark.parametrize(
        "argv,error",
        [
            (
                ["eval", "b^1000000000*e[2]", "--j", "1"],
                {"type": "EvalError", "message": "b^1000000000*e[2] has noise 2, above the bound 1"},
            ),
            (
                ["upset", "b^1000000000*e[2]", "--j", "1", "--bound", "3"],
                {
                    "type": "ValueError",
                    "message": "the map with tail start 1000000003 and shift -1000000000 "
                    "has noise 2, above the bound 1",
                },
            ),
            (
                ["eval", "e[1000000000]"],
                {"type": "ParseError", "message": "column 3: point must be <= 1048576", "column": 3},
            ),
            (
                ["eval", "iso([1000000000],0)"],
                {"type": "ParseError", "message": "column 6: point must be <= 1048576", "column": 6},
            ),
        ],
        ids=["eval gate", "upset gate", "far puncture", "far literal"],
    )
    def test_far_values_are_refused_without_listing_them(self, argv, error):
        proc = run_cli(*argv, timeout=30, preexec_fn=cap_memory)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout) == {"schema": 1, "error": error}

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["verify", "assoc", "--N", "40", "--S", "2"],
                "verify enumerates 5*2^40 elements, above the budget of 65536",
            ),
            (
                ["verify", "assoc", "--N", "14", "--S", "2"],
                "verify enumerates 5*2^14 elements, above the budget of 65536",
            ),
            (
                ["verify", "assoc", "--N", "10000000000", "--S", "0"],
                "verify enumerates 1*2^10000000000 elements, above the budget of 65536",
            ),
            (
                ["verify", "offset_classes", "--N", "2", "--S", "0", "--j", "40"],
                "verify lists 2^39 offset sets, above the budget of 65536",
            ),
            (
                # the suite's own pool: shifts k - 1, k and k + 1
                ["verify", "upset_char", "--N", "40", "--S", "2", "--j", "2"],
                "verify enumerates 3*2^40 elements, above the budget of 65536",
            ),
            (
                # the neighborhood suites draw shifts up to 3 whatever S is
                ["verify", "nbhd_inversion", "--N", "16", "--S", "0", "--j", "2"],
                "verify enumerates 7*2^16+7 elements, above the budget of 65536",
            ),
            (
                # 30720 elements, one unit per triple
                ["verify", "assoc", "--N", "13", "--S", "2"],
                "verify assoc plans 28991029248000 units, above the budget of 16777216",
            ),
            (
                # 3840 maps of noise up to 10 and 7 integers
                ["verify", "ext_assoc", "--N", "10", "--S", "2", "--j", "10"],
                "verify ext_assoc plans 56933326423 units, above the budget of 16777216",
            ),
            (
                # 2^16 offset sets compared pairwise
                ["verify", "nbhd_monotone", "--N", "1", "--S", "0", "--j", "17"],
                "verify nbhd_monotone plans 4294967296 units, above the budget of 16777216",
            ),
            (
                ["verify", "offset_classes", "--N", "1", "--S", "0", "--j", "17"],
                "verify offset_classes plans 4294967296 units, above the budget of 16777216",
            ),
            (
                ["verify", "assoc", "--N", "1", "--S", "9" * 4300],
                "verify tries at least 2^14285 shifts, above the budget of 65536",
            ),
            (
                ["classify", "a", "--j", "100000000", "--M", "all"],
                "argument --M: all lists 99999999 offsets, above the budget of 65536",
            ),
            (
                ["nbhd", "a", "--k", "1", "--i", "1", "--j", "100000000", "--M", "all"],
                "argument --M: all lists 99999999 offsets, above the budget of 65536",
            ),
            (
                ["converge", "--k", "0", "--j", "100000000", "--offsets", "all"],
                "argument --offsets: all lists 99999999 offsets, above the budget of 65536",
            ),
        ],
        ids=[
            "verify assoc",
            "verify budget+",
            "verify far N",
            "verify offset sets",
            "verify upset_char",
            "verify nbhd pool",
            "verify cubic",
            "verify ext cubic",
            "verify offset pairs",
            "verify offset pairs, one element",
            "verify S of 4300 digits",
            "classify",
            "nbhd",
            "converge",
        ],
    )
    def test_large_bounds_are_refused_up_front(self, argv, message):
        proc = run_cli(*argv, timeout=30, preexec_fn=cap_memory)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.count("\n") == 1
        error = {"type": "OverBudget", "message": message}
        assert json.loads(proc.stdout) == {"schema": 1, "error": error}

    def test_far_map_walks_only_up_to_bound(self):
        proc = run_cli("upset", "b^1000000000", "--j", "2", "--bound", "3", timeout=30)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"schema": 1, "elements": [], "count": 0, "complete": False}

    def test_far_kept_offset_builds_no_head_mask(self):
        # the probe's first index lies past the horizon, so no element and
        # no 10^12-bit head mask is built
        far = "1000000000000"
        proc = run_cli("converge", "--offsets", f"2,{far}", "--k", "0", "--j", far, timeout=30, preexec_fn=cap_memory)
        assert proc.returncode == 2, proc.stderr
        error = {"type": "ValueError", "message": f"horizon 60 is below the first index {int(far) + 1}"}
        assert json.loads(proc.stdout) == {"schema": 1, "error": error}


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

    def test_boundary_mismatch_prints_a_short_line(self):
        # N below j misses all but one of the 2^16 listed maps: the report
        # names the sizes and the first few maps, not all of them
        proc = run_cli("verify", "boundary", "--N", "1", "--S", "0", "--j", "17", timeout=60)
        assert proc.returncode == 3
        assert proc.stdout.count("\n") == 1 and len(proc.stdout) < 4096
        doc = json.loads(proc.stdout)
        assert doc["failures"] == 2
        # the first few maps in order, as sorting the whole difference gives
        assert doc["counterexamples"] == [
            ["1", "17"],
            [
                "17",
                "1",
                "65536",
                "[iso([2],0), iso([2,3],0), iso([2,3,4],0), iso([2,3,4,5],0), iso([2,3,4,5,6],0)]",
            ],
        ]


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

    def test_abbreviated_pretty_flag_indents(self):
        proc = run_cli("--pre", "classify", "iso([2],0)", "--j", "2")
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


def _readme_examples() -> list:
    """(argv, exit code, document) of each ``$ cofiso ...`` line in the
    README's Examples block; the code is 0 unless an ``exit=`` line says
    otherwise."""
    text = (ROOT / "README.md").read_text()
    block = text.split("### Examples", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ cofiso ")[1:]:
        command, _, output = chunk.partition("\n")
        lines = output.strip().splitlines()
        code = int(lines.pop()[len("exit="):]) if lines[-1].startswith("exit=") else 0
        examples.append((shlex.split(command.split(";")[0]), code, json.loads("\n".join(lines))))
    return examples


README_EXAMPLES = _readme_examples()


class TestReadme:
    def test_every_example_is_read(self):
        assert len(README_EXAMPLES) == 9

    @pytest.mark.parametrize(
        "argv,code,doc",
        README_EXAMPLES,
        ids=[argv[argv[0] == "--pretty"] + str(i) for i, (argv, _, _) in enumerate(README_EXAMPLES)],
    )
    def test_example_output_matches(self, argv, code, doc):
        assert invoke(argv) == (code, doc)


# small and huge values for every integer option: 17 lists 2^16 offset
# sets, 40 and 10^10 are past every budget
_NUMBERS = ("0", "1", "2", "3", "17", "40", "10000000000")
_EXPRS = ("a", "b*a", "iso([2],0)", "iso([1,3],1)", "grp(1)", "e[3]*b^2", "b^1000000000", "a^", "x")
_OFFSETS = ("none", "all", "2", "2,3", "x")


def _argv():
    number = st.sampled_from(_NUMBERS)
    expr = st.sampled_from(_EXPRS)
    offsets = st.sampled_from(_OFFSETS)
    level = st.one_of(st.just(()), number.map(lambda j: ("--j", j)))
    verify = st.tuples(
        st.just(("verify",)),
        st.sampled_from((*properties.known_properties(), "nope")).map(lambda pid: (pid,)),
        number.map(lambda n: ("--N", n)),
        st.sampled_from((*_NUMBERS, "9" * 4300)).map(lambda s: ("--S", s)),
        level,
    )
    other = st.one_of(
        st.tuples(st.just(("eval",)), expr.map(lambda x: (x,)), level),
        st.tuples(st.just(("classify",)), expr.map(lambda x: (x,)), number.map(lambda j: ("--j", j)),
                  offsets.map(lambda m: ("--M", m))),
        st.tuples(st.just(("green",)), st.sampled_from("LRHDJ").map(lambda r: (r,)), expr.map(lambda x: (x,)),
                  expr.map(lambda x: (x,))),
        st.tuples(st.just(("order",)), expr.map(lambda x: (x,)), expr.map(lambda x: (x,))),
        st.tuples(st.sampled_from(("pi", "arrow")).map(lambda c: (c,)), expr.map(lambda x: (x,))),
        st.tuples(st.just(("normalize",)), st.sampled_from(("ab", "bbaba", "", "abc")).map(lambda w: (w,))),
        st.tuples(st.just(("nbhd",)), expr.map(lambda x: (x,)), number.map(lambda k: ("--k", k)),
                  number.map(lambda i: ("--i", i)), number.map(lambda j: ("--j", j))),
        st.tuples(st.just(("converge", "--k", "0")), offsets.map(lambda o: ("--offsets", o)),
                  number.map(lambda j: ("--j", j))),
        st.tuples(st.just(("distinguish",)), offsets.map(lambda m: (m,)), offsets.map(lambda m: (m,)),
                  number.map(lambda j: ("--j", j))),
        st.tuples(st.just(("upset",)), expr.map(lambda x: (x,)), number.map(lambda j: ("--j", j)),
                  number.map(lambda b: ("--bound", b))),
        st.tuples(st.just(("boundary",)), number.map(lambda j: ("--j", j))),
        st.tuples(st.sampled_from(((), ("nope",), ("verify",), ("eval", "a", "--j", "x")))),
    )
    return st.one_of(verify, other).map(lambda parts: [word for part in parts for word in part])


class TestFuzz:
    @settings(deadline=None, max_examples=60)
    @given(_argv())
    def test_every_call_prints_one_document_and_a_known_code(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, argv
        doc = json.loads(lines[0])
        assert doc["schema"] == 1
        assert ("error" in doc) == (code == 2), argv
