import argparse
import builtins
import errno
import importlib.util
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from loghodgelab import cli, jsonio
from loghodgelab.cli import build_parser, main
from test_cli_startup import COMMANDS as FIXTURE_COMMANDS, fixture_argv

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
# the source tree first on a subprocess's path, whether or not it is installed
SRC_PATH = os.pathsep.join(filter(None, [str(Path(__file__).parent.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc, out


# --- cone-complex ------------------------------------------------------------------


def test_cone_complex_ex42(tmp_path):
    code, doc, _ = run_json(
        ["cone-complex", "--in", str(FIXTURES / "ex42.json")], tmp_path)
    assert code == 0
    result = doc["result"]
    assert result["cells_per_dim"] == {"0": 3, "1": 3}
    assert result["cohomology"] == {"0": 1, "1": 1}
    assert doc["provenance"]["tool"] == "loghodgelab"


def test_cone_complex_table(capsys):
    code, out, _ = run(["cone-complex", "--in", str(FIXTURES / "ex42.json")], capsys)
    assert code == 0
    assert "0-cells: 3" in out and "1-cells: 3" in out
    assert "H^0 = 1" in out and "H^1 = 1" in out


def test_cone_complex_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["cone-complex", "--in", str(bad)], capsys)
    assert code == 2
    assert "malformed" in err


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys):
    # json.loads raises RecursionError on 100,000 nested arrays
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["monodromy", "--in", str(bad)], capsys)
    assert code == 2 and not out
    assert err.startswith("malformed input: /in") and "Traceback" not in err


@pytest.mark.parametrize("command, label, other, document", [
    ("monodromy", "in", [], '{{"matrix": [[{}]]}}'),
    ("divisor-cohomology", "divisor", ["--fan", str(FIXTURES / "p2_fan.json")],
     '{{"coefficients": [{}, 0, 0]}}'),
], ids=["monodromy", "divisor-cohomology"])
def test_an_overlong_integer_literal_is_malformed_input(command, label, other, document,
                                                        tmp_path, capsys):
    # json.loads refuses an integer literal over the interpreter's digit limit
    bad, out = tmp_path / "long.json", tmp_path / "report.json"
    bad.write_text(document.format("7" * (sys.get_int_max_str_digits() + 1)))
    code, stdout, err = run([command, *other, f"--{label}", str(bad), "--out", str(out)],
                            capsys)
    assert code == 2 and not stdout and not out.exists()
    assert err.startswith(f"malformed input: /{label}: invalid JSON in {bad}")
    assert "Traceback" not in err


def test_cone_complex_schema_violation_pointer(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"components": ["A"], "strata": [{"wrong": 1}]}))
    code, _, err = run(["cone-complex", "--in", str(bad)], capsys)
    assert code == 2
    assert "/strata/0" in err


@pytest.mark.parametrize("data, code, reason", [
    ({"components": [], "strata": []}, 2, "/components: expected a nonempty list"),
    ({"components": ["A", "A"], "strata": [{"components": ["A"]}]}, 1,
     "duplicate component names"),
    ({"components": ["A"], "strata": [{"components": ["B"]}]}, 1,
     "stratum references unknown component 'B'"),
    ({"components": ["A"], "strata": [{"components": ["A"]}, {"components": ["A"]}]}, 1,
     "duplicate stratum A#0"),
    ({"components": ["A"], "strata": [{"components": ["A", "A"]}]}, 2,
     "/strata/0: repeated component in cell"),
    ({"components": ["A", "B"], "strata": [{"components": ["A"]}, {"components": ["B"]}],
      "ray_coordinates": {"A": [1, 0], "B": [1]}}, 1,
     "ray coordinate vectors have mixed lengths"),
    ({"components": ["A", "B"], "strata": [{"components": ["A"]}, {"components": ["B"]}],
      "ray_coordinates": {"A": [1, 0]}}, 1, "missing ray coordinates for 'B'"),
    ({"components": ["A", "B"], "strata": [{"components": ["A"]}, {"components": ["B"]}],
      "ray_coordinates": {"A": [2, 0], "B": [0, 1]}}, 1, "ray vector for 'A' is not primitive"),
], ids=["no-components", "duplicate-components", "unknown-component", "duplicate-stratum",
        "repeated-component-in-stratum", "mixed-ray-lengths", "missing-ray-coordinates",
        "non-primitive-ray"])
def test_cone_complex_rejects_invalid_intersection_data(data, code, reason, tmp_path, capsys):
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    got, _, err = run(["cone-complex", "--in", str(data_file), "--out", str(out)], capsys)
    assert got == code
    prefix = "malformed input: " if code == 2 else "validation failure: "
    assert err.startswith(prefix) and reason in err
    assert not out.exists()


def test_cone_complex_downward_closure_is_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "components": ["A", "B"],
        "strata": [{"components": ["A"]}, {"components": ["A", "B"]}],
    }))
    code, _, err = run(["cone-complex", "--in", str(bad)], capsys)
    assert code == 1
    assert "downward" in err


# --- validate-weights ----------------------------------------------------------------


def test_validate_weights_accepts_111(tmp_path):
    code, doc, _ = run_json(
        ["validate-weights", "--complex", str(FIXTURES / "wedge_fan.json"),
         "--weights", str(FIXTURES / "w111.json")], tmp_path)
    assert code == 0
    assert doc["result"]["valid"] is True
    assert doc["result"]["convexity"]["valid"] is True


def test_validate_weights_rejects_131_and_names_inequality(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate-weights", "--complex", str(FIXTURES / "wedge_fan.json"),
                 "--weights", str(FIXTURES / "w131.json"),
                 "--format", "json", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["result"]["valid"] is False
    violations = doc["result"]["convexity"]["violations"]
    assert any(v["ray"] == "c" and v["linear_value"] == "2" for v in violations)
    assert "exceeding" in err


# --- trop ---------------------------------------------------------------------------


def test_trop_cohomology_circle(tmp_path):
    code, doc, _ = run_json(
        ["trop-cohomology", "--complex", str(FIXTURES / "ex42.json"),
         "--weights", str(FIXTURES / "ex42_cell_weights.json")], tmp_path)
    assert code == 0
    assert doc["result"]["cohomology"] == {"0": 1, "1": 1}


def test_trop_ss_circle_with_threshold(tmp_path):
    code, doc, _ = run_json(
        ["trop-ss", "--complex", str(FIXTURES / "ex42.json"),
         "--weights", str(FIXTURES / "ex42_cell_weights.json"),
         "--thresholds", "2"], tmp_path)
    assert code == 0
    assert doc["result"]["e_infinity_totals"] == {"0": 1, "1": 1}


def test_trop_ss_monotonicity_violation(tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"cells": {
        "H1#0": "10", "H2#0": "1", "H3#0": "1",
        "H1,H2#0": "1", "H1,H3#0": "1", "H2,H3#0": "1"}}))
    code = main(["trop-ss", "--complex", str(FIXTURES / "ex42.json"),
                 "--weights", str(weights), "--thresholds", "10"])
    err = capsys.readouterr().err
    assert code == 1
    assert "H1#0" in err and "cofacet" in err


@pytest.mark.parametrize("command", ["trop-cohomology", "trop-ss"])
def test_trop_ray_weights_are_summed_over_cell_components(command, tmp_path):
    # ray weights 1, 1, 1 give a cell the sum over its components: vertices
    # 1, edges 2, the same result as a cells file written that way
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"cells": {
        "a#0": "1", "b#0": "1", "c#0": "1", "a,b#0": "2", "b,c#0": "2"}}))
    results = []
    for weights in (FIXTURES / "w111.json", cells):
        code, doc, _ = run_json([command, "--complex", str(FIXTURES / "wedge_fan.json"),
                                 "--weights", str(weights)], tmp_path)
        assert code == 0
        results.append(doc["result"])
    assert results[0] == results[1]
    assert results[0]["cohomology"] == {"0": 1, "1": 0}


EX42_CELL_WEIGHTS = {"H1#0": "1", "H2#0": "1", "H3#0": "1",
                     "H1,H2#0": "2", "H1,H3#0": "2", "H2,H3#0": "2"}


@pytest.mark.parametrize("command", ["trop-cohomology", "trop-ss"])
def test_trop_refuses_two_keys_for_one_cell(command, tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"cells": {**EX42_CELL_WEIGHTS, "H2,H1": "1/2"}}))
    out = tmp_path / "report.json"
    code, _, err = run([command, "--complex", str(FIXTURES / "ex42.json"),
                        "--weights", str(weights), "--out", str(out)], capsys)
    assert (code, err) == (1, "validation failure: cell keys 'H1,H2#0' and 'H2,H1' name "
                              "one cell H1,H2#0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate-weights", "trop-cohomology", "trop-ss"])
def test_weights_on_an_unknown_ray_are_refused(command, tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"rays": {"a": 1, "b": 1, "c": 1, "z": "-5"}}))
    out = tmp_path / "report.json"
    code, _, err = run([command, "--complex", str(FIXTURES / "wedge_fan.json"),
                        "--weights", str(weights), "--out", str(out)], capsys)
    assert (code, err) == (1, "validation failure: unknown ray 'z'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["trop-cohomology", "trop-ss"])
def test_trop_refuses_a_zero_cell_weight(command, tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"cells": {**EX42_CELL_WEIGHTS, "H2#0": "0"}}))
    code, out, err = run([command, "--complex", str(FIXTURES / "ex42.json"),
                          "--weights", str(weights)], capsys)
    assert (code, out, err) == (1, "", "validation failure: weight at cell H2#0 must be "
                                       "positive, got 0\n")


@pytest.mark.parametrize("thresholds", [",", ""])
def test_trop_ss_thresholds_without_entries_is_malformed_input(thresholds, capsys):
    code, out, err = run(["trop-ss", "--complex", str(FIXTURES / "ex42.json"),
                          "--weights", str(FIXTURES / "ex42_cell_weights.json"),
                          "--thresholds", thresholds], capsys)
    assert code == 2
    assert "/thresholds" in err and out == ""


@pytest.mark.parametrize("thresholds, cap, expected", [
    (["--thresholds", "0,1,2"], "6", 0), (["--thresholds", "0,1,2"], "5", 1),
    ([], "5", 0), ([], "4", 1),  # the default thresholds are the two cell weights
])
def test_trop_ss_pages_charged_against_cap(thresholds, cap, expected, tmp_path, capsys,
                                           monkeypatch):
    # t thresholds make t + 1 levels and pages 0 .. t + 2
    monkeypatch.setenv("LHL_MAX_DIM", cap)
    code, doc, _ = run_json(["trop-ss", "--complex", str(FIXTURES / "ex42.json"),
                             "--weights", str(FIXTURES / "ex42_cell_weights.json")]
                            + thresholds, tmp_path)
    err = capsys.readouterr().err
    assert code == expected
    if expected:
        assert f"trop-ss pages needs dimension {int(cap) + 1}" in err
        assert f"LHL_MAX_DIM cap of {cap}" in err and doc is None
    else:
        assert len(doc["result"]["pages"]) == int(cap)


# the face maps of the triangle abc#1 reach a#1 through ac#1 and a#0 through
# ab#0, the only tag of ab, so d o d = a#1 - a#0 is not 0
UNCLOSED_TAGS = {"components": ["a", "b", "c"], "strata": [
    {"components": ["a"]}, {"components": ["a"], "tag": "1"}, {"components": ["b"]},
    {"components": ["c"]}, {"components": ["a", "b"]}, {"components": ["a", "c"], "tag": "1"},
    {"components": ["b", "c"], "tag": "1"}, {"components": ["a", "b", "c"], "tag": "1"}]}


@pytest.mark.parametrize("command", ["cone-complex", "validate-weights", "trop-cohomology",
                                     "trop-ss"])
def test_face_maps_with_nonzero_d_squared_are_refused(command, tmp_path, capsys):
    complex_, weights = tmp_path / "complex.json", tmp_path / "weights.json"
    complex_.write_text(json.dumps(UNCLOSED_TAGS))
    weights.write_text(json.dumps({"rays": {"a": 1, "b": 1, "c": 1}}))
    files = (["--in", str(complex_)] if command == "cone-complex"
             else ["--complex", str(complex_), "--weights", str(weights)])
    assert run([command, *files], capsys) == (1, "", "validation failure: d o d != 0 at degree 0\n")


# --- toric --------------------------------------------------------------------------


def test_log_hodge_p2_zero_twist(tmp_path):
    code, doc, _ = run_json(
        ["log-hodge", "--fan", str(FIXTURES / "p2_fan.json"), "--twist", "zero"],
        tmp_path)
    assert code == 0
    entries = doc["result"]["table"]["entries"]
    assert entries["0,0"] == 1 and entries["1,0"] == 2 and entries["2,0"] == 1
    assert doc["result"]["e1_sum_check"]["pass"] is True


def test_log_hodge_table_output(capsys):
    code, out, _ = run(["log-hodge", "--fan", str(FIXTURES / "p2_fan.json")], capsys)
    assert code == 0
    assert "e1-sum check: PASS" in out


def test_divisor_cohomology_canonical(tmp_path):
    code, doc, _ = run_json(
        ["divisor-cohomology", "--fan", str(FIXTURES / "p2_fan.json"),
         "--divisor", str(FIXTURES / "p2_canonical_divisor.json")], tmp_path)
    assert code == 0
    assert doc["result"]["cohomology"] == {"0": 0, "1": 0, "2": 1}


@pytest.mark.parametrize("coefficients", [["1.5", "1e0", " -3 "], ["1_0", "+3", "0"]])
def test_divisor_cohomology_rejects_non_grammar_rationals(coefficients, tmp_path, capsys):
    divisor = tmp_path / "divisor.json"
    divisor.write_text(json.dumps({"coefficients": coefficients}))
    code, _, err = run(["divisor-cohomology", "--fan", str(FIXTURES / "p2_fan.json"),
                        "--divisor", str(divisor)], capsys)
    assert code == 2
    assert "/coefficients/0" in err


def test_divisor_cohomology_rejects_double_cover_fan(tmp_path, capsys):
    divisor = tmp_path / "divisor.json"
    divisor.write_text(json.dumps({"coefficients": [0] * 6}))
    code, _, err = run(["divisor-cohomology", "--fan", str(FIXTURES / "p2_double_cover_fan.json"),
                        "--divisor", str(divisor)], capsys)
    assert code == 1
    assert "overlap" in err


def test_divisor_cohomology_rejects_fan_with_unused_ray(tmp_path, capsys):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
                               "cones": [[0, 1], [1, 2], [0, 2]]}))
    divisor = tmp_path / "divisor.json"
    divisor.write_text(json.dumps({"coefficients": [0] * 4}))
    code, _, err = run(["divisor-cohomology", "--fan", str(fan), "--divisor", str(divisor)],
                       capsys)
    assert code == 1
    assert "ray 3 lies in no maximal cone" in err


def test_divisor_sweep_charged_against_cap(tmp_path, capsys, monkeypatch):
    # the character box of 3000 H on P^2 has 3006 rows along its first axis
    divisor = tmp_path / "divisor.json"
    divisor.write_text(json.dumps({"coefficients": [3000, 0, 0]}))
    fan = str(FIXTURES / "p2_fan.json")
    monkeypatch.delenv("LHL_MAX_DIM", raising=False)
    for argv in (["divisor-cohomology", "--fan", fan, "--divisor", str(divisor)],
                 ["log-hodge", "--fan", fan, "--twist", str(divisor)]):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "divisor character sweep" in err and "LHL_MAX_DIM" in err
    # the edge: refused one below the charge, accepted at it
    argv = ["divisor-cohomology", "--fan", fan, "--divisor", str(divisor)]
    monkeypatch.setenv("LHL_MAX_DIM", "3005")
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "needs dimension 3006, above the LHL_MAX_DIM cap of 3005" in err
    monkeypatch.setenv("LHL_MAX_DIM", "3006")
    code, doc, _ = run_json(argv, tmp_path)
    assert code == 0
    assert doc["result"]["cohomology"] == {"0": 4504501, "1": 0, "2": 0}


@pytest.mark.parametrize("fan, reason", [
    ({"rays": [[1, 0], [0, 1], [-1]], "cones": [[0, 1], [1, 2], [0, 2]]},
     "rays have mixed lengths"),
    ({"rays": [[1, 0], [0, 1], [1, 0]], "cones": [[0, 1], [1, 2], [0, 2]]},
     "duplicate rays"),
    ({"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 0], [1, 2], [0, 2]]},
     "repeated ray in cone (0, 0)"),
    ({"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 3], [0, 2]]},
     "cone (1, 3) references a missing ray"),
    ({"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]],
      "names": ["a", "b", "a"]},
     "ray names must be distinct, one per ray"),
], ids=["mixed-lengths", "duplicate-rays", "repeated-ray-in-cone", "missing-ray",
        "duplicate-names"])
def test_divisor_cohomology_rejects_invalid_fan(fan, reason, tmp_path, capsys):
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(fan))
    divisor = tmp_path / "divisor.json"
    divisor.write_text(json.dumps({"coefficients": [0] * len(fan["rays"])}))
    out = tmp_path / "report.json"
    code, _, err = run(["divisor-cohomology", "--fan", str(fan_file), "--divisor", str(divisor),
                        "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("validation failure: ") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("fan, pointer", [
    ({"rays": [[1, 0, 0, 0], [-1, 0, 0, 0]], "cones": [[0], [1]]}, "/rays/0"),
    ({"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [-1, 2], [0, 2]]}, "/cones/1/0"),
], ids=["rank-4", "negative-index"])
def test_divisor_cohomology_rejects_malformed_fan(fan, pointer, tmp_path, capsys):
    # the fan schema's maxItems and minimum, which the loader enforces too
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(fan))
    divisor = tmp_path / "divisor.json"
    divisor.write_text(json.dumps({"coefficients": [0] * len(fan["rays"])}))
    out = tmp_path / "report.json"
    code, _, err = run(["divisor-cohomology", "--fan", str(fan_file), "--divisor", str(divisor),
                        "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"malformed input: {pointer}: ")
    assert not out.exists()


# --- local models --------------------------------------------------------------------


def test_obstruction_stalk_log_acyclic(tmp_path):
    code, doc, _ = run_json(
        ["obstruction-stalk", "--n", "2", "--r", "2", "--window", "2",
         "--flavor", "log"], tmp_path)
    assert code == 0
    assert doc["result"]["matches"] is True
    assert all(v == 0 for v in doc["result"]["direct"].values())


def test_obstruction_stalk_holo_calibration(tmp_path):
    code, doc, _ = run_json(
        ["obstruction-stalk", "--n", "1", "--r", "1", "--window", "3",
         "--flavor", "holo"], tmp_path)
    assert code == 0
    assert doc["result"]["direct"]["1"] == 1
    assert doc["result"]["matches"] is True


def one_more_direct_class(monkeypatch):
    # the direct route gains a class at multidegree (0, 0) that the assembly lacks
    from loghodgelab import localmodel
    cone = localmodel.obstruction_cone

    def one_more_class(*args):
        report = cone(*args)
        report.direct[0] += 1
        report.direct_by_multidegree.setdefault(0, {})[(0, 0)] = 1
        return report

    monkeypatch.setattr(localmodel, "obstruction_cone", one_more_class)


# each command with a self-check: argv that fails it, the stderr line, and
# what the report must say
SELF_CHECKS = {
    "obstruction-stalk": (
        ["obstruction-stalk", "--n", "2", "--r", "2", "--window", "1", "--flavor", "log"],
        "assembled Mayer-Vietoris stalk disagrees with the direct cone\n",
        {"matches": False, "direct": {"0": 1, "1": 0, "2": 0},
         "direct_by_multidegree": {"0": {"0,0": 1}}, "assembled": {"0": 0, "1": 0, "2": 0},
         "assembled_by_multidegree": {}, "per_subset": {}}),
    "validate-weights": (
        ["validate-weights", "--complex", str(FIXTURES / "wedge_fan.json"),
         "--weights", str(FIXTURES / "w131.json")],
        "validation failed: linear extension of a,b#0 gives 2 at ray c of b,c#0, exceeding "
        "its weight 1; linear extension of b,c#0 gives 2 at ray a of a,b#0, exceeding its "
        "weight 1\n",
        {"valid": False}),
}


@pytest.mark.parametrize("command", sorted(SELF_CHECKS))
def test_failed_self_check_exits_1_and_still_writes_the_report(command, tmp_path, capsys,
                                                               monkeypatch):
    if command == "obstruction-stalk":
        one_more_direct_class(monkeypatch)
    argv, message, verdict = SELF_CHECKS[command]
    code, doc, out = run_json(argv, tmp_path)
    assert code == 1
    assert capsys.readouterr() == ("", message)
    # the report is written as computed, with the verdict in it
    assert doc["command"] == command
    assert {k: doc["result"][k] for k in verdict} == verdict
    # to stdout alike: the report, then the message on stderr
    assert run(argv + ["--format", "json"], capsys) == (1, out.read_text(), message)


def test_local_cohomology_half_plane(tmp_path):
    code, doc, _ = run_json(
        ["local-cohomology", "--n", "2", "--r", "1", "--window", "2",
         "--subset", "1", "--form-degree", "0"], tmp_path)
    assert code == 0
    assert doc["result"]["total"] == 6



def test_local_cohomology_subset_must_be_integers(capsys):
    code, _, err = run(["local-cohomology", "--n", "2", "--r", "1", "--window", "2",
                        "--subset", "1,x", "--form-degree", "0"], capsys)
    assert code == 2
    assert "/subset" in err

# --- monodromy ------------------------------------------------------------------------


def test_monodromy_report(tmp_path):
    code, doc, _ = run_json(
        ["monodromy", "--in", str(FIXTURES / "nilpotent_3plus1.json")], tmp_path)
    assert code == 0
    assert doc["result"]["jordan_type"] == [3, 1]
    assert doc["result"]["stratum_weight"] == "3"
    graded = doc["result"]["weight_filtration"]["graded_dims"]
    assert graded == {"-2": 1, "0": 2, "2": 1}


def test_nine_by_nine_fixture_is_the_test_operator():
    from loghodgelab.jsonio import load_nilpotent_matrix
    from test_monodromy import nine_by_nine
    doc = json.loads((FIXTURES / "nilpotent_nine_by_nine.json").read_text())
    assert load_nilpotent_matrix(doc) == nine_by_nine().matrix


@pytest.mark.parametrize("matrix", [
    [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
    # over the cap and not nilpotent: the cap is charged first
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
])
def test_monodromy_cap_is_charged_before_any_power(matrix, tmp_path, capsys, monkeypatch):
    from loghodgelab.linalg import RationalMatrix
    products = []
    multiply = RationalMatrix.__mul__

    def counted(a, b):
        products.append(1)
        return multiply(a, b)

    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"matrix": matrix}))
    monkeypatch.setenv("LHL_MAX_DIM", "2")
    monkeypatch.setattr(RationalMatrix, "__mul__", counted)
    code, out, err = run(["monodromy", "--in", str(bad)], capsys)
    assert code == 1 and out == ""
    assert "monodromy operator needs dimension 3, above the LHL_MAX_DIM cap of 2" in err
    assert products == []


def test_monodromy_rejects_non_nilpotent(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}))
    code = main(["monodromy", "--in", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "nilpotent" in err


def test_monodromy_rejects_a_5000_digit_numerator(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"matrix": [["0", "1" * 5000 + "/3"], ["0", "0"]]}))
    code = main(["monodromy", "--in", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/matrix/0/1: 5002-digit rational is too long" in err


# --- spectral sequence -----------------------------------------------------------------


def test_spectral_sequence_circle_stupid_filtration(tmp_path):
    code, doc, _ = run_json(
        ["spectral-sequence", "--in", str(FIXTURES / "circle_complex.json")], tmp_path)
    assert code == 0
    assert doc["result"]["degenerates_at_e1"] is False
    assert doc["result"]["first_nonzero_differential"] == 1
    assert doc["result"]["e_infinity_totals"] == {"0": 1, "1": 1}


def test_spectral_sequence_respects_r_max(tmp_path):
    code, doc, _ = run_json(
        ["spectral-sequence", "--in", str(FIXTURES / "circle_complex.json"),
         "--r-max", "1"], tmp_path)
    assert code == 0
    assert [p["r"] for p in doc["result"]["pages"]] == [0, 1]


@pytest.mark.parametrize("r_max", ["0", "1"])
def test_spectral_sequence_short_r_max_reports_e_infinity(r_max, tmp_path):
    # the circle's E_0 and E_1 totals are (3, 3); E_infinity is its cohomology
    code, doc, _ = run_json(
        ["spectral-sequence", "--in", str(FIXTURES / "circle_complex.json"),
         "--r-max", r_max], tmp_path)
    assert code == 0
    result = doc["result"]
    assert len(result["pages"]) == int(r_max) + 1
    assert result["e_infinity_totals"] == {"0": 1, "1": 1}
    assert result["degenerates_at_e1"] is False
    assert result["first_nonzero_differential"] == 1


@pytest.mark.parametrize("r_max, expected", [(7, 0), (8, 1)])
def test_spectral_sequence_pages_charged_against_cap(r_max, expected, capsys, monkeypatch):
    # r_max + 1 pages are printed; the cap is 8
    monkeypatch.setenv("LHL_MAX_DIM", "8")
    code = main(["spectral-sequence", "--in", str(FIXTURES / "circle_complex.json"),
                 "--r-max", str(r_max)])
    err = capsys.readouterr().err
    assert code == expected
    assert ("spectral-sequence pages" in err) == bool(expected)



def test_spectral_sequence_zero_complex_work_is_linear(tmp_path, monkeypatch):
    """A 39-byte input under the default cap: C^0 = C^1 = Q^2000 with d = 0.
    The elimination sees only the stored entries of its identity and zero
    matrices, 7 x 2000 of them, and makes no more row operations (one gcd per
    row reduction and one per new pivot row) than it is handed entries."""
    import loghodgelab.linalg as linalg

    spec = tmp_path / "zero.json"
    spec.write_text('{"min_degree":0,"dims":[2000,2000]}')
    entries, row_ops = [], []
    echelon, gcd = linalg._echelon, linalg.gcd

    def counted_echelon(rows):
        entries.append(sum(map(len, rows)))
        return echelon(rows)

    def counted_gcd(*args):
        row_ops.append(1)
        return gcd(*args)

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(linalg, "gcd", counted_gcd)
    code, doc, _ = run_json(["spectral-sequence", "--in", str(spec)], tmp_path)
    assert code == 0
    assert doc["result"]["e_infinity_totals"] == {"0": 2000, "1": 2000}
    assert sum(entries) <= 7 * 2000 and len(row_ops) <= sum(entries)

# --- determinism and plumbing ------------------------------------------------------------


def test_reports_are_byte_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["cone-complex", "--in", str(FIXTURES / "ex42.json"), "--format", "json"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_reparses_under_canonical_dump(tmp_path):
    code, doc, out = run_json(
        ["log-hodge", "--fan", str(FIXTURES / "p2_fan.json")], tmp_path)
    assert code == 0
    from loghodgelab.jsonio import canonical_json
    assert canonical_json(doc) == out.read_text()


def test_max_dim_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LHL_MAX_DIM", "2")
    code = main(["cone-complex", "--in", str(FIXTURES / "ex42.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "LHL_MAX_DIM" in err


@pytest.mark.parametrize("command", [["obstruction-stalk", "--r", "0"],
                                     ["local-cohomology", "--r", "1", "--subset", "1",
                                      "--form-degree", "0"]])
def test_local_model_cap_stops_before_the_full_charge(command, capsys, monkeypatch):
    # (2w+1)^n * 2^n at n = 30,000,000 has ~77M bits; the charge stops at
    # the first coordinate that passes the cap of 2000 (6^5 = 7776)
    monkeypatch.delenv("LHL_MAX_DIM", raising=False)
    code, out, err = run(command + ["--n", "30000000", "--window", "1"], capsys)
    assert code == 1 and out == ""
    assert "local model section space needs dimension over 7776 after 5 of 30000000" in err
    assert "LHL_MAX_DIM cap of 2000" in err
    # where the whole charge is formed, the message names it
    code, out, err = run(command + ["--n", "5", "--window", "1"], capsys)
    assert code == 1 and out == ""
    assert ("local model section space needs dimension 7776, above the LHL_MAX_DIM cap "
            "of 2000") in err
    code, _, _ = run(command + ["--n", "4", "--window", "1"], capsys)
    assert code == 0


def test_negative_max_dim_is_malformed_input(capsys, monkeypatch):
    monkeypatch.setenv("LHL_MAX_DIM", "-1")
    code, out, err = run(["obstruction-stalk", "--n", "1", "--r", "1"], capsys)
    assert code == 2
    assert "LHL_MAX_DIM" in err and out == ""


def test_unwritable_out_is_malformed_input(tmp_path, capsys):
    # a missing parent directory, and a directory in place of the report file
    existing = tmp_path / "dir"
    existing.mkdir()
    for out in (tmp_path / "missing" / "r.json", existing):
        code, _, err = run(["cone-complex", "--in", str(FIXTURES / "ex42.json"),
                            "--out", str(out)], capsys)
        assert code == 2
        assert "/out" in err
    assert list(tmp_path.iterdir()) == [existing] and not any(existing.iterdir())


def test_a_refused_rename_removes_the_temporary_file(tmp_path, capsys, monkeypatch):
    def refused(source, target):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", refused)
    out = tmp_path / "report.json"
    code, _, err = run(["cone-complex", "--in", str(FIXTURES / "ex42.json"),
                        "--out", str(out)], capsys)
    assert (code, err) == (2, f"malformed input: /out: cannot write {out}: Permission denied\n")
    assert list(tmp_path.iterdir()) == []


def test_temporary_names_are_retried_until_the_attempts_run_out(tmp_path, capsys,
                                                                 monkeypatch):
    # every draw gives the one name, which is taken
    draws = []
    monkeypatch.setattr(os, "urandom", lambda n: draws.append(n) or bytes(n))
    out = tmp_path / "report.json"
    taken = tmp_path / f"report.json.{bytes(8).hex()}.tmp"
    taken.write_text("")
    code, _, err = run(["cone-complex", "--in", str(FIXTURES / "ex42.json"),
                        "--out", str(out)], capsys)
    assert (code, err) == (2, f"malformed input: /out: cannot write {out}: "
                              f"No usable temporary file name found\n")
    assert draws == [8] * cli.TMP_ATTEMPTS
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_out_onto_a_fifo_writes_in_place(tmp_path):
    # a rename onto a FIFO (or a device) would replace the node with a file
    argv = ["cone-complex", "--in", str(FIXTURES / "ex42.json"), "--format", "json"]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(argv + ["--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [(tmp_path / "report.json").read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "report.json"]


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    # a rename onto the link's own name would replace the link with the report
    argv = ["cone-complex", "--in", str(FIXTURES / "ex42.json"), "--format", "json"]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    (tmp_path / "dir").mkdir()
    real = tmp_path / "dir" / "real.json"
    real.write_text("old bytes")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    # a chain of links, and a dangling one, which names the file to create
    chain = tmp_path / "chain.json"
    chain.symlink_to(link)
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "dir" / "new.json")
    for out, target in [(link, real), (chain, real), (dangling, tmp_path / "dir" / "new.json")]:
        assert main(argv + ["--out", str(out)]) == 0
        assert out.is_symlink()
        assert target.read_bytes() == (tmp_path / "report.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chain.json", "dangling.json", "dir", "link.json", "report.json"]
    assert sorted(p.name for p in (tmp_path / "dir").iterdir()) == ["new.json", "real.json"]
    # a fault names the path given, not the file it resolves to
    blocked = tmp_path / "blocked.json"
    blocked.symlink_to(tmp_path / "missing" / "r.json")
    code, _, err = run(argv + ["--out", str(blocked)], capsys)
    assert code == 2 and err.startswith(f"malformed input: /out: cannot write {blocked}: ")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_out_report_mode_follows_the_umask(tmp_path, umask, mode):
    # as a shell redirect would create it: 0666 less the umask, also on a rewrite
    out = tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        for _ in range(2):
            assert main(["cone-complex", "--in", str(FIXTURES / "ex42.json"),
                         "--out", str(out)]) == 0
            assert out.stat().st_mode & 0o777 == mode
    finally:
        os.umask(previous)


def test_out_report_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide: setting it even briefly would change the
    # mode of a file another thread creates meanwhile
    umask = os.umask
    calls = []
    monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or umask(mask))
    previous = umask(0o027)
    try:
        assert main(["cone-complex", "--in", str(FIXTURES / "ex42.json"),
                     "--out", str(tmp_path / "report.json")]) == 0
        assert umask(0o027) == 0o027
    finally:
        umask(previous)
    assert calls == []


def test_unencodable_report_creates_no_file(tmp_path, capsys):
    # a lone surrogate in a component name survives JSON input but has no
    # UTF-8 encoding: the report fails before anything is created
    doc = {"components": ["\ud800", "B"],
           "strata": [{"components": ["\ud800"]}, {"components": ["B"]},
                      {"components": ["\ud800", "B"]}]}
    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc))
    code, out, err = run(["cone-complex", "--in", str(data), "--format", "json",
                          "--out", str(tmp_path / "report.json")], capsys)
    assert code == 1 and out == ""
    assert "surrogates not allowed" in err
    assert list(tmp_path.iterdir()) == [data]


def test_missing_schema_names_the_file_and_exits_1(tmp_path, monkeypatch, capsys):
    # a package without its schemas: one stderr line, no traceback
    monkeypatch.setattr(jsonio, "SCHEMA_DIR", str(tmp_path))
    jsonio._schema.cache_clear()
    try:
        with pytest.raises(SystemExit) as exc:
            main(fixture_argv("monodromy"))
    finally:
        jsonio._schema.cache_clear()
    assert exc.value.code == 1
    path = tmp_path / "nilpotent-operator.schema.json"
    assert capsys.readouterr() == (
        "", f"broken installation: cannot read {path}: No such file or directory\n")


spec = importlib.util.spec_from_file_location(
    "goldens", Path(__file__).parents[1] / "tools" / "goldens.py")
goldens_tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(goldens_tool)


def usage_outcome(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", goldens_tool.USAGE_ARGVS, ids=" ".join)
def test_dispatch_matches_the_full_parse(argv, capsys):
    # stdout, stderr and exit code of -h and of each usage error, against
    # this interpreter's own argparse, whose wording varies by version
    assert (usage_outcome(main, argv, capsys)
            == usage_outcome(build_parser().parse_args, argv, capsys))


def test_a_named_command_is_parsed_in_one_pass(monkeypatch, tmp_path):
    # its subparser alone; the full parse runs the root parser, then it
    passes = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(fixture_argv("monodromy") + ["--out", str(tmp_path / "report")]) == 0
    assert passes == ["lhl monodromy"]


# --- guards that only a faulty request reaches -------------------------------------------

EX42, WEDGE, W111 = (str(FIXTURES / name) for name in ("ex42.json", "wedge_fan.json", "w111.json"))
EX42_CELLS = json.loads((FIXTURES / "ex42_cell_weights.json").read_text())["cells"]


def wedge(coordinates):
    """wedge_fan.json with other ray coordinates."""
    return {**json.loads(Path(WEDGE).read_text()), "ray_coordinates": coordinates}


def complex_doc(dims, differentials, **rest):
    return {"min_degree": 0, "dims": dims, "differentials": differentials, **rest}


# argv, the documents it names by placeholder, environment, exit code,
# stream and a line or part of one that the stream holds
GUARDS = {
    "max-dim-not-an-integer": (
        ["cone-complex", "--in", EX42], {}, {"LHL_MAX_DIM": "abc"},
        2, "err", "malformed input: LHL_MAX_DIM: not an integer: 'abc'"),
    "validate-weights-given-cells": (
        ["validate-weights", "--complex", EX42,
         "--weights", str(FIXTURES / "ex42_cell_weights.json")], {}, {},
        2, "err", "malformed input: /weights: validate-weights expects ray weights"),
    "nonpositive-ray-weight": (
        ["validate-weights", "--complex", WEDGE, "--weights", "W"],
        {"W": {"rays": {"a": "1", "b": "-2", "c": "1"}}}, {},
        1, "out", "    ray b has nonpositive weight -2\n"),
    "dependent-ray-coordinates": (
        ["validate-weights", "--complex", "C", "--weights", W111],
        {"C": wedge({"a": [1, 0], "b": [-1, 0], "c": [0, 1]})}, {},
        1, "err", "validation failure: non-simplicial maximal cone a,b#0"),
    "ray-outside-a-cone-span": (
        ["validate-weights", "--complex", "C", "--weights", W111, "--format", "json"],
        {"C": wedge({"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})}, {},
        0, "out", '"incomparable": [\n        {\n          "cone": "a,b#0",\n'
                  '          "neighbour": "b,c#0",\n          "ray": "c"'),
    # c = a + b would break convexity across a shared facet
    "maximal-cones-sharing-no-facet": (
        ["validate-weights", "--complex", "C", "--weights", "W"],
        {"C": {"components": ["a", "b", "c", "d"],
               "strata": [{"components": list(c)} for c in ("a", "b", "c", "d", "ab", "cd")],
               "ray_coordinates": {"a": [1, 0], "b": [1, 1], "c": [2, 1], "d": [1, 2]}},
         "W": {"rays": {"a": "1", "b": "1", "c": "1", "d": "1"}}}, {},
        0, "out", "  convexity: valid\n"),
    "equal-thresholds": (
        ["trop-ss", "--complex", WEDGE, "--weights", W111, "--thresholds", "1,1"], {}, {},
        1, "err", "validation failure: thresholds must be distinct"),
    "cells-missing-a-cell": (
        ["trop-ss", "--complex", EX42, "--weights", "W"],
        {"W": {"cells": {k: v for k, v in EX42_CELLS.items() if k != "H2#0"}}}, {},
        1, "err", "validation failure: missing weight for cell H2#0"),
    "cells-naming-no-cell": (
        ["trop-cohomology", "--complex", EX42, "--weights", "W"],
        {"W": {"cells": {**EX42_CELLS, "Q9#0": "1"}}}, {},
        1, "err", "validation failure: unknown cell 'Q9#0'"),
    "stalk-at-n-0": (
        ["obstruction-stalk", "--n", "0", "--r", "0"], {}, {},
        1, "err", "validation failure: ambient dimension must be at least 1"),
    "form-degree-above-n": (
        ["local-cohomology", "--n", "2", "--r", "1", "--subset", "1", "--form-degree", "5"],
        {}, {}, 1, "err", "validation failure: form degree 5 out of range 0..2"),
    "too-few-coefficients": (
        ["divisor-cohomology", "--fan", str(FIXTURES / "p2_fan.json"), "--divisor", "D"],
        {"D": {"coefficients": [0, 0]}}, {},
        2, "err", "malformed input: /coefficients: expected 3 coefficients, got 2"),
    "fan-cone-below-full-rank": (
        ["divisor-cohomology", "--fan", "F",
         "--divisor", str(FIXTURES / "p2_canonical_divisor.json")],
        {"F": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2]]}}, {},
        1, "err", "validation failure: maximal cone (2,) is not simplicial of full rank 2"),
    "differential-row-count": (
        ["spectral-sequence", "--in", "G"],
        {"G": complex_doc([2, 1], [[["1", "0"], ["0", "1"]]])}, {},
        2, "err", "malformed input: /differentials/0: expected 1 rows, got 2"),
    "one-differential-too-many": (
        ["spectral-sequence", "--in", "G"], {"G": complex_doc([1, 1], [[["1"]], [["1"]]])}, {},
        2, "err", "malformed input: /differentials: expected at most 1 matrices"),
    "filtration-level-degree-count": (
        ["spectral-sequence", "--in", "G"],
        {"G": complex_doc([1, 1], [[["1"]]], filtration=[[[]]])}, {},
        2, "err", "malformed input: /filtration/0: expected one basis list per degree (2)"),
}


@pytest.mark.parametrize("argv, documents, env, code, stream, text",
                         list(GUARDS.values()), ids=list(GUARDS))
def test_a_guard_that_only_a_faulty_request_reaches(argv, documents, env, code, stream, text,
                                                    tmp_path, capsys, monkeypatch):
    paths = {}
    for name, document in documents.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(document))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    got, out, err = run([str(paths.get(arg, arg)) for arg in argv], capsys)
    assert got == code
    assert text in (out if stream == "out" else err)
    assert "Traceback" not in err


# --- goldens and the disk-free path ---------------------------------------------------

# every file in tests/golden/: the argv that makes it (file names relative to
# tests/fixtures), its format and its exit code; tools/goldens.py reads it too
GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


def test_golden_index_names_every_golden():
    assert sorted(e["golden"] for e in GOLDENS) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("entry", GOLDENS, ids=[e["golden"] for e in GOLDENS])
def test_golden_reports(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    out = tmp_path / "report"
    assert main(entry["argv"] + ["--format", entry["format"], "--out", str(out)]) == entry["code"]
    assert out.read_bytes() == (GOLDEN / entry["golden"]).read_bytes()


def parsed_request(argv):
    """The parsed ``argv`` and the bytes of each file it names, as ``main``
    reads them."""
    args = build_parser().parse_args(argv)
    return args, {label: Path(getattr(args, dest)).read_bytes()
                  for label, dest, default in args.files if getattr(args, dest) != default}


# every golden and every fixture command in both formats, by name
REQUESTS = {**{e["golden"]: e["argv"] + ["--format", e["format"]] for e in GOLDENS},
            **{f"{c}-{f}": fixture_argv(c) + ["--format", f] for c in FIXTURE_COMMANDS
               for f in ("table", "json")}}


@pytest.mark.parametrize("name", REQUESTS)
def test_disk_free_run_returns_what_main_writes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    argv = REQUESTS[name]
    out = tmp_path / "report"
    code = main(argv + ["--out", str(out)])
    text, failure = cli.run(*parsed_request(argv))
    assert text.encode("utf-8") == out.read_bytes()
    assert (code, capsys.readouterr().err) == ((0, "") if failure is None else (1, failure + "\n"))


@pytest.mark.parametrize("command", FIXTURE_COMMANDS)
def test_disk_free_run_opens_no_file(command, monkeypatch):
    args, data = parsed_request(fixture_argv(command) + ["--format", "json"])
    expected = cli.run(args, data)

    def refuse(*args, **kwargs):
        raise AssertionError("a file was opened")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(os, "open", refuse)
    assert cli.run(args, data) == expected


def test_every_file_is_read_before_any_is_loaded(tmp_path, capsys):
    # the fan comes first and is malformed, but the divisor that cannot be
    # read is found first: reading ends before loading starts
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rays": [], "cones": []}))
    divisor = tmp_path / "divisor.json"
    argv = ["divisor-cohomology", "--fan", str(fan), "--divisor", str(divisor)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"malformed input: /divisor: cannot read {divisor}: ")
    divisor.write_text(json.dumps({"coefficients": []}))
    assert run(argv, capsys) == (2, "", "malformed input: /rays: expected a nonempty list\n")


def test_file_option_at_its_default_is_not_read(tmp_path, monkeypatch, capsys):
    # --twist zero names the zero twist, not a file, even where one is named so
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero").write_text("not JSON")
    code, out, _ = run(["log-hodge", "--fan", str(FIXTURES / "p2_fan.json"),
                        "--twist", "zero", "--format", "json"], capsys)
    assert code == 0
    provenance = json.loads(out)["provenance"]
    assert list(provenance["inputs"]) == ["fan"] and provenance["options"] == {"twist": "zero"}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "loghodgelab.cli", "cone-complex",
         "--in", str(FIXTURES / "ex42.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC_PATH})
    assert proc.returncode == 0
    assert "H^1 = 1" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["spectral-sequence", "--in", str(FIXTURES / "circle_complex.json")],
    ["trop-ss", "--complex", str(FIXTURES / "ex42.json"),
     "--weights", str(FIXTURES / "ex42_cell_weights.json")],
])
def test_report_bytes_do_not_depend_on_hash_seed(argv, tmp_path):
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"report-{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "loghodgelab.cli", *argv, "--format", "json", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC_PATH, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
