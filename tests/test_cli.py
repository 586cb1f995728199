import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loghodgelab.cli import main

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


@pytest.mark.parametrize("golden, argv", [
    ("divisor_p2_canonical.json",
     ["divisor-cohomology", "--fan", "p2_fan.json", "--divisor", "p2_canonical_divisor.json"]),
    ("log_hodge_p2_zero.json", ["log-hodge", "--fan", "p2_fan.json"]),
    ("log_hodge_p2_canonical_twist.json",
     ["log-hodge", "--fan", "p2_fan.json", "--twist", "p2_canonical_divisor.json"]),
    ("divisor_f3_fractional.json",
     ["divisor-cohomology", "--fan", "f3_fan.json", "--divisor", "f3_fractional_divisor.json"]),
    ("log_hodge_f2_twist.json", ["log-hodge", "--fan", "f2_fan.json", "--twist", "f2_twist.json"]),
])
def test_divisor_golden_reports(tmp_path, golden, argv):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, _, out = run_json(argv, tmp_path)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


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


def test_obstruction_stalk_mismatch_exits_1_and_still_writes_the_report(tmp_path, capsys,
                                                                       monkeypatch):
    # the direct route gains a class at multidegree (0, 0) that the assembly lacks
    from loghodgelab import localmodel
    cone = localmodel.obstruction_cone

    def one_more_class(*args):
        report = cone(*args)
        report.direct[0] += 1
        report.direct_by_multidegree.setdefault(0, {})[(0, 0)] = 1
        return report

    monkeypatch.setattr(localmodel, "obstruction_cone", one_more_class)
    code, doc, _ = run_json(["obstruction-stalk", "--n", "2", "--r", "2", "--window", "1",
                             "--flavor", "log"], tmp_path)
    assert code == 1
    assert "disagrees with the direct cone" in capsys.readouterr().err
    # the report is written as computed, with the verdict in it
    assert doc["command"] == "obstruction-stalk"
    result = doc["result"]
    assert result["matches"] is False
    assert result["direct"] == {"0": 1, "1": 0, "2": 0}
    assert result["direct_by_multidegree"] == {"0": {"0,0": 1}}
    assert result["assembled"] == {"0": 0, "1": 0, "2": 0}
    assert result["assembled_by_multidegree"] == {} and result["per_subset"] == {}


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

@pytest.mark.parametrize("golden, argv", [
    ("stalk_n3_r2_w1_holo.json",
     ["obstruction-stalk", "--n", "3", "--r", "2", "--window", "1", "--flavor", "holo"]),
    ("stalk_n2_r2_w2_log.json",
     ["obstruction-stalk", "--n", "2", "--r", "2", "--window", "2", "--flavor", "log"]),
    ("local_n2_r2_w2_s12_p1.json",
     ["local-cohomology", "--n", "2", "--r", "2", "--window", "2", "--subset", "1,2",
      "--form-degree", "1"]),
    ("stalk_n3_r3_w1_holo.json",
     ["obstruction-stalk", "--n", "3", "--r", "3", "--window", "1", "--flavor", "holo"]),
])
def test_local_model_golden_reports(tmp_path, golden, argv):
    code, _, out = run_json(argv, tmp_path)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# --- monodromy ------------------------------------------------------------------------


def test_monodromy_report(tmp_path):
    code, doc, _ = run_json(
        ["monodromy", "--in", str(FIXTURES / "nilpotent_3plus1.json")], tmp_path)
    assert code == 0
    assert doc["result"]["jordan_type"] == [3, 1]
    assert doc["result"]["stratum_weight"] == "3"
    graded = doc["result"]["weight_filtration"]["graded_dims"]
    assert graded == {"-2": 1, "0": 2, "2": 1}


@pytest.mark.parametrize("golden, fixture, center", [
    ("monodromy_3plus1_c0.json", "nilpotent_3plus1.json", "0"),
    ("monodromy_nine_by_nine_c2.json", "nilpotent_nine_by_nine.json", "2"),
])
def test_monodromy_golden_reports(tmp_path, golden, fixture, center):
    code, _, out = run_json(
        ["monodromy", "--in", str(FIXTURES / fixture), "--center", center], tmp_path)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# the table format, on commands that print rationals
@pytest.mark.parametrize("golden, argv, code", [
    ("wedge_w131.txt",
     ["validate-weights", "--complex", "wedge_fan.json", "--weights", "w131.json"], 1),
    ("trop_ss_ex42_t12_3.txt", ["trop-ss", "--complex", "ex42.json", "--weights",
                                "ex42_cell_weights.json", "--thresholds", "1/2,3"], 0),
    ("monodromy_nine_by_nine_c2.txt",
     ["monodromy", "--in", "nilpotent_nine_by_nine.json", "--center", "2"], 0),
])
def test_table_golden_reports(tmp_path, golden, argv, code):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "report.txt"
    assert main(argv + ["--format", "table", "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


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


def test_spectral_sequence_stable_pages_golden(tmp_path):
    code, _, out = run_json(
        ["spectral-sequence", "--in", str(FIXTURES / "circle_complex.json"),
         "--r-max", "12"], tmp_path)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "spectral_circle_r12.json").read_bytes()


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
