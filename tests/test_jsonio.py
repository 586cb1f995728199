import json
from fractions import Fraction
from pathlib import Path

import pytest

from loghodgelab.conecx import build_cone_complex, simplicial_cohomology
from loghodgelab.jsonio import (
    SchemaError,
    _compile,
    canonical_json,
    load_divisor,
    load_fan,
    load_generic_complex,
    load_intersection_data,
    load_nilpotent_matrix,
    load_weights,
    parse_rational,
)

from helpers import dump_intersection_data, to_intersection_data


def test_parse_rational_forms():
    assert parse_rational("3/4", "/x") == Fraction(3, 4)
    assert parse_rational("-2", "/x") == Fraction(-2)
    assert parse_rational(5, "/x") == Fraction(5)


@pytest.mark.parametrize("text, value", [("2/4", Fraction(1, 2)), ("-0/7", Fraction(0)),
                                         ("007/010", Fraction(7, 10)), ("-6/8", Fraction(-3, 4))])
def test_parse_rational_reduces(text, value):
    parsed = parse_rational(text, "/x")
    assert parsed == value
    assert (parsed.numerator, parsed.denominator) == (value.numerator, value.denominator)


@pytest.mark.parametrize("bad", ["3/0", "a", 1.5, True, None, "1/0", "3/00", "2.5", "1e0",
                                 " -3 ", "1_0", "+3", "\u0663", "-", "/2", "1/", "1/+2",
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_parse_rational_rejects(bad):
    with pytest.raises(SchemaError) as info:
        parse_rational(bad, "/field")
    assert "/field" in str(info.value)


def test_intersection_data_roundtrip_is_identity():
    doc = {
        "components": ["H1", "H2", "H3"],
        "strata": [
            {"components": ["H1"]}, {"components": ["H2"]}, {"components": ["H3"]},
            {"components": ["H1", "H2"]}, {"components": ["H1", "H3"]},
            {"components": ["H2", "H3"]},
        ],
        "ray_coordinates": {"H1": [1, 0], "H2": [0, 1], "H3": [-1, -1]},
    }
    data = load_intersection_data(doc)
    complex_ = build_cone_complex(data)
    again = load_intersection_data(dump_intersection_data(to_intersection_data(complex_)))
    rebuilt = build_cone_complex(again)
    assert rebuilt.all_cells() == complex_.all_cells()
    assert rebuilt.ray_coordinates == complex_.ray_coordinates
    assert simplicial_cohomology(rebuilt) == simplicial_cohomology(complex_)


def test_intersection_data_unknown_field_pointer():
    with pytest.raises(SchemaError) as info:
        load_intersection_data({"components": ["A"], "strata": [], "bogus": 1})
    assert "/bogus" in str(info.value)


def test_weights_requires_exactly_one_of_rays_cells():
    with pytest.raises(SchemaError):
        load_weights({})
    with pytest.raises(SchemaError):
        load_weights({"rays": {"a": "1"}, "cells": {"a#0": "1"}})
    ray_w, cell_w = load_weights({"rays": {"a": "1/2"}})
    assert ray_w is not None and cell_w is None
    assert ray_w.ray_value("a") == Fraction(1, 2)
    ray_w, cell_w = load_weights({"cells": {"a#0": "2"}})
    assert ray_w is None and cell_w == {"a#0": Fraction(2)}


def test_fan_loading_errors_carry_pointers():
    with pytest.raises(SchemaError) as info:
        load_fan({"rays": [[1, 0], "x"], "cones": [[0]]})
    assert "/rays/1" in str(info.value)


def test_nilpotent_requires_square_matrix():
    with pytest.raises(SchemaError) as info:
        load_nilpotent_matrix({"matrix": [["0", "1"]]})
    assert "/matrix/0" in str(info.value)


SQUARE = {"min_degree": 0, "dims": [1, 2], "differentials": [[["0"], ["0"]]]}


@pytest.mark.parametrize("load, doc, pointer", [
    (load_nilpotent_matrix, {"matrix": [["0", "1"], ["0"]]}, "/matrix/1"),
    (load_nilpotent_matrix, {"matrix": [["0", "x"], ["0", "0"]]}, "/matrix/0/1"),
    (load_generic_complex, {"min_degree": 0, "dims": [2, 1], "differentials": [[["1"]]]},
     "/differentials/0/0"),
    (load_generic_complex, {**SQUARE, "filtration": [[[], "x"]]}, "/filtration/0/1"),
    (load_generic_complex, {**SQUARE, "filtration": [[[], [["1"]]]]}, "/filtration/0/1/0"),
    (load_generic_complex, {**SQUARE, "filtration": [[[], [["1", "0"], ["0", "y"]]]]},
     "/filtration/0/1/1/1"),
], ids=["ragged-row", "matrix-entry", "differential-row", "level-degree", "column-length",
        "column-entry"])
def test_matrix_reader_error_pointers(load, doc, pointer):
    with pytest.raises(SchemaError) as info:
        load(doc)
    assert info.value.pointer == pointer


@pytest.mark.parametrize("bad, message", [
    (True, "expected a rational"),
    (1.5, "expected a rational"),
    ("1/0", "expected a rational"),
    ("1/-2", "expected a rational"),
    (" 1", "expected a rational"),
    ("1" * 5000, "5000-digit rational is too long"),
], ids=["bool", "float", "zero-denominator", "negative-denominator", "space", "5000-digits"])
def test_matrix_entry_faults_keep_message_and_pointer(bad, message):
    # the first fault in reading order is named, with the message parse_rational gives
    rows = [["0", "1/2", "3"], ["4", "5", bad], ["6", "7", bad]]
    with pytest.raises(SchemaError) as info:
        load_nilpotent_matrix({"matrix": rows})
    assert (info.value.pointer, str(info.value)) == ("/matrix/1/2", f"/matrix/1/2: {message}")
    with pytest.raises(SchemaError) as direct:
        parse_rational(bad, "/matrix/1/2")
    assert str(direct.value) == str(info.value)


@pytest.mark.parametrize("load, doc, pointer", [
    (load_nilpotent_matrix, {"matrix": [["1" * 5000, "0"], ["0"], ["x"]]}, "/matrix/2/0"),
    (load_generic_complex, {"min_degree": 0, "dims": [2, 1], "differentials": [[["1"]]],
                            "filtration": [[[]], "x"]}, "/filtration/1"),
    (load_intersection_data, {"components": ["A"], "strata": [{"components": ["A", "A"]},
                                                             {"components": []}]},
     "/strata/1/components"),
    (load_fan, {"cones": [[0], [-1]], "rays": [[1, 2, 3, 4]]}, "/cones/1/0"),
], ids=["entry-too-long", "shapes", "cell", "document-order"])
def test_schema_faults_come_first_in_document_order(load, doc, pointer):
    # a fault the loader finds on top of its schema (a rational too long, a
    # shape, a cell) is named only when the document has no schema fault
    with pytest.raises(SchemaError) as info:
        load(doc)
    assert info.value.pointer == pointer


FAN = {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]]}


def rational_documents(bad):
    """(loader, document, pointer) with ``bad`` at the pointer, in every
    document kind that holds rationals; each document loads with "1" there."""
    return [
        (load_nilpotent_matrix, {"matrix": [["0", "1/2"], [bad, "0"]]}, "/matrix/1/0"),
        (load_generic_complex, {"min_degree": 0, "dims": [2, 1],
                                "differentials": [[["1", bad]]]}, "/differentials/0/0/1"),
        (load_generic_complex, {"min_degree": 0, "dims": [1, 2],
                                "differentials": [[["1"], ["0"]]],
                                "filtration": [[[], [["1", bad]]]]}, "/filtration/0/1/0/1"),
        (lambda doc: load_divisor(doc, load_fan(FAN)), {"coefficients": [0, bad, "1/2"]},
         "/coefficients/1"),
        (load_weights, {"rays": {"a": "1", "b": bad}}, "/rays/b"),
        (load_weights, {"cells": {"a#0": bad}}, "/cells/a#0"),
    ]


@pytest.mark.parametrize("bad, message", [
    (True, "expected a rational"),
    (1.5, "expected a rational"),
    ("1.0", "expected a rational"),
    ("1/0", "expected a rational"),
    ("+1", "expected a rational"),
    (" 1", "expected a rational"),
    ("1\n", "expected a rational"),
    ("1" * 5000, "5000-digit rational is too long"),
], ids=["true", "float", "decimal-string", "zero-denominator", "plus", "space", "newline",
        "5000-digits"])
def test_rational_node_refuses_each_edge_in_every_document(bad, message):
    # the one rational node refuses with the pointer and message of the oneOf
    # it replaced, whichever document holds the value and through parse_rational
    for load, doc, pointer in rational_documents(bad):
        with pytest.raises(SchemaError) as info:
            load(doc)
        assert str(info.value) == f"{pointer}: {message}"
        load(json.loads(json.dumps(doc).replace(json.dumps(bad), '"1"')))
    with pytest.raises(SchemaError) as info:
        parse_rational(bad, "/thresholds")
    assert str(info.value) == f"/thresholds: {message}"


@pytest.mark.parametrize("load, doc, pointer", [
    (load_nilpotent_matrix, {"matrix": [["1" * 5000, "0"], ["0", "abc"]]}, "/matrix/1/1"),
    (load_generic_complex, {"min_degree": 0, "dims": [1, 1], "differentials": [[["1" * 5000]]],
                            "filtration": [[[], [[True]]]]}, "/filtration/0/1/0/0"),
    (load_weights, {"cells": {"a#0": "1" * 5000, "b#0": "1/0"}}, "/cells/b#0"),
    (lambda doc: load_divisor(doc, load_fan(FAN)), {"coefficients": ["1" * 5000, 0, 1.5]},
     "/coefficients/2"),
], ids=["nilpotent", "generic-complex", "weights", "divisor"])
def test_a_later_schema_fault_beats_an_earlier_too_long_rational(load, doc, pointer):
    with pytest.raises(SchemaError) as info:
        load(doc)
    assert str(info.value) == f"{pointer}: expected a rational"


@pytest.mark.parametrize("load, doc, pointer", [
    (load_nilpotent_matrix, {"matrix": [["1", "0"], ["1" * 5000]]}, "/matrix/1/0"),
    (load_generic_complex, {"min_degree": 0, "dims": [1, 1],
                            "differentials": [[["1", "0"]], [["1"]]],
                            "filtration": [[[], [["1" * 5000]]]]}, "/filtration/0/1/0/0"),
    (lambda doc: load_divisor(doc, load_fan(FAN)), {"coefficients": ["1" * 5000]},
     "/coefficients/0"),
], ids=["nilpotent", "generic-complex", "divisor"])
def test_a_too_long_rational_comes_before_what_a_loader_adds(load, doc, pointer):
    # the walk reads every rational, so its first too-long one is named
    # before a shape, a count or d o d, which only the loader checks
    with pytest.raises(SchemaError) as info:
        load(doc)
    assert str(info.value) == f"{pointer}: 5000-digit rational is too long"


def test_checker_refuses_a_rational_definition_it_does_not_read():
    # the rational node reads an integer or a string of the definition's pattern
    for rational in ({"type": "integer"}, {"oneOf": [{"type": "string", "pattern": "x"},
                                                     {"type": "integer"}]},
                     {"oneOf": [{"type": "integer"}, {"type": "string"}]},
                     {"oneOf": [{"type": "integer"}, {"type": "string", "pattern": "x"}],
                      "not": {}}):
        with pytest.raises(NotImplementedError):
            _compile({"items": {"$ref": "#/definitions/rational"},
                      "definitions": {"rational": rational}})


@pytest.mark.parametrize("schema", [
    {"type": "object", "maxProperties": 1},
    {"type": "number"},
    {"items": {"$ref": "#/definitions/missing"}},
    {"items": {"$ref": "#/definitions/r", "type": "string"}, "definitions": {"r": {}}},
    {"properties": {"a": {"definitions": {"r": {}}}}},
    {"type": "array", "minItems": 2},
    {"type": "object", "minProperties": 0},
], ids=["unknown-keyword", "unknown-type", "unknown-definition", "ref-beside-keywords",
        "nested-definitions", "min-items-2", "min-properties-0"])
def test_checker_refuses_a_schema_it_does_not_read(schema):
    # a later schema edit the checker would not enforce fails loudly, at compile time
    with pytest.raises((NotImplementedError, KeyError)):
        _compile(schema)


def test_checker_skips_annotations():
    check = _compile({"$schema": "s", "$id": "i", "title": "t", "description": "d",
                      "type": "object", "properties": {"a": {"default": 0, "type": "integer"}}})
    assert check["#"]({"a": 1}) is None
    assert check["#"]({"a": True}) == (("a",), "expected an integer")


def test_generic_complex_d_squared_checked():
    doc = {
        "min_degree": 0,
        "dims": [1, 1, 1],
        "differentials": [[["1"]], [["1"]]],
    }
    with pytest.raises(SchemaError) as info:
        load_generic_complex(doc)
    assert "differentials" in str(info.value)


def test_generic_complex_with_filtration():
    doc = {
        "min_degree": 0,
        "dims": [1, 1],
        "differentials": [[["1"]]],
        "filtration": [[[], [["1"]]]],
    }
    complex_, filtration = load_generic_complex(doc)
    assert complex_.dim(0) == 1 and complex_.dim(1) == 1
    assert len(filtration) == 1
    assert filtration[0][1].cols == 1


# --- canonical output --------------------------------------------------------------


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("golden", sorted((Path(__file__).parent / "golden").glob("*.json")),
                         ids=lambda path: path.name)
def test_canonical_json_reencodes_every_golden(golden):
    text = golden.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert canonical_json(doc) == dumps(doc) == text


def test_canonical_json_matches_json_dumps_on_edge_values():
    doc = {"z": [], "a": {}, "m": [True, False, None, 0, -1, 2 ** 70, -(3 ** 50)],
           "é": ("tuple", ["nested", {"b": "\"quoted\" \\ \x00\x1f\x7f \u2028 \ud800 ☃"}])}
    assert canonical_json(doc) == dumps(doc)
    assert canonical_json("plain") == dumps("plain")
    assert canonical_json([]) == "[]\n" and canonical_json({}) == "{}\n"


@pytest.mark.parametrize("doc", [1.5, {"x": [0.0]}, {1: "a"}, {"a": 1, 2: "b"}, {"a"},
                                 [frozenset()], b"bytes", Fraction(1, 2)],
                         ids=["float", "nested-float", "int-key", "mixed-keys", "set",
                              "nested-frozenset", "bytes", "fraction"])
def test_canonical_json_rejects_what_it_does_not_encode(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)
