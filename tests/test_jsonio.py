import pytest
from fractions import Fraction

from loghodgelab.conecx import build_cone_complex, simplicial_cohomology
from loghodgelab.jsonio import (
    SchemaError,
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
