"""Every fixture validates under exactly one shipped JSON Schema, and that
schema is the one for its document kind; the schemas and the loader accept
the same rationals.  jsonschema is a test-only dependency; the module is
skipped without it."""

import json
from pathlib import Path

import pytest

from loghodgelab import jsonio
from loghodgelab.jsonio import SchemaError, parse_rational

jsonschema = pytest.importorskip("jsonschema")

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMAS = Path(__file__).parents[1] / "src" / "loghodgelab" / "schemas"

FIXTURE_SCHEMA = {
    "circle_complex.json": "generic-complex.schema.json",
    "ex42.json": "intersection-data.schema.json",
    "ex42_cell_weights.json": "weights.schema.json",
    "f2_fan.json": "fan.schema.json",
    "f2_twist.json": "divisor.schema.json",
    "f3_fan.json": "fan.schema.json",
    "f3_fractional_divisor.json": "divisor.schema.json",
    "nilpotent_3plus1.json": "nilpotent-operator.schema.json",
    "nilpotent_nine_by_nine.json": "nilpotent-operator.schema.json",
    "p1_fan.json": "fan.schema.json",
    "p2_canonical_divisor.json": "divisor.schema.json",
    "p2_double_cover_fan.json": "fan.schema.json",
    "p2_fan.json": "fan.schema.json",
    "w111.json": "weights.schema.json",
    "w131.json": "weights.schema.json",
    "wedge_fan.json": "intersection-data.schema.json",
}


def is_integer(checker, instance) -> bool:
    # draft-07 counts 1.0 as an integer; the loaders refuse it, since a float
    # cannot carry an exact integer
    return isinstance(instance, int) and not isinstance(instance, bool)


def load_validators():
    out = {}
    for path in sorted(SCHEMAS.glob("*.schema.json")):
        schema = json.loads(path.read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        strict = jsonschema.validators.extend(
            cls, type_checker=cls.TYPE_CHECKER.redefine("integer", is_integer))
        out[path.name] = strict(schema)
    return out


VALIDATORS = load_validators()


def test_every_fixture_is_mapped():
    assert sorted(p.name for p in FIXTURES.glob("*.json")) == sorted(FIXTURE_SCHEMA)


@pytest.mark.parametrize("fixture", sorted(FIXTURE_SCHEMA))
def test_fixture_validates_under_exactly_its_schema(fixture):
    doc = json.loads((FIXTURES / fixture).read_text())
    matching = [name for name, v in VALIDATORS.items() if v.is_valid(doc)]
    assert matching == [FIXTURE_SCHEMA[fixture]]


RATIONAL_CASES = ["0", "-0", "7", "-12", "3/4", "-3/4", "6/8", "1/01", "007/10",
                  "1/0", "3/00", "-1/-2", "1/+2", "+3", "1.5", "1e0", " -3 ", "1_0",
                  "\u0663", "", "-", "/2", "1/", "1//2", "0x10", "1\n"]


def loader_accepts(value) -> bool:
    try:
        parse_rational(value, "/x")
    except SchemaError:
        return False
    return True


@pytest.mark.parametrize("schema, wrap", [
    ("divisor.schema.json", lambda v: {"coefficients": [v]}),
    ("nilpotent-operator.schema.json", lambda v: {"matrix": [[v]]}),
    ("weights.schema.json", lambda v: {"rays": {"A": v}}),
    ("generic-complex.schema.json",
     lambda v: {"min_degree": 0, "dims": [1, 1], "differentials": [[[v]]]}),
    ("generic-complex.schema.json",
     lambda v: {"min_degree": 0, "dims": [1], "filtration": [[[[v]]]]}),
])
def test_schemas_and_loader_accept_the_same_rationals(schema, wrap):
    verdicts = {v: (VALIDATORS[schema].is_valid(wrap(v)), loader_accepts(v))
                for v in RATIONAL_CASES}
    assert all(schema_ok == loader_ok for schema_ok, loader_ok in verdicts.values()), verdicts
    assert sum(ok for ok, _ in verdicts.values()) == 9


@pytest.mark.parametrize("schema, loader, doc, pointer, schema_pointer", [
    ("fan.schema.json", "load_fan",
     {"rays": [[1, 0, 0, 0], [-1, 0, 0, 0]], "cones": [[0], [1]]}, "/rays/0", "/rays/0"),
    ("fan.schema.json", "load_fan",
     {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [-1, 2], [0, 2]]}, "/cones/1/0",
     "/cones/1/0"),
    ("intersection-data.schema.json", "load_intersection_data",
     {"components": [], "strata": []}, "/components", "/components"),
    ("fan.schema.json", "load_fan",
     {"rays": [[1.0, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}, "/rays/0/0",
     "/rays/0/0"),
    ("nilpotent-operator.schema.json", "load_nilpotent_matrix",
     {"matrix": [[0, 1.0], [0, 0]]}, "/matrix/0/1", "/matrix/0/1"),
    ("generic-complex.schema.json", "load_generic_complex",
     {"min_degree": 0.0, "dims": [1]}, "/min_degree", "/min_degree"),
], ids=["ray-of-four", "negative-cone-index", "no-components", "float-ray", "float-entry",
        "float-min-degree"])
def test_schema_and_loader_reject_the_same_document(schema, loader, doc, pointer,
                                                     schema_pointer):
    # the loader stops at the first violation, the schema lists them all
    errors = VALIDATORS[schema].iter_errors(doc)
    assert sorted("/" + "/".join(map(str, e.absolute_path)) for e in errors)[0] == schema_pointer
    with pytest.raises(SchemaError) as raised:
        getattr(jsonio, loader)(doc)
    assert raised.value.pointer == pointer
