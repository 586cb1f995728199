"""Every fixture validates under exactly one shipped JSON Schema, and that
schema is the one for its document kind; the schemas and the loader accept
the same rationals.  jsonschema is a test-only dependency; the module is
skipped without it."""

import json
import random
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
    "twisted_depth3_complex.json": "generic-complex.schema.json",
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


# --- the loaders' checker against jsonschema ----------------------------------------

# valid documents beside the fixtures, so that every optional field is mutated
EXTRA_DOCS = {
    "intersection-data.schema.json": [
        {"components": ["A", "B"], "strata": [{"components": ["A"], "tag": "1"},
                                             {"components": ["B"]}],
         "ray_coordinates": {"A": [1, 0], "B": [0, 1]}}],
    "weights.schema.json": [{"rays": {"A": 2, "B": "-3/4"}}],
    "fan.schema.json": [{"rays": [[1], [-1]], "cones": [[0], [1]], "names": ["a", "b"]}],
    "generic-complex.schema.json": [
        {"min_degree": -1, "dims": [0, 2, 1], "differentials": [[], [[1, "1/2"]]],
         "filtration": [[[], [[1, 0]], []], [[], [], [["0"]]]]}],
}
SCALARS = [0, 1, -1, 2 ** 70, 1.0, 1.5, True, False, None, "", "x", [], {}, [0], {"a": 1},
           *RATIONAL_CASES]
MUTATIONS = 1000


def nodes(doc, path=()):
    """Every (path, value) of ``doc``, the document itself first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from nodes(value, path + (key,))


def mutate(doc, rng):
    """``doc`` with one seeded change at one of its nodes: a type swap, a
    dropped or unknown key, an emptied, shortened or grown container, or a
    negated integer."""
    path, node = rng.choice(list(nodes(doc)))
    kind = rng.randrange(6)
    if kind == 0 or not path and not isinstance(node, (dict, list)):
        new = rng.choice(SCALARS)
    elif isinstance(node, dict):
        new = dict(node)
        if kind == 1 and new:
            del new[rng.choice(sorted(new))]
        elif kind == 2:
            new[rng.choice(["bogus", "tag", "names", "rays", "cells", "filtration"])] = \
                rng.choice(SCALARS)
        else:
            new = {}
    elif isinstance(node, list):
        new = list(node)
        if kind == 1 and new:
            del new[rng.randrange(len(new))]
        elif kind == 2:
            new.append(rng.choice(new) if new and rng.random() < 0.5 else rng.choice(SCALARS))
        else:
            new = []
    elif type(node) is int:
        new = -node - 1
    else:
        new = rng.choice(SCALARS)
    if not path:
        return new
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return copy


@pytest.mark.parametrize("schema", sorted(VALIDATORS))
def test_checker_agrees_with_jsonschema(schema):
    check = jsonio._schema(schema.removesuffix(".schema.json"))["#"]
    validator = VALIDATORS[schema]
    valid = [json.loads((FIXTURES / name).read_text())
             for name in sorted(FIXTURE_SCHEMA) if FIXTURE_SCHEMA[name] == schema]
    valid += EXTRA_DOCS.get(schema, [])
    rng = random.Random(schema)
    docs = list(valid)
    while len(docs) < len(valid) + MUTATIONS:
        doc = rng.choice(valid)
        for _ in range(rng.randint(1, 3)):
            doc = mutate(doc, rng)
        docs.append(doc)
    refused = 0
    for doc in docs:
        fault = check(doc)
        paths = [tuple(e.absolute_path) for e in validator.iter_errors(doc)]
        assert (fault is None) == (not paths), (doc, fault, paths)
        if fault is not None:
            # the checker names the first fault: at or below one jsonschema names
            refused += 1
            assert any(fault[0][:len(p)] == p for p in paths), (doc, fault, paths)
    assert all(check(doc) is None for doc in valid)
    # both verdicts occur often enough to mean something
    assert MUTATIONS // 5 < refused < MUTATIONS
