"""JSON input formats and canonical report serialization.

The six schemas in ``schemas/`` are the input grammar.  A loader first runs
its document's schema, read once per process and compiled into closures,
in one walk that checks and converts: each node returns the value it
accepts, a copy of each list and object with every rational read as a pair
(p, q) of ints, q > 0 and not reduced, and raises at the first fault in
document order.  ``definitions/rational`` compiles to one node that tests
``type(v)`` once: an int, never a bool, or a string of the definition's
pattern.  A schema key outside `KEYWORDS` and the annotations raises as its
schema compiles.  ``integer`` is an int, never a bool or ``1.0``.  A fault at
a value a ``$ref`` names reads "expected a <definition>", such as "expected a
rational".  After every schema fault comes the first rational of more digits
than ``int()`` reads; then a loader adds only what a schema cannot say: a
divisor has one coefficient per ray; the nilpotent matrix is square; a
complex has at most ``len(dims) - 1`` differentials, of shape ``dims[k+1] x
dims[k]``; a filtration level has one basis per degree, of columns
``dims[k]`` long; and the faults of `conecx.Cell`.  Matrices go from the
pairs to `RationalMatrix.from_ratios` with no Fraction per entry.

Reports write every rational as ``str(Fraction)``, never as a float.
``canonical_json`` is byte for byte ``json.dumps(doc, sort_keys=True,
indent=2, ensure_ascii=False)`` plus a newline on the documents it accepts:
dicts with ``str`` keys, lists and tuples, strings, ints, booleans and None;
anything else raises ``TypeError``.  Each loader imports the domain types
it builds, so serializing a report loads no domain module.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring

# the draft-07 keywords checked; "definitions" is read at the root alone
KEYWORDS = {"type", "properties", "required", "additionalProperties", "items", "minItems",
            "maxItems", "minimum", "minProperties", "pattern", "oneOf", "not", "$ref"}
ANNOTATIONS = {"$schema", "$id", "title", "description", "default"}
TYPES = {"object": (dict, "an object"), "array": (list, "a list"),  # each by type(v) is
         "string": (str, "a string"), "integer": (int, "an integer")}


def _nonempty(kind, noun):
    """The bound ``minItems`` or ``minProperties`` of 1, the one size the schemas set."""
    def bound(n):
        if n != 1:
            raise NotImplementedError(f"a minimum size of {n}")
        return (kind,), len, f"expected a nonempty {noun}"
    return bound


# the keywords that bound a value: each bound's (types it applies to, test, message)
BOUNDS = {
    "minProperties": _nonempty(dict, "object"),
    "minItems": _nonempty(list, "list"),
    "maxItems": lambda n: ((list,), lambda v: len(v) <= n, f"expected at most {n} items"),
    "minimum": lambda n: ((int,), lambda v: v >= n, f"expected at least {n}"),
    "pattern": lambda p: ((str,), re.compile(p).search, f"does not match {p}"),
}


class SchemaError(ValueError):
    """Malformed input; ``pointer`` locates the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"{self.pointer}: {message}")


# --- the schema checker -------------------------------------------------------------
# A node takes a JSON value and returns the value it accepts.  At the first
# fault it raises `_Fault`, whose message was made when the schema compiled;
# a container adds its key to a fault that comes up.


class _Fault(Exception):
    def __init__(self, message: str):
        self.message, self.path = message, []  # the keys down to the value, innermost first


def _rule(node):
    """``node`` as a check: None or the first fault (path, message) of a
    value; ``accept`` is the node itself."""
    def check(v):
        try:
            node(v)
        except _Fault as f:
            return tuple(reversed(f.path)), f.message
    check.accept = node
    return check


def _compile(root: dict, lenient: bool = False) -> dict:
    """The rules of the draft-07 schema ``root``: "#" for a document, and
    "#/definitions/<name>" for a value a ``$ref`` to that definition names."""
    definitions = root.get("definitions", {})

    def ref(target):
        name = target.removeprefix("#/definitions/")
        if name == "rational":
            return _rational(definitions[name], lenient)
        # every fault at the value itself names the definition
        return compile_(definitions[name], f"expected a {name}")

    def compile_(schema, own=None):  # own: the fault of the value itself, if one is named
        keys = schema.keys() - ANNOTATIONS
        if not keys <= KEYWORDS or "$ref" in keys and len(keys) > 1:
            raise NotImplementedError(f"schema keywords not checked: {sorted(keys)}")
        if "$ref" in keys:
            return ref(schema["$ref"])
        tests = []  # (the types a test applies to, None for all; test; message)

        def need(kinds, ok, message):
            tests.append((kinds, ok, own or message))

        for key in schema.get("required", ()):
            need((dict,), lambda v, key=key: key in v, f"missing required field {key!r}")
        for word, bound in BOUNDS.items():
            if word in keys:
                need(*bound(schema[word]))
        if "oneOf" in keys:
            branches = [_rule(compile_(s)) for s in schema["oneOf"]]
            need(None, lambda v: [b(v) for b in branches].count(None) == 1,
                 f"expected exactly one of {len(branches)} oneOf forms")
        if "not" in keys:
            inner = _rule(compile_(schema["not"]))
            need(None, lambda v: inner(v) is not None, "matches the form under not")
        inside = []  # the nodes of the values inside
        if "properties" in keys or "additionalProperties" in keys:
            named = {k: compile_(s) for k, s in schema.get("properties", {}).items()}
            extra = schema.get("additionalProperties", True)
            inside.append(_fields(named, extra if type(extra) is bool else compile_(extra)))
        if "items" in keys:
            inside.append(_items(compile_(schema["items"])))
        kind = fault = None
        if "type" in keys:
            kind, noun = TYPES[schema["type"]]  # a KeyError: a type not checked
            fault = own or f"expected {noun}"
            # past the type check, a test that does not apply to the type is moot
            tests = [(None, ok, f) for kinds, ok, f in tests if kinds is None or kind in kinds]

        def check(v):
            if kind is not None and type(v) is not kind:
                raise _Fault(fault)
            for kinds, ok, message in tests:
                if (kinds is None or type(v) in kinds) and not ok(v):
                    raise _Fault(message)
            for node in inside:
                v = node(v)
            return v
        return check

    return {"#": _rule(compile_({k: v for k, v in root.items() if k != "definitions"})),
            **{f"#/definitions/{name}": _rule(ref(f"#/definitions/{name}"))
               for name in definitions}}


def _rational(schema: dict, lenient: bool):
    """The one node of the ``rational`` definition, an integer or a string of
    its pattern: one test of ``type(v)``, and (p, q), q > 0, not reduced.  A
    ``lenient`` node reads a rational of more digits than int() reads as 0."""
    pattern = (schema.get("oneOf") or [{}])[-1].get("pattern")
    if schema != {"oneOf": [{"type": "integer"}, {"type": "string", "pattern": pattern}]}:
        raise NotImplementedError(f"a rational definition not read: {schema}")
    match = re.compile(pattern).search

    def rational(v):
        if type(v) is str and match(v):
            p, _, q = v.partition("/")
            try:
                return int(p), int(q) if q else 1
            except ValueError:
                if lenient:
                    return 0, 1
                raise _Fault(f"{len(v)}-digit rational is too long") from None
        if type(v) is int:
            return v, 1
        raise _Fault("expected a rational")
    return rational


def _fields(named, extra):
    """Each field by its own node, or else by ``extra`` (True: any passes,
    False: none)."""
    def check(v):
        out = {}
        for key, x in v.items() if type(v) is dict else ():
            try:
                if (node := named.get(key, extra)) is False:
                    raise _Fault("unknown field")
                out[key] = x if node is True else node(x)
            except _Fault as f:
                f.path.append(key)
                raise
        return out if type(v) is dict else v
    return check


def _items(item):
    def check(v):
        out = []
        try:
            for x in v if type(v) is list else ():
                out.append(item(x))
        except _Fault as f:
            f.path.append(len(out))
            raise
        return out if type(v) is list else v
    return check


SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "schemas")


@functools.cache
def _schema(name: str, lenient: bool = False) -> dict:
    """The compiled rules of ``schemas/<name>.schema.json``.  A package
    that lacks the file is broken, not the request: one line on stderr names
    the file, and the process exits 1."""
    path = os.path.join(SCHEMA_DIR, f"{name}.schema.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return _compile(json.load(handle), lenient)
    except OSError as exc:
        print(f"broken installation: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(1) from None


def _check(doc: object, name: str, ref: str = "#", pointer: str = ""):
    """``doc`` as ``ref`` of the schema ``name`` accepts it.  Raises its first
    schema fault, or else its first rational of more digits than int() reads."""
    rule = _schema(name)[ref]
    try:
        return rule.accept(doc)
    except _Fault:
        fault = _schema(name, True)[ref](doc) or rule(doc)
    raise SchemaError(pointer + "".join(f"/{k}" for k in fault[0]), fault[1])


def parse_rational(value: object, pointer: str) -> Fraction:
    """The rational ``value``, as the schemas' ``rational`` definition
    says; ``pointer`` names it in a fault."""
    return Fraction(*_check(value, "weights", "#/definitions/rational", pointer))


# --- intersection data and weights ----------------------------------------------


def load_intersection_data(doc: object) -> IntersectionData:
    from .conecx import Cell, IntersectionData
    _check(doc, "intersection-data")
    cells = []
    for i, raw in enumerate(doc["strata"]):
        try:
            cells.append(Cell(tuple(sorted(raw["components"])), raw.get("tag", "0")))
        except ValueError as exc:
            raise SchemaError(f"/strata/{i}", str(exc)) from None
    rays = doc.get("ray_coordinates")
    return IntersectionData(list(doc["components"]), cells,
                            rays and {name: tuple(vec) for name, vec in rays.items()})


def load_weights(doc: object) -> tuple[WeightFunction | None, dict[str, Fraction] | None]:
    """(ray weights, None) or (None, per-cell weights by cell key)."""
    from .weights import WeightFunction
    doc = _check(doc, "weights")
    kind = "rays" if "rays" in doc else "cells"
    values = {key: Fraction(p, q) for key, (p, q) in doc[kind].items()}
    return (WeightFunction(values), None) if kind == "rays" else (None, values)


# --- fans and divisors -------------------------------------------------------------


def load_fan(doc: object) -> Fan:
    from .toric import Fan
    _check(doc, "fan")
    return Fan(doc["rays"], doc["cones"], doc.get("names"))


def load_divisor(doc: object, fan: Fan) -> QDivisor:
    from .toric import QDivisor
    raw = _check(doc, "divisor")["coefficients"]
    if len(raw) != len(fan.rays):
        raise SchemaError("/coefficients",
                          f"expected {len(fan.rays)} coefficients, got {len(raw)}")
    return QDivisor({i: Fraction(p, q) for i, (p, q) in enumerate(raw)})


# --- matrices: nilpotent operators and generic complexes -----------------------------


def _ratio_rows(raw: list, rows: int, cols: int, pointer: str) -> list[list[tuple[int, int]]]:
    """``raw``, rows of (p, q) pairs, which must be ``rows`` lists of ``cols``."""
    if len(raw) != rows:
        raise SchemaError(pointer, f"expected {rows} rows, got {len(raw)}")
    for i, row in enumerate(raw):
        if len(row) != cols:
            raise SchemaError(f"{pointer}/{i}", f"expected {cols} entries")
    return raw


def load_nilpotent_matrix(doc: object) -> RationalMatrix:
    """The square matrix of a nilpotent-operator document, before any power is formed."""
    from .linalg import RationalMatrix
    raw = _check(doc, "nilpotent-operator")["matrix"]
    n = len(raw)
    return RationalMatrix.from_ratios(n, n, _ratio_rows(raw, n, n, "/matrix"))


def load_generic_complex(doc: object) -> tuple[CochainComplex, list | None]:
    """A bounded complex plus an optional filtration (the levels F^1, F^2,
    ...; each lists, per degree, the basis columns of the subspace)."""
    from .complexes import CochainComplex
    from .linalg import RationalMatrix
    doc = _check(doc, "generic-complex")
    raw_dims = doc["dims"]
    dims = {doc["min_degree"] + i: d for i, d in enumerate(raw_dims)}
    raw_diffs = doc.get("differentials", [])
    if len(raw_diffs) >= len(raw_dims):
        raise SchemaError("/differentials", f"expected at most {len(raw_dims) - 1} matrices")
    diffs = {}
    for i, (k, raw) in enumerate(zip(dims, raw_diffs)):
        pairs = _ratio_rows(raw, dims[k + 1], dims[k], f"/differentials/{i}")
        diffs[k] = RationalMatrix.from_ratios(dims[k + 1], dims[k], pairs)
    try:
        complex_ = CochainComplex(dims, diffs)
    except ValueError as exc:
        raise SchemaError("/differentials", str(exc)) from None
    filtration = []
    for li, raw_level in enumerate(doc.get("filtration", ())):
        if len(raw_level) != len(raw_dims):
            raise SchemaError(f"/filtration/{li}",
                              f"expected one basis list per degree ({len(raw_dims)})")
        level = {}
        for i, (k, cols) in enumerate(zip(dims, raw_level)):
            # the basis columns, each entry i of them joined into row i
            pairs = _ratio_rows(cols, len(cols), dims[k], f"/filtration/{li}/{i}")
            level[k] = RationalMatrix.from_ratios(dims[k], len(cols), zip(*pairs))
        filtration.append(level)
    return complex_, filtration if "filtration" in doc else None


# --- canonical output --------------------------------------------------------------------


def canonical_json(doc: object) -> str:
    """The report text of ``doc``, as the module docstring describes."""
    return _encode(doc, "\n") + "\n"


def _encode(value: object, indent: str) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring(key)}: {_encode(value[key], inner)}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join([_encode(v, inner) for v in value])
                + indent + "]")
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
