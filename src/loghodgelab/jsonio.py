"""JSON input formats and canonical report serialization.

Every rational is serialized as ``str(Fraction)``, a string "p/q" (or "n"
for integers), so no consumer ever sees a float.  Validation errors carry a
JSON pointer to the offending field.  One grammar, `_ratio`, reads every
rational as an integer pair (p, q); a matrix's entries go from it straight
into `RationalMatrix.from_ratios`, with no Fraction and no pointer made unless
an entry is at fault, and `parse_rational` names the fault.  Report dumping
is canonical (sorted keys, fixed indent, trailing newline) so identical
inputs produce byte-identical reports.
``canonical_json`` is one recursive encoder, byte for byte
``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` plus a
newline on the documents it accepts: dicts with ``str`` keys, lists and
tuples, strings (escaped by ``json.encoder.encode_basestring``), ints,
booleans and None.  Anything else, a float or a key that is not a string
included, raises ``TypeError``.
Each loader imports the domain types it builds, so serializing a report
loads no domain module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from .complexes import CochainComplex
    from .conecx import IntersectionData
    from .linalg import RationalMatrix
    from .toric import Fan, QDivisor
    from .trop import CellWeights
    from .weights import WeightFunction


# The one rational grammar.  Every shipped schema has it as its "pattern",
# between ^ and $(?!\n): Python's $ also matches before a final newline.
RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


class SchemaError(ValueError):
    """Malformed input; ``pointer`` locates the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"{self.pointer}: {message}")


def _ratio(value: Any) -> tuple[int, int]:
    """The one rational grammar: (p, q), q > 0 and not reduced, of an integer
    or a `RATIONAL` string; anything else raises ValueError, with the message
    `parse_rational` gives it."""
    if isinstance(value, str):
        if not RATIONAL.fullmatch(value):
            raise ValueError(f"not a rational 'p/q' string: {value!r}")
        p, _, q = value.partition("/")
        try:
            return int(p), int(q or 1)
        except ValueError:  # more digits than int() converts
            raise ValueError(f"{len(value)}-digit rational is too long") from None
    if isinstance(value, bool):
        raise ValueError("expected a rational string or integer, got a boolean")
    if isinstance(value, int):
        return int(value), 1
    raise ValueError(f"expected a rational string or integer, got {type(value).__name__}")


def parse_rational(value: Any, pointer: str) -> Fraction:
    try:
        return Fraction(*_ratio(value))
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from None


def _expect(condition: bool, pointer: str, message: str):
    if not condition:
        raise SchemaError(pointer, message)


def _expect_keys(obj: dict, pointer: str, required: set[str], optional: set[str] = frozenset()):
    _expect(isinstance(obj, dict), pointer, "expected an object")
    for key in required:
        if key not in obj:
            raise SchemaError(pointer, f"missing required field {key!r}")
    for key in obj:
        if key not in required | set(optional):
            raise SchemaError(f"{pointer}/{key}", "unknown field")


# --- intersection data ------------------------------------------------------------


def load_intersection_data(doc: Any) -> IntersectionData:
    from .conecx import Cell, IntersectionData
    _expect_keys(doc, "", {"components", "strata"}, {"ray_coordinates"})
    comps = doc["components"]
    _expect(isinstance(comps, list) and comps and all(isinstance(x, str) for x in comps),
            "/components", "expected a nonempty list of strings")
    strata = doc["strata"]
    _expect(isinstance(strata, list), "/strata", "expected a list")
    cells = []
    for i, raw in enumerate(strata):
        sp = f"/strata/{i}"
        _expect_keys(raw, sp, {"components"}, {"tag"})
        sub = raw["components"]
        _expect(isinstance(sub, list) and sub and all(isinstance(x, str) for x in sub),
                f"{sp}/components", "expected a nonempty list of strings")
        tag = raw.get("tag", "0")
        _expect(isinstance(tag, str), f"{sp}/tag", "expected a string")
        try:
            cells.append(Cell(tuple(sorted(sub)), tag))
        except ValueError as exc:
            raise SchemaError(sp, str(exc)) from None
    rays = None
    if "ray_coordinates" in doc:
        raw_rays = doc["ray_coordinates"]
        _expect(isinstance(raw_rays, dict), "/ray_coordinates", "expected an object")
        rays = {}
        for name, vec in raw_rays.items():
            rp = f"/ray_coordinates/{name}"
            _expect(isinstance(vec, list) and vec and all(
                isinstance(x, int) and not isinstance(x, bool) for x in vec),
                rp, "expected a nonempty list of integers")
            rays[name] = tuple(vec)
    return IntersectionData(list(comps), cells, rays)


# --- weights ----------------------------------------------------------------------


def load_weights(doc: Any) -> tuple[Optional[WeightFunction], Optional[dict[str, Fraction]]]:
    """Returns (ray weights, per-cell weights keyed by cell key); exactly one
    of the two is populated."""
    from .weights import WeightFunction
    _expect_keys(doc, "", set(), {"rays", "cells"})
    has_rays = "rays" in doc
    has_cells = "cells" in doc
    _expect(has_rays != has_cells, "",
            "expected exactly one of the fields 'rays' or 'cells'")
    if has_rays:
        raw = doc["rays"]
        _expect(isinstance(raw, dict) and raw, "/rays", "expected a nonempty object")
        values = {name: parse_rational(v, f"/rays/{name}")
                  for name, v in raw.items()}
        return WeightFunction(values), None
    raw = doc["cells"]
    _expect(isinstance(raw, dict) and raw, "/cells", "expected a nonempty object")
    values = {key: parse_rational(v, f"/cells/{key}") for key, v in raw.items()}
    return None, values


def cell_weights_for(complex_, cell_values: dict[str, Fraction]) -> CellWeights:
    from .trop import CellWeights
    values = {}
    for key, v in cell_values.items():
        cell = complex_.find_cell(key)
        values[cell] = v
    return CellWeights(values)


# --- fans and divisors -------------------------------------------------------------


def load_fan(doc: Any) -> Fan:
    from .toric import Fan
    _expect_keys(doc, "", {"rays", "cones"}, {"names"})
    rays = doc["rays"]
    _expect(isinstance(rays, list) and rays, "/rays", "expected a nonempty list")
    for i, ray in enumerate(rays):
        _expect(isinstance(ray, list) and 1 <= len(ray) <= 3,
                f"/rays/{i}", "expected a list of 1 to 3 integers")
        for j, x in enumerate(ray):
            _expect(isinstance(x, int) and not isinstance(x, bool),
                    f"/rays/{i}/{j}", "expected an integer")
    cones = doc["cones"]
    _expect(isinstance(cones, list) and cones, "/cones", "expected a nonempty list")
    for i, cone in enumerate(cones):
        _expect(isinstance(cone, list) and all(
            isinstance(x, int) and not isinstance(x, bool) for x in cone),
            f"/cones/{i}", "expected a list of ray indices")
        for j, x in enumerate(cone):
            _expect(x >= 0, f"/cones/{i}/{j}", "expected a nonnegative ray index")
    names = doc.get("names")
    if names is not None:
        _expect(isinstance(names, list) and all(isinstance(x, str) for x in names),
                "/names", "expected a list of strings")
    return Fan(rays, cones, names)


def load_divisor(doc: Any, fan: Fan) -> QDivisor:
    from .toric import QDivisor
    _expect_keys(doc, "", {"coefficients"})
    raw = doc["coefficients"]
    _expect(isinstance(raw, list), "/coefficients",
            "expected a list, one rational per ray")
    _expect(len(raw) == len(fan.rays), "/coefficients",
            f"expected {len(fan.rays)} coefficients, got {len(raw)}")
    coeffs = {i: parse_rational(v, f"/coefficients/{i}")
              for i, v in enumerate(raw)}
    return QDivisor(coeffs)


# --- nilpotent operators --------------------------------------------------------------


def load_nilpotent_matrix(doc: Any) -> RationalMatrix:
    """The square matrix of a nilpotent-operator document, before any power is formed."""
    _expect_keys(doc, "", {"matrix"})
    raw = doc["matrix"]
    _expect(isinstance(raw, list) and raw, "/matrix", "expected a nonempty list of rows")
    return _load_matrix(raw, len(raw), len(raw), "/matrix")


# --- generic complexes ------------------------------------------------------------------


def _ratio_rows(raw: Any, rows: int, cols: int, pointer: str) -> list[list[tuple[int, int]]]:
    """The `_ratio` pairs of ``raw``, a list of ``rows`` lists of ``cols``
    rationals; a pointer is made only for the first fault."""
    if not (isinstance(raw, list) and len(raw) == rows):
        raise SchemaError(pointer, f"expected {rows} rows, got "
                          f"{len(raw) if isinstance(raw, list) else type(raw).__name__}")
    out = []
    for i, row in enumerate(raw):
        if not (isinstance(row, list) and len(row) == cols):
            raise SchemaError(f"{pointer}/{i}", f"expected {cols} entries")
        try:
            out.append([_ratio(v) for v in row])
        except ValueError:
            for j, v in enumerate(row):
                parse_rational(v, f"{pointer}/{i}/{j}")
            raise  # not reached: parse_rational refuses what _ratio refused
    return out


def _load_matrix(raw: Any, rows: int, cols: int, pointer: str) -> RationalMatrix:
    from .linalg import RationalMatrix
    return RationalMatrix.from_ratios(rows, cols, _ratio_rows(raw, rows, cols, pointer))


def load_generic_complex(doc: Any) -> tuple[CochainComplex, Optional[list]]:
    """A bounded complex plus an optional filtration (the levels F^1, F^2,
    ...; each lists, per degree, the basis columns of the subspace)."""
    from .complexes import CochainComplex
    from .linalg import RationalMatrix
    _expect_keys(doc, "", {"min_degree", "dims"}, {"differentials", "filtration"})
    min_degree = doc["min_degree"]
    _expect(isinstance(min_degree, int) and not isinstance(min_degree, bool),
            "/min_degree", "expected an integer")
    raw_dims = doc["dims"]
    _expect(isinstance(raw_dims, list) and raw_dims and all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in raw_dims),
        "/dims", "expected a nonempty list of nonnegative integers")
    dims = {min_degree + i: d for i, d in enumerate(raw_dims)}
    raw_diffs = doc.get("differentials", [])
    _expect(isinstance(raw_diffs, list) and len(raw_diffs) <= max(len(raw_dims) - 1, 0),
            "/differentials",
            f"expected at most {max(len(raw_dims) - 1, 0)} matrices")
    diffs = {}
    for i, raw in enumerate(raw_diffs):
        k = min_degree + i
        diffs[k] = _load_matrix(raw, dims[k + 1], dims[k], f"/differentials/{i}")
    try:
        complex_ = CochainComplex(dims, diffs)
    except ValueError as exc:
        raise SchemaError("/differentials", str(exc)) from None
    filtration = None
    if "filtration" in doc:
        raw_filt = doc["filtration"]
        _expect(isinstance(raw_filt, list), "/filtration", "expected a list of levels")
        filtration = []
        for li, raw_level in enumerate(raw_filt):
            lp = f"/filtration/{li}"
            _expect(isinstance(raw_level, list) and len(raw_level) == len(raw_dims), lp,
                    f"expected one basis list per degree ({len(raw_dims)})")
            level = {}
            for i, raw_cols in enumerate(raw_level):
                k = min_degree + i
                cp = f"{lp}/{i}"
                _expect(isinstance(raw_cols, list), cp, "expected a list of basis columns")
                # the basis columns, each entry i of them joined into row i
                columns = _ratio_rows(raw_cols, len(raw_cols), dims[k], cp)
                level[k] = RationalMatrix.from_ratios(dims[k], len(raw_cols), zip(*columns))
            filtration.append(level)
    return complex_, filtration


# --- canonical output --------------------------------------------------------------------


def canonical_json(doc: Any) -> str:
    """The report text of ``doc``, as the module docstring describes."""
    return _encode(doc, "\n") + "\n"


def _encode(value: Any, indent: str) -> str:
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
