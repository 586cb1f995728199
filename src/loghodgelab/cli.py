"""Command-line front door: parse input documents, dispatch computations,
emit a human-readable table or a canonical JSON report.

Exit codes: 0 success, 1 validation failure (any ``ValueError``: a domain
error or a cap; diagnostics on stderr), 2 malformed input (a ``SchemaError``,
with the JSON pointer of the offending field, on stderr).  Reports
carry a provenance block (input hashes, tool version, option values) and are
byte-identical across runs for identical inputs and options.

``main`` builds its parser once per process, on the first call, and each
command imports only the domain modules it uses.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import __version__
from . import jsonio
from .jsonio import SchemaError, canonical_json

DEFAULT_MAX_DIM = 2000


def _max_dim() -> int:
    raw = os.environ.get("LHL_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        raise SchemaError("LHL_MAX_DIM", f"not an integer: {raw!r}") from None
    if cap < 0:
        raise SchemaError("LHL_MAX_DIM", f"not a nonnegative integer: {raw!r}")
    return cap


def _check_cap(size: int, what: str):
    cap = _max_dim()
    if size > cap:
        raise ValueError(
            f"{what} needs dimension {size}, above the LHL_MAX_DIM cap of {cap}")


def _read_json(path: str, label: str) -> tuple[dict, dict]:
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise SchemaError(f"/{label}", f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"/{label}", f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise SchemaError(f"/{label}", f"invalid JSON in {path}: nested too deeply") from None
    meta = {"file": p.name, "sha256": hashlib.sha256(data).hexdigest()}
    return doc, meta


def _provenance(inputs: dict, options: dict) -> dict:
    return {
        "tool": "loghodgelab",
        "version": __version__,
        "inputs": {k: inputs[k] for k in sorted(inputs)},
        "options": {k: options[k] for k in sorted(options)},
    }


def _emit(args, result: dict, inputs: dict, options: dict, table_lines: list[str]) -> None:
    report = {"command": args.command, "provenance": _provenance(inputs, options),
              "result": result}
    if args.format == "json":
        text = canonical_json(report)
    else:
        text = "\n".join(table_lines) + "\n"
    if args.out:
        out = Path(args.out)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=str(out.parent) or ".", prefix=out.name)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            # mkstemp makes the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, out)
        except OSError as exc:
            raise SchemaError("/out", f"cannot write {args.out}: {exc.strerror}") from None
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
    else:
        sys.stdout.write(text)


def _load_cone_complex(path: str, label: str):
    """The cone complex of the intersection data at ``path``, capped, and the
    file's provenance."""
    from .conecx import build_cone_complex
    doc, meta = _read_json(path, label)
    complex_ = build_cone_complex(jsonio.load_intersection_data(doc))
    _check_cap(max((complex_.cell_count(p) for p in complex_.cells_by_dim), default=0),
               "cone complex cochain spaces")
    return complex_, meta


def _load_complex_and_weights(args):
    complex_, meta_c = _load_cone_complex(args.complex, "complex")
    doc_w, meta_w = _read_json(args.weights, "weights")
    ray_w, cell_w = jsonio.load_weights(doc_w)
    return complex_, ray_w, cell_w, {"complex": meta_c, "weights": meta_w}


def _divisor_cohomology(fan, divisor) -> tuple[dict[int, int], dict[int, int]]:
    """The floor of the QDivisor ``divisor`` and its h^q, the character sweep
    capped first."""
    from .toric import character_box, divisor_cohomology, sweep_rows
    floored = divisor.floor()
    box = character_box(fan, floored)
    _check_cap(sweep_rows(box), "divisor character sweep")
    return floored, divisor_cohomology(fan, floored, box)


def _local_model(args):
    """The local model of ``--n``, ``--r`` and ``--window``, capped.  The
    charge (2w+1)^n * 2^n is formed one coordinate at a time and abandoned
    once it passes the cap, so a huge n costs no huge integer."""
    from .localmodel import LocalModel
    model = LocalModel(args.n, args.r, args.window)
    cap, size = _max_dim(), 1
    for done in range(1, model.n + 1):
        size *= 2 * (2 * model.window + 1)
        if size > cap and done < model.n:
            raise ValueError(
                f"local model section space needs dimension over {size} after {done} of "
                f"{model.n} coordinates, above the LHL_MAX_DIM cap of {cap}")
    _check_cap(size, "local model section space")
    return model


# --- commands -----------------------------------------------------------------------


def cmd_cone_complex(args) -> int:
    from .conecx import simplicial_cohomology
    complex_, meta = _load_cone_complex(args.infile, "in")
    cohomology = simplicial_cohomology(complex_)
    result = {
        "cells_per_dim": {str(p): complex_.cell_count(p) for p in complex_.cells_by_dim},
        "cells": {str(p): [c.key() for c in complex_.cells(p)] for p in complex_.cells_by_dim},
        "euler_characteristic": complex_.euler_characteristic(),
        "cohomology": {str(k): v for k, v in sorted(cohomology.items())},
    }
    lines = ["cone complex"]
    for p in sorted(complex_.cells_by_dim):
        lines.append(f"  {p}-cells: {complex_.cell_count(p)}")
    lines.append(f"  euler characteristic: {complex_.euler_characteristic()}")
    for k, v in sorted(cohomology.items()):
        lines.append(f"  H^{k} = {v}")
    _emit(args, result, {"in": meta}, {}, lines)
    return 0


def cmd_validate_weights(args) -> int:
    from .weights import face_compatibility, validate_convexity, validate_positivity
    complex_, ray_w, cell_w, inputs = _load_complex_and_weights(args)
    if ray_w is None:
        raise SchemaError("/weights", "validate-weights expects ray weights "
                                      "(field 'rays')")
    positivity = validate_positivity(ray_w, complex_)
    result = {"positivity": positivity.to_json_dict()}
    lines = ["weight validation",
             f"  positivity: {'valid' if positivity.valid else 'INVALID'}"]
    for ray, value in positivity.offenders:
        lines.append(f"    ray {ray} has nonpositive weight {value}")
    convexity = None
    if complex_.ray_coordinates is not None and positivity.valid:
        convexity = validate_convexity(ray_w, complex_)
        result["convexity"] = convexity.to_json_dict()
        lines.append(f"  convexity: {'valid' if convexity.valid else 'INVALID'}")
        for v in convexity.violations:
            lines.append(f"    {v.describe()}")
    if positivity.valid:
        coeffs = face_compatibility(ray_w, complex_)
        result["face_coefficients"] = {
            cell: [{"face": face, "coefficient": str(co)} for face, co in pairs]
            for cell, pairs in sorted(coeffs.items())}
        lines.append("  face coefficients:")
        for cell, pairs in sorted(coeffs.items()):
            rendered = ", ".join(f"{face}: {co}" for face, co in pairs)
            lines.append(f"    {cell} = {rendered}")
    valid = positivity.valid and (convexity is None or convexity.valid)
    result["valid"] = valid
    lines.append(f"  verdict: {'valid' if valid else 'INVALID'}")
    _emit(args, result, inputs, {}, lines)
    if not valid:
        detail = "; ".join(v.describe() for v in (convexity.violations if convexity else []))
        print(f"validation failed: {detail or 'nonpositive weights'}", file=sys.stderr)
        return 1
    return 0


def _trop_complex(args):
    from .trop import weighted_complex
    complex_, ray_w, cell_w, inputs = _load_complex_and_weights(args)
    weights = ray_w if ray_w is not None else jsonio.cell_weights_for(complex_, cell_w)
    return complex_, weighted_complex(complex_, weights), inputs


def cmd_trop_cohomology(args) -> int:
    from .trop import tropical_cohomology
    _, trop, inputs = _trop_complex(args)
    dims = tropical_cohomology(trop)
    result = {"cohomology": {str(k): v for k, v in sorted(dims.items())}}
    lines = ["weighted tropical cohomology"]
    for k, v in sorted(dims.items()):
        lines.append(f"  H^{k} = {v}")
    _emit(args, result, inputs, {}, lines)
    return 0


def cmd_trop_ss(args) -> int:
    from .trop import default_thresholds, weight_filtration_ss
    _, trop, inputs = _trop_complex(args)
    options = {}
    if args.thresholds is None:
        thresholds = default_thresholds(trop)
    else:
        thresholds = [jsonio.parse_rational(part.strip(), "/thresholds")
                      for part in args.thresholds.split(",") if part.strip()]
        if not thresholds:
            raise SchemaError("/thresholds",
                              f"expected at least one rational: {args.thresholds!r}")
        options["thresholds"] = [str(t) for t in thresholds]
    # t thresholds give t + 1 levels, so pages 0 .. t + 2
    _check_cap(len(thresholds) + 3, "trop-ss pages")
    report = weight_filtration_ss(trop, thresholds)
    result = report.to_json_dict()
    lines = ["weight filtration spectral sequence",
             f"  thresholds: {', '.join(map(str, report.thresholds))}",
             f"  degenerates at first page: {'yes' if report.degenerates_at_e1 else 'no'}"]
    if report.first_nonzero_differential is not None:
        lines.append(f"  first nonzero differential on page {report.first_nonzero_differential}")
    totals = ", ".join(f"H^{k}={v}" for k, v in sorted(report.e_infinity_totals.items()))
    lines.append(f"  limit totals: {totals}")
    _emit(args, result, inputs, options, lines)
    return 0


def cmd_log_hodge(args) -> int:
    from .toric import QDivisor, e1_sum_check, log_hodge_table
    doc, meta = _read_json(args.fan, "fan")
    fan = jsonio.load_fan(doc)
    inputs = {"fan": meta}
    options = {"twist": args.twist}
    if args.twist == "zero":
        twist = QDivisor.zero(fan)
    else:
        doc_t, meta_t = _read_json(args.twist, "twist")
        twist = jsonio.load_divisor(doc_t, fan)
        inputs["twist"] = meta_t
        options["twist"] = "file"
    table = log_hodge_table(fan.rank, twist, _divisor_cohomology(fan, twist)[1])
    result = {"table": table.to_json_dict()}
    lines = ["log Hodge numbers h^q(forms^p twisted)"]
    header = "  p\\q " + " ".join(f"{q:>4}" for q in range(fan.rank + 1))
    lines.append(header)
    for p in range(fan.rank + 1):
        row = " ".join(f"{table.entry(p, q):>4}" for q in range(fan.rank + 1))
        lines.append(f"  {p:>3} {row}")
    if twist.is_zero():
        check = e1_sum_check(table)
        result["e1_sum_check"] = check.to_json_dict()
        verdict = "PASS" if check.passed else "FAIL"
        lines.append(f"  e1-sum check: {verdict}")
        for k, (total, expected, ok) in sorted(check.per_degree.items()):
            lines.append(f"    degree {k}: {total} (expected {expected}) "
                         f"{'ok' if ok else 'MISMATCH'}")
    _emit(args, result, inputs, options, lines)
    return 0


def cmd_divisor_cohomology(args) -> int:
    doc, meta = _read_json(args.fan, "fan")
    fan = jsonio.load_fan(doc)
    doc_d, meta_d = _read_json(args.divisor, "divisor")
    divisor = jsonio.load_divisor(doc_d, fan)
    floored, h = _divisor_cohomology(fan, divisor)
    result = {
        "floored_divisor": {str(i): v for i, v in floored.items()},
        "cohomology": {str(q): v for q, v in sorted(h.items())},
    }
    lines = ["divisor cohomology",
             "  floored divisor: " + ", ".join(f"D{i}:{v}" for i, v in floored.items())]
    for q, v in sorted(h.items()):
        lines.append(f"  h^{q} = {v}")
    _emit(args, result, {"fan": meta, "divisor": meta_d}, {}, lines)
    return 0


def cmd_obstruction_stalk(args) -> int:
    from .localmodel import HOLOMORPHIC, LOGARITHMIC, assemble_stalk
    flavor = {"holo": HOLOMORPHIC, "log": LOGARITHMIC}[args.flavor]
    model = _local_model(args)
    report = assemble_stalk(model, flavor)
    result = report.to_json_dict()
    lines = [f"obstruction stalk (n={model.n}, r={model.r}, window={model.window}, "
             f"source={flavor})"]
    for p in sorted(report.direct):
        lines.append(f"  degree {p}: direct {report.direct[p]}, "
                     f"assembled {report.assembled.get(p, 0)}")
    lines.append(f"  dual-method match: {'yes' if report.matches else 'NO'}")
    options = {"n": args.n, "r": args.r, "window": args.window, "flavor": args.flavor}
    _emit(args, result, {}, options, lines)
    if not report.matches:
        print("assembled Mayer-Vietoris stalk disagrees with the direct cone",
              file=sys.stderr)
        return 1
    return 0


def cmd_local_cohomology(args) -> int:
    from .localmodel import koszul_local_cohomology
    model = _local_model(args)
    try:
        subset = [int(part) for part in args.subset.split(",") if part.strip()]
    except ValueError:
        raise SchemaError("/subset", f"not comma-separated integers: {args.subset!r}") from None
    dims = koszul_local_cohomology(model, subset, args.form_degree)
    result = {
        "subset": sorted(set(subset)),
        "form_degree": args.form_degree,
        "graded_dims": {",".join(map(str, mu)): v for mu, v in sorted(dims.items())},
        "total": sum(dims.values()),
    }
    lines = [f"local cohomology supported on z_I, I={sorted(set(subset))}, "
             f"form degree {args.form_degree}",
             f"  total dimension in window: {sum(dims.values())}"]
    for mu, v in sorted(dims.items()):
        lines.append(f"  multidegree ({','.join(map(str, mu))}): {v}")
    options = {"n": args.n, "r": args.r, "window": args.window,
               "subset": args.subset, "form_degree": args.form_degree}
    _emit(args, result, {}, options, lines)
    return 0


def cmd_monodromy(args) -> int:
    from .monodromy import NilpotentOperator, jordan_type, stratum_weight, weight_filtration
    doc, meta = _read_json(args.infile, "in")
    matrix = jsonio.load_nilpotent_matrix(doc)
    _check_cap(matrix.rows, "monodromy operator")   # before any power of N is formed
    operator = NilpotentOperator(matrix)
    filtration = weight_filtration(operator, args.center)
    partition = jordan_type(operator)
    weight = stratum_weight(operator)
    result = {
        "dimension": operator.dimension,
        "jordan_type": list(partition),
        "stratum_weight": str(weight),
        "weight_filtration": filtration.to_json_dict(),
    }
    lines = ["monodromy weight data",
             f"  dimension: {operator.dimension}",
             f"  jordan type: {list(partition)}",
             f"  stratum weight: {weight}"]
    for l, d in filtration.level_dims().items():
        lines.append(f"  dim W_{l} = {d}")
    for l, d in filtration.graded_dims().items():
        lines.append(f"  dim Gr_{l} = {d}")
    _emit(args, result, {"in": meta}, {"center": args.center}, lines)
    return 0


def cmd_spectral_sequence(args) -> int:
    from .complexes import FilteredComplex, spectral_sequence
    doc, meta = _read_json(args.infile, "in")
    complex_, filtration = jsonio.load_generic_complex(doc)
    _check_cap(max(complex_.dims.values(), default=0), "complex")
    fc = FilteredComplex(complex_, filtration or [])
    shown = fc.depth + 1 if args.r_max is None else max(args.r_max, 0)
    _check_cap(shown + 1, "spectral-sequence pages")
    pages = spectral_sequence(fc, shown)
    first = fc.first_nonzero_differential
    ok = first is None
    result = {
        "pages": [p.to_json_dict() for p in pages],
        "degenerates_at_e1": ok,
        "first_nonzero_differential": first,
        "e_infinity_totals": {str(k): v for k, v in fc.e_infinity_totals.items()},
    }
    lines = ["filtration spectral sequence",
             f"  degenerates at first page: {'yes' if ok else 'no'}"]
    if first is not None:
        lines.append(f"  first nonzero differential on page {first}")
    for page in pages:
        entries = ", ".join(f"E^{{{p},{q}}}={v}"
                            for (p, q), v in sorted(page.entries.items()))
        lines.append(f"  page {page.r}: {entries or 'empty'}")
    options = {}
    if args.r_max is not None:
        options["r_max"] = args.r_max
    _emit(args, result, {"in": meta}, options, lines)
    return 0


# --- parser -------------------------------------------------------------------------


# Each option group is written once; a command's options are the groups it
# lists, in order, then --out and --format.
_IN = [("--in", {"dest": "infile", "required": True})]
_FAN = [("--fan", {"required": True})]
_WEIGHTED = [("--complex", {"required": True}), ("--weights", {"required": True})]
_MODEL = [("--n", {"type": int, "required": True}), ("--r", {"type": int, "required": True}),
          ("--window", {"type": int, "default": 3})]
_COMMON = [("--out", {"help": "write the report to this file (atomic)"}),
           ("--format", {"choices": ("table", "json"), "default": "table"})]

COMMANDS = {
    "cone-complex": (cmd_cone_complex, "build a cone complex from intersection data", _IN),
    "validate-weights": (cmd_validate_weights, "positivity, convexity and face coefficients",
                         _WEIGHTED),
    "trop-cohomology": (cmd_trop_cohomology, "weighted tropical cohomology dims", _WEIGHTED),
    "trop-ss": (cmd_trop_ss, "sublevel weight filtration spectral sequence", _WEIGHTED + [
        ("--thresholds", {"help": "comma-separated rational thresholds"})]),
    "log-hodge": (cmd_log_hodge, "log Hodge table of a smooth complete fan", _FAN + [
        ("--twist", {"default": "zero", "help": "'zero' or a path to a divisor file"})]),
    "divisor-cohomology": (cmd_divisor_cohomology, "h^q of a divisor on a fan", _FAN + [
        ("--divisor", {"required": True})]),
    "obstruction-stalk": (cmd_obstruction_stalk, "direct cone vs Mayer-Vietoris assembled stalk",
                          _MODEL + [("--flavor", {"choices": ("holo", "log"), "default": "log"})]),
    "local-cohomology": (cmd_local_cohomology,
                         "graded local cohomology supported on boundary coordinates", _MODEL + [
        ("--subset", {"required": True, "help": "comma-separated coordinates, 1-based"}),
        ("--form-degree", {"type": int, "required": True})]),
    "monodromy": (cmd_monodromy, "Jordan type and monodromy weight filtration", _IN + [
        ("--center", {"type": int, "default": 0})]),
    "spectral-sequence": (cmd_spectral_sequence, "pages of a filtered complex", _IN + [
        ("--r-max", {"type": int})]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhl",
        description="Exact-arithmetic computations on cone complexes, weight "
                    "functions, toric log Hodge numbers, logarithmic local "
                    "models, monodromy filtrations and weighted tropical "
                    "cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in options + _COMMON:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
