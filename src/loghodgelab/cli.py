"""Command-line front door: parse input documents, dispatch computations,
emit a human-readable table or a canonical JSON report.

A command computes from its parsed documents and options alone: it opens no
file, prints nothing and returns its result, table lines, provenance options
and the message of a failed self-check, or ``None``.  ``run`` makes a report
from the bytes of a request's files without touching disk.  ``main`` alone
reads the files, writes the report and applies one rule for every command:
a failed self-check writes the report, names the failure on stderr and exits
1.  Exit codes: 0 success, 1 validation failure (any ``ValueError``: a domain
error or a cap), 2 malformed input (a ``SchemaError``, with the JSON pointer
of the offending field); diagnostics go to stderr.  Reports carry a
provenance block (input hashes, tool version, option values) and are
byte-identical across runs for identical inputs and options.  The parser is
built once per process, a request that opens with a command's name is
parsed by that command's subparser alone, and each command imports only the
modules it uses.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import stat
import sys

from . import __version__
from . import jsonio
from .jsonio import SchemaError, canonical_json

DEFAULT_MAX_DIM = 2000
TMP_ATTEMPTS = 100  # fresh temporary names tried per report, as mkstemp retries


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


def _read(path: str, label: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise SchemaError(f"/{label}", f"cannot read {path}: {exc}") from None


def _read_json(data: bytes, path: str, label: str):
    """The JSON document in ``data``, the bytes of ``path`` given for ``label``."""
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer literal over the digit limit
        raise SchemaError(f"/{label}", f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise SchemaError(f"/{label}", f"invalid JSON in {path}: nested too deeply") from None


def _write(text: str, out: str | None) -> None:
    """``text`` to stdout, or to the file ``out`` resolves to: a regular or
    absent file through a temporary file renamed onto it, a device or a FIFO
    in place.  Messages name ``out`` as given."""
    if not out:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")  # before any file exists: a failure here leaves none
    # a rename onto a symlink would replace the link
    target = os.path.realpath(out) if os.path.islink(out) else out
    try:
        try:
            in_place = not stat.S_ISREG(os.stat(target).st_mode)
        except FileNotFoundError:
            in_place = False
        if in_place:
            # a device or a FIFO: a rename would replace the node itself
            with open(os.open(target, os.O_WRONLY), "wb") as handle:
                handle.write(data)
            return
        for _ in range(TMP_ATTEMPTS):
            # beside the report, so the replace stays on one file system; the
            # kernel gives it mode 0666 less the umask, as a shell redirect would
            tmp = f"{target}.{os.urandom(8).hex()}.tmp"
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            try:
                with open(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
            return
        raise FileExistsError(errno.EEXIST, "No usable temporary file name found")
    except OSError as exc:
        raise SchemaError("/out", f"cannot write {out}: {exc.strerror}") from None


def _load_cone_complex(doc):
    """The cone complex of the intersection data ``doc``, capped."""
    from .conecx import build_cone_complex
    complex_ = build_cone_complex(jsonio.load_intersection_data(doc))
    _check_cap(max((complex_.cell_count(p) for p in complex_.cells_by_dim), default=0),
               "cone complex cochain spaces")
    return complex_


def _known_rays(ray_w, complex_):
    """``ray_w``, refused if it names a ray that ``complex_`` lacks."""
    from .conecx import ConeComplexError
    rays = {cell.components[0] for cell in complex_.cells(0)}
    for ray in ray_w.ray_values:
        if ray not in rays:
            raise ConeComplexError(f"unknown ray {ray!r}")
    return ray_w


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
# Each takes its documents by file label and the parsed options, and returns
# (result, table lines, provenance options, failure message or None).


def cmd_cone_complex(docs, args):
    from .conecx import simplicial_cohomology
    complex_ = _load_cone_complex(docs["in"])
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
    return result, lines, {}, None


def cmd_validate_weights(docs, args):
    from .weights import face_compatibility, validate_convexity, validate_positivity
    complex_ = _load_cone_complex(docs["complex"])
    ray_w, _ = jsonio.load_weights(docs["weights"])
    if ray_w is None:
        raise SchemaError("/weights", "validate-weights expects ray weights "
                                      "(field 'rays')")
    _known_rays(ray_w, complex_)
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
    if valid:
        return result, lines, {}, None
    detail = "; ".join(v.describe() for v in (convexity.violations if convexity else []))
    return result, lines, {}, f"validation failed: {detail or 'nonpositive weights'}"


def _trop_complex(docs):
    """The request's weighted complex; two keys naming one cell are refused."""
    from .conecx import ConeComplexError
    from .trop import CellWeights, weighted_complex
    complex_ = _load_cone_complex(docs["complex"])
    ray_w, cell_w = jsonio.load_weights(docs["weights"])
    if ray_w is not None:
        return weighted_complex(complex_, _known_rays(ray_w, complex_))
    keys = {}
    for key in cell_w:
        cell = complex_.find_cell(key)
        first = keys.setdefault(cell, key)
        if first != key:
            raise ConeComplexError(f"cell keys {first!r} and {key!r} name one cell {cell.key()}")
    values = {cell: cell_w[key] for cell, key in keys.items()}
    return weighted_complex(complex_, CellWeights(values))


def cmd_trop_cohomology(docs, args):
    from .trop import tropical_cohomology
    dims = tropical_cohomology(_trop_complex(docs))
    result = {"cohomology": {str(k): v for k, v in sorted(dims.items())}}
    lines = ["weighted tropical cohomology"]
    for k, v in sorted(dims.items()):
        lines.append(f"  H^{k} = {v}")
    return result, lines, {}, None


def cmd_trop_ss(docs, args):
    from .trop import default_thresholds, weight_filtration_ss
    trop = _trop_complex(docs)
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
    return result, lines, options, None


def cmd_log_hodge(docs, args):
    from .toric import QDivisor, e1_sum_check, log_hodge_table
    fan = jsonio.load_fan(docs["fan"])
    if "twist" in docs:
        twist = jsonio.load_divisor(docs["twist"], fan)
        options = {"twist": "file"}
    else:
        twist = QDivisor.zero(fan)
        options = {"twist": "zero"}
    table = log_hodge_table(fan.rank, twist, _divisor_cohomology(fan, twist)[1])
    result = {"table": table.to_json_dict()}
    lines = ["log Hodge numbers h^q(forms^p twisted)",
             "  p\\q " + " ".join(f"{q:>4}" for q in range(fan.rank + 1))]
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
    return result, lines, options, None


def cmd_divisor_cohomology(docs, args):
    fan = jsonio.load_fan(docs["fan"])
    divisor = jsonio.load_divisor(docs["divisor"], fan)
    floored, h = _divisor_cohomology(fan, divisor)
    result = {
        "floored_divisor": {str(i): v for i, v in floored.items()},
        "cohomology": {str(q): v for q, v in sorted(h.items())},
    }
    lines = ["divisor cohomology",
             "  floored divisor: " + ", ".join(f"D{i}:{v}" for i, v in floored.items())]
    for q, v in sorted(h.items()):
        lines.append(f"  h^{q} = {v}")
    return result, lines, {}, None


def cmd_obstruction_stalk(docs, args):
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
    failure = (None if report.matches else
               "assembled Mayer-Vietoris stalk disagrees with the direct cone")
    return result, lines, options, failure


def cmd_local_cohomology(docs, args):
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
    return result, lines, options, None


def cmd_monodromy(docs, args):
    from .monodromy import NilpotentOperator, jordan_type, stratum_weight, weight_filtration
    matrix = jsonio.load_nilpotent_matrix(docs["in"])
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
    return result, lines, {"center": args.center}, None


def cmd_spectral_sequence(docs, args):
    from .complexes import FilteredComplex, spectral_sequence
    complex_, filtration = jsonio.load_generic_complex(docs["in"])
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
    return result, lines, options, None


# --- parser -------------------------------------------------------------------------


# Each option group is written once; a command's options are the groups it
# lists, in order, then --out and --format.  Its file options are listed again
# as (label, dest) pairs: the label keys its document, its provenance entry
# and the pointer of a read error.
_IN = [("--in", {"dest": "infile", "required": True})]
_FAN = [("--fan", {"required": True})]
_WEIGHTED = [("--complex", {"required": True}), ("--weights", {"required": True})]
_MODEL = [("--n", {"type": int, "required": True}), ("--r", {"type": int, "required": True}),
          ("--window", {"type": int, "default": 3})]
_COMMON = [("--out", {"help": "write the report to this file (atomic)"}),
           ("--format", {"choices": ("table", "json"), "default": "table"})]
_IN_FILE = [("in", "infile")]
_WEIGHTED_FILES = [("complex", "complex"), ("weights", "weights")]

COMMANDS = {
    "cone-complex": (cmd_cone_complex, "build a cone complex from intersection data", _IN,
                     _IN_FILE),
    "validate-weights": (cmd_validate_weights, "positivity, convexity and face coefficients",
                         _WEIGHTED, _WEIGHTED_FILES),
    "trop-cohomology": (cmd_trop_cohomology, "weighted tropical cohomology dims", _WEIGHTED,
                        _WEIGHTED_FILES),
    "trop-ss": (cmd_trop_ss, "sublevel weight filtration spectral sequence", _WEIGHTED + [
        ("--thresholds", {"help": "comma-separated rational thresholds"})], _WEIGHTED_FILES),
    "log-hodge": (cmd_log_hodge, "log Hodge table of a smooth complete fan", _FAN + [
        ("--twist", {"default": "zero", "help": "'zero' or a path to a divisor file"})],
        [("fan", "fan"), ("twist", "twist")]),
    "divisor-cohomology": (cmd_divisor_cohomology, "h^q of a divisor on a fan", _FAN + [
        ("--divisor", {"required": True})], [("fan", "fan"), ("divisor", "divisor")]),
    "obstruction-stalk": (cmd_obstruction_stalk, "direct cone vs Mayer-Vietoris assembled stalk",
                          _MODEL + [("--flavor", {"choices": ("holo", "log"), "default": "log"})],
                          []),
    "local-cohomology": (cmd_local_cohomology,
                         "graded local cohomology supported on boundary coordinates", _MODEL + [
        ("--subset", {"required": True, "help": "comma-separated coordinates, 1-based"}),
        ("--form-degree", {"type": int, "required": True})], []),
    "monodromy": (cmd_monodromy, "Jordan type and monodromy weight filtration", _IN + [
        ("--center", {"type": int, "default": 0})], _IN_FILE),
    "spectral-sequence": (cmd_spectral_sequence, "pages of a filtered complex", _IN + [
        ("--r-max", {"type": int})], _IN_FILE),
}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and its subparser of each command, built once."""
    parser = argparse.ArgumentParser(
        prog="lhl",
        description="Exact-arithmetic computations on cone complexes, weight "
                    "functions, toric log Hodge numbers, logarithmic local "
                    "models, monodromy filtrations and weighted tropical "
                    "cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, options, files) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in options + _COMMON:
            p.add_argument(flag, **kwargs)
        # each file option with its default, which names no file to read
        p.set_defaults(func=func, files=[(label, dest, p.get_default(dest))
                                         for label, dest in files])
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one argparse pass when
    ``argv[0]`` names a command: its subparser alone parses the rest, and
    the arguments it leaves go to the root parser's error, as the full parse
    sends them.  Anything else takes the full parse."""
    parser, commands = _parsers()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def run(args, data: dict[str, bytes]) -> tuple[str, str | None]:
    """The report text of the parsed request ``args`` and its failure
    message or ``None``, computed from ``data``: the bytes of each file
    option read, by label.  Touches no file; raises ``SchemaError`` and
    ``ValueError`` as the command does."""
    docs, inputs = {}, {}
    for label, dest, _ in args.files:
        if label in data:
            path = getattr(args, dest)
            docs[label] = _read_json(data[label], path, label)
            inputs[label] = {"file": os.path.basename(path),
                             "sha256": hashlib.sha256(data[label]).hexdigest()}
    result, lines, options, failure = args.func(docs, args)
    if args.format == "json":   # canonical_json sorts every key
        provenance = {"tool": "loghodgelab", "version": __version__, "inputs": inputs,
                      "options": options}
        return canonical_json({"command": args.command, "provenance": provenance,
                               "result": result}), failure
    return "\n".join(lines) + "\n", failure


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        data = {label: _read(getattr(args, dest), label)
                for label, dest, default in args.files if getattr(args, dest) != default}
        text, failure = run(args, data)
        _write(text, args.out)
    except SchemaError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
