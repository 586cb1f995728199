"""What a request pays for besides its math: ``cli.main`` builds its parser
once per process, a command loads only the modules it uses, and nothing one
call parses carries over into the next."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loghodgelab.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"

# every subcommand: argv on the fixtures, and the package modules a fresh
# process has loaded once that command has run
ARGV_AND_MODULES = {
    "cone-complex": (["--in", "ex42.json"], {"conecx", "complexes", "linalg"}),
    "validate-weights": (["--complex", "wedge_fan.json", "--weights", "w111.json"],
                         {"weights", "conecx", "complexes", "linalg"}),
    "trop-cohomology": (["--complex", "ex42.json", "--weights", "ex42_cell_weights.json"],
                        {"trop", "weights", "conecx", "complexes", "linalg"}),
    "trop-ss": (["--complex", "ex42.json", "--weights", "ex42_cell_weights.json",
                 "--thresholds", "2"], {"trop", "weights", "conecx", "complexes", "linalg"}),
    "log-hodge": (["--fan", "p2_fan.json"], {"toric"}),
    "divisor-cohomology": (["--fan", "p2_fan.json", "--divisor", "p2_canonical_divisor.json"],
                           {"toric"}),
    "obstruction-stalk": (["--n", "2", "--r", "2", "--window", "2"],
                          {"localmodel", "complexes", "linalg"}),
    "local-cohomology": (["--n", "2", "--r", "1", "--window", "2", "--subset", "1",
                          "--form-degree", "0"], {"localmodel", "complexes", "linalg"}),
    "monodromy": (["--in", "nilpotent_3plus1.json"], {"monodromy", "linalg"}),
    "spectral-sequence": (["--in", "circle_complex.json"], {"complexes", "linalg"}),
}
COMMANDS = sorted(ARGV_AND_MODULES)


def fixture_argv(command: str) -> list[str]:
    args, _ = ARGV_AND_MODULES[command]
    return [command] + [str(FIXTURES / a) if a.endswith(".json") else a for a in args]


def python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


LOADED = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('loghodgelab.'))))\n")


def test_import_loads_no_domain_module():
    proc = python("-c", "import loghodgelab.cli\n" + LOADED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["loghodgelab.cli", "loghodgelab.jsonio"]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_modules(command, tmp_path):
    argv = fixture_argv(command) + ["--out", str(tmp_path / "report.txt")]
    proc = python("-c", f"from loghodgelab.cli import main\n"
                        f"assert main({argv!r}) == 0\n" + LOADED)
    assert proc.returncode == 0, proc.stderr
    expected = {"cli", "jsonio"} | ARGV_AND_MODULES[command][1]
    assert json.loads(proc.stdout) == sorted(
        f"loghodgelab.{name}" for name in expected)


def test_parser_is_built_once_per_process():
    # one root parser and one subparser per command, however many calls
    argv = fixture_argv("monodromy") + ["--out", os.devnull]
    proc = python("-c", f"import argparse\n"
                        f"built = []\n"
                        f"init = argparse.ArgumentParser.__init__\n"
                        f"def counted(self, *a, **k):\n"
                        f"    built.append(1)\n"
                        f"    init(self, *a, **k)\n"
                        f"argparse.ArgumentParser.__init__ = counted\n"
                        f"from loghodgelab.cli import main\n"
                        f"for _ in range(5):\n"
                        f"    assert main({argv!r}) == 0\n"
                        f"print(len(built))\n")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 1 + len(COMMANDS)


def test_no_state_carries_over_between_calls(tmp_path):
    # each option is given, then left out, in one process; every report
    # equals a fresh process's report for the same argv
    spectral = fixture_argv("spectral-sequence") + ["--format", "json"]
    trop = fixture_argv("trop-ss")[:-2] + ["--format", "json"]
    cone = fixture_argv("cone-complex")
    sequence = [spectral + ["--r-max", "1"], spectral,
                trop + ["--thresholds", "2"], trop,
                cone + ["--format", "table"], cone + ["--format", "json"], cone]
    for i, argv in enumerate(sequence):
        assert main(argv + ["--out", str(tmp_path / f"in-process-{i}")]) == 0
    for i, argv in enumerate(sequence):
        fresh = tmp_path / f"fresh-{i}"
        proc = python("-m", "loghodgelab.cli", *argv, "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / f"in-process-{i}").read_bytes() == fresh.read_bytes(), argv


def test_help_names_every_command():
    proc = python("-m", "loghodgelab.cli", "--help")
    assert proc.returncode == 0
    assert len(COMMANDS) == 10 and all(command in proc.stdout for command in COMMANDS)


# every subcommand's help line and options, as the parser had them before
# the subcommands came from one table: (option strings, dest, default, type,
# choices, required, help) per option, the -h action left out
OUT_FORMAT = [
    (("--out",), "out", None, None, None, False, "write the report to this file (atomic)"),
    (("--format",), "format", "table", None, ("table", "json"), False, None),
]
IN = [(("--in",), "infile", None, None, None, True, None)]
WEIGHTED = [(("--complex",), "complex", None, None, None, True, None),
            (("--weights",), "weights", None, None, None, True, None)]
MODEL = [(("--n",), "n", None, int, None, True, None),
         (("--r",), "r", None, int, None, True, None),
         (("--window",), "window", 3, int, None, False, None)]
EXPECTED_OPTIONS = {
    "cone-complex": ("build a cone complex from intersection data", IN + OUT_FORMAT),
    "validate-weights": ("positivity, convexity and face coefficients", WEIGHTED + OUT_FORMAT),
    "trop-cohomology": ("weighted tropical cohomology dims", WEIGHTED + OUT_FORMAT),
    "trop-ss": ("sublevel weight filtration spectral sequence", WEIGHTED + [
        (("--thresholds",), "thresholds", None, None, None, False,
         "comma-separated rational thresholds")] + OUT_FORMAT),
    "log-hodge": ("log Hodge table of a smooth complete fan", [
        (("--fan",), "fan", None, None, None, True, None),
        (("--twist",), "twist", "zero", None, None, False,
         "'zero' or a path to a divisor file")] + OUT_FORMAT),
    "divisor-cohomology": ("h^q of a divisor on a fan", [
        (("--fan",), "fan", None, None, None, True, None),
        (("--divisor",), "divisor", None, None, None, True, None)] + OUT_FORMAT),
    "obstruction-stalk": ("direct cone vs Mayer-Vietoris assembled stalk", MODEL + [
        (("--flavor",), "flavor", "log", None, ("holo", "log"), False, None)] + OUT_FORMAT),
    "local-cohomology": ("graded local cohomology supported on boundary coordinates", MODEL + [
        (("--subset",), "subset", None, None, None, True, "comma-separated coordinates, 1-based"),
        (("--form-degree",), "form_degree", None, int, None, True, None)] + OUT_FORMAT),
    "monodromy": ("Jordan type and monodromy weight filtration", IN + [
        (("--center",), "center", 0, int, None, False, None)] + OUT_FORMAT),
    "spectral-sequence": ("pages of a filtered complex", IN + [
        (("--r-max",), "r_max", None, int, None, False, None)] + OUT_FORMAT),
}


def test_every_subcommand_keeps_its_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    actual = {
        name: (helps[name], [(tuple(a.option_strings), a.dest, a.default, a.type,
                              tuple(a.choices) if a.choices else None, a.required, a.help)
                             for a in p._actions if a.dest != "help"])
        for name, p in sub.choices.items()}
    assert actual == EXPECTED_OPTIONS
    assert list(actual) == list(EXPECTED_OPTIONS)  # the order --help lists them in
