"""Check every golden report under one or more Python interpreters.

    python3 tools/goldens.py
    python3 tools/goldens.py --python python3.10 python3.12 /usr/local/bin/python3.13

Each entry of ``tests/goldens.json`` names a file in ``tests/golden/``, the
argv that makes it (file names relative to ``tests/fixtures``), its format
and its exit code.  Under each interpreter (default: the one running this
script), every entry runs as ``python -m loghodgelab.cli ARGV --format F
--out FILE`` in a fresh process, from ``tests/fixtures`` and with this
checkout's ``src`` first on ``PYTHONPATH``.  The report bytes and the exit
code must equal the golden's.

Usage errors are checked against the interpreter's own argparse, not
stored text: for every argv of `usage_argvs`, ``python -m loghodgelab.cli
ARGV`` must print the same stdout and stderr, and exit with the same code,
as the full parse ``build_parser().parse_args(ARGV)`` in another fresh
process.  Prints each difference and one summary line per interpreter, and
exits 1 on any difference.  Stdlib only: the interpreters need no pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


def check(python: str, entries: list[dict], workdir: Path) -> list[str]:
    """The differences between each entry's run under ``python`` and its golden."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    differences = []
    for entry in entries:
        out = workdir / entry["golden"]
        proc = subprocess.run(
            [python, "-m", "loghodgelab.cli", *entry["argv"], "--format", entry["format"],
             "--out", str(out)],
            cwd=TESTS / "fixtures", env=env, capture_output=True, text=True, timeout=300)
        if proc.returncode != entry["code"]:
            differences.append(f"{entry['golden']}: exit {proc.returncode}, expected "
                               f"{entry['code']}: {proc.stderr.strip()}")
        elif not out.exists():
            differences.append(f"{entry['golden']}: no report written")
        elif out.read_bytes() != (TESTS / "golden" / entry["golden"]).read_bytes():
            differences.append(f"{entry['golden']}: report bytes differ")
    return differences


def usage_argvs() -> list[list[str]]:
    """For each command: ``-h``, an unknown option, a missing required
    option and a non-integer value of each integer option; and ``lhl``,
    ``lhl --help`` and an unknown command.  File options name no file:
    argparse opens none."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from loghodgelab.cli import COMMANDS

    def argv(name: str, values: dict[str, str]) -> list[str]:
        return [name, *(word for pair in values.items() for word in pair)]

    argvs = [[], ["--help"], ["nosuch"]]
    for name, (_, _, options, _) in COMMANDS.items():
        required = {flag: "1" if kwargs.get("type") is int else "x"
                    for flag, kwargs in options if kwargs.get("required")}
        argvs += [[name, "-h"], argv(name, {**required, "--bogus": "1"}),
                  argv(name, dict(list(required.items())[:-1]))]
        argvs += [argv(name, {**required, flag: "x"})
                  for flag, kwargs in options if kwargs.get("type") is int]
    return argvs


USAGE_ARGVS = usage_argvs()
FULL_PARSE = "import sys; from loghodgelab.cli import build_parser; build_parser().parse_args()"


def check_usage(python: str) -> list[str]:
    """The argvs of `usage_argvs` whose run under ``python`` differs from the
    full parse's, in stdout, stderr or exit code."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    differences = []
    for argv in USAGE_ARGVS:
        runs = [subprocess.run([python, *route, *argv], env=env, capture_output=True, text=True,
                               timeout=300)
                for route in (["-m", "loghodgelab.cli"], ["-c", FULL_PARSE])]
        if len({(p.returncode, p.stdout, p.stderr) for p in runs}) > 1:
            lhl, full = ((p.returncode, p.stderr.strip().splitlines()[-1:]) for p in runs)
            differences.append(f"usage {argv}: exit and last stderr line {lhl}, "
                               f"full parse {full}")
    return differences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--python", nargs="+", default=[sys.executable],
                        help="interpreters to run the goldens under")
    args = parser.parse_args()
    entries = json.loads((TESTS / "goldens.json").read_text(encoding="utf-8"))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for i, python in enumerate(args.python):
            version = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                                     capture_output=True, text=True).stdout.strip()
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            differences = check(python, entries, workdir)
            usage = check_usage(python)
            for line in differences + usage:
                print(f"{python}: {line}")
            print(f"{python} ({version or 'did not start'}): "
                  f"{len(entries) - len(differences)} of {len(entries)} goldens match, "
                  f"{len(USAGE_ARGVS) - len(usage)} of {len(USAGE_ARGVS)} usage errors "
                  f"match the full parse")
            failed = failed or bool(differences + usage) or not version
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
