"""Checks of the benchmark itself, at reduced size.

    python3 -m pytest bench/test_bench.py

Each workload runs twice on the same seed and must write byte-identical
reports with no failure; a traced run must write the same bytes again.  Each
oracle must reject a report with one number changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import workloads
import worker

HERE = Path(__file__).resolve().parent
REQUESTS = 6


def run_worker(tmp_path: Path, workload: str, tag: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "11",
         "--workdir", str(tmp_path / tag), "--requests", str(REQUESTS), *extra],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.STREAMS))
def test_reports_are_reproducible_and_correct(tmp_path, workload):
    first = run_worker(tmp_path, workload, "first")
    second = run_worker(tmp_path, workload, "second")
    traced = run_worker(tmp_path, workload, "traced", "--trace", str(tmp_path / "spans.json"))
    for run in (first, second, traced):
        assert run["attempted"] == REQUESTS
        assert run["failed"] == 0, run["failures"]
    assert first["digest"] == second["digest"] == traced["digest"]
    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["layers"].index("cli") in {layer for _, _, layer, _, _ in trace["spans"]}


def test_streams_have_no_repeats_and_stable_prefixes():
    for workload in workloads.STREAMS:
        stream = workloads.make_stream(workload, 5, 200)
        keys = [json.dumps([r.argv, r.files], sort_keys=True) for r in stream]
        assert len(set(keys)) == len(keys), workload
        shorter = workloads.make_stream(workload, 5, 50)
        assert [r.argv for r in shorter] == [r.argv for r in stream[:len(shorter)]]


def _bump_first_int(node):
    """Add one to the first integer found in a JSON value; True if found."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            node[key] = value + 1
            return True
        if isinstance(value, (dict, list)) and _bump_first_int(value):
            return True
    return False


# (request kind, path to a checked part of the result)
MUTATIONS = [("obstruction-stalk", ["direct"]), ("local-cohomology", ["graded_dims"]),
             ("trop-ss", ["e_infinity_totals"]), ("spectral-sequence", ["e_infinity_totals"]),
             ("monodromy", ["weight_filtration", "graded_dims"]),
             ("divisor-cohomology", ["cohomology"]), ("log-hodge", ["table", "entries"])]


@pytest.mark.parametrize("kind,path", MUTATIONS)
def test_oracles_reject_a_changed_number(tmp_path, kind, path):
    request = next(r for w in workloads.STREAMS for r in workloads.make_stream(w, 3, 40)
                   if r.kind == kind)
    cli = worker.import_cli()
    argv = worker.write_inputs([request], tmp_path)[0]
    assert cli.main(argv) == 0
    report = json.loads(Path(argv[-1]).read_text())
    oracles.check(kind, request.expect, report, request.files)
    part = report["result"]
    for key in path:
        part = part[key]
    assert _bump_first_int(part)
    with pytest.raises(AssertionError):
        oracles.check(kind, request.expect, report, request.files)
