"""Seeded request-stream benchmark for the ``lhl`` CLI.

    python3 bench/run.py --workload stalk --seed 1 --seconds 20 --trace 0

Each workload is a closed-loop stream of distinct ``lhl`` requests from one
client in one fresh process (``worker.py``); workloads and their reasons are
listed in ``BENCHMARK.json``.  The program is imported from ``src/`` of the
checkout this file sits in; nothing is installed.

``--trace 0`` prints the end-to-end metrics: the median set-up time of
``SETUP_SAMPLES`` fresh processes, request latency p50 and p90, throughput,
the share of requests that succeeded and the worker's peak RSS.

``--trace 1`` runs the stream untraced for a quarter of ``--seconds``, then
the same requests traced, traced again and untraced, each in a fresh
process, and prints per-layer metrics per request from the spans of the two
traced runs (``layertrace.py``), with the tracing overhead.  All four runs
must write byte-identical reports.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A request fails on a nonzero exit, an exception
or an oracle mismatch (``oracles.py``); any failure makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_run"
WORKLOADS = ("stalk", "spectral", "nilpotent", "divisor")
SETUP_SAMPLES = 5
# every worker of a run must have ended this long after the run started
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, tag: str, *extra: str, deadline: float) -> dict:
    """Run worker.py to completion, killing it at ``deadline`` (monotonic)."""
    workdir = RUNS / f"{workload}-{seed}-{os.getpid()}-{tag}"
    env = {k: v for k, v in os.environ.items() if k != "LHL_MAX_DIM"}
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir), *extra],
            capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} worker still running at the {DEADLINE_S} s deadline") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    run = worker(workload, seed, "run", "--seconds", str(seconds), deadline=deadline)
    # after the timed run, so that their file writes do not overlap it
    setup = [run["setup_s"]] + [
        worker(workload, seed, f"setup{i}", "--seconds", str(seconds), "--setup-only",
               deadline=deadline)["setup_s"]
        for i in range(1, SETUP_SAMPLES)]
    latencies = run["latencies"]
    if len(latencies) < 2:
        raise BenchError(f"only {len(latencies)} requests completed")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "req_p50_s": (quantile(latencies, 50), "s"),
        "req_p90_s": (quantile(latencies, 90), "s"),
        "throughput_rps": (len(latencies) / run["wall_s"], "1/s"),
        "success_ratio": ((run["attempted"] - run["failed"]) / run["attempted"], "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    beyond = sum(1 for t in latencies if t > metrics["req_p90_s"][0])
    print(f"{workload} seed {seed}: {len(latencies)} of {run['stream']} requests in "
          f"{run['wall_s']:.2f} s, {beyond} beyond p90, report sha256 {run['digest']}, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    return run, metrics


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Untraced, traced, traced and untraced runs of the same requests: the
    ABBA order cancels a steady drift in machine speed from the overhead."""
    runs = [worker(workload, seed, "plain1", "--seconds", str(seconds / 4),
                   deadline=deadline)]
    count = runs[0]["attempted"]
    traces = []
    for tag in ("traced1", "traced2", "plain2"):
        extra = ["--requests", str(count)]
        if tag.startswith("traced"):
            spans = RUNS / f"{tag}-{workload}-{seed}.json"
            extra += ["--trace", str(spans)]
        runs.append(worker(workload, seed, tag, *extra, deadline=deadline))
        if tag.startswith("traced"):
            traces.append(json.loads(spans.read_text(encoding="utf-8")))
    plain_s = runs[0]["wall_s"] + runs[3]["wall_s"]
    traced_s = runs[1]["wall_s"] + runs[2]["wall_s"]
    failures = [failure for run in runs for failure in run["failures"]]
    if len({run["digest"] for run in runs}) != 1:
        failures.append("traced and untraced runs wrote different reports: "
                        + ", ".join(run["digest"] for run in runs))
    totals: dict[str, float] = {}
    for trace in traces:
        for name, value in list(layer_totals(trace).items()) + list(trace["counts"].items()):
            if name == "linalg.max_elim_dim":
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value / (2 * count)
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in totals.items()}
    metrics["trace.overhead"] = (traced_s / plain_s - 1, "ratio")
    print(f"{workload} seed {seed}: {count} requests, untraced {plain_s:.2f} s, traced "
          f"{traced_s:.2f} s, {sum(len(t['spans']) for t in traces)} spans in "
          f"{RUNS.relative_to(ROOT)}, report sha256 {runs[0]['digest']}")
    return {"attempted": 4 * count, "failed": sum(run["failed"] for run in runs),
            "failures": failures}, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded request-stream benchmark for lhl.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        run, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
