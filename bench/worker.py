"""One workload run in a fresh process: set up, send the stream, check it.

    python3 bench/worker.py --workload stalk --seed 1 --workdir DIR --seconds 20
    python3 bench/worker.py --workload stalk --seed 1 --workdir DIR --requests 30 --trace FILE
    python3 bench/worker.py --workload stalk --seed 1 --workdir DIR --seconds 20 --setup-only

Set-up is the package import, generating the stream from the seed and
writing its input files.  Then one client sends the requests one after the
other (a closed loop), each through ``loghodgelab.cli.main`` with
``--format json --out FILE``, until the stream or the time runs out.  Only
then are the reports read, hashed and checked, so checking costs the
program nothing.  The result is one JSON line on stdout.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse
import hashlib
import json
import resource
import shutil
import sys
from math import ceil
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Requests generated per second of --seconds, 1.5 to 2 times what the
# baseline in README.md completes: the stream outlasts the run unless the
# program gets that much faster, and set-up stays short (creating a file costs
# ~0.5 ms on the machine these rates were set on).  The stalk stream is finite
# (390 requests) and this rate always generates all of it.
STREAM_RATE = {"stalk": 30, "spectral": 20, "nilpotent": 50, "divisor": 18}


def import_cli():
    sys.path.insert(0, str(SRC))
    import loghodgelab.cli
    if not Path(loghodgelab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"loghodgelab was imported from {loghodgelab.cli.__file__}, "
                         f"not from {SRC}")
    return loghodgelab.cli


def write_inputs(stream, workdir: Path) -> list[list[str]]:
    """Write every input file, once per distinct content; return each
    request's full argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    written: dict[str, str] = {}
    for i, request in enumerate(stream):
        paths = {}
        for name, doc in request.files.items():
            text = json.dumps(doc)
            if text not in written:
                written[text] = str(workdir / f"q{i:04d}-{name}")
                Path(written[text]).write_text(text, encoding="utf-8")
            paths[name] = written[text]
        argvs.append([paths.get(a, a) for a in request.argv]
                     + ["--format", "json", "--out", str(workdir / f"q{i:04d}-report.json")])
    return argvs


def send(cli, stream, argvs, seconds, tracer) -> tuple[list, float]:
    """Closed loop: each request starts when the previous one has returned.
    With ``seconds``, the loop stops at the first round boundary after it,
    so a run always sends whole rounds."""
    outcomes = []
    start = perf_counter()
    deadline = start + seconds if seconds else None
    for i, argv in enumerate(argvs):
        if (deadline is not None and perf_counter() >= deadline
                and stream[i].round != stream[i - 1].round):
            break
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            error = None if cli.main(argv) == 0 else "nonzero exit"
        except (Exception, SystemExit) as exc:
            error = f"raised {exc!r}"
        outcomes.append((perf_counter() - t0, error))
    return outcomes, perf_counter() - start


def verify(stream, argvs, outcomes) -> tuple[str, list[str]]:
    """sha256 over the report bytes in stream order, and the failures."""
    digest = hashlib.sha256()
    failures = []
    for i, (_, error) in enumerate(outcomes):
        request = stream[i]
        try:
            data = Path(argvs[i][-1]).read_bytes() if error is None else b""
        except OSError as exc:
            data, error = b"", f"no report: {exc}"
        digest.update(data)
        if error is None:
            try:
                oracles.check(request.kind, request.expect, json.loads(data), request.files)
            except (AssertionError, KeyError, TypeError, ValueError) as exc:
                error = f"oracle: {exc!r}"
        if error is not None:
            failures.append(f"request {i} ({' '.join(request.argv)}): {error}")
    return digest.hexdigest(), failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.STREAMS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--seconds", type=float, help="send requests for this long")
    size.add_argument("--requests", type=int, help="send exactly this many requests")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", help="trace layers and write the spans to this file")
    args = parser.parse_args()

    try:
        cli = import_cli()
        count = args.requests or ceil(args.seconds * STREAM_RATE[args.workload])
        stream = workloads.make_stream(args.workload, args.seed, count)[:args.requests]
        argvs = write_inputs(stream, args.workdir)
        setup_s = perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        outcomes, wall_s = send(cli, stream, argvs, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.dump(args.trace)
        digest, failures = verify(stream, argvs, outcomes)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s,
        "stream": len(stream),
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies": [t for t, _ in outcomes],
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
