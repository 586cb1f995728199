"""Alternating pairs of benchmark runs: a git ref against the working tree.

    python3 tools/pairs.py --ref HEAD --workload nilpotent --seeds 71-80
    python3 tools/pairs.py --ref main --workload stalk --seeds 91 92 93
    python3 tools/pairs.py --ref main --workload stalk spectral nilpotent divisor --seeds 1-10

Both sides are exported once with ``git archive`` into sibling directories
of one temporary directory, so that where a tree sits cannot tell the sides
apart: the ref, and the working tree as HEAD plus its uncommitted edits to
tracked files (a ``git stash create`` commit, or HEAD when there are none;
untracked files are left out until they are added).  Each workload named by
``--workload`` runs the same seeds in turn and gets its own pairs, summary
and verdicts.  Each pair runs the unchanged ``bench/run.py --workload W
--seed S --seconds T --trace 0``, with T the ``run_seconds`` of
``BENCHMARK.json``, once in each export, with the same seed on both sides;
which side runs first alternates from pair to pair.  For every end-to-end metric
of ``BENCHMARK.json`` it prints each pair, each side's median and quartiles,
the pairs the change wins (ties count for neither) and whether every change
run beats every parent run, then one verdict per metric, with the metric's
``bound`` taken as a fraction of the parent's median:

- ``gain``: at least 10 pairs were run, the change wins at least 9 pairs in
  10, and its median is better than the parent's by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  bound;
- ``unresolved``: the parent's interquartile range is wider than the bound,
  and not every change run beats every parent run;
- ``within bound``: anything else.

Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def working_tree_ref(root: Path = ROOT) -> str:
    """A commit of HEAD plus the uncommitted edits to tracked files, made
    without touching the working tree, the index or any ref; HEAD when there
    are no such edits."""
    created = subprocess.run(
        ["git", "-c", "user.name=pairs", "-c", "user.email=pairs@localhost", "stash", "create"],
        cwd=root, check=True, capture_output=True, text=True).stdout.strip()
    return created or "HEAD"


def export(ref: str, into: Path, root: Path = ROOT) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=root,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"bench/run.py reported failures in {tree}:\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def seed_list(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(name: str, higher_is_better: bool, bound: float,
            pairs: list[tuple[dict, dict]]) -> dict:
    parent = [p[name] for p, _ in pairs]
    change = [c[name] for _, c in pairs]

    def better(a: float, b: float) -> bool:
        return a > b if higher_is_better else a < b

    s = {
        "metric": name,
        "parent_median": statistics.median(parent),
        "parent_quartiles": quartiles(parent),
        "change_median": statistics.median(change),
        "change_quartiles": quartiles(change),
        "change_wins": sum(better(c, p) for p, c in zip(parent, change)),
        "every_change_run_beats_every_parent_run": all(
            better(c, p) for c in change for p in parent),
    }
    # how much better the change's median is; negative when it is worse
    gain = s["change_median"] - s["parent_median"]
    gain = gain if higher_is_better else -gain
    iqr = s["parent_quartiles"][1] - s["parent_quartiles"][0]
    allowed = bound * abs(s["parent_median"])
    if len(pairs) >= 10 and 10 * s["change_wins"] >= 9 * len(pairs) and gain > iqr:
        s["verdict"] = "gain"
    elif -gain > allowed:
        s["verdict"] = "worse"
    elif iqr > allowed and not s["every_change_run_beats_every_parent_run"]:
        s["verdict"] = "unresolved"
    else:
        s["verdict"] = "within bound"
    return s


def run_pairs(workload: str, seeds: list[int], parent_tree: Path, change_tree: Path,
              metrics: list[dict], seconds: float) -> list[tuple[dict, dict]]:
    """(parent, change) metrics of one pair per seed, printed as they come."""
    pairs = []
    for index, seed in enumerate(seeds):
        sides = [("parent", parent_tree), ("change", change_tree)]
        if index % 2:
            sides.reverse()
        run = {side: bench(tree, workload, seed, seconds) for side, tree in sides}
        pairs.append((run["parent"], run["change"]))
        print(f"pair {index + 1} seed {seed} ({sides[0][0]} first): " + ", ".join(
            f"{m['name']} {run['parent'][m['name']]:.4g} -> {run['change'][m['name']]:.4g}"
            for m in metrics), flush=True)
    return pairs


def report_lines(workload: str, ref: str, pairs: list[tuple[dict, dict]],
                 metrics: list[dict]) -> list[str]:
    """The summary of one workload's pairs, then one verdict per metric."""
    report = [summary(m["name"], m["better"] == "higher", m["bound"], pairs) for m in metrics]
    lines = [f"\n{workload}, {len(pairs)} pairs, parent {ref} against the working tree"]
    for s in report:
        beats = "yes" if s["every_change_run_beats_every_parent_run"] else "no"
        lines.append(f"{s['metric']}: parent {s['parent_median']:.4g} "
                     f"[{s['parent_quartiles'][0]:.4g}, {s['parent_quartiles'][1]:.4g}], "
                     f"change {s['change_median']:.4g} "
                     f"[{s['change_quartiles'][0]:.4g}, {s['change_quartiles'][1]:.4g}], "
                     f"change better {s['change_wins']}/{len(pairs)}, every change run beats "
                     f"every parent run: {beats}")
    lines += [f"verdict {s['metric']}: {s['verdict']}" for s in report]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--workload", nargs="+", required=True,
                        help="one or more workloads, each run on every seed")
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="one seed per pair: numbers or ranges like 71-80")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent_tree, change_tree = Path(tmp) / "parent", Path(tmp) / "change"
        export(args.ref, parent_tree)
        export(working_tree_ref(), change_tree)
        for workload in args.workload:
            print(f"{workload}:", flush=True)
            pairs = run_pairs(workload, seed_list(args.seeds), parent_tree, change_tree,
                              metrics, seconds)
            print("\n".join(report_lines(workload, args.ref, pairs, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
