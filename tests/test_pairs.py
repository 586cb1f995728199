"""The verdicts of ``tools/pairs.py`` on fixed pairs of benchmark numbers, and
the trees it exports."""

import importlib.util
import subprocess
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).parents[1] / "tools" / "pairs.py")
pairs_tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs_tool)


def verdict(parent, change, higher_is_better=False, bound=0.25):
    pairs = [({"m": p}, {"m": c}) for p, c in zip(parent, change)]
    return pairs_tool.summary("m", higher_is_better, bound, pairs)["verdict"]


PARENT = [7.0, 7.2, 6.9, 7.4, 7.1, 7.3, 7.0, 6.8, 7.2, 7.1]   # median 7.1, IQR 0.2


def test_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parent_iqr():
    faster = [p - 2.5 for p in PARENT]
    assert verdict(PARENT, faster) == "gain"
    # the same, lower-is-better read as higher-is-better: 10 losses of 35%
    assert verdict(PARENT, faster, higher_is_better=True) == "worse"
    # 8 wins in 10 are not enough
    assert verdict(PARENT, faster[:8] + [8.0, 8.0]) == "within bound"
    # 10 wins, but the medians differ by 0.1, less than the parent's IQR
    assert verdict(PARENT, [p - 0.1 for p in PARENT]) == "within bound"
    # 5 wins in 5 pairs are too few pairs to read a gain
    assert verdict(PARENT[:5], faster[:5]) == "within bound"


def test_worse_is_a_median_past_the_bound():
    assert verdict(PARENT, [p * 1.3 for p in PARENT]) == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT]) == "within bound"
    throughput = [100, 104, 98, 102, 101, 99, 103, 100, 97, 101]
    assert verdict(throughput, [t * 0.7 for t in throughput], higher_is_better=True) == "worse"


def test_unresolved_is_a_parent_spread_wider_than_the_bound():
    wide = [4.0, 10.0, 5.0, 9.0, 6.0, 8.0, 7.0, 11.0, 3.0, 7.0]   # median 7, IQR 4
    assert verdict(wide, [w + 0.5 for w in wide]) == "unresolved"
    assert verdict(wide, [1.0] * 10) == "gain"
    # every change run beats every parent run, by less than the parent's IQR
    skewed = [6.9, 7.0, 7.0, 7.0, 7.05, 7.1, 10.0, 11.0, 12.0, 13.0]   # IQR 3.75
    assert verdict(skewed, [6.8] * 10) == "within bound"
    assert verdict(skewed, [6.95] * 10) == "unresolved"


def test_report_lines_give_one_summary_and_one_verdict_per_metric():
    metrics = [{"name": "p50", "better": "lower", "bound": 0.25},
               {"name": "rps", "better": "higher", "bound": 0.25}]
    pairs = [({"p50": p, "rps": 1 / p}, {"p50": p - 2.5, "rps": 1 / (p - 2.5)})
             for p in PARENT]
    lines = pairs_tool.report_lines("stalk", "abc123", pairs, metrics)
    assert lines[0] == "\nstalk, 10 pairs, parent abc123 against the working tree"
    assert [line.split(":")[0] for line in lines[1:3]] == ["p50", "rps"]
    assert "change better 10/10" in lines[1]
    assert lines[3:] == ["verdict p50: gain", "verdict rps: gain"]


def git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@localhost", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def test_the_change_side_exports_uncommitted_edits(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "module.py").write_text("VALUE = 1\n")
    git(repo, "add", "module.py")
    git(repo, "commit", "-q", "-m", "first")
    # a clean tree exports HEAD
    assert pairs_tool.working_tree_ref(repo) == "HEAD"
    (repo / "module.py").write_text("VALUE = 2\n")
    (repo / "added.py").write_text("NEW = 3\n")
    git(repo, "add", "added.py")
    (repo / "untracked.py").write_text("\n")
    status = git(repo, "status", "--porcelain")
    ref = pairs_tool.working_tree_ref(repo)
    pairs_tool.export(ref, tmp_path / "change", repo)
    pairs_tool.export("HEAD", tmp_path / "parent", repo)
    assert (tmp_path / "change" / "module.py").read_text() == "VALUE = 2\n"
    assert (tmp_path / "change" / "added.py").read_text() == "NEW = 3\n"
    assert not (tmp_path / "change" / "untracked.py").exists()
    assert (tmp_path / "parent" / "module.py").read_text() == "VALUE = 1\n"
    # the working tree, the index and the refs are as they were
    assert git(repo, "status", "--porcelain") == status
    assert git(repo, "stash", "list") == ""
