"""Self-test of ``tools/pairs.py``: one short pair of a tree against itself
gives a summary line per end-to-end metric, the medians of the wall set-up
and reference times and the failure counts, and two trees whose benchmarks
differ are refused. No timing is asserted."""

import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "pairs.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("_pairs_under_test", TOOL)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def test_pairs_runs_a_tree_against_itself():
    out = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "plan_chain", "--pairs", "1",
                          "--first-seed", "3", "--seconds", "0.2"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("# pair 1 seed 3 OLD first: setup_s ")
    assert lines[1] == "plan_chain: 1 pair(s), seeds 3-3, 0.2 s"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    summary = {ln.partition(":")[0]: ln for ln in lines[2:2 + len(names)]}
    assert list(summary) == names
    # one pair has no quartile spread, and an equal lq_sum is a tie
    assert summary["lq_sum"].endswith("NEW/OLD 1.0000; NEW better on 0 of 1; gain rule fails")
    wall = lines[2 + len(names):4 + len(names)]
    for line, name in zip(wall, ("setup_s", "ref_s")):
        match = re.fullmatch(rf"wall {name}: OLD median (\S+), NEW median (\S+), "
                             r"NEW/OLD \d+\.\d{4}", line)
        assert match and all(float(x) > 0 for x in match.groups()), line
    assert lines[-3].startswith("OLD failures per seed: 3: ")
    assert lines[-2].startswith("NEW failures per seed: 3: ")
    assert lines[-1] == "failure counts identical per seed: yes"


def test_pairs_refuses_trees_whose_benchmarks_differ(tmp_path):
    for name in ("perfbench", "BENCHMARK.json"):
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, tmp_path / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".perfbench-out"))
        else:
            shutil.copy(src, tmp_path / name)
    with open(tmp_path / "perfbench" / "gen.py", "a", encoding="utf-8") as fh:
        fh.write("\n# edited\n")
    out = subprocess.run([sys.executable, TOOL, ROOT, str(tmp_path), "plan_chain",
                          "--pairs", "1", "--first-seed", "1"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: the trees' benchmarks differ in perfbench/gen.py\n"


@pytest.mark.parametrize("old, new, better, won, gain", [
    ([1.0, 1.1, 1.2, 1.3], [0.8, 0.9, 1.0, 1.1], "lower", 4, True),
    ([1.0, 1.1, 1.2, 1.3], [1.2, 1.3, 1.4, 1.5], "higher", 4, True),
    # better on every pair, but by less than the quartile spread
    ([1.0, 1.1, 1.2, 1.3], [0.95, 1.05, 1.15, 1.25], "lower", 4, False),
    # far better in the median, but only on 3 of 4 pairs
    ([1.0, 1.1, 1.2, 1.3], [0.5, 0.6, 0.7, 1.4], "lower", 3, False),
    ([1.0, 1.0], [1.0, 1.0], "lower", 0, False),
])
def test_pairs_gain_rule(old, new, better, won, gain):
    s = _load_tool().compare(old, new, better)
    assert (s["won"], s["gain"]) == (won, gain)
    assert s["old"][1] == statistics.median(old)
