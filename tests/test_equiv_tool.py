"""Self-test of ``tools/equiv.py``: it finds no difference between a tree
and itself, and finds the differences that known edits make in a copy."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "equiv.py")
WORKLOADS = ("plan_chain", "plan_random", "verify_ring")

# (module under src/cutplan, text, replacement); each text occurs once
EDITS = [
    # the weighted visit order ascending instead of descending
    ("clustering.py", "key=self.k.__getitem__, reverse=True)", "key=self.k.__getitem__)"),
    # c and the ordinal swapped in every variant's seed
    ("cutsim/estimator.py", "head = seed_words + _words(c)\n", "head = seed_words\n"),
    ("cutsim/estimator.py", "rows.append(head + _words(ordinal))",
     "rows.append(head + _words(ordinal) + _words(c))"),
]


def _equiv(old_tree, new_tree):
    """The tool on seed 1's corpora at scale 0.02: 3 chain plans, 1 random
    plan and 8 ring estimates."""
    return subprocess.run([sys.executable, TOOL, old_tree, new_tree, "1", "--scale", "0.02"],
                          capture_output=True, text=True)


def _differ(stdout):
    """Differing operations per workload, from the tool's summary lines."""
    counts = {}
    for line in stdout.splitlines():
        workload, _, rest = line.partition(": ")
        if workload in WORKLOADS:
            counts[workload] = int(rest.split(", ")[1].split()[0])
    return counts


def test_equiv_finds_no_difference_between_a_tree_and_itself():
    out = _equiv(ROOT, ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    assert _differ(out.stdout) == dict.fromkeys(WORKLOADS, 0)
    assert "seed 1: 0 differing operation(s)" in out.stdout


def test_equiv_finds_the_differences_of_an_edited_copy(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module, text, replacement in EDITS:
        path = tmp_path / "src" / "cutplan" / module
        source = path.read_text(encoding="utf-8")
        assert source.count(text) == 1, (module, text)
        path.write_text(source.replace(text, replacement), encoding="utf-8")
    out = _equiv(ROOT, str(tmp_path))
    assert out.returncode == 1, out.stdout + out.stderr
    differ = _differ(out.stdout)
    assert sorted(differ) == sorted(WORKLOADS)
    assert all(differ[w] > 0 for w in WORKLOADS), out.stdout
