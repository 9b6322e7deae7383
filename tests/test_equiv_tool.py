"""Self-test of ``tools/equiv.py``: it finds no difference between a tree
and itself, and finds the differences that a known mutation makes in a
copy."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "equiv.py")
WORKLOADS = ("plan_chain", "plan_random", "verify_ring")

# appended to the copy's ``cutplan/__init__.py``: wraps two public functions
# and edits no line of the source, so no refactor can break it
MUTATION = """

def _mutate():
    import cutplan.cutsim

    plan, estimate = run_pipeline, cutplan.cutsim.cut_estimate

    def run_pipeline_in_random_order(graph, max_qubits, **kwargs):
        # a seeded random visit order in place of the weighted one
        return plan(graph, max_qubits, **{**kwargs, "order": "random", "seed": 0})

    def cut_estimate_at_the_next_seed(circuit, cuts, obs, eps, seed=0):
        return estimate(circuit, cuts, obs, eps, seed=seed + 1)

    globals()["run_pipeline"] = run_pipeline_in_random_order
    cutplan.cutsim.cut_estimate = cut_estimate_at_the_next_seed


_mutate()
"""


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
    with open(tmp_path / "src" / "cutplan" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write(MUTATION)
    out = _equiv(ROOT, str(tmp_path))
    assert out.returncode == 1, out.stdout + out.stderr
    differ = _differ(out.stdout)
    assert sorted(differ) == sorted(WORKLOADS)
    assert all(differ[w] > 0 for w in WORKLOADS), out.stdout
