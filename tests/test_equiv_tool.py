"""Self-test of ``tools/equiv.py``: it finds no difference between a tree
and itself, finds the differences that a known mutation makes in a copy,
records an estimate's allocation apart from what it sampled, names a
stage-row key that only one tree has without counting it, counts every
plan and each tree's failures per kind in its quality ledger, and names the
largest rise and fall of ``lq`` with each tree's R."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "equiv.py")
WORKLOADS = ("plan_chain", "plan_random", "verify_ring")
# the parts of an estimate's record, in the order the tool records them
ESTIMATE_PARTS = ["circuit", "allocation", "estimate", "exact", "moments"]

# appended to the copy's ``cutplan/__init__.py``: wraps two public functions
# and edits no line of the source, so no refactor can break it
MUTATION = """

def _mutate():
    import cutplan.cutsim

    plan, estimate = run_pipeline, cutplan.cutsim.cut_estimate

    def run_pipeline_at_half_the_cap(graph, max_qubits, **kwargs):
        # half the cap asked for, but never below 1
        return plan(graph, max(1, max_qubits // 2), **kwargs)

    def cut_estimate_at_the_next_seed(circuit, cuts, obs, eps, seed=0):
        return estimate(circuit, cuts, obs, eps, seed=seed + 1)

    globals()["run_pipeline"] = run_pipeline_at_half_the_cap
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


def _differing_parts(stdout):
    """The parts that the tool's per-operation lines name, per workload."""
    parts, workload = {}, None
    for line in stdout.splitlines():
        head, _, rest = line.partition(": ")
        if head in WORKLOADS:
            workload = head
            parts[workload] = set()
        elif head.startswith("  op "):
            parts[workload].update(rest.split(", "))
    return parts


def _load_tool():
    spec = importlib.util.spec_from_file_location("equiv", TOOL)
    equiv = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(equiv)
    return equiv


def _ledgers(stdout):
    """(better, worse, equal) per plan workload, from the ledger lines."""
    counts = {}
    for line in stdout.splitlines():
        m = re.match(r"(\w+) ledger: .*; (\d+) better, (\d+) worse, (\d+) equal; ", line)
        if m:
            counts[m[1]] = tuple(map(int, m.groups()[1:]))
    return counts


def test_equiv_finds_no_difference_between_a_tree_and_itself(tmp_path, monkeypatch):
    out = _equiv(ROOT, ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    assert _differ(out.stdout) == dict.fromkeys(WORKLOADS, 0)
    assert "seed 1: 0 differing operation(s)" in out.stdout
    # the records compared there: every ring estimate holds its exact value
    # and exact moments as parts of their own
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool's imports extend it
    equiv = _load_tool()
    corpus, records = tmp_path / "corpus.json", tmp_path / "records.json"
    equiv.build_corpora(ROOT, 1, 0.02, corpus)
    equiv.run_tree(ROOT, corpus, records)
    with open(records, encoding="utf-8") as fh:
        ring = json.load(fh)["records"]["verify_ring"]
    assert [list(record) for record in ring] == [ESTIMATE_PARTS] * 8


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
    # the next seed draws other shots from the same allocation
    assert _differing_parts(out.stdout)["verify_ring"] == {"estimate"}, out.stdout


def test_equiv_records_the_allocation_apart_from_the_sampled_estimate():
    """A change of seed moves the ``estimate`` part only; the allocation
    and the exact values stay."""
    import cutplan
    import cutplan.cutsim
    from cutplan.qasm import to_qasm

    equiv = _load_tool()
    qasm = to_qasm(cutplan.cutsim.ring_circuit([[[0.3, 1.1]] * 8] * 2))
    first, second = (equiv._estimate(cutplan, cutplan.cutsim, 3, 0.1, qasm, seed)
                     for seed in (1, 2))
    assert list(first) == list(second) == ESTIMATE_PARTS
    assert first["allocation"] == second["allocation"]
    assert first["estimate"] != second["estimate"]
    assert (first["exact"], first["moments"]) == (second["exact"], second["moments"])


def test_ledger_of_a_tree_against_itself_holds_every_plan():
    out = _equiv(ROOT, ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    assert _ledgers(out.stdout) == {"plan_chain": (0, 0, 3), "plan_random": (0, 0, 1)}
    assert re.search(r"^plan_chain ledger: lq_sum (\S+) -> \1; .*; largest rise none; "
                     r"failures none$", out.stdout, re.M), out.stdout
    for workload in ("plan_chain", "plan_random"):
        assert f"\n{workload} extremes: largest rise none; largest fall none\n" in out.stdout
    failures = re.search(r"^plan_random ledger: .*; failures (.+)$", out.stdout, re.M)[1]
    assert failures == "none" or all(re.fullmatch(r"(plan|report):\w+ (\d+) -> \2", kind)
                                     for kind in failures.split(", ")), out.stdout


def test_ledger_counts_every_plan_of_an_edited_copy(tmp_path):
    """Half the cap moves some plans: every plan lands in exactly one count,
    and a rise is named with its operation."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "cutplan" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write(MUTATION)
    out = _equiv(ROOT, str(tmp_path))
    assert out.returncode == 1, out.stdout + out.stderr
    ledgers = _ledgers(out.stdout)
    assert {w: sum(counts) for w, counts in ledgers.items()} == {"plan_chain": 3, "plan_random": 1}
    assert sum(better + worse for better, worse, _ in ledgers.values()) > 0, out.stdout
    for line in out.stdout.splitlines():
        if " ledger: " in line and "largest rise none; " not in line:
            assert re.search(r"largest rise \+\S+ at op \d+; failures ", line), line


def test_ledger_counts_each_trees_failures_per_kind():
    equiv = _load_tool()
    line = equiv.ledger("plan_random", [1.0, 2.0, None], [1.0, 2.0, 3.0],
                        [None, "report:OverflowError", "plan:ValueError"],
                        [None, "report:OverflowError", None])
    assert line.endswith("; largest rise none; failures plan:ValueError 1 -> 0, "
                         "report:OverflowError 1 -> 1"), line
    assert equiv.ledger("plan_chain", [1.0], [1.0], [None], [None]).endswith("; failures none")


def test_extremes_name_the_largest_rise_and_fall_with_each_trees_r():
    equiv = _load_tool()
    line = equiv.extremes("plan_chain", [1.0, 5.0, 3.0, None, 2.0], [1.5, 2.0, 3.0, 4.0, 2.2],
                          [2, 6, 3, None, 4], [3, 5, 3, 4, 4])
    assert line == ("plan_chain extremes: largest rise +0.5 at op 0, R 2 -> 3; "
                    "largest fall -inf at op 3, R none -> 4")
    line = equiv.extremes("plan_random", [1.0, 5.0], [1.0, 2.0], [2, 6], [2, 5])
    assert line == "plan_random extremes: largest rise none; largest fall -3 at op 1, R 6 -> 5"


def test_a_stage_key_one_tree_lacks_is_named_not_counted(capsys):
    """A stage-row key that only one tree's rows have is listed per workload;
    a changed value, or a plan that failed in one tree, still differs."""
    equiv = _load_tool()
    row = {"circuit": "c", "stages.step1.lq": "1", "stages.step2.lq": "2"}
    wire_lq = {"stages.step2.wire_lq": "3"}
    old = {"plan_chain": [row, row, {"plan": "ValueError: x"}], "plan_random": [],
           "verify_ring": []}
    new = {"plan_chain": [dict(row, **wire_lq),
                          dict(row, **{"stages.step2.lq": "4"}, **wire_lq),
                          dict(row, **wire_lq)],
           "plan_random": [], "verify_ring": []}
    assert equiv.compare(old, new) == 2
    out = capsys.readouterr().out
    assert "  op 1: stages.step2.lq\n" in out
    assert "  op 2: circuit, plan, stages.step1.lq, " in out
    assert "  stage keys only in NEW: stages.step2.wire_lq\n" in out
    assert "only in OLD" not in out
