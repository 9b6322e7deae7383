"""Self-test of ``tools/ab.py``: it times a tree against itself and prints
a finite ratio, and it times what the benchmark times. No timing is
asserted."""

import importlib.util
import math
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import cutplan
from cutplan import cutsim
from cutplan.qasm import to_qasm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab.py")


def _run(workload, *args):
    out = subprocess.run([sys.executable, TOOL, ROOT, ROOT, workload, "1", "--scale", "0.02",
                          *args], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("workload", ["verify_ring", "plan_chain"])
def test_ab_times_a_tree_against_itself(workload):
    lines = _run(workload)
    (line,) = [ln for ln in lines if ln.startswith("NEW/OLD median ratio ")]
    ratio, _, won = line.removeprefix("NEW/OLD median ratio ").partition("; NEW faster on ")
    assert math.isfinite(float(ratio)) and float(ratio) > 0
    won, _, total = won.removesuffix(" operations").partition(" of ")
    assert 0 <= int(won) <= int(total) and int(total) > 0


def test_ab_prints_each_repetitions_ratio_and_their_range():
    """With several repetitions the overall lines stay, and one more line
    gives each repetition's median ratio and their range."""
    lines = _run("verify_ring", "--reps", "3")
    prefix = "NEW/OLD median ratio per repetition "
    assert len([ln for ln in lines if ln.startswith("NEW/OLD median ratio ")]) == 2
    (line,) = [ln for ln in lines if ln.startswith(prefix)]
    ratios, _, spread = line.removeprefix(prefix).partition("; range ")
    ratios = [float(x) for x in ratios.split()]
    assert len(ratios) == 3 and all(math.isfinite(x) and x > 0 for x in ratios)
    assert spread == f"{min(ratios):.4f} to {max(ratios):.4f}"


def test_ab_refuses_a_module_outside_its_tree(tmp_path):
    """A copy whose module imports ``cutplan`` by its absolute name would
    time another tree's code; the tool fails instead."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "cutplan" / "cutsim" / "observable.py", "a",
              encoding="utf-8") as fh:
        fh.write("\nimport cutplan.qasm\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, TOOL, ROOT, str(tmp_path), "verify_ring", "1",
                          "--scale", "0.02"], capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert "ImportError: loading the tree imported a package called 'cutplan'" in out.stderr


def test_ab_times_an_estimate_on_built_gates():
    """The benchmark's untimed exact value builds ``circuit.gates`` before it
    times ``cut_estimate``, so the tool's timed estimate finds them built."""
    spec = importlib.util.spec_from_file_location("_ab_under_test", TOOL)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    built = []
    fake = types.SimpleNamespace(
        ring_cuts=cutsim.ring_cuts, pauli_z_observable=cutsim.pauli_z_observable,
        cut_estimate=lambda circuit, *args, **kwargs: built.append("gates" in vars(circuit)))
    circuit = cutsim.ring_circuit(np.random.default_rng(0).uniform(0.0, 6.0, (2, 8, 2)))
    ab._estimate(cutplan, fake, (3, 0.03, to_qasm(circuit), 1))()
    assert built == [True]
