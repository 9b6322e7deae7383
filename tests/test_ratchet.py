"""A ratchet of best-known plans: the worst log overhead ``lq`` of the plan
``run_pipeline`` returns for a fixed set of small seeded circuits may fall,
never rise.

``tests/data/lq_ratchet.json`` lists each case's circuit (``cx``/``cz``/``rzz``
gates on random pairs of wires, or an ``ising_chain``), its qubit cap and the
lowest ``lq`` a plan of it has reached. A golden digest fails on any change;
this test fails only on a worse plan. When a change to the planner lowers
some values,

    PYTHONPATH=src python tests/test_ratchet.py

writes each case's lower value into the file and prints it old -> new; it
never raises a value.
"""

import json
import math
import os

import numpy as np
import pytest

from cutplan.clustering import run_pipeline
from cutplan.fixtures import ising_chain
from cutplan.graph import build_cut_graph
from cutplan.qasm import CircuitIR, GateApp

from conftest import max_log_overhead_oracle

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "lq_ratchet.json")
TOL = 1e-9  # the planner's own tolerance on log overheads

with open(DATA, encoding="utf-8") as fh:
    CASES = json.load(fh)


def random_pairs(width: int, gates: int, seed: int) -> CircuitIR:
    """``gates`` gates, each ``cx``, ``cz`` or ``rzz`` (at an angle in
    [-pi, pi)) on two distinct random wires of ``width``."""
    rng = np.random.default_rng([seed, width, gates])
    apps = []
    for _ in range(gates):
        kind = ("cx", "cz", "rzz")[int(rng.integers(0, 3))]
        a, b = rng.choice(width, 2, replace=False).tolist()
        params = (float(rng.uniform(-math.pi, math.pi)),) if kind == "rzz" else ()
        apps.append(GateApp(kind, (a, b), params))
    return CircuitIR(width, tuple(apps), f"pairs_{width}_{gates}_{seed}")


def circuit(case: dict) -> CircuitIR:
    if case["family"] == "pairs":
        return random_pairs(case["width"], case["gates"], case["seed"])
    return ising_chain(case["width"], depth=case["depth"], seed=case["seed"])


def plan_lq(case: dict) -> float:
    """The worst log overhead of the returned plan, scored by the oracle
    after checking that the plan covers the graph within the cap."""
    graph = build_cut_graph(circuit(case))
    result = run_pipeline(graph, case["cap"])
    result.clustering.validate(graph)
    return max_log_overhead_oracle(graph, result.clustering.assignment)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_no_plan_is_worse_than_its_best_known(case):
    lq = plan_lq(case)
    assert lq <= case["lq"] + TOL, f"{case['id']}: lq {lq!r} above the best known {case['lq']!r}"


def lower(path: str = DATA) -> None:
    """Write each case's lower ``lq`` into ``path``, printing old -> new."""
    for case in CASES:
        lq = plan_lq(case)
        if lq < case["lq"] - TOL:
            print(f"{case['id']}: {case['lq']!r} -> {lq!r}")
            case["lq"] = lq
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CASES, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    lower()
