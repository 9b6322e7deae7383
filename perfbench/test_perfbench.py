"""Self-tests of the benchmark harness: checks, generators, tracer, and a
smoke run of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cutplan import build_cut_graph, build_report, parse_qasm, run_pipeline
from cutplan.clustering import Clustering
from cutplan.cutsim import (cut_estimate, expectation_value, pauli_z_observable,
                            ring_circuit, ring_cuts)
from cutplan.fixtures import ising_chain
from cutplan.graph import DEFAULT_WEIGHTS
from perfbench import checks, gen
from perfbench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _plan(width=12, cap=4):
    graph = build_cut_graph(ising_chain(width, 1, seed=3))
    result = run_pipeline(graph, cap)
    return graph, result, build_report(result.clustering, graph, eps=0.03)


# -- checks ---------------------------------------------------------------------

def test_checks_pass_a_real_plan():
    graph, result, report = _plan()
    lq = checks.worst_log_overhead(graph, result.clustering.assignment)
    assert lq == pytest.approx(report.lq, abs=1e-9)
    assert checks.plan_faults(graph, result.clustering, 4, lq, report) == []


def test_checks_reject_a_clustering_over_the_cap():
    graph, _, _ = _plan()
    whole = Clustering.from_assignment(graph, {n.id: 0 for n in graph.nodes}, max_qubits=99)
    lq = checks.worst_log_overhead(graph, whole.assignment)
    assert checks.plan_faults(graph, whole, 4, lq, None) == ["cap_exceeded"]
    assert checks.over_cap(graph, whole.assignment, 4) == [0]


def test_checks_reject_a_wrong_lq_and_r():
    graph, result, report = _plan()
    lq = checks.worst_log_overhead(graph, result.clustering.assignment)
    wrong_lq = dataclasses.replace(report, lq=report.lq + 1e-3)
    assert checks.plan_faults(graph, result.clustering, 4, lq, wrong_lq) == ["lq_mismatch"]
    wrong_r = dataclasses.replace(report, r=report.r + 1)
    assert checks.plan_faults(graph, result.clustering, 4, lq, wrong_r) == ["r_mismatch"]


def test_ring_oracle_and_budget_check_agree_with_cutplan():
    rng = np.random.default_rng(5)
    obs = pauli_z_observable(range(8))
    circuit = ring_circuit(rng.uniform(0.0, 2.0 * np.pi, size=(2, 8, 2)))
    assert checks.z_parity(circuit) == pytest.approx(expectation_value(circuit, obs), abs=1e-12)
    for partitions in (3, 4):
        cuts = ring_cuts(partitions)
        lq_parts = checks.gate_cut_lq(circuit, [c.gate_index for c in cuts], DEFAULT_WEIGHTS)
        assert len(lq_parts) == partitions
        n_c = cut_estimate(circuit, cuts, obs, 0.03).allocation.n_c
        assert not checks.budget_short(n_c, lq_parts, 0.03)
        assert checks.budget_short({c: n // 2 for c, n in n_c.items()}, lq_parts, 0.03)


def test_a_failing_estimate_is_counted_and_the_run_goes_on():
    from perfbench import run, workloads

    first = {k: m for k, m in sys.modules.items() if k.startswith("cutplan")}
    try:
        api = run.import_cutplan()
    finally:
        sys.modules.update(first)
    corpus = gen.ring_corpus(2, 0.05)
    broken = dataclasses.replace(corpus[0], qasm="OPENQASM 2.0;\nnot_a_gate q[0];\n")
    out = workloads.run_estimates(api, [broken] + corpus[1:])
    assert out.attempted == len(corpus) and len(out.op_spans) == len(corpus) - 1
    raised = [k for k in out.kinds if ":" in k]
    assert len(raised) == 1 and raised[0].startswith("parse:")
    # lq_sum comes from the estimator's budgets, N_c = exp(lq_c) / eps^2
    weights = api.DEFAULT_WEIGHTS
    independent = sum(max(checks.gate_cut_lq(
        parse_qasm(x.qasm), [c.gate_index for c in ring_cuts(x.partitions)], weights))
        for x in corpus[1:])
    assert out.lq_sum == pytest.approx(independent, rel=1e-3)


# -- generators -------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(gen.CORPORA))
def test_corpora_are_deterministic_in_the_seed(workload):
    make = gen.CORPORA[workload]
    first, again, other = make(7, 0.2), make(7, 0.2), make(8, 0.2)
    assert first == again
    assert [x.qasm for x in first] != [x.qasm for x in other]


def test_random_matching_layers_pair_every_wire_once():
    text = gen.random_matching_qasm(10, 3, seed=11)
    assert text == gen.random_matching_qasm(10, 3, seed=11)
    circuit = parse_qasm(text)
    pairs = [g.qubits for g in circuit.gates if g.kind == "cz"]
    assert len(pairs) == 3 * 5
    for layer in range(3):
        wires = sorted(q for p in pairs[5 * layer:5 * layer + 5] for q in p)
        assert wires == list(range(10))


def test_full_corpora_have_the_documented_shape():
    chain = gen.chain_corpus(1)
    assert len(chain) == 3 * gen.CHAIN_STRATA >= 100
    assert {x.cap for x in chain} == set(gen.CHAIN_CAPS)
    random = gen.random_corpus(1)
    assert len(random) == gen.RANDOM_STRATA ** 2 >= 100
    ring = gen.ring_corpus(1)
    assert len(ring) == len(gen.RING_PRESETS) * gen.RING_REPS


# -- tracer ------------------------------------------------------------------------

def test_self_time_subtracts_children():
    tracer = Tracer()
    root = tracer.add("op", 0.0, 10.0, op=0)
    mid = tracer.add("a", 1.0, 5.0, op=0, parent=root)
    tracer.add("b", 2.0, 3.0, op=0, parent=mid)
    tracer.add("c", 6.0, 9.0, op=0, parent=root)
    own = tracer.self_times()
    assert own == pytest.approx({"op": 3.0, "a": 3.0, "b": 1.0, "c": 3.0})
    assert tracer.leaf_time(root, tracer.children()) == pytest.approx(4.0)


def test_span_survives_an_exception():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom", op=0):
            raise ValueError
    assert tracer.spans[0].end >= tracer.spans[0].start > 0.0


# -- reference seconds -------------------------------------------------------------

def test_pace_scales_by_the_kernel_timings_near_the_interval():
    from perfbench import pace

    p = pace.Pace()
    p.marks = [(0.0, pace.REF_S), (0.5, 2 * pace.REF_S), (1.5, 2 * pace.REF_S),
               (10.0, 4 * pace.REF_S)]
    # within NEAR_S of the midpoint 0.75: the first three, median 2 * REF_S
    assert p.scale(0.5, 0.5) == pytest.approx(0.25)
    # none that close to 6.0: the nearest one, at 10.0
    assert p.scale(5.0, 2.0) == pytest.approx(0.5)
    assert p.ref_s() == pytest.approx(2 * pace.REF_S)


# -- smoke runs ------------------------------------------------------------------------

def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result():
    bare = os.path.join(ROOT, ".perfbench-out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "plan_chain", 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
