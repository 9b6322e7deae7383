import json
import math
import os
import subprocess
import sys

import pytest

import cutplan
from cutplan.clustering import (AuditError, Clustering, InfeasibleCapError,
                                _Level, _LogOverheadEngine, _ModularityEngine, modularity,
                                qubit_feasible, run_pipeline, step1_modularity,
                                step2_lq_min)
from cutplan.fixtures import chain3, ising_chain
from cutplan.graph import CutGraph, Node, build_cut_graph, contract
from cutplan.overhead import max_log_overhead
from cutplan.qasm import CircuitIR, GateApp

from conftest import best_feasible_log_overhead, make_edge, random_graph

LN2 = math.log(2)
LN9 = math.log(9)
LN16 = math.log(16)


def test_qubit_feasible_basic():
    g = CutGraph(
        (Node(0, frozenset({0, 1})), Node(1, frozenset({1})), Node(2, frozenset({2}))),
        (make_edge(0, 1, 4, 2), make_edge(1, 2, 4, 2)),
    )
    cl = Clustering.from_assignment(g, {0: 0, 1: 1, 2: 2}, 2)
    assert qubit_feasible(g, cl, 1, 0, 2)       # {0,1} | {1} -> union 2
    assert not qubit_feasible(g, cl, 2, 0, 2)   # {0,1} | {2} -> union 3


def test_qubit_feasible_matches_set_union(rng):
    for _ in range(50):
        g = random_graph(rng)
        cap = int(rng.integers(1, 5))
        assignment = {i: int(rng.integers(0, 3)) for i in range(g.num_nodes)}
        cl = Clustering.from_assignment(g, assignment, 99)
        i = int(rng.integers(0, g.num_nodes))
        for c in cl.clusters:
            expected = len(cl.clusters[c].qubits | g.nodes[i].qubits) <= cap
            assert qubit_feasible(g, cl, i, c, cap) == expected


def test_step1_separates_weak_components():
    # two dense blobs, thin bridge
    nodes = tuple(Node(i, frozenset({i})) for i in range(6))
    edges = []
    for a, b in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        edges.append(make_edge(a, b, 40.0, 2.0))
    edges.append(make_edge(2, 3, 1.01, 1.0))
    g = CutGraph(nodes, tuple(edges))
    cl = step1_modularity(g, max_qubits=3)
    assert cl.num_clusters == 2
    blocks = {frozenset(c.nodes) for c in cl.clusters.values()}
    assert blocks == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_step1_respects_cap_and_improves(rng):
    for _ in range(15):
        g = random_graph(rng, max_nodes=9)
        cap = int(rng.integers(1, 4))
        cl = step1_modularity(g, cap, audit=True)
        cl.validate(g)
        singles = Clustering.singletons(g, cap)
        assert modularity(g, cl) >= modularity(g, singles) - 1e-12


def test_step1_infeasible_cap():
    g = CutGraph((Node(0, frozenset({0, 1, 2})), Node(1, frozenset({3}))),
                 (make_edge(0, 1, 4, 2),))
    with pytest.raises(InfeasibleCapError):
        step1_modularity(g, max_qubits=2)


def test_step1_no_local_improvement_at_top_level():
    """After convergence no single supernode move may raise modularity."""
    g = build_cut_graph(ising_chain(16, seed=2))
    cl = step1_modularity(g, max_qubits=6)
    top = contract(g, cl)
    singles = Clustering.singletons(top, 6)
    base = modularity(top, singles)
    for node in top.nodes:
        for target in singles.clusters:
            if target == node.id:
                continue
            if not qubit_feasible(top, singles, node.id, target, 6):
                continue
            moved = {n.id: n.id for n in top.nodes}
            moved[node.id] = target
            trial = Clustering.from_assignment(top, moved, 99)
            assert modularity(top, trial) <= base + 1e-9


def test_step2_single_cluster_unchanged():
    g = CutGraph((Node(0, frozenset({0, 1}), members=(0, 1)),),
                 (make_edge(0, 0, 4, 2),))
    cl = step2_lq_min(g, max_qubits=4)
    assert cl.num_clusters == 1


def test_step2_path_merges_to_bipartition():
    """4 supernodes in a path, caps sized so pairs merge but triples do not."""
    nodes = tuple(Node(i, frozenset({2 * i, 2 * i + 1})) for i in range(4))
    edges = tuple(make_edge(i, i + 1, 4.0, 2.0) for i in range(3))
    g = CutGraph(nodes, edges)
    cl = step2_lq_min(g, max_qubits=4, audit=True)
    assert cl.num_clusters == 2
    assert max_log_overhead(cl, g) == pytest.approx(LN2 + LN16)
    assert max_log_overhead(cl, g) == pytest.approx(best_feasible_log_overhead(g, 4))


def test_step2_never_worse_than_start(rng):
    for _ in range(15):
        g = random_graph(rng, max_nodes=9)
        cap = int(rng.integers(2, 5))
        start = Clustering.singletons(g, cap)
        cl = step2_lq_min(g, cap, audit=True)
        cl.validate(g)
        assert max_log_overhead(cl, g) <= max_log_overhead(start, g) + 1e-9


def test_pipeline_chain3_exact_optimum():
    g = build_cut_graph(chain3())
    result = run_pipeline(g, 2, audit=True)
    assert result.r == 2
    expected = best_feasible_log_overhead(g, 2)
    assert expected == pytest.approx(LN2 + LN9)  # one gate cut beats one wire cut
    assert result.lq == pytest.approx(expected)


def test_pipeline_no_cut_when_cap_covers_everything():
    g = build_cut_graph(ising_chain(6, seed=4))
    result = run_pipeline(g, 6)
    assert result.r == 1
    assert result.lq == pytest.approx(0.0)
    report_cuts = [e for e in g.edges
                   if result.clustering.assignment[e.u] != result.clustering.assignment[e.v]]
    assert report_cuts == []


def test_pipeline_step2_not_above_step1(rng):
    for width in (8, 13, 21):
        g = build_cut_graph(ising_chain(width, depth=int(rng.integers(1, 3)), seed=width))
        result = run_pipeline(g, max_qubits=max(3, width // 3))
        s1, s2 = result.stages
        assert s2.lq <= s1.lq + 1e-9
        assert tuple(sorted(result.clustering.assignment)) == tuple(range(g.num_nodes))


def test_pipeline_lq_trace_non_increasing():
    g = build_cut_graph(ising_chain(24, seed=9))
    result = run_pipeline(g, 10)
    trace = result.stages[1].lq_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_pipeline_matches_oracle_on_small_instances():
    """Never more than one wire cut above the exhaustive optimum."""
    fixtures = [
        (chain3(), 2),
        (chain3(), 3),
        (CircuitIR(4, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2)),
                       GateApp("cx", (2, 3)))), 2),
        (CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2)),
                       GateApp("cx", (0, 2)))), 2),
        (CircuitIR(2, (GateApp("cx", (0, 1)), GateApp("cx", (0, 1)))), 1),
    ]
    for circuit, cap in fixtures:
        g = build_cut_graph(circuit)
        assert g.num_nodes <= 8
        result = run_pipeline(g, cap)
        optimum = best_feasible_log_overhead(g, cap)
        assert result.lq >= optimum - 1e-9
        assert result.lq <= optimum + LN16 + 1e-9


def test_pipeline_deterministic():
    g = build_cut_graph(ising_chain(18, seed=5))
    a = run_pipeline(g, 8)
    b = run_pipeline(g, 8)
    assert a.clustering.assignment == b.clustering.assignment
    assert json.dumps(a.clustering.to_json_dict()) == json.dumps(b.clustering.to_json_dict())


def test_random_order_restarts_reproducible():
    g = build_cut_graph(ising_chain(14, seed=6))
    a = run_pipeline(g, 6, order="random", restarts=4, seed=11)
    b = run_pipeline(g, 6, order="random", restarts=4, seed=11)
    assert a.clustering.assignment == b.clustering.assignment
    weighted = run_pipeline(g, 6)
    assert a.lq <= weighted.lq + LN16 + 1e-9  # restarts stay in the same ballpark


def test_stage_metrics_json_keys():
    g = build_cut_graph(ising_chain(10, seed=8))
    result = run_pipeline(g, 5)
    for stage in result.stages:
        payload = stage.to_json_dict()
        assert set(payload) == {"stage", "lq", "ld", "r", "moves", "passes", "wall_time_s",
                                "gain_evals", "lq_trace"}
        assert payload["gain_evals"] == stage.gain_evals
        assert payload["lq_trace"] == list(stage.lq_trace)
    assert json.loads(json.dumps(result.stages[1].to_json_dict()))["lq_trace"]


def test_empty_graph_pipeline():
    g = build_cut_graph(CircuitIR(4, (GateApp("h", (0,)),)))
    result = run_pipeline(g, 2)
    assert result.r == 0 or result.clustering.num_clusters == 0
    assert result.lq == pytest.approx(0.0)


def test_modularity_preserved_under_contraction(rng):
    for _ in range(10):
        g = random_graph(rng, max_nodes=8)
        cl = step1_modularity(g, max_qubits=4)
        contracted = contract(g, cl)
        singles = Clustering.singletons(contracted, 99)
        assert modularity(contracted, singles) == pytest.approx(modularity(g, cl))


def test_wide_chain_soft_regression():
    """98-qubit chain, cap 70: one wire cut, two halves."""
    g = build_cut_graph(ising_chain(98, depth=1, seed=98))
    result = run_pipeline(g, 70)
    assert result.r == 2
    assert result.lq == pytest.approx(LN2 + LN16, abs=1e-9)
    assert result.stages[1].ld == pytest.approx(LN16, abs=1e-9)


def test_chain34_regression_values():
    """Two-stage metrics on the 34-qubit cap-30 chain; pins the heuristic's
    deterministic endpoint (both stages) for this generator seed."""
    g = build_cut_graph(ising_chain(34, depth=1, seed=34))
    result = run_pipeline(g, 30)
    s1, s2 = result.stages
    assert s1.lq == pytest.approx(17.33, abs=0.01)
    assert s1.ld == pytest.approx(5.55, abs=0.01)
    assert s1.r == 16
    assert s2.lq == pytest.approx(3.47, abs=0.01)
    assert s2.ld == pytest.approx(2.77, abs=0.01)
    assert s2.r == 2


def test_validate_raises_value_error_under_optimize():
    """The cap check must survive ``python -O``, which strips ``assert``."""
    script = (
        "from cutplan.clustering import Clustering\n"
        "from cutplan.graph import CutGraph, Node\n"
        "g = CutGraph((Node(0, frozenset({0, 1})), Node(1, frozenset({2}))), ())\n"
        "cl = Clustering.from_assignment(g, {0: 0, 1: 0}, 2)\n"
        "try:\n"
        "    cl.validate(g)\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cutplan.__file__)))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "ValueError: cluster 0 holds 3 qubits, cap 2"


def _two_blobs():
    nodes = tuple(Node(i, frozenset({i})) for i in range(6))
    pairs = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    return CutGraph(nodes, tuple(make_edge(a, b, 3.0, 2.0) for a, b in pairs))


def _corrupt_mask(engine):
    engine.cmask[engine.cluster_of[0]] |= 1 << 40


def _corrupt_membership(engine):
    engine.cluster_of[0] = engine.cluster_of[5]


def _corrupt_cap(engine):
    engine.max_qubits = 1


@pytest.mark.parametrize("corrupt", [
    _corrupt_mask, _corrupt_membership, _corrupt_cap,
    lambda e: e.sigma.__setitem__(e.cluster_of[0], e.sigma[e.cluster_of[0]] + 1.0),
])
def test_step1_audit_catches_corrupted_bookkeeping(corrupt):
    engine = _ModularityEngine(_Level.from_graph(_two_blobs()), 3)
    engine.sweep(engine.visit_order("weighted", None))
    engine._check_state()
    corrupt(engine)
    engine._audit_q = None
    with pytest.raises(AuditError):
        engine._check_state()


def test_step1_audit_requires_rising_modularity():
    engine = _ModularityEngine(_Level.from_graph(_two_blobs()), 3)
    engine.sweep(engine.visit_order("weighted", None))
    engine._check_state()
    with pytest.raises(AuditError, match="raise Q"):
        engine._check_state()


@pytest.mark.parametrize("corrupt", [
    _corrupt_mask, _corrupt_membership, _corrupt_cap,
    lambda e: setattr(e, "w_cut", e.w_cut + 1.0),
    lambda e: setattr(e, "hat_cut", e.hat_cut + 1.0),
    lambda e: e.s_w.__setitem__(e.cluster_of[0], e.s_w[e.cluster_of[0]] + 1.0),
    lambda e: e.s_hat.__setitem__(e.cluster_of[5], e.s_hat[e.cluster_of[5]] + 1.0),
])
def test_step2_audit_catches_corrupted_bookkeeping(corrupt):
    engine = _LogOverheadEngine(_Level.from_graph(_two_blobs()), 3, [0, 0, 0, 1, 1, 1])
    engine._check_state()
    corrupt(engine)
    with pytest.raises(AuditError):
        engine._check_state()
