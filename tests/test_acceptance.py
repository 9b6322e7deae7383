"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdicts; add
`-m full` for the full-scale verification budgets (criterion 4's second
half, a few minutes).
"""

import json
import math
import time

import numpy as np
import pytest

from cutplan.clustering import Clustering, run_pipeline
from cutplan.cutsim import (ExperimentConfig, gate_cut_decomposition,
                            reconstruction_error, variance_experiment,
                            wire_cut_decomposition)
from cutplan.fixtures import chain3, ising_chain
from cutplan.graph import CutGraph, Node, build_cut_graph
from cutplan.overhead import build_report, prior_bound
from cutplan.qasm import CircuitIR, GateApp

from conftest import (OracleCheckedEngine, best_feasible_log_overhead, make_edge,
                      modularity_oracle, random_graph, random_start, worked_gain_graph)

LN9 = math.log(9)
LN16 = math.log(16)
LN49 = math.log(49)


def _ok(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS: {detail}")


# -- 1 -------------------------------------------------------------------------

def test_criterion_1_worked_bounds():
    nodes = tuple(Node(i, frozenset((i,))) for i in range(3))
    edges = (make_edge(0, 1, 4, 2), make_edge(0, 1, 4, 2),
             make_edge(1, 2, 4, 2), make_edge(0, 2, 4, 2))
    graph = CutGraph(nodes, edges)
    clustering = Clustering.from_assignment(graph, {0: 0, 1: 1, 2: 2}, 1)

    build_report(clustering, graph, eps=1.0)  # warm-up (imports, caches)
    start = time.perf_counter()
    report = build_report(clustering, graph, eps=1.0)
    prior = prior_bound([4.0] * 4, eps=1.0, delta=1.0 / 3.0, r=3)
    elapsed = time.perf_counter() - start

    assert report.n_c == {0: 24576, 1: 24576, 2: 3072}
    assert report.n_total == 52224
    assert abs(prior - 704548) <= 1
    assert elapsed < 1e-3
    _ok(1, f"52224 shots, prior {prior}, {elapsed*1e6:.0f}us")


# -- 2 -------------------------------------------------------------------------

def test_criterion_2_modularity_gain():
    # the worked instance: the closed form against the from-scratch change in
    # modularity on a graph that realises it
    graph, cluster_of = worked_gain_graph()
    m = 20 * LN16 + 10 * LN9 + LN49
    k_i = 2 * LN16 + LN9
    expected = k_i * (4 * LN16 + 3 * LN9 - LN49) / (2 * m * m)
    before = dict(enumerate(cluster_of))
    moved = {**before, 0: 1}
    scratch = modularity_oracle(graph, moved) - modularity_oracle(graph, before)
    assert abs(scratch - expected) <= 1e-12 * abs(expected)

    # the engine, audited, from random non-singleton starts (self-loops
    # included): every accepted gain must match the oracle's change in Q
    rng = np.random.default_rng(2)
    moves = 0
    worst = 0.0
    for _ in range(100):
        graph = random_graph(rng, max_nodes=10)
        engine = OracleCheckedEngine(graph, random_start(rng, graph))
        engine.settle()
        moves += len(engine.gains)
        worst = max([worst, *engine.errors])
    assert moves >= 50
    _ok(2, f"worked instance exact; {moves} audited moves on 100 random graphs, "
           f"max |delta| {worst:.2e}")


# -- 3 -------------------------------------------------------------------------

def test_criterion_3_decomposition_exactness():
    cases = [
        ("wire", wire_cut_decomposition(), 4.0, 2.0),
        ("cx", gate_cut_decomposition(GateApp("cx", (0, 1))), 3.0, 1.5),
        ("cz", gate_cut_decomposition(GateApp("cz", (0, 1))), 3.0, 1.5),
        ("rzz(pi/2)", gate_cut_decomposition(GateApp("rzz", (0, 1), (math.pi / 2,))), 3.0, 1.5),
    ]
    worst = 0.0
    for name, spec, kappa, tau in cases:
        err = reconstruction_error(spec)
        worst = max(worst, err)
        assert err <= 1e-10, name
        assert spec.kappa == kappa, name
        assert spec.tau == tau, name
    _ok(3, f"4 channels reconstructed, max error {worst:.2e}, factors exact")


# -- 4 -------------------------------------------------------------------------

def test_criterion_4_variance_bound_ci_scale():
    summary = variance_experiment(
        ExperimentConfig(partitions=3, eps=0.2, repetitions=20, seed=11))
    errors = np.array(summary.errors)
    se = errors.std(ddof=1) / math.sqrt(len(errors))
    assert summary.std <= 0.2
    assert abs(errors.mean()) <= 4 * se
    _ok(4, f"CI scale: std {summary.std:.4f} <= 0.2, "
           f"mean {errors.mean():+.4f} within 4 SE ({4 * se:.4f})")


@pytest.mark.full
def test_criterion_4_variance_bound_full_scale():
    presets = [(3, 0.03, 1.2e6), (4, 0.03, 3.2e6), (3, 0.01, 1.1e7), (4, 0.01, 2.9e7)]
    for label, (partitions, eps, n_expected) in enumerate(presets, start=1):
        summary = variance_experiment(
            ExperimentConfig(partitions=partitions, eps=eps, repetitions=100,
                             seed=100 + label))
        assert summary.n_total == pytest.approx(n_expected, rel=0.02)
        assert summary.std <= eps
        _ok(4, f"full scale ({label}): N_total {summary.n_total:.2e}, "
               f"std {summary.std:.5f} <= {eps}")


# -- 5 -------------------------------------------------------------------------

def test_criterion_5_small_instance_optimality():
    fixtures = [
        ("chain3 D=2", chain3(), 2),
        ("chain3 D=3", chain3(), 3),
        ("chain4 D=2", CircuitIR(4, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2)),
                                     GateApp("cx", (2, 3)))), 2),
        ("triangle D=2", CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2)),
                                       GateApp("cx", (0, 2)))), 2),
        ("ladder D=1", CircuitIR(2, (GateApp("cx", (0, 1)), GateApp("cx", (0, 1)))), 1),
        ("ising3 D=2", ising_chain(3, seed=1), 2),
    ]
    gaps = []
    for name, circuit, cap in fixtures:
        graph = build_cut_graph(circuit)
        assert graph.num_nodes <= 8, name
        result = run_pipeline(graph, cap)
        optimum = best_feasible_log_overhead(graph, cap)
        gap = result.lq - optimum
        gaps.append((name, gap))
        assert gap >= -1e-9, name
        assert gap <= LN16 + 1e-9, name

    chain_graph = build_cut_graph(chain3())
    result = run_pipeline(chain_graph, 2)
    assert result.lq == pytest.approx(best_feasible_log_overhead(chain_graph, 2))
    worst = max(g for _, g in gaps)
    _ok(5, f"{len(fixtures)} fixtures within ln16 of optimum (worst gap "
           f"{worst:.3f}); chain3 exactly optimal")


# -- 6 + 8 ----------------------------------------------------------------------

def _criterion_corpus():
    rng = np.random.default_rng(606)
    corpus = []
    for k, width in enumerate(range(8, 65)):
        if len(corpus) == 50:
            break
        depth = 1 + int(rng.integers(0, 2))
        cap = max(4, width // (2 + int(rng.integers(0, 3))))
        corpus.append((ising_chain(width, depth=depth, seed=width), cap))
    return corpus


def test_criterion_6_pipeline_properties():
    corpus = _criterion_corpus()
    assert len(corpus) == 50
    for idx, (circuit, cap) in enumerate(corpus):
        graph = build_cut_graph(circuit)
        result = run_pipeline(graph, cap)
        s1, s2 = result.stages
        assert s2.lq <= s1.lq + 1e-9, circuit.name
        result.clustering.validate(graph)
        if idx % 10 == 0:
            again = run_pipeline(graph, cap)
            first = json.dumps({"a": result.clustering.to_json_dict(),
                                "r": build_report(result.clustering, graph).to_json_dict()},
                               sort_keys=True).encode()
            second = json.dumps({"a": again.clustering.to_json_dict(),
                                 "r": build_report(again.clustering, graph).to_json_dict()},
                                sort_keys=True).encode()
            assert first == second, circuit.name

    # soft regression target: 34-qubit chain, cap 30
    graph = build_cut_graph(ising_chain(34, depth=1, seed=34))
    result = run_pipeline(graph, 30)
    assert result.r == 2
    assert result.lq <= 3.47 + LN16
    _ok(6, f"50 circuits: stage-2 never above stage-1, caps hold, reruns "
           f"byte-identical; n34 cap30 -> R=2, lq {result.lq:.2f}")


def test_criterion_8_bound_dominance():
    # With eps = 1 and delta = 1/3, the budget formula gives, up to the ceil
    # on each N_c and the one on the prior,
    #
    #     n_total / prior = sum_c prod_{k in D_c} (tau_k / kappa_k^2) / (2 ln 6)
    #
    # with D_c the cut edges not attached to c. A "star" cluster, attached to
    # every cut, has D_c empty and adds exactly 1, so its rows cannot go below
    # 1/(2 ln 6) ~ 0.279 (every 3-way split of a chain has one). Every other
    # cluster gets at least one tau/kappa^2 discount. The 10x improvement is
    # asserted where no cluster is a star. Classes and the closed form come
    # from the raw edge factors, independently of build_report.
    floor = 1.0 / (2.0 * math.log(6.0))
    worst = {"non-star": 0.0, "star": 0.0}
    rows = {"non-star": 0, "star": 0}
    for circuit, cap in _criterion_corpus():
        graph = build_cut_graph(circuit)
        result = run_pipeline(graph, cap)
        report = build_report(result.clustering, graph, eps=1.0)
        if report.r < 2:
            continue
        assignment = result.clustering.assignment
        cut = [graph.edges[i] for i in _cut_edge_indices(graph, result.clustering)]
        prior = prior_bound([e.kappa for e in cut], eps=1.0, delta=1.0 / 3.0,
                            r=report.r)
        ratio = report.n_total / prior
        assert report.n_total <= prior, circuit.name

        closed_form = 0
        has_star = False
        for c in result.clustering.clusters:
            overhead = report.r
            attached_to_all = True
            for e in cut:
                if c in (assignment[e.u], assignment[e.v]):
                    overhead *= e.kappa ** 2
                else:
                    overhead *= e.tau
                    attached_to_all = False
            closed_form += math.ceil(overhead)
            has_star = has_star or attached_to_all
        assert report.n_total == closed_form, (circuit.name, report.n_total,
                                               closed_form)
        if report.r < 3:
            continue

        # slack for the R ceils in n_total and the one in the prior
        tol = (report.r + 1) / prior
        if has_star:
            cls = "star"
            max_discount = max(e.tau / e.kappa ** 2 for e in cut)
            ceiling = (1.0 + (report.r - 1) * max_discount) * floor
            assert floor - tol <= ratio <= ceiling + tol, (
                f"{circuit.name} (R={report.r}): ratio {ratio:.4f} outside "
                f"[{floor:.4f}, {ceiling:.4f}]; the cluster attached to every "
                f"cut adds exactly 1/(2 ln 6), each other cluster at most "
                f"max tau/kappa^2 = {max_discount:.4f} of that")
        else:
            cls = "non-star"
            assert ratio < 0.1, (
                f"{circuit.name} (R={report.r}): ratio {ratio:.4f} >= 0.1 "
                f"although no cluster is attached to every cut, so every "
                f"cluster's term carries a tau/kappa^2 discount")
        rows[cls] += 1
        worst[cls] = max(worst[cls], ratio)
    assert rows["non-star"] and rows["star"], rows
    _ok(8, f"new budget never above the per-partition bound; R>=3: "
           f"{rows['non-star']} non-star rows (worst ratio "
           f"{worst['non-star']:.3f} < 0.1), {rows['star']} star rows (worst "
           f"{worst['star']:.3f}, floor {floor:.3f})")


def _cut_edge_indices(graph, clustering):
    return [i for i, e in enumerate(graph.edges)
            if clustering.assignment[e.u] != clustering.assignment[e.v]]


# -- 7 -------------------------------------------------------------------------

def test_criterion_7_performance_ceiling():
    small_graph = build_cut_graph(ising_chain(34, depth=1, seed=34))
    big_graph = build_cut_graph(ising_chain(420, depth=1, seed=420))

    t0 = time.perf_counter()
    small = run_pipeline(small_graph, 30)
    t_small = time.perf_counter() - t0

    t0 = time.perf_counter()
    big = run_pipeline(big_graph, 50)
    t_big = time.perf_counter() - t0

    assert t_big < 1.0
    node_ratio = big_graph.num_nodes / small_graph.num_nodes
    evals_small = sum(s.gain_evals for s in small.stages)
    evals_big = sum(s.gain_evals for s in big.stages)
    # dominant cost = candidate-move evaluations; growth must be sub-quadratic
    assert evals_big / evals_small < node_ratio ** 2
    if t_small > 0.02:  # timing ratio only when the baseline is measurable
        assert t_big / t_small < node_ratio ** 2
    _ok(7, f"420-qubit pipeline in {t_big:.3f}s; work ratio "
           f"{evals_big / evals_small:.1f} vs quadratic {node_ratio ** 2:.0f}")
