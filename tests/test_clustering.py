import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cutplan
import cutplan.dissolution
from cutplan.clustering import (AuditError, Cluster, Clustering, InfeasibleCapError,
                                _dissolve, _Level, _LevelState, _LogOverheadEngine,
                                _ModularityEngine, _run_levels, _score, _step1, _step2,
                                run_pipeline, step1_modularity)
from cutplan.fixtures import chain3, ising_chain
from cutplan.graph import CutGraph, Node, build_cut_graph, contract
from cutplan.overhead import build_report, segment_flags
from cutplan.qasm import CircuitIR, GateApp, parse_qasm

from conftest import (best_feasible_log_overhead, make_edge, max_log_overhead_oracle,
                      modularity_oracle, random_graph, random_start)
from test_golden import _random_matching

LN2 = math.log(2)
LN9 = math.log(9)
LN16 = math.log(16)


def test_qubit_feasible_basic():
    """Node 2 may join cluster {0, 1} only when the cap admits three qubits."""
    g = CutGraph(
        (Node(0, frozenset({0, 1})), Node(1, frozenset({1})), Node(2, frozenset({2}))),
        (make_edge(0, 1, 4, 2), make_edge(1, 2, 4, 2)),
    )
    for cap, feasible in ((2, False), (3, True)):
        engine = _ModularityEngine(_Level.from_graph(g), cap, [0, 0, 2], audit=True)
        engine.sweep([2])
        assert engine.stats.gain_evals == int(feasible)
        assert (engine.cluster_of[2] == 0) is feasible


def test_qubit_feasible_matches_set_union(rng):
    """The cap test's bitmasks count exactly the union of qubit sets."""
    for _ in range(50):
        g = random_graph(rng)
        state = _LevelState(_Level.from_graph(g), 99, random_start(rng, g))
        for c in state.live():
            qubits = set().union(*(g.nodes[i].qubits for i in state.members[c]))
            for node in g.nodes:
                assert ((state.cmask[c] | state.level.mask[node.id]).bit_count()
                        == len(qubits | node.qubits))


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
        singles = {n.id: n.id for n in g.nodes}
        assert modularity_oracle(g, cl.assignment) >= modularity_oracle(g, singles) - 1e-12


def test_step1_infeasible_cap():
    for kappa, tau in ((4, 2), (1, 1)):  # (1, 1): no weight to cluster by
        g = CutGraph((Node(0, frozenset({0, 1, 2})), Node(1, frozenset({3}))),
                     (make_edge(0, 1, kappa, tau),))
        with pytest.raises(InfeasibleCapError, match="node 0 spans 3 qubits"):
            step1_modularity(g, max_qubits=2)


def test_step1_no_local_improvement_at_top_level():
    """After convergence no single supernode move may raise modularity."""
    g = build_cut_graph(ising_chain(16, seed=2))
    cl = step1_modularity(g, max_qubits=6)
    top = contract(g, cl)
    singles = {n.id: n.id for n in top.nodes}
    base = modularity_oracle(top, singles)
    for node in top.nodes:
        for target in top.nodes:
            if target.id == node.id or len(target.qubits | node.qubits) > 6:
                continue
            moved = dict(singles)
            moved[node.id] = target.id
            assert modularity_oracle(top, moved) <= base + 1e-9


def _step2_levels(g, cap, start=None, audit=False):
    """Stage 2's level driver on the graph's level, from singletons or from
    the dense labels ``start``; the result as a clustering, and the stats."""
    labels, stats = _run_levels(_Level.from_graph(g), cap, _LogOverheadEngine, None, audit,
                                start)
    return Clustering.from_assignment(g, dict(enumerate(labels)), cap), stats


def _singletons(g, cap):
    return Clustering.from_assignment(g, {n.id: n.id for n in g.nodes}, cap)


def test_step2_single_cluster_unchanged():
    g = CutGraph((Node(0, frozenset({0, 1})),), (make_edge(0, 0, 4, 2),))
    cl, _ = _step2_levels(g, 4)
    assert cl.num_clusters == 1


def test_step2_path_merges_to_bipartition():
    """4 supernodes in a path, caps sized so pairs merge but triples do not."""
    nodes = tuple(Node(i, frozenset({2 * i, 2 * i + 1})) for i in range(4))
    edges = tuple(make_edge(i, i + 1, 4.0, 2.0) for i in range(3))
    g = CutGraph(nodes, edges)
    cl, _ = _step2_levels(g, 4, audit=True)
    assert cl.num_clusters == 2
    lq = build_report(cl, g).lq
    assert lq == pytest.approx(LN2 + LN16)
    assert lq == pytest.approx(best_feasible_log_overhead(g, 4))


def test_step2_never_worse_than_start(rng):
    for _ in range(15):
        g = random_graph(rng, max_nodes=9)
        cap = int(rng.integers(2, 5))
        start = _singletons(g, cap)
        cl, _ = _step2_levels(g, cap, audit=True)
        cl.validate(g)
        assert build_report(cl, g).lq <= build_report(start, g).lq + 1e-9


def test_step2_keeps_the_start_when_the_atomic_pass_ends_worse():
    """The atomic pass of this plan opens at 14.452 and ends at 14.740: its
    moves raise the residual cost of clusters they do not touch. The plan
    keeps the pass's opening value."""
    step2 = run_pipeline(build_cut_graph(_random_matching(8, 4, 0)), 3).stages[1]
    assert step2.lq_trace[-1] == pytest.approx(14.739541, abs=1e-6)
    assert step2.lq == pytest.approx(14.451859, abs=1e-6)


def test_lq_trace_opens_with_the_start_objective(rng):
    """Stage 2's keep-the-start fallback compares the first and the last
    value of the trace, so the trace must open with exactly the start's worst
    log overhead and close with the result's."""
    cases = []
    for _ in range(40):
        g = random_graph(rng, max_nodes=9)
        labels = random_start(rng, g)
        names = sorted(set(labels))
        start = [names.index(c) for c in labels]  # the driver takes dense labels
        cl = Clustering.from_assignment(g, dict(enumerate(start)), 99)
        cases.append((g, max(len(c.qubits) for c in cl.clusters.values()), start))
    for width, depth, cap in ((12, 1, 4), (30, 2, 8), (60, 2, 12), (100, 1, 30)):
        g = build_cut_graph(ising_chain(width, depth, seed=width))
        step1 = step1_modularity(g, cap)
        cases.append((g, cap, [step1.assignment[i] for i in range(g.num_nodes)]))
        cases.append((contract(g, step1), cap, None))
    for g, cap, start in cases:
        result, stats = _step2_levels(g, cap, start, audit=True)
        if start is None:
            opening = _singletons(g, cap)
        else:
            opening = Clustering.from_assignment(g, dict(enumerate(start)), cap)
        assert stats.lq_trace[0] == build_report(opening, g).lq
        assert stats.lq_trace[-1] == pytest.approx(build_report(result, g).lq, abs=1e-9)


def test_plan_builds_one_clustering_and_scores_on_levels(monkeypatch):
    """A plan scores both stages on its levels and builds one ``Clustering``,
    the reported one; from the report module the planner takes only the
    scorer, and the third pass the segment count, not ``build_report``."""
    calls = []
    build = Clustering.from_assignment.__func__

    def counted(cls, *args, **kwargs):
        calls.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Clustering, "from_assignment", classmethod(counted))
    g = build_cut_graph(ising_chain(40, depth=2, seed=40))
    run_pipeline(g, 12)
    assert len(calls) == 1
    for module, names in ((cutplan.clustering, {"cut_sums", "log_overheads"}),
                          (cutplan.dissolution, {"cut_sums", "log_overheads",
                                                 "segment_counts"})):
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        from_overhead = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any("overhead" in alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and "overhead" in (node.module or ""):
                from_overhead.update(alias.name for alias in node.names)
        assert from_overhead == names


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
    """The worst-cluster log overhead is never below the exhaustive optimum
    and at most ln 16 above it: the log overhead of one wire cut
    (kappa = 4), not a count of cuts."""
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


@st.composite
def _two_qubit_circuits(draw):
    """A circuit of up to 24 ``cx``/``cz``/``rzz`` gates on random pairs of
    2-12 wires, a cap from 1 to the width, a count of restarts and a seed."""
    n = draw(st.integers(2, 12))
    gates = []
    for kind in draw(st.lists(st.sampled_from(["cx", "cz", "rzz"]), max_size=24)):
        qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                     unique=True)))
        params = (draw(st.floats(-math.pi, math.pi)),) if kind == "rzz" else ()
        gates.append(GateApp(kind, qubits, params))
    return (CircuitIR(n, tuple(gates)), draw(st.integers(1, n)),
            draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32)))


def _rows(result):
    return [dataclasses.replace(row, wall_time_s=0.0) for row in result.stages]


def _two_stage_plans(graph, cap, restarts, seed):
    """Per run of ``run_pipeline(graph, cap, restarts, seed)``, the atomic
    level, the two-stage labels and their ``_score``: the first run in the
    weighted order, each later one in random orders from one of
    ``SeedSequence(seed).spawn(restarts - 1)``."""
    level, labels1, _ = _step1(graph, cap, False)
    rngs = [None] + [np.random.default_rng(child)
                     for child in np.random.SeedSequence(seed).spawn(restarts - 1)]
    plans = []
    for rng in rngs:
        labels, _ = _step2(level, labels1, cap, rng, False)
        plans.append((level, labels, _score(level, labels)))
    return plans


@settings(max_examples=100, deadline=None)
@given(_two_qubit_circuits())
def test_audited_pipeline_agrees_with_the_plain_one(case):
    """On random 2-qubit-gate circuits, an audited run raises nothing, its
    clustering validates against the graph, and its labels and stage rows
    (but for wall time) are those of the run without the audit."""
    circuit, cap, restarts, seed = case
    graph = build_cut_graph(circuit)
    audited = run_pipeline(graph, cap, restarts=restarts, seed=seed, audit=True)
    audited.clustering.validate(graph)
    plain = run_pipeline(graph, cap, restarts=restarts, seed=seed)
    assert audited.clustering.assignment == plain.clustering.assignment
    assert _rows(audited) == _rows(plain)


# the random-order run of restarts=2, seed=1 returns lq 5.09 at cap 4, the
# weighted run 2.89: keeping the last run instead of the best fails here
_WORSE_RANDOM_RUN = (CircuitIR(6, tuple(
    GateApp(kind, pair, (0.5,) if kind == "rzz" else ()) for kind, pair in [
        ("cx", (4, 0)), ("rzz", (5, 2)), ("rzz", (5, 3)), ("cx", (1, 3)), ("rzz", (0, 3)),
        ("cx", (3, 2))])), 4, 2, 1)


@settings(max_examples=100, deadline=None)
@given(_two_qubit_circuits())
@example(_WORSE_RANDOM_RUN)
def test_restarts_never_make_a_plan_worse(case):
    """On random 2-qubit-gate circuits, the best of ``restarts`` runs is
    never worse than the one run in the weighted order, and with one run
    the seed changes neither the labels nor the stage rows (but for wall
    time)."""
    circuit, cap, restarts, seed = case
    graph = build_cut_graph(circuit)
    default = run_pipeline(graph, cap)
    assert run_pipeline(graph, cap, restarts=restarts, seed=seed).lq <= default.lq + 1e-9
    seeded = run_pipeline(graph, cap, restarts=1, seed=seed)
    assert seeded.clustering.assignment == default.clustering.assignment
    assert _rows(seeded) == _rows(default)


@settings(max_examples=100, deadline=None)
@given(_two_qubit_circuits())
def test_pipeline_returns_the_better_of_the_stages_and_the_wires(case):
    """The returned plan scores as its step-2 row says, and is never worse
    than the wire partition or the two-stage plan; the wires are taken
    only when they beat the two-stage plan by more than the tolerance, and
    a plan with clusters dissolved is better than the one taken by more
    than the tolerance. With restarts, the plan kept is never worse than
    any run's two-stage plan."""
    circuit, cap, restarts, seed = case
    graph = build_cut_graph(circuit)
    plans = _two_stage_plans(graph, cap, restarts, seed)
    best = run_pipeline(graph, cap, restarts=restarts, seed=seed)
    assert best.lq <= min(score[0] for _, _, score in plans) + 1e-9
    result = run_pipeline(graph, cap) if restarts > 1 else best
    step2 = result.stages[1]
    stages_lq, stages_ld, stages_r, _ = plans[0][2]
    assert result.lq <= stages_lq + 1e-9
    assert result.lq <= step2.wire_lq + 1e-9
    assert (step2.returned == "wires") == (step2.wire_lq < stages_lq - 1e-9)
    taken = step2.wire_lq if step2.returned == "wires" else stages_lq
    if step2.dissolved:
        assert result.lq < taken - 1e-9
    elif step2.returned == "stages":
        assert (step2.lq, step2.ld, step2.r) == (stages_lq, stages_ld, stages_r)
    else:
        assert step2.lq == step2.wire_lq
    if graph.num_nodes:
        wires = dict(enumerate(graph.mask))
        assert step2.wire_lq == pytest.approx(max_log_overhead_oracle(graph, wires), abs=1e-9)
        for plan in (result, best):
            assert plan.lq == pytest.approx(
                max_log_overhead_oracle(graph, plan.clustering.assignment), abs=1e-9)
            assert plan.r == len(plan.clustering.clusters)


@settings(max_examples=150, deadline=None)
@given(_two_qubit_circuits(), st.booleans())
def test_dissolving_clusters_never_makes_a_plan_worse(case, from_wires):
    """From the two-stage plan or from the wire partition, under audit, the
    third pass returns labels that cover every node and keep every cluster
    within the cap, and it raises neither the worst log overhead nor the
    count of segment-flagged clusters; a plan with clusters dissolved is
    lower by more than the tolerance and scores as the oracle does."""
    circuit, cap, restarts, seed = case
    graph = build_cut_graph(circuit)
    assume(graph.num_nodes)
    level, labels, score = _two_stage_plans(graph, cap, restarts, seed)[-1]
    if from_wires:
        first = {}
        labels = [first.setdefault(mask, len(first)) for mask in graph.mask]
        score = _score(level, labels)
    result, dissolved, new_score = _dissolve(level, labels, cap, score, True, True)
    before, after = (Clustering.from_assignment(graph, dict(enumerate(x)), cap)
                     for x in (labels, result))
    after.validate(graph)
    lq_before = max_log_overhead_oracle(graph, before.assignment)
    lq_after = max_log_overhead_oracle(graph, after.assignment)
    assert lq_after <= lq_before + 1e-9
    assert len(segment_flags(graph, after)) <= len(segment_flags(graph, before))
    assert new_score[0] == pytest.approx(lq_after, abs=1e-9)
    if dissolved:
        assert lq_after < lq_before - 1e-9
        assert after.num_clusters == before.num_clusters - dissolved
    else:
        assert (result, new_score) == (labels, score)


def test_dissolving_clusters_keeps_the_segment_guard():
    """On this 6-qubit circuit at cap 6, a dissolution that lowers ``lq``
    would leave a cluster with more wire segments than qubits: the pass
    takes another, and without the guard it would flag cluster 2."""
    pairs = [("cz", 2, 1), ("cz", 1, 4), ("rzz", 3, 1), ("rzz", 0, 3), ("cz", 0, 5),
             ("cx", 4, 3), ("cx", 2, 1), ("cx", 5, 4), ("rzz", 1, 2), ("cz", 3, 4),
             ("rzz", 2, 1), ("cz", 1, 0), ("cx", 1, 2), ("cx", 5, 0), ("rzz", 1, 3),
             ("cx", 4, 2), ("cx", 0, 1), ("cx", 3, 0), ("rzz", 5, 0), ("cz", 3, 4),
             ("rzz", 3, 4), ("cz", 0, 4)]
    graph = build_cut_graph(CircuitIR(6, tuple(
        GateApp(kind, (a, b), (0.3,) if kind == "rzz" else ()) for kind, a, b in pairs)))
    level, labels, score = _two_stage_plans(graph, 6, 1, None)[0]
    plans = {}
    for guard in (True, False):
        result, dissolved, (lq, *_) = _dissolve(level, labels, 6, score, guard, True)
        assert dissolved == 1 and lq < score[0] - 1e-9
        plans[guard] = lq, segment_flags(
            graph, Clustering.from_assignment(graph, dict(enumerate(result)), 6))
    assert segment_flags(graph, Clustering.from_assignment(
        graph, dict(enumerate(labels)), 6)) == ()
    assert plans[True][1] == () and plans[False][1] == (2,)
    assert plans[False][0] < plans[True][0] - 1e-9


class _Rows(list):
    """An adjacency list that counts the rows read from it."""

    reads = 0

    def __getitem__(self, i):
        _Rows.reads += 1
        return list.__getitem__(self, i)


class _ScreenSwitch(cutplan.dissolution._Dissolver):
    """The third pass with its early-bound screen left on or forced off;
    each instance's value of ``screen`` is kept in ``seen``."""

    screened = True
    seen: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.screen = self.screen and self.screened
        self.adj = _Rows(self.adj)
        self.seen.append(self.screen)


def test_the_dissolution_screen_never_changes_a_plan(monkeypatch):
    """The screen stops a trial early when it can no longer be accepted. On
    random ``cx``/``cz``/``rzz`` circuits and random graphs, forcing it off
    gives the same plan and stage rows (but for wall time), and the same
    dissolution of the wire partition; the screened runs read fewer
    adjacency rows, so the screen did stop trials."""
    monkeypatch.setattr(_ScreenSwitch, "seen", [])
    monkeypatch.setattr(cutplan.dissolution, "_Dissolver", _ScreenSwitch)
    rng = np.random.default_rng(2026)
    reads = {True: 0, False: 0}
    for case in range(150):
        if case % 2:
            graph = random_graph(rng, max_nodes=14)
        else:
            n = int(rng.integers(2, 13))
            gates = []
            for _ in range(int(rng.integers(0, 25))):
                kind = ("cx", "cz", "rzz")[int(rng.integers(3))]
                a, b = map(int, rng.choice(n, 2, replace=False))
                params = (float(rng.uniform(-3, 3)),) if kind == "rzz" else ()
                gates.append(GateApp(kind, (a, b), params))
            graph = build_cut_graph(CircuitIR(n, gates))
        cap = int(rng.integers(1, max(graph.num_nodes, 1) + 1))
        restarts, seed = int(rng.integers(1, 4)), int(rng.integers(2 ** 32))
        level = _Level.from_graph(graph)
        first = {}
        wires = [first.setdefault(mask, len(first)) for mask in graph.mask]
        plans = {}
        for screened in (True, False):
            monkeypatch.setattr(_ScreenSwitch, "screened", screened)
            _Rows.reads = 0
            result = run_pipeline(graph, cap, restarts=restarts, seed=seed)
            # the wire partition offers the pass many more trials it accepts
            dissolved = wires and _dissolve(level, wires, cap, _score(level, wires),
                                            None not in graph.gate_id, False)
            reads[screened] += _Rows.reads
            plans[screened] = result.clustering.assignment, _rows(result), dissolved
        assert plans[True] == plans[False], case
    assert reads[True] < reads[False]


def test_dissolution_runs_unscreened_on_a_negative_w_hat(monkeypatch):
    """The screen holds only when no weight is negative, and no circuit
    gives a negative one (every kappa and tau is at least 1). On this
    hand-built chain, where two edges have tau 0.5, the pass runs without
    it under audit and dissolves one cluster of the two-stage plan."""
    monkeypatch.setattr(_ScreenSwitch, "seen", [])
    monkeypatch.setattr(cutplan.dissolution, "_Dissolver", _ScreenSwitch)
    graph = CutGraph(tuple(Node(i, frozenset({i})) for i in range(4)),
                     (make_edge(0, 1, 2.0, 0.5), make_edge(0, 2, 3.0, 2.0),
                      make_edge(2, 3, 2.0, 0.5)))
    assert min(graph.w_hat) < 0
    result = run_pipeline(graph, 2, audit=True)
    assert _ScreenSwitch.seen == [False]
    step2 = result.stages[1]
    assert (step2.returned, step2.dissolved) == ("stages", 1)
    assert result.clustering.assignment == {0: 0, 1: 0, 2: 1, 3: 1}
    assert result.lq == pytest.approx(
        max_log_overhead_oracle(graph, result.clustering.assignment), abs=1e-9)


def _sweep_evaluating_every_node(engine, visit) -> int:
    """One sweep that skips no visit: stage 1's flags all set dirty, stage 2
    given a fresh copy of the visit list, which no sweep has seen."""
    if isinstance(engine, _ModularityEngine):
        engine.dirty[:] = [True] * len(engine.dirty)
    return engine.sweep(list(visit))


def _engine_state(engine):
    sums = ((engine.sigma,) if isinstance(engine, _ModularityEngine)
            else (engine.s_w, engine.s_hat, engine.hat_cut, engine.lq))
    return (engine.cluster_of, engine.r, engine.stats.moves, engine.stats.gain_evals, *sums)


@pytest.mark.parametrize("engine_cls", [_ModularityEngine, _LogOverheadEngine])
@pytest.mark.parametrize("order", ["weighted", "random"])
def test_skipped_visits_match_sweeps_that_evaluate_every_node(engine_cls, order):
    """The shipped sweeps skip visits whose outcome is known: stage 1 those
    of clean nodes, stage 2 the rest of a repeated visit list once every
    node has seen the current state. Sweep by sweep, including sweeps after
    the level went quiet, they agree with sweeps that evaluate every node
    on the clusters, the running sums, ``lq``, the moves and ``gain_evals``."""
    rng = np.random.default_rng(2026)
    for _ in range(150):
        g = random_graph(rng, max_nodes=16)
        cap = int(rng.integers(1, g.num_nodes + 1))
        start = random_start(rng, g) if rng.random() < 0.7 else None
        level = _Level.from_graph(g)
        shipped, reference = (engine_cls(level, cap, None if start is None else list(start))
                              for _ in range(2))
        seed = int(rng.integers(2 ** 32))
        rng_shipped, rng_reference = (np.random.default_rng(seed) if order == "random" else None
                                      for _ in range(2))
        quiet = 0
        while quiet < 3:
            moved = shipped.sweep(shipped.visit_order(rng_shipped))
            assert moved == _sweep_evaluating_every_node(
                reference, reference.visit_order(rng_reference))
            assert _engine_state(shipped) == _engine_state(reference)
            quiet += moved == 0


def test_pipeline_deterministic():
    g = build_cut_graph(ising_chain(18, seed=5))
    a = run_pipeline(g, 8)
    b = run_pipeline(g, 8)
    assert a.clustering.assignment == b.clustering.assignment
    assert json.dumps(a.clustering.to_json_dict()) == json.dumps(b.clustering.to_json_dict())


def test_restarts_reproducible():
    g = build_cut_graph(ising_chain(14, seed=6))
    a = run_pipeline(g, 6, restarts=4, seed=11)
    b = run_pipeline(g, 6, restarts=4, seed=11)
    assert a.clustering.assignment == b.clustering.assignment
    assert _rows(a) == _rows(b)
    assert a.lq <= run_pipeline(g, 6).lq + 1e-9


def test_restarts_dissolve_the_wire_plan_once(monkeypatch):
    """Every one of four runs on this random-matching circuit takes the wire
    partition, so each would return the same dissolved plan, and the first
    run wins every tie: the wires are dissolved in that run only, and the
    plan and rows are those of recomputing it."""
    graph, cap = build_cut_graph(_random_matching(8, 6, 0)), 2
    first = {}
    wires = [first.setdefault(mask, len(first)) for mask in graph.mask]
    plans = _two_stage_plans(graph, cap, 4, 5)
    level = plans[0][0]
    wire_score = _score(level, wires)
    assert all(wire_score[0] < score[0] - 1e-9 for _, _, score in plans)
    assert len({tuple(labels) for _, labels, _ in plans}) > 1  # the runs differ
    labels, dissolved, score = _dissolve(level, wires, cap, wire_score, True, False)
    assert dissolved
    _, stats = _step2(level, _step1(graph, cap, False)[1], cap, None, False)
    seen = []

    class Spy(cutplan.dissolution._Dissolver):
        def __init__(self, level, labels, *args):
            seen.append(list(labels))
            super().__init__(level, labels, *args)

    monkeypatch.setattr(cutplan.dissolution, "_Dissolver", Spy)
    result = run_pipeline(graph, cap, restarts=4, seed=5)
    assert seen == [wires]
    assert result.clustering.assignment == Clustering.from_assignment(
        graph, dict(enumerate(labels)), cap).assignment
    step1, step2 = _rows(result)
    assert step1 == _rows(run_pipeline(graph, cap))[0]
    assert (step2.lq, step2.ld, step2.r) == score[:3]
    assert (step2.moves, step2.passes, step2.gain_evals, step2.lq_trace) == (
        stats.moves, stats.passes, stats.gain_evals, tuple(stats.lq_trace))
    assert (step2.returned, step2.wire_lq, step2.dissolved) == ("wires", wire_score[0], dissolved)


@pytest.mark.parametrize("restarts", [1, 4])
def test_step2_row_times_every_run(monkeypatch, restarts):
    """The step-2 row's wall time spans all the runs, not the kept one only:
    on a clock that only stage 2 advances, by 1 s per run, it reads 1 s per
    run and the step-1 row 0."""
    clock = [0.0]
    step2 = cutplan.clustering._step2

    def ticking_step2(*args):
        clock[0] += 1.0
        return step2(*args)

    monkeypatch.setattr(cutplan.clustering, "_step2", ticking_step2)
    monkeypatch.setattr(cutplan.clustering, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    result = run_pipeline(build_cut_graph(ising_chain(14, seed=6)), 6, restarts=restarts, seed=11)
    assert [row.wall_time_s for row in result.stages] == [0.0, float(restarts)]


# no seed, or a seed that the random orders of later runs would draw from
@pytest.mark.parametrize("seed", [None, 7], ids=["weighted", "random"])
@pytest.mark.parametrize("restarts", [2.5, True, np.float64(2.0), "2"],
                         ids=["2.5", "True", "np.float64", "str"])
def test_non_integer_restarts_rejected(seed, restarts):
    """2.5 planned once and died in numpy when random orders were drawn;
    True ran as 1. Neither is taken, with or without a seed."""
    with pytest.raises(TypeError, match="^restarts must be an integer, got "):
        run_pipeline(build_cut_graph(chain3()), 2, restarts=restarts, seed=seed)


def test_numpy_integer_restarts_are_valid():
    g = build_cut_graph(ising_chain(10, seed=8))
    a = run_pipeline(g, 5, restarts=np.int64(2), seed=3)
    b = run_pipeline(g, 5, restarts=2, seed=3)
    assert a.clustering.assignment == b.clustering.assignment
    with pytest.raises(ValueError, match="^restarts must be >= 1, got 0$"):
        run_pipeline(g, 5, restarts=np.int64(0))


# one run sweeps stage 2 in the weighted order only; a second one draws
# random orders from the seed
RUNS = pytest.mark.parametrize("restarts", [1, 2], ids=["weighted", "random"])


@RUNS
@pytest.mark.parametrize("seed", [True, 2.5, np.float64(1.0), "1"],
                         ids=["True", "2.5", "np.float64", "str"])
def test_non_integer_seed_rejected(restarts, seed):
    """True planned as seed 1 and 2.5 died inside numpy. Neither is taken,
    whether or not a run draws from the seed."""
    with pytest.raises(TypeError, match="^seed must be an integer, got "):
        run_pipeline(build_cut_graph(ising_chain(10, seed=8)), 5, restarts=restarts,
                     seed=seed)


def test_numpy_integer_seed_is_valid():
    g = build_cut_graph(ising_chain(10, seed=8))
    a = run_pipeline(g, 5, restarts=2, seed=np.int64(3))
    b = run_pipeline(g, 5, restarts=2, seed=3)
    assert a.clustering.assignment == b.clustering.assignment
    assert _rows(a) == _rows(b)


@RUNS
def test_negative_seed_rejected(restarts):
    """Refused with the planner's own message, also when no run draws from
    the seed."""
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        run_pipeline(build_cut_graph(ising_chain(10, seed=8)), 5, restarts=restarts,
                     seed=-1)


PLANNERS = [run_pipeline, step1_modularity]


@pytest.mark.parametrize("plan", PLANNERS)
@pytest.mark.parametrize("cap", [True, False, 4.5, 4.0, "4", None, np.float64(4.0)],
                         ids=["True", "False", "4.5", "4.0", "str", "None", "np.float64"])
def test_non_integer_cap_rejected(plan, cap):
    """A bool cap would plan at 1 or 0 and 4.5 at 4; neither is taken."""
    with pytest.raises(TypeError, match="the qubit cap must be an integer"):
        plan(build_cut_graph(chain3()), cap)


@pytest.mark.parametrize("plan", PLANNERS)
@pytest.mark.parametrize("circuit", [chain3(), CircuitIR(4, (GateApp("h", (0,)),))],
                         ids=["chain3", "no_2q_gates"])
@pytest.mark.parametrize("cap", [0, -3, np.int64(0)])
def test_cap_below_one_is_infeasible_on_every_graph(plan, circuit, cap):
    """A graph without nodes (no 2-qubit gate) passes every per-node cap
    check, yet gets no plan whose ``max_qubits`` is below 1."""
    with pytest.raises(InfeasibleCapError, match=f"the qubit cap {cap} is below 1"):
        plan(build_cut_graph(circuit), cap)


@pytest.mark.parametrize("plan", PLANNERS)
def test_numpy_integer_cap_is_valid(plan):
    g = build_cut_graph(ising_chain(10, seed=8))
    a, b = plan(g, np.int64(5)), plan(g, 5)
    assert getattr(a, "clustering", a).assignment == getattr(b, "clustering", b).assignment


@pytest.mark.parametrize("plan", PLANNERS)
def test_numpy_integer_cap_gives_the_plain_json(plan):
    """A numpy cap reached ``Clustering.max_qubits`` unconverted, and
    ``json.dumps`` refused the clustering's JSON."""
    g = build_cut_graph(ising_chain(10, seed=8))
    a, b = plan(g, np.int64(5)), plan(g, 5)
    assert type(getattr(a, "clustering", a).max_qubits) is int
    assert (json.dumps(getattr(a, "clustering", a).to_json_dict())
            == json.dumps(getattr(b, "clustering", b).to_json_dict()))


def test_stage_metrics_json_keys():
    g = build_cut_graph(ising_chain(10, seed=8))
    result = run_pipeline(g, 5)
    stable = {"stage", "lq", "ld", "r", "moves", "passes", "wall_time_s", "gain_evals",
              "lq_trace"}
    for stage, keys in zip(result.stages,
                           (stable, stable | {"returned", "wire_lq", "dissolved"})):
        payload = stage.to_json_dict()
        assert set(payload) == keys
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
        singles = {n.id: n.id for n in contracted.nodes}
        assert (modularity_oracle(contracted, singles)
                == pytest.approx(modularity_oracle(g, cl.assignment)))


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


def test_validate_rejects_unlisted_clusters_and_nodes():
    """Every assigned cluster must be listed, and the listed clusters must
    hold every node."""
    g = build_cut_graph(parse_qasm("qreg q[3]; cx q[0],q[1]; cx q[1],q[2];"))
    cluster0 = Cluster(frozenset({0, 1}), frozenset({0, 1}))
    unlisted = Clustering({0: 0, 1: 0, 2: 1, 3: 1}, {0: cluster0}, 3)
    with pytest.raises(ValueError, match="the clusters list 2 of 4 nodes"):
        unlisted.validate(g)
    short = Clustering({0: 0, 1: 0, 2: 0, 3: 0}, {0: cluster0}, 3)
    with pytest.raises(ValueError, match="the clusters list 2 of 4 nodes"):
        short.validate(g)
    Clustering.from_assignment(g, unlisted.assignment, 3).validate(g)


_SPLIT = {0: 0, 1: 0, 2: 1, 3: 1}
_RIGHT = Cluster(frozenset({2, 3}), frozenset({1, 2}))


@pytest.mark.parametrize("assignment, clusters, cap, message", [
    pytest.param({0: 0, 1: 0, 2: 0}, {0: Cluster(frozenset({0, 1, 2}), frozenset({0, 1}))}, 3,
                 "assignment does not cover the graph's nodes", id="missing-node"),
    pytest.param(dict.fromkeys(range(4), 0),
                 {0: Cluster(frozenset(range(4)), frozenset(range(3))),
                  1: Cluster(frozenset(), frozenset())}, 3,
                 "empty cluster 1", id="empty-cluster"),
    pytest.param(_SPLIT, {0: Cluster(frozenset({0, 1, 2}), frozenset({0, 1})), 1: _RIGHT}, 3,
                 "node 2 of cluster 0 is assigned to 1", id="member-elsewhere"),
    pytest.param(_SPLIT, {0: Cluster(frozenset({0, 1}), frozenset({0, 1, 2})), 1: _RIGHT}, 3,
                 "cluster 0 lists qubits other than its members'", id="wrong-qubits"),
    pytest.param(_SPLIT, {0: Cluster(frozenset({0, 1}), frozenset({0, 1})), 1: _RIGHT}, 1,
                 "cluster 0 holds 2 qubits, cap 1", id="over-cap"),
])
def test_validate_rejects_each_malformed_clustering(assignment, clusters, cap, message):
    """Each rule of ``validate`` on the graph of ``cx q[0],q[1]; cx q[1],q[2];``,
    whose nodes 0-3 sit on qubits 0, 1, 1, 2."""
    g = build_cut_graph(parse_qasm("qreg q[3]; cx q[0],q[1]; cx q[1],q[2];"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        Clustering(assignment, clusters, cap).validate(g)


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
    engine = _ModularityEngine(_Level.from_graph(_two_blobs()), 3, audit=True)
    engine.sweep(engine.visit_order(None))
    engine._check_state(0.0)  # no move since the sweep's last check
    corrupt(engine)
    with pytest.raises(AuditError):
        engine._check_state(0.0)


def test_step1_audit_requires_rising_modularity():
    """A claimed gain must show up as the same rise in from-scratch Q."""
    engine = _ModularityEngine(_Level.from_graph(_two_blobs()), 3, audit=True)
    engine.sweep(engine.visit_order(None))
    with pytest.raises(AuditError, match="Q changed by"):
        engine._check_state(1e-3)


@pytest.mark.parametrize("corrupt", [
    _corrupt_mask, _corrupt_membership, _corrupt_cap,
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


def _corrupt_cluster_count(engine):
    engine.r += 1


def _corrupt_k(engine):
    """Node 0's ``k`` and its cluster's sigma raised alike: sigma still
    sums its members' ``k``, but no longer the edges' weight."""
    engine.k[0] += 1.0
    engine.sigma[engine.cluster_of[0]] += 1.0


def _corrupt_outside(engine):
    engine.outside[0] += 1


@pytest.mark.parametrize("engine_cls, corrupt, message", [
    pytest.param(_ModularityEngine, _corrupt_cluster_count,
                 "clusters do not partition the level's nodes", id="step1-cluster-count"),
    pytest.param(_ModularityEngine, _corrupt_k, "boundary drift on cluster 0", id="step1-k"),
    pytest.param(_LogOverheadEngine, _corrupt_cluster_count,
                 "clusters do not partition the level's nodes", id="step2-cluster-count"),
    pytest.param(_LogOverheadEngine, _corrupt_outside,
                 "outside-neighbour counts differ from a recount", id="step2-outside"),
])
def test_audit_names_each_corrupted_count(engine_cls, corrupt, message):
    """The audit raises that the corruptions above cannot reach, each on a
    clean engine over a fresh level, so ``k`` is not shared with another
    test."""
    engine = engine_cls(_Level.from_graph(_two_blobs()), 3, [0, 0, 0, 3, 3, 3], audit=True)
    check = engine._checked_modularity if engine_cls is _ModularityEngine else engine._check_state
    check()
    corrupt(engine)
    with pytest.raises(AuditError, match=f"^{message}$"):
        check()
