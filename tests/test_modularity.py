"""The stage-1 engine's modularity arithmetic against from-scratch evaluation.

Every engine here runs under audit, which checks each accepted gain against
modularity recomputed from the level's edges; ``OracleCheckedEngine`` also
checks it against ``conftest.modularity_oracle``, which classifies the raw
edges of the ``CutGraph`` itself.
"""

import math

import pytest

from cutplan.graph import CutGraph, Node

from conftest import (OracleCheckedEngine, make_edge, random_graph, random_start,
                      worked_gain_graph)

LN9 = math.log(9)
LN16 = math.log(16)
LN49 = math.log(49)


def test_worked_gain_instance():
    """The engine's bookkeeping realises the worked instance, and the gain
    it accepts for moving node 0 is the closed form."""
    graph, cluster_of = worked_gain_graph()
    engine = OracleCheckedEngine(graph, cluster_of)
    m = 20 * LN16 + 10 * LN9 + LN49
    k_i = 2 * LN16 + LN9
    assert engine.m == pytest.approx(m, rel=1e-12)
    assert engine.k[0] == pytest.approx(k_i, rel=1e-12)
    assert engine.sigma[0] == pytest.approx(10 * LN16 + 6 * LN9, rel=1e-12)
    assert engine.sigma[1] == pytest.approx(4 * LN16 + 2 * LN9 + LN49, rel=1e-12)
    assert engine.sweep([0]) == 1
    assert engine.cluster_of[0] == 1
    expected = k_i * (4 * LN16 + 3 * LN9 - LN49) / (2 * m * m)
    assert engine.gains == [pytest.approx(expected, rel=1e-12)]


def test_isolated_node_gain():
    # node 0 alone in its cluster: sigma of a singleton is exactly k_0, so the
    # removal half of the gain vanishes and only the addition half remains
    graph = CutGraph(tuple(Node(i, frozenset((i,))) for i in range(3)),
                     (make_edge(0, 1, 4, 2), make_edge(1, 2, 3, 1.5)))
    engine = OracleCheckedEngine(graph, [0, 1, 1])
    assert engine.sigma[0] == engine.k[0]
    m, k_0, sigma_to = LN16 + LN9, LN16, LN16 + 2 * LN9
    assert engine.sweep([0]) == 1
    expected = LN16 / m - k_0 * sigma_to / (2 * m * m)
    assert engine.gains == [pytest.approx(expected, rel=1e-12)]


def test_gain_matches_from_scratch_delta(rng):
    """Every accepted gain == Q(after) - Q(before), from random starts."""
    moves = 0
    for trial in range(100):
        graph = random_graph(rng, max_nodes=10)
        engine = OracleCheckedEngine(graph, random_start(rng, graph))
        engine.settle("random" if trial % 2 else "weighted", rng)
        moves += len(engine.gains)
    assert moves >= 100


def test_gain_with_self_loops(rng):
    """Self-loops stay with the node, so the gain must still match."""
    moved_with_loop = 0
    for _ in range(200):
        graph = random_graph(rng, max_nodes=6, self_loops=True)
        looped = {e.u for e in graph.edges if e.u == e.v}
        if not looped:
            continue
        engine = OracleCheckedEngine(graph, random_start(rng, graph))
        engine.settle()
        moved_with_loop += sum(1 for i in engine.moved if i in looped)
    assert moved_with_loop >= 10


def test_modularity_matches_oracle(rng):
    """The audit's own from-scratch modularity is the oracle's."""
    for _ in range(30):
        graph = random_graph(rng)
        engine = OracleCheckedEngine(graph, random_start(rng, graph))
        assert engine._checked_modularity() == pytest.approx(engine.q, abs=1e-12)


def test_attached_weight_identity(rng):
    """Sigma_c = 2*M_c + boundary weight, for every cluster of a random start."""
    for _ in range(20):
        graph = random_graph(rng)
        engine = OracleCheckedEngine(graph, random_start(rng, graph))
        cluster_of = engine.cluster_of
        total_sigma = 0.0
        for c in engine.live():
            intra = sum(e.w for e in graph.edges
                        if cluster_of[e.u] == c and cluster_of[e.v] == c)
            boundary = sum(e.w for e in graph.edges
                           if (cluster_of[e.u] == c) != (cluster_of[e.v] == c))
            assert engine.sigma[c] == pytest.approx(2 * intra + boundary)
            total_sigma += engine.sigma[c]
        assert total_sigma == pytest.approx(2 * engine.m)
