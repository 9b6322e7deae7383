import math
import re
import warnings

import numpy as np
import pytest

from cutplan.clustering import Clustering
from cutplan.fixtures import chain3, ising_chain
from cutplan.graph import CutKind, build_cut_graph, contract, merge_parallel_edges, to_dot
from cutplan.qasm import CircuitIR, GateApp

from conftest import random_clustering, random_graph

LN9 = math.log(9)
LN16 = math.log(16)


def chain3_graph():
    return build_cut_graph(chain3())


def test_two_gate_chain_structure():
    g = chain3_graph()
    assert g.num_nodes == 4
    kinds = [(e.u, e.v, e.kind) for e in g.edges]
    assert (0, 1, CutKind.SPACE) in kinds
    assert (2, 3, CutKind.SPACE) in kinds
    assert (1, 2, CutKind.TIME) in kinds
    for e in g.edges:
        if e.kind is CutKind.SPACE:
            assert e.w == pytest.approx(LN9)
            assert e.w_hat == pytest.approx(math.log(1.5))
        else:
            assert e.w == pytest.approx(LN16)
            assert e.w_hat == pytest.approx(math.log(2))


def test_empty_circuit():
    g = build_cut_graph(CircuitIR(3, ()))
    assert g.num_nodes == 0
    assert g.edges == ()


def test_one_qubit_gates_ignored():
    circuit = CircuitIR(2, (GateApp("h", (0,)), GateApp("cx", (0, 1)),
                            GateApp("rz", (1,), (0.3,))))
    g = build_cut_graph(circuit)
    assert g.num_nodes == 2
    assert len(g.edges) == 1


@pytest.mark.parametrize("m", [1, 2, 5])
def test_repeated_gate_counts(m):
    circuit = CircuitIR(2, tuple(GateApp("cx", (0, 1)) for _ in range(m)))
    g = build_cut_graph(circuit)
    assert g.num_nodes == 2 * m
    assert sum(e.kind is CutKind.SPACE for e in g.edges) == m
    assert sum(e.kind is CutKind.TIME for e in g.edges) == 2 * (m - 1)


@pytest.mark.parametrize("args, error, message", [
    ((2.5,), TypeError, "width must be an integer, got 2.5"),
    ((True,), TypeError, "width must be an integer, got True"),
    ((4, 1.5), TypeError, "depth must be an integer, got 1.5"),
    ((4, True), TypeError, "depth must be an integer, got True"),
    ((4, 1, 2.0), TypeError, "seed must be an integer, got 2.0"),
    ((4, 1, -1), ValueError, "seed must be >= 0, got -1"),
], ids=["width=2.5", "width=True", "depth=1.5", "depth=True", "seed=2.0", "seed=-1"])
def test_ising_chain_names_a_bad_argument(args, error, message):
    """numpy's messages (``seed must be integer``, ``expected non-negative
    integer``) named the wrong argument or none; ``depth=True`` built one
    layer."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ising_chain(*args)


def test_ising_chain_takes_numpy_integers():
    a, b = ising_chain(6, 2, 3), ising_chain(np.int64(6), np.int32(2), np.uint8(3))
    assert (a.name, a.kind, a.qubits, a.params) == (b.name, b.kind, b.qubits, b.params)


def test_ising_chain_width_is_a_plain_int():
    assert type(ising_chain(np.int64(12)).num_qubits) is int


def test_node_counts_general():
    from cutplan.fixtures import ising_chain

    circuit = ising_chain(9, depth=2, seed=1)
    g = build_cut_graph(circuit)
    two_q = [gate for gate in circuit.gates if len(gate.qubits) == 2]
    assert g.num_nodes == 2 * len(two_q)
    assert sum(e.kind is CutKind.SPACE for e in g.edges) == len(two_q)
    per_wire = {}
    for gate in two_q:
        for q in gate.qubits:
            per_wire[q] = per_wire.get(q, 0) + 1
    expected_time = sum(max(0, c - 1) for c in per_wire.values())
    assert sum(e.kind is CutKind.TIME for e in g.edges) == expected_time


def test_unknown_gate_falls_back_with_warning():
    circuit = CircuitIR(2, (GateApp("swap", (0, 1)),))
    with pytest.warns(UserWarning, match="swap"):
        g = build_cut_graph(circuit)
    assert g.edges[0].kappa == 3.0


def test_unknown_gates_warn_once_per_kind_at_the_caller():
    """The weight entry is looked up once per gate kind and call, and the
    warning points at the code that called ``build_cut_graph``."""
    circuit = CircuitIR(3, (GateApp("swap", (0, 1)), GateApp("cx", (1, 2)),
                            GateApp("swap", (1, 2)), GateApp("cy", (0, 2)),
                            GateApp("swap", (0, 1))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = build_cut_graph(circuit)
        build_cut_graph(circuit)
    assert [str(w.message).split("'")[1] for w in caught] == ["swap", "cy"] * 2
    assert {(w.category, w.filename) for w in caught} == {(UserWarning, __file__)}
    assert [k for k, kind in zip(g.kappa, g.kind) if kind is CutKind.SPACE] == [3.0] * 5


def test_identity_contraction_is_isomorphic():
    g = chain3_graph()
    singles = Clustering.from_assignment(g, {n.id: n.id for n in g.nodes}, 3)
    h = contract(g, singles)
    assert [n.qubits for n in h.nodes] == [n.qubits for n in g.nodes]
    assert [(e.u, e.v, e.kind) for e in h.edges] == \
        sorted((e.u, e.v, e.kind) for e in g.edges)
    for e_new, e_old in zip(h.edges, sorted(g.edges, key=lambda e: (e.u, e.v))):
        assert e_new.w == pytest.approx(e_old.w)
        assert e_new.w_hat == pytest.approx(e_old.w_hat)


def test_split_contraction_hand_sums():
    g = chain3_graph()
    cl = Clustering.from_assignment(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    h = contract(g, cl)
    assert h.num_nodes == 2
    cross = [e for e in h.edges if e.u != e.v]
    loops = [e for e in h.edges if e.u == e.v]
    assert len(cross) == 1 and len(loops) == 2
    assert cross[0].w == pytest.approx(LN16)
    assert cross[0].w_hat == pytest.approx(math.log(2))
    for loop in loops:
        assert loop.w == pytest.approx(LN9)
    assert h.nodes[0].qubits == frozenset({0, 1})
    assert h.nodes[1].qubits == frozenset({1, 2})


def test_full_contraction_single_supernode():
    g = chain3_graph()
    cl = Clustering.from_assignment(g, {i: 0 for i in range(4)}, 3)
    h = contract(g, cl)
    assert h.num_nodes == 1
    assert len(h.edges) == 1 and h.edges[0].u == h.edges[0].v
    assert h.edges[0].w == pytest.approx(sum(e.w for e in g.edges))


def test_weight_conservation_random(rng):
    for _ in range(25):
        g = random_graph(rng)
        cl = random_clustering(rng, g)
        h = contract(g, cl)
        assert (sum(e.w for e in h.edges)
                == pytest.approx(sum(e.w for e in g.edges)))
        assert (sum(e.w_hat for e in h.edges)
                == pytest.approx(sum(e.w_hat for e in g.edges)))
        assert (set().union(*(n.qubits for n in h.nodes))
                == set().union(*(n.qubits for n in g.nodes)))


def _contracted_edges_oracle(graph, clustering):
    """Edge-at-a-time aggregation: running sums and products per
    (min, max) supernode pair, in edge order, emitted in sorted pair order."""
    new_id = {c: i for i, c in enumerate(sorted(clustering.clusters))}
    agg = {}
    for e in graph.edges:
        cu = new_id[clustering.assignment[e.u]]
        cv = new_id[clustering.assignment[e.v]]
        entry = agg.setdefault((min(cu, cv), max(cu, cv)), [0.0, 0.0, 1.0, 1.0, set()])
        entry[0] += e.w
        entry[1] += e.w_hat
        entry[2] *= e.kappa
        entry[3] *= e.tau
        entry[4].add(e.kind)
    return [(u, v, kinds.pop() if len(kinds) == 1 else CutKind.MERGED, w, w_hat, kappa, tau)
            for (u, v), (w, w_hat, kappa, tau, kinds) in sorted(agg.items())]


def test_contract_matches_edge_at_a_time_aggregation_exactly(rng):
    graphs = [random_graph(rng, max_nodes=30) for _ in range(40)]
    graphs.append(build_cut_graph(ising_chain(60, depth=3, seed=1)))
    for g in graphs:
        cl = random_clustering(rng, g)
        h = contract(g, cl)
        got = [(e.u, e.v, e.kind, e.w, e.w_hat, e.kappa, e.tau) for e in h.edges]
        assert got == _contracted_edges_oracle(g, cl)


def test_merge_parallel_edges_slots():
    u, v, w, w_hat, slot = merge_parallel_edges([3, 1, 0, 1, 2], [1, 3, 0, 2, 1],
                                                [1.0, 2.0, 3.0, 4.0, 5.0],
                                                [0.5, 0.25, 0.0, 1.0, 2.0])
    assert (u, v) == ([0, 1, 1], [0, 2, 3])
    assert (w, w_hat) == ([3.0, 9.0, 3.0], [0.0, 3.0, 0.75])
    assert slot == [2, 2, 0, 1, 1]
    assert merge_parallel_edges([], [], [], []) == ([], [], [], [], [])


def test_merged_kind_tagging():
    circuit = CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2)),
                            GateApp("cx", (0, 1))))
    g = build_cut_graph(circuit)
    # cluster so one supernode pair is joined by both a space and a time edge
    cl = Clustering.from_assignment(g, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 0}, 3)
    h = contract(g, cl)
    cross = [e for e in h.edges if e.u != e.v]
    assert len(cross) == 1
    assert cross[0].kind is CutKind.MERGED


def test_dot_export_deterministic_names():
    g = chain3_graph()
    dot = to_dot(g)
    assert "g0_0" in dot and "g1_1" in dot
    assert "w=" in dot and "ŵ=" in dot and "space" in dot
    cl = Clustering.from_assignment(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    dot2 = to_dot(g, cl)
    assert 'cluster="0"' in dot2 and 'cluster="1"' in dot2
    assert to_dot(g) == dot


def test_connectivity_mirrors_gate_interaction():
    def components(graph):
        seen, count = set(), 0
        adj = [[] for _ in graph.nodes]
        for e in graph.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        for start in range(graph.num_nodes):
            if start in seen:
                continue
            count += 1
            stack = [start]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(n for n in adj[node] if n not in seen)
        return count

    connected = build_cut_graph(chain3())
    assert components(connected) == 1
    disjoint = build_cut_graph(CircuitIR(4, (GateApp("cx", (0, 1)),
                                             GateApp("cx", (2, 3)))))
    assert components(disjoint) == 2


def test_dot_names_supernodes_and_labels_each_edge_kind():
    """A contracted graph's nodes have no gate, so DOT names them ``n<id>``;
    every edge label ends with the edge's kind, ``merged`` for the pair whose
    constituents differ."""
    circuit = CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2)),
                            GateApp("cx", (0, 1))))
    g = build_cut_graph(circuit)
    cl = Clustering.from_assignment(g, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 0}, 3)
    h = contract(g, cl)
    lines = to_dot(h).splitlines()
    names = [line.split()[0] for line in lines if line.startswith("  ") and "--" not in line]
    assert names == [f"n{i}" for i in range(h.num_nodes)] == ["n0", "n1"]
    edges = [line.split(" [label=")[0].split(" -- ") + [line.rsplit(", ", 1)[1]]
             for line in lines if "--" in line]
    assert edges == [[f"  n{u}", f"n{v}", f'{kind.value}"];']
                     for u, v, kind in zip(h.u, h.v, h.kind)]
    assert [kind.value for kind in h.kind] == ["space", "merged", "space"]
