"""Shared test oracles, all deliberately independent of the library's own
fast paths: the graph oracles classify raw edge lists directly, and the
variant oracle simulates one cut variant at a time, state by state.
``OracleCheckedEngine`` runs the stage-1 move engine against the modularity
oracle. ``load_tool`` and ``own_imports`` serve the self-tests of the
measurement tools under ``tools/``."""

from __future__ import annotations

import importlib.util
import math
import os
import sys

import numpy as np
import pytest

from cutplan.clustering import Clustering, _Level, _ModularityEngine
from cutplan.cutsim import basis_bits, gate_matrix, zero_state
from cutplan.cutsim.decomp import MEAS_SIGNED
from cutplan.cutsim.statevector import apply_matrix
from cutplan.graph import CutGraph, CutKind, Edge, Node
from cutplan.qasm import GateApp


def make_edge(u, v, kappa, tau, kind=CutKind.TIME):
    return Edge(min(u, v), max(u, v), kind, w=math.log(kappa ** 2),
                w_hat=math.log(tau), kappa=kappa, tau=tau)


def random_graph(rng: np.random.Generator, max_nodes: int = 10,
                 self_loops: bool = True) -> CutGraph:
    """Connected-ish weighted multigraph with varied kappa/tau per edge."""
    n = int(rng.integers(3, max_nodes + 1))
    nodes = tuple(Node(i, frozenset((int(rng.integers(0, n)),))) for i in range(n))
    edges = []
    for i in range(1, n):  # spanning tree keeps things connected
        j = int(rng.integers(0, i))
        edges.append(_rand_edge(rng, i, j))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i == j and not self_loops:
            continue
        edges.append(_rand_edge(rng, i, j))
    return CutGraph(nodes, tuple(edges))


def _rand_edge(rng, u, v):
    kappa = float(rng.uniform(1.2, 4.0))
    tau = float(rng.uniform(1.0, kappa ** 2))
    kind = CutKind.TIME if rng.random() < 0.5 else CutKind.SPACE
    return make_edge(u, v, kappa, tau, kind)


def random_clustering(rng: np.random.Generator, graph: CutGraph,
                      max_qubits: int = 99) -> Clustering:
    n = graph.num_nodes
    k = int(rng.integers(1, n + 1))
    assignment = {i: int(rng.integers(0, k)) for i in range(n)}
    # cluster labels need not be dense; from_assignment keeps only used ones
    return Clustering.from_assignment(graph, assignment, max_qubits)


# -- modularity from first principles -----------------------------------------

def modularity_oracle(graph: CutGraph, assignment: dict[int, int]) -> float:
    """Direct evaluation: Q = sum_c [M_c/m - (Sigma_c/(2m))^2]."""
    m = sum(e.w for e in graph.edges)
    clusters = set(assignment.values())
    q = 0.0
    for c in clusters:
        intra = 0.0
        attached = 0.0
        for e in graph.edges:
            cu, cv = assignment[e.u], assignment[e.v]
            if cu == c and cv == c:
                intra += e.w
                attached += 2.0 * e.w
            elif cu == c or cv == c:
                attached += e.w
        q += intra / m - (attached / (2.0 * m)) ** 2
    return q


def worked_gain_graph() -> tuple[CutGraph, list[int]]:
    """A graph and a clustering that realise the worked modularity-gain
    instance: node 0 sits in cluster 0 and has one w = ln 16 edge into each
    of clusters 0 and 1 and one w = ln 9 edge into cluster 2, so

        m = 20 ln16 + 10 ln9 + ln49,  k_0 = 2 ln16 + ln9,
        sigma_0 = 10 ln16 + 6 ln9,    sigma_1 = 4 ln16 + 2 ln9 + ln49.

    Moving node 0 to cluster 1 gains k_0 (4 ln16 + 3 ln9 - ln49) / 2m^2.
    Returns the graph and the cluster of every node."""
    edges = [(0, 1, 4), (0, 2, 4), (0, 3, 3),
             (1, 1, 4), (1, 1, 4), (1, 1, 4), (1, 3, 4),
             (1, 1, 3), (1, 1, 3), (1, 3, 3),
             (2, 2, 3), (2, 3, 7), (2, 3, 4), (2, 3, 4), (2, 3, 4)]
    edges += [(3, 3, 4)] * 11 + [(3, 3, 3)] * 5
    nodes = tuple(Node(i, frozenset((i,))) for i in range(4))
    graph = CutGraph(nodes, tuple(make_edge(u, v, kappa, 1.0) for u, v, kappa in edges))
    return graph, [0, 0, 1, 2]


def random_start(rng: np.random.Generator, graph: CutGraph) -> list[int]:
    """A random clustering (often not singletons) as a move engine's list of
    cluster ids; the ids are below the node count."""
    assignment = random_clustering(rng, graph).assignment
    return [assignment[i] for i in range(graph.num_nodes)]


class OracleCheckedEngine(_ModularityEngine):
    """The stage-1 engine under audit, on a level built from ``graph``. It
    also records every accepted move and checks its gain against the
    change of ``modularity_oracle`` within 1e-9."""

    def __init__(self, graph: CutGraph, cluster_of: list[int], max_qubits: int = 99):
        self.graph = graph
        self.moved: list[int] = []
        self.gains: list[float] = []
        self.errors: list[float] = []
        super().__init__(_Level.from_graph(graph), max_qubits, list(cluster_of), audit=True)
        self.q = modularity_oracle(graph, dict(enumerate(self.cluster_of)))

    def relocate(self, i, c_from, c_to):
        self.moved.append(i)
        super().relocate(i, c_from, c_to)

    def _check_state(self, gain):
        super()._check_state(gain)
        q = modularity_oracle(self.graph, dict(enumerate(self.cluster_of)))
        self.errors.append(abs(q - self.q - gain))
        if not self.errors[-1] <= 1e-9:
            raise AssertionError(f"gain {gain!r}, oracle delta {q - self.q!r}")
        self.q = q
        self.gains.append(gain)

    def settle(self, rng: np.random.Generator | None = None):
        """Sweep, in the weighted order or in random ones drawn from ``rng``,
        until a sweep moves nothing."""
        while self.sweep(self.visit_order(rng)):
            pass


# -- log overhead from first principles ----------------------------------------

def log_overhead_oracle(graph: CutGraph, assignment: dict[int, int],
                        cluster: int) -> float:
    """ln R + sum of w over cuts attached to the cluster + sum of w_hat over
    the rest, by explicit edge classification."""
    r = len(set(assignment.values()))
    total = math.log(r)
    for e in graph.edges:
        cu, cv = assignment[e.u], assignment[e.v]
        if cu == cv:
            continue
        if cluster in (cu, cv):
            total += e.w
        else:
            total += e.w_hat
    return total


def max_log_overhead_oracle(graph: CutGraph, assignment: dict[int, int]) -> float:
    return max(log_overhead_oracle(graph, assignment, c)
               for c in set(assignment.values()))


# -- exhaustive partition search -------------------------------------------------

def set_partitions(items: list[int]):
    """Every partition of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for k in range(len(partial)):
            yield partial[:k] + [partial[k] + [head]] + partial[k + 1:]
        yield [[head]] + partial


def best_feasible_log_overhead(graph: CutGraph, max_qubits: int) -> float:
    """Exhaustive minimum of the worst-cluster log overhead over all
    qubit-feasible clusterings."""
    node_ids = [n.id for n in graph.nodes]
    best = math.inf
    for blocks in set_partitions(node_ids):
        feasible = True
        for block in blocks:
            qubits = set()
            for i in block:
                qubits |= graph.nodes[i].qubits
            if len(qubits) > max_qubits:
                feasible = False
                break
        if not feasible:
            continue
        assignment = {}
        for c, block in enumerate(blocks):
            for i in block:
                assignment[i] = c
        best = min(best, max_log_overhead_oracle(graph, assignment))
    return best


# -- one cut variant at a time ---------------------------------------------------

def _variant_ops(plan, specs, choice: dict[int, int]) -> list:
    """Expand cut sites for one variant into concrete gate/measure ops."""
    ops = []
    for k, run in enumerate(plan.runs):
        for kind, params, locals_ in run:
            ops.append(("gate", GateApp(kind, locals_, params)))
        if k == len(plan.sites):
            break
        j, side, lq = plan.sites[k]
        ts = specs[j].terms[choice[j]].sides[side]
        for kind, params in ts.gates:
            ops.append(("gate", GateApp(kind, (lq,), params)))
        if ts.measure is not None:
            ops.append(("measure", lq, ts.measure == MEAS_SIGNED))
        for kind, params in ts.post_gates:
            ops.append(("gate", GateApp(kind, (lq,), params)))
    return ops


def variant_distribution_oracle(plan, specs, choice: dict[int, int],
                                values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (probabilities, signed values) of one variant, simulated from
    |0...0> gate by gate; each signed measurement forks every branch into
    its kept and its sign-flipped projection, dropping branches of squared
    norm at most 1e-28."""
    n = plan.num_qubits
    branches = [(zero_state(n), 1.0)]
    for op in _variant_ops(plan, specs, choice):
        if op[0] == "gate":
            branches = [(apply_matrix(state, n, op[1].qubits, gate_matrix(op[1])), sign)
                        for state, sign in branches]
        else:
            _, lq, signed = op
            if not signed:
                continue  # nothing reads the wire again: dephasing changes no outcome
            mask = basis_bits(n, lq).astype(bool)
            forked = []
            for state, sign in branches:
                keep = state.copy()
                keep[mask] = 0.0
                flip = state.copy()
                flip[~mask] = 0.0
                for branch, branch_sign in ((keep, sign), (flip, -sign)):
                    if np.vdot(branch, branch).real > 1e-28:
                        forked.append((branch, branch_sign))
            branches = forked
    probs = [np.abs(state) ** 2 for state, _ in branches]
    vals = [sign * values for _, sign in branches]
    return np.concatenate(probs), np.concatenate(vals)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def load_tool(name: str):
    """``tools/<name>.py`` as a module of its own, left out of ``sys.modules``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_{name}_under_test", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture
def own_imports(monkeypatch):
    """Lets a test run a tool in this process: building a corpus drops every
    ``cutplan`` module it imported, and ``tools/ab.py`` refuses to load a
    tree beside one, so the suite's are set aside, and put back afterwards
    in place of what the test loaded; so is ``sys.path``."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in [m for m in sys.modules if m.startswith("cutplan")]:
        monkeypatch.delitem(sys.modules, name)
    yield
    for name in [m for m in sys.modules if m.startswith(("cutplan", "_ab_tree"))]:
        del sys.modules[name]
