"""Golden digests of ``parse_qasm``, ``to_qasm``, ``run_pipeline``,
``build_cut_graph``, ``build_report``, ``cut_estimate`` and
``gate_cut_decomposition`` output.

Each pipeline digest covers the final assignment and, per stage, ``lq``,
``moves``, ``passes``, ``gain_evals`` and ``lq_trace``. Floats enter with 12
significant digits, far tighter than any tolerance the planner uses, so a
change to a move decision, a visit order, a tie rule or a counter changes
the digest, while a last-bit difference between platform ``log``
implementations does not. The cut-graph and report digests take floats by
``repr``: graph building and reporting must stay bit-identical, edge order
and float summation order included. The parse digest takes parameters by
``repr`` too.
"""

import hashlib
import json

import numpy as np
import pytest

from cutplan.clustering import Clustering, run_pipeline
from cutplan.cutsim import (GateCut, WireCut, cut_estimate, gate_cut_decomposition,
                            gate_matrix, pauli_z_observable, ring_circuit, ring_cuts)
from cutplan.fixtures import ising_chain
from cutplan.graph import DEFAULT_WEIGHTS, build_cut_graph
from cutplan.overhead import build_report
from cutplan.qasm import CircuitIR, GateApp, parse_qasm, to_qasm

from conftest import random_graph


def _text(result) -> str:
    parts = [",".join(f"{n}:{c}" for n, c in sorted(result.clustering.assignment.items()))]
    for s in result.stages:
        trace = ",".join(f"{x:.12g}" for x in s.lq_trace)
        parts.append(f"{s.stage}|{s.lq:.12g}|{s.moves}|{s.passes}|{s.gain_evals}|{trace}")
    return "\n".join(parts)


def _digest(texts) -> str:
    return hashlib.sha256("\n#\n".join(texts).encode()).hexdigest()[:16]


CHAIN_DIGESTS = {
    (34, 1, 8): "05f999c0188d929f",
    (34, 1, 30): "bec2fa0ce19968b3",
    (34, 2, 8): "c7510e34f542f681",
    (34, 2, 30): "c331209c068b371a",
    (100, 1, 12): "3bfaf8e5ebedfb80",
    (100, 1, 40): "8b13848d16af312e",
    (100, 2, 12): "c976ab3d20ffeebd",
    (100, 2, 40): "1befcd840211b0c4",
    (420, 1, 25): "9037f3e2f8fd6122",
    (420, 1, 50): "9e37e0a4cb459c5c",
    (420, 2, 25): "ae8deef8f526afd5",
    (420, 2, 50): "17382d768afffbf2",
}


@pytest.mark.parametrize("width,depth,cap", sorted(CHAIN_DIGESTS))
def test_chain_pipeline_digest(width, depth, cap):
    g = build_cut_graph(ising_chain(width, depth=depth, seed=width))
    result = run_pipeline(g, cap)
    assert _digest([_text(result)]) == CHAIN_DIGESTS[width, depth, cap]


def test_random_graph_pipeline_digest():
    """50 small random multigraphs, self-loops included, under audit."""
    rng = np.random.default_rng(4242)
    texts = []
    for _ in range(50):
        g = random_graph(rng)
        cap = int(rng.integers(1, 5))
        texts.append(_text(run_pipeline(g, cap, audit=True)))
    assert _digest(texts) == "1d44da84c57634e9"


def test_random_order_restarts_digest():
    g = build_cut_graph(ising_chain(100, depth=2, seed=100))
    result = run_pipeline(g, 40, order="random", restarts=3, seed=7)
    assert _digest([_text(result)]) == "6d3204a0042002e3"


def test_random_matching_pipeline_digest():
    """Wide random-matching plans whose stage-2 supernode pass meets ties in
    ``k``: summing the supernode level's edges in another order than
    contracting the atomic level once changes these plans."""
    texts = []
    for seed in (0, 3):
        g = build_cut_graph(_random_matching(48, 16, seed))
        texts += [_text(run_pipeline(g, cap)) for cap in (12, 20)]
    assert _digest(texts) == "95d4919954dfde00"


# -- estimator -------------------------------------------------------------------

def _estimate_text(circuit, cuts, eps, seed) -> str:
    run = cut_estimate(circuit, cuts, pauli_z_observable(range(circuit.num_qubits)),
                       eps, seed=seed)
    parts = [f"{run.estimate:.12g}|{run.r}"]
    for c in sorted(run.allocation.n_c):
        counts = ",".join(f"{v}:{n}" for v, n in sorted(run.allocation.variants[c].items()))
        means = ",".join(f"{v}:{m:.12g}" for v, m in sorted(run.variant_means[c].items()))
        parts.append(f"{c}|{run.allocation.n_c[c]}|{counts}|{means}")
    return "\n".join(parts)


def _two_wire_cuts_after_one_gate():
    gates = (GateApp("rx", (0,), (0.9,)), GateApp("ry", (1,), (0.4,)), GateApp("cx", (0, 1)),
             GateApp("ry", (2,), (0.8,)), GateApp("cx", (1, 2)), GateApp("rx", (0,), (0.5,)))
    return CircuitIR(3, gates), [WireCut(1, 2), WireCut(0, 2)]


def _gate_and_wire_cut_on_one_gate(wire):
    gates = (GateApp("rx", (0,), (0.9,)), GateApp("ry", (1,), (0.4,)),
             GateApp("cx", (0, 1)), GateApp("cz", (1, 2)), GateApp("rz", (0,), (0.3,)),
             GateApp("h", (2,)))
    return CircuitIR(3, gates), [WireCut(wire, 2), GateCut(2)]


def _gate_and_two_wire_cuts_on_one_gate():
    """Partition {q0 before gate 2, q2, q1 after gate 2} holds a gate-cut
    side, a measure side and a prepare side of gate 2."""
    gates = (GateApp("rx", (0,), (0.9,)), GateApp("cz", (0, 2)), GateApp("cx", (0, 1)),
             GateApp("ry", (1,), (0.4,)), GateApp("rzz", (1, 2), (1.3,)),
             GateApp("rz", (0,), (0.3,)), GateApp("h", (2,)))
    return CircuitIR(3, gates), [WireCut(1, 2), GateCut(2), WireCut(0, 2)]


def _mixed_cuts():
    gates = (GateApp("ry", (0,), (1.1,)), GateApp("rzz", (0, 1), (0.7,)),
             GateApp("cx", (1, 2)), GateApp("rx", (3,), (0.2,)), GateApp("cz", (2, 3)),
             GateApp("ry", (1,), (0.6,)), GateApp("cx", (0, 3)))
    return CircuitIR(4, gates), [GateCut(6), WireCut(2, 2), WireCut(1, 2), GateCut(1)]


ESTIMATOR_CASES = [_two_wire_cuts_after_one_gate(), _gate_and_wire_cut_on_one_gate(0),
                   _gate_and_wire_cut_on_one_gate(1), _gate_and_two_wire_cuts_on_one_gate(),
                   _mixed_cuts()]


def test_estimator_digest():
    """``cut_estimate`` on the four full ``verify`` presets at seeds 1 and
    2, and on circuits with several cut sites after one gate: estimate, R,
    per-partition budgets, variant counts and variant means."""
    texts = []
    for seed in (1, 2):
        for partitions, eps in ((3, 0.03), (4, 0.03), (3, 0.01), (4, 0.01)):
            params = np.random.default_rng([seed, partitions]).uniform(
                0.0, 2.0 * np.pi, (2, 8, 2))
            texts.append(_estimate_text(ring_circuit(params), ring_cuts(partitions),
                                        eps, seed))
        for circuit, cuts in ESTIMATOR_CASES:
            texts.append(_estimate_text(circuit, cuts, 0.1, seed))
    assert _digest(texts) == "1a6d569b99847354"


def test_gate_cut_decomposition_digest():
    """The ``repr`` of ``gate_cut_decomposition`` for ``cx``, ``cz`` and
    ``rzz`` at several angles (every term's coefficient and sides), and the
    planner's ``(kappa, tau)`` of every space-cut kind, by ``repr``."""
    gates = [GateApp("cx", (0, 1)), GateApp("cz", (0, 1))] + [
        GateApp("rzz", (0, 1), (theta,))
        for theta in (0.0, 0.37, 0.8, np.pi / 2, 2.9, -1.7, np.pi)]
    texts = [repr(gate_cut_decomposition(gate)) for gate in gates]
    texts += [f"{kind}|{entry.kappa!r}|{entry.tau!r}"
              for kind, entry in sorted(DEFAULT_WEIGHTS.space.items())]
    assert _digest(texts) == "e06dea2891dc4f8a"


# every gate kind with its operand and parameter counts, written out here so
# the digest does not read the table it checks
GATE_SHAPES = (
    ("id", 1, 0), ("x", 1, 0), ("y", 1, 0), ("z", 1, 0), ("h", 1, 0), ("s", 1, 0),
    ("sdg", 1, 0), ("t", 1, 0), ("tdg", 1, 0), ("sx", 1, 0), ("sxdg", 1, 0),
    ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("p", 1, 1), ("u0", 1, 1), ("u1", 1, 1),
    ("u2", 1, 2), ("u3", 1, 3), ("u", 1, 3),
    ("cx", 2, 0), ("cy", 2, 0), ("cz", 2, 0), ("ch", 2, 0), ("swap", 2, 0),
    ("crx", 2, 1), ("cry", 2, 1), ("crz", 2, 1), ("cp", 2, 1), ("cu1", 2, 1),
    ("rzz", 2, 1), ("rxx", 2, 1), ("ryy", 2, 1),
)


def test_gate_matrix_digest():
    """The exact bytes, dtype and shape of ``gate_matrix`` for every gate
    kind, at four seeded parameter draws each (plus 0 and pi for the
    parametrised kinds)."""
    rng = np.random.default_rng(36)
    texts = []
    for kind, arity, n_params in GATE_SHAPES:
        draws = [tuple(float(t) for t in rng.uniform(-7.0, 7.0, n_params)) for _ in range(4)]
        if n_params:
            draws += [(0.0,) * n_params, (np.pi,) * n_params]
        for params in draws:
            u = gate_matrix(GateApp(kind, tuple(range(arity)), params))
            texts.append(f"{kind}|{params!r}|{u.dtype}|{u.shape}|{u.tobytes().hex()}")
    assert _digest(texts) == "3af6385dead2464e"


# -- cut graph and report --------------------------------------------------------

def _random_matching(width, layers, seed):
    """Per layer, a random perfect matching of cx/cz/rzz gates, with an rx
    on every wire in between."""
    rng = np.random.default_rng([seed, width, layers])
    gates = []
    for _ in range(layers):
        for q in range(width):
            gates.append(GateApp("rx", (q,), (float(rng.uniform(0, 2 * np.pi)),)))
        order = rng.permutation(width)
        for a, b in zip(order[0::2].tolist(), order[1::2].tolist()):
            kind = ("cx", "cz", "rzz")[int(rng.integers(0, 3))]
            params = (float(rng.uniform(0, 2 * np.pi)),) if kind == "rzz" else ()
            gates.append(GateApp(kind, (a, b), params))
    return CircuitIR(width, tuple(gates), f"matching_{width}_{layers}_{seed}")


def _mixed_kinds():
    gates = (GateApp("h", (0,)), GateApp("cx", (0, 1)), GateApp("rz", (1,), (0.4,)),
             GateApp("cz", (1, 2)), GateApp("rzz", (2, 3), (1.1,)), GateApp("ry", (3,), (0.2,)),
             GateApp("cx", (3, 0)), GateApp("rzz", (1, 3), (0.6,)), GateApp("x", (2,)),
             GateApp("cz", (2, 0)), GateApp("cx", (1, 2)))
    return CircuitIR(4, gates, "mixed_kinds")


# (circuit, cap) pairs
GRAPH_CASES = [(ising_chain(w, depth=d, seed=w), cap)
               for w, cap in ((34, 8), (100, 12), (420, 25)) for d in (1, 2)] + [
    (_random_matching(12, 10, 1), 5),
    (_random_matching(20, 6, 2), 8),
    (_random_matching(9, 12, 3), 4),
    (_mixed_kinds(), 2),
    (CircuitIR(2, tuple(GateApp("cx", (0, 1)) for _ in range(5))), 1),
    (CircuitIR(3, (GateApp("h", (0,)), GateApp("rx", (2,), (0.3,)), GateApp("x", (1,)))), 2),
    (CircuitIR(3, ()), 2),
    (ising_chain(6, depth=2, seed=6), 3),
]


def _graph_text(graph) -> str:
    nodes = [f"{n.id}|{sorted(n.qubits)}|{n.gate_id}|{n.slot}" for n in graph.nodes]
    edges = [f"{e.u}|{e.v}|{e.kind.value}|{e.w!r}|{e.w_hat!r}|{e.kappa!r}|{e.tau!r}"
             for e in graph.edges]
    return "\n".join(nodes + edges)


def _report_text(result, graph) -> str:
    parts = []
    for eps in (0.03, None):
        try:
            parts.append(json.dumps(build_report(result.clustering, graph, eps=eps)
                                    .to_json_dict(), sort_keys=True))
        except OverflowError as exc:
            parts.append(f"OverflowError: {exc}")
    return "\n".join(parts)


def test_cut_graph_digest():
    """Every node's id, qubits, gate and slot and every edge's endpoints,
    kind and exact weights, in graph order, of ``build_cut_graph``."""
    texts = [_graph_text(build_cut_graph(circuit)) for circuit, _ in GRAPH_CASES]
    assert _digest(texts) == "f1a14bf02b5d9aba"


def test_report_digest():
    """``build_report`` JSON at eps=0.03 and without eps for the pipeline
    result on every graph of ``test_cut_graph_digest``."""
    texts = []
    for circuit, cap in GRAPH_CASES:
        graph = build_cut_graph(circuit)
        texts.append(_report_text(run_pipeline(graph, cap), graph))
    assert _digest(texts) == "7cb5220cb9a81141"


def test_report_flags_clusters_holding_two_segments_of_a_wire():
    """One cluster per wire, but a middle node of wires 0 and 2 joins the
    next wire's cluster: clusters 0 and 2 then hold two segments of one
    qubit each, and only they are flagged."""
    graph = build_cut_graph(ising_chain(6, depth=2, seed=6))
    wire = [mask.bit_length() - 1 for mask in graph.mask]
    assignment = dict(enumerate(wire))
    for q in (0, 2):
        nodes = [n for n, w in enumerate(wire) if w == q]
        assignment[nodes[len(nodes) // 2]] = q + 1
    clustering = Clustering.from_assignment(graph, assignment, 2)
    assert build_report(clustering, graph).flagged_clusters == (0, 2)


# -- parser ----------------------------------------------------------------------

HAND_QASM = """OPENQASM 2.0;
include "qelib1.inc";  // qelib1 gates are built in
qreg a[3];
qreg b[3];
creg ca[3];
creg cb[3];
gate pair(t) x, y { rz(t/2) y; cx x,y; }
gate ladder(t, u) x, y, z { pair(-t) x, y; id z; pair(t*u + pi) y, z; u0(1) x; }
h a;  // broadcast over a
cx a, b;
cz a[0], b;
barrier a, b[1];
ladder(pi/3, 0.25) a[2], b[0], a[1];
id b[2];
u0(0.5) a[0];
rzz(-0.7) b[2], a[0]; barrier b;
u3(0.1, -2e-3, 3*pi/4) b[1];
measure a -> ca;
measure b[0] -> cb[0];
"""

PARSE_CASES = ([to_qasm(ising_chain(w, depth=d, seed=w)) for w, d in ((2, 1), (9, 3), (40, 2))]
               + [to_qasm(_random_matching(w, layers, seed))
                  for w, layers, seed in ((12, 10, 1), (9, 12, 3))]
               + [HAND_QASM])


def test_parse_digest():
    """``num_qubits``, ``name`` and every gate's kind, qubits and exact
    parameters of ``parse_qasm`` on chain, random-matching and hand-written
    QASM: two registers, broadcast, nested gate definitions, barriers,
    terminal measurements, comments and the dropped ``id``/``u0``."""
    texts = []
    for i, text in enumerate(PARSE_CASES):
        circuit = parse_qasm(text, name=f"case{i}")
        lines = [f"{circuit.num_qubits}|{circuit.name}"]
        lines += [f"{g.kind}|{g.qubits}|{g.params!r}" for g in circuit.gates]
        texts.append("\n".join(lines))
    assert _digest(texts) == "d060746e4e921253"


# -- generated text --------------------------------------------------------------

# every gate shape ``to_qasm`` writes: 0 and 1 parameters on 1 and 2 qubits and
# 3 parameters on 1, with a signed zero and values near both ends of the float
# range
HAND_IR = CircuitIR(3, (
    GateApp("h", (0,)), GateApp("cx", (2, 0)), GateApp("rx", (1,), (-0.0,)),
    GateApp("rz", (2,), (1e-300,)), GateApp("rzz", (0, 1), (5e+300,)),
    GateApp("crz", (1, 2), (-3.141592653589793,)), GateApp("u3", (0,), (0.1, -2e-3, 2.0)),
    GateApp("u", (2,), (0.0, 1e-300, -5e+300)), GateApp("swap", (1, 0)),
), "hand")


def test_fixture_text_digest():
    """The exact ``to_qasm`` text of ``ising_chain`` at the benchmark's chain
    sizes (two seeds per width and depth, one at the top of the corpus's
    seed range), of a hand IR holding every gate shape and of a ring
    circuit. Plans ignore angles, so only this digest sees a change to the
    angle stream or to how a parameter is written."""
    texts = [to_qasm(ising_chain(w, depth=d, seed=s))
             for w in (100, 211, 300) for d in (1, 2, 4) for s in (0, 2 ** 31 - 1)]
    texts.append(to_qasm(HAND_IR))
    params = np.random.default_rng(5).uniform(-2.0 * np.pi, 2.0 * np.pi, (2, 8, 2))
    texts.append(to_qasm(ring_circuit(params)))
    assert _digest(texts) == "660f9d23e98f504b"
