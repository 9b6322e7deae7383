"""Independent output checks.

Nothing here goes through cutplan's cached sums (``CutSummary``, ``Cluster``
qubit sets, the estimator's partition plans): every figure is recomputed from
raw graph edges, raw node qubits or raw gates.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

LQ_TOL = 1e-6
EXACT_TOL = 1e-9


def worst_log_overhead(graph, assignment: dict[int, int]) -> float:
    """ln R + max_c (attached cut w + cut w_hat attached elsewhere), from raw edges."""
    clusters = set(assignment.values())
    if not clusters:
        return 0.0
    s_w = dict.fromkeys(clusters, 0.0)
    s_hat = dict.fromkeys(clusters, 0.0)
    hat_cut = 0.0
    for e in graph.edges:
        cu, cv = assignment[e.u], assignment[e.v]
        if cu == cv:
            continue
        s_w[cu] += e.w
        s_w[cv] += e.w
        s_hat[cu] += e.w_hat
        s_hat[cv] += e.w_hat
        hat_cut += e.w_hat
    return math.log(len(clusters)) + max(s_w[c] + hat_cut - s_hat[c] for c in clusters)


def over_cap(graph, assignment: dict[int, int], cap: int) -> list[int]:
    """Clusters whose qubit union, taken from the raw nodes, exceeds ``cap``."""
    qubits: dict[int, set[int]] = {}
    for node in graph.nodes:
        qubits.setdefault(assignment[node.id], set()).update(node.qubits)
    return sorted(c for c, qs in qubits.items() if len(qs) > cap)


def plan_faults(graph, clustering, cap: int, lq: float, report) -> list[str]:
    """Failure kinds of one plan, given its recomputed ``lq`` and its report
    (``None`` when the report raised)."""
    faults = []
    if set(clustering.assignment) != {n.id for n in graph.nodes}:
        faults.append("not_a_cover")
    elif over_cap(graph, clustering.assignment, cap):
        faults.append("cap_exceeded")
    if report is not None:
        if abs(report.lq - lq) > LQ_TOL:
            faults.append("lq_mismatch")
        if report.r != clustering.num_clusters:
            faults.append("r_mismatch")
    return faults


def std_over_eps(errors: list[float], eps: float) -> float:
    """Sample standard deviation of the estimate errors, in units of eps."""
    return statistics.stdev(errors) / eps


# -- the verify_ring circuits ------------------------------------------------

def _one_qubit(kind: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.diag([complex(c, -s), complex(c, s)])
    raise ValueError(f"oracle has no gate '{kind}'")


def z_parity(circuit) -> float:
    """<Z...Z> of a circuit of ry, rz and rzz gates, by direct statevector
    simulation (Z-parity ignores global phase and qubit order)."""
    n = circuit.num_qubits
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    bits = np.indices((2,) * n)
    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            (q,) = gate.qubits
            u = _one_qubit(gate.kind, gate.params[0])
            state = np.moveaxis(np.tensordot(u, state, axes=([1], [q])), 0, q)
        elif gate.kind == "rzz":
            a, b = gate.qubits
            parity = 1 - 2 * (bits[a] ^ bits[b])
            state = state * np.exp(-0.5j * gate.params[0] * parity)
        else:
            raise ValueError(f"oracle has no gate '{gate.kind}'")
    sign = 1 - 2 * (bits.sum(axis=0) % 2)
    return float(np.sum(np.abs(state) ** 2 * sign))


def gate_cut_lq(circuit, gate_indices: list[int], weights) -> list[float]:
    """Per-partition log overhead of cutting the given 2-qubit gates.

    Partitions are the connected components of wires under the uncut 2-qubit
    gates; ``weights`` is the planner's ``WeightTable``, so this is the
    overhead the planner would assign to the same cut set.
    """
    parent = list(range(circuit.num_qubits))

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    cut = set(gate_indices)
    for g, gate in enumerate(circuit.gates):
        if len(gate.qubits) == 2 and g not in cut:
            a, b = find(gate.qubits[0]), find(gate.qubits[1])
            parent[max(a, b)] = min(a, b)
    parts = sorted({find(q) for q in range(circuit.num_qubits)})
    w = {p: 0.0 for p in parts}
    w_hat = {p: 0.0 for p in parts}
    hat_cut = 0.0
    for g in gate_indices:
        gate = circuit.gates[g]
        entry = weights.space_entry(gate.kind)
        for p in {find(q) for q in gate.qubits}:
            w[p] += entry.w
            w_hat[p] += entry.w_hat
        hat_cut += entry.w_hat
    return [math.log(len(parts)) + w[p] + hat_cut - w_hat[p] for p in parts]


def budget_short(n_c: dict[int, int], lq_parts: list[float], eps: float) -> bool:
    """True when the estimator spent fewer shots than the overheads imply."""
    needed = sum(math.exp(lq) / eps ** 2 for lq in lq_parts)
    return len(n_c) != len(lq_parts) or sum(n_c.values()) < needed * (1.0 - 1e-9)
