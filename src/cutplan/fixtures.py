"""Self-contained benchmark circuits.

Transverse-field chain circuits in the style of the large-scale benchmark
suites: per layer, an rx rotation on every wire and a cx-rz-cx gadget on every
neighbouring pair. The entangling structure is a chain, so a capped
partitioner should split it with a handful of wire cuts.
"""

from __future__ import annotations

import numpy as np

from ._checks import _integer
from .qasm import CircuitIR, GateApp


def ising_chain(width: int, depth: int = 1, seed: int = 0) -> CircuitIR:
    """Chain circuit on ``width`` >= 2 qubits with ``depth`` >= 1 entangling layers
    from ``seed`` >= 0; a non-integer raises ``TypeError``, a value out of range ``ValueError``."""
    width = _integer("width", width, 2)
    depth = _integer("depth", depth, 1)
    seed = _integer("seed", seed, 0)
    rng = np.random.default_rng([seed, width, depth])
    gates = []  # (kind, qubits, params) per gate
    for _ in range(depth):
        for q in range(width):
            gates.append(("rx", (q,), (float(rng.uniform(0, 2 * np.pi)),)))
        for q in range(width - 1):
            angle = float(rng.uniform(0, 2 * np.pi))
            gates += [("cx", (q, q + 1), ()), ("rz", (q + 1,), (angle,)), ("cx", (q, q + 1), ())]
    for q in range(width):
        gates.append(("rz", (q,), (float(rng.uniform(0, 2 * np.pi)),)))
    kind, qubits, params = map(list, zip(*gates))
    return CircuitIR.from_columns(width, kind, qubits, params, f"ising_n{width}")


def chain3() -> CircuitIR:
    """The 3-qubit two-gate chain: the smallest fixture with a real choice
    between cutting a gate and cutting a wire."""
    return CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2))), "chain3")
