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
    # every angle in gate order from one draw, which gives the same doubles
    # as one scalar draw per rotation
    angles = rng.uniform(0, 2 * np.pi, depth * (2 * width - 1) + width).tolist()
    wires = list(zip(range(width)))  # (q,) per wire
    gadget_kind = ["cx", "rz", "cx"] * (width - 1)
    gadget_qubits = []
    for q in range(width - 1):
        gadget_qubits += [(q, q + 1), (q + 1,), (q, q + 1)]
    kind, qubits, params = [], [], []  # the IR's columns
    for layer in range(depth):
        rx_at = layer * (2 * width - 1)
        rz_at = rx_at + width
        gadget_params = [()] * len(gadget_kind)
        gadget_params[1::3] = zip(angles[rz_at:rz_at + width - 1])
        kind += ["rx"] * width
        kind += gadget_kind
        qubits += wires
        qubits += gadget_qubits
        params += zip(angles[rx_at:rz_at])
        params += gadget_params
    kind += ["rz"] * width
    qubits += wires
    params += zip(angles[-width:])
    return CircuitIR.from_columns(width, kind, qubits, params, f"ising_n{width}")


def chain3() -> CircuitIR:
    """The 3-qubit two-gate chain: the smallest fixture with a real choice
    between cutting a gate and cutting a wire."""
    return CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2))), "chain3")
