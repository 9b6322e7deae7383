"""Product observables: diagonal postprocessing that factors across qubits.

An observable is a product of factors, each mapping the bits of a few qubits
into [-1, 1]. The global postprocessing of a measured bitstring is the product
of all factor values, so any grouping of the factors along partition
boundaries keeps the product intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .._checks import _integer
from ..qasm import CircuitIR
from .statevector import basis_bits, simulate_statevector


@dataclass(frozen=True)
class ObsFactor:
    """One factor: a [-1, 1] table over the bits of ``qubits``.

    ``table[i]`` is the value when the bits of the listed qubits, read in
    order as a big-endian integer, equal ``i``.
    """

    qubits: tuple[int, ...]
    table: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(
            _integer("observable qubit", q) for q in self.qubits))
        if len(self.table) != 2 ** len(self.qubits):
            raise ValueError("table size must be 2**len(qubits)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"factor qubits {self.qubits} repeat a qubit")
        # written so that NaN fails it too
        if any(not -1 - 1e-12 <= v <= 1 + 1e-12 for v in self.table):
            raise ValueError("factor values must lie in [-1, 1]")

    def _moved(self, qubits: tuple[int, ...]) -> ObsFactor:
        """This factor's table on ``qubits``, as many as its own and
        distinct, without checking the table again."""
        factor = object.__new__(ObsFactor)
        object.__setattr__(factor, "qubits", qubits)
        object.__setattr__(factor, "table", self.table)
        return factor


@dataclass(frozen=True)
class ProductObservable:
    factors: tuple[ObsFactor, ...]


def pauli_z_observable(qubits: Iterable[int]) -> ProductObservable:
    """Tensor product of Pauli Z on the given qubits: one (+1, -1) factor each."""
    return ProductObservable(tuple(ObsFactor((q,), (1.0, -1.0)) for q in qubits))


def check_qubits(obs_factors: Iterable[ObsFactor], num_qubits: int) -> None:
    """Raise ``ValueError`` for a factor qubit outside ``range(num_qubits)``."""
    for factor in obs_factors:
        for q in factor.qubits:
            if not 0 <= q < num_qubits:
                raise ValueError(f"observable qubit {q} is outside the "
                                 f"{num_qubits}-qubit circuit")


def value_table(obs_factors: Iterable[ObsFactor], num_qubits: int) -> np.ndarray:
    """Factor product over every basis state of a ``num_qubits`` register,
    each factor qubit label being a register position."""
    obs_factors = tuple(obs_factors)
    check_qubits(obs_factors, num_qubits)
    values = np.ones(2 ** num_qubits)
    for factor in obs_factors:
        idx = 0  # the factor's bits, read in order as a big-endian integer
        for q in factor.qubits:
            idx = idx << 1 | basis_bits(num_qubits, q)
        values = values * np.asarray(factor.table)[idx]
    return values


def expectation_value(circuit: CircuitIR, obs: ProductObservable) -> float:
    """Exact expectation of a product observable from the dense statevector."""
    state = simulate_statevector(circuit)
    probs = np.abs(state) ** 2
    return float(probs @ value_table(obs.factors, circuit.num_qubits))
