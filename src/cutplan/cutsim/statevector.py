"""Dense statevector simulator, the exact oracle for the cutting estimator.

State layout: a complex vector of length 2**n where bit q of a basis index is
read as ``(index >> (n - 1 - q)) & 1``, i.e. qubit 0 owns the most significant
bit. This module is the one place that convention lives: ``apply_matrix``,
``project_qubit`` and ``basis_bits`` read it. A batch of states is a
``(rows, 2**n)`` array with one state per row.
"""

from __future__ import annotations

import numpy as np

from ..gates import GATES
from ..qasm import CircuitIR, GateApp, _gate_error

MAX_QUBITS = 20


class TooManyQubitsError(Exception):
    pass


def gate_matrix(gate: GateApp) -> np.ndarray:
    """Unitary of a gate application (2x2 or 4x4, control-first), from ``GATES``.
    An unknown kind raises ``ValueError``; a gate whose operand or parameter
    count differs from its kind's raises the parser's ``QasmSyntaxError``."""
    kind, params = gate.kind, gate.params
    # a subscript after ``in`` costs less than the proxy's ``get``
    row = GATES[kind] if kind in GATES else None
    if row is None:
        raise ValueError(f"no matrix for gate '{kind}'")
    if row.arity != len(gate.qubits) or row.n_params != len(params):
        raise _gate_error(kind, row, gate.qubits, params)
    return row.matrix(*params)


def zero_state(num_qubits: int) -> np.ndarray:
    if num_qubits > MAX_QUBITS:
        raise TooManyQubitsError(
            f"{num_qubits} qubits exceeds the dense-vector cap of {MAX_QUBITS}")
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_matrix(states: np.ndarray, num_qubits: int, qubits: tuple[int, ...],
                 matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 or 4x4 ``matrix`` on ``qubits`` to one state or to every
    row of a batch; returns a new array of the same shape. Each row gets
    matrix products of its own, so no row's floats depend on the batch.

    The first listed qubit is the most significant index of ``matrix``, as
    in :func:`gate_matrix`."""
    if len(qubits) == 1:
        # the qubit's axis splits each row into halves: one broadcast matrix
        # product mixes them without a transposed copy
        halves = states.reshape(-1, 2, 2 ** (num_qubits - 1 - qubits[0]))
        return np.matmul(matrix, halves).reshape(states.shape)
    # move the gate axes right behind the row axis: one product per row
    perm = [0] + [q + 1 for q in qubits] + [q + 1 for q in range(num_qubits)
                                            if q not in qubits]
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    tensor = states.reshape((-1,) + (2,) * num_qubits).transpose(perm)
    out = np.matmul(matrix, tensor.reshape(len(tensor), 4, -1)).reshape(tensor.shape)
    return out.transpose(inverse).reshape(states.shape)


def project_qubit(states: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    """Split every row into its ``qubit`` = 0 and ``qubit`` = 1 projections.

    Returns ``(2 * rows, 2**n)``: row k's 0-projection at 2k, its
    1-projection at 2k + 1. The projections are unnormalised.
    """
    rows = states.reshape(-1, 2 ** qubit, 2, 2 ** (num_qubits - 1 - qubit))
    out = np.zeros((rows.shape[0], 2) + rows.shape[1:], dtype=states.dtype)
    out[:, 0, :, 0] = rows[:, :, 0]
    out[:, 1, :, 1] = rows[:, :, 1]
    return out.reshape(-1, 2 ** num_qubits)


def simulate_statevector(circuit: CircuitIR) -> np.ndarray:
    """Exact final state of the circuit from |0...0>."""
    state = zero_state(circuit.num_qubits)
    for gate in circuit.gates:
        state = apply_matrix(state, circuit.num_qubits, gate.qubits, gate_matrix(gate))
    return state


def basis_bits(num_qubits: int, qubit: int) -> np.ndarray:
    """Bit of ``qubit`` across all basis indices, as a 0/1 int array."""
    return (np.arange(2 ** num_qubits) >> (num_qubits - 1 - qubit)) & 1
