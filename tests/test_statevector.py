import itertools
import math

import numpy as np
import pytest

from cutplan.cutsim import (TooManyQubitsError, basis_bits, expectation_value,
                            gate_matrix, pauli_z_observable,
                            simulate_statevector)
from cutplan.cutsim.statevector import apply_matrix, project_qubit
from cutplan.cutsim.observable import ObsFactor, value_table
from cutplan.gates import GATES
from cutplan.qasm import CircuitIR, GateApp, QasmSyntaxError, UnsupportedGateError


def test_hadamard():
    state = simulate_statevector(CircuitIR(1, (GateApp("h", (0,)),)))
    assert state == pytest.approx(np.array([1, 1]) / math.sqrt(2))


def test_bell_zz():
    bell = CircuitIR(2, (GateApp("h", (0,)), GateApp("cx", (0, 1))))
    state = simulate_statevector(bell)
    assert np.abs(state) ** 2 == pytest.approx([0.5, 0, 0, 0.5])
    assert expectation_value(bell, pauli_z_observable(range(2))) == pytest.approx(1.0)


def test_initial_basis_state():
    # x prepares |10>: qubit 0 owns the most significant bit
    state = simulate_statevector(CircuitIR(2, (GateApp("x", (0,)), GateApp("cx", (0, 1)))))
    assert np.argmax(np.abs(state)) == 3


def test_every_standard_gate_has_a_unitary_of_its_arity(rng):
    for kind, (arity, n_params, _, _) in GATES.items():
        params = tuple(float(t) for t in rng.uniform(-7, 7, n_params))
        u = gate_matrix(GateApp(kind, tuple(range(arity)), params))
        assert u.shape == (2 ** arity, 2 ** arity), kind
        assert np.allclose(u.conj().T @ u, np.eye(2 ** arity), atol=1e-12), kind
    assert np.array_equal(gate_matrix(GateApp("u0", (0,), (0.5,))), np.eye(2))


@pytest.mark.parametrize("kind, pauli", [
    ("rxx", [[0, 1], [1, 0]]), ("ryy", [[0, -1j], [1j, 0]]), ("rzz", [[1, 0], [0, -1]]),
])
def test_two_qubit_pauli_rotations(kind, pauli, rng):
    """rPP(theta) = cos(theta/2)·I - i·sin(theta/2)·P⊗P."""
    pp = np.kron(pauli, pauli)
    for theta in rng.uniform(-7, 7, 5):
        want = math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * pp
        assert np.allclose(gate_matrix(GateApp(kind, (0, 1), (theta,))), want, atol=1e-12)


def test_qubit_cap():
    with pytest.raises(TooManyQubitsError):
        simulate_statevector(CircuitIR(21, ()))


def _random_circuit(rng, n, depth):
    gates = []
    for _ in range(depth):
        kind = ["rx", "ry", "rz", "h", "u3"][int(rng.integers(0, 5))]
        if rng.random() < 0.45:
            a, b = rng.choice(n, size=2, replace=False)
            two = ["cx", "cz", "rzz"][int(rng.integers(0, 3))]
            params = (float(rng.uniform(0, 2 * np.pi)),) if two == "rzz" else ()
            gates.append(GateApp(two, (int(a), int(b)), params))
        else:
            nparams = {"rx": 1, "ry": 1, "rz": 1, "h": 0, "u3": 3}[kind]
            params = tuple(float(rng.uniform(0, 2 * np.pi)) for _ in range(nparams))
            gates.append(GateApp(kind, (int(rng.integers(0, n)),), params))
    return CircuitIR(n, tuple(gates))


def test_random_circuit_against_matrix_product(rng):
    """Tensor-contraction engine vs explicit full-matrix products."""
    for _ in range(6):
        circuit = _random_circuit(rng, 5, 18)
        state = simulate_statevector(circuit)
        full = np.eye(2 ** 5, dtype=complex)
        for gate in circuit.gates:
            full = _gate_full_matrix(gate, 5) @ full
        want = full[:, 0]
        assert state == pytest.approx(want, abs=1e-10)


def _gate_full_matrix(gate: GateApp, n: int) -> np.ndarray:
    """2^n x 2^n matrix of one gate, built by summing basis transitions."""
    u = gate_matrix(gate)
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    qs = gate.qubits
    for col in range(dim):
        in_bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = 0
        for q in qs:
            sub_in = (sub_in << 1) | in_bits[q]
        for sub_out in range(u.shape[0]):
            amp = u[sub_out, sub_in]
            if amp == 0:
                continue
            out_bits = list(in_bits)
            tmp = sub_out
            for q in reversed(qs):
                out_bits[q] = tmp & 1
                tmp >>= 1
            row = 0
            for b in out_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def test_eight_qubit_fixture_against_matrix_oracle(rng):
    circuit = _random_circuit(rng, 8, 30)
    state = simulate_statevector(circuit)
    full = np.eye(2 ** 8, dtype=complex)
    for gate in circuit.gates:
        full = _gate_full_matrix(gate, 8) @ full
    assert state == pytest.approx(full[:, 0], abs=1e-10)
    assert np.abs(state) ** 2 == pytest.approx(np.abs(full[:, 0]) ** 2, abs=1e-10)


def test_batched_kernels_against_full_matrices(rng):
    """Every row of a batch gets the gate's full matrix; a projection keeps
    exactly the amplitudes whose ``basis_bits`` match."""
    n = 4
    rows = rng.normal(size=(5, 2 ** n)) + 1j * rng.normal(size=(5, 2 ** n))
    for gate in _random_circuit(rng, n, 24).gates:
        got = apply_matrix(rows, n, gate.qubits, gate_matrix(gate))
        assert got == pytest.approx(rows @ _gate_full_matrix(gate, n).T, abs=1e-12)
    for q in range(n):
        bits = basis_bits(n, q)
        forked = project_qubit(rows, n, q)
        assert np.array_equal(forked[0::2], rows * (bits == 0))
        assert np.array_equal(forked[1::2], rows * (bits == 1))


@pytest.mark.parametrize("gate", [
    GateApp("cx", (0, 1)), GateApp("rzz", (0, 1), (0.7,)), GateApp("rxx", (0, 1), (1.1,)),
    GateApp("crz", (0, 1), (-0.4,)), GateApp("swap", (0, 1)), GateApp("h", (0,)),
    GateApp("u3", (0,), (0.3, 1.2, -0.8)),
], ids=lambda gate: gate.kind)
def test_apply_matrix_is_row_independent(gate, rng):
    """Each row of a batch gets the very floats it gets applied alone,
    whatever the batch size, on every placement of the gate's qubits."""
    matrix = gate_matrix(gate)
    for n in range(2, 7):
        rows = rng.normal(size=(9, 2 ** n)) + 1j * rng.normal(size=(9, 2 ** n))
        for qubits in itertools.permutations(range(n), len(gate.qubits)):
            alone = [apply_matrix(row, n, qubits, matrix).tobytes() for row in rows]
            for size in range(1, 10):
                batch = apply_matrix(rows[:size], n, qubits, matrix)
                assert [row.tobytes() for row in batch] == alone[:size], (n, qubits, size)


def test_shared_gate_matrices_are_read_only():
    """A fixed gate's matrix is one array that ``gate_matrix`` hands to every
    caller, so writing to it raises instead of changing every later gate."""
    h = gate_matrix(GateApp("h", (0,)))
    with pytest.raises(ValueError, match="read-only"):
        h[:] = gate_matrix(GateApp("x", (0,)))
    circuit = CircuitIR(1, (GateApp("h", (0,)),))
    assert expectation_value(circuit, pauli_z_observable([0])) == pytest.approx(0.0, abs=1e-15)
    for kind, (arity, n_params, _, _) in GATES.items():
        gate = GateApp(kind, tuple(range(arity)), (0.5,) * n_params)
        matrix = gate_matrix(gate)
        assert matrix is not gate_matrix(gate) or not matrix.flags.writeable, kind


@pytest.mark.parametrize("kind, target", [
    ("cx", "x"), ("cy", "y"), ("cz", "z"), ("ch", "h"), ("crx", "rx"),
    ("cry", "ry"), ("crz", "rz"), ("cp", "p"), ("cu1", "u1"),
])
def test_controlled_gates_are_control_first_blocks(kind, target, rng):
    """A controlled gate is |0><0| (x) I + |1><1| (x) U, with U its target's
    matrix and the control on the most significant bit."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    n_params = GATES[kind].n_params
    for theta in rng.uniform(-7, 7, size=(5, n_params)):
        params = tuple(float(t) for t in theta)
        u = gate_matrix(GateApp(target, (0,), params))
        want = np.kron(p0, np.eye(2)) + np.kron(p1, u)
        assert np.array_equal(gate_matrix(GateApp(kind, (0, 1), params)), want)


def test_basis_bits_convention():
    bits = basis_bits(3, 0)
    assert list(bits[:4]) == [0, 0, 0, 0]
    assert list(bits[4:]) == [1, 1, 1, 1]
    assert list(basis_bits(3, 2)) == [0, 1, 0, 1, 0, 1, 0, 1]


def test_value_table_factors():
    factor = ObsFactor((0, 2), (1.0, -1.0, -1.0, 1.0))  # parity of qubits 0 and 2
    table = value_table([factor], 3)
    assert table.flags.writeable  # a fresh array that the caller owns
    for idx in range(8):
        b0 = (idx >> 2) & 1
        b2 = idx & 1
        assert table[idx] == (-1) ** (b0 ^ b2)


def test_value_table_matches_a_per_state_loop():
    """Factors on unsorted qubits, with signed zeros, multiply in factor
    order into exactly the product a loop over basis states takes."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        factors = []
        for _ in range(4):
            qubits = tuple(int(q) for q in rng.permutation(n)[:rng.integers(1, min(n, 3) + 1)])
            factors.append(ObsFactor(qubits, tuple(rng.choice([-1.0, -0.3, -0.0, 0.0, 0.7, 1.0],
                                                              2 ** len(qubits)))))
        want = []
        for idx in range(2 ** n):
            value = 1.0
            for factor in factors:
                bits = [(idx >> (n - 1 - q)) & 1 for q in factor.qubits]
                value *= factor.table[int("".join(map(str, bits)), 2)]
            want.append(value)
        assert value_table(factors, n).tobytes() == np.array(want).tobytes()


def test_factor_range_validated():
    with pytest.raises(ValueError):
        ObsFactor((0,), (2.0, 0.0))
    with pytest.raises(ValueError, match=r"^table size must be 2\*\*len\(qubits\)$"):
        ObsFactor((0, 1), (1.0, -1.0))


@pytest.mark.parametrize("qubits, table, message", [
    # every comparison with NaN is false, so a bound check must be written
    # to fail on it
    ((0,), (math.nan, 1.0), "lie in"),
    ((0,), (math.inf, 1.0), "lie in"),
    ((0,), (1.0, -math.inf), "lie in"),
    # the qubit's bit would be read twice: half the table is unreachable
    ((0, 0), (1.0, -1.0, -1.0, 1.0), "repeat"),
], ids=["nan", "inf", "-inf", "repeated-qubit"])
def test_factor_rejects_nan_inf_and_repeated_qubits(qubits, table, message):
    with pytest.raises(ValueError, match=message):
        ObsFactor(qubits, table)


def test_observable_qubits_are_integers():
    """A float qubit used to pass ``cut_estimate`` and fail only in the
    simulator's bit shifts; a numpy integer is kept as an ``int``."""
    with pytest.raises(TypeError, match=r"^observable qubit must be an integer, got 0\.0$"):
        pauli_z_observable([0.0])
    with pytest.raises(TypeError, match="^observable qubit must be an integer, got True$"):
        ObsFactor((True,), (1.0, -1.0))
    (factor,) = pauli_z_observable([np.int64(1)]).factors
    assert factor.qubits == (1,) and type(factor.qubits[0]) is int


# gate_matrix reads a gate's GATES row unchecked: a gate it could not read
# fails when it is made, with the parser's class and message.
def test_gate_matrix_rejects_an_unknown_kind():
    with pytest.raises(UnsupportedGateError, match="^unknown gate 'iswap'$"):
        gate_matrix(GateApp("iswap", (0, 1)))


def test_gate_matrix_rejects_a_parameter_a_fixed_gate_lacks():
    with pytest.raises(QasmSyntaxError, match=r"^gate 'h' expects 0 parameter\(s\), got 1$"):
        gate_matrix(GateApp("h", (0,), (0.5,)))


def test_gate_matrix_rejects_a_two_qubit_gate_on_one_wire():
    with pytest.raises(QasmSyntaxError, match=r"^gate 'cx' expects 2 operand\(s\), got 1$"):
        gate_matrix(GateApp("cx", (0,)))


def test_gate_matrix_rejects_a_rotation_without_its_angle():
    with pytest.raises(QasmSyntaxError, match=r"^gate 'rx' expects 1 parameter\(s\), got 0$"):
        gate_matrix(GateApp("rx", (0,)))


@pytest.mark.parametrize("kind", ["rz", "p", "u1"])
def test_diagonal_gates_match_their_np_diag_form(kind):
    """The diagonal 1-qubit rotations are built without ``np.diag``, bit for
    bit as before: same dtype, same values and signed zeros."""
    import cmath

    for theta in (0.0, -0.0, 0.37, -1.7, math.pi, 5.5):
        got = gate_matrix(GateApp(kind, (0,), (theta,)))
        if kind == "rz":
            old = np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])
        else:
            old = np.diag([1.0, cmath.exp(1j * theta)])
        assert got.dtype == old.dtype and got.shape == old.shape
        assert np.array_equal(got, old) and got.tobytes() == old.tobytes()
