import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutplan.clustering import run_pipeline
from cutplan.fixtures import ising_chain
from cutplan.graph import CutKind, build_cut_graph
from cutplan.qasm import (STANDARD_GATES, CircuitIR, DuplicateOperandError, GateApp,
                          QasmError, QasmSyntaxError, UndeclaredRegisterError,
                          UnsupportedGateError, _MAX_EXPR_DEPTH, parse_qasm,
                          to_qasm)


def test_single_gate():
    ir = parse_qasm('OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; cx q[0],q[1];')
    assert ir.num_qubits == 2
    assert ir.gates == (GateApp("cx", (0, 1)),)


def test_duplicate_operand():
    with pytest.raises(DuplicateOperandError):
        parse_qasm("qreg q[1]; cx q[0],q[0];")


def test_ir_constructors_reject_bad_gates():
    with pytest.raises(QasmSyntaxError,
                       match="gate 'cx' touches wire 2 outside register of size 2"):
        CircuitIR(2, (GateApp("h", (0,)), GateApp("cx", (0, 2))))
    with pytest.raises(UnsupportedGateError, match="gate 'ccx' acts on 3 qubits"):
        GateApp("ccx", (0, 1, 2))
    with pytest.raises(DuplicateOperandError, match="gate 'cz' applied twice to wire 1"):
        GateApp("cz", (1, 1))
    for kind, qubits, params, value in (("rx", (0,), (math.nan,), math.nan),
                                        ("rzz", (0, 1), (math.inf,), math.inf),
                                        ("u3", (1,), (0.5, -math.inf, 0.5), -math.inf)):
        with pytest.raises(QasmSyntaxError) as info:
            GateApp(kind, qubits, params)
        assert type(info.value) is QasmSyntaxError
        assert str(info.value) == f"gate '{kind}' parameter {value!r} is not a finite number"


HAND_FIXTURE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
u3(0.1,0.2,0.3) q[0];
rz(pi/2) q[1];
cx q[0],q[1];
barrier q;
rz(-pi/4) q[2];
cx q[1],q[2];
measure q -> c;
"""

# hand-parsed, field by field
HAND_EXPECTED = (
    GateApp("u3", (0,), (0.1, 0.2, 0.3)),
    GateApp("rz", (1,), (math.pi / 2,)),
    GateApp("cx", (0, 1)),
    GateApp("rz", (2,), (-math.pi / 4,)),
    GateApp("cx", (1, 2)),
)


def test_hand_fixture_field_by_field():
    ir = parse_qasm(HAND_FIXTURE)
    assert ir.num_qubits == 3
    assert len(ir.gates) == len(HAND_EXPECTED)
    for got, want in zip(ir.gates, HAND_EXPECTED):
        assert got.kind == want.kind
        assert got.qubits == want.qubits
        assert got.params == want.params


def test_barrier_and_measure_dropped():
    ir = parse_qasm(HAND_FIXTURE)
    assert all(g.kind not in ("barrier", "measure") for g in ir.gates)


def test_multiple_registers_flatten_in_declaration_order():
    ir = parse_qasm("qreg a[2]; qreg b[2]; cx a[1],b[0]; h b[1];")
    assert ir.num_qubits == 4
    assert ir.gates[0] == GateApp("cx", (1, 2))
    assert ir.gates[1] == GateApp("h", (3,))


def test_operand_resolved_before_a_later_register():
    ir = parse_qasm("qreg a[2]; x a[1]; qreg b[1]; cx a[1],b[0];")
    assert ir.num_qubits == 3
    assert [g.qubits for g in ir.gates] == [(1,), (1, 2)]


def test_register_broadcast():
    ir = parse_qasm("qreg q[3]; h q;")
    assert [g.qubits for g in ir.gates] == [(0,), (1,), (2,)]


def test_two_register_broadcast():
    ir = parse_qasm("qreg a[2]; qreg b[2]; cx a,b;")
    assert [g.qubits for g in ir.gates] == [(0, 2), (1, 3)]


def test_parameter_expressions():
    """Operators apply left to right with Python's precedence, so each value is
    the bit-exact result of the same Python expression. Empty statements
    (``;;``) are skipped. A real may end in its point, as OpenQASM 2.0's
    grammar allows."""
    ir = parse_qasm("qreg q[1]; rz(3*pi/2) q[0]; rz(-pi) q[0]; rz(1.5e-3) q[0];"
                    "rz(2 - 3*pi/4 + 1) q[0]; u3(-(0.5 + pi)/2, +.25, 1e2/-3) q[0];"
                    "rz(+pi) q[0];; rz(5.) q[0]; rz(-2.) q[0]; rz(1.e-3) q[0];"
                    "u3(2.*pi, 1./2, 1.E+2) q[0];")
    assert [g.params for g in ir.gates] == [
        (3 * math.pi / 2,), (-math.pi,), (1.5e-3,), (2 - 3 * math.pi / 4 + 1,),
        (-(0.5 + math.pi) / 2, 0.25, 1e2 / -3), (math.pi,),
        (float("5."),), (float("-2."),), (float("1.e-3"),),
        (2.0 * math.pi, 1.0 / 2, float("1.E+2")),
    ]


def test_parameter_nesting_limit():
    """Parentheses and unary signs nest up to ``_MAX_EXPR_DEPTH`` levels."""
    depth = _MAX_EXPR_DEPTH
    for text, value in (("(" * depth + "1" + ")" * depth, 1.0),
                        ("-" * depth + "1", 1.0),
                        ("-(" * (depth // 2) + "2" + ")" * (depth // 2), 2.0)):
        assert parse_qasm(f"qreg q[1]; rz({text}) q[0];").gates[0].params == (value,)
    for text in ("(" * (depth + 1) + "1" + ")" * (depth + 1), "-" * (depth + 1) + "1"):
        with pytest.raises(QasmSyntaxError, match=f"deeper than {depth} levels"):
            parse_qasm(f"qreg q[1]; rz({text}) q[0];")


def test_user_gate_inlined_recursively():
    src = """
    qreg q[2];
    gate inner(t) a { rz(t) a; }
    gate outer(t, u) a, b { inner(2*t) a; cx a,b; inner(-(t + u)/2) b; }
    outer(pi, 0.5) q[0], q[1];
    """
    ir = parse_qasm(src)
    assert ir.gates == (
        GateApp("rz", (0,), (2 * math.pi,)),
        GateApp("cx", (0, 1)),
        GateApp("rz", (1,), (-(math.pi + 0.5) / 2,)),
    )


def test_wide_builtin_rejected():
    with pytest.raises(UnsupportedGateError):
        parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")


def test_user_wide_gate_inlines():
    src = """
    qreg q[3];
    gate pair a, b, c { cx a,b; cx b,c; }
    pair q[0], q[1], q[2];
    """
    ir = parse_qasm(src)
    assert [g.qubits for g in ir.gates] == [(0, 1), (1, 2)]


def test_builtin_u_and_cx_read_as_u3_and_cx():
    """The language's own ``U`` and ``CX``, at top level and in a gate body,
    are the IR's ``u3`` and ``cx``, so the planner prices ``CX`` as ``cx``."""
    src = ("qreg q[2]; U(pi/2,0,pi) q[0]; CX q[0],q[1];\n"
           "gate g(t) a, b { U(t,0,-t) b; CX b,a; }\ng(0.3) q[0], q[1];")
    ir = parse_qasm(src)
    assert ir.gates == (
        GateApp("u3", (0,), (math.pi / 2, 0.0, math.pi)),
        GateApp("cx", (0, 1)),
        GateApp("u3", (1,), (0.3, 0.0, -0.3)),
        GateApp("cx", (1, 0)),
    )
    assert parse_qasm(src.replace("U(", "u3(").replace("CX", "cx")).gates == ir.gates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_cut_graph(ir).kappa == [3.0, 4.0, 4.0, 3.0]
    with pytest.raises(QasmSyntaxError, match="expects 3 parameter"):
        parse_qasm("qreg q[1]; U(1) q[0];")
    with pytest.raises(UnsupportedGateError, match="unknown gate 'Cx'"):
        parse_qasm("qreg q[2]; Cx q[0],q[1];")


@pytest.mark.parametrize("source, message", [
    ("rz q[0], q[1];", "gate 'rz' expects 1 operand(s), got 2"),
    ("gate g(a) x { rz(a) x; }\ng q[0], q[1];", "gate 'g' expects 1 operand(s), got 2"),
    ("gate g(a) x { rz(a) x; }\ng(1, 2) q[0];", "gate 'g' expects 1 parameter(s), got 2"),
])
def test_standard_and_user_gates_check_their_shape_alike(source, message):
    """Operands before parameters, in one message form; a user gate wrong in
    both counts used to report its parameters first."""
    with pytest.raises(QasmSyntaxError, match=f"{re.escape(message)}$"):
        parse_qasm("qreg q[2];\n" + source)


@pytest.mark.parametrize("source, message", [
    ("gate g x, y { cx x,y; }\ng q[1], q[1];", "gate 'g' applied twice to wire 1"),
    ("qreg r[3];\ngate g a, b, c { cx a,b; cx b,c; }\ng r[0], r[2], r[2];",
     "gate 'g' applied twice to wire 4"),
    ("cx q[1],q[1];", "gate 'cx' applied twice to wire 1"),
])
def test_standard_and_user_gates_name_a_repeated_wire_alike(source, message):
    with pytest.raises(DuplicateOperandError, match=f"{re.escape(message)}$"):
        parse_qasm("qreg q[2];\n" + source)


def test_repeated_wire_is_reported_before_an_earlier_measurement():
    """The operands are checked before anything is done with them."""
    with pytest.raises(DuplicateOperandError, match="gate 'cx' applied twice to wire 0$"):
        parse_qasm("qreg q[2]; creg c[2]; measure q[0] -> c[0]; cx q[0],q[0];")


@pytest.mark.parametrize("num_qubits, gates, error, message", [
    (2, (GateApp("cx", (True, 0)),), TypeError,
     "cx wire must be an integer, got True"),
    (2, (GateApp("h", (0.0,)),), TypeError, "h wire must be an integer, got 0.0"),
    (2.0, (), TypeError, "num_qubits must be an integer, got 2.0"),
    (-1, (), ValueError, "num_qubits must be >= 0, got -1"),
    (2, (GateApp("rzz", (0, 1), (False,)),), TypeError,
     "rzz parameter must be a real number, got False"),
], ids=["bool-wire", "float-wire", "float-width", "negative-width", "bool-parameter"])
def test_circuit_ir_names_a_non_integer_wire_or_width(num_qubits, gates, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        CircuitIR(num_qubits, gates)


def test_circuit_ir_width_is_a_plain_int():
    ir = CircuitIR(np.int64(2), (GateApp("cx", (np.int64(0), 1)),))
    assert type(ir.num_qubits) is int and ir.num_qubits == 2


def test_circuit_ir_stores_numpy_integer_wires_as_plain_ints():
    """A numpy wire passed the check but was stored as given, so the cut
    graph's masks became numpy integers and planning the circuit failed."""
    probe = CircuitIR(3, [GateApp("cx", (np.int64(0), np.int64(1))),
                          GateApp("cx", (np.int64(1), 2))])
    plain = CircuitIR(3, [GateApp("cx", (0, 1)), GateApp("cx", (1, 2))])
    assert probe.qubits == plain.qubits and probe.gates == plain.gates
    assert all(type(q) is int for qubits in probe.qubits for q in qubits)
    assert all(type(q) is int for gate in probe.gates for q in gate.qubits)
    graphs = [build_cut_graph(ir) for ir in (probe, plain)]
    assert all(type(m) is int for m in graphs[0].mask)
    plans = [run_pipeline(graph, 2) for graph in graphs]
    assert plans[0].clustering.assignment == plans[1].clustering.assignment


def test_numpy_parameters_round_trip_as_plain_floats():
    """A numpy parameter was stored as given, so ``to_qasm`` wrote
    ``rx(np.float64(0.5))``, which ``parse_qasm`` rejects. A float32 widens
    exactly."""
    probe = CircuitIR(2, [GateApp("rx", (0,), (np.float64(0.5),)),
                          GateApp("rzz", (0, 1), (np.float32(0.25),)),
                          GateApp("u3", (1,), (1.5, np.float32(0.1), 2))])
    assert probe.params == [(0.5,), (0.25,), (1.5, 0.10000000149011612, 2.0)]
    assert all(type(v) is float for params in probe.params for v in params)
    assert all(type(v) is float for gate in probe.gates for v in gate.params)
    back = parse_qasm(to_qasm(probe))
    assert (back.kind, back.qubits) == (probe.kind, probe.qubits)
    assert [tuple(map(float.hex, p)) for p in back.params] == [
        tuple(map(float.hex, p)) for p in probe.params]


def test_undeclared_register():
    with pytest.raises(UndeclaredRegisterError):
        parse_qasm("qreg q[2]; cx q[0],p[1];")


def test_syntax_error_carries_line_number():
    with pytest.raises(QasmSyntaxError, match="line 3"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0] q[1];\n")


def test_index_out_of_range():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[2]; h q[5];")


def test_mid_circuit_measurement_rejected():
    with pytest.raises(UnsupportedGateError, match="mid-circuit"):
        parse_qasm("qreg q[2]; creg c[2]; measure q[0] -> c[0]; h q[0];")


def test_classical_control_rejected():
    with pytest.raises(UnsupportedGateError):
        parse_qasm("qreg q[1]; creg c[1]; if (c==1) x q[0];")


# One row per raise site: (statements after "qreg q[2];" and "creg c[2];" on
# lines 1 and 2, error type, line). The line is that of the statement's first
# token; an error inside an inlined gate body reports the applying statement.
ERROR_TABLE = [
    ("rz(2*) q[0];", QasmSyntaxError, 3),
    ("rz(1/0) q[0];", QasmSyntaxError, 3),
    ("rz((1) q[0];", QasmSyntaxError, 3),
    ("rz(1 2) q[0];", QasmSyntaxError, 3),
    ("rz(theta) q[0];", QasmSyntaxError, 3),
    ("h q[0];\nif (c==1) x q[0];", UnsupportedGateError, 4),
    ("h q[0] }", QasmSyntaxError, 3),
    ("h q[0];\nh q[1]", QasmSyntaxError, 4),
    ("2 q[0];", QasmSyntaxError, 3),
    ('include qelib1;', QasmSyntaxError, 3),
    ("qreg r;", QasmSyntaxError, 3),
    ("qreg q[3];", QasmSyntaxError, 3),
    ("measure q[0] c[0];", QasmSyntaxError, 3),
    ("measure q[0] -> c[7];", QasmSyntaxError, 3),
    ("measure q[0] -> c[x];", QasmSyntaxError, 3),
    ("creg d[1];\nmeasure q -> d;", QasmSyntaxError, 4),
    ("measure q -> c[0];", QasmSyntaxError, 3),
    ("measure q[0] -> c;", QasmSyntaxError, 3),
    ("measure q[0] -> e[0];", UndeclaredRegisterError, 3),
    ("cx q[0] q[1];", QasmSyntaxError, 3),
    ("h p[0];", UndeclaredRegisterError, 3),
    ("h q[5];", QasmSyntaxError, 3),
    ("cx q[0],\n   q[5];", QasmSyntaxError, 3),
    ("gate g(a b) x { rz(a) x; }", QasmSyntaxError, 3),
    ("gate g x y { cx x,y; }", QasmSyntaxError, 3),
    ("gate g x, x { h x; }", QasmSyntaxError, 3),
    ("gate g(a)(b) x { h x; }", QasmSyntaxError, 3),
    ("gate g x {\n  h x\n}", QasmSyntaxError, 4),
    ("gate g x {\n  h x;\n  h y;\n}", QasmSyntaxError, 5),
    ("gate g x { g x; }\ng q[0];", UnsupportedGateError, 4),
    ("ccx q[0],q[1],q[0];", UnsupportedGateError, 3),
    ("foo q[0];", UnsupportedGateError, 3),
    ("cx q[0];", QasmSyntaxError, 3),
    ("rz q[0];", QasmSyntaxError, 3),
    ("measure q[0] -> c[0];\nh q[0];", UnsupportedGateError, 4),
    ("cx q[0],q[0];", DuplicateOperandError, 3),
    ("gate g(a) x { rz(a) x; }\ng q[0];", QasmSyntaxError, 4),
    ("gate g x, y { cx x,y; }\ng q[0];", QasmSyntaxError, 4),
    ("gate g x, y { cx x,y; }\ng q[0], q[0];", DuplicateOperandError, 4),
    ("gate g(a) x {\n  rz(a/0) x;\n}\ng(1) q[0];", QasmSyntaxError, 6),
    ("gate g(a) x { rz(2a) x; }\ng(1) q[0];", QasmSyntaxError, 4),
    ("rx(1e400) q[0];", QasmSyntaxError, 3),
    ("rx(.) q[0];", QasmSyntaxError, 3),
    ("rx(1.2.) q[0];", QasmSyntaxError, 3),
    ("rx(1e400-1e400) q[0];", QasmSyntaxError, 3),
    ("gate g(a) x { rz(a*1e308*10) x; }\ng(1) q[0];", QasmSyntaxError, 4),
    ("qreg e[0];\nh e;", QasmSyntaxError, 4),
    ("qreg r[3];\ncx q, r;", QasmSyntaxError, 4),
    ("creg d[1];\ncreg d[4];", QasmSyntaxError, 4),
    ("x r[0];\nqreg r[1];", UndeclaredRegisterError, 3),
    ("h q[1];\ncx q[1],q[1];", DuplicateOperandError, 4),
    ("qreg(1) q[0];", UnsupportedGateError, 3),
    pytest.param("rz(" + "(" * 400 + "1" + ")" * 400 + ") q[0];", QasmSyntaxError, 3,
                 id="400-nested-parentheses"),
    pytest.param("rz(" + "-" * 2000 + "1) q[0];", QasmSyntaxError, 3,
                 id="2000-unary-minus"),
    pytest.param("gate g(a) x { rz(" + "(" * 100 + "a" + ")" * 100 + ") x; }\ng(1) q[0];",
                 QasmSyntaxError, 4, id="nested-parentheses-in-gate-body"),
]


@pytest.mark.parametrize("source, error, line", ERROR_TABLE)
def test_error_type_and_line(source, error, line):
    with pytest.raises(QasmError) as info:
        parse_qasm("qreg q[2];\ncreg c[2];\n" + source)
    assert type(info.value) is error
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


def test_round_trip_stability():
    rng = np.random.default_rng(7)
    kinds1 = ["h", "x", "rz", "rx", "u3"]
    for _ in range(20):
        n = int(rng.integers(2, 6))
        gates = []
        for _ in range(int(rng.integers(1, 25))):
            if rng.random() < 0.5:
                kind = kinds1[int(rng.integers(0, len(kinds1)))]
                nparams = {"h": 0, "x": 0, "rz": 1, "rx": 1, "u3": 3}[kind]
                params = tuple(float(rng.uniform(-7, 7)) for _ in range(nparams))
                gates.append(GateApp(kind, (int(rng.integers(0, n)),), params))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(GateApp("cx", (int(a), int(b))))
        ir = CircuitIR(n, tuple(gates), "rand")
        again = parse_qasm(to_qasm(ir), name="rand")
        assert again.num_qubits == ir.num_qubits
        assert again.gates == ir.gates


def test_wire_projection_preserves_source_order():
    """Per wire, parsing keeps the gates in source order, and the cut graph's
    time-like edges join the wire's consecutive 2-qubit gates in that order."""
    ir = ising_chain(8, depth=2, seed=3)
    parsed = parse_qasm(to_qasm(ir))
    graph = build_cut_graph(parsed)
    for q in range(8):
        on_wire = [i for i, g in enumerate(ir.gates) if q in g.qubits]
        assert on_wire == sorted(on_wire)
        assert on_wire == [i for i, g in enumerate(parsed.gates) if q in g.qubits]
        two_qubit = [i for i in on_wire if len(parsed.gates[i].qubits) == 2]
        chained = [(graph.nodes[e.u].gate_id, graph.nodes[e.v].gate_id)
                   for e in graph.edges
                   if e.kind is CutKind.TIME and q in graph.nodes[e.u].qubits]
        assert chained == list(zip(two_qubit, two_qubit[1:]))


def test_fixture_parses_back():
    ir = ising_chain(12, depth=1, seed=0)
    again = parse_qasm(to_qasm(ir), name=ir.name)
    assert again.gates == ir.gates


@st.composite
def _circuits(draw):
    """A circuit of up to 30 gates drawn from ``STANDARD_GATES``, on 2-6
    wires, with any finite float parameters."""
    n = draw(st.integers(2, 6))
    gates = []
    for kind in draw(st.lists(st.sampled_from(sorted(STANDARD_GATES)), max_size=30)):
        arity, n_params = STANDARD_GATES[kind]
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity,
                               unique=True))
        params = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=n_params, max_size=n_params))
        gates.append(GateApp(kind, tuple(qubits), tuple(params)))
    return CircuitIR(n, gates, "rand")


@settings(max_examples=100, deadline=None)
@given(_circuits())
def test_to_qasm_round_trips(ir):
    """Parsing ``to_qasm``'s output gives back every gate but the no-ops
    ``id`` and ``u0``, which the parser drops."""
    again = parse_qasm(to_qasm(ir), name=ir.name)
    assert again.num_qubits == ir.num_qubits
    assert again.gates == tuple(g for g in ir.gates if g.kind not in ("id", "u0"))
