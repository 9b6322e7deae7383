"""OpenQASM 2.0 frontend.

Parses the dialect used by transpiled benchmark circuits (single or multiple
quantum registers, standard-library 1- and 2-qubit gates, user gate
definitions, barriers, terminal measurements) into a flat gate-level IR.
Barriers and terminal measurements are dropped; user gate definitions are
inlined recursively; classical registers are ignored.

Parameter expressions are limited to numeric literals, ``pi`` and arithmetic
combinations thereof (``pi/2``, ``3*pi/4``, ``-pi``, ...).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field


class QasmError(Exception):
    """Base class for all parse-time errors."""


class QasmSyntaxError(QasmError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedGateError(QasmError):
    """Gate construct outside the supported subset (e.g. arity >= 3)."""


class DuplicateOperandError(QasmError):
    """A 2-qubit gate applied to the same wire twice."""


class UndeclaredRegisterError(QasmError):
    """Reference to a register that was never declared."""


@dataclass(frozen=True)
class GateApp:
    """A single gate application on flattened qubit indices."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.qubits) not in (1, 2):
            raise UnsupportedGateError(
                f"gate '{self.kind}' acts on {len(self.qubits)} qubits; only 1- and "
                "2-qubit gates are supported"
            )
        if len(self.qubits) == 2 and self.qubits[0] == self.qubits[1]:
            raise DuplicateOperandError(
                f"gate '{self.kind}' applied twice to wire {self.qubits[0]}"
            )


@dataclass(frozen=True)
class CircuitIR:
    """Gate-level circuit: ordered gate list over ``num_qubits`` wires."""

    num_qubits: int
    gates: tuple[GateApp, ...]
    name: str = "circuit"

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise QasmSyntaxError(
                        f"gate '{g.kind}' touches wire {q} outside register of size "
                        f"{self.num_qubits}"
                    )

    def two_qubit_gates(self) -> list[tuple[int, GateApp]]:
        """(gate index, gate) pairs for all 2-qubit applications, in order."""
        return [(i, g) for i, g in enumerate(self.gates) if len(g.qubits) == 2]


# name -> (number of qubits, number of parameters) for the qelib1-style set
STANDARD_GATES: dict[str, tuple[int, int]] = {
    "id": (1, 0), "x": (1, 0), "y": (1, 0), "z": (1, 0), "h": (1, 0),
    "s": (1, 0), "sdg": (1, 0), "t": (1, 0), "tdg": (1, 0),
    "sx": (1, 0), "sxdg": (1, 0),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1),
    "p": (1, 1), "u0": (1, 1), "u1": (1, 1), "u2": (1, 2), "u3": (1, 3),
    "u": (1, 3),
    "cx": (2, 0), "cy": (2, 0), "cz": (2, 0), "ch": (2, 0), "swap": (2, 0),
    "crx": (2, 1), "cry": (2, 1), "crz": (2, 1), "cp": (2, 1), "cu1": (2, 1),
    "rzz": (2, 1), "rxx": (2, 1), "ryy": (2, 1),
}

# constructs we recognise but reject explicitly
_UNSUPPORTED_STATEMENTS = {"if", "reset", "opaque"}

# qelib1 names with three or more operands: rejected unless a user definition
# with an inlinable body shadows them
_WIDE_GATES = {"ccx": 3, "cswap": 3, "c3x": 4, "c4x": 5, "rccx": 3, "rc3x": 4}

_TOKEN_RE = re.compile(
    r"OPENQASM|->|==|[0-9]*\.[0-9]+(?:[eE][-+]?[0-9]+)?|[0-9]+(?:[eE][-+]?[0-9]+)?"
    r'|[A-Za-z_][A-Za-z0-9_]*|"[^"]*"|\S'
)

_MAX_INLINE_DEPTH = 16


def _tokenize(text: str) -> list[tuple[int, str]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = line.split("//", 1)[0]
        for tok in _TOKEN_RE.findall(code):
            tokens.append((lineno, tok))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[tuple[int, str]]):
        self._tokens = tokens
        self._pos = 0
        self.line = 1

    def peek(self) -> str | None:
        if self._pos >= len(self._tokens):
            return None
        return self._tokens[self._pos][1]

    def next(self) -> str:
        if self._pos >= len(self._tokens):
            raise QasmSyntaxError("unexpected end of input", self.line)
        self.line, tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, literal: str) -> None:
        tok = self.next()
        if tok != literal:
            raise QasmSyntaxError(f"expected '{literal}', found '{tok}'", self.line)

    def accept(self, literal: str) -> bool:
        if self.peek() == literal:
            self.next()
            return True
        return False


_NUMBER_RE = re.compile(r"^(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _ExprParser:
    """Tiny arithmetic grammar: literals, pi, identifiers, + - * / and parens."""

    def __init__(self, stream: _TokenStream, env: dict[str, float]):
        self.s = stream
        self.env = env

    def parse(self) -> float:
        return self._additive()

    def _additive(self) -> float:
        value = self._multiplicative()
        while self.s.peek() in ("+", "-"):
            op = self.s.next()
            rhs = self._multiplicative()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _multiplicative(self) -> float:
        value = self._unary()
        while self.s.peek() in ("*", "/"):
            op = self.s.next()
            rhs = self._unary()
            if op == "*":
                value *= rhs
            else:
                if rhs == 0:
                    raise QasmSyntaxError("division by zero in parameter", self.s.line)
                value /= rhs
        return value

    def _unary(self) -> float:
        if self.s.accept("-"):
            return -self._unary()
        if self.s.accept("+"):
            return self._unary()
        return self._atom()

    def _atom(self) -> float:
        tok = self.s.next()
        if tok == "(":
            value = self._additive()
            self.s.expect(")")
            return value
        if tok == "pi":
            return math.pi
        if _NUMBER_RE.match(tok):
            return float(tok)
        if tok in self.env:
            return self.env[tok]
        raise QasmSyntaxError(f"unsupported parameter expression near '{tok}'", self.s.line)


@dataclass
class _GateDef:
    name: str
    params: list[str]
    qargs: list[str]
    # body statements as (name, param token lists, operand names)
    body: list[tuple[str, list[list[tuple[int, str]]], list[str]]] = field(default_factory=list)


class _Parser:
    def __init__(self, text: str, name: str):
        self.s = _TokenStream(_tokenize(text))
        self.name = name
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, int] = {}
        self.num_qubits = 0
        self.gates: list[GateApp] = []
        self.gate_defs: dict[str, _GateDef] = {}
        self.measured: set[int] = set()

    def run(self) -> CircuitIR:
        if self.s.peek() == "OPENQASM":
            self.s.next()
            self.s.next()  # version number
            self.s.expect(";")
        while self.s.peek() is not None:
            self._statement()
        return CircuitIR(self.num_qubits, tuple(self.gates), self.name)

    # -- statements ---------------------------------------------------------

    def _statement(self) -> None:
        tok = self.s.next()
        if tok == "include":
            self.s.next()  # filename; qelib1 gates are built in
            self.s.expect(";")
        elif tok == "qreg":
            self._reg_decl(quantum=True)
        elif tok == "creg":
            self._reg_decl(quantum=False)
        elif tok == "gate":
            self._gate_def()
        elif tok == "barrier":
            self._skip_to_semicolon()
        elif tok == "measure":
            self._measure()
        elif tok in _UNSUPPORTED_STATEMENTS:
            raise UnsupportedGateError(
                f"line {self.s.line}: '{tok}' statements are not supported"
            )
        elif tok == ";":
            pass
        else:
            self._gate_application(tok)

    def _reg_decl(self, quantum: bool) -> None:
        name = self.s.next()
        self.s.expect("[")
        size_tok = self.s.next()
        if not size_tok.isdigit():
            raise QasmSyntaxError(f"register size must be an integer, found '{size_tok}'",
                                  self.s.line)
        size = int(size_tok)
        self.s.expect("]")
        self.s.expect(";")
        if quantum:
            if name in self.qregs:
                raise QasmSyntaxError(f"qreg '{name}' redeclared", self.s.line)
            self.qregs[name] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            self.cregs[name] = size

    def _skip_to_semicolon(self) -> None:
        while self.s.next() != ";":
            pass

    def _measure(self) -> None:
        targets = self._operand()
        self.s.expect("->")
        self._creg_operand()
        self.s.expect(";")
        self.measured.update(targets)

    def _creg_operand(self) -> None:
        name = self.s.next()
        if name not in self.cregs:
            raise UndeclaredRegisterError(f"line {self.s.line}: unknown creg '{name}'")
        if self.s.accept("["):
            self.s.next()
            self.s.expect("]")

    def _operand(self) -> list[int]:
        """One quantum operand: either reg[i] (one qubit) or a whole register."""
        name = self.s.next()
        if name not in self.qregs:
            raise UndeclaredRegisterError(f"line {self.s.line}: unknown qreg '{name}'")
        offset, size = self.qregs[name]
        if self.s.accept("["):
            idx_tok = self.s.next()
            if not idx_tok.isdigit():
                raise QasmSyntaxError(f"qubit index must be an integer, found '{idx_tok}'",
                                      self.s.line)
            idx = int(idx_tok)
            self.s.expect("]")
            if idx >= size:
                raise QasmSyntaxError(f"index {idx} out of range for qreg '{name}[{size}]'",
                                      self.s.line)
            return [offset + idx]
        return list(range(offset, offset + size))

    # -- gate definitions ---------------------------------------------------

    def _gate_def(self) -> None:
        name = self.s.next()
        params: list[str] = []
        if self.s.accept("("):
            while not self.s.accept(")"):
                tok = self.s.next()
                if tok != ",":
                    params.append(tok)
        qargs: list[str] = []
        while self.s.peek() != "{":
            tok = self.s.next()
            if tok != ",":
                qargs.append(tok)
        self.s.expect("{")
        gdef = _GateDef(name, params, qargs)
        while not self.s.accept("}"):
            gdef.body.append(self._body_statement(gdef))
        self.gate_defs[name] = gdef

    def _body_statement(self, gdef: _GateDef) -> tuple[str, list, list[str]]:
        kind = self.s.next()
        if kind == "barrier":
            self._skip_to_semicolon()
            return ("barrier", [], [])
        param_tokens: list[list[tuple[int, str]]] = []
        if self.s.accept("("):
            depth = 1
            current: list[tuple[int, str]] = []
            while True:
                tok = self.s.next()
                if tok == "(":
                    depth += 1
                elif tok == ")":
                    depth -= 1
                    if depth == 0:
                        break
                if tok == "," and depth == 1:
                    param_tokens.append(current)
                    current = []
                else:
                    current.append((self.s.line, tok))
            if current or param_tokens:
                param_tokens.append(current)
        operands: list[str] = []
        while True:
            tok = self.s.next()
            if tok == ";":
                break
            if tok != ",":
                if tok not in gdef.qargs:
                    raise QasmSyntaxError(
                        f"unknown operand '{tok}' in body of gate '{gdef.name}'",
                        self.s.line)
                operands.append(tok)
        return (kind, param_tokens, operands)

    # -- applications -------------------------------------------------------

    def _gate_application(self, kind: str) -> None:
        params: list[float] = []
        if self.s.accept("("):
            if not self.s.accept(")"):
                while True:
                    params.append(_ExprParser(self.s, {}).parse())
                    if self.s.accept(")"):
                        break
                    self.s.expect(",")
        operand_lists: list[list[int]] = []
        while True:
            operand_lists.append(self._operand())
            tok = self.s.next()
            if tok == ";":
                break
            if tok != ",":
                raise QasmSyntaxError(f"expected ',' or ';', found '{tok}'", self.s.line)
        for qubits in _broadcast(operand_lists, self.s.line):
            self._emit(kind, tuple(params), qubits, self.s.line, depth=0)

    def _emit(self, kind: str, params: tuple[float, ...], qubits: tuple[int, ...],
              line: int, depth: int) -> None:
        if depth > _MAX_INLINE_DEPTH:
            raise UnsupportedGateError(
                f"line {line}: gate '{kind}' exceeds inline depth (recursive definition?)")
        if kind in self.gate_defs:
            self._inline(self.gate_defs[kind], params, qubits, line, depth)
            return
        if kind in _WIDE_GATES:
            raise UnsupportedGateError(
                f"line {line}: gate '{kind}' acts on {_WIDE_GATES[kind]} qubits; "
                "only 1- and 2-qubit gates are supported")
        if kind not in STANDARD_GATES:
            raise UnsupportedGateError(f"line {line}: unknown gate '{kind}'")
        arity, n_params = STANDARD_GATES[kind]
        if arity != len(qubits):
            raise QasmSyntaxError(
                f"gate '{kind}' expects {arity} operand(s), got {len(qubits)}", line)
        if n_params != len(params):
            raise QasmSyntaxError(
                f"gate '{kind}' expects {n_params} parameter(s), got {len(params)}", line)
        for q in qubits:
            if q in self.measured:
                raise UnsupportedGateError(
                    f"line {line}: gate on wire {q} after measurement "
                    "(mid-circuit measurement is not supported)")
        if kind == "id" or kind == "u0":
            return
        try:
            self.gates.append(GateApp(kind, qubits, params))
        except (UnsupportedGateError, DuplicateOperandError) as exc:
            raise type(exc)(f"line {line}: {exc}") from None

    def _inline(self, gdef: _GateDef, params: tuple[float, ...],
                qubits: tuple[int, ...], line: int, depth: int) -> None:
        if len(params) != len(gdef.params):
            raise QasmSyntaxError(
                f"gate '{gdef.name}' expects {len(gdef.params)} parameter(s), "
                f"got {len(params)}", line)
        if len(qubits) != len(gdef.qargs):
            raise QasmSyntaxError(
                f"gate '{gdef.name}' expects {len(gdef.qargs)} operand(s), "
                f"got {len(qubits)}", line)
        if len(set(qubits)) != len(qubits):
            raise DuplicateOperandError(
                f"line {line}: gate '{gdef.name}' applied with repeated wire")
        env = dict(zip(gdef.params, params))
        binding = dict(zip(gdef.qargs, qubits))
        for kind, param_tokens, operands in gdef.body:
            if kind == "barrier":
                continue
            values = tuple(
                _ExprParser(_TokenStream(toks), env).parse() for toks in param_tokens
            )
            mapped = tuple(binding[name] for name in operands)
            self._emit(kind, values, mapped, line, depth + 1)


def _broadcast(operand_lists: list[list[int]], line: int) -> list[tuple[int, ...]]:
    """OpenQASM register broadcast: scalars repeat, registers run elementwise."""
    sizes = {len(ops) for ops in operand_lists if len(ops) > 1}
    if len(sizes) > 1:
        raise QasmSyntaxError("mismatched register sizes in gate operands", line)
    width = sizes.pop() if sizes else 1
    out = []
    for k in range(width):
        out.append(tuple(ops[k] if len(ops) > 1 else ops[0] for ops in operand_lists))
    return out


def parse_qasm(text: str, name: str = "circuit") -> CircuitIR:
    """Parse OpenQASM 2.0 source into a :class:`CircuitIR`.

    Barriers and terminal measurements are stripped; user gate definitions are
    inlined. Raises :class:`QasmSyntaxError`, :class:`UnsupportedGateError`,
    :class:`DuplicateOperandError` or :class:`UndeclaredRegisterError`.
    """
    return _Parser(text, name).run()


def parse_qasm_file(path: str) -> CircuitIR:
    import os

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    base = os.path.splitext(os.path.basename(path))[0]
    return parse_qasm(text, name=base)


def to_qasm(circuit: CircuitIR) -> str:
    """Emit canonical OpenQASM 2.0: one flat qreg, one gate per line.

    Float parameters are printed with ``repr`` so reparsing reproduces the IR
    bit for bit.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for g in circuit.gates:
        params = f"({','.join(repr(p) for p in g.params)})" if g.params else ""
        operands = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.kind}{params} {operands};")
    return "\n".join(lines) + "\n"
