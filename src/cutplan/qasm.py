"""OpenQASM 2.0 frontend.

Parses the dialect used by transpiled benchmark circuits (single or multiple
quantum registers, standard-library 1- and 2-qubit gates, the built-in ``U``
and ``CX`` as ``u3`` and ``cx``, user gate definitions, barriers, terminal
measurements) into a flat, columnar gate-level IR.
Barriers and terminal measurements are dropped; user gate definitions are
inlined recursively; classical registers are only checked, never simulated.

Parameter expressions are limited to numeric literals, ``pi``, gate
parameters and ``+ - * /`` with parentheses (``pi/2``, ``3*pi/4``, ``-pi``,
...), evaluated left to right with the usual precedence.

Every error is a :class:`QasmError` whose ``line`` is the line of the first
token of the statement it concerns; an error inside an inlined gate body
reports the line of the statement that applied the gate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from ._checks import _integer, _real
from .gates import GATES, IDLE


class QasmError(Exception):
    """Base class for all parse-time errors; ``line`` is 1-based, or None."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QasmSyntaxError(QasmError):
    """Text outside the grammar, or a declaration it contradicts."""


class UnsupportedGateError(QasmError):
    """Gate construct outside the supported subset (e.g. arity >= 3)."""


class DuplicateOperandError(QasmError):
    """A gate applied to the same wire twice."""


class UndeclaredRegisterError(QasmError):
    """Reference to a register that was never declared."""


@dataclass(frozen=True)
class GateApp:
    """A single gate application on flattened qubit indices, checked when it
    is made: its operand count, its kind and counts against ``GATES`` (as the
    parser words them), its wires, stored as distinct ``int``s, and its
    parameters, stored as finite ``float``s (a bool raises ``TypeError``)."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        kind, qubits, params = self.kind, self.qubits, self.params
        if len(qubits) not in (1, 2):
            raise UnsupportedGateError(
                f"gate '{kind}' acts on {len(qubits)} qubits; only 1- and "
                "2-qubit gates are supported"
            )
        row = GATES.get(kind)
        if row is None or row.arity != len(qubits) or row.n_params != len(params):
            raise _gate_error(kind, row, qubits, params)
        qubits = tuple(_integer(f"{kind} wire", q) for q in qubits)
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise DuplicateOperandError(f"gate '{kind}' applied twice to wire {qubits[0]}")
        params = tuple(_real(f"{kind} parameter", v) for v in params)
        for value in params:
            if not math.isfinite(value):
                raise QasmSyntaxError(
                    f"gate '{kind}' parameter {value!r} is not a finite number")
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)


def _gate_error(kind: str, row, qubits: tuple, params: tuple) -> QasmError:
    """The parser's error for a ``kind`` gate on ``qubits`` with ``params``: its
    ``row`` (of ``GATES``, or a gate definition) is None, or the shape differs."""
    if row is None and kind in _WIDE_GATES:
        return UnsupportedGateError(f"gate '{kind}' acts on {_WIDE_GATES[kind]} qubits; "
                                    "only 1- and 2-qubit gates are supported")
    if row is None:
        return UnsupportedGateError(f"unknown gate '{kind}'")
    if row.arity != len(qubits):
        return QasmSyntaxError(f"gate '{kind}' expects {row.arity} operand(s), got {len(qubits)}")
    return QasmSyntaxError(f"gate '{kind}' expects {row.n_params} parameter(s), got {len(params)}")


class CircuitIR:
    """Gate-level circuit over ``num_qubits`` wires, stored as columns: per
    gate, in order, its ``kind``, ``qubits`` and ``params``. The parser, the
    cut graph and ``to_qasm`` read the columns, and ``gates`` builds the
    ``GateApp`` tuple on first access.
    """

    def __init__(self, num_qubits: int, gates: Sequence[GateApp], name: str = "circuit"):
        """A circuit from ``GateApp`` objects, which checked themselves when
        they were made; here each wire is checked against ``num_qubits``."""
        self.gates = gates = tuple(gates)  # fills the cached property
        self.num_qubits = num_qubits = _integer("num_qubits", num_qubits, 0)
        self.name = name
        for g in gates:
            for q in g.qubits:
                if not 0 <= q < num_qubits:
                    raise QasmSyntaxError(f"gate '{g.kind}' touches wire {q} outside "
                                          f"register of size {num_qubits}")
        self.kind = [g.kind for g in gates]
        self.qubits = [g.qubits for g in gates]
        self.params = [g.params for g in gates]

    @classmethod
    def from_columns(cls, num_qubits: int, kind: list[str], qubits: list[tuple[int, ...]],
                     params: list[tuple[float, ...]], name: str = "circuit") -> "CircuitIR":
        """A circuit that keeps the given lists as its columns, unchecked: the
        caller has checked each gate's kind, shape and wires."""
        circuit = cls.__new__(cls)
        vars(circuit).update(num_qubits=num_qubits, name=name, kind=kind, qubits=qubits,
                             params=params)
        return circuit

    @cached_property
    def gates(self) -> tuple[GateApp, ...]:
        return tuple(map(GateApp, self.kind, self.qubits, self.params))


# constructs we recognise but reject explicitly
_UNSUPPORTED_STATEMENTS = {"if", "reset", "opaque"}

# head words of statements that are not gate applications when they take no
# parameters; ``None`` heads empty and malformed statements
_KEYWORDS = {"qreg", "creg", "include", "measure"}
_NOT_GATES = _KEYWORDS | _UNSUPPORTED_STATEMENTS | {None}

# the parameter environment of a top-level gate application
_NO_ENV: dict[str, float] = {}

# OpenQASM's built-in gates, read as the qelib1 gates defined from them
_BUILTIN_GATES = {"U": "u3", "CX": "cx"}

# qelib1 names with three or more operands: rejected unless a user definition
# with an inlinable body shadows them
_WIDE_GATES = {"ccx": 3, "cswap": 3, "c3x": 4, "c4x": 5, "rccx": 3, "rc3x": 4}

_MAX_INLINE_DEPTH = 16
# parentheses and unary signs one parameter expression may nest; each level
# costs the evaluator up to three stack frames, well inside Python's limit
_MAX_EXPR_DEPTH = 64

# OpenQASM 2.0's real (``5.``, ``.5``, ``5.5``, with an optional exponent) or
# integer
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"

# A barrier is skipped up to the next ';' whatever it contains. Any other
# statement's parameter text runs to its last ')' and its rest to the first
# terminator; the terminator is empty at the end of the text, so the pattern
# matches wherever it starts.
_STATEMENT_RE = re.compile(r"""
    \s*(?:
        barrier(?![A-Za-z0-9_])[^;]*;
      | ([A-Za-z_][A-Za-z0-9_]*)?       # head word
        \s*(?:\(([^;{}]*)\))?           # parameter text
        ([^;{}]*)                       # rest
        ([;{}]|\Z)                      # terminator
    )""", re.VERBOSE)
_HEADER_RE = re.compile(rf"\s*OPENQASM\s*(?:{_NUMBER})\s*;")
_OPERAND_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*([0-9]+)\s*\])?\s*")
_SIGNATURE_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^()]*)\))?([^()]*)")
_STRING_RE = re.compile(r'\s*"[^"\n]*"\s*')
_PLAIN_NUMBER_RE = re.compile(rf"\s*[-+]?(?:{_NUMBER})\s*")
_EXPR_TOKEN_RE = re.compile(rf"{_NUMBER}|[A-Za-z_][A-Za-z0-9_]*|\S")


def _evaluate(text: str, env: dict[str, float]) -> float:
    """Value of one parameter expression; ``env`` binds gate parameters."""
    if _PLAIN_NUMBER_RE.fullmatch(text):
        value = float(text)
    else:
        tokens = _EXPR_TOKEN_RE.findall(text)
        value, i = _sum(tokens, 0, env, 0)
        if i < len(tokens):
            raise QasmSyntaxError(f"unexpected '{tokens[i]}' after parameter expression")
    if not math.isfinite(value):
        raise QasmSyntaxError(f"parameter '{text.strip()}' is not a finite number")
    return value


def _sum(tokens: list[str], i: int, env: dict[str, float],
         depth: int) -> tuple[float, int]:
    value, i = _product(tokens, i, env, depth)
    while i < len(tokens) and tokens[i] in ("+", "-"):
        op = tokens[i]
        rhs, i = _product(tokens, i + 1, env, depth)
        value = value + rhs if op == "+" else value - rhs
    return value, i


def _product(tokens: list[str], i: int, env: dict[str, float],
             depth: int) -> tuple[float, int]:
    value, i = _unary(tokens, i, env, depth)
    while i < len(tokens) and tokens[i] in ("*", "/"):
        op = tokens[i]
        rhs, i = _unary(tokens, i + 1, env, depth)
        if op == "*":
            value *= rhs
        elif rhs == 0:
            raise QasmSyntaxError("division by zero in parameter")
        else:
            value /= rhs
    return value, i


def _unary(tokens: list[str], i: int, env: dict[str, float],
           depth: int) -> tuple[float, int]:
    if i == len(tokens):
        raise QasmSyntaxError("parameter expression ends early")
    tok = tokens[i]
    if tok in ("-", "+", "(") and depth == _MAX_EXPR_DEPTH:
        raise QasmSyntaxError(f"parameter expression nested deeper than "
                              f"{_MAX_EXPR_DEPTH} levels")
    if tok == "-":
        value, i = _unary(tokens, i + 1, env, depth + 1)
        return -value, i
    if tok == "+":
        return _unary(tokens, i + 1, env, depth + 1)
    if tok == "(":
        value, i = _sum(tokens, i + 1, env, depth + 1)
        if i == len(tokens) or tokens[i] != ")":
            raise QasmSyntaxError("expected ')' in parameter expression")
        return value, i + 1
    if tok == "pi":
        return math.pi, i + 1
    if _PLAIN_NUMBER_RE.fullmatch(tok):
        return float(tok), i + 1
    if tok in env:
        return env[tok], i + 1
    raise QasmSyntaxError(f"unsupported parameter expression near '{tok}'")


def _param_texts(text: str | None) -> list[str]:
    """The comma-separated expressions of a parameter text; none if blank."""
    return text.split(",") if text and not text.isspace() else []


def _names(text: str | None) -> list[str]:
    """A gate definition's comma-separated parameter or qubit names."""
    names: list[str] = []
    for part in _param_texts(text):
        m = _OPERAND_RE.fullmatch(part)
        if m is None or m[2] is not None or m[1] in names:
            raise QasmSyntaxError(f"gate definition names must be distinct "
                                  f"identifiers separated by ',', found '{text.strip()}'")
        names.append(m[1])
    return names


@dataclass
class _GateDef:
    name: str
    params: list[str]
    qargs: list[str]
    # body statements as (name, parameter texts, operand names)
    body: list[tuple[str, list[str], list[str]]]
    # the shape, read as a ``GATES`` row's
    arity = property(lambda self: len(self.qargs))
    n_params = property(lambda self: len(self.params))


class _Parser:
    def __init__(self, text: str, name: str):
        self.text = "\n".join(line.split("//", 1)[0] for line in text.splitlines())
        self.name = name
        self.statement: re.Match | None = None  # the last statement read
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}  # name -> (0, size)
        self.num_qubits = 0
        # the IR's columns
        self.kind: list[str] = []
        self.qubits: list[tuple[int, ...]] = []
        self.params: list[tuple[float, ...]] = []
        self.gate_defs: dict[str, _GateDef] = {}
        self.measured: set[int] = set()
        # operand text -> its qubit, for operands that resolved to one qubit
        self.scalars: dict[str, int] = {}

    def run(self) -> CircuitIR:
        header = _HEADER_RE.match(self.text)
        statements = self._statements(header.end() if header else 0)
        apply = self._apply
        try:
            for head, params, rest, end in statements:
                if end == ";" and head not in _NOT_GATES:
                    apply(head, params, rest)
                elif not end and head is None and params is None and not rest:
                    break
                else:
                    self._statement(head, params, rest, end, statements)
        except QasmError as exc:
            m = self.statement
            start = m.end() - len(m[0].lstrip())  # the statement's first token
            raise type(exc)(str(exc), self.text.count("\n", 0, start) + 1) from None
        return CircuitIR.from_columns(self.num_qubits, self.kind, self.qubits, self.params,
                                      self.name)

    def _statements(self, pos: int) -> Iterator[tuple[str | None, str | None, str, str]]:
        """(head, parameter text, rest, terminator) of every statement from
        ``pos`` on, barriers skipped; each one read becomes ``self.statement``.
        The pattern matches wherever it starts, so the matches run back to
        back; the text ends with an empty statement whose terminator is ''."""
        for m in _STATEMENT_RE.finditer(self.text, pos):
            if m[4] is not None:  # None: a barrier
                self.statement = m
                yield m.groups()

    # -- statements ---------------------------------------------------------

    def _statement(self, head: str | None, params: str | None, rest: str,
                   end: str, statements: Iterator) -> None:
        if head in _UNSUPPORTED_STATEMENTS:
            raise UnsupportedGateError(f"'{head}' statements are not supported")
        if head == "gate" and params is None and end == "{":
            self._gate_def(rest, statements)
            return
        if end != ";":
            raise QasmSyntaxError(f"unexpected '{end}'" if end else
                                  "statement without ';' at end of input")
        if head is None:
            if params is None and not rest:
                return  # empty statement
            raise QasmSyntaxError("statement does not start with a name")
        if params is not None:
            # a keyword with parameters is read, and rejected, as a gate name
            self._apply(head, params, rest)
        elif head == "include":
            # the filename is checked, not read: qelib1 gates are built in
            if not _STRING_RE.fullmatch(rest):
                raise QasmSyntaxError(f"include expects a quoted filename, found "
                                      f"'{rest.strip()}'")
        elif head == "measure":
            self._measure(rest)
        else:
            self._reg_decl(head, rest)

    def _reg_decl(self, kind: str, rest: str) -> None:
        m = _OPERAND_RE.fullmatch(rest)
        if m is None or m[2] is None:
            raise QasmSyntaxError(f"expected '{kind} name[size];', found '{rest.strip()}'")
        name, size = m[1], int(m[2])
        if name in (self.cregs if kind == "creg" else self.qregs):
            raise QasmSyntaxError(f"{kind} '{name}' redeclared")
        if kind == "creg":
            self.cregs[name] = (0, size)
        else:
            self.qregs[name] = (self.num_qubits, size)
            self.num_qubits += size
            self.scalars.clear()  # no operand outlives a change to the registers

    def _measure(self, rest: str) -> None:
        parts = rest.split("->")
        if len(parts) != 2:
            raise QasmSyntaxError(f"expected 'measure qubits -> bits', found "
                                  f"'{rest.strip()}'")
        targets = self._operand(parts[0], self.qregs, "qreg")
        bits = self._operand(parts[1], self.cregs, "creg")
        if len(targets) != len(bits) or ("[" in parts[0]) != ("[" in parts[1]):
            raise QasmSyntaxError(
                f"measure maps '{parts[0].strip()}' onto '{parts[1].strip()}': "
                "a qubit needs a bit and a register a creg of its size")
        self.measured.update(targets)

    def _operand(self, text: str, regs: dict[str, tuple[int, int]],
                 kind: str) -> list[int]:
        """One operand: either reg[i] (one index) or a whole register."""
        m = _OPERAND_RE.fullmatch(text)
        if m is None:
            raise QasmSyntaxError(f"expected a {kind} operand, found '{text.strip()}'")
        name, idx = m.groups()
        if name not in regs:
            raise UndeclaredRegisterError(f"unknown {kind} '{name}'")
        offset, size = regs[name]
        if idx is None:
            return list(range(offset, offset + size))
        if int(idx) >= size:
            raise QasmSyntaxError(f"index {idx} out of range for {kind} '{name}[{size}]'")
        return [offset + int(idx)]

    # -- gate definitions ---------------------------------------------------

    def _gate_def(self, signature: str, statements: Iterator) -> None:
        """A gate definition whose body ``statements`` reads up to its '}'."""
        m = _SIGNATURE_RE.fullmatch(signature)
        if m is None:
            raise QasmSyntaxError(f"malformed gate signature '{signature.strip()}'")
        gdef = _GateDef(m[1], _names(m[2]), _names(m[3]), [])
        for kind, params, rest, end in statements:
            if end == "}" and kind is None and params is None and not rest:
                break
            if kind is None or end != ";":
                raise QasmSyntaxError(f"body of gate '{gdef.name}' needs statements "
                                      "ending in ';' and a closing '}'")
            operands = rest.replace(",", " ").split()
            for name in operands:
                if name not in gdef.qargs:
                    raise QasmSyntaxError(
                        f"unknown operand '{name}' in body of gate '{gdef.name}'")
            gdef.body.append((kind, _param_texts(params), operands))
        self.gate_defs[gdef.name] = gdef

    # -- applications -------------------------------------------------------

    def _apply(self, kind: str, params: str | None, rest: str) -> None:
        """One gate statement: its parameters, operands and broadcast."""
        values = tuple([_evaluate(t, _NO_ENV) for t in _param_texts(params)]) if params else ()
        parts = rest.split(",")
        scalars = self.scalars
        qubits = []
        for part in parts:
            q = scalars.get(part)
            if q is None:
                operand = self._operand(part, self.qregs, "qreg")
                if len(operand) != 1:  # a whole register: broadcast
                    for wires in _broadcast([self._operand(p, self.qregs, "qreg")
                                             for p in parts]):
                        self._emit(kind, values, wires, 0)
                    return
                q = scalars[part] = operand[0]
            qubits.append(q)
        self._emit(kind, values, tuple(qubits), 0)

    def _emit(self, kind: str, params: tuple[float, ...], qubits: tuple[int, ...],
              depth: int) -> None:
        if depth > _MAX_INLINE_DEPTH:
            raise UnsupportedGateError(
                f"gate '{kind}' exceeds inline depth (recursive definition?)")
        gdef = self.gate_defs.get(kind)
        # a subscript after ``in`` costs less than the proxy's ``get``
        row = gdef or (GATES[kind] if kind in GATES else None)
        if row is None:
            kind = _BUILTIN_GATES.get(kind, kind)
            row = GATES[kind] if kind in GATES else None
            if row is None:
                raise _gate_error(kind, None, qubits, params)
        # the shape is tested inline; the helper only words the error
        arity = row.arity
        if arity != len(qubits) or row.n_params != len(params):
            raise _gate_error(kind, row, qubits, params)
        if arity == 2 and qubits[0] == qubits[1] or arity > 2 and len(set(qubits)) < arity:
            q = next(q for q in qubits if qubits.count(q) > 1)
            raise DuplicateOperandError(f"gate '{kind}' applied twice to wire {q}")
        if gdef:
            self._inline(gdef, params, qubits, depth)
            return
        if self.measured:
            for q in qubits:
                if q in self.measured:
                    raise UnsupportedGateError(
                        f"gate on wire {q} after measurement "
                        "(mid-circuit measurement is not supported)")
        if kind in IDLE:
            return
        self.kind.append(kind)
        self.qubits.append(qubits)
        self.params.append(params)

    def _inline(self, gdef: _GateDef, params: tuple[float, ...],
                qubits: tuple[int, ...], depth: int) -> None:
        env = dict(zip(gdef.params, params))
        binding = dict(zip(gdef.qargs, qubits))
        for kind, texts, operands in gdef.body:
            values = tuple(_evaluate(t, env) for t in texts)
            mapped = tuple(binding[name] for name in operands)
            self._emit(kind, values, mapped, depth + 1)


def _broadcast(operand_lists: list[list[int]]) -> list[tuple[int, ...]]:
    """OpenQASM register broadcast: scalars repeat, registers run elementwise."""
    if not all(operand_lists):
        raise QasmSyntaxError("gate operand is an empty register")
    sizes = {len(ops) for ops in operand_lists if len(ops) > 1}
    if len(sizes) > 1:
        raise QasmSyntaxError("mismatched register sizes in gate operands")
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
    wire = [f"q[{q}]" for q in range(circuit.num_qubits)]
    append = lines.append
    # one line per gate, written by its shape; only a gate with several
    # parameters joins them
    for kind, qubits, params in zip(circuit.kind, circuit.qubits, circuit.params):
        if len(qubits) == 1:
            operands = wire[qubits[0]]
        else:
            a, b = qubits  # a gate acts on one or two wires
            operands = f"{wire[a]},{wire[b]}"
        if not params:
            append(f"{kind} {operands};")
        elif len(params) == 1:
            append(f"{kind}({params[0]!r}) {operands};")
        else:
            append(f"{kind}({','.join(map(repr, params))}) {operands};")
    return "\n".join(lines) + "\n"
