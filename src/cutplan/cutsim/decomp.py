"""Quasiprobability decompositions backing the two cut types.

── Wire (time-like) cut: identity channel in 8 measure-and-prepare terms ──────

    rho = 1/2 [ tr(rho)·I + tr(X rho)·X + tr(Y rho)·Y + tr(Z rho)·Z ]

expanded so each term is a single (measurement basis, outcome sign, prepared
state) triple:

    +1/2 (measure Z, ignore sign,  prepare |0>)
    +1/2 (measure Z, ignore sign,  prepare |1>)
    +1/2 (measure Z, signed,       prepare |0>)
    -1/2 (measure Z, signed,       prepare |1>)
    +1/2 (measure X, signed,       prepare |+>)
    -1/2 (measure X, signed,       prepare |->)
    +1/2 (measure Y, signed,       prepare |+i>)
    -1/2 (measure Y, signed,       prepare |-i>)

8 coefficients of magnitude 1/2: one_norm = 4, sq_norm = 2.

── Gate (space-like) cut: ZZ-rotation core in 6 local terms ───────────────────

With c = cos(theta/2), s = sin(theta/2) and U = exp(-i theta/2 Z⊗Z):

    U rho U† = c²·rho + s²·(Z⊗Z) rho (Z⊗Z) - i·cs·[Z⊗Z, rho]

and the commutator splits into local pieces via

    -i[Z, rho]     = Rz(+pi/2) rho Rz(+pi/2)† - Rz(-pi/2) rho Rz(-pi/2)†
    {Z, rho}/2     = P0 rho P0 - P1 rho P1       (signed Z measurement, kept)

giving terms (c², I⊗I), (s², Z⊗Z), (±cs, measure⊗rotation) on either side:
one_norm = 1 + 2|sin theta| and sq_norm = 1 + sin²(theta)/2, i.e. 3 and 1.5 at
theta = pi/2. Each cuttable gate, CZ and CX included, has a cut row in
``cutplan.gates.GATES``: its core angle and the 1-qubit gates each side runs
before and after the core.

The coefficients of both decompositions live in ``cutplan.graph``
(``WIRE_CUT_COEFFICIENTS``, ``zz_core_coefficients``), which the planner
prices cuts from; this module pairs them with the term sides.

Every spec registered here is checked against its target channel by
``reconstruct_channel``: tests trust the process-matrix oracle, not this
docstring.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from typing import TYPE_CHECKING

import numpy as np

from ..gates import GATES
from ..graph import WIRE_CUT_COEFFICIENTS, CutWeights, zz_core_coefficients

if TYPE_CHECKING:  # pragma: no cover
    from ..qasm import GateApp

MEAS_NONE = None
MEAS_SIGNED = "signed"
MEAS_PLAIN = "plain"


@dataclass(frozen=True)
class TermSide:
    """What one side of the cut does for one decomposition term.

    ``gates`` run first, then the optional Z measurement (sign recorded when
    ``signed``), then ``post_gates``. For wire cuts the measure side ends the
    wire segment and the prepare side's gates initialise the fresh segment.
    """

    gates: tuple[tuple[str, tuple[float, ...]], ...] = ()
    measure: str | None = MEAS_NONE
    post_gates: tuple[tuple[str, tuple[float, ...]], ...] = ()

    @cached_property
    def unitaries(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``gates`` and ``post_gates`` each multiplied into one read-only
        2x2 matrix, built once per side; None where there are no gates."""
        def product(gates):
            if not gates:
                return None
            # a copy: a fixed gate's row hands out one shared array
            u = np.array(reduce(lambda acc, m: m @ acc, [
                GATES[kind].matrix(*params) for kind, params in gates]))
            u.flags.writeable = False
            return u

        return product(self.gates), product(self.post_gates)


@dataclass(frozen=True)
class Term:
    coeff: float
    sides: tuple[TermSide, TermSide]


@dataclass(frozen=True)
class DecompositionSpec:
    cut_kind: str                 # "space" | "time"
    gate_kind: str | None         # target gate for space cuts
    params: tuple[float, ...]
    terms: tuple[Term, ...]

    @cached_property
    def weights(self) -> CutWeights:
        """kappa and tau of the term coefficients, summed once per spec."""
        return CutWeights.of([t.coeff for t in self.terms])

    # per side (0, 1), the terms grouped by what they do on that side:
    # ``(term indices, side)`` in order of first appearance; terms with equal
    # sides act alike on that side's partition
    side_groups: tuple = field(init=False, repr=False, compare=False)

    kappa = property(lambda self: self.weights.kappa)
    tau = property(lambda self: self.weights.tau)

    def __post_init__(self):
        # a spec built from a side table takes the groups built with the
        # table at import; any other spec groups its own sides
        sides = [term.sides for term in self.terms]
        table, groups = _GROUPED.get(self.gate_kind, ((), None))
        if len(table) != len(sides) or not all(map(operator.is_, table, sides)):
            groups = _group_sides(sides)
        object.__setattr__(self, "side_groups", groups)


def _group_sides(sides: list[tuple[TermSide, TermSide]]) -> tuple:
    """``DecompositionSpec.side_groups`` of terms with these sides."""
    groups: tuple[dict[TermSide, list[int]], ...] = ({}, {})
    for t, term_sides in enumerate(sides):
        for by_side, term_side in zip(groups, term_sides):
            by_side.setdefault(term_side, []).append(t)
    return tuple(tuple((tuple(ts), term_side) for term_side, ts in by_side.items())
                 for by_side in groups)


def _g(kind: str, *params: float) -> tuple[str, tuple[float, ...]]:
    return (kind, tuple(params))


# the sides of each term, in the order of the planner's coefficient lists
_WIRE_CUT_SIDES = (
    (TermSide(measure=MEAS_PLAIN), TermSide()),
    (TermSide(measure=MEAS_PLAIN), TermSide(gates=(_g("x"),))),
    (TermSide(measure=MEAS_SIGNED), TermSide()),
    (TermSide(measure=MEAS_SIGNED), TermSide(gates=(_g("x"),))),
    (TermSide(gates=(_g("h"),), measure=MEAS_SIGNED), TermSide(gates=(_g("h"),))),
    (TermSide(gates=(_g("h"),), measure=MEAS_SIGNED), TermSide(gates=(_g("x"), _g("h")))),
    (TermSide(gates=(_g("sdg"), _g("h")), measure=MEAS_SIGNED),
     TermSide(gates=(_g("h"), _g("s")))),
    (TermSide(gates=(_g("sdg"), _g("h")), measure=MEAS_SIGNED),
     TermSide(gates=(_g("x"), _g("h"), _g("s")))),
)
_ZZ_CORE_SIDES = (
    (TermSide(), TermSide()),
    (TermSide(gates=(_g("z"),)), TermSide(gates=(_g("z"),))),
    (TermSide(measure=MEAS_SIGNED), TermSide(gates=(_g("rz", math.pi / 2),))),
    (TermSide(measure=MEAS_SIGNED), TermSide(gates=(_g("rz", -math.pi / 2),))),
    (TermSide(gates=(_g("rz", math.pi / 2),)), TermSide(measure=MEAS_SIGNED)),
    (TermSide(gates=(_g("rz", -math.pi / 2),)), TermSide(measure=MEAS_SIGNED)),
)


def wire_cut_decomposition() -> DecompositionSpec:
    """Identity channel as 8 signed measure-and-prepare terms."""
    return DecompositionSpec("time", None, (), tuple(map(Term, WIRE_CUT_COEFFICIENTS,
                                                         _WIRE_CUT_SIDES)))


def _with_gates(side: TermSide, before: tuple, after: tuple) -> TermSide:
    """``side`` with ``before`` run first and ``after`` run last: after its
    gates, or after its measurement if it has one."""
    if side.measure is None:
        return replace(side, gates=before + side.gates + after)
    return replace(side, gates=before + side.gates, post_gates=side.post_gates + after)


# per kind with a cut row in ``GATES``, the sides of each core term with the
# kind's gates
_GATE_CUT_SIDES = {
    kind: tuple(tuple(_with_gates(side, *gates) for side, gates in zip(sides, row.cut[1]))
                for sides in _ZZ_CORE_SIDES)
    for kind, row in GATES.items() if row.cut is not None}


# per gate kind (None for a wire cut), its side table and that table's groups
_GROUPED = {kind: (sides, _group_sides(sides)) for kind, sides
            in ((None, _WIRE_CUT_SIDES), *_GATE_CUT_SIDES.items())}


def gate_cut_decomposition(gate: GateApp) -> DecompositionSpec:
    """Decomposition for cutting this 2-qubit gate, side 0 = first operand."""
    return _gate_cut_spec(gate.kind, gate.params)


def _gate_cut_spec(kind: str, params: tuple[float, ...]) -> DecompositionSpec:
    """``gate_cut_decomposition`` of a checked gate's kind and parameters."""
    sides = _GATE_CUT_SIDES.get(kind)
    if sides is None:
        raise ValueError(f"no registered cut decomposition for gate '{kind}'")
    theta = GATES[kind].cut[0]
    coefficients = zz_core_coefficients(params[0] if theta is None else theta)
    return DecompositionSpec("space", kind, params, tuple(map(Term, coefficients, sides)))


# ---------------------------------------------------------------------------
# process-matrix reconstruction (the oracle)
# ---------------------------------------------------------------------------
#
# Superoperators act on row-major vec(rho): vec(A rho B) = (A ⊗ B^T) vec(rho).

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def _conj_superop(u: np.ndarray) -> np.ndarray:
    return np.kron(u, u.conj())


def _embed(u: np.ndarray, side: int) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    return np.kron(u, eye) if side == 0 else np.kron(eye, u)


def _side_unitary(gates: tuple) -> np.ndarray:
    return reduce(lambda acc, m: m @ acc, [GATES[kind].matrix(*params) for kind, params in gates],
                  np.eye(2, dtype=complex))


def _space_term_superop(term: Term) -> np.ndarray:
    """16x16 superoperator of one gate-cut term on the 2-qubit space."""
    op = np.eye(16, dtype=complex)
    for side, ts in enumerate(term.sides):
        pre = _embed(_side_unitary(ts.gates), side)
        op = _conj_superop(pre) @ op
        if ts.measure is not None:
            p0, p1 = _embed(_P0, side), _embed(_P1, side)
            sign = -1.0 if ts.measure == MEAS_SIGNED else 1.0
            meas = np.kron(p0, p0.conj()) + sign * np.kron(p1, p1.conj())
            op = meas @ op
        post = _embed(_side_unitary(ts.post_gates), side)
        op = _conj_superop(post) @ op
    return op


def _time_term_superop(term: Term) -> np.ndarray:
    """4x4 superoperator of one wire-cut term: measure end, then prepare end."""
    meas_side, prep_side = term.sides
    u_meas = _side_unitary(meas_side.gates)
    sign = -1.0 if meas_side.measure == MEAS_SIGNED else 1.0
    effect = u_meas.conj().T @ (_P0 + sign * _P1) @ u_meas
    u_prep = _side_unitary(prep_side.gates)
    prepared = u_prep @ _P0 @ u_prep.conj().T
    # rho -> tr(effect rho) * prepared
    return np.outer(prepared.reshape(-1), effect.T.reshape(-1))


def reconstruct_channel(spec: DecompositionSpec) -> np.ndarray:
    """Sum of coefficient-weighted term channels, as a superoperator matrix."""
    superop = _time_term_superop if spec.cut_kind == "time" else _space_term_superop
    return sum(term.coeff * superop(term) for term in spec.terms)


def target_channel(spec: DecompositionSpec) -> np.ndarray:
    """The channel the decomposition must reproduce."""
    if spec.cut_kind == "time":
        return np.eye(4, dtype=complex)
    return _conj_superop(GATES[spec.gate_kind].matrix(*spec.params))


def reconstruction_error(spec: DecompositionSpec) -> float:
    """Max-norm distance between the reconstructed and target channels."""
    return float(np.max(np.abs(reconstruct_channel(spec) - target_channel(spec))))
