"""The one table of gate kinds, ``GATES``: per kind its operand count, its
parameter count, its unitary and, for a kind a space cut decomposes, its cut
row. This module imports nothing from the package."""

from __future__ import annotations

import cmath
import math
from functools import partial
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np


class Gate(NamedTuple):
    """A row of ``GATES``. ``matrix(*params)`` is the unitary, first operand
    most significant; a fixed gate's is one shared read-only array. ``cut``
    is None or ``(theta, sides)``: the gate as a ZZ-rotation core exp(-i
    theta/2 Z⊗Z), theta None for the gate's own parameter, and per operand
    side the (before, after) 1-qubit gates around it as (kind, params) pairs
    (Mitarai & Fujii, New J. Phys. 2021)."""

    arity: int
    n_params: int
    matrix: Callable[..., np.ndarray]
    cut: tuple | None = None


def _fixed(matrix: np.ndarray) -> Callable[..., np.ndarray]:
    """The matrix function of a gate whose unitary is ``matrix`` whatever its parameters."""
    matrix.flags.writeable = False  # every call hands out this one array
    return lambda *params: matrix


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -cmath.exp(1j * lam) * s],
                     [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]])


_rx = partial(_u3, phi=-math.pi / 2, lam=math.pi / 2)
_ry = partial(_u3, phi=0.0, lam=0.0)


def _rz(theta: float) -> np.ndarray:
    return np.array([[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]])


def _phase(lam: float) -> np.ndarray:
    return np.array([[1.0, 0], [0, cmath.exp(1j * lam)]])


def _rzz(theta: float) -> np.ndarray:
    a, b = cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)
    return np.diag([a, b, b, a])


def _pauli_rotation(corner: complex) -> Callable[[float], np.ndarray]:
    """rXX (``corner`` -1j) or rYY (1j): cos(theta/2)·I - i·sin(theta/2)·P⊗P."""
    def matrix(theta: float) -> np.ndarray:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        m = np.eye(4, dtype=complex) * c
        m[1, 2] = m[2, 1] = -1j * s
        m[0, 3] = m[3, 0] = corner * s
        return m
    return matrix


def _controlled(target: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """The controlled gate of ``target``: |0><0| ⊗ I + |1><1| ⊗ target."""
    def matrix(*params: float) -> np.ndarray:
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = target(*params)
        return out
    return matrix


_I = _fixed(np.eye(2, dtype=complex))
_X = _fixed(np.array([[0, 1], [1, 0]], dtype=complex))
_Y = _fixed(np.array([[0, -1j], [1j, 0]], dtype=complex))
_Z = _fixed(np.array([[1, 0], [0, -1]], dtype=complex))
_H = _fixed(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_RZ_SIDE, _H_SIDE = ("rz", (math.pi / 2,)), ("h", ())  # gates of the cut rows' sides

GATES: MappingProxyType[str, Gate] = MappingProxyType({
    "id": Gate(1, 0, _I), "x": Gate(1, 0, _X), "y": Gate(1, 0, _Y), "z": Gate(1, 0, _Z),
    "h": Gate(1, 0, _H), "s": Gate(1, 0, _fixed(np.diag([1, 1j]).astype(complex))),
    "sdg": Gate(1, 0, _fixed(np.diag([1, -1j]).astype(complex))),
    "t": Gate(1, 0, _fixed(np.diag([1, cmath.exp(1j * math.pi / 4)]))),
    "tdg": Gate(1, 0, _fixed(np.diag([1, cmath.exp(-1j * math.pi / 4)]))),
    "sx": Gate(1, 0, _fixed(np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2)),
    "sxdg": Gate(1, 0, _fixed(np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2)),
    "rx": Gate(1, 1, _rx), "ry": Gate(1, 1, _ry), "rz": Gate(1, 1, _rz), "p": Gate(1, 1, _phase),
    "u0": Gate(1, 1, _I),  # an idle period: the identity, whatever its length
    "u1": Gate(1, 1, _phase), "u2": Gate(1, 2, partial(_u3, math.pi / 2)),
    "u3": Gate(1, 3, _u3), "u": Gate(1, 3, _u3),
    "cx": Gate(2, 0, _fixed(_controlled(_X)()),
               (-math.pi / 2, (((), (_RZ_SIDE,)), ((_H_SIDE,), (_RZ_SIDE, _H_SIDE))))),
    "cy": Gate(2, 0, _fixed(_controlled(_Y)())),
    "cz": Gate(2, 0, _fixed(_controlled(_Z)()),
               (-math.pi / 2, (((), (_RZ_SIDE,)), ((), (_RZ_SIDE,))))),
    "ch": Gate(2, 0, _fixed(_controlled(_H)())), "swap": Gate(2, 0, _fixed(_SWAP)),
    "crx": Gate(2, 1, _controlled(_rx)), "cry": Gate(2, 1, _controlled(_ry)),
    "crz": Gate(2, 1, _controlled(_rz)), "cp": Gate(2, 1, _controlled(_phase)),
    "cu1": Gate(2, 1, _controlled(_phase)), "rzz": Gate(2, 1, _rzz, (None, (((), ()), ((), ())))),
    "rxx": Gate(2, 1, _pauli_rotation(-1j)), "ryy": Gate(2, 1, _pauli_rotation(1j)),
})

#: the kinds that do nothing, which the parser drops
IDLE = frozenset({"id", "u0"})
