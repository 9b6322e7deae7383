import math

import numpy as np
import pytest

from cutplan.cutsim import (cx_decomposition, cz_decomposition,
                            gate_cut_decomposition, reconstruct_channel,
                            reconstruction_error, rzz_decomposition,
                            target_channel, wire_cut_decomposition)
from cutplan.cutsim.decomp import Term, TermSide, DecompositionSpec, _g
from cutplan.graph import DEFAULT_WEIGHTS
from cutplan.qasm import GateApp


def test_wire_cut_reconstructs_identity():
    spec = wire_cut_decomposition()
    assert reconstruction_error(spec) <= 1e-10
    assert np.max(np.abs(target_channel(spec) - np.eye(4))) == 0
    assert spec.kappa == 4.0
    assert spec.tau == 2.0


@pytest.mark.parametrize("builder,gate_kind", [
    (cx_decomposition, "cx"),
    (cz_decomposition, "cz"),
    (lambda: rzz_decomposition(math.pi / 2), "rzz"),
])
def test_gate_cuts_reconstruct_target(builder, gate_kind):
    spec = builder()
    assert spec.gate_kind == gate_kind
    assert reconstruction_error(spec) <= 1e-10
    assert spec.kappa == 3.0
    assert spec.tau == 1.5


def test_factors_match_weight_table():
    """The planner's constant table holds the factors of the decompositions
    the estimator samples, and cannot be changed."""
    table = DEFAULT_WEIGHTS
    wire = wire_cut_decomposition()
    assert (table.time.kappa, table.time.tau) == (wire.kappa, wire.tau)
    assert sorted(table.space) == ["cx", "cz", "rzz"]
    for kind, entry in table.space.items():
        params = (math.pi / 2,) if kind == "rzz" else ()
        spec = gate_cut_decomposition(GateApp(kind, (0, 1), params))
        assert (entry.kappa, entry.tau) == (spec.kappa, spec.tau), kind
    with pytest.warns(UserWarning, match="'swap'"):
        assert table.space_entry("swap") == table.space["cx"]
    with pytest.raises(TypeError):
        table.space["iswap"] = table.space["cx"]


@pytest.mark.parametrize("theta", [0.0, 0.37, 1.2, math.pi / 2, 2.9, -1.7])
def test_rzz_general_angle(theta):
    spec = rzz_decomposition(theta)
    assert reconstruction_error(spec) <= 1e-10
    assert spec.kappa == pytest.approx(1 + 2 * abs(math.sin(theta)))
    assert spec.tau == pytest.approx(1 + math.sin(theta) ** 2 / 2)
    assert spec.tau <= spec.kappa ** 2 + 1e-12


def test_single_unitary_term_channel():
    # one term, coefficient 1, plain Z on both sides: the Z (x) Z channel
    term = Term(1.0, (TermSide(gates=(_g("z"),)), TermSide(gates=(_g("z"),))))
    spec = DecompositionSpec("space", "cz", (), (term,))
    got = reconstruct_channel(spec)
    z = np.diag([1.0, -1.0]).astype(complex)
    zz = np.kron(z, z)
    want = np.kron(zz, zz.conj())
    assert np.max(np.abs(got - want)) <= 1e-12


def test_registry_dispatch():
    spec = gate_cut_decomposition(GateApp("rzz", (0, 1), (0.8,)))
    assert spec.params == (0.8,)
    with pytest.raises(ValueError):
        gate_cut_decomposition(GateApp("swap", (0, 1)))


def test_term_coefficient_norms_consistent():
    for spec in (wire_cut_decomposition(), cx_decomposition(),
                 rzz_decomposition(1.1)):
        assert spec.kappa == pytest.approx(sum(abs(t.coeff) for t in spec.terms))
        assert spec.tau == pytest.approx(sum(t.coeff ** 2 for t in spec.terms))
