import math

import numpy as np
import pytest

from cutplan.cutsim import (gate_cut_decomposition, gate_matrix, reconstruct_channel,
                            reconstruction_error, target_channel,
                            wire_cut_decomposition)
from cutplan.cutsim.decomp import MEAS_SIGNED, Term, TermSide, DecompositionSpec, _g
from cutplan.gates import GATES
from cutplan.graph import DEFAULT_WEIGHTS
from cutplan.qasm import GateApp, QasmSyntaxError, UnsupportedGateError

# a row whose core angle is the gate's parameter is cut at each of these
PARAM_ANGLES = (0.0, 0.37, math.pi / 2, 2.9, -1.7)
# the angle the planner prices such a row at
PRICING_ANGLE = math.pi / 2

# the kinds of GATES with a cut row, and each one's (kind, params), at every
# angle for a parametrised row
CUT_KINDS = [kind for kind, row in GATES.items() if row.cut is not None]
GATE_CUT_CASES = []
for kind in CUT_KINDS:
    GATE_CUT_CASES += ([(kind, ())] if GATES[kind].cut[0] is not None
                       else [(kind, (a,)) for a in PARAM_ANGLES])


def _spec(kind, *params):
    return gate_cut_decomposition(GateApp(kind, (0, 1), params))


def test_wire_cut_reconstructs_identity():
    spec = wire_cut_decomposition()
    assert reconstruction_error(spec) <= 1e-10
    assert np.max(np.abs(target_channel(spec) - np.eye(4))) == 0
    assert spec.kappa == 4.0
    assert spec.tau == 2.0


@pytest.mark.parametrize("kind, params", GATE_CUT_CASES,
                         ids=[kind + "".join(f"-{p!r}" for p in params)
                              for kind, params in GATE_CUT_CASES])
def test_gate_cuts_reconstruct_target(kind, params):
    """Every row of the table reconstructs its gate with the ZZ core's
    factors at its angle, and at the angle the planner prices the row at,
    the planner's factors are the spec's."""
    spec = _spec(kind, *params)
    assert (spec.gate_kind, spec.params) == (kind, params)
    assert reconstruction_error(spec) <= 1e-10
    row_theta = GATES[kind].cut[0]
    theta = params[0] if row_theta is None else row_theta
    assert spec.kappa == pytest.approx(1 + 2 * abs(math.sin(theta)))
    assert spec.tau == pytest.approx(1 + math.sin(theta) ** 2 / 2)
    if theta == (PRICING_ANGLE if row_theta is None else row_theta):
        entry = DEFAULT_WEIGHTS.space[kind]
        assert (spec.kappa, spec.tau) == (entry.kappa, entry.tau)


def test_factors_match_weight_table():
    """The planner's constant table holds the factors of the decompositions
    the estimator samples, prices exactly the table's kinds, and cannot be
    changed."""
    table = DEFAULT_WEIGHTS
    wire = wire_cut_decomposition()
    assert (table.time.kappa, table.time.tau) == (wire.kappa, wire.tau)
    assert list(table.space) == CUT_KINDS == ["cx", "cz", "rzz"]
    for kind, entry in table.space.items():
        spec = _spec(kind) if GATES[kind].cut[0] is not None else _spec(kind, PRICING_ANGLE)
        assert (entry.kappa, entry.tau) == (spec.kappa, spec.tau), kind
    with pytest.warns(UserWarning, match="'swap'"):
        assert table.space_entry("swap") == table.space["cx"]
    with pytest.raises(TypeError):
        table.space["iswap"] = table.space["cx"]
    with pytest.raises(TypeError):
        GATES["iswap"] = GATES["cx"]


@pytest.mark.parametrize("theta", [0.0, 0.37, 1.2, math.pi / 2, 2.9, -1.7])
def test_rzz_general_angle(theta):
    spec = _spec("rzz", theta)
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
    spec = _spec("rzz", 0.8)
    assert spec.params == (0.8,)
    with pytest.raises(ValueError, match="no registered cut decomposition for gate 'swap'"):
        _spec("swap")


def test_term_side_matrices_are_built_once_per_side():
    """A side's two matrices are cached: the same arrays on every read and
    in every spec that shares the side, each read-only."""
    for spec, again in ((wire_cut_decomposition(), wire_cut_decomposition()),
                        (_spec("cx"), _spec("cx")), (_spec("rzz", 0.8), _spec("rzz", 0.3))):
        for term, term_again in zip(spec.terms, again.terms):
            for side, side_again in zip(term.sides, term_again.sides):
                assert side.unitaries is side.unitaries is side_again.unitaries
                assert not any(u is not None and u.flags.writeable for u in side.unitaries)


def test_term_coefficient_norms_consistent():
    for spec in (wire_cut_decomposition(), _spec("cx"), _spec("rzz", 1.1)):
        assert spec.kappa == pytest.approx(sum(abs(t.coeff) for t in spec.terms))
        assert spec.tau == pytest.approx(sum(t.coeff ** 2 for t in spec.terms))


def test_term_side_unitaries_and_spec_side_groups():
    """A side's ``unitaries`` are its gates and its post gates each
    multiplied into one 2x2 (None for none), exactly the product of their
    ``gate_matrix`` in order; a spec groups its terms by equal sides, per
    side, once."""
    for spec in (wire_cut_decomposition(), _spec("cx"), _spec("rzz", 0.8)):
        for term in spec.terms:
            for side in term.sides:
                for gates, unitary in zip((side.gates, side.post_gates), side.unitaries):
                    if not gates:
                        assert unitary is None
                        continue
                    matrices = [gate_matrix(GateApp(kind, (0,), params)) for kind, params in gates]
                    want = matrices[0]
                    for matrix in matrices[1:]:
                        want = matrix @ want
                    assert unitary.dtype == want.dtype and np.array_equal(unitary, want)
        assert spec.side_groups is spec.side_groups
        for side, groups in enumerate(spec.side_groups):
            assert sorted(t for ts, _ in groups for t in ts) == list(range(len(spec.terms)))
            for ts, term_side in groups:
                assert all(spec.terms[t].sides[side] == term_side for t in ts)
            assert len({term_side for _, term_side in groups}) == len(groups)


def test_side_groups_follow_each_specs_own_sides():
    """Specs built from one side table share the groups built with the table
    at import; a hand-built spec, even one naming a registered kind, groups
    its own sides, and no spec's ``repr`` shows the groups."""
    assert _spec("rzz", 0.8).side_groups is _spec("rzz", 0.3).side_groups
    assert wire_cut_decomposition().side_groups is wire_cut_decomposition().side_groups
    z = TermSide(gates=(_g("z"),))
    single = DecompositionSpec("space", "cz", (), (Term(1.0, (z, z)),))
    assert single.side_groups == ((((0,), z),), (((0,), z),))
    cz = _spec("cz")
    swapped = DecompositionSpec("space", "cz", (),
                                tuple(Term(t.coeff, t.sides[::-1]) for t in cz.terms))
    assert swapped.side_groups == cz.side_groups[::-1] != cz.side_groups
    assert "side_groups" not in repr(cz) and "side_groups" not in repr(single)


# a hand-built side checks its gates when it is made, with the parser's errors
def test_a_term_side_gate_given_a_parameter_it_takes_none_of_is_refused():
    with pytest.raises(QasmSyntaxError, match=r"gate 'h' expects 0 parameter\(s\), got 1"):
        TermSide(gates=(("h", (0.5,)),))


def test_a_term_side_gate_missing_its_parameter_is_refused():
    with pytest.raises(QasmSyntaxError, match=r"gate 'rx' expects 1 parameter\(s\), got 0"):
        TermSide(measure=MEAS_SIGNED, post_gates=(("rx", ()),))


def test_a_term_side_gate_of_an_unknown_kind_is_refused():
    with pytest.raises(UnsupportedGateError, match="unknown gate 'iswap'"):
        TermSide(gates=(("iswap", ()),))


def test_a_term_side_measurement_of_no_known_kind_is_refused():
    with pytest.raises(ValueError, match="measure is None, 'plain' or 'signed', not 'sgined'"):
        TermSide(measure="sgined")


def test_a_spec_refuses_a_coefficient_that_is_no_finite_real():
    """A ``nan`` coefficient made ``kappa`` nan, and ``allocate_shots`` then
    failed as if the shot budget overflowed a float."""
    side = TermSide()
    for coeff in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="a term coefficient must be finite"):
            DecompositionSpec("time", None, (), (Term(0.5, (side, side)), Term(coeff, (side, side))))
    for coeff in (1j, True):
        with pytest.raises(TypeError, match="a term coefficient must be a real number"):
            DecompositionSpec("time", None, (), (Term(coeff, (side, side)),))
