import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import variant_distribution_oracle
from cutplan.cutsim import (GateCut, IncompatibleObservableError,
                            NotDisconnectedError, TooManyQubitsError, WireCut,
                            allocate_shots, combine_means, cut_estimate, cut_specs,
                            exact_moments, expectation_value, pauli_z_observable,
                            plan_partitions, ring_circuit,
                            ring_cuts, value_table, variant_distribution,
                            wire_cut_decomposition)
from cutplan.clustering import run_pipeline
from cutplan.cutsim import estimator
from cutplan.cutsim.observable import ObsFactor, ProductObservable
from cutplan.fixtures import ising_chain
from cutplan.graph import CutKind, build_cut_graph
from cutplan.overhead import build_report
from cutplan.qasm import CircuitIR, GateApp, parse_qasm


def bell():
    return CircuitIR(2, (GateApp("h", (0,)), GateApp("cx", (0, 1))), "bell")


def chain_with_rotations():
    return CircuitIR(3, (GateApp("rx", (0,), (0.7,)), GateApp("ry", (1,), (0.4,)),
                         GateApp("cx", (0, 1)), GateApp("cx", (1, 2))), "chain")


def mixed_circuit():
    return CircuitIR(4, (GateApp("rx", (0,), (0.9,)), GateApp("cx", (0, 1)),
                         GateApp("ry", (2,), (1.2,)), GateApp("cx", (1, 2)),
                         GateApp("cz", (2, 3)), GateApp("rx", (3,), (0.3,))),
                     "mixed")


def random_ring(seed):
    return ring_circuit(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (2, 8, 2)))


def graded_observable(width):
    """A product observable that is no Pauli product: each qubit's factor
    is one of three tables, so a partition's values include 0, fractions
    and products of them."""
    tables = [(1.0, -0.5), (0.0, 1.0), (-0.25, 0.75)]
    return ProductObservable(tuple(ObsFactor((q,), tables[q % 3]) for q in range(width)))


def test_bell_gate_cut_close_to_exact():
    obs = pauli_z_observable(range(2))
    run = cut_estimate(bell(), [GateCut(1)], obs, eps=0.05, seed=42)
    assert run.r == 2
    assert abs(run.estimate - 1.0) <= 5 * 0.05


def test_not_disconnected():
    # cutting nothing, or a cut that the remaining gates bridge
    obs = pauli_z_observable(range(3))
    circuit = CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2)),
                            GateApp("cx", (0, 1))))
    with pytest.raises(NotDisconnectedError, match="1 component"):
        plan_partitions(circuit, [], obs)
    with pytest.raises(NotDisconnectedError, match="1 component"):
        plan_partitions(circuit, [GateCut(0)], obs)  # the second cx(0,1) bridges
    # two components, yet the second cx(0,1) still bridges the cut
    idle = CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (0, 1)), GateApp("h", (2,))))
    with pytest.raises(NotDisconnectedError, match="cut 0 .* joins segments"):
        plan_partitions(idle, [GateCut(0)], obs)


def test_cut_validation():
    obs = pauli_z_observable(range(2))
    with pytest.raises(ValueError):
        plan_partitions(bell(), [GateCut(0)], obs)  # h is not a 2-qubit gate
    with pytest.raises(ValueError):
        plan_partitions(bell(), [WireCut(1, 0)], obs)  # gate 0 not on wire 1
    with pytest.raises(ValueError):
        plan_partitions(bell(), [GateCut(1), GateCut(1)], obs)
    with pytest.raises(ValueError, match="^gate index 2 out of range$"):
        plan_partitions(bell(), [GateCut(2)], obs)
    with pytest.raises(ValueError, match="^gate index -1 out of range$"):
        plan_partitions(bell(), [WireCut(0, -1)], obs)
    with pytest.raises(TypeError, match="^unknown cut placement 1$"):
        plan_partitions(bell(), [1], obs)


@pytest.mark.parametrize("cut", [GateCut(1.0), GateCut(True), GateCut(np.float64(1.0)),
                                 GateCut(np.True_), WireCut(1.0, 0), WireCut(True, 0),
                                 WireCut(0, 1.0), WireCut(0, np.True_)], ids=repr)
def test_cut_indices_must_be_integers(cut):
    """A float or a bool is no gate or wire index, even where it equals one."""
    field, value = next((k, v) for k, v in vars(cut).items() if type(v) is not int)
    with pytest.raises(TypeError, match=f"^{field} of cut {re.escape(repr(cut))} must be "
                                        f"an integer, got {re.escape(repr(value))}$"):
        plan_partitions(bell(), [cut], pauli_z_observable(range(2)))


@pytest.mark.parametrize("cut, plain", [(GateCut(np.int64(1)), GateCut(1)),
                                        (WireCut(np.int32(1), np.int64(1)), WireCut(1, 1))],
                         ids=["gate", "wire"])
def test_numpy_integer_cut_indices_are_valid(cut, plain):
    obs = pauli_z_observable(range(2))
    assert (repr(cut_estimate(bell(), [cut], obs, eps=0.1, seed=3))
            == repr(cut_estimate(bell(), [plain], obs, eps=0.1, seed=3)))


def test_combine_means_rejects_more_cuts_than_letters():
    specs = [wire_cut_decomposition()] * 53
    with pytest.raises(ValueError, match="^too many cuts to contract$"):
        combine_means({}, specs, {})


def test_incompatible_observable():
    parity = ProductObservable((ObsFactor((0, 1), (1.0, -1.0, -1.0, 1.0)),))
    with pytest.raises(IncompatibleObservableError):
        plan_partitions(bell(), [GateCut(1)], parity)


@pytest.mark.parametrize("qubit", [7, -1])
def test_observable_qubit_outside_the_circuit(qubit):
    """The exact value and the cut estimate both reject the qubit by name."""
    obs = pauli_z_observable([qubit])
    message = f"qubit {qubit} is outside the 4-qubit circuit"
    with pytest.raises(ValueError, match=message):
        expectation_value(mixed_circuit(), obs)
    with pytest.raises(ValueError, match=message):
        cut_estimate(mixed_circuit(), [GateCut(3)], obs, eps=0.5, seed=0)


def test_partition_plan_shapes():
    obs = pauli_z_observable(range(3))
    plans, r = plan_partitions(chain_with_rotations(), [WireCut(1, 2)], obs)
    assert r == 2
    assert sorted(p.num_qubits for p in plans.values()) == [2, 2]
    for plan in plans.values():
        assert plan.attached_cuts == [0]


def test_partition_factors_move_to_local_qubits_unchecked(monkeypatch):
    """Each factor goes to its partition's local qubits with its table,
    without checking the table a second time."""
    obs = pauli_z_observable(range(8))
    checked = []
    monkeypatch.setattr(ObsFactor, "__post_init__", checked.append)
    plans, _ = plan_partitions(random_ring(1), ring_cuts(3), obs)
    monkeypatch.undo()
    assert checked == []
    for plan in plans.values():
        assert sorted(q for factor in plan.factors for q in factor.qubits) == \
            list(range(plan.num_qubits))
        assert plan.factors == [ObsFactor(f.qubits, (1.0, -1.0)) for f in plan.factors]


def test_allocation_conservation():
    circuit = chain_with_rotations()
    obs = pauli_z_observable(range(3))
    plans, r = plan_partitions(circuit, [WireCut(1, 2)], obs)
    specs = cut_specs(circuit, [WireCut(1, 2)])
    alloc = allocate_shots(plans, specs, r, eps=0.13)
    for c, plan in plans.items():
        counts = alloc.variants[c]
        assert sum(counts.values()) == alloc.n_c[c]
        assert all(n >= 1 for n in counts.values())  # all 8 terms carry weight
        assert alloc.n_c[c] >= math.ceil(r * 16.0 * 1.0 / 0.13 ** 2)
    assert alloc.n_total == sum(alloc.n_c.values())


def test_allocation_gives_every_weighted_variant_a_shot():
    """rzz(0.01) at eps 5: the c² term would take all 6 shots, so the other
    five terms each get one from it."""
    circuit = CircuitIR(2, (GateApp("rzz", (0, 1), (0.01,)),))
    cuts = [GateCut(0)]
    plans, r = plan_partitions(circuit, cuts, pauli_z_observable(range(2)))
    alloc = allocate_shots(plans, cut_specs(circuit, cuts), r, eps=5.0)
    for c in plans:
        counts = alloc.variants[c]
        assert len(counts) == 6 and min(counts.values()) >= 1
        assert sum(counts.values()) == alloc.n_c[c]


def test_allocations_are_fresh_dicts():
    """Two calls give equal but distinct dicts, partitions that split their
    budget alike get distinct dicts, and changing one allocation leaves the
    next call's alone."""
    circuit, cuts = random_ring(0), ring_cuts(3)
    plans, r = plan_partitions(circuit, cuts, pauli_z_observable(range(8)))
    specs = cut_specs(circuit, cuts)
    first, second = (allocate_shots(plans, specs, r, eps=0.03) for _ in range(2))
    assert first == second
    assert first.n_c is not second.n_c
    assert all(first.variants[c] is not second.variants[c] for c in plans)
    assert first.variants[0] == first.variants[1] and first.variants[0] is not first.variants[1]
    first.n_c[0] += 1
    first.variants[0][0, 0] += 1
    assert second == allocate_shots(plans, specs, r, eps=0.03) != first


@pytest.mark.parametrize("circuit, cuts, width, eps", [
    (random_ring(1), ring_cuts(3), 8, 0.03),
    (random_ring(2), ring_cuts(4), 8, 0.03),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], 4, 0.05),
], ids=["ring3", "ring4", "mixed"])
def test_estimate_same_with_cold_and_warm_memos(circuit, cuts, width, eps):
    """An estimate is the same whether its term sides' cached unitaries
    start empty or were filled by the same call."""
    obs = pauli_z_observable(range(width))
    sides = {side for spec in cut_specs(circuit, cuts) for term in spec.terms
             for side in term.sides}
    for side in sides:
        vars(side).pop("unitaries", None)
    cold = cut_estimate(circuit, cuts, obs, eps=eps, seed=7)
    assert all("unitaries" in vars(side) for side in sides)
    warm = cut_estimate(circuit, cuts, obs, eps=eps, seed=7)
    assert warm == cold and repr(warm) == repr(cold)


def test_shared_value_table_is_exact_for_signed_zeros():
    """``ObsFactor`` equality takes -0.0 for 0.0, so two partitions whose
    factors differ only in signed zeros share one value table, the first
    partition's; the estimate must not tell."""
    circuit = CircuitIR(4, (GateApp("h", (0,)), GateApp("cx", (0, 1)), GateApp("h", (2,)),
                            GateApp("cx", (2, 3)), GateApp("cx", (1, 2))))

    def obs(first, second):
        return ProductObservable((ObsFactor((0,), (first, first)),
                                  ObsFactor((2,), (second, second))))

    plans, _, _, _, values = estimator._compile(circuit, [GateCut(4)], obs(-0.0, 0.0), 0.1)
    assert [plan.num_qubits for plan in plans.values()] == [2, 2]
    assert values[0] is values[1] and all(np.signbit(values[1]))
    plus = repr(cut_estimate(circuit, [GateCut(4)], obs(0.0, 0.0), eps=0.1, seed=3))
    for first, second in ((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
        assert repr(cut_estimate(circuit, [GateCut(4)], obs(first, second),
                                 eps=0.1, seed=3)) == plus


def test_cut_free_partition():
    """Qubit 3 is touched by no cut: its partition enters the contraction as
    a scalar."""
    circuit = parse_qasm("qreg q[4]; h q[0]; rx(0.4) q[3]; cx q[0],q[1]; ry(0.3) q[1];"
                         "cx q[1],q[2];")
    obs = pauli_z_observable(range(4))
    run = cut_estimate(circuit, [GateCut(4)], obs, eps=0.05, seed=0)
    assert run.r == 3
    assert any(list(means) == [()] for means in run.variant_means.values())
    assert abs(run.estimate - expectation_value(circuit, obs)) <= 4 * 0.05


def test_allocation_proportional_to_coefficients():
    circuit = chain_with_rotations()
    cuts = [GateCut(2)]
    obs = pauli_z_observable(range(3))
    plans, r = plan_partitions(circuit, cuts, obs)
    specs = cut_specs(circuit, cuts)
    alloc = allocate_shots(plans, specs, r, eps=0.05)
    for c, plan in plans.items():
        n_c = alloc.n_c[c]
        for variant, n in alloc.variants[c].items():
            weight = abs(specs[0].terms[variant[0]].coeff) / specs[0].kappa
            assert n == pytest.approx(n_c * weight, abs=1.0)


def test_wire_cut_unbiased():
    circuit = chain_with_rotations()
    obs = pauli_z_observable(range(3))
    exact = expectation_value(circuit, obs)
    runs = np.array([cut_estimate(circuit, [WireCut(1, 2)], obs, eps=0.2, seed=s).estimate
                     for s in range(200)])
    se = runs.std(ddof=1) / math.sqrt(len(runs))
    assert abs(runs.mean() - exact) <= 4 * se
    assert runs.std(ddof=1) <= 0.2


def test_mixed_cut_kinds_unbiased():
    circuit = mixed_circuit()
    obs = pauli_z_observable(range(4))
    exact = expectation_value(circuit, obs)
    assert abs(exact) > 0.05  # a nontrivial target
    runs = np.array([cut_estimate(circuit, [WireCut(1, 3), GateCut(4)], obs,
                                  eps=0.2, seed=s).estimate for s in range(200)])
    se = runs.std(ddof=1) / math.sqrt(len(runs))
    assert abs(runs.mean() - exact) <= 4 * se
    assert runs.std(ddof=1) <= 0.2


def test_estimate_deterministic_in_seed():
    obs = pauli_z_observable(range(2))
    a = cut_estimate(bell(), [GateCut(1)], obs, eps=0.1, seed=3)
    b = cut_estimate(bell(), [GateCut(1)], obs, eps=0.1, seed=3)
    assert a.estimate == b.estimate
    assert a.variant_means == b.variant_means


def test_estimate_pinned_at_a_seed_wider_than_32_bits():
    """A seed of two 32-bit words keeps the estimate it has with one
    generator per partition, ``default_rng([seed, c])``."""
    run = cut_estimate(bell(), [GateCut(1)], pauli_z_observable(range(2)), eps=0.1,
                       seed=2 ** 40 + 3)
    assert run.estimate == 1.0023555555555557


def _walk_leaves(plan, specs, values):
    """``(variants, probs, vals)`` per leaf of the estimator's walk: the
    leaf's variants and the probabilities and signed values of its rows,
    flat, branch by branch."""
    for batch, signs, bounds, variants in estimator._walk(plan, specs):
        probs = (np.abs(batch) ** 2).reshape(-1)
        vals = (signs[:, None] * values).reshape(-1)
        for leaf, a, b in zip(variants, bounds, bounds[1:]):
            rows = slice(a * values.size, b * values.size)
            yield list(leaf), probs[rows], vals[rows]


def _signed_distribution(probs, vals, values):
    """The sorted distinct values of ``values`` and ``-values``, and the
    distribution over them of a variant whose arrays are ``probs`` and
    ``vals``: each value's probability mass, normalised."""
    signed = sorted({*values.tolist(), *(-values).tolist()})
    mass = [float(probs[vals == s].sum()) for s in signed]
    return signed, [m / sum(mass) for m in mass]


def _variant_means_oracle(circuit, cuts, obs, eps, seed, allocation=None):
    """Every variant's sample mean, drawn from its partition's
    ``default_rng([seed, c])`` one scalar binomial at a time: for each
    signed value k in turn, and for each variant with shots in allocation
    order, the shots left that land on k, with the probability of k given k
    or a later value. The last value takes the shots still left."""
    plans, r = plan_partitions(circuit, cuts, obs)
    specs = cut_specs(circuit, cuts)
    allocation = allocation or allocate_shots(plans, specs, r, eps)
    means = {}
    for c, plan in sorted(plans.items()):
        shots = allocation.variants[c]
        means[c] = dict.fromkeys(sorted(shots), 0.0)
        values = value_table(plan.factors, plan.num_qubits)
        drawn_order = [variant for variant, n in shots.items() if n]
        dists = {variant: _signed_distribution(*variant_distribution_oracle(
            plan, specs, dict(zip(plan.attached_cuts, variant)), values), values)
            for variant in drawn_order}
        signed = dists[drawn_order[0]][0]
        left, total = dict(shots), dict.fromkeys(drawn_order, 0.0)
        rng = np.random.default_rng([seed, c])
        for k in range(len(signed) - 1):
            for variant in drawn_order:
                dist = dists[variant][1]
                rest = sum(reversed(dist[k:]))
                p = min(dist[k] / rest, 1.0) if rest > 0 else 0.0
                drawn = int(rng.binomial(left[variant], p))
                total[variant] += drawn * signed[k]
                left[variant] -= drawn
        for variant in drawn_order:
            means[c][variant] = (total[variant] + left[variant] * signed[-1]) / shots[variant]
    return means


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 40 + 3, 2 ** 64 + 5])
@pytest.mark.parametrize("circuit, cuts, width, eps", [
    (random_ring(1), ring_cuts(3), 8, 0.03),
    (random_ring(2), ring_cuts(4), 8, 0.03),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], 4, 0.05),
], ids=["ring3", "ring4", "mixed"])
def test_variant_means_match_default_rng_oracle(circuit, cuts, width, eps, seed):
    obs = pauli_z_observable(range(width))
    run = cut_estimate(circuit, cuts, obs, eps=eps, seed=seed)
    assert run.variant_means == _variant_means_oracle(circuit, cuts, obs, eps, seed)


@pytest.mark.parametrize("seed", [0, 2 ** 64 + 5])
@pytest.mark.parametrize("circuit, cuts, width, eps", [
    (random_ring(1), ring_cuts(3), 8, 0.03),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], 4, 0.05),
], ids=["ring3", "mixed"])
def test_graded_variant_means_match_default_rng_oracle(circuit, cuts, width, eps, seed):
    """With more than two signed values per partition the means come from
    a chain of binomials, each signed value drawn for every variant before
    the next."""
    obs = graded_observable(width)
    run = cut_estimate(circuit, cuts, obs, eps=eps, seed=seed)
    assert run.variant_means == _variant_means_oracle(circuit, cuts, obs, eps, seed)


@pytest.mark.parametrize("seed", [0, 2 ** 64 + 5])
def test_variant_means_when_a_leafs_first_variant_is_unsampled(monkeypatch, seed):
    """The rzz(0.01) donor allocation gives every variant a shot; moving the
    shot of the first variant of a shared leaf to the next one leaves a leaf
    that is first reached by a variant without shots. It must still be
    normalised for the variants after it."""
    circuit = CircuitIR(2, (GateApp("ry", (0,), (0.3,)), GateApp("rzz", (0, 1), (0.01,)),
                            GateApp("rx", (1,), (0.3,))), "rzz")
    cuts, obs = [GateCut(1)], pauli_z_observable(range(2))
    moves = {0: ((2,), (3,)), 1: ((4,), (5,))}  # per partition, a leaf's first two variants
    plans, _ = plan_partitions(circuit, cuts, obs)
    specs = cut_specs(circuit, cuts)
    for c, (first, second) in moves.items():
        values = value_table(plans[c].factors, plans[c].num_qubits)
        assert [first, second] in [variants[:2] for variants, _, _ in
                                   _walk_leaves(plans[c], specs, values)]

    def allocate(*args):
        allocation = allocate_shots(*args)
        for c, (first, second) in moves.items():
            shots = allocation.variants[c]
            shots[first], shots[second] = 0, shots[first] + shots[second]
        return allocation

    monkeypatch.setattr(estimator, "allocate_shots", allocate)
    run = cut_estimate(circuit, cuts, obs, eps=5.0, seed=seed)
    assert [run.allocation.variants[c][first] for c, (first, _) in moves.items()] == [0, 0]
    assert run.variant_means == _variant_means_oracle(circuit, cuts, obs, 5.0, seed,
                                                      run.allocation)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        cut_estimate(bell(), [GateCut(1)], pauli_z_observable(range(2)), eps=0.1, seed=-1)
    # the seed is checked before the cuts are
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        cut_estimate(bell(), [], pauli_z_observable(range(2)), eps=0.1, seed=-1)


def test_bool_seed_rejected():
    """``True`` ran as seed 1; like a bool cut index, it is no integer."""
    with pytest.raises(TypeError, match="^seed must be an integer, got True$"):
        cut_estimate(bell(), [GateCut(1)], pauli_z_observable(range(2)), eps=0.1, seed=True)


@pytest.mark.parametrize("seed", [2.5, np.float64(1.0)], ids=repr)
def test_non_integer_seed_rejected(seed):
    """The message was int()'s, which names no argument."""
    with pytest.raises(TypeError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        cut_estimate(bell(), [GateCut(1)], pauli_z_observable(range(2)), eps=0.1, seed=seed)


def test_numpy_integer_seed_is_kept_as_an_int():
    obs = pauli_z_observable(range(2))
    run = cut_estimate(bell(), [GateCut(1)], obs, eps=0.1, seed=np.int64(3))
    assert type(run.seed) is int
    assert repr(run) == repr(cut_estimate(bell(), [GateCut(1)], obs, eps=0.1, seed=3))


def test_rzz_cut_matches_exact_distribution():
    """Diagonal circuit: every sampled distribution is deterministic, so the
    estimate must reproduce the exact value to float precision."""
    gates = [GateApp("rzz", (0, 1), (math.pi / 2,)), GateApp("rzz", (2, 3), (math.pi / 2,)),
             GateApp("rzz", (1, 2), (math.pi / 2,))]
    circuit = CircuitIR(4, tuple(gates))
    obs = pauli_z_observable(range(4))
    run = cut_estimate(circuit, [GateCut(2)], obs, eps=0.3, seed=0)
    assert run.estimate == pytest.approx(expectation_value(circuit, obs), abs=1e-9)


def test_shots_match_budget_formula():
    obs = pauli_z_observable(range(2))
    run = cut_estimate(bell(), [GateCut(1)], obs, eps=0.1, seed=0)
    # R=2, one attached gate cut per side: N_c = ceil(2 * 9 / eps^2)
    assert run.allocation.n_c == {0: 1800, 1: 1800}
    assert run.shots_used == 3600


def test_combination_matches_explicit_sum():
    """Tensor contraction of means == the explicit sum over all term choices."""
    from itertools import product

    circuit = mixed_circuit()
    cuts = [WireCut(1, 3), GateCut(4)]
    obs = pauli_z_observable(range(4))
    plans, r = plan_partitions(circuit, cuts, obs)
    specs = cut_specs(circuit, cuts)
    rng = np.random.default_rng(0)
    means = {}
    for c, plan in plans.items():
        means[c] = {}
        shapes = [range(len(specs[j].terms)) for j in plan.attached_cuts]
        for variant in product(*shapes):
            means[c][variant] = float(rng.uniform(-1, 1))

    got = combine_means(plans, specs, means)

    total = 0.0
    for choice in product(*[range(len(s.terms)) for s in specs]):
        coeff = 1.0
        for j, idx in enumerate(choice):
            coeff *= specs[j].terms[idx].coeff
        for c, plan in plans.items():
            coeff *= means[c][tuple(choice[j] for j in plan.attached_cuts)]
        total += coeff
    assert got == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("circuit, cuts, width", [
    (random_ring(1), ring_cuts(3), 8),
    (random_ring(2), ring_cuts(4), 8),
    # cut sites out of cut-index order: variants are keyed by attached cut
    (random_ring(3), ring_cuts(3)[::-1], 8),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], 4),
    (chain_with_rotations(), [GateCut(2)], 3),
], ids=["ring3", "ring4", "ring3-reversed", "mixed", "cx"])
def test_partition_variants_match_oracle(circuit, cuts, width):
    """Every variant of every leaf of the walk, and the one-variant walk,
    against the one-variant-at-a-time oracle: same branch count, same
    numbers per basis state."""
    obs = pauli_z_observable(range(width))
    plans, _ = plan_partitions(circuit, cuts, obs)
    specs = cut_specs(circuit, cuts)
    for plan in plans.values():
        values = value_table(plan.factors, plan.num_qubits)
        seen = []
        for variants, probs, vals in _walk_leaves(plan, specs, values):
            for variant in variants:
                choice = dict(zip(plan.attached_cuts, variant))
                want_probs, want_vals = variant_distribution_oracle(plan, specs, choice, values)
                for got_probs, got_vals in ((probs, vals),
                                            variant_distribution(plan, specs, choice, values)):
                    assert got_probs.shape == want_probs.shape == got_vals.shape
                    assert np.max(np.abs(got_probs - want_probs)) <= 1e-12
                    assert np.max(np.abs(got_vals - want_vals)) <= 1e-12
            seen += variants
        terms = [range(len(specs[j].terms)) for j in plan.attached_cuts]
        assert sorted(seen) == list(itertools.product(*terms))


def test_runs_fuse_each_wires_one_qubit_gates():
    """A run's consecutive 1-qubit gates on one wire become one matrix; a
    2-qubit gate first flushes its wires. The fused run acts as the gates
    do one by one."""
    run = [(GateApp("rx", (0,), (0.3,)), (0,)), (GateApp("ry", (0,), (0.5,)), (0,)),
           (GateApp("h", (2,)), (2,)), (GateApp("cx", (0, 1)), (0, 1)),
           (GateApp("rz", (1,), (0.7,)), (1,)), (GateApp("rz", (0,), (0.2,)), (0,)),
           (GateApp("x", (1,)), (1,))]
    ops = estimator._fused(run)
    assert [qubits for qubits, _ in ops] == [(0,), (0, 1), (2,), (1,), (0,)]
    state = np.random.default_rng(0).normal(size=(2, 8)) * (1 + 1j)
    want = state
    for gate, qubits in run:
        want = estimator.apply_matrix(want, 3, qubits, estimator.gate_matrix(gate))
    for qubits, matrix in ops:
        state = estimator.apply_matrix(state, 3, qubits, matrix)
    assert np.max(np.abs(state - want)) <= 1e-12


# distinct term sides per cut site: a wire cut's 8 terms measure 4 ways and
# prepare 6 ways, a gate cut's 6 terms act 5 ways on either side (the two
# signed-Z-measurement terms agree there)
_DISTINCT_SIDES = {("time", 0): 4, ("time", 1): 6, ("space", 0): 5, ("space", 1): 5}


@pytest.mark.parametrize("circuit, cuts, width", [
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], 4),
    (random_ring(1), ring_cuts(3), 8),
], ids=["mixed", "ring3"])
def test_terms_with_equal_sides_share_one_branch(circuit, cuts, width):
    """A partition simulates each distinct choice of term sides once: the
    variants of one leaf have equal sides at every site, no two leaves do,
    and there are as many leaves as such choices."""
    plans, _ = plan_partitions(circuit, cuts, pauli_z_observable(range(width)))
    specs = cut_specs(circuit, cuts)
    for plan in plans.values():
        values = value_table(plan.factors, plan.num_qubits)
        side_of = {j: side for j, side, _ in plan.sites}
        leaves = [{tuple(specs[j].terms[t].sides[side_of[j]]
                         for j, t in zip(plan.attached_cuts, variant)) for variant in variants}
                  for variants, _, _ in _walk_leaves(plan, specs, values)]
        assert all(len(sides) == 1 for sides in leaves)
        assert len(set.union(*leaves)) == len(leaves) == math.prod(
            _DISTINCT_SIDES[specs[j].cut_kind, side] for j, side, _ in plan.sites)


def random_cut_circuit(seed):
    """3–5 qubits in two or three blocks, 12 random gates: rotations and
    ``cx``/``cz``/``rzz`` gates, of which every gate between two blocks is
    cut (at most three; at least one)."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(3, 6))
    block = rng.permutation([q % int(rng.integers(2, 4)) for q in range(width)])
    gates, cuts = [], []
    for _ in range(12):
        if rng.random() < 0.5:
            kind = str(rng.choice(["rx", "ry", "rz"]))
            gates.append(GateApp(kind, (int(rng.integers(width)),), (rng.uniform(-3, 3),)))
            continue
        a, b = (int(q) for q in rng.choice(width, 2, replace=False))
        if block[a] != block[b]:
            if len(cuts) == 3:
                continue
            cuts.append(GateCut(len(gates)))
        kind = str(rng.choice(["cx", "cz", "rzz"]))
        gates.append(GateApp(kind, (a, b), (rng.uniform(-3, 3),) if kind == "rzz" else ()))
    if not cuts:
        a, b = int(np.argmin(block)), int(np.argmax(block))
        cuts.append(GateCut(len(gates)))
        gates.append(GateApp("cz", (a, b)))
    return CircuitIR(width, tuple(gates), f"random{seed}"), cuts


@pytest.mark.parametrize("partitions, eps", [(3, 0.03), (4, 0.03), (3, 0.01), (4, 0.01)])
def test_exact_moments_of_the_ring_presets(partitions, eps):
    """The estimator's exact mean is the exact value and its exact variance
    is within eps^2, on the ``verify`` presets: the paper's bound, with no
    sampling noise. The allocation is the one ``cut_estimate`` samples."""
    cuts, obs = ring_cuts(partitions), pauli_z_observable(range(8))
    for seed in range(5):
        circuit = random_ring(seed)
        moments = exact_moments(circuit, cuts, obs, eps)
        assert moments.mean == pytest.approx(expectation_value(circuit, obs), abs=1e-9)
        assert 0.0 < moments.variance <= eps ** 2
    plans, r = plan_partitions(circuit, cuts, obs)
    assert moments.allocation == allocate_shots(plans, cut_specs(circuit, cuts), r, eps)


@pytest.mark.parametrize("seed", range(8))
def test_exact_moments_of_random_cut_circuits(seed):
    circuit, cuts = random_cut_circuit(seed)
    obs = pauli_z_observable(range(circuit.num_qubits))
    for eps in (0.05, 0.3):
        moments = exact_moments(circuit, cuts, obs, eps)
        assert moments.mean == pytest.approx(expectation_value(circuit, obs), abs=1e-9)
        assert moments.variance <= eps ** 2


def test_exact_moments_with_wire_cuts():
    circuit, cuts = mixed_circuit(), [WireCut(1, 3), GateCut(4)]
    obs = pauli_z_observable(range(4))
    moments = exact_moments(circuit, cuts, obs, 0.05)
    assert moments.mean == pytest.approx(expectation_value(circuit, obs), abs=1e-9)
    assert 0.0 < moments.variance <= 0.05 ** 2


@pytest.mark.parametrize("circuit, cuts", [
    (random_ring(0), ring_cuts(3)), (random_ring(1), ring_cuts(4)),
    *(random_cut_circuit(seed) for seed in range(4)),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)]),
], ids=["ring3", "ring4", *(f"random{seed}" for seed in range(4)), "mixed"])
def test_exact_moments_of_a_graded_observable(circuit, cuts):
    """Values other than +-1, 0 among them: the exact mean is still the
    exact value, and the variance within eps^2."""
    obs = graded_observable(circuit.num_qubits)
    for eps in (0.05, 0.3):
        moments = exact_moments(circuit, cuts, obs, eps)
        assert moments.mean == pytest.approx(expectation_value(circuit, obs), abs=1e-9)
        assert moments.variance <= eps ** 2


def test_exact_moments_name_their_cut_limit():
    """Doubled indices halve ``combine_means``' letter limit to 26 cuts;
    27 cuts raise before any variant is simulated."""
    circuit = CircuitIR(28, tuple(GateApp("cz", (q, q + 1)) for q in range(27)))
    cuts, obs = [GateCut(g) for g in range(27)], pauli_z_observable(range(28))
    with pytest.raises(ValueError, match="^too many cuts to contract: at most 26 when doubled$"):
        exact_moments(circuit, cuts, obs, 0.1)


# seeds per z-score check, and a bound that a standard normal z-score
# exceeds with probability 1e-3 / _Z_SEEDS (Chernoff: 2 exp(-b^2 / 2))
_Z_SEEDS = 100
_Z_BOUND = math.sqrt(2.0 * math.log(2.0 * _Z_SEEDS / 1e-3))


@pytest.mark.parametrize("circuit, cuts, obs, eps", [
    (random_ring(4), ring_cuts(3), pauli_z_observable(range(8)), 0.1),
    (random_ring(5), ring_cuts(4), pauli_z_observable(range(8)), 0.1),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], pauli_z_observable(range(4)), 0.2),
    (random_ring(6), ring_cuts(3), graded_observable(8), 0.1),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], graded_observable(4), 0.2),
], ids=["ring3", "ring4", "mixed", "ring3-graded", "mixed-graded"])
def test_estimate_z_scores_follow_the_exact_moments(circuit, cuts, obs, eps):
    """(estimate - mean) / sqrt(variance) over many seeds looks standard
    normal: every |z| is within the union bound for the seed count, and the
    mean and mean square of z are within four standard errors of 0 and 1.
    A graded observable has more than two signed values per partition, so
    its means come from a chain of binomials."""
    moments = exact_moments(circuit, cuts, obs, eps)
    z = np.array([cut_estimate(circuit, cuts, obs, eps, seed=seed).estimate - moments.mean
                  for seed in range(_Z_SEEDS)]) / math.sqrt(moments.variance)
    assert np.max(np.abs(z)) <= _Z_BOUND
    assert abs(z.mean()) <= 4.0 / math.sqrt(_Z_SEEDS)
    assert abs(np.mean(z ** 2) - 1.0) <= 4.0 * math.sqrt(2.0 / _Z_SEEDS)


def _walk_output(circuit, cuts, eps):
    """Every variant's leaf arrays' bytes, keyed by partition and variant,
    the exact moments and the repr of an estimate at a fixed seed."""
    obs = pauli_z_observable(range(circuit.num_qubits))
    plans, _ = plan_partitions(circuit, cuts, obs)
    specs = cut_specs(circuit, cuts)
    variants = {(c, variant): (probs.tobytes(), vals.tobytes())
                for c, plan in sorted(plans.items())
                for leaf, probs, vals in _walk_leaves(
                    plan, specs, value_table(plan.factors, plan.num_qubits))
                for variant in leaf}
    return (variants, exact_moments(circuit, cuts, obs, eps),
            repr(cut_estimate(circuit, cuts, obs, eps, seed=7)))


@pytest.mark.parametrize("circuit, cuts, eps", [
    *((random_ring(seed), ring_cuts(partitions), eps)
      for seed, (partitions, eps) in enumerate([(3, 0.03), (4, 0.03), (3, 0.01), (4, 0.01)])),
    *((*random_cut_circuit(seed), 0.05) for seed in range(8)),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], 0.05),
], ids=[*(f"ring{p}-{e}" for p, e in [(3, 0.03), (4, 0.03), (3, 0.01), (4, 0.01)]),
        *(f"random{seed}" for seed in range(8)), "mixed"])
def test_level_walk_matches_the_walk_one_parent_at_a_time(monkeypatch, circuit, cuts, eps):
    """Expanding each level in one pass, each parent apart (a level budget
    of 0 amplitudes), or the first levels in one pass and the deeper ones
    each parent apart (budgets in between), yields the same variants with
    byte-equal arrays, in whatever order, equal exact moments and the same
    estimate: no row's floats depend on the batch it is simulated in, and
    shots are drawn in allocation order. Past a first site with several
    groups, the level walk applies fewer matrices."""
    apply_matrix, calls = estimator.apply_matrix, []
    monkeypatch.setattr(estimator, "apply_matrix",
                        lambda *args: calls.append(args) or apply_matrix(*args))
    level, level_calls = _walk_output(circuit, cuts, eps), len(calls)
    for budget in (2 ** 9, 2 ** 8, 2 ** 7, 0):
        monkeypatch.setattr(estimator, "_LEVEL_AMPLITUDES", budget)
        calls.clear()
        assert _walk_output(circuit, cuts, eps) == level, budget
    plans, _ = plan_partitions(circuit, cuts, pauli_z_observable(range(circuit.num_qubits)))
    if any(len(plan.sites) > 1 for plan in plans.values()):
        assert level_calls < len(calls)


_COLLAPSE_CASES = [
    *((random_ring(seed), ring_cuts(partitions), pauli_z_observable(range(8)))
      for seed, partitions in enumerate([3, 4, 3, 4])),
    *((circuit, cuts, pauli_z_observable(range(circuit.num_qubits)))
      for circuit, cuts in map(random_cut_circuit, range(8))),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], pauli_z_observable(range(4))),
    (mixed_circuit(), [WireCut(1, 3), GateCut(4)], graded_observable(4)),
    (random_ring(4), ring_cuts(3), graded_observable(8)),
    *((circuit, cuts, graded_observable(circuit.num_qubits))
      for circuit, cuts in map(random_cut_circuit, [2, 5])),
]


@pytest.mark.parametrize("budget", [None, 0], ids=["level", "per-parent"])
@pytest.mark.parametrize("circuit, cuts, obs", _COLLAPSE_CASES, ids=[
    *(f"ring{p}-seed{seed}" for seed, p in enumerate([3, 4, 3, 4])),
    *(f"random{seed}" for seed in range(8)), "mixed", "mixed-graded", "ring3-graded",
    "random2-graded", "random5-graded"])
def test_collapse_onto_signed_values_is_exact(monkeypatch, circuit, cuts, obs, budget):
    """Every leaf's distribution over its partition's signed values, as
    the estimator collapses it for sampling, is its walked rows'
    probabilities summed per signed value, with every level
    expanded in one pass or each parent apart (a level budget of 0). Pauli
    Z products have two signed values, the graded observable more."""
    if budget is not None:
        monkeypatch.setattr(estimator, "_LEVEL_AMPLITUDES", budget)
    plans, _ = plan_partitions(circuit, cuts, obs)
    specs = cut_specs(circuit, cuts)
    values = {c: value_table(plan.factors, plan.num_qubits) for c, plan in plans.items()}
    # one shot for every variant, so that every leaf is collapsed
    every = estimator.ShotAllocation(n_c={}, variants={c: dict.fromkeys(itertools.product(
        *(range(len(specs[j].terms)) for j in plan.attached_cuts)), 1)
        for c, plan in plans.items()})
    for c, variants, shots, dists, signed in estimator._leaves(plans, specs, every, values):
        want = {variant: _signed_distribution(probs, vals, values[c])
                for leaf, probs, vals in _walk_leaves(plans[c], specs, values[c])
                for variant in leaf}
        assert variants == list(every.variants[c]) and shots == [1] * len(want)
        for variant, dist in zip(variants, dists):
            want_signed, want_dist = want[variant]
            assert signed.tolist() == want_signed
            assert np.max(np.abs(dist - want_dist)) <= 1e-12
        assert (signed.size == 2) == all(f.table == (1.0, -1.0) for f in plans[c].factors)


def test_a_partition_without_mass_beyond_one_value_has_finite_means():
    """Qubit 2 ends in |1> and no cut touches it; its factor (0, -1) makes
    -1 certain, so the signed values after it, 0 and 1, hold no mass. The
    binomial chain draws all shots at -1 and none after it, with no 0/0."""
    circuit = CircuitIR(3, (GateApp("h", (0,)), GateApp("cx", (0, 1)), GateApp("x", (2,))))
    obs = ProductObservable((ObsFactor((0,), (1.0, -1.0)), ObsFactor((1,), (1.0, -1.0)),
                             ObsFactor((2,), (0.0, -1.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = cut_estimate(circuit, [GateCut(1)], obs, eps=0.1, seed=0)
        moments = exact_moments(circuit, [GateCut(1)], obs, eps=0.1)
    assert run.variant_means[2] == {(): -1.0}
    assert all(math.isfinite(mean) for means in run.variant_means.values()
               for mean in means.values())
    assert math.isfinite(run.estimate)
    assert moments.mean == pytest.approx(expectation_value(circuit, obs), abs=1e-9) == -1.0


def _cut_block(width=13):
    """A ``width``-qubit block and a 2-qubit pair joined by three cut cx
    gates, with gates before, between and after the cut sites."""
    a, b = width, width + 1
    gates = [GateApp("cx", (a, b))]
    gates += [GateApp("ry", (q,), (0.1 * q + 0.3,)) for q in range(width)]
    gates += [GateApp("cx", (q, q + 1)) for q in range(width - 1)]
    cuts = [GateCut(len(gates))]
    gates += [GateApp("cx", (width - 1, a)), GateApp("rz", (0,), (0.4,))]
    cuts.append(GateCut(len(gates)))
    gates += [GateApp("cx", (b, width // 2)), GateApp("cx", (0, 1))]
    cuts.append(GateCut(len(gates)))
    gates += [GateApp("cx", (0, a)), GateApp("rx", (1,), (0.3,)), GateApp("rx", (a,), (0.3,))]
    return CircuitIR(width + 2, tuple(gates), "cut_block"), cuts


def test_streamed_walk_memory_stays_near_one_variant():
    """The walk keeps one batch per cut site, never all variants: its peak
    stays within 4x of simulating the same variants one at a time."""
    circuit, cuts = _cut_block()
    obs = pauli_z_observable(range(circuit.num_qubits))
    plans, _ = plan_partitions(circuit, cuts, obs)
    specs = cut_specs(circuit, cuts)
    block = max(plans.values(), key=lambda plan: plan.num_qubits)
    assert block.num_qubits == 13 and len(block.attached_cuts) == 3
    values = value_table(block.factors, block.num_qubits)
    variants = list(itertools.product(*(range(len(specs[j].terms))
                                        for j in block.attached_cuts)))
    assert len(variants) == 216

    tracemalloc.start()
    try:
        for variant in variants:
            variant_distribution_oracle(block, specs, dict(zip(block.attached_cuts, variant)),
                                        values)
        oracle_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cut_estimate(circuit, cuts, obs, eps=0.5, seed=0)
        walk_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk_peak <= 4 * oracle_peak, (walk_peak, oracle_peak)


@pytest.mark.parametrize("entry", [
    lambda *args: cut_estimate(*args, seed=0), exact_moments], ids=["estimate", "moments"])
def test_too_wide_partition_raises_before_any_table(entry):
    """A 22-qubit partition would need a 32 MiB value table; the width is
    rejected before any table or state is built."""
    circuit = CircuitIR(24, tuple(GateApp("cx", (q, q + 1)) for q in range(23)))
    obs = pauli_z_observable(range(24))
    tracemalloc.start()
    try:
        with pytest.raises(TooManyQubitsError,
                           match="^partition 0 has 22 qubits, over the dense-vector cap of 20$"):
            entry(circuit, [GateCut(21)], obs, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, peak


def test_shot_counts_beyond_64_bits(monkeypatch):
    """At eps 1e-9 every ring partition needs 3.645e20 shots, more than a
    64-bit count holds: ``cut_estimate`` names the first such partition and
    its count before any walk, while ``exact_moments`` draws no shot and
    returns."""
    circuit, cuts, obs = ring_circuit(np.zeros((2, 8, 2))), ring_cuts(3), pauli_z_observable(
        range(8))
    walk, walked = estimator._walk, []
    monkeypatch.setattr(estimator, "_walk", lambda *args: walked.append(args) or walk(*args))
    with pytest.raises(OverflowError, match=r"^partition 0 needs 364500000000000000000 shots, "
                       r"more than a 64-bit shot count holds \(9223372036854775807\)$"):
        cut_estimate(circuit, cuts, obs, 1e-9, seed=0)
    assert walked == []
    moments = exact_moments(circuit, cuts, obs, 1e-9)
    assert moments.allocation.n_c == dict.fromkeys(range(3), 364500000000000000000)
    assert moments.mean == pytest.approx(expectation_value(circuit, obs), abs=1e-9)
    assert 0.0 <= moments.variance <= 1e-18
    assert len(walked) == 3


@pytest.mark.parametrize("partitions, eps, n_c", [
    (3, 0.03, 405000), (4, 0.03, 810000), (3, 0.01, 3645000), (4, 0.01, 7290000)])
def test_ring_preset_allocations(partitions, eps, n_c):
    """The verify presets' budgets: every partition touches two rzz(pi/2)
    cuts whose six terms weigh alike, so its 36 variants split N_c evenly."""
    circuit = random_ring(0)
    cuts = ring_cuts(partitions)
    plans, r = plan_partitions(circuit, cuts, pauli_z_observable(range(8)))
    alloc = allocate_shots(plans, cut_specs(circuit, cuts), r, eps)
    assert alloc.n_c == {c: n_c for c in range(partitions)}
    for counts in alloc.variants.values():
        assert list(counts) == list(itertools.product(range(6), repeat=2))
        assert set(counts.values()) == {n_c // 36}


def _planned_cuts(graph, clustering):
    """The plan's cut edges as estimator cuts, in edge order: a space edge
    cuts its gate, a time edge its wire after the earlier node's gate."""
    label = clustering.assignment
    return [GateCut(graph.gate_id[u]) if kind is CutKind.SPACE
            else WireCut(graph.mask[u].bit_length() - 1, graph.gate_id[u])
            for u, v, kind in zip(graph.u, graph.v, graph.kind) if label[u] != label[v]]


def _random_planner_circuit(seed):
    """4–8 qubits, 6–15 gates: ``rx`` rotations and ``cx``/``cz``/
    ``rzz(pi/2)`` gates, which the planner and the estimator price alike."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(4, 9))
    gates = []
    for _ in range(int(rng.integers(6, 16))):
        if rng.random() < 0.3:
            gates.append(GateApp("rx", (int(rng.integers(width)),), (rng.uniform(0, 6),)))
            continue
        a, b = (int(q) for q in rng.choice(width, 2, replace=False))
        kind = str(rng.choice(["cx", "cz", "rzz"]))
        gates.append(GateApp(kind, (a, b), (math.pi / 2,) if kind == "rzz" else ()))
    return CircuitIR(width, tuple(gates), f"random{seed}")


def test_planned_cuts_get_the_reports_budgets():
    """On the planner's own cuts, ``allocate_shots`` gives the report's
    budgets. Plans whose partitions the estimator counts differently (idle
    wires) are skipped, as are plans of more than 6 cuts, since a partition's
    budget split enumerates up to 8^k variants."""
    cases = [(ising_chain(width, depth=depth, seed=width), cap)
             for width in range(6, 28) for depth in (1, 2) for cap in range(2, 7)]
    cases += [(_random_planner_circuit(seed), 2 + seed % 3) for seed in range(100)]
    checked = 0
    for circuit, cap in cases:
        graph = build_cut_graph(circuit)
        clustering = run_pipeline(graph, cap).clustering
        report = build_report(clustering, graph, eps=0.1)
        cuts = _planned_cuts(graph, clustering)
        if len(cuts) > 6:
            continue
        try:
            plans, r = plan_partitions(circuit, cuts, ProductObservable(()))
        except NotDisconnectedError:
            continue
        if r != report.r:
            continue
        allocation = allocate_shots(plans, cut_specs(circuit, cuts), r, 0.1)
        assert sorted(allocation.n_c.values()) == sorted(report.n_c.values()), circuit.name
        checked += 1
    assert checked >= 50
