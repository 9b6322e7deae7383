import json
import re

import numpy as np
import pytest

from cutplan.cutsim import (ExperimentConfig, cut_estimate, exact_moments,
                            expectation_value, pauli_z_observable,
                            plan_partitions, ring_circuit, ring_cuts,
                            variance_experiment)
from cutplan.qasm import QasmSyntaxError


def test_ring_partitions():
    circuit = ring_circuit(np.zeros((2, 8, 2)))
    obs = pauli_z_observable(range(8))
    plans3, r3 = plan_partitions(circuit, ring_cuts(3), obs)
    assert r3 == 3
    assert sorted(p.num_qubits for p in plans3.values()) == [2, 3, 3]
    assert all(len(p.attached_cuts) == 2 for p in plans3.values())
    plans4, r4 = plan_partitions(circuit, ring_cuts(4), obs)
    assert r4 == 4
    assert sorted(p.num_qubits for p in plans4.values()) == [2, 2, 2, 2]


def test_trivial_parameters_give_exact_value():
    circuit = ring_circuit(np.zeros((2, 8, 2)))
    obs = pauli_z_observable(range(8))
    run = cut_estimate(circuit, ring_cuts(3), obs, eps=0.1, seed=1)
    assert run.estimate == pytest.approx(1.0, abs=1e-9)


def test_full_scale_shot_totals():
    circuit = ring_circuit(np.full((2, 8, 2), 0.3))
    obs = pauli_z_observable(range(8))
    expected = {(3, 0.03): 1.2e6, (4, 0.03): 3.2e6, (3, 0.01): 1.1e7, (4, 0.01): 2.9e7}
    for (parts, eps), target in expected.items():
        run = cut_estimate(circuit, ring_cuts(parts), obs, eps, seed=0)
        assert run.shots_used == pytest.approx(target, rel=0.02)


def test_ci_scale_experiment_bound():
    summary = variance_experiment(ExperimentConfig(partitions=3, eps=0.2,
                                                   repetitions=20, seed=5))
    assert summary.std <= 0.2
    assert len(summary.errors) == 20
    se = np.array(summary.errors).std(ddof=1) / np.sqrt(20)
    assert abs(summary.mean_error) <= 4 * se


def test_experiment_deterministic():
    config = ExperimentConfig(partitions=3, eps=0.25, repetitions=5, seed=7)
    a = variance_experiment(config)
    b = variance_experiment(config)
    assert a.errors == b.errors
    assert a.to_json_dict() == b.to_json_dict()


def test_every_repetition_tracks_its_own_exact_value():
    config = ExperimentConfig(partitions=4, eps=0.3, repetitions=4, seed=2)
    summary = variance_experiment(config)
    obs = pauli_z_observable(range(8))
    exacts = []
    for rep in range(4):
        rng = np.random.default_rng([2, rep])
        params = rng.uniform(0.0, 2.0 * np.pi, size=(2, 8, 2))
        exacts.append(expectation_value(ring_circuit(params), obs))
    assert len({round(e, 12) for e in exacts}) == 4  # genuinely different circuits
    assert all(abs(e) <= 5 * 0.3 for e in summary.errors)


def test_summary_reports_the_largest_exact_std():
    config = ExperimentConfig(partitions=4, eps=0.3, repetitions=3, seed=2)
    summary = variance_experiment(config)
    obs = pauli_z_observable(range(8))
    stds = []
    for rep in range(3):
        params = np.random.default_rng([2, rep]).uniform(0.0, 2.0 * np.pi, size=(2, 8, 2))
        stds.append(np.sqrt(exact_moments(ring_circuit(params), ring_cuts(4), obs, 0.3).variance))
    assert summary.exact_std == max(stds) > 0.0
    payload = summary.to_json_dict()
    assert payload["exact_std_over_eps"] == max(stds) / 0.3
    assert payload["exact_within_bound"] is True


SUMMARY_KEYS = {"partitions", "eps", "repetitions", "n_total", "std", "mean_error",
                "within_bound", "errors", "exact_std_over_eps", "exact_within_bound"}


def test_summary_json_has_exactly_the_summary_keys():
    """The seed and the raw exact std stay out of the JSON; the exact std
    enters as a share of eps."""
    payload = variance_experiment(ExperimentConfig(eps=0.3, repetitions=2, seed=4)).to_json_dict()
    assert set(payload) == SUMMARY_KEYS


@pytest.mark.parametrize("config, error, message", [
    (ExperimentConfig(repetitions=2.5), TypeError, "repetitions must be an integer, got 2.5"),
    (ExperimentConfig(repetitions=True), TypeError, "repetitions must be an integer, got True"),
    (ExperimentConfig(repetitions=2, seed=1.0), TypeError, "seed must be an integer, got 1.0"),
    (ExperimentConfig(repetitions=2, seed=-1), ValueError, "seed must be >= 0, got -1"),
    (ExperimentConfig(partitions=3.0), TypeError, "partitions must be an integer, got 3.0"),
], ids=["repetitions=2.5", "repetitions=True", "seed=1.0", "seed=-1", "partitions=3.0"])
def test_variance_experiment_names_a_bad_argument(config, error, message):
    """numpy's messages (``expected non-negative integer``, ``'float' object
    cannot be interpreted as an integer``) named no argument."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        variance_experiment(config)


def test_numpy_typed_config_gives_the_plain_json():
    """numpy integers reached the summary unconverted, and a numpy eps made
    ``within_bound`` a numpy bool: ``json.dumps`` refused either."""
    plain = ExperimentConfig(partitions=3, eps=0.3, repetitions=2, seed=4)
    typed = ExperimentConfig(partitions=np.int64(3), eps=np.float64(0.3),
                             repetitions=np.int64(2), seed=np.int64(4))
    assert (json.dumps(variance_experiment(typed).to_json_dict())
            == json.dumps(variance_experiment(plain).to_json_dict()))


def test_ring_cuts_reject_a_float_partition_count():
    """3.0 gave the 3-partition cuts."""
    with pytest.raises(TypeError, match="^partitions must be an integer, got 3.0$"):
        ring_cuts(3.0)


@pytest.mark.parametrize("bad, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
@pytest.mark.parametrize("layer, qubit", [(0, 2), (1, 6)])
@pytest.mark.parametrize("axis, kind", [(0, "ry"), (1, "rz")])
def test_ring_circuit_rejects_a_non_finite_parameter(bad, text, layer, qubit, axis, kind):
    """A NaN or an infinity raises the error of the gate's own check, for the
    first non-finite rotation in gate order: the NaN on the last gate, an rz
    of the second layer, comes later."""
    params = np.full((2, 8, 2), 0.3)
    params[1, 7, 1] = np.nan
    params[layer, qubit, axis] = bad
    with pytest.raises(QasmSyntaxError,
                       match=f"^gate '{kind}' parameter {text} is not a finite number$"):
        ring_circuit(params)


def test_ring_circuit_builds_no_gate_objects():
    """The circuit keeps its columns; the ``GateApp`` tuple waits for a reader."""
    circuit = ring_circuit(np.full((2, 8, 2), 0.3))
    assert "gates" not in vars(circuit)
    assert [g.kind for g in circuit.gates] == circuit.kind


def test_ring_presets_reject_bad_input():
    with pytest.raises(ValueError, match=r"^params must have shape \(2, 8, 2\)$"):
        ring_circuit(np.zeros((2, 8, 3)))
    with pytest.raises(ValueError, match="^only 3- and 4-partition presets exist$"):
        ring_cuts(5)
