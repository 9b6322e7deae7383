"""Monte-Carlo cutting simulator: exact statevector oracle, quasiprobability
decompositions, the shot-budgeted estimator and the variance experiment."""

from .decomp import (DecompositionSpec, Term, TermSide, gate_cut_decomposition,
                     reconstruct_channel, reconstruction_error, target_channel,
                     wire_cut_decomposition)
from .estimator import (EstimatorRun, ExactMoments, GateCut,
                        IncompatibleObservableError, NotDisconnectedError,
                        ShotAllocation, WireCut, allocate_shots, combine_means,
                        cut_estimate, cut_specs, exact_moments,
                        plan_partitions, variant_distribution)
from .experiment import (ExperimentConfig, ExperimentSummary, ring_circuit,
                         ring_cuts, variance_experiment)
from .observable import (ObsFactor, ProductObservable, expectation_value,
                         pauli_z_observable, value_table)
from .statevector import (MAX_QUBITS, TooManyQubitsError, basis_bits,
                          gate_matrix, simulate_statevector, zero_state)

__all__ = [
    "DecompositionSpec", "Term", "TermSide", "gate_cut_decomposition",
    "reconstruct_channel", "reconstruction_error", "target_channel",
    "wire_cut_decomposition",
    "EstimatorRun", "ExactMoments", "GateCut", "IncompatibleObservableError",
    "NotDisconnectedError", "ShotAllocation", "WireCut", "allocate_shots",
    "combine_means", "cut_estimate", "cut_specs", "exact_moments",
    "plan_partitions", "variant_distribution",
    "ExperimentConfig", "ExperimentSummary", "ring_circuit", "ring_cuts",
    "variance_experiment",
    "ObsFactor", "ProductObservable", "expectation_value",
    "pauli_z_observable", "value_table",
    "MAX_QUBITS", "TooManyQubitsError", "basis_bits",
    "gate_matrix", "simulate_statevector", "zero_state",
]
