"""Variance-bound validation experiment.

The test family is an 8-qubit parametric circuit on a ring: a layer of
random ry/rz rotations on every qubit, one rzz(pi/2) entangler per adjacent
ring pair, and a second rotation layer. Cutting three of the entanglers
splits the ring into three blocks {0,1,2} | {3,4,5} | {6,7} with one cut
between each pair of blocks; cutting four splits it into {0,1} | {2,3} |
{4,5} | {6,7} arranged in a ring. Each repetition draws fresh rotation
angles, estimates <Z...Z> through the cutting estimator with the shot budget
for the requested eps, and records the error against the exact statevector
value. The claim under test: the standard deviation of those errors stays
below eps. Every repetition also takes the estimator's exact standard
deviation from ``exact_moments``, which checks the same claim per circuit
with no sampling noise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .._checks import _integer
from ..qasm import CircuitIR, GateApp
from .estimator import GateCut, cut_estimate, exact_moments
from .observable import expectation_value, pauli_z_observable

RING_QUBITS = 8
_RING_PAIRS = tuple((q, (q + 1) % RING_QUBITS) for q in range(RING_QUBITS))
# ring pairs whose entangler gets cut, per partition count
_CUT_PAIRS = {
    3: ((2, 3), (5, 6), (7, 0)),
    4: ((1, 2), (3, 4), (5, 6), (7, 0)),
}
# every ring circuit's kind and wire columns, in gate order: a rotation layer
# (ry then rz per qubit), the entanglers and a second rotation layer
_RING_KIND = ("ry", "rz") * RING_QUBITS + ("rzz",) * RING_QUBITS + ("ry", "rz") * RING_QUBITS
_LAYER_WIRES = tuple((q,) for q in range(RING_QUBITS) for _ in "yz")
_RING_WIRES = _LAYER_WIRES + _RING_PAIRS + _LAYER_WIRES
_ENTANGLER_PARAMS = ((np.pi / 2.0,),) * RING_QUBITS


def ring_circuit(params: np.ndarray, name: str = "ring8") -> CircuitIR:
    """The 8-qubit test circuit; ``params`` has shape (2, 8, 2), finite, in radians."""
    params = np.asarray(params, dtype=float)
    if params.shape != (2, RING_QUBITS, 2):
        raise ValueError(f"params must have shape (2, {RING_QUBITS}, 2)")
    if not np.isfinite(params).all():
        at = np.flatnonzero(~np.isfinite(params))[0]  # the flat order is the gate order
        # the first non-finite rotation, whose check raises the parser's error
        GateApp(_RING_KIND[at % 2], (at // 2 % RING_QUBITS,), (float(params.flat[at]),))
    first, second = params.reshape(2, -1).tolist()
    return CircuitIR.from_columns(RING_QUBITS, list(_RING_KIND), list(_RING_WIRES),
                                  [*zip(first), *_ENTANGLER_PARAMS, *zip(second)], name)


def ring_cuts(partitions: int) -> list[GateCut]:
    """Gate cuts that split :func:`ring_circuit` into 3 or 4 partitions."""
    partitions = _integer("partitions", partitions)
    if partitions not in _CUT_PAIRS:
        raise ValueError("only 3- and 4-partition presets exist")
    offset = 2 * RING_QUBITS  # entanglers follow the first rotation layer
    return [GateCut(offset + _RING_PAIRS.index(pair)) for pair in _CUT_PAIRS[partitions]]


@dataclass(frozen=True)
class ExperimentConfig:
    partitions: int = 3
    eps: float = 0.03
    repetitions: int = 100
    seed: int = 0


@dataclass(frozen=True)
class ExperimentSummary:
    partitions: int
    eps: float
    repetitions: int
    n_total: int
    errors: tuple[float, ...]
    std: float
    mean_error: float
    seed: int
    exact_std: float  # the largest exact standard deviation over the repetitions

    @property
    def within_bound(self) -> bool:
        return self.std <= self.eps

    @property
    def exact_within_bound(self) -> bool:
        return self.exact_std <= self.eps

    def to_json_dict(self) -> dict:
        payload = dict(asdict(self), within_bound=self.within_bound,
                       exact_std_over_eps=self.exact_std / self.eps,
                       exact_within_bound=self.exact_within_bound)
        del payload["seed"], payload["exact_std"]
        return payload


def variance_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run the repetition loop and summarise the error distribution. A non-integer
    count or seed raises ``TypeError``, repetitions < 2 or seed < 0 ``ValueError``."""
    repetitions = _integer("repetitions", config.repetitions, 2)
    seed = _integer("seed", config.seed, 0)
    partitions = _integer("partitions", config.partitions)
    cuts = ring_cuts(partitions)
    obs = pauli_z_observable(range(RING_QUBITS))
    errors, exact_vars = [], []
    n_total = None
    for rep in range(repetitions):
        rng = np.random.default_rng([seed, rep])
        params = rng.uniform(0.0, 2.0 * np.pi, size=(2, RING_QUBITS, 2))
        circuit = ring_circuit(params)
        exact = expectation_value(circuit, obs)
        run = cut_estimate(circuit, cuts, obs, config.eps, seed=int(rng.integers(2 ** 31)))
        errors.append(run.estimate - exact)
        exact_vars.append(exact_moments(circuit, cuts, obs, config.eps).variance)
        n_total = run.shots_used
    arr = np.array(errors)
    return ExperimentSummary(
        partitions=partitions,
        eps=float(config.eps),  # checked by every cut_estimate above
        repetitions=repetitions,
        n_total=int(n_total),
        errors=tuple(float(e) for e in errors),
        std=float(arr.std(ddof=1)),
        mean_error=float(arr.mean()),
        seed=seed,
        exact_std=float(np.sqrt(max(exact_vars))),
    )
