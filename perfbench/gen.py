"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical QASM text. Corpora are stratified: each size parameter is
split into equal strata and one value is drawn inside every stratum, and the
caps follow a fixed pattern over the strata. So corpus-level figures (median
and p90 plan time, summed overhead) move little from seed to seed while each
circuit is still random: a seed cannot pair the largest circuits with the
smallest caps more often than another seed does.

The chain and ring generators serialise circuits built by cutplan itself
(``fixtures.ising_chain``, ``cutsim.ring_circuit``), so cutplan must already
be importable when they run; the random-matching generator is the
benchmark's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# plan_chain: ising_chain circuits; every width exceeds every cap, so each
# plan has to cut
CHAIN_WIDTHS = (100, 300)
CHAIN_DEPTHS = (1, 2, 4)
CHAIN_CAPS = (30, 40, 50, 60)
CHAIN_STRATA = 34                # width strata per depth: 3 * 34 = 102 plans

# plan_random: rx layer + cz on a random perfect matching, per layer
RANDOM_WIDTHS = (40, 100)        # even widths only, so a perfect matching exists
RANDOM_LAYERS = (10, 40)
RANDOM_CAPS = (12, 16, 20, 24)
RANDOM_STRATA = 10               # 10 width strata x 10 layer strata = 100 plans

# verify_ring: the four full `cutplan verify` presets (partitions, eps)
RING_PRESETS = ((3, 0.03), (4, 0.03), (3, 0.01), (4, 0.01))
RING_REPS = 50                   # repetitions per preset

# one stream per workload, so the corpora of one seed are unrelated
_STREAM = {"plan_chain": 1, "plan_random": 2, "verify_ring": 3}


@dataclass(frozen=True)
class PlanInput:
    qasm: str
    cap: int


@dataclass(frozen=True)
class RingInput:
    partitions: int
    eps: float
    qasm: str
    estimate_seed: int


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


def scaled(count: int, scale: float) -> int:
    """``count`` scaled to a shorter or longer run, never below 1."""
    return max(1, round(count * scale))


def strata(rng: np.random.Generator, lo: int, hi: int, k: int) -> list[int]:
    """One integer from each of ``k`` equal strata covering ``[lo, hi]``."""
    edges = np.linspace(lo, hi + 1, k + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        a, b = int(a), max(int(a) + 1, int(b))
        out.append(int(rng.integers(a, b)))
    return out


def balanced(values: tuple, n: int, offset: int = 0) -> list:
    """``n`` values cycling through ``values``, starting at ``offset``."""
    return [values[(i + offset) % len(values)] for i in range(n)]


def random_matching_qasm(width: int, layers: int, seed: int) -> str:
    """Per layer: ``rx`` on every wire, then ``cz`` on a random perfect matching."""
    if width < 2 or width % 2:
        raise ValueError("width must be even and at least 2")
    rng = np.random.default_rng(seed)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{width}];"]
    for _ in range(layers):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=width)
        lines.extend(f"rx({float(a)!r}) q[{q}];" for q, a in enumerate(angles))
        perm = rng.permutation(width)
        lines.extend(f"cz q[{perm[i]}],q[{perm[i + 1]}];" for i in range(0, width, 2))
    return "\n".join(lines) + "\n"


def chain_corpus(seed: int, scale: float = 1.0) -> list[PlanInput]:
    """Stratified ising_chain corpus: every depth, widths stratified per depth,
    caps cycling over the width strata, shifted by one per depth; the run
    order is shuffled."""
    from cutplan.fixtures import ising_chain
    from cutplan.qasm import to_qasm

    rng = _rng("plan_chain", seed)
    k = scaled(CHAIN_STRATA, scale)
    specs = []
    for d, depth in enumerate(CHAIN_DEPTHS):
        widths = strata(rng, *CHAIN_WIDTHS, k)
        caps = balanced(CHAIN_CAPS, k, d)
        circuit_seeds = rng.integers(2 ** 31, size=k)
        specs += [(w, depth, c, int(s)) for w, c, s in zip(widths, caps, circuit_seeds)]
    corpus = []
    for i in rng.permutation(len(specs)):
        width, depth, cap, circuit_seed = specs[i]
        corpus.append(PlanInput(to_qasm(ising_chain(width, depth, seed=circuit_seed)), cap))
    return corpus


def random_corpus(seed: int, scale: float = 1.0) -> list[PlanInput]:
    """Random-matching corpus on a stratified width x layers grid, one circuit
    per cell, caps cycling along the grid's diagonals; the run order is
    shuffled."""
    rng = _rng("plan_random", seed)
    k = scaled(RANDOM_STRATA, scale ** 0.5)
    half_widths = strata(rng, RANDOM_WIDTHS[0] // 2, RANDOM_WIDTHS[1] // 2, k)
    specs = []
    for a, half in enumerate(half_widths):
        layers = strata(rng, *RANDOM_LAYERS, k)
        caps = balanced(RANDOM_CAPS, k, a)
        specs += [(2 * half, n, cap) for n, cap in zip(layers, caps)]
    circuit_seeds = rng.integers(2 ** 31, size=len(specs))
    corpus = []
    for i in rng.permutation(len(specs)):
        width, layers, cap = specs[i]
        text = random_matching_qasm(width, layers, int(circuit_seeds[i]))
        corpus.append(PlanInput(text, cap))
    return corpus


def ring_corpus(seed: int, scale: float = 1.0) -> list[RingInput]:
    """Fresh random ring circuits for every repetition of every preset; the
    run order is shuffled, so no preset's estimates fall in one stretch of
    the run."""
    from cutplan.cutsim import ring_circuit
    from cutplan.qasm import to_qasm

    rng = _rng("verify_ring", seed)
    reps = max(2, scaled(RING_REPS, scale))  # the std verdict needs two errors
    corpus = []
    for partitions, eps in RING_PRESETS:
        for _ in range(reps):
            params = rng.uniform(0.0, 2.0 * np.pi, size=(2, 8, 2))
            text = to_qasm(ring_circuit(params))
            corpus.append(RingInput(partitions, eps, text, int(rng.integers(2 ** 31))))
    return [corpus[i] for i in rng.permutation(len(corpus))]


CORPORA = {
    "plan_chain": chain_corpus,
    "plan_random": random_corpus,
    "verify_ring": ring_corpus,
}
