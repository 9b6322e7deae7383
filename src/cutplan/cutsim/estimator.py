"""Monte-Carlo circuit-cutting estimator.

Cutting a set of gates and wires splits the circuit into independent
subcircuits. Each cut contributes a sum of signed local terms; picking one
term per cut selects a *variant* of every subcircuit it touches. The
estimator:

1. partitions the circuit and rejects cut sets that fail to disconnect it,
2. budgets shots per partition with the planner's ``partition_budgets``:
   N_c = ceil(R * (prod_{E_c} kappa)^2 * prod_{D_c} tau / eps^2), where E_c
   are the cuts touching partition c and D_c the rest,
3. splits N_c across partition variants proportionally to the product of
   |coefficient| / kappa of the selected terms,
4. samples every (partition, variant) independently: the variant's exact
   outcome distribution is enumerated (signed mid-circuit measurements fork
   the statevector into branches) and the requested number of shots is drawn
   from it, so the sample mean has exactly the per-shot sampling law. One
   walk per partition simulates all its variants, one cut site at a time,
   sharing the gates they have in common: terms whose sides at a site are
   equal share one branch there, each such group expands the site's whole
   batch once (one parent at a time above 2^16 amplitudes: every kernel
   treats each row on its own, so the leaves and their floats are the same
   either way). Each wire's consecutive 1-qubit gates between cut sites run
   as one 2x2 matrix, as do a term side's gates before and after its
   measurement. A sample mean depends only on how many shots land on each
   *signed value*, the sorted distinct values of the value table and its
   negation (two, +-1, for a product of Pauli Z). So one pass per batch of
   leaves collapses every leaf's outcomes onto them (each row's mass per
   signed value, then each leaf's, normalised), with sums that read each row
   and each leaf on its own. Partition c then draws from one generator,
   ``default_rng([seed, c])``, for all its variants with shots in allocation
   order (``ShotAllocation.variants``), whatever order the walk found them
   in: conditional binomials, one signed value at a time, each for every
   variant before the next (one ``binomial`` call for Pauli Z),
5. combines the per-variant sample means with the term coefficients, summing
   the coefficient-weighted product of partition means over all term choices.

``cut_estimate`` and ``exact_moments`` share one compile step, and nothing
it builds outlives the call. It rejects a partition wider than
``MAX_QUBITS`` before building anything for it. Within a call, partitions
with equal term shares and budget share one budget split, and partitions
with equal width and factors share one value table. Only immutable
constants carry work across calls: each term side's two matrices, before
and after its measurement (``TermSide.unitaries``), and each side table's
grouping of its terms, built at import (``DecompositionSpec.side_groups``).

With that budget the estimator is unbiased and its standard deviation stays
below eps. ``exact_moments`` computes that mean and variance exactly, with
no sampling: it is the estimator's contract, which the tests check on
every cut kind, so the random stream is free to change.
"""

from __future__ import annotations

import itertools
import math
import operator
import string
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .._checks import _integer
from ..overhead import partition_budgets
from ..qasm import CircuitIR, GateApp
from .decomp import (DecompositionSpec, MEAS_SIGNED,
                     gate_cut_decomposition, wire_cut_decomposition)
from .observable import ObsFactor, ProductObservable, check_qubits, value_table
from .statevector import (MAX_QUBITS, TooManyQubitsError, apply_matrix, gate_matrix,
                          project_qubit, zero_state)


class NotDisconnectedError(Exception):
    """The requested cuts do not split the circuit into >= 2 partitions."""


class IncompatibleObservableError(Exception):
    """An observable factor straddles a partition boundary."""


@dataclass(frozen=True)
class GateCut:
    """Cut the 2-qubit gate at this index (space-like)."""

    gate_index: int


@dataclass(frozen=True)
class WireCut:
    """Cut wire ``qubit`` right after the gate at ``after_gate`` (time-like)."""

    qubit: int
    after_gate: int


@dataclass(frozen=True)
class ShotAllocation:
    n_c: dict[int, int]
    variants: dict[int, dict[tuple[int, ...], int]]

    @property
    def n_total(self) -> int:
        return sum(self.n_c.values())


@dataclass(frozen=True)
class EstimatorRun:
    estimate: float
    variant_means: dict[int, dict[tuple[int, ...], float]]
    allocation: ShotAllocation
    r: int
    seed: int

    @property
    def shots_used(self) -> int:
        return self.allocation.n_total


# -- partitioning ------------------------------------------------------------

@dataclass
class PartitionPlan:
    """Everything the sampler needs about one subcircuit.

    ``sites`` are its cut sites in time order, each ``(cut index, side,
    local qubit)``. ``runs[k]`` are the gates before ``sites[k]`` (the last
    run follows the last site), each ``(GateApp, local qubits)``.
    """

    num_qubits: int = 0
    runs: list[list[tuple[GateApp, tuple[int, ...]]]] = field(default_factory=lambda: [[]])
    sites: list[tuple[int, int, int]] = field(default_factory=list)
    factors: list[ObsFactor] = field(default_factory=list)

    @property
    def attached_cuts(self) -> list[int]:
        return sorted({j for j, _, _ in self.sites})


def _check_cuts(circuit: CircuitIR, cuts: list) -> None:
    seen = set()
    for cut in cuts:
        if not isinstance(cut, (GateCut, WireCut)):
            raise TypeError(f"unknown cut placement {cut!r}")
        for field, i in vars(cut).items():
            _integer(f"{field} of cut {cut!r}", i)
        if isinstance(cut, GateCut):
            if not 0 <= cut.gate_index < len(circuit.gates):
                raise ValueError(f"gate index {cut.gate_index} out of range")
            if len(circuit.gates[cut.gate_index].qubits) != 2:
                raise ValueError(f"gate {cut.gate_index} is not a 2-qubit gate")
        elif isinstance(cut, WireCut):
            if not 0 <= cut.after_gate < len(circuit.gates):
                raise ValueError(f"gate index {cut.after_gate} out of range")
            if cut.qubit not in circuit.gates[cut.after_gate].qubits:
                raise ValueError(
                    f"gate {cut.after_gate} does not touch wire {cut.qubit}")
        if cut in seen:
            raise ValueError(f"duplicate cut {cut!r}")
        seen.add(cut)


def plan_partitions(circuit: CircuitIR, cuts: list,
                    obs: ProductObservable) -> tuple[dict[int, PartitionPlan], int]:
    """Split the circuit along the cuts; returns per-partition plans and R.

    Wires are tracked as segments: a wire cut ends the current segment and
    starts a fresh one. Partitions are the connected components of segments
    under the remaining (uncut) 2-qubit gates; every cut must end up between
    two different partitions. A second pass in execution order then hands
    every gate, and both sides of every cut, to its partition.
    """
    _check_cuts(circuit, cuts)
    check_qubits(obs.factors, circuit.num_qubits)
    gate_cuts = {c.gate_index: j for j, c in enumerate(cuts) if isinstance(c, GateCut)}
    wire_cuts: dict[int, list[tuple[int, int]]] = {}
    for j, c in enumerate(cuts):
        if isinstance(c, WireCut):
            wire_cuts.setdefault(c.after_gate, []).append((c.qubit, j))

    # segments are (wire, k), listed in ``parent`` in creation order; a
    # component's root is its least segment
    segment = {q: (q, 0) for q in range(circuit.num_qubits)}
    parent = {s: s for s in segment.values()}

    def find(s):
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    gate_segments = []  # per gate, the segments it acts on
    cut_sides: list[tuple] = [()] * len(cuts)
    for g, gate in enumerate(circuit.gates):
        segs = tuple(map(segment.__getitem__, gate.qubits))
        gate_segments.append(segs)
        if g in gate_cuts:
            cut_sides[gate_cuts[g]] = segs
        elif len(segs) == 2:
            a, b = find(segs[0]), find(segs[1])
            parent[max(a, b)] = min(a, b)
        for q, j in wire_cuts.get(g, ()):
            old, new = segment[q], (q, segment[q][1] + 1)
            segment[q] = parent[new] = new
            cut_sides[j] = (old, new)

    roots = sorted({find(s) for s in parent})
    if len(roots) < 2:
        raise NotDisconnectedError(
            f"cuts leave the circuit in {len(roots)} component(s); need >= 2")
    for j, (a, b) in enumerate(cut_sides):
        if find(a) == find(b):
            raise NotDisconnectedError(
                f"cut {j} ({cuts[j]!r}) joins segments of the same partition")

    part_of_root = {root: c for c, root in enumerate(roots)}
    plans = {c: PartitionPlan() for c in range(len(roots))}
    local: dict[tuple[int, int], tuple[int, int]] = {}  # segment -> (partition, qubit)
    for seg in parent:
        c = part_of_root[find(seg)]
        local[seg] = (c, plans[c].num_qubits)
        plans[c].num_qubits += 1

    def add_site(j, side):
        c, lq = local[cut_sides[j][side]]
        plans[c].sites.append((j, side, lq))
        plans[c].runs.append([])

    for g, gate in enumerate(circuit.gates):
        if g in gate_cuts:
            for side in (0, 1):
                add_site(gate_cuts[g], side)
        else:
            segs = gate_segments[g]
            plans[local[segs[0]][0]].runs[-1].append((gate, tuple([local[s][1] for s in segs])))
        # measure sides first, then prepare sides, each in cut-index order
        for side in (0, 1):
            for _, j in wire_cuts.get(g, ()):
                add_site(j, side)

    # observable factors follow the final segment of each wire
    final_local = {q: local[segment[q]] for q in range(circuit.num_qubits)}
    for factor in obs.factors:
        parts = {final_local[q][0] for q in factor.qubits}
        if len(parts) > 1:
            raise IncompatibleObservableError(
                f"factor on qubits {factor.qubits} spans partitions {sorted(parts)}")
        c = parts.pop()
        plans[c].factors.append(factor._moved(tuple([final_local[q][1] for q in factor.qubits])))
    return plans, len(roots)


def cut_specs(circuit: CircuitIR, cuts: list) -> list[DecompositionSpec]:
    return [gate_cut_decomposition(circuit.gates[cut.gate_index]) if isinstance(cut, GateCut)
            else wire_cut_decomposition() for cut in cuts]


# -- shot allocation ----------------------------------------------------------

def allocate_shots(plans: dict[int, PartitionPlan], specs: list[DecompositionSpec],
                   r: int, eps: float) -> ShotAllocation:
    """Partition budgets (``partition_budgets``, cuts in index order) and
    their proportional split across variants.

    Variant weights are prod |a_j(i_j)| / kappa_j over the attached cuts;
    counts are floored and the remainder goes to the largest fractional
    parts, so each partition's counts sum to N_c exactly. Variants with a
    nonzero weight are guaranteed at least one shot (N_c is raised when
    needed).
    """
    n_c: dict[int, int] = {}
    variant_counts: dict[int, dict[tuple[int, ...], int]] = {}
    attached = {c: plans[c].attached_cuts for c in sorted(plans)}
    budgets = partition_budgets(r, [(spec.kappa, spec.tau) for spec in specs],
                                attached.values(), eps, attached.keys())
    # |a_j(i)| / kappa_j per cut and term
    shares = [tuple(abs(t.coeff) / spec.kappa for t in spec.terms) for spec in specs]
    splits = {}  # partitions with equal shares and budget split alike
    for c, cuts in attached.items():
        key = (tuple(shares[j] for j in cuts), budgets[c])
        if key not in splits:
            splits[key] = _split_budget(*key)
        n_c[c], variants, counts = splits[key]
        variant_counts[c] = dict(zip(variants, counts))
    return ShotAllocation(n_c=n_c, variants=variant_counts)


def _split_budget(shares: tuple[tuple[float, ...], ...],
                  budget: int) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """Split one partition's budget over its variants by largest remainder,
    ``shares`` holding the term shares of each attached cut. Returns the
    budget, raised to the number of weighted variants if lower, the variants
    (one term per attached cut) and their shot counts."""
    variants = list(itertools.product(*(range(len(s)) for s in shares)))
    # each weight is the product of its terms' shares from 1.0, in cut
    # order, listed in the variants' order
    weights = [1.0]
    for s in shares:
        weights = [w * x for w in weights for x in s]
    budget = max(budget, sum(1 for w in weights if w > 0.0))
    scale = sum(weights)
    exact = [budget * w / scale for w in weights]
    counts = list(map(math.floor, exact))
    # a stable sort: equal remainders keep their index order
    order = sorted(range(len(weights)), key=[n - x for n, x in zip(counts, exact)].__getitem__)
    for k in order[:budget - sum(counts)]:
        counts[k] += 1
    # every weighted variant must contribute a sample mean; the first
    # largest count gives up a shot for it
    for k in [k for k, (w, n) in enumerate(zip(weights, counts)) if w > 0 and n == 0]:
        counts[counts.index(max(counts))] -= 1
        counts[k] += 1
    return budget, variants, counts


# -- variant simulation ---------------------------------------------------------

# a branch whose squared norm is at most this is dropped as unreachable
_PRUNE_NORM = 1e-28

# a level whose expansion could hold more amplitudes than this (1 MiB) is
# expanded one parent at a time
_LEVEL_AMPLITUDES = 2 ** 16


# a signed fork's keep and flip factors, in that order
_KEEP_FLIP = np.array([1.0, -1.0])


def _fused(run: list[tuple[GateApp, tuple[int, ...]]]
           ) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """``(qubits, matrix)`` of a run of gates, each wire's consecutive
    1-qubit gates multiplied into one 2x2 matrix. A 2-qubit gate first
    flushes the products pending on its wires; what is pending at the end
    of the run follows, in the order its wires were first touched."""
    ops, pending = [], {}
    for gate, qubits in run:
        matrix = gate_matrix(gate)
        if len(qubits) == 1:
            q = qubits[0]
            pending[q] = matrix @ pending[q] if q in pending else matrix
            continue
        ops += [((q,), pending.pop(q)) for q in qubits if q in pending]
        ops.append((qubits, matrix))
    ops += [((q,), matrix) for q, matrix in pending.items()]
    return ops


def _walk(plan: PartitionPlan, specs: list[DecompositionSpec]
          ) -> Iterator[tuple[np.ndarray, np.ndarray, list[int], list[Iterator[tuple[int, ...]]]]]:
    """Yield ``(batch, signs, bounds, variants)`` per batch of leaves, over
    every choice of one term per cut site. Leaf i is rows
    ``bounds[i]:bounds[i + 1]`` of the batch and its signs; ``variants[i]``
    are its variants, those whose terms lie in its groups.

    A row is one branch of a variant: an unnormalised state, and the sign
    its signed measurements collected. The walk goes one cut site (level)
    at a time. A level is one batch of rows: a parent holds one group of
    terms per site passed, and its rows are one slice of the batch. At a
    site the terms are grouped by their side there, in order of first
    appearance: terms with equal sides act alike on this partition. Each
    group expands the whole batch once (its side's gates, a signed fork
    into keep and flip rows, its post gates), and the children are listed
    group by group, each group's parent by parent, so that they keep their
    rows in the order the group made them.
    An unsigned measurement ends a wire that nothing reads again, so
    dephasing it cannot change any outcome and it is left out. The run of
    gates up to the next site runs once on the next level, and after the
    last site the level is one batch of leaves. So variants share the
    simulation of their common prefix.

    A level whose expansion could hold more than ``_LEVEL_AMPLITUDES``
    amplitudes (two rows per group and row) is expanded one parent at a
    time instead, and each parent's children are walked to their leaves
    before the next parent's, so memory stays near one parent's subtree.
    Either way the leaves and every float are the same, since each kernel
    treats each row on its own; only the order of the leaves differs.
    """
    n = plan.num_qubits
    runs = [_fused(run) for run in plan.runs]
    sites = [(lq, specs[j].side_groups[side]) for j, side, lq in plan.sites]
    # variants are keyed in attached-cut order, the walk goes in site order;
    # when the two agree, the product's own tuple is the key
    site_cuts = [j for j, _, _ in plan.sites]
    key_order = [site_cuts.index(j) for j in plan.attached_cuts]
    key = None if key_order == sorted(key_order) else operator.itemgetter(*key_order)

    def expand(batch, signs, prefixes, bounds, site):
        # parent p's rows are ``bounds[p]:bounds[p + 1]``
        lq, expansions = site
        qubits = (lq,)
        pieces, piece_signs, children, child_bounds = [], [], [], [0]
        for group, term_side in expansions:
            before, after = term_side.unitaries
            branch, branch_signs, starts = batch, signs, bounds
            if before is not None:
                branch = apply_matrix(branch, n, qubits, before)
            if term_side.measure == MEAS_SIGNED:
                branch = project_qubit(branch, n, lq)
                branch_signs = (signs[:, None] * _KEEP_FLIP).reshape(-1)
                flat = branch.view(np.float64)  # each row's squared norm, below
                alive = np.einsum("ij,ij->i", flat, flat) > _PRUNE_NORM
                branch, branch_signs = branch[alive], branch_signs[alive]
                # parent p's forked rows start at 2 * bounds[p]
                kept = [0, *itertools.accumulate(alive.tolist())]
                starts = [kept[2 * b] for b in bounds]
            if after is not None:
                branch = apply_matrix(branch, n, qubits, after)
            # the group's children, parent by parent, are its rows in order
            pieces.append(branch)
            piece_signs.append(branch_signs)
            children += [prefix + (group,) for prefix in prefixes]
            child_bounds += [child_bounds[-1] + b for b in starts[1:]]
        return np.concatenate(pieces), np.concatenate(piece_signs), children, child_bounds

    def descend(batch, signs, prefixes, bounds, k):
        while True:
            # rebinding ``batch`` frees each gate's input as soon as it is applied
            for qubits, matrix in runs[k]:
                batch = apply_matrix(batch, n, qubits, matrix)
            if k == len(sites):
                break
            # each group expands a row into at most two
            if 2 * len(sites[k][1]) * batch.size > _LEVEL_AMPLITUDES:
                for prefix, a, b in zip(prefixes, bounds, bounds[1:]):
                    yield from descend(*expand(batch[a:b], signs[a:b], [prefix], [0, b - a],
                                               sites[k]), k + 1)
                return
            batch, signs, prefixes, bounds = expand(batch, signs, prefixes, bounds, sites[k])
            k += 1
        choices = [itertools.product(*prefix) for prefix in prefixes]
        yield batch, signs, bounds, choices if key is None else [map(key, c) for c in choices]

    yield from descend(zero_state(n)[None], np.ones(1), [()], [0, 1], 0)


def variant_distribution(plan: PartitionPlan, specs: list[DecompositionSpec],
                         choice: dict[int, int],
                         values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (probabilities, signed postprocessing values) of one variant,
    ``choice`` mapping each attached cut to its term, branch by branch: the
    one leaf of a walk over the specs narrowed to the chosen terms. It stays
    only for the benchmark's traced replay (ROADMAP item 6(b))."""
    narrowed = list(specs)
    for j, t in choice.items():
        narrowed[j] = replace(specs[j], terms=(specs[j].terms[t],))
    ((batch, signs, _, _),) = _walk(plan, narrowed)
    return (np.abs(batch) ** 2).reshape(-1), (signs[:, None] * values).reshape(-1)


# -- estimator -----------------------------------------------------------------

def _compile(circuit: CircuitIR, cuts: list, obs: ProductObservable, eps: float) -> tuple:
    """``(plans, R, specs, allocation, value table per partition)``; a
    partition wider than ``MAX_QUBITS`` raises before any table is built.
    Partitions with equal factors and width share one table: ``ObsFactor``
    equality takes -0.0 for 0.0, but a table's signed zero never reaches a
    sample mean, since ``counts @ vals`` sums from +0.0."""
    plans, r = plan_partitions(circuit, cuts, obs)
    for c, plan in plans.items():
        if plan.num_qubits > MAX_QUBITS:
            raise TooManyQubitsError(f"partition {c} has {plan.num_qubits} qubits, over "
                                     f"the dense-vector cap of {MAX_QUBITS}")
    specs = cut_specs(circuit, cuts)
    allocation = allocate_shots(plans, specs, r, eps)
    keys = {c: (tuple(plan.factors), plan.num_qubits) for c, plan in plans.items()}
    tables = {key: value_table(*key) for key in dict.fromkeys(keys.values())}
    return plans, r, specs, allocation, {c: tables[key] for c, key in keys.items()}


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts."""
    return np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))


def _categories(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(signed, order, starts, columns)`` of a value table: its signed
    values, the sorted distinct values of ``values`` and ``-values``, and
    how a row of sign +1 collapses onto them. ``order`` lists the basis
    states by value, each distinct value starts at ``starts`` of that order,
    and ``columns`` are their indices in ``signed``. The signed values are
    symmetric about 0, so a row of sign -1 collapses onto the same masses
    in reverse. (Sorted by hand: ``np.unique`` imports ``numpy.ma``, about
    1 MB, on its first call.)"""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = _run_starts(ordered)
    distinct = ordered[starts]
    signed = np.sort(np.concatenate([distinct, -distinct]))
    signed = signed[_run_starts(signed)]
    return signed, order, starts, np.searchsorted(signed, distinct)


def _collapse(batch: np.ndarray, signs: np.ndarray, bounds: list[int],
              categories: tuple[np.ndarray, ...]) -> np.ndarray:
    """Each leaf's outcome distribution over the signed values of
    ``categories`` (see ``_categories``): each row's probability mass per
    signed value, then each leaf's, then normalised. Both sums are
    ``np.add.reduceat``, which sums every segment on its own, so a leaf's
    vector does not depend on the rows beside it in the batch (a BLAS
    product may round a row by how many rows share it)."""
    signed, order, starts, columns = categories
    probs = np.abs(batch[:, order])
    probs *= probs
    present = np.add.reduceat(probs, starts, axis=1)
    if columns.size == signed.size:
        rows = present
    else:  # a signed value that no basis state has (-1 when all are +1) holds 0
        rows = np.zeros((len(batch), signed.size))
        rows[:, columns] = present
    rows = np.where(signs[:, None] < 0, rows[:, ::-1], rows)
    leaves = np.add.reduceat(rows, bounds[:-1], axis=0)
    leaves /= leaves.sum(axis=1, keepdims=True)
    return leaves


def _leaves(plans: dict[int, PartitionPlan], specs: list[DecompositionSpec],
            allocation: ShotAllocation, values: dict[int, np.ndarray]) -> Iterator[tuple]:
    """``(partition, variants, shots, distributions, signed values)`` per
    partition: its variants with shots, in allocation order, their shot
    counts (a list of ints) and their leaves' distributions over the
    partition's signed values (one row per variant). Each batch of leaves is
    collapsed in one pass, and partitions sharing a value table share its
    signed values."""
    categories = {}  # by value table, which ``_compile`` shares
    for c, plan in sorted(plans.items()):
        if id(values[c]) not in categories:
            categories[id(values[c])] = _categories(values[c])
        cats = categories[id(values[c])]
        row_of, dists = {}, []  # each variant's leaf, a row of the collapsed leaves
        for batch, signs, bounds, leaves in _walk(plan, specs):
            for row, leaf in enumerate(leaves, sum(map(len, dists))):
                row_of.update(dict.fromkeys(leaf, row))
            dists.append(_collapse(batch, signs, bounds, cats))
        shots = {variant: n for variant, n in allocation.variants[c].items() if n}
        rows = [row_of[variant] for variant in shots]
        yield c, list(shots), list(shots.values()), np.concatenate(dists)[rows], cats[0]


def _sample_means(rng: np.random.Generator, shots: np.ndarray, dists: np.ndarray,
                  signed: np.ndarray) -> np.ndarray:
    """Each variant's mean of ``shots`` draws from its row of ``dists`` over
    the ``signed`` values, drawn as conditional binomials: signed value k
    takes a binomial share of the shots left, with the probability of k
    given k or a later value, for every variant before value k + 1 is
    drawn. A product of Pauli Z has two signed values, so that is one
    ``binomial`` call."""
    # each value's mass with the later ones', summed from the last value on
    rest = np.cumsum(dists[:, ::-1], axis=1)[:, ::-1]
    left, total = shots, 0.0
    for k in range(signed.size - 1):
        # no mass left means no shots left either: draw none
        p = np.divide(dists[:, k], rest[:, k], out=np.zeros(len(shots)), where=rest[:, k] > 0)
        drawn = rng.binomial(left, np.minimum(p, 1.0))
        total = total + drawn * signed[k]
        left = left - drawn
    return (total + left * signed[-1]) / shots


# ``binomial`` takes shot counts as 64-bit integers
_MAX_SHOTS = np.iinfo(np.int64).max


def cut_estimate(circuit: CircuitIR, cuts: list, obs: ProductObservable,
                 eps: float, seed: int = 0) -> EstimatorRun:
    """Estimate <obs> of the uncut circuit from independently sampled
    subcircuit variants. Standard deviation is bounded by ``eps``.

    A variant's sample mean depends only on how many shots land on each
    signed value, so each leaf's distribution is collapsed onto its
    partition's signed values. Partition c then samples all its variants
    with shots from ``np.random.default_rng([seed, c])``, one signed value
    at a time (``_sample_means``), the variants in allocation order
    (``ShotAllocation.variants``), whatever order the walk finds them in. A
    partition budget beyond a 64-bit count raises ``OverflowError`` before
    any walk.
    """
    seed = _integer("seed", seed, 0)
    plans, r, specs, allocation, values = _compile(circuit, cuts, obs, eps)
    for c, n in allocation.n_c.items():
        if n > _MAX_SHOTS:
            raise OverflowError(f"partition {c} needs {n} shots, more than a 64-bit "
                                f"shot count holds ({_MAX_SHOTS})")
    means = {c: dict.fromkeys(sorted(shots), 0.0) for c, shots in allocation.variants.items()}
    for c, variants, shots, dists, signed in _leaves(plans, specs, allocation, values):
        sampled = _sample_means(np.random.default_rng([seed, c]),
                                np.array(shots, dtype=np.int64), dists, signed)
        means[c].update(zip(variants, sampled.tolist()))
    return EstimatorRun(estimate=combine_means(plans, specs, means), variant_means=means,
                        allocation=allocation, r=r, seed=seed)


def combine_means(plans: dict[int, PartitionPlan], specs: list[DecompositionSpec],
                  means: dict[int, dict[tuple[int, ...], float]]) -> float:
    """Coefficient-weighted contraction of per-partition mean tensors.

    estimate = sum over all term choices of prod_j a_j(i_j) *
    prod_c mean_c(choice restricted to the cuts touching c).
    """
    subscripts = _contraction(plans, len(specs), copies=1)
    coefficients = [np.array([t.coeff for t in spec.terms]) for spec in specs]
    tensors = []
    for c, plan in sorted(plans.items()):
        # a partition no cut touches is a 0-d tensor with subscript ""
        tensor = np.empty(tuple(len(specs[j].terms) for j in plan.attached_cuts))
        for variant, mean in means[c].items():
            tensor[variant] = mean
        tensors.append(tensor)
    return float(np.einsum(subscripts, *coefficients, *tensors))


def _contraction(plans: dict[int, PartitionPlan], num_cuts: int, copies: int) -> str:
    """``einsum`` subscripts that sum over every term choice of ``copies``
    independent copies of the cuts, down to a scalar.

    The operands are one tensor per cut, then one per partition in
    partition order. Cut j's tensor has an index per copy; a partition's
    has, copy by copy, an index per attached cut. Each index is a letter,
    so the letters bound the number of cuts.
    """
    limit = len(string.ascii_letters) // copies
    if num_cuts > limit:
        raise ValueError("too many cuts to contract" if copies == 1 else
                         f"too many cuts to contract: at most {limit} when doubled")

    def letters(cuts):
        return "".join(string.ascii_letters[j + k * num_cuts]
                       for k in range(copies) for j in cuts)

    operands = [letters([j]) for j in range(num_cuts)]
    operands += [letters(plan.attached_cuts) for _, plan in sorted(plans.items())]
    return ",".join(operands) + "->"


@dataclass(frozen=True)
class ExactMoments:
    """What ``exact_moments`` returns."""

    mean: float
    variance: float
    allocation: ShotAllocation


def exact_moments(circuit: CircuitIR, cuts: list, obs: ProductObservable,
                  eps: float) -> ExactMoments:
    """Exact mean and variance of ``cut_estimate``'s estimate, and the shot
    allocation it samples with; no shot is drawn.

    A sampled variant's mean is the average of n draws from its exact
    outcome distribution over the signed values, read from the collapsed
    leaves that ``cut_estimate`` samples: its expectation is the
    distribution's mean mu, its variance sigma^2 / n, and the means of
    different variants are independent. A variant without shots has the
    fixed mean 0.
    The estimate is multilinear in the means, so its expectation is
    ``combine_means`` of the mu, and E[estimate^2] is the same contraction
    over two copies of every cut index, each cut contributing a (x) a and
    each partition E[m (x) m] = mu (x) mu + diag(sigma^2 / n).
    """
    plans, _, specs, allocation, values = _compile(circuit, cuts, obs, eps)
    subscripts = _contraction(plans, len(cuts), copies=2)
    means = {c: dict.fromkeys(sorted(shots), 0.0) for c, shots in allocation.variants.items()}
    noise = {c: dict.fromkeys(variants, 0.0) for c, variants in means.items()}
    for c, variants, shots, dists, signed in _leaves(plans, specs, allocation, values):
        mu = dists @ signed
        var = ((signed - mu[:, None]) ** 2 * dists).sum(axis=1) / np.array(shots, dtype=float)
        means[c].update(zip(variants, mu.tolist()))
        noise[c].update(zip(variants, var.tolist()))
    seconds = []
    for c, plan in sorted(plans.items()):
        mu, var = (np.array(list(moment[c].values())) for moment in (means, noise))
        shape = tuple(len(specs[j].terms) for j in plan.attached_cuts)
        seconds.append((np.outer(mu, mu) + np.diag(var)).reshape(shape + shape))
    mean = combine_means(plans, specs, means)
    coefficients = [np.array([t.coeff for t in spec.terms]) for spec in specs]
    second = np.einsum(subscripts, *(np.outer(a, a) for a in coefficients), *seconds,
                       optimize=True)
    # rounding can leave a variance that is zero a hair below it
    return ExactMoments(mean=mean, variance=max(float(second) - mean ** 2, 0.0),
                        allocation=allocation)
