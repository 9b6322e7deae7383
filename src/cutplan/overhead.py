"""Sampling-overhead arithmetic and reporting.

A clustering of the cut graph induces a cut set: every edge whose endpoints
live in different clusters. For cluster c, with E_c the cut edges attached to
c and D_c the remaining cut edges,

    overhead(c) = R * (prod_{j in E_c} kappa_j)^2 * prod_{k in D_c} tau_k

drives the number of shots partition c needs so that the reconstructed
expectation value keeps a standard deviation below eps:

    shots(c) = ceil(overhead(c) / eps^2)

The log of the worst overhead (report key ``lq``) is the partitioner's
objective; ``ld`` is the attached-cut weight of that worst cluster. Both
the planner and ``build_report`` score with ``cut_sums`` and ``log_overheads``.
Two older bounds are provided for comparison: a Hoeffding-style budget paid
once per partition, and the cubic bound for measure-and-prepare cutting.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from itertools import count
from typing import TYPE_CHECKING

from ._checks import _check_eps, _integer
from .graph import CutGraph, CutKind

if TYPE_CHECKING:  # pragma: no cover
    from .clustering import Clustering


def _over_eps_sq(what: str, eps: float, numerator, factor: int = 1) -> float:
    """``factor * (numerator() / eps^2)``, divided by eps twice when eps^2
    overflows; an ``OverflowError`` names ``what`` and ``eps`` when the
    numerator or the result is no finite float (or eps^2 underflows)."""
    e = float(eps)  # where a float raises, a numpy scalar would only warn
    try:
        top = numerator()
        try:
            quotient = top / e ** 2
        except OverflowError:  # e ** 2 is above every float
            quotient = top / e / e
        value = factor * quotient
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"{what} at eps={eps} does not fit a float")
    return value


def partition_shots(r: int, attached_kappa_sq: float, attached_tau: float,
                    tau_cut: float, eps: float, partition: int) -> int:
    """Shots that partition ``partition`` needs for a standard deviation
    ``eps``, the one implementation of

        N_c = ceil(r * attached_kappa_sq * (tau_cut / attached_tau) / eps^2)

    with ``attached_kappa_sq`` the product of kappa^2 over the partition's
    cuts and ``attached_tau``, ``tau_cut`` the products of tau over its cuts
    and over all cuts. The arithmetic is in linear space, so integer-valued
    budgets come out exact; a budget is at least one shot. Raises
    ``TypeError`` unless r is an integer and eps a real number,
    ``ValueError`` unless r >= 1 and eps is finite and positive, and
    ``OverflowError`` when the budget does not fit a float.
    """
    r = _integer("r", r, 1)
    _check_eps(eps)
    return max(1, math.ceil(_over_eps_sq(
        f"the shot budget of partition {partition}", eps,
        lambda: r * attached_kappa_sq * (tau_cut / attached_tau))))


def partition_budgets(r: int, cuts: Sequence[tuple[float, float]],
                      attached: Iterable[Sequence[int]], eps: float,
                      partitions: Iterable[int]) -> dict[int, int]:
    """Each partition's ``partition_shots``, keyed by ``partitions``:
    ``cuts[j]`` is cut j's ``(kappa, tau)``, ``attached`` holds each
    partition's cut positions, and every product runs in the order given."""
    tau_cut = math.prod(tau for _, tau in cuts)
    return {c: partition_shots(r, math.prod(cuts[j][0] ** 2 for j in js),
                               math.prod(cuts[j][1] for j in js), tau_cut, eps, c)
            for c, js in zip(partitions, attached)}


def prior_bound(cut_kappas: list[float], eps: float, delta: float = 1.0 / 3.0,
                r: int = 1) -> int:
    """Hoeffding-style budget: every partition pays for every cut.

    The per-partition bound 2*(prod kappa)^2*ln(2/delta)/eps^2 is charged once
    per partition; the total is rounded up once at the end.

    Against the report's ``n_total`` at the same eps, and up to the rounding,
    the kappa^2 products cancel:

        n_total / prior = sum_c prod_{k in D_c} (tau_k / kappa_k^2) / (2 ln(2/delta))

    Every term is positive and, since tau <= kappa^2, at most 1. A cluster
    attached to every cut (D_c empty) adds exactly 1, so whenever one exists
    the ratio is at least 1/(2 ln(2/delta)), about 0.279 at delta = 1/3,
    however many partitions there are. A budget is at least one shot.
    Raises ``TypeError`` unless r is an integer and eps a real number,
    ``ValueError`` unless r >= 1, and ``OverflowError`` when the budget
    does not fit a float.
    """
    r = _integer("r", r, 1)
    _check_eps(eps)
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    prod = math.prod(cut_kappas, start=1.0)
    return max(1, math.ceil(_over_eps_sq(
        "prior_bound", eps, lambda: 2.0 * prod ** 2 * math.log(2.0 / delta), factor=r)))


def cubic_bound(r: int, d_prime: int, eps: float = 1.0) -> float:
    """Cubic measure-and-prepare bound, with d_prime the largest number of
    wire cuts on any single partition. Raises ``TypeError`` unless r and
    d_prime are integers and eps is real, ``ValueError`` unless r >= 1 and
    d_prime >= 0, and ``OverflowError`` when the bound does not fit a float."""
    r = _integer("r", r, 1)
    _check_eps(eps)
    d_prime = _integer("d_prime", d_prime, 0)
    m = r * 8 ** d_prime
    return _over_eps_sq("cubic_bound", eps,
                        lambda: 2.0 * (math.e - 1.0) ** 2 * m ** 3 * math.log(6.0 * m))


def cut_sums(graph, labels: Sequence[int]):
    """Per-cluster attached ``w`` and ``w_hat`` of the cut edges, the total
    cut ``w`` and ``w_hat``, summed in edge order, and the cut edges' indices;
    ``graph`` has ``u``, ``v``, ``w``, ``w_hat`` columns (a ``CutGraph`` or a
    planner level), ``labels[n]`` is node n's cluster, below ``len(labels)``."""
    s_w = [0.0] * len(labels)
    s_hat = [0.0] * len(labels)
    w_cut = hat_cut = 0.0
    cut = []
    for e, a, b, w, w_hat in zip(count(), graph.u, graph.v, graph.w, graph.w_hat):
        ca, cb = labels[a], labels[b]
        if ca != cb:
            s_w[ca] += w
            s_w[cb] += w
            s_hat[ca] += w_hat
            s_hat[cb] += w_hat
            w_cut += w
            hat_cut += w_hat
            cut.append(e)
    return s_w, s_hat, w_cut, hat_cut, cut


def log_overheads(s_w, s_hat, hat_cut: float,
                  clusters: Sequence[int]) -> tuple[list[float], int]:
    """The log overhead ``ln R + s_w[c] + (hat_cut - s_hat[c])`` of each of
    the ``R`` nonempty ``clusters``, in order, from ``cut_sums``' sums, and
    the position of the worst; ties go to the first, so list ids ascending."""
    ln_r = math.log(len(clusters))
    ln_i = [ln_r + s_w[c] + (hat_cut - s_hat[c]) for c in clusters]
    return ln_i, max(range(len(ln_i)), key=ln_i.__getitem__)


def segment_counts(mask: Iterable[int], labels: Iterable[int]) -> dict[int, int]:
    """Per cluster, the wire segments it owns along a run of atomic nodes in
    time order: ``mask`` gives each node's wire bit and ``labels`` its
    cluster. A segment is a maximal run of one wire's nodes that one
    cluster owns."""
    segments: dict[int, int] = {}
    owner: dict[int, int] = {}  # cluster of each wire's latest node, by wire bit
    for m, c in zip(mask, labels):
        if owner.get(m) != c:
            owner[m] = c
            segments[c] = segments.get(c, 0) + 1
    return segments


def segment_flags(graph: CutGraph, clustering: "Clustering") -> tuple[int, ...]:
    """Clusters whose wire-segment count exceeds their qubit-union size.

    A time-like cut can split one wire into several segments owned by the same
    cluster; counting segments instead of distinct qubits would then demand
    more device qubits than the union rule reports. Only meaningful for atomic
    graphs (each node on one wire); returns () otherwise.
    """
    if None in graph.gate_id:
        return ()
    labels = map(clustering.assignment.__getitem__, range(graph.num_nodes))
    return tuple(sorted(c for c, n in segment_counts(graph.mask, labels).items()
                        if n > len(clustering.clusters[c].qubits)))


@dataclass(frozen=True)
class OverheadReport:
    ln_i_c: dict[int, float]
    lq: float
    ld: float
    heavy_cluster: int | None
    n_space: int
    n_time: int
    n_tot_space: int
    n_tot_time: int
    l_tot: float
    r: int
    eps: float | None = None
    n_c: dict[int, int] | None = None
    n_total: int | None = None
    flagged_clusters: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        payload = dict(asdict(self),
                       n_c=None if self.n_c is None else [self.n_c[c] for c in sorted(self.n_c)],
                       ln_i_c={str(c): v for c, v in sorted(self.ln_i_c.items())},
                       lq_log10=self.lq / math.log(10.0), ld_log10=self.ld / math.log(10.0),
                       flagged_clusters=list(self.flagged_clusters))
        del payload["heavy_cluster"]
        return payload


def build_report(clustering: "Clustering", graph: CutGraph,
                 eps: float | None = None) -> OverheadReport:
    """Assemble the full overhead report for a clustering.

    Space/time edge counts rely on atomic edge kinds; merged edges (from
    contracted graphs) contribute to the weights but to neither count. A
    node in no listed cluster raises ``ValueError``.
    """
    if eps is not None:
        _check_eps(eps)  # also when there is no partition to budget
    # clusters are scored at dense positions in ascending id, so that ties
    # go to the lowest id whatever ids a hand-built clustering uses
    ids = sorted(clustering.clusters)
    position = {c: k for k, c in enumerate(ids)}
    assignment = clustering.assignment
    try:
        labels = [position[assignment[n]] for n in range(graph.num_nodes)]
    except KeyError:
        n = next(n for n in range(graph.num_nodes) if assignment.get(n) not in position)
        raise ValueError(f"node {n} is in no listed cluster") from None
    s_w, s_hat, w_cut, hat_cut, cut = cut_sums(graph, labels)
    r = len(ids)
    ln_i, heavy = log_overheads(s_w, s_hat, hat_cut, range(r)) if r else ([], None)
    ends = [(labels[graph.u[e]], labels[graph.v[e]]) for e in cut]
    kinds = [graph.kind[e] for e in cut]
    # counted with ``list.count``, which compares members by identity in C;
    # hashing them calls the Python-level ``Enum.__hash__`` per cut
    heavy_kinds = [kind for kind, pair in zip(kinds, ends) if heavy in pair]
    n_c = None
    if eps is not None:
        attached = [[] for _ in ids]  # E_c, as positions in ``cut``
        for p, pair in enumerate(ends):
            for k in pair:
                attached[k].append(p)
        n_c = partition_budgets(r, [(graph.kappa[e], graph.tau[e]) for e in cut],
                                attached, eps, ids)
    return OverheadReport(
        ln_i_c=dict(zip(ids, ln_i)),
        lq=0.0 if heavy is None else ln_i[heavy],
        ld=0.0 if heavy is None else s_w[heavy],
        heavy_cluster=None if heavy is None else ids[heavy],
        n_space=heavy_kinds.count(CutKind.SPACE),
        n_time=heavy_kinds.count(CutKind.TIME),
        n_tot_space=kinds.count(CutKind.SPACE),
        n_tot_time=kinds.count(CutKind.TIME),
        l_tot=w_cut,
        r=max(r, 1),
        eps=eps,
        n_c=n_c,
        n_total=None if n_c is None else sum(n_c.values()),
        flagged_clusters=segment_flags(graph, clustering),
    )
