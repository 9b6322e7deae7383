"""Doubly-weighted cut graph.

Every 2-qubit gate contributes two nodes (one per wire it touches) joined by a
space-like edge; time-adjacent nodes on a common wire are joined by a
time-like edge. Cutting a space-like edge decomposes the gate into local
operations; cutting a time-like edge splits the wire with a measure-and-prepare
pair. Each edge carries two weights derived from its decomposition factors:

    w     = ln(kappa^2)   kappa = sum of |coefficients|, drives the overhead of
                          clusters the cut is attached to
    w_hat = ln(tau)       tau = sum of squared coefficients, the residual cost
                          paid by clusters the cut is *not* attached to

Contraction collapses clusters to supernodes, summing both weights
independently and keeping intra-cluster weight as self-loops.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .qasm import CircuitIR

if TYPE_CHECKING:  # pragma: no cover
    from .clustering import Clustering


class CutKind(enum.Enum):
    SPACE = "space"
    TIME = "time"
    MERGED = "merged"


#: the measure-and-prepare wire cut's 8 term coefficients, in the term order
#: of ``cutsim.decomp.wire_cut_decomposition``
WIRE_CUT_COEFFICIENTS = (0.5, 0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5)


def zz_core_coefficients(theta: float) -> tuple[float, ...]:
    """The 6 term coefficients of the ZZ-rotation core exp(-i theta/2 Z⊗Z),
    in the term order of ``cutsim.decomp``: c², s², +cs, -cs, +cs, -cs with
    c = cos(theta/2) and s = sin(theta/2)."""
    # half-angle forms keep the theta = +-pi/2 coefficients exactly at 1/2
    c2 = 0.5 * (1.0 + math.cos(theta))
    s2 = 0.5 * (1.0 - math.cos(theta))
    cs = 0.5 * math.sin(theta)
    return (c2, s2, cs, -cs, cs, -cs)


_RZ, _H = ("rz", (math.pi / 2,)), ("h", ())

#: the 2-qubit gates a space cut decomposes. Each is a ZZ-rotation core
#: exp(-i theta/2 Z⊗Z) with 1-qubit gates around it (Mitarai & Fujii, New J.
#: Phys. 2021). A row maps the kind to (theta, sides): theta is None when the
#: core angle is the gate's own parameter, and sides holds, for operand side 0
#: and then side 1, the (before, after) gates as (kind, params) pairs
GATE_CUTS = MappingProxyType({
    "cx": (-math.pi / 2, (((), (_RZ,)), ((_H,), (_RZ, _H)))),
    "cz": (-math.pi / 2, (((), (_RZ,)), ((), (_RZ,)))),
    "rzz": (None, (((), ()), ((), ()))),
})


@dataclass(frozen=True)
class CutWeights:
    """Overhead factors of one cut decomposition."""

    kappa: float
    tau: float

    @classmethod
    def of(cls, coefficients: Sequence[float]) -> "CutWeights":
        """kappa = sum of |a| and tau = sum of a² over a decomposition's term
        coefficients, summed in term order."""
        return cls(kappa=sum(abs(a) for a in coefficients),
                   tau=sum(a ** 2 for a in coefficients))

    @property
    def w(self) -> float:
        return math.log(self.kappa ** 2)

    @property
    def w_hat(self) -> float:
        return math.log(self.tau)


class WeightTable:
    """The planner's fixed overhead factors per cut kind and gate kind, from
    the coefficients of the decompositions ``cutplan.cutsim.decomp`` samples:
    a wire cut's, and for every kind in ``GATE_CUTS`` the coefficients of its
    ZZ-rotation core. An unknown 2-qubit gate is priced as ``cx``, with a
    warning.
    """

    __slots__ = ()

    time = CutWeights.of(WIRE_CUT_COEFFICIENTS)
    # a kind whose core angle is its own parameter is priced at theta = pi/2,
    # whatever the parameter, until prices are keyed by the gate's angle
    space = MappingProxyType({
        kind: CutWeights.of(zz_core_coefficients(math.pi / 2 if theta is None else theta))
        for kind, (theta, _) in GATE_CUTS.items()})

    def space_entry(self, gate_kind: str) -> CutWeights:
        entry = self.space.get(gate_kind)
        if entry is None:
            entry = self.space["cx"]
            warnings.warn(
                f"no weight entry for 2-qubit gate '{gate_kind}'; using the CX entry "
                f"(kappa={entry.kappa:g}, tau={entry.tau:g})",
                stacklevel=3,
            )
        return entry


DEFAULT_WEIGHTS = WeightTable()


@dataclass(frozen=True)
class Node:
    id: int
    qubits: frozenset[int]
    gate_id: int | None = None
    #: operand slot (0 or 1) within the source gate, for atomic nodes
    slot: int | None = None

    def dot_name(self) -> str:
        if self.gate_id is not None:
            return f"g{self.gate_id}_{self.slot}"
        return f"n{self.id}"


@dataclass(frozen=True)
class Edge:
    """Undirected edge; ``u == v`` encodes a self-loop."""

    u: int
    v: int
    kind: CutKind
    w: float
    w_hat: float
    # exact linear-space factors; w == ln(kappa^2), w_hat == ln(tau) up to float error
    kappa: float
    tau: float


def qubit_mask(qubits) -> int:
    """The bitmask of a set of qubits."""
    return sum(1 << q for q in qubits)


def mask_qubits(mask: int) -> frozenset[int]:
    """The qubits of a bitmask."""
    qubits = []
    while mask:
        qubits.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return frozenset(qubits)


class CutGraph:
    """The graph as columns, one list per field: per node, at the position
    of its id, the qubit bitmask ``mask``, ``gate_id`` and ``slot``; per
    edge, in edge order, the fields of ``Edge``. The planner and the report
    read the columns, and ``nodes`` and ``edges`` build the ``Node``/``Edge``
    tuples on first access. The columns are lists, never tuples: numpy reads
    a tuple index as one index per axis.
    """

    def __init__(self, nodes: Sequence[Node] = (), edges: Sequence[Edge] = ()):
        """A graph from ``Node``/``Edge`` objects whose ids are their positions."""
        self.mask = [qubit_mask(n.qubits) for n in nodes]
        self.gate_id = [n.gate_id for n in nodes]
        self.slot = [n.slot for n in nodes]
        self.u, self.v, self.kind, self.w, self.w_hat, self.kappa, self.tau = (
            [getattr(e, f.name) for e in edges] for f in fields(Edge))

    @classmethod
    def from_columns(cls, mask, gate_id, slot, u, v, kind, w, w_hat, kappa, tau) -> "CutGraph":
        """A graph that keeps the given lists as its columns."""
        graph = cls.__new__(cls)
        vars(graph).update(mask=mask, gate_id=gate_id, slot=slot, u=u, v=v, kind=kind,
                           w=w, w_hat=w_hat, kappa=kappa, tau=tau)
        return graph

    @property
    def num_nodes(self) -> int:
        return len(self.mask)

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(map(Node, range(self.num_nodes), map(mask_qubits, self.mask),
                         self.gate_id, self.slot))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, self.u, self.v, self.kind, self.w, self.w_hat,
                         self.kappa, self.tau))


def build_cut_graph(circuit: CircuitIR) -> CutGraph:
    """Convert a circuit into its doubly-weighted cut graph.

    1-qubit gates are ignored. Each 2-qubit gate adds one node per operand wire
    and a space-like edge between them; consecutive nodes on a wire are joined
    by a time-like edge. Node ``2k + s`` is slot ``s`` of the k-th 2-qubit
    gate, and gate k adds, in edge order, the time edges into its slots 0
    and 1, then its space edge.
    """
    gate_ids = [i for i, qubits in enumerate(circuit.qubits) if len(qubits) == 2]
    wires = [q for i in gate_ids for q in circuit.qubits[i]]
    kinds = [circuit.kind[i] for i in gate_ids]
    # one weight lookup per gate kind, in order of first appearance
    table = [(CutKind.TIME, DEFAULT_WEIGHTS.time)]
    row = {}
    for kind in dict.fromkeys(kinds):
        row[kind] = len(table)
        table.append((CutKind.SPACE, DEFAULT_WEIGHTS.space_entry(kind)))

    wire = np.array(wires, dtype=np.int64)
    by_wire = np.argsort(wire, kind="stable")  # each wire's nodes in time order
    same = wire[by_wire[1:]] == wire[by_wire[:-1]]
    src, dst = by_wire[:-1][same], by_wire[1:][same]  # time edge src -> dst
    k = np.arange(len(gate_ids))
    # key 3k + s for the time edge into node 2k + s, 3k + 2 for gate k's space edge
    order = np.argsort(np.concatenate((dst + dst // 2, 3 * k + 2)))
    rows = np.concatenate((np.zeros(len(src), dtype=np.intp),
                           np.array([row[kind] for kind in kinds], dtype=np.intp)))
    columns = np.array([(kind, t.w, t.w_hat, t.kappa, t.tau) for kind, t in table],
                       dtype=object)[rows[order]].T.tolist()
    return CutGraph.from_columns(
        [1 << q for q in wires], [i for i in gate_ids for _ in (0, 1)], [0, 1] * len(gate_ids),
        np.concatenate((src, 2 * k))[order].tolist(),
        np.concatenate((dst, 2 * k + 1))[order].tolist(), *columns)


def merge_parallel_edges(u, v, w, w_hat):
    """Merge edges that join the same unordered pair of nodes.

    Takes the endpoint and weight sequences of the input edges. Returns the
    merged edges as lists ``u``, ``v``, ``w``, ``w_hat`` in ascending
    ``(u, v)`` order with ``u <= v``, and per input edge the index of the
    merged edge it went into. ``np.bincount`` adds the weights of each pair
    one at a time in input edge order, so every sum equals a running sum in
    edge order.
    """
    if not len(u):
        return [], [], [], [], []
    a = np.asarray(u, dtype=np.int64)
    b = np.asarray(v, dtype=np.int64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    n = int(hi.max()) + 1
    keys, slot = np.unique(lo * n + hi, return_inverse=True)
    w_sum, hat_sum = (np.bincount(slot, weights=x, minlength=len(keys)).tolist()
                      for x in (w, w_hat))
    return (keys // n).tolist(), (keys % n).tolist(), w_sum, hat_sum, slot.tolist()


def collapse(u, v, w, w_hat, mask, cluster_of):
    """Collapse each cluster (ids in ``cluster_of``, below the node count) into one node,
    numbered densely in ascending cluster id. Returns ``merge_parallel_edges`` of the
    relabelled edges, each new node's mask (its members' OR) and each old node's new id."""
    live = sorted(set(cluster_of))
    new_id = np.zeros(len(cluster_of), dtype=np.int64)
    new_id[live] = np.arange(len(live))
    label = new_id[cluster_of]
    cmask = [0] * len(cluster_of)
    for c, m in zip(cluster_of, mask):
        cmask[c] |= m
    return merge_parallel_edges(label[u], label[v], w, w_hat), [cmask[c] for c in live], label


def contract(graph: CutGraph, clustering: "Clustering") -> CutGraph:
    """Collapse each cluster into a supernode, summing both edge weights.

    Inter-cluster parallel edges merge into one edge per supernode pair;
    intra-cluster weight is kept as a self-loop. An aggregated edge keeps its
    kind when all constituents agree, otherwise it becomes ``MERGED``.
    Supernode ids are dense, in ascending order of the cluster ids they came
    from.
    """
    position = {c: i for i, c in enumerate(sorted(clustering.clusters))}
    cluster_of = [position[clustering.assignment[i]] for i in range(graph.num_nodes)]
    (u, v, w, w_hat, slot), mask, _ = collapse(graph.u, graph.v, graph.w, graph.w_hat,
                                               graph.mask, cluster_of)
    kappa = [1.0] * len(u)
    tau = [1.0] * len(u)
    kinds: list[set[CutKind]] = [set() for _ in u]
    for kind, k, t, j in zip(graph.kind, graph.kappa, graph.tau, slot):
        kappa[j] *= k
        tau[j] *= t
        kinds[j].add(kind)
    n = len(mask)
    return CutGraph.from_columns(
        mask, [None] * n, [None] * n, u, v,
        [ks.pop() if len(ks) == 1 else CutKind.MERGED for ks in kinds], w, w_hat, kappa, tau)


def to_dot(graph: CutGraph, clustering: "Clustering | None" = None) -> str:
    """Render the graph in DOT, one edge label per weight pair.

    Atomic nodes are named ``g<gateid>_<slot>``; supernodes ``n<id>``. When a
    clustering is given, nodes carry their cluster id as an attribute.
    """
    lines = ["graph cutgraph {"]
    for n in graph.nodes:
        attrs = [f'qubits="{",".join(str(q) for q in sorted(n.qubits))}"']
        if clustering is not None:
            attrs.append(f'cluster="{clustering.assignment[n.id]}"')
        lines.append(f'  {n.dot_name()} [{" ".join(attrs)}];')
    for e in graph.edges:
        nu = graph.nodes[e.u].dot_name()
        nv = graph.nodes[e.v].dot_name()
        label = f"w={e.w:.6f}, ŵ={e.w_hat:.6f}, {e.kind.value}"
        lines.append(f'  {nu} -- {nv} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
