"""Two-stage qubit-constrained partitioner.

Stage 1 greedily maximizes weighted modularity (local node moves followed by
graph contraction, repeated until no move improves), never letting a cluster's
qubit union exceed the device cap. Heavy edges, whose cuts would be expensive,
end up inside clusters.

Stage 2 starts from the stage-1 supernodes and keeps moving nodes between
clusters whenever doing so lowers the worst per-cluster log overhead

    log_overhead(c) = ln R + sum_{cut edges attached to c} w
                           + sum_{cut edges elsewhere} w_hat

subject to the same qubit cap. The number of clusters R is an output of the
process, not an input.

The wire partition is then scored as one more candidate: nodes with equal
qubit masks share a cluster (on an atomic graph, one cluster per wire, every
gate cut), which fits the cap because every node does. It is taken only
when its worst log overhead is lower than the two-stage plan's by more than
the tolerance, and on a tie the two-stage plan stays, so no plan is worse
than the two-stage one. A third pass then dissolves whole clusters of the
plan taken into adjacent ones (``dissolution._Dissolver``) and keeps its
result only when the worst log overhead is lower. The step-2 row names the candidate
taken, the wire partition's worst log overhead and the clusters dissolved.

Both move engines skip visits whose outcome is already known, and count
them as if they had been made. A stage-1 visit reads only the clusters of its
node and of its neighbours, with their ``sigma`` and qubit masks, so a node
stays clean until a move from cluster A to cluster B marks the mover, every
member of A and B and every neighbour of those members; a clean node's visit
adds its last evaluation's count of cap-feasible candidates to
``gain_evals``. A stage-2 visit reads the global running ``lq``, R and
residual cut weight, so a sweep that repeats the previous sweep's visit list
ends once it has passed, without a move, the previous sweep's last mover,
and adds the evaluations the previous sweep counted after that move; it also
skips a node none of whose neighbours lies in another cluster, which has no
candidate. Plans, stage rows and ``gain_evals`` are those of sweeps that
evaluate every node.

All move acceptance uses an absolute tolerance of 1e-9 for comparing gains and
log-overhead values.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from ._checks import _integer
from .graph import CutGraph, collapse, mask_qubits, qubit_mask
from .overhead import cut_sums, log_overheads

EPS = 1e-9


class InfeasibleCapError(Exception):
    """The qubit cap is below 1, or a single node already carries more
    qubits than the cap allows."""


# ---------------------------------------------------------------------------
# clustering value type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cluster:
    nodes: frozenset[int]
    qubits: frozenset[int]


@dataclass(frozen=True)
class Clustering:
    """Assignment of every graph node to exactly one cluster."""

    assignment: dict[int, int]
    clusters: dict[int, Cluster]
    max_qubits: int

    @classmethod
    def from_assignment(cls, graph: CutGraph, assignment: dict[int, int],
                        max_qubits: int) -> "Clustering":
        members: dict[int, set[int]] = {}
        masks: dict[int, int] = {}
        mask = graph.mask
        for node, c in assignment.items():
            group = members.get(c)
            if group is None:  # no empty set built per node
                members[c] = {node}
                masks[c] = mask[node]
            else:
                group.add(node)
                masks[c] |= mask[node]
        clusters = {c: Cluster(frozenset(nodes), mask_qubits(masks[c]))
                    for c, nodes in members.items()}
        return cls(dict(assignment), clusters, max_qubits)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def validate(self, graph: CutGraph) -> None:
        """Raise ``ValueError`` unless the clusters partition the graph's
        nodes, each cluster's qubits are its members' union and no cluster
        holds more qubits than the cap."""
        if set(self.assignment) != set(range(graph.num_nodes)):
            raise ValueError("assignment does not cover the graph's nodes")
        for c, cluster in self.clusters.items():
            if not cluster.nodes:
                raise ValueError(f"empty cluster {c}")
            union = 0
            for n in cluster.nodes:
                if self.assignment.get(n) != c:
                    raise ValueError(f"node {n} of cluster {c} is assigned to "
                                     f"{self.assignment.get(n)}")
                union |= graph.mask[n]
            if union != qubit_mask(cluster.qubits):
                raise ValueError(f"cluster {c} lists qubits other than its members'")
            if len(cluster.qubits) > self.max_qubits:
                raise ValueError(f"cluster {c} holds {len(cluster.qubits)} qubits, "
                                 f"cap {self.max_qubits}")
        # members sit in the cluster they are assigned to, so listing every
        # node also means that every assigned cluster is listed
        listed = sum(len(cluster.nodes) for cluster in self.clusters.values())
        if listed != graph.num_nodes:
            raise ValueError(f"the clusters list {listed} of {graph.num_nodes} nodes")

    def to_json_dict(self) -> dict:
        return {
            "assignment": {str(n): c for n, c in sorted(self.assignment.items())},
            "clusters": {
                str(c): {"nodes": sorted(cl.nodes), "qubits": sorted(cl.qubits)}
                for c, cl in sorted(self.clusters.items())
            },
            "max_qubits": self.max_qubits,
        }


# ---------------------------------------------------------------------------
# move engine internals
# ---------------------------------------------------------------------------

class AuditError(RuntimeError):
    """An audit-mode check found the move engine's bookkeeping inconsistent."""


@dataclass
class _Level:
    """One graph level of the multi-level loop, as flat lists: the edges in
    the level's edge order (``u == v`` marks a self-loop) and one qubit
    bitmask per node."""

    u: list[int]
    v: list[int]
    w: list[float]
    w_hat: list[float]
    mask: list[int]

    @classmethod
    def from_graph(cls, graph: CutGraph) -> "_Level":
        """The graph's own columns, shared, not copied."""
        return cls(graph.u, graph.v, graph.w, graph.w_hat, graph.mask)

    def contracted(self, cluster_of: list[int]) -> tuple["_Level", np.ndarray]:
        """``graph.collapse`` of this level: the new level and the new node
        id of every node of this one."""
        (u, v, w, w_hat, _), mask, label = collapse(self.u, self.v, self.w, self.w_hat,
                                                    self.mask, cluster_of)
        return _Level(u, v, w, w_hat, mask), label

    @cached_property
    def adjacency(self) -> tuple[list[list[tuple[int, float, float]]], list[float]]:
        """Per node, its ``(neighbour, w, w_hat)`` in edge order, self-loops
        left out, and ``k``, its attached weight with self-loops counted
        twice. Built once per level and shared, read-only, by every engine
        that runs on it: on the atomic level, stage 1's first and stage 2's
        last."""
        n = len(self.mask)
        adj: list[list[tuple[int, float, float]]] = [[] for _ in range(n)]
        self_w = [0.0] * n
        attached = [0.0] * n
        for a, b, w, w_hat in zip(self.u, self.v, self.w, self.w_hat):
            if a == b:
                self_w[a] += w
            else:
                adj[a].append((b, w, w_hat))
                adj[b].append((a, w, w_hat))
                attached[a] += w
                attached[b] += w
        return adj, [2.0 * s + x for s, x in zip(self_w, attached)]

    @cached_property
    def weighted_order(self) -> list[int]:
        # descending k; the stable sort keeps equal k in ascending node id.
        # One list per level, shared by the engines that run on it
        k = self.adjacency[1]
        return sorted(range(len(k)), key=k.__getitem__, reverse=True)


class _Clusters:
    """Clusters of one graph level: ``level``, ``max_qubits``, each node's
    ``cluster_of``, per cluster id its ``members`` and qubit mask ``cmask``,
    and ``r``, the number of nonempty clusters."""

    def live(self) -> list[int]:
        return [c for c, nodes in enumerate(self.members) if nodes]

    def _check_clusters(self) -> None:
        """Membership, qubit masks and the cap, recomputed from the nodes."""
        mask = self.level.mask
        seen = 0
        for c in self.live():
            union = 0
            for i in self.members[c]:
                if self.cluster_of[i] != c:
                    raise AuditError(f"node {i} listed in cluster {c}, assigned "
                                     f"to {self.cluster_of[i]}")
                union |= mask[i]
            seen += len(self.members[c])
            if union != self.cmask[c]:
                raise AuditError(f"qubit mask of cluster {c} differs from its members'")
            if union.bit_count() > self.max_qubits:
                raise AuditError(f"cluster {c} holds {union.bit_count()} qubits, "
                                 f"cap {self.max_qubits}")
        if seen != len(self.cluster_of) or self.r != len(self.live()):
            raise AuditError("clusters do not partition the level's nodes")


class _LevelState(_Clusters):
    """Mutable clustering bookkeeping for one graph level.

    Cluster ids are below the level's node count, so per-cluster state lives
    in lists indexed by cluster id; entries of emptied clusters go stale and
    are never read again, since candidates come from neighbours' clusters.
    """

    def __init__(self, level: _Level, max_qubits: int,
                 cluster_of: list[int] | None = None):
        self.level = level
        self.max_qubits = max_qubits
        n = len(level.mask)
        self.adj, self.k = level.adjacency
        self.cluster_of = list(range(n)) if cluster_of is None else cluster_of
        self.members: list[set[int]] = [set() for _ in range(n)]
        self.cmask = [0] * n
        for i, c in enumerate(self.cluster_of):
            self.members[c].add(i)
            self.cmask[c] |= level.mask[i]
        self.r = len(self.live())

    def relocate(self, i: int, c_from: int, c_to: int) -> None:
        mask = self.level.mask
        source = self.members[c_from]
        source.discard(i)
        self.members[c_to].add(i)
        self.cmask[c_to] |= mask[i]
        self.cluster_of[i] = c_to
        union = 0
        for j in source:
            union |= mask[j]
        self.cmask[c_from] = union
        if not source:
            self.r -= 1

    def visit_order(self, rng: np.random.Generator | None) -> list[int]:
        """The level's weighted order, or a random one drawn from ``rng``."""
        if rng is None:
            return self.level.weighted_order
        return [int(i) for i in rng.permutation(len(self.k))]


@dataclass
class StageStats:
    moves: int = 0
    passes: int = 0
    gain_evals: int = 0
    lq_trace: list[float] = field(default_factory=list)

    def merge(self, other: "StageStats") -> None:
        self.moves += other.moves
        self.passes += other.passes
        self.gain_evals += other.gain_evals
        self.lq_trace.extend(other.lq_trace)


class _ModularityEngine(_LevelState):
    """Stage-1 local move rule: accept the best strictly positive gain in
    modularity.

    ``m`` is the level's total edge weight (self-loops once), ``k[i]`` the
    weight attached to node i (self-loops twice) and ``sigma[c]`` the weight
    attached to cluster c's members. Moving i from cluster f to cluster t,
    with ``k_i_f`` and ``k_i_t`` its weight to the other members of each,
    changes modularity by

        -k_i_f / m + k_i (sigma[f] - k_i) / 2m^2 + k_i_t / m - k_i sigma[t] / 2m^2
    """

    def __init__(self, level, max_qubits, cluster_of=None, audit=False):
        super().__init__(level, max_qubits, cluster_of)
        self.audit = audit
        self.m = sum(level.w)
        self.sigma = [0.0] * len(self.k)
        for i, c in enumerate(self.cluster_of):
            self.sigma[c] += self.k[i]
        self.stats = StageStats()
        #: a clean node's visit would repeat its last evaluation, whose count
        #: of cap-feasible candidates is ``feasible[i]``
        self.dirty = [True] * len(self.k)
        self.feasible = [0] * len(self.k)
        if audit:
            self._audit_q = self._checked_modularity()

    def sweep(self, visit: list[int]) -> int:
        moves = 0
        m = self.m
        two_m2 = 2.0 * m * m
        cap = self.max_qubits
        mask = self.level.mask
        cmask = self.cmask
        sigma = self.sigma
        cluster_of = self.cluster_of
        members = self.members
        dirty, feasible = self.dirty, self.feasible
        adj, k = self.adj, self.k
        evals = 0
        for i in visit:
            if not dirty[i]:
                evals += feasible[i]
                continue
            dirty[i] = False
            nb_w: dict[int, float] = {}
            for j, w, _ in adj[i]:
                c = cluster_of[j]
                nb_w[c] = nb_w.get(c, 0.0) + w
            c_from = cluster_of[i]
            k_i_cfrom = nb_w.pop(c_from, 0.0)
            if not nb_w:
                feasible[i] = 0
                continue  # no neighbour in another cluster: no candidate
            k_i = k[i]
            mask_i = mask[i]
            remove = -k_i_cfrom / m + k_i * (sigma[c_from] - k_i) / two_m2
            best_dq = 0.0
            best = c_from
            n_feasible = 0
            for c_to in (sorted(nb_w) if len(nb_w) > 1 else nb_w):
                if (cmask[c_to] | mask_i).bit_count() > cap:
                    continue
                n_feasible += 1
                gain = remove + nb_w[c_to] / m - k_i * sigma[c_to] / two_m2
                if gain > best_dq + EPS:
                    best_dq = gain
                    best = c_to
            evals += n_feasible
            feasible[i] = n_feasible
            if best != c_from:
                sigma[c_from] -= k_i
                sigma[best] += k_i
                self.relocate(i, c_from, best)
                moves += 1
                # a visit reads the clusters of its node and of its
                # neighbours; mark every node that reads either cluster
                for c in (c_from, best):
                    for j in members[c]:
                        dirty[j] = True
                        for jj, _, _ in adj[j]:
                            dirty[jj] = True
                if self.audit:
                    self._check_state(best_dq)
        self.stats.moves += moves
        self.stats.gain_evals += evals
        return moves

    def _check_state(self, gain: float) -> None:
        """The gain of the move just accepted must equal the change of
        modularity recomputed from the edges."""
        q = self._checked_modularity()
        if not abs(q - self._audit_q - gain) < 1e-9:
            raise AuditError(f"accepted gain {gain!r}, but Q changed by "
                             f"{q - self._audit_q!r}")
        self._audit_q = q

    def _checked_modularity(self) -> float:
        """Modularity recomputed from the edges, after checking the clusters
        and each cluster's sigma against both its members' ``k`` and the
        edges' recount of twice its intra weight plus its boundary weight."""
        self._check_clusters()
        level, cluster_of = self.level, self.cluster_of
        intra = [0.0] * len(cluster_of)
        boundary = [0.0] * len(cluster_of)
        for a, b, w in zip(level.u, level.v, level.w):
            ca, cb = cluster_of[a], cluster_of[b]
            if ca == cb:
                intra[ca] += w
            else:
                boundary[ca] += w
                boundary[cb] += w
        m = sum(level.w)
        q = 0.0
        for c in self.live():
            if not abs(self.sigma[c] - sum(self.k[i] for i in self.members[c])) < 1e-6:
                raise AuditError(f"sigma drift on cluster {c}")
            # attached weight decomposes into twice-intra plus boundary
            sig = 2.0 * intra[c] + boundary[c]
            if not abs(self.sigma[c] - sig) < 1e-6:
                raise AuditError(f"boundary drift on cluster {c}")
            q += intra[c] / m - (sig / (2.0 * m)) ** 2
        return q


class _LogOverheadEngine(_LevelState):
    """Stage-2 move rule: accept moves that lower (or tie with less cut
    weight) the running worst-cluster log overhead."""

    def __init__(self, level, max_qubits, cluster_of=None, audit=False):
        super().__init__(level, max_qubits, cluster_of)
        self.audit = audit
        self.s_w, self.s_hat, _, self.hat_cut, _ = cut_sums(level, self.cluster_of)
        ln_i, worst = log_overheads(self.s_w, self.s_hat, self.hat_cut, self.live())
        #: the running worst log overhead; its start value opens the level's trace
        self.lq = ln_i[worst]
        self.stats = StageStats(lq_trace=[self.lq])
        #: per node, its adjacency entries whose endpoint lies in another cluster
        self.outside = self._outside_counts()
        #: the last sweep's visit list, the position after its last move and
        #: the evaluations it counted from there on
        self._last = (None, 0, 0)

    def sweep(self, visit: list[int]) -> int:
        moves = 0
        lq = self.lq
        cap = self.max_qubits
        mask = self.level.mask
        cmask = self.cmask
        cluster_of = self.cluster_of
        s_w, s_hat = self.s_w, self.s_hat
        adj, outside = self.adj, self.outside
        evals = 0
        # every node after the last sweep's last move saw the state this sweep
        # starts in; once a repeat of that list has reached that point without
        # moving, all nodes have seen the state, and the rest would repeat
        last_visit, stop, tail_evals = self._last
        if visit is not last_visit:
            stop = -1
        last_pos, evals_at_last = -1, 0
        for pos, i in enumerate(visit):
            if pos == stop and not moves:
                evals += tail_evals
                break
            if not outside[i]:
                continue  # every neighbour in its own cluster: no candidate
            c_from = cluster_of[i]
            nb_w: dict[int, float] = {}
            nb_hat: dict[int, float] = {}
            for j, w, w_hat in adj[i]:
                c = cluster_of[j]
                nb_w[c] = nb_w.get(c, 0.0) + w
                nb_hat[c] = nb_hat.get(c, 0.0) + w_hat
            in_w = nb_w.pop(c_from, 0.0)
            in_hat = nb_hat.pop(c_from, 0.0)
            kout_w = sum(nb_w.values())
            kout_hat = sum(nb_hat.values())
            mask_i = mask[i]
            singleton = len(self.members[c_from]) == 1
            best = c_from
            # a neighbour elsewhere means at least two clusters, so r - 1 >= 1
            ln_r = math.log(self.r)
            ln_r_after = math.log(self.r - 1) if singleton else ln_r
            hat_cut = self.hat_cut
            for c_to in (sorted(nb_w) if len(nb_w) > 1 else nb_w):
                if (cmask[c_to] | mask_i).bit_count() > cap:
                    continue
                evals += 1
                to_w, to_hat = nb_w[c_to], nb_hat[c_to]
                hat_cut_after = hat_cut + in_hat - to_hat
                if not singleton:
                    # source cluster must not become the new bottleneck
                    sw_src = s_w[c_from] - kout_w + in_w
                    shat_src = s_hat[c_from] - kout_hat + in_hat
                    src = ln_r + sw_src + (hat_cut_after - shat_src)
                    if src > lq + EPS:
                        continue
                sw_dst = s_w[c_to] - 2.0 * to_w + kout_w + in_w
                shat_dst = s_hat[c_to] - 2.0 * to_hat + kout_hat + in_hat
                dst = ln_r_after + sw_dst + (hat_cut_after - shat_dst)
                dw = in_w - to_w
                if dst < lq - EPS:
                    lq = dst
                    best = c_to
                elif abs(dst - lq) <= EPS and dw < -EPS:
                    best = c_to
            if best != c_from:
                to_w, to_hat = nb_w[best], nb_hat[best]
                s_w[c_from] += in_w - kout_w
                s_hat[c_from] += in_hat - kout_hat
                s_w[best] += kout_w + in_w - 2.0 * to_w
                s_hat[best] += kout_hat + in_hat - 2.0 * to_hat
                self.hat_cut += in_hat - to_hat
                for j, _, _ in adj[i]:
                    c = cluster_of[j]
                    if c == c_from:
                        outside[i] += 1
                        outside[j] += 1
                    elif c == best:
                        outside[i] -= 1
                        outside[j] -= 1
                self.relocate(i, c_from, best)
                moves += 1
                last_pos, evals_at_last = pos, evals
                if self.audit:
                    self._check_state()
        self._last = (visit, last_pos + 1, evals - evals_at_last)
        self.lq = lq
        self.stats.moves += moves
        self.stats.gain_evals += evals
        return moves

    def _outside_counts(self) -> list[int]:
        cluster_of = self.cluster_of
        outside = [0] * len(cluster_of)
        for a, b in zip(self.level.u, self.level.v):
            if cluster_of[a] != cluster_of[b]:
                outside[a] += 1
                outside[b] += 1
        return outside

    def _check_state(self) -> None:
        self._check_clusters()
        if self.outside != self._outside_counts():
            raise AuditError("outside-neighbour counts differ from a recount")
        s_w, s_hat, _, hat_cut, _ = cut_sums(self.level, self.cluster_of)
        if not abs(self.hat_cut - hat_cut) < 1e-6:
            raise AuditError("residual cut weight drift")
        for c in self.live():
            if not (abs(self.s_w[c] - s_w[c]) < 1e-6 and abs(self.s_hat[c] - s_hat[c]) < 1e-6):
                raise AuditError(f"cut sum drift on cluster {c}")


# ---------------------------------------------------------------------------
# multi-level drivers
# ---------------------------------------------------------------------------

def _run_levels(level: _Level, max_qubits: int, engine_cls,
                rng: np.random.Generator | None, audit: bool,
                start: list[int] | None = None):
    """Repeat (local moves until stable, then contract) until a level is quiet.

    Starts from singletons, or from the dense cluster labels ``start`` (left
    unchanged); sweeps visit in ``visit_order(rng)``. Returns the cluster
    label of every node of ``level`` and the stage statistics; labels are
    the quiet level's cluster ids, which are dense.
    """
    node_map = np.arange(len(level.mask))  # current-level node of every node
    cluster_of = None if start is None else list(start)
    stats = StageStats()
    while True:
        engine = engine_cls(level, max_qubits, cluster_of, audit=audit)
        stats.passes += 1
        level_moves = 0
        while True:
            moved = engine.sweep(engine.visit_order(rng))
            level_moves += moved
            if moved == 0:
                break
        stats.merge(engine.stats)
        if level_moves == 0:
            break
        level, label = level.contracted(engine.cluster_of)
        node_map = label[node_map]
        cluster_of = None
    return [engine.cluster_of[cur] for cur in node_map.tolist()], stats


def _check_cap(max_qubits) -> int:
    """Every planner entry point's check of the cap; returns it as an ``int``."""
    max_qubits = _integer("the qubit cap", max_qubits)
    if max_qubits < 1:
        raise InfeasibleCapError(f"the qubit cap {max_qubits} is below 1")
    return max_qubits


def _step1(graph: CutGraph, max_qubits: int, audit: bool):
    """The cap check, the graph's one ``_Level`` and its stage-1 labels."""
    for i, mask in enumerate(graph.mask):
        if mask.bit_count() > max_qubits:
            raise InfeasibleCapError(
                f"node {i} spans {mask.bit_count()} qubits; cap is {max_qubits}")
    level = _Level.from_graph(graph)
    if sum(level.w) <= 0:  # no weight to cluster by: singletons
        return level, list(range(len(level.mask))), StageStats()
    labels, stats = _run_levels(level, max_qubits, _ModularityEngine, None, audit)
    return level, labels, stats


def step1_modularity(graph: CutGraph, max_qubits: int, audit: bool = False) -> Clustering:
    """Qubit-capped modularity clustering (stage 1)."""
    max_qubits = _check_cap(max_qubits)
    _, labels, _ = _step1(graph, max_qubits, audit)
    return Clustering.from_assignment(graph, dict(enumerate(labels)), max_qubits)


def _refine(level: _Level, max_qubits: int, rng, audit, start: list[int]):
    """Stage-2 labels of the nodes of ``level`` from the dense labels
    ``start``, never with a higher worst log overhead than the start's."""
    labels, stats = _run_levels(level, max_qubits, _LogOverheadEngine, rng, audit, start)
    # moves are only accepted against the running bound, yet a move can shift
    # the residual w_hat cost of untouched clusters; keep the start when that
    # drift makes things worse. The trace opens with the start's worst log
    # overhead and closes with the result's: the quiet last level opens on
    # the final clusters.
    if stats.lq_trace[-1] > stats.lq_trace[0] + EPS:
        return start, stats
    return labels, stats


def _step2(atomic: _Level, labels1: list[int], max_qubits: int, rng, audit):
    """Stage 2 from the stage-1 labels ``labels1``, on the supernodes and then
    on the atomic level: the labels, numbered by first appearance, i.e. by
    smallest member node id, and the stage statistics."""
    labels, stats = labels1, StageStats()
    if labels1:
        supernodes, _ = atomic.contracted(labels1)
        super_labels, stats = _refine(supernodes, max_qubits, rng, audit,
                                      list(range(len(supernodes.mask))))
        labels, atomic_stats = _refine(atomic, max_qubits, rng, audit,
                                       [super_labels[c] for c in labels1])
        stats.merge(atomic_stats)
    first: dict[int, int] = {}
    return [first.setdefault(c, len(first)) for c in labels], stats


def _dissolve(level: _Level, labels: list[int], max_qubits: int, score, segments: bool,
              audit: bool):
    """The third pass: ``_Dissolver`` on the dense labels ``labels``, whose
    ``_score`` is ``score``; ``segments`` says the level is atomic, so that
    ``overhead.segment_counts`` applies. Returns the labels, numbered by
    first appearance, the number of clusters dissolved and the labels'
    ``_score``. The result is re-scored once from the edges; unless that
    score is lower than ``score`` by more than ``EPS``, the start, 0 and
    ``score`` are returned, so float drift never makes a plan worse."""
    # imported here: only a plan needs the pass, and importing cutplan for
    # anything else then compiles none of it
    from .dissolution import _Dissolver

    state = _Dissolver(level, labels, max_qubits, score, segments)
    dissolved = state.run(audit)
    if not dissolved:
        return labels, 0, score
    first: dict[int, int] = {}
    result = [first.setdefault(c, len(first)) for c in state.cluster_of]
    new_score = _score(level, result)
    if not new_score[0] < score[0] - EPS:
        return labels, 0, score
    return result, dissolved, new_score


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageMetrics:
    stage: str
    lq: float
    ld: float
    r: int
    moves: int
    passes: int
    wall_time_s: float
    gain_evals: int
    lq_trace: tuple[float, ...] = ()
    #: the step-2 row only: the candidate taken, ``"stages"`` or
    #: ``"wires"``, the wire partition's worst log overhead and the number
    #: of clusters that ``_dissolve`` then dissolved
    returned: str | None = None
    wire_lq: float | None = None
    dissolved: int | None = None

    def to_json_dict(self) -> dict:
        payload = dict(asdict(self), wall_time_s=round(self.wall_time_s, 4),
                       lq_trace=list(self.lq_trace))
        return {key: value for key, value in payload.items() if value is not None}


@dataclass(frozen=True)
class PipelineResult:
    clustering: Clustering
    stages: tuple[StageMetrics, ...]

    @property
    def lq(self) -> float:
        return self.stages[-1].lq

    @property
    def r(self) -> int:
        return self.stages[-1].r


def run_pipeline(graph: CutGraph, max_qubits: int, restarts: int = 1,
                 seed: int | None = None, audit: bool = False) -> PipelineResult:
    """Full partitioner: stage 1, contraction, stage 2, atomic refinement,
    then the wire partition as one more candidate, then dissolution.

    Stage 1 runs once, in the weighted order, on the graph's ``_Level``. The
    supernode merging of stage 2 cannot split stage-1 clusters, so a final
    stage-2 refinement on the atomic level polishes the boundary. The wire
    partition, nodes with equal qubit masks in one cluster, is taken instead
    when its worst log overhead is lower by more than ``EPS``, so no plan is
    worse than the two-stage one. ``_dissolve`` then hands whole clusters of
    the plan taken to their neighbours where that lowers its worst log
    overhead. Of ``restarts`` such runs from the stage-1 labels, the first
    sweeps stage 2 in the weighted order and each later one in random
    orders, from a generator spawned from ``SeedSequence(seed)`` when it
    starts; the run whose returned plan has the lowest worst log overhead is
    kept, the first on a tie. The step-2 row scores the plan returned.
    """
    max_qubits = _check_cap(max_qubits)
    restarts = _integer("restarts", restarts, 1)
    if seed is not None:
        seed = _integer("seed", seed, 0)
    t0 = time.perf_counter()
    atomic, labels1, st1 = _step1(graph, max_qubits, audit)
    step1 = _stage_metrics("step1", _score(atomic, labels1), st1, time.perf_counter() - t0)
    # one cluster per wire fits the cap, since every node does (stage 1
    # checked); the numbering is by first appearance, as for the stages
    first: dict[int, int] = {}
    wires = [first.setdefault(mask, len(first)) for mask in graph.mask]
    wire_score = _score(graph, wires)
    seeds = np.random.SeedSequence(seed)
    best = None
    for run in range(restarts):
        t0 = time.perf_counter()
        rng = np.random.default_rng(seeds.spawn(1)[0]) if run else None
        labels, stats = _step2(atomic, labels1, max_qubits, rng, audit)
        score = _score(atomic, labels)
        returned = "stages"
        if wire_score[0] < score[0] - EPS:
            labels, score, returned = wires, wire_score, "wires"
        dissolved = 0
        if labels:
            labels, dissolved, score = _dissolve(atomic, labels, max_qubits, score,
                                                 None not in graph.gate_id, audit)
        row = replace(_stage_metrics("step2", score, stats, time.perf_counter() - t0),
                      returned=returned, wire_lq=wire_score[0], dissolved=dissolved)
        if best is None or row.lq < best[0].lq - EPS:
            best = row, labels
    step2, labels = best
    clustering = Clustering.from_assignment(graph, dict(enumerate(labels)), max_qubits)
    return PipelineResult(clustering=clustering, stages=(step1, step2))


def _score(level, labels: list[int]):
    """``lq``, the worst log overhead, ``ld``, the attached cut weight of the
    cluster attaining it, ``R`` and the cut sums ``(s_w, s_hat, hat_cut)``
    of the dense node labels ``labels``, from the level's ``cut_sums``."""
    clusters = sorted(set(labels))
    if not clusters:
        return 0.0, 0.0, 1, ([], [], 0.0, [])  # a circuit with nothing to cut is one partition
    s_w, s_hat, _, hat_cut, cut = cut_sums(level, labels)
    ln_i, worst = log_overheads(s_w, s_hat, hat_cut, clusters)
    return ln_i[worst], s_w[clusters[worst]], len(clusters), (s_w, s_hat, hat_cut, cut)


def _stage_metrics(name, score, stats: StageStats, elapsed) -> StageMetrics:
    """A stage's row, with the ``lq``, ``ld`` and ``R`` of its ``_score``."""
    lq, ld, r, _ = score
    return StageMetrics(
        stage=name,
        lq=lq,
        ld=ld,
        r=r,
        moves=stats.moves,
        passes=stats.passes,
        wall_time_s=elapsed,
        gain_evals=stats.gain_evals,
        lq_trace=tuple(stats.lq_trace),
    )
