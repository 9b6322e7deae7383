"""The third planner pass: whole clusters dissolved into adjacent ones.

``clustering._dissolve`` runs it on the plan ``run_pipeline`` takes, and
imports this module on first use, so importing ``cutplan`` compiles it only
for a plan.
"""

from __future__ import annotations

import math

from .clustering import EPS, AuditError, _Clusters, _Level
from .overhead import cut_sums, log_overheads, segment_counts


class _Dissolver(_Clusters):
    """Dissolution of whole clusters into adjacent ones, on the atomic level.

    Each round tries the live clusters in ascending (node count, id) order.
    A trial hands the cluster's nodes, breadth-first from its boundary, each
    to an adjacent cluster whose qubit mask stays within the cap: one that
    already holds the node's qubits if there is one, the one it has the
    most ``w`` to among those, and the lowest id on a tie. A node with no
    such cluster waits until another of its neighbours moves. The trial is
    scored with incremental cut sums and accepted when every node moved,
    the worst log overhead falls by more than ``EPS`` and, on an atomic
    level, no more clusters are segment-flagged. Rounds repeat until one
    accepts none.

    Two screens skip trials that cannot be accepted: a cluster whose qubits
    that no other cluster holds outnumber its neighbours' spare room, and,
    when no weight is negative, a trial whose unmoved nodes could lower the
    last receiving cluster's log overhead by at most their ``w`` to it plus
    their cut ``w_hat``, not enough to bring it below the running worst.
    """

    def __init__(self, level: _Level, labels: list[int], max_qubits: int, score,
                 segments: bool):
        self.level, self.max_qubits, self.segments = level, max_qubits, segments
        self.adj = level.adjacency[0]
        self.lq, _, self.r, (s_w, s_hat, self.hat_cut, cut) = score
        self.s_w, self.s_hat = list(s_w), list(s_hat)
        self.cluster_of = list(labels)
        self.members = members = [[] for _ in range(self.r)]
        self.cmask = cmask = [0] * self.r
        mask = level.mask
        for i, c in enumerate(labels):
            members[c].append(i)
            cmask[c] |= mask[i]
        #: per cluster, its ``w`` to each adjacent cluster and its nodes
        #: with a neighbour elsewhere, from the cut edges
        self.links = links = [{} for _ in range(self.r)]
        self.boundary = boundary = [set() for _ in range(self.r)]
        u, v, w = level.u, level.v, level.w
        for e in cut:
            a, b = u[e], v[e]
            ca, cb = labels[a], labels[b]
            near_a, near_b = links[ca], links[cb]
            near_a[cb] = near_a.get(cb, 0.0) + w[e]
            near_b[ca] = near_b.get(ca, 0.0) + w[e]
            boundary[ca].add(a)
            boundary[cb].add(b)
        #: the early stop of a trial holds for weights that are not negative
        self.screen = min(level.w, default=0.0) >= 0.0 and min(level.w_hat, default=0.0) >= 0.0
        self.flagged = None  # the count of segment-flagged clusters, once a trial needs it

    def run(self, audit: bool) -> int:
        """All rounds; returns the number of clusters dissolved."""
        dissolved = 0
        while True:
            self._rank()
            accepted = 0
            for c in sorted(self.ranked, key=lambda c: (len(self.members[c]), c)):
                if self.r > 1 and self.members[c] and self._try(c):
                    accepted += 1
                    self._rank()
                    if audit:
                        self._check()
            if not accepted:
                return dissolved
            dissolved += accepted

    def _rank(self) -> None:
        """The live clusters by ``s_w - s_hat``, best first (a trial's
        untouched clusters keep their cut sums, so their worst is the first
        of these it leaves alone), and each one's others' qubit union."""
        live = self.live()
        self.ranked = sorted(live, key=lambda c: self.s_w[c] - self.s_hat[c], reverse=True)
        union = [0]
        for c in reversed(live):
            union.append(union[-1] | self.cmask[c])
        before = 0
        self.others = {}
        for k, c in enumerate(live):
            self.others[c] = before | union[len(live) - 1 - k]
            before |= self.cmask[c]

    def _try(self, c: int) -> bool:
        """One trial of dissolving cluster ``c``; applies it and returns True
        if it is accepted, else leaves every list as it was."""
        adj, mask = self.adj, self.level.mask
        cap, cluster_of, cmask = self.max_qubits, self.cluster_of, self.cmask
        s_w, s_hat = self.s_w, self.s_hat
        nodes = self.members[c]
        near = dict(self.links[c])  # w between c's unmoved nodes and each cluster
        alone = (cmask[c] & ~self.others[c]).bit_count()
        if alone and alone > sum(cap - cmask[t].bit_count() for t in near):
            return False
        queue = sorted(self.boundary[c])
        ln_r = math.log(self.r - 1)
        queued = set(queue)
        grown: dict[int, int] = {}  # the receiving clusters' qubit masks
        sums: dict[int, tuple[float, float]] = {}  # and their (s_w, s_hat)
        hat_cut, rest_hat = self.hat_cut, s_hat[c]
        moved = []
        for i in queue:  # grows while it is read
            queued.discard(i)
            nb_w: dict[int, float] = {}
            in_w = in_hat = out_w = out_hat = 0.0
            for j, w, w_hat in adj[i]:
                cj = cluster_of[j]
                if cj == c:
                    in_w += w
                    in_hat += w_hat
                else:
                    out_w += w
                    out_hat += w_hat
                    nb_w[cj] = nb_w.get(cj, 0.0) + w
            mask_i = mask[i]
            # a cluster that already holds the node's qubits first, then the
            # most w, then the lowest id
            best, best_w, best_held = -1, -math.inf, False
            for t, w in nb_w.items():
                m = grown.get(t, cmask[t])
                held = m | mask_i == m
                if not held and (m | mask_i).bit_count() > cap:
                    continue
                if (held > best_held or held == best_held
                        and (w > best_w or w == best_w and t < best)):
                    best, best_w, best_held = t, w, held
            if best < 0:
                continue
            to_hat = 0.0
            for j, _, w_hat in adj[i]:
                if cluster_of[j] == best:
                    to_hat += w_hat
            a, b = sums.get(best) or (s_w[best], s_hat[best])
            a += out_w + in_w - 2.0 * best_w
            b += out_hat + in_hat - 2.0 * to_hat
            sums[best] = a, b
            hat_cut += in_hat - to_hat
            rest_hat += in_hat - out_hat
            for t, w in nb_w.items():
                near[t] -= w
            near[best] += in_w
            grown[best] = grown.get(best, cmask[best]) | mask_i
            cluster_of[i] = best
            moved.append((i, best))
            if self.screen and ln_r + hat_cut + (a - b) - near[best] - rest_hat >= self.lq:
                break
            for j, _, _ in adj[i]:
                if cluster_of[j] == c and j not in queued:
                    queued.add(j)
                    queue.append(j)
        lq = math.inf
        if len(moved) == len(nodes):
            worst = max(a - b for a, b in sums.values())
            rest = next((x for x in self.ranked if x != c and x not in sums), None)
            if rest is not None:
                worst = max(worst, s_w[rest] - s_hat[rest])
            lq = ln_r + hat_cut + worst
        flagged = self.flagged
        if lq < self.lq - EPS and self.segments:
            if flagged is None:  # counted on the state before the trial
                for i, _ in moved:
                    cluster_of[i] = c
                flagged = self.flagged = self._flagged(cmask.__getitem__)
                for i, t in moved:
                    cluster_of[i] = t
            after = self._flagged(lambda x: grown.get(x, cmask[x]))
            if after > flagged:
                lq = math.inf
            flagged = after
        if not lq < self.lq - EPS:
            for i, _ in moved:
                cluster_of[i] = c
            return False
        self.members[c] = []
        for i, t in moved:
            self.members[t].append(i)
        for t, (a, b) in sums.items():
            s_w[t], s_hat[t], cmask[t] = a, b, grown[t]
        self.lq, self.r, self.hat_cut, self.flagged = lq, self.r - 1, hat_cut, flagged
        for x in self.links[c]:  # c's neighbours, the receivers among them
            self._link(x)
        self.links[c], self.boundary[c] = {}, set()
        return True

    def _flagged(self, qubits) -> int:
        """The count of clusters that own more wire segments than qubits,
        ``qubits(c)`` being cluster c's qubit mask."""
        segments = segment_counts(self.level.mask, self.cluster_of)
        return sum(n > qubits(c).bit_count() for c, n in segments.items())

    def _link(self, c: int) -> None:
        """``links`` and ``boundary`` of cluster ``c``, from its members."""
        adj, cluster_of = self.adj, self.cluster_of
        links: dict[int, float] = {}
        boundary = set()
        for i in self.members[c]:
            for j, w, _ in adj[i]:
                cj = cluster_of[j]
                if cj != c:
                    links[cj] = links.get(cj, 0.0) + w
                    boundary.add(i)
        self.links[c], self.boundary[c] = links, boundary

    def _check(self) -> None:
        """Audit after an accepted dissolution: the clusters and the running
        worst log overhead, recounted from the nodes and the edges."""
        self._check_clusters()
        s_w, s_hat, _, hat_cut, _ = cut_sums(self.level, self.cluster_of)
        ln_i, worst = log_overheads(s_w, s_hat, hat_cut, self.live())
        if not abs(ln_i[worst] - self.lq) < 1e-6:
            raise AuditError(f"dissolution screened lq {self.lq!r}, recount {ln_i[worst]!r}")
