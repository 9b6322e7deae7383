import math
import re

import numpy as np
import pytest

from cutplan.clustering import Cluster, Clustering
from cutplan.cutsim import GateCut, cut_estimate, exact_moments, pauli_z_observable
from cutplan.fixtures import chain3, ising_chain
from cutplan.graph import CutGraph, CutKind, Node, build_cut_graph
from cutplan.overhead import (build_report, cubic_bound, partition_budgets,
                              partition_shots, prior_bound, segment_flags)
from cutplan.clustering import run_pipeline
from cutplan.qasm import CircuitIR, GateApp

from conftest import (log_overhead_oracle, make_edge, max_log_overhead_oracle,
                      random_clustering, random_graph)

LN2, LN3, LN9, LN16 = math.log(2), math.log(3), math.log(9), math.log(16)


def three_partition_four_cut_graph():
    """Three singleton clusters; wire cuts 1,2 join c0-c1, cut 3 c1-c2, cut 4 c0-c2."""
    nodes = tuple(Node(i, frozenset((i,))) for i in range(3))
    edges = (make_edge(0, 1, 4, 2), make_edge(0, 1, 4, 2),
             make_edge(1, 2, 4, 2), make_edge(0, 2, 4, 2))
    g = CutGraph(nodes, edges)
    cl = Clustering.from_assignment(g, {0: 0, 1: 1, 2: 2}, 1)
    return g, cl


def test_worked_three_partition_overheads():
    g, cl = three_partition_four_cut_graph()
    ln_i_1 = build_report(cl, g).ln_i_c[0]
    assert ln_i_1 == pytest.approx(LN3 + 3 * LN16 + LN2)
    assert math.exp(ln_i_1) == pytest.approx(24576, rel=1e-12)


def test_no_cuts_single_cluster():
    g = CutGraph((Node(0, frozenset({0})), Node(1, frozenset({1}))),
                 (make_edge(0, 1, 3, 1.5),))
    cl = Clustering.from_assignment(g, {0: 0, 1: 0}, 2)
    report = build_report(cl, g, eps=0.1)
    assert report.ln_i_c[0] == pytest.approx(0.0)
    assert report.n_total == 100


def test_log_overhead_matches_bruteforce(rng):
    for _ in range(40):
        g = random_graph(rng, max_nodes=6)
        cl = random_clustering(rng, g)
        ln_i = build_report(cl, g).ln_i_c
        for c in cl.clusters:
            got = ln_i[c]
            want = log_overhead_oracle(g, cl.assignment, c)
            assert got == pytest.approx(want, abs=1e-9)


def test_shot_budget_worked_example():
    g, cl = three_partition_four_cut_graph()
    report = build_report(cl, g, eps=1.0)
    assert report.n_c == {0: 24576, 1: 24576, 2: 3072}
    assert report.n_total == 52224


def test_shot_budget_fig2_scale():
    # triangle of three clusters, one gate cut per pair
    nodes = tuple(Node(i, frozenset((i,))) for i in range(3))
    edges = (make_edge(0, 1, 3, 1.5, CutKind.SPACE),
             make_edge(1, 2, 3, 1.5, CutKind.SPACE),
             make_edge(0, 2, 3, 1.5, CutKind.SPACE))
    g = CutGraph(nodes, edges)
    cl = Clustering.from_assignment(g, {0: 0, 1: 1, 2: 2}, 1)
    assert build_report(cl, g, eps=0.03).n_total == pytest.approx(1.2e6, rel=0.02)


def test_prior_bound_worked_example():
    assert abs(prior_bound([4.0] * 4, eps=1.0, delta=1 / 3, r=3) - 704548) <= 1
    assert prior_bound([], eps=1.0, delta=1 / 3, r=1) == 4  # ceil(2 ln 6)


def test_prior_bound_direct_formula():
    got = prior_bound([3.0], eps=0.1, delta=0.05, r=2)
    want = math.ceil(2 * 2 * 9 * math.log(2 / 0.05) / 0.01)
    assert abs(got - want) <= 1


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("bound", [lambda eps: prior_bound([4.0], eps=eps),
                                   lambda eps: cubic_bound(3, 3, eps=eps)],
                         ids=["prior_bound", "cubic_bound"])
def test_older_bounds_reject_eps(bound, eps):
    with pytest.raises(ValueError, match="finite and positive"):
        bound(eps)


def test_cubic_bound():
    assert cubic_bound(3, 3) == pytest.approx(2.0e11, rel=0.03)
    assert cubic_bound(1, 0) == pytest.approx(2 * (math.e - 1) ** 2 * math.log(6))
    got = cubic_bound(2, 1, eps=0.5)
    want = 2 * (math.e - 1) ** 2 * 16 ** 3 * math.log(6 * 16) / 0.25
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 2.0])
def test_prior_bound_rejects_delta_outside_the_unit_interval(delta):
    with pytest.raises(ValueError, match="^need 0 < delta < 1$"):
        prior_bound([4.0], eps=1.0, delta=delta)


def test_cubic_bound_takes_numpy_integers_as_ints():
    """``m ** 3`` wrapped in int64: (2, 10) gave 0.0 with no warning."""
    assert cubic_bound(np.int64(2), np.int64(10), 0.1) == cubic_bound(2, 10, 0.1)


def test_cubic_bound_rejects_negative_d_prime():
    with pytest.raises(ValueError, match="^d_prime must be >= 0, got -1$"):
        cubic_bound(2, -1)
    # 2.5 gave 2.15e9 and True 1.1e5
    for d_prime in (2.5, True):
        with pytest.raises(TypeError, match=f"^d_prime must be an integer, got {d_prime}$"):
            cubic_bound(2, d_prime)


@pytest.mark.parametrize("name, bound, eps", [
    ("prior_bound", lambda: prior_bound([4.0], eps=1e-200), 1e-200),  # eps ** 2 underflows
    ("cubic_bound", lambda: cubic_bound(3, 3, eps=1e-200), 1e-200),
    ("prior_bound", lambda: prior_bound([1e200], eps=1.0), 1.0),  # kappa ** 2 overflows
    ("prior_bound", lambda: prior_bound([1e100] * 4, eps=1.0), 1.0),
    ("cubic_bound", lambda: cubic_bound(3, 113), 1.0),  # the float result is inf
    ("cubic_bound", lambda: cubic_bound(3, 400), 1.0),  # m ** 3 does not fit a float
    # eps ** 2 overflows too, but the numerator alone does not fit a float
    ("prior_bound", lambda: prior_bound([1e200], eps=1e200), 1e200),
    ("cubic_bound", lambda: cubic_bound(3, 400, eps=1e200), 1e200),
], ids=["prior-eps", "cubic-eps", "prior-kappa", "prior-product", "cubic-inf", "cubic-int",
        "prior-kappa-huge-eps", "cubic-int-huge-eps"])
def test_older_bounds_overflow_names_the_bound(name, bound, eps):
    with pytest.raises(OverflowError,
                       match=f"^{name} at eps={re.escape(str(eps))} does not fit a float$"):
        bound()


@pytest.mark.parametrize("eps", [1.35e154, 1e200, 1.7e308])
def test_an_eps_whose_square_overflows_needs_one_shot(eps):
    """Above about 1.34e154 ``eps ** 2`` is above every float, so a finite
    numerator over it is below one shot: both budgets are 1, and the cubic
    bound divides by eps twice."""
    assert math.isinf(eps * eps)
    assert partition_shots(1, 9.0, 1.5, 1.5, eps, 0) == 1
    assert partition_shots(3, 4096.0, 8.0, 16.0, eps, 0) == 1
    assert prior_bound([3.0, 3.0], eps=eps) == 1
    assert cubic_bound(3, 3, eps=eps) == cubic_bound(3, 3) / eps / eps


def test_an_eps_whose_square_fits_keeps_the_formula():
    """Just below the threshold the budgets are the plain quotients."""
    eps = 1.3e154
    assert math.isfinite(eps * eps)
    assert partition_shots(1, 9.0, 1.5, 1.5, eps, 0) == math.ceil(9.0 / eps ** 2) == 1
    assert prior_bound([3.0, 3.0], eps=1e100) == 1
    assert cubic_bound(3, 3, eps=eps) == cubic_bound(3, 3) / eps ** 2


def test_build_report_hand_counts():
    g, cl = three_partition_four_cut_graph()
    report = build_report(cl, g, eps=1.0)
    assert report.lq == pytest.approx(LN3 + 3 * LN16 + LN2)
    assert report.heavy_cluster == 0
    assert report.n_time == 3 and report.n_space == 0
    assert report.n_tot_time == 4
    assert report.l_tot == pytest.approx(4 * LN16)
    assert report.n_total == 52224


@pytest.mark.parametrize("assignment, node", [({0: 0}, 1), ({0: 0, 1: 0, 2: 5}, 2)],
                         ids=["unassigned", "unlisted"])
def test_build_report_names_a_node_in_no_cluster(assignment, node):
    """A clustering that leaves a node out, or assigns one to a cluster it
    does not list, raised a bare ``KeyError``."""
    clusters = {0: Cluster(frozenset({0}), frozenset({0}))}
    with pytest.raises(ValueError, match=f"^node {node} is in no listed cluster$"):
        build_report(Clustering(assignment, clusters, 3), build_cut_graph(ising_chain(6)))


def test_report_ld_formula():
    # worst cluster attached to 2 space + 1 time cut
    nodes = tuple(Node(i, frozenset((i,))) for i in range(4))
    edges = (make_edge(0, 1, 3, 1.5, CutKind.SPACE),
             make_edge(0, 2, 3, 1.5, CutKind.SPACE),
             make_edge(0, 3, 4, 2, CutKind.TIME))
    g = CutGraph(nodes, edges)
    cl = Clustering.from_assignment(g, {i: i for i in range(4)}, 1)
    report = build_report(cl, g)
    assert report.heavy_cluster == 0
    assert report.ld == pytest.approx(2 * LN9 + LN16)
    assert report.ld == pytest.approx(7.17, abs=0.01)


def test_report_matches_bruteforce(rng):
    for _ in range(25):
        g = random_graph(rng, max_nodes=6, self_loops=False)
        cl = random_clustering(rng, g)
        report = build_report(cl, g)
        lns = {c: log_overhead_oracle(g, cl.assignment, c) for c in cl.clusters}
        assert report.lq == pytest.approx(max(lns.values()), abs=1e-9)
        heavy = min(lns, key=lambda c: (-lns[c], c))
        assert report.heavy_cluster == heavy
        cut_edges = [e for e in g.edges
                     if cl.assignment[e.u] != cl.assignment[e.v]]
        assert report.l_tot == pytest.approx(sum(e.w for e in cut_edges))
        attached = [e for e in cut_edges
                    if heavy in (cl.assignment[e.u], cl.assignment[e.v])]
        assert report.ld == pytest.approx(sum(e.w for e in attached))
        assert report.n_tot_space + report.n_tot_time == len(cut_edges)


def test_report_takes_cluster_ids_above_the_node_count(rng):
    """Renumbering the clusters in order, far above the node ids, renumbers
    the report and changes nothing else."""
    for _ in range(15):
        g = random_graph(rng, max_nodes=8)
        cl = random_clustering(rng, g)
        high = Clustering.from_assignment(
            g, {n: 100 + 3 * c for n, c in cl.assignment.items()}, cl.max_qubits)
        a, b = build_report(cl, g, eps=0.1), build_report(high, g, eps=0.1)
        assert b.ln_i_c == {100 + 3 * c: v for c, v in a.ln_i_c.items()}
        assert b.n_c == {100 + 3 * c: n for c, n in a.n_c.items()}
        assert b.heavy_cluster == 100 + 3 * a.heavy_cluster
        assert (b.lq, b.ld, b.l_tot, b.n_space, b.n_time) == (a.lq, a.ld, a.l_tot,
                                                              a.n_space, a.n_time)


def test_step2_row_equals_report(rng):
    """The planner's step-2 row and the report score the plan with the same
    code, so ``lq``, ``ld`` and ``R`` are equal, and both match the oracle."""
    plans = [(random_graph(rng), int(rng.integers(1, 4))) for _ in range(40)]
    plans += [(build_cut_graph(ising_chain(width, depth=depth, seed=width)), cap)
              for width, depth, cap in ((12, 1, 5), (16, 2, 6), (20, 4, 7), (24, 2, 12))]
    for g, cap in plans:
        result = run_pipeline(g, cap)
        step2 = result.stages[-1]
        report = build_report(result.clustering, g)
        assert (step2.lq, step2.ld, step2.r) == (report.lq, report.ld, report.r)
        assert abs(report.lq - max_log_overhead_oracle(g, result.clustering.assignment)) < 1e-9


def test_monotonicity_adding_cut(rng):
    """Extending the cut set never lowers any cluster's log overhead."""
    for _ in range(20):
        g = random_graph(rng, max_nodes=7, self_loops=False)
        cl = random_clustering(rng, g)
        if cl.num_clusters < 3:
            continue
        merged_pair = sorted(cl.clusters)[:2]
        coarser = {n: (merged_pair[0] if c == merged_pair[1] else c)
                   for n, c in cl.assignment.items()}
        coarse_cl = Clustering.from_assignment(g, coarser, cl.max_qubits)
        # fine clustering cuts a superset of edges and has larger R
        fine = build_report(cl, g).ln_i_c
        coarse = build_report(coarse_cl, g).ln_i_c
        for c in coarse_cl.clusters:
            if c == merged_pair[0]:
                continue
            assert fine[c] >= coarse[c] - 1e-9


def test_partition_count_term():
    """Identical cut set, one more cluster: ln I shifts by exactly ln((R+1)/R)."""
    g = CutGraph(
        (Node(0, frozenset({0})), Node(1, frozenset({1})), Node(2, frozenset({2})),
         Node(3, frozenset({3}))),
        (make_edge(0, 1, 4, 2),),  # nodes 2 and 3 are isolated
    )
    r3 = Clustering.from_assignment(g, {0: 0, 1: 1, 2: 2, 3: 2}, 4)
    r4 = Clustering.from_assignment(g, {0: 0, 1: 1, 2: 2, 3: 3}, 4)
    a = build_report(r3, g).ln_i_c[1]
    b = build_report(r4, g).ln_i_c[1]
    assert a == pytest.approx(math.log(3) + LN16)
    assert b - a == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)


def test_exp_consistency(rng):
    """The log-space overhead and the linear-space shot budget agree. At
    eps = 2^-40, eps^2 = 2^-80 divides exactly, and since every overhead is
    at least 1, rounding up adds less than 2^-80 of the budget."""
    eps_sq = 2.0 ** -80
    for _ in range(20):
        g = random_graph(rng, max_nodes=6, self_loops=False)
        cl = random_clustering(rng, g)
        report = build_report(cl, g, eps=2.0 ** -40)
        for c in cl.clusters:
            assert report.n_c[c] * eps_sq == pytest.approx(
                math.exp(report.ln_i_c[c]), rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_partition_shots_rejects_eps(eps):
    with pytest.raises(ValueError, match="finite and positive"):
        partition_shots(2, 9.0, 1.5, 1.5, eps, 0)


@pytest.mark.parametrize("r", [0, -3, 2.5, True])
@pytest.mark.parametrize("budget", [lambda r: partition_shots(r, 9.0, 1.5, 1.5, 0.1, 0),
                                    lambda r: prior_bound([4.0], eps=1.0, r=r),
                                    lambda r: cubic_bound(r, 1)],
                         ids=["partition_shots", "prior_bound", "cubic_bound"])
def test_budgets_reject_r(budget, r):
    """Before this check, r=0 gave a zero budget, r=-3 a negative one and
    ``cubic_bound`` a math domain error; r=2.5 and r=True gave budgets."""
    if type(r) is not int:
        with pytest.raises(TypeError, match=f"^r must be an integer, got {r}$"):
            budget(r)
        return
    with pytest.raises(ValueError, match=f"r must be >= 1, got {r}$"):
        budget(r)


@pytest.mark.parametrize("args", [
    (2, 9.0, 1.5, 1.5, 1e-160),    # the budget exceeds the largest float
    (2, 9.0, 1.5, 1.5, 1e-200),    # eps ** 2 underflows to zero
    (2, math.inf, 1.0, 1.0, 0.03),  # the overhead factor itself overflowed
    (2, math.inf, math.inf, math.inf, 0.03),
    (2, math.inf, 1.0, 1.0, 1e200),  # eps ** 2 overflows too
])
def test_partition_shots_overflow_names_the_partition(args):
    with pytest.raises(OverflowError, match="partition 7 "):
        partition_shots(*args, 7)


def test_budget_of_a_circuit_with_nothing_to_cut():
    """No 2-qubit gate: no cluster, so an empty budget, but eps is checked
    as for any other plan."""
    g = build_cut_graph(CircuitIR(2, (GateApp("h", (0,)),)))
    cl = run_pipeline(g, 2).clustering
    report = build_report(cl, g, eps=0.1)
    assert (report.n_c, report.n_total) == ({}, 0)
    for eps in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            build_report(cl, g, eps=eps)


def test_partition_shots_closed_form():
    # R = 3, attached kappa^2 = 16 * 16 * 16, the one other cut's tau = 2
    assert partition_shots(3, 4096.0, 8.0, 16.0, 1.0, 0) == 24576
    assert partition_shots(2, 9.0, 1.5, 1.5, 0.1, 0) == 1800


def test_segment_flags():
    # wire 1 revisits cluster 0 after an excursion: two segments, one qubit
    circuit = CircuitIR(3, (GateApp("cx", (0, 1)), GateApp("cx", (1, 2)),
                            GateApp("cx", (0, 1))))
    g = build_cut_graph(circuit)
    cl = Clustering.from_assignment(g, {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 0}, 3)
    flags = segment_flags(g, cl)
    assert 0 in flags
    tidy = Clustering.from_assignment(g, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}, 3)
    assert segment_flags(g, tidy) == ()


def test_report_json_schema_keys():
    g, cl = three_partition_four_cut_graph()
    payload = build_report(cl, g, eps=0.5).to_json_dict()
    for key in ("lq", "ld", "r", "n_space", "n_time", "l_tot", "n_c", "n_total", "eps"):
        assert key in payload
    assert payload["eps"] == 0.5
    assert isinstance(payload["n_c"], list)


REPORT_KEYS = {"lq", "ld", "r", "n_space", "n_time", "l_tot", "n_c", "n_total", "eps",
               "ln_i_c", "lq_log10", "ld_log10", "n_tot_space", "n_tot_time",
               "flagged_clusters"}


@pytest.mark.parametrize("eps", [0.5, None])
def test_report_json_has_exactly_the_report_keys(eps):
    """No more and no fewer keys, with or without budgets; no key names the
    heavy cluster."""
    g, cl = three_partition_four_cut_graph()
    payload = build_report(cl, g, eps=eps).to_json_dict()
    assert set(payload) == REPORT_KEYS
    assert (payload["n_c"] is None) == (payload["n_total"] is None) == (eps is None)


def test_ld_bounded_by_lq_minus_lnr():
    g = build_cut_graph(ising_chain(20, seed=3))
    result = run_pipeline(g, 7)
    report = build_report(result.clustering, g)
    assert report.ld <= report.lq - math.log(report.r) + 1e-9


_CHAIN3_Z = pauli_z_observable(range(3))

# every entry point that makes a budget, as a function of eps
_EPS_ENTRY_POINTS = {
    "partition_shots": lambda eps: partition_shots(2, 9.0, 1.5, 2.25, eps, 0),
    "prior_bound": lambda eps: prior_bound([3.0], eps=eps),
    "cubic_bound": lambda eps: cubic_bound(2, 1, eps=eps),
    "build_report": lambda eps: build_report(*reversed(three_partition_four_cut_graph()),
                                             eps=eps).n_c,
    "cut_estimate": lambda eps: cut_estimate(chain3(), [GateCut(0)], _CHAIN3_Z, eps).allocation,
    "exact_moments": lambda eps: exact_moments(chain3(), [GateCut(0)], _CHAIN3_Z, eps).allocation,
}


@pytest.mark.parametrize("eps", [True, False, np.True_, "0.1", 0.1j, None], ids=repr)
@pytest.mark.parametrize("entry", _EPS_ENTRY_POINTS.values(), ids=_EPS_ENTRY_POINTS)
def test_budgets_reject_an_eps_that_is_no_real_number(entry, eps):
    """``True`` ran as eps = 1: ``partition_shots`` gave 27, ``prior_bound``
    33, and the estimator allocated {0: 18, 1: 18} on a cut chain."""
    if eps is None and entry is _EPS_ENTRY_POINTS["build_report"]:
        assert entry(eps) is None  # no eps: a report without budgets
        return
    with pytest.raises(TypeError, match=f"^eps must be a real number, got {re.escape(repr(eps))}$"):
        entry(eps)


@pytest.mark.parametrize("entry", _EPS_ENTRY_POINTS.values(), ids=_EPS_ENTRY_POINTS)
def test_numpy_float_eps_is_valid(entry):
    assert entry(np.float64(0.1)) == entry(0.1)


@pytest.mark.parametrize("eps", [1e200, 1e-200])
@pytest.mark.parametrize("name", ["partition_shots", "prior_bound", "cubic_bound"])
def test_numpy_eps_whose_square_leaves_the_floats_acts_as_a_float(name, eps):
    """A numpy scalar eps whose square over- or underflows gives the float's
    budget or its named ``OverflowError``. Squaring the scalar itself gave
    ``inf`` or a zero divisor with a ``RuntimeWarning``, which this suite
    turns into an error."""
    entry = _EPS_ENTRY_POINTS[name]
    try:
        expected = entry(eps)
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=f"^{re.escape(str(exc))}$"):
            entry(np.float64(eps))
    else:
        assert entry(np.float64(eps)) == expected


def test_an_overflow_names_eps_as_given():
    with pytest.raises(OverflowError, match="^prior_bound at eps=1 does not fit a float$"):
        prior_bound([1e200, 1e200], 1)


def test_partition_budgets_take_products_in_the_order_given():
    """Each budget is ``partition_shots`` of the products from 1 over the
    partition's cuts in the order given, and over all cuts for tau."""
    cuts = [(1.1, 1.3), (3.0, 5.0), (2.0, 4.0 / 3.0), (0.7, 1.9)]
    attached = [[3, 0, 2], [], [1, 2]]
    got = partition_budgets(3, cuts, attached, 1e-3, [5, 2, 9])
    tau_cut = ((1.3 * 5.0) * (4.0 / 3.0)) * 1.9
    assert list(got) == [5, 2, 9]
    assert got == {
        5: partition_shots(3, ((0.7 ** 2) * 1.1 ** 2) * 2.0 ** 2, (1.9 * 1.3) * (4.0 / 3.0),
                           tau_cut, 1e-3, 5),
        2: partition_shots(3, 1.0, 1.0, tau_cut, 1e-3, 2),
        9: partition_shots(3, 3.0 ** 2 * 2.0 ** 2, 5.0 * (4.0 / 3.0), tau_cut, 1e-3, 9),
    }
    with pytest.raises(OverflowError, match="^the shot budget of partition 5 at eps=1e-160 "):
        partition_budgets(3, cuts, attached, 1e-160, [5, 2, 9])
