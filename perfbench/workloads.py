"""The workloads: timed operations, their checks and the traced replays.

An operation is one plan (``parse_qasm`` -> ``build_cut_graph`` ->
``run_pipeline`` -> ``build_report``) or one ``cut_estimate`` call. A run
performs every operation of its corpus once, so the work, the failure counts
and ``lq_sum`` repeat exactly for a given commit and seed.

Every failing operation is counted by kind and the run goes on. A kind
``<step>:<Exception>`` means cutplan raised; any other kind means a check
found a returned output wrong.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import checks
from .gen import RING_PRESETS

REPORT_EPS = 0.03
COVERAGE_FLOOR = 0.9


@dataclass
class Outcome:
    op_spans: list[tuple[float, float]] = field(default_factory=list)  # (start, s)
    lq_sum: float = 0.0
    attempted: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    layers: Counter = field(default_factory=Counter)   # per-layer figures

    def tally(self, faults: list[str]) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            self.kinds.update(faults)

    @property
    def correct(self) -> bool:
        return not any(":" not in kind for kind in self.kinds)


def _kind(step: str, exc: Exception) -> str:
    return f"{step}:{type(exc).__name__}"


# -- plans ---------------------------------------------------------------------

def run_plans(api, corpus, tracer=None, after_op=None) -> Outcome:
    """Plan every circuit of the corpus; with a tracer, record layer spans and
    replay stage 1 and contraction through their public functions."""
    out = Outcome()

    for op, item in enumerate(corpus):
        if tracer is None:
            t0 = time.perf_counter()
            graph = result = report = None
            try:
                graph = api.build_cut_graph(api.parse_qasm(item.qasm))
                result = api.run_pipeline(graph, item.cap)
                report = api.build_report(result.clustering, graph, eps=REPORT_EPS)
                error = None
            except Exception as exc:  # a failing plan never aborts the run
                error = _kind("plan" if result is None else "report", exc)
            out.op_spans.append((t0, time.perf_counter() - t0))
        else:
            graph, result, report, error = _traced_plan(api, tracer, op, item, out)
        if result is None:
            faults = [error]
        else:
            lq = checks.worst_log_overhead(graph, result.clustering.assignment)
            out.lq_sum += lq
            faults = checks.plan_faults(graph, result.clustering, item.cap, lq, report)
            if error:
                faults.append(error)
            if tracer is not None:
                faults += _replay_plan(api, tracer, op, graph, item.cap, result, out)
        out.tally(faults)
        if after_op is not None:
            after_op(op)

    if tracer is not None:
        _plan_layers(tracer, out)
    return out


def _traced_plan(api, tracer, op, item, out):
    graph = result = report = None
    error = None
    with tracer.span("plan", op) as root:
        try:
            with tracer.span("qasm.parse", op, root):
                circuit = api.parse_qasm(item.qasm)
            with tracer.span("graph.build", op, root):
                graph = api.build_cut_graph(circuit)
            with tracer.span("clustering.pipeline", op, root) as pipe:
                result = api.run_pipeline(graph, item.cap)
            with tracer.span("overhead.report", op, root):
                report = api.build_report(result.clustering, graph, eps=REPORT_EPS)
        except Exception as exc:  # a failing plan never aborts the run
            error = _kind("plan" if result is None else "report", exc)
    out.op_spans.append((tracer.spans[root].start, tracer.spans[root].duration))
    c = out.layers
    c["qasm.bytes"] += len(item.qasm)
    if graph is not None:
        c["graph.nodes"] += graph.num_nodes
        c["graph.edges"] += len(graph.edges)
    if result is not None:
        # stage wall times come from the pipeline's own metrics; they sit
        # back to back at the start of the pipeline span
        s1, s2 = result.stages
        t = tracer.spans[pipe].start
        tracer.add("clustering.step1", t, t + s1.wall_time_s, op, pipe)
        tracer.add("clustering.step2", t + s1.wall_time_s,
                   t + s1.wall_time_s + s2.wall_time_s, op, pipe)
        for stage in (s1, s2):
            c[f"clustering.{stage.stage}_moves"] += stage.moves
            c[f"clustering.{stage.stage}_gain_evals"] += stage.gain_evals
        c["clustering.step1_levels"] += s1.passes
        c["clustering.r_sum"] += result.r
        if report is not None:
            c["overhead.segment_flagged"] += len(report.flagged_clusters)
        else:
            c["overhead.report_failures"] += 1
            c["overhead.segment_flagged"] += len(
                api.segment_flags(graph, result.clustering))
    return graph, result, report, error


def _replay_plan(api, tracer, op, graph, cap, result, out) -> list[str]:
    """Stage 1 again through ``step1_modularity``, then ``contract`` on it."""
    with tracer.span("plan.replay", op) as replay:
        with tracer.span("clustering.step1_replay", op, replay):
            c1 = api.step1_modularity(graph, cap)
        with tracer.span("clustering.contract", op, replay):
            api.contract(graph, c1)
    lq1 = checks.worst_log_overhead(graph, c1.assignment)
    return [] if abs(lq1 - result.stages[0].lq) <= checks.LQ_TOL else ["step1_replay_mismatch"]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _plan_layers(tracer, out: Outcome) -> None:
    own = tracer.self_times()
    c = out.layers
    figures = {
        "qasm.parse_s": own.get("qasm.parse", 0.0),
        "graph.build_s": own.get("graph.build", 0.0),
        "clustering.step1_s": own.get("clustering.step1", 0.0),
        "clustering.step2_s": own.get("clustering.step2", 0.0),
        "clustering.pipeline_other_s": own.get("clustering.pipeline", 0.0),
        "clustering.contract_s": own.get("clustering.contract", 0.0),
        "overhead.report_s": own.get("overhead.report", 0.0),
        # inside a plan span, the time outside its child spans is span
        # bookkeeping and glue: what tracing adds to the operation
        "trace.overhead_s": own.get("plan", 0.0),
        "clustering.step1_accept_ratio": _ratio(c["clustering.step1_moves"],
                                                c["clustering.step1_gain_evals"]),
        "clustering.step2_accept_ratio": _ratio(c["clustering.step2_moves"],
                                                c["clustering.step2_gain_evals"]),
    }
    for name, value in figures.items():
        c[name] = value
    _coverage(tracer, out, "plan", None)


# -- estimates -------------------------------------------------------------------

def run_estimates(api, corpus, tracer=None, after_op=None) -> Outcome:
    """One ``cut_estimate`` per repetition; parsing, the exact value and the
    checks are untimed. With a tracer, the estimator's public sub-steps are
    replayed on the same inputs beside the ``cut_estimate`` span."""
    out = Outcome()
    obs = api.pauli_z_observable(range(8))
    cuts = {p: api.ring_cuts(p) for p, _ in RING_PRESETS}
    errors: dict[tuple, list[float]] = {preset: [] for preset in RING_PRESETS}
    pending: list[tuple[tuple, list[str]]] = []

    for op, item in enumerate(corpus):
        preset = (item.partitions, item.eps)
        faults = _estimate(api, tracer, op, item, obs, cuts[item.partitions], errors, out)
        pending.append((preset, faults))
        if after_op is not None:
            after_op(op)

    failing = set()
    for preset, errs in errors.items():
        ratio = checks.std_over_eps(errs, preset[1]) if len(errs) > 1 else float("inf")
        out.layers[_preset_key("estimator.std_over_eps", preset)] = ratio
        if ratio > 1.0:
            failing.add(preset)
    for preset, faults in pending:
        out.tally(faults + (["std_over_eps"] if preset in failing else []))
    if tracer is not None:
        own = tracer.self_times()
        for name in ("plan_partitions", "cut_specs", "allocate", "value_table",
                     "variant", "combine"):
            out.layers[f"estimator.{name}_s"] = own.get(f"estimator.{name}", 0.0)
        out.layers["observable.exact_s"] = own.get("observable.exact", 0.0)
        out.layers["qasm.parse_s"] = own.get("qasm.parse", 0.0)
        # cut_estimate's time left after its public sub-steps: per-variant
        # sampling and its own glue
        out.layers["estimator.sample_s"] = own.get("estimate", 0.0) - (
            sum(out.layers[f"estimator.{n}_s"] for n in
                ("plan_partitions", "cut_specs", "allocate", "value_table",
                 "variant", "combine")))
        _coverage(tracer, out, "estimate", "estimate.replay")
    return out


def _estimate(api, tracer, op, item, obs, cuts, errors, out) -> list[str]:
    """Parse one ring circuit, take its exact value, time one ``cut_estimate``
    and check it; returns the operation's failure kinds."""
    circuit = None
    try:
        with _span(tracer, "qasm.parse", op):
            circuit = api.parse_qasm(item.qasm)
        with _span(tracer, "observable.exact", op):
            exact = api.expectation_value(circuit, obs)
    except Exception as exc:  # a failing operation never aborts the run
        return [_kind("parse" if circuit is None else "exact", exc)]
    out.layers["qasm.bytes"] += len(item.qasm)
    faults = []
    try:
        oracle = checks.z_parity(circuit)
        lq_parts = checks.gate_cut_lq(circuit, [c.gate_index for c in cuts],
                                      api.DEFAULT_WEIGHTS)
    except Exception:  # the parsed circuit is not the ring circuit it should be
        oracle, lq_parts = None, None
        faults.append("not_a_ring_circuit")

    t0 = time.perf_counter()
    try:
        run = api.cut_estimate(circuit, cuts, obs, item.eps, seed=item.estimate_seed)
    except Exception as exc:  # a failing estimate never aborts the run
        run = None
        faults.append(_kind("estimate", exc))
    t1 = time.perf_counter()
    out.op_spans.append((t0, t1 - t0))

    if run is None:
        # no allocation to read: count the cut set's own overhead instead
        out.lq_sum += max(lq_parts) if lq_parts else 0.0
        return faults
    # the log overhead the estimator's budget implies: N_c = exp(lq_c) / eps^2
    out.lq_sum += max(math.log(n * item.eps ** 2) for n in run.allocation.n_c.values())
    if oracle is not None and abs(oracle - exact) > checks.EXACT_TOL:
        faults.append("exact_mismatch")
    if lq_parts is not None and checks.budget_short(run.allocation.n_c, lq_parts, item.eps):
        faults.append("budget_short")
    if tracer is not None:
        tracer.add("estimate", t0, t1, op)
        faults += _replay_estimate(api, tracer, op, circuit, cuts, obs, item.eps, run, out)
    preset = (item.partitions, item.eps)
    errors[preset].append(run.estimate - exact)
    out.layers[_preset_key("estimator.shots", preset)] = run.shots_used
    return faults


def _span(tracer, name: str, op: int):
    return nullcontext() if tracer is None else tracer.span(name, op)


def _preset_key(prefix: str, preset: tuple) -> str:
    return f"{prefix}.r{preset[0]}_eps{preset[1]}"


def _replay_estimate(api, tracer, op, circuit, cuts, obs, eps, run, out) -> list[str]:
    with tracer.span("estimate.replay", op) as replay:
        with tracer.span("estimator.plan_partitions", op, replay):
            plans, r = api.plan_partitions(circuit, cuts, obs)
        with tracer.span("estimator.cut_specs", op, replay):
            specs = api.cut_specs(circuit, cuts)
        with tracer.span("estimator.allocate", op, replay):
            allocation = api.allocate_shots(plans, specs, r, eps)
        for c, plan in sorted(plans.items()):
            with tracer.span("estimator.value_table", op, replay):
                values = api.value_table(plan.factors, plan.num_qubits)
            for variant, shots in sorted(allocation.variants[c].items()):
                if shots == 0:
                    continue
                choice = dict(zip(plan.attached_cuts, variant))
                with tracer.span("estimator.variant", op, replay):
                    api.variant_distribution(plan, specs, choice, values)
                out.layers["estimator.variants"] += 1
        with tracer.span("estimator.combine", op, replay):
            estimate = api.combine_means(plans, specs, run.variant_means)
    faults = []
    if allocation.n_c != run.allocation.n_c:
        faults.append("allocation_mismatch")
    if estimate != run.estimate:
        faults.append("combine_mismatch")
    return faults


def _coverage(tracer, out: Outcome, op_name: str, layers_name: str | None) -> None:
    """Share of each operation's span that its layer spans account for.

    For a plan the layers are the leaf spans below the plan span, timed in
    the same execution. For an estimate they are the leaves of the replay
    beside it, so the per-operation share also carries the timing noise
    between two executions, and ``cut_estimate``'s own sampling, which has
    no public function to replay, is left out.
    """
    kids = tracer.children()
    roots = {}
    for i, s in enumerate(tracer.spans):
        if s.parent is None and s.name in (op_name, layers_name):
            roots.setdefault(s.op, {})[s.name] = i
    pairs = [(tracer.spans[r[op_name]].duration, tracer.leaf_time(r[layers_name or op_name], kids))
             for r in roots.values() if op_name in r and (layers_name or op_name) in r]
    shares = [covered / total for total, covered in pairs]
    out.layers["trace.coverage"] = _ratio(sum(c for _, c in pairs), sum(t for t, _ in pairs))
    out.layers["trace.coverage_min"] = min(shares, default=0.0)
    out.layers["trace.uncovered_ops"] = sum(1 for s in shares if s < COVERAGE_FLOOR)
    out.layers["trace.replay_s"] = sum(s.duration for s in tracer.spans
                                       if s.parent is None and s.name.endswith(".replay"))


WORKLOADS = {
    "plan_chain": run_plans,
    "plan_random": run_plans,
    "verify_ring": run_estimates,
}
