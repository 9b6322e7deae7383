"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan_chain --seed 1 --seconds 30 --trace 0

Run from the repository root: cutplan is imported from ``src/`` of the
checkout, never from an installed copy. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. The lines before it give every metric with its unit and
sample count, failures by kind and the environment. A traced run also writes
its spans to ``.perfbench-out/``.
"""

from __future__ import annotations

import os

# one thread for the workload process; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS = 5      # set-ups per run, spread over it; setup_s is their median

if __package__ in (None, ""):
    sys.path.insert(0, ROOT)

from perfbench import gen, workloads  # noqa: E402
from perfbench.pace import Pace  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def load_metrics() -> dict:
    """The metric definitions of ``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_cutplan():
    """Import cutplan afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "cutplan" or m.startswith("cutplan.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cutplan = importlib.import_module("cutplan")
    if not os.path.abspath(cutplan.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cutplan was imported from {cutplan.__file__}, not {SRC}")
    cutsim = importlib.import_module("cutplan.cutsim")
    overhead = importlib.import_module("cutplan.overhead")
    return SimpleNamespace(
        parse_qasm=cutplan.parse_qasm,
        build_cut_graph=cutplan.build_cut_graph,
        run_pipeline=cutplan.run_pipeline,
        build_report=cutplan.build_report,
        step1_modularity=cutplan.step1_modularity,
        contract=cutplan.contract,
        segment_flags=overhead.segment_flags,
        DEFAULT_WEIGHTS=cutplan.DEFAULT_WEIGHTS,
        pauli_z_observable=cutsim.pauli_z_observable,
        ring_cuts=cutsim.ring_cuts,
        expectation_value=cutsim.expectation_value,
        cut_estimate=cutsim.cut_estimate,
        plan_partitions=cutsim.plan_partitions,
        cut_specs=cutsim.cut_specs,
        allocate_shots=cutsim.allocate_shots,
        value_table=cutsim.value_table,
        variant_distribution=cutsim.variant_distribution,
        combine_means=cutsim.combine_means,
    )


def set_up(workload: str, seed: int, scale: float):
    """Import cutplan afresh and build the corpus; returns the time it took,
    the API and the corpus."""
    t0 = time.perf_counter()
    api = import_cutplan()
    corpus = gen.CORPORA[workload](seed, scale)
    return time.perf_counter() - t0, api, corpus


class SetupTimer:
    """The set-up, done once before the first operation and repeated between
    operations at even steps through the run, with the reference kernel
    timed after every operation.

    Spreading the repeats makes their median (``setup_s``) sample the machine
    over the whole run rather than over one burst of a few seconds. A repeat
    imports cutplan afresh and then puts the first import back, so every
    operation runs on the same modules. Every repeat must give the same corpus.
    The kernel runs before and after every set-up and operation, so each
    timing has kernel timings on both sides (see ``pace``).
    """

    def __init__(self, workload: str, seed: int, scale: float):
        self.args = (workload, seed, scale)
        self.pace = Pace()
        self.pace.tick()
        start = time.perf_counter()
        seconds, self.api, self.corpus = set_up(*self.args)
        self.spans = [(start, seconds)]
        self.pace.tick()
        self.deterministic = True
        n = len(self.corpus)
        self.marks = {round(k * n / SETUPS) - 1 for k in range(1, SETUPS)}

    def after_op(self, op: int) -> None:
        if op not in self.marks:
            self.pace.tick()
            return
        first = {k: m for k, m in sys.modules.items()
                 if k == "cutplan" or k.startswith("cutplan.")}
        self.pace.tick()
        start = time.perf_counter()
        seconds, _, corpus = set_up(*self.args)
        sys.modules.update(first)
        self.spans.append((start, seconds))
        self.pace.tick()
        self.deterministic = self.deterministic and corpus == self.corpus


def environment() -> dict:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile boundary (q=5: median, q=9: p90); 0 without values."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(workload: str, setups: SetupTimer, out) -> tuple[dict, dict]:
    """Metric -> (value, samples), and the workload's own names of op_s_*.
    Times are in reference seconds."""
    op = "estimate" if workload == "verify_ring" else "plan"
    op_times = [setups.pace.scale(*span) for span in out.op_spans]
    setup_times = [setups.pace.scale(*span) for span in setups.spans]
    n = len(op_times)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "op_s_p50": (_quantile(op_times, 5), n),
        "op_s_p90": (_quantile(op_times, 9), n),
        "lq_sum": (out.lq_sum, out.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }, {"op_s_p50": f"{op}_s_p50", "op_s_p90": f"{op}_s_p90"}


def wall_times(setups: SetupTimer, out) -> dict:
    """The same timings in plain wall seconds, and the median kernel time."""
    op_times = [seconds for _, seconds in out.op_spans]
    return {
        "setup_s": statistics.median(seconds for _, seconds in setups.spans),
        "op_s_p50": _quantile(op_times, 5),
        "op_s_p90": _quantile(op_times, 9),
        "ref_s": setups.pace.ref_s(),
    }


def per_layer(setups: SetupTimer, out, names: list[str]) -> dict:
    """Metric -> (value, operations); a layer the workload never calls reads 0.
    Layer times are wall times; ``trace.op_s_p50`` is in reference seconds,
    like ``op_s_p50``, so the two give the tracing overhead."""
    layers = dict(out.layers)
    layers["trace.op_s_p50"] = _quantile([setups.pace.scale(*s) for s in out.op_spans], 5)
    layers["machine.ref_s"] = setups.pace.ref_s()
    return {name: (float(layers.get(name, 0.0)), out.attempted) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_metrics()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if not os.path.isfile(os.path.join(SRC, "cutplan", "__init__.py")):
        print(f"error: no cutplan sources under {SRC}", file=sys.stderr)
        return 2

    # the corpora are sized for run_seconds; --seconds scales them
    setups = SetupTimer(args.workload, args.seed, args.seconds / spec["run_seconds"])
    tracer = Tracer() if args.trace else None
    out = workloads.WORKLOADS[args.workload](setups.api, setups.corpus, tracer,
                                             setups.after_op)
    if not setups.deterministic:
        out.kinds["nondeterministic_inputs"] += 1

    units = {m["name"]: m["unit"] for m in spec["per_layer" if tracer else "end_to_end"]}
    if tracer:
        metrics, aliases = per_layer(setups, out, list(units)), {}
    else:
        metrics, aliases = end_to_end(args.workload, setups, out)

    env = environment()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(setups.corpus)}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, samples) in metrics.items():
        label = aliases.get(name, name)
        print(f"# {label:<40} {value:>16.6g} {units[name]:<6} samples={samples}")
    wall = wall_times(setups, out)
    print("# wall seconds: " + " ".join(f"{aliases.get(k, k)}={v:.6g}" for k, v in wall.items()))
    kinds = " ".join(f"{k}={v}" for k, v in sorted(out.kinds.items())) or "none"
    print(f"# attempted={out.attempted} failed={out.failed} failures: {kinds}")
    if tracer:
        ranked = sorted(((v, k) for k, (v, _) in metrics.items()
                         if k.endswith("_s") and not k.startswith(("trace.", "machine."))
                         and k not in ("clustering.contract_s", "observable.exact_s")),
                        reverse=True)
        if ranked:
            print(f"# largest self time: {ranked[0][1]}")
        os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".perfbench-out",
                                  f"spans_{args.workload}_{args.seed}.json"))
    print("# detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env,
        "wall": wall,
        "samples": {k: s for k, (_, s) in metrics.items()},
        "failures": dict(out.kinds),
    }, sort_keys=True))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
