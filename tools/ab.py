"""Time two cutplan trees side by side on one seed's benchmark corpus.

    python3 tools/ab.py OLD_TREE NEW_TREE WORKLOAD [SEED] [--scale S] [--reps N]

OLD_TREE and NEW_TREE are checkouts, each holding ``src/cutplan``; WORKLOAD
is ``plan_chain``, ``plan_random`` or ``verify_ring``; SEED defaults to 1
and S (default 1.0) scales the corpus as ``tools/equiv.py`` does, which also
builds it. Both trees are loaded into this one process, each under a
package name of its own, so the machine's drift between separate runs does
not enter the comparison. Each repetition (N, default 1) times every
operation once on each tree, the two in a random order per operation. An
operation is timed as the benchmark times it: a plan is ``parse_qasm`` ->
``build_cut_graph`` -> ``run_pipeline`` -> ``build_report``, an estimate is
one ``cut_estimate`` on the parsed circuit, its ``gates`` already built. An
operation that raises is timed up to the exception on both trees.

It prints each tree's median time per operation, the median NEW/OLD ratio
over the operations (each operation's time being its median over the
repetitions) and on how many operations NEW was faster. With N > 1 it also
prints each repetition's own median NEW/OLD ratio and their range, the
tool's run-to-run spread against which a ratio can be read.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

EQUIV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "equiv.py")
WORKLOADS = ("plan_chain", "plan_random", "verify_ring")
REPORT_EPS = 0.03  # the benchmark's report eps


def load_tree(tree: str, name: str):
    """``tree``'s ``src/cutplan`` as package ``name``, with its ``cutsim``.

    Raises ``ImportError`` if any module of the package resolves outside
    ``tree``, or if loading it imported a package called ``cutplan``.
    """
    root = os.path.join(os.path.abspath(tree), "src", "cutplan")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    cutsim = importlib.import_module(f"{name}.cutsim")
    for module_name, module in list(sys.modules.items()):
        if module_name == name or module_name.startswith(name + "."):
            path = os.path.abspath(getattr(module, "__file__", None) or "")
            if not path.startswith(root + os.sep):
                raise ImportError(f"{module_name} resolved to {path!r}, outside {root}")
    if "cutplan" in sys.modules:
        raise ImportError("loading the tree imported a package called 'cutplan'")
    return package, cutsim


def _plan(cutplan, cutsim, item):
    qasm, cap = item

    def op():
        graph = cutplan.build_cut_graph(cutplan.parse_qasm(qasm))
        result = cutplan.run_pipeline(graph, cap)
        cutplan.build_report(result.clustering, graph, eps=REPORT_EPS)
    return op


def _estimate(cutplan, cutsim, item):
    partitions, eps, qasm, seed = item
    circuit = cutplan.parse_qasm(qasm)
    circuit.gates  # the benchmark's untimed exact value builds them first
    cuts = cutsim.ring_cuts(partitions)
    obs = cutsim.pauli_z_observable(range(circuit.num_qubits))
    return lambda: cutsim.cut_estimate(circuit, cuts, obs, eps, seed=seed)


def _time(op) -> float:
    t0 = time.perf_counter()
    try:
        op()
    except Exception:  # a failing operation is timed like the benchmark times it
        pass
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", nargs="?", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--reps", type=int, default=1)
    args = parser.parse_args(argv)
    if not args.scale > 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.json")
        subprocess.run([sys.executable, EQUIV, "--corpus", args.old_tree, str(args.seed),
                        str(args.scale), path], check=True)
        with open(path, encoding="utf-8") as fh:
            corpus = json.load(fh)[args.workload]

    make = _estimate if args.workload == "verify_ring" else _plan
    trees = [load_tree(tree, f"_ab_tree{k}") for k, tree in enumerate((args.old_tree,
                                                                        args.new_tree))]
    ops = [[make(*tree, item) for tree in trees] for item in corpus]
    times = [([], []) for _ in ops]
    rng = random.Random(args.seed)
    for _ in range(args.reps):
        for pair, timed in zip(ops, times):
            order = [0, 1]
            rng.shuffle(order)
            for k in order:
                timed[k].append(_time(pair[k]))

    old, new = ([statistics.median(timed[k]) for timed in times] for k in (0, 1))
    ratio = statistics.median(b / a for a, b in zip(old, new))
    won = sum(b < a for a, b in zip(old, new))
    print(f"{args.workload}: {len(ops)} operations x {args.reps} repetition(s), "
          f"seed {args.seed}, scale {args.scale}")
    print(f"OLD median {statistics.median(old):.6f} s per operation")
    print(f"NEW median {statistics.median(new):.6f} s per operation")
    print(f"NEW/OLD median ratio {ratio:.4f}; NEW faster on {won} of {len(ops)} operations")
    if args.reps > 1:
        per_rep = [statistics.median(timed[1][k] / timed[0][k] for timed in times)
                   for k in range(args.reps)]
        print("NEW/OLD median ratio per repetition "
              + " ".join(f"{x:.4f}" for x in per_rep)
              + f"; range {min(per_rep):.4f} to {max(per_rep):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
