"""Run the benchmark on two trees in alternating pairs and compare them.

    python3 tools/pairs.py OLD_TREE NEW_TREE WORKLOAD --pairs N --first-seed S [--seconds T]

OLD_TREE and NEW_TREE are checkouts, each with its own ``perfbench/`` and
``BENCHMARK.json``; the tool refuses to run unless both are identical in the
two trees, so that both sides are measured by the same benchmark. Pair k
(k = 0 .. N-1) runs ``python3 perfbench/run.py --workload WORKLOAD --seed
S+k --trace 0`` in each tree's root, with ``--seconds T`` if given (default:
the benchmark's own run length); OLD runs first in even pairs and NEW in odd
ones, so that a drift of the machine during a pair does not always favour
one side.

For each end-to-end metric of ``BENCHMARK.json`` it prints OLD's median and
quartiles, NEW's median and their ratio, on how many pairs NEW was better
(ties count for neither side), and whether a gain can be claimed: NEW better
on at least nine tenths of the pairs, and the two medians further apart, in
NEW's favour, than OLD's quartiles are from each other. Next come each
side's median wall set-up time and reference-kernel time (``setup_s`` and
``ref_s`` of the run's detail line, in plain seconds): a set-up gain shows in
both the scaled and the wall ``setup_s``, while a drift of the kernel moves
the scaled one alone. It then prints each side's failure counts per seed, by
kind, and exits 1 if any run reported incorrect results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SHARED = ("perfbench", "BENCHMARK.json")  # must be byte-identical in both trees


def benchmark_files(tree: str) -> dict[str, bytes]:
    """Relative path -> content of every file of ``tree`` that is part of
    the benchmark, bytecode caches left out."""
    files = {}
    for name in SHARED:
        path = os.path.join(tree, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for f in sorted(names):
                full = os.path.join(root, f)
                with open(full, "rb") as fh:
                    files[os.path.relpath(full, tree)] = fh.read()
    return files


def run_once(tree: str, workload: str, seed: int, seconds: float | None) -> dict:
    """One untraced benchmark run in ``tree``: its result line, with the
    failure counts by kind and the wall times from its detail line under
    ``"failures"`` and ``"wall"``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n"
                           f"{out.stderr}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    (detail,) = [ln for ln in lines if ln.startswith("# detail ")]
    detail = json.loads(detail.removeprefix("# detail "))
    result["failures"], result["wall"] = detail["failures"], detail["wall"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(old: list[float], new: list[float], better: str) -> dict:
    """The summary of one metric over the pairs ``zip(old, new)``."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med_old, q3 = quartiles(old)
    med_new = statistics.median(new)
    won = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    gap = sign * (med_old - med_new)  # positive when NEW is better
    return {"old": (q1, med_old, q3), "new": med_new, "won": won,
            "gain": 10 * won >= 9 * len(old) and gap > q3 - q1}


def _failures(result: dict) -> str:
    kinds = " ".join(f"{k}={v}" for k, v in sorted(result["failures"].items()))
    return f"{result['failed']}" + (f" ({kinds})" if kinds else "")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    trees = (os.path.abspath(args.old_tree), os.path.abspath(args.new_tree))
    old_files, new_files = (benchmark_files(tree) for tree in trees)
    if "BENCHMARK.json" not in old_files:
        print(f"error: no BENCHMARK.json under {trees[0]}", file=sys.stderr)
        return 2
    differ = sorted(name for name in old_files.keys() | new_files.keys()
                    if old_files.get(name) != new_files.get(name))
    if differ:
        print("error: the trees' benchmarks differ in " + ", ".join(differ), file=sys.stderr)
        return 2
    spec = json.loads(old_files["BENCHMARK.json"])

    results: list[tuple[dict, dict]] = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        first = k % 2  # 0: OLD first, 1: NEW first
        pair = [None, None]
        for side in (first, 1 - first):
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
        results.append((pair[0], pair[1]))
        print(f"# pair {k + 1} seed {seed} {'NEW' if first else 'OLD'} first: "
              + " ".join(f"{m['name']} {pair[0]['metrics'][m['name']]['value']:.6g}"
                         f"->{pair[1]['metrics'][m['name']]['value']:.6g}"
                         for m in spec["end_to_end"]), flush=True)

    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    length = f"{args.seconds:g} s" if args.seconds is not None else "default length"
    print(f"{args.workload}: {args.pairs} pair(s), seeds {seeds}, {length}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        old, new = ([r[side]["metrics"][name]["value"] for r in results] for side in (0, 1))
        s = compare(old, new, metric["better"])
        q1, med, q3 = s["old"]
        ratio = f"{s['new'] / med:.4f}" if med else "n/a"
        print(f"{name}: OLD median {med:.6g} (quartiles {q1:.6g} to {q3:.6g}), "
              f"NEW median {s['new']:.6g}, NEW/OLD {ratio}; NEW better on "
              f"{s['won']} of {args.pairs}; gain rule {'holds' if s['gain'] else 'fails'}")
    for name in ("setup_s", "ref_s"):
        med_old, med_new = (statistics.median(r[side]["wall"][name] for r in results)
                            for side in (0, 1))
        ratio = f"{med_new / med_old:.4f}" if med_old else "n/a"
        print(f"wall {name}: OLD median {med_old:.6g}, NEW median {med_new:.6g}, "
              f"NEW/OLD {ratio}")
    for side, label in enumerate(("OLD", "NEW")):
        print(f"{label} failures per seed: " + "; ".join(
            f"{args.first_seed + k}: {_failures(r[side])}" for k, r in enumerate(results)))
    same = all(r[0]["failed"] == r[1]["failed"] and r[0]["failures"] == r[1]["failures"]
               for r in results)
    print(f"failure counts identical per seed: {'yes' if same else 'no'}")
    if not all(r[side]["correct"] for r in results for side in (0, 1)):
        print("error: a run reported incorrect results", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
