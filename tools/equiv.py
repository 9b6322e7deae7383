"""Compare what two cutplan trees compute on one seed's benchmark corpora.

    python3 tools/equiv.py OLD_TREE NEW_TREE [SEED] [--scale S]

OLD_TREE and NEW_TREE are checkouts, each holding ``src/cutplan``; SEED
defaults to 1, and S (default 1.0) scales the corpora as the benchmark's
generators do, so a small S gives a quick check. The seed's three corpora
(``plan_chain``, ``plan_random`` and ``verify_ring``) are built once by
``perfbench.gen`` of the repository this tool lives in. The chain and ring
generators build their circuits with cutplan, so they run on OLD_TREE's.
Each tree then runs every operation in a subprocess of its own and records,
per operation, the exact ``repr`` of

- a plan: the parsed circuit's columns, the cut graph's columns, every key
  of both stage rows' JSON but ``wall_time_s`` (``lq_trace`` included), as
  one part per key, the clustering JSON, and the report JSON at eps 0.03 or
  the exception it raised;
- an estimate: the parsed circuit's columns, then ``cut_estimate``'s
  ``allocation`` (R, per-partition budgets and variant shot counts) and its
  ``estimate`` (the estimate and the variant means) as two parts, or the
  exception it raised as ``estimate``; then the exact values, each or the
  exception it raised: ``expectation_value`` as ``exact`` and
  ``exact_moments``' (mean, variance) as ``moments``. Only ``estimate``
  depends on the seed, so a change of the random stream shows there alone.

It prints, per workload, the operations whose records differ and the parts
that differ, and exits 1 if any operation differs, else 0. A stage-row key
that only one tree's rows have is a new or dropped key, not a changed value:
it is named once per workload and counts as no difference. For each plan
workload it then prints a quality ledger from the step-2 row's ``lq``, which
exists even when the report overflows: each tree's ``lq_sum``, the plans
whose ``lq`` fell, rose or held within 1e-9, the largest rise with its
operation index, and each tree's failures per kind (``plan:`` or
``report:`` and the exception's type, as the benchmark counts them). A plan
that failed counts as ``lq`` = inf. A second line names the largest rise
and the largest fall, each with its operation index and each tree's R for
that plan (``none`` for a plan that failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("plan_chain", "plan_random", "verify_ring")
REPORT_EPS = 0.03  # the benchmark's report eps
LEDGER_TOL = 1e-9  # the planner's own tolerance on log overheads


def _import_cutplan(tree: str):
    """cutplan and cutplan.cutsim from ``tree``'s ``src``, never another copy."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    import cutplan
    import cutplan.cutsim
    if not os.path.abspath(cutplan.__file__).startswith(src + os.sep):
        raise ImportError(f"cutplan was imported from {cutplan.__file__}, not {src}")
    return cutplan, cutplan.cutsim


def build_corpora(tree: str, seed: int, scale: float, path: str) -> None:
    _import_cutplan(tree)
    sys.path.insert(0, ROOT)
    from perfbench import gen
    corpora = {w: [dataclasses.astuple(item) for item in gen.CORPORA[w](seed, scale)]
               for w in WORKLOADS}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corpora, fh)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _circuit_text(circuit) -> str:
    return repr((circuit.num_qubits, circuit.name, circuit.kind, circuit.qubits,
                 circuit.params))


def _plan(cutplan, qasm: str, cap: int):
    """The plan's record, its step-2 ``lq`` and R (None if it failed) and
    its failure kind (None if it has none)."""
    try:
        circuit = cutplan.parse_qasm(qasm)
        graph = cutplan.build_cut_graph(circuit)
        result = cutplan.run_pipeline(graph, cap)
    except Exception as exc:  # a failing plan is an outcome to compare
        return {"plan": _error(exc)}, None, None, f"plan:{type(exc).__name__}"
    record = {
        "circuit": _circuit_text(circuit),
        "graph": repr((graph.mask, graph.gate_id, graph.slot, graph.u, graph.v,
                       [kind.value for kind in graph.kind], graph.w, graph.w_hat,
                       graph.kappa, graph.tau)),
        "clustering": json.dumps(result.clustering.to_json_dict(), sort_keys=True),
    }
    for stage in result.stages:
        row = stage.to_json_dict()
        del row["wall_time_s"]
        record.update((f"stages.{stage.stage}.{key}", repr(value))
                      for key, value in row.items())
    failure = None
    try:
        report = cutplan.build_report(result.clustering, graph, eps=REPORT_EPS)
        record["report"] = json.dumps(report.to_json_dict(), sort_keys=True)
    except Exception as exc:  # e.g. a shot budget beyond a float
        record["report"] = _error(exc)
        failure = f"report:{type(exc).__name__}"
    return record, result.stages[-1].lq, result.stages[-1].r, failure


def _estimate(cutplan, cutsim, partitions: int, eps: float, qasm: str,
              seed: int) -> dict[str, str]:
    try:
        circuit = cutplan.parse_qasm(qasm)
    except Exception as exc:  # a failing parse is an outcome to compare
        return {"circuit": _error(exc)}
    record = {"circuit": _circuit_text(circuit)}
    obs = cutsim.pauli_z_observable(range(circuit.num_qubits))
    try:
        run = cutsim.cut_estimate(circuit, cutsim.ring_cuts(partitions), obs, eps, seed=seed)
        record["allocation"] = repr((run.r, sorted(run.allocation.n_c.items()),
                                     sorted((c, sorted(v.items()))
                                            for c, v in run.allocation.variants.items())))
        record["estimate"] = repr((run.estimate, sorted((c, sorted(m.items()))
                                                        for c, m in run.variant_means.items())))
    except Exception as exc:  # a failing estimate is an outcome to compare
        record["estimate"] = _error(exc)
    moments = operator.attrgetter("mean", "variance")
    for part, exact in (
            ("exact", lambda: cutsim.expectation_value(circuit, obs)),
            ("moments", lambda: moments(cutsim.exact_moments(
                circuit, cutsim.ring_cuts(partitions), obs, eps)))):
        try:
            record[part] = repr(exact())
        except Exception as exc:  # so is a failing exact value
            record[part] = _error(exc)
    return record


def run_tree(tree: str, corpus_path: str, out_path: str) -> None:
    """Every operation of the corpora on ``tree``; writes each record's
    parts as SHA-256 digests, and each plan's step-2 ``lq``, R and failure."""
    cutplan, cutsim = _import_cutplan(tree)
    with open(corpus_path, encoding="utf-8") as fh:
        corpora = json.load(fh)
    records, lq, r, failures = {}, {}, {}, {}
    for workload, items in corpora.items():
        if workload == "verify_ring":
            ops = [_estimate(cutplan, cutsim, *item) for item in items]
        else:
            plans = [_plan(cutplan, *item) for item in items]
            ops = [record for record, _, _, _ in plans]
            lq[workload] = [value for _, value, _, _ in plans]
            r[workload] = [value for _, _, value, _ in plans]
            failures[workload] = [kind for _, _, _, kind in plans]
        records[workload] = [{part: hashlib.sha256(text.encode()).hexdigest()
                              for part, text in record.items()} for record in ops]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"records": records, "lq": lq, "r": r, "failures": failures}, fh)


def _is_stage_key(part: str) -> bool:
    return part.startswith("stages.")


def compare(old: dict, new: dict) -> int:
    """Print the differing operations per workload; returns their count.
    Stage-row keys that one of two plans' rows lack are listed apart."""
    total = 0
    for workload in WORKLOADS:
        diffs = []
        only = {"OLD": set(), "NEW": set()}
        for op, (a, b) in enumerate(zip(old[workload], new[workload])):
            parts = {p for p in a.keys() | b.keys() if a.get(p) != b.get(p)}
            if any(map(_is_stage_key, a)) and any(map(_is_stage_key, b)):
                one_sided = {p for p in a.keys() ^ b.keys() if _is_stage_key(p)}
                only["OLD"] |= one_sided & a.keys()
                only["NEW"] |= one_sided & b.keys()
                parts -= one_sided
            if parts:
                diffs.append(f"  op {op}: {', '.join(sorted(parts))}")
        if len(old[workload]) != len(new[workload]):
            diffs.append(f"  operation counts {len(old[workload])} != {len(new[workload])}")
        print(f"{workload}: {len(old[workload])} operations, {len(diffs)} differ")
        for line in diffs:
            print(line)
        for tree, keys in only.items():
            if keys:
                print(f"  stage keys only in {tree}: {', '.join(sorted(keys))}")
        total += len(diffs)
    return total


def ledger(workload: str, old_lq: list, new_lq: list, old_failures: list,
           new_failures: list) -> str:
    """One plan workload's quality ledger line, from each tree's per-plan
    ``lq`` (None for a failed plan) and failure kind (None for none)."""
    old, new = ([math.inf if v is None else v for v in lq] for lq in (old_lq, new_lq))
    pairs = list(zip(old, new))
    better = sum(b < a - LEDGER_TOL for a, b in pairs)
    rises = [(b - a, op) for op, (a, b) in enumerate(pairs) if b > a + LEDGER_TOL]
    sums = (sum(v for v in lq if v is not None) for lq in (old_lq, new_lq))
    largest = "+{:.6g} at op {}".format(*max(rises)) if rises else "none"
    counts = [Counter(kind for kind in kinds if kind) for kinds in (old_failures, new_failures)]
    failures = ", ".join(f"{kind} {counts[0][kind]} -> {counts[1][kind]}"
                         for kind in sorted(counts[0] | counts[1])) or "none"
    return (f"{workload} ledger: lq_sum {' -> '.join(f'{s:.6f}' for s in sums)}; "
            f"{better} better, {len(rises)} worse, {len(pairs) - better - len(rises)} equal; "
            f"largest rise {largest}; failures {failures}")


def extremes(workload: str, old_lq: list, new_lq: list, old_r: list, new_r: list) -> str:
    """One plan workload's largest rise and largest fall of ``lq``, each
    with its operation index and each tree's R (None for a failed plan)."""
    old, new = ([math.inf if v is None else v for v in lq] for lq in (old_lq, new_lq))
    moves = [(b - a, op) for op, (a, b) in enumerate(zip(old, new)) if abs(b - a) > LEDGER_TOL]

    def name(kind, pick, changes):
        if not changes:
            return f"largest {kind} none"
        delta, op = pick(changes)
        r = ["none" if v is None else v for v in (old_r[op], new_r[op])]
        return f"largest {kind} {delta:+.6g} at op {op}, R {r[0]} -> {r[1]}"

    return (f"{workload} extremes: {name('rise', max, [m for m in moves if m[0] > 0])}; "
            f"{name('fall', min, [m for m in moves if m[0] < 0])}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--corpus"]:
        build_corpora(argv[1], int(argv[2]), float(argv[3]), argv[4])
        return 0
    if argv[:1] == ["--run"]:
        run_tree(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("seed", nargs="?", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if not args.scale > 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.json")
        subprocess.run([sys.executable, __file__, "--corpus", args.old_tree, str(args.seed),
                        str(args.scale), corpus], check=True)
        records = []
        for tree in (args.old_tree, args.new_tree):
            out = os.path.join(tmp, "records.json")
            subprocess.run([sys.executable, __file__, "--run", tree, corpus, out], check=True)
            with open(out, encoding="utf-8") as fh:
                records.append(json.load(fh))
    old, new = records
    differ = compare(old["records"], new["records"])
    for workload in old["lq"]:
        print(ledger(workload, old["lq"][workload], new["lq"][workload],
                     old["failures"][workload], new["failures"][workload]))
        print(extremes(workload, old["lq"][workload], new["lq"][workload],
                       old["r"][workload], new["r"][workload]))
    print(f"seed {args.seed}: {differ} differing operation(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
