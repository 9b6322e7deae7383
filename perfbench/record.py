"""Run the benchmark over several seeds and record one point of the trajectory.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/trajectory/<label>.json

Each workload runs once per seed with tracing off; right after the first
seed it also runs once with tracing on. The file keeps every run's metrics
and failures, and per end-to-end metric the median and the quartile spread
(q3 - q1) / median that ``statistics.quantiles(values, n=4)`` gives, next to
the metric's bound. The tracing overhead is the traced run's median
operation time minus the untraced one of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("# detail "))[len("# detail "):])
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "trace": trace,
        "wall_s": wall,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": detail["failures"],
        "samples": detail["samples"],
        "env": detail["env"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        entry = {"median": median, "bound": bounds[name]}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / median if median else 0.0
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in names:
        runs, entry = [], {}
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed={seed} wall={runs[-1]['wall_s']:.1f}s "
                  + json.dumps(runs[-1]["metrics"]), flush=True)
            if len(runs) == 1:
                traced = run_once(workload, seed, spec["run_seconds"], 1)
                entry["traced"] = traced
                entry["tracing_overhead_s"] = (traced["metrics"]["trace.op_s_p50"]
                                               - runs[0]["metrics"]["op_s_p50"])
                print(f"{workload} traced wall={traced['wall_s']:.1f}s", flush=True)
        entry.update(untraced=summarise(runs, bounds), runs=runs)
        record["workloads"][workload] = entry
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for workload, entry in record["workloads"].items():
        for name, s in entry["untraced"].items():
            print(f"{workload:<12} {name:<12} median={s['median']:.6g} "
                  f"spread={s.get('spread', 0.0):.4f} bound={s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
